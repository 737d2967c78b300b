"""Fractional-ideal arithmetic as canonical integer modules.

A fractional ideal is stored as an integer basis matrix in the canonical
lower-triangular Hermite normal form over the field's integral power
basis, together with a minimal positive denominator, so ideal equality
is representation equality.

Products never let intermediate entries outgrow the answer: the pairwise
generator rows are Hermite-reduced modulo the exact determinant of the
product module (hnf_mod_d), which is known in advance because covolumes
multiply.  When a principal generator of an operand is known -- recorded
privately on the ideal, never part of its value -- products, powers,
conjugates and inverses shrink to element arithmetic plus one m-row
reduction.  Radical generators are only ever attached after an exact
module-equality check, never assumed.

Radicals above ramified primes are computed as the preimage of the
nilradical of O_K/p (the kernel of an iterated Frobenius map on the
GF(p)-algebra O_K/p); each radical is checked against the Galois norm
identity norm(J_p) = p^(degree/e_p).  Inverses go through the trace-dual
identity A^-1 = D_K * tracedual(conj(A), 1), with the different D_K
certified once per field against the codifferent.  Valuations are
certified: a norm computation proposes the exponent and an exact
containment test proves all primes above p carry it with equal
multiplicity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import (
    CyclotomicField,
    FieldElement,
    FieldMismatch,
    NotRamified,
    RealCyclotomicField,
    SpecError,
    factorize,
    is_totally_positive,
    trace_pairing,
)
from .linalg import (
    FormError,
    hnf_mod_d,
    invert,
    mat_mul,
    nullspace_mod_p,
    row_module_hnf,
    transpose,
)

__all__ = [
    "FractionalIdeal", "IdealRecipe", "ZeroIdeal", "Unsupported",
    "NotRamified", "principal", "radical_above", "ideal_mul", "ideal_pow",
    "ideal_inverse", "trace_dual", "trace_dual_via_inverse", "codifferent",
    "different", "conj_ideal", "valuation", "gamma_element", "realize",
]


class ZeroIdeal(ValueError):
    """The zero element does not generate a fractional ideal."""


class Unsupported(ValueError):
    """The ideal is outside the supported shape (unequal exponents above p)."""


# --------------------------------------------------------------------------
# the fractional ideal value type
# --------------------------------------------------------------------------

class FractionalIdeal:
    """Full-rank Z-module in the field: canonical HNF numerator / denominator.

    A known principal generator may ride along in the private ``_gen``
    slot.  It is never part of the value (equality and hashing ignore
    it); it only lets products, powers and inverses run on the element
    instead of on m^2 generator rows.
    """

    __slots__ = ("field", "num", "den", "_gen")

    def __init__(self, field, num, den, gen=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_gen", gen)

    def __setattr__(self, name, value):
        raise AttributeError("FractionalIdeal is immutable")

    @classmethod
    def from_rows(cls, field, rows):
        """Canonicalize a generating set of coefficient rows (rational entries)."""
        den = 1
        for row in rows:
            for c in row:
                c = Fraction(c)
                den = lcm(den, c.denominator)
        int_rows = [[int(Fraction(c) * den) for c in row] for row in rows]
        hnf_rows = row_module_hnf(int_rows)
        if len(hnf_rows) != field.degree:
            raise ZeroIdeal(
                f"generators span a rank-{len(hnf_rows)} module; "
                f"a fractional ideal needs full rank {field.degree}")
        return _reduced(field, hnf_rows, den)

    @classmethod
    def ring(cls, field):
        """The ring of integers O_K as an ideal."""
        m = field.degree
        ident = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        return cls(field, ident, 1, field.one())

    # -- accessors ------------------------------------------------------------
    def basis_elements(self):
        return [self.field.element([Fraction(e, self.den) for e in row])
                for row in self.num]

    def norm(self):
        """Generalized index [O_K : A] as a positive rational.

        The numerator is lower triangular by construction, so its
        determinant is the product of the diagonal.
        """
        d = 1
        for i, row in enumerate(self.num):
            d *= row[i]
        return Fraction(abs(d), self.den ** self.field.degree)

    def is_ring(self):
        return self == FractionalIdeal.ring(self.field)

    def contains(self, x):
        """Exact membership test for a field element."""
        if x.field != self.field:
            raise FieldMismatch("element belongs to a different field")
        target = [c * self.den for c in x.coeffs]
        m = self.field.degree
        # lower-triangular back-substitution from the last coordinate
        coeffs = [Fraction(0)] * m
        for i in range(m - 1, -1, -1):
            resid = target[i] - sum(coeffs[j] * self.num[j][i] for j in range(i + 1, m))
            q = resid / self.num[i][i]
            if q.denominator != 1:
                return False
            coeffs[i] = q
        return True

    # -- operators ------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, FractionalIdeal):
            return ideal_mul(self, other)
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, int):
            return ideal_pow(self, k)
        return NotImplemented

    def conj(self):
        return conj_ideal(self)

    def inverse(self):
        return ideal_inverse(self)

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return (self.field, self.num, self.den) == (other.field, other.num, other.den)

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        return (f"FractionalIdeal({self.field.spec_string()}, den={self.den}, "
                f"norm={self.norm()})")


# --------------------------------------------------------------------------
# shared canonicalization helpers
# --------------------------------------------------------------------------

def _reduced(field, hnf_rows, den, gen=None):
    """Strip the joint content of an HNF/denominator pair, then freeze it."""
    g = den
    for row in hnf_rows:
        for e in row:
            g = gcd(g, e)
        if g == 1:
            break
    if g > 1:
        hnf_rows = [[e // g for e in row] for row in hnf_rows]
        den //= g
    return FractionalIdeal(field, tuple(tuple(r) for r in hnf_rows), den, gen)


def _int_entries(rows):
    """Rows of exactly-integral Fractions as plain ints (checked)."""
    out = []
    for row in rows:
        r = []
        for c in row:
            if c.denominator != 1:
                raise ArithmeticError("expected integral coordinates")
            r.append(c.numerator)
        out.append(r)
    return out


def _certified_hnf(rows, d_det, what):
    """Canonical HNF of integer rows whose module has the known determinant
    d_det: reduced modulo d_det (Cohen, §2.4), then certified by the pivot
    product, since a lost index would leave a proper supermodule."""
    if d_det.denominator != 1:
        raise ArithmeticError(f"{what} determinant must be an integer")
    d_int = int(d_det)
    w = hnf_mod_d(rows, d_int)
    piv = 1
    for i, row in enumerate(w):
        piv *= row[i]
    if piv != d_int:
        raise ArithmeticError(
            f"{what} reduction lost index: pivot product {piv} != "
            f"determinant {d_int}")
    return w


def _den_scaled(x):
    """(den, integer coefficient vector of den*x) for a field element."""
    den = 1
    for c in x.coeffs:
        den = lcm(den, c.denominator)
    return den, [int(c * den) for c in x.coeffs]


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def principal(gamma):
    """The principal fractional ideal (gamma)."""
    if not isinstance(gamma, FieldElement):
        raise TypeError("principal expects a FieldElement")
    if gamma.is_zero:
        raise ZeroIdeal("the zero element generates no fractional ideal")
    return _principal(gamma, abs(gamma.norm()))


def _principal(gamma, abs_norm):
    """(gamma) given |N(gamma)|: m shift rows, Hermite-reduced mod the
    exact determinant |N(den*gamma)| of the scaled row module, then
    certified against it, so nothing ever outgrows the answer."""
    field = gamma.field
    m = field.degree
    den, vec = _den_scaled(gamma)
    rows = []
    cur = vec
    for _ in range(m):
        rows.append(cur)
        cur = field._shift_reduce(cur)
    w = _certified_hnf(rows, Fraction(den) ** m * abs_norm, "principal ideal")
    return _reduced(field, w, den, gen=gamma)


def _principal_times_module(g, abs_norm_g, mod):
    """g * M from m generator rows; exact determinant known in advance
    because scaling by g multiplies every covolume by |N(g)|."""
    field = mod.field
    m = field.degree
    den_g, g_vec = _den_scaled(g)
    det_num = 1
    for i, row in enumerate(mod.num):
        det_num *= row[i]
    rows = _int_entries([field._mul_coeffs(g_vec, list(row)) for row in mod.num])
    w = _certified_hnf(rows, Fraction(den_g) ** m * abs_norm_g * det_num,
                       "principal product")
    gen = g * mod._gen if mod._gen is not None else None
    return _reduced(field, w, den_g * mod.den, gen)


def _theta_power_mod(field, k, p):
    """Coefficients of theta^k in O_K/p (small-int shift-reduce)."""
    m = field.degree
    mp_ = [c % p for c in field.minpoly]
    cur = [1 % p] + [0] * (m - 1)
    for _ in range(k):
        top = cur[m - 1]
        cur = [0] + cur[: m - 1]
        if top:
            for j in range(m):
                cur[j] = (cur[j] - top * mp_[j]) % p
    return cur


def _mat_mul_mod(a, b, p):
    n = len(a)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


_RADICAL_CACHE = {}


def radical_above(field, p):
    """The radical J_p of pO_K: the product of all primes above p, exponent 1.

    Computed as the preimage of the nilradical of O_K/p, i.e. the kernel
    of x -> x^(p^s) on the GF(p)-algebra O_K/p once p^s >= degree; the
    result is certified by norm(J_p) = p^(degree/e_p).
    """
    key = (field, p)
    cached = _RADICAL_CACHE.get(key)
    if cached is not None:
        return cached
    field._check_ramified(p)
    m = field.degree
    frob = [_theta_power_mod(field, j * p, p) for j in range(m)]
    power = frob
    ps = p
    while ps < m:
        power = _mat_mul_mod(power, frob, p)
        ps *= p
    kernel = nullspace_mod_p(transpose([list(r) for r in power]), p)
    # span(kernel) + pZ^m is the preimage of the nilradical
    radical = FractionalIdeal(field, tuple(tuple(r) for r in hnf_mod_d(kernel, p)), 1)
    expected = Fraction(p ** field.residue_product(p))
    if radical.norm() != expected:
        raise ArithmeticError(
            f"radical above {p} in {field.spec_string()} has norm {radical.norm()}, "
            f"expected {expected}: ramification data inconsistent")
    gen = _radical_generator(field, p, radical)
    if gen is not None:
        radical = FractionalIdeal(field, radical.num, radical.den, gen)
    _RADICAL_CACHE[key] = radical
    return radical


def _radical_generator(field, p, radical):
    """A proved principal generator of J_p, when a distinguished one exists.

    Candidates: the descended (1-zeta_q)(1-zeta_q^-1) in the real
    cyclotomic family and 1-zeta_q in the cyclotomic family, q = p^(r_p).
    A candidate is attached only when (candidate) equals J_p as a module
    -- cheap norm filter first, then the exact comparison -- so the fast
    paths never rest on an unproved principality claim.
    """
    cand = None
    if isinstance(field, RealCyclotomicField):
        cand = gamma_element(field, p)
    elif isinstance(field, CyclotomicField):
        q = p ** factorize(field.n)[p]
        cand = field.one() - field.theta_power(field.n // q)
    if cand is None or cand.is_zero:
        return None
    nrm = abs(cand.norm())
    if nrm != radical.norm():
        return None
    if _principal(cand, nrm) == radical:
        return cand
    return None


# --------------------------------------------------------------------------
# multiplicative structure
# --------------------------------------------------------------------------

def ideal_mul(a, b):
    """Product ideal: module generated by pairwise basis products.

    Known generators collapse the work to element arithmetic.  The
    generic path Hermite-reduces the m^2 integer product rows modulo
    det(num_a) * det(num_b): covolumes of integral modules multiply
    under products of ideals, and that determinant times Z^m always
    sits inside the product module, so the reduction is exact and no
    intermediate entry can outgrow it.
    """
    if a.field != b.field:
        raise FieldMismatch("ideal product requires the same field")
    if a.is_ring():
        return b
    if b.is_ring():
        return a
    if a._gen is not None and b._gen is not None:
        return _principal(a._gen * b._gen, a.norm() * b.norm())
    if a._gen is not None:
        return _principal_times_module(a._gen, a.norm(), b)
    if b._gen is not None:
        return _principal_times_module(b._gen, b.norm(), a)
    field = a.field
    det_a = det_b = 1
    for i in range(field.degree):
        det_a *= a.num[i][i]
        det_b *= b.num[i][i]
    rows = []
    for x in a.num:
        x = list(x)
        for y in b.num:
            rows.append(field._mul_coeffs(x, list(y)))
    w = hnf_mod_d(_int_entries(rows), det_a * det_b)
    return _reduced(field, w, a.den * b.den)


def ideal_pow(a, k):
    if k == 0:
        return FractionalIdeal.ring(a.field)
    if a._gen is not None:
        g, nrm = a._gen, a.norm()
        if k < 0:
            g, nrm = g.inverse(), 1 / nrm
        return _principal(g ** abs(k), nrm ** abs(k))
    base = a if k > 0 else ideal_inverse(a)
    e = abs(k)
    out = None
    while e:
        if e & 1:
            out = base if out is None else ideal_mul(out, base)
        e >>= 1
        if e:
            base = ideal_mul(base, base)
    return out


def conj_ideal(a):
    """Image of the ideal under complex conjugation."""
    field = a.field
    g = field.conj_generator()
    if g is None:
        return a
    if a._gen is not None:
        return _principal(a._gen.conj(), a.norm())
    # conjugation permutes O_K, so it is unimodular on coordinates and
    # the conjugated module has the same determinant
    det_a = 1
    rows = []
    for i, row in enumerate(a.num):
        det_a *= row[i]
        rows.append(field._conj(field.element(list(row))).coeffs)
    w = _certified_hnf(_int_entries(rows), det_a, "conjugation")
    return _reduced(field, w, a.den)


# --------------------------------------------------------------------------
# trace duality, codifferent, different, inverses
# --------------------------------------------------------------------------

def trace_dual(a, alpha):
    """{x : Tr(alpha * x * conj(y)) in Z for all y in A}, via Gram inversion.

    A known generator g of A turns the dual into the single principal
    product (alpha * conj(g))^-1 * D_K^-1 (the ring itself stays on the
    generic path, which is what defines the codifferent).
    """
    field = a.field
    if not isinstance(alpha, FieldElement) or alpha.field != field:
        raise FieldMismatch("alpha must be an element of the ideal's field")
    if not is_totally_positive(alpha):
        raise FormError("alpha must be totally positive for the trace form")
    if a._gen is not None and not a.is_ring():
        g = (alpha * a._gen.conj()).inverse()
        return _principal_times_module(
            g, 1 / (a.norm() * abs(alpha.norm())), codifferent(field))
    basis = a.basis_elements()
    scaled_rows = [(alpha * x).coeffs for x in basis]
    conj_rows = [x.conj().coeffs for x in basis]
    gram = trace_pairing(field, scaled_rows, conj_rows)
    ginv = invert(gram)
    basis_rows = [[Fraction(e, a.den) for e in row] for row in a.num]
    dual_rows = mat_mul(ginv, basis_rows)
    # the dual covolume is forced: 1 / (|N(alpha)| * norm(A) * |disc|),
    # so the integer rows reduce modulo their exact determinant
    m = field.degree
    den_d = 1
    for row in dual_rows:
        for c in row:
            den_d = lcm(den_d, c.denominator)
    int_rows = [[int(c * den_d) for c in row] for row in dual_rows]
    d_det = Fraction(den_d) ** m / (abs(alpha.norm()) * a.norm()
                                    * abs(field.discriminant()))
    return _reduced(field, _certified_hnf(int_rows, d_det, "trace dual"), den_d)


_CODIFF_CACHE = {}
_DIFF_CACHE = {}


def codifferent(field):
    """The inverse different D_K^-1 = trace dual of O_K."""
    if field not in _CODIFF_CACHE:
        _CODIFF_CACHE[field] = trace_dual(FractionalIdeal.ring(field), field.one())
    return _CODIFF_CACHE[field]


def _module_inverse(a):
    """{x : x*A <= O_K} by lattice duality (no different needed).

    The coefficient-space Z-dual of a lattice with basis rows B is the
    row span of (B^T)^-1, and (L1 cap L2)^dual = L1^dual + L2^dual, so
    the intersection of the principal modules (b_i^-1) is the dual of
    the sum of their duals.
    """
    field = a.field
    m = field.degree
    dual_rows = []
    for b in a.basis_elements():
        binv = b.inverse()
        rows = [[Fraction(c) for c in (binv * w).coeffs] for w in field.power_basis()]
        for row in transpose(invert(rows)):
            dual_rows.append(row)
    den = 1
    for row in dual_rows:
        for c in row:
            den = lcm(den, c.denominator)
    int_rows = [[int(c * den) for c in row] for row in dual_rows]
    summed = row_module_hnf(int_rows)
    s_rational = [[Fraction(e, den) for e in row] for row in summed]
    inv_rows = transpose(invert(s_rational))
    return FractionalIdeal.from_rows(field, inv_rows)


def different(field):
    """The different ideal D_K (certified inverse of the codifferent, cached).

    A candidate assembled from radical powers is tried first (fast when
    the radicals carry proved generators); candidate * D_K^-1 == O_K pins
    it as the exact module inverse, since norms multiply to 1 and the
    product being O_K forces equality of full modules.  If no candidate
    certifies, the direct module inversion of the codifferent decides.
    """
    if field not in _DIFF_CACHE:
        codiff = codifferent(field)
        ring = FractionalIdeal.ring(field)
        diff = None
        try:
            cand = ring
            for p in sorted(field.omega()):
                cand = ideal_mul(
                    cand, ideal_pow(radical_above(field, p),
                                    field.different_exponent(p)))
            if ideal_mul(cand, codiff) == ring:
                diff = cand
        except (ValueError, ArithmeticError):
            diff = None
        if diff is None:
            diff = _module_inverse(codiff)
            if ideal_mul(diff, codiff) != ring:
                raise ArithmeticError("different bootstrap failed the inverse check")
        _DIFF_CACHE[field] = diff
    return _DIFF_CACHE[field]


def ideal_inverse(a):
    """A^-1 through the trace-dual identity tracedual(conj A, 1) = D_K^-1 A^-1."""
    if a._gen is not None:
        return _principal(a._gen.inverse(), 1 / a.norm())
    return ideal_mul(different(a.field), trace_dual(conj_ideal(a), a.field.one()))


def trace_dual_via_inverse(a, alpha):
    """Independent second computation of the trace dual:
    alpha^-1 * D_K^-1 * conj(A)^-1 via ideal arithmetic only."""
    field = a.field
    return ideal_mul(
        ideal_mul(principal(alpha.inverse()), codifferent(field)),
        _module_inverse(conj_ideal(a)))


# --------------------------------------------------------------------------
# valuations
# --------------------------------------------------------------------------

def _int_val(n, p):
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(a, p):
    """Common exponent of the primes above p in A (certified).

    The norm proposes k = v_p(norm A)/(f*g); the certificate checks that
    A * J_p^-k is p-integral, which together with its norm being a p-unit
    forces every prime above p to zero exponent.  Ideals with unequal
    exponents above p raise Unsupported.
    """
    field = a.field
    fg = field.residue_product(p)  # raises NotRamified for unramified p
    nrm = a.norm()
    kn = _int_val(nrm.numerator, p) - _int_val(nrm.denominator, p)
    if kn % fg:
        raise Unsupported(
            f"norm valuation {kn} at {p} is not a multiple of f*g = {fg}: "
            f"unequal exponents above {p}")
    k = kn // fg
    b = a if k == 0 else ideal_mul(a, ideal_pow(radical_above(field, p), -k))
    exp2 = _int_val(b.den, p) if b.den % p == 0 else 0
    if exp2:
        pk = p ** exp2
        if any(e % pk for row in b.num for e in row):
            raise Unsupported(f"ideal has unequal exponents at the primes above {p}")
    return k


# --------------------------------------------------------------------------
# distinguished elements and recipes
# --------------------------------------------------------------------------

def gamma_element(field, p):
    """The totally positive generator (1 - zeta_q)(1 - zeta_q^-1), q = p^(r_p).

    In the real subfield this is 2 - (zeta_q + zeta_q^-1); for a
    prime-power conductor it generates the unique prime above p.
    """
    if isinstance(field, RealCyclotomicField):
        q = p ** field._nfac[p]
        amb = field.ambient
        k = field.n // q
        g = (amb.one() - amb.theta_power(k)) * (amb.one() - amb.theta_power(amb.n - k))
        return field.descend(g)
    if isinstance(field, CyclotomicField):
        q = p ** factorize(field.n)[p]
        k = field.n // q
        return (field.one() - field.theta_power(k)) * \
            (field.one() - field.theta_power(field.n - k))
    raise SpecError(
        f"gamma_element is defined for the cyclotomic families, not {field.spec_string()}")


class IdealRecipe:
    """Formal product of radical powers and principal factors.

    String grammar (factors joined by ``*``):
      ``P<p>^<k>``        radical above the prime p, exponent k
      ``(<rational>)^<k>``  principal ideal of a rational number
      ``([c0,c1,...])^<k>`` principal ideal of the element with those coefficients
    ``^<k>`` may be omitted when k = 1; the empty string denotes O_K.
    """

    __slots__ = ("field", "factors")

    def __init__(self, field, factors):
        checked = []
        for kind, payload, k in factors:
            if not isinstance(k, int) or k == 0:
                raise SpecError(f"recipe exponents must be nonzero integers, got {k!r}")
            if kind == "radical":
                if factorize(payload) != {payload: 1}:
                    raise SpecError(f"P{payload} is not a prime radical")
            elif kind == "principal":
                if not isinstance(payload, FieldElement) or payload.field != field:
                    raise SpecError("principal recipe factors must be field elements")
                if payload.is_zero:
                    raise ZeroIdeal("principal factor of zero")
            else:
                raise SpecError(f"unknown recipe factor kind {kind!r}")
            checked.append((kind, payload, k))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", tuple(checked))

    def __setattr__(self, name, value):
        raise AttributeError("IdealRecipe is immutable")

    @classmethod
    def parse(cls, field, text):
        if not isinstance(text, str):
            raise SpecError("recipe must be a string")
        body = text.strip()
        if body in ("", "O_K", "1"):
            return cls(field, ())
        factors = []
        for piece in body.split("*"):
            tok = piece.strip()
            base, sep, exp_text = tok.partition("^")
            base = base.strip()
            try:
                k = int(exp_text.strip()) if sep else 1
            except ValueError:
                raise SpecError(f"bad exponent in recipe factor {tok!r}") from None
            if base.startswith("P") and base[1:].isdigit():
                factors.append(("radical", int(base[1:]), k))
            elif base.startswith("(") and base.endswith(")"):
                inner = base[1:-1].strip()
                if inner.startswith("[") and inner.endswith("]"):
                    try:
                        coeffs = [Fraction(c.strip()) for c in inner[1:-1].split(",")]
                        element = field.element(coeffs)
                    except ValueError:
                        raise SpecError(f"bad coefficient list in {tok!r}") from None
                    factors.append(("principal", element, k))
                else:
                    try:
                        value = Fraction(inner)
                    except ValueError:
                        raise SpecError(f"bad rational in recipe factor {tok!r}") from None
                    factors.append(("principal", field.rational(value), k))
            else:
                raise SpecError(f"cannot parse recipe factor {tok!r}")
        return cls(field, factors)

    def to_string(self):
        parts = []
        for kind, payload, k in self.factors:
            if kind == "radical":
                base = f"P{payload}"
            elif payload.is_rational:
                base = f"({payload.as_rational()})"
            else:
                base = "([" + ",".join(str(c) for c in payload.coeffs) + "])"
            parts.append(base if k == 1 else f"{base}^{k}")
        return "*".join(parts)

    def __eq__(self, other):
        if not isinstance(other, IdealRecipe):
            return NotImplemented
        return (self.field, self.factors) == (other.field, other.factors)

    def __hash__(self):
        return hash((self.field, self.factors))

    def __repr__(self):
        return f"IdealRecipe({self.field.spec_string()}, {self.to_string()!r})"


def realize(recipe):
    """Evaluate a recipe to its canonical fractional ideal."""
    out = FractionalIdeal.ring(recipe.field)
    for kind, payload, k in recipe.factors:
        base = radical_above(recipe.field, payload) if kind == "radical" \
            else principal(payload)
        out = ideal_mul(out, ideal_pow(base, k))
    return out
