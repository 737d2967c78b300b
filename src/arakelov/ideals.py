"""Fractional-ideal arithmetic as canonical integer modules.

A fractional ideal is stored as an integer basis matrix in the canonical
lower-triangular Hermite normal form over the field's integral power
basis, together with a minimal positive denominator, so ideal equality
is representation equality.

Products never let intermediate entries outgrow the answer: generator
rows are Hermite-reduced (hnf_mod_d) modulo a positive integer that lies
in the module.  Every module here is an O_K-module and O_K = Z[theta], so
an integer e in it gives e*Z^m inside it; the least one, e = h_00 of a
lower-triangular HNF, multiplies under products and is the denominator of
1/g for a principal (g).  The exact determinant, known in advance because
covolumes multiply, then certifies the result through the pivot product.
When a principal generator of an operand is known -- recorded privately
on the ideal, never part of its value -- products, powers, conjugates
and inverses shrink to element arithmetic.  A principal ideal keeps only
its generator and norm, and builds its rows (one m-row reduction) on
first read; two such ideals compare on their generators.  It also keeps
a generator of its inverse ideal, any unit multiple of 1/gen, formed on
first read from its operands' (a product of theirs for a product, the
base's power for a power, the other generator for an inverse), so no
power is inverted.  Radical generators are only ever attached after an
exact norm and unit check, never assumed.

Radicals above ramified primes are computed as the preimage of the
nilradical of O_K/p, the kernel of the additive map x -> x^(p^j) on the
GF(p)-algebra O_K/p (Cohen, A Course in Computational Algebraic Number
Theory, 6.1), whose matrix rows are the powers of the one element
tau = theta^(p^j) mod p; each radical is checked against the Galois norm
identity norm(J_p) = p^(degree/e_p).  In every supported family some
power J_p^s, s <= 2, has a generator g proved by element arithmetic
(_radical_generator).  A recipe keeps one factored form (G, S): with
J_p^k = (g^q) * J_p^r, k = q*s + r, 0 <= r < s, and (g^q) in the normal
form p^a * (g^b), q = a*t + b, 0 <= b < t = e_p/s, as (g)^t = (p) (Cohen,
4.8), the principal G holds every p^a * g^b and principal factor, S
every p with r = 1, and realize is G * prod_S J_p, where the coprime
radicals multiply as their intersection sum_p (n/p) * J_p, n = prod_S p,
from |S|*m rows reduced modulo n.  As J_p is Galois-stable and J_p^2 = (g), I * conj(I) is
principal, so the witness self-check and the valuation certificate run
on generators and no pipeline squares or inverts a module.  By Euler's
lemma the codifferent is (1/f'(theta)), so the trace dual of a principal
ideal is one element and the different is (f'(theta)); other inverses
use the identity A^-1 = D_K * tracedual(conj(A), 1).  With one prime
above p, of residue degree 1, the valuation is read off the norm;
otherwise valuations are certified: a norm computation proposes the
exponent and an exact p-integrality test proves all primes above p carry
it with equal multiplicity.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .fields import (
    CyclotomicField,
    FieldElement,
    FieldMismatch,
    NotRamified,
    RealCyclotomicField,
    SpecError,
    factorize,
    is_totally_positive,
    _INTEGER,
    _NATURAL,
    _ascii_rational,
    _link_inverses,
    _power,
    trace_pairing,
)
from .linalg import (
    FormError,
    hnf_mod_d,
    invert,
    nullspace_mod_p,
    row_module_hnf,
    solve_integral,
    transpose,
)

__all__ = [
    "FractionalIdeal", "IdealRecipe", "ZeroIdeal", "Unsupported",
    "NotRamified", "RecipeTooLarge", "RECIPE_BITS_LIMIT", "principal",
    "radical_above", "ideal_mul", "ideal_pow", "ideal_inverse", "trace_dual",
    "trace_dual_via_inverse", "codifferent", "different", "conj_ideal",
    "valuation", "gamma_element", "realize",
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
    slot; it lets products, powers, conjugates and inverses run on the
    element instead of on m^2 generator rows.  An ideal made from a
    generator keeps only (gen, |N(gen)|): its canonical rows ``num`` are
    built on first read (``num``, ``basis_elements``, ``contains``,
    hashing, or comparison with an ideal that has only rows), ``den`` is
    ``gen.den`` and ``norm()`` returns the stored norm.  It also keeps, in
    ``_igen``, a generator of its inverse ideal: any unit multiple of
    1/gen, formed on first read by _inverse_generator, from a pending
    product of its operands' inverse generators where one is recorded,
    else as gen.inverse().  Two ideals that both know a generator compare
    on the generators: (a) = (b) exactly when |N(a)| = |N(b)| and a times
    a generator of (b)^-1 has integer power-basis coordinates, since
    O_K = Z[theta] and an integral element of norm +-1 is a unit.
    No slot but the rows is part of the value: equal modules compare and
    hash equal whichever form they are kept in.
    """

    __slots__ = ("field", "_num", "_den", "_gen", "_igen", "_norm")

    def __init__(self, field, num, den, gen=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_igen", None)
        object.__setattr__(self, "_norm", None)

    def __setattr__(self, name, value):
        raise AttributeError("FractionalIdeal is immutable")

    @property
    def num(self):
        if self._num is None:
            self._build_rows()
        return self._num

    @property
    def den(self):
        return self._gen.den if self._den is None else self._den

    def _build_rows(self):
        """Rows of (gen): the m shift rows of u = den*gen, Hermite-reduced
        mod the least integer of (u), then certified against the exact
        determinant |N(u)|, so nothing ever outgrows the answer.  (u) has
        content gcd(u), prime to den, so (rows, den) is in lowest terms."""
        gen = self._gen
        rows = self.field._mul_rows(list(gen.num))
        w = _certified_hnf(rows, _least_integer(self),
                           gen.den ** self.field.degree * self._norm,
                           "principal ideal")
        object.__setattr__(self, "_num", tuple(tuple(r) for r in w))

    @classmethod
    def from_rows(cls, field, rows):
        """Canonicalize a generating set of coefficient rows (rational entries)."""
        rows = [[Fraction(c) for c in row] for row in rows]
        den = lcm(*(c.denominator for row in rows for c in row))
        int_rows = [[c.numerator * (den // c.denominator) for c in row] for row in rows]
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
        return [self.field._element(row, self.den) for row in self.num]

    def norm(self):
        """Generalized index [O_K : A] as a positive rational.

        An ideal kept as a generator returns the stored |N(gen)|; otherwise
        the numerator is lower triangular by construction, so its
        determinant is the product of the diagonal.
        """
        if self._norm is None:
            object.__setattr__(self, "_norm", Fraction(
                abs(_pivots(self.num)), self.den ** self.field.degree))
        return self._norm

    def is_ring(self):
        """O_K is the integral ideal of norm 1: a known generator must be
        integral, and rows must have denominator 1."""
        if self.norm() != 1:
            return False
        if self._gen is not None:
            return self._gen.den == 1  # O_K = Z[theta]
        return self.den == 1

    def contains(self, x):
        """Exact membership test for a field element."""
        if x.field != self.field:
            raise FieldMismatch("element belongs to a different field")
        # den * x must have integer coordinates; as gcd(x.den, *x.num) == 1,
        # that holds exactly when x.den divides den
        if self.den % x.den:
            return False
        scale = self.den // x.den
        target = [c * scale for c in x.num]
        num, m = self.num, self.field.degree
        # lower-triangular back-substitution from the last coordinate
        coeffs = [0] * m
        for i in range(m - 1, -1, -1):
            resid = target[i] - sum(coeffs[j] * num[j][i] for j in range(i + 1, m))
            q, r = divmod(resid, num[i][i])
            if r:
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
        if self.field != other.field:
            return False
        if (self._num is None or other._num is None) \
                and self._gen is not None and other._gen is not None:
            return self.norm() == other.norm() and \
                (self._gen * _inverse_generator(other)).den == 1
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        return (f"FractionalIdeal({self.field.spec_string()}, den={self.den}, "
                f"norm={self.norm()})")


# --------------------------------------------------------------------------
# shared canonicalization helpers
# --------------------------------------------------------------------------

def _reduced(field, hnf_rows, den):
    """The ideal of an HNF over den, their joint content stripped."""
    g = den
    for row in hnf_rows:
        for e in row:
            g = gcd(g, e)
        if g == 1:
            break
    if g > 1:
        hnf_rows = [[e // g for e in row] for row in hnf_rows]
        den //= g
    return FractionalIdeal(field, tuple(tuple(r) for r in hnf_rows), den)


def _least_integer(a):
    """The least positive integer in the integral ideal (u), u = den*g, for
    the generator g of the principal ideal A.

    n lies in (u) iff n/u is integral, as O_K = Z[theta], and so iff n*v/u
    is for any unit v: that is iff the least denominator of h/den divides
    n, for the generator h = v/g of A^-1 that _inverse_generator gives.
    As h is in lowest terms, h/den has numerator num(h) over den(h)*den,
    and the two share exactly gcd(den, *num(h)).
    """
    g, h = a._gen, _inverse_generator(a)
    return h.den * (g.den // gcd(g.den, *h.num))


def _inverse_generator(a):
    """A generator of A^-1 for a principal A: any unit multiple of 1/gen.

    It is formed on first read and kept in ``_igen``.  A pending one is
    (reads, form): form takes the inverse generators of the ideals reads,
    which are formed before it, deepest first, in a loop, so a long chain
    of products forms with no recursion.  With none recorded it is
    gen.inverse().
    """
    stack = [a]
    while stack:
        b = stack[-1]
        igen = b._igen
        if isinstance(igen, FieldElement):
            stack.pop()
            continue
        reads, form = ((), b._gen.inverse) if igen is None else igen
        unformed = [c for c in reads if not isinstance(c._igen, FieldElement)]
        if unformed:
            stack.extend(unformed)
            continue
        object.__setattr__(b, "_igen", form(*(c._igen for c in reads)))
        stack.pop()
    return a._igen


def _pivots(rows):
    """The pivot product of a lower-triangular HNF: its determinant."""
    return prod(row[i] for i, row in enumerate(rows))


def _certified_hnf(rows, modulus, d_det, what):
    """Canonical HNF of the integer rows of a module M with the known
    determinant d_det: reduced modulo a positive integer in M (Cohen,
    §2.4.2), then certified by the pivot product.  A modulus outside M
    yields M + modulus*Z^m, a proper supermodule whose smaller pivot
    product raises here, so no wrong module is ever returned."""
    if d_det.denominator != 1:
        raise ArithmeticError(f"{what} determinant must be an integer")
    d_int = int(d_det)
    w = hnf_mod_d(rows, modulus)
    piv = _pivots(w)
    if piv != d_int:
        raise ArithmeticError(
            f"{what} reduction lost index: pivot product {piv} != "
            f"determinant {d_int}")
    return w


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


def _principal(gamma, abs_norm, igen=None):
    """(gamma) given |N(gamma)|, kept as its generator until rows are read;
    igen, a generator of the inverse ideal or a pending product for
    _inverse_generator, when one comes cheaper than gamma.inverse()."""
    ideal = FractionalIdeal(gamma.field, None, None, gamma)
    object.__setattr__(ideal, "_igen", igen)
    object.__setattr__(ideal, "_norm", abs_norm)
    return ideal


def _level_principal(beta, level):
    """(beta) for a beta with beta * conj(beta) = level, checked by the
    caller: 1/beta = conj(beta) / level with no solve, and
    |N(beta)| = sqrt(level^m) with no norm pass.  Level 0 leaves beta = 0,
    which principal refuses as generating no ideal."""
    if not level:
        return principal(beta)
    if beta._inv is None:
        _link_inverses(beta, beta.conj() / level)
    return _principal(beta, Fraction(isqrt(level ** beta.field.degree)))


def _principal_times_module(a, mod):
    """g * M for the generator g of A from m generator rows, reduced modulo
    the integer l((den*g)) * h_00(M) of the product; its exact determinant
    is known in advance because scaling by g multiplies every covolume by
    |N(g)|."""
    field, g = mod.field, a._gen
    rows = [field._mul_coeffs(g.num, row) for row in mod.num]
    w = _certified_hnf(rows, _least_integer(a) * mod.num[0][0],
                       g.den ** field.degree * a.norm() * _pivots(mod.num),
                       "principal product")
    return _reduced(field, w, g.den * mod.den)


_RADICAL_CACHE = {}


def radical_above(field, p):
    """The radical J_p of pO_K: the product of all primes above p, exponent 1.

    Computed as the preimage of the nilradical of O_K/p, i.e. the kernel
    of the additive map x -> x^(p^j) on the GF(p)-algebra O_K/p, j >= 1
    least with p^j >= degree.  Its matrix has the rows tau^i, i < degree,
    for the one element tau = theta^(p^j) mod p, which _power forms with
    every product reduced mod p.  The result is certified by
    norm(J_p) = p^(degree/e_p).  The generator g of J_p^s is proved once
    and (g) is cached beside it; for s = 1 it rides on J_p.
    """
    key = (field, p)
    cached = _RADICAL_CACHE.get(key)
    if cached is not None:
        return cached[0]
    field._check_ramified(p)
    m = field.degree
    ps = p
    while ps < m:
        ps *= p

    def mul_mod_p(a, b):
        return [c % p for c in field._mul_coeffs(a, b)]

    one = [1] + [0] * (m - 1)
    tau = _power([c % p for c in field.theta_power(1).num], ps, one, mul_mod_p)
    power = [one]
    for _ in range(1, m):
        power.append(mul_mod_p(power[-1], tau))
    kernel = nullspace_mod_p(transpose(power), p)
    # span(kernel) + pZ^m is the preimage of the nilradical
    radical = FractionalIdeal(field, tuple(tuple(r) for r in hnf_mod_d(kernel, p)), 1)
    expected = Fraction(p ** field.residue_product(p))
    if radical.norm() != expected:
        raise ArithmeticError(
            f"radical above {p} in {field.spec_string()} has norm {radical.norm()}, "
            f"expected {expected}: ramification data inconsistent")
    gen, s = _radical_generator(field, p, radical)
    if s == 1:
        radical = FractionalIdeal(field, radical.num, radical.den, gen)
    _RADICAL_CACHE[key] = (radical, _principal(gen, expected ** s), s)
    return radical


def _radical_candidate(field, p):
    """(g, s) with g expected to generate J_p^s, q = p^(r_p) (Washington,
    Introduction to Cyclotomic Fields, Ch. 1-2): 1 - zeta_q on cyclo:n
    (s = 1); gamma_element on realcyclo:n, s = 1 for a prime-power
    conductor, else s = 2, as Q(zeta_n)/Q(zeta_n)^+ is then unramified at
    p; p on a quadratic field (s = 2)."""
    if isinstance(field, CyclotomicField):
        return field._zeta_sum({0: 1, field.n // p ** factorize(field.n)[p]: -1}), 1
    if isinstance(field, RealCyclotomicField):
        return gamma_element(field, p), 1 if field.is_prime_power() else 2
    return field.rational(p), 2


def _radical_generator(field, p, radical):
    """(g, s): the candidate g of J_p^s, proved by element arithmetic.

    With t = e_p/s, the proof is |N(g)| = N(J_p)^s and g^t/p in O_K, the
    same two checks for every s, with no HNF and no module product: the
    norm certificate N(J_p) = p^(degree/e_p) of radical_above makes
    |N(g^t/p)| = 1, so g^t/p is a unit, (g)^t = (p) = J_p^(e_p), and
    unique factorization gives (g) = J_p^s.  A failed proof raises
    ArithmeticError.  g's inverse comes from the same pass as its norm,
    and is the inverse generator of (g); g^t is formed without it.
    """
    g, s = _radical_candidate(field, p)
    t, rest = divmod(field.ramification_index(p), s)
    g.inverse()  # one pass: the norm below, and inverses for its powers
    if rest or abs(g.norm()) != radical.norm() ** s or \
            not _is_p_multiple(_power(g, t), p):
        raise ArithmeticError(
            f"{g} does not generate the radical power J_{p}^{s} of "
            f"{field.spec_string()}")
    return g, s


def _is_p_multiple(x, p):
    """x/p in O_K = Z[theta]: x in lowest terms has den 1 and num in pZ^m."""
    return x.den == 1 and not any(c % p for c in x.num)


def _principal_radical(field, p):
    """((g), s): the least principal radical power (g) = J_p^s, s <= 2,
    as proved by radical_above."""
    radical_above(field, p)
    _, power, s = _RADICAL_CACHE[(field, p)]
    return power, s


# --------------------------------------------------------------------------
# multiplicative structure
# --------------------------------------------------------------------------

def ideal_mul(a, b):
    """Product ideal: module generated by pairwise basis products.

    Known generators collapse the work to element arithmetic, and a
    product of generators keeps the product of the operands' inverse
    generators pending.  The generic path Hermite-reduces the m^2 integer
    product rows modulo h_00(num_a) * h_00(num_b), an integer of the
    product module (M cap Z = h_00*Z for a lower-triangular HNF), so no
    intermediate entry can outgrow it; covolumes of integral modules
    multiply under products of ideals, so det(num_a) * det(num_b)
    certifies the result.
    """
    if a.field != b.field:
        raise FieldMismatch("ideal product requires the same field")
    if a.is_ring():
        return b
    if b.is_ring():
        return a
    x, y = a._gen, b._gen
    if x is not None and y is not None:
        return _principal(x * y, a.norm() * b.norm(), ((a, b), operator.mul))
    if x is not None:
        return _principal_times_module(a, b)
    if y is not None:
        return _principal_times_module(b, a)
    field = a.field
    rows = [field._mul_coeffs(u, v) for u in a.num for v in b.num]
    w = _certified_hnf(rows, a.num[0][0] * b.num[0][0],
                       _pivots(a.num) * _pivots(b.num), "ideal product")
    return _reduced(field, w, a.den * b.den)


def ideal_pow(a, k):
    """A^k.  A principal A raises its generator and keeps the same power of
    its inverse generator pending; k < 0 swaps the two, so no power of a
    generator is inverted."""
    if a._gen is not None:
        gen = a._gen
        if k > 0:
            return _principal(gen ** k, a.norm() ** k, ((a,), lambda h: h ** k))
        if k < 0:
            return _principal(_inverse_generator(a) ** -k, a.norm() ** k,
                              ((), lambda: gen ** -k))
        return FractionalIdeal.ring(a.field)
    if k < 0:
        return ideal_pow(ideal_inverse(a), -k)
    return _power(a, k, FractionalIdeal.ring(a.field), ideal_mul)


def conj_ideal(a):
    """Image of the ideal under complex conjugation."""
    field = a.field
    if not field.is_cm:
        return a
    if a._gen is not None:
        return _principal(a._gen.conj(), a.norm(), ((a,), FieldElement.conj))
    # conjugation permutes O_K, so it is unimodular on coordinates and
    # the conjugated module has the same determinant; it fixes Z, so it
    # keeps the least integer h_00 as well
    rows = [field._conj_num(row) for row in a.num]
    w = _certified_hnf(rows, a.num[0][0], _pivots(a.num), "conjugation")
    return _reduced(field, w, a.den)


# --------------------------------------------------------------------------
# trace duality, codifferent, different, inverses
# --------------------------------------------------------------------------

def trace_dual(a, alpha):
    """{x : Tr(alpha * x * conj(y)) in Z for all y in A}.

    A known generator g of A gives the single element
    alpha^-1 * conj(h) * f'(theta)^-1, as D_K^-1 = (f'(theta)^-1), for the
    generator h of A^-1 that _inverse_generator gives, and the dual keeps
    alpha * conj(g) * f'(theta), a generator of its inverse, pending; an
    ideal held as rows only takes one integer solve against its Gram
    (_gram_dual).
    """
    field = a.field
    if not isinstance(alpha, FieldElement) or alpha.field != field:
        raise FieldMismatch("alpha must be an element of the ideal's field")
    if not is_totally_positive(alpha):
        raise FormError("alpha must be totally positive for the trace form")
    if a._gen is not None:
        codiff, gen = codifferent(field), a._gen
        g = alpha.inverse() * _inverse_generator(a).conj() * codiff._gen
        return _principal(g, codiff.norm() / (a.norm() * abs(alpha.norm())),
                          ((), lambda: alpha * gen.conj() * field._fprime))
    return _gram_dual(a, alpha, *trace_pairing(alpha, a, a))


def _gram_dual(a, alpha, gram, scale):
    """The trace dual of A held as rows from its integer Gram: (gram,
    scale) = trace_pairing(alpha, A, A), which an IdealLattice of (A,
    alpha) keeps, so verifying it forms the Gram no second time."""
    field = a.field
    # the Gram is gram / scale, so the dual rows are
    # scale * gram^-1 * num / den = Y / (d * den) with
    # gram * Y = d * scale * num; dividing out the content g of
    # (d * den, Y), signed like d, leaves the least positive common
    # denominator
    Y, d = solve_integral(gram, [[scale * e for e in row] for row in a.num])
    den_d = d * a.den
    g = gcd(den_d, *(e for row in Y for e in row))
    if den_d < 0:
        g = -g
    int_rows = [[e // g for e in row] for row in Y]
    den_d //= g
    # alpha.den * a.den lies in the dual, as Tr(alpha.num * conj(u)) is an
    # integer for every u in O_K, so den_d * alpha.den * a.den lies in the
    # rows' module; the forced covolume 1 / (|N(alpha)| * norm(A) * |disc|)
    # certifies them
    d_det = Fraction(den_d) ** field.degree / (abs(alpha.norm()) * a.norm()
                                               * abs(field.discriminant()))
    w = _certified_hnf(int_rows, den_d * alpha.den * a.den, d_det, "trace dual")
    return _reduced(field, w, den_d)


_CODIFF_CACHE = {}
_DIFF_CACHE = {}


def _euler_certificate(field, g):
    """Prove g*O_K = D_K^-1, else raise ArithmeticError: the pairing of
    g*theta^i with theta^j is the Hankel matrix of c_k = Tr(g*theta^k),
    k <= 2m-2; integral c_k, zero below k = m-1 and c_(m-1) = 1 make it
    integral and unimodular, so g*O_K is the trace dual of Z[theta]."""
    m = field.degree
    t = field._hankel_traces(g.num)  # c_k = t[k] / g.den
    if t[:m] != [0] * (m - 1) + [g.den] or any(c % g.den for c in t[m:]):
        raise ArithmeticError(
            f"{g} fails the Euler certificate for the codifferent of "
            f"{field.spec_string()}")


def codifferent(field):
    """D_K^-1 = (1/f'(theta)) for the minimal polynomial f, by Euler's lemma
    (Serre, Local Fields III.6) as O_K = Z[theta]; certified, cached."""
    if field not in _CODIFF_CACHE:
        g = field._fprime.inverse()
        _euler_certificate(field, g)
        _CODIFF_CACHE[field] = _principal(g, Fraction(1, abs(field.discriminant())))
    return _CODIFF_CACHE[field]


def _module_inverse(a):
    """{x : x*A <= O_K} by lattice duality (no different needed).

    The coefficient-space Z-dual of a lattice with basis rows B is the
    row span of (B^T)^-1, and (L1 cap L2)^dual = L1^dual + L2^dual, so
    the intersection of the principal modules (b_i^-1) is the dual of
    the sum of their duals.
    """
    field = a.field
    dual_rows = []
    for b in a.basis_elements():
        binv = b.inverse()
        rows = [list((binv * w).coeffs) for w in field.power_basis()]
        for row in transpose(invert(rows)):
            dual_rows.append(row)
    den = lcm(*(c.denominator for row in dual_rows for c in row))
    int_rows = [[c.numerator * (den // c.denominator) for c in row] for row in dual_rows]
    summed = row_module_hnf(int_rows)
    s_rational = [[Fraction(e, den) for e in row] for row in summed]
    inv_rows = transpose(invert(s_rational))
    return FractionalIdeal.from_rows(field, inv_rows)


def different(field):
    """D_K = (f'(theta)), checked against the closed form prod_p J_p^(v_p)
    (ArithmeticError on a mismatch); cached."""
    if field not in _DIFF_CACHE:
        diff = ideal_inverse(codifferent(field))
        closed = realize(IdealRecipe(field, [("radical", p, field.different_exponent(p))
                                             for p in field.omega()]))
        if closed != diff:
            raise ArithmeticError(
                f"closed-form different of {field.spec_string()} is not (f'(theta))")
        _DIFF_CACHE[field] = diff
    return _DIFF_CACHE[field]


def ideal_inverse(a):
    """A^-1 through the trace-dual identity tracedual(conj A, 1) = D_K^-1 A^-1."""
    if a._gen is not None:
        return _principal(_inverse_generator(a), 1 / a.norm(), a._gen)
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

    With one prime above p, of residue degree 1 (f*g = 1), the exponent is
    v_p(norm A) itself.  Otherwise the norm proposes k = v_p(norm A)/(f*g);
    the certificate checks that A * J_p^-k is p-integral, which together
    with its norm being a p-unit forces every prime above p to zero
    exponent; it tests A^s * J_p^(-s*k) = A^s * (g^-k), (g) = J_p^s, with
    (g^-k) in the normal form of _normal_power, which is principal when A
    is.  Unequal exponents above p raise Unsupported.
    """
    field = a.field
    fg = field.residue_product(p)  # raises NotRamified for unramified p
    nrm = a.norm()
    kn = _int_val(nrm.numerator, p) - _int_val(nrm.denominator, p)
    if fg == 1:
        return kn
    if kn % fg:
        raise Unsupported(
            f"norm valuation {kn} at {p} is not a multiple of f*g = {fg}: "
            f"unequal exponents above {p}")
    k = kn // fg
    # (num, den) is in lowest terms: p-integral iff p does not divide den
    s = _principal_radical(field, p)[1]
    if ideal_mul(ideal_pow(a, s), _normal_power(field, p, -k)).den % p == 0:
        raise Unsupported(f"ideal has unequal exponents at the primes above {p}")
    return k


# --------------------------------------------------------------------------
# distinguished elements and recipes
# --------------------------------------------------------------------------

def gamma_element(field, p):
    """The totally positive generator (1 - zeta_q)(1 - zeta_q^-1) = 2 -
    zeta_q - zeta_q^-1, q = p^(r_p), of a prime p dividing the conductor;
    for a prime-power conductor it generates the unique prime above p."""
    if not isinstance(field, (CyclotomicField, RealCyclotomicField)):
        raise SpecError(
            f"gamma_element is defined for the cyclotomic families, not {field.spec_string()}")
    r = factorize(field.n).get(p)
    if r is None:
        raise SpecError(f"{p!r} is not a prime dividing the conductor of {field.spec_string()}")
    k = field.n // p ** r
    return field._zeta_sum({0: 2, k: -1, field.n - k: -1})


class IdealRecipe:
    """Formal product of radical powers and principal factors.

    String grammar (factors joined by ``*``):
      ``P<p>^<k>``        radical above the prime p, exponent k
      ``(<rational>)^<k>``  principal ideal of a rational number
      ``([c0,c1,...])^<k>`` principal ideal of the element with those coefficients
    ``^<k>`` may be omitted when k = 1; the empty string denotes O_K.  The
    numbers are ASCII: p is ``[0-9]+``, k ``[+-]?[0-9]+``, and a rational
    or coefficient ``n`` or ``n/d`` with a signed n.

    The private ``_form`` slot holds the factored form (G, S) once
    _factored has computed it, each radical power in the normal form
    p^a * (g^b); equality and hashing ignore it.  Any integer exponent is
    accepted here; realize refuses (RecipeTooLarge) a recipe whose
    estimated coefficient bits pass RECIPE_BITS_LIMIT.
    """

    __slots__ = ("field", "factors", "_form")

    def __init__(self, field, factors):
        checked = []
        for kind, payload, k in factors:
            if not isinstance(k, int) or k == 0:
                raise SpecError(f"recipe exponents must be nonzero integers, got {k!r}")
            if kind == "radical":
                if payload < 2:
                    raise SpecError(f"P{payload} is not a prime radical")
                # omega holds the ramified primes only, so this bounded
                # lookup also turns away composites without factoring them
                field._check_ramified(payload)
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
        object.__setattr__(self, "_form", None)

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
            exp_text = exp_text.strip() if sep else "1"
            if not _INTEGER.fullmatch(exp_text):
                raise SpecError(f"bad exponent in recipe factor {tok!r}")
            k = int(exp_text)
            if base.startswith("P") and _NATURAL.fullmatch(base[1:]):
                factors.append(("radical", int(base[1:]), k))
            elif base.startswith("(") and base.endswith(")"):
                inner = base[1:-1].strip()
                if inner.startswith("[") and inner.endswith("]"):
                    try:
                        coeffs = [_ascii_rational(c.strip()) for c in inner[1:-1].split(",")]
                        element = field.element(coeffs)
                    except (ValueError, ZeroDivisionError):
                        raise SpecError(f"bad coefficient list in {tok!r}") from None
                    factors.append(("principal", element, k))
                else:
                    try:
                        value = _ascii_rational(inner)
                    except (ValueError, ZeroDivisionError):
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


# The most coefficient bits _recipe_bits may estimate for a recipe that
# is realized.  A level of 6,003 digits puts 3,328 estimated bits in its
# recipe, which this keeps well inside; at the CLI degree cap a recipe at
# the limit (P127^73709 on realcyclo:127) is verified in ~1.3 s on a
# 2-CPU VM (it fails clause ii), where a limit of 65,536 bits let one
# run 51 s.
RECIPE_BITS_LIMIT = 8_192


class RecipeTooLarge(ValueError):
    """A recipe's estimated coefficient bits pass RECIPE_BITS_LIMIT;
    .bits and .limit name the estimate and the limit."""

    def __init__(self, bits, limit):
        super().__init__(
            f"recipe needs about {bits} coefficient bits, past the limit "
            f"of {limit}")
        self.bits = bits
        self.limit = limit


def _recipe_bits(field, radicals, principals):
    """Estimated coefficient bits of the factored form: after the normal
    form only p^a, a = floor(k/e_p), and the powers of the principal
    factors grow with the exponent.  A radical costs |a| * bits(p).  A
    principal factor x^k, with x = num / den, or 1/x when k < 0 (the
    generator its power raises), costs |k| * height, the height being
    max(bits(den), bits(sum_i |num_i| B^i)), B the field's bound on
    |sigma(theta)|: the sum bounds every embedding of num, so |k| times
    its bits bound those of num^k, and den^k has |k| * bits(den) bits.
    Reading coefficients back from embeddings (the inverse Vandermonde
    matrix of the sigma(theta)) adds bits that grow with no exponent,
    charged once as the degree m when a base is not rational; the most
    measured is 15 bits, on theta^(m-1) to small powers in degrees 63
    and 64.

    The charges that form nothing come first, and the estimate stops at
    the first total past RECIPE_BITS_LIMIT: a base x with k < 0 is first
    charged |k| (1/x has a height of one bit at least), and its own
    height instead of its inverse's when that alone passes the limit;
    then the inverses are formed one at a time, so at most one is formed
    past the limit."""
    B = field._theta_bound
    limit = RECIPE_BITS_LIMIT

    def height(x):
        h = 0
        for c in reversed(x.num):
            h = h * B + abs(c)
        return max(x.den, h).bit_length()

    bits = sum(abs(k // field.ramification_index(p)) * p.bit_length()
               for p, k in radicals.items())
    if not all(x.is_rational for x, _ in principals):
        bits += field.degree
    inverted = []
    for x, k in principals:
        if k > 0:
            bits += k * height(x)
        elif height(x) > limit:
            bits += -k * height(x)
        else:
            bits += -k
            inverted.append((x, -k))
    for x, k in inverted:
        if bits > limit:
            break
        bits += k * (height(x.inverse()) - 1)
    return bits


def _normal_power(field, p, q):
    """(g)^q for the generator g of J_p^s, as p^a * (g^b), q = a*t + b,
    0 <= b < t, t = e_p/s, since (g)^t = (p): no negative power of g is
    formed.  Its inverse generator g^(t-b) / p^(a+1), or p^-a when b = 0,
    is formed on first read."""
    power, s = _principal_radical(field, p)
    g, t = power._gen, field.ramification_index(p) // s
    a, b = divmod(q, t)
    scale = field.rational(Fraction(p) ** a)
    if not b:
        return _principal(scale, power.norm() ** q, field.rational(Fraction(p) ** -a))
    return _principal(g ** b * scale, power.norm() ** q,
                      ((), lambda: g ** (t - b) * field.rational(Fraction(p) ** -(a + 1))))


def _factored(recipe):
    """(G, S) with realize(recipe) = G * prod_S J_p, once per recipe: with
    J_p^k = (g^q) * J_p^r, k = q*s + r, 0 <= r < s, for (g) = J_p^s, the
    principal G takes (g^q) in the normal form p^a * (g^b) of
    _normal_power and the principal factors, S each p with r = 1.  A
    recipe whose estimated coefficient bits pass RECIPE_BITS_LIMIT raises
    RecipeTooLarge before any power or product is formed, and with no
    inverse formed once the estimate has passed the limit."""
    if recipe._form is None:
        field = recipe.field
        exponents, principals = {}, []
        for kind, payload, k in recipe.factors:
            if kind == "radical":
                exponents[payload] = exponents.get(payload, 0) + k
            else:
                principals.append((payload, k))
        bits = _recipe_bits(field, exponents, principals)
        if bits > RECIPE_BITS_LIMIT:
            raise RecipeTooLarge(bits, RECIPE_BITS_LIMIT)
        G, S = FractionalIdeal.ring(field), []
        for payload, k in principals:
            G = ideal_mul(G, ideal_pow(principal(payload), k))
        for p, k in sorted(exponents.items()):
            s = _principal_radical(field, p)[1]
            q, r = divmod(k, s)
            if q:
                G = ideal_mul(G, _normal_power(field, p, q))
            if r:
                S.append(p)
        object.__setattr__(recipe, "_form", (G, tuple(S)))
    return recipe._form


def _radical_product(field, S):
    """prod_S J_p for distinct ramified primes S.  The J_p are pairwise
    coprime, so with n = prod_S p their product is their intersection,
    which is sum_p (n/p)*J_p: (n/p)*J_p lies in J_p, and in every other
    J_q as q divides n/p.  So |S|*m rows, Hermite-reduced modulo n (an
    integer of each summand), give the product, and its norm
    prod_S N(J_p) certifies that no index was lost."""
    if not S:
        return FractionalIdeal.ring(field)
    if len(S) == 1:
        return radical_above(field, S[0])
    n = prod(S)
    rows, norm = [], 1
    for p in S:
        radical = radical_above(field, p)
        rows += [[(n // p) * e for e in row] for row in radical.num]
        norm *= radical.norm()
    w = _certified_hnf(rows, n, norm, "radical product")
    return FractionalIdeal(field, tuple(tuple(r) for r in w), 1)


def realize(recipe):
    """Evaluate a recipe to its canonical fractional ideal G * prod_S J_p."""
    G, S = _factored(recipe)
    return ideal_mul(G, _radical_product(recipe.field, S))
