"""Exact arithmetic in the supported number-field families.

Four families are supported, each represented on a fixed integral power
basis (1, theta, ..., theta^(m-1)) whose Z-span is the full ring of
integers O_K:

==============  =========================  =====================================
spec string     field                      generator theta
==============  =========================  =====================================
``quad:+d``     real quadratic Q(sqrt d)   (1+sqrt d)/2 if d = 1 mod 4, else sqrt d
``quad:-d``     imaginary Q(sqrt -d)       (1+sqrt -d)/2 if d = 3 mod 4, else sqrt -d
``cyclo:n``     cyclotomic Q(zeta_n)       zeta_n
``realcyclo:n`` Q(zeta_n + zeta_n^-1)      zeta_n + zeta_n^-1
==============  =========================  =====================================

Elements are rational coefficient vectors over the power basis; all ring
and field operations are exact (products are reduced by the integer
minimal polynomial of theta, inverses via polynomial extended gcd).
Traces come from Newton power sums of the minimal polynomial, complex
conjugation from the image of theta, and norms from the determinant of
the multiplication map.

Numeric embeddings use mpmath at a caller-chosen precision (default from
the ``ARAKELOV_PRECISION_BITS`` environment variable, 128 bits).  The
embedding order fixes sigma_1 = identity; for CM fields embeddings come
in adjacent conjugate pairs (sigma_2 = conj sigma_1, ...).  Total
positivity is decided by certified interval evaluation with doubling
precision -- never by unvalidated floating point.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm

import mpmath

from .linalg import (
    SingularError as _SingularError,
    det as _int_det,
    invert as _invert,
    solve_bareiss as _solve_bareiss,
)


class SpecError(ValueError):
    """Malformed or unsupported field/recipe/level specification."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class DivError(ZeroDivisionError):
    """Division by the zero element of a field."""


class NotInSubfield(ValueError):
    """Descent of an element that does not lie in the target subfield."""


class NotRamified(ValueError):
    """A prime was expected to ramify in the field but does not."""


# --------------------------------------------------------------------------
# integer utilities
# --------------------------------------------------------------------------

_SELECT_PRIME = (1 << 61) - 1  # Mersenne prime, fits machine words in products


def _independent_rows(cands, m):
    """Indices of the first m rows independent modulo a large prime.

    Mod-q independence is a certificate of independence over Q (a
    rational dependency scales to a primitive integer one, which cannot
    vanish mod q); returns None when fewer than m pivots appear, which
    only happens if q divides an unlucky minor.
    """
    q = _SELECT_PRIME
    reduced = []
    sel = []
    for idx, row in enumerate(cands):
        r = [x % q for x in row]
        for pv, rr in reduced:
            f = r[pv]
            if f:
                r = [(a - f * b) % q for a, b in zip(r, rr)]
        pv = next((k for k, a in enumerate(r) if a), None)
        if pv is None:
            continue
        inv = pow(r[pv], -1, q)
        reduced.append((pv, [a * inv % q for a in r]))
        sel.append(idx)
        if len(sel) == m:
            return sel
    return None


def factorize(n):
    """Prime factorization of a positive integer as {p: exponent}."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_squarefree(n):
    if n < 1:
        return False
    if n == 1:
        return True
    return all(e == 1 for e in factorize(n).values())


def euler_phi(n):
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def moebius(n):
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def _divisors(n):
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    return 0


# --------------------------------------------------------------------------
# integer polynomials (ascending coefficients) for minimal polynomials
# --------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num, den):
    """Exact quotient of integer polynomials; den must be monic."""
    num = list(num)
    dn = len(den) - 1
    if den[dn] != 1:
        raise ValueError("divisor must be monic")
    q = [0] * (len(num) - dn)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + dn]
        q[k] = c
        if c:
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    if any(num):
        raise ValueError("inexact polynomial division")
    return q


def _cyclotomic_poly(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    num = [1]
    den = [1]
    for d in _divisors(n):
        mu = moebius(n // d)
        if mu == 0:
            continue
        factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        if mu == 1:
            num = _poly_mul(num, factor)
        else:
            den = _poly_mul(den, factor)
    return tuple(_poly_divexact(num, den))


def _real_cyclotomic_poly(n):
    """Minimal polynomial of 2*cos(2*pi/n) = zeta_n + zeta_n^-1.

    The n-th cyclotomic polynomial is palindromic of even degree 2m for
    n >= 3, so x^-m * Phi_n(x) = a_m + sum_{k=1..m} a_{m+k} (x^k + x^-k).
    Substituting x^k + x^-k = v_k(y) with y = x + 1/x, where v_0 = 2,
    v_1 = y, v_k = y*v_{k-1} - v_{k-2}, yields the (monic, integer)
    minimal polynomial of theta = zeta_n + zeta_n^-1.
    """
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    if deg % 2:
        raise ValueError("cyclotomic degree must be even for the real subfield")
    m = deg // 2
    if any(phi[k] != phi[deg - k] for k in range(deg + 1)):
        raise ValueError("cyclotomic polynomial is not palindromic")
    psi = [0] * (m + 1)
    psi[0] = phi[m]
    v_prev = [2]      # v_0
    v_cur = [0, 1]    # v_1
    for k in range(1, m + 1):
        c = phi[m + k]
        if c:
            for i, a in enumerate(v_cur):
                psi[i] += c * a
        nxt = [0] + v_cur
        for i, a in enumerate(v_prev):
            nxt[i] -= a
        v_prev, v_cur = v_cur, nxt
    if psi[m] != 1:
        raise ValueError("real cyclotomic minimal polynomial is not monic")
    return tuple(psi)


# --------------------------------------------------------------------------
# rational polynomials for inversion
# --------------------------------------------------------------------------

# --------------------------------------------------------------------------
# field elements
# --------------------------------------------------------------------------

class FieldElement:
    """Exact element sum_k c_k theta^k of a supported field (c_k rational).

    Instances are immutable values: arithmetic returns new elements.
    Mixed arithmetic with ``int`` and ``Fraction`` coerces the scalar.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    # -- coercion ----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot combine elements of {self.field.spec_string()} "
                    f"and {other.field.spec_string()}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, [b - a for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_coeffs(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        e = abs(k)
        out = self.field.one()
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"FieldElement({self.field.spec_string()}, {[str(c) for c in self.coeffs]})"

    # -- field-theoretic queries ------------------------------------------
    @property
    def is_zero(self):
        return not any(self.coeffs)

    @property
    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def trace(self):
        """Exact trace to Q as a Fraction."""
        return self.field._trace(self.coeffs)

    def conj(self):
        """Complex conjugate (identity on totally real fields)."""
        return self.field._conj(self)

    def norm(self):
        """Exact field norm to Q as a Fraction."""
        return self.field._norm(self)

    def inverse(self):
        return self.field._inverse(self)

    def embed(self, precision=None):
        """Numeric images under all embeddings (mpf/mpc) at the given precision."""
        return self.field._embed_element(self, precision)


# --------------------------------------------------------------------------
# number fields
# --------------------------------------------------------------------------

class NumberField:
    """Base class: exact arithmetic driven by a monic integer minimal polynomial."""

    kind = "abstract"
    is_cm = False

    def __init__(self, minpoly, spec):
        minpoly = tuple(int(c) for c in minpoly)
        if minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self._spec = spec
        self._power_rows = None
        self._theta_pows = None
        self._power_sums = None
        self._trace_form = None
        self._disc = None
        self._conj_rows = None
        self._embed_cache = {}

    # -- identity ------------------------------------------------------------
    def spec_string(self):
        return self._spec

    def __repr__(self):
        return f"<Field {self._spec} degree {self.degree}>"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self._spec == other._spec

    def __hash__(self):
        return hash(self._spec)

    # -- element constructors -------------------------------------------------
    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def rational(self, q):
        return FieldElement(self, (q,) + (0,) * (self.degree - 1))

    def zero(self):
        return self.rational(0)

    def one(self):
        return self.rational(1)

    def gen(self):
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def power_basis(self):
        """The integral basis 1, theta, ..., theta^(m-1) as elements."""
        return [self.theta_power(j) for j in range(self.degree)]

    # -- exact arithmetic core --------------------------------------------
    def _shift_reduce(self, vec):
        """Coefficients of theta * x given the coefficients of x."""
        m = self.degree
        top = vec[m - 1]
        out = [0] + list(vec[: m - 1])
        if top:
            mp_ = self.minpoly
            for j in range(m):
                out[j] -= top * mp_[j]
        return out

    def _power_table(self):
        """Integer coefficient rows for theta^m .. theta^(2m-2)."""
        if self._power_rows is None:
            m = self.degree
            rows = []
            cur = [-c for c in self.minpoly[:m]]
            for _ in range(m - 1):
                rows.append(tuple(cur))
                cur = self._shift_reduce(cur)
            self._power_rows = tuple(rows)
        return self._power_rows

    def theta_power(self, k):
        """theta^k as an element (cached; valid for any k >= 0)."""
        if self._theta_pows is None:
            self._theta_pows = [tuple([1] + [0] * (self.degree - 1))]
        pows = self._theta_pows
        while len(pows) <= k:
            pows.append(tuple(self._shift_reduce(list(pows[-1]))))
        return FieldElement(self, pows[k])

    def _mul_coeffs(self, a, b):
        """Product coefficients; the convolution runs over the integers
        (denominators are cleared first and restored once at the end)."""
        m = self.degree
        if m == 1:
            return (a[0] * b[0],)
        da = db = 1
        for c in a:
            da = lcm(da, c.denominator)
        for c in b:
            db = lcm(db, c.denominator)
        ai_ = [int(c * da) for c in a] if da != 1 else [int(c) for c in a]
        bi_ = [int(c * db) for c in b] if db != 1 else [int(c) for c in b]
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(ai_):
            if ai:
                for j, bj in enumerate(bi_):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:m]
        table = self._power_table()
        for k in range(m, 2 * m - 1):
            ck = conv[k]
            if ck:
                row = table[k - m]
                for j in range(m):
                    if row[j]:
                        out[j] += ck * row[j]
        den = da * db
        if den == 1:
            return out
        return [Fraction(v, den) for v in out]

    def _trace_powers(self):
        """Power sums s_k = Tr(theta^k), 0 <= k < degree (Newton's identities)."""
        if self._power_sums is None:
            m, mp_ = self.degree, self.minpoly
            s = [m]
            for k in range(1, m):
                acc = -k * mp_[m - k]
                for i in range(1, k):
                    acc -= mp_[m - i] * s[k - i]
                s.append(acc)
            self._power_sums = tuple(s)
        return self._power_sums

    def _trace(self, coeffs):
        s = self._trace_powers()
        return Fraction(sum(c * s[k] for k, c in enumerate(coeffs)))

    def trace_form_rows(self):
        """Integer rows of the trace form T[i][j] = Tr(theta^(i+j)).

        Power sums above the degree come from the cached reduction rows
        for theta^m..theta^(2m-2), so Tr(x*y) = x . T . y for any two
        coefficient vectors without forming the product element.
        """
        if self._trace_form is None:
            m = self.degree
            s = list(self._trace_powers())
            table = self._power_table()
            for k in range(m, 2 * m - 1):
                row = table[k - m]
                s.append(sum(c * s[j] for j, c in enumerate(row) if c))
            self._trace_form = tuple(tuple(s[i + j] for j in range(m))
                                     for i in range(m))
        return self._trace_form

    def discriminant(self):
        """Field discriminant: determinant of the trace form on O_K."""
        if self._disc is None:
            self._disc = _int_det([list(r) for r in self.trace_form_rows()])
        return self._disc

    def conj_generator(self):
        """Image of theta under complex conjugation, or None for the identity."""
        return None

    def _conj(self, x):
        g = self.conj_generator()
        if g is None:
            return x
        if self._conj_rows is None:
            rows = []
            cur = self.one()
            for _ in range(self.degree):
                rows.append(cur.coeffs)
                cur = cur * g
            self._conj_rows = tuple(rows)
        out = [Fraction(0)] * self.degree
        for k, c in enumerate(x.coeffs):
            if c:
                row = self._conj_rows[k]
                for j in range(self.degree):
                    if row[j]:
                        out[j] += c * row[j]
        return FieldElement(self, out)

    def _inverse(self, x):
        """Coordinates of 1/x, solved fraction-free from x's multiplication
        matrix: with u = den*x integral, y*u = 1 reads M_u^T y = e_0 in the
        power basis, and 1/x = den*y.  Polynomial xgcd over the rationals
        would swell catastrophically for elements with large coordinates."""
        if x.is_zero:
            raise DivError(f"division by zero in {self._spec}")
        if x.is_rational:
            return self.rational(1 / x.coeffs[0])
        m = self.degree
        den = 1
        for c in x.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        cur = [int(c * den) for c in x.coeffs]
        cols = []
        for _ in range(m):
            cols.append(cur)
            cur = self._shift_reduce(cur)
        mt = [[cols[j][i] for j in range(m)] for i in range(m)]
        rhs = [1] + [0] * (m - 1)
        try:
            sol = _solve_bareiss(mt, rhs)
        except _SingularError:
            raise DivError("element has no inverse (zero divisor coordinates)")
        return FieldElement(self, [den * c for c in sol])

    def _norm(self, x):
        if x.is_rational:
            return x.coeffs[0] ** self.degree
        den = 1
        for c in x.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        vec = [int(c * den) for c in x.coeffs]
        rows = []
        cur = vec
        for _ in range(self.degree):
            rows.append(list(cur))
            cur = self._shift_reduce(cur)
        return Fraction(_int_det(rows), den ** self.degree)

    # -- numeric embeddings -------------------------------------------------
    def _theta_numeric(self):
        """Images of theta under all embeddings at the current mpmath precision."""
        raise NotImplementedError

    def embedding_values(self, precision=None):
        bits = precision if precision is not None else default_precision()
        if bits not in self._embed_cache:
            with mpmath.workprec(bits + 32):
                self._embed_cache[bits] = tuple(self._theta_numeric())
        return self._embed_cache[bits]

    def _embed_element(self, x, precision=None):
        bits = precision if precision is not None else default_precision()
        thetas = self.embedding_values(bits)
        out = []
        with mpmath.workprec(bits + 32):
            for t in thetas:
                acc = mpmath.mpf(0)
                for c in reversed(x.coeffs):
                    acc = acc * t + mpmath.mpf(c.numerator) / c.denominator
                out.append(acc)
        return out

    def _interval_thetas(self, ivctx):
        """Certified interval enclosures of theta at each real embedding."""
        raise NotImplementedError

    # -- ramification data ---------------------------------------------------
    def omega(self):
        """Sorted list of primes that ramify in the field."""
        raise NotImplementedError

    def ramification_index(self, p):
        raise NotImplementedError

    def different_exponent(self, p):
        """Valuation of the different at (each) prime above p (closed formula)."""
        raise NotImplementedError

    def residue_product(self, p):
        """f*g = degree / e_p for the (Galois) field."""
        return self.degree // self.ramification_index(p)

    def _check_ramified(self, p):
        if p not in self.omega():
            raise NotRamified(f"{p} does not ramify in {self._spec}")


class RealQuadraticField(NumberField):
    kind = "real-quadratic"
    is_cm = False

    def __init__(self, d):
        if not isinstance(d, int) or d < 2:
            raise SpecError(f"real quadratic field needs an integer d >= 2, got {d!r}")
        if not is_squarefree(d):
            raise SpecError(f"d = {d} is not squarefree")
        self.d = d
        if d % 4 == 1:
            minpoly = (-(d - 1) // 4, -1, 1)      # x^2 - x - (d-1)/4, theta=(1+sqrt d)/2
        else:
            minpoly = (-d, 0, 1)                  # x^2 - d, theta = sqrt d
        super().__init__(minpoly, f"quad:+{d}")

    def sqrt_disc_element(self):
        """The element sqrt(d)."""
        if self.d % 4 == 1:
            return self.element((-1, 2))          # 2*theta - 1
        return self.gen()

    def omega(self):
        base = self.d if self.d % 4 == 1 else 2 * self.d
        return sorted(factorize(base))

    def ramification_index(self, p):
        self._check_ramified(p)
        return 2

    def different_exponent(self, p):
        self._check_ramified(p)
        if p % 2 == 1:
            return 1
        return 2 if self.d % 4 == 3 else 3

    def _theta_numeric(self):
        s = mpmath.sqrt(self.d)
        if self.d % 4 == 1:
            return [(1 + s) / 2, (1 - s) / 2]
        return [s, -s]

    def _interval_thetas(self, ivctx):
        s = ivctx.sqrt(self.d)
        if self.d % 4 == 1:
            return [(1 + s) / 2, (1 - s) / 2]
        return [s, -s]


class ImagQuadraticField(NumberField):
    kind = "imag-quadratic"
    is_cm = True

    def __init__(self, d):
        if not isinstance(d, int) or d < 1:
            raise SpecError(f"imaginary quadratic field needs an integer d >= 1, got {d!r}")
        if not is_squarefree(d):
            raise SpecError(f"d = {d} is not squarefree")
        self.d = d
        if d % 4 == 3:
            minpoly = ((d + 1) // 4, -1, 1)       # x^2 - x + (d+1)/4, theta=(1+sqrt -d)/2
        else:
            minpoly = (d, 0, 1)                   # x^2 + d, theta = sqrt -d
        super().__init__(minpoly, f"quad:-{d}")

    def sqrt_disc_element(self):
        """The element sqrt(-d)."""
        if self.d % 4 == 3:
            return self.element((-1, 2))          # 2*theta - 1
        return self.gen()

    def conj_generator(self):
        if self.d % 4 == 3:
            return self.element((1, -1))          # conj(theta) = 1 - theta
        return self.element((0, -1))              # conj(theta) = -theta

    def omega(self):
        base = self.d if self.d % 4 == 3 else 2 * self.d
        return sorted(factorize(base))

    def ramification_index(self, p):
        self._check_ramified(p)
        return 2

    def different_exponent(self, p):
        self._check_ramified(p)
        if p % 2 == 1:
            return 1
        return 2 if self.d % 4 == 1 else 3

    def _theta_numeric(self):
        s = mpmath.sqrt(self.d)
        if self.d % 4 == 3:
            t = mpmath.mpc(mpmath.mpf(1) / 2, s / 2)
        else:
            t = mpmath.mpc(0, s)
        return [t, mpmath.conj(t)]


class CyclotomicField(NumberField):
    kind = "cyclotomic"
    is_cm = True

    def __init__(self, n):
        _validate_conductor(n, "cyclo")
        self.n = n
        super().__init__(_cyclotomic_poly(n), f"cyclo:{n}")

    def conj_generator(self):
        return self.theta_power(self.n - 1)

    def _embedding_exponents(self):
        n = self.n
        return [k for k in range(1, n // 2 + 1) if gcd(k, n) == 1]

    def omega(self):
        return sorted(factorize(self.n))

    def ramification_index(self, p):
        self._check_ramified(p)
        return euler_phi(p ** factorize(self.n)[p])

    def different_exponent(self, p):
        self._check_ramified(p)
        r = factorize(self.n)[p]
        return p ** (r - 1) * (p * r - r - 1)

    def _theta_numeric(self):
        out = []
        n = self.n
        for k in self._embedding_exponents():
            t = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            out.append(t)
            out.append(mpmath.conj(t))
        return out


class RealCyclotomicField(NumberField):
    kind = "real-cyclotomic"
    is_cm = False

    def __init__(self, n):
        _validate_conductor(n, "realcyclo")
        self.n = n
        self._nfac = factorize(n)
        self._lift_rows = None
        self._descend_data = None
        super().__init__(_real_cyclotomic_poly(n), f"realcyclo:{n}")

    # -- ambient cyclotomic field and transport -----------------------------
    @property
    def ambient(self):
        return make_field(f"cyclo:{self.n}")

    def _lift_matrix(self):
        """Rows j < degree: ambient coefficients of (zeta + zeta^-1)^j.

        Multiplication by zeta + zeta^-1 is one reduced up-shift plus one
        down-shift on integer vectors; zeta^-1 itself comes from the
        minimal polynomial (its constant term is 1 for every n >= 2), so
        the whole matrix is built without rational element products.
        """
        if self._lift_rows is None:
            amb = self.ambient
            big = amb.degree
            mp_ = amb.minpoly
            zinv = [-mp_[t + 1] for t in range(big)]
            rows = []
            cur = [1] + [0] * (big - 1)
            for _ in range(self.degree):
                rows.append(tuple(cur))
                up = amb._shift_reduce(cur)
                down = [cur[t + 1] for t in range(big - 1)] + [0]
                c0 = cur[0]
                if c0:
                    for t in range(big):
                        if zinv[t]:
                            down[t] += c0 * zinv[t]
                cur = [u + d for u, d in zip(up, down)]
            self._lift_rows = tuple(rows)
        return self._lift_rows

    def lift(self, x):
        """Rewrite an element on the power basis of zeta_n in Q(zeta_n)."""
        if x.field != self:
            raise FieldMismatch("lift expects an element of this real subfield")
        rows = self._lift_matrix()
        amb = self.ambient
        out = [Fraction(0)] * amb.degree
        for j, c in enumerate(x.coeffs):
            if c:
                row = rows[j]
                for i in range(amb.degree):
                    if row[i]:
                        out[i] += c * row[i]
        return amb.element(out)

    def _descend_solver(self):
        if self._descend_data is None:
            rows = self._lift_matrix()
            m = self.degree
            big = self.ambient.degree
            cands = [[rows[j][i] for j in range(m)] for i in range(big)]
            # independence mod a large prime certifies independence over Q;
            # the exact rational scan only runs if the prime is unlucky
            sel = _independent_rows(cands, m)
            if sel is None:
                reduced = []
                pivots = []
                sel = []
                for i in range(big):
                    r = [Fraction(c) for c in cands[i]]
                    for rr, pv in zip(reduced, pivots):
                        f = r[pv]
                        if f:
                            r = [a - f * b for a, b in zip(r, rr)]
                    pv = next((k for k, a in enumerate(r) if a), None)
                    if pv is not None:
                        inv = 1 / r[pv]
                        reduced.append([a * inv for a in r])
                        pivots.append(pv)
                        sel.append(i)
                        if len(sel) == m:
                            break
                if len(sel) != m:
                    raise ValueError("lift matrix is rank deficient")
            s_mat = [cands[i] for i in sel]
            self._descend_data = (tuple(sel), _invert(s_mat))
        return self._descend_data

    def descend(self, w):
        """Inverse of lift; raises NotInSubfield for non-real elements."""
        if w.field != self.ambient:
            raise FieldMismatch("descend expects an element of the ambient cyclotomic field")
        sel, s_inv = self._descend_solver()
        m = self.degree
        rhs = [w.coeffs[i] for i in sel]
        c = [sum(s_inv[t][u] * rhs[u] for u in range(m)) for t in range(m)]
        rows = self._lift_matrix()
        for i in range(self.ambient.degree):
            acc = Fraction(0)
            for j in range(m):
                if c[j] and rows[j][i]:
                    acc += c[j] * rows[j][i]
            if acc != w.coeffs[i]:
                raise NotInSubfield(
                    f"element of cyclo:{self.n} is not fixed by conjugation")
        return self.element(c)

    # -- ramification ---------------------------------------------------------
    def is_prime_power(self):
        return len(self._nfac) == 1

    def omega(self):
        out = []
        for p in sorted(self._nfac):
            if self._ram_index(p) > 1:
                out.append(p)
        return out

    def _ram_index(self, p):
        e_ambient = euler_phi(p ** self._nfac[p])
        return e_ambient // 2 if self.is_prime_power() else e_ambient

    def ramification_index(self, p):
        self._check_ramified(p)
        return self._ram_index(p)

    def different_exponent(self, p):
        self._check_ramified(p)
        r = self._nfac[p]
        if self.is_prime_power():
            if p == 2:
                return 2 ** (r - 2) * (r - 1) - 1
            return (p ** (r - 1) * (p * r - r - 1) - 1) // 2
        return p ** (r - 1) * (p * r - r - 1)

    # -- embeddings ------------------------------------------------------------
    def _embedding_exponents(self):
        n = self.n
        return [k for k in range(1, n // 2 + 1) if gcd(k, n) == 1]

    def _theta_numeric(self):
        n = self.n
        return [2 * mpmath.cos(2 * mpmath.pi * k / n)
                for k in self._embedding_exponents()]

    def _interval_thetas(self, ivctx):
        n = self.n
        two_pi = 2 * ivctx.pi
        return [2 * ivctx.cos(two_pi * k / n) for k in self._embedding_exponents()]


def _validate_conductor(n, family):
    if not isinstance(n, int) or n < 3:
        raise SpecError(f"{family}:<n> needs an integer n >= 3, got {n!r}")
    if n % 4 == 2:
        raise SpecError(
            f"{family}:{n} is not supported: for n = 2 mod 4 the field equals "
            f"{family}:{n // 2}; use that conductor")


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

_FIELD_CACHE = {}


def make_field(spec):
    """Parse a field spec string into a (cached) field descriptor.

    Grammar: ``quad:+<d>`` | ``quad:-<d>`` | ``cyclo:<n>`` | ``realcyclo:<n>``.
    """
    if not isinstance(spec, str):
        raise SpecError(f"field spec must be a string, got {type(spec).__name__}")
    s = spec.strip()
    if s in _FIELD_CACHE:
        return _FIELD_CACHE[s]
    family, sep, arg = s.partition(":")
    if not sep or not arg:
        raise SpecError(f"malformed field spec {spec!r}: expected '<family>:<parameter>'")
    if family == "quad":
        sign, digits = arg[0], arg[1:]
        if sign not in "+-" or not digits.isdigit():
            raise SpecError(f"malformed quadratic spec {spec!r}: expected quad:+<d> or quad:-<d>")
        d = int(digits)
        if sign == "+":
            if d < 2:
                raise SpecError(f"quad:+{d} is not a quadratic field (need d >= 2)")
            field = RealQuadraticField(d)
        else:
            field = ImagQuadraticField(d)
    elif family in ("cyclo", "realcyclo"):
        if not arg.isdigit():
            raise SpecError(f"malformed spec {spec!r}: conductor must be a positive integer")
        n = int(arg)
        field = CyclotomicField(n) if family == "cyclo" else RealCyclotomicField(n)
    else:
        raise SpecError(f"unknown field family {family!r} in {spec!r}")
    _FIELD_CACHE[s] = field
    _FIELD_CACHE[field.spec_string()] = field
    return field


def trace_pairing(field, rows_x, rows_y):
    """Exact matrix [Tr(x_i * y_j)] for power-basis coefficient rows.

    Bilinearity of the trace turns each entry into x_i . T . y_j with T
    the cached trace form, so the whole table costs two integer matrix
    products (denominators are cleared first and restored once at the
    end).  No conjugation is applied; pass conjugated rows when the
    Hermitian pairing is wanted.  Entries are ints when the shared
    denominator is 1, Fractions otherwise.
    """
    T = field.trace_form_rows()
    m = field.degree
    dx = dy = 1
    for r in rows_x:
        for c in r:
            dx = lcm(dx, c.denominator)
    for r in rows_y:
        for c in r:
            dy = lcm(dy, c.denominator)
    ix = [[int(c * dx) for c in r] for r in rows_x] if dx != 1 \
        else [[int(c) for c in r] for r in rows_x]
    iy = [[int(c * dy) for c in r] for r in rows_y] if dy != 1 \
        else [[int(c) for c in r] for r in rows_y]
    left = []
    for r in ix:
        left.append([sum(r[k] * T[k][j] for k in range(m) if r[k])
                     for j in range(m)])
    den = dx * dy
    out = []
    for lr in left:
        row = [sum(lr[k] * yr[k] for k in range(m) if lr[k]) for yr in iy]
        out.append(row if den == 1 else [Fraction(v, den) for v in row])
    return out


def lift_descend(x, target):
    """Transport between Q(zeta_n) and Q(zeta_n + zeta_n^-1) (either direction)."""
    src = x.field
    if isinstance(src, RealCyclotomicField) and isinstance(target, CyclotomicField) \
            and src.n == target.n:
        return src.lift(x)
    if isinstance(src, CyclotomicField) and isinstance(target, RealCyclotomicField) \
            and src.n == target.n:
        return target.descend(x)
    raise SpecError(
        f"lift_descend supports only the Q(zeta_n) <-> Q(zeta_n + zeta_n^-1) pair, "
        f"got {src.spec_string()} -> {target.spec_string()}")


def _gauss_sum(amb, p):
    """Quadratic Gauss sum sum_j (j/p) zeta_p^j inside Q(zeta_n), p odd prime, p | n."""
    n = amb.n
    step = n // p
    out = [Fraction(0)] * amb.degree
    for j in range(1, p):
        s = _legendre(j, p)
        vec = amb.theta_power(step * j).coeffs
        for i in range(amb.degree):
            if vec[i]:
                out[i] += s * vec[i]
    return amb.element(out)


def sqrt_integer(field, m):
    """An exact square root of the squarefree integer m >= 1, or None.

    For the cyclotomic families the root is assembled from quadratic Gauss
    sums (sqrt p = sum_j (j/p) zeta_p^j for p = 1 mod 4; divided by
    i = zeta_4 when the product of the p = 3 mod 4 sums squares to -m) and
    sqrt 2 = zeta_8 + zeta_8^-1; membership holds exactly when the
    conductor of Q(sqrt m) (m for m = 1 mod 4, else 4m) divides n.  The
    result is verified by exact squaring before it is returned.
    """
    if not isinstance(m, int) or m < 1:
        raise SpecError(f"sqrt_integer needs a positive integer, got {m!r}")
    if not is_squarefree(m):
        raise SpecError(f"{m} is not squarefree")
    if m == 1:
        return field.one()
    if isinstance(field, RealQuadraticField):
        return field.sqrt_disc_element() if m == field.d else None
    if isinstance(field, ImagQuadraticField):
        return None
    if not isinstance(field, (CyclotomicField, RealCyclotomicField)):
        raise SpecError(f"sqrt_integer is not defined for {field.spec_string()}")

    n = field.n
    conductor = m if m % 4 == 1 else 4 * m
    if n % conductor != 0:
        return None
    amb = field if isinstance(field, CyclotomicField) else field.ambient
    cand = amb.one()
    odd_part = m
    if m % 2 == 0:
        cand = amb.theta_power(n // 8) + amb.theta_power(7 * n // 8)  # sqrt 2
        odd_part //= 2
    for p in sorted(factorize(odd_part)):
        cand = cand * _gauss_sum(amb, p)
    square = cand * cand
    if square == amb.rational(-m):
        cand = cand * amb.theta_power(n // 4)
        square = cand * cand
    if square != amb.rational(m):
        raise ArithmeticError(
            f"internal error: Gauss-sum construction of sqrt({m}) in {amb.spec_string()} "
            f"squared to {square!r}")
    if isinstance(field, RealCyclotomicField):
        cand = field.descend(cand)
        if cand * cand != field.rational(m):
            raise ArithmeticError("internal error: descended square root lost exactness")
    return cand


def is_totally_positive(alpha):
    """True iff every embedding value of alpha is positive.

    Decided by certified interval evaluation of the (explicitly known)
    embedding images of theta, doubling the working precision until every
    interval is separated from zero.  For CM fields alpha must be fixed by
    conjugation; positivity is then decided in the maximal real subfield.
    """
    field = alpha.field
    if alpha.is_zero:
        return False
    if field.is_cm:
        if alpha.conj() != alpha:
            return False
        if isinstance(field, ImagQuadraticField):
            return alpha.coeffs[0] > 0
        real_subfield = make_field(f"realcyclo:{field.n}")
        return is_totally_positive(real_subfield.descend(alpha))
    if alpha.is_rational:
        return alpha.coeffs[0] > 0
    ivctx = mpmath.iv
    saved = ivctx.prec
    try:
        bits = 64
        while bits <= (1 << 14):
            ivctx.prec = bits
            values = []
            for t in field._interval_thetas(ivctx):
                acc = ivctx.mpf(0)
                for c in reversed(alpha.coeffs):
                    acc = acc * t + ivctx.mpf(c.numerator) / ivctx.mpf(c.denominator)
                values.append(acc)
            if all(v > 0 for v in values):
                return True
            if any(v < 0 for v in values):
                return False
            bits *= 2
    finally:
        ivctx.prec = saved
    raise ArithmeticError(
        "interval refinement failed to separate an embedding value from zero")


class EmbeddingMatrix:
    """Numeric basis-embedding matrix with its working precision and layout flag."""

    __slots__ = ("entries", "precision", "cm_layout")

    def __init__(self, entries, precision, cm_layout):
        self.entries = entries
        self.precision = precision
        self.cm_layout = cm_layout


def embedding_matrix(field, precision=None):
    """Real degree x degree matrix whose row i embeds the basis element theta^i.

    Totally real: entry (i, j) = sigma_j(theta^i).  CM: columns come in
    pairs (sqrt 2 * Re sigma(theta^i), sqrt 2 * Im conj(sigma)(theta^i))
    over one embedding sigma per conjugate pair.
    """
    bits = precision if precision is not None else default_precision()
    thetas = field.embedding_values(bits)
    m = field.degree
    entries = []
    with mpmath.workprec(bits + 32):
        if field.is_cm:
            sqrt2 = mpmath.sqrt(2)
            reps = thetas[0::2]
            vals = [mpmath.mpc(1)] * len(reps)
            for i in range(m):
                row = []
                for v in vals:
                    row.append(sqrt2 * v.real)
                    row.append(-sqrt2 * v.imag)
                entries.append(row)
                vals = [v * t for v, t in zip(vals, reps)]
        else:
            vals = [mpmath.mpf(1)] * m
            for i in range(m):
                entries.append(list(vals))
                vals = [v * t for v, t in zip(vals, thetas)]
    return EmbeddingMatrix(entries, bits, field.is_cm)


def default_precision():
    """Working precision in bits, from ARAKELOV_PRECISION_BITS (default 128)."""
    raw = os.environ.get("ARAKELOV_PRECISION_BITS", "").strip()
    if not raw:
        return 128
    try:
        bits = int(raw)
    except ValueError:
        raise SpecError(
            f"ARAKELOV_PRECISION_BITS must be an integer, got {raw!r}") from None
    if bits < 16:
        raise SpecError("ARAKELOV_PRECISION_BITS must be at least 16")
    return bits
