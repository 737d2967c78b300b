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

An element is an integer coordinate vector over the power basis and one
positive common denominator, kept in lowest terms; Fractions appear only
at the API boundary (``coeffs``, traces, norms).  All ring and field
operations are exact and run on integers: products are reduced by the
integer minimal polynomial f of theta.  Norms and inverses come from one
integer kernel, the sub-resultant PRS of f and the coordinate polynomial
a of an element (Cohen, Alg. 3.3.7), extended with the cofactor of a:
N(a) = Res(f, a) as f is monic, and v*a = c mod f with an integer c
gives 1/a = v/c; neither runs an n x n elimination.  An element's
inverse is computed once and linked both ways, so 1/x, x^-k and the
inverse of a power of x reuse that one pass, whose resultant is kept as
the norm of x and 1/x; the inverse of a power is a pending product,
multiplied out only when it is first read.  The discriminant is
(-1)^(m(m-1)/2) N(f'(theta)), read off the pass that inverts f'(theta)
for the codifferent.  Traces
come from Newton power sums of f and complex conjugation from the image
of theta.

Tables are built on first arithmetic use.  A field takes its degree from
the spec (phi(n), halved for the real subfield); the minimal polynomial,
and with it the powers of theta, the power sums s_0 .. s_(2m-2) (the
trace form is their Hankel view) and the conjugation rows, is built by
the first computation that needs it and kept as a cached property.  A
cyclotomic family sums sum_t c_t zeta^t in itself (``_zeta_sum``); the
real subfield never builds its cyclotomic cover.  Level sets and
ramification data depend only on the factorization of the conductor, so
they stay cheap at any degree.

Total positivity is exact: alpha >> 0 iff its integer trace form on O_K
passes Sylvester's criterion, whose determinant alpha keeps for the
lattice certificate.  On a totally real field the form is Hankel and its
leading minors are signed principal sub-resultant coefficients of (f, R),
R = alpha * f'(theta) read off the traces, so one PRS decides it; on a
CM field one fraction-free elimination does.

Numeric embeddings use mpmath at a caller-chosen precision (default from
the ``ARAKELOV_PRECISION_BITS`` environment variable, 128 bits); only
they import mpmath.  The embedding order fixes sigma_1 = identity; for
CM fields embeddings come in adjacent conjugate pairs (sigma_2 = conj
sigma_1, ...).
"""

from __future__ import annotations

import operator
import os
import re
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from types import SimpleNamespace

from .linalg import (
    FormError as _FormError,
    ldl_integral as _ldl_integral,
)


class SpecError(ValueError):
    """Malformed or unsupported field/recipe/level specification."""


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class DivError(ZeroDivisionError):
    """Division by the zero element of a field."""


class NotRamified(SpecError):
    """A prime was expected to ramify in the field but does not (a request
    naming a radical or ramification data the field does not have)."""


# --------------------------------------------------------------------------
# integer utilities
# --------------------------------------------------------------------------

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


def _legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)  # Euler's criterion: 0, 1 or p - 1
    return -1 if r == p - 1 else r


# --------------------------------------------------------------------------
# integer polynomials (ascending coefficients) for minimal polynomials
# --------------------------------------------------------------------------

def _cyclotomic_poly(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial, n >= 2:
    prod_{d|n} (x^d - 1)^mu(n/d) (Washington, Introduction to Cyclotomic
    Fields, Sec. 2) is prod_{d|n} (1 - x^d)^mu(n/d) as sum_{d|n} mu(n/d) = 0
    (n = 1 would give 1 - x), a power series formed modulo x^(phi(n)+1):
    multiplying by 1 - x^d is one descending pass c[k] -= c[k-d], dividing
    by it one ascending pass c[k] += c[k-d]."""
    squarefree = [1]  # the e dividing n with mu(e) != 0
    for p in factorize(n):
        squarefree += [e * p for e in squarefree]
    deg = euler_phi(n)
    c = [1] + [0] * deg
    for e in squarefree:
        d = n // e
        if moebius(e) == 1:
            for k in range(deg, d - 1, -1):
                c[k] -= c[k - d]
        else:
            for k in range(d, deg + 1):
                c[k] += c[k - d]
    return tuple(c)


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
    psi = [phi[m]] + [0] * m
    v_prev, v_cur = [2], [0, 1]  # v_0, v_1
    for k in range(1, m + 1):
        _combine([phi[m + k]], [v_cur], psi)
        v_prev, v_cur = v_cur, _combine([-1], [v_prev], [0] + v_cur)
    if psi[m] != 1:
        raise ValueError("real cyclotomic minimal polynomial is not monic")
    return tuple(psi)


def _combine(coeffs, rows, out):
    """out + sum_k coeffs[k] * rows[k] on integer vectors, skipping zeros."""
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return out


def _subresultant(f, a):
    """(Res(f, a), v, c) with v * a = c mod f and c an integer, for a monic
    integer f and integer coordinates a, not all zero, with deg a < deg f.

    The sub-resultant PRS (_prs) on f and the primitive part a' = a / b,
    extended with the cofactor of a'.  The sequence ends at a nonzero
    constant c' (gcd(f, a') = 1), so v is the cofactor of c' and
    c = b * c'.  If it ends at zero, Res = 0 and v = c = None.  As f is
    monic, Res(f, a) = N(a).
    """
    m = len(f) - 1
    b = gcd(*a)
    B = [x // b for x in a]
    while not B[-1]:
        B.pop()
    res, _, c, v = _prs(f, B, [1])
    if not res:
        return 0, None, None
    while not v[-1]:
        v.pop()
    return b ** m * res, v + [0] * (m - len(v)), b * c


def _prs(f, B, VB=None):
    """(Res(f, B), psc, c, V) from the sub-resultant PRS (Cohen, Alg.
    3.3.7) of a monic integer f and integer coordinates B with B[-1] != 0
    and deg B < deg f.

    psc[j] is the leading coefficient of the member of degree j, and 0 if
    the sequence skips degree j; on a normal sequence, one member of each
    degree deg B, ..., 0, it is the principal sub-resultant coefficient
    psc_j(f, B).  c is the constant coefficient of the last member.  With
    VB = [1] each member also carries the integer V with V * B = member
    mod f, pseudo-divided and divided exactly as the member is, and V is
    that of the last member; with VB = None no cofactor is carried.  If
    the sequence ends at zero, Res = 0.
    """
    psc = [0] * (len(f) - 1)
    psc[len(B) - 1] = B[-1]
    A, VA = list(f), []
    g = h = s = 1
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA & dB & 1:
            s = -s
        # pseudo-division lc(B)^(delta+1) * A = Q * B + R, with the
        # cofactor of R carried along as lc(B)^(delta+1) * VA - Q * VB
        lb = B[-1]
        R, VR, e = A, VA, delta + 1
        while len(R) > dB:
            k, lr = len(R) - 1 - dB, R[-1]
            R = [lb * r for r in R[:k]] + [lb * r - lr * t for r, t in zip(R[k:-1], B)]
            while R and not R[-1]:
                R.pop()
            if VB is not None:
                VR = [lb * v for v in VR] + [0] * (k + len(VB) - len(VR))
                for j, t in enumerate(VB, k):
                    VR[j] -= lr * t
            e -= 1
        if not R:
            return 0, psc, 0, None
        scale, div = lb ** e, g * h ** delta  # the division is exact
        A, VA = B, VB
        B = [r * scale // div for r in R]
        if VB is not None:
            VB = [v * scale // div for v in VR]
        psc[len(B) - 1] = B[-1]
        g, h = lb, lb ** delta // h ** (delta - 1)
    d = len(A) - 1
    return s * (B[0] ** d // h ** (d - 1)), psc, B[0], VB


# --------------------------------------------------------------------------
# field elements
# --------------------------------------------------------------------------

class FieldElement:
    """Exact element (sum_k num_k theta^k) / den of a supported field.

    ``num`` is a tuple of ints and ``den`` a positive int with
    gcd(den, *num) == 1, so equal elements have equal storage and compare
    and hash on (num, den).  ``coeffs`` is the read-only Fraction view for
    the API boundary; internal arithmetic builds elements through the
    field's normalizing ``_element`` and never forms a Fraction.
    Instances are immutable values: arithmetic returns new elements.
    Mixed arithmetic with ``int`` and ``Fraction`` coerces the scalar.
    The private ``_trace_det`` slot holds the verdict of Sylvester's
    criterion on the trace form once it is decided: 0 when the form is not
    positive definite, else its determinant.  ``_norm`` holds the norm
    once norm() or inverse() has computed it, and ``_inv`` the inverse
    once it is formed, linked both ways (``x._inv._inv is x``): inverse()
    forms it once, a negative power inverts the base rather than the
    power, and an inverse pair shares one norm.
    Equality and hashing ignore all three slots.
    """

    __slots__ = ("field", "num", "den", "_inv", "_norm", "_trace_det")

    def __init__(self, field, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coefficients, got {len(coeffs)}")
        # reduced Fractions over the lcm of their denominators are already
        # in lowest terms: gcd(den, *num) == 1
        den = lcm(*(c.denominator for c in coeffs))
        _fill(self, field, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self):
        """Power-basis coordinates as a tuple of Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

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
    def _plus(self, o, sign):
        """self + sign * o over the least common denominator."""
        den = lcm(self.den, o.den)
        fa, fb = den // self.den, sign * (den // o.den)
        return self.field._element([a * fa + b * fb for a, b in zip(self.num, o.num)], den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __neg__(self):
        return self.field._element([-a for a in self.num], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._element(self.field._mul_coeffs(self.num, o.num), self.den * o.den)

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
        if k < 0:
            return self.inverse() ** -k
        return _power(self, k)

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"FieldElement({self.field.spec_string()}, {[str(c) for c in self.coeffs]})"

    # -- field-theoretic queries ------------------------------------------
    @property
    def is_zero(self):
        return not any(self.num)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def trace(self):
        """Exact trace to Q as a Fraction."""
        return self.field._trace(self)

    def conj(self):
        """Complex conjugate (identity on totally real fields)."""
        return self.field._conj(self)

    def norm(self):
        """Exact field norm to Q as a Fraction, computed once; a formed
        inverse with a known norm gives it as N(1/x) = 1/N(x)."""
        if self._norm is None:
            inv = self._inv
            if inv is not None and inv._norm is not None:
                nrm = 1 / inv._norm
            else:
                nrm = Fraction(self.field._norm(self.num), self.den ** self.field.degree)
            object.__setattr__(self, "_norm", nrm)
        return self._norm

    def inverse(self):
        """1/x, formed once and then kept on both x and 1/x: one
        sub-resultant pass that gives the norm of both as well."""
        if self._inv is None:
            _link_inverses(self, self.field._inverse(self))
        return self._inv

    def embed(self, precision=None):
        """Numeric images under all embeddings (mpf/mpc) at the given precision."""
        return self.field._embed_element(self, precision)


def _fill(x, field, num, den):
    object.__setattr__(x, "field", field)
    object.__setattr__(x, "num", num)
    object.__setattr__(x, "den", den)
    object.__setattr__(x, "_inv", None)
    object.__setattr__(x, "_norm", None)
    object.__setattr__(x, "_trace_det", None)


def _power(x, k, one=None, mul=operator.mul):
    """x^k for k >= 0 by repeated squaring under the product mul, from the
    first factor, so x^1 is x itself; x^0 is the unit one, by default the
    field's one, and mul the element product.  ideal_pow passes O_K and
    ideal_mul, radical_above coefficient lists and their product mod p."""
    if not k:
        return x.field.one() if one is None else one
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


def _link_inverses(x, y):
    """Record y = 1/x on both; returns x."""
    object.__setattr__(x, "_inv", y)
    object.__setattr__(y, "_inv", x)
    return x


# --------------------------------------------------------------------------
# number fields
# --------------------------------------------------------------------------

class NumberField:
    """Base class: exact arithmetic driven by a monic integer minimal polynomial.

    A field knows its degree from its spec alone; the minimal polynomial
    (``_build_minpoly``) and every table derived from it are cached
    properties, built on the first arithmetic call that needs them.
    """

    kind = "abstract"
    is_cm = False
    # _theta_bound: an integer B >= |sigma(theta)| in every embedding sigma,
    # set by each family

    def __init__(self, degree, spec):
        self.degree = degree
        self._spec = spec
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

    @cached_property
    def minpoly(self):
        """Ascending integer coefficients of the monic minimal polynomial of
        theta, built and checked on first use."""
        minpoly = tuple(int(c) for c in self._build_minpoly())
        if minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if len(minpoly) - 1 != self.degree:
            raise ArithmeticError(
                f"minimal polynomial of {self._spec} has degree "
                f"{len(minpoly) - 1}, expected {self.degree}")
        return minpoly

    def _build_minpoly(self):
        raise NotImplementedError

    # -- element constructors -------------------------------------------------
    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def _element(self, num, den=1):
        """The element num/den for integer coordinates num and a nonzero
        integer den, brought to lowest terms with den > 0: the one
        constructor of internal arithmetic."""
        if den < 0:
            num, den = [-a for a in num], -den
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = [a // g for a in num], den // g
        x = object.__new__(FieldElement)
        _fill(x, self, tuple(num), den)
        return x

    def rational(self, q):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return self._element((q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def zero(self):
        return self.rational(0)

    def one(self):
        return self.rational(1)

    def gen(self):
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return self._element((0, 1) + (0,) * (self.degree - 2))

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

    @cached_property
    def _theta_pows(self):
        """Integer coordinates of theta^0, theta^1, ...; theta_power extends it."""
        return [(1,) + (0,) * (self.degree - 1)]

    def theta_power(self, k):
        """theta^k as an element (cached; valid for any k >= 0)."""
        pows = self._theta_pows
        while len(pows) <= k:
            pows.append(tuple(self._shift_reduce(pows[-1])))
        return self._element(pows[k])

    @cached_property
    def _power_table(self):
        """Integer coefficient rows for theta^m .. theta^(2m-2)."""
        m = self.degree
        self.theta_power(2 * m - 2)
        return tuple(self._theta_pows[m:2 * m - 1])

    def _mul_coeffs(self, a, b):
        """Integer coordinates of the product of two integer coordinate
        vectors: the convolution reduced by the minimal polynomial."""
        m = self.degree
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _combine(conv[m:], self._power_table, conv[:m])

    @cached_property
    def _power_sums(self):
        """Power sums s_k = Tr(theta^k), 0 <= k <= 2m-2: Newton's identities
        below the degree, then the reduction rows of theta^m .. theta^(2m-2)."""
        m, f = self.degree, self.minpoly
        s = [m]
        for k in range(1, m):
            s.append(-k * f[m - k] - sum(f[m - i] * s[k - i] for i in range(1, k)))
        for row in self._power_table:
            s.append(sum(c * s[j] for j, c in enumerate(row) if c))
        return tuple(s)

    def _trace(self, x):
        s = self._power_sums
        return Fraction(sum(a * s[k] for k, a in enumerate(x.num) if a), x.den)

    def trace_form_rows(self):
        """Integer rows of the trace form T[i][j] = Tr(theta^(i+j)) = s_(i+j),
        so Tr(x*y) = x . T . y for any two coefficient vectors without
        forming the product element; a view of the power sums."""
        s, m = self._power_sums, self.degree
        return tuple(s[i:i + m] for i in range(m))

    def _hankel_traces(self, a):
        """t[k] = Tr(a * theta^k), k <= 2m-2, for integer coordinates a: the
        sums of a_l * s_(l+k) below the degree, then the reduction rows of
        theta^m .. theta^(2m-2); a_0 * s_k for a rational a."""
        s = self._power_sums
        if not any(a[1:]):
            return [a[0] * e for e in s]
        t = [sum(c * s[l + k] for l, c in enumerate(a) if c) for k in range(self.degree)]
        for row in self._power_table:
            t.append(sum(c * t[j] for j, c in enumerate(row) if c))
        return t

    @cached_property
    def _fprime(self):
        """f'(theta) for the minimal polynomial f: it generates the
        different, and its norm gives the discriminant."""
        return self._element([k * c for k, c in enumerate(self.minpoly)][1:])

    @cached_property
    def _disc(self):
        m = self.degree
        self._fprime.inverse()
        return (-1) ** (m * (m - 1) // 2) * self._fprime.norm().numerator

    def discriminant(self):
        """Field discriminant disc(f) = (-1)^(m(m-1)/2) * N(f'(theta)), as
        O_K = Z[theta].  The norm comes from the pass that inverts
        f'(theta) for the codifferent, so a field runs one pass for both."""
        return self._disc

    def conj_generator(self):
        """Image of theta under complex conjugation, or None for the identity."""
        return None

    @cached_property
    def _conj_rows(self):
        """Integer rows conj(theta^k), k < degree (conjugation maps O_K onto
        itself, so its matrix is integral)."""
        g = self.conj_generator()
        rows, cur = [], self.one()
        for _ in range(self.degree):
            rows.append(cur.num)
            cur = cur * g
        return tuple(rows)

    def _conj_num(self, vec):
        """Integer coordinates of conj(x) for the integer coordinates of x."""
        return _combine(vec, self._conj_rows, [0] * self.degree)

    def _conj(self, x):
        if not self.is_cm:
            return x
        return self._element(self._conj_num(x.num), x.den)

    def _mul_rows(self, vec):
        """Integer rows vec * theta^k, k < degree: the multiplication matrix."""
        rows = []
        for _ in range(self.degree):
            rows.append(vec)
            vec = self._shift_reduce(vec)
        return rows

    def _inverse(self, x):
        """1/x from one sub-resultant pass on the integer numerator
        u = den*x: v*u = c mod f gives 1/x = den*v/c, and the resultant
        of the same pass, Res(f, u) = N(u), is kept as the norm of x and
        of 1/x."""
        if x.is_zero:
            raise DivError(f"division by zero in {self._spec}")
        m = self.degree
        if x.is_rational:
            return self._element((x.den,) + (0,) * (m - 1), x.num[0])
        res, v, c = _subresultant(self.minpoly, x.num)
        if not res:
            raise DivError("element has no inverse (zero divisor coordinates)")
        inv = self._element([x.den * a for a in v], c)
        nrm = Fraction(res, x.den ** m)
        if x._norm is None:
            object.__setattr__(x, "_norm", nrm)
        object.__setattr__(inv, "_norm", 1 / nrm)
        return inv

    def _norm(self, num):
        """Norm of the integral element with coordinates num: the resultant
        Res(f, num) of the monic minimal polynomial f, from one
        sub-resultant pass (N(x) = N(num) / den^degree)."""
        if not any(num[1:]):
            return num[0] ** self.degree
        return _subresultant(self.minpoly, num)[0]

    # -- numeric embeddings -------------------------------------------------
    def _theta_numeric(self):
        """Images of theta under all embeddings at the current mpmath precision."""
        raise NotImplementedError

    def embedding_values(self, precision=None):
        import mpmath
        bits = precision if precision is not None else default_precision()
        if bits not in self._embed_cache:
            with mpmath.workprec(bits + 32):
                self._embed_cache[bits] = tuple(self._theta_numeric())
        return self._embed_cache[bits]

    def _embed_element(self, x, precision=None):
        import mpmath
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


class _QuadraticField(NumberField):
    """Q(sqrt D) for a squarefree D = +-d: theta = (1 + sqrt D)/2 when
    D = 1 mod 4, else sqrt D, so 2 ramifies unless D = 1 mod 4."""

    def __init__(self, d, sign):
        if not is_squarefree(d):
            raise SpecError(f"d = {d} is not squarefree")
        self.d = d
        self._radicand = sign * d  # D
        self._theta_bound = isqrt(d) + 1  # |theta| <= sqrt d
        super().__init__(2, f"quad:{'+' if sign > 0 else '-'}{d}")

    def _build_minpoly(self):
        D = self._radicand
        if D % 4 == 1:
            return ((1 - D) // 4, -1, 1)          # x^2 - x - (D-1)/4
        return (-D, 0, 1)                         # x^2 - D

    def sqrt_disc_element(self):
        """The element sqrt(D)."""
        if self._radicand % 4 == 1:
            return self.element((-1, 2))          # 2*theta - 1
        return self.gen()

    def omega(self):
        return sorted(factorize(self.d if self._radicand % 4 == 1 else 2 * self.d))

    def ramification_index(self, p):
        self._check_ramified(p)
        return 2

    def different_exponent(self, p):
        self._check_ramified(p)
        if p % 2 == 1:
            return 1
        return 2 if self._radicand % 4 == 3 else 3


class RealQuadraticField(_QuadraticField):
    kind = "real-quadratic"
    is_cm = False

    def __init__(self, d):
        if not isinstance(d, int) or d < 2:
            raise SpecError(f"real quadratic field needs an integer d >= 2, got {d!r}")
        super().__init__(d, 1)

    def _theta_numeric(self):
        import mpmath
        s = mpmath.sqrt(self.d)
        if self.d % 4 == 1:
            return [(1 + s) / 2, (1 - s) / 2]
        return [s, -s]


class ImagQuadraticField(_QuadraticField):
    kind = "imag-quadratic"
    is_cm = True

    def __init__(self, d):
        if not isinstance(d, int) or d < 1:
            raise SpecError(f"imaginary quadratic field needs an integer d >= 1, got {d!r}")
        super().__init__(d, -1)

    def conj_generator(self):
        if self.d % 4 == 3:
            return self.element((1, -1))          # conj(theta) = 1 - theta
        return self.element((0, -1))              # conj(theta) = -theta

    def _theta_numeric(self):
        import mpmath
        s = mpmath.sqrt(self.d)
        if self.d % 4 == 3:
            t = mpmath.mpc(mpmath.mpf(1) / 2, s / 2)
        else:
            t = mpmath.mpc(0, s)
        return [t, mpmath.conj(t)]


class CyclotomicField(NumberField):
    kind = "cyclotomic"
    is_cm = True
    _theta_bound = 1  # |zeta| = 1

    def __init__(self, n):
        _validate_conductor(n, "cyclo")
        self.n = n
        super().__init__(euler_phi(n), f"cyclo:{n}")

    def _build_minpoly(self):
        return _cyclotomic_poly(self.n)

    def conj_generator(self):
        return self.theta_power(self.n - 1)

    def _zeta_sum(self, terms):
        """sum_t c_t zeta^t for integer terms {t: c_t}, 0 <= t < n."""
        rows = [self.theta_power(t).num for t in terms]
        return self._element(_combine(terms.values(), rows, [0] * self.degree))

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
        import mpmath
        out = []
        n = self.n
        for k in _embedding_exponents(n):
            t = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            out.append(t)
            out.append(mpmath.conj(t))
        return out


class RealCyclotomicField(NumberField):
    kind = "real-cyclotomic"
    is_cm = False
    _theta_bound = 2  # |zeta + zeta^-1| <= 2

    def __init__(self, n):
        _validate_conductor(n, "realcyclo")
        self.n = n
        self._nfac = factorize(n)
        super().__init__(euler_phi(n) // 2, f"realcyclo:{n}")

    def _build_minpoly(self):
        return _real_cyclotomic_poly(self.n)

    def _zeta_sum(self, terms):
        """The real part sum_t c_t v_t / 2 of sum_t c_t zeta^t, for integer
        terms {t: c_t}, 0 <= t < n, and v_t = zeta^t + zeta^-t = v_(n-t).

        v_0 = 2, v_1 = theta and v_t = theta * v_(t-1) - v_(t-2), so
        Clenshaw's recurrence b_t = c_t + theta * b_(t+1) - b_(t+2) sums it
        without tabulating v_t, as sum_t c_t v_t = 2 c_0 + theta * b_1 -
        2 b_2, each product by theta one reduced shift.
        """
        n = self.n
        c = [0] * (max(min(t, n - t) for t in terms) + 1)
        for t, ct in terms.items():
            c[min(t, n - t)] += ct
        b1 = b2 = [0] * self.degree
        for a in c[:0:-1]:
            b1, b2 = [u - v for u, v in zip(self._shift_reduce(b1), b2)], b1
            b1[0] += a
        out = [u - 2 * v for u, v in zip(self._shift_reduce(b1), b2)]
        out[0] += 2 * c[0]
        return self._element(out, 2)

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
    def _theta_numeric(self):
        import mpmath
        n = self.n
        return [2 * mpmath.cos(2 * mpmath.pi * k / n)
                for k in _embedding_exponents(n)]


def _embedding_exponents(n):
    """The k in [1, n/2] prime to n: zeta -> zeta^k, one per conjugate pair."""
    return [k for k in range(1, n // 2 + 1) if gcd(k, n) == 1]


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

# The one number grammar of field specs, recipes and records, ASCII only:
# str.isdigit() and int() also take other scripts' digits (isdigit() even
# superscripts, which int() then refuses), and Fraction() takes exponent
# forms such as 1e1000000, whose size has no bound.
_NATURAL = re.compile(r"[0-9]+")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _ascii_rational(text):
    """The Fraction of an ASCII n or n/d; ValueError for any other text,
    ZeroDivisionError for d = 0."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational n or n/d: {text!r}")
    return Fraction(text)


_FIELD_CACHE = {}


def make_field(spec):
    """Parse a field spec string into a (cached) field descriptor.

    Grammar: ``quad:+<d>`` | ``quad:-<d>`` | ``cyclo:<n>`` | ``realcyclo:<n>``,
    with d and n in ASCII digits.
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
        if sign not in "+-" or not _NATURAL.fullmatch(digits):
            raise SpecError(f"malformed quadratic spec {spec!r}: expected quad:+<d> or quad:-<d>")
        d = int(digits)
        if sign == "+":
            if d < 2:
                raise SpecError(f"quad:+{d} is not a quadratic field (need d >= 2)")
            field = RealQuadraticField(d)
        else:
            field = ImagQuadraticField(d)
    elif family in ("cyclo", "realcyclo"):
        if not _NATURAL.fullmatch(arg):
            raise SpecError(f"malformed spec {spec!r}: conductor must be a positive integer")
        n = int(arg)
        field = CyclotomicField(n) if family == "cyclo" else RealCyclotomicField(n)
    else:
        raise SpecError(f"unknown field family {family!r} in {spec!r}")
    _FIELD_CACHE[s] = field
    _FIELD_CACHE[field.spec_string()] = field
    return field


def trace_pairing(alpha, x, y):
    """Integer Gram of the form Tr(alpha * u * conj(v)) between two modules.

    x and y carry integer power-basis rows ``num`` over one positive
    ``den`` (fractional ideals do).  Returns (rows, scale) with
    Tr(alpha * x_i * conj(y_j)) = rows[i][j] / scale, where
    rows = N * T_a * conj(N')^t for the rows N of x and N' of y,
    a = alpha.num and scale = alpha.den * x.den * y.den.  By
    bilinearity, u . T_a . v = Tr(a * u * v) with the Hankel matrix
    T_a[k][l] = Tr(a * theta^(k+l)) = t[k+l].  Row i of L = N * T_a is the
    sum of the slices c * t[k:k+m] over the nonzero entries c = N[i][k],
    and column j of the Gram the sum of the columns c * L[:, k] over the
    nonzero entries c of conj(N'_j), so a unit row of an HNF costs one
    slice.  When x is y and alpha = conj(alpha) (always on a totally real
    field, on a CM field when alpha is real) the Gram is symmetric: only
    the entries i >= j are formed, and mirrored.  No Fraction is formed.
    """
    field = alpha.field
    m = field.degree
    t = field._hankel_traces(alpha.num)
    left = [_scaled_sum(((c, t[k:k + m]) for k, c in enumerate(row) if c), m)
            for row in x.num]
    lcols = list(zip(*left))
    size = len(left)
    scale = alpha.den * x.den * y.den
    if field.is_cm:
        conj_y = [field._conj_num(row) for row in y.num]
        # Tr(alpha * y * conj(x)) = Tr(conj(alpha) * x * conj(y))
        mirror = x is y and field._conj_num(alpha.num) == list(alpha.num)
    else:
        conj_y, mirror = y.num, x is y
    if not mirror:
        cols = [_scaled_sum(((c, lcols[k]) for k, c in enumerate(row) if c), size)
                for row in conj_y]
        return [list(r) for r in zip(*cols)], scale
    # column j from entry j down, which is row j from entry j on
    cols = [_scaled_sum(((c, lcols[k][j:]) for k, c in enumerate(row) if c), size - j)
            for j, row in enumerate(conj_y)]
    return [[cols[j][i - j] for j in range(i)] + cols[i] for i in range(size)], scale


def _scaled_sum(terms, length):
    """The integer vector sum of c * v over the pairs (c, v), zero (of the
    given length) when there is none."""
    out = None
    for c, v in terms:
        if out is None:
            out = list(v) if c == 1 else [c * e for e in v]
        elif c == 1:
            out = [a + e for a, e in zip(out, v)]
        else:
            out = [a + c * e for a, e in zip(out, v)]
    return [0] * length if out is None else out


def _group_ring_mul(a, b, n):
    """Product of sparse maps {t: c_t} in the group ring Z[Z/n]."""
    out = {}
    for s, c in a.items():
        for t, d in b.items():
            out[(s + t) % n] = out.get((s + t) % n, 0) + c * d
    return out


def sqrt_integer(field, m):
    """An exact square root of the squarefree integer m >= 1, or None.

    For the cyclotomic families the root is a sum of powers of zeta_n,
    multiplied out in the group ring Z[Z/n] and summed once in the field
    by its ``_zeta_sum``: sqrt 2 = zeta_8 + zeta_8^-1 times the quadratic
    Gauss sums sum_j (j/p) zeta_p^j of the odd p | m, each of which squares
    to (-1)^((p-1)/2) p, times zeta_4 when an odd number of those p are
    3 mod 4.  Membership holds exactly when the conductor of Q(sqrt m) (m
    for m = 1 mod 4, else 4m) divides n.  The result is verified by exact
    squaring before it is returned, with its inverse sqrt(m)/m linked.
    """
    if not isinstance(m, int) or m < 1:
        raise SpecError(f"sqrt_integer needs a positive integer, got {m!r}")
    if not is_squarefree(m):
        raise SpecError(f"{m} is not squarefree")
    if m == 1:
        return field.one()
    if isinstance(field, RealQuadraticField):
        root = field.sqrt_disc_element()
        return _link_inverses(root, root / m) if m == field.d else None
    if isinstance(field, ImagQuadraticField):
        return None
    if not isinstance(field, (CyclotomicField, RealCyclotomicField)):
        raise SpecError(f"sqrt_integer is not defined for {field.spec_string()}")

    n = field.n
    conductor = m if m % 4 == 1 else 4 * m
    if n % conductor != 0:
        return None
    terms = {n // 8: 1, 7 * n // 8: 1} if m % 2 == 0 else {0: 1}
    odd_primes = factorize(m // gcd(m, 2))
    for p in odd_primes:
        terms = _group_ring_mul(terms, {n // p * j: _legendre(j, p) for j in range(1, p)}, n)
    if sum(p % 4 == 3 for p in odd_primes) % 2:
        terms = _group_ring_mul(terms, {n // 4: 1}, n)
    cand = field._zeta_sum(terms)
    if cand * cand != field.rational(m):
        raise ArithmeticError(
            f"internal error: Gauss-sum construction of sqrt({m}) in {field.spec_string()} "
            f"squared to {cand * cand!r}")
    return _link_inverses(cand, cand / m)


def trace_form(alpha):
    """(H, alpha.den): H[k][l] / alpha.den = Tr(alpha * theta^k *
    conj(theta^l)), the trace_pairing of alpha on O_K = Z[theta], whose
    rows are the identity."""
    m = alpha.field.degree
    ok = SimpleNamespace(num=[[int(i == j) for j in range(m)] for i in range(m)], den=1)
    return trace_pairing(alpha, ok, ok)


def is_totally_positive(alpha):
    """True iff every embedding value of alpha is positive.

    Tr(alpha * x * conj(x)) = sum_sigma sigma(alpha) * |sigma(x)|^2, so
    alpha >> 0 iff its trace form H is positive definite, decided on
    integers by Sylvester's criterion with no precision and no cap
    (_trace_form_det): on a totally real field from the sub-resultants of
    the Hankel form H, on a CM field by ldl_integral, where H is symmetric
    iff alpha = conj(alpha).  Zero and rationals are read off their sign;
    any other verdict is kept on alpha.
    """
    if alpha.is_rational:
        return alpha.num[0] > 0
    try:
        _trace_form_det(alpha)
    except _FormError:
        return False
    return True


def _trace_form_det(alpha):
    """det(H) for the trace form (H, alpha.den) of alpha; raises FormError
    unless H is positive definite.  A rational alpha = c/d is decided by
    its sign, and det(H) = c^m * |disc K|, as det Tr(theta^i *
    conj(theta^j)) = |disc K| for O_K = Z[theta].  Otherwise, on a totally
    real field (every supported field that is not CM) H is the Hankel
    matrix of the traces of alpha.num and _hankel_det decides it with one
    sub-resultant PRS; on a CM field it is the last pivot of
    ldl_integral(H).  That verdict is kept on alpha as _trace_det, 0 for a
    form that is not positive definite, so deciding positivity and
    certifying a lattice on the same alpha decide H once."""
    if alpha.is_rational:
        c = alpha.num[0]
        if c <= 0:
            raise _FormError("matrix is not positive definite")
        return c ** alpha.field.degree * abs(alpha.field.discriminant())
    if alpha._trace_det is None:
        field = alpha.field
        try:
            if field.is_cm:
                trace_det = _ldl_integral(trace_form(alpha)[0])[1][-1][-1]
            else:
                trace_det = _hankel_det(field, alpha.num)
        except _FormError:
            trace_det = 0
        object.__setattr__(alpha, "_trace_det", trace_det)
    if not alpha._trace_det:
        raise _FormError("matrix is not positive definite")
    return alpha._trace_det


def _hankel_numerator(field, a):
    """R = a * f'(theta), read off the traces s_k = Tr(a * theta^k): the
    series sum_k s_k x^(-k-1) is R / f, so R_j = sum_(i > j) f_i * s_(i-j-1)."""
    f, m = field.minpoly, field.degree
    s = field._hankel_traces(a)
    return [sum(f[i] * s[i - j - 1] for i in range(j + 1, m + 1)) for j in range(m)]


def _hankel_det(field, a):
    """det(H) of the Hankel trace form H[i][j] = s_(i+j), s_k = Tr(a *
    theta^k), of a totally real field; raises FormError unless H is
    positive definite.

    Its leading minor of order k is (-1)^(k(k-1)/2) * psc_(m-k)(f, R) for
    the minimal polynomial f and R = a * f'(theta), read off the first row
    of H (_hankel_numerator; Basu, Pollack, Roy, Algorithms in Real
    Algebraic Geometry, Ch. 9).  So Sylvester's criterion is one PRS in
    O(m^2) coefficient operations: H is positive definite iff every
    psc_(m-k) carries the sign (-1)^(k(k-1)/2), which needs deg R = m - 1
    and no skipped degree, and then det(H) = (-1)^(m(m-1)/2) * Res(f, R).
    Dividing R by its content b > 0 scales the order-k minor by b^k and
    keeps its sign.
    """
    f, m = field.minpoly, field.degree
    R = _hankel_numerator(field, a)
    if R[-1] > 0:  # R[-1] = s_0, the leading minor of order 1
        b = gcd(*R)
        res, psc, _, _ = _prs(f, [r // b for r in R])
        if all((-1) ** (k * (k - 1) // 2) * psc[m - k] > 0 for k in range(1, m + 1)):
            return (-1) ** (m * (m - 1) // 2) * b ** m * res
    raise _FormError("matrix is not positive definite")


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
    import mpmath
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
    return _checked_precision(bits, "ARAKELOV_PRECISION_BITS")


def _checked_precision(bits, source):
    """bits in [16, 4096]: an embedding's cost grows steeply with its bits."""
    if not 16 <= bits <= 4096:
        raise SpecError(f"{source} must be between 16 and 4096 bits, got {bits}")
    return bits
