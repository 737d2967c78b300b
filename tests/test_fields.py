"""Tests for arakelov.fields.

Oracles used here are independent of the implementation under test:
numeric embeddings cross-check exact ring arithmetic, direct root sums
cross-check Newton-identity traces, ambient-evaluation checks the real
cyclotomic minimal polynomial, sympy's exact real-root count of the
characteristic polynomial (a resultant with the minimal polynomial)
decides total positivity, and Fraction coordinates with a schoolbook
product reduced by the minimal polynomial check the integer num/den
representation.  On totally real fields the implementation decides
total positivity and det(T_alpha) from the sub-resultants of the Hankel
trace form, which the Bareiss elimination of that form checks; on CM
fields it eliminates the form, so that form is not an oracle for the
root-count test.  Norms, inverses and the discriminant come from one
sub-resultant pass; the Bareiss determinant and integer solve of the
multiplication matrix check them.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, oo, resultant, symbols

from arakelov.fields import (
    CyclotomicField,
    DivError,
    FieldMismatch,
    NotRamified,
    RealCyclotomicField,
    SpecError,
    embedding_matrix,
    euler_phi,
    factorize,
    is_squarefree,
    is_totally_positive,
    make_field,
    moebius,
    sqrt_integer,
    trace_form,
    _cyclotomic_poly,
    _hankel_det,
    _hankel_numerator,
    _real_cyclotomic_poly,
    _subresultant,
)
from arakelov.linalg import FormError, det, ldl_integral, solve_integral

rng = random.Random(1309)


def random_element(field, lo=-4, hi=4, den=3):
    return field.element(
        [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(field.degree)])


def trace_form_rows(field):
    """Integer rows of the trace form T[i][j] = Tr(theta^(i+j)) = s_(i+j),
    a Hankel view of the field's power sums."""
    s, m = field._power_sums, field.degree
    return tuple(s[i:i + m] for i in range(m))


def embed_complex(x):
    """Numeric embedding oracle: evaluate the coefficient polynomial with cmath."""
    f = x.field
    if f.kind == "real-quadratic":
        s = math.sqrt(f.d)
        thetas = [(1 + s) / 2, (1 - s) / 2] if f.d % 4 == 1 else [s, -s]
    elif f.kind == "imag-quadratic":
        s = math.sqrt(f.d)
        t = complex(0.5, s / 2) if f.d % 4 == 3 else complex(0, s)
        thetas = [t, t.conjugate()]
    elif f.kind == "cyclotomic":
        thetas = []
        for k in range(1, f.n // 2 + 1):
            if math.gcd(k, f.n) == 1:
                t = cmath.exp(2j * cmath.pi * k / f.n)
                thetas.extend([t, t.conjugate()])
    else:
        thetas = [2 * math.cos(2 * math.pi * k / f.n)
                  for k in range(1, f.n // 2 + 1) if math.gcd(k, f.n) == 1]
    out = []
    for t in thetas:
        acc = 0j
        for c in reversed(x.coeffs):
            acc = acc * t + complex(c)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# make_field and descriptors
# ---------------------------------------------------------------------------

def test_make_field_quadratic():
    f = make_field("quad:+5")
    assert f.degree == 2 and f.omega() == [5] and not f.is_cm
    g = make_field("quad:-3")
    assert g.degree == 2 and g.omega() == [3] and g.is_cm
    assert make_field("quad:+6").omega() == [2, 3]
    assert make_field("quad:-1").degree == 2  # Q(i) is allowed


def test_make_field_realcyclo_13():
    f = make_field("realcyclo:13")
    assert f.degree == 6
    assert f.omega() == [13]
    assert f.ramification_index(13) == 6


def test_make_field_realcyclo_28():
    # non-prime-power: e_p = phi(p^(r_p)) at every ramified p
    f = make_field("realcyclo:28")
    assert f.degree == euler_phi(28) // 2 == 6
    assert f.omega() == [2, 7]
    assert f.ramification_index(2) == euler_phi(4) == 2
    assert f.ramification_index(7) == euler_phi(7) == 6
    assert f.residue_product(2) == 3 and f.residue_product(7) == 1


def test_make_field_rejects_bad_specs():
    for bad in ["quad:+1", "quad:+12", "quad:-8", "quad:5", "quad:+x",
                "realcyclo:10", "cyclo:2", "cyclo:6", "realcyclo:2",
                "nonsense:4", "quad", "realcyclo:", "cyclo:abc"]:
        with pytest.raises(SpecError):
            make_field(bad)


def test_make_field_cache_returns_same_object():
    assert make_field("realcyclo:13") is make_field("realcyclo:13")


def _ramanujan_sum(n, k):
    """c_n(k), the sum of zeta_n^(j*k) over the units j mod n, in closed
    form: the sum of mu(n/d) * d over the divisors d of gcd(n, k)."""
    g = math.gcd(n, k)
    return sum(moebius(n // d) * d for d in range(1, g + 1) if g % d == 0)


def _power_sum_oracle(field, k):
    """Tr(theta^k) from Ramanujan sums: zeta^j for cyclo:n; for realcyclo:n,
    (zeta^j + zeta^-j)^k expanded binomially, halved over the unit pairs."""
    n = field.n
    if isinstance(field, CyclotomicField):
        return _ramanujan_sum(n, k)
    total = sum(math.comb(k, i) * _ramanujan_sum(n, abs(2 * i - k)) for i in range(k + 1))
    assert total % 2 == 0
    return total // 2


LAZY_SPECS = [f"realcyclo:{n}" for n in range(3, 106) if n % 4 != 2] + \
    [f"cyclo:{n}" for n in range(3, 61) if n % 4 != 2]


@pytest.mark.parametrize("spec", LAZY_SPECS)
def test_lazy_tables_match_eager_ones(spec):
    """A field takes its degree from the conductor and builds its minimal
    polynomial on first use; whichever table is asked for first, the
    result is the eagerly built polynomial, the trace form of the power
    sums, and the determinant of that trace form."""
    family, n = spec.split(":")
    cls, eager = (CyclotomicField, _cyclotomic_poly) if family == "cyclo" \
        else (RealCyclotomicField, _real_cyclotomic_poly)
    n = int(n)
    by_poly, by_form = cls(n), cls(n)
    assert "minpoly" not in vars(by_poly) and "minpoly" not in vars(by_form)
    assert by_poly.minpoly == eager(n)
    assert by_poly.degree == len(eager(n)) - 1
    form = trace_form_rows(by_form)                  # minimal polynomial built here
    assert by_form.minpoly == eager(n)
    m = by_form.degree
    sums = [_power_sum_oracle(by_form, k) for k in range(2 * m - 1)]
    assert form == tuple(tuple(sums[i + j] for j in range(m)) for i in range(m))
    assert trace_form_rows(by_poly) == form
    assert by_poly.discriminant() == by_form.discriminant() == det([list(r) for r in form])


def test_number_theory_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert euler_phi(92) == 44
    assert moebius(30) == -1 and moebius(12) == 0 and moebius(10) == 1
    assert is_squarefree(1) and is_squarefree(15) and not is_squarefree(18)


def test_factorize_certifies_or_refuses():
    """Trial division stops past 10^6: a cofactor below 10^12 with no
    smaller prime factor is prime, and one above it is refused, so no
    factorization runs without bound."""
    assert factorize(999983 * 999999999989) == {999983: 1, 999999999989: 1}
    assert factorize(2 * 1000003) == {2: 1, 1000003: 1}
    for n in (1000003 ** 2, 1000003 * 1000033, 10 ** 16 + 61, 10 ** 18 + 3):
        with pytest.raises(SpecError, match="cannot factor"):
            factorize(n)
    with pytest.raises(SpecError):
        is_squarefree(5 * (10 ** 18 + 3))


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------

def test_difference_of_squares_quad2():
    f = make_field("quad:+2")
    one, theta = f.one(), f.gen()
    assert (one + theta) * (one - theta) == f.rational(-1)


def test_realcyclo5_minimal_relation():
    # theta = 2cos(2pi/5) satisfies theta^2 + theta - 1 = 0
    f = make_field("realcyclo:5")
    theta = f.gen()
    assert theta * theta == f.one() - theta


def test_minimal_polynomial_vanishes_in_ambient():
    # evaluate the real-subfield minimal polynomial at zeta + zeta^-1
    for n in [5, 13, 28, 36]:
        real, amb = make_field(f"realcyclo:{n}"), make_field(f"cyclo:{n}")
        b = amb.theta_power(1) + amb.theta_power(n - 1)
        acc = amb.zero()
        for c in reversed(real.minpoly):
            acc = acc * b + amb.rational(c)
        assert acc.is_zero


def test_mul_matches_numeric_oracle():
    for spec in ["quad:+7", "quad:-5", "cyclo:12", "realcyclo:13"]:
        f = make_field(spec)
        x, y = random_element(f), random_element(f)
        exact = [complex(v) for v in _to_complex(x * y)]
        approx = [a * b for a, b in zip(embed_complex(x), embed_complex(y))]
        for e, a in zip(exact, approx):
            assert abs(e - a) < 1e-6


def _to_complex(x):
    return embed_complex(x)


def test_inverse_roundtrip():
    for spec in ["quad:+5", "quad:-3", "cyclo:28", "realcyclo:13"]:
        f = make_field(spec)
        for _ in range(5):
            x = random_element(f)
            if x.is_zero:
                continue
            assert x * x.inverse() == f.one()
            assert (1 / x) * x == f.one()


def test_inverse_large_coordinates():
    # high powers have coordinates hundreds of digits long; the inverse must
    # stay exact and come back in well under a second
    f = make_field("realcyclo:49")
    x = (f.gen() + f.rational(2)) ** 40
    assert x * x.inverse() == f.one()
    y = x + f.one()
    assert (y / x) * x == y


def test_division_by_zero():
    f = make_field("quad:+5")
    with pytest.raises(DivError):
        f.one() / f.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        make_field("quad:+5").one() + make_field("quad:+7").one()


def test_pow_and_theta_power_agree():
    for spec in ["cyclo:12", "realcyclo:13"]:
        f = make_field(spec)
        g = f.gen()
        for k in [0, 1, 2, 5, 9]:
            assert g ** k == f.theta_power(k)
        assert g ** -2 == (g ** 2).inverse()


def test_degree_one_field():
    f = make_field("realcyclo:3")  # theta = 2cos(2pi/3) = -1, the field is Q
    assert f.degree == 1
    assert f.gen() == f.rational(-1)
    assert f.gen() * f.gen() == f.one()
    assert f.omega() == []


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_of_one():
    for spec, m in [("quad:+5", 2), ("cyclo:28", 12), ("realcyclo:13", 6)]:
        assert make_field(spec).one().trace() == m


def test_trace_zeta12_is_zero():
    # oracle: the four primitive 12th roots of unity sum to 0 numerically
    f = make_field("cyclo:12")
    numeric = sum(cmath.exp(2j * cmath.pi * k / 12) for k in [1, 5, 7, 11])
    assert abs(numeric) < 1e-12
    assert f.gen().trace() == 0


def test_trace_realcyclo13_gen():
    # oracle: sum of 2cos(2pi k/13) over k = 1..6 equals -1 numerically
    f = make_field("realcyclo:13")
    numeric = sum(2 * math.cos(2 * math.pi * k / 13) for k in range(1, 7))
    assert abs(numeric - (-1)) < 1e-12
    assert f.gen().trace() == -1


def test_trace_matches_embedding_sum():
    for spec in ["quad:+7", "quad:-5", "cyclo:28", "realcyclo:36"]:
        f = make_field(spec)
        x = random_element(f)
        numeric = sum(embed_complex(x))
        assert abs(complex(x.trace()) - numeric) < 1e-8
        assert abs(numeric.imag) < 1e-8


def test_trace_linearity():
    f = make_field("realcyclo:13")
    x, y = random_element(f), random_element(f)
    assert (x + y).trace() == x.trace() + y.trace()
    assert (3 * x).trace() == 3 * x.trace()


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conj_sqrt_minus_3():
    f = make_field("quad:-3")
    root = f.sqrt_disc_element()  # sqrt(-3)
    assert root.conj() == -root
    assert root * root == f.rational(-3)


def test_conj_identity_on_totally_real():
    for spec in ["quad:+5", "realcyclo:13"]:
        f = make_field(spec)
        x = random_element(f)
        assert x.conj() == x


def test_conj_zeta28():
    f = make_field("cyclo:28")
    assert f.gen().conj() == f.theta_power(27)


def test_conj_is_ring_involution():
    for spec in ["quad:-5", "cyclo:28"]:
        f = make_field(spec)
        x, y = random_element(f), random_element(f)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().trace() == x.trace()
        # numeric: conj swaps the adjacent conjugate-pair embeddings
        a = embed_complex(x)
        b = embed_complex(x.conj())
        for i in range(0, len(a), 2):
            assert abs(a[i].conjugate() - b[i]) < 1e-8


def test_norm_multiplicative():
    for spec in ["quad:+2", "cyclo:12", "realcyclo:13"]:
        f = make_field(spec)
        x, y = random_element(f), random_element(f)
        assert (x * y).norm() == x.norm() * y.norm()
    assert make_field("quad:+2").gen().norm() == -2


# ---------------------------------------------------------------------------
# sums of powers of zeta
# ---------------------------------------------------------------------------

# prime powers, 4 * odd, and 105 = 3 * 5 * 7, where phi(n) = 48 < n / 2
ZETA_SUM_CONDUCTORS = [5, 7, 8, 9, 16, 25, 27, 12, 20, 28, 36, 44, 105]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ZETA_SUM_CONDUCTORS), st.data())
def test_zeta_sum_is_the_power_sum_in_zeta_plus_inverse(n, data):
    """For symmetric terms, c_t = c_(n-t), the real subfield's _zeta_sum x
    satisfies sum_j x_j (zeta + zeta^-1)^j = the cyclotomic _zeta_sum of
    the same terms, the former formed by element arithmetic on
    theta_power."""
    real, amb = make_field(f"realcyclo:{n}"), make_field(f"cyclo:{n}")
    half = data.draw(st.lists(st.integers(-9, 9), min_size=n // 2 + 1, max_size=n // 2 + 1))
    terms = {t: c for t, c in enumerate(half)}
    terms.update({n - t: c for t, c in enumerate(half) if t})
    x = real._zeta_sum(terms)
    z = amb.theta_power(1) + amb.theta_power(n - 1)
    want, power = amb.zero(), amb.one()
    for c in x.coeffs:
        want, power = want + power * c, power * z
    assert want == amb._zeta_sum(terms)


# ---------------------------------------------------------------------------
# square roots of integers
# ---------------------------------------------------------------------------

def test_sqrt_13_in_realcyclo13():
    f = make_field("realcyclo:13")
    beta = sqrt_integer(f, 13)
    assert beta is not None and beta * beta == f.rational(13)


def test_sqrt_3_in_realcyclo36():
    f = make_field("realcyclo:36")
    beta = sqrt_integer(f, 3)
    assert beta is not None and beta * beta == f.rational(3)


def test_sqrt_15_in_realcyclo15_absent():
    assert sqrt_integer(make_field("realcyclo:15"), 15) is None


def test_sqrt_5_in_realcyclo15():
    f = make_field("realcyclo:15")
    beta = sqrt_integer(f, 5)
    assert beta is not None and beta * beta == f.rational(5)


def test_sqrt_2_in_realcyclo8_is_generator():
    f = make_field("realcyclo:8")  # theta = 2cos(pi/4) = sqrt 2
    assert sqrt_integer(f, 2) == f.gen()


def test_sqrt_6_in_realcyclo24():
    f = make_field("realcyclo:24")
    for m in [2, 3, 6]:
        beta = sqrt_integer(f, m)
        assert beta is not None and beta * beta == f.rational(m)


def test_sqrt_absent_cases():
    assert sqrt_integer(make_field("realcyclo:13"), 7) is None
    assert sqrt_integer(make_field("realcyclo:49"), 7) is None  # conductor 28 does not divide 49
    assert sqrt_integer(make_field("quad:+5"), 3) is None
    assert sqrt_integer(make_field("quad:-3"), 3) is None


def test_sqrt_trivial_and_quadratic():
    f = make_field("realcyclo:13")
    assert sqrt_integer(f, 1) == f.one()
    q = make_field("quad:+5")
    root = sqrt_integer(q, 5)
    assert root is not None and root * root == q.rational(5)


def test_sqrt_rejects_non_squarefree():
    with pytest.raises(SpecError):
        sqrt_integer(make_field("realcyclo:13"), 12)


def test_sqrt_in_ambient_cyclotomic():
    f = make_field("cyclo:13")
    beta = sqrt_integer(f, 13)
    assert beta is not None and beta * beta == f.rational(13)
    assert beta.conj() == beta


# ---------------------------------------------------------------------------
# total positivity
# ---------------------------------------------------------------------------

_X, _Y = symbols("x y")


def totally_positive_oracle(x):
    """Exact oracle: chi(y) = Res_x(f(x), y - a(x)) is the characteristic
    polynomial prod_sigma (y - sigma(x)) for the minimal polynomial f of
    theta and the coordinate polynomial a of x.  x is totally positive iff
    every root of chi is real and none lies in (-oo, 0]; sympy counts real
    roots exactly (Sturm sequences), and its count is of distinct roots,
    so it reads the squarefree part."""
    f = x.field
    fx = sum(c * _X ** k for k, c in enumerate(f.minpoly))
    ax = sum(c * _X ** k for k, c in enumerate(x.coeffs))
    chi = Poly(resultant(fx, _Y - ax, _X), _Y).sqf_part()
    return chi.count_roots() == chi.degree() and chi.count_roots(-oo, 0) == 0


def cos7_convergents(bits):
    """(below, above): two consecutive continued-fraction convergents p/q of
    2cos(2pi/7), the root of f(x) = x^3 + x^2 - 2x - 1 in (1, 2), the
    second the first with q above 2^bits.  Integer Newton steps from 2
    give h with h/2^B < 2cos(2pi/7) < (h+1)/2^B, B = 3*bits; Euclid on
    h/2^B gives the convergents, and the exact sign of q^3 f(p/q) (f
    increases on (1, 2)) says on which side each one lies."""
    big = 3 * bits
    one = 1 << big

    def F(h):  # 2^(3B) f(h / 2^B)
        return ((h + one) * h - 2 * one * one) * h - one ** 3

    h = 2 * one
    while True:
        step = F(h) // (3 * h * h + 2 * h * one - 2 * one * one)
        if step == 0:
            break
        h -= step
    while F(h) > 0:
        h -= 1
    assert F(h) < 0 < F(h + 1)
    num, den = h, one
    p0, q0, p1, q1 = 0, 1, 1, 0
    while q1.bit_length() <= bits:
        a, rest = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        num, den = den, rest

    def above_root(p, q):  # q^3 f(p/q) > 0
        return p ** 3 + p * p * q - 2 * p * q * q - q ** 3 > 0

    assert above_root(p0, q0) != above_root(p1, q1)
    if above_root(p0, q0):
        p0, q0, p1, q1 = p1, q1, p0, q0
    return Fraction(p0, q0), Fraction(p1, q1)


def test_totally_positive_fixtures():
    f = make_field("realcyclo:13")
    gamma = 2 - f.gen()  # 2 - 2cos(2pi/13), a generator of the prime above 13
    assert is_totally_positive(gamma)
    assert is_totally_positive(gamma.inverse())
    assert is_totally_positive(f.one())
    five = make_field("realcyclo:5")
    assert not is_totally_positive(five.gen())  # 2cos(4pi/5) < 0
    assert not is_totally_positive(f.zero())


def test_totally_positive_matches_exact_oracle():
    for spec in ["quad:+5", "quad:+6", "realcyclo:13", "realcyclo:28"]:
        f = make_field(spec)
        hits = 0
        for _ in range(12):
            x = random_element(f, lo=-3, hi=3, den=2)
            if x.is_zero:
                continue
            got = is_totally_positive(x)
            assert got == totally_positive_oracle(x)
            hits += got
        sq = random_element(f)
        if not sq.is_zero:
            assert is_totally_positive(sq * sq)  # nonzero squares are totally positive


def test_totally_positive_cm():
    f = make_field("cyclo:12")
    zeta = f.gen()
    assert not is_totally_positive(zeta)  # not fixed by conjugation
    real_combo = 2 - zeta - zeta.conj()    # 2 - 2cos(pi/6) > 0 at all embeddings
    assert is_totally_positive(real_combo)
    assert is_totally_positive(f.rational(5))
    assert not is_totally_positive(f.rational(-5))
    g = make_field("quad:-3")
    assert is_totally_positive(g.rational(Fraction(1, 2)))
    assert not is_totally_positive(g.gen())


def test_total_positivity_decides_past_any_precision():
    """r - theta in realcyclo:7 for the two convergents r of 2cos(2pi/7)
    around q = 2^12000: both lie within 1/(q*q') < 2^-16384 of an
    embedding value, which a 2^14-bit numeric evaluation cannot separate
    from zero, and the exact decision still goes each way."""
    f = make_field("realcyclo:7")
    below, above = cos7_convergents(12000)
    assert below.denominator * above.denominator > 2 ** 16384
    theta = f.gen()
    assert is_totally_positive(above - theta)
    assert not is_totally_positive(below - theta)


_POSITIVITY_SPECS = ["quad:+5", "quad:+2", "quad:+6", "quad:-1", "quad:-3",
                     "quad:-7", "realcyclo:7", "realcyclo:9", "realcyclo:13",
                     "realcyclo:28", "cyclo:5", "cyclo:7", "cyclo:12", "cyclo:16"]


@st.composite
def _positivity_cases(draw):
    """Random elements, and near-boundary ones: y - r for a real y and a
    rational r within 10^-k of an embedding value of y (the least one or
    any), k up to 60.  On CM fields y is x + conj(x) or x * conj(x), and a
    drawn multiple of theta - conj(theta) can make the result non-real."""
    field = make_field(draw(st.sampled_from(_POSITIVITY_SPECS)))
    coeffs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                      min_size=field.degree, max_size=field.degree)
    x = field.element(draw(coeffs))
    shape = draw(st.sampled_from(["random", "near", "near-square"]))
    if shape == "random" or x.is_rational:
        return x
    y = x * x.conj() if shape == "near-square" else x + x.conj()
    if y.is_rational:
        return y
    values = sorted(mpmath.re(v) for v in y.embed(precision=256))
    v = values[0] if draw(st.booleans()) else draw(st.sampled_from(values))
    k = draw(st.integers(1, 60))
    with mpmath.workprec(256):
        r = Fraction(int(mpmath.nint(v * 10 ** k)), 10 ** k) \
            + Fraction(draw(st.integers(-2, 2)), 10 ** k)
    alpha = y - r
    if field.is_cm and draw(st.booleans()):
        theta = field.gen()
        alpha = alpha + Fraction(1, 10 ** draw(st.integers(1, 60))) * (theta - theta.conj())
    return alpha


@settings(max_examples=150, deadline=None)
@given(_positivity_cases())
def test_total_positivity_matches_sympy_root_count(alpha):
    assert is_totally_positive(alpha) == totally_positive_oracle(alpha)


_HANKEL_SPECS = ["quad:+2", "quad:+5", "quad:+6", "realcyclo:7", "realcyclo:9",
                 "realcyclo:13", "realcyclo:16", "realcyclo:21", "realcyclo:25",
                 "realcyclo:28", "realcyclo:44", "realcyclo:60"]


@st.composite
def _hankel_cases(draw):
    """Elements of totally real fields: random, near-boundary (y - r for y
    = x or x * x and a rational r within 10^-k of an embedding value of y,
    the least one or any) and sparse (one or two nonzero coordinates,
    which give PRS degree gaps, shifted to trace 0 when drawn: a zero
    leading minor)."""
    field = make_field(draw(st.sampled_from(_HANKEL_SPECS)))
    m = field.degree
    shape = draw(st.sampled_from(["random", "near", "sparse"]))
    if shape == "sparse":
        num = [0] * m
        for _ in range(draw(st.integers(1, 2))):
            num[draw(st.integers(0, m - 1))] = draw(st.integers(-4, 4))
        x = field.element(num)
        if draw(st.booleans()):
            x = x - x.trace() / m
        return x
    coeffs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                      min_size=m, max_size=m)
    x = field.element(draw(coeffs))
    if shape == "random" or x.is_rational:
        return x
    y = x * x if draw(st.booleans()) else x
    if y.is_rational:
        return y
    values = sorted(y.embed(precision=256))
    v = values[0] if draw(st.booleans()) else draw(st.sampled_from(values))
    k = draw(st.integers(1, 30))
    with mpmath.workprec(256):
        r = Fraction(int(mpmath.nint(v * 10 ** k)), 10 ** k) \
            + Fraction(draw(st.integers(-2, 2)), 10 ** k)
    return y - r


@settings(max_examples=200, deadline=None)
@given(_hankel_cases())
@example(make_field("realcyclo:16").element([3, 0, -1, 0]))
def test_hankel_subresultants_match_trace_form_elimination(alpha):
    """On a totally real field the PRS of (f, R) decides positive
    definiteness and gives det(H) exactly as the Bareiss elimination of
    the trace form H does: FormError on both, or the last pivot; R, read
    off the traces, is alpha.num * f'(theta).  The example 3 - theta^2 of
    realcyclo:16 has leading minors 4, 0, 0, 2048: a degree gap of two
    with no negative minor, so only the zero minors reject it."""
    field = alpha.field
    assert _hankel_numerator(field, alpha.num) == \
        field._mul_coeffs(alpha.num, field._fprime.num)
    try:
        want = ldl_integral(trace_form(alpha)[0])[1][-1][-1]
    except FormError:
        want = None
    try:
        got = _hankel_det(field, alpha.num)
    except FormError:
        got = None
    assert got == want
    if not alpha.is_zero:
        assert is_totally_positive(alpha) == (got is not None)


# ---------------------------------------------------------------------------
# numeric embeddings
# ---------------------------------------------------------------------------

def test_embedding_matrix_quad5():
    e = embedding_matrix(make_field("quad:+5"), 80)
    with mpmath.workprec(110):
        s = mpmath.sqrt(5)
        expect = [[1, 1], [(1 + s) / 2, (1 - s) / 2]]
        for i in range(2):
            for j in range(2):
                assert abs(e[i][j] - expect[i][j]) < mpmath.mpf(2) ** -70


def test_embedding_matrix_quad_minus3():
    # sqrt(2)-scaled Re/Im layout: rows {1, (1+sqrt(-3))/2}
    e = embedding_matrix(make_field("quad:-3"), 80)
    with mpmath.workprec(110):
        r2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        expect = [[r2, 0], [r2 / 2, -r2 * s3 / 2]]
        for i in range(2):
            for j in range(2):
                assert abs(e[i][j] - expect[i][j]) < mpmath.mpf(2) ** -70


def test_embedding_matrix_gram_consistency():
    # E*E^T approximates the exact trace-form Gram of (O_K, 1)
    for spec in ["realcyclo:13", "cyclo:12", "quad:-5"]:
        f = make_field(spec)
        e = embedding_matrix(f, 128)
        basis = f.power_basis()
        gram = [[(a * b.conj()).trace() for b in basis] for a in basis]
        m = f.degree
        with mpmath.workprec(160):
            for i in range(m):
                for j in range(m):
                    num = mpmath.fsum(e[i][k] * e[j][k] for k in range(m))
                    assert abs(num - mpmath.mpf(gram[i][j].numerator) / gram[i][j].denominator) \
                        < mpmath.mpf(2) ** -64


def test_embedding_values_realcyclo():
    f = make_field("realcyclo:13")
    vals = f.embedding_values(96)
    with mpmath.workprec(130):
        expect = [2 * mpmath.cos(2 * mpmath.pi * k / 13) for k in range(1, 7)]
        for v, w in zip(vals, expect):
            assert abs(v - w) < mpmath.mpf(2) ** -80


def test_different_exponent_formulas():
    assert make_field("realcyclo:13").different_exponent(13) == 5
    assert make_field("realcyclo:49").different_exponent(7) == 38
    assert make_field("quad:+2").different_exponent(2) == 3
    assert make_field("quad:+3").different_exponent(2) == 2
    assert make_field("quad:+5").different_exponent(5) == 1
    assert make_field("realcyclo:8").different_exponent(2) == 3   # Q(sqrt 2) again
    assert make_field("realcyclo:12").different_exponent(2) == 2  # Q(sqrt 3) again
    assert make_field("realcyclo:12").different_exponent(3) == 1
    assert make_field("cyclo:4").different_exponent(2) == 2
    with pytest.raises(NotRamified):
        make_field("quad:+5").different_exponent(3)
    with pytest.raises(NotRamified):
        make_field("realcyclo:13").different_exponent(5)


# ---------------------------------------------------------------------------
# integer representation: num / den in lowest terms
# ---------------------------------------------------------------------------

_REP_SPECS = ["quad:+5", "quad:+6", "quad:-7", "quad:-1",
              "realcyclo:13", "realcyclo:28", "realcyclo:9",
              "cyclo:12", "cyclo:7", "cyclo:9"]
_BIG = 2 ** 60
_RATIONAL = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))


@st.composite
def _coefficient_lists(draw):
    field = make_field(draw(st.sampled_from(_REP_SPECS)))
    return field, draw(st.lists(_RATIONAL, min_size=field.degree, max_size=field.degree))


def _ref_mul(field, a, b):
    """Schoolbook product of Fraction coordinates, reduced top-down by the
    monic minimal polynomial."""
    m, mp_ = field.degree, field.minpoly
    conv = [Fraction(0)] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c, conv[k] = conv[k], Fraction(0)
        for j in range(m):
            conv[k - m + j] -= c * mp_[j]
    return conv[:m]


def _ref_mult_matrix(field, a):
    m = field.degree
    return [_ref_mul(field, a, [Fraction(int(i == k)) for i in range(m)]) for k in range(m)]


def _ref_conj(field, a):
    if not field.is_cm:
        return list(a)
    g = field.conj_generator().coeffs
    out, power = [Fraction(0)] * field.degree, [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
    for c in a:
        out = [o + c * p for o, p in zip(out, power)]
        power = _ref_mul(field, power, g)
    return out


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    again = x.field.element(x.coeffs)
    assert again == x and (again.num, again.den) == (x.num, x.den)
    assert hash(again) == hash(x)


@settings(max_examples=120, deadline=None)
@given(_coefficient_lists(), _coefficient_lists(), _RATIONAL)
def test_integer_representation_matches_fraction_reference(a_case, b_case, q):
    field, a = a_case
    b = b_case[1] if b_case[0] == field else a_case[1][::-1]
    x, y = field.element(a), field.element(b)
    assert x.coeffs == tuple(Fraction(c) for c in a)
    assert y.coeffs == tuple(Fraction(c) for c in b)

    results = {
        "x": (x, a),
        "x+y": (x + y, [s + t for s, t in zip(a, b)]),
        "x-y": (x - y, [s - t for s, t in zip(a, b)]),
        "x+x": (x + x, [2 * s for s in a]),
        "q*x": (q * x, [q * s for s in a]),
        "x*y": (x * y, _ref_mul(field, a, b)),
        "conj": (x.conj(), _ref_conj(field, a)),
        "-x": (-x, [-s for s in a]),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == tuple(want), name

    mult = _ref_mult_matrix(field, a)
    assert x.trace() == sum(mult[k][k] for k in range(field.degree))
    assert x.norm() == det(mult)
    assert x.norm() is x.norm()  # kept on the element

    if not x.is_zero:
        inv = x.inverse()
        _assert_canonical(inv)
        assert x * inv == 1
        assert inv.norm() == 1 / x.norm() == field.element(inv.coeffs).norm()

    if q > 0:
        square = x * x.conj()
        for z in (x, square):
            assert is_totally_positive(q * z) == is_totally_positive(z)
        assert is_totally_positive(square) == (not x.is_zero)


# --------------------------------------------------------------------------
# the sub-resultant kernel against elimination on the multiplication matrix
# --------------------------------------------------------------------------

_RESULTANT_SPECS = ["quad:+5", "quad:+2", "quad:+13", "quad:-1", "quad:-3", "quad:-5",
                    "cyclo:7", "cyclo:9", "cyclo:12", "cyclo:16", "realcyclo:3",
                    "realcyclo:13", "realcyclo:20", "realcyclo:28", "realcyclo:49"]
_WORD = 2 ** 64


@st.composite
def _resultant_cases(draw):
    """(field, integer coordinates, den): dense, sparse theta^k + c (a
    non-normal PRS with degree gaps > 1), 64-bit, content > 1 and
    rational coordinates, each with either sign of the leading term."""
    field = make_field(draw(st.sampled_from(_RESULTANT_SPECS)))
    m = field.degree
    shape = draw(st.sampled_from(["dense", "sparse", "wide", "content", "rational"]))
    small = st.integers(-4, 4)
    if shape == "sparse":
        num = [draw(small)] + [0] * (m - 1)
        num[draw(st.integers(0, m - 1))] += draw(st.sampled_from([1, -1, 2, -3]))
    elif shape == "wide":
        num = draw(st.lists(st.integers(-_WORD, _WORD), min_size=m, max_size=m))
    elif shape == "rational":
        num = [draw(st.integers(-9, 9))] + [0] * (m - 1)
    else:
        num = draw(st.lists(small, min_size=m, max_size=m))
        if shape == "content":
            c = draw(st.integers(2, 12))
            num = [c * a for a in num]
    assume(any(num))
    if draw(st.booleans()):
        num = [-a for a in num]
    return field, num, draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(_resultant_cases())
def test_norm_inverse_discriminant_match_elimination(case):
    field, num, den = case
    m = field.degree
    rows = field._mul_rows(list(num))
    # the kernel itself: Res(f, a) = det M_a and v * a = c mod f
    res, v, c = _subresultant(field.minpoly, num)
    assert res == det(rows)
    assert c and field._mul_coeffs(v, num) == [c] + [0] * (m - 1)

    x = field._element(num, den)
    mult = field._mul_rows(list(x.num))
    want_norm = Fraction(det(mult), x.den ** m)
    assert x.norm() == want_norm
    fresh = field._element(num, den)
    inv = fresh.inverse()
    Y, d = solve_integral([list(col) for col in zip(*mult)], [[1]] + [[0]] * (m - 1))
    assert inv == field._element([x.den * row[0] for row in Y], d)
    if not x.is_rational:  # one pass gives the norm of x and of 1/x
        assert fresh._norm == want_norm and inv._norm == 1 / want_norm
    assert field.element(inv.coeffs).norm() == 1 / want_norm
    assert field.discriminant() == det([list(r) for r in trace_form_rows(field)])


def test_discriminant_and_codifferent_share_one_pass():
    """disc(f) = (-1)^(m(m-1)/2) N(f'(theta)) reads the norm that inverting
    f'(theta) keeps; a fresh field computes both from the same element."""
    field = RealCyclotomicField(35)
    fp = field._fprime
    assert field.discriminant() == det([list(r) for r in trace_form_rows(field)])
    assert fp._inv is not None and fp._norm is not None
    assert field._fprime is fp and fp * fp.inverse() == field.one()
