"""Tests for arakelov.fields.

Oracles used here are independent of the implementation under test:
numeric embeddings cross-check exact ring arithmetic, direct root sums
cross-check Newton-identity traces, ambient-evaluation checks the real
cyclotomic minimal polynomial, and an exact trace-form Cholesky decides
total positivity without intervals.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from arakelov.fields import (
    CyclotomicField,
    DivError,
    FieldMismatch,
    NotInSubfield,
    NotRamified,
    RealCyclotomicField,
    SpecError,
    embedding_matrix,
    euler_phi,
    factorize,
    is_squarefree,
    is_totally_positive,
    lift_descend,
    make_field,
    moebius,
    sqrt_integer,
)
from arakelov.linalg import FormError, cholesky

rng = random.Random(1309)


def random_element(field, lo=-4, hi=4, den=3):
    return field.element(
        [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(field.degree)])


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


def test_number_theory_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert euler_phi(92) == 44
    assert moebius(30) == -1 and moebius(12) == 0 and moebius(10) == 1
    assert is_squarefree(1) and is_squarefree(15) and not is_squarefree(18)


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
        real = make_field(f"realcyclo:{n}")
        amb = real.ambient
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
# lift / descend
# ---------------------------------------------------------------------------

def test_lift_of_generator():
    real = make_field("realcyclo:13")
    amb = real.ambient
    assert real.lift(real.gen()) == amb.theta_power(1) + amb.theta_power(12)


def test_lift_descend_roundtrip():
    for n in [13, 28, 36]:
        real = make_field(f"realcyclo:{n}")
        x = random_element(real)
        assert real.descend(real.lift(x)) == x
        y, z = random_element(real), random_element(real)
        assert real.lift(y * z) == real.lift(y) * real.lift(z)


def test_descend_rejects_non_real():
    real = make_field("realcyclo:13")
    with pytest.raises(NotInSubfield):
        real.descend(real.ambient.gen())


def test_lift_descend_dispatcher():
    real = make_field("realcyclo:13")
    amb = real.ambient
    x = real.gen()
    assert lift_descend(lift_descend(x, amb), real) == x
    with pytest.raises(SpecError):
        lift_descend(x, make_field("cyclo:28"))


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

def totally_positive_oracle(x):
    """Exact oracle: x is totally positive iff the trace form Tr(x a conj(b))
    on the power basis is positive definite (its Cholesky pivots exist)."""
    f = x.field
    basis = f.power_basis()
    gram = [[(x * a * b.conj()).trace() for b in basis] for a in basis]
    try:
        cholesky(gram)
        return True
    except FormError:
        return False


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
                assert abs(e.entries[i][j] - expect[i][j]) < mpmath.mpf(2) ** -70
    assert not e.cm_layout and e.precision == 80


def test_embedding_matrix_quad_minus3():
    # sqrt(2)-scaled Re/Im layout: rows {1, (1+sqrt(-3))/2}
    e = embedding_matrix(make_field("quad:-3"), 80)
    with mpmath.workprec(110):
        r2, s3 = mpmath.sqrt(2), mpmath.sqrt(3)
        expect = [[r2, 0], [r2 / 2, -r2 * s3 / 2]]
        for i in range(2):
            for j in range(2):
                assert abs(e.entries[i][j] - expect[i][j]) < mpmath.mpf(2) ** -70
    assert e.cm_layout


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
                    num = mpmath.fsum(e.entries[i][k] * e.entries[j][k] for k in range(m))
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
