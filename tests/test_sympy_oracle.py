"""The field data the ideal layer rests on, against sympy.

Every HNF in ideals is a module over the power basis, so it assumes
O_K = Z[theta]; valuations and radicals read the ramification index and
the residue product f*g of each ramified prime.  sympy computes the same
data on its own: cyclotomic_poly and minimal_polynomial give the
defining polynomials, round_two gives the maximal order and the discriminant
of Q[x]/(T), prime_decomp the primes above p with their (e, f), and the
ramified primes are those dividing the discriminant.  The canonical
HNF of a full-rank module is checked against sympy's hermite_normal_form,
the norm of an element against sympy's resultant with the minimal
polynomial and the field discriminant against sympy's discriminant of
it, the valuation of a principal ideal against v_P of its HNF rows at
each prime P of sympy's prime_decomp, and the realized radical powers
P^k against sympy's prime ideal to the k-th power.  That covers the
families with one prime above each ramified p (prime-power conductors
and quadratic fields), where valuation reads the exponent off the norm
and the radical is the one prime above p, and composite conductors,
where valuation certifies equal exponents or raises Unsupported.
sympy is a test dependency; a missing oracle fails the run rather than
skipping.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import (ZZ, Matrix, Poly, cos, cyclotomic_poly, discriminant, factorint,
                   minimal_polynomial, pi, resultant)
from sympy.abc import x
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.primes import prime_decomp

from arakelov.fields import (
    _cyclotomic_poly,
    _real_cyclotomic_poly,
    euler_phi,
    factorize,
    make_field,
)
from arakelov.ideals import IdealRecipe, Unsupported, principal, realize, valuation
from arakelov.linalg import det, hnf_mod_d, row_module_hnf

_CONDUCTORS = st.integers(3, 150).filter(lambda n: n % 4 != 2)
_QUADRATIC = ["quad:+2", "quad:+3", "quad:+5", "quad:+6", "quad:+13",
              "quad:+21", "quad:-1", "quad:-2", "quad:-3", "quad:-7",
              "quad:-15", "quad:-23"]

specs = st.one_of(
    _CONDUCTORS.map(lambda n: f"realcyclo:{n}"),
    _CONDUCTORS.map(lambda n: f"cyclo:{n}"),
    st.sampled_from(_QUADRATIC),
)


def _ascending(expr):
    return [int(c) for c in reversed(Poly(expr, x).all_coeffs())]


def test_cyclotomic_polynomials_match_sympy():
    """Phi_n, built as a truncated power series, is sympy's cyclotomic_poly
    for every 2 <= n <= 250 and for conductors with many divisors; the real
    form is sympy's minimal polynomial of 2*cos(2*pi/n)."""
    for n in [*range(2, 251), 420, 660, 780, 840, 924, 1020, 1155, 2310]:
        assert list(_cyclotomic_poly(n)) == _ascending(cyclotomic_poly(n, x)), n
    for n in (3, 5, 7, 8, 9, 12, 13, 15, 16, 20, 21, 24, 28, 44):
        want = _ascending(minimal_polynomial(2 * cos(2 * pi / n), x))
        assert list(_real_cyclotomic_poly(n)) == want, n


# a fixed draw, so the run time is the same from run to run; the slowest
# field in range is cyclo:91 (degree 72)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs)
@example("realcyclo:44")
@example("realcyclo:27")
@example("realcyclo:105")
@example("realcyclo:97")
@example("cyclo:12")
def test_maximal_order_and_prime_splitting_match_sympy(spec):
    field = make_field(spec)
    m = field.degree
    T = Poly(list(reversed(field.minpoly)), x, domain=ZZ)
    ZK, dK = round_two(T)
    assert dK == field.discriminant()
    # the identity basis: O_K = Z[theta]
    assert ZK.denom == 1 and ZK.matrix == DomainMatrix.eye(m, ZZ)
    # the ramified primes are the primes dividing the discriminant
    assert set(field.omega()) == set(factorint(abs(int(dK))))
    for p in sorted(field.omega()):
        primes = prime_decomp(p, T, ZK=ZK, dK=dK)
        assert {P.e for P in primes} == {field.ramification_index(p)}, p
        assert sum(P.f for P in primes) == field.residue_product(p), p
        assert sum(P.e * P.f for P in primes) == m, p


_NORM_SPECS = ["quad:+5", "quad:+6", "quad:-1", "quad:-7", "cyclo:7", "cyclo:9",
               "cyclo:12", "cyclo:16", "realcyclo:3", "realcyclo:13", "realcyclo:28",
               "realcyclo:49", "realcyclo:97"]


@st.composite
def norm_cases(draw):
    """(spec, coordinates) of an element: dense, sparse theta^k + c, 64-bit
    or with content > 1, of either sign, over a denominator."""
    spec = draw(st.sampled_from(_NORM_SPECS))
    m = make_field(spec).degree
    shape = draw(st.sampled_from(["dense", "sparse", "wide", "content"]))
    if shape == "sparse":
        num = [draw(st.integers(-5, 5))] + [0] * (m - 1)
        num[draw(st.integers(0, m - 1))] += draw(st.sampled_from([1, -1, 3]))
    else:
        bound = 2 ** 64 if shape == "wide" else 4
        num = draw(st.lists(st.integers(-bound, bound), min_size=m, max_size=m))
        if shape == "content":
            num = [6 * a for a in num]
    assume(any(num))
    if draw(st.booleans()):
        num = [-a for a in num]
    return spec, [Fraction(a, draw(st.integers(1, 5))) for a in num]


# the examples name an element by its coordinates, so the field is built
# inside the test: a faulty minimal polynomial fails the test, not the
# collection of this module
@settings(max_examples=60, deadline=None, derandomize=True)
@given(norm_cases())
@example(("realcyclo:97", [2] + [0] * 46 + [1]))  # theta^47 + 2
def test_norm_and_discriminant_match_sympy_resultants(case):
    """N(x) = Res(f, den*x) / den^m for the monic minimal polynomial f, and
    disc(K) = disc(f) as O_K = Z[theta]."""
    spec, coeffs = case
    field = make_field(spec)
    elem = field.element(coeffs)
    T = Poly(list(reversed(field.minpoly)), x, domain=ZZ)
    A = Poly(list(reversed(elem.num)), x, domain=ZZ)
    assert elem.norm() == Fraction(int(resultant(T, A)), elem.den ** field.degree)
    assert field.discriminant() == discriminant(T)
    assert elem * elem.inverse() == 1


@st.composite
def nonsingular_matrices(draw):
    n = draw(st.integers(1, 8))
    M = [[draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(n)]
    assume(det(M) != 0)
    return M


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nonsingular_matrices())
def test_hnf_mod_d_matches_sympy(M):
    d = abs(det(M))
    # sympy's HNF is column-style: its columns span the row module of M
    H = hermite_normal_form(Matrix(M).T, D=d)
    cols = [[int(h) for h in H.col(j)] for j in range(H.cols)]
    assert hnf_mod_d(M, d) == row_module_hnf(cols)



# prime-power conductors up to degree 21, the quadratic fields, and four
# composite conductors with several primes above a ramified p
_PRIME_POWERS = [q for q in range(3, 50) if q % 4 != 2 and len(factorize(q)) == 1]
_COMPOSITES = ["realcyclo:44", "realcyclo:28", "cyclo:12", "cyclo:28"]
_VALUATION_SPECS = sorted(
    [f"realcyclo:{q}" for q in _PRIME_POWERS if 2 <= euler_phi(q) // 2 <= 21]
    + [f"cyclo:{q}" for q in _PRIME_POWERS if euler_phi(q) <= 21]
    + _QUADRATIC + _COMPOSITES)


@lru_cache(maxsize=None)
def _prime_decomp(spec, p):
    """sympy's primes above p in the field of spec."""
    field = make_field(spec)
    T = Poly(list(reversed(field.minpoly)), x, domain=ZZ)
    ZK, dK = round_two(T)
    return prime_decomp(p, T, ZK=ZK, dK=dK)


@lru_cache(maxsize=None)
def _sympy_primes(spec, p):
    """(e, beta_rows) for each prime P above p: beta_rows[j] holds the
    coordinates of theta^j * beta, with beta sympy's test factor of P."""
    m = make_field(spec).degree
    out = []
    for P in _prime_decomp(spec, p):
        beta = P.test_factor()
        rows = []
        for j in range(m):
            unit = DomainMatrix([[ZZ(int(i == j))] for i in range(m)], (m, 1), ZZ)
            product = P.ZK.parent(unit) * beta
            assert product.denom == 1
            rows.append([int(c) for c in product.coeffs])
        out.append((P.e, rows))
    return out


def _exponent_at(p, beta_rows, coords, limit):
    """min(limit, v_P(x)) for the integral element x with these power-basis
    coordinates.

    sympy's test factor beta has p/P = pZ_K + beta Z_K, so beta/p has
    valuation -1 at P and is integral at every other prime: v_P(x) is the
    largest k with x * (beta/p)^k integral (Cohen, Algorithm 4.8.17).
    Integral means integer coordinates, as Z_K = Z[theta].
    """
    k = 0
    while k < limit:
        y = [sum(c * row[i] for c, row in zip(coords, beta_rows) if c)
             for i in range(len(coords))]
        if any(c % p for c in y):
            return k
        coords = [c // p for c in y]
        k += 1
    return k


def _ideal_exponent_at(p, e, beta_rows, ideal):
    """v_P(A) = min v_P over the rows of num, minus v_P(den) = e * v_p(den)."""
    v = float("inf")
    for row in reversed(ideal.num):
        v = _exponent_at(p, beta_rows, row, v)
    den, v_den = ideal.den, 0
    while den % p == 0:
        den //= p
        v_den += 1
    return v - e * v_den


@st.composite
def principal_generators(draw):
    """(spec, coordinates) of a nonzero element."""
    spec = draw(st.sampled_from(_VALUATION_SPECS))
    field = make_field(spec)
    coeffs = draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        min_size=field.degree, max_size=field.degree).filter(any))
    # a power of a ramified prime moves the valuation away from 0
    p = draw(st.sampled_from(field.omega()))
    scale = Fraction(p) ** draw(st.integers(-2, 2))
    return spec, [c * scale for c in coeffs]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(principal_generators())
@example(("quad:+6", [2, 0]))
# (1 + zeta + zeta^3)^2: exponents (2, 0) at the two primes above 2
@example(("cyclo:28", [1, 2, 1, 2, 2, 0, 1, 0, 0, 0, 0, 0]))
def test_principal_valuation_matches_sympy(case):
    """valuation(principal(x), p) is v_P over the HNF rows of (x), with
    P from sympy's prime_decomp and v_P from its test factor.

    sympy's own prime_valuation is no oracle here: it stops the loop of
    Algorithm 4.8.17 on one matrix entry and raises CoercionFailed when
    that entry is divisible by p but the rest is not, so it fails on
    ideals of every family, e.g. (2) at 2 in quad:+6, and on realcyclo:44
    at 11, realcyclo:28 at 7 and cyclo:12 at 2.
    """
    spec, coeffs = case
    field = make_field(spec)
    ideal = principal(field.element(coeffs))
    for p in field.omega():
        exponents = {_ideal_exponent_at(p, e, beta_rows, ideal)
                     for e, beta_rows in _sympy_primes(field.spec_string(), p)}
        if len(exponents) == 1:
            assert valuation(ideal, p) == exponents.pop()
        else:
            with pytest.raises(Unsupported):
                valuation(ideal, p)


# the families with one prime above each ramified p, up to degree 18:
# sympy's Submodule power takes seconds per field from degree 20 on
_ONE_PRIME_SPECS = [spec for spec in _VALUATION_SPECS
                    if spec not in _COMPOSITES and make_field(spec).degree <= 18]


@pytest.mark.parametrize("spec", _ONE_PRIME_SPECS)
def test_realized_prime_powers_match_sympy(spec):
    """realize(P<p>^k), k = 1..3, is sympy's prime above p to the k-th
    power, and its norm is p^(k f)."""
    field = make_field(spec)
    for p in field.omega():
        (P,) = _prime_decomp(spec, p)
        for k in (1, 2, 3):
            power = P.as_submodule() ** k
            assert power.denom == 1
            H = power.matrix.to_Matrix()
            # the columns of sympy's matrix are the power-basis coordinates
            # of a Z-basis of P^k
            cols = [[int(h) for h in H.col(j)] for j in range(H.cols)]
            ideal = realize(IdealRecipe.parse(field, f"P{p}^{k}"))
            assert ideal.den == 1 and [list(row) for row in ideal.num] == row_module_hnf(cols)
            assert ideal.norm() == p ** (k * P.f)
