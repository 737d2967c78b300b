"""Lattice engine tests.

Oracles
-------
* Gram fixtures come from closed-form trace computations in quadratic
  fields (ring basis {1, theta}).
* Generator matrices are compared against closed-form embedding values
  (golden ratio rows, sqrt(2)/sqrt(6) CM layout) and against the exact
  Gram through the numeric product M * M^t at two precisions.
* Duality is certified through biduality, det(L) * det(dual) = 1, and
  module self-duality of a unimodular lattice.
* minimum/theta answers are checked against exhaustive enumeration over
  the exact coefficient box |x_i| <= sqrt(B * (G^-1)_ii) -- a bound that
  holds for every vector of norm <= B and is computed with exact
  rational arithmetic, fully independent of the Fincke-Pohst tree.
* The loop walk is checked node for node against the recursive walk it
  replaced (``recursive_walk`` below, on one common scale where the loop
  walk holds per-level norms): the same norms and the same node count,
  for minimum's bound and for theta, on rational Grams and bounds, and
  at the node budget in dimension 36.
* The theta prefixes of the unimodular level-1 lattices of realcyclo:25,
  :27 and :49 must be modular forms in theta_3 and Delta_8 (Conway-Sloane,
  SPLAG ch. 7): their first terms fix the form, and the later terms the
  walk counts must follow it, an identity no walk shares.
* A walk split between two processes, theta's or minimum's, gives the
  counts and node total of the one-process walk and of recursive_walk at
  every split level, the budget verdict of one process at every budget,
  and the same result when its child dies or sends nothing, or when it
  cannot fork; its two halves stop together within two allowances of the
  budget, and no child is left after any call.  Where no reduced basis
  vector is minimal, minimum still gives the (minimum, kissing) of the
  recursive walk that lowers its bound.
* The walk's reduction of realcyclo:73 and :308 is the (D, A) of
  test_linalg.reference_lll, the LLL loop before two redundant steps
  were dropped.
* minimum and theta_prefix of a Gram moved by a random unimodular T agree
  with those of the unmoved Gram and with the recursive walk on the
  moved Gram's unreduced triangle, so no reduction changes an answer.
* Modularity verification consumes self-proving witnesses from the
  existence module; negative controls corrupt beta, swap the module, or
  twist it by (a) * (sigma a)^-1, which keeps its norm.  Clause ii by
  membership and index is checked against the HNF comparison of the
  product's rows, and integrality and evenness against the Fraction Gram.
"""

import contextlib
import marshal
import math
import os
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arakelov import lattice
from arakelov.existence import classify
from arakelov.fields import FieldMismatch, SpecError, factorize, make_field, trace_pairing
from arakelov.ideals import (
    FractionalIdeal,
    IdealRecipe,
    ideal_mul,
    principal,
    radical_above,
    realize,
    trace_dual,
)
from arakelov.lattice import (
    EnumerationBudgetExceeded,
    IdealLattice,
    ModularityFailure,
    build,
    generator_matrix,
    minimum,
    theta_prefix,
    verify_modularity,
)
from arakelov.linalg import (
    FormError, _lll, det, invert, ldl_integral, lll_reduce, mat_mul, transpose,
)
from test_linalg import lll_grams, reference_lll


def witness_lattice(spec, level, trace_type=True):
    field = make_field(spec)
    w = classify(field, trace_type=trace_type).witnesses[level]
    return build(field, realize(w.ideal), w.alpha), w


def brute_force_norms(gram, bound):
    """Exhaustive counts {norm: vectors} for 0 < norm <= bound, both signs.

    For any x with x^t G x <= B, Cauchy-Schwarz in the G-inner product
    gives x_i^2 <= B * (G^-1)_ii, so the box below contains every
    candidate; norms are evaluated exactly.
    """
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    Ginv = invert(G)
    B = Fraction(bound)
    radii = [math.isqrt(int(B * Ginv[i][i])) for i in range(n)]
    counts = {}
    for x in product(*(range(-r, r + 1) for r in radii)):
        if not any(x):
            continue
        norm = sum(G[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if 0 < norm <= B:
            counts[norm] = counts.get(norm, 0) + 1
    return counts


class FakeWitness:
    """Duck-typed witness for negative controls (bypasses self-validation)."""

    def __init__(self, field, alpha, level, beta):
        self.field = field
        self.alpha = alpha
        self.level = level
        self.beta = beta


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------

def test_build_gram_fixtures():
    cases = [
        ("quad:+5", None, [[2, 1], [1, 3]]),
        ("quad:+2", 2, [[2, 0], [0, 1]]),
        ("quad:-3", None, [[2, 1], [1, 2]]),
    ]
    for spec, level, expected in cases:
        field = make_field(spec)
        if level is None:
            ideal = FractionalIdeal.ring(field)
        else:
            w = classify(field).witnesses[level]
            ideal = realize(w.ideal)
        lat = build(field, ideal, field.one())
        assert [[int(x) for x in row] for row in lat.gram] == expected


def test_build_rejects_foreign_parts():
    f5 = make_field("quad:+5")
    f2 = make_field("quad:+2")
    with pytest.raises(FieldMismatch):
        build(f5, FractionalIdeal.ring(f2), f5.one())
    with pytest.raises(FieldMismatch):
        build(f5, FractionalIdeal.ring(f5), f2.one())


def test_build_rejects_indefinite_alpha():
    f5 = make_field("quad:+5")
    mixed = f5.element([-1, 1])  # theta - 1 has embeddings 0.618 and -1.618
    with pytest.raises(FormError):
        build(f5, FractionalIdeal.ring(f5), mixed)


@pytest.mark.parametrize("spec", ["quad:+5", "quad:-7", "realcyclo:13", "cyclo:9"])
def test_build_reads_a_rational_alpha_off_its_sign(spec):
    """A rational alpha = c/d is positive iff c > 0, and its trace form has
    det c^m * |disc K|; zero and negative rationals are refused."""
    field = make_field(spec)
    ring = FractionalIdeal.ring(field)
    for bad in (0, -1, Fraction(-2, 3)):
        with pytest.raises(FormError):
            build(field, ring, field.rational(bad))
    lat = build(field, ring, field.rational(Fraction(3, 2)))
    m = field.degree
    assert lat.determinant() == Fraction(3, 2) ** m * abs(field.discriminant())
    assert lat.determinant() == det(lat.gram)


def test_ideal_lattice_is_immutable():
    lat, _ = witness_lattice("quad:+5", 5)
    with pytest.raises(AttributeError):
        lat.gram = ()
    assert lat.dimension == 2
    assert lat.determinant() == 5
    assert lat.is_integral()
    assert not lat.is_even()


def test_degree_one_field():
    field = make_field("realcyclo:3")
    lat = build(field, FractionalIdeal.ring(field), field.one())
    assert lat.gram == ((Fraction(1),),)
    assert minimum(lat) == (1, 2)
    assert theta_prefix(lat, 4) == [(0, 1), (1, 2), (4, 2)]


# --------------------------------------------------------------------------
# generator matrices
# --------------------------------------------------------------------------

def test_generator_matrix_golden_ratio_rows():
    field = make_field("quad:+5")
    lat = build(field, FractionalIdeal.ring(field), field.one())
    M = generator_matrix(lat, precision=128)
    assert all(abs(x - 1) < 1e-30 for x in M[0])
    want = sorted([(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2])
    got = sorted(float(x) for x in M[1])
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))


def test_generator_matrix_cm_sqrt2_layout():
    field = make_field("quad:-3")
    lat = build(field, FractionalIdeal.ring(field), field.one())
    M = generator_matrix(lat, precision=128)
    r2, r6 = math.sqrt(2), math.sqrt(6)
    assert abs(float(M[0][0]) - r2) < 1e-12 and abs(float(M[0][1])) < 1e-30
    assert abs(abs(float(M[1][0])) - r2 / 2) < 1e-12
    assert abs(abs(float(M[1][1])) - r6 / 2) < 1e-12


@pytest.mark.parametrize("precision", [128, 192])
def test_generator_matrix_numeric_cross_check(precision):
    mpmath = pytest.importorskip("mpmath")
    field = make_field("realcyclo:13")
    lat = build(field, FractionalIdeal.ring(field), field.one())
    M = generator_matrix(lat, precision=precision)
    m = len(M)
    with mpmath.workprec(precision + 32):
        tol = mpmath.ldexp(1, -(precision // 2))
        for i in range(m):
            for j in range(m):
                approx = mpmath.fsum(M[i][k] * M[j][k] for k in range(m))
                g = lat.gram[i][j]
                assert abs(approx - mpmath.mpf(g.numerator) / g.denominator) < tol


def test_generator_matrix_with_nontrivial_alpha():
    lat, _ = witness_lattice("realcyclo:13", 1, trace_type=False)
    M = generator_matrix(lat, precision=160)  # inline product check must pass
    assert len(M) == 6 and len(M[0]) == 6


# --------------------------------------------------------------------------
# duals
# --------------------------------------------------------------------------

def dual(lat):
    """The dual lattice on tracedual(I, alpha) with the same alpha,
    certified: the pairing matrix between the two bases is integral and
    unimodular, which is exactly "the dual lattice of lat".  A reference
    for the tests below; no pipeline forms a dual lattice."""
    dual_ideal = lattice._dual_ideal(lat)
    out = build(lat.field, dual_ideal, lat.alpha)
    rows, scale = trace_pairing(lat.alpha, dual_ideal, lat.ideal)
    assert not any(e % scale for row in rows for e in row), "pairing not integral"
    assert abs(det([[e // scale for e in row] for row in rows])) == 1, \
        "pairing not unimodular"
    return out


@pytest.mark.parametrize("spec", ["quad:+5", "quad:-3", "realcyclo:7"])
def test_dual_biduality_and_det_product(spec):
    field = make_field(spec)
    lat = build(field, FractionalIdeal.ring(field), field.one())
    d = dual(lat)
    dd = dual(d)
    assert dd.ideal == lat.ideal
    assert dd.gram == lat.gram
    assert Fraction(lat.determinant()) * Fraction(d.determinant()) == 1


def test_dual_of_unimodular_lattice_is_itself():
    lat, _ = witness_lattice("realcyclo:13", 1, trace_type=False)
    d = dual(lat)
    assert d.ideal == lat.ideal
    assert d.gram == lat.gram
    assert lat.determinant() == 1


def _two_product_pairing(alpha, x, y):
    """The Gram of Tr(alpha * u * conj(v)) as two products over the nonzero
    entries of the rows, L = N * T_a and then every entry of
    L * conj(N')^t: the formula trace_pairing used before it summed Hankel
    slices and mirrored, kept as its reference."""
    field = alpha.field
    m = field.degree
    t = field._hankel_traces(alpha.num)

    def nonzero(rows):
        return [[(k, c) for k, c in enumerate(r) if c] for r in rows]

    left = [[sum(c * t[k + j] for k, c in nz) for j in range(m)] for nz in nonzero(x.num)]
    conj_y = [field._conj_num(r) for r in y.num] if field.is_cm else y.num
    return ([[sum(c * lr[k] for k, c in nz) for nz in nonzero(conj_y)] for lr in left],
            alpha.den * x.den * y.den)


_PAIRING_SPECS = ["quad:+5", "realcyclo:13", "realcyclo:28", "realcyclo:44",
                  "quad:-7", "cyclo:7", "cyclo:12", "cyclo:16"]


@st.composite
def _pairing_cases(draw):
    """(spec, u, v, alpha kind, x kind, y kind), with u and v coordinates;
    the test builds the field, so the examples name no field element."""
    spec = draw(st.sampled_from(_PAIRING_SPECS))
    m = make_field(spec).degree
    coords = st.lists(st.integers(-4, 4), min_size=m, max_size=m).filter(any)
    return (spec, draw(coords), draw(coords),
            draw(st.sampled_from(["real", "any"])),
            draw(st.sampled_from(["radical", "integer", "element"])),
            draw(st.sampled_from(["same", "copy", "dual", "other"])))


@settings(max_examples=120, deadline=None)
@given(_pairing_cases())
@example(("cyclo:7", [1, 1, 0, 0, 0, 0], [2, 0, 1, 0, 0, 0], "any", "element", "same"))
@example(("cyclo:12", [0, 1, 0, 0], [1, 1, 0, 0], "any", "radical", "same"))
@example(("realcyclo:44", [1, 0, 2, 0, 0, 0, 0, 0, 0, -1], [1] * 10, "any", "integer", "same"))
def test_trace_pairing_matches_the_two_product_formula(case):
    """trace_pairing on totally real and CM fields, alpha real (u * conj(u)
    + 1, totally positive) or any u, which on a CM field is mostly not
    real; x is y, an equal copy of x, the trace dual of x paired with x as
    the reference dual above pairs them, or another ideal; x a radical (a
    single pivot above 1 where p has one prime of degree 1), an integer times O_K
    (every pivot above 1) or a principal ideal.  When x is y and alpha is
    totally positive, the IdealLattice's Gram is that Gram over its scale."""
    spec, u, v, alpha_kind, x_kind, y_kind = case
    field = make_field(spec)
    u, v = field.element(u), field.element(v)
    alpha = u * u.conj() + 1 if alpha_kind == "real" else u
    if x_kind == "radical":
        x = radical_above(field, max(field.omega()))
    elif x_kind == "integer":
        x = principal(field.rational(1 + max(field.omega())))
    else:
        x = principal(v)
    y = {"same": lambda: x,
         "copy": lambda: FractionalIdeal(field, x.num, x.den),
         "dual": lambda: trace_dual(x, field.one()),
         "other": lambda: principal(v + 1) if v + 1 != 0 else x}[y_kind]()
    if y_kind == "dual":
        x, y = y, x
    rows, scale = trace_pairing(alpha, x, y)
    assert (rows, scale) == _two_product_pairing(alpha, x, y)
    if alpha_kind == "real" and x is y:
        assert build(field, x, alpha).gram == tuple(
            tuple(Fraction(e, scale) for e in row) for row in rows)


# --------------------------------------------------------------------------
# modularity verification
# --------------------------------------------------------------------------

def test_verify_quad3_even_modular_minimum_two():
    lat, w = witness_lattice("quad:+3", 3)
    report = verify_modularity(lat, w)
    assert report.witness_checked and report.modular_level == 3
    assert report.integral and report.even
    assert report.determinant == 3
    # this is the hexagonal lattice A2: minimum 2, six minimal vectors
    assert minimum(lat) == (2, 6)


def test_verify_table_row_44():
    lat, w = witness_lattice("realcyclo:44", 11)
    report = verify_modularity(lat, w)
    assert report.modular_level == 11
    assert report.determinant == 11 ** 5
    assert report.dimension == 10
    assert report.even
    assert minimum(lat)[0] == 6


def test_verify_corrupted_beta_fails_clause_i():
    lat, w = witness_lattice("quad:+3", 3)
    bad = FakeWitness(w.field, w.alpha, w.level, w.beta + w.field.one())
    with pytest.raises(ModularityFailure) as exc:
        verify_modularity(lat, bad)
    assert exc.value.clause == "i"


def test_verify_wrong_module_fails_clause_ii():
    field = make_field("quad:+2")
    w = classify(field).witnesses[2]
    ring_lattice = build(field, FractionalIdeal.ring(field), field.one())
    with pytest.raises(ModularityFailure) as exc:
        verify_modularity(ring_lattice, w)
    assert exc.value.clause == "ii"


def _galois(x, k):
    """sigma_k(x) on realcyclo:n for sigma_k: zeta -> zeta^k, gcd(k, n) = 1,
    by Horner's rule with theta -> zeta^k + zeta^-k."""
    field = x.field
    image = field._zeta_sum({k % field.n: 1, -k % field.n: 1})
    out = field.rational(0)
    for c in reversed(x.coeffs):
        out = out * image + c
    return out


def _twisted(w, a, k):
    """realize of the witness ideal I times (a) * (sigma_k a)^-1."""
    extra = (("principal", a, 1), ("principal", _galois(a, k), -1))
    return realize(IdealRecipe(w.field, w.ideal.factors + extra))


def test_verify_galois_twisted_module_fails_clause_ii():
    """I' = I * (a) * (sigma a)^-1 has the norm of I, and with (a) !=
    (sigma a) it is another module: a = theta + 3 of realcyclo:13 has prime
    norm 233, and sigma: zeta -> zeta^2 maps it to theta^2 + 1 over another
    prime above 233.  I and I' are principal, so clause ii decides both by
    membership and index."""
    field = make_field("realcyclo:13")
    w = classify(field).witnesses[13]
    theta = field.theta_power(1)
    a = theta + 3
    assert _galois(a, 2) == theta * theta + 1
    assert a.norm() == _galois(a, 2).norm() == 233
    assert principal(a) != principal(_galois(a, 2))
    ideal, twisted = realize(w.ideal), _twisted(w, a, 2)
    assert ideal._gen is not None and twisted._gen is not None
    assert twisted.norm() == ideal.norm() and twisted != ideal
    assert verify_modularity(build(field, ideal, w.alpha), w).modular_level == 13
    with pytest.raises(ModularityFailure) as exc:
        verify_modularity(build(field, twisted, w.alpha), w)
    assert exc.value.clause == "ii"


# real cyclotomic conductors below 100 with a classification: n != 2 mod 4,
# two-power conductors refused by design
WITNESS_CONDUCTORS = [n for n in range(3, 100) if n % 4 != 2 and n & (n - 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WITNESS_CONDUCTORS), st.booleans(), st.data())
def test_clause_ii_decision_agrees_with_the_module_comparison(n, trace_type, data):
    """Clause ii as verify_modularity decides it (membership and index for
    a principal product, rows otherwise) agrees with the comparison of HNF
    rows it made before, on the witness lattices of realcyclo:n, on their
    Galois twists I * (a) * (sigma a)^-1, and on I / c, c = 2 or 3, whose
    product (x) lies in I / c with the wrong index."""
    field = make_field(f"realcyclo:{n}")
    verdict = classify(field, trace_type or len(factorize(n)) > 1)
    assume(verdict.witnesses)
    w = verdict.witnesses[data.draw(st.sampled_from(sorted(verdict.witnesses)))]
    ideal = realize(w.ideal)
    change = data.draw(st.sampled_from(["none", "twist", "shrink"]))
    if change == "twist":
        units = [k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1]
        k = data.draw(st.sampled_from(units))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        a = sum((c * field.theta_power(j) for j, c in enumerate(coeffs)), field.rational(0))
        assume(not a.is_zero)
        ideal = _twisted(w, a, k)
    elif change == "shrink":
        c = field.rational(data.draw(st.sampled_from([2, 3])))
        ideal = realize(IdealRecipe(field, w.ideal.factors + (("principal", c, -1),)))
    lat = build(field, ideal, w.alpha)
    try:
        verify_modularity(lat, w)
        decided = True
    except ModularityFailure as exc:
        decided = exc.clause != "ii"
    # the reference: clause ii as an HNF comparison of the product's rows
    lhs = ideal_mul(principal(w.beta), trace_dual(ideal, w.alpha))
    assert decided == ((lhs.num, lhs.den) == (ideal.num, ideal.den))


@pytest.mark.parametrize("spec", ["quad:+3", "quad:-7", "quad:-3", "realcyclo:13",
                                  "realcyclo:28"])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(3), Fraction(2), Fraction(1, 2),
                               Fraction(2, 3)])
def test_integrality_and_evenness_match_the_rational_gram(spec, c):
    """is_integral and is_even, read off the integer rows, agree with the
    Fraction Gram, for the witness ideal and its dual with alpha scaled by
    c: realcyclo:13 at c = 1 is integral and odd, at c = 2 even."""
    field = make_field(spec)
    w = next(iter(classify(field).witnesses.values()))
    for ideal in (realize(w.ideal), trace_dual(realize(w.ideal), w.alpha)):
        lat = build(field, ideal, w.alpha * c)
        integral = all(x.denominator == 1 for row in lat.gram for x in row)
        assert lat.is_integral() is integral
        assert lat.is_even() is (integral and all(row[i] % 2 == 0
                                                 for i, row in enumerate(lat.gram)))


def test_verify_guards_field_and_alpha():
    lat5, _ = witness_lattice("quad:+5", 5)
    _, w2 = witness_lattice("quad:+2", 2)
    with pytest.raises(FieldMismatch):
        verify_modularity(lat5, w2)
    field = make_field("quad:+2")
    w = classify(field).witnesses[2]
    scaled = build(field, realize(w.ideal), field.rational(2))
    with pytest.raises(SpecError):
        verify_modularity(scaled, w)


# --------------------------------------------------------------------------
# minimum
# --------------------------------------------------------------------------

def test_minimum_fixtures():
    assert minimum([[2, 0], [0, 1]]) == (1, 2)
    assert minimum([[1, 0], [0, 1]]) == (1, 4)
    assert minimum([[2, 1], [1, 2]]) == (2, 6)
    assert minimum([[2, 1], [1, 3]]) == (2, 2)


def test_minimum_realcyclo36_is_two():
    lat, w = witness_lattice("realcyclo:36", 3)
    report = verify_modularity(lat, w)
    assert report.even and report.determinant == 27
    assert minimum(lat)[0] == 2


def test_minimum_realcyclo92_is_twelve():
    lat, w = witness_lattice("realcyclo:92", 23)
    report = verify_modularity(lat, w)
    assert report.modular_level == 23
    assert report.determinant == 23 ** 11
    assert minimum(lat)[0] == 12


def test_minimum_rejects_non_positive_definite():
    with pytest.raises(FormError):
        minimum([[1, 2], [2, 1]])
    with pytest.raises(FormError):
        minimum([[0, 0], [0, 0]])


BRUTE_GRAMS = [
    [[2, 1], [1, 3]],
    [[2, 0], [0, 1]],
    [[2, 1], [1, 2]],
    [[4, 1, 0], [1, 3, 1], [0, 1, 2]],
    [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]],
]


@pytest.mark.parametrize("gram", BRUTE_GRAMS)
def test_minimum_matches_brute_force(gram):
    mu, kissing = minimum(gram)
    counts = brute_force_norms(gram, max(row[i] for i, row in enumerate(gram)))
    expected_mu = min(counts)
    assert mu == expected_mu
    assert kissing == counts[expected_mu]


def test_minimum_matches_brute_force_dim6():
    # reduce first so the search box stays small; minimum and kissing are
    # invariants of the module, and invariance under lll_reduce has its own
    # test below
    lat, _ = witness_lattice("realcyclo:36", 3)
    mu, kissing = minimum(lat)
    reduced, _ = lll_reduce([list(r) for r in lat.gram])
    counts = brute_force_norms(reduced, mu)
    assert min(counts) == mu and counts[mu] == kissing


# --------------------------------------------------------------------------
# theta prefixes
# --------------------------------------------------------------------------

def test_theta_fixtures():
    assert theta_prefix([[1, 0], [0, 1]], 2) == [(0, 1), (1, 4), (2, 4)]
    assert theta_prefix([[2, 1], [1, 2]], 2) == [(0, 1), (2, 6)]
    eye6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert theta_prefix(eye6, 1) == [(0, 1), (1, 12)]
    assert theta_prefix([[2, 1], [1, 2]], 0) == [(0, 1)]


def test_theta_dim6_unimodular_matches_z6():
    lat, _ = witness_lattice("realcyclo:13", 1, trace_type=False)
    assert theta_prefix(lat, 1) == [(0, 1), (1, 12)]
    assert minimum(lat) == (1, 12)


@pytest.mark.parametrize("gram,bound", [
    ([[2, 1], [1, 3]], 12),
    ([[4, 1, 0], [1, 3, 1], [0, 1, 2]], 8),
    ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], 6),
])
def test_theta_matches_brute_force(gram, bound):
    got = theta_prefix(gram, bound)
    expected = brute_force_norms(gram, bound)
    assert got[0] == (0, 1)
    assert {nrm: c for nrm, c in got[1:]} == expected
    assert all(c % 2 == 0 for _, c in got[1:])


def test_theta_invariant_under_unimodular_change():
    hexagonal = [[2, 1], [1, 2]]
    U = [[1, 3], [0, 1]]
    scrambled = mat_mul(transpose(U), mat_mul(hexagonal, U))
    assert theta_prefix(scrambled, 6) == theta_prefix(hexagonal, 6)
    lat, _ = witness_lattice("realcyclo:36", 3)
    gram = [list(r) for r in lat.gram]
    U6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    U6[0][5] = 7
    U6[2][4] = -3
    scrambled6 = mat_mul(transpose(U6), mat_mul(gram, U6))
    assert theta_prefix(scrambled6, 4) == theta_prefix(gram, 4)


def _times(a, b):
    """The product of two q-series, integer lists of one length."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:len(a) - i]):
                out[i + j] += x * y
    return out


def _theta3_and_delta8(terms):
    """theta_3 = sum_k q^(k^2) and Delta_8 = q prod_j (1 - q^(2j-1))^8
    (1 - q^(4j))^8 to q^(terms-1)."""
    theta3 = [0] * terms
    for k in range(-math.isqrt(terms), math.isqrt(terms) + 1):
        if k * k < terms:
            theta3[k * k] += 1
    delta8 = [0, 1] + [0] * (terms - 2)
    for j in range(1, terms):
        for e in (2 * j - 1, 4 * j):
            if e < terms:
                factor = [1] + [0] * (terms - 1)
                factor[e] = -1
                for _ in range(8):
                    delta8 = _times(delta8, factor)
    return theta3, delta8


@pytest.mark.parametrize("spec, trace_type, dim, bound", [
    ("realcyclo:25", False, 10, 8), ("realcyclo:27", True, 9, 8),
    ("realcyclo:49", True, 21, 4)])
def test_unimodular_theta_prefix_is_a_modular_form(spec, trace_type, dim, bound):
    """The theta series of an integral unimodular lattice of dimension n is
    sum_r a_r theta_3^(n-8r) Delta_8^r, 0 <= r <= n/8 (Conway-Sloane,
    SPLAG ch. 7): Delta_8 = q + O(q^2), so the walk's first floor(n/8)+1
    counts fix the a_r, and its later counts must follow."""
    lat, _ = witness_lattice(spec, 1, trace_type)
    assert (lat.dimension, lat.determinant(), lat.is_integral()) == (dim, 1, True)
    walked = [0] * (bound + 1)
    for norm, count in theta_prefix(lat, bound):
        walked[norm] = count
    theta3, delta8 = _theta3_and_delta8(bound + 1)
    forms = []
    for r in range(dim // 8 + 1):
        form = [1] + [0] * bound
        for factor, k in ((theta3, dim - 8 * r), (delta8, r)):
            for _ in range(k):
                form = _times(form, factor)
        forms.append(form)
    series = [0] * (bound + 1)
    for r, form in enumerate(forms):  # form = q^r + O(q^(r+1))
        a = walked[r] - series[r]
        series = [x + a * y for x, y in zip(series, form)]
    assert dim // 8 + 1 < bound + 1 and series == walked


def test_theta_rejects_negative_bound():
    with pytest.raises(SpecError):
        theta_prefix([[1, 0], [0, 1]], -1)


def test_theta_keeps_the_boundary_vector_at_large_entries():
    # e2 lies exactly on the bound; at entries of about 2^52 float partial
    # sums cannot tell it from a vector just outside
    a, b, c = 2354869172509933, 248682255888662, 4546772473154696
    assert theta_prefix([[a, b], [b, c]], c) == [(0, 1), (a, 2), (c, 2)]


@st.composite
def reduced_forms(draw):
    """(G/k, bound): G an LLL-reduced 2-3-dim integer Gram with entries of
    20-60 bits whose diagonal spans at most a factor 2, so the brute-force
    box stays small; in near-boundary forms every off-diagonal entry is
    about half the diagonal and the diagonal entries nearly agree.  The
    bound is the largest diagonal entry of G/k, moved by -1/3, 0 or 1/3."""
    n = draw(st.integers(2, 3))
    bits = draw(st.integers(20, 60))
    a = draw(st.integers(1 << (bits - 1), 1 << bits))
    if draw(st.booleans()):
        diag = [a + draw(st.integers(0, 3)) for _ in range(n)]
        off = [draw(st.sampled_from([-1, 1])) * (a // 2 - draw(st.integers(0, 3)))
               for _ in range(n * (n - 1) // 2)]
    else:
        diag = [draw(st.integers(a, 2 * a)) for _ in range(n)]
        off = [draw(st.integers(-(a // 2), a // 2)) for _ in range(n * (n - 1) // 2)]
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = diag[i]
    for (i, j), g in zip([(1, 0), (2, 0), (2, 1)], off):
        G[i][j] = G[j][i] = g
    try:
        assume(lll_reduce(G)[0] == G)
    except FormError:
        assume(False)
    k = draw(st.integers(1, 6))
    bound = Fraction(max(diag), k) + Fraction(draw(st.integers(-1, 1)), 3)
    return [[Fraction(g, k) for g in row] for row in G], bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reduced_forms())
def test_enumeration_matches_brute_force_at_large_entries(case):
    gram, bound = case
    counts = brute_force_norms(gram, max(bound, max(row[i] for i, row in enumerate(gram))))
    mu = min(counts)
    assert minimum(gram) == (mu, counts[mu])
    assert theta_prefix(gram, bound) == \
        [(0, 1)] + sorted((nrm, c) for nrm, c in counts.items() if nrm <= bound)


# --------------------------------------------------------------------------
# the loop walk against the recursive walk it replaced
# --------------------------------------------------------------------------

def recursive_walk(gram, bound, on_vector, reduced=True, budget=None):
    """The recursive Fincke-Pohst walk on the triangle of _lll, each center
    summed from scratch and every partial norm held over one common scale
    L * D, L = lcm(P_i * P_(i-1)): the reference for the loop walk of
    lattice._enumerate_representatives, which holds per-level norms.
    Returns its node count, the calls at levels >= 0 (the root and every
    accepted coordinate above level 0); past a budget it raises
    EnumerationBudgetExceeded.  With reduced false it walks the triangle
    of ldl_integral(gram), on the basis as given."""
    if reduced:
        scale, _, A = _lll(gram)
    else:
        scale, A = ldl_integral(gram)
    n = len(A)
    prev = [1] + [A[i][i] for i in range(n - 1)]
    unit = math.lcm(*(A[i][i] * prev[i] for i in range(n)))
    c = [unit // (A[i][i] * prev[i]) for i in range(n)]
    unit *= scale
    if bound is None:
        cap = min(sum(c[i] * A[i][k] ** 2 for i in range(k + 1)) for k in range(n))
    else:
        cap = math.floor(Fraction(bound) * unit)
    x = [0] * n
    nodes = 0

    def walk(i, used, nonzero):
        nonlocal cap, nodes
        if i < 0:
            if nonzero:
                new_bound = on_vector(Fraction(used, unit))
                if new_bound is not None:
                    cap = math.floor(new_bound * unit)
            return
        nodes += 1
        if budget is not None and nodes > budget:
            raise EnumerationBudgetExceeded(n, budget)
        row = A[i]
        s = sum(row[j] * x[j] for j in range(i + 1, n) if x[j])
        P = row[i]
        r = math.isqrt((cap - used) // c[i])
        lo = -((r + s) // P)
        if not nonzero:
            lo = max(lo, 0)
        for xi in range(lo, (r - s) // P + 1):
            y = P * xi + s
            step = used + c[i] * y * y
            if step <= cap:
                x[i] = xi
                walk(i - 1, step, nonzero or xi != 0)
        x[i] = 0

    walk(n - 1, 0, False)
    return nodes


def _reports(gram, bound, lower=False, **walk):
    """(norms in the order recursive_walk reports them, as Fractions, and
    its node count); with lower, each shorter norm lowers the bound, as
    minimum once lowered it.  walk passes recursive_walk's keywords."""
    seen = []

    def on_vector(norm):
        lowered = lower and (not seen or norm < min(seen))
        seen.append(norm)
        return norm if lowered else None

    return seen, recursive_walk(gram, bound, on_vector, **walk)


def _reference(gram, bound):
    """(sorted norms, node count) of recursive_walk at the fixed bound."""
    seen, nodes = _reports(gram, bound)
    return sorted(seen), nodes


def _loop(lat_or_gram, bound):
    """(sorted norms, node count) of the loop walk, which counts the
    integers D * |v|^2 and returns (counts, nodes, D)."""
    counts, nodes, scale = lattice._enumerate_representatives(lat_or_gram, bound)
    return sorted(Fraction(norm, scale) for norm, c in counts.items() for _ in range(c)), nodes


@st.composite
def walk_grams(draw):
    """A 2-8-dim positive definite Gram B * B^t: small entries (integer or
    rational, from lll_grams' skewed bases) or 40-53-bit entries from a
    basis of about half that many bits, optionally over a denominator."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        entries = st.sampled_from([st.integers(-9, 9), st.fractions(
            min_value=-9, max_value=9, max_denominator=6)])
        entries = draw(entries)
        den = 1
    else:
        bits = draw(st.integers(20, 26))
        entries = st.integers(-(1 << bits), 1 << bits)
        den = draw(st.integers(1, 6))
    B = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        B[i] = [x + c * y for x, y in zip(B[i], B[j])]
    G = [[Fraction(sum(x * y for x, y in zip(r, s)), den) for s in B] for r in B]
    try:
        mu, _ = minimum(G)
    except FormError:
        assume(False)
    return G, mu * Fraction(draw(st.integers(2, 8)), 4)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(walk_grams())
def test_loop_walk_matches_the_recursive_walk(case):
    gram, theta_bound = case
    for bound in (None, theta_bound):
        want = _reference(gram, bound)
        assert _loop(gram, bound) == want
        assert want[0] or bound is not None


def test_walk_counts_nodes_of_the_catalog_lattice():
    lat, _ = witness_lattice("realcyclo:28", 7)
    for bound in (None, 6):
        assert _loop(lat, bound) == _reference(lat.gram, bound)


@st.composite
def rational_walks(draw):
    """(G, bound): a Gram of walk_grams over a further denominator of 2-6,
    and a bound of 1-3 times its minimum over 2-9 or a projected norm
    |pi_l(b_j)|^2 of the walk's reduced basis, l >= 1, of at most 3 times
    the minimum.  The cap floor(P_(k-1) * D * bound) of a level loses a
    fraction when D * bound is not an integer, and on the path of b_j at
    the bound |pi_l(b_j)|^2 the walk enters level l - 1 with
    P_(l-1) * C_(l-1) - P_(l-2) * N_l negative when
    P_(l-2) * D * |pi_l(b_j)|^2 is not an integer."""
    gram, _ = draw(walk_grams())
    den = draw(st.integers(2, 6))
    gram = [[x / den for x in row] for row in gram]
    mu, _ = minimum(gram)
    D, _, A = _lll(gram)
    projected = [sum(Fraction(A[i][j] ** 2, A[i][i] * A[i - 1][i - 1] * D)
                     for i in range(l, j + 1))
                 for j in range(1, len(A)) for l in range(1, j + 1)]
    projected = [p for p in projected if p <= 3 * mu]
    if projected and draw(st.booleans()):
        return gram, draw(st.sampled_from(projected))
    b = draw(st.integers(2, 9))
    return gram, mu * Fraction(draw(st.integers(b, 3 * b)), b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_walks())
def test_walk_on_rational_grams_and_bounds_matches_the_recursive_walk(case):
    gram, bound = case
    for bound in (None, bound):
        assert _loop(gram, bound) == _reference(gram, bound)


def test_walk_enters_a_level_with_a_negative_remainder(monkeypatch):
    """Hexagonal Gram, bound 3/2: x_1 = 1 has |pi_1(v)|^2 = 3/2 within the
    bound, so level 0 is entered under it with P_0 * C_0 - N_1 =
    2 * 1 - 3 < 0, an empty range; the walk takes no square root there,
    and counts vectors and nodes as the reference does."""
    hexagonal = [[2, 1], [1, 2]]
    roots = []

    def counted(n, isqrt=math.isqrt):
        roots.append(n)
        return isqrt(n)

    monkeypatch.setattr(math, "isqrt", counted)
    got = _loop(hexagonal, Fraction(3, 2))
    monkeypatch.undo()
    assert got == _reference(hexagonal, Fraction(3, 2)) == ([], 3)
    assert len(roots) == 2 and theta_prefix(hexagonal, Fraction(3, 2)) == [(0, 1)]


def test_walk_passes_its_budget_where_the_reference_does(monkeypatch):
    """realcyclo:73 at level 73 (dim 36): with the budget at 20,000 nodes
    the loop walk to the least reduced basis norm (587,122 nodes) and the
    reference both raise, naming dimension 36 and the budget.  Theta to 12
    enters 3,525 nodes in both and finds no vector; at a budget of 3,525
    nodes both end, and at 3,524 both raise."""
    lat, _ = witness_lattice("realcyclo:73", 73, trace_type=False)
    want = _reference(lat.gram, 12)
    assert _loop(lat, 12) == want == ([], 3_525)
    for bound, budget in ((None, 20_000), (12, 3_524), (12, 3_525)):
        monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", budget)
        runs = (lambda: lattice._enumerate_representatives(lat, bound),
                lambda: recursive_walk(lat.gram, bound, lambda norm: None, budget=budget))
        for run in runs:
            if budget == 3_525:
                run()
                continue
            with pytest.raises(EnumerationBudgetExceeded) as info:
                run()
            assert (info.value.dimension, info.value.budget) == (36, budget)


@st.composite
def moved_grams(draw):
    """(G, T*G*T^t, bound): a Gram of test_linalg's lll_grams of dimension
    2 or more and the same form on the basis moved by a drawn unimodular
    T, a product of elementary row operations and a signed permutation;
    the bound lies between the minimum and twice it."""
    G = draw(lll_grams())
    n = len(G)
    assume(n > 1)
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, n))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        T[i] = [x + c * y for x, y in zip(T[i], T[j])]
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    T = [[s * x for x in T[i]] for s, i in zip(signs, draw(st.permutations(range(n))))]
    moved = mat_mul(T, mat_mul([[Fraction(x) for x in row] for row in G], transpose(T)))
    mu, _ = minimum(G)
    return G, moved, mu * Fraction(draw(st.integers(4, 8)), 4)


def _walk_answers(gram, bound, reduced):
    """(minimum, kissing) and theta_prefix(gram, bound) as the recursive
    walk reports them."""
    seen, _ = _reports(gram, None, lower=True, reduced=reduced)
    mu = min(seen)
    theta, _ = _reports(gram, bound, reduced=reduced)
    counts = {}
    for norm in theta:
        counts[norm] = counts.get(norm, 0) + 2
    pairs = [(0, 1)] + sorted(counts.items())
    return (mu, 2 * seen.count(mu)), [(int(x) if x.denominator == 1 else x, c)
                                      for x, c in pairs]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(moved_grams())
def test_moved_gram_keeps_minimum_and_theta(case):
    G, moved, bound = case
    want = minimum(G), theta_prefix(G, bound)
    assert (minimum(moved), theta_prefix(moved, bound)) == want
    assert _walk_answers(moved, bound, reduced=False) == want
    assert _walk_answers(moved, bound, reduced=True) == want


def test_enumeration_budget_raises_a_typed_error(monkeypatch):
    lat, _ = witness_lattice("realcyclo:28", 7)
    for bound, run in ((None, lambda: minimum(lat)), (6, lambda: theta_prefix(lat, 6))):
        monkeypatch.undo()
        nodes = lattice._enumerate_representatives(lat, bound)[1]
        monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", nodes)
        run()
        monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", nodes - 1)
        with pytest.raises(EnumerationBudgetExceeded) as info:
            run()
        assert isinstance(info.value, ValueError)
        assert (info.value.dimension, info.value.budget) == (6, nodes - 1)
        assert "dimension 6" in str(info.value) and str(nodes - 1) in str(info.value)


# --------------------------------------------------------------------------
# theta walks split between two processes
# --------------------------------------------------------------------------

def _one_process(gram, bound):
    """({D * |v|^2: vectors}, nodes, D) of the theta walk in this process."""
    return lattice._enumerate_representatives(gram, bound)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@contextlib.contextmanager
def _split(allowance=0, depth=None, cpus=2, wait=None):
    """The walk's split constants for one block, no allowance by default,
    and a CPU affinity of cpus CPUs, so the split tests fork on a machine
    with one CPU too."""
    saved = (lattice.SPLIT_ALLOWANCE, lattice.SPLIT_DEPTH, lattice.SPLIT_WAIT,
             getattr(os, "sched_getaffinity", None))
    lattice.SPLIT_ALLOWANCE = allowance
    lattice.SPLIT_DEPTH = saved[1] if depth is None else depth
    lattice.SPLIT_WAIT = saved[2] if wait is None else wait
    os.sched_getaffinity = lambda pid: set(range(cpus))
    try:
        yield
    finally:
        lattice.SPLIT_ALLOWANCE, lattice.SPLIT_DEPTH, lattice.SPLIT_WAIT, affinity = saved
        if affinity is None:
            del os.sched_getaffinity
        else:
            os.sched_getaffinity = affinity


def _counting_forks(monkeypatch):
    """Wrap os.fork; the list it returns grows by one per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(walk_grams(), st.integers(1, 9), st.booleans(), st.booleans())
def test_split_walk_matches_the_one_process_walk(case, depth, least, early):
    """With no allowance the walk forks at its first entry into level
    max(n - depth, 0) past the root, or, with no wait either, into a level
    lowered at every node until the fork: the merged counts and node total
    are those of one process and of recursive_walk, the two halves' node
    counts add up to the total, and no child is left.  The bound is the
    theta bound of the case, or minimum's least reduced basis norm."""
    gram, bound = case
    bound = None if least else bound
    want = _one_process(gram, bound)
    assert want[1] == recursive_walk(gram, bound, lambda norm: None)
    forked = []

    def half(owner):
        def fork():
            forked.append(owner)
            return owner
        return lattice._enumerate_representatives(gram, bound, fork)

    with _split(0, depth, wait=0 if early else None):
        assert lattice._theta_walk(gram, bound) == want
        halves = [half(0), half(1)]
    assert _no_child_left()
    if not forked:  # no entry into the split level past the root
        assert halves == [want, want]
        return
    assert halves[0][1] + halves[1][1] == want[1]
    merged = dict(halves[0][0])
    for norm, count in halves[1][0].items():
        merged[norm] = merged.get(norm, 0) + count
    assert merged == want[0]


def test_split_walk_forks_once_past_its_allowance(monkeypatch):
    """realcyclo:44 at level 11 (dim 10), theta to 12: 2,299 nodes.  With
    the allowance at 1,000 nodes the walk forks once and gives the
    one-process prefix; at the default allowance it does not fork, nor
    does the 237-node minimum walk.  The minimum walk of realcyclo:92 at
    level 23 (dim 22, 16,896 nodes) forks once at the default allowance
    and gives the (12, 506) of one process."""
    lat, _ = witness_lattice("realcyclo:44", 11)
    want = theta_prefix(lat, 12)
    forks = _counting_forks(monkeypatch)
    assert theta_prefix(lat, 12) == want and minimum(lat) == (6, 110) and not forks
    with _split(1_000):
        assert theta_prefix(lat, 12) == want and forks == [1]
        assert minimum(lat) == (6, 110) and forks == [1]
    lat, _ = witness_lattice("realcyclo:92", 23)
    counts, nodes, D = _one_process(lat, None)
    mu = min(counts)
    assert nodes == 16_896 and (Fraction(mu, D), 2 * counts[mu]) == (12, 506)
    with _split(lattice.SPLIT_ALLOWANCE):  # two CPUs on any machine
        assert minimum(lat) == (12, 506) and forks == [1, 1]
    assert _no_child_left()


def test_split_walk_lowers_its_split_level_past_the_wait(monkeypatch):
    """realcyclo:44 at level 11, theta to 12 (2,299 nodes), at depth 1: the
    split level is the root's, which no walk enters twice, so the walk
    stays in one process; with the wait at 500 nodes it lowers its split
    level, forks once and gives the one-process prefix and node count."""
    lat, _ = witness_lattice("realcyclo:44", 11)
    want = _one_process(lat, 12)
    forks = _counting_forks(monkeypatch)
    with _split(100, depth=1):
        assert lattice._theta_walk(lat, 12) == want and not forks
    with _split(100, depth=1, wait=500):
        assert lattice._theta_walk(lat, 12) == want and forks == [1]
    assert _no_child_left()


def test_the_cli_theta_walk_forks_once(monkeypatch):
    """The theta walk of `verify --min --theta 14` on the dim-22
    realcyclo:92 record enters 46,540 nodes, past SPLIT_ALLOWANCE: it
    forks once, gives the one-process prefix and node count, and leaves
    no child."""
    lat, _ = witness_lattice("realcyclo:92", 23)
    want = _one_process(lat, 14)
    assert want[1] == 46_540
    forks = _counting_forks(monkeypatch)
    with _split(lattice.SPLIT_ALLOWANCE):
        assert lattice._theta_walk(lat, 14) == want
    assert forks == [1] and _no_child_left()


def test_split_walk_keeps_the_budget_verdict(monkeypatch):
    """realcyclo:28 at level 7, theta to 6 split at level 3 (65 nodes),
    to 8 split at level 4 (115 nodes), and its minimum split at level 3
    (44 nodes): for every budget the split walk, and minimum, raise
    exactly when the one-process walk does, naming dimension 6 and the
    budget, and leave no child.  The budgets cover each half passing the
    budget alone, and halves that each stay within it while their sum
    passes it."""
    lat, _ = witness_lattice("realcyclo:28", 7)
    cases, wants = set(), {bound: _one_process(lat, bound) for bound in (6, 8, None)}
    for bound, depth in ((6, 3), (8, 2), (None, 3)):
        want = wants[bound]
        total = want[1]
        with _split(0, depth):
            for budget in range(1, total + 2):
                monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", budget)
                passed = []
                for owner in (0, 1):
                    try:
                        lattice._enumerate_representatives(lat, bound, lambda: owner)
                    except EnumerationBudgetExceeded:
                        passed.append(owner)
                cases.add(tuple(passed))
                if budget < total:
                    with pytest.raises(EnumerationBudgetExceeded) as info:
                        lattice._theta_walk(lat, bound)
                    assert (info.value.dimension, info.value.budget) == (6, budget)
                    if bound is None:
                        with pytest.raises(EnumerationBudgetExceeded):
                            minimum(lat)
                else:
                    assert lattice._theta_walk(lat, bound) == want
                    if bound is None:
                        assert minimum(lat) == (4, 42)
                assert _no_child_left()
    assert {(0,), (1,), ()} <= cases


def test_budget_bounds_the_vectors_counted(monkeypatch):
    """The A2 Gram to norm 200 counts far more vectors than it enters
    nodes: a budget below its vectors raises in one process, with no
    allowance split between two processes that each count their own
    vectors (owner 1 from the fork) and, split, still raises though
    neither half passes it alone; at the vector count both give the
    one-process walk, and no child is left."""
    G = [[2, 1], [1, 2]]
    want = _one_process(G, 200)
    vectors = sum(want[0].values())
    assert want[1] < vectors // 10
    with _split(0):
        halves = [sum(lattice._enumerate_representatives(G, 200, lambda: owner)[0].values())
                  for owner in (0, 1)]
    assert sum(halves) == vectors and max(halves) < vectors - 1
    monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", vectors - 1)
    with pytest.raises(EnumerationBudgetExceeded, match="dimension 2 passed"):
        _one_process(G, 200)
    with _split(0), pytest.raises(EnumerationBudgetExceeded) as info:
        lattice._theta_walk(G, 200)
    assert (info.value.dimension, info.value.budget) == (2, vectors - 1)
    monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", vectors)
    assert _one_process(G, 200) == want
    with _split(0):
        assert lattice._theta_walk(G, 200) == want
    assert _no_child_left()


def test_split_walk_halves_share_one_budget(monkeypatch):
    """realcyclo:92 at level 23, theta to 14 (46,540 nodes), with the
    budget at 20,000 nodes and the allowance at 1,000: each half alone
    would walk to the budget, but the counts the two publish add up past
    the budget by at most two allowances when both have stopped, the
    verdict is the one-process one, and no child is left."""
    lat, _ = witness_lattice("realcyclo:92", 23)
    budget, allowance = 20_000, 1_000
    monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", budget)
    published = []

    class Halves(lattice._Halves):
        def close(self):
            if self.pid:  # the child stops at its own next check
                while os.read(self.fd, 1 << 16):
                    pass
            if self.counts is not None:
                published.append(self.counts.tolist())
            super().close()

    monkeypatch.setattr(lattice, "_Halves", Halves)
    with _split(allowance), pytest.raises(EnumerationBudgetExceeded) as info:
        lattice._theta_walk(lat, 14)
    assert (info.value.dimension, info.value.budget) == (22, budget)
    assert _no_child_left()
    [(parent, child)] = published
    assert budget < parent + child <= budget + 2 * allowance


def test_minimum_where_no_reduced_basis_vector_is_minimal(monkeypatch):
    """A dim-7 Gram B * B^t of walk_grams' kind (B's entries in [-9, 9])
    whose least reduced basis norm, 103, is not its minimum, 98: minimum,
    split with no allowance and in one process, gives the (98, 2) of
    recursive_walk lowering its bound, and its walk enters the 15 nodes of
    the walk fixed at the least norm, where the lowering walk enters 13."""
    G = [[152, -112, 33, -55, -15, 31, 111], [-112, 327, -12, -19, 5, -144, 8],
         [33, -12, 340, 50, -18, 31, -49], [-55, -19, 50, 227, -109, 71, -44],
         [-15, 5, -18, -109, 103, 17, -2], [31, -144, 31, 71, 17, 230, 96],
         [111, 8, -49, -44, -2, 96, 269]]
    seen, lowered = _reports(G, None, lower=True)
    want = min(seen), 2 * seen.count(min(seen))
    fixed = recursive_walk(G, None, lambda norm: None)
    assert (want, lowered, fixed) == ((98, 2), 13, 15)
    assert _one_process(G, None) == ({98: 1, 103: 1}, fixed, 1)
    forks = _counting_forks(monkeypatch)
    assert minimum(G) == want and not forks
    with _split(0):
        assert minimum(G) == want and forks == [1]
        assert lattice._theta_walk(G, None)[1] == fixed
    assert _no_child_left()


@pytest.mark.parametrize("send", ["exit", "kill", "nothing", "truncated"])
def test_split_walk_survives_a_child_without_a_result(monkeypatch, send):
    """A child that dies, or exits without a whole message, yields no
    prefix: the parent walks that half itself, and the prefix and node
    total are the one-process ones."""
    import signal
    lat, _ = witness_lattice("realcyclo:44", 11)
    want = _one_process(lat, 10)

    def broken(fd, message):
        if send == "exit":
            os._exit(1)
        if send == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if send == "truncated":
            os.write(fd, marshal.dumps(message)[:-1])

    monkeypatch.setattr(lattice, "_send", broken)
    forks = _counting_forks(monkeypatch)
    with _split(0):
        assert lattice._theta_walk(lat, 10) == want
    assert forks == [1] and _no_child_left()


@pytest.mark.parametrize("why", ["thread", "no fork", "one cpu", "fork fails"])
def test_split_walk_stays_in_one_process(monkeypatch, why):
    """With a second thread alive, without os.fork, with one CPU allowed,
    or when os.fork fails, the walk runs in one process with the same
    result."""
    import threading
    lat, _ = witness_lattice("realcyclo:44", 11)
    want = _one_process(lat, 10)
    forks = _counting_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "thread":
        thread.start()
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    elif why != "one cpu":
        def failing():
            forks.append(1)
            raise OSError("no process")
        monkeypatch.setattr(os, "fork", failing)
    try:
        with _split(0, cpus=1 if why == "one cpu" else 2):
            assert lattice._theta_walk(lat, 10) == want
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == ([1] if why == "fork fails" else [])
    assert _no_child_left()


@pytest.mark.parametrize("spec, level, trace_type, dim", [
    ("realcyclo:73", 73, False, 36), ("realcyclo:308", 77, True, 60)])
def test_walk_reduction_matches_the_reference_loop(spec, level, trace_type, dim):
    """The walk's reduction of two admitted lattices past the catalog's
    dimensions, whose deep pass makes thousands of swaps, is the (D, A) of
    the loop it replaced, test_linalg.reference_lll."""
    lat, _ = witness_lattice(spec, level, trace_type)
    rows = lat._rows
    g = math.gcd(lat._scale, *(e for i, row in enumerate(rows) for e in row[i:]))
    G, scale = [[e // g for e in row] for row in rows], lat._scale // g
    D, _, _, A = reference_lll(G, scale=scale)
    assert len(A) == dim and lat._reduced() == (D, A)
