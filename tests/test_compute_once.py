"""Values computed once and kept on immutable objects.

Six results are kept where they are first computed: the trace-form
verdict (0, or the determinant that certifies total positivity) and the
inverse on the FieldElement, the powers of theta and power sums on the
field, the factored form (G, S) on the IdealRecipe, the Gram determinant
on the IdealLattice, and the HNF rows of a principal ideal, built on
first read (its den is the generator's and needs no rows).  Oracles: a
fresh copy of the
same value, decided or solved from scratch; an equal recipe parsed
again; the Bareiss determinant of the Gram; the module route of the
trace dual; the rows of the generator's shift module and containment in
powers of the radical.  The kept values never take part in equality or
hashing.  On a totally real field the trace form is decided by one
sub-resultant PRS and never eliminated; on a CM field by one Bareiss
elimination.

An enumeration computes its reduction once: minimum and theta_prefix of
a Gram run one Bareiss elimination, an IdealLattice keeps its reduction
for every later walk, and the walk reads the triangle that integral LLL
ends with, which equals a fresh ldl_integral of the reduced Gram; that
Gram is size-reduced, Lovasz-reduced at 0.99 and deep-insertion reduced
to depth 5, checked on Fractions.

Principal rows are reduced modulo the least integer of the ideal, the
denominator of the generator's inverse, and that inverse comes from data
already at hand: the radical generator's own norm pass, the trace dual's
generator alpha * conj(g) * f'(theta) and the witness's conj(beta) /
level.  So the pipeline runs no more sub-resultant passes than it did
when the rows were reduced modulo the determinant.  |N(beta)| is read off
the level once beta * conj(beta) = level is checked, and a principal
ideal keeps a generator of its inverse ideal, pending on its operands'
for a product, power, conjugate or trace dual, so a witness pays no pass
for beta.  The inverse of an element power and the inverse generators of
ideal products and trace duals are formed on first read with no solve,
a radical power p^a * (g^b) never forms a power of 1/g, build -> verify
forms the Gram once, and a witness is built and checked once per (field,
level, alpha power).

The generator g of the least principal radical power J_p^s (s <= 2) is
proved by its norm and by g^(e_p/s)/p being integral, with no HNF and no
module product for any s, and the pipelines form every radical power
from it: classify, realize, build and verify never call different() or
invert an ideal held as rows only.  classify checks every witness on
generators, as I * conj(I) = G * conj(G) * prod_S J_p^2 is principal: it
forms no principal-times-module product, no product or conjugate of
ideals held as rows only, and no HNF outside radical_above.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import gcd, lcm

from arakelov.fields import (
    CyclotomicField,
    RealCyclotomicField,
    factorize,
    is_totally_positive,
    make_field,
)
from arakelov.ideals import (
    FractionalIdeal,
    IdealRecipe,
    Unsupported,
    codifferent,
    gamma_element,
    ideal_mul,
    ideal_pow,
    principal,
    radical_above,
    realize,
    trace_dual,
    trace_dual_via_inverse,
    valuation,
)
from arakelov import cli, existence, fields, ideals, lattice, linalg
from arakelov.lattice import build, minimum, theta_prefix
from arakelov.linalg import cholesky, det, ldl_integral, mat_mul, transpose
from test_linalg import lll_grams

REAL_SPECS = ["quad:+5", "quad:+6", "realcyclo:13", "realcyclo:28", "realcyclo:36"]
CM_SPECS = ["quad:-7", "cyclo:12", "cyclo:7"]

_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def elements(draw):
    """(element, expected verdict or None): squares x*conj(x) are totally
    positive, any other element may have mixed signs, and a CM element
    not fixed by conjugation is never totally positive."""
    spec = draw(st.sampled_from(REAL_SPECS + CM_SPECS))
    field = make_field(spec)
    x = field.element(draw(st.lists(_COEFF, min_size=field.degree, max_size=field.degree)))
    shape = draw(st.sampled_from(["square", "any"]))
    if shape == "square" and not x.is_zero:
        return x * x.conj(), True
    if field.is_cm and x.conj() != x:
        return x, False
    return x, None


@settings(max_examples=60, deadline=None)
@given(elements())
def test_total_positivity_is_decided_once(case):
    x, expected = case
    verdict = is_totally_positive(x)
    # a rational is read off its sign; any other verdict is kept as the
    # trace-form determinant, 0 when the form is not positive definite
    if x.is_rational:
        assert x._trace_det is None
    else:
        assert x._trace_det is not None and (x._trace_det > 0) is verdict
    assert is_totally_positive(x) is verdict
    fresh = x.field.element(x.coeffs)
    assert fresh._trace_det is None
    assert is_totally_positive(fresh) == verdict
    if expected is not None:
        assert verdict == expected
    assert x == fresh and hash(x) == hash(fresh)


RECIPE_FIELDS = {"realcyclo:28": [2, 7], "realcyclo:13": [13], "quad:+5": [5],
                 "cyclo:12": [2, 3], "realcyclo:44": [2, 11]}


@st.composite
def recipe_texts(draw):
    spec = draw(st.sampled_from(sorted(RECIPE_FIELDS)))
    parts = []
    for p in RECIPE_FIELDS[spec]:
        k = draw(st.integers(-3, 3))
        if k:
            parts.append(f"P{p}^{k}")
    q = draw(st.sampled_from([None, Fraction(3), Fraction(1, 2), Fraction(-5, 3)]))
    if q is not None:
        parts.append(f"({q})^{draw(st.sampled_from([1, -1, 2]))}")
    return spec, "*".join(parts)


@settings(max_examples=40, deadline=None)
@given(recipe_texts())
def test_factored_form_is_computed_once_per_recipe(case):
    spec, text = case
    field = make_field(spec)
    recipe = IdealRecipe.parse(field, text)
    again = IdealRecipe.parse(field, text)
    assert recipe == again and hash(recipe) == hash(again)
    ideal = realize(recipe)
    form = recipe._form
    G, S = form
    assert G._gen is not None and list(S) == sorted(S)
    assert ideals._factored(recipe) is form
    assert realize(recipe) == ideal and recipe._form is form
    assert again._form is None
    assert realize(again) == ideal
    assert again._form == form and again._form is not form
    assert recipe == again and hash(recipe) == hash(again)


@settings(max_examples=30, deadline=None)
@given(recipe_texts(), st.lists(_COEFF, min_size=12, max_size=12))
def test_lattice_determinant_is_the_pivot_product(case, coeffs):
    spec, text = case
    field = make_field(spec)
    x = field.element(coeffs[:field.degree])
    alpha = field.one() + x * x.conj()       # totally positive
    lat = build(field, realize(IdealRecipe.parse(field, text)), alpha)
    d = det(lat.gram)
    assert lat.determinant() == d
    assert type(lat.determinant()) is type(d)


def _count_decisions(monkeypatch):
    """The dimensions of the Bareiss eliminations and the lengths of the
    PRS runs from here on."""
    bareiss, prs = linalg._bareiss, fields._prs
    calls, runs = [], []

    def counted(A, B):
        calls.append(len(A))
        return bareiss(A, B)

    def counted_prs(f, B, VB=None):
        runs.append(len(B))
        return prs(f, B, VB)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    monkeypatch.setattr(fields, "_prs", counted_prs)
    return calls, runs


@pytest.mark.parametrize("spec, level, bareiss_dims, prs_runs", [
    ("realcyclo:13", 1, [], 1),
    ("realcyclo:25", 1, [], 1),
    ("quad:-7", 7, [], 0),
], ids=["realcyclo:13", "realcyclo:25", "quad:-7"])
def test_positivity_and_build_decide_the_trace_form_once(
        monkeypatch, spec, level, bareiss_dims, prs_runs):
    """A witness alpha keeps the determinant of its trace form H_alpha from
    the positivity decision, so building its lattice, even twice, decides
    H_alpha no second time.  On a totally real field that is one
    sub-resultant PRS of the Hankel form and no Bareiss elimination; a
    rational alpha (alpha = 1 of quad:-7) is read off its sign, with
    det(H_alpha) = |disc K|, and needs neither.  The determinant is still
    the Bareiss determinant of the Gram."""
    field = make_field(spec)
    witness = existence.classify(field, trace_type=False).witnesses[level]
    ideal = realize(witness.ideal)
    assert ideal.num  # the HNF rows are built before counting
    alpha = field.element(witness.alpha.coeffs)  # nothing decided yet
    assert alpha.is_rational == field.is_cm and alpha._trace_det is None
    calls, runs = _count_decisions(monkeypatch)
    assert is_totally_positive(alpha)
    lat = build(field, ideal, alpha)
    assert build(field, ideal, alpha).determinant() == lat.determinant()
    assert calls == bareiss_dims and len(runs) == prs_runs
    monkeypatch.undo()
    assert lat.determinant() == det(lat.gram)
    assert alpha == witness.alpha and hash(alpha) == hash(witness.alpha)


@pytest.mark.parametrize("spec", ["realcyclo:13", "realcyclo:28", "quad:+5", "quad:-7"])
def test_field_tables_are_built_once(monkeypatch, spec):
    """A field builds its powers of theta, power sums and conjugation rows
    on first use and keeps them: the first build on a fresh field object
    runs reduced shifts, a second build with a fresh alpha runs none and
    reads the same table objects."""
    level, witness = min(existence.classify(make_field(spec)).witnesses.items())
    ideal = realize(witness.ideal)
    assert ideal.num  # the HNF rows are built before counting
    shifts, shift = [], fields.NumberField._shift_reduce

    def counted(self, vec):
        shifts.append(len(vec))
        return shift(self, vec)

    monkeypatch.setattr(fields.NumberField, "_shift_reduce", counted)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    field = make_field(spec)  # a fresh field object, no table built yet
    lat = build(field, ideal, field.element(witness.alpha.coeffs))
    first = len(shifts)
    names = ["_theta_pows", "_power_table", "_power_sums"] + ["_conj_rows"] * field.is_cm
    tables = {name: vars(field)[name] for name in names}
    again = build(field, ideal, field.element(witness.alpha.coeffs))
    assert first > 0 and len(shifts) == first
    assert all(vars(field)[name] is table for name, table in tables.items())
    assert again.gram == lat.gram and again.determinant() == lat.determinant()


def test_dense_positivity_runs_no_elimination(monkeypatch):
    """1 + x^2 for a dense x at the CLI degree cap (realcyclo:127, degree
    63) is decided by one PRS of the Hankel form, with no Bareiss
    elimination of its 63 x 63 trace form: the totally real route never
    forms that matrix."""
    field = make_field("realcyclo:127")
    x = field.element([(3 * k * k + k) % 7 - 3 for k in range(field.degree)])
    alpha = field.one() + x * x
    calls, runs = _count_decisions(monkeypatch)
    monkeypatch.delattr(fields, "trace_form")
    monkeypatch.delattr(fields, "_ldl_integral")
    assert is_totally_positive(alpha)
    assert calls == [] and runs == [field.degree]
    assert not is_totally_positive(-alpha)


@st.composite
def nonzero_elements(draw):
    spec = draw(st.sampled_from(REAL_SPECS + CM_SPECS))
    field = make_field(spec)
    coeffs = draw(st.lists(_COEFF, min_size=field.degree, max_size=field.degree)
                  .filter(any))
    return field.element(coeffs)


@settings(max_examples=50, deadline=None)
@given(nonzero_elements(), st.integers(1, 6))
def test_inverse_is_solved_once_and_linked_both_ways(x, k):
    """Inverses are read through inverse() and counted as calls of
    NumberField._inverse: x takes one, and a power x^k one, as x^1 is x
    itself and a power x^k, k >= 2, is a new element that forms its own
    inverse.  A product of principal ideals and a principal trace dual
    keep a generator of their inverse ideal pending, read through
    _inverse_generator with no solve."""
    field = x.field

    def solved(y):
        """1/y from a fresh solve, on a copy that knows no inverse."""
        return field._inverse(field.element(y.coeffs))

    plain = field.element(x.coeffs)
    alpha = field.one()
    alpha.inverse()
    codifferent(field)  # its f'(theta)^-1 is solved once per field
    want = {"x": solved(x), "x^k": solved(plain ** k), "c": solved(x.conj())}

    solves = []
    inverse = fields.NumberField._inverse

    def counted(self, y):
        solves.append(y)
        return inverse(self, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields.NumberField, "_inverse", counted)

        # a power of an element with no known inverse pays one solve
        plain_power = plain ** k
        assert plain_power.inverse() == want["x^k"] and len(solves) == 1

        inv = x.inverse()
        assert inv == want["x"] and len(solves) == 2
        assert x.inverse() is inv and inv.inverse() is x

        # x^-k inverts the base; x^1 is x, and past it each of x^k and
        # x^-k forms its inverse by one solve
        neg = x ** -k
        pos = x ** k
        assert (pos is x and neg is inv) == (k == 1)
        assert pos == plain_power
        assert pos.inverse() == neg == plain_power.inverse()
        assert neg.inverse() == pos
        assert pos.inverse().inverse() is pos and neg.inverse().inverse() is neg
        powers = 2 if k == 1 else 4
        assert len(solves) == powers

        # a product of generators and a trace dual form the generators of
        # their inverse ideals unsolved: here the exact inverses
        product = ideal_mul(principal(x), principal(pos))
        dual = trace_dual(principal(x), alpha)
        for ideal in (product, dual):
            assert ideal._gen * ideals._inverse_generator(ideal) == field.one()
        assert len(solves) == powers

        # conj(x)^-1 = conj(x^-1)
        c = x.conj()
        assert c.inverse() == want["c"] == inv.conj()
        assert c.inverse().inverse() is c

    # the memo takes no part in equality or hashing
    assert x == plain and hash(x) == hash(plain)
    assert inv == field.element(inv.coeffs)
    assert hash(inv) == hash(field.element(inv.coeffs))


def test_a_first_power_is_its_base(monkeypatch):
    """x ** 1 is x, so gamma ** -1, which is gamma.inverse() ** 1, is the
    inverse linked to gamma: the trace dual of P13^3 over realcyclo:13
    with alpha = gamma^-1, the unrestricted witness form, reads
    alpha^-1 = gamma and the inverse generator of P13^3 with no solve."""
    _fresh_caches(monkeypatch)
    field = make_field("realcyclo:13")
    x = field.element([3, 1, 0, 0, 0, 0])
    assert x ** 1 is x
    gamma = gamma_element(field, 13)
    alpha = gamma ** -1
    assert alpha is gamma.inverse() and alpha.inverse() is gamma
    a = ideal_pow(radical_above(field, 13), 3)
    codifferent(field)  # its f'(theta)^-1 is solved once per field
    solves = []
    inverse = fields.NumberField._inverse

    def counted(self, y):
        solves.append(y)
        return inverse(self, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields.NumberField, "_inverse", counted)
        dual = trace_dual(a, alpha)
    assert solves == []
    assert dual == trace_dual_via_inverse(a, alpha)


def test_a_long_chain_of_pending_inverses_forms_in_a_loop():
    """Each principal factor of a recipe keeps the generator of the
    product's inverse ideal pending on the one before, so 1,000 factors
    make a chain of 1,000 pending products: it is formed deepest first in
    a loop, within the interpreter's recursion limit, with no solve past
    the one per factor that realize pays for its inverse."""
    field = make_field("realcyclo:13")
    recipe = IdealRecipe.parse(field, "*".join(["([3,1,0,0,0,0])^-1"] * 1000))
    ideal = realize(recipe)
    assert isinstance(ideal._igen, tuple)
    solves = []
    inverse = fields.NumberField._inverse

    def counted(self, y):
        solves.append(y)
        return inverse(self, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields.NumberField, "_inverse", counted)
        h = ideals._inverse_generator(ideal)
    assert solves == []
    assert h == field.element([3, 1, 0, 0, 0, 0]) ** 1000


# fields whose radical above p has a known generator, so P^k is principal
PRINCIPAL_RADICALS = [("realcyclo:13", 13), ("realcyclo:9", 3),
                      ("realcyclo:25", 5), ("cyclo:7", 7), ("cyclo:9", 3),
                      ("cyclo:5", 5)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRINCIPAL_RADICALS), st.integers(-4, 4),
       st.sampled_from(["one", "gamma_inv"]))
def test_principal_trace_dual_matches_the_module_route(case, k, alpha_kind):
    spec, p = case
    field = make_field(spec)
    a = ideal_pow(radical_above(field, p), k)
    assert a._gen is not None
    alpha = field.one() if alpha_kind == "one" else gamma_element(field, p) ** -1
    assert trace_dual(a, alpha) == trace_dual_via_inverse(a, alpha)


LAZY_SPECS = ["quad:+5", "quad:-7", "quad:+6", "quad:-3",
              "realcyclo:13", "realcyclo:9", "realcyclo:25", "realcyclo:28",
              "realcyclo:36", "cyclo:5", "cyclo:7", "cyclo:9", "cyclo:12"]


def _galois(x, a):
    """The automorphism zeta -> zeta^a; on a quadratic field, the
    nontrivial one, x -> Tr(x) - x."""
    field = x.field
    if isinstance(field, RealCyclotomicField):
        image, out = field._zeta_sum({a: 1, field.n - a: 1}), field.zero()
        for c in reversed(x.coeffs):
            out = out * image + c
        return out
    if isinstance(field, CyclotomicField):
        out = field.zero()
        for k, c in enumerate(x.coeffs):
            if c:
                out = out + field.theta_power(a * k) * c
        return out
    return x.trace() - x


def _p_exponent(q, p):
    """v_p of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _rows_route(x):
    """(x) from the m shift rows of x, with no generator attached."""
    field = x.field
    return FractionalIdeal.from_rows(field, [(x * w).coeffs for w in field.power_basis()])


@st.composite
def principal_pairs(draw):
    """(x, y) with y = x times a unit, x*gamma, x/2, or x/sigma(x), which
    has norm +-1 and is rarely integral."""
    field = make_field(draw(st.sampled_from(LAZY_SPECS)))
    x = field.element(draw(st.lists(_COEFF, min_size=field.degree,
                                    max_size=field.degree).filter(any)))
    kind = draw(st.sampled_from(["unit", "gamma", "half", "galois"]))
    n = getattr(field, "n", None)
    a = None if n is None else \
        draw(st.sampled_from([a for a in range(2, n) if gcd(a, n) == 1]))
    if kind == "unit":
        if n is None or len(factorize(n)) > 1:
            return x, -x
        # the cyclotomic unit (1 - zeta^a)/(1 - zeta), times its complex
        # conjugate on the real subfield
        base = field.one() - field.gen() if isinstance(field, CyclotomicField) \
            else gamma_element(field, field.omega()[0])
        return x, x * _galois(base, a) / base
    if kind == "gamma":
        gamma = field.sqrt_disc_element() if n is None \
            else gamma_element(field, field.omega()[0])
        return x, x * gamma
    if kind == "half":
        return x, x / 2
    return x, x / _galois(x, a)


@settings(max_examples=80, deadline=None)
@given(principal_pairs())
def test_lazy_principal_ideal_agrees_with_its_rows(case):
    x, y = case
    field = x.field
    a, b = principal(x), principal(y)
    rows_a, rows_b = _rows_route(x), _rows_route(y)
    # equality and is_ring are answered from the generators, building no rows
    assert (a == b) == (b == a) == (rows_a == rows_b)
    assert a.is_ring() == rows_a.is_ring() and b.is_ring() == rows_b.is_ring()
    assert a._num is None and b._num is None
    for ideal, gen in ((a, x), (b, y)):
        assert ideal.norm() == abs(gen.norm())
        # the valuation k: all f*g primes above p carry it in the norm, and
        # the integral d*gen lies in J_p^(k + e*v_p(d)) but not in the next
        # power
        d = lcm(*(c.denominator for c in gen.coeffs))
        for p in field.omega():
            try:
                k = valuation(ideal, p)
            except Unsupported:
                continue
            assert _p_exponent(abs(gen.norm()), p) == k * field.residue_product(p)
            k += field.ramification_index(p) * _p_exponent(Fraction(d), p)
            radical = radical_above(field, p)
            assert ideal_pow(radical, k).contains(gen * d)
            assert not ideal_pow(radical, k + 1).contains(gen * d)
    # den is the generator's denominator, read without building rows, and
    # stays so once the rows are built
    dens = (a.den, b.den)
    assert dens == (x.den, y.den) and a._num is None and b._num is None
    # rows built on first read are the shift-row module's rows
    assert hash(a) == hash(rows_a) and hash(b) == hash(rows_b)
    assert (a.den, b.den) == dens
    assert (a.num, a.den) == (rows_a.num, rows_a.den)
    assert (b.num, b.den) == (rows_b.num, rows_b.den)
    assert (a == b) == (rows_a == rows_b)


def _catalog_lattice():
    """The level-7 catalog row A6^(2) over realcyclo:28."""
    field = make_field("realcyclo:28")
    witness = existence.classify(field, trace_type=True).witnesses[7]
    return build(field, realize(witness.ideal), witness.alpha)


def test_enumeration_runs_one_elimination(monkeypatch):
    lat = _catalog_lattice()
    gram = [[Fraction(5, 2), Fraction(1, 3), 1],
            [Fraction(1, 3), Fraction(7, 4), Fraction(-1, 2)],
            [1, Fraction(-1, 2), 3]]
    calls = []
    bareiss = linalg._bareiss

    def counted(A, B):
        calls.append(len(A))
        return bareiss(A, B)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    for run in (lambda: minimum(gram), lambda: theta_prefix(gram, 4)):
        calls.clear()
        run()
        assert calls == [3]
    # the lattice keeps its reduction: one elimination for all its walks
    calls.clear()
    minimum(lat)
    theta_prefix(lat, 4)
    theta_prefix(lat, 6)
    assert calls == [6]
    monkeypatch.undo()
    assert minimum(lat) == (4, 42)


def _deep_reduced(G, delta, depth):
    """Whether the Gram G is size-reduced and, for every k and every
    i >= k - depth, |pi_i(b_k)|^2 >= delta * B_i (at i = k - 1 the Lovasz
    condition), on the rational Gram-Schmidt data of cholesky."""
    R = cholesky(G)
    n = len(R)
    for k in range(n):
        if any(2 * abs(R[j][k]) > 1 for j in range(k)):
            return False
        proj = R[k][k]
        for i in range(k - 1, max(k - depth, 0) - 1, -1):
            proj += R[i][k] ** 2 * R[i][i]
            if proj < delta * R[i][i]:
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(lll_grams())
def test_walk_reads_the_triangle_of_the_reduced_gram(G):
    """The (D, A) the walk receives is ldl_integral of U*G*U^t, with U the
    unimodular transform of the walk's own reduction (formed here by a
    second run, never by the walk), and U*G*U^t is size-reduced and
    reduced with deep insertions of depth 5 at delta = 0.99."""
    handed = []
    lll = lattice._lll

    def kept(gram):
        out = lll(gram)
        handed.append(out)
        return out

    lattice._lll = kept
    try:
        theta_prefix(G, 0)
    finally:
        lattice._lll = lll
    (D, _, U, A), = handed
    assert U is None
    _, _, U, again = lll(G, transform=True)
    assert again == A and abs(det(U)) == 1
    G2 = mat_mul(U, mat_mul([[Fraction(x) for x in row] for row in G], transpose(U)))
    assert ldl_integral(G2) == (D, A)
    assert ldl_integral([[x * D for x in row] for row in G2]) == (1, A)
    assert _deep_reduced(G2, Fraction(99, 100), 5)


def _fresh_caches(monkeypatch):
    for name in ("_RADICAL_CACHE", "_CODIFF_CACHE", "_DIFF_CACHE"):
        monkeypatch.setattr(ideals, name, {})
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    monkeypatch.setattr(existence, "_WITNESS_CACHE", {})


@pytest.mark.parametrize("p", [79, 83])
def test_both_trace_types_share_one_checked_witness(monkeypatch, p):
    """p = 3 mod 4 admits level 1 with alpha = 1 for both trace types: the
    second query returns the witness the first built and checked."""
    _fresh_caches(monkeypatch)
    built = []
    witness = existence.ConstructionWitness

    def counted(*args):
        built.append(args[0])
        return witness(*args)

    monkeypatch.setattr(existence, "ConstructionWitness", counted)
    trace = existence.mod_prime_power(p, 1, True)
    unrestricted = existence.mod_prime_power(p, 1, False)
    assert trace.levels == unrestricted.levels == (1,)
    assert unrestricted.witnesses[1] is trace.witnesses[1]
    assert built == [1]
    w = trace.witnesses[1]
    lat = build(w.field, realize(w.ideal), w.alpha)
    assert lattice.verify_modularity(lat, w).modular_level == 1


def _count_passes(monkeypatch):
    """The lengths of the sub-resultant passes run from here on."""
    passes = []
    subresultant = fields._subresultant

    def counted(f, a):
        passes.append(len(a))
        return subresultant(f, a)

    monkeypatch.setattr(fields, "_subresultant", counted)
    return passes


# sub-resultant passes of realize -> build -> verify_modularity over the
# witnesses of realcyclo:29, from fresh caches, when principal rows were
# reduced modulo the determinant |N(den*gen)|
SUBRESULTANT_PASSES_WITH_DETERMINANT_MODULI = {False: 8, True: 5}


@pytest.mark.parametrize("trace_type", [False, True])
def test_least_integer_moduli_run_no_extra_subresultant_pass(monkeypatch, trace_type):
    _fresh_caches(monkeypatch)
    passes = _count_passes(monkeypatch)
    verdict = existence.mod_prime_power(29, 1, trace_type)
    assert verdict.witnesses
    for level, w in sorted(verdict.witnesses.items()):
        lat = build(w.field, realize(w.ideal), w.alpha)
        assert lattice.verify_modularity(lat, w).modular_level == level
    assert len(passes) <= SUBRESULTANT_PASSES_WITH_DETERMINANT_MODULI[trace_type]


# sub-resultant passes of mod_prime_power(p, 1, trace_type), from fresh
# caches, when the witness and clause (i) took |N(beta)| from a norm pass
SUBRESULTANT_PASSES_WITH_A_BETA_NORM_PASS = {
    (13, False): 5, (13, True): 3, (29, False): 5, (29, True): 3,
    (97, False): 6, (97, True): 0}


@pytest.mark.parametrize("p, trace_type", sorted(SUBRESULTANT_PASSES_WITH_A_BETA_NORM_PASS))
def test_beta_norm_is_read_off_its_level(monkeypatch, p, trace_type):
    """|N(beta)| = sqrt(level^m) once beta * conj(beta) = level is checked:
    a witness with an irrational beta (level > 1) runs one pass fewer, and
    verify_modularity, which forms (beta) the same way, runs none for it."""
    _fresh_caches(monkeypatch)
    passes = _count_passes(monkeypatch)
    verdict = existence.mod_prime_power(p, 1, trace_type)
    irrational = sum(level > 1 for level in verdict.witnesses)
    assert len(passes) <= SUBRESULTANT_PASSES_WITH_A_BETA_NORM_PASS[p, trace_type] - irrational
    for level, w in sorted(verdict.witnesses.items()):
        lat = build(w.field, realize(w.ideal), w.alpha)
        passes.clear()
        assert lattice.verify_modularity(lat, w).modular_level == level
        assert passes == []


def test_the_sweep_path_forms_no_power_of_the_inverse_radical_generator(monkeypatch):
    """mod_prime_power(97, 1, False) has the witness ideals P97^-23 (level
    1) and P97^-11 (level 97), and realize -> build -> verify forms each
    as 97^-1 * g^b, with g^(48-b) / 97^0 = g^(48-b) as the generator of
    its inverse: no element power has the base g^-1 and an exponent past
    1 (alpha = gamma^-1 is g^-1 itself)."""
    _fresh_caches(monkeypatch)
    powers = []
    power = fields._power

    def counted(x, k, one=None, mul=fields.operator.mul):
        powers.append((x, k))
        return power(x, k, one, mul)

    monkeypatch.setattr(fields, "_power", counted)
    verdict = existence.mod_prime_power(97, 1, False)
    for level, w in sorted(verdict.witnesses.items()):
        lat = build(w.field, realize(w.ideal), w.alpha)
        assert lattice.verify_modularity(lat, w).modular_level == level
    monkeypatch.undo()
    field = make_field("realcyclo:97")
    g_inv = field._inverse(gamma_element(field, 97))
    assert sorted(w.ideal.to_string() for w in verdict.witnesses.values()) \
        == ["P97^-11", "P97^-23"]
    bases = [k for x, k in powers if isinstance(x, fields.FieldElement) and x == g_inv]
    assert all(k <= 1 for k in bases)
    assert any(isinstance(x, fields.FieldElement) and k > 1 for x, k in powers)


@pytest.mark.parametrize("spec, level", [("realcyclo:92", 23), ("realcyclo:28", 7),
                                         ("realcyclo:308", 77)])
def test_verify_forms_the_gram_once(monkeypatch, spec, level):
    """The IdealLattice keeps the integer Gram it was built from, and the
    trace dual of its ideal, held as rows, solves against it: build ->
    verify calls trace_pairing once."""
    witness = existence.classify(make_field(spec), trace_type=True).witnesses[level]
    ideal = realize(witness.ideal)
    assert ideal._gen is None
    calls = []
    pairing = fields.trace_pairing

    def counted(alpha, x, y):
        calls.append((x, y))
        return pairing(alpha, x, y)

    monkeypatch.setattr(lattice, "trace_pairing", counted)
    monkeypatch.setattr(ideals, "trace_pairing", counted)
    lat = build(witness.field, ideal, witness.alpha)
    assert lattice.verify_modularity(lat, witness).modular_level == level
    assert calls == [(ideal, ideal)]


@pytest.mark.parametrize("spec, level", [("realcyclo:92", 23), ("realcyclo:308", 77)])
def test_build_and_verify_form_no_fraction_gram(spec, level):
    """build -> verify_modularity never reads the rational Gram, and the
    walk's reduction starts from the integer rows over gcd(scale, rows):
    it is the (D, A) that _lll gives on the Fraction Gram.  The Gram read
    afterwards holds rows / scale, one Fraction per equal mirrored pair,
    and the record JSON writes its integers."""
    witness = existence.classify(make_field(spec), trace_type=True).witnesses[level]
    lat = build(witness.field, realize(witness.ideal), witness.alpha)
    assert lattice.verify_modularity(lat, witness).modular_level == level
    assert lat._gram is None
    reduced = lat._reduced()
    assert lat._gram is None
    rows, scale = lat._rows, lat._scale
    gram = lat.gram
    assert gram == tuple(tuple(Fraction(e, scale) for e in row) for row in rows)
    assert all(gram[i][j] is gram[j][i] for i in range(len(rows)) for j in range(i))
    D, _, _, A = linalg._lll(gram)
    assert reduced == (D, A) and lat._reduced() is reduced
    assert lat.integer_gram() == [[int(x) for x in row] for row in gram]


def test_cli_construct_and_verify_form_no_fraction_gram(monkeypatch, tmp_path, capsys):
    """construct writes, and verify --min compares, the record Gram read
    off the integer rows: neither reads the rational Gram."""
    def unread(lat):
        raise AssertionError("the Fraction Gram was formed")

    monkeypatch.setattr(lattice.IdealLattice, "gram", property(unread))
    path = tmp_path / "record.json"
    assert cli.main(["construct", "--field", "realcyclo:92", "--level", "23",
                     "--trace-type", "--out", str(path)]) == 0
    assert cli.main(["verify", "--in", str(path), "--min"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gram_matches"] is True
    assert out["minimum"] == json.loads(path.read_text())["minimum"]


# (spec, p, s): J_p^s has a distinguished generator, s = 1 where J_p itself
# has one (cyclotomic fields, prime-power real conductors), s = 2 on
# quadratic fields and composite real conductors
RADICAL_GENERATORS = [("realcyclo:29", 29, 1), ("realcyclo:25", 5, 1),
                      ("cyclo:9", 3, 1), ("cyclo:12", 2, 1),
                      ("quad:+6", 2, 2), ("quad:+6", 3, 2),
                      ("realcyclo:92", 2, 2), ("realcyclo:92", 23, 2)]


def test_radical_generator_is_proved_without_a_module_product(monkeypatch):
    """The generator g of J_p^s is proved by |N(g)| = N(J_p)^s and
    g^(e_p/s)/p in O_K: no HNF and no module product for any s."""
    calls = []
    hnf_mod_d, ideal_mul = ideals.hnf_mod_d, ideals.ideal_mul

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for spec, p, s in RADICAL_GENERATORS:
        field = make_field(spec)
        radical = radical_above(field, p)
        rows_only = FractionalIdeal(field, radical.num, radical.den)
        calls.clear()
        monkeypatch.setattr(ideals, "hnf_mod_d", counted("hnf_mod_d", hnf_mod_d))
        monkeypatch.setattr(ideals, "ideal_mul", counted("ideal_mul", ideal_mul))
        gen, got = ideals._radical_generator(field, p, rows_only)
        monkeypatch.undo()
        assert got == s and calls == [], spec
        assert gen._inv is not None
        assert principal(gen) == ideal_pow(rows_only, s)
        assert radical._gen == (gen if s == 1 else None)


def test_radical_generator_rejects_a_wrong_candidate_of_the_right_norm(monkeypatch):
    """7 splits into two primes P, P' of cyclo:21 (e = 6): c = -1 + z - z^9
    has |N(c)| = 49 = N(J_7) but lies outside J_7 = PP', so (c)^6 is not
    (7) and the proof raises."""
    field = make_field("cyclo:21")
    radical = radical_above(field, 7)
    rows_only = FractionalIdeal(field, radical.num, radical.den)
    c = field.element([-1, 1] + [0] * 7 + [-1, 0, 0])
    assert abs(c.norm()) == rows_only.norm() == 49 and not rows_only.contains(c)
    monkeypatch.setattr(ideals, "_radical_candidate", lambda f, p: (c, 1))
    with pytest.raises(ArithmeticError, match="does not generate"):
        ideals._radical_generator(field, 7, rows_only)


def test_radical_generator_has_no_fallback(monkeypatch):
    """A candidate that fails the proof raises; nothing else is tried."""
    field = make_field("realcyclo:92")
    radical = radical_above(field, 23)
    rows_only = FractionalIdeal(field, radical.num, radical.den)
    monkeypatch.setattr(ideals, "gamma_element", lambda f, p: f.rational(p))
    with pytest.raises(ArithmeticError, match="does not generate"):
        ideals._radical_generator(field, 23, rows_only)


@pytest.mark.parametrize("spec", ["realcyclo:92", "quad:+6"])
def test_pipeline_inverts_no_module(monkeypatch, spec):
    """classify -> realize -> build -> verify_modularity forms every radical
    power as (g^q) * J_p^r: it never calls different() and never takes
    ideal_inverse's module branch, on fields where only J_p^2 has a known
    generator."""
    _fresh_caches(monkeypatch)
    calls = {"different": 0, "module inverse": 0}
    different, ideal_inverse = ideals.different, ideals.ideal_inverse

    def counted_different(field):
        calls["different"] += 1
        return different(field)

    def counted_inverse(a):
        calls["module inverse"] += a._gen is None
        return ideal_inverse(a)

    monkeypatch.setattr(ideals, "different", counted_different)
    for module in (ideals, existence):
        monkeypatch.setattr(module, "ideal_inverse", counted_inverse)
    field = make_field(spec)
    verdict = existence.classify(field, trace_type=True)
    assert verdict.witnesses
    for level, w in sorted(verdict.witnesses.items()):
        lat = build(field, realize(w.ideal), w.alpha)
        assert lattice.verify_modularity(lat, w).modular_level == level
    assert calls == {"different": 0, "module inverse": 0}


def _no_cyclotomic_field(self, n):
    raise AssertionError(f"built cyclo:{n}")


@pytest.mark.parametrize("spec", ["realcyclo:28", "realcyclo:92", "realcyclo:97"])
def test_real_pipeline_builds_no_cyclotomic_field(monkeypatch, spec):
    """gamma, its radicals and every sqrt(level) are summed in the real
    subfield itself: classify -> realize -> build -> verify_modularity
    never constructs the cyclotomic cover."""
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fields.CyclotomicField, "__init__", _no_cyclotomic_field)
    field = make_field(spec)
    verified = []
    # a composite conductor is classified for the trace type only
    for trace_type in (False, True) if field.is_prime_power() else (True,):
        verdict = existence.classify(field, trace_type=trace_type)
        for level, w in sorted(verdict.witnesses.items()):
            lat = build(field, realize(w.ideal), w.alpha)
            assert lattice.verify_modularity(lat, w).modular_level == level
            verified.append(level)
    assert verified


def test_real_construct_builds_no_cyclotomic_field(monkeypatch, capsys):
    from arakelov.cli import main
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fields.CyclotomicField, "__init__", _no_cyclotomic_field)
    assert main(["construct", "--field", "realcyclo:92", "--level", "23", "--trace-type"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("spec", ["realcyclo:28", "realcyclo:60", "realcyclo:92",
                                  "realcyclo:344", "quad:+6", "quad:-7"])
def test_classify_runs_on_generators(monkeypatch, spec):
    """classify checks every witness on generators: I * conj(I) is
    G * conj(G) * prod_S (g_p) for the factored form (G, S), and the
    valuations test principal products, so it forms no principal-times-
    module product, no product or conjugate of ideals held as rows only,
    and no HNF outside radical_above's certificate (realcyclo:344 has
    degree 84, past the default materialize limit)."""
    _fresh_caches(monkeypatch)
    calls = {"hnf_mod_d": 0, "_principal_times_module": 0,
             "rows ideal_mul": 0, "rows conj_ideal": 0}
    inside = [0]
    radical, hnf = ideals.radical_above, ideals.hnf_mod_d
    ptm, mul, conj = ideals._principal_times_module, ideals.ideal_mul, ideals.conj_ideal

    def counted_radical(field, p):
        inside[0] += 1
        try:
            return radical(field, p)
        finally:
            inside[0] -= 1

    def counted_hnf(rows, modulus):
        calls["hnf_mod_d"] += not inside[0]
        return hnf(rows, modulus)

    def counted_ptm(g, abs_norm_g, mod):
        calls["_principal_times_module"] += 1
        return ptm(g, abs_norm_g, mod)

    def counted_mul(a, b):
        calls["rows ideal_mul"] += a._gen is None and b._gen is None
        return mul(a, b)

    def counted_conj(a):
        calls["rows conj_ideal"] += a._gen is None
        return conj(a)

    monkeypatch.setattr(ideals, "radical_above", counted_radical)
    monkeypatch.setattr(ideals, "hnf_mod_d", counted_hnf)
    monkeypatch.setattr(ideals, "_principal_times_module", counted_ptm)
    for module in (ideals, existence):
        monkeypatch.setattr(module, "ideal_mul", counted_mul)
        monkeypatch.setattr(module, "conj_ideal", counted_conj)
    verdict = existence.classify(make_field(spec), materialize_limit=84)
    monkeypatch.undo()
    assert calls == {"hnf_mod_d": 0, "_principal_times_module": 0,
                     "rows ideal_mul": 0, "rows conj_ideal": 0}
    assert set(verdict.witnesses) == set(verdict.levels)


# sub-resultant passes of mod_nonprimepower_trace(n), from fresh caches,
# when the witness twist was the plain product alpha * beta^-1 (one norm
# pass and one inverse pass for its least integer), sqrt_integer linked no
# inverse and the witness took |N(beta)| from a norm pass
SUBRESULTANT_PASSES_WITH_A_PLAIN_TWIST = {12: 4, 24: 8, 28: 5, 63: 6}


@pytest.mark.parametrize("n", sorted(SUBRESULTANT_PASSES_WITH_A_PLAIN_TWIST))
def test_witness_twist_reuses_what_its_factors_know(monkeypatch, n):
    _fresh_caches(monkeypatch)
    passes = _count_passes(monkeypatch)
    verdict = existence.mod_nonprimepower_trace(n)
    monkeypatch.undo()
    assert verdict.witnesses and set(verdict.witnesses) == set(verdict.levels)
    # the twist (alpha) * (beta^-1) multiplies known norms and links the
    # known inverses, and |N(beta)| is read off the level: no norm pass
    # and no inverse pass per witness
    assert len(passes) <= SUBRESULTANT_PASSES_WITH_A_PLAIN_TWIST[n] - 3 * len(verdict.levels)


@pytest.mark.parametrize("spec, m", [("realcyclo:28", 7), ("realcyclo:24", 6),
                                     ("realcyclo:105", 21), ("cyclo:12", 3),
                                     ("cyclo:20", 5), ("quad:+6", 6)])
def test_square_roots_carry_their_inverse(spec, m):
    field = make_field(spec)
    root = fields.sqrt_integer(field, m)
    assert root * root == field.rational(m)
    assert root._inv is not None and root._inv._inv is root
    assert root._inv == field._inverse(root)  # a fresh solve agrees
