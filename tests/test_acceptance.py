"""Acceptance suite: every contract the package commits to, checked with
its stated exactness and wall-clock budget.

Each test covers one numbered commitment (quadratic Gram fixtures, the
prime-power classification sweep, the three-row catalog table, the two
worked examples, the variant resolution over realcyclo:13, the property
suite, and the different-valuation cross-check).  Budgets are enforced by
the final aggregate test over recorded wall times, with the hard ones also
asserted inline.

Two tests pin places where the exact computation disagrees with the
published catalog.  Each asserts what the exact computation gives and keeps
the published value next to it, so the discrepancy stays checked in a green
run:

* the catalog gives minimum 2 for the (level 7, realcyclo:28) lattice.
  Exact enumeration of that verified 7-modular, even lattice of
  determinant 7^3 gives minimum 4 with kissing number 42, the Craig
  lattice A6^(2) that the row names; 4 is also the extremal bound for
  even 7-modular lattices in dimension 6.  The table test asserts the
  exact (minimum, kissing) of every row, and that the published minimum
  differs from it on this row alone;
* the claim that exactly one of the two level-1 pairings over
  realcyclo:13 passes verification.  Both self-consistent pairings pass
  with identical invariants (determinant 1, minimum 1, twelve vectors of
  norm 1), because multiplication by gamma^-1 carries one onto the other:
  they are one lattice, Z^6.  The variant test asserts that, and the
  scaling that links them; only the cross-pairing of the larger ideal with
  the inverted form fails, and that is reported on the catalog row.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from types import SimpleNamespace

import pytest

from arakelov.existence import (
    ConstructionWitness,
    InternalInconsistency,
    SpecError,
    classify,
    mod_prime_power,
    rescale,
)
from arakelov.fields import euler_phi, is_squarefree, make_field
from arakelov.ideals import (
    FractionalIdeal,
    IdealRecipe,
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
from arakelov.lattice import (
    ModularityFailure,
    build,
    minimum,
    theta_prefix,
    verify_modularity,
)
from arakelov.linalg import invert

# wall-clock budgets per criterion group, in seconds
_BUDGETS = {
    "1 quadratic fixtures": 1.0,
    "2 prime-power sweep": 30.0,
    "3 catalog table": 600.0,
    "4 level-3 dim-6 example": 5.0,
    "5 unimodular dim-21 example": 300.0,
    "6 variant resolution": 5.0,
    "7 property suite": 120.0,
    "8 different cross-check": 60.0,
}
_ELAPSED = {}


def _record(key, t0):
    _ELAPSED[key] = _ELAPSED.get(key, 0.0) + (time.monotonic() - t0)


_ODD_PRIMES = [p for p in range(3, 100)
               if all(p % q for q in range(2, isqrt(p) + 1))]

QUAD_DS = (2, 3, 5, 6, 7, 10, 11, 13)


# --------------------------------------------------------------------------
# 1. quadratic Gram fixtures
# --------------------------------------------------------------------------

def test_c1_quadratic_gram_fixtures():
    """Trace-type level-d lattices over quad:+d and quad:-d carry exactly
    the displayed Gram ([[2,1],[1,(d+1)/2]] for odd d, [[2,0],[0,d/2]] for
    even d), are even iff d = 3 mod 4, and have minimum 2 (1 for d = 2)."""
    t0 = time.monotonic()
    for d in QUAD_DS:
        for sign in "+-":
            field = make_field(f"quad:{sign}{d}")
            verdict = classify(field, trace_type=True)
            assert verdict.levels == (d,)
            w = verdict.witnesses[d]
            lat = build(field, realize(w.ideal), w.alpha)
            report = verify_modularity(lat, w)
            assert report.modular_level == d
            if d % 2:
                expected = ((2, 1), (1, (d + 1) // 2))
            else:
                expected = ((2, 0), (0, d // 2))
            assert lat.gram == expected, (sign, d, lat.gram)
            assert lat.is_even() is (d % 4 == 3), (sign, d)
            mu, _ = minimum(lat)
            assert mu == (1 if d == 2 else 2), (sign, d, mu)
    _record("1 quadratic fixtures", t0)
    assert time.monotonic() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. prime-power classification sweep
# --------------------------------------------------------------------------

def _expected_prime_power_levels(p, trace_type):
    # trace type: {1} for p = 3 mod 4, {} for p = 1 mod 8, {p} for p = 5 mod 8;
    # unrestricted: {1, p} for p = 1 mod 4, {1} for p = 3 mod 4
    if trace_type:
        if p % 4 == 3:
            return (1,)
        if p % 8 == 1:
            return ()
        return (p,)
    return (1, p) if p % 4 == 1 else (1,)


def test_c2_prime_power_sweep():
    """Level sets over realcyclo:p^r for all odd p < 100 and r in {1, 2}
    match the residue-class case split, and every materialized witness
    passes the definitional verification exactly."""
    t0 = time.monotonic()
    verified = 0
    for p in _ODD_PRIMES:
        for r in (1, 2):
            for trace_type in (True, False):
                verdict = mod_prime_power(p, r, trace_type)
                assert verdict.levels == _expected_prime_power_levels(
                    p, trace_type), (p, r, trace_type, verdict.levels)
                for level, w in verdict.witnesses.items():
                    assert w.level == level
                    lat = build(w.field, realize(w.ideal), w.alpha)
                    report = verify_modularity(lat, w)
                    assert report.modular_level == level
                    verified += 1
    assert verified >= 60  # every witness materialized under the degree cap
    _record("2 prime-power sweep", t0)
    assert time.monotonic() - t0 < 30.0


# --------------------------------------------------------------------------
# 3. catalog table reproduction
# --------------------------------------------------------------------------

# (spec, level, dim, published minimum, exact (minimum, kissing number))
_TABLE = (
    ("realcyclo:28", 7, 6, 2, (4, 42)),
    ("realcyclo:44", 11, 10, 6, (6, 110)),
    ("realcyclo:92", 23, 22, 12, (12, 506)),
)


def test_c3_catalog_table_reproduction():
    """The three catalog lattices are verified modular of their level with
    det = level^(dim/2) exactly, and enumerate to the exact (minimum,
    kissing) of their row.  The published minimum differs from the exact
    one on the level-7 row alone: the catalog gives 2, but the verified
    7-modular, even lattice has minimum 4 with 42 minimal vectors, the
    Craig lattice A6^(2) that the row names and the extremal bound for even
    7-modular lattices in dimension 6."""
    t0 = time.monotonic()
    discrepant = []
    for spec, level, dim, published_min, exact in _TABLE:
        field = make_field(spec)
        w = classify(field, trace_type=True).witnesses[level]
        lat = build(field, realize(w.ideal), w.alpha)
        report = verify_modularity(lat, w)
        assert report.modular_level == level
        assert lat.dimension == dim, (spec, lat.dimension)
        assert lat.determinant() == level ** (dim // 2), (spec, lat.determinant())
        mu, kissing = minimum(lat)
        assert (mu, kissing) == exact, (
            f"{spec} (level {level}): enumerated minimum {mu} (kissing "
            f"{kissing}), exact value {exact[0]} (kissing {exact[1]})")
        if mu != published_min:
            discrepant.append(spec)
    _record("3 catalog table", t0)
    assert time.monotonic() - t0 <= 600.0
    assert discrepant == ["realcyclo:28"], (
        f"published minimum differs from the exact one on {discrepant}; "
        "only realcyclo:28 (level 7) should differ: published 2, exact 4")


# --------------------------------------------------------------------------
# 4. the even 3-modular dimension-6 example
# --------------------------------------------------------------------------

def test_c4_level3_dim6_example():
    """realcyclo:36 with I = P2^-1 * P3^-3 and alpha = 1: even, 3-modular,
    dimension 6, minimum 2, determinant 27, all exact."""
    t0 = time.monotonic()
    field = make_field("realcyclo:36")
    verdict = classify(field, trace_type=True)
    assert verdict.levels == (3,)
    w = verdict.witnesses[3]
    ideal = realize(w.ideal)
    assert ideal == realize(IdealRecipe.parse(field, "P2^-1 * P3^-3"))
    assert w.alpha == field.one()
    lat = build(field, ideal, w.alpha)
    report = verify_modularity(lat, w)
    assert report.modular_level == 3
    assert lat.is_even()
    assert lat.dimension == 6
    assert lat.determinant() == 27
    assert minimum(lat)[0] == 2
    _record("4 level-3 dim-6 example", t0)
    assert time.monotonic() - t0 < 5.0


# --------------------------------------------------------------------------
# 5. the odd unimodular dimension-21 example
# --------------------------------------------------------------------------

def test_c5_unimodular_dim21_example():
    """realcyclo:49 with I = P7^-19 and alpha = 1: integral, determinant 1,
    dimension 21, exact minimum 2 by enumeration."""
    t0 = time.monotonic()
    field = make_field("realcyclo:49")
    verdict = classify(field, trace_type=True)
    assert verdict.levels == (1,)
    w = verdict.witnesses[1]
    ideal = realize(w.ideal)
    assert ideal == realize(IdealRecipe.parse(field, "P7^-19"))
    assert w.alpha == field.one()
    lat = build(field, ideal, w.alpha)
    report = verify_modularity(lat, w)
    assert report.modular_level == 1
    assert lat.is_integral()
    assert lat.determinant() == 1
    assert lat.dimension == 21
    assert not lat.is_even()
    assert minimum(lat)[0] == 2
    _record("5 unimodular dim-21 example", t0)
    assert time.monotonic() - t0 <= 300.0


# --------------------------------------------------------------------------
# 6. variant resolution over realcyclo:13
# --------------------------------------------------------------------------

def _level_one_variant(field, recipe_text, alpha):
    """Full verification status of a proposed level-1 pairing (I, alpha):
    (passed, description of the outcome)."""
    recipe = IdealRecipe.parse(field, recipe_text)
    try:
        w = ConstructionWitness(1, field.one(), alpha, recipe)
    except InternalInconsistency as exc:
        return False, f"witness rejected: {exc}"
    lat = build(field, realize(recipe), alpha)
    try:
        report = verify_modularity(lat, w)
    except ModularityFailure as exc:
        return False, f"failed clause {exc.clause}"
    mu, _ = minimum(lat)
    count1 = dict(theta_prefix(lat, 1)).get(1, 0)
    passed = report.determinant == 1 and mu == 1 and count1 == 12
    return passed, f"passes with det={report.determinant} min={mu} count1={count1}"


def test_c6_exactly_one_variant_passes():
    """Exactly one lattice passes: the pairings (P13^-3, gamma) and
    (P13^-2, gamma^-1), gamma = 2 - 2cos(2pi/13), both pass level-1
    verification with det 1, min 1 and twelve norm-1 vectors, and they are
    one lattice, Z^6.  The published claim that exactly one pairing passes
    cannot hold: P13 = (gamma), so x -> gamma^-1 * x maps P13^-2 onto
    P13^-3, and Tr(gamma * (gamma^-1 * x) * (gamma^-1 * y)) =
    Tr(gamma^-1 * x * y), so the map is an isometry of the two forms."""
    t0 = time.monotonic()
    field = make_field("realcyclo:13")
    gamma = gamma_element(field, 13)
    lam = gamma.inverse()
    pass_a, info_a = _level_one_variant(field, "P13^-3", gamma)
    pass_b, info_b = _level_one_variant(field, "P13^-2", lam)
    assert pass_a and pass_b, (
        f"(P13^-3, gamma) {info_a}; (P13^-2, gamma^-1) {info_b}; both "
        "should pass with det=1 min=1 count1=12")
    # x -> lam * x carries (I, alpha) to (lam * I, alpha / lam^2)
    ideal_a = realize(IdealRecipe.parse(field, "P13^-3"))
    ideal_b = realize(IdealRecipe.parse(field, "P13^-2"))
    assert ideal_mul(principal(lam), ideal_b) == ideal_a
    assert lam == gamma * lam ** 2
    _record("6 variant resolution", t0)


def test_c6_recorded_variant_passes():
    """The classification records the self-consistent pairing (P13^-2,
    gamma^-1); it passes verification with the Z^6 invariants."""
    t0 = time.monotonic()
    field = make_field("realcyclo:13")
    verdict = classify(field, trace_type=False)
    w = verdict.witnesses[1]
    assert w.ideal.to_string() == "P13^-2"
    assert w.alpha == gamma_element(field, 13).inverse()
    lat = build(field, realize(w.ideal), w.alpha)
    report = verify_modularity(lat, w)
    assert report.modular_level == 1
    assert report.determinant == 1
    assert minimum(lat)[0] == 1
    assert dict(theta_prefix(lat, 1)).get(1, 0) == 12
    _record("6 variant resolution", t0)


def test_c6_cross_pairing_reported_inconsistent():
    """The cross-pairing P13^-3 with alpha = gamma^-1 violates the module
    identity: witness self-validation rejects it, definitional
    verification fails clause ii, and the catalog row reports it."""
    t0 = time.monotonic()
    field = make_field("realcyclo:13")
    gamma_inv = gamma_element(field, 13).inverse()
    recipe = IdealRecipe.parse(field, "P13^-3")
    with pytest.raises(InternalInconsistency):
        ConstructionWitness(1, field.one(), gamma_inv, recipe)
    lat = build(field, realize(recipe), gamma_inv)
    duck = SimpleNamespace(field=field, alpha=gamma_inv, level=1,
                           beta=field.one())
    with pytest.raises(ModularityFailure) as exc:
        verify_modularity(lat, duck)
    assert exc.value.clause == "ii"
    from arakelov.cli import _EXAMPLE_ROWS
    z6 = next(row for row in _EXAMPLE_ROWS if row["name"] == "Z6")
    assert "P13^-3" in z6["note"] and "clause ii" in z6["note"]
    _record("6 variant resolution", t0)


# --------------------------------------------------------------------------
# 7. property suite
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _verified_corpus():
    """(witness, lattice) pairs spanning every construction rule, each one
    already passed through the definitional verification."""
    pairs = []
    specs = [f"quad:{sign}{d}" for d in QUAD_DS for sign in "+-"]
    specs += ["realcyclo:3", "realcyclo:7", "realcyclo:9"]       # odd degree
    specs += ["realcyclo:28", "realcyclo:36", "realcyclo:44"]    # composite
    for spec in specs:
        field = make_field(spec)
        for w in classify(field, trace_type=True).witnesses.values():
            lat = build(field, realize(w.ideal), w.alpha)
            verify_modularity(lat, w)
            pairs.append((w, lat))
    for p, r in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        for trace_type in (True, False):
            for w in mod_prime_power(p, r, trace_type).witnesses.values():
                lat = build(w.field, realize(w.ideal), w.alpha)
                verify_modularity(lat, w)
                pairs.append((w, lat))
    return tuple(pairs)


def test_c7a_integral_gram():
    """Every constructed Arakelov-modular lattice has an integer Gram."""
    t0 = time.monotonic()
    corpus = _verified_corpus()
    assert len(corpus) >= 30
    for w, lat in corpus:
        assert lat.is_integral(), w
        for row in lat.gram:
            for entry in row:
                assert entry.denominator == 1, (w, entry)
    _record("7 property suite", t0)


def test_c7b_witness_module_parity():
    """v_p(alpha^-1 * beta * D_K^-1) is even at every ramified p for every
    witness."""
    t0 = time.monotonic()
    for w, _ in _verified_corpus():
        field = w.field
        module = ideal_mul(principal(w.alpha.inverse() * w.beta),
                           codifferent(field))
        for p in sorted(field.omega()):
            assert valuation(module, p) % 2 == 0, (w, p)
    _record("7 property suite", t0)


def _random_element(field, rng, span=4):
    while True:
        x = field.element([rng.randint(-span, span)
                           for _ in range(field.degree)])
        if not x.is_zero:
            return x


def _random_ideal(field, rng):
    p = rng.choice(sorted(field.omega()))
    k = rng.choice([-2, -1, 1, 2])
    return ideal_mul(ideal_pow(radical_above(field, p), k),
                     principal(_random_element(field, rng)))


def test_c7c_trace_dual_two_paths():
    """trace_dual(A, alpha) equals alpha^-1 * D_K^-1 * conj(A)^-1 computed
    by two independent routes, for at least 50 random recipe ideals across
    at least 5 fields; biduality returns the input."""
    t0 = time.monotonic()
    rng = random.Random(7121)
    fields_used = 0
    ideals_used = 0
    for spec in ("quad:+5", "quad:-3", "quad:+2", "realcyclo:13",
                 "cyclo:12", "realcyclo:28"):
        field = make_field(spec)
        alpha = field.one()
        if spec == "quad:+5":  # a non-unit totally positive form: (5+sqrt5)/2
            alpha = field.rational(2) + field.gen()
        fields_used += 1
        for _ in range(9):
            a = _random_ideal(field, rng)
            d1 = trace_dual(a, alpha)
            d2 = trace_dual_via_inverse(a, alpha)
            assert d1 == d2, (spec, a)
            assert trace_dual(d1, alpha) == a, (spec, a)
            ideals_used += 1
    assert fields_used >= 5 and ideals_used >= 50
    _record("7 property suite", t0)


def test_c7d_rescaling():
    """rescale of a verified witness verifies at level l1 * l2^2 for
    l2 in {2, 3, 5} (over CM fields l2 must be coprime with the level,
    and the non-coprime case is rejected)."""
    t0 = time.monotonic()
    checked = 0
    for w, _ in _verified_corpus():
        field = w.field
        for ell2 in (2, 3, 5):
            if field.is_cm and gcd(ell2, w.level) != 1:
                with pytest.raises(SpecError):
                    rescale(w, ell2)
                continue
            w2 = rescale(w, ell2)
            lat2 = build(field, realize(w2.ideal), w2.alpha)
            report = verify_modularity(lat2, w2)
            assert report.modular_level == w.level * ell2 * ell2
            checked += 1
    assert checked >= 90
    _record("7 property suite", t0)


def _brute_force_norms(gram, bound):
    """Exhaustive {norm: count} for 0 < norm <= bound over the exact
    coefficient box |x_i| <= sqrt(bound * (G^-1)_ii), both signs counted;
    independent of the enumeration tree."""
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    Ginv = invert(G)
    B = Fraction(bound)
    radii = [isqrt(int(B * Ginv[i][i])) for i in range(n)]
    counts = {}
    for x in product(*(range(-r, r + 1) for r in radii)):
        if not any(x):
            continue
        nrm = sum(G[i][j] * x[i] * x[j]
                  for i in range(n) for j in range(n) if x[i] and x[j])
        if 0 < nrm <= B:
            counts[nrm] = counts.get(nrm, 0) + 1
    return counts


def test_c7e_minimum_vs_brute_force():
    """Enumerated minimum and kissing number agree with the coefficient-box
    brute force on every fixture of dimension <= 4."""
    t0 = time.monotonic()
    fixtures = []
    for d in QUAD_DS:
        field = make_field(f"quad:+{d}")
        w = classify(field, trace_type=True).witnesses[d]
        fixtures.append(build(field, realize(w.ideal), w.alpha))
    for spec in ("realcyclo:3", "realcyclo:7", "realcyclo:9"):
        field = make_field(spec)
        w = classify(field, trace_type=True).witnesses[1]
        fixtures.append(build(field, realize(w.ideal), w.alpha))
    for spec in ("cyclo:5", "cyclo:8", "cyclo:12", "realcyclo:16"):
        field = make_field(spec)
        fixtures.append(build(field, FractionalIdeal.ring(field), field.one()))
    cyc5 = make_field("cyclo:5")  # fractional Gram exercises exact rationals
    fixtures.append(build(cyc5, codifferent(cyc5), cyc5.one()))
    for lat in fixtures:
        assert lat.dimension <= 4
        mu, kissing = minimum(lat)
        bound = min(lat.gram[i][i] for i in range(lat.dimension))
        counts = _brute_force_norms(lat.gram, bound)
        assert mu == min(counts), lat.gram
        assert kissing == counts[mu], lat.gram
    _record("7 property suite", t0)


# --------------------------------------------------------------------------
# 8. different-valuation cross-check
# --------------------------------------------------------------------------

def _supported_specs_degree_le(limit):
    specs = []
    for d in range(2, 48):  # the quadratic family, sampled across d
        if is_squarefree(d):
            specs += [f"quad:+{d}", f"quad:-{d}"]
    for n in range(3, 140):
        if n % 4 == 2:  # same field as the odd conductor n/2
            continue
        phi = euler_phi(n)
        if phi <= limit:
            specs.append(f"cyclo:{n}")
        if phi // 2 <= limit:
            specs.append(f"realcyclo:{n}")
    return specs


def test_c8_different_valuation_crosscheck():
    """For every supported field of degree <= 22 (the quadratic family
    sampled over squarefree d < 48), the codifferent (1/f'(theta)) equals
    the reference route: the Gram-solve trace dual of O_K held as rows
    only, with no generator.  The closed-formula valuations of the
    different equal the valuations read off it."""
    t0 = time.monotonic()
    n_fields = 0
    for spec in _supported_specs_degree_le(22):
        field = make_field(spec)
        cd = codifferent(field)
        ring_rows = FractionalIdeal(field, FractionalIdeal.ring(field).num, 1)
        assert cd == trace_dual(ring_rows, field.one()), spec
        for p in sorted(field.omega()):
            assert valuation(cd, p) == -field.different_exponent(p), (spec, p)
        n_fields += 1
    assert n_fields >= 100
    _record("8 different cross-check", t0)
    assert time.monotonic() - t0 < 60.0


# --------------------------------------------------------------------------
# aggregate runtime budgets
# --------------------------------------------------------------------------

def test_runtime_budgets():
    """Cumulative wall time of every criterion group stays inside its
    budget (this test must run after the others in this file)."""
    for key, total in sorted(_ELAPSED.items()):
        assert total < _BUDGETS[key], \
            f"{key}: {total:.1f}s exceeds the {_BUDGETS[key]:.0f}s budget"
