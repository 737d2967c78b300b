"""Existence-oracle tests.

The independent oracle here is a brute-force parity search: trace-type
existence of level l over a totally real field holds iff sqrt(l) lies in
the field and the ideal (sqrt(l)) * D_K^-1 has even valuation at every
ramified prime -- computed with the exact ideal machinery, not with the
closed-form case analysis the oracles use.  The two must agree on every
square-free divisor of the ramified-even product for all desk-scale
fields.  Witness construction is itself a proof: the constructor
re-verifies the defining identities exactly and raises otherwise.
"""

import pytest

from arakelov.existence import (
    ConstructionWitness,
    ExistenceVerdict,
    InternalInconsistency,
    check_level_bound,
    classify,
    mod_nonprimepower_trace,
    mod_odd_degree,
    mod_prime_power,
    mod_quadratic,
    omega_sets,
    rescale,
)
from arakelov.fields import SpecError, is_squarefree, make_field, sqrt_integer
from arakelov.ideals import (
    IdealRecipe,
    codifferent,
    different,
    ideal_mul,
    principal,
    valuation,
)


def trace_exists_bruteforce(field, level):
    """Independent decision: sqrt(level) in the field with all parities even."""
    if level == 1:
        beta = field.one()
    else:
        beta = sqrt_integer(field, level)
        if beta is None:
            return False
    bd = ideal_mul(principal(beta), codifferent(field))
    return all(valuation(bd, p) % 2 == 0 for p in sorted(field.omega()))


def squarefree_divisors(n):
    divs = [1]
    p = 2
    rest = n
    while p * p <= rest:
        if rest % p == 0:
            divs = divs + [d * p for d in divs]
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        divs = divs + [d * rest for d in divs]
    return sorted(divs)


# --------------------------------------------------------------------------
# omega sets and level bound
# --------------------------------------------------------------------------

def test_omega_sets_examples():
    assert omega_sets(make_field("quad:+6")) == (frozenset({2, 3}), frozenset({2, 3}))
    assert omega_sets(make_field("realcyclo:13")) == (frozenset({13}), frozenset({13}))
    # p = 3 mod 4 prime: e = (p-1)/2 odd, so the even subset is empty
    assert omega_sets(make_field("realcyclo:7")) == (frozenset({7}), frozenset())


def test_check_level_bound_examples():
    assert check_level_bound(make_field("realcyclo:28"), 7)
    assert not check_level_bound(make_field("realcyclo:7"), 7)  # odd degree
    assert check_level_bound(make_field("quad:+5"), 1)
    assert not check_level_bound(make_field("quad:+5"), 3)
    with pytest.raises(SpecError):
        check_level_bound(make_field("quad:+5"), 4)  # not square-free
    with pytest.raises(SpecError):
        check_level_bound(make_field("quad:+5"), 0)


# --------------------------------------------------------------------------
# quadratic classification
# --------------------------------------------------------------------------

QUAD_CASES = [
    ("quad:-3", 3, ""),       # d = 3 mod 4: whole ring
    ("quad:-1", 1, "P2^-1"),
    ("quad:-2", 2, "P2^-1"),
    ("quad:-5", 5, "P2^-1"),
    ("quad:+5", 5, ""),       # d = 1 mod 4: whole ring
    ("quad:+2", 2, "P2^-1"),
    ("quad:+3", 3, "P2^-1"),
    ("quad:+6", 6, "P2^-1"),
    ("quad:+13", 13, ""),
]


@pytest.mark.parametrize("spec,level,recipe", QUAD_CASES)
def test_mod_quadratic_cases(spec, level, recipe):
    field = make_field(spec)
    verdict = mod_quadratic(field)
    assert verdict.levels == (level,)
    witness = verdict.witness_for(level)
    assert witness is not None
    assert witness.ideal.to_string() == recipe
    assert witness.alpha == field.one()
    assert witness.beta * witness.beta.conj() == field.rational(level)


def test_mod_quadratic_rejects_other_families():
    with pytest.raises(SpecError):
        mod_quadratic(make_field("realcyclo:13"))


# --------------------------------------------------------------------------
# prime-power classification
# --------------------------------------------------------------------------

def test_prime_power_trace_examples():
    v13 = mod_prime_power(13, 1, True)
    assert v13.levels == (13,)
    assert v13.witnesses[13].ideal.to_string() == "P13^-1"
    assert v13.witnesses[13].beta * v13.witnesses[13].beta == \
        make_field("realcyclo:13").rational(13)

    v7 = mod_prime_power(7, 1, True)
    assert v7.levels == (1,)
    assert v7.witnesses[1].ideal.to_string() == "P7^-1"

    assert mod_prime_power(17, 1, True).levels == ()


def test_prime_power_modular_examples():
    v13 = mod_prime_power(13, 1, False)
    assert v13.levels == (1, 13)
    # the self-consistent unimodular variant: P^-2 with alpha = gamma^-1
    w1 = v13.witnesses[1]
    assert w1.ideal.to_string() == "P13^-2"
    field = make_field("realcyclo:13")
    from arakelov.ideals import gamma_element
    assert w1.alpha == gamma_element(field, 13).inverse()
    # p = 1 mod 8 has no trace-type lattice but still {1, p} in general
    v17 = mod_prime_power(17, 1, False)
    assert v17.levels == (1, 17)
    assert v17.witnesses[1].ideal.to_string() == "P17^-3"
    assert v17.witnesses[17].ideal.to_string() == "P17^-1"


def test_prime_power_higher_power():
    # r = 2: conductor 25, degree 10; same case split applies
    v = mod_prime_power(5, 2, True)
    assert v.levels == (5,)
    w = v.witnesses[5]
    assert w.beta * w.beta == make_field("realcyclo:25").rational(5)


def test_prime_power_errors_and_materialization():
    for bad in [(2, 1), (9, 1), (15, 1), (1, 1)]:
        with pytest.raises(SpecError):
            mod_prime_power(*bad, True)
    with pytest.raises(SpecError):
        mod_prime_power(7, 0, True)
    # beyond the materialization cap: levels exact, witnesses absent
    v = mod_prime_power(13, 1, True, materialize_limit=2)
    assert v.levels == (13,)
    assert v.witnesses == {}
    # degree phi(61^2)/2 = 1830: decidable without touching the field
    big = mod_prime_power(61, 2, True, materialize_limit=12)
    assert big.levels == (61,)  # 61 = 5 mod 8
    assert big.witnesses == {}
    assert mod_prime_power(97, 2, True, materialize_limit=12).levels == ()  # 1 mod 8


# --------------------------------------------------------------------------
# composite conductors
# --------------------------------------------------------------------------

NONPP_CASES = [
    (28, (7,), {7: "P2^-1*P7^-1"}),
    (15, (), {}),
    (24, (3, 6), {3: "P2^-4", 6: "P2^-3"}),
    (21, (21,), {21: "P7^-1"}),
    (36, (3,), {3: "P2^-1*P3^-3"}),
    (44, (11,), {11: "P2^-1*P11^-2"}),
    (92, (23,), {23: "P2^-1*P23^-5"}),
    (12, (3,), {3: "P2^-1"}),
    (105, (), {}),  # odd, three prime factors 3*5*7 with 5 = 1 mod 4
]


def test_mod_nonprimepower_cases():
    for n, levels, recipes in NONPP_CASES:
        v = mod_nonprimepower_trace(n)
        assert v.levels == levels, f"n = {n}"
        for lev, recipe in recipes.items():
            assert v.witnesses[lev].ideal.to_string() == recipe, f"n = {n}"


def test_mod_nonprimepower_odd_parity():
    # odd n with an odd number of prime factors (all 3 mod 4): empty
    assert mod_nonprimepower_trace(3 * 7 * 11, materialize_limit=0).levels == ()
    # odd n with an even number: level = product
    assert mod_nonprimepower_trace(21).levels == (21,)


def test_mod_nonprimepower_errors():
    with pytest.raises(SpecError):
        mod_nonprimepower_trace(49)  # prime power
    with pytest.raises(SpecError):
        mod_nonprimepower_trace(14)  # 2 mod 4
    with pytest.raises(SpecError):
        mod_nonprimepower_trace(2)


def test_mod_nonprimepower_materialization_cap():
    v = mod_nonprimepower_trace(92, materialize_limit=4)
    assert v.levels == (23,)
    assert v.witnesses == {}


# --------------------------------------------------------------------------
# odd degree
# --------------------------------------------------------------------------

def test_mod_odd_degree_examples():
    v49 = mod_odd_degree(make_field("realcyclo:49"))
    assert v49.levels == (1,)
    assert v49.witnesses[1].ideal.to_string() == "P7^-19"

    assert mod_odd_degree(make_field("realcyclo:7")).witnesses[1] \
        .ideal.to_string() == "P7^-1"
    assert mod_odd_degree(make_field("realcyclo:9")).witnesses[1] \
        .ideal.to_string() == "P3^-2"
    # degree-1 fields: the lattice is Z itself
    assert mod_odd_degree(make_field("realcyclo:3")).witnesses[1] \
        .ideal.to_string() == ""


def test_mod_odd_degree_honours_materialize_limit():
    # degree 21 over the cap: the level set stays exact, no witness is built
    capped = mod_odd_degree(make_field("realcyclo:49"), materialize_limit=20)
    assert capped.levels == (1,) and capped.witnesses == {}
    assert capped.rule == "odd-degree-level-one"
    # classify passes its cap through: realcyclo:1019 has degree 509 > 64
    big = classify(make_field("realcyclo:1019"))
    assert big.levels == (1,) and big.witnesses == {}
    assert classify(make_field("realcyclo:1019"), materialize_limit=0).witnesses == {}


def test_mod_odd_degree_rejects_even():
    with pytest.raises(SpecError):
        mod_odd_degree(make_field("quad:+5"))
    with pytest.raises(SpecError):
        mod_odd_degree(make_field("realcyclo:13"))


# --------------------------------------------------------------------------
# rescaling
# --------------------------------------------------------------------------

def test_rescale_real_quadratic():
    witness = mod_quadratic(make_field("quad:+5")).witness_for(5)
    out = rescale(witness, 2)
    assert out.level == 20
    assert out.ideal.to_string() == "(2)"
    field = witness.field
    assert out.alpha == field.one() / 2
    assert out.beta == witness.beta * 2
    # totally real: no coprimality restriction (shares the prime 5)
    assert rescale(witness, 5).level == 125


def test_rescale_cm_coprimality():
    witness = mod_quadratic(make_field("quad:-3")).witness_for(3)
    assert rescale(witness, 2).level == 12
    with pytest.raises(SpecError):
        rescale(witness, 3)
    with pytest.raises(SpecError):
        rescale(witness, 6)


def test_rescale_identity_and_validation():
    witness = mod_quadratic(make_field("quad:+5")).witness_for(5)
    assert rescale(witness, 1) is witness
    with pytest.raises(SpecError):
        rescale(witness, 0)
    with pytest.raises(SpecError):
        rescale(witness, -2)


def test_rescale_composes():
    witness = mod_quadratic(make_field("quad:-3")).witness_for(3)
    once = rescale(rescale(witness, 2), 5)
    assert once.level == 300
    assert once.beta == witness.beta * 10


# --------------------------------------------------------------------------
# witness invariants are enforced
# --------------------------------------------------------------------------

def test_witness_rejects_wrong_level():
    field = make_field("quad:+5")
    with pytest.raises(InternalInconsistency):
        ConstructionWitness(2, field.one(), field.one(),
                            IdealRecipe.parse(field, ""))


def test_witness_rejects_nonpositive_alpha():
    field = make_field("quad:+5")
    bad_alpha = field.gen() - field.rational(2)  # negative at one embedding
    with pytest.raises(InternalInconsistency):
        ConstructionWitness(1, field.one(), bad_alpha,
                            IdealRecipe.parse(field, ""))


def test_witness_rejects_wrong_ideal():
    field = make_field("quad:+2")
    beta = field.gen()  # sqrt 2, level 2
    with pytest.raises(InternalInconsistency):
        # correct recipe is P2^-1; the ring fails the ideal identity
        ConstructionWitness(2, beta, field.one(), IdealRecipe.parse(field, ""))


def test_verdict_validation():
    with pytest.raises(SpecError):
        ExistenceVerdict("quad:+5", True, (4,), {}, "tag")  # not square-free
    with pytest.raises(SpecError):
        ExistenceVerdict("quad:+5", True, (1,), {2: None}, "tag")


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------

def test_classify_dispatch():
    assert classify(make_field("quad:-3")).rule == "imaginary-quadratic-trace"
    assert classify(make_field("quad:+6")).rule == "real-quadratic-trace"
    assert classify(make_field("realcyclo:13")).rule == "prime-power-trace-type"
    assert classify(make_field("realcyclo:13"), trace_type=False).rule == \
        "prime-power-modular"
    assert classify(make_field("realcyclo:28")).rule == "composite-conductor-trace"
    assert classify(make_field("realcyclo:7")).rule == "odd-degree-level-one"
    assert classify(make_field("realcyclo:49")).rule == "odd-degree-level-one"
    with pytest.raises(SpecError):
        classify(make_field("cyclo:12"))
    with pytest.raises(SpecError):
        classify(make_field("realcyclo:16"))
    with pytest.raises(SpecError):
        classify("quad:+5")
    # only the trace type is classified for composite conductors
    with pytest.raises(SpecError):
        classify(make_field("realcyclo:28"), trace_type=False)


def test_classify_consistency_across_families():
    # realcyclo:12 is Q(sqrt 3): same level and same witness ideal as quad:+3
    v_rc = classify(make_field("realcyclo:12"))
    v_q = classify(make_field("quad:+3"))
    assert v_rc.levels == v_q.levels == (3,)
    assert v_rc.witnesses[3].ideal.to_string() == \
        v_q.witnesses[3].ideal.to_string() == "P2^-1"
    # realcyclo:5 is Q(sqrt 5): trace-type {5} both ways
    assert classify(make_field("realcyclo:5")).levels == \
        classify(make_field("quad:+5")).levels == (5,)


# --------------------------------------------------------------------------
# brute-force agreement (negative completeness at desk scale)
# --------------------------------------------------------------------------

BRUTE_FIELDS = [
    "quad:+2", "quad:+3", "quad:+5", "quad:+6", "quad:+7", "quad:+10",
    "realcyclo:5", "realcyclo:7", "realcyclo:9", "realcyclo:12",
    "realcyclo:13", "realcyclo:17", "realcyclo:21", "realcyclo:24",
    "realcyclo:28", "realcyclo:36",
    # a fixed draw from the real cyclotomic fields of conductor <= 129 and
    # degree <= 64 (2^r excluded, as it is refused): primes, prime powers
    # and composites, ~2 s together with the different's closed-form check;
    # all 90 such fields agree, in ~8 s (the CI step)
    "realcyclo:40", "realcyclo:45", "realcyclo:60", "realcyclo:65",
    "realcyclo:81", "realcyclo:84", "realcyclo:88", "realcyclo:92",
    "realcyclo:97", "realcyclo:100", "realcyclo:105", "realcyclo:108",
    "realcyclo:113", "realcyclo:120", "realcyclo:125", "realcyclo:127",
]


@pytest.mark.parametrize("spec", BRUTE_FIELDS)
def test_trace_type_bruteforce_agreement(spec):
    field = make_field(spec)
    verdict = classify(field, trace_type=True)
    _, omega_even = omega_sets(field)
    bound = 1
    for p in omega_even:
        bound *= p
    expected = {lev for lev in squarefree_divisors(bound)
                if (field.degree % 2 == 0 or lev == 1)
                and trace_exists_bruteforce(field, lev)}
    assert set(verdict.levels) == expected, spec
    # the different (f'(theta)) is checked against its closed form
    # prod_p J_p^(d_p) here, as no pipeline builds the different
    assert different(field).norm() == abs(field.discriminant())
