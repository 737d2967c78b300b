"""Ideal arithmetic tests with independent oracles.

Oracles used here, deliberately distinct from the implementation paths:
  * element norms through the multiplication-matrix determinant (fields)
    versus ideal norms through the HNF determinant (ideals);
  * the definitional nilradical property x^(p^s) in pO_K for radicals,
    versus the Frobenius-kernel construction;
  * the Galois identity J_p^(e_p) = (p);
  * the definitional dual property Tr(alpha * d_i * conj(a_j)) = delta_ij,
    versus the Gram-inversion construction;
  * trace duals recomputed through pure ideal arithmetic
    (alpha^-1 * codifferent * conj(A)^-1).
"""

import random
from fractions import Fraction

import pytest

from arakelov.fields import FieldMismatch, NotRamified, SpecError, make_field
from arakelov.ideals import (
    FractionalIdeal,
    IdealRecipe,
    Unsupported,
    ZeroIdeal,
    codifferent,
    conj_ideal,
    different,
    gamma_element,
    ideal_inverse,
    ideal_mul,
    ideal_pow,
    principal,
    radical_above,
    realize,
    trace_dual,
    trace_dual_via_inverse,
    valuation,
)
from arakelov.linalg import FormError


def random_element(field, rng, span=4):
    while True:
        coeffs = [rng.randint(-span, span) for _ in range(field.degree)]
        x = field.element(coeffs)
        if not x.is_zero:
            return x


def random_ideal(field, rng):
    p = rng.choice(sorted(field.omega()))
    k = rng.choice([-2, -1, 1, 2])
    return ideal_mul(ideal_pow(radical_above(field, p), k),
                     principal(random_element(field, rng)))


# --------------------------------------------------------------------------
# canonical form and membership
# --------------------------------------------------------------------------

def test_ring_ideal_is_identity_lattice():
    field = make_field("quad:+5")
    ring = FractionalIdeal.ring(field)
    assert ring.num == ((1, 0), (0, 1))
    assert ring.den == 1
    assert ring.norm() == 1
    assert ring.is_ring()


def test_canonicalization_is_representation_equality():
    field = make_field("quad:+5")
    theta = field.gen()
    a = FractionalIdeal.from_rows(field, [field.one().coeffs, theta.coeffs])
    b = FractionalIdeal.from_rows(
        field, [x.coeffs for x in (theta, field.one() + theta, field.rational(7))])
    assert a == b  # same module, different generators
    assert hash(a) == hash(b)


def test_denominator_is_minimal():
    field = make_field("quad:+5")
    half = principal(field.rational(Fraction(1, 2)))
    assert half.den == 2
    doubled = ideal_mul(half, principal(field.rational(2)))
    assert doubled.is_ring()
    assert doubled.den == 1


def test_zero_and_rank_deficiency_rejected():
    field = make_field("quad:+5")
    with pytest.raises(ZeroIdeal):
        principal(field.zero())
    with pytest.raises(ZeroIdeal):
        FractionalIdeal.from_rows(field, [field.one().coeffs, field.rational(3).coeffs])
    with pytest.raises(TypeError):
        principal(3)


def test_contains_and_submodule():
    field = make_field("quad:+2")
    theta = field.gen()
    j2 = radical_above(field, 2)  # = (sqrt 2)
    assert j2.contains(theta)
    assert j2.contains(field.rational(2))
    assert not j2.contains(field.one())
    ring = FractionalIdeal.ring(field)
    assert all(ring.contains(x) for x in j2.basis_elements())
    assert not all(j2.contains(x) for x in ring.basis_elements())


def test_field_mismatch_between_ideals():
    a = FractionalIdeal.ring(make_field("quad:+5"))
    b = FractionalIdeal.ring(make_field("quad:+2"))
    with pytest.raises(FieldMismatch):
        ideal_mul(a, b)


# --------------------------------------------------------------------------
# principal ideals: norm oracle through element norms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["quad:+5", "quad:-3", "realcyclo:13", "cyclo:7"])
def test_principal_norm_matches_element_norm(spec):
    field = make_field(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(6):
        x = random_element(field, rng)
        assert principal(x).norm() == abs(x.norm())


def test_principal_multiplicativity():
    field = make_field("realcyclo:13")
    rng = random.Random(77)
    x, y = random_element(field, rng), random_element(field, rng)
    assert ideal_mul(principal(x), principal(y)) == principal(x * y)


# --------------------------------------------------------------------------
# radicals above ramified primes
# --------------------------------------------------------------------------

RADICAL_CASES = [
    ("quad:+2", 2, 2),       # norm 2
    ("quad:+5", 5, 5),
    ("quad:-1", 2, 2),
    ("quad:-3", 3, 3),
    ("realcyclo:13", 13, 13),
    ("realcyclo:28", 2, 8),  # f = 3: norm 2^3
    ("realcyclo:28", 7, 7),
    ("realcyclo:36", 2, 8),
    ("realcyclo:36", 3, 3),
    ("cyclo:7", 7, 7),
    ("cyclo:12", 2, 4),      # e = 2, f*g = 2
    ("cyclo:12", 3, 9),
]


@pytest.mark.parametrize("spec,p,nrm", RADICAL_CASES)
def test_radical_norms(spec, p, nrm):
    field = make_field(spec)
    assert radical_above(field, p).norm() == nrm


@pytest.mark.parametrize("spec,p", [(s, p) for s, p, _ in RADICAL_CASES])
def test_radical_is_nilradical_preimage(spec, p):
    """Definitional oracle: J_p contains pO_K and each basis element
    becomes 0 in O_K/p after p^s-th powering (p^s >= degree)."""
    field = make_field(spec)
    j = radical_above(field, p)
    ring = FractionalIdeal.ring(field)
    p_ring = principal(field.rational(p))
    assert all(j.contains(x) for x in p_ring.basis_elements())
    assert all(ring.contains(x) for x in j.basis_elements())
    ps = 1
    while ps < field.degree:
        ps *= p
    for x in j.basis_elements():
        assert p_ring.contains(x ** ps)


@pytest.mark.parametrize("spec,p", [(s, p) for s, p, _ in RADICAL_CASES])
def test_radical_power_is_p_galois_identity(spec, p):
    field = make_field(spec)
    e = field.ramification_index(p)
    assert ideal_pow(radical_above(field, p), e) == principal(field.rational(p))


def test_radical_unramified_prime_rejected():
    field = make_field("quad:+5")
    with pytest.raises(NotRamified):
        radical_above(field, 3)
    with pytest.raises(NotRamified):
        radical_above(make_field("realcyclo:28"), 3)


# --------------------------------------------------------------------------
# trace duals, codifferent, different
# --------------------------------------------------------------------------

def test_trace_dual_definitional_pairing():
    """The canonical basis of the dual need not be the Gram-inverse basis,
    but the pairing matrix Tr(alpha * d_i * conj(a_j)) must be an integer
    matrix of determinant +-1: that is exactly 'same lattice as the dual'."""
    from arakelov.linalg import det as int_det
    field = make_field("realcyclo:13")
    rng = random.Random(5)
    a = random_ideal(field, rng)
    alpha = field.one() + field.gen() ** 2  # 1 + theta^2 > 0 everywhere
    d = trace_dual(a, alpha)
    basis = a.basis_elements()
    duals = d.basis_elements()
    pairing = []
    for di in duals:
        row = []
        for aj in basis:
            t = (alpha * di * aj.conj()).trace()
            assert t.denominator == 1
            row.append(int(t))
        pairing.append(row)
    assert abs(int_det(pairing)) == 1


def test_trace_dual_requires_totally_positive_alpha():
    field = make_field("quad:+5")
    ring = FractionalIdeal.ring(field)
    with pytest.raises(FormError):
        trace_dual(ring, field.gen() - field.rational(2))  # (1+sqrt5)/2 - 2 < 0
    with pytest.raises(FormError):
        trace_dual(ring, field.zero())
    with pytest.raises(FieldMismatch):
        trace_dual(ring, make_field("quad:+2").one())


KNOWN_ABS_DISC = {
    "quad:+5": 5, "quad:+2": 8, "quad:+3": 12, "quad:-1": 4, "quad:-3": 3,
    "cyclo:7": 7 ** 5, "realcyclo:7": 49, "cyclo:5": 125, "realcyclo:13": 13 ** 5,
}


@pytest.mark.parametrize("spec,absdisc", sorted(KNOWN_ABS_DISC.items()))
def test_codifferent_norm_is_inverse_discriminant(spec, absdisc):
    field = make_field(spec)
    assert codifferent(field).norm() == Fraction(1, absdisc)


def test_codifferent_explicit_sqrt5():
    field = make_field("quad:+5")
    assert codifferent(field) == principal(field.sqrt_disc_element().inverse())


def test_different_times_codifferent_is_ring():
    for spec in ["quad:+5", "quad:-1", "realcyclo:28", "cyclo:12"]:
        field = make_field(spec)
        assert ideal_mul(different(field), codifferent(field)).is_ring()


@pytest.mark.parametrize("spec", ["quad:+5", "quad:+2", "quad:-3", "quad:-2",
                                  "realcyclo:13", "realcyclo:28", "realcyclo:36",
                                  "cyclo:7", "cyclo:12"])
def test_different_valuation_closed_form_matches_codifferent(spec):
    field = make_field(spec)
    cd = codifferent(field)
    for p in sorted(field.omega()):
        assert valuation(cd, p) == -field.different_exponent(p)


def test_different_data_shape():
    field = make_field("realcyclo:28")
    exponents = {p: field.different_exponent(p) for p in field.omega()}
    assert exponents == {2: 2, 7: 5}
    cd = codifferent(field)
    assert cd.field is field
    assert cd == trace_dual(FractionalIdeal.ring(field), field.one())


def test_ideal_inverse_roundtrip():
    rng = random.Random(13)
    for spec in ["quad:+5", "quad:-3", "realcyclo:13", "cyclo:12"]:
        field = make_field(spec)
        a = random_ideal(field, rng)
        assert ideal_mul(a, ideal_inverse(a)).is_ring()


def test_trace_dual_two_path_crosscheck_and_biduality():
    rng = random.Random(19)
    for spec in ["quad:+5", "quad:-3", "realcyclo:28"]:
        field = make_field(spec)
        alpha = field.rational(1) if spec != "quad:+5" else \
            field.rational(2) + field.gen()  # (5+sqrt5)/2: totally positive
        for _ in range(4):
            a = random_ideal(field, rng)
            d1 = trace_dual(a, alpha)
            d2 = trace_dual_via_inverse(a, alpha)
            assert d1 == d2
            assert trace_dual(d1, alpha) == a


# --------------------------------------------------------------------------
# valuations
# --------------------------------------------------------------------------

def test_valuation_basics():
    field = make_field("realcyclo:28")
    j7 = radical_above(field, 7)
    assert valuation(j7, 7) == 1
    assert valuation(j7, 2) == 0
    assert valuation(ideal_pow(j7, -3), 7) == -3
    assert valuation(principal(field.rational(14)), 2) == 2  # e_2 = 2
    assert valuation(principal(field.rational(14)), 7) == 6  # e_7 = 6


def test_valuation_additivity_random():
    field = make_field("realcyclo:28")
    rng = random.Random(23)
    for _ in range(4):
        a, b = random_ideal(field, rng), random_ideal(field, rng)
        for p in (2, 7):
            assert valuation(ideal_mul(a, b), p) == valuation(a, p) + valuation(b, p)


def test_valuation_unramified_rejected():
    field = make_field("quad:+5")
    with pytest.raises(NotRamified):
        valuation(FractionalIdeal.ring(field), 3)


def test_valuation_unequal_exponents_unsupported():
    # In cyclo:28 there are two primes above 2 (e=2, f=3, g=2); the lift of
    # one mod-2 factor of the minimal polynomial meets only one of them.
    field = make_field("cyclo:28")
    x = field.element([1, 1, 0, 1] + [0] * 8)  # 1 + z + z^3
    with pytest.raises(Unsupported):
        valuation(principal(x), 2)  # norm valuation 3, f*g = 6
    with pytest.raises(Unsupported):
        valuation(principal(x * x), 2)  # divisible norm, exponents (2, 0)


# --------------------------------------------------------------------------
# conjugation
# --------------------------------------------------------------------------

def test_conj_ideal_properties():
    field = make_field("cyclo:28")
    rng = random.Random(31)
    x = random_element(field, rng)
    assert conj_ideal(principal(x)) == principal(x.conj())
    assert conj_ideal(radical_above(field, 2)) == radical_above(field, 2)
    real = make_field("realcyclo:28")
    a = random_ideal(real, rng)
    assert conj_ideal(a) == a  # totally real: conjugation is trivial


# --------------------------------------------------------------------------
# distinguished generators
# --------------------------------------------------------------------------

def test_gamma_element_prime_power_generates_radical():
    field = make_field("realcyclo:13")
    g = gamma_element(field, 13)
    assert principal(g) == radical_above(field, 13)
    from arakelov.fields import is_totally_positive
    assert is_totally_positive(g)


def test_gamma_element_non_prime_power_valuations():
    # For composite conductors the gamma element generates J_p^e(L/Q(zeta_q)+),
    # not the radical itself: at n=28 and p=2 it is simply (2) = J_2^2.
    field = make_field("realcyclo:28")
    assert principal(gamma_element(field, 2)) == principal(field.rational(2))
    assert valuation(principal(gamma_element(field, 7)), 7) == 2


def test_gamma_element_cyclotomic_and_errors():
    # In the CM field the conjugation-symmetric product (1-z)(1-z^-1)
    # generates the square of the radical; its descent generates the
    # radical of the real subfield.
    field = make_field("cyclo:7")
    g = gamma_element(field, 7)
    assert principal(g) == ideal_pow(radical_above(field, 7), 2)
    real = make_field("realcyclo:7")
    assert real.lift(gamma_element(real, 7)) == g
    with pytest.raises(SpecError):
        gamma_element(make_field("quad:+5"), 5)


# --------------------------------------------------------------------------
# recipes
# --------------------------------------------------------------------------

def test_recipe_parse_realize_roundtrip():
    field = make_field("realcyclo:28")
    rec = IdealRecipe.parse(field, "P7^-1*P2^-1")
    assert rec.to_string() == "P7^-1*P2^-1"
    a = realize(rec)
    assert a.norm() == Fraction(1, 56)
    assert valuation(a, 7) == -1 and valuation(a, 2) == -1
    # order independence of the canonical result
    assert realize(IdealRecipe.parse(field, "P2^-1*P7^-1")) == a


def test_recipe_principal_factors():
    field = make_field("realcyclo:13")
    rec = IdealRecipe.parse(field, "(3)*P13^2")
    assert realize(rec) == ideal_mul(principal(field.rational(3)),
                                     ideal_pow(radical_above(field, 13), 2))
    assert rec.to_string() == "(3)*P13^2"
    rec2 = IdealRecipe.parse(field, "(1/2)^2")
    assert realize(rec2) == principal(field.rational(Fraction(1, 4)))
    rec3 = IdealRecipe.parse(field, "([0,1,0,0,0,0])")
    assert realize(rec3) == principal(field.gen())
    assert IdealRecipe.parse(field, rec3.to_string()) == rec3


def test_recipe_empty_is_ring():
    field = make_field("quad:+5")
    assert realize(IdealRecipe.parse(field, "")).is_ring()
    assert realize(IdealRecipe.parse(field, "O_K")).is_ring()


def test_recipe_errors():
    field = make_field("realcyclo:13")
    for bad in ["P4", "P13^x", "Q13", "(3", "([1,2)", "P13^0", "(nope)"]:
        with pytest.raises((SpecError, ZeroIdeal)):
            IdealRecipe.parse(field, bad)
    with pytest.raises(SpecError):
        IdealRecipe.parse(field, "([0])")  # wrong coefficient count
    with pytest.raises(NotRamified):
        realize(IdealRecipe.parse(field, "P3"))  # 3 is unramified here
