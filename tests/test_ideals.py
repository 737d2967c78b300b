"""Ideal arithmetic tests with independent oracles.

Oracles used here, deliberately distinct from the implementation paths:
  * element norms through the multiplication-matrix determinant (fields)
    versus ideal norms through the HNF determinant (ideals);
  * the definitional nilradical property x^(p^s) in pO_K for radicals,
    versus the Frobenius-kernel construction;
  * the Galois identity J_p^(e_p) = (p);
  * radical powers in the normal form p^a * (g^b) * J_p^r versus the
    generic module power of J_p held as rows only;
  * the definitional dual property Tr(alpha * d_i * conj(a_j)) = delta_ij,
    versus the Gram-inversion construction;
  * trace duals recomputed through pure ideal arithmetic
    (alpha^-1 * codifferent * conj(A)^-1);
  * the Gram solve on an ideal held as rows only, versus the one-element
    dual of a principal ideal and the f'(theta) codifferent;
  * the same generator rows Hermite-reduced modulo the determinant,
    versus the reduction modulo an integer of the module.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arakelov import ideals
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
    _certified_hnf,
    _euler_certificate,
    _least_integer,
)
from arakelov.linalg import FormError, hnf_mod_d, nullspace_mod_p, transpose


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


def _theta_power_mod(field, k, p):
    """Coefficients of theta^k in O_K/p, reduced one shift at a time."""
    m = field.degree
    mp_ = [c % p for c in field.minpoly]
    cur = [1 % p] + [0] * (m - 1)
    for _ in range(k):
        top = cur[m - 1]
        cur = [0] + cur[: m - 1]
        if top:
            for j in range(m):
                cur[j] = (cur[j] - top * mp_[j]) % p
    return cur


@pytest.mark.parametrize("spec,p", [(s, p) for s, p, _ in RADICAL_CASES]
                         + [("realcyclo:97", 97), ("cyclo:25", 5), ("realcyclo:121", 11)])
def test_radical_matches_frobenius_rows_by_shifts(spec, p):
    """The Frobenius matrix with rows theta^(j*p) reduced one shift at a
    time, powered j times with p^j >= degree, gives the same radical as
    the powers of the one element theta^(p^j) mod p."""
    field = make_field(spec)
    m = field.degree
    frob = [_theta_power_mod(field, j * p, p) for j in range(m)]
    power, ps = frob, p
    while ps < m:
        power = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*frob)]
                 for row in power]
        ps *= p
    kernel = nullspace_mod_p(transpose(power), p)
    assert radical_above(field, p).num == tuple(tuple(r) for r in hnf_mod_d(kernel, p))


@pytest.mark.parametrize("spec,p", [(s, p) for s, p, _ in RADICAL_CASES])
def test_radical_power_is_p_galois_identity(spec, p):
    field = make_field(spec)
    e = field.ramification_index(p)
    assert ideal_pow(radical_above(field, p), e) == principal(field.rational(p))


RADICAL_POWER_SPECS = ["quad:+6", "quad:-7", "cyclo:12", "realcyclo:25",
                       "realcyclo:28", "realcyclo:105"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RADICAL_POWER_SPECS), st.data())
def test_radical_power_normal_form_is_the_generic_power(spec, data):
    """J_p^k = (g^q) * J_p^r, k = q*s + r, equals the generic power of J_p
    held as rows only: repeated module products and, for k < 0, the
    trace-dual module inverse."""
    field = make_field(spec)
    p = data.draw(st.sampled_from(field.omega()), label="p")
    e = field.ramification_index(p)
    k = data.draw(st.integers(-2 * e, 2 * e), label="k")
    radical = radical_above(field, p)
    rows_only = FractionalIdeal(field, radical.num, radical.den)
    recipe = IdealRecipe(field, [("radical", p, k)] if k else [])
    assert realize(recipe) == ideal_pow(rows_only, k)


# (spec, p): s = 1 on prime-power conductors and cyclo:9, s = 2 on the
# composite conductors 28 and 92
NORMAL_FORM_CASES = [("realcyclo:13", 13), ("realcyclo:25", 5), ("cyclo:9", 3),
                     ("realcyclo:28", 2), ("realcyclo:28", 7),
                     ("realcyclo:92", 2), ("realcyclo:92", 23)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(NORMAL_FORM_CASES), st.data())
def test_normal_form_realize_is_the_ideal_pow_reference(case, data):
    """J_p^k with (g^q) = p^a * (g^b), q = a*t + b, 0 <= b < t, t = e_p/s,
    has the rows of the generic power of J_p held as rows only, for k in
    [-3t, 3t]; its generator is p^a * g^b, so no negative power of g is
    formed, and gen * (inverse generator) is a unit."""
    spec, p = case
    field = make_field(spec)
    power, s = ideals._principal_radical(field, p)
    g, t = power._gen, field.ramification_index(p) // s
    k = data.draw(st.integers(-3 * t, 3 * t), label="k")
    radical = radical_above(field, p)
    ideal = realize(IdealRecipe(field, [("radical", p, k)] if k else []))
    reference = ideal_pow(FractionalIdeal(field, radical.num, radical.den), k)
    assert (ideal.num, ideal.den) == (reference.num, reference.den)
    G, _ = ideals._factored(IdealRecipe(field, [("radical", p, k)] if k else []))
    a, b = divmod(k // s, t)
    assert G._gen == g ** b * Fraction(p) ** a
    unit = G._gen * ideals._inverse_generator(G)
    assert unit.den == 1 and abs(unit.norm()) == 1


@st.composite
def principal_expressions(draw):
    """A principal ideal from a random element or radical power, then one
    to four random steps: a product with another such ideal, a power, the
    conjugate, the inverse or the trace dual."""
    field = make_field(draw(st.sampled_from(["realcyclo:13", "realcyclo:28",
                                             "cyclo:9", "quad:-7", "quad:+6"])))

    def leaf():
        if draw(st.booleans()):
            p = draw(st.sampled_from(field.omega()))
            q = draw(st.integers(-6, 6))
            return ideals._normal_power(field, p, q) if q else FractionalIdeal.ring(field)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=field.degree,
                               max_size=field.degree))
        coeffs[0] += not any(coeffs)
        return principal(field.element(coeffs))

    ideal = leaf()
    for op in draw(st.lists(st.sampled_from(["mul", "pow", "conj", "inverse", "dual"]),
                            min_size=1, max_size=4)):
        if op == "mul":
            ideal = ideal_mul(ideal, leaf())
        elif op == "pow":
            ideal = ideal_pow(ideal, draw(st.sampled_from([-3, -2, -1, 2, 3])))
        elif op == "conj":
            ideal = conj_ideal(ideal)
        elif op == "inverse":
            ideal = ideal_inverse(ideal)
        else:
            ideal = trace_dual(ideal, field.one())
    return ideal


@settings(max_examples=80, deadline=None)
@given(principal_expressions())
def test_inverse_generator_times_generator_is_a_unit(ideal):
    """The generator of A^-1 that a principal A keeps, pending or formed,
    is a unit multiple of 1/gen: gen * h is integral of norm +-1."""
    assert ideal._gen is not None
    unit = ideal._gen * ideals._inverse_generator(ideal)
    assert unit.den == 1 and abs(unit.norm()) == 1


def _rows_only(ideal):
    """The same module with no generator attached."""
    return FractionalIdeal(ideal.field, ideal.num, ideal.den)


def _row_reference(recipe):
    """realize(recipe) on rows alone: generic powers of each radical held
    as rows only, times the shift-row modules of the principal powers."""
    field = recipe.field
    out = FractionalIdeal.ring(field)
    for kind, payload, k in recipe.factors:
        if kind == "radical":
            power = ideal_pow(_rows_only(radical_above(field, payload)), k)
        else:
            x = payload ** k
            power = FractionalIdeal.from_rows(
                field, [(x * w).coeffs for w in field.power_basis()])
        out = ideal_mul(out, power)
    return out


# prime-power (s = 1) and composite (s = 2) conductors, quad:+-d (s = 2)
# and CM fields, whose principal factors need not be real
FACTORED_SPECS = ["realcyclo:13", "realcyclo:25", "realcyclo:21", "realcyclo:28",
                  "realcyclo:60", "quad:+6", "quad:+5", "quad:-5", "quad:-7",
                  "cyclo:12", "cyclo:9"]


@st.composite
def factored_recipes(draw):
    field = make_field(draw(st.sampled_from(FACTORED_SPECS)))
    factors = [("radical", p, k) for p in field.omega()
               if (k := draw(st.integers(-3, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=field.degree,
                               max_size=field.degree).filter(any))
        factors.append(("principal", field.element(coeffs),
                        draw(st.sampled_from([-2, -1, 1, 2]))))
    return IdealRecipe(field, factors)


@settings(max_examples=60, deadline=None)
@given(factored_recipes())
def test_factored_form_matches_the_row_products(recipe):
    """realize(recipe) = G * prod_S J_p equals the product of rows-only
    powers, and G * conj(G) * prod_S J_p^2, with J_p^2 = (g_p), equals
    I * conj(I) formed on rows."""
    field = recipe.field
    G, S = ideals._factored(recipe)
    assert G._gen is not None
    assert all(ideals._principal_radical(field, p)[1] == 2 for p in S)
    reference = _row_reference(recipe)
    assert realize(recipe) == reference
    square = ideal_mul(G, conj_ideal(G))
    for p in S:
        square = ideal_mul(square, ideals._principal_radical(field, p)[0])
    assert square._gen is not None
    assert square == ideal_mul(reference, conj_ideal(reference))


# composite conductors, every ramified prime with s = 2; realcyclo:105 and
# :140 have three ramified primes, realcyclo:344 has degree 84
RADICAL_PRODUCT_SPECS = ["realcyclo:60", "realcyclo:84", "realcyclo:105",
                         "realcyclo:140", "realcyclo:344"]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(RADICAL_PRODUCT_SPECS), st.data())
def test_radical_product_is_the_chained_row_product(spec, data):
    """prod_S J_p from |S|*m rows reduced modulo prod_S p has the rows of
    the chained generic ideal_mul of the rows-only radicals."""
    field = make_field(spec)
    S = sorted(data.draw(st.sets(st.sampled_from(field.omega()), min_size=2),
                         label="S"))
    chained = FractionalIdeal.ring(field)
    for p in S:
        chained = ideal_mul(chained, _rows_only(radical_above(field, p)))
    product = ideals._radical_product(field, S)
    assert (product.num, product.den) == (chained.num, chained.den)
    assert product.norm() == prod(radical_above(field, p).norm() for p in S)


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
    # O_K held as rows only, with no generator, takes the Gram route: the
    # reference for the f'(theta) generator of the codifferent
    ring_rows = FractionalIdeal(field, FractionalIdeal.ring(field).num, 1)
    assert ring_rows._gen is None
    assert cd == trace_dual(ring_rows, field.one())


@pytest.mark.parametrize("spec", ["quad:+5", "quad:-7", "quad:+6", "cyclo:12",
                                  "cyclo:9", "realcyclo:13", "realcyclo:28"])
def test_euler_certificate_rejects_a_wrong_generator(spec):
    field = make_field(spec)
    g = codifferent(field)._gen
    _euler_certificate(field, g)  # 1/f'(theta) itself passes
    fprime = g.inverse()
    for wrong in (2 * g, g / 2, (fprime + 1).inverse(), g + 1):
        with pytest.raises(ArithmeticError):
            _euler_certificate(field, wrong)


HYP_SPECS = ["quad:+2", "quad:+5", "quad:+13", "quad:-1", "quad:-3", "quad:-7",
             "quad:-10", "cyclo:5", "cyclo:7", "cyclo:9", "cyclo:12",
             "realcyclo:7", "realcyclo:13", "realcyclo:15", "realcyclo:20",
             "realcyclo:28"]
_HYP_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYP_SPECS), st.data())
def test_principal_trace_dual_is_the_gram_route(spec, data):
    """trace_dual of (g) is one element; the same module held as rows only
    goes through the Gram solve.  Both agree, and both are bidual."""
    field = make_field(spec)
    vec = st.lists(_HYP_COEFF, min_size=field.degree, max_size=field.degree)
    g = field.element(data.draw(vec))
    x = field.element(data.draw(vec))
    assume(not g.is_zero and not x.is_zero)
    # x * conj(x) is totally positive; a nonnegative rational keeps it so
    alpha = x * x.conj() + data.draw(st.integers(0, 3))
    a = principal(g)
    a_rows = FractionalIdeal(field, a.num, a.den)
    d_gen = trace_dual(a, alpha)
    d_rows = trace_dual(a_rows, alpha)
    assert d_gen._gen is not None and d_rows._gen is None
    assert d_gen == d_rows
    bidual = trace_dual(d_gen, alpha)
    assert (bidual.num, bidual.den) == (a.num, a.den)
    assert trace_dual(d_rows, alpha) == a_rows


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
# reduction modulo the least integer
# --------------------------------------------------------------------------

LEAST_INTEGER_SPECS = ["realcyclo:9", "realcyclo:13", "realcyclo:25",
                       "realcyclo:15", "realcyclo:20", "realcyclo:28",
                       "cyclo:7", "cyclo:9", "cyclo:12",
                       "quad:+5", "quad:+6", "quad:-3", "quad:-7"]


def _pivots(rows):
    return prod(row[i] for i, row in enumerate(rows))


def _determinant_route(field, rows, d_det, den):
    """The ideal of integer rows over den, Hermite-reduced modulo its
    exact determinant d_det, and the integer HNF itself."""
    w = hnf_mod_d(rows, d_det)
    return FractionalIdeal.from_rows(
        field, [[Fraction(e, den) for e in row] for row in w]), w


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(LEAST_INTEGER_SPECS), st.data())
def test_least_integer_moduli_match_the_determinant_route(spec, data):
    """Every ideal HNF reduced modulo an integer of its module -- principal
    rows, principal times rows, rows times rows, the conjugate -- equals
    the reduction modulo the exact determinant; principal rows use the
    least integer l((u)) = h_00 itself, the products a multiple of it."""
    field = make_field(spec)
    m = field.degree
    vec = st.lists(_HYP_COEFF, min_size=m, max_size=m).filter(any)
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    def element():
        if data.draw(st.booleans()):
            return field.rational(data.draw(rational))
        return field.element(data.draw(vec))

    def rows_only():
        """x * J_p from the m rows x * b_i over a basis b_i of the radical:
        an O_K-module with no generator."""
        x = element()
        radical = radical_above(field, data.draw(st.sampled_from(sorted(field.omega()))))
        return FractionalIdeal.from_rows(
            field, [(x * b).coeffs for b in radical.basis_elements()])

    moduli = []

    def recorded(rows, d):
        moduli.append(d)
        return hnf_mod_d(rows, d)

    g, a, b = element(), rows_only(), rows_only()
    assert a._gen is None and b._gen is None
    # the module (or its canonical rows) each call site builds, with the
    # integer rows, exact determinant and denominator of the old route
    cases = [
        (lambda: principal(g),
         field._mul_rows(list(g.num)),
         g.den ** m * abs(g.norm()), g.den),
        (lambda: ideal_mul(principal(g), a),
         [field._mul_coeffs(g.num, row) for row in a.num],
         g.den ** m * abs(g.norm()) * _pivots(a.num), g.den * a.den),
        (lambda: ideal_mul(a, b),
         [field._mul_coeffs(x, y) for x in a.num for y in b.num],
         _pivots(a.num) * _pivots(b.num), a.den * b.den),
        (lambda: conj_ideal(a),
         [field._conj_num(row) if field.is_cm else row for row in a.num],
         _pivots(a.num), a.den),
    ]
    for i, (run, rows, d_det, den) in enumerate(cases):
        want, w = _determinant_route(field, rows, int(d_det), den)
        ideals.hnf_mod_d = recorded
        try:
            moduli.clear()
            got = run()
            got_rows = (got.num, got.den)
        finally:
            ideals.hnf_mod_d = hnf_mod_d
        assert got_rows == (want.num, want.den)
        # the HNF's first row is (h_00, 0, ..., 0), so the module meets Z in
        # h_00*Z; a call site that took a shortcut made no reduction
        assert all(d % w[0][0] == 0 for d in moduli)
        if i == 0:
            assert moduli == [w[0][0]] == [_least_integer(principal(g))]


@pytest.mark.parametrize("k", range(1, 14))
def test_least_integer_of_a_ramified_prime_power(k):
    """13 is totally ramified in realcyclo:13 (degree 6) with P = (gamma)
    and P^6 = (13), so P^k meets Z in 13^ceil(k/6), many bits below its
    determinant 13^k."""
    field = make_field("realcyclo:13")
    g = gamma_element(field, 13) ** k
    ell = 13 ** -(-k // 6)
    assert _least_integer(principal(g)) == ell
    # the normal form 13^a * gamma^b of the same power reads its inverse
    # generator gamma^(6-b) / 13^(a+1), a unit multiple of 1/g
    normal = realize(IdealRecipe.parse(field, f"P13^{k}"))
    assert _least_integer(normal) == ell
    ideal = principal(field.element(g.coeffs))
    assert ideal.num[0][0] == ell and ideal.den == 1
    assert _pivots(ideal.num) == ideal.norm() == 13 ** k
    assert (normal.num, normal.den) == (ideal.num, ideal.den)
    # a rational generator: u = den * g is the integer 4
    assert _least_integer(principal(field.rational(Fraction(4, 9)))) == 4


def test_certified_hnf_refuses_a_modulus_outside_the_module():
    """M + d*Z^m is a proper supermodule of M when d is not in M, and its
    smaller pivot product fails the certificate.  P^3 has three pivots 13
    and three pivots 1, P^6 = (13) six pivots 13; the moduli include
    200-bit ones inside and outside the module."""
    field = make_field("realcyclo:13")
    for k in (3, 6):
        rows = field._mul_rows(list((gamma_element(field, 13) ** k).num))
        d_det = 13 ** k
        want = hnf_mod_d(rows, d_det)
        for modulus in (13, 26, 169, 13 * 2 ** 200):  # P^k meets Z in 13*Z
            assert _certified_hnf(rows, modulus, d_det, f"P^{k}") == want
        for modulus in (1, 2, 12, 14, 2 ** 200 + 1):
            with pytest.raises(ArithmeticError, match="lost index"):
                _certified_hnf(rows, modulus, d_det, f"P^{k}")


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
    assert gamma_element(real, 7) == 2 - real.gen()
    with pytest.raises(SpecError):
        gamma_element(make_field("quad:+5"), 5)
    # p must be a prime dividing the conductor
    for spec, p in [("realcyclo:13", 5), ("realcyclo:13", 4), ("cyclo:13", 5), ("cyclo:12", 4)]:
        with pytest.raises(SpecError):
            gamma_element(make_field(spec), p)


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
    # ASCII signs and spaces around factors, exponents and coefficients
    assert IdealRecipe.parse(field, " P13 ^ +2 * (-3/4)^-1 * ([1, -1/2, 0, 0, 0, +2]) ") \
        .to_string() == "P13^2*(-3/4)^-1*([1,-1/2,0,0,0,2])"


def test_recipe_empty_is_ring():
    field = make_field("quad:+5")
    assert realize(IdealRecipe.parse(field, "")).is_ring()
    assert realize(IdealRecipe.parse(field, "O_K")).is_ring()


def test_recipe_errors():
    field = make_field("realcyclo:13")
    # numbers are ASCII: str.isdigit() takes superscripts that int()
    # refuses, int() reads other scripts' digits and underscores, and
    # Fraction() reads decimals and exponent forms of unbounded size
    ascii_only = ["P\u00b9\u00b3^-1", "P\u0661\u0663^-1", "P\uff11\uff13", "P13^-\u0661",
                  "P13^-\u00b9", "P13^-1_0", "P13^", "(1e1000000)", "([1e1000000,0,0,0,0,0])",
                  "(1.5)", "([1.5,0,0,0,0,0])", "(\u0663)", "([\u0661,0,0,0,0,0])",
                  "(1/\u0662)", "(1_0)", "(inf)", "(nan)"]
    for bad in ["P4", "P13^x", "Q13", "(3", "([1,2)", "P13^0", "(nope)"] + ascii_only:
        with pytest.raises((SpecError, ZeroIdeal)):
            IdealRecipe.parse(field, bad)
    with pytest.raises(SpecError):
        IdealRecipe.parse(field, "([0])")  # wrong coefficient count
    with pytest.raises(NotRamified):
        realize(IdealRecipe.parse(field, "P3"))  # 3 is unramified here


def test_recipe_bits_are_estimated_before_realizing(monkeypatch):
    """The estimate is |floor(k/e_p)| * bits(p) per radical plus, per
    principal factor, |k| * max(bits(den), bits(sum_i |num_i| * 2^i)) of
    the base (of its inverse when k < 0) on realcyclo:, and the degree
    once for bases that are not rational; a recipe past RECIPE_BITS_LIMIT
    raises RecipeTooLarge before any radical or power is formed, and one
    at the limit is realized."""
    field = make_field("realcyclo:28")
    e7 = field.ramification_index(7)
    recipe = IdealRecipe.parse(field, "P7^-25*P2^3*(3/2)^-5*([1,5,0,0,0,0])^4")
    # (3/2)^-5 raises 2/3, of bits(3); [1, 5] has 1 + 5 * 2 = 11
    assert ideals._recipe_bits(field, {7: -25, 2: 3}, [
        (payload, k) for kind, payload, k in recipe.factors if kind == "principal"]) \
        == abs(-25 // e7) * 3 + 3 // field.ramification_index(2) * 2 + 5 * 2 + 4 * 4 \
        + field.degree
    limit = ideals.RECIPE_BITS_LIMIT
    assert realize(IdealRecipe.parse(field, f"(2)^{limit // 2}")).norm() == 2 ** (3 * limit)
    for text in [f"(2)^{limit // 2 + 1}", "P2^1000000000", "P7^-1000000000",
                 "([0,1,0,0,0,0])^1000000000", "([1,1,1,1,1,1])^2000"]:
        huge = IdealRecipe.parse(field, text)

        def formed(*args):
            raise AssertionError("a power was formed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "_normal_power", formed)
            mp.setattr(ideals, "ideal_pow", formed)
            with pytest.raises(ideals.RecipeTooLarge) as info:
                realize(huge)
        assert info.value.bits > info.value.limit == limit


# one field per bound B on |sigma(theta)|: realcyclo: (B = 2) up to degree
# 64, cyclo: (B = 1), and quad: (B = isqrt(d) + 1), real and imaginary
_HEIGHT_FIELDS = ["realcyclo:127", "realcyclo:255", "realcyclo:91", "realcyclo:28",
                  "cyclo:128", "cyclo:105", "cyclo:9",
                  "quad:+5", "quad:+199", "quad:-1", "quad:-7"]


@st.composite
def principal_powers(draw):
    """(spec, {i: coordinate}, k): a base with 1-3 nonzero coordinates, so
    monomials such as theta^(m-1) come up, over a denominator of 1-6, and
    0 < |k| <= 8."""
    spec = draw(st.sampled_from(_HEIGHT_FIELDS))
    degree = make_field(spec).degree
    den = draw(st.integers(1, 6))
    coords = {i: Fraction(draw(st.integers(-40, 40).filter(bool)), den)
              for i in draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=3))}
    return spec, coords, draw(st.integers(1, 8)) * draw(st.sampled_from([1, -1]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(principal_powers())
# theta^(m-1) to small powers: their coefficients pass |k| times the
# embedding bits by 15 bits, in degrees 63 and 64
@example(case=("realcyclo:127", {62: 1}, 5))
@example(case=("realcyclo:255", {63: 1}, 4))
def test_recipe_bits_bound_the_realized_principal_power(case):
    """The coefficient bits of the generator that realizing a principal
    power raises, x^k or (1/x)^|k|, its largest numerator coordinate or
    its denominator, never pass the estimate."""
    spec, coords, k = case
    field = make_field(spec)
    x = field.element([coords.get(i, 0) for i in range(field.degree)])
    power = ideal_pow(principal(x), k)._gen
    assert power == (x ** k if k > 0 else x.inverse() ** -k)
    real = max(max(map(abs, power.num)), power.den).bit_length()
    assert real <= ideals._recipe_bits(field, {}, [(x, k)])
