"""Values computed once and kept on immutable objects.

Three results are kept where they are first computed: the total-positivity
verdict on the FieldElement, the realized ideal on the IdealRecipe, and
the Gram determinant on the IdealLattice.  Oracles: a fresh copy of the
same value, decided from scratch; an equal recipe parsed again; the
Bareiss determinant of the Gram.  The kept values never take part in
equality or hashing.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arakelov.fields import is_totally_positive, make_field
from arakelov.ideals import IdealRecipe, realize
from arakelov.lattice import build
from arakelov.linalg import det

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
    assert x._positive is verdict
    assert is_totally_positive(x) is verdict
    fresh = x.field.element(x.coeffs)
    assert fresh._positive is None
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
def test_realize_runs_once_per_recipe(case):
    spec, text = case
    field = make_field(spec)
    recipe = IdealRecipe.parse(field, text)
    again = IdealRecipe.parse(field, text)
    assert recipe == again and hash(recipe) == hash(again)
    ideal = realize(recipe)
    assert recipe._ideal is ideal
    assert realize(recipe) is ideal
    assert again._ideal is None
    assert realize(again) == ideal
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
