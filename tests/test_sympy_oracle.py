"""The field data the ideal layer rests on, against sympy.

Every HNF in ideals is a module over the power basis, so it assumes
O_K = Z[theta]; valuations and radicals read the ramification index and
the residue product f*g of each ramified prime.  sympy computes the same
data on its own: round_two gives the maximal order and the discriminant
of Q[x]/(T), prime_decomp the primes above p with their (e, f), and the
ramified primes are those dividing the discriminant.  The canonical
HNF of a full-rank module is checked against sympy's hermite_normal_form.
sympy is a test dependency; a missing oracle fails the run rather than
skipping.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, Poly, factorint
from sympy.abc import x
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.primes import prime_decomp

from arakelov.fields import make_field
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
