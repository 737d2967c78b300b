import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakelov import linalg
from arakelov.linalg import (
    FormError,
    ShapeError,
    SingularError,
    cholesky,
    det,
    hnf_mod_d,
    identity,
    invert,
    lll_reduce,
    mat_mul,
    nullspace_mod_p,
    row_module_hnf,
    solve_bareiss,
    transpose,
)

rng = random.Random(909090)


def det_cofactor(M):
    # independent determinant oracle: Laplace expansion along the first row
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det_cofactor(minor)
    return total


def is_canonical(H):
    n = len(H)
    for i in range(n):
        if H[i][i] <= 0:
            return False
        for j in range(i + 1, n):
            if H[i][j] != 0:
                return False
        for j in range(i):
            if not 0 <= H[i][j] < H[j][j]:
                return False
    return True


def random_matrix(n, m=None, lo=-9, hi=9):
    m = n if m is None else m
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def random_unimodular(n, steps=25):
    V = identity(n)
    if n < 2:
        return V
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        V[i] = [a + q * b for a, b in zip(V[i], V[j])]
    return V


def assert_unimodular_transform(H, M):
    """The U with U*M == H is an integer matrix of determinant +-1."""
    U = mat_mul(H, invert(M))
    assert all(x.denominator == 1 for row in U for x in row)
    assert abs(det_cofactor(U)) == 1


def test_hnf_known_case():
    H = row_module_hnf([[2, 0], [1, 1]])
    assert H == [[2, 0], [1, 1]]  # already canonical in the lower convention
    assert_unimodular_transform(H, [[2, 0], [1, 1]])
    # the same module written with an upper-triangular basis canonicalizes identically
    H2 = row_module_hnf([[1, 1], [0, 2]])
    assert H2 == H
    assert abs(det(H)) == 2


def test_hnf_random_properties():
    for _ in range(40):
        n = rng.randint(1, 6)
        M = random_matrix(n)
        while det_cofactor(M) == 0:
            M = random_matrix(n)
        H = row_module_hnf(M)
        assert_unimodular_transform(H, M)
        assert is_canonical(H)
        assert abs(det_cofactor(H)) == abs(det_cofactor(M))
        # canonical form is invariant under any unimodular change of generators
        V = random_unimodular(n)
        assert row_module_hnf(mat_mul(V, M)) == H
        # and idempotent
        assert row_module_hnf(H) == H


def test_row_module_hnf_drops_dependent_rows():
    H = row_module_hnf([[2, 0], [1, 1], [3, 1]])
    assert H == [[2, 0], [1, 1]]
    assert row_module_hnf([[0, 0], [5, 0]]) == [[5, 0]]


def test_det_known_and_oracle():
    assert det([[2, 1], [1, 3]]) == 5
    assert det([[1, 2], [2, 4]]) == 0
    for _ in range(30):
        n = rng.randint(1, 6)
        M = random_matrix(n)
        assert det(M) == det_cofactor(M)
    with pytest.raises(ShapeError):
        det([[1, 2, 3], [4, 5, 6]])


def test_invert_known_and_roundtrip():
    inv = invert([[2, 1], [1, 3]])
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    for _ in range(20):
        n = rng.randint(1, 5)
        M = random_matrix(n)
        while det_cofactor(M) == 0:
            M = random_matrix(n)
        assert mat_mul(invert(M), M) == identity(n)
    with pytest.raises(SingularError):
        invert([[1, 2], [2, 4]])


def test_solve_bareiss_residual():
    assert solve_bareiss([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
    for _ in range(30):
        n = rng.randint(1, 5)
        M = random_matrix(n)
        while det_cofactor(M) == 0:
            M = random_matrix(n)
        rhs = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
        x = solve_bareiss(M, rhs)
        assert [sum(a * b for a, b in zip(row, x)) for row in M] == rhs
    with pytest.raises(SingularError):
        solve_bareiss([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ShapeError):
        solve_bareiss([[1, 0], [0, 1], [1, 1]], [1, 2, 3])


_ENTRIES = st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def square_systems(draw):
    """(M, b): a square integer or rational M up to 6 x 6 and a rational
    right-hand side; some M have a zero leading entry, some are singular."""
    n = draw(st.integers(1, 6))
    M = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["random", "zero-lead", "singular"]))
    if shape == "zero-lead":
        M[0][0] = 0  # the first pivot needs a row swap
    elif shape == "singular":
        if n == 1:
            M = [[0]]
        else:
            k = draw(_ENTRIES)
            M[-1] = [a + k * b for a, b in zip(M[0], M[1 % (n - 1)])]
    b = [draw(_ENTRIES) for _ in range(n)]
    return M, b


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_bareiss_core_against_oracles(system):
    M, b = system
    n = len(M)
    d = det(M)
    assert d == det_cofactor(M)
    if n > 1:
        assert det([M[1], M[0]] + M[2:]) == -d
    if d == 0:
        with pytest.raises(SingularError):
            invert(M)
        with pytest.raises(SingularError):
            solve_bareiss(M, b)
        return
    assert mat_mul(invert(M), M) == identity(n)
    x = solve_bareiss(M, b)
    assert [sum(a * y for a, y in zip(row, x)) for row in M] == b


def test_hnf_mod_d():
    # d a multiple of |det|: recovers the plain row-module HNF
    for _ in range(25):
        n = rng.randint(1, 5)
        M = random_matrix(n)
        d = det_cofactor(M)
        while d == 0:
            M = random_matrix(n)
            d = det_cofactor(M)
        want = row_module_hnf(M)
        assert hnf_mod_d(M, abs(d)) == want
        assert hnf_mod_d(M, 3 * abs(d)) == want
    # arbitrary d: computes the HNF of span(rows) + d * Z^n
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        d = rng.randint(1, 30)
        aug = M + [[d if i == j else 0 for j in range(n)] for i in range(n)]
        assert hnf_mod_d(M, d) == row_module_hnf(aug)
    with pytest.raises(ShapeError):
        hnf_mod_d([[1, 2]], 0)


def test_nullspace_mod_p():
    ker = nullspace_mod_p([[1, 1], [1, 1]], 2)
    assert ker == [[1, 1]]
    for v in nullspace_mod_p([[2, 4], [1, 2]], 5):
        assert all((a * v[0] + b * v[1]) % 5 == 0 for a, b in [(2, 4), (1, 2)])


def gso_oracle(G):
    # plain textbook Gram-Schmidt on the quadratic form, used to certify LLL output
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(G[i][j]) - sum(mu[i][k] * mu[j][k] * B[k] for k in range(j))
            mu[i][j] = s / B[j]
        B[i] = Fraction(G[i][i]) - sum(mu[i][k] ** 2 * B[k] for k in range(i))
    return mu, B


def lagrange_min(G):
    # two-dimensional Gauss/Lagrange reduction: exact first minimum
    a, b, c = Fraction(G[0][0]), Fraction(G[0][1]), Fraction(G[1][1])
    if a > c:
        a, c = c, a
    while True:
        q = round(b / a)
        # (x, y) -> (x, y - q x)
        c = c - 2 * q * b + q * q * a
        b = b - q * a
        if a <= c:
            return a
        a, c = c, a


def random_gram(n, spread=6):
    A = random_matrix(n, lo=-spread, hi=spread)
    while det_cofactor(A) == 0:
        A = random_matrix(n, lo=-spread, hi=spread)
    return mat_mul(A, transpose(A))


def test_lll_reduces_known_case():
    G2, T = lll_reduce([[4, 2], [2, 4]])
    assert G2[0][0] <= 4 and G2[1][1] <= 4
    assert mat_mul(transpose(T), mat_mul([[4, 2], [2, 4]], T)) == G2


def test_lll_certified_exactly():
    delta = Fraction(99, 100)
    for _ in range(25):
        n = rng.randint(1, 6)
        G = random_gram(n)
        G2, T = lll_reduce(G)
        assert mat_mul(transpose(T), mat_mul(G, T)) == G2
        assert abs(det_cofactor(T)) == 1
        mu, B = gso_oracle(G2)
        for i in range(n):
            assert B[i] > 0
            for j in range(i):
                assert 2 * abs(mu[i][j]) <= 1
        for k in range(1, n):
            assert B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]


def test_lll_two_dim_matches_lagrange():
    for _ in range(30):
        G = random_gram(2, spread=5)
        G2, _ = lll_reduce(G)
        assert G2[0][0] == lagrange_min(G)


def test_lll_rejects_bad_input():
    with pytest.raises(FormError):
        lll_reduce([[0, 0], [0, 1]])
    with pytest.raises(FormError):
        lll_reduce([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(FormError):
        lll_reduce([[1, 2], [3, 4]])  # asymmetric


def test_cholesky_known_pivots():
    R = cholesky([[2, 1], [1, 2]])
    assert R[0][0] == 2 and R[1][1] == Fraction(3, 2)
    assert R[0][1] == Fraction(1, 2)


def test_cholesky_reconstructs():
    for _ in range(20):
        n = rng.randint(1, 6)
        G = random_gram(n)
        R = cholesky(G)
        Umat = [[Fraction(1) if i == j else (R[i][j] if j > i else Fraction(0))
                 for j in range(n)] for i in range(n)]
        D = [[R[i][i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        assert mat_mul(transpose(Umat), mat_mul(D, Umat)) == [[Fraction(x) for x in row] for row in G]
        assert all(R[i][i] > 0 for i in range(n))


def test_cholesky_rejects_indefinite():
    with pytest.raises(FormError):
        cholesky([[1, 2], [2, 1]])
    with pytest.raises(FormError):
        cholesky([[-1, 0], [0, 1]])
