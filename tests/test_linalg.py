import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
    ldl_integral,
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


def check_cholesky_by_minors(G, x):
    """Sylvester oracle: cholesky rejects G exactly when a leading minor
    (by cofactor expansion) is <= 0; otherwise R rebuilds x^t G x."""
    n = len(G)
    if any(det_cofactor([row[:k] for row in G[:k]]) <= 0 for k in range(1, n + 1)):
        with pytest.raises(FormError):
            cholesky(G)
        return
    R = cholesky(G)
    form = sum(x[i] * G[i][j] * x[j] for i in range(n) for j in range(n))
    assert form == sum(R[i][i] * (x[i] + sum(R[i][j] * x[j] for j in range(i + 1, n))) ** 2
                       for i in range(n))
    # the same identity for every x: G == U^t D U with U unit upper triangular
    U = [[1 if i == j else (R[i][j] if j > i else 0) for j in range(n)] for i in range(n)]
    assert [[sum(U[k][i] * R[k][k] * U[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == G


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_bareiss_core_against_oracles(system):
    M, b = system
    n = len(M)
    # symmetric inputs: M + M^t (often indefinite) and M^t M (definite
    # exactly when M is nonsingular)
    check_cholesky_by_minors([[M[i][j] + M[j][i] for j in range(n)] for i in range(n)], b)
    check_cholesky_by_minors(mat_mul(transpose(M), M), b)
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


# moduli of every kind: 1, 2, small primes, prime powers, composites, the
# Mersenne prime 2^61 - 1, and 200 bits and more
_HNF_MODULI = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 97, 4, 8, 27, 49, 1024, 6, 12, 30, 210, 2 ** 61 - 1]),
    st.integers(2, 10 ** 6),
    st.integers(2 ** 200, 2 ** 256),
)


def _carry_heavy_rows(d, n):
    """Rows whose fold fills the packed slots of hnf_mod_d the most: the
    first n - 2 rows make W[c] = (d-1, ..., d-1, 1) for c >= 2, and the
    last row reads 1 at each of those columns when it is folded, so each
    of them adds (d-1) * (d-1) to every slot below it, and slot 0 gains
    n - 2 such terms before slot 1 is read; columns 0 and 1 keep the pivot
    d, so the result depends on what reaches them."""
    rows = [[d - 1] * c + [1] + [0] * (n - 1 - c) for c in range(n - 1, 1, -1)]
    rows.append([d - 1, d - 1] + [(j + 2 - n) % d for j in range(2, n)])
    return rows


@st.composite
def _hnf_mod_d_cases(draw):
    d = draw(_HNF_MODULI)
    n = draw(st.integers(1, 7))
    if n >= 3 and draw(st.booleans()):
        return _carry_heavy_rows(d, n), d
    # fewer, as many or more rows than columns; entries negative or >= d
    k = draw(st.integers(1, n + 2))
    entry = st.one_of(st.integers(-9, 9), st.integers(-3 * d, 3 * d))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)], d


@settings(max_examples=300, deadline=None)
@given(_hnf_mod_d_cases())
@example((_carry_heavy_rows(2 ** 61 - 1, 7), 2 ** 61 - 1))
@example((_carry_heavy_rows(2 ** 211 - 1, 7), 2 ** 211 - 1))
@example(([[5, -3, 12]], 7))
@example(([[-10]], 3))
def test_hnf_mod_d_is_the_hnf_of_the_rows_and_d_times_identity(case):
    """hnf_mod_d(rows, d) is the canonical basis of span(rows) + d*Z^n,
    which row_module_hnf computes from the rows and d*I by plain
    elimination.  On the two carry-heavy examples slot 0 passes 2^(w-1)
    before slot 1 is read, so a slot one bit narrower carries into slot 1
    there."""
    rows, d = case
    n = len(rows[0])
    want = row_module_hnf(rows + [[d * (i == j) for j in range(n)] for i in range(n)])
    assert hnf_mod_d(rows, d) == want


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


def fraction_lll(G, delta):
    """Reference LLL: the rational Gram-Schmidt recurrence on a Fraction
    Gram, started from cholesky (mu[i][j] = R[j][i], B[i] = R[i][i])."""
    n = len(G)
    Gw = [[Fraction(x) for x in row] for row in G]
    U = identity(n)
    R = cholesky(Gw)
    mu = [[R[j][i] for j in range(i)] for i in range(n)]
    B = [R[i][i] for i in range(n)]

    def reduce_entry(k, l):
        if 2 * abs(mu[k][l]) > 1:
            q = round(mu[k][l])
            gkk = Gw[k][k] - 2 * q * Gw[k][l] + q * q * Gw[l][l]
            U[k] = [x - q * y for x, y in zip(U[k], U[l])]
            Gw[k] = [x - q * y for x, y in zip(Gw[k], Gw[l])]
            for t in range(n):
                Gw[t][k] = Gw[k][t]
            Gw[k][k] = gkk
            mu[k][l] -= q
            for j in range(l):
                mu[k][j] -= q * mu[l][j]

    k = 1
    while k < n:
        reduce_entry(k, k - 1)
        if B[k] < (delta - mu[k][k - 1] * mu[k][k - 1]) * B[k - 1]:
            U[k - 1], U[k] = U[k], U[k - 1]
            Gw[k - 1], Gw[k] = Gw[k], Gw[k - 1]
            for row in Gw:
                row[k - 1], row[k] = row[k], row[k - 1]
            m = mu[k][k - 1]
            Bp = B[k] + m * m * B[k - 1]
            mu[k][k - 1] = m * B[k - 1] / Bp
            B[k] = B[k - 1] * B[k] / Bp
            B[k - 1] = Bp
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_entry(k, l)
            k += 1
    return Gw, transpose(U)


@st.composite
def lll_grams(draw):
    """A positive definite Gram B * B^t of dimension 1 to 8, integer or
    rational with mixed denominators; the basis B is skewed by drawn
    elementary row operations, so LLL has reductions and swaps to make."""
    n = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([st.integers(-9, 9), _ENTRIES]))
    B = [[draw(entries) for _ in range(n)] for _ in range(n)]
    assume(det(B) != 0)
    if n > 1:
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-3, 3))
            B[i] = [x + c * y for x, y in zip(B[i], B[j])]
    return [[sum(x * y for x, y in zip(r, s)) for s in B] for r in B]


@settings(max_examples=150, deadline=None)
@given(lll_grams(), st.sampled_from([Fraction(99, 100), Fraction(3, 4)]))
def test_integral_lll_matches_the_fraction_recurrence(G, delta):
    assert lll_reduce(G, delta) == fraction_lll(G, delta)


def reference_lll(G, passes=linalg._WALK_PASSES, transform=False, scale=None):
    """The loop of linalg._lll before its second full size-reduction was
    dropped: a deep pass size-reduces b_k in full before its test and a
    second time when b_k stays, and a plain pass only when b_k stays.  The
    reference the loop must match decision for decision: the same
    (D, D*G, U, A)."""
    n = linalg._check_gram(G)
    passes = [(Fraction(delta), depth) for delta, depth in passes]
    D, DG = (scale, G) if scale is not None else linalg._cleared(G)
    _, A = ldl_integral(DG)
    d = [1] + [A[i][i] for i in range(n)]
    lam = [[A[j][k] for j in range(k)] for k in range(n)]
    U = identity(n) if transform else None

    def size_reduce(k, ls):
        lamk = lam[k]
        for l in ls:
            dl = d[l + 1]
            if 2 * abs(lamk[l]) > dl:
                c, r = divmod(lamk[l], dl)
                if 2 * r > dl or (2 * r == dl and c % 2):
                    c += 1
                if U is not None:
                    U[k] = [x - c * y for x, y in zip(U[k], U[l])]
                lamk[l] -= c * dl
                for j, y in enumerate(lam[l]):
                    lamk[j] -= c * y

    def swap(k):
        m = lam[k][k - 1]
        if U is not None:
            U[k - 1], U[k] = U[k], U[k - 1]
        lam[k - 1], lam[k] = lam[k][:k - 1], lam[k - 1] + [m]
        dk, dk1 = d[k + 1], d[k]
        b = (d[k - 1] * dk + m * m) // dk1
        for i in range(k + 1, n):
            lami = lam[i]
            t = lami[k]
            lami[k] = (dk * lami[k - 1] - m * t) // dk1
            lami[k - 1] = (b * t + m * lami[k]) // dk
        d[k] = b

    for delta, depth in passes:
        p, q = delta.numerator, delta.denominator
        k = 1
        while k < n:
            size_reduce(k, (k - 1,))
            if depth > 1:
                size_reduce(k, range(k - 2, -1, -1))
            lamk = lam[k]
            e, i = d[k + 1], k
            for j in range(k - 1, max(k - depth, 0) - 1, -1):
                e = (d[j] * e + lamk[j] * lamk[j]) // d[j + 1]
                if q * e < p * d[j + 1]:
                    i = j
            if i < k:
                for j in range(k, i, -1):
                    swap(j)
                k = max(i, 1)
            else:
                size_reduce(k, range(k - 2, -1, -1))
                k += 1
    A = [[0] * i + [d[i + 1]] + [lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    return D, DG, U, A


@st.composite
def wide_grams(draw):
    """A Gram of lll_grams, or a 2-10-dim Gram B * B^t of a basis with
    20-26-bit entries, whose reduction makes more swaps at larger d."""
    if draw(st.booleans()):
        return draw(lll_grams())
    n = draw(st.integers(2, 10))
    bits = draw(st.integers(20, 26))
    B = [[draw(st.integers(-(1 << bits), 1 << bits)) for _ in range(n)] for _ in range(n)]
    assume(det(B) != 0)
    return [[sum(x * y for x, y in zip(r, s)) for s in B] for r in B]


_PASSES = [linalg._WALK_PASSES, ((Fraction(99, 100), 1),), ((Fraction(3, 4), 1),),
           ((Fraction(1, 2), 3), (Fraction(3, 4), 2))]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(wide_grams(), st.sampled_from(_PASSES), st.booleans())
def test_lll_loop_matches_its_reference(G, passes, transform):
    D, _, U, A = reference_lll(G, passes, transform)
    assert linalg._lll(G, passes, transform) == (D, U, A)


def test_lll_rounds_ties_half_to_even():
    # mu = 5/2: half to even subtracts 2 times the first vector (half up
    # would subtract 3), and the Lovasz condition then holds
    G2, T = lll_reduce([[2, 5], [5, 20]])
    assert T == [[1, -2], [0, 1]]
    assert G2 == [[2, 1], [1, 8]]
    assert fraction_lll([[2, 5], [5, 20]], Fraction(99, 100)) == (G2, T)
    # B_1 = 3 == (3/4 - 0) * B_0: the Lovasz test is strict, so no swap
    assert lll_reduce([[4, 0], [0, 3]], Fraction(3, 4)) == ([[4, 0], [0, 3]], identity(2))


def test_cholesky_known_pivots():
    R = cholesky([[2, 1], [1, 2]])
    assert R[0][0] == 2 and R[1][1] == Fraction(3, 2)
    assert R[0][1] == Fraction(1, 2)


def test_ldl_integral_clears_with_one_scale():
    # 6G = [[3, 2], [2, 6]] stays symmetric; its pivots are the leading
    # minors 3 and 14
    D, A = ldl_integral([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
    assert D == 6 and A == [[3, 2], [0, 14]]
    with pytest.raises(FormError):
        ldl_integral([[1, 2], [2, 1]])


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
