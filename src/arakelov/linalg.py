"""Exact linear algebra kernel: HNF, determinants, inversion, LLL, LDL.

All routines work on plain lists of lists.  Integer matrices use Python
ints, rational ones use fractions.Fraction; nothing here touches
floating point.  Rational input is cleared to integers over the lcm of
all its denominators by the one routine _cleared.  det, invert,
solve_bareiss, solve_integral and ldl_integral share one fraction-free
(Bareiss) elimination core.
LLL is integral, from the Bareiss triangle of ldl_integral to that of the
reduced Gram, which the enumeration walks after a second pass with deep
insertions; cholesky is a rational view.

Canonical Hermite form used throughout the package: *lower-triangular*
row-style HNF.  For a nonsingular square matrix H this means
H[i][j] == 0 for j > i, H[i][i] > 0 and 0 <= H[i][j] < H[j][j] for
j < i.  Every full Z-module of row vectors has exactly one such basis,
so module equality is matrix equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

IntMatrix = list  # list[list[int]]
RatMatrix = list  # list[list[Fraction]]


class ShapeError(ValueError):
    """Matrix input has the wrong shape for the requested operation."""


class SingularError(ZeroDivisionError):
    """Square matrix is not invertible."""


class FormError(ValueError):
    """Symmetric input is not positive definite (or not symmetric)."""


def _dims(mat):
    m = len(mat)
    if m == 0:
        raise ShapeError("empty matrix")
    n = len(mat[0])
    if n == 0 or any(len(row) != n for row in mat):
        raise ShapeError("ragged or empty rows")
    return m, n


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    ma, na = _dims(a)
    mb, nb = _dims(b)
    if na != mb:
        raise ShapeError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def row_module_hnf(rows):
    """Canonical basis of the Z-module spanned by the given integer rows.

    Accepts redundant generating sets; zero rows of the echelon form are
    dropped.  Returns the r x n canonical matrix.  Use hnf_mod_d instead
    when a multiple of the module's determinant is known.
    """
    m, n = _dims(rows)
    A = [list(r) for r in rows]
    # upper row echelon form over the columns taken from the last one down;
    # reversing the pivot rows afterwards gives the lower-triangular form
    r = 0
    for c in range(n - 1, -1, -1):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            if A[i][c]:
                a, b = A[r][c], A[i][c]
                g, s, t = _xgcd(a, b)
                af, bf = a // g, b // g
                # [[s, t], [-bf, af]] has determinant +1
                ar, ai = A[r], A[i]
                A[r] = [s * x + t * y for x, y in zip(ar, ai)]
                A[i] = [af * y - bf * x for x, y in zip(ar, ai)]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
    return A[:r][::-1]


def hnf_mod_d(rows, d):
    """Canonical lower-triangular HNF basis of span(rows) + d*Z^n.

    Every intermediate entry is reduced modulo d, so the cost never
    depends on how large the entries of a plain elimination would grow.
    When d*Z^n is contained in the full-rank module M spanned by the
    rows, the result is the canonical basis of M itself.  A positive
    multiple of det(M) is one such d (multiply the adjugate identity
    d*B^-1 * B = d*I by the basis); for a module over Z[theta], any
    positive integer in M is another, and the least one is usually far
    smaller.  Otherwise the result spans a proper supermodule, so
    callers certify the result by checking that the pivot product
    equals the known determinant of M.

    Cohen, A Course in Computational Algebraic Number Theory, §2.4.2.
    Each row is folded into the triangular basis W as one packed int, its
    entry j in a slot of w = 2*bits(d) + bits(n) bits: slot c is read mod
    d and dropped, and a pivot that divides it moves the row by one
    multiply-add of the packed W[c].  Slots stay nonnegative and below
    n*d^2 < 2^w, so no carry crosses a slot.  A step that changes a pivot
    unpacks the row, combines it with W[c] mod d and repacks both.  The
    rows are then normalized in ascending order, each by the nonzero
    entries of the normalized rows before it.  The HNF of
    span(rows) + d*Z^n is unique, so the result does not depend on how
    the rows were folded.
    """
    m, n = _dims(rows)
    if not isinstance(d, int) or d <= 0:
        raise ShapeError("hnf_mod_d needs a positive integer modulus")
    # slot bound: a slot starts below d, and each fold step adds
    # (-b/a mod d) * W[c] with every entry of W[c] in [0, d), so less than
    # d^2; a slot gains at most n - 1 such terms before it is read, so it
    # stays below n * d^2 < 2^w and no carry crosses into the next slot
    w = 2 * d.bit_length() + n.bit_length()
    slot = (1 << w) - 1

    def pack(vec):
        p = 0
        for x in reversed(vec):
            p = (p << w) | x
        return p

    def unpack(p, k):
        return [((p >> (w * j)) & slot) % d for j in range(k)]

    # W[c] is kept as its first c+1 entries: it is zero beyond column c;
    # P[c] packs its first c entries, the ones below the pivot
    W = [[0] * c + [d] for c in range(n)]
    P = [0] * n
    low = [(1 << (w * c)) - 1 for c in range(n)]
    for row in rows:
        r = pack([x % d for x in row])
        # fold r into the triangular W from the highest column down; the
        # 2x2 step [[s, t], [af, -bf]] on (W[c], r) is unimodular, and
        # mod-d reductions only shift vectors by elements of d*Z^n.  Slot c
        # is read mod d and then dropped, which shifts r by a multiple of
        # d * e_c; r is then zero beyond column c - 1
        for c in range(n - 1, -1, -1):
            if not r:
                break
            b = (r >> (w * c)) % d
            r &= low[c]
            if b == 0:
                continue
            wc = W[c]
            a = wc[c]
            if b % a == 0:
                # the pivot divides r[c]: W[c] stays, only r moves
                r += (-(b // a)) % d * P[c]
                continue
            g, s, t = _xgcd(a, b)
            af, bf = a // g, b // g
            rc = unpack(r, c)
            W[c] = [(s * x + t * y) % d for x, y in zip(wc, rc)] + [g]
            P[c] = pack(W[c][:c])
            r = pack([(af * y - bf * x) % d for x, y in zip(wc, rc)])
    # normalize off-diagonal entries into [0, pivot), in ascending order,
    # each row by the normalized W[j] over its nonzero entries alone: a
    # column whose pivot is 1 is zero in every other row
    nonzero = []
    for i in range(n):
        wi = W[i]
        for j in range(i - 1, -1, -1):
            q = wi[j] // W[j][j]
            if q:
                for k, y in nonzero[j]:
                    wi[k] -= q * y
        nonzero.append([(k, y) for k, y in enumerate(wi) if y])
    return [wi + [0] * (n - 1 - i) for i, wi in enumerate(W)]


def _cleared(rows):
    """(D, D*rows) for the lcm D of the denominators of rows, whose entries
    are ints or anything Fraction() reads: D*rows as rows of ints, the
    least integral multiple of rows."""
    rows = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in rows]
    D = lcm(*(x.denominator for row in rows for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in rows]


def _bareiss(A, B):
    """Fraction-free (Bareiss) forward elimination of the square integer A.

    A becomes upper triangular in place and the same row operations are
    applied to the integer block B (one row per row of A, any width,
    possibly zero).  Every division is exact.  Returns (swaps, d) with
    swaps the number of row swaps and d the final pivot, so
    det(A) = (-1)^swaps * d; with no swap, the pivot A[k][k] is the
    leading principal minor of order k+1.  Raises SingularError when A is
    singular.
    """
    n = len(A)
    swaps = 0
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k]), None)
            if piv is None:
                raise SingularError("matrix is singular")
            A[k], A[piv] = A[piv], A[k]
            B[k], B[piv] = B[piv], B[k]
            swaps += 1
        Akk = A[k][k]
        rowk, brk = A[k], B[k]
        for i in range(k + 1, n):
            Aik = A[i][k]
            rowi, bri = A[i], B[i]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * Akk - Aik * rowk[j]) // prev
            rowi[k] = 0
            for j in range(len(bri)):
                bri[j] = (bri[j] * Akk - Aik * brk[j]) // prev
        prev = Akk
    return swaps, prev


def _back_substitute(A, B, d):
    """Integer Y with A*Y == d*B for the triangular A and block B left by
    _bareiss with final pivot d: d*A^-1 is integral, so every division is
    exact."""
    n = len(A)
    w = len(B[0])
    Y = [[0] * w for _ in range(n)]
    for i in range(n - 1, -1, -1):
        rowi = A[i]
        Uii = rowi[i]
        for j in range(w):
            acc = d * B[i][j]
            for t in range(i + 1, n):
                if rowi[t]:
                    acc -= rowi[t] * Y[t][j]
            q, rem = divmod(acc, Uii)
            if rem:
                raise ArithmeticError("fraction-free back substitution: non-exact division")
            Y[i][j] = q
    return Y


def det(mat):
    """Exact determinant of a square matrix (entries int or Fraction).

    The matrix is cleared to integers and eliminated fraction-free (Bareiss);
    the result is an int whenever it is integral.
    """
    m, n = _dims(mat)
    if m != n:
        raise ShapeError("determinant needs a square matrix")
    D, A = _cleared(mat)
    try:
        swaps, d = _bareiss(A, [[] for _ in range(n)])
    except SingularError:
        return 0
    q = Fraction(-d if swaps % 2 else d, D ** n)
    return q.numerator if q.denominator == 1 else q


def solve_integral(mat, block):
    """Integer (Y, d) with mat * Y == d * block, for a square nonsingular mat.

    [mat | block] is cleared to integers (scaling leaves the solution
    unchanged), eliminated by fraction-free (Bareiss) forward
    steps and back-substituted over the integers: with d the final pivot,
    d * mat^-1 * block is integral, so every division is exact and no
    Fraction is formed.  Raises SingularError when det(mat) = 0.
    """
    m, n = _dims(mat)
    if m != n:
        raise ShapeError("solve needs a square matrix")
    if _dims(block)[0] != n:
        raise ShapeError("right-hand side needs one row per matrix row")
    _, rows = _cleared([list(row) + list(brow) for row, brow in zip(mat, block)])
    A = [row[:n] for row in rows]
    B = [row[n:] for row in rows]
    _, d = _bareiss(A, B)
    return _back_substitute(A, B, d), d


def invert(mat):
    """Exact inverse of a square matrix (entries int or Fraction), as
    solve_integral(mat, I) divided by its pivot: rationals appear only in
    the n^2 final entries."""
    Y, d = solve_integral(mat, identity(len(mat)))
    return [[Fraction(y, d) for y in row] for row in Y]


def solve_bareiss(mat, rhs):
    """Solve the square system mat * x = rhs exactly, fraction-free (the
    right-hand side is one column of solve_integral).  Raises
    SingularError when det(mat) = 0."""
    Y, d = solve_integral(mat, [[r] for r in rhs])
    return [Fraction(row[0], d) for row in Y]


def nullspace_mod_p(mat, p):
    """Basis of the right kernel of mat over GF(p), entries lifted to [0, p)."""
    m, n = _dims(mat)
    A = [[x % p for x in row] for row in mat]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for pc, pr in pivots.items():
            v[pc] = (-A[pr][c]) % p
        basis.append(v)
    return basis


def _check_gram(G):
    m, n = _dims(G)
    if m != n:
        raise ShapeError("Gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if G[i][j] != G[j][i]:
                raise FormError("Gram matrix must be symmetric")
    return n


# The reduction the enumeration walks: two passes of the loop of _lll.  A
# plain pass at delta = 3/4 makes the bulk of the large-number swaps
# cheaply; a pass at delta = 0.99 with deep insertions of depth 5
# (Schnorr-Euchner, Math. Programming 66, 1994) then finds a basis with
# fewer walk nodes.  Deeper insertions cost more than the nodes they save.
_WALK_PASSES = ((Fraction(3, 4), 1), (Fraction(99, 100), 5))  # (delta, depth)


def _lll(G, passes=_WALK_PASSES, transform=False):
    """Integral LLL (Cohen, Algorithm 2.6.7; de Weger 1987) on the Gram G
    cleared to integers, from (D, A) = ldl_integral(G), the one clearing
    of G's denominators: d[i+1] = A[i][i] are the
    leading minors (d[0] = 1) and lam[k][j] = A[j][k] = d[j+1] * mu[k][j]
    for j < k; every step is exact on these integers and takes the
    decisions of the rational recurrence, mu rounded half to even.

    passes is a sequence of (delta, depth), each one run of the loop over
    the basis the previous one left.  At depth 1 a pass is plain LLL.  At
    depth t it inserts deeply (Schnorr-Euchner, Math. Programming 66,
    1994): once b_k is size-reduced, it moves to the lowest position
    i >= k - t with |pi_i(b_k)|^2 < delta * B_i, by k - i adjacent swaps
    (Cohen's SWAPI).  The test is exact and forms no Fraction:
    e_i = d[i] * |pi_i(b_k)|^2 starts at e_k = d[k+1] and descends by the
    exact division e_i = (d[i] * e_(i+1) + lam[k][i]^2) / d[i+1], and
    b_k moves to i iff q * e_i < p * d[i+1] for delta = p/q; at i = k - 1
    that is the Lovasz test.  Every pass size-reduces b_k in full before
    its test.  The default passes are the enumeration's
    (_WALK_PASSES); lll_reduce runs one plain pass at its own delta, so
    its output is the textbook LLL basis.

    Returns (D, U, A): A holds the final d and lam and is the Bareiss
    triangle of D times the reduced U*G*U^t.  U, the unimodular row transform,
    is formed only when transform is true; the enumeration reads A alone
    and gets U = None.
    """
    D, A = ldl_integral(G)  # raises FormError if G is not positive definite
    n = len(A)
    passes = [(Fraction(delta), depth) for delta, depth in passes]
    if not all(Fraction(1, 4) < delta < 1 for delta, _ in passes):
        raise FormError("delta must lie in (1/4, 1)")
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
        # Cohen's SWAPI of b_(k-1) and b_k; lam[k][k-1] is unchanged and
        # only d[k] moves
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
            # lam[k] is fully size-reduced before the test and is
            # unchanged when b_k stays
            size_reduce(k, range(k - 1, -1, -1))
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
                k += 1
    A = [[0] * i + [d[i + 1]] + [lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    return D, U, A


def lll_reduce(G, delta=Fraction(99, 100)):
    """LLL-reduce a positive definite Gram matrix with exact arithmetic:
    (G2, T) with T unimodular and G2 == T^t * G * T satisfying the
    size-reduction and Lovasz conditions for delta.  One plain pass of the
    integral LLL of _lll, which forms no Fraction; the enumeration's
    two-pass deep reduction is kept out of it, so the result is the
    textbook LLL basis at delta.  G2 is the moved D*G over D, so the
    Lovasz condition of the result can be re-checked exactly from G2.
    This is the one caller that returns T, so it alone asks _lll for the
    transform.
    """
    _, U, _ = _lll(G, ((delta, 1),), transform=True)
    D, DG = _cleared(G)
    T = transpose(U)
    G2 = mat_mul(U, mat_mul(DG, T))
    return [[Fraction(x, D) for x in row] for row in G2], T


def ldl_integral(G):
    """Integer LDL data of a positive definite Gram matrix: (D, A).

    D is the lcm of the denominators of G, so D*G is an integer symmetric
    matrix, and A is its Bareiss upper triangle: with pivots P_i = A[i][i]
    and P_-1 = 1, and y_i = sum_{j>=i} A[i][j] x_j,
    D * x^t G x == sum_i y_i^2 / (P_i * P_{i-1}).  Raises FormError if G
    is not symmetric positive definite.

    Sylvester's criterion: G is positive definite iff every leading
    principal minor is positive, and with no row swap the pivot P_i is
    the leading minor of order i+1 of D*G; so a swap, a singular matrix
    or a pivot P_i <= 0 rejects G.
    """
    n = _check_gram(G)
    D, A = _cleared(G)
    try:
        swaps, _ = _bareiss(A, [[] for _ in range(n)])
        definite = not swaps and all(A[i][i] > 0 for i in range(n))
    except SingularError:
        definite = False
    if not definite:
        raise FormError("matrix is not positive definite")
    return D, A


def cholesky(G):
    """Exact LDL-style decomposition of a positive definite Gram matrix.

    Returns a single RatMatrix R holding the positive pivots d_i = R[i][i]
    and the unit-triangular coefficients u_ij = R[i][j] for j > i, so that
    x^t G x == sum_i d_i * (x_i + sum_{j>i} u_ij x_j)^2, read off
    ldl_integral: d_i = P_i / (P_{i-1} * D) and u_ij = A[i][j] / P_i.
    Raises FormError if G is not symmetric positive definite.  Public API
    only: the package itself reads the integer data of ldl_integral.
    """
    D, A = ldl_integral(G)
    n = len(A)
    R = [[Fraction(0)] * n for _ in range(n)]
    prev = 1
    for i in range(n):
        P = A[i][i]
        R[i][i] = Fraction(P, prev * D)
        for j in range(i + 1, n):
            R[i][j] = Fraction(A[i][j], P)
        prev = P
    return R
