"""Exact linear algebra kernel: HNF, determinants, inversion, LLL, LDL.

All routines work on plain lists of lists.  Integer matrices use Python
ints, rational ones use fractions.Fraction; nothing here ever touches
floating point except as a navigation accelerator inside lll_reduce,
whose output is always recomputed and certified exactly.  det, invert and
solve_bareiss share one fraction-free (Bareiss) elimination core.

Canonical Hermite form used throughout the package: *lower-triangular*
row-style HNF.  For a nonsingular square matrix H this means
H[i][j] == 0 for j > i, H[i][i] > 0 and 0 <= H[i][j] < H[j][j] for
j < i.  Every full Z-module of row vectors has exactly one such basis,
so module equality is matrix equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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
    When d is a positive multiple of the determinant of the full-rank
    module M spanned by the rows, d*Z^n is already contained in M
    (multiply the adjugate identity d*B^-1 * B = d*I by the basis), so
    the result is the canonical basis of M itself; callers certify that
    case by checking that the pivot product equals the known determinant.
    """
    m, n = _dims(rows)
    if not isinstance(d, int) or d <= 0:
        raise ShapeError("hnf_mod_d needs a positive integer modulus")
    W = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    for row in rows:
        r = [x % d for x in row]
        # fold r into the triangular W from the highest column down; the
        # 2x2 step [[s, t], [af, -bf]] on (W[c], r) is unimodular, and
        # mod-d reductions only shift vectors by elements of d*Z^n
        for c in range(n - 1, -1, -1):
            if r[c] == 0:
                continue
            a, b = W[c][c], r[c]
            g, s, t = _xgcd(a, b)
            af, bf = a // g, b // g
            wc = W[c]
            new_wc = [(s * x + t * y) % d for x, y in zip(wc, r)]
            r = [(af * y - bf * x) % d for x, y in zip(wc, r)]
            new_wc[c] = g  # exact: g == d would otherwise reduce to 0
            r[c] = 0
            W[c] = new_wc
    # normalize off-diagonal entries into [0, pivot)
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = W[i][j] // W[j][j]
            if q:
                W[i] = [x - q * y for x, y in zip(W[i], W[j])]
    return W


def _cleared(rows):
    """Rows scaled to integers by the lcm of their denominators: (rows, scales)."""
    out, scales = [], []
    for row in rows:
        s = 1
        for x in row:
            s = lcm(s, x.denominator)
        out.append([int(x * s) for x in row])
        scales.append(s)
    return out, scales


def _bareiss(A, B):
    """Fraction-free (Bareiss) forward elimination of the square integer A.

    A becomes upper triangular in place and the same row operations are
    applied to the integer block B (one row per row of A, any width,
    possibly zero).  Every division is exact.  Returns (sign, d) with sign
    the parity of the row swaps and d the final pivot, so det(A) = sign*d.
    Raises SingularError when A is singular.
    """
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k]), None)
            if piv is None:
                raise SingularError("matrix is singular")
            A[k], A[piv] = A[piv], A[k]
            B[k], B[piv] = B[piv], B[k]
            sign = -sign
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
    return sign, prev


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

    Rows are cleared to integers and eliminated fraction-free (Bareiss);
    the result is an int whenever it is integral.
    """
    m, n = _dims(mat)
    if m != n:
        raise ShapeError("determinant needs a square matrix")
    A, scales = _cleared(mat)
    try:
        sign, d = _bareiss(A, [[] for _ in range(n)])
    except SingularError:
        return 0
    q = Fraction(sign * d, prod(scales))
    return q.numerator if q.denominator == 1 else q


def invert(mat):
    """Exact inverse of a square matrix (entries int or Fraction).

    Rows are cleared to integers, run through fraction-free (Bareiss)
    forward elimination with the same row operations applied to an
    identity block, and back-substituted over the integers: with d the
    final pivot (the determinant of the permuted scaled matrix), d times
    the solution is the integer adjugate-like matrix, so every division
    is exact and no per-operation gcd normalization happens.  Rationals
    appear only in the n^2 final entries.
    """
    m, n = _dims(mat)
    if m != n:
        raise ShapeError("inverse needs a square matrix")
    A, scales = _cleared(mat)
    B = identity(n)
    _, d = _bareiss(A, B)
    Y = _back_substitute(A, B, d)
    return [[Fraction(Y[i][j] * scales[j], d) for j in range(n)] for i in range(n)]


def solve_bareiss(mat, rhs):
    """Solve the square system mat * x = rhs exactly, fraction-free.

    Each row of [mat | rhs] is cleared to integers (row scaling leaves the
    solution unchanged), eliminated by fraction-free (Bareiss) forward
    steps, and back-substituted over the integers exactly as in invert:
    with d the final pivot, d*x is integral, so the only rationals are the
    n returned entries.  Raises SingularError when det(mat) = 0.
    """
    m, n = _dims(mat)
    if m != n:
        raise ShapeError("solve_bareiss needs a square matrix")
    if len(rhs) != n:
        raise ShapeError("rhs length mismatch")
    A, _ = _cleared([list(row) + [r] for row, r in zip(mat, rhs)])
    B = [[row.pop()] for row in A]
    _, d = _bareiss(A, B)
    return [Fraction(row[0], d) for row in _back_substitute(A, B, d)]


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


def _gso(G, n):
    """Exact Gram-Schmidt data (mu, B) computed from inner products only."""
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = G[i][j]
            for k in range(j):
                s = s - mu[i][k] * mu[j][k] * B[k]
            if B[j] == 0:
                raise FormError("matrix is not positive definite")
            mu[i][j] = s / B[j]
        s = G[i][i]
        for k in range(i):
            s = s - mu[i][k] * mu[i][k] * B[k]
        B[i] = s
        mu[i][i] = Fraction(1)
    return mu, B


def _row_combine(G, U, k, j, q):
    """Apply basis_k <- basis_k - q*basis_j to the Gram matrix and transform."""
    n = len(G)
    gkk = G[k][k] - 2 * q * G[k][j] + q * q * G[j][j]
    U[k] = [x - q * y for x, y in zip(U[k], U[j])]
    for t in range(n):
        G[k][t] = G[k][t] - q * G[j][t]
    for t in range(n):
        G[t][k] = G[k][t]
    G[k][k] = gkk


def _swap_rows(G, U, k):
    n = len(G)
    U[k - 1], U[k] = U[k], U[k - 1]
    G[k - 1], G[k] = G[k], G[k - 1]
    for t in range(n):
        G[t][k - 1], G[t][k] = G[t][k], G[t][k - 1]


def lll_reduce(G, delta=Fraction(99, 100)):
    """LLL-reduce a positive definite Gram matrix with exact arithmetic.

    Returns (G2, T) with T unimodular and G2 == T^t * G * T satisfying the
    size-reduction and Lovasz conditions for the given delta.  Only the
    Gram matrix is needed; Gram-Schmidt data is maintained incrementally
    with Fraction arithmetic (no floating point anywhere), so the Lovasz
    condition of the result can be re-checked exactly from G2.
    """
    n = _check_gram(G)
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise FormError("delta must lie in (1/4, 1)")
    Gw = [[Fraction(x) for x in row] for row in G]
    U = identity(n)
    if n == 1:
        if Gw[0][0] <= 0:
            raise FormError("matrix is not positive definite")
        return Gw, transpose(U)
    mu, B = _gso(Gw, n)
    if any(b <= 0 for b in B):
        raise FormError("matrix is not positive definite")

    def reduce_entry(k, l):
        if 2 * abs(mu[k][l]) > 1:
            q = round(mu[k][l])
            _row_combine(Gw, U, k, l, q)
            mu[k][l] -= q
            for j in range(l):
                mu[k][j] -= q * mu[l][j]

    k = 1
    while k < n:
        reduce_entry(k, k - 1)
        if B[k] < (delta - mu[k][k - 1] * mu[k][k - 1]) * B[k - 1]:
            _swap_rows(Gw, U, k)
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


def cholesky(G):
    """Exact LDL-style decomposition of a positive definite Gram matrix.

    Returns a single RatMatrix R holding the positive pivots d_i = R[i][i]
    and the unit-triangular coefficients u_ij = R[i][j] for j > i, so that
    x^t G x == sum_i d_i * (x_i + sum_{j>i} u_ij x_j)^2.  Raises FormError
    if G is not symmetric positive definite.
    """
    n = _check_gram(G)
    C = [[Fraction(x) for x in row] for row in G]
    R = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = C[i][i]
        if d <= 0:
            raise FormError("matrix is not positive definite")
        R[i][i] = d
        for j in range(i + 1, n):
            R[i][j] = C[i][j] / d
        for j in range(i + 1, n):
            uij = R[i][j]
            if uij:
                Ci = C[i]
                Cj = C[j]
                for k in range(j, n):
                    Cj[k] -= uij * Ci[k]
    return R
