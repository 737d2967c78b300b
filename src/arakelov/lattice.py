"""Ideal lattices: exact Gram matrices, numeric generator matrices,
definitional modularity verification, and exact minimum / theta counts.

The Gram matrix of (I, alpha) is Tr(alpha * w_i * conj(w_j)) over the
canonical basis of I, kept as integer rows over one scale; the rational
Gram is formed only when a caller reads it.  Modularity is verified by
the defining module identity (beta) * tracedual(I, alpha) = I -- never by
isometry search -- together with the level, integrality, and determinant
clauses.  Vector enumeration runs Fincke-Pohst on the Bareiss triangle
that integral LLL ends with.  Each level of the walk holds its own
integer norm P_(k-1) * D * |pi_k(v)|^2, with no scale common to all
levels, and the walk counts the integers D * |v|^2, so the reported
minimum, kissing number, and theta counts are exact, with one Fraction
per distinct norm; a walk past ENUMERATION_BUDGET nodes raises
EnumerationBudgetExceeded instead.

A walk that passes SPLIT_ALLOWANCE nodes forks once, where os.fork exists,
the process runs one thread and two CPUs are allowed, and the two
processes walk alternate subtrees below one level.  Every walk of minimum
and theta_prefix has a fixed bound, minimum's the least norm of the
reduced basis, so those subtrees are independent: the parent adds the
child's counts and nodes to its own and gets the counts, node total and
budget verdict of one process, and the two halves share one node budget.
"""

from __future__ import annotations

import marshal
import math
import os
from fractions import Fraction

from .fields import (
    FieldElement,
    FieldMismatch,
    SpecError,
    default_precision,
    embedding_matrix,
    _trace_form_det,
    trace_pairing,
)
from .ideals import (
    FractionalIdeal,
    ideal_mul,
    trace_dual,
    _gram_dual,
    _level_principal,
)
from .linalg import FormError, _lll

__all__ = [
    "IdealLattice", "LatticeReport", "ModularityFailure",
    "EnumerationBudgetExceeded", "ENUMERATION_BUDGET",
    "build", "generator_matrix", "verify_modularity",
    "minimum", "theta_prefix",
]


class ModularityFailure(ValueError):
    """A definitional modularity clause failed; .clause names it."""

    def __init__(self, clause, message):
        super().__init__(f"clause {clause}: {message}")
        self.clause = clause


class IdealLattice:
    """An ideal I with the twisted trace form b(x, y) = Tr(alpha * x * conj(y)).

    It is made from the integer Gram rows and their scale that
    trace_pairing returns (the Gram is rows / scale).  The rows are
    N * H * N^t for the HNF rows N of I and the trace form H of alpha
    (fields.trace_form), so Sylvester's criterion on H certifies the Gram
    positive definite, as N is nonsingular; it is the test of
    is_totally_positive, and alpha keeps det(H), so H is decided once per
    alpha: by one sub-resultant PRS of the Hankel form on a totally real
    field, by ldl_integral(H) on a CM field.  The determinant is
    det(N)^2 * det(H) / scale^m, with det(N) the product of the HNF
    pivots.
    The rational ``gram`` is formed on its first read, which build ->
    verify_modularity never makes, and integer_gram() reads an integral
    Gram off the integer rows.  alpha is totally positive, so
    alpha = conj(alpha) and trace_pairing forms only the entries i >= j
    and mirrors them; each pair of mirrored entries that are equal,
    rows[i][j] == rows[j][i], shares one Fraction.
    The walk's reduction (the scale D and the triangle A of _lll) is formed
    from the integer rows on first use and kept, so minimum and
    theta_prefix of one lattice reduce it once.
    Integrality and evenness are read here off the integer rows: the Gram
    is integral iff scale divides every entry of its upper triangle.  The
    integer (rows, scale) are kept, so the trace dual of an ideal held as
    rows solves against them and verifying forms the Gram no second time.
    """

    __slots__ = ("field", "ideal", "alpha", "_gram", "_rows", "_scale", "_det",
                 "_walk", "_integral", "_even")

    def __init__(self, field, ideal, alpha, rows, scale):
        try:
            trace_det = _trace_form_det(alpha)
        except FormError:
            raise FormError("alpha must be totally positive") from None
        m = field.degree
        pivots = math.prod(ideal.num[i][i] for i in range(m))
        d = Fraction(pivots * pivots * trace_det, scale ** m)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_det", d.numerator if d.denominator == 1 else d)
        object.__setattr__(self, "_walk", None)
        integral = all(e % scale == 0 for i, row in enumerate(rows) for e in row[i:])
        object.__setattr__(self, "_integral", integral)
        object.__setattr__(self, "_even", integral and all(
            row[i] // scale % 2 == 0 for i, row in enumerate(rows)))

    def __setattr__(self, name, value):
        raise AttributeError("IdealLattice is immutable")

    @property
    def dimension(self):
        return self.field.degree

    def determinant(self):
        return self._det

    def is_integral(self):
        return self._integral

    def is_even(self):
        return self._even

    @property
    def gram(self):
        """The rational Gram rows / scale, formed on first read; each pair
        of mirrored entries that are equal shares one Fraction."""
        if self._gram is None:
            rows, scale = self._rows, self._scale
            gram = []
            for i, row in enumerate(rows):
                gram.append(tuple([gram[j][i] if e == rows[j][i] else Fraction(e, scale)
                                   for j, e in enumerate(row[:i])]
                                  + [Fraction(e, scale) for e in row[i:]]))
            object.__setattr__(self, "_gram", tuple(gram))
        return self._gram

    def integer_gram(self):
        """The integral Gram as rows of ints, rows / scale with no
        Fraction formed; ValueError when the Gram is not integral."""
        if not self._integral:
            raise ValueError("Gram matrix is not integral")
        scale = self._scale
        return [[e // scale for e in row] for row in self._rows]

    def _reduced(self):
        """(D, A) of the walk's reduction of the Gram, reduced on first use
        from the integer rows: with g = gcd(scale, entries), D = scale / g
        is the lcm of the Gram's denominators and D * Gram = rows / g."""
        if self._walk is None:
            rows = self._rows
            g = math.gcd(self._scale, *(e for i, row in enumerate(rows) for e in row[i:]))
            D, _, _, A = _lll([[e // g for e in row] for row in rows], scale=self._scale // g)
            object.__setattr__(self, "_walk", (D, A))
        return self._walk

    def __repr__(self):
        return (f"IdealLattice({self.field.spec_string()}, dim={self.dimension}, "
                f"det={self.determinant()})")


class LatticeReport:
    """Lattice facts established by verify_modularity."""

    __slots__ = ("dimension", "determinant", "integral", "even",
                 "modular_level", "witness_checked")

    def __init__(self, dimension, determinant, integral, even,
                 modular_level=None, witness_checked=False):
        self.dimension = dimension
        self.determinant = determinant
        self.integral = integral
        self.even = even
        self.modular_level = modular_level
        self.witness_checked = witness_checked

    def __repr__(self):
        return (f"LatticeReport(dim={self.dimension}, det={self.determinant}, "
                f"integral={self.integral}, even={self.even}, "
                f"level={self.modular_level}, checked={self.witness_checked})")


def build(field, ideal, alpha):
    """Exact Gram of (I, alpha); the IdealLattice it returns certifies
    positive definiteness, and with it the total positivity of alpha."""
    if not isinstance(ideal, FractionalIdeal) or ideal.field != field:
        raise FieldMismatch("ideal must belong to the lattice field")
    if not isinstance(alpha, FieldElement) or alpha.field != field:
        raise FieldMismatch("alpha must belong to the lattice field")
    return IdealLattice(field, ideal, alpha, *trace_pairing(alpha, ideal, ideal))


def generator_matrix(lat, precision=None):
    """Numeric basis-embedding matrix scaled by sqrt(alpha) per embedding.

    The product M * M^t is checked against the exact Gram within
    2^(-precision/2); rows follow the canonical ideal basis.  A row entry
    sums coordinates times powers of the embedded theta, so it can lose
    bits to cancellation; when the check fails at precision + 32 working
    bits, the rows are recomputed with guard bits for the largest term of
    a Gram entry and checked again.
    """
    if precision is None:
        precision = default_precision()
    try:
        return _generator_rows(lat, precision, precision)
    except ArithmeticError:
        pass
    # a Gram entry sums m products of two row entries, and a row entry is
    # sqrt(alpha_j) times a sum of m coordinates times powers of theta_j, as
    # is alpha_j: with b and a the bits of the ideal's and alpha's
    # coordinates and s >= (m-1) * log2 max|theta_j| (int(t).bit_length()
    # bounds log2 t for t >= 1), no term has more than 2b + a + 3(s + bits(m))
    m = lat.field.degree
    top = max(abs(t) for t in lat.field.embedding_values(precision))
    s = (m - 1) * int(top).bit_length()
    b = max(abs(e) for row in lat.ideal.num for e in row).bit_length()
    a = max(abs(e) for e in lat.alpha.num).bit_length()
    return _generator_rows(lat, precision, precision + 2 * b + a + 3 * (s + m.bit_length()))


def _generator_rows(lat, precision, bits):
    """The rows of generator_matrix computed at bits + 32 working bits and
    checked within 2^(-precision/2); ArithmeticError if they disagree."""
    import mpmath
    field = lat.field
    m = field.degree
    power = embedding_matrix(field, bits).entries
    with mpmath.workprec(bits + 32):
        alpha_vals = lat.alpha.embed(bits)
        if field.is_cm:
            reps = alpha_vals[0::2]
            scales = []
            for v in reps:
                value = mpmath.mpc(v)
                if abs(value.imag) > mpmath.ldexp(1, -precision // 2):
                    raise ArithmeticError("alpha embedding is not real")
                root = mpmath.sqrt(value.real)
                scales.extend([root, root])
        else:
            scales = [mpmath.sqrt(mpmath.mpf(v)) for v in alpha_vals]
        rows = []
        for row in lat.ideal.num:
            coords = [Fraction(e, lat.ideal.den) for e in row]
            out = []
            for j in range(m):
                acc = mpmath.mpf(0)
                for k in range(m):
                    c = coords[k]
                    if c:
                        acc += (mpmath.mpf(c.numerator) / c.denominator) * power[k][j]
                out.append(acc * scales[j])
            rows.append(out)
        tol = mpmath.ldexp(1, -(precision // 2))
        for i in range(m):
            for j in range(m):
                approx = mpmath.fsum(rows[i][k] * rows[j][k] for k in range(m))
                g = lat.gram[i][j]
                exact = mpmath.mpf(g.numerator) / g.denominator
                if abs(approx - exact) > tol:
                    raise ArithmeticError(
                        f"generator matrix disagrees with the Gram at ({i},{j})")
    return [list(r) for r in rows]


def _dual_ideal(lat):
    """tracedual(I, alpha), for an ideal held as rows from the lattice's
    own integer Gram."""
    if lat.ideal._gen is not None:
        return trace_dual(lat.ideal, lat.alpha)
    return _gram_dual(lat.ideal, lat.alpha, lat._rows, lat._scale)


def verify_modularity(lat, witness):
    """Definitional verification against a witness (beta, level).

    Clauses, each exact: (i) beta * conj(beta) = level; (ii) the module
    identity (beta) * tracedual(I, alpha) = I; (iii) integrality of the
    Gram; (iv) det(Gram)^2 = level^dimension.  Any failure raises
    ModularityFailure naming the clause.
    """
    field = lat.field
    if witness.field != field:
        raise FieldMismatch("witness belongs to a different field")
    if witness.alpha != lat.alpha:
        raise SpecError("witness alpha differs from the lattice form")
    level = witness.level
    beta = witness.beta
    if beta * beta.conj() != field.rational(level):
        raise ModularityFailure("i", f"beta * conj(beta) != {level}")
    ideal = lat.ideal
    lhs = ideal_mul(_level_principal(beta, level), _dual_ideal(lat))
    # decided on I's certified HNF rows, never by comparing generators, so
    # the module route stays independent of the witness self-check.  A
    # principal (x) = (beta) * dual(I) lies in the O_K-module I exactly
    # when x does, and then equals it exactly when N((x)) = N(I); N((x)) is
    # a product of certified norms: |N(beta)| by clause (i), N(D_K^-1) by
    # the Euler certificate, N(I) by I's pivots and N(alpha) by its
    # sub-resultant pass.  A product held as rows is compared row for row.
    x = lhs._gen
    if x is not None:
        same = ideal.contains(x) and lhs.norm() == ideal.norm()
    else:
        same = (lhs.num, lhs.den) == (ideal.num, ideal.den)
    if not same:
        raise ModularityFailure("ii", "(beta) * dual(I) != I as modules")
    if not lat.is_integral():
        raise ModularityFailure("iii", "Gram matrix is not integral")
    d = lat.determinant()
    if Fraction(d) ** 2 != Fraction(level) ** lat.dimension:
        raise ModularityFailure(
            "iv", f"det = {d} but level^(dim/2) requires det^2 = {level}^{lat.dimension}")
    return LatticeReport(
        dimension=lat.dimension,
        determinant=d,
        integral=True,
        even=lat.is_even(),
        modular_level=level,
        witness_checked=True,
    )


# --------------------------------------------------------------------------
# exact enumeration (Fincke-Pohst on per-level integer norms)
# --------------------------------------------------------------------------

# The most nodes one enumeration enters: the root and every coordinate it
# accepts above level 0 (the leaves at level 0 are not counted).  A count,
# not a time, so a walk ends the same way on every run.  The theta series
# to 16 of the dim-22 catalog lattice after a random basis change takes
# ~120,000 nodes, and the minimum of realcyclo:73 at level 73 (dim 36)
# 587,122.  The dim-56 lattice of realcyclo:113 at level 113, whose walk
# a Gaussian-heuristic estimate puts at about 6.1e9 nodes, passes the
# budget instead.  A walk split between two processes counts the nodes of
# both, so it passes the budget exactly where one process would: every
# SPLIT_ALLOWANCE nodes each process publishes its count, and raises once
# the two counts add up to more than the budget.
ENUMERATION_BUDGET = 3_000_000

# A walk that passes SPLIT_ALLOWANCE nodes forks at its next entry into
# level max(n - SPLIT_DEPTH, 0), and the two processes walk alternate
# subtrees below it.  A fork costs 0.6-0.9 ms, about the time of 1,000
# nodes, so no walk of the batch Grams (<= 7 nodes) or of the catalog
# reaches the allowance, while `verify --min --theta 14` on the dim-22
# realcyclo:92 record (46,540 nodes), the minimum of realcyclo:73 at level
# 73 (587,122) and the dim-21 realcyclo:49 theta-5 walk (1,296,027) pass
# it.  At depth 8 the larger of the two processes walks 52% of the
# realcyclo:49 nodes, against 59% at depth 6 and 66% at depth 4.  The
# walks of the largest lattices come back to that level late or never:
# realcyclo:308 at level 77 (dim 60) at node 40,114, realcyclo:73 at node
# 22,208, and realcyclo:113 at level 113 (dim 56) not within the budget.
# So a walk that has not forked by SPLIT_WAIT nodes lowers its split level
# to just below the highest level of its path that has moved past its
# first coordinate, a level it has come back to (35 for realcyclo:113, at
# node 58,877, and 31 for realcyclo:89 at level 89).
SPLIT_ALLOWANCE = 5_000
SPLIT_DEPTH = 8
SPLIT_WAIT = 10 * SPLIT_ALLOWANCE


class EnumerationBudgetExceeded(ValueError):
    """An exact enumeration entered more than ENUMERATION_BUDGET nodes;
    .dimension and .budget name the lattice dimension and the budget."""

    def __init__(self, dimension, budget):
        super().__init__(
            f"exact enumeration in dimension {dimension} passed its budget "
            f"of {budget} nodes")
        self.dimension = dimension
        self.budget = budget


def _enumerate_representatives(lat_or_gram, bound, fork=None, share=lambda mine: 0):
    """Count all nonzero vectors v (one per +-v pair) with norm at most
    bound, or the least basis norm when bound is None, by the integer
    D * |v|^2.  Returns (counts, nodes, D): {D * |v|^2: vectors}, the
    number of nodes entered and the scale of the counted norms; past
    ENUMERATION_BUDGET nodes raises EnumerationBudgetExceeded.

    v runs over coordinates x on the reduced basis, whose Bareiss triangle
    (D, A) _lll returns: the walk's reduction is a plain LLL pass at
    delta = 3/4 and a pass at delta = 0.99 with deep insertions of depth 5
    (Schnorr-Euchner, Math. Programming 66, 1994), which cuts the nodes
    the walk enters; lll_reduce keeps one plain pass, the textbook LLL
    basis its callers expect.  An IdealLattice keeps (D, A) for its later
    walks; a Gram given as rows is reduced on every call.

    Each level keeps its own integer norm, with no common scale.  With
    pivots P_k (P_-1 = 1) and y_k = sum_{j>=k} A[k][j] x_j, level k holds
    N_k = P_(k-1) * D * |pi_k(v)|^2, the determinant of the Gram of
    (b_0, ..., b_(k-1), v) in D * G, so an integer, and
    N_k = (P_(k-1) * N_(k+1) + y_k^2) / P_k exactly (N_n = 0); N_0 is the
    counted D * |v|^2.  Level k's cap is C_k = floor(P_(k-1) * D * bound),
    and N_k <= C_k iff |pi_k(v)|^2 <= bound, so x_k ranges over
    y_k^2 <= room = P_k * C_k - P_(k-1) * N_(k+1), y_k = P_k * x_k + s_k,
    one isqrt, and the range is empty when room is negative; every x_k in
    it has |y_k| <= isqrt(room), so N_k <= C_k with no further check.  The
    numbers a node handles have about 2 bits(P) + bits(D * bound) bits,
    where one scale common to all levels, D * lcm(P_k * P_(k-1)), had
    thousands in dimension 56.

    The walk (Fincke-Pohst, Math. Comp. 44, 1985) is one loop over
    per-level arrays, depth first, each level's x_k in increasing order;
    level 0 is a flat loop that counts its vectors.  The center
    s_k = sum_{j>k} A[k][j] x_j comes from Schnorr-Euchner partial sums
    sig[k][j] = sum_{i>=j} A[k][i] x_i (Math. Programming 66, 1994):
    begin[l] is the highest index whose x changed since row l-1 was last
    summed, so descending to level l-1 re-sums that row from begin[l]
    down only, and each center costs O(1) amortized.

    fork splits the walk between two processes, as in parallel
    enumeration (Dagdelen-Schneider, Euro-Par 2010): with a fixed bound
    the subtrees below one level are independent of each other.  The
    split level is max(n - SPLIT_DEPTH, 0), lowered past SPLIT_WAIT nodes
    with no fork (every SPLIT_ALLOWANCE nodes until the fork) to one below
    the highest level of the current path whose x has moved past the
    first coordinate of its range.  At the first entry into it after
    more than SPLIT_ALLOWANCE nodes, fork() returns the owner this process
    takes, 0 or 1, or None to walk on alone.  From that entry on, the entries
    into the split level alternate between owner 0 and owner 1, and each
    process walks only its owner's subtrees there: it enters the other
    owner's uncounted and with no room.  Both walk the same levels above
    it.  Owner 1 then returns the counts and nodes of its own subtrees
    alone, so the two add up to those of the one-process walk.
    From the fork on, every SPLIT_ALLOWANCE nodes, share(mine) publishes
    this process's count, owner 1's without the nodes both walk, and
    returns the count the other last published; their sum is at most the
    one-process count, so a walk that raises once it passes the budget
    raises only where one process does.  With no share, the other half's
    nodes are taken as 0.
    """
    if isinstance(lat_or_gram, IdealLattice):
        scale, A = lat_or_gram._reduced()
    else:
        scale, _, _, A = _lll(lat_or_gram)
    n = len(A)
    piv = [A[i][i] for i in range(n)]
    prev = [1] + piv[:-1]
    if bound is None:
        # D * |b_k|^2 is N_0 of v = b_k: y_i = A[i][k] for i <= k
        least = None
        for k in range(n):
            norm = piv[k]
            for i in range(k - 1, -1, -1):
                norm = (prev[i] * norm + A[i][k] ** 2) // piv[i]
            least = norm if least is None or norm < least else least
    else:
        least = Fraction(bound) * scale
    # P_k * C_k per level for the cap least on D * |v|^2
    num, den = least.numerator, least.denominator
    cap = [P * (Q * num // den) for P, Q in zip(piv, prev)]
    counts = {}
    budget = ENUMERATION_BUDGET
    isqrt = math.isqrt
    # level l > 0 keeps x_l, the end of its range, its center, the
    # P_(l-1) * N_(l+1) of the levels above it, and their nonzero flag
    x = [0] * n
    end = [0] * n
    center = [0] * n
    used = [0] * n
    nonzero = [False] * n
    sig = [[0] * (n + 1) for _ in range(n)]
    begin = list(range(n))
    # the split level (n: none), the owner this process takes (-1 before
    # the fork), the owner of the next entry into the split level, and the
    # nodes both processes enter: before the fork and above the split level
    split = n if fork is None else max(n - SPLIT_DEPTH, 0)
    owner = turn = -1
    shared = 0
    nodes = 0
    # past limit: raise past the budget, lower the split level from
    # SPLIT_WAIT nodes on until the fork, and from the fork on, share the
    # count
    limit = budget if fork is None else min(SPLIT_WAIT, budget)
    i, norm, nz = n, 0, False
    while True:
        # enter level k = i - 1 with N_i = norm
        k = i - 1
        if k >= split:
            if k > split:
                shared += 1
            else:
                if owner < 0 and nodes > SPLIT_ALLOWANCE:
                    owner = fork()
                    if owner is None:  # one process walks it all
                        owner, split, fork = -1, n, None
                    elif owner == 1:
                        counts.clear()  # owner 0 keeps what came before
                    shared, turn, limit = nodes, 0, nodes
                if owner >= 0:
                    if turn != owner:
                        # the other process's subtree: enter it uncounted,
                        # with N_i past the cap, so with no room
                        nodes -= 1
                        norm = cap[k] + 1
                    turn ^= 1
        nodes += 1
        if nodes > limit:
            if owner < 0 and fork is not None:
                # the first coordinate level j took from its range; past
                # it, level j - 1 has been entered again
                for j in range(n - 1, k, -1):
                    first = -((isqrt(cap[j] - used[j]) + center[j]) // piv[j])
                    if x[j] > (first if nonzero[j] or first > 0 else 0):
                        split = min(split, j - 1)
                        break
            mine = nodes - shared if owner == 1 else nodes
            if owner >= 0:
                mine += share(mine)
            if nodes > budget or mine > budget:
                raise EnumerationBudgetExceeded(n, budget)
            limit = min(nodes + SPLIT_ALLOWANCE, budget)
        if i < n:
            b = begin[i]
            part = sig[k]
            row = A[k]
            if b == i:  # only x_i moved since row k was summed
                s = part[i] = part[i + 1] + row[i] * x[i]
            else:
                for j in range(b, k, -1):
                    part[j] = part[j + 1] + row[j] * x[j]
                begin[i] = i
                s = part[i]
            if b > begin[k]:
                begin[k] = b
        else:
            s = 0
        P = piv[k]
        t = prev[k] * norm
        room = cap[k] - t
        if room >= 0:
            r = isqrt(room)
            lo = -((r + s) // P)
            if not nz and lo < 0:
                lo = 0
            hi = (r - s) // P + 1
            if k and lo < hi:
                # |P * lo + s| <= r, so the first coordinate is within the cap
                x[k] = lo
                end[k] = hi
                center[k] = s
                used[k] = t
                nonzero[k] = nz
                y = P * lo + s
                norm = (t + y * y) // P
                nz = nz or lo != 0
                i = k
                continue
            if not k:
                for x0 in range(lo, hi):
                    if nz or x0:
                        y = P * x0 + s
                        v = (t + y * y) // P
                        counts[v] = counts.get(v, 0) + 1
        # the next coordinate to accept, at level i or above
        while i < n:
            xi = x[i] + 1
            if xi < end[i]:
                x[i] = xi
                y = piv[i] * xi + center[i]
                norm = (used[i] + y * y) // piv[i]
                nz = nonzero[i] or xi != 0
                break
            i += 1
        else:
            return counts, (nodes - shared if owner == 1 else nodes), scale


def _rational(norm, scale):
    """norm / scale, an int when it is integral."""
    q = Fraction(norm, scale)
    return q.numerator if q.denominator == 1 else q


def minimum(lat_or_gram):
    """Exact (minimum, kissing number); kissing counts both signs.

    The walk counts every vector up to the least norm of the reduced
    basis, a fixed bound, so it splits as a theta walk does (_theta_walk).
    Its tree is that of a walk that lowers its bound to each shorter
    vector it finds whenever a reduced basis vector is minimal, and larger
    only where none is.
    """
    counts, _, scale = _theta_walk(lat_or_gram, None)
    if not counts:
        # the basis vector of the bound is always visited
        raise ArithmeticError("enumeration missed the witness basis vector")
    mu = min(counts)
    return _rational(mu, scale), 2 * counts[mu]


def _may_fork():
    """Whether a walk may split: os.fork exists, the process runs one
    thread, and its CPU affinity allows two CPUs or more."""
    if not hasattr(os, "fork"):
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the threads the threading module knows
        import threading
        threads = threading.active_count()
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return threads == 1 and cpus >= 2


def _send(fd, message):
    """Write message, marshalled, to the pipe fd."""
    data = memoryview(marshal.dumps(message))
    while data:
        data = data[os.write(fd, data):]


class _Halves:
    """The second process of a split walk.  fork() starts it with a pipe
    back to the parent and two shared 8-byte slots, counts, one per owner,
    in which each process publishes its node count; pid is None before the
    fork and after the child is reaped, and 0 in the child."""

    __slots__ = ("pid", "fd", "counts", "owner")

    def __init__(self):
        self.pid = self.fd = self.counts = self.owner = None

    def fork(self):
        """The owner this process takes, 0 in the parent and 1 in the
        child, or None where the walk cannot split."""
        if not _may_fork():
            return None
        import mmap
        try:
            # an aligned native 8-byte word per owner, each written by its
            # owner alone in one store and read in one load
            self.counts = memoryview(mmap.mmap(-1, 16)).cast("q")
            read, write = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return None
        if pid == 0:
            os.close(read)
            self.pid, self.fd, self.owner = 0, write, 1
            return 1
        os.close(write)
        self.pid, self.fd, self.owner = pid, read, 0
        return 0

    def share(self, mine):
        """Publish mine in this process's slot; the count the other
        process last published in its own, 0 before it publishes one."""
        counts = self.counts
        counts[self.owner] = mine
        return counts[1 - self.owner]

    def finish(self, message):
        """In the child: send message and exit 0, or exit 1 with nothing
        sent when it is None; no code of the caller runs after it there.
        A no-op in the parent."""
        if self.pid == 0:
            try:
                if message is not None:
                    _send(self.fd, message)
            finally:
                os._exit(1 if message is None else 0)

    def join(self):
        """The child's message, read to the end of the pipe, or None when
        it sent no whole message; the child is reaped."""
        chunks = []
        while chunk := os.read(self.fd, 1 << 16):
            chunks.append(chunk)
        self.close()
        try:
            return marshal.loads(b"".join(chunks))
        except (EOFError, ValueError, TypeError):
            return None

    def close(self):
        """Close the pipe and the slots, and kill and reap the child; after
        join has read the pipe to its end the child has exited, and the
        kill is a no-op."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.counts is not None:
            self.counts.release()  # unmaps the slots
            self.counts = None
        if self.pid:
            pid, self.pid = self.pid, None
            import signal
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, e.g. under SIG_IGN
                pass


def _theta_walk(lat_or_gram, bound):
    """_enumerate_representatives of the whole walk, forked into two
    processes past SPLIT_ALLOWANCE nodes where _may_fork allows.  The two
    share the node budget through _Halves.share.  The child sends its
    (counts, nodes), or its dimension when it passed the budget, and the
    parent adds them to its own.  The half of a child that sends no whole
    message is walked here: the same walk, taking owner 1 with no fork."""
    halves = _Halves()
    try:
        try:
            counts, nodes, scale = _enumerate_representatives(
                lat_or_gram, bound, halves.fork, halves.share)
        except EnumerationBudgetExceeded as exc:
            halves.finish(exc.dimension)
            raise
        except BaseException:
            halves.finish(None)
            raise
        halves.finish((counts, nodes))
        if halves.pid is None:
            return counts, nodes, scale
        other = halves.join()
        if isinstance(other, int):
            raise EnumerationBudgetExceeded(other, ENUMERATION_BUDGET)
        if other is None:
            other = _enumerate_representatives(lat_or_gram, bound, lambda: 1)[:2]
        more, extra = other
        for norm, count in more.items():
            counts[norm] = counts.get(norm, 0) + count
        nodes += extra
        if nodes > ENUMERATION_BUDGET:
            n = lat_or_gram.dimension if isinstance(lat_or_gram, IdealLattice) else len(lat_or_gram)
            raise EnumerationBudgetExceeded(n, ENUMERATION_BUDGET)
        return counts, nodes, scale
    finally:
        halves.close()


def theta_prefix(lat_or_gram, bound):
    """Exact vector counts per norm value up to bound (0 included once).

    A walk that passes SPLIT_ALLOWANCE nodes forks once and finishes in
    two processes, each on alternate subtrees below the split level, where
    os.fork exists, the process runs one thread and two CPUs are allowed
    (_theta_walk); elsewhere, or when the fork fails, one process walks
    it all.  The prefix, the node count and the budget verdict are the
    same either way: with a fixed bound the subtrees below the split
    level are independent of each other, the parent adds the child's
    counts and nodes to its own, and the two halves share one node
    budget.  minimum walks the same way, to the least reduced basis norm.
    """
    if bound < 0:
        raise SpecError("theta bound must be nonnegative")
    counts, _, scale = _theta_walk(lat_or_gram, bound)
    return [(0, 1)] + [(_rational(nrm, scale), 2 * c) for nrm, c in sorted(counts.items())]
