"""Ideal lattices: exact Gram matrices, numeric generator matrices, duals,
definitional modularity verification, and exact minimum / theta counts.

The Gram matrix of (I, alpha) is Tr(alpha * w_i * conj(w_j)) over the
canonical basis of I, kept as exact rationals.  Modularity is verified by
the defining module identity (beta) * tracedual(I, alpha) = I -- never by
isometry search -- together with the level, integrality, and determinant
clauses.  Vector enumeration runs Fincke-Pohst on the exactly LLL-reduced
Gram matrix: floating-point partial sums steer the tree with a widened
bound, and every surviving leaf is re-checked in exact arithmetic, so the
reported minimum, kissing number, and theta counts are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .fields import (
    FieldElement,
    FieldMismatch,
    SpecError,
    default_precision,
    embedding_matrix,
    is_totally_positive,
    trace_pairing,
)
from .ideals import FractionalIdeal, ideal_mul, principal, trace_dual
from .linalg import FormError, cholesky, det, lll_reduce

__all__ = [
    "IdealLattice", "LatticeReport", "ModularityFailure",
    "build", "generator_matrix", "dual", "verify_modularity",
    "minimum", "theta_prefix",
]


class ModularityFailure(ValueError):
    """A definitional modularity clause failed; .clause names it."""

    def __init__(self, clause, message):
        super().__init__(f"clause {clause}: {message}")
        self.clause = clause


class IdealLattice:
    """An ideal I with the twisted trace form b(x, y) = Tr(alpha * x * conj(y))."""

    __slots__ = ("field", "ideal", "alpha", "gram")

    def __init__(self, field, ideal, alpha, gram):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("IdealLattice is immutable")

    @property
    def dimension(self):
        return self.field.degree

    def determinant(self):
        return _gram_det(self.gram)

    def is_integral(self):
        return all(x.denominator == 1 for row in self.gram for x in row)

    def is_even(self):
        return self.is_integral() and all(row[i] % 2 == 0
                                          for i, row in enumerate(self.gram))

    def __repr__(self):
        return (f"IdealLattice({self.field.spec_string()}, dim={self.dimension}, "
                f"det={self.determinant()})")


class LatticeReport:
    """Computed lattice facts; minimum/kissing/theta stay None until computed."""

    __slots__ = ("dimension", "determinant", "integral", "even", "minimum",
                 "kissing", "theta", "modular_level", "witness_checked")

    def __init__(self, dimension, determinant, integral, even,
                 minimum=None, kissing=None, theta=None,
                 modular_level=None, witness_checked=False):
        self.dimension = dimension
        self.determinant = determinant
        self.integral = integral
        self.even = even
        self.minimum = minimum
        self.kissing = kissing
        self.theta = theta
        self.modular_level = modular_level
        self.witness_checked = witness_checked

    def __repr__(self):
        return (f"LatticeReport(dim={self.dimension}, det={self.determinant}, "
                f"integral={self.integral}, even={self.even}, min={self.minimum}, "
                f"level={self.modular_level}, checked={self.witness_checked})")


def _gram_det(gram):
    d = Fraction(1)
    for i, pivot in enumerate(cholesky(gram)):
        d *= pivot[i]
    return int(d) if d.denominator == 1 else d


def build(field, ideal, alpha):
    """Exact Gram of (I, alpha); positive definiteness certified by LDL."""
    if not isinstance(ideal, FractionalIdeal) or ideal.field != field:
        raise FieldMismatch("ideal must belong to the lattice field")
    if not isinstance(alpha, FieldElement) or alpha.field != field:
        raise FieldMismatch("alpha must belong to the lattice field")
    if not is_totally_positive(alpha):
        raise FormError("alpha must be totally positive")
    basis = ideal.basis_elements()
    scaled_rows = [(alpha * b).coeffs for b in basis]
    conj_rows = [b.conj().coeffs for b in basis]
    gram = tuple(tuple(Fraction(t) for t in row)
                 for row in trace_pairing(field, scaled_rows, conj_rows))
    cholesky([list(r) for r in gram])  # raises FormError if not PD or asymmetric
    return IdealLattice(field, ideal, alpha, gram)


def generator_matrix(lat, precision=None):
    """Numeric basis-embedding matrix scaled by sqrt(alpha) per embedding.

    The product M * M^t is checked against the exact Gram within
    2^(-precision/2); rows follow the canonical ideal basis.
    """
    if precision is None:
        precision = default_precision()
    field = lat.field
    m = field.degree
    power = embedding_matrix(field, precision).entries
    with mpmath.workprec(precision + 32):
        alpha_vals = lat.alpha.embed(precision)
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


def dual(lat):
    """Dual lattice on tracedual(I, alpha) with the same alpha (certified)."""
    dual_ideal = trace_dual(lat.ideal, lat.alpha)
    out = build(lat.field, dual_ideal, lat.alpha)
    # certificate: the pairing matrix between the two bases is integral and
    # unimodular, which is exactly "out is the dual lattice of lat"
    scaled_rows = [(lat.alpha * d_el).coeffs for d_el in dual_ideal.basis_elements()]
    conj_rows = [b.conj().coeffs for b in lat.ideal.basis_elements()]
    pairing = []
    for raw in trace_pairing(lat.field, scaled_rows, conj_rows):
        row = []
        for t in raw:
            if t.denominator != 1:
                raise ArithmeticError("dual pairing is not integral")
            row.append(int(t))
        pairing.append(row)
    if abs(det(pairing)) != 1:
        raise ArithmeticError("dual pairing is not unimodular")
    return out


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
    dual_ideal = trace_dual(lat.ideal, lat.alpha)
    if ideal_mul(principal(beta), dual_ideal) != lat.ideal:
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
# exact enumeration (Fincke-Pohst with float steering, exact leaf recheck)
# --------------------------------------------------------------------------

def _as_gram(lat_or_gram):
    if isinstance(lat_or_gram, IdealLattice):
        return [list(row) for row in lat_or_gram.gram]
    return [[Fraction(x) for x in row] for row in lat_or_gram]


_SLACK = 0.26


def _enumerate_representatives(gram, bound, on_vector):
    """Visit all nonzero vectors x (one per +-x pair) with exact norm at most
    the current bound; report (exact_norm, x) through on_vector, which may
    return a new, smaller bound to steer the rest of the walk.

    The float tree bound is widened by a constant slack, and each surviving
    leaf is re-evaluated with exact rationals, so no vector within the exact
    bound is ever missed and no overweight vector is ever reported.
    """
    n = len(gram)
    ldl = cholesky(gram)
    df = [float(ldl[i][i]) for i in range(n)]
    uf = [[float(ldl[i][j]) for j in range(n)] for i in range(n)]
    x = [0] * n
    state = {"bound": float(bound) + _SLACK}

    def exact_norm():
        total = Fraction(0)
        for i in range(n):
            xi = x[i]
            if xi:
                row = gram[i]
                total += xi * xi * row[i]
                for j in range(i):
                    if x[j]:
                        total += 2 * xi * x[j] * row[j]
        return total

    def walk(i, partial, nonzero):
        if i < 0:
            if nonzero:
                new_bound = on_vector(exact_norm(), x)
                if new_bound is not None:
                    state["bound"] = new_bound + _SLACK
            return
        center = 0.0
        for j in range(i + 1, n):
            if x[j]:
                center += uf[i][j] * x[j]
        budget = state["bound"] - partial
        if budget < 0:
            return
        radius = math.sqrt(budget / df[i]) if budget > 0 else 0.0
        lo = math.ceil(-center - radius)
        if not nonzero:
            lo = max(lo, 0)
        hi = math.floor(-center + radius)
        for xi in range(lo, hi + 1):
            x[i] = xi
            step = df[i] * (xi + center) ** 2
            if partial + step <= state["bound"]:
                walk(i - 1, partial + step, nonzero or xi != 0)
        x[i] = 0

    walk(n - 1, 0.0, False)


def minimum(lat_or_gram):
    """Exact (minimum, kissing number); kissing counts both signs."""
    gram = _as_gram(lat_or_gram)
    reduced, _ = lll_reduce(gram)
    best = {"mu": min(reduced[i][i] for i in range(len(reduced))), "count": 0}

    def on_vector(norm, _x):
        if norm < best["mu"]:
            best["mu"] = norm
            best["count"] = 1
            return float(norm)
        if norm == best["mu"]:
            best["count"] += 1
        return None

    _enumerate_representatives(reduced, best["mu"], on_vector)
    mu = best["mu"]
    if best["count"] == 0:
        # the starting bound itself is the minimum, attained by a basis
        # vector the tree also visits; count == 0 cannot happen since the
        # diagonal vector e_i is enumerated -- keep a hard failure anyway
        raise ArithmeticError("enumeration missed the witness basis vector")
    return (int(mu) if mu.denominator == 1 else mu), 2 * best["count"]


def theta_prefix(lat_or_gram, bound):
    """Exact vector counts per norm value up to bound (0 included once)."""
    if bound < 0:
        raise SpecError("theta bound must be nonnegative")
    gram = _as_gram(lat_or_gram)
    reduced, _ = lll_reduce(gram)
    bound = Fraction(bound)
    counts = {}

    def on_vector(norm, _x):
        if norm <= bound:
            counts[norm] = counts.get(norm, 0) + 1
        return None

    _enumerate_representatives(reduced, bound, on_vector)
    out = [(Fraction(0), 1)] + [(nrm, 2 * c) for nrm, c in sorted(counts.items())]
    return [(int(nrm) if nrm.denominator == 1 else nrm, c) for nrm, c in out]
