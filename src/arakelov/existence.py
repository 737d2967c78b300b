"""Existence oracles for Arakelov-modular lattices and witness constructors.

Each oracle returns an ExistenceVerdict: the exact set of admissible
square-free levels for the field family, a descriptive rule tag, and --
when the field degree is within the materialization limit -- a fully
checked ConstructionWitness (level, beta, alpha, ideal recipe) per level.

Witness ideal exponents are never hard-coded: for all four oracles,
_radical_exponents solves the valuation-parity equation k_p =
v_p(alpha^-1 * beta * D_K^-1) / 2 at every ramified prime from the
field's ramification indices and different exponents, and _verdict
builds every witness; each oracle keeps only its input checks, level
set, alpha per level and rule tag.  Every constructed witness
re-verifies the defining identities exactly (level = beta * conj(beta),
alpha totally positive, half-level valuations of beta, and I * conj(I)
= alpha^-1 * beta * D_K^-1), on generators alone: the recipe's factored
form I = G * prod_S J_p, with J_p Galois-stable and J_p^2 = (g_p), makes
the last G * conj(G) * prod_S (g_p) * (alpha) * (beta)^-1 = (1/f'(theta)),
and the first gives beta^-1 = conj(beta)/level and |N(beta)| =
sqrt(level^m) with no sub-resultant pass.
"""

from __future__ import annotations

from math import gcd, prod

from .fields import (
    CyclotomicField,
    FieldElement,
    FieldMismatch,
    ImagQuadraticField,
    NumberField,
    RealCyclotomicField,
    RealQuadraticField,
    SpecError,
    factorize,
    is_squarefree,
    is_totally_positive,
    make_field,
    sqrt_integer,
)
from .ideals import (
    IdealRecipe,
    codifferent,
    conj_ideal,
    gamma_element,
    ideal_inverse,
    ideal_mul,
    principal,
    valuation,
    _factored,
    _level_principal,
    _principal_radical,
)

__all__ = [
    "ConstructionWitness", "ExistenceVerdict", "InternalInconsistency",
    "DEFAULT_MATERIALIZE_LIMIT", "omega_sets", "mod_quadratic",
    "mod_prime_power", "mod_nonprimepower_trace", "mod_odd_degree",
    "rescale", "check_level_bound", "classify",
]

# Witnesses are materialized (field elements built, ideals factored, all
# invariants re-verified with exact ideal arithmetic) only up to this
# degree; beyond it verdicts still carry exact level sets and rule tags.
DEFAULT_MATERIALIZE_LIMIT = 64


class InternalInconsistency(ArithmeticError):
    """A derived quantity contradicts an identity the theory guarantees."""


class ConstructionWitness:
    """A checked witness (level, beta, alpha, ideal recipe) for one lattice.

    Construction verifies the four defining identities exactly and raises
    InternalInconsistency if any fails; a successfully constructed witness
    is therefore proof of existence, independent of the classification
    logic that proposed it.
    """

    __slots__ = ("level", "beta", "alpha", "ideal")

    def __init__(self, level, beta, alpha, ideal):
        if not isinstance(level, int) or level < 1:
            raise SpecError(f"witness level must be a positive integer, got {level!r}")
        if not isinstance(alpha, FieldElement) or not isinstance(beta, FieldElement):
            raise SpecError("witness alpha and beta must be field elements")
        field = alpha.field
        if beta.field != field or ideal.field != field:
            raise FieldMismatch("witness parts belong to different fields")
        if beta * beta.conj() != field.rational(level):
            raise InternalInconsistency(
                f"beta * conj(beta) != {level} for beta = {beta}")
        if not is_totally_positive(alpha):
            raise InternalInconsistency(f"alpha = {alpha} is not totally positive")
        # its rows, once read, are certified against |N(beta)| = sqrt(level^m)
        beta_ideal = _level_principal(beta, level)
        level_ideal = principal(field.rational(level))
        for p in sorted(field.omega()):
            v_beta = valuation(beta_ideal, p)
            v_level = valuation(level_ideal, p)
            if 2 * v_beta != v_level:
                raise InternalInconsistency(
                    f"v_{p}(beta) = {v_beta} but v_{p}(level)/2 = {v_level}/2")
        G, S = _factored(ideal)  # I * conj(I) = G * conj(G) * prod_S (g_p)
        twist = ideal_mul(principal(alpha), ideal_inverse(beta_ideal))
        lhs = ideal_mul(ideal_mul(G, conj_ideal(G)), twist)
        for p in S:
            lhs = ideal_mul(lhs, _principal_radical(field, p)[0])
        if lhs != codifferent(field):
            raise InternalInconsistency(
                "I * conj(I) != alpha^-1 * beta * D_K^-1 for the proposed recipe")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ideal", ideal)

    def __setattr__(self, name, value):
        raise AttributeError("ConstructionWitness is immutable")

    @property
    def field(self):
        return self.alpha.field

    def __repr__(self):
        return (f"ConstructionWitness(level={self.level}, "
                f"ideal={self.ideal.to_string()!r}, field={self.field.spec_string()})")


class ExistenceVerdict:
    """Classification result: admissible levels, rule tag, optional witnesses."""

    __slots__ = ("field_spec", "trace_type", "levels", "witnesses", "rule")

    def __init__(self, field_spec, trace_type, levels, witnesses, rule):
        levels = tuple(sorted(levels))
        for lev in levels:
            if not isinstance(lev, int) or lev < 1 or not is_squarefree(lev):
                raise SpecError(f"verdict levels must be square-free positive: {lev!r}")
        if len(set(levels)) != len(levels):
            raise SpecError("duplicate levels in verdict")
        if set(witnesses) - set(levels):
            raise SpecError("witness for a level not in the verdict")
        object.__setattr__(self, "field_spec", field_spec)
        object.__setattr__(self, "trace_type", bool(trace_type))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "witnesses", dict(witnesses))
        object.__setattr__(self, "rule", rule)

    def __setattr__(self, name, value):
        raise AttributeError("ExistenceVerdict is immutable")

    def witness_for(self, level):
        return self.witnesses.get(level)

    def __repr__(self):
        return (f"ExistenceVerdict({self.field_spec}, trace_type={self.trace_type}, "
                f"levels={list(self.levels)}, rule={self.rule!r})")


# --------------------------------------------------------------------------
# level bounds
# --------------------------------------------------------------------------

def omega_sets(field):
    """(ramified primes, ramified primes with even ramification index)."""
    omega = frozenset(field.omega())
    omega_even = frozenset(p for p in omega if field.ramification_index(p) % 2 == 0)
    return omega, omega_even


def check_level_bound(field, level):
    """True iff level divides the product over primes with even ramification
    index (and equals 1 when the degree is odd)."""
    if not isinstance(level, int) or level < 1 or not is_squarefree(level):
        raise SpecError(f"level must be a square-free positive integer, got {level!r}")
    if field.degree % 2 == 1 and level != 1:
        return False
    _, omega_even = omega_sets(field)
    return prod(omega_even, start=1) % level == 0


# --------------------------------------------------------------------------
# the parity equation and the witness tail shared by the four oracles
# --------------------------------------------------------------------------

def _radical_exponents(field, level, apow):
    """The witness ideal I = prod J_p^k_p as recipe factors.

    I * conj(I) = alpha^-1 * beta * D_K^-1 reads 2*k_p = v_p(beta) -
    v_p(alpha) - d_p at each ramified p: v_p(beta) = e_p/2 when p divides
    the level (beta * conj(beta) = level) and 0 otherwise, v_p(alpha) =
    apow for alpha = gamma^apow (gamma generates the one ramified prime of
    a prime-power conductor), and e_p, d_p are the field's ramification
    index and different exponent.  An odd right-hand side contradicts the
    theorem that proposed the level and raises InternalInconsistency.
    """
    factors = []
    for p in field.omega():
        v_beta = field.ramification_index(p) // 2 if level % p == 0 else 0
        twice_k = v_beta - apow - field.different_exponent(p)
        if twice_k % 2:
            raise InternalInconsistency(
                f"odd parity at p = {p} for level {level} over {field.spec_string()}")
        if twice_k:
            factors.append(("radical", p, twice_k // 2))
    return factors


# one checked witness per (field, level, apow): the witness is a function
# of that key, so a level that two oracles (or both trace types) admit with
# the same alpha is built and self-checked once
_WITNESS_CACHE = {}


def _verdict(field, trace_type, rows, rule, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """The verdict for (level, apow) rows: the exponents of every row are
    solved, and up to materialize_limit each witness is built and checked,
    with alpha = gamma^apow and beta the square root of +-d on a quadratic
    field (theta = sqrt(-1) on quad:-1, of level 1), else 1 at level 1
    and the square root of the level above it; a witness checked before
    is taken from _WITNESS_CACHE."""
    recipes = [(level, apow, _radical_exponents(field, level, apow))
               for level, apow in rows]
    witnesses = {}
    if field.degree <= materialize_limit:
        quadratic = isinstance(field, (RealQuadraticField, ImagQuadraticField))
        gamma = None
        for level, apow, factors in recipes:
            key = (field, level, apow)
            if key in _WITNESS_CACHE:
                witnesses[level] = _WITNESS_CACHE[key]
                continue
            if quadratic:
                beta = field.sqrt_disc_element()
            elif level == 1:
                beta = field.one()
            elif (beta := sqrt_integer(field, level)) is None:
                raise InternalInconsistency(
                    f"sqrt({level}) should exist in {field.spec_string()} but was not found")
            if apow and gamma is None:
                gamma = gamma_element(field, field.omega()[0])
            alpha = gamma ** apow if apow else field.one()
            witnesses[level] = _WITNESS_CACHE[key] = ConstructionWitness(
                level, beta, alpha, IdealRecipe(field, factors))
    return ExistenceVerdict(field.spec_string(), trace_type,
                            [level for level, _ in rows], witnesses, rule)


# --------------------------------------------------------------------------
# the four oracles: input checks, level sets, alpha per level, rule tag
# --------------------------------------------------------------------------

def mod_quadratic(field, trace_type=True):
    """Trace-type classification over a quadratic field: the level set is
    exactly {d}, with witness (I, 1), beta the square root of +-d, and
    I either the inverse radical above 2 or the whole ring by d mod 4.

    (The same witnesses serve queries without the trace-type restriction,
    since a trace-type lattice is in particular Arakelov-modular; only
    trace type carries a completeness claim here.)
    """
    if isinstance(field, ImagQuadraticField):
        rule = "imaginary-quadratic-trace"
    elif isinstance(field, RealQuadraticField):
        rule = "real-quadratic-trace"
    else:
        raise SpecError(f"mod_quadratic expects a quadratic field, "
                        f"got {field.spec_string()}")
    return _verdict(field, trace_type, [(field.d, 0)], rule)


def mod_prime_power(p, r, trace_type, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Level sets over the maximal real subfield of conductor p^r (p odd).

    Trace type: {1} if p = 3 mod 4; empty if p = 1 mod 8; {p} if p = 5
    mod 8 (beta the square root of p).  Unrestricted: {1, p} if p = 1
    mod 4, with alpha = gamma^-1 at level 1, and at level p unless p = 5
    mod 8 (gamma the totally positive radical generator); {1} if p = 3
    mod 4.
    """
    if not isinstance(p, int) or not isinstance(r, int) or r < 1:
        raise SpecError("mod_prime_power expects integer p and r >= 1")
    if p == 2 or factorize(p) != {p: 1}:
        raise SpecError(f"mod_prime_power needs an odd prime, got p = {p}")
    # (level, radical exponent of alpha) rows
    if trace_type:
        rule = "prime-power-trace-type"
        rows = [(1, 0)] if p % 4 == 3 else [(p, 0)] if p % 8 == 5 else []
    else:
        rule = "prime-power-modular"
        rows = [(1, -1), (p, 0 if p % 8 == 5 else -1)] if p % 4 == 1 else [(1, 0)]
    return _verdict(make_field(f"realcyclo:{p ** r}"), trace_type, rows, rule,
                    materialize_limit)


def mod_nonprimepower_trace(n, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Trace-type level sets over the maximal real subfield of conductor n,
    n composite with at least two prime factors and n != 2 mod 4.

    Empty as soon as n has a prime factor 1 mod 4; otherwise, with m the
    product of the odd primes of n: {m} for odd n with an even number of
    prime factors (empty for an odd number); {m} for n = 4*odd; {m, 2m}
    for n divisible by 8.
    """
    if not isinstance(n, int) or n < 3:
        raise SpecError(f"conductor must be an integer >= 3, got {n!r}")
    if n % 4 == 2:
        raise SpecError(
            f"realcyclo:{n} duplicates realcyclo:{n // 2}; use the odd conductor")
    fac = factorize(n)
    if len(fac) == 1:
        raise SpecError(f"{n} is a prime power; use mod_prime_power")
    odd_primes = sorted(q for q in fac if q != 2)
    m = prod(odd_primes)
    if any(q % 4 == 1 for q in odd_primes):
        levels = []
    elif n % 2 == 1:
        levels = [m] if len(odd_primes) % 2 == 0 else []
    else:
        levels = [m, 2 * m] if n % 8 == 0 else [m]
    return _verdict(make_field(f"realcyclo:{n}"), True, [(lev, 0) for lev in levels],
                    "composite-conductor-trace", materialize_limit)


def mod_odd_degree(field, trace_type=True, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Level set {1} for any supported Galois field of odd degree, with the
    square root of the codifferent as the witness ideal (materialized up to
    materialize_limit).  The witness has alpha = 1, so {1} holds for the
    trace type as well, and the verdict echoes trace_type."""
    if field.degree % 2 == 0:
        raise SpecError(
            f"{field.spec_string()} has even degree {field.degree}; "
            "the odd-degree rule does not apply")
    return _verdict(field, trace_type, [(1, 0)], "odd-degree-level-one",
                    materialize_limit)


# --------------------------------------------------------------------------
# rescaling
# --------------------------------------------------------------------------

def _check_rescaling(field, level, ell2):
    """Raise SpecError unless a witness of this level rescales by ell2:
    over a CM field ell2 must be coprime with the level."""
    if field.is_cm and gcd(ell2, level) != 1:
        raise SpecError(
            f"CM rescaling needs gcd(ell2, level) = 1; "
            f"got ell2 = {ell2}, level = {level}")


def rescale(witness, ell2):
    """(I, alpha) of level l1 to (ell2*I, ell2^-1*alpha) of level l1*ell2^2.

    Over a CM field ell2 must be coprime with the witness level; totally
    real fields carry no restriction.
    """
    if not isinstance(ell2, int) or ell2 < 1:
        raise SpecError(f"rescaling factor must be a positive integer, got {ell2!r}")
    if ell2 == 1:
        return witness
    field = witness.field
    _check_rescaling(field, witness.level, ell2)
    scale = field.rational(ell2)
    recipe = IdealRecipe(field, witness.ideal.factors + (("principal", scale, 1),))
    return ConstructionWitness(witness.level * ell2 * ell2,
                               scale * witness.beta,
                               witness.alpha / ell2,
                               recipe)


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------

def classify(field, trace_type=True, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Route a field to the applicable classification.

    Odd-degree fields are complete for any alpha (level set {1}); quadratic
    fields use the trace-type quadratic rule; odd-prime-power real
    cyclotomic conductors use the prime-power rules; other composite
    conductors use the composite trace-type rule.  CM cyclotomic fields
    beyond the imaginary quadratic case are not classified here.
    """
    if not isinstance(field, NumberField):
        raise SpecError("classify expects a field instance (see make_field)")
    if field.degree % 2 == 1:
        return mod_odd_degree(field, trace_type, materialize_limit=materialize_limit)
    if isinstance(field, (RealQuadraticField, ImagQuadraticField)):
        return mod_quadratic(field, trace_type)
    if isinstance(field, CyclotomicField):
        raise SpecError(
            f"no general CM cyclotomic classification for {field.spec_string()}; "
            "query the maximal real subfield (realcyclo) or a quadratic field")
    if isinstance(field, RealCyclotomicField):
        fac = factorize(field.n)
        if len(fac) == 1:
            p, r = next(iter(fac.items()))
            if p == 2:
                raise SpecError(
                    f"{field.spec_string()} has two-power conductor; only "
                    "realcyclo:8 = quad:+2 is covered, via the quadratic rule")
            return mod_prime_power(p, r, trace_type,
                                   materialize_limit=materialize_limit)
        if not trace_type:
            raise SpecError(
                f"only the trace type (alpha = 1) is classified for the "
                f"composite conductor {field.n}; pass trace_type=True")
        return mod_nonprimepower_trace(field.n, materialize_limit=materialize_limit)
    raise SpecError(f"unsupported field family: {field.spec_string()}")
