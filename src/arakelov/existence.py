"""Existence oracles for Arakelov-modular lattices and witness constructors.

Each oracle returns an ExistenceVerdict: the exact set of admissible
square-free levels for the field family, a descriptive rule tag, and --
when the field degree is within the materialization limit -- a fully
checked ConstructionWitness (level, beta, alpha, ideal recipe) per level.

Witness ideal exponents are never hard-coded: they are solved from the
valuation-parity equation k_p = (v_p(alpha^-1 * beta * D_K^-1)) / 2 at
every ramified prime, and every constructed witness re-verifies the
defining identities exactly (level = beta * conj(beta), alpha totally
positive, half-level valuations of beta, and I * conj(I) equal to
alpha^-1 * beta * D_K^-1 as fractional ideals).  The last is checked as
I * conj(I) * (alpha * beta^-1) = D_K^-1, with beta^-1 = conj(beta)/level
from the first identity, so it needs no inverse.  The codifferent is the
principal ideal (1/f'(theta)), so a product that keeps a generator
compares with it on generators, without building rows.
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
    euler_phi,
    factorize,
    is_squarefree,
    is_totally_positive,
    _link_inverses,
    make_field,
    sqrt_integer,
)
from .ideals import (
    IdealRecipe,
    codifferent,
    conj_ideal,
    gamma_element,
    ideal_mul,
    principal,
    realize,
    valuation,
)

__all__ = [
    "ConstructionWitness", "ExistenceVerdict", "InternalInconsistency",
    "DEFAULT_MATERIALIZE_LIMIT", "omega_sets", "mod_quadratic",
    "mod_prime_power", "mod_nonprimepower_trace", "mod_odd_degree",
    "rescale", "check_level_bound", "classify",
]

# Witnesses are materialized (field elements built, ideals realized, all
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
        # beta^-1 = conj(beta) / level by the first identity: no solve
        if beta._inv is None:
            _link_inverses(beta, beta.conj() / level)
        if not is_totally_positive(alpha):
            raise InternalInconsistency(f"alpha = {alpha} is not totally positive")
        beta_ideal = principal(beta)
        level_ideal = principal(field.rational(level))
        for p in sorted(field.omega()):
            v_beta = valuation(beta_ideal, p)
            v_level = valuation(level_ideal, p)
            if 2 * v_beta != v_level:
                raise InternalInconsistency(
                    f"v_{p}(beta) = {v_beta} but v_{p}(level)/2 = {v_level}/2")
        lattice_ideal = realize(ideal)
        twist = principal(alpha * beta.inverse())
        lhs = ideal_mul(ideal_mul(lattice_ideal, conj_ideal(lattice_ideal)), twist)
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
# quadratic fields
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
        imaginary = True
    elif isinstance(field, RealQuadraticField):
        imaginary = False
    else:
        raise SpecError(f"mod_quadratic expects a quadratic field, "
                        f"got {field.spec_string()}")
    d = field.d
    beta = field.sqrt_disc_element()
    rule = "imaginary-quadratic-trace" if imaginary else "real-quadratic-trace"
    use_p2 = (d % 4 in (1, 2)) if imaginary else (d % 4 in (2, 3))
    recipe = IdealRecipe.parse(field, "P2^-1" if use_p2 else "")
    witness = ConstructionWitness(d, beta, field.one(), recipe)
    return ExistenceVerdict(field.spec_string(), trace_type, (d,), {d: witness}, rule)


# --------------------------------------------------------------------------
# maximal real subfields, prime-power conductor
# --------------------------------------------------------------------------

def mod_prime_power(p, r, trace_type, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Level sets over the maximal real subfield of conductor p^r (p odd).

    Trace type: {1} if p = 3 mod 4 (ideal P^(s1/2)); empty if p = 1 mod 8;
    {p} if p = 5 mod 8 (ideal P^((s1+s2)/2), beta the square root of p).
    Unrestricted: {1, p} if p = 1 mod 4 (alpha a power of the totally
    positive radical generator); {1} if p = 3 mod 4.
    """
    if not isinstance(p, int) or not isinstance(r, int) or r < 1:
        raise SpecError("mod_prime_power expects integer p and r >= 1")
    if p == 2 or factorize(p) != {p: 1}:
        raise SpecError(f"mod_prime_power needs an odd prime, got p = {p}")
    n = p ** r
    degree = euler_phi(n) // 2
    s1 = -((p ** (r - 1) * (p * r - r - 1) - 1) // 2)  # -v_P(different)
    s2 = p ** (r - 1) * (p - 1) // 4  # v_P(sqrt p); integral only for p = 1 mod 4

    # (level, alpha spec, radical exponent) rows; alpha spec: 0 -> 1,
    # s -> gamma^s with gamma the totally positive radical generator.
    if trace_type:
        rule = "prime-power-trace-type"
        if p % 4 == 3:
            rows = [(1, 0, s1 // 2)]
        elif p % 8 == 1:
            rows = []
        else:
            rows = [(p, 0, (s1 + s2) // 2)]
    else:
        rule = "prime-power-modular"
        if p % 4 == 1:
            rows = [(1, -1, (1 + s1) // 2)]
            if (s1 + s2) % 2 == 0:
                rows.append((p, 0, (s1 + s2) // 2))
            else:
                rows.append((p, -1, (1 + s1 + s2) // 2))
        else:
            rows = [(1, 0, s1 // 2)]
    for level, apow, k in rows:
        parity = (0 if apow == 0 else -apow) + (s2 if level == p else 0) + s1
        if parity != 2 * k:
            raise InternalInconsistency(
                f"parity equation unsolvable at p = {p}, r = {r}, level = {level}")

    witnesses = {}
    if rows and degree <= materialize_limit:
        field = make_field(f"realcyclo:{n}")
        gamma = gamma_element(field, p)
        for level, apow, k in rows:
            alpha = field.one() if apow == 0 else gamma ** apow
            beta = field.one() if level == 1 else sqrt_integer(field, level)
            recipe = IdealRecipe(field, [("radical", p, k)] if k else [])
            witnesses[level] = ConstructionWitness(level, beta, alpha, recipe)
    return ExistenceVerdict(f"realcyclo:{n}", trace_type,
                            [row[0] for row in rows], witnesses, rule)


# --------------------------------------------------------------------------
# maximal real subfields, composite (non-prime-power) conductor
# --------------------------------------------------------------------------

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
    rule = "composite-conductor-trace"
    spec = f"realcyclo:{n}"
    if any(q % 4 == 1 for q in odd_primes):
        return ExistenceVerdict(spec, True, (), {}, rule)
    ntilde = prod(odd_primes)
    if n % 2 == 1:
        levels = [ntilde] if len(odd_primes) % 2 == 0 else []
    elif n % 8 == 0:
        levels = [ntilde, 2 * ntilde]
    else:
        levels = [ntilde]

    witnesses = {}
    if levels and euler_phi(n) // 2 <= materialize_limit:
        field = make_field(spec)
        for level in levels:
            beta = sqrt_integer(field, level)
            if beta is None:
                raise InternalInconsistency(
                    f"sqrt({level}) should exist in {spec} but was not found")
            factors = []
            for q in sorted(field.omega()):
                v_beta = field.ramification_index(q) // 2 if level % q == 0 else 0
                v_diff = field.different_exponent(q)
                if (v_beta - v_diff) % 2:
                    raise InternalInconsistency(
                        f"odd parity at p = {q} for level {level} over {spec}")
                k = (v_beta - v_diff) // 2
                if k:
                    factors.append(("radical", q, k))
            witnesses[level] = ConstructionWitness(
                level, beta, field.one(), IdealRecipe(field, factors))
    return ExistenceVerdict(spec, True, levels, witnesses, rule)


# --------------------------------------------------------------------------
# odd degree
# --------------------------------------------------------------------------

def mod_odd_degree(field, trace_type=True, materialize_limit=DEFAULT_MATERIALIZE_LIMIT):
    """Level set {1} for any supported Galois field of odd degree, with the
    square root of the codifferent as the witness ideal (materialized up to
    materialize_limit).  The witness has alpha = 1, so {1} holds for the
    trace type as well, and the verdict echoes trace_type."""
    if field.degree % 2 == 0:
        raise SpecError(
            f"{field.spec_string()} has even degree {field.degree}; "
            "the odd-degree rule does not apply")
    factors = []
    for p in sorted(field.omega()):
        v = field.different_exponent(p)
        if v % 2:
            raise InternalInconsistency(
                f"odd different valuation {v} at {p} in an odd-degree field")
        factors.append(("radical", p, -(v // 2)))
    witnesses = {}
    if field.degree <= materialize_limit:
        witnesses[1] = ConstructionWitness(1, field.one(), field.one(),
                                           IdealRecipe(field, factors))
    return ExistenceVerdict(field.spec_string(), trace_type, (1,), witnesses,
                            "odd-degree-level-one")


# --------------------------------------------------------------------------
# rescaling
# --------------------------------------------------------------------------

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
    if field.is_cm and gcd(ell2, witness.level) != 1:
        raise SpecError(
            f"CM rescaling needs gcd(ell2, level) = 1; "
            f"got ell2 = {ell2}, level = {witness.level}")
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
