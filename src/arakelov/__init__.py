"""Arakelov-modular ideal lattices: existence, construction, exact verification.

The top level re-exports the working vocabulary: build a field with
make_field, classify it (classify or the per-family rules), realize the
witness ideal, build the lattice, and verify it against the witness.
Everything is exact; floating point appears only in optional numeric
embeddings and as a steering heuristic inside enumeration.
"""

from .existence import (
    ConstructionWitness,
    ExistenceVerdict,
    InternalInconsistency,
    check_level_bound,
    classify,
    mod_nonprimepower_trace,
    mod_odd_degree,
    mod_prime_power,
    mod_quadratic,
    omega_sets,
    rescale,
)
from .fields import (
    DivError,
    FieldElement,
    FieldMismatch,
    NotRamified,
    SpecError,
    default_precision,
    embedding_matrix,
    is_totally_positive,
    lift_descend,
    make_field,
    sqrt_integer,
)
from .ideals import (
    FractionalIdeal,
    IdealRecipe,
    Unsupported,
    ZeroIdeal,
    codifferent,
    conj_ideal,
    different,
    gamma_element,
    ideal_inverse,
    ideal_mul,
    ideal_pow,
    principal,
    radical_above,
    realize,
    trace_dual,
    trace_dual_via_inverse,
    valuation,
)
from .lattice import (
    IdealLattice,
    LatticeReport,
    ModularityFailure,
    build,
    dual,
    generator_matrix,
    minimum,
    theta_prefix,
    verify_modularity,
)
from .linalg import (
    FormError,
    ShapeError,
    SingularError,
    cholesky,
    det,
    invert,
    lll_reduce,
)

__all__ = [
    # fields
    "make_field", "FieldElement", "sqrt_integer",
    "is_totally_positive", "lift_descend", "embedding_matrix",
    "default_precision",
    # ideals
    "FractionalIdeal", "IdealRecipe", "principal", "radical_above",
    "ideal_mul", "ideal_pow", "ideal_inverse", "conj_ideal", "trace_dual",
    "trace_dual_via_inverse", "codifferent", "different", "gamma_element",
    "valuation", "realize",
    # existence
    "classify", "mod_quadratic", "mod_prime_power", "mod_nonprimepower_trace",
    "mod_odd_degree", "rescale", "check_level_bound", "omega_sets",
    "ConstructionWitness", "ExistenceVerdict",
    # lattices
    "IdealLattice", "LatticeReport", "build", "dual", "generator_matrix",
    "verify_modularity", "minimum", "theta_prefix",
    # linear algebra
    "cholesky", "det", "invert", "lll_reduce",
    # errors
    "SpecError", "FieldMismatch", "DivError", "NotRamified", "ZeroIdeal",
    "Unsupported", "InternalInconsistency", "ModularityFailure",
    "FormError", "ShapeError", "SingularError",
]
