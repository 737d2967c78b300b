"""Arakelov-modular ideal lattices: existence, construction, exact verification.

The top level re-exports the working vocabulary: build a field with
make_field, classify it (classify or the per-family rules), realize the
witness ideal, build the lattice, and verify it against the witness.
Everything is exact, total positivity included (Sylvester's criterion
on the trace form of alpha, read off one sub-resultant sequence on a
totally real field); floating point appears only in
the optional numeric embeddings, the only code that imports mpmath.

The re-exports are lazy (PEP 562): ``import arakelov`` loads no layer,
and the first read of a name, ``from arakelov import *`` included, loads
the layer that defines it and binds the name here.
"""

from importlib import import_module

# layer -> the names the top level re-exports from it
_EXPORTS = {
    "fields": (
        "make_field", "FieldElement", "sqrt_integer", "is_totally_positive",
        "embedding_matrix",
        "SpecError", "FieldMismatch", "DivError", "NotRamified",
    ),
    "ideals": (
        "FractionalIdeal", "IdealRecipe", "principal", "radical_above",
        "ideal_mul", "ideal_pow", "ideal_inverse", "conj_ideal", "trace_dual",
        "trace_dual_via_inverse", "codifferent", "different", "gamma_element",
        "valuation", "realize",
        "ZeroIdeal", "Unsupported",
    ),
    "existence": (
        "classify", "mod_quadratic", "mod_prime_power",
        "mod_nonprimepower_trace", "mod_odd_degree", "rescale",
        "check_level_bound", "omega_sets", "ConstructionWitness",
        "ExistenceVerdict",
        "InternalInconsistency",
    ),
    "lattice": (
        "IdealLattice", "LatticeReport", "build", "generator_matrix",
        "verify_modularity", "minimum", "theta_prefix",
        "ModularityFailure",
    ),
    "linalg": (
        "cholesky", "det", "invert", "lll_reduce",
        "FormError", "ShapeError", "SingularError",
    ),
}

# exported name -> the layer that defines it
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a layer, read as an attribute before its import
        return import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
