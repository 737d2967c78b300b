"""Command-line front end: existence queries, lattice construction,
verification reports, and the reference catalog; JSON in and out.

Exit codes are a stable contract: 0 success, 2 malformed or unsupported
input, 3 nonexistence (empty level set or inadmissible level), 4 failed
verification.  All exact quantities are serialized as decimal strings
(or exact integer arrays for Gram matrices); numeric embeddings appear
only on request via --embed and are tagged with their precision, so the
emit -> parse -> emit cycle is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath

from . import existence, lattice
from .fields import (
    FieldMismatch,
    NotRamified,
    SpecError,
    default_precision,
    factorize,
    make_field,
)
from .ideals import IdealRecipe, Unsupported, ZeroIdeal, realize
from .lattice import ModularityFailure
from .linalg import FormError

__all__ = ["main", "entry", "cmd_exists", "cmd_construct", "cmd_verify",
           "cmd_catalog", "EXIT_OK", "EXIT_SPEC", "EXIT_ABSENT", "EXIT_VERIFY"]

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_ABSENT = 3
EXIT_VERIFY = 4

# errors that mean "the request was malformed or out of scope", not a bug
_USER_ERRORS = (SpecError, FieldMismatch, NotRamified, ZeroIdeal, Unsupported,
                FormError)

# unlike library calls, an explicit construct/verify request should not be
# silently capped, so witnesses are materialized at any degree
_NO_CAP = 10 ** 9


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _rat_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coeffs(element):
    return [_rat_str(c) for c in element.coeffs]


def _element_from_strings(field, strings, what):
    try:
        coeffs = [Fraction(s) for s in strings]
        return field.element(coeffs)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecError(f"bad {what} coefficient vector: {exc}") from None


def _theta_pairs(theta):
    return [[_rat_str(norm), count] for norm, count in theta]


def _emit(doc, out_path=None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _squarefree_split(level):
    """level = ell1 * ell2^2 with ell1 squarefree (unique)."""
    ell1, ell2 = 1, 1
    for p, e in factorize(level).items():
        if e % 2:
            ell1 *= p
        ell2 *= p ** (e // 2)
    return ell1, ell2


class _RecordWitness:
    """Witness assembled from an input record, checked only by
    verify_modularity (not self-validating, so corrupt records surface as
    ModularityFailure with a clause instead of a constructor error)."""

    def __init__(self, field, alpha, level, beta):
        self.field = field
        self.alpha = alpha
        self.level = level
        self.beta = beta


def _construct_record(field, witness, trace_type, embed_bits=None):
    lat = lattice.build(field, realize(witness.ideal), witness.alpha)
    report = lattice.verify_modularity(lat, witness)
    mu, kissing = lattice.minimum(lat)
    record = {
        "alpha": _coeffs(witness.alpha),
        "beta": _coeffs(witness.beta),
        "determinant": _rat_str(report.determinant),
        "dimension": report.dimension,
        "even": report.even,
        "field": field.spec_string(),
        "gram": [[int(x) for x in row] for row in lat.gram],
        "ideal": witness.ideal.to_string(),
        "integral": report.integral,
        "kissing": kissing,
        "level": witness.level,
        "minimum": _rat_str(mu),
        "trace_type": bool(trace_type),
        "witness_checked": True,
    }
    if embed_bits is not None:
        digits = max(int(embed_bits * 0.302) + 2, 8)
        with mpmath.workprec(embed_bits + 32):
            rows = lattice.generator_matrix(lat, precision=embed_bits)
            record["embedding"] = {
                "precision": embed_bits,
                "rows": [[mpmath.nstr(v, digits) for v in row] for row in rows],
            }
    return record, lat


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_exists(args):
    field = make_field(args.field)
    verdict = existence.classify(field, trace_type=args.trace_type)
    doc = {
        "field": field.spec_string(),
        "levels": list(verdict.levels),
        "rule": verdict.rule,
        "trace_type": verdict.trace_type,
        "witnesses": {
            str(level): {
                "alpha": _coeffs(w.alpha),
                "beta": _coeffs(w.beta),
                "ideal": w.ideal.to_string(),
            }
            for level, w in sorted(verdict.witnesses.items())
        },
    }
    if args.level is not None:
        doc["queried_level"] = args.level
        doc["admissible"] = args.level in verdict.levels
        _emit(doc, args.out)
        return EXIT_OK if doc["admissible"] else EXIT_ABSENT
    _emit(doc, args.out)
    return EXIT_OK if verdict.levels else EXIT_ABSENT


def cmd_construct(args):
    field = make_field(args.field)
    if args.level < 1:
        raise SpecError(f"level must be a positive integer, got {args.level}")
    ell1, ell2 = _squarefree_split(args.level)
    verdict = existence.classify(field, trace_type=args.trace_type,
                                 materialize_limit=_NO_CAP)
    if ell1 not in verdict.levels:
        print(
            f"no Arakelov-modular lattice of level {args.level} over "
            f"{field.spec_string()}: the admissible squarefree levels are "
            f"{list(verdict.levels)} (rule: {verdict.rule})",
            file=sys.stderr)
        return EXIT_ABSENT
    witness = verdict.witnesses[ell1]
    if ell2 > 1:
        try:
            witness = existence.rescale(witness, ell2)
        except SpecError as exc:
            print(f"level {args.level} is not constructible: {exc}",
                  file=sys.stderr)
            return EXIT_ABSENT
    embed_bits = args.embed
    if embed_bits == 0:
        embed_bits = default_precision()
    elif embed_bits is not None and embed_bits < 16:
        raise SpecError("--embed needs at least 16 bits")
    record, _ = _construct_record(field, witness, args.trace_type,
                                  embed_bits=embed_bits)
    _emit(record, args.out)
    return EXIT_OK


def cmd_verify(args):
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read record: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"record is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError("record must be a JSON object")
    for key in ("field", "ideal", "alpha", "beta", "level"):
        if key not in doc:
            raise SpecError(f"record is missing required key {key!r}")
    field = make_field(doc["field"])
    alpha = _element_from_strings(field, doc["alpha"], "alpha")
    beta = _element_from_strings(field, doc["beta"], "beta")
    if not isinstance(doc["level"], int):
        raise SpecError("record level must be an integer")
    recipe = IdealRecipe.parse(field, doc["ideal"])

    # everything below is re-derived from field/ideal/alpha/beta; a cached
    # gram in the record is only compared against, never trusted
    lat = lattice.build(field, realize(recipe), alpha)
    witness = _RecordWitness(field, alpha, doc["level"], beta)
    report = lattice.verify_modularity(lat, witness)
    out = {
        "determinant": _rat_str(report.determinant),
        "dimension": report.dimension,
        "even": report.even,
        "field": field.spec_string(),
        "gram_matches": None,
        "ideal": recipe.to_string(),
        "integral": report.integral,
        "level": report.modular_level,
        "witness_checked": True,
    }
    if "gram" in doc:
        fresh = [[int(x) for x in row] for row in lat.gram]
        out["gram_matches"] = doc["gram"] == fresh
    if args.min:
        mu, kissing = lattice.minimum(lat)
        out["minimum"] = _rat_str(mu)
        out["kissing"] = kissing
    if args.theta is not None:
        if args.theta < 0:
            raise SpecError("--theta bound must be nonnegative")
        out["theta"] = _theta_pairs(lattice.theta_prefix(lat, args.theta))
    _emit(out, args.out)
    return EXIT_OK


# reference values for the catalog: published dimensions, minima and
# determinants of the lattices this package reconstructs
_TABLE_ROWS = (
    {"name": "A6^(2)", "field": "realcyclo:28", "level": 7,
     "trace_type": True, "dimension": 6, "minimum": "2",
     "note": "the published minimum 2 contradicts the row itself: A6^(2) is "
             "the Craig lattice with minimum 4, which is also the extremal "
             "bound for even 7-modular lattices in dimension 6, and exact "
             "enumeration of this lattice gives minimum 4 (kissing 42)"},
    {"name": "A10^(3)", "field": "realcyclo:44", "level": 11,
     "trace_type": True, "dimension": 10, "minimum": "6"},
    {"name": "A22^(6)", "field": "realcyclo:92", "level": 23,
     "trace_type": True, "dimension": 22, "minimum": "12"},
)

_EXAMPLE_ROWS = (
    {"name": "Z6", "field": "realcyclo:13", "level": 1,
     "trace_type": False, "dimension": 6, "minimum": "1",
     "determinant": "1", "theta_one_count": 12,
     "note": "the pairing printed alongside this example elsewhere, P13^-3 "
             "with alpha = (2-2cos(2pi/13))^-1, does not satisfy the "
             "defining identity (clause ii); both self-consistent pairings "
             "(P13^-3 with alpha = 2-2cos(2pi/13), recorded here: P13^-2 "
             "with its inverse) are Arakelov-modular of level 1 and "
             "isometric to Z^6"},
    {"name": "extremal 3-modular, dim 6", "field": "realcyclo:36", "level": 3,
     "trace_type": True, "dimension": 6, "minimum": "2",
     "determinant": "27", "even": True},
    {"name": "extremal odd unimodular, dim 21", "field": "realcyclo:49",
     "level": 1, "trace_type": True, "dimension": 21, "minimum": "2",
     "determinant": "1"},
)


def _catalog_row(index, fixture):
    field = make_field(fixture["field"])
    verdict = existence.classify(field, trace_type=fixture["trace_type"],
                                 materialize_limit=_NO_CAP)
    witness = verdict.witnesses[fixture["level"]]
    record, lat = _construct_record(field, witness, fixture["trace_type"])
    expected = {k: v for k, v in fixture.items() if k not in ("name", "note")}
    got = {
        "field": record["field"],
        "level": record["level"],
        "trace_type": record["trace_type"],
        "dimension": record["dimension"],
        "minimum": record["minimum"],
        "determinant": record["determinant"],
        "even": record["even"],
        "ideal": record["ideal"],
    }
    if "theta_one_count" in fixture:
        theta = lattice.theta_prefix(lat, 1)
        got["theta_one_count"] = dict((n, c) for n, c in theta).get(1, 0)
    ok = all(got.get(key) == value for key, value in expected.items())
    row = {
        "expected": expected,
        "got": got,
        "name": fixture["name"],
        "pass": ok,
        "row": index,
    }
    if "note" in fixture:
        row["note"] = fixture["note"]
    return row


def cmd_catalog(args):
    fixtures = _TABLE_ROWS if args.paper_table else _EXAMPLE_ROWS
    rows = [_catalog_row(i, fx) for i, fx in enumerate(fixtures)]
    _emit(rows, args.out)
    failed = [row["row"] for row in rows if not row["pass"]]
    if failed:
        print(f"catalog rows failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="arakelov",
        description="Existence, construction and exact verification of "
                    "Arakelov-modular ideal lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exists = sub.add_parser(
        "exists", help="decide which levels admit an Arakelov-modular lattice")
    p_exists.add_argument("--field", required=True,
                          help="field spec: quad:+d | quad:-d | realcyclo:n")
    p_exists.add_argument("--trace-type", dest="trace_type",
                          action="store_true",
                          help="restrict to trace-type lattices (alpha = 1)")
    p_exists.add_argument("--level", type=int,
                          help="query one level (exit 3 if inadmissible)")
    p_exists.add_argument("--out", help="write JSON here instead of stdout")
    p_exists.set_defaults(func=cmd_exists)

    p_construct = sub.add_parser(
        "construct", help="construct and verify a lattice of the given level")
    p_construct.add_argument("--field", required=True)
    p_construct.add_argument("--level", type=int, required=True)
    p_construct.add_argument("--trace-type", dest="trace_type",
                             action="store_true")
    p_construct.add_argument("--embed", type=int, metavar="BITS",
                             nargs="?", const=0,
                             help="include a numeric generator matrix at "
                                  "this precision (bare flag: use "
                                  "ARAKELOV_PRECISION_BITS, default 128)")
    p_construct.add_argument("--out", help="write JSON here instead of stdout")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser(
        "verify", help="re-derive and verify a lattice record from JSON")
    p_verify.add_argument("--in", dest="infile", required=True,
                          help="record file produced by construct")
    p_verify.add_argument("--min", action="store_true",
                          help="also compute the exact minimum and kissing "
                               "number")
    p_verify.add_argument("--theta", type=int, metavar="B",
                          help="also count vectors of each norm up to B")
    p_verify.add_argument("--out", help="write JSON here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_catalog = sub.add_parser(
        "catalog", help="rebuild the reference lattices and compare them "
                        "with their published invariants")
    which = p_catalog.add_mutually_exclusive_group(required=True)
    which.add_argument("--paper-table", action="store_true",
                       help="the three trace-type rows (levels 7, 11, 23)")
    which.add_argument("--examples", action="store_true",
                       help="the unimodular and 3-modular example lattices")
    p_catalog.add_argument("--out", help="write JSON here instead of stdout")
    p_catalog.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModularityFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
