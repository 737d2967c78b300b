"""Command-line front end: existence queries, lattice construction,
verification reports, and the reference catalog; JSON in and out.

Exit codes are a stable contract: 0 success, 2 malformed or unsupported
input, 3 nonexistence (empty level set or inadmissible level), 4 failed
verification.  All exact quantities are serialized as decimal strings
(or exact integer arrays for Gram matrices); numeric embeddings appear
only on request via --embed and are tagged with their precision, so the
emit -> parse -> emit cycle is byte-stable.

Only the standard library modules of the parser load with this module.
Each command imports the library layers, json and fractions where it runs
them, so --help and argparse usage errors load none of these.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

__all__ = ["main", "entry", "cmd_exists", "cmd_construct", "cmd_verify",
           "cmd_catalog", "EXIT_OK", "EXIT_SPEC", "EXIT_ABSENT", "EXIT_VERIFY"]

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_ABSENT = 3
EXIT_VERIFY = 4

# a bare --embed; argparse passes a non-string const through unconverted
_BARE_EMBED = object()


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _rat_str(q):
    """An int or a Fraction as n or n/d."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coeffs(element):
    return [_rat_str(c) for c in element.coeffs]


def _element_from_strings(field, strings, what):
    from fractions import Fraction
    from .fields import _RATIONAL, SpecError
    if not isinstance(strings, list) or not all(
            isinstance(s, str) and _RATIONAL.fullmatch(s) for s in strings):
        raise SpecError(f"bad {what} coefficient vector: expected a list of "
                        f"strings of the form n or n/d")
    try:
        return field.element([Fraction(s) for s in strings])
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad {what} coefficient vector: {exc}") from None


def _theta_pairs(theta):
    return [[_rat_str(norm), count] for norm, count in theta]


def _emit(doc, out_path=None):
    import json
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            from .fields import SpecError
            raise SpecError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


def _squarefree_split(field, level):
    """level = ell1 * ell2^2, split over the ramified primes only.

    Each ramified prime goes into ell1 by the parity of its exponent.  The
    cofactor goes into ell2 when it is a square; otherwise it holds a
    prime outside omega to an odd power and goes whole into ell1, which
    then matches no verdict level.  So a huge level is never factored.
    """
    from .ideals import _int_val
    ell1, ell2, rest = 1, 1, level
    for p in field.omega():
        e = _int_val(rest, p)
        rest //= p ** e
        if e % 2:
            ell1 *= p
        ell2 *= p ** (e // 2)
    root = math.isqrt(rest)
    if root * root == rest:
        return ell1, ell2 * root
    return ell1 * rest, ell2


def _split_level(field, verdict, level):
    """(ell1, ell2, refusal) for level = ell1 * ell2^2 split over the
    ramified primes: admitted (refusal None) iff ell1 is a verdict level
    and, on a CM field, gcd(ell2, ell1) = 1, as existence.rescale asks."""
    from . import existence
    from .fields import SpecError
    ell1, ell2 = _squarefree_split(field, level)
    if ell1 not in verdict.levels:
        return ell1, ell2, (
            f"no Arakelov-modular lattice of level {level} over "
            f"{field.spec_string()}: the admissible squarefree levels are "
            f"{list(verdict.levels)} (rule: {verdict.rule})")
    try:
        existence._check_rescaling(field, ell1, ell2)
    except SpecError as exc:
        return ell1, ell2, f"level {level} is not constructible: {exc}"
    return ell1, ell2, None


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
    from . import lattice
    from .ideals import realize
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
        "gram": lat.integer_gram(),
        "ideal": witness.ideal.to_string(),
        "integral": report.integral,
        "kissing": kissing,
        "level": witness.level,
        "minimum": _rat_str(mu),
        "trace_type": bool(trace_type),
        "witness_checked": True,
    }
    if embed_bits is not None:
        import mpmath
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

def _bounded_field(spec):
    """The field of a construct or verify request, refused (exit 2) above
    the degree up to which exists builds witnesses: the work past that
    grows without a useful bound."""
    from . import existence
    from .fields import SpecError, make_field
    field = make_field(spec)
    cap = existence.DEFAULT_MATERIALIZE_LIMIT
    if field.degree > cap:
        raise SpecError(
            f"{field.spec_string()} has degree {field.degree}; construct "
            f"and verify accept degrees up to {cap}")
    return field


def cmd_exists(args):
    from . import existence
    from .fields import SpecError, make_field
    field = make_field(args.field)
    if args.level is not None and args.level < 1:
        raise SpecError(f"level must be a positive integer, got {args.level}")
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
    found = bool(verdict.levels)
    if args.level is not None:
        found = _split_level(field, verdict, args.level)[2] is None
        doc["queried_level"] = args.level
        doc["admissible"] = found
    _emit(doc, args.out)
    return EXIT_OK if found else EXIT_ABSENT


def cmd_construct(args):
    from . import existence
    from .fields import SpecError, _checked_precision, default_precision
    field = _bounded_field(args.field)
    if args.level < 1:
        raise SpecError(f"level must be a positive integer, got {args.level}")
    verdict = existence.classify(field, trace_type=args.trace_type)
    ell1, ell2, refusal = _split_level(field, verdict, args.level)
    if refusal:
        print(refusal, file=sys.stderr)
        return EXIT_ABSENT
    witness = existence.rescale(verdict.witnesses[ell1], ell2)
    embed_bits = args.embed
    if embed_bits is _BARE_EMBED:
        embed_bits = default_precision()
    elif embed_bits is not None:
        embed_bits = _checked_precision(embed_bits, "--embed")
    record, _ = _construct_record(field, witness, args.trace_type,
                                  embed_bits=embed_bits)
    _emit(record, args.out)
    return EXIT_OK


def cmd_verify(args):
    import json
    from . import lattice
    from .fields import SpecError
    from .ideals import IdealRecipe, realize
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
    field = _bounded_field(doc["field"])
    alpha = _element_from_strings(field, doc["alpha"], "alpha")
    beta = _element_from_strings(field, doc["beta"], "beta")
    level = doc["level"]
    if type(level) is not int:  # a JSON true or false is no level
        raise SpecError("record level must be an integer")
    if level < 1:
        raise SpecError(f"record level must be a positive integer, got {level}")
    recipe = IdealRecipe.parse(field, doc["ideal"])

    # everything below is re-derived from field/ideal/alpha/beta; a cached
    # gram in the record is only compared against, never trusted
    lat = lattice.build(field, realize(recipe), alpha)
    witness = _RecordWitness(field, alpha, level, beta)
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
        fresh = lat.integer_gram()
        out["gram_matches"] = doc["gram"] == fresh
    theta = ()
    if args.theta is not None:
        if args.theta < 0:
            raise SpecError("--theta bound must be nonnegative")
        theta = lattice.theta_prefix(lat, args.theta)
        out["theta"] = _theta_pairs(theta)
    if args.min:
        # one walk: the first nonzero term of the prefix is the minimum and
        # its count the kissing number; a bound below the minimum has none
        mu, kissing = theta[1] if len(theta) > 1 else lattice.minimum(lat)
        out["minimum"] = _rat_str(mu)
        out["kissing"] = kissing
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
    from . import existence, lattice
    from .fields import make_field
    field = make_field(fixture["field"])
    verdict = existence.classify(field, trace_type=fixture["trace_type"])
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

def _ascii_int(text):
    """Integer options in the ASCII grammar of specs and records: int()
    also reads other scripts' digits and underscores."""
    from .fields import _INTEGER
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state on it between calls."""
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
    p_exists.add_argument("--level", type=_ascii_int,
                          help="query one level (exit 3 if inadmissible)")
    p_exists.add_argument("--out", help="write JSON here instead of stdout")
    p_exists.set_defaults(func=cmd_exists)

    p_construct = sub.add_parser(
        "construct", help="construct and verify a lattice of the given level")
    p_construct.add_argument("--field", required=True)
    p_construct.add_argument("--level", type=_ascii_int, required=True)
    p_construct.add_argument("--trace-type", dest="trace_type",
                             action="store_true")
    p_construct.add_argument("--embed", type=_ascii_int, metavar="BITS",
                             nargs="?", const=_BARE_EMBED,
                             help="include a numeric generator matrix at "
                                  "this precision, 16-4096 (bare flag: use "
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
    p_verify.add_argument("--theta", type=_ascii_int, metavar="B",
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
    if hasattr(sys, "set_int_max_str_digits"):  # exact output may pass 4,300 digits
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    from .fields import FieldMismatch, NotRamified, SpecError
    from .ideals import RecipeTooLarge, Unsupported, ZeroIdeal
    from .lattice import EnumerationBudgetExceeded, ModularityFailure
    from .linalg import FormError
    # errors that mean "the request was malformed or out of scope", not a
    # bug; an exact minimum or theta series past the enumeration budget,
    # and a recipe past the coefficient-bit limit, are out of scope
    user_errors = (SpecError, FieldMismatch, NotRamified, ZeroIdeal, Unsupported,
                   FormError, EnumerationBudgetExceeded, RecipeTooLarge)
    try:
        return args.func(args)
    except ModularityFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except user_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
