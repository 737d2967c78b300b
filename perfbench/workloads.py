"""Inputs and correctness oracles of the three benchmark workloads.

Every input is a pure function of (seed, pass index), so the same seed gives
the same inputs.  The library only ever sees the generated inputs; the
oracles here are independent of it: the residue-class rule for the sweep,
pinned invariants and exact brute force for enumeration, and exit codes plus
golden stdout digests for the command line.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("sweep", "enum", "cli")

# --------------------------------------------------------------------------
# known baseline failures: counted in fail_frac, never filtered out
# --------------------------------------------------------------------------

# Enumeration steers with floats and widens the bound by a fixed slack, so
# boundary vectors of Grams with entries near 2^53 are missed.  Below 2^40
# no miss has been observed; a miss there is a new defect.
LARGE_ENTRY_BITS = 41

KNOWN_CLI_FAILURES = {
    "verify-unramified":
        "verify of a record naming the unramified P3^-1 exits 1 with a "
        "NotRamified traceback instead of exit 2",
    "exists-realcyclo-16001":
        "make_field builds the degree-8000 minimal polynomial up front, so "
        "the item runs over the item time limit",
}


def known_failure(workload, item):
    """Why a failing item is a recorded baseline defect, or None if the
    failure is new.  ``item`` is the item record a pass returns."""
    if workload == "enum" and item["id"].startswith("batch-") \
            and item["entry_bits"] >= LARGE_ENTRY_BITS:
        return ("float-steered enumeration misses vectors on the bound for "
                "entries of about 2^53")
    if workload == "cli":
        return KNOWN_CLI_FAILURES.get(item["id"])
    return None


def digest(obj):
    """Short stable digest of a JSON-serializable output summary."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# sweep: prime-power classification, realize -> build -> verify per witness
# --------------------------------------------------------------------------

ODD_PRIMES = [p for p in range(3, 100)
              if all(p % q for q in range(2, isqrt(p) + 1))]


def sweep_items(seed, pass_index):
    items = [{"id": f"sweep-{p}^{r}-{'trace' if tt else 'any'}",
              "p": p, "r": r, "trace_type": tt}
             for p in ODD_PRIMES for r in (1, 2) for tt in (True, False)]
    random.Random(f"sweep:{seed}:{pass_index}").shuffle(items)
    return items


def expected_prime_power_levels(p, trace_type):
    """Residue-class case split for realcyclo:p^r, independent of r."""
    if trace_type:
        if p % 4 == 3:
            return [1]
        return [] if p % 8 == 1 else [p]
    return [1, p] if p % 4 == 1 else [1]


# witnesses are materialized up to this field degree (the library default)
MATERIALIZE_LIMIT = 64


def check_sweep(item, out):
    p, r = item["p"], item["r"]
    if out["levels"] != expected_prime_power_levels(p, item["trace_type"]):
        return f"levels {out['levels']} break the residue-class rule"
    degree = p ** (r - 1) * (p - 1) // 2
    want = out["levels"] if degree <= MATERIALIZE_LIMIT else []
    if [w["level"] for w in out["witnesses"]] != want:
        return f"witness levels {[w['level'] for w in out['witnesses']]}, expected {want}"
    for w in out["witnesses"]:
        level = w["level"]
        if w["witness_level"] != level or w["modular_level"] != level:
            return f"witness for level {level} verified as {w['modular_level']}"
        if Fraction(w["determinant"]) ** 2 != Fraction(level) ** w["dimension"]:
            return f"det {w['determinant']} is not {level}^(dim/2)"
    return None


# --------------------------------------------------------------------------
# enum: exact minimum / theta on moved catalog Grams and a small-Gram batch
# --------------------------------------------------------------------------

# (minimum, kissing number) of each catalog Gram, by dimension
PINNED_MINIMUM = {6: (4, 42), 10: (6, 110), 21: (2, 132), 22: (12, 506)}

# theta series prefixes of the unmoved Grams: {norm: count}
PINNED_THETA = {
    (22, 16): {0: 1, 12: 506, 16: 10626},   # 11,133 vectors
    (21, 3): {0: 1, 2: 132, 3: 4808},       # 4,941 vectors
}

BATCH_SPREAD = 120     # 2-3-dim Grams, entry bits spread over 20..53
BATCH_LARGE = 16       # 2-3-dim Grams with entries of about 2^53


def catalog_grams():
    with open(DATA / "grams.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    return {entry["dimension"]: entry["gram"] for entry in doc["grams"]}


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def random_unimodular(n, rng):
    """Row-permuted product of random unit lower and upper triangular
    matrices with entries in {-1, 0, 1}: determinant +-1."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
              for j in range(n)] for i in range(n)]
    rows = _mat_mul(lower, upper)
    rng.shuffle(rows)
    return rows


def moved(gram, rng):
    """U G U^T for a seeded random unimodular U."""
    u = random_unimodular(len(gram), rng)
    return _mat_mul(_mat_mul(u, gram), [list(col) for col in zip(*u)])


def _is_lll_reduced(g, delta=Fraction(99, 100)):
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * b[k]
                                      for k in range(j))) / b[j]
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
        b[i] = g[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
        if b[i] <= 0:
            return False
        if i and delta * b[i - 1] > b[i] + mu[i][i - 1] ** 2 * b[i - 1]:
            return False
    return True


def skewed_gram(rng, n, bits):
    """Random LLL-reduced n-dim integer Gram with diagonal entries in
    [2^(bits-1), 2^bits] and off-diagonals anywhere in the size-reduced
    range (rejection sampling)."""
    while True:
        diag = sorted(rng.randint(1 << (bits - 1), 1 << bits) for _ in range(n))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = diag[i]
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-(diag[j] // 2), diag[j] // 2)
        if _is_lll_reduced(g):
            return g


def enum_items(seed, pass_index):
    rng = random.Random(f"enum:{seed}:{pass_index}")
    grams = catalog_grams()
    items = [{"id": f"min-dim{dim}", "op": "minimum", "dim": dim,
              "gram": moved(grams[dim], rng)} for dim in (6, 10, 21, 22)]
    for dim, bound in PINNED_THETA:
        items.append({"id": f"theta{bound}-dim{dim}", "op": "theta",
                      "dim": dim, "bound": bound,
                      "gram": moved(grams[dim], rng)})
    plan = [20 + (33 * k) // (BATCH_SPREAD - 1) for k in range(BATCH_SPREAD)]
    plan += [53] * BATCH_LARGE
    for k, bits in enumerate(plan):
        gram = skewed_gram(rng, 2 + k % 2, bits)
        items.append({"id": f"batch-{k:03d}", "op": "batch", "gram": gram,
                      "bound": max(gram[i][i] for i in range(len(gram))),
                      "entry_bits": max(abs(x) for row in gram
                                        for x in row).bit_length()})
    rng.shuffle(items)
    return items


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def brute_force_norms(gram, bound):
    """{norm: count} over 0 < norm <= bound, both signs, by scanning the
    exact coefficient box |x_i| <= sqrt(bound * (G^-1)_ii)."""
    n = len(gram)
    d = _det(gram)
    radii = []
    for i in range(n):
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(gram) if k != i]
        cofactor = _det(minor) if minor else 1
        radii.append(isqrt(bound * cofactor // d))
    counts = {}
    for x in product(*(range(-r, r + 1) for r in radii)):
        if not any(x):
            continue
        norm = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm <= bound:
            counts[norm] = counts.get(norm, 0) + 1
    return counts


def check_enum(item, out):
    if item["op"] == "minimum":
        want = list(PINNED_MINIMUM[item["dim"]])
        return None if out["minimum"] == want else \
            f"minimum/kissing {out['minimum']}, pinned {want}"
    if item["op"] == "theta":
        want = PINNED_THETA[(item["dim"], item["bound"])]
        got = {int(n): c for n, c in out["theta"]}
        return None if got == want else \
            f"theta {got} differs from the unmoved Gram's {want}"
    counts = brute_force_norms(item["gram"], item["bound"])
    mu = min(counts)
    want_theta = [[0, 1]] + [[n, c] for n, c in sorted(counts.items())]
    if out["minimum"] != [mu, counts[mu]]:
        return f"minimum/kissing {out['minimum']}, brute force {[mu, counts[mu]]}"
    if out["theta"] != want_theta:
        missed = sum(c for _, c in want_theta) - sum(c for _, c in out["theta"])
        return f"theta misses {missed} vectors found by brute force"
    return None


# --------------------------------------------------------------------------
# cli: a fixed script of cold invocations
# --------------------------------------------------------------------------

# Per-item time limit in seconds; an item that runs over it is killed and
# counted as failed.
CLI_ITEM_LIMIT_S = 10.0

# id, argv, expected exit code, sha256 of the expected stdout.  "@record"
# is the stdout of the item "construct-realcyclo-92" saved as a file;
# "@unramified" is data/unramified_record.json.
_EMPTY = hashlib.sha256(b"").hexdigest()
CLI_SCRIPT = (
    ("exists-realcyclo-44", ["exists", "--field", "realcyclo:44", "--trace-type"], 0,
     "8ed693c91e35114a374a64cc4e211b8da01f285837b334664134be16c921f7dc"),
    ("exists-quad-7", ["exists", "--field", "quad:-7", "--trace-type"], 0,
     "90c38cabafd5ad22c83e3b24eee6ad8b3ba6c83eaa574cb72a1a5d3af0ac6862"),
    ("exists-realcyclo-97", ["exists", "--field", "realcyclo:97"], 0,
     "04444ef1a59e1eae7f48e190a98234e2406ae094f119e964c3ceafdbab1f79e4"),
    ("exists-realcyclo-1001", ["exists", "--field", "realcyclo:1001", "--trace-type"], 3,
     "299fb60f400adde6fa8d075e4bd14ccdb9af5353051733bbc9e03491db12a3ec"),
    ("exists-realcyclo-6", ["exists", "--field", "realcyclo:6"], 2, _EMPTY),
    ("construct-realcyclo-92",
     ["construct", "--field", "realcyclo:92", "--level", "23", "--trace-type"], 0,
     "d0777a738c1ff8f9ff8cf87fc1480db40c4742647965029d67a1fc06c6ff5489"),
    ("verify-realcyclo-92", ["verify", "--in", "@record", "--min", "--theta", "14"], 0,
     "e89ba801932e2138d2eb7082b978539cf6fb3e00705f8f060f43f65b80aacf99"),
    ("construct-realcyclo-44-embed",
     ["construct", "--field", "realcyclo:44", "--level", "11", "--trace-type",
      "--embed"], 0,
     "e703832ecd7a2b0fb70eb72f862224779a42078c3014fd8ccd313a4c563e3c43"),
    ("construct-quad5-rescaled", ["construct", "--field", "quad:+5", "--level", "20"], 0,
     "f2c7e7a0d6741f02c37fc9fb78da7e81e48727a7f58b73ac253921455f33b36b"),
    # exit 4 is expected: the pinned realcyclo:28 row has exact minimum 4,
    # the catalog says 2
    ("catalog-paper-table", ["catalog", "--paper-table"], 4,
     "376f481e06079b0c80395655a417d652076c58f756960773323f49ad339dfa2b"),
    ("catalog-examples", ["catalog", "--examples"], 0,
     "22553f2f03df4c9ccaec2fda4ce1ef2d53836692d616199a2ca5e570e6a39e2a"),
    ("verify-unramified", ["verify", "--in", "@unramified"], 2, _EMPTY),
    ("exists-realcyclo-16001",
     ["exists", "--field", "realcyclo:16001", "--trace-type"], 3,
     "11acc2e32e722fffde312779e5f30cafa51af340d951157e8cc73f5a5d499476"),
)

# the cold no-op invocation that set-up time measures
CLI_NOOP = ["--help"]


def cli_items():
    return [{"id": item_id, "argv": argv, "rc": rc, "stdout_sha": sha}
            for item_id, argv, rc, sha in CLI_SCRIPT]


def check_cli(item, out):
    if out["timed_out"]:
        return f"over the {CLI_ITEM_LIMIT_S:g} s item limit"
    if out["rc"] != item["rc"]:
        return f"exit {out['rc']}, expected {item['rc']}"
    if out["stdout_sha"] != item["stdout_sha"]:
        return "stdout differs from the golden digest"
    return None
