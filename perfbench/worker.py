"""One cold pass of the sweep or enum workload in a fresh interpreter.

Usage: python worker.py '{"workload": "sweep", "seed": 1, "pass": 0,
                          "trace": false, "setup_only": false,
                          "limit": null, "corrupt": null}'

Prints one JSON line: the monotonic clock reading at which the first item
could start, the sizes of the module-level caches at that point, per item
its time, output digest and oracle verdict, and the machine-speed reference
samples taken between the items (reference.py).  ``limit`` keeps only the
first items and ``corrupt`` alters the output of the item at that index
before it is checked; both serve the self-test.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import reference
import tracer
import workloads


def run_sweep_item(mods, item):
    existence, ideals, lattice = mods["existence"], mods["ideals"], mods["lattice"]
    verdict = existence.mod_prime_power(item["p"], item["r"], item["trace_type"])
    witnesses = []
    for level, w in sorted(verdict.witnesses.items()):
        lat = lattice.build(w.field, ideals.realize(w.ideal), w.alpha)
        report = lattice.verify_modularity(lat, w)
        witnesses.append((level, w, lat, report))
    return verdict, witnesses


def summarize_sweep(result):
    verdict, witnesses = result
    return {
        "levels": list(verdict.levels),
        "witnesses": [{
            "level": level,
            "witness_level": w.level,
            "modular_level": report.modular_level,
            "dimension": report.dimension,
            "determinant": str(report.determinant),
            "ideal": w.ideal.to_string(),
            "alpha": [str(c) for c in w.alpha.coeffs],
            "beta": [str(c) for c in w.beta.coeffs],
            "gram": workloads.digest([[str(x) for x in row] for row in lat.gram]),
        } for level, w, lat, report in witnesses],
    }


def run_enum_item(mods, item):
    lattice = mods["lattice"]
    if item["op"] == "minimum":
        return lattice.minimum(item["gram"]), None
    if item["op"] == "theta":
        return None, lattice.theta_prefix(item["gram"], item["bound"])
    return (lattice.minimum(item["gram"]),
            lattice.theta_prefix(item["gram"], item["bound"]))


def summarize_enum(result):
    mu, theta = result
    out = {}
    if mu is not None:
        out["minimum"] = [int(mu[0]), mu[1]]
    if theta is not None:
        out["theta"] = [[int(n), c] for n, c in theta]
    return out


KINDS = {
    "sweep": (workloads.sweep_items, run_sweep_item, summarize_sweep,
              workloads.check_sweep),
    "enum": (workloads.enum_items, run_enum_item, summarize_enum,
             workloads.check_enum),
}


def main(argv):
    cfg = json.loads(argv[1])
    from arakelov import existence, ideals, lattice
    mods = {"existence": existence, "ideals": ideals, "lattice": lattice}
    make_items, run_item, summarize, check = KINDS[cfg["workload"]]
    items = make_items(cfg["seed"], cfg["pass"])
    if cfg.get("limit"):
        items = items[:cfg["limit"]]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if cfg.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return 0
    caches = tracer.cache_sizes()
    spans = tracer.Tracer().install() if cfg.get("trace") else None

    records, refs, since = [], [reference.sample()], 0.0
    clock = time.perf_counter
    for index, item in enumerate(items):
        if since >= reference.EVERY_S:
            refs.append(reference.sample())
            since = 0.0
        t0 = clock()
        try:
            result, error = run_item(mods, item), None
        except Exception as exc:   # a failed item is recorded, the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        since += elapsed
        summary = summarize(result) if error is None else {"error": error}
        del result
        if index == cfg.get("corrupt"):
            summary = {"corrupted": summary}
        records.append((item, elapsed, summary))
    refs.append(reference.sample())

    out_items = []
    for item, elapsed, summary in records:
        if "error" in summary:
            problem = summary["error"]
        else:
            try:
                problem = check(item, summary)
            except KeyError as exc:
                problem = f"output lacks {exc}"
        out_items.append({"id": item["id"], "time_s": elapsed,
                          "digest": workloads.digest(summary),
                          "entry_bits": item.get("entry_bits", 0),
                          "problem": problem})
    doc = {
        "ready": ready,
        "caches": caches,
        "items": out_items,
        "refs": refs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spans is not None:
        doc["trace"] = spans.snapshot()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
