"""Self-test of the benchmark: a tiny seeded pass of each workload, end to end.

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload it checks that a plain run emits every bounded end-to-end
metric and prints item_p50_ms, item_p90_ms (or the reason it is omitted) and
fail_frac; that a traced run
emits every per-layer metric and gives the same outputs as the plain pass;
and that a deliberately corrupted output is counted as a failure and makes
the run incorrect.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

SEED = 7
TINY = {"sweep": 10, "enum": 12, "cli": 5}   # items per pass


def _report_text(workload, result, line):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(workload, result, line)
    return buf.getvalue()


def check_workload(workload, limit, work):
    problems = []

    plain = run.measure(workload, SEED, 0, work, limit=limit)
    line = run.result_line(workload, plain, trace=False)
    if set(line["metrics"]) != set(run.END_TO_END_UNITS):
        problems.append(f"end-to-end metrics {sorted(line['metrics'])}")
    if line["attempted"] != limit or not line["correct"]:
        problems.append(f"plain run: {line['attempted']} attempted, "
                        f"correct={line['correct']}")
    text = _report_text(workload, plain, line)
    for name in ("item_p50_ms", "item_p90_ms", "fail_frac"):
        if name not in text:
            problems.append(f"report lacks {name}")

    spans = run.traced(workload, SEED, work, limit=limit)
    traced_line = run.result_line(workload, spans, trace=True)
    want = set(tracer.metric_names()) | {"trace.overhead_frac"}
    if set(traced_line["metrics"]) != want:
        problems.append(f"per-layer metrics differ by "
                        f"{sorted(want ^ set(traced_line['metrics']))}")
    if spans["mismatches"]:
        problems.append(f"traced outputs differ: {spans['mismatches']}")
    if not traced_line["correct"]:
        problems.append("traced run is not correct")

    # an item that passes and lies outside every known-defect class
    target = next(i for i, item in enumerate(plain["passes"][0]["items"])
                  if item["problem"] is None
                  and workloads.known_failure(workload, item) is None)
    bad = run.measure(workload, SEED, 0, work, limit=limit, corrupt=target)
    bad_line = run.result_line(workload, bad, trace=False)
    if bad_line["failed"] != line["failed"] + 1 or bad_line["correct"]:
        problems.append(f"corrupting item {target} gave failed="
                        f"{bad_line['failed']} (clean {line['failed']}), "
                        f"correct={bad_line['correct']}")
    return problems


def main():
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=run.ROOT))
    failed = False
    try:
        for workload, limit in TINY.items():
            problems = check_workload(workload, limit, work)
            failed = failed or bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload}: {status}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
