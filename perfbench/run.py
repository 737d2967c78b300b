"""Benchmark of the arakelov pipeline: one command, three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,enum,cli} --seed N \\
        --seconds S --trace {0,1}

Load shape: a closed loop with one client.  Items run one after another and
nothing runs concurrently.  Each pass runs in a fresh interpreter, so the
library's module caches start empty as in a user's single run.  sweep and
enum passes run in perfbench/worker.py; every cli item is its own
``python -m arakelov.cli`` process.

--trace 0 times a fixed number of passes, S over the workload's nominal pass
time (at least one), and reports the end-to-end metrics, with every time
scaled to a fixed machine speed (perfbench/reference.py).  --trace 1 runs
one plain pass and the same pass again under the outside-in tracer
(perfbench/tracer.py), checks that both give the same outputs, and reports
the per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  ``failed`` counts
every item with a wrong output, an unexpected exit code or a run over the
time limit, the recorded baseline defects included (see
workloads.known_failure).  ``correct`` is false when any other item fails,
a pass did not start cold, or traced and plain outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9          # at least this many cold set-ups are timed per run
WORKER_TIMEOUT_S = 170.0

# Typical seconds of one pass on a shared 2-core x86-64 VM.  A run makes
# --seconds over this many passes, so how many items it attempts, and which
# of them fail, follows from the seed and --seconds alone, never from how
# fast the machine happened to be during the run.  wall_s is the mean over
# the passes: on enum each pass has its own seeded inputs, and the scaled
# pass times (reference.py) carry little of the machine's drift, so the
# mean is the steadier figure.
NOMINAL_PASS_S = {"sweep": 18.0, "enum": 9.0, "cli": 20.0}

# The bounded end-to-end metrics of the result line.  item_p50_ms,
# item_p90_ms and fail_frac are printed above it but not bounded: on sweep
# the median item falls between items with and without witnesses, p90
# rarely has 10 items beyond it, and fail_frac is 0 on sweep (the result
# line carries it as failed / attempted).
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The harness itself could not run a pass."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# sweep and enum: one pass per worker process
# --------------------------------------------------------------------------

def _run_worker(cfg):
    launch = _now()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - launch
    return doc


def _scaled_pass(items, refs, stopped=()):
    """Pass record whose item times are scaled to the reference speed by the
    reference samples ``refs`` taken during the pass.  An item stopped at
    the time limit counts the limit as it is: the user waits that long
    whatever the machine's speed."""
    factor = reference.factor(refs)
    raw_wall = sum(item["time_s"] for item in items)
    for item in items:
        if item["id"] not in stopped:
            item["time_s"] *= factor
    return {"items": items, "wall_s": sum(item["time_s"] for item in items),
            "raw_wall_s": raw_wall, "ref_s": statistics.median(refs)}


def worker_pass(workload, seed, index, trace=False, limit=None, corrupt=None):
    doc = _run_worker({"workload": workload, "seed": seed, "pass": index,
                       "trace": trace, "limit": limit, "corrupt": corrupt})
    return {**_scaled_pass(doc["items"], doc["refs"]),
            "peak_rss_kb": doc["maxrss_kb"],
            "cold": not any(doc["caches"].values()), "trace": doc.get("trace")}


def worker_setup(workload, seed):
    return _run_worker({"workload": workload, "seed": seed, "pass": 0,
                        "setup_only": True})["setup_s"]


# --------------------------------------------------------------------------
# cli: one process per item
# --------------------------------------------------------------------------

def _run_limited(cmd, cwd, limit):
    """Run cmd, stopping it at ``limit`` seconds: (exit code, stdout bytes,
    peak resident set in KiB, whether it was stopped)."""
    with tempfile.TemporaryFile(dir=cwd) as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                env=_env(), cwd=cwd)
        expired = threading.Event()

        def stop():
            expired.set()
            proc.terminate()

        timers = [threading.Timer(limit, stop), threading.Timer(limit + 5, proc.kill)]
        for timer in timers:
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            for timer in timers:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), usage.ru_maxrss, expired.is_set()


def cli_pass(work, trace=False, limit=None, corrupt=None):
    items = workloads.cli_items()[:limit]
    record = work / "record.json"
    paths = {"@record": str(record),
             "@unramified": str(workloads.DATA / "unramified_record.json")}
    out_items, snapshots, cold, peak_kb = [], [], True, 0
    refs, since, stopped = [reference.sample()], 0.0, set()
    for index, item in enumerate(items):
        if since >= reference.EVERY_S:
            refs.append(reference.sample())
            since = 0.0
        argv = [paths.get(arg, arg) for arg in item["argv"]]
        stats = work / f"trace-{index}.json"
        if trace:
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(stats), *argv]
        else:
            cmd = [sys.executable, "-m", "arakelov.cli", *argv]
        t0 = _now()
        rc, stdout, rss_kb, timed_out = _run_limited(cmd, work,
                                                     workloads.CLI_ITEM_LIMIT_S)
        elapsed = _now() - t0
        since += elapsed
        if timed_out:
            stopped.add(item["id"])
        else:               # a stopped item's memory depends on when it stopped
            peak_kb = max(peak_kb, rss_kb)
        if item["id"] == "construct-realcyclo-92":
            record.write_bytes(stdout)
        if index == corrupt:
            stdout += b" "
        out = {"rc": rc, "stdout_sha": _sha256(stdout), "timed_out": timed_out}
        if trace and stats.exists():
            snap = json.loads(stats.read_text(encoding="utf-8"))
            cold = cold and not any(snap.pop("caches").values())
            snapshots.append(snap)
        out_items.append({"id": item["id"], "time_s": elapsed,
                          "digest": workloads.digest(
                              "timed out" if timed_out else [rc, out["stdout_sha"]]),
                          "problem": workloads.check_cli(item, out)})
    refs.append(reference.sample())
    return {**_scaled_pass(out_items, refs, stopped),
            "peak_rss_kb": peak_kb, "cold": cold,
            "trace": tracer.merge(snapshots) if trace else None}


def cli_setup(work):
    t0 = _now()
    rc, _, _, _ = _run_limited([sys.executable, "-m", "arakelov.cli",
                                *workloads.CLI_NOOP], work, workloads.CLI_ITEM_LIMIT_S)
    if rc != 0:
        raise BenchError(f"the no-op invocation {workloads.CLI_NOOP} exited {rc}")
    return _now() - t0


def run_pass(workload, seed, index, work, trace=False, limit=None, corrupt=None):
    if workload == "cli":
        return cli_pass(work, trace=trace, limit=limit, corrupt=corrupt)
    return worker_pass(workload, seed, index, trace=trace, limit=limit,
                       corrupt=corrupt)


def run_setup(workload, seed, work):
    return cli_setup(work) if workload == "cli" else worker_setup(workload, seed)


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def failures(workload, passes):
    """Each failed item with its known-defect reason, or None if it is new."""
    return [(item, workloads.known_failure(workload, item))
            for p in passes for item in p["items"] if item["problem"]]


def pass_count(workload, seconds):
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def measure(workload, seed, seconds, work, limit=None, corrupt=None):
    """Timed run: ``pass_count`` passes, with the set-up probes spread over
    the gaps before, between and after them so that they do not all fall
    into one slow spell of the shared machine."""
    run_setup(workload, seed, work)               # warms the bytecode cache
    count = pass_count(workload, seconds)
    per_gap = -(-SETUP_PROBES // (count + 1))
    setups, refs, passes = [], [], []
    for index in range(count + 1):
        refs.append(reference.sample())
        setups += [run_setup(workload, seed, work) for _ in range(per_gap)]
        refs.append(reference.sample())
        if index < count:
            passes.append(run_pass(workload, seed, index, work,
                                   limit=limit, corrupt=corrupt))
    times = [item["time_s"] for p in passes for item in p["items"]]
    metrics = {
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups) * reference.factor(refs),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    notes = [f"wall_s: mean of {len(passes)} passes, each the sum of its "
             f"item times scaled to the reference speed of the pass (reference.py)",
             f"raw wall: median {statistics.median(p['raw_wall_s'] for p in passes):.3f}"
             f" s; reference: median {statistics.median(p['ref_s'] for p in passes):.4f}"
             f" s against REF_S = {reference.REF_S} s",
             f"setup_s: median of {len(setups)} cold set-ups, scaled to the "
             f"reference speed by the {len(refs)} samples taken around them",
             "peak_rss_mb: largest resident set of a pass process (cli: of an "
             "item that ran to completion)",
             f"item_p50_ms = {1000 * statistics.median(times):.3f} ms (median of "
             f"{len(times)} scaled item times)"]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else None
    beyond = sum(t > p90 for t in times) if p90 is not None else 0
    if beyond >= 10:
        notes.append(f"item_p90_ms = {1000 * p90:.3f} ms ({beyond} of {len(times)} "
                     f"items beyond it)")
    else:
        notes.append(f"item_p90_ms omitted: only {beyond} of {len(times)} items "
                     f"lie beyond the 90th percentile, 10 are needed")
    return {"passes": passes, "metrics": metrics, "notes": notes,
            "mismatches": []}


def traced(workload, seed, work, limit=None):
    """Plain pass, then the same pass traced: per-layer metrics."""
    plain = run_pass(workload, seed, 0, work, limit=limit)
    spans = run_pass(workload, seed, 0, work, trace=True, limit=limit)
    mismatches = [a["id"] for a, b in zip(plain["items"], spans["items"])
                  if a["id"] != b["id"] or a["digest"] != b["digest"]]
    metrics = {name: value for name, (value, _) in
               tracer.metrics(spans["trace"]).items()}
    metrics["trace.overhead_frac"] = spans["wall_s"] / plain["wall_s"] - 1
    notes = [f"trace.overhead_frac: traced wall {spans['wall_s']:.3f} s over "
             f"plain wall {plain['wall_s']:.3f} s, minus 1",
             "ratios: the base of each *_frac is the .calls of its span"]
    return {"passes": [plain, spans], "metrics": metrics, "notes": notes,
            "mismatches": mismatches}


def context(args):
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "git_sha": git_sha, "src_sha256": src.hexdigest()[:16],
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg())}


def result_line(workload, result, trace):
    units = tracer.metric_names() if trace else END_TO_END_UNITS
    if trace:
        units = {**units, "trace.overhead_frac": "frac"}
    failed = failures(workload, result["passes"])
    attempted = sum(len(p["items"]) for p in result["passes"])
    correct = (all(reason for _, reason in failed)
               and all(p["cold"] for p in result["passes"])
               and not result["mismatches"])
    return {"correct": correct, "attempted": attempted, "failed": len(failed),
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def report(workload, result, line):
    for note in result["notes"]:
        print(note)
    for name, metric in line["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {line['failed']}/{line['attempted']} = "
          f"{line['failed'] / line['attempted']:.4f}")
    for item, reason in failures(workload, result["passes"]):
        label = f"known baseline defect: {reason}" if reason else "NEW FAILURE"
        print(f"failed {item['id']}: {item['problem']} [{label}]")
    for item_id in result["mismatches"]:
        print(f"traced output differs from plain output: {item_id}")
    if not all(p["cold"] for p in result["passes"]):
        print("a pass did not start with empty module caches")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arakelov" / "__init__.py").is_file():
        print(f"no arakelov package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    print("context " + json.dumps(context(args), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = result_line(args.workload, result, args.trace)
    report(args.workload, result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
