"""Run one arakelov command in-process under the tracer.

Usage: python cli_boot.py STATS_FILE ARG...

Installs the outside-in wrappers, then calls ``arakelov.cli.main(ARG...)``.
Stdout, stderr and the exit status are the command's own, so they can be
compared with a plain ``python -m arakelov.cli ARG...`` run.  The raw span
counts go to STATS_FILE, also when the command raises or is stopped by
SIGTERM at the item time limit.
"""

import json
import signal
import sys

import tracer


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    signal.signal(signal.SIGTERM, _stop)
    spans = tracer.Tracer().install()
    cli = sys.modules["arakelov.cli"]
    caches = tracer.cache_sizes()
    try:
        code = cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({**spans.snapshot(), "caches": caches}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
