"""Run one traced ``kneserturan`` CLI call in a fresh interpreter.

Usage: python3 perfbench/cli_launcher.py STATS_FILE -- CLI_ARGS...

Times the package import, installs the tracer's wrappers, calls
``kneserturan.cli.main`` with CLI_ARGS and writes the tracer snapshot to
STATS_FILE as JSON. The exit code is the CLI's own.
"""

import json
import sys
import time


def main():
    stats_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_launcher.py STATS_FILE -- CLI_ARGS...")
    argv = sys.argv[3:]

    start = time.perf_counter()
    import kneserturan.cli  # noqa: F401  (timed import)
    import_s = time.perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = kneserturan.cli.main(argv)
    finally:
        tracer.enabled = False
        snap = tracer.snapshot()
        snap["counts"]["import_s"] = import_s
        with open(stats_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
