"""Alternating before/after runs of the pipeline benchmark on two checkouts.

Usage:
  python3 tools/bench_pairs.py --base DIR --change DIR --workload NAME
                               --seeds 11-20 [--seconds 35] --out BENCH_name.json

For each seed it runs ``perfbench/run.py`` once in each checkout, one run at
a time, and alternates which checkout goes first from one seed to the next,
so a drift of the machine's speed falls on both sides alike. Each run's
metrics and result digest are kept; the summary gives, per metric, each
side's median and quartiles, the change's median less the base's, and the
number of pairs in which the change is better, and that delta relative
to the base's median, with whether it stays within the metric's ``bound``
(the direction and the bound come from ``BENCHMARK.json`` of the change
checkout). It also says whether the two runs of each pair printed the same
result digest. A run that exits non-zero is kept with its exit code and the
last lines of its stderr, left out of the medians, the wins and the digest
comparison, and counted in ``failed`` (which also counts the failed
operations of the runs that finished) and ``failed_runs``; the series goes
on. Standard library only.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

DIGEST = re.compile(r"^digest sha256=(\w+)", re.M)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


STDERR_TAIL = 20


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return {"seed": seed, "wall_s": round(wall, 1), "exit_code": proc.returncode,
                "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = DIGEST.search(proc.stdout)
    return {
        "seed": seed,
        "wall_s": round(wall, 1),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest.group(1) if digest else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def end_to_end(checkout):
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def finished(run):
    """Whether ``run`` is the record of a run that exited 0."""
    return "exit_code" not in run


def both_finished(pairs):
    return [p for p in pairs if finished(p["base"]) and finished(p["change"])]


def summarize(pairs, metrics):
    """Per end-to-end metric of ``metrics`` (name -> its BENCHMARK.json
    entry): both sides' medians and quartiles over their finished runs, the
    delta of the medians, the pairs of two finished runs that the change
    wins, and whether the change is worse than the base's median by at
    most the metric's ``bound``, a fraction of it. None of these when a
    side has no finished run."""
    summary = {}
    whole = both_finished(pairs)
    for name, metric in sorted(metrics.items()):
        base = [p["base"]["metrics"][name] for p in pairs if finished(p["base"])]
        change = [p["change"]["metrics"][name] for p in pairs if finished(p["change"])]
        if not base or not change:
            summary[name] = None
            continue
        lower = metric["better"] == "lower"
        pairwise = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in whole]
        wins = sum((c < b) if lower else (c > b) for b, c in pairwise)
        b_q = quartiles(base)
        c_q = quartiles(change)
        delta = c_q[1] - b_q[1]
        summary[name] = {
            "better": metric["better"],
            "base_median": b_q[1],
            "base_quartiles": [b_q[0], b_q[2]],
            "change_median": c_q[1],
            "change_quartiles": [c_q[0], c_q[2]],
            "median_delta": delta,
            "relative_delta": delta / b_q[1] if b_q[1] else None,
            "within_bound": (delta if lower else -delta) <= metric["bound"] * b_q[1],
            "base_iqr": b_q[2] - b_q[0],
            "change_wins": wins,
            "pairs": len(whole),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout run as the base")
    parser.add_argument("--change", required=True, help="checkout run as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    pairs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = pair[side] = run_once(getattr(args, side), args.workload, seed,
                                        args.seconds)
            shown = run["metrics"] if finished(run) else f"exit {run['exit_code']}"
            print(f"seed {seed} {side}: {shown}", file=sys.stderr, flush=True)
        pairs.append(pair)

    runs = [p[side] for p in pairs for side in ("base", "change")]
    failed_runs = sum(not finished(run) for run in runs)
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "digests_identical": all(p["base"]["digest"] == p["change"]["digest"]
                                 for p in both_finished(pairs)),
        "failed": failed_runs + sum(run["failed"] for run in runs if finished(run)),
        "failed_runs": failed_runs,
        "summary": summarize(pairs, end_to_end(args.change)),
        "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
