"""Self-test of the pipeline benchmark, at smoke scale.

Usage: python3 perfbench/selftest.py

Checks, one benchmark process at a time:
1. every workload, with --trace 0 and --trace 1, ends with the result
   object, reports every metric BENCHMARK.json lists with its unit, prints
   every metric the notes define on its report lines, and fails nothing;
2. a planted wrong value (--plant-wrong) is counted as a failure;
3. from a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("chi-sweep", "turan-scan", "cli-roundtrip")

REPORTED = ("setup_s", "setup_s.wall", "batch_s", "batch_s.wall", "machine_speed",
            "op_s.p50", "op_s.p90", "peak_rss_mb", "fail_ratio")
CLI_ONLY = ("compute_s.p50", "compute_s.p90", "verify_s.p50", "verify_s.p90")
LAYERS = (
    "kernels.max_independent_set.calls", "kernels.max_independent_set.self_s",
    "kernels.wide_share", "kernels.self_share",
    "kernels.graph_color_decision.calls", "kernels.graph_color_decision.self_s",
    "kernels.graph_color_decision.sat_ratio",
    "kernels.hypergraph_color_decision.calls", "kernels.hypergraph_color_decision.self_s",
    "kernels.hypergraph_color_decision.sat_ratio",
    "exactsolve.max_clique.self_s", "exactsolve.dsatur_coloring.self_s",
    "exactsolve.chromatic_number_graph.self_s",
    "exactsolve.chromatic_number_hypergraph.self_s", "exactsolve.bounds_settled_ratio",
    "turanalt.turan_number.self_s", "turanalt.ex_alt_min.self_s",
    "turanalt.ex_alt_sigma.self_s", "turanalt.altermatic_certificate.self_s",
    "turanalt.verify_certificate.self_s", "turanalt.verify_turan_report.self_s",
    "patterns.enumerate_occurrences.calls", "patterns.enumerate_occurrences.self_s",
    "patterns.occurrences", "patterns.memo_hit_ratio",
    "kneser.kneser_power.calls", "kneser.kneser_power.self_s", "kneser.power_edges",
    "harness.run_golden_suite.self_s", "hyperstruct.canonical_dumps.self_s",
    "cli.import_s", "cli.main.self_s", "tracing_overhead",
)
METRIC_LINE = re.compile(r"^metric (\S+) (?:= \S+ (\S+)|not reported)")


def unit_of(name):
    if name.endswith((".calls", ".occurrences", ".power_edges")):
        return "count"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    return "ratio"


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload, trace, spec, errors):
    proc = run(["--workload", workload, "--trace", str(trace), "--scale", "smoke"])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    for entry in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            errors.append(f"{where}: result lacks {entry['name']} [{entry['unit']}]: {got}")
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(2)
    wanted = LAYERS if trace else REPORTED + (CLI_ONLY if workload == "cli-roundtrip" else ())
    for name in wanted:
        if name not in printed:
            errors.append(f"{where}: report lines lack {name}")
        elif printed[name] is not None and printed[name] != unit_of(name):
            errors.append(f"{where}: {name} printed in {printed[name]}, want {unit_of(name)}")
    for label in ("backend=", "KNESERTURAN_PURE=", "nproc=", "python=", "digest sha256="):
        if label not in proc.stdout:
            errors.append(f"{where}: report lacks {label}")


def check_planted(workload, errors):
    proc = run(["--workload", workload, "--trace", "0", "--scale", "smoke", "--plant-wrong"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1:
        errors.append(f"{workload}: planted wrong value not caught: {result}")


def check_without_program(errors):
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", WORKLOADS[0], "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("benchmark succeeded without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec, errors)
        check_planted(workload, errors)
    check_without_program(errors)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
