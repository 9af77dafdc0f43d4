"""Pipeline benchmark for kneserturan: time to a checked exact answer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--scale full|smoke] [--plant-wrong]

Workloads: chi-sweep, turan-scan, cli-roundtrip (see perfbench/NOTES.md).
One client runs a closed loop: each operation starts when the previous one
has finished, in a single process with at most one child at a time.

With --trace 0 the run sets up, executes the workload's operations for about
--seconds (every one at least once, light ones many times), sets up six
more times, and reports the end-to-end metrics, their times scaled to a
fixed reference speed of the machine (see speed.py). With --trace 1 it runs one
untraced pass and then traced passes for about --seconds, and reports the
per-layer metrics and the tracing overhead. Every operation's
output is checked, with tracing off; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it
are the human-readable report.

--scale smoke runs a tiny corpus (used by perfbench/selftest.py), and
--plant-wrong corrupts the first operation's result before it is checked,
to show that the checks catch a wrong value.
"""

import argparse
import compileall
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import tracer
from speed import SpeedProbe, paused

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("chi-sweep", "turan-scan", "cli-roundtrip")
SETUP_REPS = 7
REP_BUDGET_S = 0.25  # first time budget of repeated executions per operation
CACHE_ENV = "KNESERTURAN_CACHE_DIR"

# end-to-end metrics in the final JSON line. The latency percentiles are on
# the report lines only: which operation sits at a percentile depends on the
# seed, and across seeds they spread by up to 24%, too close to the largest
# bound a later change could be held to.
END_TO_END = ("setup_s", "batch_s", "peak_rss_mb")
# per-layer metrics in the final JSON line; every per-layer metric is on the
# report lines. Self times that are exactly zero on some workload (an idle
# layer) appear only there.
PER_LAYER = (
    "tracing_overhead",
    "kernels.self_share",
    "kernels.wide_share",
    "kernels.max_independent_set.calls",
    "kernels.graph_color_decision.calls",
    "kernels.graph_color_decision.self_s",
    "kernels.graph_color_decision.sat_ratio",
    "kernels.hypergraph_color_decision.calls",
    "kernels.hypergraph_color_decision.sat_ratio",
    "exactsolve.bounds_settled_ratio",
    "patterns.enumerate_occurrences.calls",
    "patterns.occurrences",
    "patterns.memo_hit_ratio",
    "kneser.kneser_power.calls",
    "kneser.power_edges",
    "hyperstruct.canonical_dumps.self_s",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--plant-wrong", action="store_true")
    return parser.parse_args(argv)


def percentile(samples, pct):
    """Nearest-rank ``pct``-th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


class Bench:
    def __init__(self, args, child_env):
        import workloads  # imports kneserturan, so only once the path is set

        self.args = args
        self.wl = workloads
        self.child_env = child_env
        self.in_process = args.workload != "cli-roundtrip"
        self.tracer = tracer.Tracer() if args.trace else None
        if self.tracer is not None and self.in_process:
            self.tracer.install()
        self.runner = workloads.CliRunner(ROOT, WORK, child_env, self.tracer)
        self.attempted = 0
        self.failures = []
        self.docs = {}  # operation index -> result document of its first execution
        self.outputs_identical = True

    # --- set-up ---

    def build_ops(self):
        rng = random.Random(f"{self.args.workload}:{self.args.seed}")
        if self.args.workload == "chi-sweep":
            return self.wl.chi_sweep(rng, self.args.scale)
        if self.args.workload == "turan-scan":
            return self.wl.turan_scan(rng, self.args.scale)
        return self.wl.cli_roundtrip(rng, self.args.scale, self.runner)

    def setup_once(self):
        """Import in a fresh interpreter, generate the corpus, warm up.

        Returns the set-up's start, its wall time and the corpus.
        """
        from kneserturan import patterns, turanalt

        patterns._pattern_hypergraph_cached.cache_clear()
        turanalt._admissible_vertex_vectors.cache_clear()
        start = time.perf_counter()
        with paused():
            subprocess.run([sys.executable, "-c", "import kneserturan.cli"], cwd=ROOT,
                           env=self.child_env, check=True, timeout=60)
        ops = self.build_ops()
        for op in ops:
            if op.warm is not None:
                try:
                    op.warm()
                except Exception:  # the timed pass meets and counts the same failure
                    pass
        if not self.in_process:
            self.runner.call(["golden", "--only", "kneser-4-2"])
        return start, time.perf_counter() - start, ops

    # --- timed work ---

    def execute(self, index, op, traced):
        """Run one operation timed, then check it untraced.

        Returns the start of the timed call and its wall time.
        """
        if op.prepare is not None:
            op.prepare()
        if traced:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if traced:
            self.tracer.enabled = False
        doc = [op.name, "FAILED"]
        if error is None:
            if self.args.plant_wrong and index == 0 and op.corrupt is not None:
                result = op.corrupt(result)
            try:
                op.check(result)
                doc = [op.name, op.doc(result)]
            except Exception as exc:  # wrong value or malformed output
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        self.attempted += 1
        if index not in self.docs:
            self.docs[index] = doc
        elif self.docs[index] != doc:
            self.outputs_identical = False
        return start, wall

    def run_pass(self, ops, traced):
        """Every operation once, in corpus order; return the pass's batch time."""
        return sum(self.execute(index, op, traced)[1] for index, op in enumerate(ops))

    def measure(self, ops, seconds):
        """Rounds of executions for about ``seconds``; each operation's times.

        The first round runs every operation in corpus order and always
        completes. Each later round repeats, in a shuffled order (the same
        for every run), the operations whose executions add up to less than
        a time budget, which doubles whenever none is left under it; once
        ``seconds`` have passed, no further execution starts. Light
        operations so get many executions spread over the run, and their
        medians shrug off the bursts of noise of a shared machine.

        Returns each operation's starts and wall times, in flat arrays, so
        that the number of executions barely moves the peak memory.
        """
        samples = [array("d") for _ in ops]
        starts = [array("d") for _ in ops]
        budget = REP_BUDGET_S
        shuffle = random.Random(0).shuffle
        due = list(range(len(ops)))
        start = time.perf_counter()
        while True:
            for i in due:
                if samples[i] and time.perf_counter() - start >= seconds:
                    return starts, samples
                execution_start, wall = self.execute(i, ops[i], False)
                starts[i].append(execution_start)
                samples[i].append(wall)
            due = []
            while not due:
                due = [i for i, walls in enumerate(samples) if sum(walls) < budget]
                if not due:
                    budget *= 2
            shuffle(due)

    def digest(self):
        """sha256 of the canonical result documents, in corpus order."""
        docs = [self.docs[i] for i in sorted(self.docs)]
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def report(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def run(args, child_env):
    import kneserturan.kernels

    bench = Bench(args, child_env)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale} backend={kneserturan.kernels.BACKEND}")
    metrics = {}

    if not args.trace:
        probe = SpeedProbe()
        with probe.sampling():
            *first_setup, ops = bench.setup_once()
            print(f"# operations per pass: {len(ops)}")
            starts, walls = bench.measure(ops, args.seconds)
            # the other set-ups run after the timed work, so that one slow
            # phase of the machine does not hit them all
            setups = [first_setup] + [bench.setup_once()[:2] for _ in range(SETUP_REPS - 1)]
        # an operation's latency is the median of its executions, each at
        # reference speed (see speed.py)
        latency = [statistics.median(map(probe.scaled, *times)) for times in zip(starts, walls)]
        p50, _ = percentile(latency, 50)
        p90, above = percentile(latency, 90)
        metrics["setup_s"] = (statistics.median(probe.scaled(*run) for run in setups), "s")
        metrics["setup_s.wall"] = (statistics.median(probe.net(*run) for run in setups), "s")
        # one pass over the corpus with every operation at its latency
        metrics["batch_s"] = (sum(latency), "s")
        metrics["batch_s.wall"] = (sum(statistics.median(map(probe.net, *times))
                                       for times in zip(starts, walls)), "s")
        metrics["machine_speed"] = (probe.speed(), "ratio")
        metrics["op_s.p50"] = (p50, "s")
        metrics["op_s.p90"] = (p90, "s")
        metrics["peak_rss_mb"] = (_peak_rss_mb(not bench.in_process), "MB")
        executions = sum(map(len, walls))
        notes = {
            "setup_s": f" (median of {SETUP_REPS}, at reference speed)",
            "setup_s.wall": f" (median of {SETUP_REPS})",
            "batch_s": f" ({executions} executions of {len(ops)} operations, "
                       f"at reference speed)",
            "machine_speed": f" (over {len(probe.durations)} probes)",
            "op_s.p50": f" (n={len(ops)} operations)",
            "op_s.p90": f" (n={len(ops)} operations, {above} above it)",
        }
        for name, (value, unit) in metrics.items():
            report(name, value, unit, notes.get(name, ""))
        metrics = {name: metrics[name] for name in END_TO_END}
        if not bench.in_process:
            for kind in ("compute", "verify"):
                kind_latency = [t for op, t in zip(ops, latency) if op.kind == kind]
                n = len(kind_latency)
                report(f"{kind}_s.p50", percentile(kind_latency, 50)[0], "s", f" (n={n})")
                p90, above = percentile(kind_latency, 90)
                if above >= 10:
                    report(f"{kind}_s.p90", p90, "s", f" (n={n}, {above} above it)")
                else:
                    print(f"metric {kind}_s.p90 not reported: n={n}, "
                          f"{above} operations above it, 10 needed")
    else:
        *_, ops = bench.setup_once()
        print(f"# operations per pass: {len(ops)}")
        start = time.perf_counter()
        untraced = bench.run_pass(ops, False)
        bench.tracer.reset()
        traced = []
        while True:
            pass_start = time.perf_counter()
            traced.append(bench.run_pass(ops, True))
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > args.seconds:
                break
        traced_batch = statistics.median(traced)
        layers = tracer.layer_metrics(bench.tracer.snapshot(), len(traced), traced_batch)
        layers["tracing_overhead"] = (traced_batch / untraced, "ratio")
        report("batch_s.untraced", untraced, "s")
        report("batch_s.traced", traced_batch, "s", f" (median of {len(traced)} passes)")
        for name, (value, unit) in layers.items():
            report(name, value, unit)
        metrics = {name: layers[name] for name in PER_LAYER}

    fail_ratio = len(bench.failures) / bench.attempted
    report("fail_ratio", fail_ratio, "ratio", f" ({len(bench.failures)}/{bench.attempted})")
    for line in bench.failures[:20]:
        print(f"# failed: {line}")
    print(f"digest sha256={bench.digest()} "
          f"repeats_identical={str(bench.outputs_identical).lower()}")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kneserturan" / "__init__.py").is_file():
        print(f"error: no kneserturan sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    # one CPU for the benchmark and its children, so that the speed probe
    # runs where the work runs; the loop is closed, so nothing waits for it
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # the cache directory would let verify read what compute wrote
    os.environ.pop(CACHE_ENV, None)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "kneserturan"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)

    import kneserturan

    if Path(kneserturan.__file__).resolve().parent != SRC / "kneserturan":
        print(f"error: imported kneserturan from {kneserturan.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    print(f"# env: python={sys.version.split()[0]} nproc={os.cpu_count()} "
          f"KNESERTURAN_PURE={os.environ.get('KNESERTURAN_PURE', 'unset')} "
          f"{CACHE_ENV}=removed")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run(args, child_env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
