"""The summary of tools/bench_pairs.py on synthetic pairs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(metric, base, change):
    return [{"base": {"metrics": {metric: b}}, "change": {"metrics": {metric: c}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("better, base, change, relative, wins, within", (
    # 20% slower against a 25% bound
    ("lower", [1.0, 1.0, 1.0], [1.2, 1.2, 1.2], 0.2, 0, True),
    # 30% slower
    ("lower", [1.0, 1.0, 1.0], [1.3, 1.3, 1.3], 0.3, 0, False),
    # 10% faster, winning two of three pairs
    ("lower", [1.0, 2.0, 3.0], [0.9, 1.8, 3.1], -0.1, 2, True),
    # a higher-is-better metric 30% lower, and 40% higher
    ("higher", [2.0, 2.0, 2.0], [1.4, 1.4, 1.4], -0.3, 0, False),
    ("higher", [2.0, 2.0, 2.0], [2.8, 2.8, 2.8], 0.4, 3, True),
))
def test_summarize_gives_the_relative_delta_and_the_bound(better, base, change, relative,
                                                          wins, within):
    metrics = {"x": {"name": "x", "better": better, "bound": 0.25}}
    got = bench_pairs.summarize(_pairs("x", base, change), metrics)["x"]
    assert got["relative_delta"] == pytest.approx(relative)
    assert got["median_delta"] == pytest.approx(relative * got["base_median"])
    assert (got["change_wins"], got["within_bound"], got["pairs"]) == (wins, within, 3)


def test_summarize_on_a_zero_base_median():
    metrics = {"x": {"name": "x", "better": "lower", "bound": 0.1}}
    same = bench_pairs.summarize(_pairs("x", [0, 0], [0, 0]), metrics)["x"]
    assert (same["relative_delta"], same["within_bound"]) == (None, True)
    worse = bench_pairs.summarize(_pairs("x", [0, 0], [1, 1]), metrics)["x"]
    assert (worse["relative_delta"], worse["within_bound"]) == (None, False)


def test_end_to_end_reads_the_bounds_of_the_benchmark():
    metrics = bench_pairs.end_to_end(_PATH.parents[1])
    assert metrics["batch_s"]["better"] == "lower" and metrics["batch_s"]["bound"] == 0.25


def test_a_failed_run_is_recorded_and_the_series_goes_on(monkeypatch, tmp_path):
    # the change's run of seed 2 exits 1; every other run prints a summary,
    # with one failed operation in each run of seed 3
    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        if cwd == "change" and seed == 2:
            stderr = "\n".join(f"line {i}" for i in range(30)) + "\nMemoryError"
            return subprocess.CompletedProcess(cmd, 1, "", stderr)
        value = 2.0 if cwd == "base" else 1.0 + seed / 10
        summary = {"attempted": 5, "failed": int(seed == 3), "metrics": {
            name: {"value": value} for name in ("setup_s", "batch_s", "peak_rss_mb")}}
        stdout = f"digest sha256=ab\n{json.dumps(summary)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    metrics = bench_pairs.end_to_end(_PATH.parents[1])
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "end_to_end", lambda checkout: metrics)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", "base", "--change", "change", "--workload", "w",
                             "--seeds", "1-3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [p["seed"] for p in doc["pairs"]] == [1, 2, 3]
    crashed = doc["pairs"][1]["change"]
    assert crashed["exit_code"] == 1
    assert len(crashed["stderr_tail"]) == bench_pairs.STDERR_TAIL
    assert crashed["stderr_tail"][-1] == "MemoryError"
    assert (doc["failed_runs"], doc["failed"], doc["digests_identical"]) == (1, 3, True)
    # seeds 1 and 3 make the medians and the wins; the change's median is of 1.1 and 1.3
    batch = doc["summary"]["batch_s"]
    assert (batch["pairs"], batch["change_wins"]) == (2, 2)
    assert batch["base_median"] == 2.0
    assert batch["change_median"] == pytest.approx(1.2)
