"""The three workloads, as lists of operations with independent checks.

An operation is one call into the program that a user would make: a
library call for ``chi-sweep`` and ``turan-scan``, one fresh-interpreter CLI
call for ``cli-roundtrip``. Each carries a check that runs untimed and
untraced after it and raises ``WrongResult`` when the output is wrong.

Random hosts come from a fixed bank of random graphs (drawn once, from a
constant seed); the workload seed draws a fresh labeling of every bank host,
a random vertex permutation and edge order. Different seeds therefore feed
the program different inputs with the same instance mix, which keeps the
spread of the timings across seeds within the benchmark's bounds.
"""

import dataclasses
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from kneserturan import exactsolve, hyperstruct, kneser, patterns, turanalt
from speed import paused

CHI_CAP = 128
CLI_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from kneserturan.cli import main; sys.exit(main())"

# bank sizes per scale: chi-sweep P2 and C4 hosts, turan-scan C4 hosts,
# exact ordering-scan hosts, heuristic ordering-scan hosts, cli --input hosts
SCALES = {
    "full": {"chi_p2": 60, "chi_c4": 30, "turan_c4": 20, "alt_exact": 12,
             "alt_heuristic": 40, "cli_input": 33},
    "smoke": {"chi_p2": 2, "chi_c4": 2, "turan_c4": 2, "alt_exact": 1,
              "alt_heuristic": 2, "cli_input": 1},
}


class WrongResult(Exception):
    """A program output failed the benchmark's independent check."""


def require(condition, message):
    if not condition:
        raise WrongResult(message)


@dataclass
class Op:
    name: str
    kind: str  # "compute" (produces a result) or "verify" (re-checks a document)
    run: Callable[[], object]
    check: Callable[[object], None]
    doc: Callable[[object], object]  # canonical result document, for the digest
    warm: Callable[[], object] | None = None  # set-up work, e.g. the occurrence memo
    prepare: Callable[[], object] | None = None  # untimed work just before ``run``
    corrupt: Callable[[object], object] | None = None  # plants a wrong value


# --- seeded inputs ---

def _bank(name, count, n, edge_range):
    """``count`` random simple graphs on ``n`` vertices, fixed for all seeds."""
    rng = random.Random(f"bank:{name}")
    pairs = list(combinations(range(n), 2))
    return [rng.sample(pairs, rng.randint(*edge_range)) for _ in range(count)]


def _relabel(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [frozenset((perm[u], perm[v])) for u, v in pairs]
    rng.shuffle(edges)
    return hyperstruct.Hypergraph(n, tuple(edges))


def seeded_hosts(rng, name, count, n, edge_range):
    return [_relabel(rng, n, pairs) for pairs in _bank(name, count, n, edge_range)]


def _member(kind, **params):
    return patterns.family_of(hyperstruct.build_named_family(kind, **params))


# --- independent checks ---

def _check_graph_coloring(g, report):
    require(report.coloring is not None, "no coloring returned")
    colors = report.coloring.assignment
    require(len(colors) == g.n_vertices, "coloring length differs from vertex count")
    require(len(set(colors)) <= report.value, "coloring uses more colors than the value")
    for e in g.edges:
        u, v = tuple(e)
        require(colors[u] != colors[v], f"edge {sorted(e)} is monochromatic")


def _check_hypergraph_coloring(h, report):
    require(report.coloring is not None, "no coloring returned")
    colors = report.coloring.assignment
    require(len(colors) == h.n_vertices, "coloring length differs from vertex count")
    require(len(set(colors)) <= report.value, "coloring uses more colors than the value")
    for e in h.edges:
        require(len({colors[v] for v in e}) > 1, f"edge {sorted(e)} is monochromatic")


def _ex(host, family):
    """ex(G, F) as the independence number of the occurrence hypergraph."""
    return exactsolve.independence_number(patterns.pattern_hypergraph(host, family))[0]


def _check_sandwich(host, family, value):
    """The paper's bounds: |E| - ex_alt_sigma <= chi <= |E| - ex."""
    m = host.n_edges
    ex = _ex(host, family)
    sigma = hyperstruct.LinearOrdering.identity(m)
    ex_alt = turanalt.ex_alt_sigma(host, family, sigma).value
    require(m - ex_alt <= value <= m - ex,
            f"chi {value} outside the sandwich [{m - ex_alt}, {m - ex}]")


def _check_power_bounds(g, host, family, r, value):
    """ceil(|V|/alpha) <= chi <= ceil((|E| - ex)/(r - 1)) for an order-r power."""
    alpha = exactsolve.independence_number(g, cap=CHI_CAP)[0]
    lower = -(-g.n_vertices // alpha)
    upper = -(-(host.n_edges - _ex(host, family)) // (r - 1))
    require(lower <= value <= upper, f"chi {value} outside [{lower}, {upper}]")


def _corrupt_value(res):
    """The result with its reported value raised by one."""
    if isinstance(res, tuple):
        g, report = res
        return g, dataclasses.replace(report, value=report.value + 1)
    return dataclasses.replace(res, value=res.value + 1)


# --- chi-sweep ---

def chi_sweep(rng, scale):
    sizes = SCALES[scale]
    ops = []

    def named(kind, n, k):
        closed = n - 2 * k + 2

        def build():
            return kneser.build_named_kneser(kind, n=n, k=k).graph

        def run():
            g = build()
            return g, exactsolve.chromatic_number_graph(g, cap=CHI_CAP)

        def check(res):
            g, report = res
            _check_graph_coloring(g, report)
            require(report.value == closed, f"chi {report.value}, closed form {closed}")

        ops.append(Op(f"chi {kind}({n},{k})", "compute", run, check,
                      doc=lambda res: res[1].to_json_dict(), warm=build, corrupt=_corrupt_value))

    def pattern(label, host, family, r=2, closed=None):
        def build():
            return kneser.kneser_of_family(host, family, r=r).result

        def run():
            g = build()
            solve = exactsolve.chromatic_number_graph if r == 2 else \
                exactsolve.chromatic_number_hypergraph
            return g, solve(g, cap=CHI_CAP)

        def check(res):
            g, report = res
            if r == 2:
                _check_graph_coloring(g, report)
            else:
                _check_hypergraph_coloring(g, report)
            if closed is not None:
                require(report.value == closed, f"chi {report.value}, closed form {closed}")
            elif r == 2:
                _check_sandwich(host, family, report.value)
            else:
                _check_power_bounds(g, host, family, r, report.value)

        ops.append(Op(f"chi {label}", "compute", run, check,
                      doc=lambda res: res[1].to_json_dict(), warm=build))

    def complete(n):
        return hyperstruct.build_named_family("complete", n=n)

    def matching(n):
        return hyperstruct.build_named_family("matching", n=n)

    p2, c4, k3 = _member("path", length=2), _member("cycle", n=4), _member("cycle", n=3)

    if scale == "smoke":
        named("kneser", 6, 2)
        named("schrijver", 7, 3)
        pattern("KG(K6,K3)", complete(6), k3, closed=(6 - 1) ** 2 // 4)
        pattern("KG3(M6,M2)", matching(6), _member("matching", n=2), r=3,
                closed=math.ceil((6 - 3) / 2))
        pattern("KG3(K4,P2)", complete(4), p2, r=3)
    else:
        for kind, n, k in (("kneser", 8, 3), ("kneser", 9, 3),
                           ("schrijver", 9, 3), ("schrijver", 10, 3)):
            named(kind, n, k)
        for n in (7, 8):
            pattern(f"KG(K{n},K3)", complete(n), k3, closed=(n - 1) ** 2 // 4)
        pattern("KG(K6,C4)", complete(6), c4)
        for n in (8, 9):
            # ceil((n - r(k-1)) / (r-1)) with k = 2, r = 3
            pattern(f"KG3(M{n},M2)", matching(n), _member("matching", n=2), r=3,
                    closed=math.ceil((n - 3) / 2))
        pattern("KG3(K5,P2)", complete(5), p2, r=3)
    for i, host in enumerate(seeded_hosts(rng, "chi-p2", sizes["chi_p2"], 7, (11, 11))):
        pattern(f"KG(H{i},P2)", host, p2)
    for i, host in enumerate(seeded_hosts(rng, "chi-c4", sizes["chi_c4"], 7, (11, 11))):
        pattern(f"KG(H{i},C4)", host, c4)
    return ops


# --- turan-scan ---

def turan_scan(rng, scale):
    sizes = SCALES[scale]
    ops = []
    p2, c4 = _member("path", length=2), _member("cycle", n=4)

    def report_op(name, host, family, solve, corrupt=None):
        def check(report):
            turanalt.verify_turan_report(host, family, report)
            ex = _ex(host, family)
            if report.quantity == "ex":
                require(report.value == ex, f"ex {report.value}, independence number {ex}")
            else:
                require(ex <= report.value <= host.n_edges,
                        f"{report.quantity} {report.value} outside [{ex}, {host.n_edges}]")

        ops.append(Op(name, "compute", solve, check, doc=lambda rep: rep.to_json_dict(),
                      warm=lambda: turanalt.occurrence_masks(host, family), corrupt=corrupt))

    edges = (16, 21) if scale == "full" else (8, 10)
    for i, host in enumerate(seeded_hosts(rng, "turan-c4", sizes["turan_c4"], 8, edges)):
        report_op(f"ex(H{i},C4)", host, c4,
                  lambda host=host: turanalt.turan_number(host, c4, mode="exact"),
                  corrupt=_corrupt_value if i == 0 else None)

    edges = (7, 7) if scale == "full" else (6, 6)
    for i, host in enumerate(seeded_hosts(rng, "alt-exact", sizes["alt_exact"], 6, edges)):
        for strong in (False, True):
            quantity = "ex-salt" if strong else "ex-alt"
            report_op(f"{quantity}(H{i},P2)", host, p2,
                      lambda host=host, strong=strong: turanalt.ex_alt_min(
                          host, p2, strong=strong, mode="exact"))

    edges = (12, 20) if scale == "full" else (10, 12)
    for i, host in enumerate(seeded_hosts(rng, "alt-heuristic", sizes["alt_heuristic"], 8, edges)):
        report_op(f"ex-alt~(H{i},P2)", host, p2,
                  lambda host=host, i=i: turanalt.ex_alt_min(host, p2, mode="heuristic", seed=i))

    reps = ((9, 3), (10, 4), (11, 4), (12, 5)) if scale == "full" else ((6, 2),)
    for n, k in reps:
        rep = hyperstruct.build_named_family("complete-uniform", n=n, s=k)
        sigma = hyperstruct.LinearOrdering.identity(n)

        def check(cert, n=n, k=k):
            turanalt.verify_certificate(cert)
            require(cert.value <= n - 2 * k + 2,
                    f"certificate {cert.value} above chi(KG({n},{k})) = {n - 2 * k + 2}")

        for i, strong in ((1, False), (2, False), (3, False), (1, True)):
            ops.append(Op(f"certificate KG({n},{k}) i={i} strong={strong}", "compute",
                          lambda rep=rep, sigma=sigma, i=i, strong=strong:
                          turanalt.altermatic_certificate(rep, sigma, i=i, strong=strong),
                          check, doc=lambda cert: cert.to_json_dict()))
    return ops


# --- cli-roundtrip ---

class CliRunner:
    """Runs one CLI call per fresh interpreter, traced or not."""

    def __init__(self, root: Path, work: Path, env: dict, tracer=None):
        self.root = root
        self.work = work
        self.env = env
        self.tracer = tracer
        self.launcher = root / "perfbench" / "cli_launcher.py"
        self.stats = work / "stats.json"

    def call(self, args, stdout_path: Path | None = None):
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            cmd = [sys.executable, str(self.launcher), str(self.stats), "--", *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        if stdout_path is None:
            with paused():
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            out = proc.stdout
        else:
            with open(stdout_path, "w") as fh, paused():
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=fh,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=CLI_TIMEOUT_S)
            out = stdout_path.read_text()
        if traced:
            self.tracer.merge(json.loads(self.stats.read_text()))
        return proc.returncode, out, proc.stderr


def _bumped_chi(text):
    """A run document with its chromatic number raised by one."""
    doc = json.loads(text)
    doc["result"]["chi"] += 1
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _parse(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise WrongResult(f"output is not JSON: {exc}") from None


def cli_roundtrip(rng, scale, runner: CliRunner):
    work = runner.work
    ops = []

    def rel(path):
        # paths on the command line are relative to the checkout, so that
        # names and digests do not depend on where the checkout lives
        return str(path.relative_to(runner.root))

    def produce(args, expect=None, verify=True):
        """One producing call; ``expect(doc)`` adds a closed-form check."""
        path = work / f"doc-{len(ops):03d}.json"

        def check(res):
            code, out, err = res
            require(code == 0, f"exit {code}: {err.strip()[-200:]}")
            doc = _parse(out)
            if expect is not None:
                expect(doc)

        def corrupt(res):
            code, out, err = res
            path.write_text(_bumped_chi(out))
            return code, path.read_text(), err

        ops.append(Op(" ".join(args), "compute", lambda: runner.call(args, path), check,
                      doc=lambda res: res[1], corrupt=None if ops else corrupt))
        if verify:
            verify_op(f"verify {ops[-1].name}", path, expect_code=0)
        return path

    def verify_op(name, path, expect_code, prepare=None):
        def check(res):
            code, out, err = res
            require(code == expect_code, f"verify exit {code}, expected {expect_code}")
            doc = _parse(out)
            require(doc.get("verified") is (expect_code == 0), f"verified is {doc.get('verified')}")

        ops.append(Op(name, "verify", lambda: runner.call(["verify", rel(path)]), check,
                      doc=lambda res: res[1], prepare=prepare))

    def result_is(key, value):
        def expect(doc):
            got = doc["result"][key]
            require(got == value, f"{key} {got}, expected {value}")
        return expect

    def at_most(key, value):
        def expect(doc):
            got = doc["result"][key]
            require(got <= value, f"{key} {got}, above {value}")
        return expect

    def named(kind, n, k):
        return ["--family", kind, "--n", str(n), "--k", str(k)]

    def hosted(kind, n, pattern):
        return ["--host", kind, "--n", str(n), "--pattern", *pattern]

    p2, c4 = ["path", "--len", "2"], ["cycle", "--pattern-n", "4"]
    first = produce(["compute", "chi", *named("kneser", 6, 2)], result_is("chi", 4))

    if scale == "full":
        produce(["compute", "chi", *named("schrijver", 8, 3)], result_is("chi", 4))
        # Erdos-Ko-Rado: alpha(KG(7,3)) = binom(6,2); beta = |V| - alpha
        produce(["compute", "alpha", *named("kneser", 7, 3)], result_is("alpha", 15))
        produce(["compute", "beta", *named("kneser", 6, 2)], result_is("beta", 10))
        produce(["compute", "certificate", *named("kneser", 10, 4)],
                at_most("value", 4))
        produce(["compute", "certificate", *named("kneser", 8, 3), "--i", "2"],
                at_most("value", 4))
        produce(["compute", "alt-sigma", *named("kneser", 8, 3)])
        produce(["compute", "salt-sigma", *named("schrijver", 8, 3)])
        produce(["compute", "ex", *hosted("complete", 6, c4)], result_is("ex", 7))
        produce(["compute", "ex-alt", *hosted("cycle", 8, p2)])
        produce(["compute", "ex-salt", *hosted("complete", 4, p2)])
        produce(["compute", "chi", *hosted("complete", 6, c4)], result_is("chi", 4))
        produce(["compute", "ex-alt", *hosted("complete", 5, p2), "--interval"])
        produce(["compute", "alpha", *hosted("complete", 6, p2)])
        produce(["compute", "certificate", "--host", "cycle", "--n", "5", "--identity"],
                at_most("value", 3))
        produce(["build", *hosted("complete", 9, c4)])
        export_n, golden = 10, []
    else:
        produce(["compute", "ex", *hosted("complete", 4, p2)], result_is("ex", 2))
        export_n, golden = 5, ["--only", "kneser-4-2"]

    hosts = seeded_hosts(rng, "cli-input", SCALES[scale]["cli_input"], 6, (7, 7))
    quantities = ("ex", "chi", "ex-alt", "ex-salt", "alpha", "beta")
    for i, host in enumerate(hosts):
        path = work / f"host-{i}.json"
        path.write_text(host.canonical_json())
        produce(["compute", quantities[i % len(quantities)],
                 "--input", rel(path), "--pattern", *p2])

    expected_export = {}

    def export_matches(text):
        if "text" not in expected_export:
            host = hyperstruct.build_named_family("complete", n=export_n)
            g = kneser.kneser_of_family(host, _member("cycle", n=4)).result
            expected_export["text"] = g.canonical_json() + "\n"
        require(text == expected_export["text"], "export differs from the library's build")

    def export_ok(res):
        require(res[0] == 0, f"exit {res[0]}")
        export_matches(res[1])

    export_args = ["export", *hosted("complete", export_n, c4)]
    ops.append(Op(" ".join(export_args), "compute", lambda: runner.call(export_args),
                  export_ok, doc=lambda res: res[1]))

    def golden_ok(doc):
        require(doc["result"]["ok"] is True, "golden suite reports ok=false")

    produce(["golden", *golden], golden_ok, verify=False)

    tampered = work / "tampered.json"

    def tamper():
        tampered.write_text(_bumped_chi(first.read_text()))

    verify_op("verify tampered chi document", tampered, expect_code=1, prepare=tamper)
    return ops
