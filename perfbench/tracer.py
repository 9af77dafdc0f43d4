"""Call tracing from outside the package, for the per-layer metrics.

The tracer wraps the public functions each layer exposes and records, per
function, the number of calls and the self time (the span's time minus the
time of the traced spans it caused). It also keeps a few
counts that only make sense at a layer boundary: occurrences returned,
Kneser power edges built, kernel time spent on instances wider than 64
vertices, decisions that found a coloring, and chromatic-number calls that
the bounds settled without any decision search.

Modules bind some functions by value (``from .kernels import
graph_color_decision``); wrapping the defining module alone would miss those
calls. ``install`` therefore rebinds every ``kneserturan`` module attribute
that is the original function object.

Nothing is recorded while ``enabled`` is false, so the benchmark switches
tracing off around its correctness checks.
"""

import functools
import sys
import time

# (module, function) pairs traced, keyed by the layer name used in metrics.
TRACED = (
    ("patterns", "enumerate_occurrences"),
    ("patterns", "pattern_hypergraph"),
    ("kneser", "kneser_power"),
    ("kernels", "max_independent_set"),
    ("kernels", "graph_color_decision"),
    ("kernels", "hypergraph_color_decision"),
    ("exactsolve", "max_clique"),
    ("exactsolve", "dsatur_coloring"),
    ("exactsolve", "chromatic_number_graph"),
    ("exactsolve", "chromatic_number_hypergraph"),
    ("turanalt", "turan_number"),
    ("turanalt", "ex_alt_min"),
    ("turanalt", "ex_alt_sigma"),
    ("turanalt", "altermatic_certificate"),
    ("turanalt", "verify_certificate"),
    ("turanalt", "verify_turan_report"),
    ("harness", "run_golden_suite"),
    ("hyperstruct", "canonical_dumps"),
    ("cli", "main"),
)

KERNELS = ("kernels.max_independent_set", "kernels.graph_color_decision",
           "kernels.hypergraph_color_decision")
DECISIONS = ("kernels.graph_color_decision", "kernels.hypergraph_color_decision")
CHI = ("exactsolve.chromatic_number_graph", "exactsolve.chromatic_number_hypergraph")

# counters kept beside the per-function calls and self times
COUNTS = ("occurrences", "power_edges", "wide_kernel_s", "sat_graph", "sat_hypergraph",
          "chi_settled", "import_s")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = {}
        self.self_time = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []  # child time accumulated per open span

    def install(self):
        """Wrap every traced function and rebind by-value imports of it."""
        pkg = "kneserturan"
        __import__(f"{pkg}.cli")  # imports every traced module
        for module_name, func_name in TRACED:
            module = sys.modules[f"{pkg}.{module_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for name, mod in list(sys.modules.items()):
                if (name == pkg or name.startswith(pkg + ".")) and \
                        getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.self_time[name] = 0.0
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = self._decision_calls() if name in CHI else 0
            self._stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.calls[name] += 1
                self.self_time[name] += elapsed - child
            if observe is not None:
                observe(self, args, result, elapsed - child)
            if name in CHI and self._decision_calls() == before:
                self.counts["chi_settled"] += 1
            return result

        return traced

    def _decision_calls(self):
        return sum(self.calls[name] for name in DECISIONS)

    def reset(self):
        for name in self.calls:
            self.calls[name] = 0
            self.self_time[name] = 0.0
        self.counts = dict.fromkeys(COUNTS, 0)

    def snapshot(self):
        return {"calls": dict(self.calls), "self": dict(self.self_time),
                "counts": dict(self.counts)}

    def merge(self, snap):
        """Add a snapshot taken in another process (the traced CLI children)."""
        for name, value in snap["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in snap["self"].items():
            self.self_time[name] = self.self_time.get(name, 0.0) + value
        for name, value in snap["counts"].items():
            self.counts[name] += value


def _on_enumerate(tracer, args, result, self_s):
    tracer.counts["occurrences"] += len(result)


def _on_power(tracer, args, result, self_s):
    tracer.counts["power_edges"] += result.result.n_edges


def _kernel_observer(sat_key):
    def observe(tracer, args, result, self_s):
        if args and args[0] > 64:
            tracer.counts["wide_kernel_s"] += self_s
        if sat_key is not None and result is not None:
            tracer.counts[sat_key] += 1
    return observe


_OBSERVERS = {
    "patterns.enumerate_occurrences": _on_enumerate,
    "kneser.kneser_power": _on_power,
    "kernels.max_independent_set": _kernel_observer(None),
    "kernels.graph_color_decision": _kernel_observer("sat_graph"),
    "kernels.hypergraph_color_decision": _kernel_observer("sat_hypergraph"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap, passes, traced_batch_s):
    """Per-layer metrics for one pass, from a snapshot summed over ``passes``.

    Returns (name -> (value, unit)). Calls, counts and self times are per
    pass; ratios are taken over the totals.
    """
    calls, self_s, counts = snap["calls"], snap["self"], snap["counts"]

    def per_pass(x):
        return x / passes

    out = {}

    def put_calls(name):
        out[f"{name}.calls"] = (per_pass(calls.get(name, 0)), "count")

    def put_self(name):
        out[f"{name}.self_s"] = (per_pass(self_s.get(name, 0.0)), "s")

    for name in KERNELS:
        put_calls(name)
        put_self(name)
    kernel_s = sum(self_s.get(name, 0.0) for name in KERNELS)
    out["kernels.wide_share"] = (_ratio(counts["wide_kernel_s"], kernel_s), "ratio")
    out["kernels.self_share"] = (_ratio(per_pass(kernel_s), traced_batch_s), "ratio")
    out["kernels.graph_color_decision.sat_ratio"] = (
        _ratio(counts["sat_graph"], calls.get("kernels.graph_color_decision", 0)), "ratio")
    out["kernels.hypergraph_color_decision.sat_ratio"] = (
        _ratio(counts["sat_hypergraph"], calls.get("kernels.hypergraph_color_decision", 0)),
        "ratio")
    for name in ("exactsolve.max_clique", "exactsolve.dsatur_coloring") + CHI:
        put_self(name)
    chi_calls = sum(calls.get(name, 0) for name in CHI)
    out["exactsolve.bounds_settled_ratio"] = (_ratio(counts["chi_settled"], chi_calls), "ratio")
    for name in ("turanalt.turan_number", "turanalt.ex_alt_min", "turanalt.ex_alt_sigma",
                 "turanalt.altermatic_certificate", "turanalt.verify_certificate",
                 "turanalt.verify_turan_report"):
        put_self(name)
    put_calls("patterns.enumerate_occurrences")
    put_self("patterns.enumerate_occurrences")
    out["patterns.occurrences"] = (per_pass(counts["occurrences"]), "count")
    out["patterns.memo_hit_ratio"] = (
        1.0 - _ratio(calls.get("patterns.enumerate_occurrences", 0),
                     calls.get("patterns.pattern_hypergraph", 0))
        if calls.get("patterns.pattern_hypergraph", 0) else 0.0, "ratio")
    put_calls("kneser.kneser_power")
    put_self("kneser.kneser_power")
    out["kneser.power_edges"] = (per_pass(counts["power_edges"]), "count")
    put_self("harness.run_golden_suite")
    put_self("hyperstruct.canonical_dumps")
    out["cli.import_s"] = (per_pass(counts["import_s"]), "s")
    put_self("cli.main")
    return out
