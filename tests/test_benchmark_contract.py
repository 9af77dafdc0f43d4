"""What the benchmark under ``perfbench/`` reads from the package.

The benchmark runs the committed code of two commits side by side and is
not edited with the package, so a rename here would break it silently.
These tests pin every module attribute, keyword and record type it uses.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from kneserturan.exactsolve import ChromaticReport
from kneserturan.turanalt import TuranReport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"kneserturan.{module}")
    for name in path:
        obj = getattr(obj, name)
    return obj


def test_every_traced_function_resolves():
    tracer = _tracer()
    assert tracer.TRACED
    for module, name in tracer.TRACED:
        assert callable(_resolve(f"{module}.{name}")), (module, name)


# the names run.py, workloads.py and cli_launcher.py reach, with the
# keywords they pass
USED = {
    "cli.main": (),
    "exactsolve.chromatic_number_graph": ("cap",),
    "exactsolve.chromatic_number_hypergraph": ("cap",),
    "exactsolve.independence_number": ("cap",),
    "hyperstruct.Hypergraph": (),
    "hyperstruct.LinearOrdering.identity": (),
    "hyperstruct.build_named_family": (),
    "kernels.BACKEND": None,
    "kneser.build_named_kneser": (),
    "kneser.kneser_of_family": ("r",),
    "patterns._pattern_hypergraph_cached.cache_clear": None,
    "patterns.family_of": (),
    "patterns.pattern_hypergraph": (),
    "turanalt._admissible_vertex_vectors.cache_clear": None,
    "turanalt.altermatic_certificate": ("i", "strong"),
    "turanalt.ex_alt_min": ("strong", "mode", "seed"),
    "turanalt.ex_alt_sigma": (),
    "turanalt.occurrence_masks": (),
    "turanalt.turan_number": ("mode",),
    "turanalt.verify_certificate": (),
    "turanalt.verify_turan_report": (),
}


@pytest.mark.parametrize("dotted", USED)
def test_every_name_the_benchmark_reaches_exists(dotted):
    obj = _resolve(dotted)
    keywords = USED[dotted]
    if keywords is not None:
        parameters = inspect.signature(obj).parameters
        assert all(k in parameters for k in keywords), (dotted, keywords)


def test_the_two_reports_stay_dataclasses():
    # the --plant-wrong check builds a wrong report with dataclasses.replace
    for cls in (ChromaticReport, TuranReport):
        assert dataclasses.is_dataclass(cls)
        assert "value" in {f.name for f in dataclasses.fields(cls)}
