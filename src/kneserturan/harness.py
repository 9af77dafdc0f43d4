"""Desk-scale reproduction of closed-form chromatic numbers.

The golden suite recomputes every family whose Kneser-power chromatic
number has an exact formula small enough to check by search: matchings,
stable sets of a cycle, triangle patterns in complete graphs, circular
complete graphs, doubled multigraphs, and two-edge-path graphs.
Asymptotic or conjectured formulas are carried as informational probes:
the suite computes the small cases and records both numbers without
asserting agreement. A case's construction is the instance echo of a
``compute chi`` document, built by the kneser._rebuild_instance and
kneser._target_of that compute and verify use.
"""

from __future__ import annotations

from .errors import InvalidParameterError, KneserTuranError
from .exactsolve import chromatic_number
from .hyperstruct import Record
from .kneser import _rebuild_instance, _Resolved, _target_of
from .turanalt import turan_number


class GoldenCase(Record):
    """One pinned chromatic-number computation.

    ``construction`` is the instance echo of a ``compute chi`` document, as
    kneser._rebuild_instance reads it; ``formula`` is a key into _FORMULAS
    evaluated on ``params`` and the resolved instance, and
    ``source`` names the classical result the expected value comes from.
    Informational cases are computed and recorded but never asserted.
    """

    _fields = ("name", "construction", "formula", "params", "source", "informational", "tags")

    def __init__(self, name: str, construction: dict, formula: str, params: dict, source: str,
                 informational: bool = False, tags: tuple[str, ...] = ()):
        self.__dict__.update(name=name, construction=construction, formula=formula,
                             params=params, source=source, informational=informational,
                             tags=tags)


def _frankl_value(params: dict) -> int:
    n, k = params["n"], params["k"]
    s, r = divmod(n, k - 1)
    return (k - 1) * s * (s - 1) // 2 + r * s


def _edges_minus_ex(resolved: _Resolved) -> int:
    report = turan_number(resolved.host, resolved.family, mode="exact")
    return resolved.host.n_edges - report.value


_FORMULAS = {
    "n-2k+2": lambda p, b: p["n"] - 2 * p["k"] + 2,
    "ceil((n-r(k-1))/(r-1))": lambda p, b: -(-(p["n"] - p["r"] * (p["k"] - 1)) // (p["r"] - 1)),
    "floor((n-1)^2/4)": lambda p, b: (p["n"] - 1) ** 2 // 4,
    "ceil(n/d)": lambda p, b: -(-p["n"] // p["d"]),
    "(k-1)binom(s,2)+rs": lambda p, b: _frankl_value(p),
    "|E|-ex": lambda p, b: _edges_minus_ex(b),
    "|E|-floor(2n/3)": lambda p, b: b.host.n_edges - (2 * b.host.n_vertices) // 3,
    "constant": lambda p, b: p["value"],
}


def _kneser_case(n: int, k: int) -> GoldenCase:
    return GoldenCase(
        name=f"kneser-{n}-{k}",
        construction={"scheme": "named", "kind": "kneser", "params": {"n": n, "k": k}},
        formula="n-2k+2",
        params={"n": n, "k": k},
        source="Lovasz 1978",
        tags=("kneser",),
    )


def _schrijver_case(n: int, k: int) -> GoldenCase:
    return GoldenCase(
        name=f"schrijver-{n}-{k}",
        construction={"scheme": "named", "kind": "schrijver", "params": {"n": n, "k": k}},
        formula="n-2k+2",
        params={"n": n, "k": k},
        source="Schrijver 1978",
        tags=("schrijver",),
    )


def _matching_power_case(n: int) -> GoldenCase:
    return GoldenCase(
        name=f"matching-power-3-{n}",
        construction={"scheme": "pattern", "r": 3,
                      "host": {"kind": "matching", "params": {"n": n}, "double": False},
                      "pattern": {"kind": "matching", "params": {"n": 2}}},
        formula="ceil((n-r(k-1))/(r-1))",
        params={"n": n, "k": 2, "r": 3},
        source="Alon-Frankl-Lovasz 1986",
        tags=("hypergraph",),
    )


def _triangle_case(n: int, informational: bool = False, source: str = "Tort 1983") -> GoldenCase:
    return GoldenCase(
        name=f"triangles-in-k{n}",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": n}, "double": False},
                      "pattern": {"kind": "cycle", "params": {"n": 3}}},
        formula="floor((n-1)^2/4)",
        params={"n": n},
        source=source,
        informational=informational,
        tags=("triangle",),
    )


MANIFEST: tuple[GoldenCase, ...] = (
    _kneser_case(4, 2),
    _kneser_case(5, 2),
    _kneser_case(6, 2),
    _kneser_case(6, 3),
    _kneser_case(7, 3),
    _schrijver_case(5, 2),
    _schrijver_case(6, 2),
    _schrijver_case(7, 2),
    _schrijver_case(7, 3),
    _matching_power_case(6),
    _matching_power_case(7),
    _matching_power_case(8),
    _triangle_case(
        5,
        informational=True,
        source="Tort 1983; the formula overshoots at this size: the instance "
        "is the Petersen graph, chromatic number 3",
    ),
    _triangle_case(6),
    GoldenCase(
        name="circular-5-2",
        construction={"scheme": "named", "kind": "circular", "params": {"n": 5, "d": 2}},
        formula="ceil(n/d)",
        params={"n": 5, "d": 2},
        source="circular complete graph",
        tags=("circular",),
    ),
    GoldenCase(
        name="permutation-2-2-2",
        construction={"scheme": "named", "kind": "permutation", "params": {"m": 2, "n": 2, "r": 2}},
        formula="constant",
        params={"value": 2},
        source="direct check: this instance is a single edge",
        tags=("permutation",),
    ),
    GoldenCase(
        name="doubled-triangle-k3",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "cycle", "params": {"n": 3}, "double": True},
                      "pattern": {"kind": "cycle", "params": {"n": 3}}},
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="doubled-c4-p2",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "cycle", "params": {"n": 4}, "double": True},
                      "pattern": {"kind": "path", "params": {"len": 2}}},
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="doubled-k4-k3",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 4}, "double": True},
                      "pattern": {"kind": "cycle", "params": {"n": 3}}},
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="paths-in-k4",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 4}, "double": False},
                      "pattern": {"kind": "path", "params": {"len": 2}}},
        formula="|E|-floor(2n/3)",
        params={},
        source="triangle-factor coloring",
        tags=("path",),
    ),
    GoldenCase(
        name="paths-in-c5",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "cycle", "params": {"n": 5}, "double": False},
                      "pattern": {"kind": "path", "params": {"len": 2}}},
        formula="constant",
        params={"value": 3},
        source="odd hole; no triangle factor, the floor formula gives 2",
        tags=("path", "counterexample"),
    ),
    GoldenCase(
        name="probe-cliques-6-4",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 6}, "double": False},
                      "pattern": {"kind": "complete", "params": {"n": 4}}},
        formula="(k-1)binom(s,2)+rs",
        params={"n": 6, "k": 4},
        source="Frankl 1985, asymptotic in n",
        informational=True,
        tags=("probe", "clique"),
    ),
    GoldenCase(
        name="probe-cliques-7-4",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 7}, "double": False},
                      "pattern": {"kind": "complete", "params": {"n": 4}}},
        formula="(k-1)binom(s,2)+rs",
        params={"n": 7, "k": 4},
        source="Frankl 1985, asymptotic in n",
        informational=True,
        tags=("probe", "clique"),
    ),
    GoldenCase(
        name="probe-even-cycles-5-4",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 5}, "double": False},
                      "pattern": {"kind": "cycle", "params": {"n": 4}}},
        formula="|E|-ex",
        params={},
        source="open: whether the upper bound is tight for even cycles",
        informational=True,
        tags=("probe", "cycle"),
    ),
    GoldenCase(
        name="probe-odd-cycles-5-5",
        construction={"scheme": "pattern", "r": 2,
                      "host": {"kind": "complete", "params": {"n": 5}, "double": False},
                      "pattern": {"kind": "cycle", "params": {"n": 5}}},
        formula="floor((n-1)^2/4)",
        params={"n": 5},
        source="conjectured to match the triangle formula for odd cycles",
        informational=True,
        tags=("probe", "cycle"),
    ),
)

_BY_NAME = {case.name: case for case in MANIFEST}


def _case_record(case: GoldenCase) -> dict:
    record = {
        "name": case.name,
        "tags": list(case.tags),
        "source": case.source,
        "formula": case.formula,
        "informational": case.informational,
        "expected": None,
        "computed": None,
        "match": None,
        "error": None,
    }
    try:
        resolved = _rebuild_instance(case.construction)
        target = _target_of(resolved)
        record["expected"] = _FORMULAS[case.formula](case.params, resolved)
        record["computed"] = chromatic_number(target).value
        record["match"] = record["computed"] == record["expected"]
    except KneserTuranError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run_golden_suite(selection=None) -> dict:
    """Recompute the manifest and compare against the recorded formulas.

    ``selection`` restricts to the named cases (manifest order is kept).
    The report is JSON-ready and stable across runs: no timestamps, no
    timings. A case that raises a package error is recorded, not fatal,
    but any error or any non-informational mismatch makes ok False.
    """
    cases = list(MANIFEST)
    if selection is not None:
        wanted = set(selection)
        unknown = wanted - set(_BY_NAME)
        if unknown:
            raise InvalidParameterError(f"unknown golden cases: {', '.join(sorted(unknown))}")
        cases = [c for c in MANIFEST if c.name in wanted]
    records = [_case_record(c) for c in cases]
    ok = all(
        r["error"] is None and (r["informational"] or r["match"]) for r in records
    )
    return {"suite": "golden", "ok": ok, "cases": records}
