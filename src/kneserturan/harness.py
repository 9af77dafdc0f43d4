"""Desk-scale reproduction of closed-form chromatic numbers.

The golden suite recomputes every family whose Kneser-power chromatic
number has an exact formula small enough to check by search: matchings,
stable sets of a cycle, triangle patterns in complete graphs, circular
complete graphs, doubled multigraphs, and two-edge-path graphs.
Asymptotic or conjectured formulas are carried as informational probes:
the suite computes the small cases and records both numbers without
asserting agreement.

The two-edge-path construction (triangle factor plus explicit coloring)
lives here as well, since the golden suite consumes it.
"""

from __future__ import annotations

from .errors import InvalidParameterError, KneserTuranError, SizeCapError, VerificationError
from .exactsolve import (
    UNBOUNDED,
    ColoringCertificate,
    chromatic_number_graph,
    chromatic_number_hypergraph,
    validate_graph_coloring,
)
from .hyperstruct import Hypergraph, Record, bits_of, build_named_family, doubled
from .kneser import build_named_kneser, kneser_of_family, kneser_power
from .patterns import PatternFamily, family_of, pattern_hypergraph
from .turanalt import turan_number

DEFAULT_FACTOR_CAP = 15


# --- two-edge-path machinery ---

def count_p2(g: Hypergraph) -> int:
    """Number of two-edge paths in a simple graph.

    Computed as the sum of binom(deg(v), 2) over vertices. The convexity
    floor 2e/n * (e - n/2) is re-checked on the way out; a violation would
    mean the degree sequence is corrupt, so it raises rather than returns.
    """
    if not g.is_simple_graph:
        raise InvalidParameterError("two-edge-path counting needs a simple graph")
    total = sum(d * (d - 1) // 2 for d in g.degrees)
    n, e = g.n_vertices, g.n_edges
    # total >= (2e/n)(e - n/2), cleared of denominators to stay in integers
    if n > 0 and n * total < 2 * e * e - e * n:
        raise VerificationError("path count fell below the convexity floor")
    return total


class FactorWitness(Record):
    """Spanning set of vertex-disjoint components, triangles except a short tail.

    Each component is (tag, vertices): tag "K3" with three mutually adjacent
    vertices, tag "K2" with the two endpoints of an edge, or tag "2K2" with
    four vertices (a, b, c, d) standing for the two edges {a, b} and {c, d}.
    Triangles come first; the tail may hold at most two single edges in
    total, a "2K2" counting as two. Adjacency is not checked here (the
    witness does not know its graph); consumers check edges exist.
    """

    _fields = ("components",)
    _SIZES = {"K3": 3, "K2": 2, "2K2": 4}
    _EDGE_COUNT = {"K3": 0, "K2": 1, "2K2": 2}

    def __init__(self, components):
        comps = tuple((str(tag), tuple(int(v) for v in vs)) for tag, vs in components)
        seen: set[int] = set()
        singles = 0
        last_triangle = -1
        first_tail = len(comps)
        for idx, (tag, vs) in enumerate(comps):
            if tag not in self._SIZES:
                raise InvalidParameterError(f"unknown component tag {tag!r}")
            if len(vs) != self._SIZES[tag] or len(set(vs)) != len(vs):
                raise InvalidParameterError(f"component {idx} has the wrong vertex count")
            if seen & set(vs):
                raise InvalidParameterError("factor components share a vertex")
            seen |= set(vs)
            if tag == "K3":
                last_triangle = idx
            else:
                singles += self._EDGE_COUNT[tag]
                first_tail = min(first_tail, idx)
        if singles > 2:
            raise InvalidParameterError("more than two single-edge components")
        if last_triangle > first_tail:
            raise InvalidParameterError("triangles must precede the single-edge tail")
        self.__dict__["components"] = comps

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for _, vs in self.components for v in vs)

    @property
    def triangle_count(self) -> int:
        return sum(1 for tag, _ in self.components if tag == "K3")

    def to_json_dict(self) -> dict:
        return {"components": [[tag, list(vs)] for tag, vs in self.components]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FactorWitness":
        return cls(tuple((tag, tuple(vs)) for tag, vs in doc["components"]))


def find_triangle_factor(g: Hypergraph, cap: int = DEFAULT_FACTOR_CAP) -> FactorWitness | None:
    """Exhaustive search for a spanning {K3, K2} factor with at most two K2s.

    Returns None exactly when no such factor exists. The search grows
    components from the lowest uncovered vertex, so each partition is
    visited once; the returned witness lists triangles first.
    """
    if not g.is_simple_graph:
        raise InvalidParameterError("triangle factors are defined for simple graphs")
    n = g.n_vertices
    if n > cap:
        raise SizeCapError(f"factor search capped at {cap} vertices, got {n}")
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    comps: list[tuple[str, tuple[int, ...]]] = []

    def rec(used: int, singles: int) -> bool:
        if used == full:
            return True
        rest = full & ~used
        v = (rest & -rest).bit_length() - 1
        cand = adj[v] & rest
        for u in bits_of(cand):
            for w in bits_of(adj[u] & cand):
                if w <= u:
                    continue
                comps.append(("K3", (v, u, w)))
                if rec(used | (1 << v) | (1 << u) | (1 << w), singles):
                    return True
                comps.pop()
        if singles < 2:
            for u in bits_of(cand):
                comps.append(("K2", (v, u)))
                if rec(used | (1 << v) | (1 << u), singles + 1):
                    return True
                comps.pop()
        return False

    if not rec(0, 0):
        return None
    ordered = tuple(c for c in comps if c[0] == "K3") + tuple(c for c in comps if c[0] != "K3")
    return FactorWitness(ordered)


def path_graph_coloring(g: Hypergraph, factor: FactorWitness) -> tuple[ColoringCertificate, dict]:
    """Proper coloring of the two-edge-path Kneser graph from a factor.

    Non-factor edges, in ascending id order, get one color each; a path
    lying inside a triangle component gets that component's color; any
    other path is colored by its least non-factor edge. The palette has
    |E(G)| - floor(2n/3) colors, and the result is validated against the
    actual Kneser graph before being returned.
    """
    if not g.is_simple_graph:
        raise InvalidParameterError("the path-graph coloring needs a simple graph")

    comps: list[tuple[str, tuple[int, ...]]] = []
    for tag, vs in factor.components:
        if tag == "2K2":
            comps.append(("K2", vs[:2]))
            comps.append(("K2", vs[2:]))
        else:
            comps.append((tag, vs))
    covered = {v for _, vs in comps for v in vs}
    if covered != set(range(g.n_vertices)):
        raise InvalidParameterError("factor does not cover every vertex")

    edge_id = {e: i for i, e in enumerate(g.edges)}
    comp_of: dict[int, int] = {}
    triangle_rank: dict[int, int] = {}
    for idx, (tag, vs) in enumerate(comps):
        if tag == "K3":
            a, b, c = vs
            needed = [frozenset({a, b}), frozenset({a, c}), frozenset({b, c})]
            triangle_rank[idx] = len(triangle_rank)
        else:
            needed = [frozenset(vs)]
        for members in needed:
            if members not in edge_id:
                raise InvalidParameterError("factor component uses an edge absent from the graph")
            comp_of[edge_id[members]] = idx

    outside = [i for i in range(g.n_edges) if i not in comp_of]
    out_rank = {e: j for j, e in enumerate(outside)}
    palette = len(outside) + len(triangle_rank)

    rep = pattern_hypergraph(g, family_of(build_named_family("path", length=2)))
    kg = kneser_power(rep, 2).result
    assignment = []
    for occ in rep.edges:
        owners = {comp_of.get(e, -1 - e) for e in occ}
        if len(owners) == 1:
            idx = owners.pop()
            if idx not in triangle_rank:
                raise VerificationError("a two-edge path fit inside a single-edge component")
            assignment.append(len(outside) + triangle_rank[idx])
        else:
            assignment.append(min(out_rank[e] for e in occ if e in out_rank))

    if palette != g.n_edges - (2 * g.n_vertices) // 3:
        raise VerificationError("palette size drifted from |E| - floor(2n/3)")
    cert = ColoringCertificate(palette, tuple(assignment))
    if not validate_graph_coloring(kg, cert.assignment):
        raise VerificationError("constructed path-graph coloring is not proper")
    meta = {
        "non_factor_edges": outside,
        "triangle_components": [list(comps[idx][1]) for idx in sorted(triangle_rank, key=triangle_rank.get)],
        "kneser_vertices": rep.n_edges,
    }
    return cert, meta


# --- the golden suite ---

class GoldenCase(Record):
    """One pinned chromatic-number computation.

    ``construction`` describes how to build the instance (see _build_case),
    ``formula`` is a key into _FORMULAS evaluated on ``params``, and
    ``source`` names the classical result the expected value comes from.
    Informational cases are computed and recorded but never asserted.
    """

    _fields = ("name", "construction", "formula", "params", "source", "informational", "tags")

    def __init__(self, name: str, construction: dict, formula: str, params: dict, source: str,
                 informational: bool = False, tags: tuple[str, ...] = ()):
        self.__dict__.update(name=name, construction=construction, formula=formula,
                             params=params, source=source, informational=informational,
                             tags=tags)


class _BuiltCase(Record):
    _fields = ("target", "is_graph", "host", "family")

    def __init__(self, target: Hypergraph, is_graph: bool, host: Hypergraph | None,
                 family: PatternFamily | None):
        self.__dict__.update(target=target, is_graph=is_graph, host=host, family=family)


def _build_case(construction: dict) -> _BuiltCase:
    via = construction["via"]
    if via == "named":
        named = build_named_kneser(construction["kind"], **construction["params"])
        return _BuiltCase(named.graph, True, None, None)
    if via == "pattern":
        kind, host_params = construction["host"]
        host = build_named_family(kind, **host_params)
        if construction.get("double"):
            host = doubled(host)
        family = family_of(*[build_named_family(k, **ps) for k, ps in construction["family"]])
        r = construction.get("r", 2)
        instance = kneser_of_family(host, family, r=r)
        return _BuiltCase(instance.result, r == 2, host, family)
    raise InvalidParameterError(f"unknown construction scheme {via!r}")


def _frankl_value(params: dict) -> int:
    n, k = params["n"], params["k"]
    s, r = divmod(n, k - 1)
    return (k - 1) * s * (s - 1) // 2 + r * s


def _edges_minus_ex(built: _BuiltCase) -> int:
    report = turan_number(built.host, built.family, mode="exact")
    return built.host.n_edges - report.value


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
        construction={"via": "named", "kind": "kneser", "params": {"n": n, "k": k}},
        formula="n-2k+2",
        params={"n": n, "k": k},
        source="Lovasz 1978",
        tags=("kneser",),
    )


def _schrijver_case(n: int, k: int) -> GoldenCase:
    return GoldenCase(
        name=f"schrijver-{n}-{k}",
        construction={"via": "named", "kind": "schrijver", "params": {"n": n, "k": k}},
        formula="n-2k+2",
        params={"n": n, "k": k},
        source="Schrijver 1978",
        tags=("schrijver",),
    )


def _matching_power_case(n: int) -> GoldenCase:
    return GoldenCase(
        name=f"matching-power-3-{n}",
        construction={
            "via": "pattern",
            "host": ("matching", {"n": n}),
            "family": [("matching", {"n": 2})],
            "r": 3,
        },
        formula="ceil((n-r(k-1))/(r-1))",
        params={"n": n, "k": 2, "r": 3},
        source="Alon-Frankl-Lovasz 1986",
        tags=("hypergraph",),
    )


def _triangle_case(n: int, informational: bool = False, source: str = "Tort 1983") -> GoldenCase:
    return GoldenCase(
        name=f"triangles-in-k{n}",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": n}),
            "family": [("cycle", {"n": 3})],
        },
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
        construction={"via": "named", "kind": "circular", "params": {"n": 5, "d": 2}},
        formula="ceil(n/d)",
        params={"n": 5, "d": 2},
        source="circular complete graph",
        tags=("circular",),
    ),
    GoldenCase(
        name="permutation-2-2-2",
        construction={"via": "named", "kind": "permutation", "params": {"m": 2, "n": 2, "r": 2}},
        formula="constant",
        params={"value": 2},
        source="direct check: this instance is a single edge",
        tags=("permutation",),
    ),
    GoldenCase(
        name="doubled-triangle-k3",
        construction={
            "via": "pattern",
            "host": ("cycle", {"n": 3}),
            "double": True,
            "family": [("cycle", {"n": 3})],
        },
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="doubled-c4-p2",
        construction={
            "via": "pattern",
            "host": ("cycle", {"n": 4}),
            "double": True,
            "family": [("path", {"length": 2})],
        },
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="doubled-k4-k3",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 4}),
            "double": True,
            "family": [("cycle", {"n": 3})],
        },
        formula="|E|-ex",
        params={},
        source="doubled multigraph",
        tags=("multigraph",),
    ),
    GoldenCase(
        name="paths-in-k4",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 4}),
            "family": [("path", {"length": 2})],
        },
        formula="|E|-floor(2n/3)",
        params={},
        source="triangle-factor coloring",
        tags=("path",),
    ),
    GoldenCase(
        name="paths-in-c5",
        construction={
            "via": "pattern",
            "host": ("cycle", {"n": 5}),
            "family": [("path", {"length": 2})],
        },
        formula="constant",
        params={"value": 3},
        source="odd hole; no triangle factor, the floor formula gives 2",
        tags=("path", "counterexample"),
    ),
    GoldenCase(
        name="probe-cliques-6-4",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 6}),
            "family": [("complete", {"n": 4})],
        },
        formula="(k-1)binom(s,2)+rs",
        params={"n": 6, "k": 4},
        source="Frankl 1985, asymptotic in n",
        informational=True,
        tags=("probe", "clique"),
    ),
    GoldenCase(
        name="probe-cliques-7-4",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 7}),
            "family": [("complete", {"n": 4})],
        },
        formula="(k-1)binom(s,2)+rs",
        params={"n": 7, "k": 4},
        source="Frankl 1985, asymptotic in n",
        informational=True,
        tags=("probe", "clique"),
    ),
    GoldenCase(
        name="probe-even-cycles-5-4",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 5}),
            "family": [("cycle", {"n": 4})],
        },
        formula="|E|-ex",
        params={},
        source="open: whether the upper bound is tight for even cycles",
        informational=True,
        tags=("probe", "cycle"),
    ),
    GoldenCase(
        name="probe-odd-cycles-5-5",
        construction={
            "via": "pattern",
            "host": ("complete", {"n": 5}),
            "family": [("cycle", {"n": 5})],
        },
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
        built = _build_case(case.construction)
        record["expected"] = _FORMULAS[case.formula](case.params, built)
        if built.is_graph:
            chi = chromatic_number_graph(built.target)
        else:
            chi = chromatic_number_hypergraph(built.target)
        value = chi.value
        record["computed"] = value.to_json() if value is UNBOUNDED else value
        record["match"] = record["computed"] == record["expected"]
    except KneserTuranError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _case_record_by_name(name: str) -> dict:
    return _case_record(_BY_NAME[name])


def run_golden_suite(selection=None, workers: int = 1) -> dict:
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
    if workers > 1 and len(cases) > 1:
        # imported here: it loads multiprocessing, which serial calls never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_case_record_by_name, [c.name for c in cases]))
    else:
        records = [_case_record(c) for c in cases]
    ok = all(
        r["error"] is None and (r["informational"] or r["match"]) for r in records
    )
    return {"suite": "golden", "ok": ok, "cases": records}
