import random
from itertools import combinations

import pytest

from kneserturan import (
    Hypergraph,
    InvalidParameterError,
    MANIFEST,
    build_named_family,
    chromatic_number_graph,
    family_of,
    kneser_of_family,
    run_golden_suite,
    turan_coloring,
    validate_hypergraph_coloring,
)

_P2 = family_of(build_named_family("path", length=2))


def _two_triangles():
    return Hypergraph(6, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}),
                          frozenset({3, 4}), frozenset({4, 5}), frozenset({3, 5})))


def _factor_coloring(g, components):
    """turan_coloring of the two-edge-path graph of ``g`` that keeps the edges
    of a {K3, K2} factor, given as vertex tuples, with its triangles as the
    clusters."""
    ids = {e: i for i, e in enumerate(g.edges)}
    parts = [[ids[frozenset(p)] for p in combinations(c, 2)] for c in components]
    kept = [e for part in parts for e in part]
    return turan_coloring(g, _P2, kept, [part for part in parts if len(part) == 3])


def test_path_coloring_on_k4():
    g = build_named_family("complete", n=4)
    cert = _factor_coloring(g, ((0, 1), (2, 3)))
    assert cert.num_colors == 6 - (2 * 4) // 3  # == 4
    assert len(cert.assignment) == 12
    assert validate_hypergraph_coloring(kneser_of_family(g, _P2).result, cert.assignment)


def test_path_coloring_on_k6():
    g = build_named_family("complete", n=6)
    cert = _factor_coloring(g, ((0, 1, 2), (3, 4, 5)))
    assert cert.num_colors == 15 - (2 * 6) // 3  # == 11
    assert validate_hypergraph_coloring(kneser_of_family(g, _P2).result, cert.assignment)


def test_path_coloring_on_two_triangles():
    g = _two_triangles()
    cert = _factor_coloring(g, ((0, 1, 2), (3, 4, 5)))
    assert cert.num_colors == 2
    kg = kneser_of_family(g, _P2).result
    assert chromatic_number_graph(kg).value == 2


def test_path_coloring_rejects_foreign_factor():
    # a kept set that is not a factor of the graph is invalid input, not a
    # verification failure: the paths inside a kept triangle need a cluster
    g = build_named_family("complete", n=4)
    ids = {e: i for i, e in enumerate(g.edges)}
    triangle = [ids[frozenset(p)] for p in ((0, 1), (0, 2), (1, 2))]
    with pytest.raises(InvalidParameterError):
        turan_coloring(g, _P2, triangle)
    with pytest.raises(InvalidParameterError):
        turan_coloring(g, _P2, [0, g.n_edges])


def test_factored_graphs_reach_the_floor_formula():
    # t triangles and s <= 2 single edges planted on a random vertex order,
    # plus random edges: the factor coloring has |E| - floor(2n/3) colors,
    # and chi equals that wherever the Kneser graph is small enough to solve
    rng = random.Random(51)
    checked = 0
    for _ in range(40):
        t, s = rng.randint(1, 2), rng.randint(0, 2)
        n = 3 * t + 2 * s
        order = rng.sample(range(n), n)
        factor = [order[3 * i:3 * i + 3] for i in range(t)] + \
            [order[3 * t + 2 * j:3 * t + 2 * j + 2] for j in range(s)]
        edges = {frozenset(p) for c in factor for p in combinations(c, 2)}
        density = rng.choice((0.3, 0.5))
        edges |= {frozenset(p) for p in combinations(range(n), 2) if rng.random() < density}
        g = Hypergraph(n, tuple(sorted(edges, key=sorted)))
        cert = _factor_coloring(g, factor)
        expected = g.n_edges - (2 * n) // 3
        assert cert.num_colors == expected
        kg = kneser_of_family(g, _P2).result
        assert validate_hypergraph_coloring(kg, cert.assignment)
        if kg.n_vertices <= 40:
            assert chromatic_number_graph(kg).value == expected
            checked += 1
    assert checked >= 5


def test_golden_suite_passes():
    report = run_golden_suite()
    assert report["suite"] == "golden"
    assert report["ok"] is True
    by_name = {r["name"]: r for r in report["cases"]}
    assert len(by_name) == len(MANIFEST)
    for r in report["cases"]:
        assert r["error"] is None
        if not r["informational"]:
            assert r["match"] is True, r["name"]


def test_golden_suite_records_probes_without_asserting():
    report = run_golden_suite()
    probes = [r for r in report["cases"] if r["name"].startswith("probe-")]
    assert probes
    assert all(r["informational"] for r in probes)
    # the known formula overshoot is recorded, not patched over
    tort_small = next(r for r in report["cases"] if r["name"] == "triangles-in-k5")
    assert tort_small["informational"]
    assert tort_small["expected"] == 4
    assert tort_small["computed"] == 3
    assert tort_small["match"] is False


def test_golden_selection():
    one = run_golden_suite(["kneser-4-2"])
    assert [r["name"] for r in one["cases"]] == ["kneser-4-2"]
    assert one["ok"]
    with pytest.raises(InvalidParameterError):
        run_golden_suite(["no-such-case"])


def test_golden_report_is_deterministic():
    sel = ["kneser-5-2", "paths-in-c5"]
    assert run_golden_suite(sel) == run_golden_suite(sel)


def test_manifest_formulas_are_recorded():
    names = {c.name for c in MANIFEST}
    assert "triangles-in-k6" in names
    assert "doubled-k4-k3" in names
    for case in MANIFEST:
        assert case.source
        assert case.formula
