import random

import pytest

from kneserturan import (
    FactorWitness,
    Hypergraph,
    InvalidParameterError,
    MANIFEST,
    SizeCapError,
    VerificationError,
    build_named_family,
    chromatic_number_graph,
    count_p2,
    family_of,
    find_triangle_factor,
    kneser_of_family,
    path_graph_coloring,
    run_golden_suite,
    turan_number,
    validate_graph_coloring,
)
from conftest import random_graph


def _two_triangles():
    return Hypergraph(6, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}),
                          frozenset({3, 4}), frozenset({4, 5}), frozenset({3, 5})))


def test_count_p2_values():
    assert count_p2(build_named_family("complete", n=4)) == 12
    assert count_p2(build_named_family("cycle", n=5)) == 5
    assert count_p2(build_named_family("complete_bipartite", m=1, n=4)) == 6
    with pytest.raises(InvalidParameterError):
        count_p2(Hypergraph(3, (frozenset({0, 1}), frozenset({0, 1}))))


def test_find_triangle_factor_small_cases():
    k4 = find_triangle_factor(build_named_family("complete", n=4))
    assert k4 is not None
    assert [tag for tag, _ in k4.components] == ["K2", "K2"]
    assert k4.vertex_set == frozenset(range(4))

    k6 = find_triangle_factor(build_named_family("complete", n=6))
    assert k6.triangle_count == 2

    k7 = find_triangle_factor(build_named_family("complete", n=7))
    assert [tag for tag, _ in k7.components] == ["K3", "K2", "K2"]

    assert find_triangle_factor(build_named_family("cycle", n=5)) is None
    assert find_triangle_factor(_two_triangles()).triangle_count == 2


def test_find_triangle_factor_cap():
    with pytest.raises(SizeCapError):
        find_triangle_factor(build_named_family("complete", n=16))


def test_factor_witness_validation():
    FactorWitness((("K3", (0, 1, 2)), ("K2", (3, 4))))
    with pytest.raises(InvalidParameterError):
        FactorWitness((("K3", (0, 1, 2)), ("K2", (2, 3))))  # shared vertex
    with pytest.raises(InvalidParameterError):
        FactorWitness((("K2", (0, 1)), ("K2", (2, 3)), ("K2", (4, 5))))
    with pytest.raises(InvalidParameterError):
        FactorWitness((("K2", (0, 1)), ("K3", (2, 3, 4))))  # tail before triangle
    with pytest.raises(InvalidParameterError):
        FactorWitness((("K4", (0, 1, 2, 3)),))
    # a 2K2 component stands for two single edges and exhausts the budget
    w = FactorWitness((("K3", (0, 1, 2)), ("2K2", (3, 4, 5, 6))))
    assert w.vertex_set == frozenset(range(7))
    with pytest.raises(InvalidParameterError):
        FactorWitness((("2K2", (0, 1, 2, 3)), ("K2", (4, 5))))


def test_factor_witness_json_roundtrip():
    w = FactorWitness((("K3", (2, 4, 5)), ("K2", (0, 1))))
    assert FactorWitness.from_json_dict(w.to_json_dict()) == w


def test_path_coloring_on_k4():
    g = build_named_family("complete", n=4)
    cert, meta = path_graph_coloring(g, find_triangle_factor(g))
    assert cert.num_colors == 6 - (2 * 4) // 3  # == 4
    assert meta["kneser_vertices"] == 12


def test_path_coloring_on_k6():
    g = build_named_family("complete", n=6)
    cert, meta = path_graph_coloring(g, find_triangle_factor(g))
    assert cert.num_colors == 15 - (2 * 6) // 3  # == 11


def test_path_coloring_on_two_triangles():
    g = _two_triangles()
    cert, _ = path_graph_coloring(g, find_triangle_factor(g))
    assert cert.num_colors == 2
    kg = kneser_of_family(g, family_of(build_named_family("path", length=2))).result
    assert chromatic_number_graph(kg).value == 2


def test_path_coloring_rejects_foreign_factor():
    # a factor that does not describe the graph is invalid input, not a
    # verification failure: coverage and edge membership are preconditions
    g = build_named_family("complete", n=4)
    wrong = FactorWitness((("K3", (0, 1, 2)),))  # vertex 3 uncovered
    with pytest.raises(InvalidParameterError):
        path_graph_coloring(g, wrong)
    # a claimed triangle with a missing edge
    c5 = build_named_family("cycle", n=5)
    fake = FactorWitness((("K3", (0, 1, 2)), ("K2", (3, 4))))
    with pytest.raises(InvalidParameterError):
        path_graph_coloring(c5, fake)


def test_factored_graphs_reach_the_floor_formula():
    # wherever a factor exists the coloring is optimal: chi equals the palette
    rng = random.Random(51)
    fam = family_of(build_named_family("path", length=2))
    checked = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 7), rng.choice((0.5, 0.7)))
        factor = find_triangle_factor(g)
        if factor is None:
            continue
        cert, _ = path_graph_coloring(g, factor)
        expected = g.n_edges - (2 * g.n_vertices) // 3
        assert cert.num_colors == expected
        kg = kneser_of_family(g, fam).result
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


def test_golden_selection_and_workers():
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
