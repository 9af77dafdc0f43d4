import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserturan import (
    Hypergraph,
    SizeCapError,
    UNBOUNDED,
    VerificationError,
    build_named_family,
    build_named_kneser,
    chromatic_number_graph,
    chromatic_number_hypergraph,
    covering_number,
    dsatur_coloring,
    family_of,
    independence_number,
    kernels,
    kneser_of_family,
    max_clique,
    validate_hypergraph_coloring,
)
from kneserturan.exactsolve import (
    ChromaticReport,
    ColoringCertificate,
    _greedy_hypergraph_coloring,
)
from conftest import random_graph, random_hypergraph


def _brute_chi_graph(g):
    """Reference chromatic number by scanning k-colorings; shares no code
    with the solver under test."""
    if g.n_vertices == 0:
        return 0
    pairs = [tuple(sorted(e)) for e in g.edges]
    for k in range(1, g.n_vertices + 1):
        for assignment in product(range(k), repeat=g.n_vertices):
            if all(assignment[u] != assignment[v] for u, v in pairs):
                return k
    raise AssertionError("unreachable")


def test_petersen_chromatic_number():
    pet = build_named_kneser("kneser", n=5, k=2).graph
    report = chromatic_number_graph(pet)
    assert report.value == 3
    assert validate_hypergraph_coloring(pet, report.coloring.assignment)
    assert len(set(report.coloring.assignment)) == 3


def test_schrijver_6_2_chromatic_number():
    g = build_named_kneser("schrijver", n=6, k=2).graph
    assert chromatic_number_graph(g).value == 4


def test_two_edge_path_kneser_graph_of_k4():
    g = kneser_of_family(build_named_family("complete", n=4),
                         family_of(build_named_family("path", length=2))).result
    assert chromatic_number_graph(g).value == 4


def test_order_three_kneser_hypergraph():
    inst = kneser_of_family(build_named_family("matching", n=7),
                            family_of(build_named_family("matching", n=2)), r=3)
    report = chromatic_number_hypergraph(inst.result)
    assert report.value == 2
    assert validate_hypergraph_coloring(inst.result, report.coloring.assignment)


def test_singleton_edge_is_unbounded():
    h = Hypergraph(2, (frozenset({0}),))
    report = chromatic_number_hypergraph(h)
    assert report.value == UNBOUNDED == "unbounded"
    assert report.to_json_dict()["value"] == "unbounded"


def test_chromatic_matches_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.6)))
        report = chromatic_number_graph(g)
        assert report.value == _brute_chi_graph(g)
        assert validate_hypergraph_coloring(g, report.coloring.assignment)


def test_independence_covering_duality():
    rng = random.Random(32)
    for _ in range(30):
        h = random_hypergraph(rng, max_vertices=7, max_edges=6)
        alpha, ind = independence_number(h)
        beta, cover = covering_number(h)
        assert alpha + beta == h.n_vertices
        assert len(ind) == alpha and len(cover) == beta
        for em, e in zip(h.edge_masks, h.edges):
            assert not e <= ind  # no edge fully inside the independent set
            assert e & cover  # every edge is met by the cover


def test_max_clique_values():
    assert max_clique(build_named_family("complete", n=5))[0] == 5
    assert max_clique(build_named_family("cycle", n=5))[0] == 2
    size, verts = max_clique(build_named_family("complete", n=4))
    assert len(verts) == size == 4


def test_dsatur_is_proper_upper_bound():
    rng = random.Random(33)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        assignment = dsatur_coloring(g)
        assert validate_hypergraph_coloring(g, assignment)
        assert len(set(assignment)) >= chromatic_number_graph(g).value


def test_solver_cap_is_enforced():
    g = build_named_family("complete", n=5)
    with pytest.raises(SizeCapError):
        chromatic_number_graph(g, cap=4)
    with pytest.raises(SizeCapError):
        independence_number(g, cap=4)


def test_chromatic_report_carries_lower_witness():
    g = build_named_family("complete", n=4)
    report = chromatic_number_graph(g)
    assert report.value == 4
    doc = report.to_json_dict()
    assert doc["value"] == 4
    assert doc["witness"]


def test_chromatic_reports_pinned():
    # values, witnesses and colorings as the per-vertex decision search gave
    # them; schrijver(10,3) is the decision kernel's hardest refutation
    # (omega 3 against chi 6, so the search refutes 3, 4 and 5 colors)
    k3 = family_of(build_named_family("cycle", n=3))
    cases = (
        (kneser_of_family(build_named_family("complete", n=8), k3).result, 12, 11, [
            0, 1, 2, 4, 3, 5, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 8, 7, 9,
            6, 11, 4, 3, 5, 10, 4, 3, 5, 4, 3, 5, 3, 4, 3, 6, 6, 6, 6, 11,
            11, 11, 8, 7, 9, 10, 10, 10, 8, 7, 9, 8, 7, 9, 7
        ]),
        (build_named_kneser("kneser", n=9, k=3).graph, 5, 4, [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
            2, 4, 3, 3, 3, 3, 3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 4, 4, 4, 4, 3
        ]),
        (build_named_kneser("schrijver", n=10, k=3).graph, 6, 5, [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3, 2, 3, 3, 3, 3, 2, 3, 4, 4,
            4, 4, 2, 4, 2, 2, 2, 5
        ]),
    )
    for g, chi, refuted, assignment in cases:
        report = chromatic_number_graph(g, cap=g.n_vertices).to_json_dict()
        assert report == {"value": chi, "assignment": assignment,
                          "witness": {"kind": "exhausted", "refuted_colors": refuted}}


def test_order_three_kneser_report_pinned():
    # KG3(K5,P2): 30 vertices, 980 edges. The decision search refutes 2 and
    # 3 colors (the hardest refutation among the order-3 powers of the chi
    # benchmark), so the greedy's 4-coloring is the assignment
    h = kneser_of_family(build_named_family("complete", n=5),
                         family_of(build_named_family("path", length=2)), r=3).result
    assert (h.n_vertices, h.n_edges) == (30, 980)
    assert chromatic_number_hypergraph(h).to_json_dict() == {
        "value": 4,
        "assignment": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2,
                       2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3],
        "witness": {"kind": "exhausted", "refuted_colors": 3},
    }


def _chromatic_report_deciding_every_k(g):
    """chromatic_number_graph(g).to_json_dict() as the loop gave it that ran
    graph_color_decision at every k from omega up, with no graph_colorable."""
    n = g.n_vertices
    if n == 0:
        return ChromaticReport(0, ColoringCertificate(0, ()), {"kind": "empty"}).to_json_dict()
    if g.n_edges == 0:
        return ChromaticReport(1, ColoringCertificate(1, (0,) * n),
                               {"kind": "edgeless"}).to_json_dict()
    adj = g.adjacency_masks()
    omega, clique = max_clique(g)
    clique_list = sorted(clique)
    greedy = dsatur_coloring(g)
    ub = max(greedy) + 1
    if omega == ub:
        return ChromaticReport(ub, ColoringCertificate(ub, greedy),
                               {"kind": "clique", "members": clique_list}).to_json_dict()
    for k in range(omega, ub):
        assignment = kernels.graph_color_decision(n, adj, k, clique_list)
        if assignment is not None:
            witness = ({"kind": "clique", "members": clique_list} if k == omega
                       else {"kind": "exhausted", "refuted_colors": k - 1})
            return ChromaticReport(k, ColoringCertificate(k, assignment),
                                   witness).to_json_dict()
    return ChromaticReport(ub, ColoringCertificate(ub, greedy),
                           {"kind": "exhausted", "refuted_colors": ub - 1}).to_json_dict()


@st.composite
def _simple_graphs(draw):
    # n may be 0, and the graph may have no edge
    n = draw(st.integers(0, 14))
    p = draw(st.sampled_from((0.0, 0.2, 0.4, 0.6, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    return Hypergraph(n, tuple(frozenset((u, v)) for u in range(n)
                               for v in range(u + 1, n) if rng.random() < p))


@settings(max_examples=200, deadline=None)
@given(g=_simple_graphs())
def test_chromatic_report_matches_deciding_every_k(g):
    assert chromatic_number_graph(g).to_json_dict() == _chromatic_report_deciding_every_k(g)


def test_chromatic_raises_when_the_searches_disagree(monkeypatch):
    # C5: omega 2, chi 3. A graph_colorable that accepts every k sends the
    # loop to graph_color_decision at k = 2, which refutes it
    c5 = build_named_family("cycle", n=5)
    monkeypatch.setattr(kernels, "graph_colorable", lambda n, adj, k, clique=(): True)
    with pytest.raises(VerificationError, match="accepts 2 colors"):
        chromatic_number_graph(c5)


def test_hypergraph_chromatic_raises_when_the_searches_disagree(monkeypatch):
    # KG3(M9,M2) has chi 3. A hypergraph_colorable that accepts every k
    # sends the loop to hypergraph_color_decision at k = 2, which refutes it
    h = kneser_of_family(build_named_family("matching", n=9),
                         family_of(build_named_family("matching", n=2)), r=3).result
    monkeypatch.setattr(kernels, "hypergraph_colorable",
                        lambda n, edge_masks, k, tables=None: True)
    with pytest.raises(VerificationError, match="accepts 2 colors"):
        chromatic_number_hypergraph(h)


def test_hypergraph_chromatic_rejects_out_of_range_colors(monkeypatch):
    # KG3(K5,M2) has chi 3 below the greedy's 4, so hypergraph_color_decision
    # colors it at k = 3. Its color 0 renamed to 3 leaves the coloring proper
    # but outside 0..2
    h = kneser_of_family(build_named_family("complete", n=5),
                         family_of(build_named_family("matching", n=2)), r=3).result
    decide = kernels.hypergraph_color_decision
    monkeypatch.setattr(kernels, "hypergraph_color_decision",
                        lambda n, edge_masks, k, tables=None:
                        tuple(c or k for c in decide(n, edge_masks, k, tables)))
    with pytest.raises(VerificationError, match="out-of-range"):
        chromatic_number_hypergraph(h)


def _reference_greedy_hypergraph_coloring(h):
    """The greedy with an edge scan per vertex: the oracle for the mask
    version."""
    color = [-1] * h.n_vertices
    for v in range(h.n_vertices):
        banned = set()
        for e in h.edges:
            if v in e:
                others = [color[u] for u in e if u != v]
                if others and all(c == others[0] and c >= 0 for c in others):
                    banned.add(others[0])
        c = 0
        while c in banned:
            c += 1
        color[v] = c
    return color


@st.composite
def _hypergraphs(draw):
    # edges of 1 to 5 vertices, some repeated
    n = draw(st.integers(0, 14))
    edges = []
    if n:
        for vs in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                        max_size=min(n, 5)), max_size=4 * n)):
            edges.append(frozenset(vs))
            if draw(st.integers(0, 9)) == 0:
                edges.append(edges[-1])
    return Hypergraph(n, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(h=_hypergraphs())
def test_greedy_hypergraph_coloring_matches_reference(h):
    assert _greedy_hypergraph_coloring(h) == _reference_greedy_hypergraph_coloring(h)
