import json
import random

import pytest

from kneserturan import (
    Hypergraph,
    InvalidParameterError,
    PatternFamily,
    SizeCapError,
    are_isomorphic,
    build_named_family,
    doubled,
    enumerate_occurrences,
    family_of,
    find_isomorphism,
    occurrences_to_jsonl,
    pattern_hypergraph,
)
from kneserturan.patterns import disk_cache_off
from conftest import random_graph


def _p2():
    return family_of(build_named_family("path", length=2))


def test_two_edge_paths_in_k4():
    # one P2 per vertex per pair of incident edges: 4 * C(3,2) = 12
    occs = enumerate_occurrences(build_named_family("complete", n=4), _p2())
    assert len(occs) == 12
    assert all(len(o.edge_ids) == 2 for o in occs)


def test_disjoint_edge_pairs_in_c5():
    # each C5 edge misses exactly two others: 5 * 2 / 2 = 5
    fam = family_of(build_named_family("matching", n=2))
    occs = enumerate_occurrences(build_named_family("cycle", n=5), fam)
    assert len(occs) == 5


def test_triangles_in_doubled_triangle():
    # one copy choice per parallel class: 2**3
    host = doubled(build_named_family("complete", n=3))
    fam = family_of(build_named_family("complete", n=3))
    occs = enumerate_occurrences(host, fam)
    assert len(occs) == 8


def test_simple_pattern_never_uses_parallel_copies():
    # two copies of one edge form a doubled edge, not a two-edge path
    host = doubled(build_named_family("path", length=1))
    assert enumerate_occurrences(host, _p2()) == ()
    # a doubled-edge pattern, in turn, matches exactly the parallel pairs
    double_edge = Hypergraph(2, (frozenset({0, 1}), frozenset({0, 1})))
    host2 = doubled(build_named_family("complete", n=3))
    occs = enumerate_occurrences(host2, family_of(double_edge))
    assert len(occs) == 3
    assert sorted(sorted(o.edge_ids) for o in occs) == [[0, 1], [2, 3], [4, 5]]


def test_isomorphism_basics():
    assert are_isomorphic(build_named_family("complete", n=3),
                          build_named_family("cycle", n=3))
    path3 = build_named_family("path", length=3)
    star3 = build_named_family("complete_bipartite", m=1, n=3)
    assert not are_isomorphic(path3, star3)
    pi = find_isomorphism(build_named_family("cycle", n=4),
                          Hypergraph(4, (frozenset({0, 2}), frozenset({2, 1}),
                                         frozenset({1, 3}), frozenset({3, 0}))))
    assert pi is not None
    assert sorted(pi) == [0, 1, 2, 3]


def test_isomorphism_respects_multiplicity():
    single = build_named_family("path", length=1)
    assert not are_isomorphic(doubled(single), single)


def test_family_members_collapse_by_isomorphism():
    k3 = build_named_family("complete", n=3)
    relabeled = Hypergraph(3, (frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})))
    fam = family_of(k3, relabeled)
    assert fam.iso_representatives() == (0,)
    host = build_named_family("complete", n=4)
    assert len(enumerate_occurrences(host, fam)) == 4  # triangles of K4, once each


def test_occurrences_sorted_and_jsonl_stable():
    host = build_named_family("complete", n=4)
    occs = enumerate_occurrences(host, _p2())
    keys = [tuple(sorted(o.edge_ids)) for o in occs]
    assert keys == sorted(keys)
    assert occurrences_to_jsonl(occs) == occurrences_to_jsonl(occs)
    assert occurrences_to_jsonl(occs).count("\n") == 12


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        PatternFamily(())
    with pytest.raises(InvalidParameterError):
        family_of(Hypergraph(3, ()))  # no edges
    with pytest.raises(InvalidParameterError):
        family_of(Hypergraph(3, (frozenset({0, 1}),)))  # vertex 2 isolated


def test_pattern_hypergraph_shape():
    host = build_named_family("complete", n=4)
    ph = pattern_hypergraph(host, _p2())
    assert ph.n_vertices == host.n_edges
    assert ph.n_edges == 12
    # a second call hits the memo and agrees byte for byte
    assert pattern_hypergraph(host, _p2()).canonical_json() == ph.canonical_json()


def test_pattern_hypergraph_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("KNESERTURAN_CACHE_DIR", str(tmp_path))
    host = build_named_family("cycle", n=6)
    fam = family_of(build_named_family("matching", n=2))
    first = pattern_hypergraph(host, fam)
    files = list(tmp_path.glob("pattern-*.json"))
    assert len(files) == 1
    second = pattern_hypergraph(host, fam)
    assert second == first
    # an entry keyed on other inputs is a miss, recomputed and written again
    (entry,) = files
    whole = entry.read_text()
    swapped = json.loads(whole)
    swapped["host"] = build_named_family("cycle", n=5).canonical_json()
    swapped["hypergraph"]["edges"] = []
    entry.write_text(json.dumps(swapped))
    assert pattern_hypergraph(host, fam) == first
    assert entry.read_text() == whole
    # inside disk_cache_off the directory is neither read nor written
    entry.write_text(json.dumps(swapped | {"host": json.loads(whole)["host"]}))
    with disk_cache_off():
        assert pattern_hypergraph(host, fam) == first
        pattern_hypergraph(build_named_family("cycle", n=7), fam)
    assert list(tmp_path.iterdir()) == [entry]
    # after the block the entry, whose inputs match, is read again
    assert pattern_hypergraph(host, fam).n_edges == 0


def test_host_edge_cap_enforced():
    host = build_named_family("complete", n=5)
    with pytest.raises(SizeCapError):
        enumerate_occurrences(host, _p2(), host_edge_cap=4)


def test_occurrence_count_matches_direct_scan():
    # independent cross-check: count adjacent edge pairs by brute force
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        pairs = 0
        for i in range(g.n_edges):
            for j in range(i + 1, g.n_edges):
                if g.edges[i] & g.edges[j]:
                    pairs += 1
        assert len(enumerate_occurrences(g, _p2())) == pairs
