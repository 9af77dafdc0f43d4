import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pattern_hypergraph,
)
from kneserturan import patterns
from kneserturan.patterns import (
    _automorphisms,
    _isomorphisms,
    _pattern_hypergraph_cached,
    _symmetry_conditions,
)
from conftest import random_graph, random_hypergraph


def _p2():
    return family_of(build_named_family("path", length=2))


def test_two_edge_paths_in_k4():
    # one P2 per vertex per pair of incident edges: 4 * C(3,2) = 12
    occs = enumerate_occurrences(build_named_family("complete", n=4), _p2())
    assert len(occs) == 12
    assert all(len(o) == 2 for o in occs)


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
    assert sorted(sorted(o) for o in occs) == [[0, 1], [2, 3], [4, 5]]


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


def test_occurrences_sorted():
    host = build_named_family("complete", n=4)
    occs = enumerate_occurrences(host, _p2())
    keys = [tuple(sorted(o)) for o in occs]
    assert keys == sorted(keys)
    assert len(occs) == 12


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        PatternFamily(())
    with pytest.raises(InvalidParameterError):
        family_of(Hypergraph(3, ()))  # no edges
    with pytest.raises(InvalidParameterError):
        family_of(Hypergraph(3, (frozenset({0, 1}),)))  # vertex 2 isolated


def test_pattern_hypergraph_shape():
    _pattern_hypergraph_cached.cache_clear()
    host = build_named_family("complete", n=4)
    ph = pattern_hypergraph(host, _p2())
    assert ph.n_vertices == host.n_edges
    assert ph.n_edges == 12
    # an equal host and family, built separately, hit the memo
    hits = _pattern_hypergraph_cached.cache_info().hits
    again = Hypergraph.from_json_dict(host.to_json_dict())
    assert again is not host and again == host
    assert pattern_hypergraph(again, _p2()) is ph
    assert _pattern_hypergraph_cached.cache_info().hits == hits + 1
    # the same edges in another order are another host, with its own entry:
    # permuted edge i is host edge order[i], so its occurrences move with it
    order = (5, 3, 0, 4, 1, 2)
    permuted = Hypergraph(4, tuple(host.edges[j] for j in order))
    moved = pattern_hypergraph(permuted, _p2())
    assert _pattern_hypergraph_cached.cache_info().currsize == 2
    assert moved != ph
    assert sorted(sorted(order[i] for i in e) for e in moved.edges) == \
        sorted(sorted(e) for e in ph.edges)


def test_host_edge_cap_enforced(monkeypatch):
    host = build_named_family("complete", n=5)
    monkeypatch.setattr(patterns, "HOST_EDGE_CAP", 4)
    with pytest.raises(SizeCapError):
        enumerate_occurrences(host, _p2())


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


# --- symmetry breaking against the search over all embeddings ---

def _occurrences_all_embeddings(host, f):
    """Reference: the occurrence search before symmetry breaking, which walks
    every labelled embedding of ``f`` and deduplicates edge-id sets."""
    order = sorted(range(f.n_edges),
                   key=lambda i: (-len(f.edges[i]), -sum(f.degrees[v] for v in f.edges[i]), i))
    pat_edges = [tuple(sorted(f.edges[i])) for i in order]
    image, used_hv, chosen, used_edges, out = {}, set(), [], set(), set()

    def rec(t):
        if t == len(pat_edges):
            out.add(frozenset(chosen))
            return
        pe = pat_edges[t]
        free = [v for v in pe if v not in image]
        need = {image[v] for v in pe if v in image}
        for j, he in enumerate(host.edges):
            if j in used_edges or len(he) != len(pe) or not need <= he:
                continue
            leftover = he - need
            if leftover & used_hv:
                continue
            used_edges.add(j)
            chosen.append(j)
            for assign in permutations(sorted(leftover)):
                image.update(zip(free, assign))
                used_hv.update(assign)
                rec(t + 1)
                for v in free:
                    used_hv.discard(image.pop(v))
            chosen.pop()
            used_edges.discard(j)

    rec(0)
    return out


def _reference_occurrences(host, family):
    occs = [s for p in family.iso_representatives()
            for s in _occurrences_all_embeddings(host, family.members[p])]
    # an edge-id set fixes its subhypergraph, so no two classes share one
    assert len(set(occs)) == len(occs)
    return tuple(sorted(occs, key=sorted))


@st.composite
def _hosts(draw):
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(("simple", "multi", "uniform3")))
    size = 3 if kind == "uniform3" and n >= 3 else 2
    pool = [frozenset(c) for c in combinations(range(n), size)]
    if kind == "simple":
        edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    else:
        edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return Hypergraph(n, tuple(edges))


@st.composite
def _patterns(draw):
    # 1 to 4 edges of 2 or 3 vertices, repeats allowed, relabelled onto the
    # vertices they use so that none is isolated
    raw = draw(st.lists(st.sets(st.integers(0, 4), min_size=2, max_size=3),
                        min_size=1, max_size=4))
    used = sorted(set().union(*raw))
    relabel = {v: i for i, v in enumerate(used)}
    return Hypergraph(len(used), tuple(frozenset(relabel[v] for v in e) for e in raw))


@st.composite
def _families(draw):
    members = draw(st.lists(_patterns(), min_size=1, max_size=3))
    if draw(st.booleans()):
        # an isomorphic copy under a vertex permutation
        f = draw(st.sampled_from(members))
        pi = draw(st.permutations(range(f.n_vertices)))
        members.append(Hypergraph(f.n_vertices, tuple(frozenset(pi[v] for v in e)
                                                      for e in f.edges)))
    return family_of(*draw(st.permutations(members)))


@settings(max_examples=300, deadline=None)
@given(host=_hosts(), family=_families())
def test_occurrences_match_all_embeddings_search(host, family):
    assert enumerate_occurrences(host, family) == _reference_occurrences(host, family)


def test_named_occurrences_match_all_embeddings_search():
    double_edge = Hypergraph(2, (frozenset({0, 1}), frozenset({0, 1})))
    cases = [
        (build_named_family("matching", n=6), build_named_family("matching", n=4)),
        (build_named_family("complete", n=5), build_named_family("cycle", n=4)),
        (doubled(build_named_family("complete", n=4)), build_named_family("complete", n=3)),
        (doubled(build_named_family("complete", n=4)), doubled(build_named_family("path", length=2))),
        (doubled(build_named_family("cycle", n=5)), double_edge),
        (build_named_family("complete_uniform", n=5, s=3),
         Hypergraph(4, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))),
    ]
    for host, f in cases:
        fam = family_of(f)
        assert enumerate_occurrences(host, fam) == _reference_occurrences(host, fam)


_SYMMETRIC_PATTERNS = {
    "M4": build_named_family("matching", n=4),
    "C4": build_named_family("cycle", n=4),
    "K3": build_named_family("complete", n=3),
    "P2": build_named_family("path", length=2),
    "K4": build_named_family("complete", n=4),
    "doubled P2": doubled(build_named_family("path", length=2)),
    "3-uniform pair": Hypergraph(5, (frozenset({0, 1, 2}), frozenset({2, 3, 4}))),
}


def test_automorphism_counts():
    sizes = {name: len(_automorphisms(f)) for name, f in _SYMMETRIC_PATTERNS.items()}
    assert sizes == {"M4": 384, "C4": 8, "K3": 6, "P2": 2, "K4": 24, "doubled P2": 2,
                     "3-uniform pair": 8}
    assert len(set(_automorphisms(_SYMMETRIC_PATTERNS["M4"]))) == 384


def test_symmetry_conditions_keep_one_map_per_orbit():
    # whatever the injective image of the pattern's vertices, exactly one
    # automorphism alpha makes image[alpha[a]] < image[alpha[b]] for every
    # condition (a, b)
    rng = random.Random(7)
    for name, f in _SYMMETRIC_PATTERNS.items():
        conditions = _symmetry_conditions(f)
        for trial in range(20):
            image = list(range(f.n_vertices)) if trial == 0 else rng.sample(range(40), f.n_vertices)
            kept = [g for g in _automorphisms(f)
                    if all(image[g[a]] < image[g[b]] for a, b in conditions)]
            assert len(kept) == 1, name


def test_isomorphisms_match_permutation_scan():
    # every bijection, each once, carrying the edge multiset of a onto that
    # of b, a relabelled copy of a. The 4-cycle with opposite edges doubled
    # keeps only 4 of the 8 symmetries of its cycle, so the multiplicities
    # must count
    rng = random.Random(9)
    c4 = build_named_family("cycle", n=4)
    cases = [Hypergraph(4, c4.edges + (c4.edges[0], c4.edges[2]))]
    for _ in range(40):
        a = random_hypergraph(rng, max_vertices=6, max_edges=5, min_edge_size=2)
        cases.append(Hypergraph(a.n_vertices, a.edges + a.edges[:rng.randint(0, 2)]))
    for a in cases:
        pi = rng.sample(range(a.n_vertices), a.n_vertices)
        copy = [frozenset(pi[v] for v in e) for e in a.edges]
        rng.shuffle(copy)
        b = Hypergraph(a.n_vertices, tuple(copy))
        want = Counter(b.edges)
        expected = [p for p in permutations(range(a.n_vertices))
                    if Counter(frozenset(p[v] for v in e) for e in a.edges) == want]
        assert sorted(_isomorphisms(a, b)) == expected
    assert len(_automorphisms(cases[0])) == 4
