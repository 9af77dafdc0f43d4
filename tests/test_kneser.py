from itertools import combinations, permutations
from math import comb

import pytest

from kneserturan import (
    Hypergraph,
    InvalidParameterError,
    SizeCapError,
    build_named_family,
    build_named_kneser,
    family_of,
    find_isomorphism,
    kneser_of_family,
    kneser_power,
    pattern_hypergraph,
)
from kneserturan.kneser import _rebuild_instance, _rep_of, _target_of


def test_kneser_power_is_disjointness():
    rep = Hypergraph(3, (frozenset({0, 1, 2}), frozenset({0}), frozenset({1})))
    kg = kneser_power(rep).result
    assert kg.n_vertices == 3
    assert kg.edges == (frozenset({1, 2}),)  # the big edge meets both others


def test_parallel_rep_edges_are_never_adjacent():
    rep = Hypergraph(2, (frozenset({0, 1}), frozenset({0, 1})))
    assert kneser_power(rep).result.n_edges == 0


def test_isolated_rep_vertices_do_not_matter():
    rep = build_named_family("cycle", n=5)
    bigger = Hypergraph(rep.n_vertices + 3, rep.edges)
    assert kneser_power(rep).result == kneser_power(bigger).result


def test_order_three_power_of_three_disjoint_edges():
    rep = build_named_family("matching", n=3)
    inst = kneser_power(rep, r=3)
    assert inst.result.edges == (frozenset({0, 1, 2}),)
    assert inst.r == 3


def test_power_cap():
    rep = build_named_family("complete", n=5)
    with pytest.raises(SizeCapError):
        kneser_power(rep, cap=5)
    with pytest.raises(InvalidParameterError):
        kneser_power(rep, r=1)


def test_kneser_graph_shape():
    named = build_named_kneser("kneser", n=5, k=2)
    g = named.graph
    assert g.n_vertices == comb(5, 2)
    assert g.n_edges == 15
    assert all(d == comb(5 - 2, 2) for d in g.degrees)  # 3-regular


def _disjoint(a, b):
    return not set(a) & set(b)


def _textbook(kind: str, **p):
    """The textbook form of a named family: its vertices, the key of the
    vertex that an occurrence (a set of host edge ids) stands for, and adjacency."""
    n = p["n"]
    if kind == "circular":  # an occurrence, a path of d cycle edges, stands for its first edge
        return ([(i,) for i in range(n)], lambda e: tuple(i for i in e if (i - 1) % n not in e),
                lambda a, b: p["d"] <= abs(a[0] - b[0]) <= n - p["d"])
    if kind == "permutation":  # host edge id u*n + v is the pair (row u, column v)
        keys = sorted(tuple(sorted(zip(rows, cols))) for rows in combinations(range(p["m"]), p["r"])
                      for cols in permutations(range(n), p["r"]))
        return keys, lambda e: tuple(sorted((i // n, i % n) for i in e)), _disjoint
    keys = list(combinations(range(n), p["k"]))
    if kind == "generalized_kneser":  # an occurrence stands for the union of its (s+1)-sets
        edges = build_named_family("complete_uniform", n=n, s=p["s"] + 1).edges
        return (keys, lambda e: tuple(sorted(set().union(*(edges[i] for i in e)))),
                lambda a, b: len(set(a) & set(b)) <= p["s"])
    if kind == "schrijver":  # 2-stable: no two cyclically consecutive elements
        keys = [c for c in keys
                if all(y - x >= 2 for x, y in zip(c, c[1:])) and c[-1] - c[0] <= n - 2]
    return keys, lambda e: tuple(sorted(e)), _disjoint


@pytest.mark.parametrize("kind, params", [
    ("kneser", dict(n=5, k=2)),
    ("schrijver", dict(n=6, k=2)),
    ("circular", dict(n=5, d=2)),
    ("circular", dict(n=7, d=2)),
    ("generalized_kneser", dict(n=5, k=2, s=1)),
    ("permutation", dict(m=2, n=2, r=2)),
], ids=lambda case: "-".join(map(str, case.values())) if isinstance(case, dict) else case)
def test_named_kinds_match_their_textbook_forms(kind, params):
    keys, key_of, adjacent = _textbook(kind, **params)
    named = build_named_kneser(kind, **params)
    g = named.graph
    # the occurrences biject onto the textbook vertices
    index = {key: i for i, key in enumerate(keys)}
    pi = [index.get(key_of(e), -1) for e in named.instance.representation.edges]
    assert sorted(pi) == list(range(len(keys)))
    # edge for edge under that bijection, in both directions
    direct = Hypergraph(len(keys), tuple(frozenset({i, j})
                                         for i, j in combinations(range(len(keys)), 2)
                                         if adjacent(keys[i], keys[j])))
    assert {frozenset({pi[u], pi[v]}) for u, v in map(tuple, g.edges)} == set(direct.edges)
    # and an exhaustive isomorphism search, which knows no bijection, agrees
    assert find_isomorphism(g, direct) is not None


@pytest.mark.parametrize("kind, params, host, pattern", [
    ("kneser", {"n": 5, "k": 2}, ("matching", {"n": 5}), ("matching", {"n": 2})),
    ("schrijver", {"n": 6, "k": 2}, ("cycle", {"n": 6}), ("matching", {"n": 2})),
    ("circular", {"n": 7, "d": 2}, ("cycle", {"n": 7}), ("path", {"length": 2})),
    ("generalized-kneser", {"n": 5, "k": 3, "s": 1},
     ("complete_uniform", {"n": 5, "s": 2}), ("complete_uniform", {"n": 3, "s": 2})),
    ("permutation", {"m": 2, "n": 3, "r": 2},
     ("complete_bipartite", {"m": 2, "n": 3}), ("matching", {"n": 2})),
])
def test_named_echo_is_its_host_and_pattern(kind, params, host, pattern):
    host = build_named_family(host[0], **host[1])
    family = family_of(build_named_family(pattern[0], **pattern[1]))
    resolved = _rebuild_instance({"scheme": "named", "kind": kind, "params": params})
    assert _target_of(resolved) == kneser_of_family(host, family).result
    assert _rep_of(resolved) == pattern_hypergraph(host, family)


def test_generalized_kneser_with_zero_overlap_is_kneser():
    a = build_named_kneser("generalized_kneser", n=5, k=2, s=0).graph
    b = build_named_kneser("kneser", n=5, k=2).graph
    assert a.n_vertices == b.n_vertices
    assert sorted(map(sorted, a.edges)) == sorted(map(sorted, b.edges))


def test_schrijver_is_induced_in_kneser():
    kg = build_named_kneser("kneser", n=6, k=2).graph
    sg = build_named_kneser("schrijver", n=6, k=2).graph
    assert sg.n_vertices == 9  # 2-stable 2-subsets of a 6-cycle
    assert sg.n_vertices < kg.n_vertices


def test_circular_five_two_is_a_five_cycle():
    g = build_named_kneser("circular", n=5, d=2).graph
    assert g.n_vertices == 5
    assert g.n_edges == 5
    assert all(d == 2 for d in g.degrees)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidParameterError):
        build_named_kneser("moebius", n=5)


def test_kneser_of_family_matches_manual_pipeline():
    host = build_named_family("complete", n=4)
    fam = family_of(build_named_family("path", length=2))
    via_family = kneser_of_family(host, fam)
    assert via_family.result.n_vertices == 12
    assert via_family.representation.n_vertices == host.n_edges
