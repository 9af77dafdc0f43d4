"""The search kernels against test-local reference searches.

max_independent_set is checked against a copy of its search without the
clique-partition and packing bounds, and graph_color_decision and
hypergraph_color_decision against copies of the same searches kept in
per-vertex forbidden-color masks. Each must return the same result, witness
included. graph_colorable must answer as graph_color_decision does. The
kernel's one coloring search, which colors a run of forced vertices in one
call, must return what its form with one call per decision returns, kept
here as an oracle, in both selections; the decisions of both searches on
named graphs and two order-3 powers are pinned as calls of the oracle, the
kernel's own calls beside them. On graphs, given as 2-edges,
hypergraph_color_decision returns the coloring of graph_color_decision.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserturan import exactsolve, hyperstruct, kernels, kneser, patterns
from kneserturan.hyperstruct import bits_of
from conftest import search_nodes


def _random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def test_dispatcher_reports_backend():
    assert kernels.BACKEND == "pure"


def test_wide_instances_fall_back_to_pure():
    # masks of 70 vertices are wider than a machine word; the kernels take
    # Python ints of any width
    n = 70
    adj = [0] * n
    for v in range(1, n):
        adj[0] |= 1 << v
        adj[v] |= 1
    got = kernels.graph_color_decision(n, adj, 2)
    assert got is not None
    assert got[0] != got[1]


def test_pure_rejects_nothing_small():
    # decision problems on empty instances
    assert kernels.graph_color_decision(0, [], 1) == ()
    assert kernels.max_independent_set(0, []) == (0, 0)
    assert kernels.hypergraph_color_decision(0, [], 1) == ()
    # degenerate hypergraph edges: a singleton is monochromatic under every
    # coloring, a zero mask constrains nothing
    assert kernels.hypergraph_color_decision(3, [0b011, 0b100], 2) is None
    assert kernels.hypergraph_color_decision(2, [0, 0b11], 2) == (0, 1)


def _unpruned_max_independent_set(n, edge_masks):
    """The search without the clique-partition and packing bounds: the
    oracle for kernels.max_independent_set."""
    full = (1 << n) - 1
    uniq = sorted(set(int(e) for e in edge_masks))
    edges = [e for e in uniq if not any(f != e and (f & ~e) == 0 for f in uniq)]
    if not edges or n == 0:
        return n, full
    best = [0, 0]

    def rec(chosen, cand):
        union = chosen | cand
        total = union.bit_count()
        if total <= best[0]:
            return
        pick, pick_t = -1, n + 1
        for e in edges:
            if e & ~union:
                continue
            t = (e & ~chosen).bit_count()
            if t == 0:
                return
            if t < pick_t:
                pick, pick_t = e, t
                if t == 1:
                    break
        if pick == -1:
            best[:] = [total, union]
            return
        forced = 0
        for v in bits_of(pick & ~chosen):
            bit = 1 << v
            rec(chosen | forced, cand & ~(forced | bit))
            forced |= bit

    rec(0, full)
    return best[0], best[1]


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 40))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    return n, [(1 << u) | (1 << v)
               for u in range(n) for v in range(u + 1, n) if rng.random() < p]


@st.composite
def _mixed_hypergraphs(draw):
    # edges of 1 to 4 vertices plus supersets of some of them, so the
    # minimality filter has work and a graph can hide among larger edges
    n = draw(st.integers(1, 14))
    vertex_sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
    masks = []
    for vs in draw(st.lists(vertex_sets, max_size=3 * n)):
        mask = sum(1 << v for v in vs)
        masks.append(mask)
        if draw(st.booleans()):
            masks.append(mask | draw(st.integers(0, (1 << n) - 1)))
    return n, masks


@st.composite
def _cycle_hypergraphs(draw):
    # 3- and 4-uniform, on 14 to 22 vertices: the triangles or the 4-cycles
    # of a random graph on 8 vertices, as hyperedges over its edge ids, the
    # instances exact ex(H,K3) and ex(H,C4) search; larger than those of
    # _mixed_hypergraphs, so the packing bound cuts deep trees
    rng = draw(st.randoms(use_true_random=False))
    pairs = rng.sample([(u, v) for u in range(8) for v in range(u + 1, 8)],
                       draw(st.integers(14, 22)))
    ids = {frozenset(p): i for i, p in enumerate(pairs)}

    def mask(*cycle):
        ends = zip(cycle, cycle[1:] + cycle[:1])
        got = [ids.get(frozenset(p)) for p in ends]
        return None if None in got else sum(1 << i for i in got)

    if draw(st.booleans()):
        found = [mask(a, b, c) for a, b, c in combinations(range(8), 3)]
    else:
        found = [mask(*q) for a, b, c, d in combinations(range(8), 4)
                 for q in ((a, b, c, d), (a, b, d, c), (a, c, b, d))]
    return len(pairs), [m for m in found if m is not None]


@settings(max_examples=120, deadline=None)
@given(instance=st.one_of(_graphs(), _mixed_hypergraphs(), _cycle_hypergraphs()))
def test_max_independent_set_matches_unpruned_search(instance):
    n, masks = instance
    assert kernels.max_independent_set(n, masks) == _unpruned_max_independent_set(n, masks)


def test_max_clique_members_pinned():
    # every named graph instance of the chi benchmark, witness included, so
    # that a changed tie-break shows where the value alone would not
    def kg(n, cycle):
        host = hyperstruct.build_named_family("complete", n=n)
        family = patterns.family_of(hyperstruct.build_named_family("cycle", n=cycle))
        return kneser.kneser_of_family(host, family).result

    def named(kind, n, k):
        return kneser.build_named_kneser(kind, n=n, k=k).graph

    pinned = [
        (kg(8, 3), (8, {10, 13, 15, 24, 27, 32, 36, 55})),
        (named("kneser", 9, 3), (3, {27, 43, 49})),
        (named("kneser", 8, 3), (2, {45, 46})),
        (named("schrijver", 9, 3), (3, {9, 13, 20})),
        (named("schrijver", 10, 3), (3, {29, 30, 41})),
        (kg(7, 3), (7, {4, 7, 9, 16, 20, 27, 34})),
        (kg(6, 4), (3, {20, 21, 34})),
    ]
    for g, (size, members) in pinned:
        assert exactsolve.max_clique(g, cap=84) == (size, frozenset(members))


def _reference_graph_color_decision(n, adj, k, clique=(), scored=False):
    """The per-vertex search with an O(n) selection scan: the oracle for
    kernels.graph_color_decision, which keeps its state in masks instead.
    With ``scored``, ties among vertices with two or more of the k colors
    free go to the largest sum, over their usable colors, of the uncolored
    neighbours that still have the color free, then to the lowest id: the
    selection of graph_colorable. Colors above the one new color are free
    everywhere, so this is also the case before the first color opens."""
    if n == 0:
        return ()
    if k <= 0 or len(clique) > k:
        return None
    kmask = (1 << k) - 1
    color = [-1] * n
    forbid = [0] * n
    uncolored = n
    max_used = -1
    for c, v in enumerate(clique):
        color[v] = c
        uncolored -= 1
        max_used = c
        for u in bits_of(adj[v]):
            forbid[u] |= 1 << c

    def select(cap_mask):
        best_v, best_cnt = -1, 1 << 30
        for v in range(n):
            if color[v] >= 0:
                continue
            cnt = (cap_mask & ~forbid[v]).bit_count()
            if cnt < best_cnt:
                best_v, best_cnt = v, cnt
                if cnt == 0:
                    break
        if scored and best_cnt + k - cap_mask.bit_count() >= 2:
            best_score = -1
            for v in range(n):
                usable = cap_mask & ~forbid[v]
                if color[v] >= 0 or usable.bit_count() != best_cnt:
                    continue
                score = sum(1 for c in bits_of(usable) for u in bits_of(adj[v])
                            if color[u] < 0 and not forbid[u] >> c & 1)
                if score > best_score:
                    best_v, best_score = v, score
        return best_v

    def rec():
        nonlocal uncolored, max_used
        if uncolored == 0:
            return True
        cap_mask = kmask & ((1 << (max_used + 2)) - 1)
        v = select(cap_mask)
        usable = cap_mask & ~forbid[v]
        if usable == 0:
            return False
        old_max = max_used
        for c in bits_of(usable):
            bit = 1 << c
            color[v] = c
            uncolored -= 1
            if c > max_used:
                max_used = c
            touched = []
            for u in bits_of(adj[v]):
                if color[u] < 0 and not forbid[u] & bit:
                    forbid[u] |= bit
                    touched.append(u)
            if rec():
                return True
            for u in touched:
                forbid[u] &= ~bit
            uncolored += 1
            color[v] = -1
            max_used = old_max
        return False

    return tuple(color) if rec() else None


@st.composite
def _precolored_graphs(draw, max_n=24):
    # a greedy clique grown in a random vertex order, then cut short or
    # dropped; n may be 0
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    adj = _random_adj(rng, n, p)
    clique = []
    for v in rng.sample(range(n), n):
        if all(adj[v] >> u & 1 for u in clique):
            clique.append(v)
    return n, adj, tuple(clique[:draw(st.integers(0, len(clique)))])


@settings(max_examples=200, deadline=None)
@given(instance=_precolored_graphs())
def test_graph_color_decision_matches_reference(instance):
    # every k from 0 to 8, so each graph is also asked just below its
    # chromatic number and k may be below the clique size. The coloring the
    # scored search behind graph_colorable finds fixes the vertex it selects
    # at each branching node on the path to it, so it is checked too
    n, adj, clique = instance
    for k in range(9):
        assert kernels.graph_color_decision(n, adj, k, clique) == \
            _reference_graph_color_decision(n, adj, k, clique), k
        assert kernels._color_search(n, adj, [()] * n, k, clique, True) == \
            _reference_graph_color_decision(n, adj, k, clique, scored=True), k


@settings(max_examples=300, deadline=None)
@given(instance=_precolored_graphs(max_n=16))
def test_graph_colorable_agrees_with_decision(instance):
    # the scored search answers as the lowest-id search does, with the
    # drawn clique pre-colored and with none
    n, adj, clique = instance
    for cl in {clique, ()}:
        for k in range(1, 7):
            assert kernels.graph_colorable(n, adj, k, cl) == \
                (kernels.graph_color_decision(n, adj, k, cl) is not None), (cl, k)


def test_graph_colorable_agrees_with_decision_on_a_wide_graph():
    # kneser(9,3): 84 vertices, wider than a machine word; chi is 5. Both
    # searches also find the colorings of the oracle
    g = kneser.build_named_kneser("kneser", n=9, k=3).graph
    adj = g.adjacency_masks()
    pairs = [()] * 84
    clique = sorted(exactsolve.max_clique(g, cap=84)[1])
    for cl in (clique, ()):
        for k in range(1, 7):
            assert kernels.graph_colorable(84, adj, k, cl) == \
                (kernels.graph_color_decision(84, adj, k, cl) is not None) == (k >= 5)
            assert kernels.graph_color_decision(84, adj, k, cl) == \
                _reference_color_search(84, adj, pairs, k, cl, False), (cl, k)
            assert kernels._color_search(84, adj, pairs, k, cl, True) == \
                _reference_color_search(84, adj, pairs, k, cl, True), (cl, k)


def test_a_bad_precolored_clique_raises():
    # the path 0-1-2 is 2-colorable; pre-coloring a non-edge, a repeated
    # vertex or one outside 0..n-1 would refute it, so each is refused
    adj = [0b010, 0b101, 0b010]
    for bad in ([0, 2], [0, 0], [1, 1], [0, 3], [-1], [0, 1, 2]):
        for search in (kernels.graph_colorable, kernels.graph_color_decision):
            with pytest.raises(ValueError, match="pairwise adjacent"):
                search(3, adj, 2, bad)
    assert kernels.graph_colorable(3, adj, 2, [1, 0])
    assert kernels.graph_color_decision(3, adj, 2, [1, 2]) == (1, 0, 1)
    with pytest.raises(ValueError):
        kernels.graph_color_decision(0, [], 1, [0])


def test_color_search_restores_its_state_after_each_failed_child():
    # seeded graphs and hypergraphs of at most 8 vertices at every k, in
    # both selections, against the oracle that undoes each decision on its
    # own. A snapshot of the masks taken at the wrong place, missing one of
    # them, or not restored after a failed child fails here within
    # milliseconds, where the hypothesis tests below can run into a search
    # that no longer ends
    rng = random.Random(35)
    for _ in range(150):
        n = rng.randint(1, 8)
        adj = _random_adj(rng, n, rng.choice((0.3, 0.5, 0.7)))
        masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(2, min(n, 4))))
                 for _ in range(rng.randint(n, 3 * n))] if n >= 2 else []
        for adj, pairs in ((adj, [()] * n), kernels.hypergraph_color_tables(n, masks)):
            for k in range(1, 5):
                for scored in (False, True):
                    assert kernels._color_search(n, adj, pairs, k, (), scored) == \
                        _reference_color_search(n, adj, pairs, k, (), scored), (adj, pairs, k)


def test_packed_scores_match_the_oracle_on_wide_graphs():
    # seeded graphs of 20 to 70 vertices at k = 9 down to 1, where the
    # hypothesis tests above stay within 24 vertices: the packed score of
    # graph_colorable then spans up to 603 bits (three of these graphs
    # pass 512), so a field packed at the wrong place or a row cached
    # under the wrong number of colors shows. At each satisfiable k the
    # scored search must find the oracle's coloring, which fixes the
    # vertex it selects at every branching node on the path to it, with a
    # max clique pre-colored and with none; at every k graph_colorable
    # must answer as graph_color_decision does
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randint(20, 70)
        adj = _random_adj(rng, n, rng.choice((0.1, 0.2, 0.3)))
        full = (1 << n) - 1
        co_adj = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]
        clique = tuple(bits_of(kernels.max_independent_set_graph(n, co_adj)[1]))
        for cl in (clique, ()):
            for k in range(9, 0, -1):
                found = kernels.graph_color_decision(n, adj, k, cl)
                if found is not None:
                    assert kernels._color_search(n, adj, [()] * n, k, cl, True) == \
                        _reference_color_search(n, adj, [()] * n, k, cl, True), (n, cl, k)
                assert kernels.graph_colorable(n, adj, k, cl) == (found is not None), (n, cl, k)


def test_out_of_range_masks_and_loops_raise():
    # a vertex index at or above n, a negative mask or, in a graph, a
    # vertex that is its own neighbour used to give a wrong answer or a
    # bare IndexError; in a packed score an out-of-range bit would spill
    # into the next color's field
    bad = (
        (kernels.hypergraph_color_tables, 2, [0b101]),
        (kernels.hypergraph_color_decision, 2, [0b101], 2),
        (kernels.hypergraph_colorable, 2, [0b101], 2),
        (kernels.max_independent_set, 2, [0b101]),
        (kernels.max_independent_set, 3, [0b1000, 0b11]),
        (kernels.max_independent_set, 2, [-1]),
        (kernels.max_independent_set_graph, 2, [0b100, 0]),
        (kernels.max_independent_set_graph, 1, [0b1]),
        (kernels.graph_color_decision, 2, [0b101, 0b001], 2),
        (kernels.graph_colorable, 2, [0b101, 0b001], 2),
        (kernels.graph_color_decision, 2, [0b110, 0b001], 2),
        (kernels.graph_colorable, 2, [0b010, -3], 2),
        (kernels.graph_color_decision, 1, [0b1], 1),
        (kernels.graph_colorable, 1, [0b1], 1),
    )
    for kernel, *args in bad:
        with pytest.raises(ValueError, match="outside 0..n-1|own neighbour"):
            kernel(*args)
    assert kernels.graph_color_decision(2, [0b10, 0b01], 2) == (0, 1)
    assert kernels.max_independent_set(3, [0b100, 0b11]) == (1, 0b010)
    assert kernels.hypergraph_color_decision(2, [0b11], 2) == (0, 1)


def test_coloring_search_nodes_pinned():
    # each named instance just below its chi, with the clique that
    # chromatic_number_graph pre-colors: the decisions of the lowest-id and
    # the scored search, as calls of the oracle, then the calls of
    # graph_color_decision and graph_colorable. A changed selection rule in
    # either search shows here as a changed count
    pinned = (
        ("schrijver", 10, 3, 5, (337_682, 40_879), (78_262, 8_482)),
        ("kneser", 9, 3, 4, (2_014, 471), (616, 122)),
        ("schrijver", 9, 3, 4, (3_436, 954), (878, 224)),
    )
    for kind, n, k, colors, decisions, calls in pinned:
        g = kneser.build_named_kneser(kind, n=n, k=k).graph
        adj = g.adjacency_masks()
        clique = sorted(exactsolve.max_clique(g, cap=g.n_vertices)[1])
        got = tuple(search_nodes(_reference_color_search, g.n_vertices, adj,
                                 [()] * g.n_vertices, colors, clique, scored)
                    for scored in (False, True))
        assert got == decisions, (kind, n, k)
        got = (search_nodes(kernels.graph_color_decision, g.n_vertices, adj, colors, clique),
               search_nodes(kernels.graph_colorable, g.n_vertices, adj, colors, clique))
        assert got == calls, (kind, n, k)


def test_hypergraph_search_nodes_pinned():
    # order-3 powers at k = 2, 3, 4, as chromatic_number_hypergraph asks
    # them: KG3(K5,P2) has chi 4 and KG3(M9,M2) chi 3. The decisions of the
    # lowest-id and the scored search, as calls of the oracle, then the
    # calls of hypergraph_color_decision and hypergraph_colorable
    order_three = (
        ("complete", {"n": 5}, "path", {"length": 2},
         ((167, 10_132, 31), (13, 1_239, 31)), ((152, 6_542, 28), (6, 381, 28))),
        ("matching", {"n": 9}, "matching", {"n": 2},
         ((567, 37, 37), (27, 37, 37)), ((544, 24, 37), (6, 12, 37))),
    )
    for host, host_params, pattern, pattern_params, decisions, calls in order_three:
        h = kneser.kneser_of_family(
            hyperstruct.build_named_family(host, **host_params),
            patterns.family_of(hyperstruct.build_named_family(pattern, **pattern_params)),
            r=3).result
        n = h.n_vertices
        adj, pairs = kernels.hypergraph_color_tables(n, h.edge_masks)
        got = tuple(tuple(search_nodes(_reference_color_search, n, adj, pairs, k, (), scored)
                          for k in (2, 3, 4)) for scored in (False, True))
        assert got == decisions, (host, pattern)
        got = tuple(tuple(search_nodes(search, n, h.edge_masks, k) for k in (2, 3, 4))
                    for search in (kernels.hypergraph_color_decision,
                                   kernels.hypergraph_colorable))
        assert got == calls, (host, pattern)


def test_independent_set_search_nodes_pinned():
    # the hypergraph search on the C4 occurrences of three hosts, the
    # Turan numbers ex(K6,C4) = 7, ex(K7,C4) = 9 and ex(K4,4,C4) = 9; a
    # changed pick, cut or packing shows here as a changed count
    c4 = patterns.family_of(hyperstruct.build_named_family("cycle", n=4))
    pinned = (
        ("complete", {"n": 6}, 7, 839),
        ("complete", {"n": 7}, 9, 9_257),
        ("complete_bipartite", {"m": 4, "n": 4}, 9, 487),
    )
    for kind, params, ex, nodes in pinned:
        host = hyperstruct.build_named_family(kind, **params)
        occ = patterns.pattern_hypergraph(host, c4).edge_masks
        m = host.n_edges
        assert kernels.max_independent_set(m, occ)[0] == ex, kind
        assert search_nodes(kernels.max_independent_set, m, occ) == nodes, (kind, params)


def _reference_hypergraph_color_decision(n, edge_masks, k):
    """The search with per-edge unit propagation and an O(n) selection scan:
    the oracle for kernels.hypergraph_color_decision, which keeps its state in
    color-class and level masks instead."""
    if n == 0:
        return ()
    if k <= 0:
        return None
    edges = [int(e) for e in edge_masks]
    incident = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in bits_of(e):
            incident[v].append(i)
    kmask = (1 << k) - 1
    color = [-1] * n
    forbid = [0] * n
    rem = [e.bit_count() for e in edges]
    present = [0] * len(edges)
    uncolored_mask = (1 << n) - 1
    uncolored = n
    max_used = -1

    def select(cap_mask):
        best_v, best_cnt = -1, 1 << 30
        for v in range(n):
            if color[v] >= 0:
                continue
            cnt = (cap_mask & ~forbid[v]).bit_count()
            if cnt < best_cnt:
                best_v, best_cnt = v, cnt
                if cnt == 0:
                    break
        return best_v

    def rec():
        nonlocal uncolored, uncolored_mask, max_used
        if uncolored == 0:
            return True
        cap_mask = kmask & ((1 << (max_used + 2)) - 1)
        v = select(cap_mask)
        usable = cap_mask & ~forbid[v]
        if usable == 0:
            return False
        old_max = max_used
        vbit = 1 << v
        for c in bits_of(usable):
            cbit = 1 << c
            color[v] = c
            uncolored -= 1
            uncolored_mask &= ~vbit
            if c > max_used:
                max_used = c
            etrail = []
            ftrail = []
            ok = True
            for i in incident[v]:
                etrail.append((i, rem[i], present[i]))
                rem[i] -= 1
                present[i] |= cbit
                if rem[i] == 0:
                    if present[i].bit_count() == 1:
                        ok = False
                        break
                elif rem[i] == 1 and present[i].bit_count() == 1:
                    u = (edges[i] & uncolored_mask).bit_length() - 1
                    if not forbid[u] & present[i]:
                        forbid[u] |= present[i]
                        ftrail.append((u, present[i]))
            if ok and rec():
                return True
            for u, bit in ftrail:
                forbid[u] &= ~bit
            for i, r, p in reversed(etrail):
                rem[i] = r
                present[i] = p
            uncolored += 1
            uncolored_mask |= vbit
            color[v] = -1
            max_used = old_max
        return False

    return tuple(color) if rec() else None


def _reference_color_search(n, adj, pairs_of, k, clique, scored):
    """The search of kernels._color_search with one call of ``rec`` per
    decision: the oracle for the kernel, which colors a run of forced
    vertices in one call. Its calls count the decisions of the search."""
    if n == 0:
        return ()
    if k <= 0 or len(clique) > k:
        return None
    pair_scored = scored and any(pairs_of)
    color = [-1] * n
    cls = [0] * k
    banned = [0] * k
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        color[v] = c
        uncolored &= ~(1 << v)
        banned[c] |= adj[v]
    level = [0] * (k + 1)
    for v in bits_of(uncolored):
        level[k - sum(b >> v & 1 for b in banned)] |= 1 << v

    def bans(nbrs: int, pairs, c: int, live: int) -> int:
        # the vertices of live on which coloring a vertex with neighbours
        # nbrs and pairs by c would ban c
        hit = nbrs
        outside = ~cls[c]
        for core, ends in pairs:
            if not core & outside:
                hit |= ends
        return hit & live & ~banned[c]

    def rec(uncolored: int, max_used: int) -> bool:
        if not uncolored:
            return True
        j = 0
        while not level[j]:
            j += 1
        if j == 0:
            return False  # only the pre-colored clique leaves a vertex here
        tied = level[j]
        vbit = tied & -tied
        if scored and j > 1 and tied != vbit:
            usable = banned[:min(k, max_used + 2)]
            best = -1
            while tied:
                ubit = tied & -tied
                tied ^= ubit
                u = ubit.bit_length() - 1
                nbrs = adj[u] & uncolored
                score = 0
                if pair_scored:
                    for c, b in enumerate(usable):
                        if not b & ubit:
                            score += bans(nbrs, pairs_of[u], c, uncolored).bit_count()
                else:
                    for b in usable:
                        if not b & ubit:
                            score += (nbrs & ~b).bit_count()
                if score > best:
                    best, vbit = score, ubit
        v = vbit.bit_length() - 1
        level[j] ^= vbit
        rest = uncolored ^ vbit
        pairs = pairs_of[v]
        nbrs = adj[v] & rest
        for c in range(min(k, max_used + 2)):
            if banned[c] & vbit:
                continue
            hit = bans(nbrs, pairs, c, rest) if pairs else nbrs & ~banned[c]
            if hit & level[1]:
                continue  # a vertex would lose its last color
            color[v] = c
            if pairs:
                cls[c] |= vbit
            banned[c] |= hit
            # the vertices of hit drop one level, none of them to level 0 ...
            todo, i = hit, 1
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i - 1] |= moved
                    todo ^= moved
                i += 1
            if rec(rest, c if c > max_used else max_used):
                return True
            # ... and climb back on backtrack
            todo, i = hit, 1
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i + 1] |= moved
                    todo ^= moved
                i += 1
            banned[c] ^= hit
            if pairs:
                cls[c] ^= vbit
        level[j] |= vbit
        return False

    return tuple(color) if rec(uncolored, len(clique) - 1) else None


@st.composite
def _colorable_hypergraphs(draw):
    # edges of 1 to 5 vertices, some repeated, some zero masks; singletons
    # are rare so that most instances reach the search
    n = draw(st.integers(0, 12))
    masks = []
    if n >= 2:
        for vs in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2,
                                        max_size=min(n, 5)), max_size=4 * n)):
            masks.append(sum(1 << v for v in vs))
            if draw(st.integers(0, 9)) == 0:
                masks.append(masks[-1])
    if n:
        if draw(st.integers(0, 9)) == 0:
            masks.append(1 << draw(st.integers(0, n - 1)))
        if draw(st.integers(0, 9)) == 0:
            masks.append(0)
    return n, draw(st.permutations(masks))


@settings(max_examples=300, deadline=None)
@given(instance=_colorable_hypergraphs())
def test_hypergraph_color_decision_matches_reference(instance):
    # with its tables built per call and, as chromatic_number_hypergraph
    # does, once for every k
    n, masks = instance
    tables = kernels.hypergraph_color_tables(n, masks)
    for k in range(5):
        expected = _reference_hypergraph_color_decision(n, masks, k)
        assert kernels.hypergraph_color_decision(n, masks, k) == expected, k
        assert kernels.hypergraph_color_decision(n, masks, k, tables) == expected, k


@st.composite
def _graphs_as_edges(draw):
    # a random graph on up to 14 vertices, and its edges as masks in a
    # shuffled order with some of them repeated
    n = draw(st.integers(0, 14))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    adj = _random_adj(rng, n, p)
    masks = [(1 << u) | (1 << v) for u in range(n) for v in bits_of(adj[u])
             if u < v]
    masks += [m for m in masks if rng.random() < 0.2]
    return n, adj, draw(st.permutations(masks))


@settings(max_examples=200, deadline=None)
@given(instance=_graphs_as_edges())
def test_hypergraph_color_decision_matches_graph_search_on_graphs(instance):
    n, adj, masks = instance
    for k in range(7):
        assert kernels.hypergraph_color_decision(n, masks, k) == \
            kernels.graph_color_decision(n, adj, k), k


@st.composite
def _order_three_powers(draw):
    # the 3-uniform Kneser power of a random host on 6 vertices with P2 or
    # M2: the instances chromatic_number_hypergraph refutes on
    rng = draw(st.randoms(use_true_random=False))
    pairs = rng.sample([(u, v) for u in range(6) for v in range(u + 1, 6)],
                       draw(st.integers(3, 8)))
    pattern = draw(st.sampled_from((("path", {"length": 2}), ("matching", {"n": 2}))))
    h = kneser.kneser_of_family(
        hyperstruct.Hypergraph(6, pairs),
        patterns.family_of(hyperstruct.build_named_family(pattern[0], **pattern[1])),
        r=3).result
    return h.n_vertices, h.edge_masks


@settings(max_examples=150, deadline=None)
@given(instance=st.one_of(_mixed_hypergraphs(), _order_three_powers()))
def test_hypergraph_colorable_agrees_with_decision(instance):
    n, masks = instance
    tables = kernels.hypergraph_color_tables(n, masks)
    for k in range(5):
        assert kernels.hypergraph_colorable(n, masks, k) == \
            (kernels.hypergraph_color_decision(n, masks, k, tables) is not None), k


@settings(max_examples=200, deadline=None)
@given(instance=_precolored_graphs(max_n=20))
def test_color_search_matches_one_call_per_decision_on_graphs(instance):
    # with the drawn clique pre-colored and with none; the coloring of the
    # scored search fixes the vertex it selects at each branching node on
    # the path to it, so it is checked too
    n, adj, clique = instance
    pairs = [()] * n
    for cl in {clique, ()}:
        for k in range(1, 7):
            expected = _reference_color_search(n, adj, pairs, k, cl, False)
            assert kernels.graph_color_decision(n, adj, k, cl) == expected, (cl, k)
            expected = _reference_color_search(n, adj, pairs, k, cl, True)
            assert kernels._color_search(n, adj, pairs, k, cl, True) == expected, (cl, k)
            assert kernels.graph_colorable(n, adj, k, cl) == (expected is not None), (cl, k)


@st.composite
def _seeded_hypergraphs(draw):
    # n to 4n edges of 2 to 4 vertices on 3 to 14 vertices, many of them
    # near their chromatic threshold, where a search backtracks through runs
    # of forced vertices with edges of three or more
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 14))
    return n, [sum(1 << v for v in rng.sample(range(n), rng.randint(2, min(n, 4))))
               for _ in range(rng.randint(n, 4 * n))]


@settings(max_examples=400, deadline=None)
@given(instance=st.one_of(_colorable_hypergraphs(), _order_three_powers(),
                          _seeded_hypergraphs()))
def test_color_search_matches_one_call_per_decision_on_hypergraphs(instance):
    n, masks = instance
    tables = kernels.hypergraph_color_tables(n, masks)
    for k in range(1, 7):
        if tables is None:  # a singleton edge: no search runs
            assert kernels.hypergraph_color_decision(n, masks, k) is None
            assert not kernels.hypergraph_colorable(n, masks, k)
            continue
        adj, pairs = tables
        expected = _reference_color_search(n, adj, pairs, k, (), False)
        assert kernels.hypergraph_color_decision(n, masks, k, tables) == expected, k
        expected = _reference_color_search(n, adj, pairs, k, (), True)
        assert kernels._color_search(n, adj, pairs, k, (), True) == expected, k
        assert kernels.hypergraph_colorable(n, masks, k, tables) == (expected is not None), k


def _co_edge_max_clique(g):
    """max_clique as the co-edge list gave it, each non-adjacent pair once
    from its lower vertex, through kernels.max_independent_set: the oracle
    for exactsolve.max_clique, which hands the complement's masks to the
    graph search."""
    n = g.n_vertices
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    co_edges = [(1 << u) | (1 << v)
                for u in range(n) for v in bits_of(full & ~adj[u] & ~((2 << u) - 1))]
    size, mask = kernels.max_independent_set(n, co_edges)
    return size, frozenset(bits_of(mask))


@settings(max_examples=120, deadline=None)
@given(instance=_graphs())
def test_max_clique_matches_co_edge_search(instance):
    n, masks = instance
    g = hyperstruct.Hypergraph(n, [bits_of(e) for e in masks])
    assert exactsolve.max_clique(g) == _co_edge_max_clique(g)


def test_max_clique_matches_co_edge_search_on_complete_and_edgeless_graphs():
    for n in (0, 1, 2, 7, 40):
        complete = hyperstruct.Hypergraph(n, combinations(range(n), 2))
        edgeless = hyperstruct.Hypergraph(n, ())
        for g in (complete, edgeless):
            assert exactsolve.max_clique(g) == _co_edge_max_clique(g), (n, g.n_edges)


def _reference_dsatur(n, adj):
    """DSATUR on sets of neighbour colors with an O(n) selection scan: the
    oracle for exactsolve.dsatur, which keeps saturation buckets and color
    masks."""
    color = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        v = min((u for u in range(n) if color[u] < 0),
                key=lambda u: (-len(neighbor_colors[u]), u))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for u in bits_of(adj[v]):
            if color[u] < 0:
                neighbor_colors[u].add(c)
    return tuple(color)


@settings(max_examples=120, deadline=None)
@given(instance=_graphs())
def test_dsatur_matches_reference(instance):
    n, masks = instance
    adj = hyperstruct.Hypergraph(n, [bits_of(e) for e in masks]).adjacency_masks()
    assert exactsolve.dsatur(n, adj) == _reference_dsatur(n, adj)


def test_dsatur_matches_reference_on_empty_and_wide_graphs():
    wide = kneser.build_named_kneser("kneser", n=9, k=3).graph.adjacency_masks()
    dense = _random_adj(random.Random(7), 90, 0.4)
    for n, adj in ((0, ()), (1, (0,)), (84, wide), (90, dense)):
        assert exactsolve.dsatur(n, adj) == _reference_dsatur(n, adj), n
