"""Backend parity: the compiled kernels must match the pure ones bit for bit.

The pure max_independent_set is also checked against a test-local copy of
the search without its clique-partition bound, and the pure
graph_color_decision against a test-local copy of the same search kept in
per-vertex forbidden-color masks.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserturan import exactsolve, hyperstruct, kneser, patterns
from kneserturan.kernels import BACKEND, _pure
from kneserturan.kernels import graph_color_decision as dispatched_color

try:
    from kneserturan.kernels import _core
except ImportError:
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled backend not built")


def _random_adj(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def _random_edge_masks(rng, n, m):
    masks = []
    for _ in range(m):
        size = rng.randint(1, n)
        mask = 0
        for v in rng.sample(range(n), size):
            mask |= 1 << v
        masks.append(mask)
    return masks


@needs_core
def test_max_independent_set_parity():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 12)
        masks = _random_edge_masks(rng, n, rng.randint(0, 8))
        assert _core.max_independent_set(n, list(masks)) == \
            _pure.max_independent_set(n, list(masks))


@needs_core
def test_max_independent_set_parity_at_word_boundaries():
    # a 32-bit intermediate once truncated the full-vertex mask for every
    # n >= 32; these widths pin the whole dispatchable range
    rng = random.Random(3232)
    for n in (31, 32, 33, 40, 63, 64):
        for _ in range(6):
            masks = _random_edge_masks(rng, n, rng.randint(1, 3 * n))
            got = _core.max_independent_set(n, list(masks))
            want = _pure.max_independent_set(n, list(masks))
            assert got == want, (n, got, want)


@needs_core
def test_graph_color_decision_parity():
    rng = random.Random(202)
    for _ in range(80):
        n = rng.randint(1, 10)
        adj = _random_adj(rng, n, rng.choice((0.2, 0.5, 0.8)))
        k = rng.randint(1, n)
        got = _core.graph_color_decision(n, list(adj), k, [])
        want = _pure.graph_color_decision(n, adj, k, ())
        assert got == want
        if want is not None:
            assert len(set(want)) <= k
            for u in range(n):
                for v in range(u + 1, n):
                    if adj[u] >> v & 1:
                        assert want[u] != want[v]


@needs_core
def test_graph_color_decision_parity_with_clique():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(3, 9)
        adj = _random_adj(rng, n, 0.6)
        # grow a greedy clique to precolor, same seed for both backends
        clique = []
        for v in range(n):
            if all(adj[v] >> u & 1 for u in clique):
                clique.append(v)
        k = rng.randint(len(clique), n)
        got = _core.graph_color_decision(n, list(adj), k, list(clique))
        want = _pure.graph_color_decision(n, adj, k, tuple(clique))
        assert got == want


@needs_core
def test_hypergraph_color_decision_parity():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(1, 9)
        masks = _random_edge_masks(rng, n, rng.randint(0, 6))
        k = rng.randint(1, 4)
        got = _core.hypergraph_color_decision(n, list(masks), k)
        want = _pure.hypergraph_color_decision(n, masks, k)
        assert got == want


def test_dispatcher_reports_backend():
    assert BACKEND in ("compiled", "pure")


def test_pure_env_forces_pure_backend():
    code = "from kneserturan.kernels import BACKEND; print(BACKEND)"
    env = dict(os.environ, KNESERTURAN_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "pure"


def test_wide_instances_fall_back_to_pure():
    # 70 vertices exceeds the 64-bit kernel; the dispatcher must still answer
    n = 70
    adj = [0] * n
    for v in range(1, n):
        adj[0] |= 1 << v
        adj[v] |= 1
    got = dispatched_color(n, adj, 2)
    assert got is not None
    assert got[0] != got[1]


def test_pure_rejects_nothing_small():
    # decision problems on empty instances
    assert _pure.graph_color_decision(0, [], 1) == ()
    assert _pure.max_independent_set(0, []) == (0, 0)
    assert _pure.hypergraph_color_decision(0, [], 1) == ()


def _unpruned_max_independent_set(n, edge_masks):
    """The search without the clique-partition bound: the oracle for _pure."""
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
        for v in _pure._bits(pick & ~chosen):
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


@settings(max_examples=120, deadline=None)
@given(instance=st.one_of(_graphs(), _mixed_hypergraphs()))
def test_max_independent_set_matches_unpruned_search(instance):
    n, masks = instance
    assert _pure.max_independent_set(n, masks) == _unpruned_max_independent_set(n, masks)


def test_max_clique_members_pinned():
    k3 = patterns.family_of(hyperstruct.build_named_family("cycle", n=3))
    k8 = hyperstruct.build_named_family("complete", n=8)
    g = kneser.kneser_of_family(k8, k3).result
    assert exactsolve.max_clique(g) == (8, frozenset({10, 13, 15, 24, 27, 32, 36, 55}))
    g = kneser.build_named_kneser("kneser", n=9, k=3).graph
    assert exactsolve.max_clique(g, cap=84) == (3, frozenset({27, 43, 49}))


def _reference_graph_color_decision(n, adj, k, clique=()):
    """The per-vertex search with an O(n) selection scan: the oracle for
    _pure.graph_color_decision, which keeps its state in masks instead."""
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
        for u in _pure._bits(adj[v]):
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
        for c in _pure._bits(usable):
            bit = 1 << c
            color[v] = c
            uncolored -= 1
            if c > max_used:
                max_used = c
            touched = []
            for u in _pure._bits(adj[v]):
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
def _precolored_graphs(draw):
    # a greedy clique grown in a random vertex order, then cut short or
    # dropped; n may be 0
    n = draw(st.integers(0, 24))
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
    # chromatic number and k may be below the clique size
    n, adj, clique = instance
    for k in range(9):
        assert _pure.graph_color_decision(n, adj, k, clique) == \
            _reference_graph_color_decision(n, adj, k, clique), k
