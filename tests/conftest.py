"""Shared seeded generators and a search-node counter. No fixtures with
state; tests build what they need."""

import os
import random
import sys
from pathlib import Path

from hypothesis import strategies as st

from kneserturan import Hypergraph

# the CLI probes run in child interpreters, which import the package from this tree too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def random_hypergraph(rng: random.Random, max_vertices: int = 6, max_edges: int = 5,
                      min_edge_size: int = 1) -> Hypergraph:
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        size = rng.randint(min(min_edge_size, n), n)
        edges.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, tuple(edges))


def random_graph(rng: random.Random, n: int, p: float) -> Hypergraph:
    edges = [
        frozenset({u, v})
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges.append(frozenset({0, 1}))
    return Hypergraph(n, tuple(edges))


@st.composite
def representations(draw):
    """Hypergraphs of up to 12 vertices and 40 edges, possibly none, drawn
    from a pool of member sets so that edges repeat: representations of
    r = 2 Kneser powers with isolated vertices and without edges among them."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1,
                         max_size=40))
    # drawn from a pool, member sets repeat; the whole vertex set meets every edge
    pool.append(frozenset(range(n)))
    return Hypergraph(n, draw(st.lists(st.sampled_from(pool), max_size=40)))


def search_nodes(search, *args):
    """The calls of a recursion named ``rec`` in the module of ``search``
    during one call of ``search`` on ``args``: the number of nodes that
    search visits, which no machine changes. Recursions of other modules it
    calls, such as the kernels, are not counted."""
    nodes = 0
    module = search.__module__

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "rec" \
                and frame.f_globals.get("__name__") == module:
            nodes += 1

    sys.setprofile(profile)
    try:
        search(*args)
    finally:
        sys.setprofile(None)
    return nodes
