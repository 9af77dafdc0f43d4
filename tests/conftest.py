"""Shared seeded generators and a search-node counter. No fixtures with
state; tests build what they need."""

import random
import sys

from kneserturan import Hypergraph


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
