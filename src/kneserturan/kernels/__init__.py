"""Search kernels: compiled core with a pure-Python fallback.

The compiled backend (_core, Cython) works on 64-bit word bitsets; anything
wider, and any environment where the extension failed to build, is served by
the pure backend (_pure), which accepts arbitrary-width Python-int masks.
Setting KNESERTURAN_PURE=1 forces the pure backend, which is how the
benchmark and the backend-parity tests exercise both paths.

Both backends return bit-identical results, witnesses included, but they do
not visit the same search nodes: the pure max_independent_set also prunes
graphs with a clique-partition bound, which cuts only subtrees that cannot
change the result, and the compiled one does not. The pure
graph_color_decision keeps its search state in color and level masks, walks
the compiled backend's decision tree, and cuts at the assignment each child
that would fail at once because a neighbour has no color left.
"""

import os

from . import _pure

_compiled = None
if not os.environ.get("KNESERTURAN_PURE"):
    try:
        from . import _core as _compiled
    except ImportError:
        _compiled = None

BACKEND = "compiled" if _compiled is not None else "pure"


def max_independent_set(n, edge_masks):
    edge_masks = list(edge_masks)
    if _compiled is not None and n <= 64:
        return _compiled.max_independent_set(n, edge_masks)
    return _pure.max_independent_set(n, edge_masks)


def graph_color_decision(n, adj, k, clique=()):
    if _compiled is not None and n <= 64 and k <= 64:
        return _compiled.graph_color_decision(n, list(adj), k, list(clique))
    return _pure.graph_color_decision(n, adj, k, clique)


def hypergraph_color_decision(n, edge_masks, k):
    if _compiled is not None and n <= 64 and k <= 64:
        return _compiled.hypergraph_color_decision(n, list(edge_masks), k)
    return _pure.hypergraph_color_decision(n, edge_masks, k)
