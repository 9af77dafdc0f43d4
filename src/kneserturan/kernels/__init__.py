"""Search kernels: maximum independent set, graph coloring decision (with
an existence-only variant) and hypergraph coloring decision, with the
tables of the last.

The searches live in _pure and work on Python-int vertex masks of any
width. This package re-exports them unchanged; BACKEND names the one
backend there is, for benchmark and diagnostic output.
"""

from ._pure import (
    graph_color_decision,
    graph_colorable,
    hypergraph_color_decision,
    hypergraph_color_tables,
    max_independent_set,
)

BACKEND = "pure"

__all__ = ["BACKEND", "graph_color_decision", "graph_colorable",
           "hypergraph_color_decision", "hypergraph_color_tables",
           "max_independent_set"]
