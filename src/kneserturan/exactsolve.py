"""Exact invariants: independence, covering, clique, chromatic numbers.

Every reported number carries a machine-checkable witness, checked by the
rule verify applies too (check_*). Chromatic numbers come with a proper
coloring plus a lower-bound witness (a clique when one is tight, otherwise
the exhausted k that the decision search refuted), settled in _settle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import InvalidParameterError, SizeCapError, VerificationError
from .hyperstruct import Hypergraph, Record, bits_of

DEFAULT_SOLVER_CAP = 64
UNBOUNDED = "unbounded"  # chi of a hypergraph with a one-vertex edge, as documents spell it


def _check_cap(h: Hypergraph, cap: int, what: str):
    if h.n_vertices > cap:
        raise SizeCapError(
            f"{what}: instance has {h.n_vertices} vertices, above the cap {cap}"
        )


# --- witness rules: the solvers check their output by them, and verify a document ---

def _members_mask(h: Hypergraph, members, size: int, what: str) -> int:
    """The mask of ``members``, refused unless they are ``size`` distinct vertices of ``h``."""
    mask = 0
    for v in members:
        if not 0 <= v < h.n_vertices:
            raise VerificationError(f"witness member {v} is out of range 0..{h.n_vertices - 1}")
        if mask >> v & 1:
            raise VerificationError(f"witness member {v} repeats")
        mask |= 1 << v
    if mask.bit_count() != size:
        raise VerificationError(f"witness has {mask.bit_count()} members, {what} is {size}")
    return mask


def check_vertex_set(h: Hypergraph, members, size: int, what: str, cover: bool = False):
    """Refuse ``members`` unless they are ``size`` distinct vertices of ``h`` that contain
    no hyperedge (alpha; ex on the occurrence hypergraph) or meet every one (beta)."""
    mask = _members_mask(h, members, size, what)
    if any(em & mask == 0 if cover else em & ~mask == 0 for em in h.edge_masks):
        raise VerificationError(f"the witness members {'miss' if cover else 'contain'} a hyperedge")


def check_clique(g: Hypergraph, members, size: int, what: str):
    """Refuse ``members`` unless they are ``size`` distinct, pairwise adjacent vertices
    of ``g``, one mask test per member; in a non-graph no two are adjacent."""
    mask = _members_mask(g, members, size, what)
    adj = g.adjacency_masks() if g.is_graph else (0,) * g.n_vertices
    if any(mask & ~adj[v] & ~(1 << v) for v in bits_of(mask)):
        raise VerificationError("the witness members are not pairwise adjacent")


def check_palette(assignment, k: int):
    """Refuse ``assignment`` unless its colors lie in 0..k-1."""
    for v, c in enumerate(assignment):
        if not 0 <= c < k:
            raise VerificationError(f"vertex {v} has out-of-range color {c}, not in 0..{k - 1}")


def check_coloring(h: Hypergraph, assignment, k: int):
    """Refuse ``assignment`` unless it colors ``h`` properly in colors 0..k-1."""
    check_palette(assignment, k)
    if not validate_hypergraph_coloring(h, assignment):
        raise VerificationError("the coloring is not proper")


# --- independence and covering ---

def independence_number(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Largest vertex set containing no hyperedge as a subset, with witness."""
    _check_cap(h, cap, "independence_number")
    size, mask = kernels.max_independent_set(h.n_vertices, h.edge_masks)
    witness = frozenset(bits_of(mask))
    check_vertex_set(h, witness, size, "alpha")
    return size, witness


def covering_number(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Smallest vertex set meeting every hyperedge, with witness.

    Complements a maximum independent set (a set is independent exactly when
    its complement is a cover).
    """
    alpha, ind = independence_number(h, cap)
    cover = frozenset(range(h.n_vertices)) - ind
    check_vertex_set(h, cover, h.n_vertices - alpha, "beta", cover=True)
    return h.n_vertices - alpha, cover


def max_clique(g: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Maximum clique of a simple graph via independence in the complement.

    The complement's adjacency masks go straight to
    kernels.max_independent_set_graph, so the result, witness included, is
    that of kernels.max_independent_set on the complement's edges.
    """
    if not g.is_simple_graph:
        raise InvalidParameterError("max_clique needs a simple 2-uniform hypergraph")
    _check_cap(g, cap, "max_clique")
    n = g.n_vertices
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    co_adj = [full & ~a & ~(1 << v) for v, a in enumerate(adj)]
    size, mask = kernels.max_independent_set_graph(n, co_adj)
    witness = frozenset(bits_of(mask))
    check_clique(g, witness, size, "omega")
    return size, witness


# --- colorings ---

class ColoringCertificate(Record):
    """A proper coloring: assignment[i] is the color of vertex i."""

    _fields = ("num_colors", "assignment")

    def __init__(self, num_colors: int, assignment: tuple[int, ...]):
        self.__dict__.update(num_colors=num_colors, assignment=assignment)


# Still a dataclass, unlike the other records (see hyperstruct.Record): the
# benchmark's --plant-wrong check builds a wrong report with dataclasses.replace.
@dataclass(frozen=True)
class ChromaticReport:
    value: int | str  # an int or UNBOUNDED
    coloring: ColoringCertificate | None
    lower_witness: dict

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "assignment": list(self.coloring.assignment) if self.coloring else None,
            "witness": self.lower_witness,
        }


def validate_hypergraph_coloring(h: Hypergraph, assignment) -> bool:
    """No hyperedge is monochromatic: none lies inside the color class of
    its lowest vertex. On a graph no vertex has a neighbour in its own
    class, read off the adjacency rows, so a row-built power's edge masks
    are not made."""
    if len(assignment) != h.n_vertices:
        return False
    classes: dict = {}
    for v, c in enumerate(assignment):
        classes[c] = classes.get(c, 0) | 1 << v
    if h.is_graph:
        return not any(row & classes[c] for row, c in zip(h.adjacency_masks(), assignment))
    return all(em & ~classes[assignment[(em & -em).bit_length() - 1]]
               for em in h.edge_masks)


def dsatur_coloring(g: Hypergraph) -> tuple[int, ...]:
    """Greedy DSATUR upper bound; ties broken by lowest vertex id."""
    return dsatur(g.n_vertices, g.adjacency_masks())


def dsatur(n: int, adj) -> tuple[int, ...]:
    """dsatur_coloring of the graph on 0..n-1 with adjacency masks ``adj``.

    ``seen[v]`` is the mask of colors on the colored neighbours of v, and
    ``bucket[s]`` the mask of uncolored vertices that see s colors. Each step
    colors the lowest vertex of the highest non-empty bucket with the lowest
    color it does not see: most colors seen, ties to the lowest id.
    """
    color = [-1] * n
    seen = [0] * n
    bucket = [(1 << n) - 1] + [0] * n
    uncolored = bucket[0]
    top = 0
    for _ in range(n):
        while not bucket[top]:
            top -= 1
        vbit = bucket[top] & -bucket[top]
        bucket[top] ^= vbit
        uncolored ^= vbit
        v = vbit.bit_length() - 1
        cbit = (seen[v] + 1) & ~seen[v]
        color[v] = cbit.bit_length() - 1
        for u in bits_of(adj[v] & uncolored):
            if not seen[u] & cbit:
                s = seen[u].bit_count()
                ubit = 1 << u
                bucket[s] ^= ubit
                bucket[s + 1] |= ubit
                seen[u] |= cbit
                top = max(top, s + 1)
    return tuple(color)


def chromatic_number_graph(g: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> ChromaticReport:
    """Exact chromatic number of a simple graph.

    _settle searches between the clique bound and the DSATUR count, with the
    clique pre-colored in kernels.graph_colorable and kernels.graph_color_decision.
    """
    if not g.is_graph:
        raise InvalidParameterError("chromatic_number_graph needs a 2-uniform hypergraph")
    if not g.is_simple_graph:
        raise InvalidParameterError("multigraph input; collapse parallel edges first")
    _check_cap(g, cap, "chromatic_number_graph")
    n = g.n_vertices
    if n == 0:
        return ChromaticReport(0, ColoringCertificate(0, ()), {"kind": "empty"})
    if g.n_edges == 0:
        cert = ColoringCertificate(1, (0,) * n)
        return ChromaticReport(1, cert, {"kind": "edgeless"})
    omega, clique = max_clique(g, cap)
    clique_list = sorted(clique)
    return _settle(g, omega, {"kind": "clique", "members": clique_list}, dsatur_coloring(g),
                   kernels.graph_colorable, kernels.graph_color_decision, g.adjacency_masks(),
                   clique_list)


def chromatic_number_hypergraph(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> ChromaticReport:
    """Least t admitting a coloring with no monochromatic hyperedge.

    A singleton hyperedge is monochromatic under every assignment, so any
    hypergraph containing one gets the distinguished value UNBOUNDED. The
    empty-vertex hypergraph gets 0.

    Otherwise _settle searches from 2 up to the sequential greedy's count
    with kernels.hypergraph_colorable, the scored twin of the lowest-id
    search, and kernels.hypergraph_color_decision.
    """
    _check_cap(h, cap, "chromatic_number_hypergraph")
    n = h.n_vertices
    if any(len(e) == 1 for e in h.edges):
        return ChromaticReport(UNBOUNDED, None, {"kind": "singleton-edge"})
    if n == 0:
        return ChromaticReport(0, ColoringCertificate(0, ()), {"kind": "empty"})
    if h.n_edges == 0:
        return ChromaticReport(1, ColoringCertificate(1, (0,) * n), {"kind": "edgeless"})
    greedy = _greedy_hypergraph_coloring(h)
    tables = kernels.hypergraph_color_tables(n, h.edge_masks)
    return _settle(h, 2, {"kind": "has-edges"}, greedy, kernels.hypergraph_colorable,
                   kernels.hypergraph_color_decision, h.edge_masks, tables)


def _settle(h: Hypergraph, low: int, low_witness: dict, greedy, colorable, decision, masks,
            extra) -> ChromaticReport:
    """chi of h, at least ``low`` and at most the colors of ``greedy``.

    The kernel ``colorable`` refutes each k from ``low`` below the greedy
    count, and the kernel ``decision`` runs only at the first k it accepts,
    so the coloring is that of the lowest-id search at every k; if every k
    is refuted, it is ``greedy``'s. Both kernels take (n, masks, k, extra).
    A None from the decision raises VerificationError, as the two searches
    must agree. The witness is ``low_witness`` when chi is ``low``, and the
    refuted chi - 1 otherwise.
    """
    n = h.n_vertices
    ub = max(greedy) + 1
    for k in range(low, ub):
        if colorable(n, masks, k, extra):
            assignment = decision(n, masks, k, extra)
            if assignment is None:
                raise VerificationError(f"{colorable.__name__} accepts {k} colors, "
                                        f"{decision.__name__} refutes them")
            break
    else:
        k, assignment = ub, tuple(greedy)
    check_coloring(h, assignment, k)
    cert = ColoringCertificate(k, assignment)
    witness = low_witness if k == low else {"kind": "exhausted", "refuted_colors": k - 1}
    return ChromaticReport(k, cert, witness)


def chromatic_number(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> ChromaticReport:
    """chromatic_number_graph on a 2-uniform h, chromatic_number_hypergraph otherwise."""
    # looked up as globals at each call, so a rebinding of either solver is seen
    solve = chromatic_number_graph if h.is_graph else chromatic_number_hypergraph
    return solve(h, cap)


def _greedy_hypergraph_coloring(h: Hypergraph) -> list[int]:
    """Sequential greedy: smallest color not completing a monochromatic edge.

    Kept in masks: only an edge's highest vertex v sees the rest colored, so
    color c is banned on v when the rest of an edge topped by v lies inside
    class c. The rest's lowest vertex names c.
    """
    n = h.n_vertices
    rests: list[list[int]] = [[] for _ in range(n)]
    for em in set(h.edge_masks):
        top = 1 << (em.bit_length() - 1)
        if em != top:
            rests[top.bit_length() - 1].append(em ^ top)
    color: list[int] = []
    cls: list[int] = []
    for v in range(n):
        banned = set()
        for rest in rests[v]:
            c = color[(rest & -rest).bit_length() - 1]
            if not rest & ~cls[c]:
                banned.add(c)
        c = 0
        while c in banned:
            c += 1
        if c == len(cls):
            cls.append(0)
        cls[c] |= 1 << v
        color.append(c)
    return color
