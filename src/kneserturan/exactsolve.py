"""Exact invariants: independence, covering, clique, chromatic numbers.

Every reported number carries a machine-checkable witness. Chromatic numbers
come with a proper coloring plus a lower-bound witness (a clique when one is
tight, otherwise the exhausted k that the decision search refuted).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from . import kernels
from .errors import InvalidParameterError, SizeCapError, VerificationError
from .hyperstruct import Hypergraph, Record, bits_of, mask_of

DEFAULT_SOLVER_CAP = 64


class _Unbounded:
    """Distinguished chromatic value for hypergraphs with singleton edges.

    A singleton: ``__new__`` returns the one instance, so ``is UNBOUNDED``
    holds even for an unpickled value. It is greater than every int (so
    ``int < UNBOUNDED`` holds too); no other comparison and no arithmetic is
    defined.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __gt__(self, other):
        if isinstance(other, int):
            return True
        if other is self:
            return False
        return NotImplemented

    def to_json(self):
        return "unbounded"


UNBOUNDED = _Unbounded()


def _check_cap(h: Hypergraph, cap: int, what: str):
    if h.n_vertices > cap:
        raise SizeCapError(
            f"{what}: instance has {h.n_vertices} vertices, above the cap {cap}"
        )


# --- independence and covering ---

def independence_number(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Largest vertex set containing no hyperedge as a subset, with witness."""
    _check_cap(h, cap, "independence_number")
    size, mask = kernels.max_independent_set(h.n_vertices, h.edge_masks)
    witness = frozenset(bits_of(mask))
    for em in set(h.edge_masks):
        if em & ~mask == 0:
            raise VerificationError("independent-set witness contains a hyperedge")
    return size, witness


def covering_number(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Smallest vertex set meeting every hyperedge, with witness.

    Complements a maximum independent set (a set is independent exactly when
    its complement is a cover).
    """
    alpha, ind = independence_number(h, cap)
    cover = frozenset(range(h.n_vertices)) - ind
    cmask = mask_of(cover)
    for em in h.edge_masks:
        if em & cmask == 0:
            raise VerificationError("cover witness misses a hyperedge")
    return h.n_vertices - alpha, cover


def max_clique(g: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> tuple[int, frozenset[int]]:
    """Maximum clique of a simple graph via independence in the complement."""
    if not g.is_simple_graph:
        raise InvalidParameterError("max_clique needs a simple 2-uniform hypergraph")
    _check_cap(g, cap, "max_clique")
    n = g.n_vertices
    adj = g.adjacency_masks()
    full = (1 << n) - 1
    # each non-adjacent pair once, from its lower vertex
    co_edges = [
        (1 << u) | (1 << v)
        for u in range(n)
        for v in bits_of(full & ~adj[u] & ~((2 << u) - 1))
    ]
    size, mask = kernels.max_independent_set(n, co_edges)
    if any(mask & ~adj[v] & ~(1 << v) for v in bits_of(mask)):
        raise VerificationError("clique witness has a missing edge")
    return size, frozenset(bits_of(mask))


# --- colorings ---

class ColoringCertificate(Record):
    """A proper coloring: assignment[i] is the color of vertex i."""

    _fields = ("num_colors", "assignment")

    def __init__(self, num_colors: int, assignment: tuple[int, ...]):
        self.__dict__.update(num_colors=num_colors, assignment=assignment)

    def to_json_dict(self) -> dict:
        return {"value": self.num_colors, "assignment": list(self.assignment)}


# Still a dataclass, unlike the other records (see hyperstruct.Record): the
# benchmark's --plant-wrong check builds a wrong report with dataclasses.replace.
@dataclass(frozen=True)
class ChromaticReport:
    value: object  # int or UNBOUNDED
    coloring: ColoringCertificate | None
    lower_witness: dict

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_json() if self.value is UNBOUNDED else self.value,
            "assignment": list(self.coloring.assignment) if self.coloring else None,
            "witness": self.lower_witness,
        }


def validate_graph_coloring(g: Hypergraph, assignment) -> bool:
    """Endpoints of every edge get distinct colors."""
    if len(assignment) != g.n_vertices:
        return False
    for e in g.edges:
        u, v = sorted(e)
        if assignment[u] == assignment[v]:
            return False
    return True


def validate_hypergraph_coloring(h: Hypergraph, assignment) -> bool:
    """No hyperedge is monochromatic."""
    if len(assignment) != h.n_vertices:
        return False
    for e in h.edges:
        if len({assignment[v] for v in e}) == 1:
            return False
    return True


def dsatur_coloring(g: Hypergraph) -> tuple[int, ...]:
    """Greedy DSATUR upper bound; ties broken by lowest vertex id."""
    return dsatur(g.n_vertices, g.adjacency_masks())


def dsatur(n: int, adj) -> tuple[int, ...]:
    """dsatur_coloring of the graph on 0..n-1 with adjacency masks ``adj``."""
    color = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = min(
            (u for u in range(n) if color[u] < 0),
            key=lambda u: (-len(neighbor_colors[u]), u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        color[v] = c
        for u in bits_of(adj[v]):
            if color[u] < 0:
                neighbor_colors[u].add(c)
    return tuple(color)


def chromatic_number_graph(g: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> ChromaticReport:
    """Exact chromatic number of a simple graph.

    Clique lower bound plus DSATUR upper bound, then iterative deepening on a
    k-colorability decision search with the clique pre-colored.
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
    adj = g.adjacency_masks()
    omega, clique = max_clique(g, cap)
    clique_list = sorted(clique)
    greedy = dsatur_coloring(g)
    ub = max(greedy) + 1
    if omega == ub:
        cert = ColoringCertificate(ub, greedy)
        _assert_proper_graph(g, cert)
        return ChromaticReport(ub, cert, {"kind": "clique", "members": clique_list})
    for k in range(omega, ub):
        assignment = kernels.graph_color_decision(n, adj, k, clique_list)
        if assignment is not None:
            cert = ColoringCertificate(k, assignment)
            _assert_proper_graph(g, cert)
            witness = (
                {"kind": "clique", "members": clique_list}
                if k == omega
                else {"kind": "exhausted", "refuted_colors": k - 1}
            )
            return ChromaticReport(k, cert, witness)
    cert = ColoringCertificate(ub, greedy)
    _assert_proper_graph(g, cert)
    return ChromaticReport(ub, cert, {"kind": "exhausted", "refuted_colors": ub - 1})


def _assert_proper_graph(g: Hypergraph, cert: ColoringCertificate):
    if not validate_graph_coloring(g, cert.assignment):
        raise VerificationError("solver produced an improper coloring")
    if any(c < 0 or c >= cert.num_colors for c in cert.assignment):
        raise VerificationError("coloring uses out-of-range colors")


def chromatic_number_hypergraph(h: Hypergraph, cap: int = DEFAULT_SOLVER_CAP) -> ChromaticReport:
    """Least t admitting a coloring with no monochromatic hyperedge.

    A singleton hyperedge is monochromatic under every assignment, so any
    hypergraph containing one gets the distinguished value UNBOUNDED. The
    empty-vertex hypergraph gets 0.
    """
    _check_cap(h, cap, "chromatic_number_hypergraph")
    n = h.n_vertices
    if any(len(e) == 1 for e in h.edges):
        return ChromaticReport(UNBOUNDED, None, {"kind": "singleton-edge"})
    if n == 0:
        return ChromaticReport(0, ColoringCertificate(0, ()), {"kind": "empty"})
    if h.n_edges == 0:
        return ChromaticReport(1, ColoringCertificate(1, (0,) * n), {"kind": "edgeless"})
    ub_assignment = _greedy_hypergraph_coloring(h)
    ub = max(ub_assignment) + 1
    tables = kernels.hypergraph_color_tables(n, h.edge_masks)
    for k in range(2, ub):
        assignment = kernels.hypergraph_color_decision(n, h.edge_masks, k, tables)
        if assignment is not None:
            cert = ColoringCertificate(k, assignment)
            _assert_proper_hypergraph(h, cert)
            witness = (
                {"kind": "has-edges"} if k == 2 else {"kind": "exhausted", "refuted_colors": k - 1}
            )
            return ChromaticReport(k, cert, witness)
    cert = ColoringCertificate(ub, tuple(ub_assignment))
    _assert_proper_hypergraph(h, cert)
    witness = {"kind": "has-edges"} if ub == 2 else {"kind": "exhausted", "refuted_colors": ub - 1}
    return ChromaticReport(ub, cert, witness)


def _assert_proper_hypergraph(h: Hypergraph, cert: ColoringCertificate):
    if not validate_hypergraph_coloring(h, cert.assignment):
        raise VerificationError("solver produced a monochromatic hyperedge")


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


# --- structural colorings for Kneser powers ---

def cover_coloring(rep: Hypergraph, r: int = 2, cap: int = DEFAULT_SOLVER_CAP) -> tuple[ColoringCertificate, dict]:
    """Proper coloring of the r-th Kneser power from an independent-set cover.

    Splits the complement of a maximum independent set into blocks of size
    r-1 (taken in ascending vertex order) and colors each rep edge by the
    first block it meets. r pairwise disjoint edges cannot all meet the same
    (r-1)-sized block, and no edge avoids every block since the removed set
    is independent, so the coloring is proper with ceil((n - alpha)/(r - 1))
    palette colors. Returns the certificate plus the block structure.
    """
    if r < 2:
        raise InvalidParameterError("cover_coloring needs r >= 2")
    alpha, ind = independence_number(rep, cap)
    rest = [v for v in range(rep.n_vertices) if v not in ind]
    blocks = [rest[i : i + r - 1] for i in range(0, len(rest), r - 1)]
    assignment = []
    for em in rep.edge_masks:
        c = next(
            (i for i, blk in enumerate(blocks) if em & mask_of(blk)),
            None,
        )
        if c is None:
            raise VerificationError("edge inside the independent set; cover broken")
        assignment.append(c)
    q = len(blocks)
    if rep.n_edges and q != ceil((rep.n_vertices - alpha) / (r - 1)):
        raise VerificationError("block count drifted from the ceiling formula")
    cert = ColoringCertificate(q, tuple(assignment))
    meta = {"independent_set": sorted(ind), "blocks": blocks, "r": r}
    return cert, meta


def augment_representation(rep: Hypergraph, coloring: ColoringCertificate) -> Hypergraph:
    """Attach one fresh vertex per color to the edges of that color.

    The disjointness graph on edge ids is unchanged: edges that met before
    still meet, and disjoint edges got distinct colors, hence distinct new
    vertices. The augmented hypergraph's covering number equals the chromatic
    number of the rep's Kneser graph; both facts are asserted here.
    """
    from .kneser import kneser_power  # local import to avoid a cycle

    if len(coloring.assignment) != rep.n_edges:
        raise InvalidParameterError("coloring length differs from edge count")
    kg = kneser_power(rep, 2)
    if not validate_graph_coloring(kg.result, coloring.assignment):
        raise InvalidParameterError("coloring is not proper for the Kneser graph")
    t = coloring.num_colors
    n = rep.n_vertices
    edges = tuple(
        e | {n + coloring.assignment[j]} for j, e in enumerate(rep.edges)
    )
    augmented = Hypergraph(n + t, edges)
    kg_aug = kneser_power(augmented, 2)
    if set(kg_aug.result.edges) != set(kg.result.edges):
        raise VerificationError("augmentation altered the Kneser graph")
    chi = chromatic_number_graph(kg.result).value
    beta, _ = covering_number(augmented)
    if beta != chi:
        raise VerificationError(
            f"augmented covering number {beta} differs from chromatic number {chi}; "
            "pass a coloring with exactly chi colors"
        )
    return augmented
