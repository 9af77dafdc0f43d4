"""Core value types: hypergraphs, sign vectors, orderings, restrictions.

Vertices are always the dense range 0..n-1. Hyperedges are indexed by their
position in the edge list; two edges with the same member set but different
ids are distinct parallel copies, which is how multigraphs and general
multihypergraphs are represented. Set arithmetic is done on Python ints used
as bitsets, one bit per vertex.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations

from .errors import InvalidParameterError

# Hard ceiling for the container itself, sized so that Kneser powers at
# their documented caps still fit. Bitset-heavy exact solvers apply their
# own much lower caps (64 by default, overridable); Python-int masks keep
# working at any width, just not quickly.
MAX_VERTICES = 4096


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Record:
    """Base of the immutable value records.

    A subclass names its fields in ``_fields`` and stores them in the
    instance ``__dict__`` from its own ``__init__``, after its checks.
    Equality (same class, equal fields), hashing and repr run over the
    fields in that order, as a frozen dataclass's do, and assigning or
    deleting any attribute raises ``AttributeError``. ``cached_property``
    and pickle write the ``__dict__`` directly, so both keep working.

    Plain classes instead of dataclasses: each frozen dataclass execs about
    six generated methods when its module is imported, about 1 ms a class,
    and every CLI call starts a fresh interpreter.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Hypergraph(Record):
    """A (multi)hypergraph on vertices 0..n-1 with positionally-indexed edges.

    ``labels``, when present, carries one display string per vertex; it has no
    effect on any computation and survives JSON round trips.
    """

    _fields = ("n_vertices", "edges", "labels")

    def __init__(self, n_vertices: int, edges, labels: tuple[str, ...] | None = None):
        if not (0 <= n_vertices <= MAX_VERTICES):
            raise InvalidParameterError(
                f"vertex count {n_vertices} outside 0..{MAX_VERTICES}"
            )
        edges = tuple(frozenset(e) for e in edges)
        for i, e in enumerate(edges):
            if not e:
                raise InvalidParameterError(f"edge {i} is empty")
            for v in e:
                if not (0 <= v < n_vertices):
                    raise InvalidParameterError(f"edge {i} has out-of-range vertex {v}")
        if labels is not None:
            if not isinstance(labels, (list, tuple)):
                raise InvalidParameterError(
                    f"labels must be a list or tuple of strings, not {type(labels).__name__}")
            labels = tuple(labels)
            for v, s in enumerate(labels):
                if not isinstance(s, str):
                    raise InvalidParameterError(
                        f"label of vertex {v} is {type(s).__name__}, not a string")
            if len(labels) != n_vertices:
                raise InvalidParameterError("labels length differs from vertex count")
        self.__dict__.update(n_vertices=n_vertices, edges=edges, labels=labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n_vertices
        for e in self.edges:
            for v in e:
                d[v] += 1
        return tuple(d)

    @cached_property
    def isolated_vertices(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n_vertices) if self.degrees[v] == 0)

    def is_uniform(self, r: int) -> bool:
        return all(len(e) == r for e in self.edges)

    @property
    def is_graph(self) -> bool:
        return self.is_uniform(2)

    @cached_property
    def is_simple_graph(self) -> bool:
        return self.is_graph and len(set(self.edges)) == self.n_edges

    def multiplicity(self, edge_id: int) -> int:
        """Number of edges (including this one) with the same member set."""
        members = self.edges[edge_id]
        return sum(1 for e in self.edges if e == members)

    @cached_property
    def parallel_classes(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids grouped by member set, classes ordered by sorted members."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, e in enumerate(self.edges):
            groups.setdefault(tuple(sorted(e)), []).append(i)
        return tuple(tuple(groups[k]) for k in sorted(groups))

    def adjacency_masks(self) -> list[int]:
        """For a graph: per-vertex neighbor bitmasks. Errors on non-graphs."""
        if not self.is_graph:
            raise InvalidParameterError("adjacency masks need a 2-uniform hypergraph")
        adj = [0] * self.n_vertices
        for e in self.edges:
            u, v = sorted(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    # --- serialization ---

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n_vertices,
            "edges": [sorted(e) for e in self.edges],
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Hypergraph":
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise InvalidParameterError("hypergraph JSON needs 'n' and 'edges'")
        n, edges = doc["n"], doc["edges"]
        if type(n) is not int:
            raise InvalidParameterError("hypergraph JSON: 'n' is not an int")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and all(type(v) is int for v in e) for e in edges):
            raise InvalidParameterError("hypergraph JSON: 'edges' is not a list of lists of ints")
        labels = doc.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
            raise InvalidParameterError(
                "hypergraph JSON: 'labels' is not a list of strings or null")
        return cls(n_vertices=n, edges=edges, labels=labels)


def canonical_dumps(doc) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace.

    Byte-identical round trips rely on this being the only writer.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --- named families ---

def build_named_family(kind: str, **params) -> Hypergraph:
    """Construct one of the stock hosts/patterns with a frozen vertex numbering.

    kind: cycle(n), path(length), complete(n), complete_bipartite(m, n),
    matching(n), complete_uniform(n, s). Underscores and dashes in ``kind``
    are interchangeable.
    """
    kind = kind.replace("-", "_")
    try:
        builder = _FAMILY_BUILDERS[kind]
    except KeyError:
        raise InvalidParameterError(f"unknown family kind {kind!r}") from None
    return builder(**params)


def _cycle(n: int) -> Hypergraph:
    n = _positive(n, "n")
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    edges = tuple(frozenset({i, (i + 1) % n}) for i in range(n))
    return Hypergraph(n, edges)


def _path(length: int) -> Hypergraph:
    # A path of length L has L edges and L+1 vertices.
    length = _positive(length, "length")
    edges = tuple(frozenset({i, i + 1}) for i in range(length))
    return Hypergraph(length + 1, edges)


def _complete(n: int) -> Hypergraph:
    n = _positive(n, "n")
    edges = tuple(frozenset(p) for p in combinations(range(n), 2))
    return Hypergraph(n, edges)


def _complete_bipartite(m: int, n: int) -> Hypergraph:
    m = _positive(m, "m")
    n = _positive(n, "n")
    edges = tuple(frozenset({u, m + v}) for u in range(m) for v in range(n))
    return Hypergraph(m + n, edges)


def _matching(n: int) -> Hypergraph:
    # n disjoint edges on 2n vertices.
    n = _positive(n, "n")
    edges = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(n))
    return Hypergraph(2 * n, edges)


def _complete_uniform(n: int, s: int) -> Hypergraph:
    n = _positive(n, "n")
    s = _positive(s, "s")
    if s > n:
        raise InvalidParameterError("uniformity s exceeds n")
    edges = tuple(frozenset(c) for c in combinations(range(n), s))
    return Hypergraph(n, edges)


_FAMILY_BUILDERS = {
    "cycle": _cycle,
    "path": _path,
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "matching": _matching,
    "complete_uniform": _complete_uniform,
}


def _positive(value, name: str) -> int:
    value = int(value)
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return value


def build_multigraph(base: Hypergraph, multiplicities) -> Hypergraph:
    """Replicate each base edge ``multiplicities[i]`` times (counts >= 1).

    ``multiplicities`` is a sequence or an {edge_id: count} map; missing map
    entries default to 1. Copies of base edge i are contiguous in the output,
    so parallel classes appear as id runs in base order.
    """
    if isinstance(multiplicities, dict):
        counts = [int(multiplicities.get(i, 1)) for i in range(base.n_edges)]
    else:
        counts = [int(c) for c in multiplicities]
        if len(counts) != base.n_edges:
            raise InvalidParameterError("multiplicity list length differs from edge count")
    if any(c < 1 for c in counts):
        raise InvalidParameterError("multiplicities must be >= 1")
    edges = []
    for i, e in enumerate(base.edges):
        edges.extend([e] * counts[i])
    return Hypergraph(base.n_vertices, tuple(edges), base.labels)


def doubled(base: Hypergraph) -> Hypergraph:
    return build_multigraph(base, [2] * base.n_edges)


def strip_isolated(h: Hypergraph) -> tuple[Hypergraph, tuple[int, ...]]:
    """Drop degree-0 vertices; also return old ids of the kept vertices."""
    kept = tuple(v for v in range(h.n_vertices) if h.degrees[v] > 0)
    index = {v: i for i, v in enumerate(kept)}
    edges = tuple(frozenset(index[v] for v in e) for e in h.edges)
    labels = tuple(h.labels[v] for v in kept) if h.labels is not None else None
    return Hypergraph(len(kept), edges, labels), kept


def add_isolated(h: Hypergraph, count: int) -> Hypergraph:
    """Append ``count`` fresh isolated vertices after the existing ones."""
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    labels = None
    if h.labels is not None:
        labels = h.labels + tuple(str(h.n_vertices + i) for i in range(count))
    return Hypergraph(h.n_vertices + count, h.edges, labels)


# --- restrictions ---

class RestrictionSpec(Record):
    """Pairwise-disjoint vertex sets selecting a restriction of a hypergraph."""

    _fields = ("parts",)

    def __init__(self, parts):
        parts = tuple(frozenset(p) for p in parts)
        seen: set[int] = set()
        for p in parts:
            if seen & p:
                raise InvalidParameterError("restriction parts must be pairwise disjoint")
            seen |= p
        self.__dict__["parts"] = parts


def induced_restriction(h: Hypergraph, spec: RestrictionSpec) -> Hypergraph:
    """Restrict ``h`` to the union of the parts.

    Keeps exactly the hyperedges contained in a single part (multiplicities
    preserved, original relative edge order). The surviving vertices are
    renumbered densely; ``labels`` records their original identities.
    """
    for p in spec.parts:
        for v in p:
            if not (0 <= v < h.n_vertices):
                raise InvalidParameterError(f"restriction vertex {v} out of range")
    union = sorted(set().union(*spec.parts)) if spec.parts else []
    index = {v: i for i, v in enumerate(union)}
    part_masks = [mask_of(p) for p in spec.parts]
    edges = []
    for e, m in zip(h.edges, h.edge_masks):
        if any(m & ~pm == 0 for pm in part_masks):
            edges.append(frozenset(index[v] for v in e))
    old_labels = h.labels if h.labels is not None else tuple(str(v) for v in range(h.n_vertices))
    return Hypergraph(len(union), tuple(edges), tuple(old_labels[v] for v in union))


# --- sign vectors and orderings ---

class SignVector(Record):
    """A vector over {-1, 0, +1}, not identically zero."""

    _fields = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(x) for x in entries)
        if any(x not in (-1, 0, 1) for x in entries):
            raise InvalidParameterError("sign vector entries must be -1, 0, or +1")
        if not any(entries):
            raise InvalidParameterError("sign vector must have a nonzero entry")
        self.__dict__["entries"] = entries

    def __len__(self):
        return len(self.entries)

    @property
    def plus_support(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.entries) if x == 1)

    @property
    def minus_support(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.entries) if x == -1)

    @classmethod
    def from_supports(cls, n: int, plus, minus) -> "SignVector":
        plus, minus = frozenset(plus), frozenset(minus)
        if plus & minus:
            raise InvalidParameterError("supports overlap")
        entries = [0] * n
        for v in plus:
            entries[v] = 1
        for v in minus:
            entries[v] = -1
        return cls(tuple(entries))


def alt_of_vector(entries) -> int:
    """Length of the longest alternating subsequence of the nonzero entries.

    Equals the number of maximal runs of equal nonzero signs; zero entries are
    transparent. An all-zero input gives 0.
    """
    count = 0
    last = 0
    for x in entries:
        if x != 0 and x != last:
            count += 1
            last = x
    return count


class LinearOrdering(Record):
    """A sequence listing the ground elements 0..n-1, each exactly once.

    Position j of a sign vector refers to ``sequence[j]``.
    """

    _fields = ("sequence",)

    def __init__(self, sequence):
        sequence = tuple(int(v) for v in sequence)
        if sorted(sequence) != list(range(len(sequence))):
            raise InvalidParameterError("ordering must be a permutation of 0..n-1")
        self.__dict__["sequence"] = sequence

    def __len__(self):
        return len(self.sequence)

    @classmethod
    def identity(cls, n: int) -> "LinearOrdering":
        return cls(tuple(range(n)))

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.sequence)
        for j, v in enumerate(self.sequence):
            inv[v] = j
        return tuple(inv)


def apply_ordering(x: SignVector, sigma: LinearOrdering) -> tuple[frozenset[int], frozenset[int]]:
    """Signed supports of ``x`` under ``sigma``: position j lands on sigma[j].

    Returns (plus side, minus side) as ground-element sets.
    """
    if len(x) != len(sigma):
        raise InvalidParameterError("sign vector and ordering lengths differ")
    plus = frozenset(sigma.sequence[j] for j, s in enumerate(x.entries) if s == 1)
    minus = frozenset(sigma.sequence[j] for j, s in enumerate(x.entries) if s == -1)
    return plus, minus


# --- DIMACS graph format ---

def to_dimacs(g: Hypergraph) -> str:
    """Serialize a 2-uniform hypergraph in DIMACS edge format (1-indexed)."""
    if not g.is_graph:
        raise InvalidParameterError("DIMACS export needs a 2-uniform hypergraph")
    lines = [f"p edge {g.n_vertices} {g.n_edges}"]
    for e in g.edges:
        u, v = sorted(e)
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Hypergraph:
    n = None
    declared = None
    edges: list[frozenset[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise InvalidParameterError(f"bad DIMACS problem line: {line!r}")
            n, declared = _dimacs_ints(parts[2:], line)
        elif parts[0] == "e":
            if n is None:
                raise InvalidParameterError("DIMACS edge before problem line")
            if len(parts) != 3:
                raise InvalidParameterError(f"bad DIMACS edge line: {line!r}")
            u, v = _dimacs_ints(parts[1:], line)
            edges.append(frozenset({u - 1, v - 1}))
        else:
            raise InvalidParameterError(f"unrecognized DIMACS line: {line!r}")
    if n is None:
        raise InvalidParameterError("missing DIMACS problem line")
    if declared is not None and declared != len(edges):
        raise InvalidParameterError("DIMACS edge count mismatch")
    return Hypergraph(n, tuple(edges))


def _dimacs_ints(fields: list[str], line: str) -> list[int]:
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise InvalidParameterError(f"non-integer field in DIMACS line: {line!r}")
    return [int(f) for f in fields]
