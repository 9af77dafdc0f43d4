"""Core value types: hypergraphs, sign vectors, orderings.

Vertices are always the dense range 0..n-1. Hyperedges are indexed by their
position in the edge list; two edges with the same member set but different
ids are distinct parallel copies, which is how multigraphs and general
multihypergraphs are represented. Set arithmetic is done on Python ints used
as bitsets, one bit per vertex.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations, compress, count
from math import comb

from .errors import InvalidParameterError, SizeCapError

# Hard ceiling for the container itself, sized so that Kneser powers at
# their documented caps still fit. Bitset-heavy exact solvers apply their
# own much lower caps (64 by default, overridable); Python-int masks keep
# working at any width, just not quickly.
MAX_VERTICES = 4096

# Edge ceiling of the named families, checked before any edge is made.
# complete(1024), 523,776 edges, is the largest complete host under it; its
# `build` prints 5.2 MB of JSON in about 2 s and 180 MB on a 2-core VM.
MAX_EDGES = 1 << 19


# bin() digits "0"/"1" to the bytes 0/1, a selector for itertools.compress
_BITS = bytes.maketrans(b"01", b"\0\1")


def _check_order(n: int) -> int:
    """``n`` itself if a hypergraph may have that many vertices."""
    if not 0 <= n <= MAX_VERTICES:
        raise InvalidParameterError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    return n


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


def adjacency_of(n: int, edge_masks) -> list[int]:
    """Per-vertex neighbour masks on 0..n-1 of the two-bit ``edge_masks``."""
    adj = [0] * n
    for e in edge_masks:
        low = e & -e
        adj[low.bit_length() - 1] |= e ^ low
        adj[(e ^ low).bit_length() - 1] |= low
    return adj


class Record:
    """Base of the immutable value records.

    A subclass names its fields in ``_fields`` and stores them in the
    instance ``__dict__`` from its own ``__init__``, after its checks.
    Equality (same class, equal fields), hashing and repr run over the
    fields in that order, as a frozen dataclass's do, and assigning or
    deleting any attribute raises ``AttributeError``. ``cached_property``
    and pickle write the ``__dict__`` directly, so both keep working.
    A field may also be a ``cached_property`` that a private constructor
    leaves unset (the edges of ``Hypergraph._from_adjacency``): the three
    read the fields with ``getattr``, so such a field is made on its first
    comparison, hash or repr and then compares as a stored one would.

    Plain classes instead of dataclasses: each frozen dataclass execs about
    six generated methods when its module is imported, about 1 ms a class,
    and every CLI call starts a fresh interpreter.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

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

    ``__init__`` stores the edges, whose members must be ints. A simple graph
    made by ``_from_adjacency``, as every r = 2 Kneser power is, holds one
    neighbour bitmask per vertex instead, and makes its ``edges`` tuple (the
    pairs u < v in lexicographic order) only when something reads it. Until
    then the edge count, edge masks, adjacency masks, JSON and DIMACS forms
    come from those masks; equality, hash and repr read ``edges`` and so
    make it (see Record).

    Both kinds are written by one row writer: ``canonical_json`` and
    ``to_dimacs`` read ``_rows``, one row per stored edge or per vertex of
    a row-built graph. ``to_json_dict`` is for documents that embed a
    hypergraph; ``tests/test_hyperstruct.py::test_row_writer_matches_canonical_dumps``
    pins ``canonical_json`` to ``canonical_dumps`` of it, byte for byte.
    """

    _fields = ("n_vertices", "edges", "labels")

    def __init__(self, n_vertices: int, edges, labels: tuple[str, ...] | None = None):
        _check_order(n_vertices)
        edges = tuple(frozenset(e) for e in edges)
        for i, e in enumerate(edges):
            if not e:
                raise InvalidParameterError(f"edge {i} is empty")
            for v in e:
                if type(v) is not int:
                    raise InvalidParameterError(
                        f"edge {i} has vertex {v!r} of type {type(v).__name__}, not int")
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

    @classmethod
    def _from_adjacency(cls, n_vertices: int, adjacency) -> "Hypergraph":
        """The simple graph on 0..n-1 in which v's neighbours are the bits of
        ``adjacency[v]``; the masks must be symmetric and loop-free."""
        g = cls.__new__(cls)
        g.__dict__.update(n_vertices=_check_order(n_vertices), labels=None,
                          _adjacency=tuple(adjacency), is_graph=True, is_simple_graph=True,
                          n_edges=sum(a.bit_count() for a in adjacency) // 2)
        return g

    @cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        # reached only by a graph from _from_adjacency; __init__ stores the edges
        return tuple(map(frozenset, self._sorted_members()))

    def _rows(self):
        """Yield the edges, in edge order, as rows ``(head, tails)``: a row
        stands for the edges ``head + [t]``, t in ``tails``, each ascending.

        A ``_from_adjacency`` graph gives one row per vertex u that has
        neighbours above u, ``([u], those neighbours)``, read off u's mask
        with no list per edge; stored edges give one row each.
        """
        if "edges" in self.__dict__:
            for members in self._sorted_members():
                yield members[:-1], members[-1:]
            return
        for u, row in enumerate(self._adjacency):
            above = row >> u + 1 << u + 1
            if above:
                # bin() reversed puts bit v at index v; compress keeps the set ones
                yield [u], list(compress(count(), bin(above)[:1:-1].encode().translate(_BITS)))

    def _sorted_members(self):
        """Each edge's members as an ascending list, in edge order; a
        ``_from_adjacency`` graph's from its rows, without making its edges."""
        if "edges" in self.__dict__:
            return (sorted(e) for e in self.edges)
        return ([u, v] for [u], tails in self._rows() for v in tails)

    @cached_property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in self._sorted_members())

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

    @cached_property
    def is_graph(self) -> bool:
        return all(len(e) == 2 for e in self.edges)

    @cached_property
    def is_simple_graph(self) -> bool:
        return self.is_graph and len(set(self.edges)) == self.n_edges

    @cached_property
    def parallel_classes(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids grouped by member set, classes ordered by sorted members."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, e in enumerate(self.edges):
            groups.setdefault(tuple(sorted(e)), []).append(i)
        return tuple(tuple(groups[k]) for k in sorted(groups))

    def adjacency_masks(self) -> tuple[int, ...]:
        """For a graph: per-vertex neighbor bitmasks, one tuple built once
        and shared by every caller. Errors on non-graphs."""
        if not self.is_graph:
            raise InvalidParameterError("adjacency masks need a 2-uniform hypergraph")
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[int, ...]:
        return tuple(adjacency_of(self.n_vertices, self.edge_masks))

    # --- serialization ---

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n_vertices,
            "edges": list(self._sorted_members()),
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    def canonical_json(self) -> str:
        """``canonical_dumps(self.to_json_dict())``, written one string per
        row of edges instead of one list per edge, and joined once. Members
        are ints (checked by ``__init__``), so ``str`` prints them as
        ``json.dumps`` would."""
        parts = []
        for head, tails in self._rows():
            prefix = "[" + "".join(f"{h}," for h in head)
            parts += (prefix, ("]," + prefix).join(map(str, tails)), "],")
        if parts:
            parts[-1] = "]"  # no comma after the last edge
        labels = "" if self.labels is None else ',"labels":' + canonical_dumps(list(self.labels))
        return "".join(['{"edges":[', *parts, "]", labels, ',"n":', str(self.n_vertices), "}"])

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


def _require(doc, keys, what: str, scalar: type | None = None) -> None:
    """A malformed document is bad input (exit 2), not a failed verification.

    With ``scalar``, each of ``keys`` must also hold a value of that type.
    """
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"malformed document: {what} is not a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise InvalidParameterError(f"malformed document: {what} lacks " + ", ".join(missing))
    for key in keys:
        if scalar is not None and type(doc[key]) is not scalar:
            raise InvalidParameterError(
                f"malformed document: in {what}, {key} is not of type {scalar.__name__}")


def _ints(value, what: str) -> list[int]:
    """``value`` itself if it is a list of ints; anything else is bad input."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InvalidParameterError(f"{what} is not a list of ints")
    return value


def canonical_dumps(doc) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace.

    Byte-identical round trips rely on every document being written by this
    function, with one exception: ``Hypergraph.canonical_json`` writes a
    hypergraph's text row by row itself, and
    ``tests/test_hyperstruct.py::test_row_writer_matches_canonical_dumps``
    pins it byte for byte to ``canonical_dumps(h.to_json_dict())``.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --- named families ---

def build_named_family(kind: str, **params) -> Hypergraph:
    """Construct one of the stock hosts/patterns with a frozen vertex numbering.

    kind: cycle(n), path(length), complete(n), complete_bipartite(m, n),
    matching(n), complete_uniform(n, s). Underscores and dashes in ``kind``
    are interchangeable. Each builder checks its vertex count against
    MAX_VERTICES, and the ones that can exceed it its edge count against
    MAX_EDGES (SizeCapError), before it makes any edge.
    """
    kind = kind.replace("-", "_")
    try:
        builder = _FAMILY_BUILDERS[kind]
    except KeyError:
        raise InvalidParameterError(f"unknown family kind {kind!r}") from None
    return builder(**params)


def _cycle(n: int) -> Hypergraph:
    n = _check_order(_positive(n, "n"))
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    edges = tuple(frozenset({i, (i + 1) % n}) for i in range(n))
    return Hypergraph(n, edges)


def _path(length: int) -> Hypergraph:
    # A path of length L has L edges and L+1 vertices.
    length = _positive(length, "length")
    _check_order(length + 1)
    edges = tuple(frozenset({i, i + 1}) for i in range(length))
    return Hypergraph(length + 1, edges)


def _complete(n: int) -> Hypergraph:
    n = _check_order(_positive(n, "n"))
    _check_edges(comb(n, 2), f"complete({n})")
    edges = tuple(frozenset(p) for p in combinations(range(n), 2))
    return Hypergraph(n, edges)


def _complete_bipartite(m: int, n: int) -> Hypergraph:
    m = _positive(m, "m")
    n = _positive(n, "n")
    _check_order(m + n)
    _check_edges(m * n, f"complete_bipartite({m}, {n})")
    edges = tuple(frozenset({u, m + v}) for u in range(m) for v in range(n))
    return Hypergraph(m + n, edges)


def _matching(n: int) -> Hypergraph:
    # n disjoint edges on 2n vertices.
    n = _positive(n, "n")
    _check_order(2 * n)
    edges = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(n))
    return Hypergraph(2 * n, edges)


def _complete_uniform(n: int, s: int) -> Hypergraph:
    n = _check_order(_positive(n, "n"))
    s = _positive(s, "s")
    if s > n:
        raise InvalidParameterError("uniformity s exceeds n")
    _check_edges(comb(n, s), f"complete_uniform({n}, {s})")
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


def _check_edges(count: int, what: str) -> None:
    if count > MAX_EDGES:
        raise SizeCapError(f"{what} would have {count} edges, above the ceiling {MAX_EDGES}")


def _positive(value, name: str) -> int:
    value = int(value)
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return value


def build_multigraph(base: Hypergraph, multiplicities) -> Hypergraph:
    """Replicate each base edge ``multiplicities[i]`` times (counts >= 1).

    Copies of base edge i are contiguous in the output, so parallel classes
    appear as id runs in base order.
    """
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
    for [u], tails in g._rows():
        prefix = f"e {u + 1} "
        lines.append(prefix + ("\n" + prefix).join(str(v + 1) for v in tails))
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
