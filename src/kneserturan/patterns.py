"""Occurrence enumeration: where does a pattern sit inside a host?

An occurrence of a pattern F in a host H is a set of host edge ids whose
edge multiset, together with the vertices it spans, is isomorphic to F.
Occurrences are the vertices of general Kneser hypergraphs and the forbidden
configurations of the Turan-type searches, so everything downstream leans on
this module being exactly right about multiset semantics: parallel host
edges have distinct ids and can jointly match a multigraph pattern, while a
single simple pattern never matches two parallel copies of the same edge
plus anything else, because duplicated member sets are not isomorphic to
distinct ones.

The occurrence search finds each vertex map once rather than once per
automorphism of the pattern: the automorphisms of each pattern are computed
once, and Grochow and Kellis's symmetry-breaking conditions
image[a] < image[b], read off a stabilizer chain of that group, keep exactly
one map of each orbit. Every occurrence is still found, so the returned
occurrences are the same as those of the search over all embeddings.

The occurrence hypergraph of a host and family is memoized in memory for
the life of the process; nothing is kept between processes.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations

from .errors import InvalidParameterError, SizeCapError
from .hyperstruct import Hypergraph, Record, canonical_dumps, strip_isolated

DEFAULT_OCCURRENCE_CAP = 2_000_000
DEFAULT_HOST_EDGE_CAP = 4096


class PatternFamily(Record):
    """A finite family of patterns. Members may not have isolated vertices."""

    _fields = ("members",)

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise InvalidParameterError("pattern family must be nonempty")
        for i, f in enumerate(members):
            if f.n_edges == 0:
                raise InvalidParameterError(f"pattern {i} has no edges")
            if f.isolated_vertices:
                raise InvalidParameterError(
                    f"pattern {i} has isolated vertices {sorted(f.isolated_vertices)}; "
                    "strip them first (they never affect occurrences)"
                )
        self.__dict__["members"] = members

    def iso_representatives(self) -> tuple[int, ...]:
        """Lowest member index of each isomorphism class, in index order."""
        reps: list[int] = []
        for i, f in enumerate(self.members):
            if not any(are_isomorphic(self.members[r], f) for r in reps):
                reps.append(i)
        return tuple(reps)


class PatternOccurrence(Record):
    _fields = ("pattern_index", "edge_ids")

    def __init__(self, pattern_index: int, edge_ids: frozenset[int]):
        self.__dict__.update(pattern_index=pattern_index, edge_ids=edge_ids)

    def to_json_dict(self) -> dict:
        return {"pattern": self.pattern_index, "edges": sorted(self.edge_ids)}


def _vertex_signature(h: Hypergraph) -> list[tuple[int, tuple[int, ...]]]:
    """Per-vertex fingerprint: (degree, sorted incident edge sizes)."""
    sizes: list[list[int]] = [[] for _ in range(h.n_vertices)]
    for e in h.edges:
        for v in e:
            sizes[v].append(len(e))
    return [(h.degrees[v], tuple(sorted(sizes[v]))) for v in range(h.n_vertices)]


def are_isomorphic(a: Hypergraph, b: Hypergraph, ignore_isolated: bool = False) -> bool:
    """Exact multihypergraph isomorphism by backtracking vertex bijection."""
    if ignore_isolated:
        a, _ = strip_isolated(a)
        b, _ = strip_isolated(b)
    return find_isomorphism(a, b) is not None


def find_isomorphism(a: Hypergraph, b: Hypergraph) -> tuple[int, ...] | None:
    """A vertex bijection a->b carrying edge multiset onto edge multiset."""
    return next(_isomorphisms(a, b), None)


def _isomorphisms(a: Hypergraph, b: Hypergraph):
    """Yield every vertex bijection a->b carrying edge multiset onto edge
    multiset, by backtracking in a fixed order."""
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return
    if sorted(len(e) for e in a.edges) != sorted(len(e) for e in b.edges):
        return
    sig_a = _vertex_signature(a)
    sig_b = _vertex_signature(b)
    if sorted(sig_a) != sorted(sig_b):
        return
    n = a.n_vertices
    edges_b = Counter(b.edges)
    # rarest signature first keeps the branching factor down
    sig_count = Counter(sig_a)
    order = sorted(range(n), key=lambda v: (sig_count[sig_a[v]], v))
    image = [-1] * n
    used_b = [False] * n
    # the a-edges whose last vertex in ``order`` is mapped at each depth,
    # each distinct one once with its multiplicity
    position = {v: d for d, v in enumerate(order)}
    completed: list[Counter] = [Counter() for _ in range(n)]
    for e in a.edges:
        completed[max(position[v] for v in e)][e] += 1
    completed_at = [tuple(c.items()) for c in completed]

    def rec(depth: int):
        if depth == n:
            # each a-edge landed on a b-edge, with multiplicities, and the
            # edge counts are equal, so the edge multisets are
            yield tuple(image)
            return
        v = order[depth]
        for w in range(n):
            if used_b[w] or sig_b[w] != sig_a[v]:
                continue
            image[v] = w
            used_b[w] = True
            # only the a-edges completed at this depth need a look: their
            # images hold w, which the images of those checked at earlier
            # depths do not
            if all(edges_b[frozenset([image[u] for u in e])] >= c
                   for e, c in completed_at[depth]):
                yield from rec(depth + 1)
            used_b[w] = False
            image[v] = -1

    yield from rec(0)


@lru_cache(maxsize=256)
def _automorphisms(f: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Every vertex permutation of ``f`` that keeps its edge multiset."""
    return tuple(_isomorphisms(f, f))


@lru_cache(maxsize=256)
def _symmetry_conditions(f: Hypergraph) -> tuple[tuple[int, int], ...]:
    """Pairs (a, b) such that exactly one automorphism alpha of ``f`` makes
    image[alpha[a]] < image[alpha[b]] hold for every pair, whatever the
    injective image.

    Grochow and Kellis's symmetry breaking (RECOMB 2007), on a stabilizer
    chain: the lowest vertex v that some automorphism of the current group
    moves must map below every other vertex of its orbit; then the group
    shrinks to the automorphisms fixing v, until it is trivial.
    """
    group = _automorphisms(f)
    conditions: list[tuple[int, int]] = []
    while True:
        moved = [v for v in range(f.n_vertices) if any(g[v] != v for g in group)]
        if not moved:
            return tuple(conditions)
        v = moved[0]
        conditions.extend((v, w) for w in sorted({g[v] for g in group}) if w != v)
        group = [g for g in group if g[v] == v]


def _pattern_edge_order(f: Hypergraph) -> list[int]:
    """Edges by descending size, then descending vertex-incidence weight.

    Placing the heaviest, most entangled pattern edges first makes the
    forward checks bite early.
    """
    weight = [sum(f.degrees[v] for v in e) for e in f.edges]
    return sorted(range(f.n_edges), key=lambda i: (-len(f.edges[i]), -weight[i], i))


def _occurrences_of(host: Hypergraph, f: Hypergraph, cap: int, found_total: int) -> set[frozenset[int]]:
    """All edge-id sets of subhypergraphs of ``host`` isomorphic to ``f``.

    The search maps pattern edges in turn onto unused host edges, extending
    an injective vertex map. Two vertex maps that realise the same edge-id
    set differ by an automorphism of ``f`` (patterns have no isolated
    vertices), and the symmetry conditions hold for exactly one map of each
    such orbit, so every set is still reached while each vertex map is
    walked once instead of |Aut(f)| times. A condition is checked at the
    first pattern edge that maps both of its vertices. Parallel host edges
    can still realise one set several ways; ``out`` collapses those.
    """
    order = _pattern_edge_order(f)
    pat_edges = [tuple(sorted(f.edges[i])) for i in order]
    first_edge: dict[int, int] = {}  # pattern vertex -> first edge position
    for t, pe in enumerate(pat_edges):
        for v in pe:
            first_edge.setdefault(v, t)
    checks: list[list[tuple[int, int]]] = [[] for _ in pat_edges]
    for a, b in _symmetry_conditions(f):
        checks[max(first_edge[a], first_edge[b])].append((a, b))
    host_by_size: dict[int, list[int]] = {}
    for j, e in enumerate(host.edges):
        host_by_size.setdefault(len(e), []).append(j)

    image: dict[int, int] = {}   # pattern vertex -> host vertex
    used_hv: set[int] = set()    # host vertices already images
    chosen: list[int] = []
    used_edges: set[int] = set()
    out: set[frozenset[int]] = set()

    def rec(t: int):
        if t == len(pat_edges):
            out.add(frozenset(chosen))
            if found_total + len(out) > cap:
                raise SizeCapError(
                    f"occurrence count exceeds cap {cap}; raise the cap explicitly"
                )
            return
        pe = pat_edges[t]
        mapped = [v for v in pe if v in image]
        free = [v for v in pe if v not in image]
        need = {image[v] for v in mapped}
        conds = checks[t]
        for j in host_by_size.get(len(pe), ()):
            if j in used_edges:
                continue
            he = host.edges[j]
            if not need <= he:
                continue
            # host members already claimed by vertices outside this pattern
            # edge would break injectivity
            leftover = he - need
            if leftover & used_hv:
                continue
            used_edges.add(j)
            chosen.append(j)
            for assign in permutations(sorted(leftover)):
                for v, w in zip(free, assign):
                    image[v] = w
                    used_hv.add(w)
                if all(image[a] < image[b] for a, b in conds):
                    rec(t + 1)
                for v in free:
                    used_hv.discard(image[v])
                    del image[v]
            chosen.pop()
            used_edges.discard(j)

    rec(0)
    return out


def enumerate_occurrences(
    host: Hypergraph,
    family: PatternFamily,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    host_edge_cap: int = DEFAULT_HOST_EDGE_CAP,
) -> tuple[PatternOccurrence, ...]:
    """Every occurrence of every family member in the host, deduplicated.

    One entry per distinct edge-id set per pattern isomorphism class
    (isomorphic members are collapsed to the lowest index). Output sorted by
    sorted edge-id tuple, then pattern index. Exceeding the caps raises
    SizeCapError; there is no silent truncation.
    """
    if host.n_edges > host_edge_cap:
        raise SizeCapError(
            f"host has {host.n_edges} edges, above the cap {host_edge_cap}"
        )
    occs: list[PatternOccurrence] = []
    total = 0
    for p in family.iso_representatives():
        sets = _occurrences_of(host, family.members[p], occurrence_cap, total)
        total += len(sets)
        occs.extend(PatternOccurrence(p, s) for s in sets)
    occs.sort(key=lambda o: (tuple(sorted(o.edge_ids)), o.pattern_index))
    return tuple(occs)


def occurrences_to_jsonl(occs) -> str:
    return "".join(canonical_dumps(o.to_json_dict()) + "\n" for o in occs)


@lru_cache(maxsize=256)
def _pattern_hypergraph_cached(host: Hypergraph, family: PatternFamily) -> Hypergraph:
    occs = enumerate_occurrences(host, family)
    edge_sets = sorted({frozenset(o.edge_ids) for o in occs}, key=sorted)
    return Hypergraph(host.n_edges, tuple(edge_sets))


def pattern_hypergraph(host: Hypergraph, family: PatternFamily) -> Hypergraph:
    """The hypergraph whose vertices are host edge ids and whose edges are
    the occurrence id-sets (duplicates across patterns collapsed).

    Host edges covered by no occurrence remain as isolated vertices, which is
    what makes them count toward independence there. Results are memoized in
    memory for the life of the process, keyed on the host and family
    themselves: equal values share an entry, and the same edges in another
    order are another host, with their own edge ids.
    """
    return _pattern_hypergraph_cached(host, family)


def family_of(*hypergraphs: Hypergraph) -> PatternFamily:
    return PatternFamily(tuple(hypergraphs))
