"""General Kneser hypergraphs and the classic named instances.

The r-th Kneser power of a representation hypergraph H has one vertex per
hyperedge of H and one r-uniform hyperedge per r-set of pairwise disjoint
hyperedges of H. With r=2 this is the disjointness graph. Stock families
(Kneser, stable/Schrijver, circular complete, low-intersection, partial
permutation graphs) are built twice: once through a representation and the
occurrence machinery, once from their textbook definition, with an explicit
vertex bijection tying the two together.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .errors import InvalidParameterError, SizeCapError
from .hyperstruct import Hypergraph, Record, build_named_family
from .patterns import PatternFamily, find_isomorphism, pattern_hypergraph

DEFAULT_GRAPH_CAP = 4096
DEFAULT_POWER_CAP = 512


class KneserInstance(Record):
    _fields = ("representation", "r", "result")

    def __init__(self, representation: Hypergraph, r: int, result: Hypergraph):
        self.__dict__.update(representation=representation, r=r, result=result)


def kneser_power(rep: Hypergraph, r: int = 2, cap: int | None = None) -> KneserInstance:
    """Disjointness structure of the representation's hyperedges.

    Vertices of the result are rep edge ids; hyperedges are the r-sets of
    pairwise disjoint rep edges, emitted in lexicographic id order. Isolated
    rep vertices never matter here, and rep edges that meet everything
    simply end up isolated in the result.
    """
    if r < 2:
        raise InvalidParameterError("kneser_power needs r >= 2")
    if cap is None:
        cap = DEFAULT_GRAPH_CAP if r == 2 else DEFAULT_POWER_CAP
    m = rep.n_edges
    if m > cap:
        raise SizeCapError(f"representation has {m} edges, above the cap {cap}")
    masks = rep.edge_masks
    edges: list[frozenset[int]] = []
    if r == 2:
        for i in range(m):
            for j in range(i + 1, m):
                if masks[i] & masks[j] == 0:
                    edges.append(frozenset({i, j}))
    else:
        chosen: list[int] = []

        def rec(start: int, union: int):
            if len(chosen) == r:
                edges.append(frozenset(chosen))
                return
            for j in range(start, m):
                if masks[j] & union == 0:
                    chosen.append(j)
                    rec(j + 1, union | masks[j])
                    chosen.pop()

        rec(0, 0)
    return KneserInstance(rep, r, Hypergraph(m, tuple(edges)))


def kneser_of_family(host: Hypergraph, family: PatternFamily, r: int = 2,
                     cap: int | None = None) -> KneserInstance:
    """Kneser power of the occurrence hypergraph of (host, family)."""
    return kneser_power(pattern_hypergraph(host, family), r, cap)


# --- named instances ---

class NamedKneser(Record):
    """``bijection[v]`` is the vertex of ``direct`` for vertex v of ``instance.result``."""

    _fields = ("kind", "params", "host", "family", "instance", "direct", "bijection")

    def __init__(self, kind: str, params: tuple[tuple[str, int], ...], host: Hypergraph,
                 family: PatternFamily, instance: KneserInstance, direct: Hypergraph,
                 bijection: tuple[int, ...]):
        self.__dict__.update(kind=kind, params=params, host=host, family=family,
                             instance=instance, direct=direct, bijection=bijection)

    @property
    def graph(self) -> Hypergraph:
        return self.instance.result


def build_named_kneser(kind: str, **params) -> NamedKneser:
    """kind: kneser(n,k), schrijver(n,k), circular(n,d),
    generalized_kneser(n,k,s), permutation(m,n,r)."""
    kind = kind.replace("-", "_")
    try:
        builder = _NAMED_BUILDERS[kind]
    except KeyError:
        raise InvalidParameterError(f"unknown named Kneser kind {kind!r}") from None
    return builder(**params)


def _assemble(kind, params, host, family, occ_key, direct_vertices, direct_adjacent):
    """Shared plumbing: rep side via occurrences, direct side from a predicate.

    occ_key maps an occurrence edge-id set to the canonical key of the direct
    vertex it represents; direct_vertices is the canonically ordered key list;
    direct_adjacent decides adjacency between two keys.
    """
    rep = pattern_hypergraph(host, family)
    instance = kneser_power(rep, 2)
    index = {key: i for i, key in enumerate(direct_vertices)}
    labels = tuple(_key_label(k) for k in direct_vertices)
    d_edges = [
        frozenset({i, j})
        for i in range(len(direct_vertices))
        for j in range(i + 1, len(direct_vertices))
        if direct_adjacent(direct_vertices[i], direct_vertices[j])
    ]
    direct = Hypergraph(len(direct_vertices), tuple(d_edges), labels)
    bijection = tuple(index[occ_key(e)] for e in rep.edges)
    if sorted(bijection) != list(range(direct.n_vertices)):
        raise InvalidParameterError("representation does not biject onto the direct form")
    return NamedKneser(
        kind=kind,
        params=tuple(sorted(params.items())),
        host=host,
        family=family,
        instance=instance,
        direct=direct,
        bijection=bijection,
    )


def _key_label(key) -> str:
    return ",".join(map(str, key))


def _build_kneser(n: int, k: int) -> NamedKneser:
    _require(n >= 2 * k and k >= 1, "kneser needs n >= 2k >= 2")
    host = build_named_family("matching", n=n)
    family = PatternFamily((build_named_family("matching", n=k),))
    keys = [tuple(c) for c in combinations(range(n), k)]
    return _assemble(
        "kneser", {"n": n, "k": k}, host, family,
        occ_key=lambda e: tuple(sorted(e)),
        direct_vertices=keys,
        direct_adjacent=lambda a, b: not set(a) & set(b),
    )


def _two_stable(n: int, k: int):
    for c in combinations(range(n), k):
        if all(2 <= c[i + 1] - c[i] for i in range(len(c) - 1)) and (
            len(c) < 2 or c[-1] - c[0] <= n - 2
        ):
            yield c


def _build_schrijver(n: int, k: int) -> NamedKneser:
    _require(n >= 2 * k and k >= 1, "schrijver needs n >= 2k >= 2")
    host = build_named_family("cycle", n=n)
    family = PatternFamily((build_named_family("matching", n=k),))
    keys = list(_two_stable(n, k))
    return _assemble(
        "schrijver", {"n": n, "k": k}, host, family,
        occ_key=lambda e: tuple(sorted(e)),
        direct_vertices=keys,
        direct_adjacent=lambda a, b: not set(a) & set(b),
    )


def _build_circular(n: int, d: int) -> NamedKneser:
    _require(d >= 1 and n >= 2 * d, "circular needs n >= 2d >= 2")
    host = build_named_family("cycle", n=n)
    family = PatternFamily((build_named_family("path", length=d),))

    def start_of(e: frozenset[int]) -> tuple[int]:
        (s,) = [i for i in e if (i - 1) % n not in e]
        return (s,)

    return _assemble(
        "circular", {"n": n, "d": d}, host, family,
        occ_key=start_of,
        direct_vertices=[(i,) for i in range(n)],
        direct_adjacent=lambda a, b: d <= abs(a[0] - b[0]) <= n - d,
    )


def _build_generalized_kneser(n: int, k: int, s: int) -> NamedKneser:
    _require(0 <= s < k <= n, "generalized_kneser needs n >= k > s >= 0")
    host = build_named_family("complete_uniform", n=n, s=s + 1)
    family = PatternFamily((build_named_family("complete_uniform", n=k, s=s + 1),))
    subset_of = {i: set(e) for i, e in enumerate(host.edges)}

    def union_key(e: frozenset[int]) -> tuple[int, ...]:
        out: set[int] = set()
        for i in e:
            out |= subset_of[i]
        return tuple(sorted(out))

    keys = [tuple(c) for c in combinations(range(n), k)]
    return _assemble(
        "generalized_kneser", {"n": n, "k": k, "s": s}, host, family,
        occ_key=union_key,
        direct_vertices=keys,
        direct_adjacent=lambda a, b: len(set(a) & set(b)) <= s,
    )


def _build_permutation(m: int, n: int, r: int) -> NamedKneser:
    _require(1 <= r <= min(m, n), "permutation needs 1 <= r <= min(m, n)")
    host = build_named_family("complete_bipartite", m=m, n=n)
    family = PatternFamily((build_named_family("matching", n=r),))

    def pairs_key(e: frozenset[int]) -> tuple[tuple[int, int], ...]:
        # host edge id u*n + v stands for the pair (row u, column v)
        return tuple(sorted((i // n, i % n) for i in e))

    keys = sorted(
        tuple(sorted(zip(rows, cols)))
        for rows in combinations(range(m), r)
        for cols in permutations(range(n), r)
    )

    def intersecting(a, b) -> bool:
        return bool(set(a) & set(b))

    return _assemble(
        "permutation", {"m": m, "n": n, "r": r}, host, family,
        occ_key=pairs_key,
        direct_vertices=keys,
        direct_adjacent=lambda a, b: not intersecting(a, b),
    )


def _require(condition: bool, message: str):
    if not condition:
        raise InvalidParameterError(message)


_NAMED_BUILDERS = {
    "kneser": _build_kneser,
    "schrijver": _build_schrijver,
    "circular": _build_circular,
    "generalized_kneser": _build_generalized_kneser,
    "permutation": _build_permutation,
}


def verify_representation(kind: str, cap: int = 16, **params) -> tuple[bool, dict]:
    """Check that the representation-built graph matches the direct form.

    Validates the explicit construction bijection edge-for-edge in both
    directions, then cross-checks with a from-scratch exhaustive isomorphism
    search. Instances above ``cap`` vertices are refused (the exhaustive
    search is factorial); pass a larger cap deliberately if needed.
    """
    named = build_named_kneser(kind, **params)
    g = named.graph
    if g.n_vertices > cap:
        raise SizeCapError(
            f"instance has {g.n_vertices} vertices, above the verification cap {cap}"
        )
    pi = named.bijection
    lhs = {frozenset({pi[u], pi[v]}) for u, v in (sorted(e) for e in g.edges)}
    rhs = set(named.direct.edges)
    witness: dict = {
        "kind": kind,
        "params": dict(named.params),
        "bijection": list(pi),
        "direct_labels": list(named.direct.labels or ()),
    }
    if lhs != rhs:
        witness["mismatch"] = {
            "missing": sorted(map(sorted, rhs - lhs)),
            "extra": sorted(map(sorted, lhs - rhs)),
        }
        return False, witness
    if find_isomorphism(g, named.direct) is None:
        witness["mismatch"] = {"isomorphism_search": "failed"}
        return False, witness
    return True, witness
