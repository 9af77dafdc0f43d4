"""Turan-style maxima, alternating colorings, and alternation certificates.

turan_number finds the largest occurrence-free spanning subhypergraph, and
turan_coloring colors the disjointness graph of the occurrences from such a
set with |E| - ex colors, the paper's upper bound on its chromatic number. The
alternating variants color a subsequence of hyperedges red/blue so colors
strictly alternate along a chosen ordering; ex_alt wants both color classes
occurrence-free, ex_salt settles for one. Minimizing those over orderings,
and the companion sign-vector quantities on a representation (alt_sigma_level,
salt_sigma), produce lower-bound certificates for chromatic numbers of
disjointness graphs that a verifier can re-check from the serialized record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations, compress, permutations, product
from operator import itemgetter

from .errors import InvalidParameterError, SizeCapError, VerificationError
from .exactsolve import ColoringCertificate, check_palette, check_vertex_set, dsatur
from .hyperstruct import (
    Hypergraph,
    LinearOrdering,
    Record,
    SignVector,
    _ints,
    _require,
    alt_of_vector,
    apply_ordering,
    bits_of,
    mask_of,
)
from .kernels import graph_color_decision, max_independent_set
from .patterns import PatternFamily, _automorphisms, pattern_hypergraph

DEFAULT_TURAN_CAP = 24
DEFAULT_ORDERING_CAP = 8
DEFAULT_ALT_CAP = 20
# chains _least_alternating keeps: one or two leave more orderings to search,
# many more make the orderings that hold none slower to pass
_CHAINS_KEPT = 4
BRUTE_TURAN_CAP = 16
BRUTE_CERTIFICATE_CAP = 10


# --- report types ---

class AlternatingColoring(Record):
    """A partial red/blue coloring that strictly alternates along an ordering.

    ``colored`` pairs hyperedge ids with "red" or "blue", listed in the order
    the ids occur in ``ordering``; consecutive entries must differ in color.
    """

    _fields = ("ordering", "colored")

    def __init__(self, ordering: LinearOrdering, colored):
        colored = tuple((e, c) for e, c in colored)
        pos = ordering.inverse()
        last_pos = -1
        last_color = None
        for e, c in colored:
            if c not in ("red", "blue"):
                raise InvalidParameterError(f"unknown color {c!r}")
            if not (0 <= e < len(ordering)):
                raise InvalidParameterError(f"colored id {e} outside the ordering")
            if pos[e] <= last_pos:
                raise InvalidParameterError("colored ids must follow the ordering")
            if c == last_color:
                raise InvalidParameterError("consecutive colored ids share a color")
            last_pos, last_color = pos[e], c
        self.__dict__.update(ordering=ordering, colored=colored)

    def __len__(self):
        return len(self.colored)

    def color_class(self, color: str) -> frozenset[int]:
        return frozenset(e for e, c in self.colored if c == color)

    def to_json_dict(self) -> dict:
        return {
            "ordering": list(self.ordering.sequence),
            "colored": [[e, c] for e, c in self.colored],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AlternatingColoring":
        _require(doc, ("ordering", "colored"), "the witness coloring")
        colored = doc["colored"]
        if not isinstance(colored, list) or any(
                not isinstance(p, list) or len(p) != 2 or type(p[0]) is not int
                or type(p[1]) is not str for p in colored):
            raise InvalidParameterError("malformed document: the colored entries are not "
                                        "[int, str] pairs")
        ordering = _ints(doc["ordering"], "malformed document: the witness ordering")
        return cls(LinearOrdering(tuple(ordering)), colored)


# Still a dataclass, unlike the other records (see hyperstruct.Record): the
# benchmark's --plant-wrong check builds a wrong report with dataclasses.replace.
@dataclass(frozen=True)
class TuranReport:
    """Result of one of the Turan-style maximizations, with its witness.

    ``witness_edges`` carries an extremal edge set (for plain ex), a tuple
    as written if a document repeats an id; ``witness_coloring`` carries the
    achieving alternating coloring (for the alternating variants, including
    the minimizing ordering).
    """

    quantity: str
    value: int
    mode: str
    witness_edges: frozenset[int] | tuple[int, ...] | None = None
    witness_coloring: AlternatingColoring | None = None

    def __post_init__(self):
        if self.quantity not in ("ex", "ex-alt", "ex-salt"):
            raise InvalidParameterError(f"unknown quantity {self.quantity!r}")
        if self.mode not in ("exact", "lower-bound", "upper-bound"):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        doc: dict = {"quantity": self.quantity, "value": self.value, "mode": self.mode}
        if self.witness_edges is not None:
            doc["witness_edges"] = sorted(self.witness_edges)
        if self.witness_coloring is not None:
            doc["witness_coloring"] = self.witness_coloring.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TuranReport":
        _require(doc, ("quantity", "mode"), "the report", str)
        _require(doc, ("value",), "the report", int)
        edges = doc.get("witness_edges")
        if edges is not None:
            edges = _ints(edges, "malformed document: the witness edges")
            edges = frozenset(edges) if len(set(edges)) == len(edges) else tuple(edges)
        coloring = doc.get("witness_coloring")
        if coloring is not None:
            coloring = AlternatingColoring.from_json_dict(coloring)
        return cls(doc["quantity"], doc["value"], doc["mode"], edges, coloring)


class AltermaticCertificate(Record):
    """A chromatic lower bound read off one ordering of a representation.

    The certified bound (_certified_bound) is |V| - alt_value + i - 1, or
    |V| + 1 - alt_value in the strong form, which has no level (i = 1) and
    counts salt. Sound for the disjointness graph of the representation
    because the minimum over all orderings can only be smaller than the
    recorded one; the search behind alt_value must have been exhaustive for
    the given ordering.
    """

    _fields = ("representation", "ordering", "i", "strong", "alt_value", "value", "witness")

    def __init__(self, representation: Hypergraph, ordering: LinearOrdering, i: int,
                 strong: bool, alt_value: int, value: int, witness: SignVector | None):
        _check_level(i, strong)
        n = representation.n_vertices
        if len(ordering) != n:
            raise InvalidParameterError("ordering length differs from vertex count")
        if value != _certified_bound(n, alt_value, i, strong):
            raise VerificationError("certificate value does not match its alternation count")
        self.__dict__.update(representation=representation, ordering=ordering, i=i,
                             strong=strong, alt_value=alt_value, value=value, witness=witness)

    def to_json_dict(self) -> dict:
        return {
            "representation": self.representation.to_json_dict(),
            "ordering": list(self.ordering.sequence),
            "i": self.i,
            "strong": self.strong,
            "alt_value": self.alt_value,
            "value": self.value,
            "witness": None if self.witness is None else list(self.witness.entries),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AltermaticCertificate":
        what = "the certificate"
        _require(doc, ("representation", "ordering"), what)
        _require(doc, ("i", "alt_value", "value"), what, int)
        _require(doc, ("strong",), what, bool)
        witness = doc.get("witness")
        return cls(
            Hypergraph.from_json_dict(doc["representation"]),
            LinearOrdering(tuple(_ints(doc["ordering"], f"malformed document: {what} ordering"))),
            doc["i"], doc["strong"], doc["alt_value"], doc["value"],
            None if witness is None
            else SignVector(tuple(_ints(witness, f"malformed document: {what} witness"))),
        )


# --- occurrence bookkeeping ---

def occurrence_masks(host: Hypergraph, family: PatternFamily) -> tuple[int, ...]:
    """Bitmasks over host hyperedge ids of the distinct pattern occurrences."""
    return pattern_hypergraph(host, family).edge_masks


# --- plain Turan number ---

def turan_number(host: Hypergraph, family: PatternFamily, mode: str = "auto",
                 cap: int = DEFAULT_TURAN_CAP, seed: int = 0,
                 restarts: int = 64) -> TuranReport:
    """Largest number of host hyperedges keeping every pattern occurrence broken.

    The exact answer is the independence number of the occurrence hypergraph,
    found by the shared kernel up to ``cap`` host edges; beyond that (or with
    mode="heuristic") a seeded randomized greedy reports a lower bound.
    """
    tag = report_mode("ex", host.n_edges, mode, cap)
    occ_graph = pattern_hypergraph(host, family)
    if tag == "exact":
        _, mask = max_independent_set(host.n_edges, occ_graph.edge_masks)
    else:
        mask = _greedy_free_subset(occ_graph, seed, restarts)
    return TuranReport("ex", mask.bit_count(), tag, witness_edges=frozenset(bits_of(mask)))


def report_mode(quantity: str, m: int, mode: str, cap: int) -> str:
    """The mode tag of turan_number's (``quantity`` "ex") or ex_alt_min's
    report on m host edges: "exact" for mode "exact", for "auto" within
    ``cap`` and for ex-alt and ex-salt on no edges, else "lower-bound" for
    ex and "upper-bound" for the others. Refuses an unknown mode and mode
    "exact" above ``cap``."""
    if mode not in ("auto", "exact", "heuristic"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if mode == "exact" and m > cap:
        raise SizeCapError(f"host has {m} edges, above the exact-search cap {cap}")
    if mode == "exact" or (mode == "auto" and m <= cap) or (m == 0 and quantity != "ex"):
        return "exact"
    return "lower-bound" if quantity == "ex" else "upper-bound"


def _greedy_free_subset(occ_graph: Hypergraph, seed: int, restarts: int) -> int:
    """Edge mask of the best of ``restarts`` seeded greedy passes, each
    taking in shuffled order every host edge (vertex of ``occ_graph``) that
    completes no occurrence with the edges taken. Each pass counts down the
    edges that every occurrence of three or more edges still lacks (see
    _alternating_tables), and passes over an edge whose take would bring
    one of those counts to 0."""
    m = occ_graph.n_vertices
    ones, inc, singles, _, sizes = _tables_of(occ_graph)
    rng = random.Random(seed)
    best_mask = 0
    order = list(range(m))
    for _ in range(max(1, restarts)):
        rng.shuffle(order)
        mask = 0
        missing = sizes
        for e in order:
            if singles >> e & 1 or ones[e] & mask:
                continue
            if inc[e]:
                after, _, full = _count_down(missing, inc[e])
                if full:
                    continue
                missing = after
            mask |= 1 << e
        if mask.bit_count() > best_mask.bit_count():
            best_mask = mask
    return best_mask


def _largest_passing(m: int, passes) -> int:
    """The largest t for which ``passes`` accepts a t-subset of 0..m-1 (a ``combinations``
    tuple), scanning every subset from the top: the verifiers' oracle, not for real sizes."""
    for t in range(m, -1, -1):
        if any(map(passes, combinations(range(m), t))):
            return t
    return 0


def _brute_turan(m: int, occ_masks) -> int:
    """ex by _largest_passing: the largest occurrence-free set of host edges."""
    return _largest_passing(m, lambda combo: next(_inside(occ_masks, mask_of(combo)), None) is None)


# --- the Turan coloring ---

def turan_coloring(host: Hypergraph, family: PatternFamily, kept,
                   clusters=()) -> ColoringCertificate:
    """Proper coloring of KG(host, family) from the host edge ids ``kept``.

    An occurrence that leaves ``kept`` gets the rank of its lowest host edge
    outside ``kept``; one inside ``kept`` gets |E \\ kept| plus the index of
    the first of ``clusters`` (edge-id sets inside ``kept``) that holds it.
    The palette has |E \\ kept| + len(clusters) colors: |E| - ex when ``kept``
    is a maximum occurrence-free set and there are no clusters. check_palette
    and _disjointness_colorable(class, 1), properness in KG(host, family),
    accept the coloring before it is returned.
    """
    m = host.n_edges

    def ids_mask(ids) -> int:
        ids = list(ids)
        if any(not 0 <= e < m for e in ids):
            raise InvalidParameterError(f"host edge id outside 0..{m - 1}")
        return mask_of(ids)

    kept_mask = ids_mask(kept)
    cluster_masks = [ids_mask(c) for c in clusters]
    if any(c & ~kept_mask for c in cluster_masks):
        raise InvalidParameterError("a cluster has an edge outside the kept set")
    outside = [e for e in range(m) if not kept_mask >> e & 1]
    rank = {e: j for j, e in enumerate(outside)}
    classes: dict[int, list[int]] = {}
    assignment = []
    for om in occurrence_masks(host, family):
        rest = om & ~kept_mask
        if rest:
            color = rank[(rest & -rest).bit_length() - 1]
        else:
            color = next((len(outside) + i for i, c in enumerate(cluster_masks)
                          if om & ~c == 0), None)
            if color is None:
                raise InvalidParameterError("an occurrence inside the kept set is in no cluster")
        classes.setdefault(color, []).append(om)
        assignment.append(color)
    k = len(outside) + len(cluster_masks)
    check_palette(assignment, k)
    if not all(_disjointness_colorable(ms, 1) for ms in classes.values()):
        raise VerificationError("a color class holds two disjoint occurrences")
    return ColoringCertificate(k, tuple(assignment))


# --- alternating Turan numbers ---

def ex_alt_sigma(host: Hypergraph, family: PatternFamily, sigma: LinearOrdering,
                 strong: bool = False, cap: int = DEFAULT_TURAN_CAP) -> TuranReport:
    """Longest alternating red/blue coloring along ``sigma``.

    Plain form: both color classes must be occurrence-free. Strong form
    (``strong``): at least one class must be. The witness coloring achieves
    the reported value; the search is exhaustive. The host edges are the
    vertices of the occurrence hypergraph, so this is _alternation on it.
    """
    value, colored = _alternation(pattern_hypergraph(host, family), sigma, 1, strong, cap)
    return TuranReport("ex-salt" if strong else "ex-alt", value, "exact",
                       witness_coloring=AlternatingColoring(sigma, colored))


@lru_cache(maxsize=256)
def _tables_of(occ_graph: Hypergraph):
    """_alternating_tables of ``occ_graph``, built once per hypergraph."""
    return _alternating_tables(occ_graph.n_vertices, occ_graph.edge_masks)


def _alternating_tables(m: int, occ_masks):
    """The tables ``(ones, inc, singles, longs, sizes)`` _best_alternating
    searches on, which depend on the host alone; tuples, as _tables_of
    shares them between callers. ``singles`` is the mask of
    the single-edge occurrences. For each host edge e, ``ones[e]`` is the
    mask of the one-edge rests ``om - e`` of the two-edge occurrences om
    through e. The occurrences of three or more edges are numbered in the
    order of ``occ_masks``: ``longs[j]`` is the mask of occurrence j, and
    ``inc[e]`` the mask of the numbers of those through e. ``sizes`` holds
    their edge counts bit-sliced: plane p is the mask of the numbers whose
    count has bit p set; there is no plane when there is no such
    occurrence."""
    ones = [0] * m
    inc = [0] * m
    singles = 0
    longs: list[int] = []
    by_size: dict[int, int] = {}  # edge count -> mask of the numbers with it
    for om in occ_masks:
        size = om.bit_count()
        if size <= 1:
            singles |= om
        elif size == 2:
            low = om & -om
            ones[low.bit_length() - 1] |= om ^ low
            ones[(om ^ low).bit_length() - 1] |= low
        else:
            j = 1 << len(longs)
            longs.append(om)
            by_size[size] = by_size.get(size, 0) | j
            while om:  # not bits_of: this loop is most of the build
                low = om & -om
                inc[low.bit_length() - 1] |= j
                om ^= low
    sizes = [0] * max(by_size, default=0).bit_length()
    for size, ids in by_size.items():
        for p in bits_of(size):
            sizes[p] |= ids
    return tuple(ones), tuple(inc), singles, tuple(longs), tuple(sizes)


def _count_down(planes, ids: int):
    """(planes, short, full): the bit-sliced counts ``planes`` less one at
    each number in ``ids``, by a ripple borrow, and the masks of the numbers
    in ``ids`` whose count is then 1 and 0. No count in ``ids`` may be 0."""
    out = []
    borrow = ids
    for q in planes:
        out.append(q ^ borrow)
        borrow &= ~q
    high = 0
    for q in out[1:]:
        high |= q
    return out, ids & out[0] & ~high, ids & ~(out[0] | high)


def _best_alternating(seq, tables, strong: bool, stop_at: int | None, level: int = 1):
    """Max colored length over alternating colorings of ``seq``.

    Colors along the chosen subsequence are forced once the first one is
    fixed, and swapping red and blue globally is a symmetry of every
    variant, so the first colored edge is taken red. Returns (length,
    colored pairs). With ``stop_at`` the search aborts once that length is
    reached; the returned value is then only a lower bound on the true
    maximum, which is all the ordering-minimization loop needs to discard
    the ordering.

    ``seq`` lists the host edges 0..m-1 and ``tables`` comes from
    _tables_of, built once per host. A take is allowed while the
    classes meet the side condition, which only grows harder as they grow.
    At ``level`` 1 no class may hold an occurrence (the strong form: one
    class may). Each class then keeps a dead mask: the edges that would
    complete an occurrence if that class took them, so testing a take is one
    mask test rather than a scan of the occurrences through the edge. When e
    joins a class, an occurrence through e with a single edge left outside
    the class makes that edge dead; single-edge occurrences are dead in both
    classes from the start. The one-edge rests are kept in the mask
    ``ones[e]``, so one mask operation makes those outside the class dead.
    For the occurrences of three or more edges each class keeps, as
    bit-sliced planes over their numbers, the count of edges each still
    lacks, starting at its size (``sizes``); the counting replaces a scan
    of their rests, as in the clause counters of SAT solvers' unit
    propagation. A take counts down the numbers ``inc[e]`` by a ripple
    borrow, reads off those left one edge short, and makes dead each
    undecided edge x with such a number in ``inc[x]``: the edge each of
    them lacks. On P2 there are no such occurrences and no planes; a take
    only tests that ``inc[e]`` is empty. A class holding an occurrence in
    the strong form keeps no counts, as it keeps no dead mask. From
    ``level`` 2 on (plain form only) the disjointness graph of the
    occurrences inside either class must stay (level - 1)-colorable; a
    take lists the occurrences it completes, the long ones being those
    whose count reaches 0, and tests the grown list, and no edge is dead.
    An occurrence inside one class is disjoint from any inside the other,
    so one flat list serves both classes.

    An edge not yet decided is live for a class unless the class can no
    longer take it: it is dead there and, in the strong form, the other
    class already holds an occurrence. The edges still to be chosen
    alternate, starting with the class that moves next, so they number at
    most |live|, twice the edges live for that class, and one more than
    twice those live for the other. A node is cut when that cannot beat the
    best length. Take comes before skip and only a strictly longer coloring
    is recorded, so the cut, which drops only subtrees with no strictly
    longer coloring, leaves the result, witness and aborts included, as
    they were without it.
    """
    ones, inc, singles, longs, sizes = tables
    m = len(seq)
    best = -1
    best_choice: tuple[int, ...] = ()
    chosen: list[int] = []
    inside: list[int] = []  # from level 2: the occurrences inside either class
    missing = [sizes, sizes]  # per class, red first: the edges each long occurrence lacks
    aborted = False

    # ``side`` is the color class that takes the next edge, ``other`` the
    # class that took the last one; each take swaps their roles
    def rec(pos: int, rest: int, side: int, other: int, dead_side: int, dead_other: int,
            side_bad: bool, other_bad: bool):
        nonlocal best, best_choice, aborted
        n_chosen = len(chosen)
        if n_chosen > best:
            best = n_chosen
            best_choice = tuple(chosen)
            if stop_at is not None and best >= stop_at:
                aborted = True
        if aborted or pos == m:
            return
        room = best - n_chosen
        if rest.bit_count() <= room:
            return
        live_side = rest & ~dead_side if not strong or other_bad else rest
        live_other = rest & ~dead_other if not strong or side_bad else rest
        if ((live_side | live_other).bit_count() <= room or 2 * live_side.bit_count() <= room
                or 2 * live_other.bit_count() < room):
            return
        e = seq[pos]
        bit = 1 << e
        if level == 1:
            completes = side_bad or bool(dead_side & bit)
            if not completes or (strong and not other_bad):
                grown = side | bit
                dead = dead_side
                ids = 0
                if not completes:  # a class holding an occurrence needs no dead mask
                    dead |= ones[e] & ~grown
                    ids = inc[e]
                    if ids:
                        kept = missing[n_chosen & 1]
                        missing[n_chosen & 1], short, _ = _count_down(kept, ids)
                        if short:
                            for x in bits_of((rest ^ bit) & ~dead):
                                if inc[x] & short:
                                    dead |= 1 << x
                chosen.append(e)
                rec(pos + 1, rest ^ bit, other, grown, dead_other, dead, other_bad, completes)
                chosen.pop()
                if ids:
                    missing[n_chosen & 1] = kept
                if aborted:
                    return
        else:  # the dead masks stay 0 and the bad flags False
            # a loop: before Python 3.12 a comprehension here would make
            # ``side`` and ``bit`` closure cells of rec, slowing every node
            new = [bit] if singles & bit else []
            for f in bits_of(ones[e] & side):
                new.append(bit | 1 << f)
            ids = inc[e]
            if ids:
                kept = missing[n_chosen & 1]
                missing[n_chosen & 1], _, full = _count_down(kept, ids)
                if full:
                    for j in bits_of(full):
                        new.append(longs[j])
            if not new or _disjointness_colorable(inside + new, level - 1):
                chosen.append(e)
                inside.extend(new)
                rec(pos + 1, rest ^ bit, other, side | bit, 0, 0, False, False)
                chosen.pop()
                del inside[len(inside) - len(new):]
            if ids:
                missing[n_chosen & 1] = kept
            if aborted:
                return
        rec(pos + 1, rest ^ bit, side, other, dead_side, dead_other, side_bad, other_bad)

    start_dead = singles if level == 1 else 0
    rec(0, (1 << m) - 1, 0, 0, start_dead, start_dead, False, False)  # seq lists 0..m-1
    colored = tuple(
        (e, "red" if k % 2 == 0 else "blue") for k, e in enumerate(best_choice)
    )
    return best, colored


def ex_alt_min(host: Hypergraph, family: PatternFamily, strong: bool = False,
               mode: str = "exact", cap: int = DEFAULT_ORDERING_CAP, seed: int = 0,
               restarts: int = 32) -> TuranReport:
    """Minimize ex_alt_sigma (or the strong form) over orderings.

    Mode "auto" is exact up to ``cap`` host edges and heuristic beyond.
    Both modes run _least_alternating over their orderings, which skips an
    ordering when a coloring an earlier search found is also an alternating
    coloring of it, as long as the running minimum or longer; that changes
    no result. Exact mode scans the orderings of up to ``cap`` host edges
    (see _scan_orderings for which ones) and stops early at a floor no
    ordering can go below. An ex-sized occurrence-free edge set, colored
    alternately, gives ex <= ex_alt_sigma, and ex + 1 <= ex_salt_sigma on
    hosts that contain an occurrence. The altermatic bounds of Alishahi
    and Hajiabolhassan, which the paper builds on, give chi(KG(G,F)) >=
    |E| - ex_alt_sigma and chi(KG(G,F)) >= |E| + 1 - ex_salt_sigma for
    every sigma, so a proper coloring of KG(G,F) with c colors gives
    |E| - c <= ex_alt_sigma and |E| + 1 - c <= ex_salt_sigma. The floor is
    the larger of the two bounds, or |E| on hosts without an occurrence. Heuristic mode tries
    interval orderings plus seeded random restarts and tags the result as
    an upper bound on the true minimum; it has no floor, which its values
    seldom meet.
    """
    quantity = "ex-salt" if strong else "ex-alt"
    m = host.n_edges
    tag = report_mode(quantity, m, mode, cap)
    occ_graph = pattern_hypergraph(host, family)
    if m == 0:
        empty = AlternatingColoring(LinearOrdering(()), ())
        return TuranReport(quantity, 0, tag, witness_coloring=empty)
    if tag == "exact":
        orderings = _scan_orderings(m, occ_graph)
        floor = _scan_floor(m, occ_graph.edge_masks, strong)
    else:
        rng = random.Random(seed)
        candidates: list[tuple[int, ...]] = []
        if host.is_graph:
            candidates.append(interval_ordering(host).sequence)
            sizes = {len(c) for c in host.parallel_classes}
            if 1 in sizes and len(sizes) > 1:
                candidates.append(interval_ordering(host, singles_last=True).sequence)
        else:
            candidates.append(tuple(range(m)))
        for _ in range(max(1, restarts)):
            candidates.append(tuple(rng.sample(range(m), m)))
        orderings = dict.fromkeys(candidates)
        floor = -1
    value, seq, colored = _least_alternating(orderings, _tables_of(occ_graph), strong, floor)
    coloring = AlternatingColoring(LinearOrdering(seq), colored)
    return TuranReport(quantity, value, tag, witness_coloring=coloring)


def _least_alternating(orderings, tables, strong: bool, floor: int):
    """(value, ordering, colored pairs) of the first ordering in
    ``orderings`` whose alternating maximum is least.

    The running minimum is each search's ``stop_at``, so a search that
    reaches it aborts with a value that cannot move it. The scan ends as
    soon as the minimum is at most ``floor``; orderings after that are
    never drawn from the iterable.

    The colored edges of each search, in order, form a chain; the last
    _CHAINS_KEPT chains are kept, the most recently used first. An ordering
    that holds a kept chain as a subsequence is skipped unsearched, and the
    chain moves to the front. The color of a chain element depends only on
    its place in the chain, so the chain is an alternating coloring of that
    ordering too, in the plain and in the strong form, and its length is at
    least the running minimum: the ordering could neither lower the minimum
    nor be the first least one. The value, ordering, coloring and floor
    stop are those of the scan that searches every ordering.
    """
    best = None
    least = None
    chains: list[tuple[int, ...]] = []
    for seq in orderings:
        k = _held_chain(chains, seq)
        if k >= 0:
            chains.insert(0, chains.pop(k))
            continue
        val, colored = _best_alternating(seq, tables, strong, least)
        if least is None or val < least:
            least = val
            best = (val, seq, colored)
            if val <= floor:
                break
        chains.insert(0, tuple(e for e, _ in colored))
        del chains[_CHAINS_KEPT:]
    return best


def _held_chain(chains, seq) -> int:
    """Index of the first of ``chains`` that is a subsequence of ``seq``, an
    ordering of 0..m-1, or -1. Most orderings hold none, so each chain is
    read only until its places in ``seq`` stop rising."""
    place = [0] * len(seq)
    for i, e in enumerate(seq):
        place[e] = i
    for k, chain in enumerate(chains):
        last = -1
        for e in chain:
            if place[e] < last:
                break
            last = place[e]
        else:
            return k
    return -1


def _scan_floor(m: int, occ_masks, strong: bool) -> int:
    """A lower bound on ex_alt_sigma (ex_salt_sigma with ``strong``) over
    every ordering sigma: the larger of the two bounds in ex_alt_min."""
    ex_value, _ = max_independent_set(m, occ_masks)
    if ex_value == m:
        return m
    c = _kneser_color_count(occ_masks)
    return max(ex_value + 1, m + 1 - c) if strong else max(ex_value, m - c)


def _kneser_color_count(occ_masks) -> int:
    """Colors of a DSATUR coloring of the disjointness graph of the
    occurrence masks ``occ_masks`` of a host G and family F: an upper bound
    on chi(KG(G,F))."""
    c = len(occ_masks)
    return max(dsatur(c, _disjointness_adjacency(occ_masks)), default=-1) + 1


def _scan_orderings(m: int, occ_graph: Hypergraph):
    """The orderings of the exact scan of m host edges whose occurrences
    make up ``occ_graph``: the identity, then the other lex leaders.

    The identity comes first and the symmetry group is built only when the
    scan asks for a second ordering, so a scan whose identity meets its
    floor never builds it (it can be large: 40,320 members for a star K1,8
    under P2). An ordering and its reverse admit the same colorings, so
    only orderings whose first element is at most their last are yielded.
    Of those, only the lex leaders under the host-edge permutations that
    keep the occurrence set are yielded (see _lex_leaders): such a
    permutation pi keeps every alternating value, so s and pi(s) are worth
    the same.

    The orderings come in lex order (the identity is the least of all), and
    the first least of them is the first least ordering of the halved scan,
    which searches every ordering whose first element is below its last.
    Suppose some pi maps the first minimizing ordering s of that scan to a
    lexicographically smaller pi(s). If the halved scan searches pi(s),
    pi(s) is an earlier minimizer there. If not, the last element of pi(s)
    is below its first, which is at most the first of s, so the reverse of
    pi(s) is searched, earlier, and is a minimizer too. Either way s would
    not be first, so s is a lex leader and is yielded here. A skipped
    ordering has an earlier yielded one of the same value, which has
    already brought the running minimum of _least_alternating to that value
    or below; so the skipped one would not have moved it, and skipping it
    changes no later search's ``stop_at``.
    """
    identity = tuple(range(m))
    yield identity
    group = _automorphisms(occ_graph)
    for seq in _lex_leaders(m, group, range(max(m - 1, 1))):
        if seq[0] <= seq[-1] and seq != identity:
            yield seq


def _lex_leaders(m: int, group, firsts: range):
    """The orderings of 0..m-1 that start in ``firsts`` and are
    lexicographically least in their orbit under ``group``, in lex order.

    ``group`` holds permutations of 0..m-1 (as tuples of images), the
    identity among them, and is closed under composition. An ordering s is
    least in its orbit when, at every depth i, no member that fixes s[:i]
    pointwise maps s[i] below s[i]: at the first position a member moves,
    it must move the entry up. So each depth keeps the stabilizer of the
    prefix, and once that holds only the identity, every completion is a
    leader and comes from ``permutations``.
    """
    def extend(prefix, rest, stab):
        if len(stab) == 1:
            for tail in permutations(rest):
                yield prefix + tail
            return
        for x in rest:
            if all(g[x] >= x for g in stab):
                yield from extend(prefix + (x,), [y for y in rest if y != x],
                                  [g for g in stab if g[x] == x])

    for first in firsts:
        if all(g[first] >= first for g in group):
            yield from extend((first,), [e for e in range(m) if e != first],
                              [g for g in group if g[first] == first])


def interval_ordering(host: Hypergraph, singles_last: bool = False) -> LinearOrdering:
    """Edge ordering of a multigraph grouping parallel copies contiguously.

    With ``singles_last``, multiplicity-1 classes move to the end, the layout
    the uniform-multiplicity results want.
    """
    if not host.is_graph:
        raise InvalidParameterError("interval ordering needs a 2-uniform host")
    classes = list(host.parallel_classes)
    if singles_last:
        classes = [c for c in classes if len(c) > 1] + [c for c in classes if len(c) == 1]
    return LinearOrdering(tuple(e for c in classes for e in c))


# --- sign-vector alternation of a representation ---

def alt_sigma_level(rep: Hypergraph, sigma: LinearOrdering, i: int = 1,
                    cap: int = DEFAULT_ALT_CAP) -> int:
    """Max alternation of a sign vector whose signed sides stay level-i small.

    Position j of the vector signs vertex sigma[j]. A vector is admissible
    when the disjointness graph of the hyperedges contained in a single side
    is (i-1)-colorable; i=1 means no side contains a hyperedge, i=2 means the
    contained hyperedges pairwise intersect. Growing a side only grows that
    graph, so a vector with t runs keeps its sides admissible when each run
    shrinks to one entry: the value is the longest alternating choice of
    vertices along sigma, which _best_alternating finds with the vertices as
    its edges and the hyperedges as its occurrences.
    """
    value, _ = _alternation(rep, sigma, i, False, cap)
    return value


def salt_sigma(rep: Hypergraph, sigma: LinearOrdering, cap: int = DEFAULT_ALT_CAP) -> int:
    """Max alternation with at most one signed side containing a hyperedge."""
    value, _ = _alternation(rep, sigma, 1, True, cap)
    return value


def _alternation(rep: Hypergraph, sigma: LinearOrdering, i: int, strong: bool, cap: int):
    """(value, colored pairs) of the exhaustive alternating search on ``rep``
    along ``sigma`` at level ``i``, or in the strong form. ``rep`` is a
    representation or the occurrence hypergraph of a host."""
    n = rep.n_vertices
    if len(sigma) != n:
        raise InvalidParameterError(f"ordering has {len(sigma)} entries for {n} vertices "
                                    "or host edges")
    _check_level(i, strong)
    if n > cap:
        raise SizeCapError(f"{n} vertices or host edges to order, above the cap {cap}")
    return _best_alternating(sigma.sequence, _tables_of(rep), strong, None, i)


def _check_level(i: int, strong: bool):
    """Refuse a level below 1, and any level but 1 in the strong form, which has none."""
    if i < 1:
        raise InvalidParameterError("level must be >= 1")
    if strong and i != 1:
        raise InvalidParameterError("the strong form has no level: i must be 1")


def _certified_bound(n: int, alt_value: int, i: int, strong: bool) -> int:
    """n - alt_value + i - 1, or n + 1 - alt_value in the strong form."""
    return n + 1 - alt_value if strong else n - alt_value + i - 1


def _side_condition(in_plus, in_minus, i: int, strong: bool) -> bool:
    """Whether two sides (of a sign vector, or the classes of an alternating
    coloring) meet the side condition, given iterators over the hyperedges or
    occurrences inside each, read only as far as the verdict needs: in the
    strong form one side holds none; at level i the disjointness graph of all
    of them is (i - 1)-colorable, so at level 1 neither side holds one."""
    if strong:
        return next(in_plus, None) is None or next(in_minus, None) is None
    return _disjointness_colorable(chain(in_plus, in_minus), i - 1)


def _inside(masks, side: int):
    """An iterator over the members of ``masks`` inside ``side``."""
    return (em for em in masks if em & side == em)


def _disjointness_colorable(masks, k: int) -> bool:
    """Whether the disjointness graph of the iterable ``masks`` is k-colorable."""
    if k <= 0:  # no color: there must be no mask, so at most one is drawn
        return next(iter(masks), None) is None
    masks = list(masks)
    c = len(masks)
    if c <= k:
        return True
    if k == 1:  # one color: the masks must pairwise intersect
        return all(a & b for a, b in combinations(masks, 2))
    # existence only, but the lowest-id search: these graphs are small and
    # their searches wide and easy, so graph_colorable's scoring costs more
    # than it saves, packed scores included (the 16 certificates of the
    # turan-scan benchmark: 9.3 against 8.0 ms, median of 5 processes)
    return graph_color_decision(c, _disjointness_adjacency(masks), k) is not None


def _disjointness_adjacency(masks) -> list[int]:
    """Adjacency masks of the disjointness graph of ``masks``."""
    c = len(masks)
    adj = [0] * c
    for a in range(c):
        for b in range(a + 1, c):
            if masks[a] & masks[b] == 0:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


# --- independent permuted-coordinate formulation ---

@lru_cache(maxsize=128)
def _admissible_vertex_vectors(rep: Hypergraph, i: int | None, strong: bool) -> bytes:
    """One 0/1 admissibility flag per vertex-indexed sign vector.

    The flags follow ``product((-1, 0, 1), repeat=n)`` (vertex 0 slowest,
    -1 before 0 before +1); a vector is flagged when it is nonzero and meets
    the side condition, so ``compress(product(...), flags)`` yields the
    admissible vectors. An entry holds 3^n bytes, 59 KB at
    BRUTE_CERTIFICATE_CAP, and the cache at most 128 entries.

    A raw scan over 3^n assignments by the rule of the witness check,
    _side_condition (past level 1, _disjointness_colorable): the oracle the
    ordering-based search gets property-tested against, so it shares no
    pruning logic with it. The plus and minus masks of the vectors come in
    product order, each the OR of the masks of its first n // 2 vertices
    and of the rest, so only 2 * 3^(n/2) pairs of masks are stored. The
    edges inside a side, as a bitmask of edge indices, come from a table
    over all 2^n sides into which each side's subsets are ORed, one vertex
    at a time. The verdict depends only on the edges inside either side, at
    level 1 and in the strong form only on which sides hold one, so it is
    found once per set of them, or four times in all.
    """
    n = rep.n_vertices
    masks = rep.edge_masks
    contained = [0] * (1 << n)  # side mask -> edge indices inside it
    for k, em in enumerate(masks):
        contained[em] |= 1 << k
    for v in range(n):
        bit = 1 << v
        for side in range(1 << n):
            if side & bit:
                contained[side] |= contained[side ^ bit]
    half = n // 2
    high, low = _signed_sides(range(half)), _signed_sides(range(half, n))
    sides = ((hp | lp, hm | lm) for hp, hm in high for lp, lm in low)
    if strong or i == 1:  # only which sides hold an edge counts, so edge 0 stands for any
        holds = [c != 0 for c in contained]
        verdict = [_side_condition(iter(masks[:p]), iter(masks[:q]), i, strong)
                   for q in (0, 1) for p in (0, 1)]
        flags = bytearray(verdict[holds[plus] + 2 * holds[minus]] for plus, minus in sides)
    else:  # the side condition past level 1: the edges inside either side count, as one
        verdict = cache(lambda inside: _disjointness_colorable(
            [masks[k] for k in bits_of(inside)], i - 1))
        flags = bytearray(verdict(contained[plus] | contained[minus]) for plus, minus in sides)
    flags[(3 ** n - 1) // 2] = 0  # the zero vector, in the middle of the order
    return bytes(flags)


def _signed_sides(vertices) -> list[tuple[int, int]]:
    """The (plus, minus) masks of every sign vector on ``vertices``, in the
    order of ``product((-1, 0, 1), repeat=len(vertices))``."""
    pluses, minuses = [0], [0]
    for v in reversed(vertices):
        bit = 1 << v
        pluses = pluses + pluses + [p | bit for p in pluses]
        minuses = [m | bit for m in minuses] + minuses + minuses
    return list(zip(pluses, minuses))


def _vector_alternation(rep: Hypergraph, sigma: LinearOrdering, i: int, strong: bool) -> int:
    """Max alternation along ``sigma`` over every admissible sign vector: the
    exhaustive scan behind verify_certificate, which the tests also hold
    alt_sigma_level to.

    The vectors are streamed from ``product`` through the cached flags of
    _admissible_vertex_vectors, so only one is alive at a time; each is read
    in sigma order by one ``itemgetter`` call. With fewer than two vertices
    sigma is the identity and the vector is read as it stands.
    """
    seq = sigma.sequence
    n = len(seq)
    flags = _admissible_vertex_vectors(rep, None if strong else i, strong)
    in_sigma_order = itemgetter(*seq) if n > 1 else tuple
    best = 0
    for signs in compress(product((-1, 0, 1), repeat=n), flags):
        val = alt_of_vector(in_sigma_order(signs))
        if val > best:
            best = val
            if best == n:
                break
    return best


# --- certificates ---

def altermatic_certificate(rep: Hypergraph, sigma: LinearOrdering, i: int = 1,
                           strong: bool = False,
                           cap: int = DEFAULT_ALT_CAP) -> AltermaticCertificate:
    """Package one ordering's exhausted alternation search as a lower bound.

    The certified value bounds the chromatic number of the disjointness
    graph of ``rep`` from below, whatever ordering is supplied; better
    orderings give better bounds. The strong form has no level, so it takes
    only i = 1. The witness signs the vertices the search chose +1, -1, +1,
    ... at their positions in ``sigma`` and leaves the rest 0; it is None
    when the search chose no vertex.
    """
    alt_value, colored = _alternation(rep, sigma, i, strong, cap)
    n = rep.n_vertices
    witness = None
    if colored:
        pos = sigma.inverse()
        entries = [0] * n
        for e, color in colored:
            entries[pos[e]] = 1 if color == "red" else -1
        witness = SignVector(entries)
    value = _certified_bound(n, alt_value, i, strong)
    return AltermaticCertificate(rep, sigma, i, strong, alt_value, value, witness)


def _witness_admissible(cert: AltermaticCertificate) -> bool:
    if cert.witness is None:
        return cert.alt_value == 0
    if alt_of_vector(cert.witness.entries) != cert.alt_value:
        return False
    masks = cert.representation.edge_masks
    plus, minus = (mask_of(side) for side in apply_ordering(cert.witness, cert.ordering))
    return _side_condition(_inside(masks, plus), _inside(masks, minus), cert.i, cert.strong)


def verify_certificate(cert: AltermaticCertificate) -> dict:
    """Re-check a serialized certificate without trusting the search.

    Always validates the witness vector against the recorded alternation
    count and _side_condition, the rule of the scan below. Up to
    BRUTE_CERTIFICATE_CAP vertices it additionally re-derives the
    alternation maximum by scanning every sign vector, which confirms the
    search really was exhaustive. That scan keeps one admissibility flag per
    sign vector in the cache of _admissible_vertex_vectors, 3^n bytes per
    representation, level and form, and at most 128 such entries (under 8 MB
    at the cap). Raises VerificationError on any mismatch; returns a summary
    of which checks ran.
    """
    if not _witness_admissible(cert):
        raise VerificationError("certificate witness fails its side condition")
    summary = {"witness_checked": True, "exhaustive_rechecked": False}
    n = cert.representation.n_vertices
    if n <= BRUTE_CERTIFICATE_CAP:
        best = _vector_alternation(cert.representation, cert.ordering, cert.i, cert.strong)
        if best != cert.alt_value:
            raise VerificationError(
                f"recorded alternation {cert.alt_value} but exhaustive re-check found {best}"
            )
        summary["exhaustive_rechecked"] = True
    return summary


def verify_turan_report(host: Hypergraph, family: PatternFamily, report: TuranReport) -> dict:
    """Re-check a Turan report's witness, and its value where feasible.

    Witness checks are unconditional: an extremal edge set must pass
    check_vertex_set as an alpha witness of the occurrence hypergraph (a
    report read from a document keeps repeated ids as written); a
    witness coloring must alternate, match the value and meet _side_condition
    (at level 1 for ex-alt, strong for ex-salt). Within BRUTE_TURAN_CAP edges
    the value (of plain ex only when exact) is re-derived by a subset scan,
    _largest_passing, that shares nothing with the searches.
    """
    m = host.n_edges
    occ_graph = pattern_hypergraph(host, family)
    occ = occ_graph.edge_masks
    summary = {"witness_checked": True, "value_rechecked": False}
    if report.quantity == "ex":
        if report.witness_edges is None:
            raise VerificationError("plain ex report lacks an edge-set witness")
        check_vertex_set(occ_graph, report.witness_edges, report.value, "ex")
        if report.mode == "exact" and m <= BRUTE_TURAN_CAP:
            if _brute_turan(m, occ) != report.value:
                raise VerificationError("exhaustive subset scan disagrees with the report")
            summary["value_rechecked"] = True
        return summary
    coloring = report.witness_coloring
    if coloring is None:
        raise VerificationError("alternating report lacks a witness coloring")
    if len(coloring.ordering) != m:
        raise VerificationError("witness ordering does not cover the host edges")
    if len(coloring) != report.value:
        raise VerificationError("witness coloring length differs from reported value")
    strong = report.quantity == "ex-salt"
    red, blue = (mask_of(coloring.color_class(c)) for c in ("red", "blue"))
    if not _side_condition(_inside(occ, red), _inside(occ, blue), 1, strong):
        raise VerificationError(f"the witness coloring fails the {report.quantity} side condition")
    if m <= BRUTE_TURAN_CAP:
        best = _brute_alternating_value(coloring.ordering.sequence, occ, strong)
        if best != report.value:
            raise VerificationError(
                "exhaustive alternating scan at the witness ordering disagrees"
            )
        summary["value_rechecked"] = True
    return summary


def _brute_alternating_value(seq, occ_masks, strong: bool) -> int:
    """The alternating maximum at the ordering ``seq`` by _largest_passing:
    the longest subsequence whose alternate places, red then blue, meet
    _side_condition at level 1, or in the strong form."""
    def passes(positions):
        red, blue = (mask_of(seq[p] for p in positions[start::2]) for start in (0, 1))
        return _side_condition(_inside(occ_masks, red), _inside(occ_masks, blue), 1, strong)

    return _largest_passing(len(seq), passes)
