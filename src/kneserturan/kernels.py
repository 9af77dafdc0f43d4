"""The search kernels, on Python-int vertex masks of any width.

max_independent_set branches on the hitting-set dichotomy, and cuts a node
when a packing of realizable edges with disjoint free parts shows that it
cannot beat the best size. Each node hands its children the edges still
realizable there, so no node rescans an edge that can no longer be picked,
and the leaves and their order stay those of a scan of every edge. On
graphs it runs the same search on adjacency masks: choosing a vertex drops
all its neighbours from the candidates in one step, the branching edge
comes from masks of lower neighbours rather than a scan of the edge list,
and a clique-partition bound cuts subtrees that cannot change the result.
Both paths return the first maximum leaf of the same tree.

One coloring search, _color_search, serves graphs and hypergraphs. It keeps
its state in color-class, banned-color and level masks, so a node costs
O(k) mask operations rather than a scan of every vertex, and cuts at the
assignment each child that would fail at once. It runs on two lists
indexed by vertex: ``adj[v]`` holds the neighbours of v by a 2-edge, and the
pairs ``(core, ends)`` of ``pairs[v]`` stand for the larger edges through v:
for every such edge e and every other member u of e, core is e minus v and
u, and u is in ends. Coloring v with c bans c on ``adj[v]``, and on the ends
of each pair whose core lies inside color class c, the unit propagation of
an edge on its last uncolored member. That is one rule for every edge size:
a 2-edge is the pair of the empty core, kept in ``adj`` so that a graph,
whose pairs are all empty, never scans a pair.
graph_color_decision and hypergraph_color_decision return the coloring of
the search that selects by fewest usable colors with ties to the lowest id.
graph_colorable and hypergraph_colorable answer only whether a coloring
exists: at a branching node they select by a score of contested free colors
rather than by lowest id, which shrinks refutations (5 colors on
schrijver(10,3): 40,879 nodes against 337,682; 3 colors on KG3(K5,P2):
1,239 against 10,132) but changes the coloring found, so colorings come
from the two decision searches alone. The score counts the vertices a color
would ban, through ``adj`` and, on a hypergraph, through the pairs too. The
two lists of the hypergraph searches, from hypergraph_color_tables, depend
on the edges alone and serve every k.
Each result, witness included, is fixed by the tie-breaking rules in the
docstrings below.
"""

from __future__ import annotations

from itertools import groupby

from .hyperstruct import adjacency_of, bits_of

# the one backend there is, named in benchmark and diagnostic output
BACKEND = "pure"


def _inclusion_minimal(uniq):
    """The inclusion-minimal masks of ``uniq``, in the order of ``uniq``.

    A proper subset has strictly fewer bits, so each mask is compared only
    with the minimal masks of smaller sizes; equal-size masks are never
    compared with each other.
    """
    below = []
    for _, group in groupby(sorted(uniq, key=int.bit_count), key=int.bit_count):
        below += [e for e in group if not any(f & ~e == 0 for f in below)]
    kept = set(below)
    return [e for e in uniq if e in kept]


def _clique_partition_exceeds(cand: int, adj, limit: int) -> bool:
    """True when a greedy clique partition of the graph on ``cand`` has more
    than ``limit`` cliques.

    Each clique starts at the lowest vertex left and grows by the lowest
    common neighbour; counting stops once it passes ``limit``. An independent
    set meets every clique at most once, so the count bounds its size.
    """
    count = 0
    rest = cand
    while rest:
        count += 1
        if count > limit:
            return True
        clique = rest & -rest
        common = adj[clique.bit_length() - 1] & rest
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        rest &= ~clique
    return False


def max_independent_set(n: int, edge_masks) -> tuple[int, int]:
    """Largest vertex set containing no edge entirely; returns (size, mask).

    Branch and bound on the standard hitting-set dichotomy: pick an edge still
    realizable inside chosen|candidates and branch on which of its free
    vertices gets excluded (earlier ones committed to the chosen side). The
    pick is the first edge, in sorted mask order, with the fewest free
    vertices.

    The scan for the pick also packs, greedily in the same order, realizable
    edges whose free parts are pairwise disjoint. Every leaf below the node
    loses a free vertex of each packed edge, a different one for each, so
    the node is cut when the union less the packing cannot beat the best
    size. An edge with no free vertex ends the node at once: the subtree
    under it has no leaf. Neither cut drops a strictly better leaf, so the
    first maximum leaf, the result, is that of the search without them.

    The same scan collects the realizable edges, in sorted order, and the
    children scan only those. chosen|candidates only shrinks down the tree,
    so an edge that is not realizable at a node is realizable at none of
    its descendants: every pick, packing and cut, and so every leaf and
    their order, is that of the scan of every edge.

    When every minimal edge has two vertices, all below ``n``, the graph
    search of max_independent_set_graph runs instead, on the adjacency masks
    of those edges. It returns the same result, witness included.
    """
    full = (1 << n) - 1
    uniq = sorted(set(int(e) for e in edge_masks))
    if any(e == 0 for e in uniq):
        raise ValueError("empty edge mask")
    # only inclusion-minimal edges constrain independence
    edges = _inclusion_minimal(uniq)
    if not edges or n == 0:
        return n, full
    # edges are sorted, so the last one bounds every vertex index
    if edges[-1] <= full and all(e.bit_count() == 2 for e in edges):
        return max_independent_set_graph(n, adjacency_of(n, edges))

    best_size = 0
    best_mask = 0

    def rec(chosen: int, cand: int, edges):
        nonlocal best_size, best_mask
        union = chosen | cand
        total = union.bit_count()
        if total <= best_size:
            return
        pick = -1
        pick_t = n + 1
        packed = 0
        packing = 0
        realizable = []
        for e in edges:
            if e & ~union:
                continue
            free = e & ~chosen
            if not free:
                return  # an edge is fully inside the committed part
            realizable.append(e)
            if not free & packed:
                packed |= free
                packing += 1
            t = free.bit_count()
            if t < pick_t:
                pick, pick_t = e, t
        if pick == -1:
            best_size = total
            best_mask = union
            return
        if total - packing <= best_size:
            return
        forced = 0
        for v in bits_of(pick & ~chosen):
            bit = 1 << v
            rec(chosen | forced, cand & ~(forced | bit), realizable)
            forced |= bit

    rec(0, full, edges)
    return best_size, best_mask


def max_independent_set_graph(n: int, adj) -> tuple[int, int]:
    """max_independent_set on a graph with adjacency masks ``adj``.

    The hypergraph search, kept in adjacency masks. Choosing a vertex drops
    its neighbours from the candidates at once, where the hypergraph search
    takes one single-child node per neighbour (each is then the only free
    vertex of an edge, which that search picks first). The branching edge is
    the first one in sorted mask order with both ends free: the lowest
    candidate v with a candidate neighbour below it, found in ``below[v]``,
    and the lowest such neighbour u. Excluding u comes first, then choosing
    u and so excluding v, as in the hypergraph search. The leaves and their
    order are the same, so is the first maximum leaf, which is the result:
    that of max_independent_set on the edges of ``adj``.

    A node is also cut when the chosen vertices plus a greedy clique
    partition of the candidates cannot beat the best size (Tomita and Seki's
    MCQ bound, for independent sets). Any cut that keeps every strictly
    better leaf leaves that first maximum leaf in place.
    """
    below = [a & ((1 << v) - 1) for v, a in enumerate(adj)]

    best_size = 0
    best_mask = 0

    def rec(chosen: int, cand: int):
        nonlocal best_size, best_mask
        size = chosen.bit_count()
        if size + cand.bit_count() <= best_size:
            return
        if not _clique_partition_exceeds(cand, adj, best_size - size):
            return
        rest = cand
        while rest:
            vbit = rest & -rest
            hit = below[vbit.bit_length() - 1] & cand
            if hit:
                break
            rest ^= vbit
        else:
            best_size = size + cand.bit_count()
            best_mask = chosen | cand
            return
        ubit = hit & -hit
        rec(chosen, cand ^ ubit)
        rec(chosen | ubit, cand & ~(ubit | adj[ubit.bit_length() - 1]))

    rec(0, (1 << n) - 1)
    return best_size, best_mask


def graph_color_decision(n: int, adj, k: int, clique=()) -> tuple[int, ...] | None:
    """Proper k-coloring of a simple graph, or None if none exists.

    ``clique`` vertices are pre-colored 0,1,2,... to break color symmetry; the
    caller guarantees they are pairwise adjacent. Further symmetry breaking:
    a vertex may open at most one brand-new color (max used so far plus one).
    Vertex selection: fewest usable colors, ties to the lowest id.

    The state is kept in vertex masks: ``banned[c]`` marks the vertices next
    to a vertex of color c, and ``level[j]`` holds the uncolored ones with
    exactly j of the k colors free. Colors above the largest one used are free
    everywhere, so capping the usable colors at one new color shifts every
    count by the same amount, and the selected vertex is always the lowest
    bit of the first non-empty level. Assigning a color moves the neighbours
    that lose it down one level. A child in which a neighbour would lose its
    last color is cut at the assignment; the search would select that
    neighbour there and fail, so the decision tree, and the coloring
    returned, are those of the same search without the cut.
    """
    return _color_search(n, adj, [()] * n, k, clique, False)


def graph_colorable(n: int, adj, k: int, clique=()) -> bool:
    """Whether graph_color_decision finds a coloring, by a smaller search.

    The same search, with one change to the selection at a branching node
    (the first non-empty level is 2 or above): of the vertices there it takes
    the one whose free colors are most contested, a variant of San Segundo's
    PASS rule for DSATUR ties (Computers & OR 39(7), 2012). Its score is the
    sum, over its usable colors c, of its uncolored neighbours on which c is
    still free; ties go to the lowest id. Forced vertices, on level 1, keep
    the lowest-id order. The answer is that of graph_color_decision, but the
    coloring found, if any, is not, so only the answer is returned.
    """
    return _color_search(n, adj, [()] * n, k, clique, True) is not None


def hypergraph_color_tables(n: int, edge_masks):
    """The lists ``(adj, pairs)`` hypergraph_color_decision searches on, or
    None when an edge is a singleton. They depend on the edges alone, so a
    caller trying several k builds them once."""
    uniq = set(int(e) for e in edge_masks)
    if any(e.bit_count() == 1 for e in uniq):
        return None  # monochromatic under every coloring
    through = [{} for _ in range(n)]
    for e in uniq:
        members = [(v, 1 << v) for v in bits_of(e)]
        for v, vbit in members:
            ends_of = through[v]
            rest = e ^ vbit
            for u, ubit in members:
                if u != v:
                    core = rest ^ ubit
                    ends_of[core] = ends_of.get(core, 0) | ubit
    adj = [ends_of.pop(0, 0) for ends_of in through]
    return adj, [tuple(ends_of.items()) for ends_of in through]


def hypergraph_color_decision(n: int, edge_masks, k: int,
                              tables=None) -> tuple[int, ...] | None:
    """k-coloring with no monochromatic edge, or None.

    The search of graph_color_decision, with no pre-colored clique, on one
    rule for every edge size. For every distinct edge e through a vertex v
    and every other member u of e, ``pairs[v]`` pairs a ``core``, e minus v
    and u, with ``ends``, which holds u. Coloring v with c bans c on
    ``ends`` once ``core`` lies inside color class c, the unit propagation
    of the edge on its last uncolored member. A 2-edge has core 0, which is
    the graph rule; its ends are kept apart in ``adj[v]``, the neighbours of
    v, so ``pairs[v]`` has one pair per non-empty core.

    The state is that of graph_color_decision, with ``cls[c]`` (the vertices
    colored c) beside it and ``banned[c]`` marking the uncolored vertices on
    which c would complete a monochromatic edge. The selection (fewest usable
    colors, ties to the lowest id), the one-new-color rule and the cut at the
    assignment are the same, so the decision tree, and the coloring returned,
    are those of the same search without the cut. A singleton edge makes the
    answer None; a zero mask is ignored. ``tables``, when given, is
    hypergraph_color_tables of the same n and edges.
    """
    return _hypergraph_search(n, edge_masks, k, tables, False)


def hypergraph_colorable(n: int, edge_masks, k: int, tables=None) -> bool:
    """Whether hypergraph_color_decision finds a coloring, by a smaller search.

    The scored twin of hypergraph_color_decision, as graph_colorable is of
    graph_color_decision. The score of a tied vertex u counts, for each
    usable color c free at u, the vertices that coloring u with c would ban:
    ``adj[u]`` plus the ``ends`` of every pair of u whose core lies inside
    color class c, limited to the uncolored vertices on which c is still
    free. On a graph, whose pairs are all empty, that is the score of
    graph_colorable. Only the answer is returned, for the coloring found is
    not that of hypergraph_color_decision.
    """
    return _hypergraph_search(n, edge_masks, k, tables, True) is not None


def _hypergraph_search(n: int, edge_masks, k: int, tables, scored: bool):
    if tables is None:
        tables = hypergraph_color_tables(n, edge_masks)
        if tables is None:
            return None
    adj, pairs = tables
    return _color_search(n, adj, pairs, k, (), scored)


def _color_search(n: int, adj, pairs_of, k: int, clique, scored: bool) -> tuple[int, ...] | None:
    """The search behind graph_color_decision and graph_colorable, which
    give every vertex empty pairs, and hypergraph_color_decision and
    hypergraph_colorable, whose ``adj`` and ``pairs_of`` come from
    hypergraph_color_tables; see their docstrings. ``clique`` comes from the
    graph callers alone, and the pre-coloring reads ``adj`` only. The score
    reads the pairs too, when any vertex has them; that choice is made once
    per search, so a graph never pays for the pair scan.

    ``cls[c]`` holds the vertices colored c that have pairs, and no others:
    a core lies inside an edge of three or more vertices, every member of
    which has pairs, so no other vertex is ever tested against ``cls``."""
    if n == 0:
        return ()
    if k <= 0 or len(clique) > k:
        return None
    pair_scored = scored and any(pairs_of)
    color = [-1] * n
    cls = [0] * k
    banned = [0] * k
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        color[v] = c
        uncolored &= ~(1 << v)
        banned[c] |= adj[v]
    level = [0] * (k + 1)
    for v in bits_of(uncolored):
        level[k - sum(b >> v & 1 for b in banned)] |= 1 << v

    def bans(nbrs: int, pairs, c: int, live: int) -> int:
        # the vertices of live on which coloring a vertex with neighbours
        # nbrs and pairs by c would ban c
        hit = nbrs
        outside = ~cls[c]
        for core, ends in pairs:
            if not core & outside:
                hit |= ends
        return hit & live & ~banned[c]

    def rec(uncolored: int, max_used: int) -> bool:
        if not uncolored:
            return True
        j = 0
        while not level[j]:
            j += 1
        if j == 0:
            return False  # only the pre-colored clique leaves a vertex here
        tied = level[j]
        vbit = tied & -tied
        if scored and j > 1 and tied != vbit:
            usable = banned[:min(k, max_used + 2)]
            best = -1
            while tied:
                ubit = tied & -tied
                tied ^= ubit
                u = ubit.bit_length() - 1
                nbrs = adj[u] & uncolored
                score = 0
                if pair_scored:
                    for c, b in enumerate(usable):
                        if not b & ubit:
                            score += bans(nbrs, pairs_of[u], c, uncolored).bit_count()
                else:
                    for b in usable:
                        if not b & ubit:
                            score += (nbrs & ~b).bit_count()
                if score > best:
                    best, vbit = score, ubit
        v = vbit.bit_length() - 1
        level[j] ^= vbit
        rest = uncolored ^ vbit
        pairs = pairs_of[v]
        nbrs = adj[v] & rest
        for c in range(min(k, max_used + 2)):
            if banned[c] & vbit:
                continue
            hit = bans(nbrs, pairs, c, rest) if pairs else nbrs & ~banned[c]
            if hit & level[1]:
                continue  # a vertex would lose its last color
            color[v] = c
            if pairs:
                cls[c] |= vbit
            banned[c] |= hit
            # the vertices of hit drop one level, none of them to level 0 ...
            todo, i = hit, 1
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i - 1] |= moved
                    todo ^= moved
                i += 1
            if rec(rest, c if c > max_used else max_used):
                return True
            # ... and climb back on backtrack
            todo, i = hit, 1
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i + 1] |= moved
                    todo ^= moved
                i += 1
            banned[c] ^= hit
            if pairs:
                cls[c] ^= vbit
        level[j] |= vbit
        return False

    return tuple(color) if rec(uncolored, len(clique) - 1) else None
