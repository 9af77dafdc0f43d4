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
its state in color-class, banned-color and level masks, so a decision costs
O(k) mask operations rather than a scan of every vertex, and cuts at the
assignment each child that would fail at once. Most decisions are forced,
the vertex having one free color left, and one call of its recursion makes
all the forced decisions in a row before it branches. A call copies its
masks before it branches and copies them back after each failed child, so
no decision is ever undone one by one. It runs on two lists indexed by
vertex: ``adj[v]`` holds the neighbours of v by a 2-edge, and the pairs
``(core, ends)`` of ``pairs[v]`` stand for the larger edges through v: for
every such edge e and every other member u of e, core is e minus v and
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
schrijver(10,3): 40,879 decisions of the tree against 337,682, in 8,482
calls of the recursion against 78,262; 3 colors on KG3(K5,P2): 1,239
decisions against 10,132, in 381 calls against 6,542) but changes the
coloring found, so colorings come from the two decision searches alone.
The score counts the vertices a color would ban, through ``adj`` and, on a
hypergraph, through the pairs too. On a graph it is one popcount per vertex:
the free masks of the usable colors sit side by side in one int, each in a
field of n bits, and so do the copies of a row of ``adj`` it is masked with.
The two lists of the hypergraph searches, from hypergraph_color_tables,
depend on the edges alone and serve every k.
Every mask must name vertices 0..n-1 alone, and a graph's ``adj`` must be
symmetric with no vertex its own neighbour. A bit at or above n, a
negative mask or a loop raises ValueError: it would spill into the next
field of a packed score, drop an edge or pass an improper coloring.
Symmetry is not checked.
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


def _check_masks(n: int, masks) -> None:
    """Raise ValueError unless the largest and the smallest of ``masks``
    are masks of vertices 0..n-1, and so all of them are."""
    if masks and (max(masks) >> n or min(masks) < 0):
        raise ValueError(f"a mask names a vertex outside 0..n-1 (n = {n})")


def _check_graph(n: int, adj) -> None:
    """Raise ValueError unless ``adj`` is a list of masks of vertices
    0..n-1 in which no vertex is its own neighbour."""
    _check_masks(n, adj)
    for v, a in enumerate(adj):
        if a >> v & 1:
            raise ValueError("a vertex is its own neighbour")


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

    When every minimal edge has two vertices, the graph search of
    max_independent_set_graph runs instead, on the adjacency masks of those
    edges. It returns the same result, witness included. An edge mask with
    a vertex outside 0..n-1 raises ValueError.
    """
    full = (1 << n) - 1
    uniq = sorted(set(int(e) for e in edge_masks))
    _check_masks(n, uniq)
    if any(e == 0 for e in uniq):
        raise ValueError("empty edge mask")
    # only inclusion-minimal edges constrain independence
    edges = _inclusion_minimal(uniq)
    if not edges or n == 0:
        return n, full
    if all(e.bit_count() == 2 for e in edges):
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
    """max_independent_set on a graph with adjacency masks ``adj``:
    symmetric, within 0..n-1 and without loops, or ValueError is raised
    (symmetry is not checked).

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
    _check_graph(n, adj)
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

    ``adj[v]`` is the mask of the neighbours of v: symmetric, within
    0..n-1 and without v itself, or ValueError is raised (symmetry is not
    checked).

    ``clique`` vertices are pre-colored 0,1,2,... to break color symmetry;
    they must be distinct and pairwise adjacent, or ValueError is raised.
    Further symmetry breaking: a vertex may open at most one brand-new color
    (max used so far plus one). Vertex selection: fewest usable colors, ties
    to the lowest id.

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
    still free; ties go to the lowest id. It is taken in one popcount: the
    free masks of the usable colors are packed into one int, color c in bits
    n*c .. n*c + n - 1, and masked with the row of the vertex copied into
    every field and with the fields of the colors free at the vertex. Forced
    vertices, on level 1, keep the lowest-id order. The answer is that of
    graph_color_decision, but the coloring found, if any, is not, so only
    the answer is returned.
    """
    return _color_search(n, adj, [()] * n, k, clique, True) is not None


def hypergraph_color_tables(n: int, edge_masks):
    """The lists ``(adj, pairs)`` hypergraph_color_decision searches on, or
    None when an edge is a singleton. They depend on the edges alone, so a
    caller trying several k builds them once. An edge mask with a vertex
    outside 0..n-1 raises ValueError."""
    uniq = set(int(e) for e in edge_masks)
    _check_masks(n, uniq)
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
    answer None; a zero mask is ignored, and one with a vertex outside
    0..n-1 raises ValueError. ``tables``, when given, is
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

    On a graph the score of a tied vertex u is one popcount of packed
    fields of n bits, field c standing for color c. ``free_all`` holds
    ``uncolored & ~banned[c]`` in field c for each usable color c, ``ones``
    the lowest bit of each usable field, and the row ``adj[u] * ones``
    copies ``adj[u]`` into every field. ``free_all >> u & ones`` marks the
    fields of the colors free at u, and times ``full`` fills them, so
    ``free_all & row & (free_all >> u & ones) * full`` holds, field by
    field, the neighbours of u on which each color free at u is still free.
    Its popcount is the sum of the per-color counts, the same integer. The
    rows depend on the number of usable colors alone, so they are built
    once per search for each number, when a score first needs them. A bit
    of ``adj`` at or above n would spill into the next field, which is why
    the range of every row is checked first.

    ``cls[c]`` holds the vertices colored c that have pairs, and no others:
    a core lies inside an edge of three or more vertices, every member of
    which has pairs, so no other vertex is ever tested against ``cls``.

    One call of ``rec`` first colors, in a loop, every vertex left with one
    free color, lowest id first, each with that color; it fails as soon as
    one would take the last color of another. It then branches on the
    vertex it selects from the first non-empty level, 2 or above; level 1
    is empty there, so no child is cut. Only the pre-coloring can leave a
    vertex on level 0, and the search then ends at once. With level 0
    empty, level 1 is the first non-empty level whenever it has a vertex,
    so the search that takes one call per decision colors the forced
    vertices in the same order, with the same colors and the same cut: the
    decision tree is the same, and so is the coloring returned. A call
    stands for a run of forced decisions and the branching one that ends
    it.

    Backtracking copies instead of undoing: before its branching loop a
    call copies ``level``, ``banned`` and ``cls``, and after each failed
    child it copies them back, which also takes back every forced coloring
    made below. A failed call leaves its state to its caller, which restores
    its own copy, and a failed search is never read again. ``color`` is not
    restored, for only a successful search reads it, and every vertex is
    colored on the path to that success after any failed subtree.

    A ``clique`` whose members repeat, fall outside 0..n-1 or are not
    pairwise adjacent in ``adj`` raises ValueError: pre-coloring it would
    refute colorings that exist."""
    _check_graph(n, adj)
    members = 0
    for v in clique:
        if not 0 <= v < n or members >> v & 1 or members & ~adj[v]:
            raise ValueError(f"clique {list(clique)} is not a set of pairwise adjacent vertices")
        members |= 1 << v
    if n == 0:
        return ()
    if k <= 0 or len(clique) > k:
        return None
    pair_scored = scored and any(pairs_of)
    # spread[usable]: the field selector and the rows of adj copied into
    # each of the usable fields, built when a graph score first needs them
    spread = [None] * (k + 1)
    color = [-1] * n
    cls = [0] * k
    banned = [0] * k
    full = uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        color[v] = c
        uncolored &= ~(1 << v)
        banned[c] |= adj[v]
    # each uncolored vertex drops one level per color banned on it
    level = [0] * (k + 1)
    level[k] = uncolored
    for b in banned[:len(clique)]:
        todo, i = b & uncolored, 1
        while todo:
            moved = level[i] & todo
            level[i] ^= moved
            level[i - 1] |= moved
            todo ^= moved
            i += 1
    if level[0]:
        return None

    def bans(nbrs: int, pairs, c: int, free: int) -> int:
        # the vertices of free on which coloring a vertex with neighbours
        # nbrs and pairs by c would ban c
        hit = nbrs
        outside = ~cls[c]
        for core, ends in pairs:
            if not core & outside:
                hit |= ends
        return hit & free

    def rec(uncolored: int, max_used: int) -> bool:
        while level[1]:
            # a forced vertex: its one free color is usable, for at most one
            # color above max_used is left, the only new one it may open
            vbit = level[1] & -level[1]
            v = vbit.bit_length() - 1
            c = 0
            while banned[c] & vbit:
                c += 1
            uncolored ^= vbit
            pairs = pairs_of[v]
            free = uncolored & ~banned[c]
            hit = bans(adj[v], pairs, c, free) if pairs else adj[v] & free
            if hit & level[1]:
                return False  # a vertex would lose its last color
            level[1] ^= vbit
            color[v] = c
            if pairs:
                cls[c] |= vbit
            banned[c] |= hit
            todo, i = hit, 2
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i - 1] |= moved
                    todo ^= moved
                i += 1
            if c > max_used:
                max_used = c
        if not uncolored:
            return True
        j = 2
        while not level[j]:
            j += 1
        tied = level[j]
        vbit = tied & -tied
        usable = min(k, max_used + 2)
        if scored and tied != vbit:
            if pair_scored:
                free_of = [uncolored & ~b for b in banned[:usable]]
            else:
                # the free mask of color c in bits n*c .. n*c + n - 1
                free_all = 0
                for b in reversed(banned[:usable]):
                    free_all = free_all << n | (uncolored & ~b)
                if spread[usable] is None:
                    ones = sum(1 << n * c for c in range(usable))
                    spread[usable] = ones, [a * ones for a in adj]
                ones, rows = spread[usable]
            best = -1
            while tied:
                ubit = tied & -tied
                tied ^= ubit
                u = ubit.bit_length() - 1
                if pair_scored:
                    score = 0
                    for c, free in enumerate(free_of):
                        if free & ubit:
                            score += bans(adj[u], pairs_of[u], c, free).bit_count()
                else:
                    # the fields of the colors free at u, masked to its
                    # neighbours and counted in one popcount
                    score = (free_all & rows[u] & (free_all >> u & ones) * full).bit_count()
                if score > best:
                    best, vbit = score, ubit
        v = vbit.bit_length() - 1
        level[j] ^= vbit
        rest = uncolored ^ vbit
        pairs = pairs_of[v]
        saved = level[:], banned[:], cls[:]
        for c in range(usable):
            if banned[c] & vbit:
                continue
            free = rest & ~banned[c]
            hit = bans(adj[v], pairs, c, free) if pairs else adj[v] & free
            color[v] = c
            if pairs:
                cls[c] |= vbit
            banned[c] |= hit
            # the vertices of hit drop one level, none of them to level 0,
            # for level 1 is empty here
            todo, i = hit, 2
            while todo:
                moved = level[i] & todo
                if moved:
                    level[i] ^= moved
                    level[i - 1] |= moved
                    todo ^= moved
                i += 1
            if rec(rest, c if c > max_used else max_used):
                return True
            level[:], banned[:], cls[:] = saved
        return False

    return tuple(color) if rec(uncolored, len(clique) - 1) else None
