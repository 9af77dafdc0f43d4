"""The search kernels, on Python-int vertex masks of any width.

max_independent_set branches on the hitting-set dichotomy. On graphs it
runs the same search on adjacency masks: choosing a vertex drops all its
neighbours from the candidates in one step, the branching edge comes from
masks of lower neighbours rather than a scan of the edge list, and a
clique-partition bound cuts subtrees that cannot change the result. Both
paths return the first maximum leaf of the same tree. graph_color_decision
keeps its state in color and level masks, so a node costs O(k) mask
operations rather than a scan of every vertex, and cuts at the assignment
each child that would fail at once.
hypergraph_color_decision colors with unit propagation on the edges. Each
result, witness included, is fixed by the tie-breaking rules in the
docstrings below.
"""

from __future__ import annotations

from itertools import groupby


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    vertices gets excluded (earlier ones committed to the chosen side).

    When every minimal edge has two vertices, all below ``n``, the graph
    search of _max_independent_set_graph runs instead. It returns the same
    result, witness included.
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
        return _max_independent_set_graph(n, edges)

    best_size = 0
    best_mask = 0

    def rec(chosen: int, cand: int):
        nonlocal best_size, best_mask
        union = chosen | cand
        total = union.bit_count()
        if total <= best_size:
            return
        pick = -1
        pick_t = n + 1
        for e in edges:
            if e & ~union:
                continue
            t = (e & ~chosen).bit_count()
            if t == 0:
                return  # an edge is fully inside the committed part
            if t < pick_t:
                pick, pick_t = e, t
                if t == 1:
                    break
        if pick == -1:
            best_size = total
            best_mask = union
            return
        forced = 0
        for v in _bits(pick & ~chosen):
            bit = 1 << v
            rec(chosen | forced, cand & ~(forced | bit))
            forced |= bit

    rec(0, full)
    return best_size, best_mask


def _max_independent_set_graph(n: int, edges) -> tuple[int, int]:
    """max_independent_set on a graph: ``edges`` are sorted two-bit masks.

    The hypergraph search, kept in adjacency masks. Choosing a vertex drops
    its neighbours from the candidates at once, where the hypergraph search
    takes one single-child node per neighbour (each is then the only free
    vertex of an edge, which that search picks first). The branching edge is
    the first one in sorted mask order with both ends free: the lowest
    candidate v with a candidate neighbour below it, found in ``below[v]``,
    and the lowest such neighbour u. Excluding u comes first, then choosing
    u and so excluding v, as in the hypergraph search. The leaves and their
    order are the same, so is the first maximum leaf, which is the result.

    A node is also cut when the chosen vertices plus a greedy clique
    partition of the candidates cannot beat the best size (Tomita and Seki's
    MCQ bound, for independent sets). Any cut that keeps every strictly
    better leaf leaves that first maximum leaf in place.
    """
    adj = [0] * n
    below = [0] * n
    for e in edges:
        low = e & -e
        u, v = low.bit_length() - 1, (e ^ low).bit_length() - 1
        adj[u] |= 1 << v
        adj[v] |= low
        below[v] |= low

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
    if n == 0:
        return ()
    if k <= 0 or len(clique) > k:
        return None
    color = [-1] * n
    banned = [0] * k
    uncolored = (1 << n) - 1
    for c, v in enumerate(clique):
        color[v] = c
        uncolored &= ~(1 << v)
        banned[c] |= adj[v]
    level = [0] * (k + 1)
    for v in _bits(uncolored):
        level[k - sum(b >> v & 1 for b in banned)] |= 1 << v

    def rec(uncolored: int, max_used: int) -> bool:
        if not uncolored:
            return True
        j = 0
        while not level[j]:
            j += 1
        if j == 0:
            return False  # only the pre-colored clique leaves a vertex here
        vbit = level[j] & -level[j]
        v = vbit.bit_length() - 1
        level[j] ^= vbit
        rest = uncolored ^ vbit
        nbrs = adj[v] & rest
        for c in range(min(k, max_used + 2)):
            if banned[c] & vbit:
                continue
            hit = nbrs & ~banned[c]
            if hit & level[1]:
                continue  # a neighbour would lose its last color
            color[v] = c
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
        level[j] |= vbit
        return False

    return tuple(color) if rec(uncolored, len(clique) - 1) else None


def hypergraph_color_decision(n: int, edge_masks, k: int) -> tuple[int, ...] | None:
    """k-coloring with no monochromatic edge, or None.

    Unit propagation: an edge with one uncolored vertex left and all colored
    members sharing color c bans c on that last vertex. Selection and
    symmetry breaking mirror graph_color_decision.
    """
    if n == 0:
        return ()
    if k <= 0:
        return None
    edges = [int(e) for e in edge_masks]
    m = len(edges)
    incident = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in _bits(e):
            incident[v].append(i)
    kmask = (1 << k) - 1
    color = [-1] * n
    forbid = [0] * n
    rem = [e.bit_count() for e in edges]
    present = [0] * m
    uncolored_mask = (1 << n) - 1
    uncolored = n
    max_used = -1

    def select(cap_mask: int) -> int:
        best_v, best_cnt = -1, 1 << 30
        for v in range(n):
            if color[v] >= 0:
                continue
            cnt = (cap_mask & ~forbid[v]).bit_count()
            if cnt < best_cnt:
                best_v, best_cnt = v, cnt
                if cnt == 0:
                    break
        return best_v

    def rec() -> bool:
        nonlocal uncolored, uncolored_mask, max_used
        if uncolored == 0:
            return True
        cap_mask = kmask & ((1 << (max_used + 2)) - 1)
        v = select(cap_mask)
        usable = cap_mask & ~forbid[v]
        if usable == 0:
            return False
        old_max = max_used
        vbit = 1 << v
        for c in _bits(usable):
            cbit = 1 << c
            color[v] = c
            uncolored -= 1
            uncolored_mask &= ~vbit
            if c > max_used:
                max_used = c
            etrail = []
            ftrail = []
            ok = True
            for i in incident[v]:
                etrail.append((i, rem[i], present[i]))
                rem[i] -= 1
                present[i] |= cbit
                if rem[i] == 0:
                    if present[i].bit_count() == 1:
                        ok = False
                        break
                elif rem[i] == 1 and present[i].bit_count() == 1:
                    last = edges[i] & uncolored_mask
                    u = last.bit_length() - 1
                    if not forbid[u] & present[i]:
                        forbid[u] |= present[i]
                        ftrail.append((u, present[i]))
            if ok and rec():
                return True
            for u, bit in ftrail:
                forbid[u] &= ~bit
            for i, r, p in reversed(etrail):
                rem[i] = r
                present[i] = p
            uncolored += 1
            uncolored_mask |= vbit
            color[v] = -1
            max_used = old_max
        return False

    return tuple(color) if rec() else None
