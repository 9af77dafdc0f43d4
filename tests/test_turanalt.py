import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kneserturan import (
    AlternatingColoring,
    AltermaticCertificate,
    Hypergraph,
    InvalidParameterError,
    LinearOrdering,
    SizeCapError,
    TuranReport,
    VerificationError,
    alt_sigma_level,
    altermatic_certificate,
    build_named_family,
    build_named_kneser,
    chromatic_number_graph,
    doubled,
    ex_alt_min,
    ex_alt_sigma,
    family_of,
    interval_ordering,
    kneser_of_family,
    kneser_power,
    occurrence_masks,
    pattern_hypergraph,
    salt_sigma,
    turan_coloring,
    turan_number,
    validate_hypergraph_coloring,
    verify_certificate,
    verify_turan_report,
)
from kneserturan.hyperstruct import bits_of, mask_of
from kneserturan import turanalt
from kneserturan.turanalt import (
    _admissible_vertex_vectors,
    _alternating_tables,
    _best_alternating,
    _brute_alternating_value,
    _brute_turan,
    _disjointness_colorable,
    _least_alternating,
    _lex_leaders,
    _scan_floor,
    _scan_orderings,
    _vector_alternation,
)
from conftest import random_graph, random_hypergraph, search_nodes


def _p2():
    return family_of(build_named_family("path", length=2))


def _k3():
    return family_of(build_named_family("complete", n=3))


def _c4():
    return family_of(build_named_family("cycle", n=4))


def _2k2():
    return family_of(build_named_family("matching", n=2))


# --- plain maximization ---

def test_largest_path_free_subgraph_of_k4():
    # a two-edge-path-free edge set is a matching; K4's maximum matching is 2
    report = turan_number(build_named_family("complete", n=4), _p2())
    assert report.value == 2
    assert report.mode == "exact"
    e1, e2 = sorted(report.witness_edges)
    k4 = build_named_family("complete", n=4)
    assert not (k4.edges[e1] & k4.edges[e2])


def test_largest_triangle_free_subgraph_of_k5():
    # bipartite K_{2,3} gives 6 edges; 7 edges on 5 vertices force a triangle
    report = turan_number(build_named_family("complete", n=5), _k3())
    assert report.value == 6


def test_doubled_triangle_killing_one_class():
    # every triangle picks one copy per parallel class, so a triangle-free
    # subset must drop one class outright: 2 classes * 2 copies survive
    report = turan_number(doubled(build_named_family("complete", n=3)), _k3())
    assert report.value == 4


def test_pattern_that_never_occurs():
    host = build_named_family("complete", n=4)
    fam = family_of(build_named_family("complete", n=5))
    report = turan_number(host, fam)
    assert report.value == host.n_edges
    assert report.mode == "exact"


def test_heuristic_mode_is_a_seeded_lower_bound():
    host = build_named_family("complete", n=5)
    exact = turan_number(host, _k3()).value
    heur = turan_number(host, _k3(), mode="heuristic", seed=5, restarts=16)
    again = turan_number(host, _k3(), mode="heuristic", seed=5, restarts=16)
    assert heur.mode == "lower-bound"
    assert heur.value <= exact
    assert heur.to_json_dict() == again.to_json_dict()


def test_exact_mode_respects_cap():
    host = build_named_family("complete", n=5)
    with pytest.raises(SizeCapError):
        turan_number(host, _k3(), mode="exact", cap=9)


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.sampled_from(list(combinations(range(6), 2))), min_size=1, max_size=10),
       family=st.sampled_from((_p2, _k3, _c4)))
def test_exact_turan_number_matches_subset_scan(edges, family):
    # exact ex comes from the shared independence kernel; the full subset
    # scan shares nothing with it, so it is the independent check
    host = Hypergraph(6, tuple(frozenset(e) for e in edges))
    fam = family()
    occ = occurrence_masks(host, fam)
    report = turan_number(host, fam, mode="exact")
    assert report.value == _brute_turan(host.n_edges, occ)
    assert len(report.witness_edges) == report.value
    kept = mask_of(report.witness_edges)
    assert all(om & kept != om for om in occ)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_turan_coloring_is_proper_with_edges_minus_ex_colors(data):
    # the paper's upper bound: each occurrence colored by its lowest host
    # edge outside a maximum occurrence-free set, on simple and doubled hosts
    n = data.draw(st.integers(2, 7))
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                               min_size=1, max_size=9, unique=True))
    host = Hypergraph(n, tuple(frozenset(p) for p in pairs))
    if data.draw(st.booleans()):
        host = doubled(host)
    fam = data.draw(st.sampled_from((_p2, _k3, _2k2)))()
    report = turan_number(host, fam, mode="exact")
    cert = turan_coloring(host, fam, report.witness_edges)
    assert cert.num_colors == host.n_edges - report.value
    assert len(set(cert.assignment)) == cert.num_colors
    assert validate_hypergraph_coloring(kneser_of_family(host, fam).result, cert.assignment)


# --- alternating variants at a fixed ordering ---

def test_matching_pair_ordering_on_k4():
    # ordering (0,5,1,4,2,3) lists each K4 edge next to its disjoint mate,
    # so the two edges around any length-3 alternation share a vertex: max 2
    k4 = build_named_family("complete", n=4)
    sigma = LinearOrdering((0, 5, 1, 4, 2, 3))
    report = ex_alt_sigma(k4, _p2(), sigma)
    assert report.value == 2
    colored = report.witness_coloring
    assert len(colored) == 2
    assert colored.color_class("red") | colored.color_class("blue") <= set(range(6))


def test_identity_ordering_on_k4_is_larger():
    k4 = build_named_family("complete", n=4)
    val = ex_alt_sigma(k4, _p2(), LinearOrdering.identity(6)).value
    assert val >= 3  # e.g. edges 01, 23 red and 02 blue alternate at identity


def test_alternation_fills_everything_without_occurrences():
    host = build_named_family("complete", n=4)
    fam = family_of(build_named_family("complete", n=5))
    report = ex_alt_sigma(host, fam, LinearOrdering.identity(6))
    assert report.value == 6


def test_minimized_ordering_on_k4():
    report = ex_alt_min(build_named_family("complete", n=4), _p2())
    assert report.value == 2
    assert report.mode == "exact"
    # the witness achieves the minimum at its own ordering
    check = ex_alt_sigma(build_named_family("complete", n=4), _p2(),
                         report.witness_coloring.ordering)
    assert check.value == 2


def test_ordering_scan_cap():
    host = build_named_family("complete", n=5)  # 10 edges > default cap 8
    with pytest.raises(SizeCapError):
        ex_alt_min(host, _k3())
    heur = ex_alt_min(host, _k3(), mode="heuristic", seed=1)
    assert heur.mode == "upper-bound"
    assert heur.value >= turan_number(host, _k3()).value


# --- the exact ordering scan: floor and symmetry ---

def _reference_ordering_scan(m, occ_masks, strong):
    """The exact scan before the chi floor and the symmetry cut: every
    ordering whose first element is below its last, with no early stop."""
    tables = _alternating_tables(m, occ_masks)
    cur = m + 1
    cur_seq = None
    cur_col = ()
    for first in range(max(m - 1, 1)):
        for tail in permutations([e for e in range(m) if e != first]):
            if tail and tail[-1] < first:
                continue
            seq = (first,) + tail
            val, colored = _best_alternating(seq, tables, strong, cur)
            if val < cur:
                cur, cur_seq, cur_col = val, seq, colored
    return cur, cur_seq, cur_col


_SCAN_FAMILIES = (
    family_of(build_named_family("path", length=2)),
    family_of(build_named_family("complete", n=3)),
    family_of(build_named_family("matching", n=2)),
    family_of(Hypergraph(2, (frozenset({0, 1}), frozenset({0, 1})))),  # a doubled edge
)


@st.composite
def _scan_instances(draw, max_edges):
    # simple hosts, and multigraph hosts with some edges doubled; up to 6
    # vertices leave room for isolated edges and occurrence-free hosts
    n = draw(st.integers(3, 6))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=1, max_size=max_edges, unique=True))
    if draw(st.booleans()):
        pairs += pairs[:draw(st.integers(0, max_edges - len(pairs)))]
    host = Hypergraph(n, tuple(frozenset(p) for p in pairs))
    return host, draw(st.sampled_from(_SCAN_FAMILIES))


@settings(max_examples=60, deadline=None)
@given(instance=_scan_instances(7))
# doubled C4, its two copies of each edge listed apart, so that the identity
# misses the floor and the scan goes on past it
@example(instance=(Hypergraph(4, build_named_family("cycle", n=4).edges * 2), _p2()))
def test_exact_ordering_scan_matches_unfloored_scan(instance):
    host, fam = instance
    occ = occurrence_masks(host, fam)
    for strong in (False, True):
        report = ex_alt_min(host, fam, strong=strong, mode="exact")
        coloring = report.witness_coloring
        got = (report.value, coloring.ordering.sequence, coloring.colored)
        assert got == _reference_ordering_scan(host.n_edges, occ, strong), strong


@settings(max_examples=80, deadline=None)
@given(instance=_scan_instances(7))
def test_alternating_tables_split_the_rests_by_size(instance):
    # ones[e] is the mask of the one-edge rests om - e, longer[e] lists the
    # others; together they are the rests of the multi-edge occurrences om
    # through e, and singles is the mask of the one-edge occurrences
    host, fam = instance
    m = host.n_edges
    occ = occurrence_masks(host, fam)
    ones, longer, singles = _alternating_tables(m, occ)
    assert singles == mask_of(om.bit_length() - 1 for om in occ if om.bit_count() == 1)
    for e in range(m):
        rests = sorted(om ^ 1 << e for om in occ if om >> e & 1 and om.bit_count() > 1)
        assert all(r.bit_count() >= 2 for r in longer[e])
        assert sorted([1 << f for f in bits_of(ones[e])] + longer[e]) == rests


@settings(max_examples=80, deadline=None)
@given(instance=_scan_instances(5))
def test_scan_floor_never_exceeds_the_minimum(instance):
    host, fam = instance
    m = host.n_edges
    occ = occurrence_masks(host, fam)
    for strong in (False, True):
        least = min(_brute_alternating_value(seq, occ, strong)
                    for seq in permutations(range(m)))
        assert _scan_floor(m, occ, strong) <= least == ex_alt_min(host, fam, strong=strong).value


def _reference_least_alternating(orderings, tables, strong, floor):
    """_least_alternating without the chains: every ordering drawn is
    searched."""
    best = None
    least = None
    for seq in orderings:
        val, colored = _best_alternating(seq, tables, strong, least)
        if least is None or val < least:
            least = val
            best = (val, seq, colored)
            if val <= floor:
                break
    return best


@settings(max_examples=80, deadline=None)
@given(instance=_scan_instances(7), seed=st.integers(0, 2**16))
@example(instance=(build_named_family("cycle", n=6), _p2()), seed=0)
@example(instance=(build_named_family("complete", n=4), _k3()), seed=0)
def test_chain_skips_leave_the_least_ordering_unchanged(instance, seed):
    # the exact scan with its floor, and lists of random orderings (repeats
    # included) with no floor, in the plain and the strong form
    host, fam = instance
    m = host.n_edges
    occ = occurrence_masks(host, fam)
    occ_graph = pattern_hypergraph(host, fam)
    tables = _alternating_tables(m, occ)
    rng = random.Random(seed)
    randoms = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 60))]
    for strong in (False, True):
        floor = _scan_floor(m, occ, strong)
        assert _least_alternating(_scan_orderings(m, occ_graph), tables, strong, floor) == \
            _reference_least_alternating(_scan_orderings(m, occ_graph), tables, strong, floor)
        assert _least_alternating(randoms, tables, strong, -1) == \
            _reference_least_alternating(randoms, tables, strong, -1)


@pytest.mark.parametrize("strong", [False, True])
def test_orderings_the_scan_skips_cannot_go_below_its_minimum(monkeypatch, strong):
    host = build_named_family("cycle", n=8)
    drawn, searched = [], set()
    real_scan, real_search = turanalt._scan_orderings, turanalt._best_alternating

    def recorded_scan(*args):
        for seq in real_scan(*args):
            drawn.append(seq)
            yield seq

    def recorded_search(*args):
        searched.add(args[0])
        return real_search(*args)

    monkeypatch.setattr(turanalt, "_scan_orderings", recorded_scan)
    monkeypatch.setattr(turanalt, "_best_alternating", recorded_search)
    report = ex_alt_min(host, _p2(), strong=strong)
    monkeypatch.undo()
    skipped = [seq for seq in drawn if seq not in searched]
    assert len(skipped) > len(searched)
    for seq in skipped:
        assert ex_alt_sigma(host, _p2(), LinearOrdering(seq), strong).value >= report.value


def _closure(gens, m):
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[g[x]] for x in range(m))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return tuple(sorted(group))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lex_leaders_are_the_least_orderings_of_each_orbit(data):
    m = data.draw(st.integers(1, 5))
    gens = data.draw(st.lists(st.permutations(range(m)), max_size=2))
    group = _closure([tuple(g) for g in gens], m)
    leaders = [s for s in permutations(range(m))
               if all(tuple(g[x] for x in s) >= s for g in group)]
    assert list(_lex_leaders(m, group, range(m))) == leaders
    first = data.draw(st.integers(0, m - 1))
    assert list(_lex_leaders(m, group, range(first, first + 1))) == \
        [s for s in leaders if s[0] == first]


def _searched_orderings(monkeypatch, host, strong):
    # orderings ex_alt_min searches on P2, in order, the identity included
    seen = []
    real = turanalt._best_alternating

    def counted(*args):
        seen.append(args[0])
        return real(*args)

    monkeypatch.setattr(turanalt, "_best_alternating", counted)
    ex_alt_min(host, _p2(), strong=strong)
    monkeypatch.undo()
    return seen


_CALL_HOSTS = (
    build_named_family("complete", n=4),
    build_named_family("cycle", n=8),
    doubled(build_named_family("cycle", n=4)),
    Hypergraph(4, build_named_family("cycle", n=4).edges * 2),
)


@pytest.mark.parametrize("host, strong, calls", [
    (_CALL_HOSTS[0], False, 15),
    (_CALL_HOSTS[0], True, 7),
    (_CALL_HOSTS[1], False, 973),
    (_CALL_HOSTS[1], True, 670),
    (_CALL_HOSTS[2], False, 1),
    (_CALL_HOSTS[2], True, 1),
    (_CALL_HOSTS[3], False, 10),
    (_CALL_HOSTS[3], True, 12),
])
def test_exact_scan_best_alternating_calls(monkeypatch, host, strong, calls):
    # with no chain kept, the exact scan searches every ordering it draws,
    # each once
    monkeypatch.setattr(turanalt, "_CHAINS_KEPT", 0)
    seen = _searched_orderings(monkeypatch, host, strong)
    assert len(seen) == calls
    assert len(set(seen)) == calls


@pytest.mark.parametrize("host, strong, calls", [
    (_CALL_HOSTS[0], False, 3),
    (_CALL_HOSTS[0], True, 3),
    (_CALL_HOSTS[1], False, 68),
    (_CALL_HOSTS[1], True, 114),
    (_CALL_HOSTS[2], False, 1),
    (_CALL_HOSTS[2], True, 1),
    (_CALL_HOSTS[3], False, 7),
    (_CALL_HOSTS[3], True, 5),
])
def test_exact_scan_chain_skips_pinned(monkeypatch, host, strong, calls):
    # the kept chains leave these orderings to search, each once, in the
    # order the scan that keeps none searches them
    seen = _searched_orderings(monkeypatch, host, strong)
    assert len(seen) == calls
    assert len(set(seen)) == calls
    monkeypatch.setattr(turanalt, "_CHAINS_KEPT", 0)
    every = iter(_searched_orderings(monkeypatch, host, strong))
    assert all(seq in every for seq in seen)


def test_ordering_scan_search_nodes_pinned():
    # nodes of the alternating searches of ex_alt_min on P2, summed over the
    # orderings it tries: (plain, strong) in each mode; the kernel calls of
    # the floor are not counted
    pinned = (
        (build_named_family("cycle", n=7), "exact", (178, 379)),
        (build_named_family("complete", n=4), "exact", (50, 75)),
        (build_named_family("complete", n=6), "heuristic", (1_053, 2_350)),
        (build_named_family("complete_bipartite", m=3, n=4), "heuristic", (856, 1_007)),
    )
    for host, mode, counts in pinned:
        got = tuple(search_nodes(ex_alt_min, host, _p2(), strong, mode)
                    for strong in (False, True))
        assert got == counts, (host.n_edges, mode)


def test_interval_ordering_layout():
    g = doubled(build_named_family("path", length=2))
    sigma = interval_ordering(g)
    assert sigma.sequence == (0, 1, 2, 3)
    mixed = Hypergraph(3, (frozenset({1, 2}), frozenset({0, 1}), frozenset({1, 2})))
    assert interval_ordering(mixed).sequence == (1, 0, 2)
    assert interval_ordering(mixed, singles_last=True).sequence == (0, 2, 1)
    with pytest.raises(InvalidParameterError):
        interval_ordering(Hypergraph(3, (frozenset({0, 1, 2}),)))


def test_doubled_hosts_interval_equalities():
    # with every edge doubled, grouping parallel copies pins the alternating
    # value to the plain maximum, and the strong variant to one more
    for base, fam in [
        (build_named_family("complete", n=3), _k3()),
        (build_named_family("complete", n=3), _p2()),
        (build_named_family("cycle", n=4), _p2()),
    ]:
        host = doubled(base)
        ex = turan_number(host, fam).value
        sigma = interval_ordering(host)
        assert ex_alt_sigma(host, fam, sigma).value == ex
        assert ex_alt_sigma(host, fam, sigma, strong=True).value == ex + 1


# --- sign-vector alternation of representations ---

def test_two_stable_pairs_rep_identity_alternation():
    # hyperedges are the 2-stable pairs of a 6-cycle; at the identity
    # ordering a 4-run vector forces two same-sign entries at cyclic
    # distance >= 2, i.e. a hyperedge inside one side, so alt stops at 3
    rep = build_named_kneser("schrijver", n=6, k=2).instance.representation
    ident = LinearOrdering.identity(6)
    assert alt_sigma_level(rep, ident, 1) == 3
    assert salt_sigma(rep, ident) == 3


def test_five_cycle_rep_certificates():
    five = build_named_family("cycle", n=5)
    values = [altermatic_certificate(five, LinearOrdering(p)).value
              for p in permutations(range(5))]
    assert max(values) == 2
    chi = chromatic_number_graph(kneser_power(five).result).value
    assert chi == 3
    assert all(v <= chi for v in values)


def test_five_cycle_spread_rep_reaches_chi():
    spread = Hypergraph(10, build_named_family("cycle", n=5).edges)
    sigma = LinearOrdering((0, 5, 1, 6, 2, 7, 3, 8, 4, 9))
    cert = altermatic_certificate(spread, sigma)
    assert cert.alt_value == 7
    assert cert.value == 3
    assert cert.value == chromatic_number_graph(kneser_power(spread).result).value


def test_alt_level_two_is_at_least_level_one():
    rng = random.Random(41)
    for _ in range(20):
        rep = random_hypergraph(rng, max_vertices=5, max_edges=4)
        sigma = LinearOrdering(tuple(rng.sample(range(rep.n_vertices), rep.n_vertices)))
        a1 = alt_sigma_level(rep, sigma, 1)
        a2 = alt_sigma_level(rep, sigma, 2)
        assert a1 <= a2 <= rep.n_vertices
        assert a1 <= salt_sigma(rep, sigma)


def test_ordering_search_agrees_with_raw_enumeration():
    # same quantity, two implementations that share nothing: the pruned
    # depth-first search versus the full sign-vector scan
    rng = random.Random(42)
    for _ in range(10):
        rep = random_hypergraph(rng, max_vertices=4, max_edges=4)
        n = rep.n_vertices
        for i in (1, 2):
            for p in permutations(range(n)):
                sigma = LinearOrdering(p)
                assert alt_sigma_level(rep, sigma, i) == _vector_alternation(rep, sigma, i, False)


def test_alternating_colorings_and_sign_vectors_match():
    # ex_alt at an ordering equals the level-1 alternation of the occurrence
    # hypergraph read along the same ordering, and likewise for the strong pair
    rng = random.Random(43)
    for _ in range(12):
        host = random_graph(rng, rng.randint(3, 5), 0.6)
        if host.n_edges > 6:
            continue
        fam = _p2()
        rep = pattern_hypergraph(host, fam)
        sigma = LinearOrdering(tuple(rng.sample(range(host.n_edges), host.n_edges)))
        assert ex_alt_sigma(host, fam, sigma).value == alt_sigma_level(rep, sigma, 1)
        assert ex_alt_sigma(host, fam, sigma, strong=True).value == salt_sigma(rep, sigma)


def test_sandwich_chains_on_random_hosts():
    rng = random.Random(44)
    seen = 0
    for _ in range(40):
        host = random_graph(rng, rng.randint(3, 5), 0.5)
        if host.n_edges > 6:
            continue
        fam = rng.choice((_p2(), _k3()))
        ex = turan_number(host, fam).value
        alt = ex_alt_min(host, fam).value
        salt = ex_alt_min(host, fam, strong=True).value
        assert ex <= alt <= 2 * ex
        assert salt <= 2 * ex + 1
        if ex < host.n_edges:
            assert ex + 1 <= salt
            seen += 1
        else:
            assert salt == ex  # nothing to alternate against: both sides stay free
    assert seen >= 10


def _reference_best_alternating(seq, occ_masks, strong, stop_at, level=1):
    """The alternating search that scans the occurrences to test each take
    and cuts only on the count of edges left: the oracle for
    _best_alternating, which keeps dead masks, a live-edge bound and, from
    level 2 on, the list of occurrences inside the classes."""
    m = len(seq)
    best = -1
    best_choice = ()
    chosen = []
    aborted = False

    def rec(pos, red, blue, red_bad, blue_bad):
        nonlocal best, best_choice, aborted
        if len(chosen) > best:
            best = len(chosen)
            best_choice = tuple(chosen)
            if stop_at is not None and best >= stop_at:
                aborted = True
        if aborted or pos == m or len(chosen) + (m - pos) <= best:
            return
        e = seq[pos]
        bit = 1 << e
        take_red = len(chosen) % 2 == 0
        side = (red | bit) if take_red else (blue | bit)
        side_bad = red_bad if take_red else blue_bad
        other_bad = blue_bad if take_red else red_bad
        if level == 1:
            completes = side_bad or any(om & side == om for om in occ_masks)
        else:
            grown = (side, blue) if take_red else (red, side)
            inside = [om for om in occ_masks if any(om & c == om for c in grown)]
            completes = not _disjointness_colorable(inside, level - 1)
        if not completes or (strong and not other_bad):
            chosen.append(e)
            if take_red:
                rec(pos + 1, side, blue, red_bad or completes, blue_bad)
            else:
                rec(pos + 1, red, side, red_bad, blue_bad or completes)
            chosen.pop()
            if aborted:
                return
        rec(pos + 1, red, blue, red_bad, blue_bad)

    rec(0, 0, 0, False, False)
    return best, tuple((e, "red" if k % 2 == 0 else "blue") for k, e in enumerate(best_choice))


@st.composite
def _alternating_instances(draw):
    # occurrences of 1 to 4 edges, repeats and single edges included, along
    # a random ordering of up to 10 edges
    m = draw(st.integers(0, 10))
    occ = []
    if m:
        for es in draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1,
                                        max_size=min(m, 4)), max_size=14)):
            occ.append(sum(1 << e for e in es))
    return tuple(draw(st.permutations(range(m)))), occ, draw(st.integers(0, m + 1))


@settings(max_examples=300, deadline=None)
@given(instance=_alternating_instances())
def test_best_alternating_matches_reference(instance):
    seq, occ, stop = instance
    tables = _alternating_tables(len(seq), occ)
    for level, strong in ((1, False), (2, False), (3, False), (1, True)):
        for stop_at in (None, stop):
            assert _best_alternating(seq, tables, strong, stop_at, level) == \
                _reference_best_alternating(seq, occ, strong, stop_at, level), \
                (level, strong, stop_at)


@st.composite
def _sign_search_instances(draw):
    # uniform or mixed edge sizes, singletons and repeated edges included
    n = draw(st.integers(1, 7))
    sizes = st.integers(1, n)
    if draw(st.booleans()):
        sizes = st.just(draw(sizes))
    edges = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(sizes)
        edges.append(frozenset(draw(st.permutations(range(n)))[:k]))
    sigma = LinearOrdering(tuple(draw(st.permutations(range(n)))))
    return Hypergraph(n, tuple(edges)), sigma


@settings(max_examples=150, deadline=None)
@given(instance=_sign_search_instances())
def test_sign_vector_alternation_matches_raw_enumeration(instance):
    # the alternating search on the representation against the full
    # sign-vector scan, which shares no pruning with it; every certificate
    # it packages passes the verifier, exhaustive re-check included
    rep, sigma = instance
    for i in (1, 2, 3):
        assert alt_sigma_level(rep, sigma, i) == _vector_alternation(rep, sigma, i, False), i
    assert salt_sigma(rep, sigma) == _vector_alternation(rep, sigma, 1, True)
    for i, strong in ((1, False), (2, False), (3, False), (1, True)):
        cert = altermatic_certificate(rep, sigma, i=i, strong=strong)
        assert verify_certificate(cert) == {"witness_checked": True,
                                            "exhaustive_rechecked": True}, (i, strong)


def test_strong_certificate_takes_only_level_one():
    rep = build_named_family("cycle", n=5)
    with pytest.raises(InvalidParameterError):
        altermatic_certificate(rep, LinearOrdering.identity(5), i=2, strong=True)


def test_certificate_search_nodes_pinned():
    # nodes of the alternating search behind each certificate at the
    # identity ordering: (i = 1, 2, 3, strong); the kernel calls of the
    # level-3 test are not counted
    pinned = {(9, 3): (113, 335, 19, 251), (12, 5): (661, 505, 25, 439)}
    for (n, k), counts in pinned.items():
        rep = build_named_family("complete-uniform", n=n, s=k)
        sigma = LinearOrdering.identity(n)
        got = tuple(search_nodes(altermatic_certificate, rep, sigma, i, strong)
                    for i, strong in ((1, False), (2, False), (3, False), (1, True)))
        assert got == counts, (n, k)


# --- serialization and verification ---

def test_turan_report_json_roundtrip():
    host = build_named_family("complete", n=4)
    report = turan_number(host, _p2())
    again = type(report).from_json_dict(report.to_json_dict())
    assert again == report


def test_alternating_coloring_validation():
    sigma = LinearOrdering((2, 0, 1))
    AlternatingColoring(sigma, ((2, "red"), (1, "blue")))
    with pytest.raises(InvalidParameterError):
        AlternatingColoring(sigma, ((2, "red"), (1, "red")))
    with pytest.raises(InvalidParameterError):
        AlternatingColoring(sigma, ((1, "red"), (2, "blue")))  # against the order
    with pytest.raises(InvalidParameterError):
        AlternatingColoring(sigma, ((2, "green"),))


def test_certificate_roundtrip_and_verify():
    rep = build_named_family("cycle", n=5)
    cert = altermatic_certificate(rep, LinearOrdering.identity(5))
    doc = cert.to_json_dict()
    again = AltermaticCertificate.from_json_dict(doc)
    assert again == cert
    checks = verify_certificate(again)
    assert checks == {"witness_checked": True, "exhaustive_rechecked": True}


def _admissible_inline(rep, i, strong):
    """Reference: the sign-vector scan with every edge mask tested against
    both sides of every vector."""
    masks = rep.edge_masks
    out = []
    for signs in product((-1, 0, 1), repeat=rep.n_vertices):
        plus = mask_of(v for v, s in enumerate(signs) if s == 1)
        minus = mask_of(v for v, s in enumerate(signs) if s == -1)
        if plus == 0 and minus == 0:
            continue
        inside = [em for em in masks if em & plus == em or em & minus == em]
        if strong:
            plus_hit = any(em & plus == em for em in masks)
            minus_hit = any(em & minus == em for em in masks)
            ok = not (plus_hit and minus_hit)
        elif i == 1:
            ok = not inside
        elif i == 2:
            ok = all(a & b != 0 for a, b in combinations(inside, 2))
        else:
            ok = _disjointness_colorable(inside, i - 1)
        if ok:
            out.append(signs)
    return tuple(out)


def test_admissible_vectors_match_inline_scan():
    rng = random.Random(44)
    for _ in range(12):
        rep = random_hypergraph(rng, max_vertices=7, max_edges=8)
        for level, strong in ((1, False), (2, False), (3, False), (None, True)):
            assert _admissible_vertex_vectors(rep, level, strong) == \
                _admissible_inline(rep, level, strong)


def test_admissible_vectors_match_inline_scan_on_dense_reps():
    # many edges, so many sign vectors share the edges inside their sides
    # and the memoized level-2 and level-3 verdicts are reused
    reps = (build_named_family("complete", n=6),
            Hypergraph(6, tuple(frozenset(e) for e in combinations(range(6), 3))[:12]))
    for rep in reps:
        for level in (2, 3):
            assert _admissible_vertex_vectors(rep, level, False) == \
                _admissible_inline(rep, level, False)


def test_kneser_10_4_certificates_recheck_exhaustively():
    rep = build_named_kneser("kneser", n=10, k=4).instance.representation
    for i, strong in ((1, False), (2, False), (3, False), (1, True)):
        cert = altermatic_certificate(rep, LinearOrdering.identity(10), i=i, strong=strong)
        assert verify_certificate(cert) == {"witness_checked": True,
                                            "exhaustive_rechecked": True}


def test_certificate_tampering_is_caught():
    rep = build_named_family("cycle", n=5)
    cert = altermatic_certificate(rep, LinearOrdering.identity(5))
    doc = cert.to_json_dict()
    doc["alt_value"] -= 1
    doc["value"] += 1
    with pytest.raises(VerificationError):
        verify_certificate(AltermaticCertificate.from_json_dict(doc))
    bad_value = dict(cert.to_json_dict())
    bad_value["value"] += 1
    with pytest.raises(VerificationError):
        AltermaticCertificate.from_json_dict(bad_value)


def test_turan_report_tampering_is_caught():
    host = build_named_family("complete", n=4)
    report = turan_number(host, _p2())
    assert verify_turan_report(host, _p2(), report)["value_rechecked"]

    doc = report.to_json_dict()
    doc["witness_edges"] = [0, 1]  # edges 01 and 02 share vertex 0
    with pytest.raises(VerificationError):
        verify_turan_report(host, _p2(), type(report).from_json_dict(doc))

    doc2 = report.to_json_dict()
    doc2["value"] = 3
    doc2["witness_edges"] = doc2["witness_edges"] + [4]
    with pytest.raises(VerificationError):
        verify_turan_report(host, _p2(), type(report).from_json_dict(doc2))


def test_alternating_report_verifies():
    host = build_named_family("complete", n=4)
    sigma = LinearOrdering((0, 5, 1, 4, 2, 3))
    report = ex_alt_sigma(host, _p2(), sigma)
    checks = verify_turan_report(host, _p2(), report)
    assert checks["value_rechecked"]
    # same coloring, inflated headline value
    doc = report.to_json_dict()
    doc["value"] = 3
    with pytest.raises(VerificationError):
        verify_turan_report(host, _p2(), TuranReport.from_json_dict(doc))
    # a length-3 coloring whose red class holds two edges through vertex 1
    bad = TuranReport("ex-alt", 3, "exact", witness_coloring=AlternatingColoring(
        sigma, ((0, "red"), (5, "blue"), (3, "red"))))
    with pytest.raises(VerificationError):
        verify_turan_report(host, _p2(), bad)


def test_occurrence_masks_align_with_pattern_hypergraph():
    host = build_named_family("complete", n=4)
    assert occurrence_masks(host, _p2()) == pattern_hypergraph(host, _p2()).edge_masks
