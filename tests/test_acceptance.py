"""Acceptance gate: eleven criteria, one test and one printed verdict line each.

Every expected value is a frozen integer; time budgets are asserted with
wall-clock measurements. Nothing here is tuned to make a red criterion
green: a formula that misses at some size is reported exactly as computed.
"""

import random
import time
from itertools import permutations
from math import ceil, comb, floor

from kneserturan import (
    Hypergraph,
    LinearOrdering,
    alt_sigma_level,
    altermatic_certificate,
    build_named_family,
    build_named_kneser,
    chromatic_number_graph,
    chromatic_number_hypergraph,
    covering_number,
    doubled,
    ex_alt_min,
    ex_alt_sigma,
    family_of,
    independence_number,
    interval_ordering,
    kneser_of_family,
    kneser_power,
    pattern_hypergraph,
    run_golden_suite,
    turan_coloring,
    turan_number,
    validate_hypergraph_coloring,
    verify_certificate,
)
from kneserturan.turanalt import _vector_alternation
from conftest import random_graph, random_hypergraph


def _verdict(num, label, ok, detail):
    print(f"[C{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _fam(kind, **params):
    return family_of(build_named_family(kind, **params))


def test_c01_matching_kneser_closed_form():
    results = []
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3)):
        start = time.perf_counter()
        chi = chromatic_number_graph(build_named_kneser("kneser", n=n, k=k).graph).value
        elapsed = time.perf_counter() - start
        results.append((n, k, chi, n - 2 * k + 2, elapsed))
        assert elapsed < 10.0, (n, k, elapsed)
    ok = all(chi == want for _, _, chi, want, _ in results)
    detail = "; ".join(f"({n},{k})={chi}" for n, k, chi, _, _ in results)
    assert _verdict(1, "matching Kneser chromatic numbers n-2k+2", ok, detail)


def test_c02_cycle_schrijver_closed_form():
    results = []
    for n, k in ((5, 2), (6, 2), (7, 2), (7, 3)):
        start = time.perf_counter()
        chi = chromatic_number_graph(build_named_kneser("schrijver", n=n, k=k).graph).value
        elapsed = time.perf_counter() - start
        results.append((n, k, chi, n - 2 * k + 2, elapsed))
        assert elapsed < 10.0, (n, k, elapsed)
    ok = all(chi == want for _, _, chi, want, _ in results)
    detail = "; ".join(f"({n},{k})={chi}" for n, k, chi, _, _ in results)
    assert _verdict(2, "cycle-host Schrijver chromatic numbers n-2k+2", ok, detail)


def test_c03_order_three_matching_power():
    results = []
    for n in (6, 7, 8):
        start = time.perf_counter()
        inst = kneser_of_family(build_named_family("matching", n=n),
                                _fam("matching", n=2), r=3)
        chi = chromatic_number_hypergraph(inst.result).value
        elapsed = time.perf_counter() - start
        results.append((n, chi, ceil((n - 3) / 2), elapsed))
        assert elapsed < 60.0, (n, elapsed)
    ok = all(chi == want for _, chi, want, _ in results)
    detail = "; ".join(f"n={n}: {chi}" for n, chi, _, _ in results)
    assert _verdict(3, "order-3 matching Kneser hypergraphs ceil((n-3)/2)", ok, detail)


def _edge_pairs(graph, key):
    return {frozenset(key[v] for v in e) for e in graph.edges}


def _is_petersen(host, inst):
    """KG(K5, triangle) equals KG(5,2) once each triangle is keyed by its
    complementary vertex pair."""
    complement = [
        frozenset(range(5)).difference(*(host.edges[i] for i in occ))
        for occ in inst.representation.edges
    ]
    petersen = build_named_kneser("kneser", n=5, k=2)
    pair_of = petersen.instance.representation.edges
    return (len(set(complement)) == len(complement) == 10
            and set(complement) == set(pair_of)
            and _edge_pairs(inst.result, complement)
            == _edge_pairs(petersen.graph, pair_of))


def test_c04_triangle_kneser_floor_formula():
    triangles = _fam("cycle", n=3)
    results = []
    petersen = False
    for n in (5, 6, 7):
        host = build_named_family("complete", n=n)
        formula = (n - 1) ** 2 // 4
        # the formula is the paper's bound |E| - ex for this host and family,
        # with Mantel's ex(K_n, K_3) = floor(n^2/4)
        assert formula == host.n_edges - turan_number(host, triangles).value, n
        start = time.perf_counter()
        inst = kneser_of_family(host, triangles)
        chi = chromatic_number_graph(inst.result).value
        elapsed = time.perf_counter() - start
        results.append((n, chi, formula))
        assert elapsed < 300.0, (n, elapsed)
        if n == 5:
            petersen = _is_petersen(host, inst)
    # The bound is strict at n=5: a triangle of K5 is fixed by its
    # complementary vertex pair, and two triangles are edge-disjoint exactly
    # when those pairs are disjoint, so the instance is KG(5,2), the Petersen
    # graph, with chromatic number 3 while the floor formula gives 4. From
    # n=6 on the formula is the chromatic number (Tort 1983).
    (_, chi5, formula5), *binding = results
    ok = (petersen and chi5 == 3 < formula5
          and all(chi == want for _, chi, want in binding))
    detail = "; ".join(f"n={n}: computed {chi}, formula {want}"
                       for n, chi, want in results)
    _verdict(4, "triangle Kneser graphs floor((n-1)^2/4) from n=6, Petersen at n=5",
             ok, f"{detail}; n=5 is Petersen: {petersen}")
    assert petersen, "KG(K5, triangle) is not KG(5,2) under the complement map"
    assert chi5 == 3 < formula5, (chi5, formula5)
    for n, chi, want in binding:
        assert chi == want, f"chi(KG(K{n}, triangle)) = {chi}, floor formula gives {want}"


def test_c05_worked_example_on_k4():
    start = time.perf_counter()
    k4 = build_named_family("complete", n=4)
    fam = _fam("path", length=2)
    ex = turan_number(k4, fam).value
    # the matching-pair ordering: each edge immediately followed by its
    # disjoint mate, ids (01, 23, 02, 13, 03, 12)
    sigma = LinearOrdering((0, 5, 1, 4, 2, 3))
    alt = ex_alt_sigma(k4, fam, sigma).value
    chi = chromatic_number_graph(kneser_of_family(k4, fam).result).value
    elapsed = time.perf_counter() - start
    ok = ex == 2 and alt == 2 and chi == 4
    assert elapsed < 1.0, elapsed
    assert _verdict(5, "worked example on K4 with two-edge paths", ok,
                    f"ex={ex}, ex_alt at pair ordering={alt}, chi={chi}, {elapsed:.2f}s")


def test_c06_five_cycle_certificates():
    start = time.perf_counter()
    compact = build_named_family("cycle", n=5)
    best = max(altermatic_certificate(compact, LinearOrdering(p)).value
               for p in permutations(range(5)))
    spread = Hypergraph(10, compact.edges)
    sigma = LinearOrdering((0, 5, 1, 6, 2, 7, 3, 8, 4, 9))
    cert = altermatic_certificate(spread, sigma)
    target = chromatic_number_graph(kneser_power(spread).result).value
    checks = verify_certificate(cert)
    elapsed = time.perf_counter() - start
    ok = (best == 2 and cert.value == 3 and target == 3
          and checks["exhaustive_rechecked"])
    assert elapsed < 30.0, elapsed
    assert _verdict(6, "five-cycle representations, compact then spread", ok,
                    f"best compact value={best}, spread value={cert.value}, "
                    f"chi={target}, exhaustive={checks['exhaustive_rechecked']}, "
                    f"{elapsed:.1f}s")


def test_c07_ordering_search_matches_raw_enumeration():
    start = time.perf_counter()
    rng = random.Random(7007)
    mismatches = []
    for rep_idx in range(20):
        rep = random_hypergraph(rng, max_vertices=6, max_edges=5)
        n = rep.n_vertices
        orderings = [LinearOrdering(p) for p in permutations(range(n))]
        for i in (1, 2):
            via_search = min(alt_sigma_level(rep, s, i) for s in orderings)
            via_vectors = min(_vector_alternation(rep, s, i, False) for s in orderings)
            if via_search != via_vectors:
                mismatches.append((rep_idx, i, via_search, via_vectors))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, elapsed
    assert _verdict(7, "minimized alternation, two independent searches", not mismatches,
                    f"20 representations, i in {{1,2}}, {elapsed:.1f}s"
                    + (f", mismatches {mismatches}" if mismatches else ""))


def test_c08_doubled_multigraph_theorem():
    start = time.perf_counter()
    combos = [
        ("triangle", build_named_family("complete", n=3), _fam("complete", n=3)),
        ("triangle", build_named_family("complete", n=3), _fam("path", length=2)),
        ("C4", build_named_family("cycle", n=4), _fam("path", length=2)),
        ("K4", build_named_family("complete", n=4), _fam("complete", n=3)),
        ("K4", build_named_family("complete", n=4), _fam("path", length=2)),
    ]
    failures = []
    for name, base, fam in combos:
        host = doubled(base)
        ex = turan_number(host, fam).value
        sigma = interval_ordering(host)
        alt = ex_alt_sigma(host, fam, sigma).value
        salt = ex_alt_sigma(host, fam, sigma, strong=True).value
        chi = chromatic_number_graph(kneser_of_family(host, fam).result).value
        if not (alt == ex and chi == host.n_edges - ex and salt == ex + 1):
            failures.append((name, ex, alt, salt, chi))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    assert _verdict(8, "doubled hosts: interval ordering pins ex_alt and chi", not failures,
                    f"5 host/pattern combos, {elapsed:.1f}s"
                    + (f", failures {failures}" if failures else ""))


def test_c09_path_pattern_graphs():
    start = time.perf_counter()
    fam = _fam("path", length=2)
    k4 = build_named_family("complete", n=4)
    chi_k4 = chromatic_number_graph(kneser_of_family(k4, fam).result).value
    c5 = build_named_family("cycle", n=5)
    chi_c5 = chromatic_number_graph(kneser_of_family(c5, fam).result).value
    colorings_ok = True
    # the factors as host edge ids: 01 and 23 of K4; the triangles 012 and
    # 345 of K6, which are also the clusters
    k6 = build_named_family("complete", n=6)
    for g, kept, clusters in ((k4, (0, 5), ()),
                              (k6, (0, 1, 5, 12, 13, 14), ((0, 1, 5), (12, 13, 14)))):
        cert = turan_coloring(g, fam, kept, clusters)
        kg = kneser_of_family(g, fam).result
        colorings_ok = colorings_ok and validate_hypergraph_coloring(kg, cert.assignment)
        colorings_ok = colorings_ok and cert.num_colors == g.n_edges - (2 * g.n_vertices) // 3
    elapsed = time.perf_counter() - start
    ok = (chi_k4 == 4 == 6 - floor(8 / 3)
          and chi_c5 == 3 != 5 - floor(10 / 3)
          and colorings_ok)
    assert elapsed < 120.0, elapsed
    assert _verdict(9, "two-edge-path Kneser graphs and constructive colorings", ok,
                    f"chi(K4)={chi_k4}, chi(C5)={chi_c5} vs floor value 2, "
                    f"colorings valid={colorings_ok}, {elapsed:.1f}s")


def test_c10_property_suites():
    rng = random.Random(1010)
    fams = [_fam("path", length=2), _fam("complete", n=3), _fam("matching", n=2)]

    # sandwich chains and the chromatic bounds from the alternating values
    chain_count = 0
    salt_count = 0
    while chain_count < 30:
        host = random_graph(rng, rng.randint(3, 5), rng.choice((0.4, 0.7)))
        if host.n_edges > 6:
            continue
        fam = rng.choice(fams)
        m = host.n_edges
        ex = turan_number(host, fam).value
        alt = ex_alt_min(host, fam).value
        salt = ex_alt_min(host, fam, strong=True).value
        chi = chromatic_number_graph(kneser_of_family(host, fam).result).value
        assert ex <= alt <= 2 * ex
        assert m - alt <= chi <= m - ex
        assert salt <= 2 * ex + 1
        if ex < m:
            assert ex + 1 <= salt
            assert m + 1 - salt <= chi
            salt_count += 1
        else:
            assert salt == ex
        chain_count += 1
    assert salt_count >= 15

    # independence bounds for order-r powers, and the covering duality
    alpha_count = 0
    while alpha_count < 30:
        rep = random_hypergraph(rng, max_vertices=7, max_edges=5)
        n = rep.n_vertices
        alpha, _ = independence_number(rep)
        beta, _ = covering_number(rep)
        assert alpha + beta == n
        for r in (2, 3):
            kg = kneser_power(rep, r=r).result
            if r == 2:
                chi = chromatic_number_graph(kg).value
            else:
                chi = chromatic_number_hypergraph(kg).value
            assert (n - r * alpha) / (r - 1) <= chi <= ceil((n - alpha) / (r - 1))
        alpha_count += 1

    # the independence number of the occurrence structure is the plain maximum
    occ_count = 0
    while occ_count < 30:
        host = random_graph(rng, rng.randint(3, 5), 0.6)
        fam = rng.choice(fams)
        rep = pattern_hypergraph(host, fam)
        assert independence_number(rep)[0] == turan_number(host, fam).value
        occ_count += 1

    # no ordering certificate may ever exceed the exact chromatic number
    cert_count = 0
    while cert_count < 30:
        rep = random_hypergraph(rng, max_vertices=6, max_edges=4)
        n = rep.n_vertices
        chi = chromatic_number_graph(kneser_power(rep).result).value
        sigma = LinearOrdering(tuple(rng.sample(range(n), n)))
        for i, strong in ((1, False), (2, False), (1, True)):
            cert = altermatic_certificate(rep, sigma, i=i, strong=strong)
            assert cert.value <= chi, (rep, sigma, i, strong, cert.value, chi)
        cert_count += 1

    assert _verdict(10, "property suites over seeded random instances", True,
                    f"chains={chain_count}, salt legs={salt_count}, "
                    f"alpha suites={alpha_count}, occurrence={occ_count}, "
                    f"certificates={cert_count}")


def test_c11_asymptotic_probes_stay_informational():
    probes = ["probe-cliques-6-4", "probe-cliques-7-4",
              "probe-even-cycles-5-4", "probe-odd-cycles-5-5"]
    report = run_golden_suite(probes)
    ok = report["ok"]
    values = {}
    for record in report["cases"]:
        assert record["informational"] is True
        assert record["error"] is None
        assert isinstance(record["computed"], int)
        values[record["name"]] = record["computed"]
    assert _verdict(11, "large-n formulas recorded as probes only", ok,
                    "; ".join(f"{k}={v}" for k, v in sorted(values.items())))
