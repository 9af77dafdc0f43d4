import json
import random

import pytest

from kneserturan import (
    Hypergraph,
    InvalidParameterError,
    LinearOrdering,
    RestrictionSpec,
    SignVector,
    add_isolated,
    alt_of_vector,
    apply_ordering,
    bits_of,
    build_multigraph,
    build_named_family,
    canonical_dumps,
    doubled,
    from_dimacs,
    induced_restriction,
    mask_of,
    strip_isolated,
    to_dimacs,
)


def test_mask_bits_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits_of(0b100101)) == [0, 2, 5]
    assert list(bits_of(0)) == []


def test_empty_edge_rejected():
    with pytest.raises(InvalidParameterError):
        Hypergraph(3, (frozenset(),))


def test_out_of_range_vertex_rejected():
    with pytest.raises(InvalidParameterError):
        Hypergraph(2, (frozenset({0, 4}),))


@pytest.mark.parametrize("labels, reason", [
    ("abc", "not str"),
    ([1, 2, 3], "label of vertex 0 is int"),
    (("a", b"b", "c"), "label of vertex 1 is bytes"),
    ({"a": 1, "b": 2, "c": 3}, "not dict"),
    (iter(["a", "b", "c"]), "not list_iterator"),
    (5, "not int"),
])
def test_hypergraph_labels_must_be_a_sequence_of_strings(labels, reason):
    with pytest.raises(InvalidParameterError, match=reason):
        Hypergraph(3, [{0, 1}, {1, 2}], labels)


def test_hypergraph_labels_accept_lists_and_tuples_of_strings():
    for labels in (["a", "b", "c"], ("a", "b", "c")):
        assert Hypergraph(3, [{0, 1}], labels).labels == ("a", "b", "c")
    assert Hypergraph(3, [{0, 1}]).labels is None
    with pytest.raises(InvalidParameterError, match="length"):
        Hypergraph(3, [{0, 1}], ["a", "b"])


def test_degrees_and_isolated():
    h = Hypergraph(4, (frozenset({0, 1}), frozenset({0, 2})))
    assert h.degrees == (2, 1, 1, 0)
    assert h.isolated_vertices == frozenset({3})


def test_parallel_classes_on_doubled_triangle():
    dt = doubled(build_named_family("complete", n=3))
    assert dt.n_edges == 6
    assert all(len(c) == 2 for c in dt.parallel_classes)
    assert all(dt.multiplicity(i) == 2 for i in range(6))
    assert dt.is_graph
    assert not dt.is_simple_graph


def test_builder_shapes():
    assert build_named_family("cycle", n=5).n_edges == 5
    assert build_named_family("path", length=2).n_vertices == 3
    assert build_named_family("complete", n=4).n_edges == 6
    kb = build_named_family("complete_bipartite", m=2, n=3)
    assert (kb.n_vertices, kb.n_edges) == (5, 6)
    assert build_named_family("matching", n=3).n_vertices == 6
    assert build_named_family("complete_uniform", n=5, s=3).n_edges == 10
    # dash and underscore spellings are the same kind
    assert build_named_family("complete-bipartite", m=2, n=3) == kb


def test_builder_validation():
    with pytest.raises(InvalidParameterError):
        build_named_family("cycle", n=2)
    with pytest.raises(InvalidParameterError):
        build_named_family("complete_uniform", n=3, s=4)
    with pytest.raises(InvalidParameterError):
        build_named_family("banana", n=3)


def test_json_roundtrip_is_canonical():
    h = Hypergraph(4, (frozenset({2, 3}), frozenset({0, 1}), frozenset({0, 1})),
                   labels=("a", "b", "c", "d"))
    doc = h.to_json_dict()
    again = Hypergraph.from_json_dict(json.loads(canonical_dumps(doc)))
    assert again == h
    assert again.canonical_json() == h.canonical_json()
    # canonical form is one line with sorted keys and no spaces
    assert "\n" not in h.canonical_json()
    assert " " not in h.canonical_json()


def test_dimacs_roundtrip():
    g = build_named_family("complete", n=4)
    text = to_dimacs(g)
    assert text.splitlines()[0] == "p edge 4 6"
    back = from_dimacs(text)
    assert back.n_vertices == 4
    assert sorted(map(sorted, back.edges)) == sorted(map(sorted, g.edges))


def test_dimacs_accepts_comments_and_checks_count():
    text = "c a remark\np edge 3 1\ne 1 3\n"
    g = from_dimacs(text)
    assert g.edges == (frozenset({0, 2}),)
    with pytest.raises(InvalidParameterError):
        from_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(InvalidParameterError):
        from_dimacs("e 1 2\n")


def test_dimacs_rejects_non_graph():
    with pytest.raises(InvalidParameterError):
        to_dimacs(Hypergraph(3, (frozenset({0, 1, 2}),)))


def test_alt_counts_sign_runs():
    # runs: [+1] [-1 -1] [+1 +1] [-1], zeros transparent
    assert alt_of_vector((1, -1, 0, -1, 0, 1, 1, -1)) == 4
    assert alt_of_vector((0, 0, 0)) == 0
    assert alt_of_vector(()) == 0
    assert alt_of_vector((1, 1, 1)) == 1
    assert alt_of_vector((1, -1, 1, -1)) == 4


def test_alt_zero_insertion_invariance():
    rng = random.Random(7)
    for _ in range(50):
        entries = [rng.choice((-1, 1)) for _ in range(rng.randint(1, 8))]
        padded = []
        for x in entries:
            padded.extend([0] * rng.randint(0, 2))
            padded.append(x)
        assert alt_of_vector(entries) == alt_of_vector(padded)
        assert 0 < alt_of_vector(entries) <= len(entries)


def test_sign_vector_supports():
    x = SignVector((1, 0, -1, 1))
    assert x.plus_support == frozenset({0, 3})
    assert x.minus_support == frozenset({2})
    assert SignVector.from_supports(4, {0, 3}, {2}) == x
    with pytest.raises(InvalidParameterError):
        SignVector.from_supports(4, {0}, {0})
    with pytest.raises(InvalidParameterError):
        SignVector((2, 0))


def test_apply_ordering_identity_and_relabel():
    x = SignVector((1, -1, 0, 1))
    ident = LinearOrdering.identity(4)
    assert apply_ordering(x, ident) == (frozenset({0, 3}), frozenset({1}))
    sigma = LinearOrdering((2, 0, 3, 1))
    plus, minus = apply_ordering(x, sigma)
    # position j lands on sigma[j]
    assert plus == frozenset({2, 1})
    assert minus == frozenset({0})


def test_ordering_validation_and_inverse():
    with pytest.raises(InvalidParameterError):
        LinearOrdering((0, 2))
    with pytest.raises(InvalidParameterError):
        LinearOrdering((0, 0, 1))
    sigma = LinearOrdering((2, 0, 1))
    inv = sigma.inverse()
    assert [sigma.sequence[inv[v]] for v in range(3)] == [0, 1, 2]


def test_build_multigraph_list_and_dict():
    base = build_named_family("path", length=2)
    g = build_multigraph(base, [2, 3])
    assert g.n_edges == 5
    assert [len(c) for c in g.parallel_classes] == [2, 3]
    h = build_multigraph(base, {1: 2})
    assert h.n_edges == 3
    with pytest.raises(InvalidParameterError):
        build_multigraph(base, [0, 1])
    with pytest.raises(InvalidParameterError):
        build_multigraph(base, [2])


def test_strip_and_add_isolated():
    h = Hypergraph(5, (frozenset({1, 3}),))
    small, kept = strip_isolated(h)
    assert small.n_vertices == 2
    assert kept == (1, 3)
    assert small.edges == (frozenset({0, 1}),)
    grown = add_isolated(small, 3)
    assert grown.n_vertices == 5
    assert grown.edges == small.edges


def test_induced_restriction_keeps_inside_edges():
    g = build_named_family("complete", n=5)
    spec = RestrictionSpec((frozenset({0, 1, 2}), frozenset({3, 4})))
    r = induced_restriction(g, spec)
    # edges inside one part survive: the K3 on {0,1,2} and the edge {3,4}
    assert r.n_vertices == 5
    assert r.n_edges == 4
    with pytest.raises(InvalidParameterError):
        RestrictionSpec((frozenset({0, 1}), frozenset({1, 2})))
