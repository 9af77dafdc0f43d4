import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneserturan import (
    Hypergraph,
    InvalidParameterError,
    LinearOrdering,
    SignVector,
    alt_of_vector,
    apply_ordering,
    bits_of,
    build_multigraph,
    build_named_family,
    canonical_dumps,
    doubled,
    from_dimacs,
    kneser_power,
    mask_of,
    to_dimacs,
)

from conftest import representations


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


@pytest.mark.parametrize("edges", [[[0, 1.0]], [[False, True]], [[0, "1"]]])
def test_members_must_be_ints(edges):
    # the JSON reader refuses these members, so the writer must never print them
    with pytest.raises(InvalidParameterError, match="not int"):
        Hypergraph(3, edges)


_LABEL = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", '\\"', "\u00e9", "\u2028", "\U0001f600", "\x00", "a\nb"])


@st.composite
def _stored(draw):
    """A stored hypergraph on 0..8 vertices: mixed edge sizes or, when
    ``graph`` is drawn, a multigraph; edges repeat, labels are optional."""
    n = draw(st.integers(0, 8))
    graph = n >= 2 and draw(st.booleans())
    member_set = (st.frozensets(st.integers(0, n - 1), min_size=2, max_size=2) if graph
                  else st.frozensets(st.integers(0, n - 1), min_size=1))
    pool = draw(st.lists(member_set, min_size=1, max_size=10)) if n else []
    edges = draw(st.lists(st.sampled_from(pool), max_size=20)) if pool else []
    labels = draw(st.none() | st.lists(_LABEL, min_size=n, max_size=n))
    return Hypergraph(n, edges, labels)


def _per_edge_dimacs(n: int, members) -> str:
    """to_dimacs as it was written before the row writer, one line per edge."""
    lines = [f"p edge {n} {len(members)}"]
    for u, v in members:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(representations().map(lambda rep: kneser_power(rep).result), _stored()))
def test_row_writer_matches_canonical_dumps(h):
    row_built = "edges" not in vars(h)
    text, doc = h.canonical_json(), h.to_json_dict()
    dimacs = to_dimacs(h) if h.is_graph else None
    if row_built:
        assert "edges" not in vars(h)  # written without the edge tuple
    members = [sorted(e) for e in h.edges]
    oracle = {"n": h.n_vertices, "edges": members}
    if h.labels is not None:
        oracle["labels"] = list(h.labels)
    assert doc == oracle
    assert text == canonical_dumps(doc) == json.dumps(oracle, sort_keys=True,
                                                       separators=(",", ":"))
    assert Hypergraph.from_json_dict(json.loads(text)) == h
    if dimacs is not None:
        assert dimacs == _per_edge_dimacs(h.n_vertices, members)


def test_row_writer_edge_cases():
    assert Hypergraph(0, []).canonical_json() == '{"edges":[],"n":0}'
    assert to_dimacs(Hypergraph(0, [])) == "p edge 0 0\n"
    edgeless = Hypergraph._from_adjacency(3, [0, 0, 0])
    assert edgeless.canonical_json() == '{"edges":[],"n":3}'
    assert to_dimacs(edgeless) == "p edge 3 0\n"
    lone = Hypergraph._from_adjacency(4, [0, 0b1000, 0, 0b10])  # 0 and 2 isolated
    assert lone.canonical_json() == '{"edges":[[1,3]],"n":4}'
    assert to_dimacs(lone) == "p edge 4 1\ne 2 4\n"
    quoted = Hypergraph(2, [{0}, {0, 1}, {0, 1}], ['"\\', "\u00e9"])
    assert quoted.canonical_json() == \
        '{"edges":[[0],[0,1],[0,1]],"labels":["\\"\\\\","\\u00e9"],"n":2}'


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
    assert dt.parallel_classes == ((0, 1), (2, 3), (4, 5))
    assert dt.is_graph
    assert not dt.is_simple_graph


def test_cached_graph_facts_leave_the_record_unchanged():
    # adjacency_masks() is built once and shared; the cached attributes sit
    # in __dict__ beside the fields but change no equality, hash, repr or
    # pickle round trip
    def triangle():
        return Hypergraph(4, ({0, 1}, {1, 2}, {0, 2}), labels=("a", "b", "c", "d"))

    g, fresh = triangle(), triangle()
    adj = g.adjacency_masks()
    assert adj == (0b110, 0b101, 0b011, 0)
    assert g.adjacency_masks() is adj
    assert "is_graph" in vars(g)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    again = pickle.loads(pickle.dumps(g))
    assert again == g and hash(again) == hash(g) and repr(again) == repr(g)
    assert again.adjacency_masks() == adj
    three = Hypergraph(3, ({0, 1, 2}, {0, 1}))
    for _ in range(2):
        with pytest.raises(InvalidParameterError, match="2-uniform"):
            three.adjacency_masks()


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
    assert apply_ordering(x, LinearOrdering.identity(4)) == (frozenset({0, 3}), frozenset({2}))
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


def test_build_multigraph_counts():
    base = build_named_family("path", length=2)
    g = build_multigraph(base, [2, 3])
    assert g.n_edges == 5
    assert [len(c) for c in g.parallel_classes] == [2, 3]
    with pytest.raises(InvalidParameterError):
        build_multigraph(base, [0, 1])
    with pytest.raises(InvalidParameterError):
        build_multigraph(base, [2])
