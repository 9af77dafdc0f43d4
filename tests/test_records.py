"""The immutable value records: equality, hashing, immutability and pickling.

The records are plain classes on ``hyperstruct.Record``. These tests pin
that they behave as frozen dataclasses do: field-wise equality within one
class, the hash of the field tuple, no assignment, and pickling.
"""

import pickle

import pytest

from kneserturan import (
    AltermaticCertificate,
    AlternatingColoring,
    ColoringCertificate,
    FactorWitness,
    GoldenCase,
    Hypergraph,
    KneserInstance,
    LinearOrdering,
    NamedKneser,
    PatternFamily,
    PatternOccurrence,
    RestrictionSpec,
    SignVector,
    build_named_family,
    build_named_kneser,
    kneser_power,
)
from kneserturan.harness import _BuiltCase


def _path_graph():
    return Hypergraph(3, (frozenset({0, 1}), frozenset({1, 2})), ("a", "b", "c"))


def _certificate(i):
    # |V| = 3 and alt_value 2, so the plain bound is 3 - 2 + i - 1
    return AltermaticCertificate(_path_graph(), LinearOrdering((0, 1, 2)), i, False, 2, i,
                                 SignVector((1, -1, 0)))


def _golden(name):
    return GoldenCase(name, {"via": "named", "kind": "kneser", "params": {"n": 5, "k": 2}},
                      "n-2k+2", {"n": 5, "k": 2}, "Lovasz 1978", tags=("kneser",))


# class -> (fields, build(variant)): variant 0 and 1 differ in some field,
# and every call builds fresh objects
CASES = {
    Hypergraph: (
        ("n_vertices", "edges", "labels"),
        lambda v: Hypergraph(3, [{0, 1}, {1, 2}], ("a", "b", "c") if v == 0 else None),
    ),
    RestrictionSpec: (
        ("parts",),
        lambda v: RestrictionSpec(({0, 1}, {2 + v})),
    ),
    SignVector: (
        ("entries",),
        lambda v: SignVector((1, 0, -1 + 2 * v)),
    ),
    LinearOrdering: (
        ("sequence",),
        lambda v: LinearOrdering((2, 0, 1) if v == 0 else (0, 1, 2)),
    ),
    PatternFamily: (
        ("members",),
        lambda v: PatternFamily((build_named_family("path", length=2 + v),)),
    ),
    PatternOccurrence: (
        ("pattern_index", "edge_ids"),
        lambda v: PatternOccurrence(v, frozenset({1, 2})),
    ),
    KneserInstance: (
        ("representation", "r", "result"),
        lambda v: kneser_power(build_named_family("complete", n=5 - v), 2),
    ),
    NamedKneser: (
        ("kind", "params", "host", "family", "instance", "direct", "bijection"),
        lambda v: build_named_kneser("kneser", n=5 + v, k=2),
    ),
    ColoringCertificate: (
        ("num_colors", "assignment"),
        lambda v: ColoringCertificate(2, (v, 1 - v, v)),
    ),
    AlternatingColoring: (
        ("ordering", "colored"),
        lambda v: AlternatingColoring(LinearOrdering((1, 0, 2)),
                                      ((1, ("red", "blue")[v]), (0, ("blue", "red")[v]))),
    ),
    AltermaticCertificate: (
        ("representation", "ordering", "i", "strong", "alt_value", "value", "witness"),
        lambda v: _certificate(1 + v),
    ),
    FactorWitness: (
        ("components",),
        lambda v: FactorWitness((("K3", (0, 1, 2)),) + ((("K2", (3, 4)),) if v else ())),
    ),
    GoldenCase: (
        ("name", "construction", "formula", "params", "source", "informational", "tags"),
        lambda v: _golden(("kneser-5-2", "petersen")[v]),
    ),
    _BuiltCase: (
        ("target", "is_graph", "host", "family"),
        lambda v: _BuiltCase(_path_graph(), v == 0, None, None),
    ),
}

# GoldenCase holds dicts, so hashing it raises TypeError, as it would for a
# frozen dataclass
UNHASHABLE = {GoldenCase}


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    _, build = CASES[cls]
    a, b, other = build(0), build(0), build(1)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in CASES[cls][0]))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_repr_lists_the_fields(cls):
    fields, build = CASES[cls]
    a = build(0)
    listed = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__qualname__}({listed})"


def test_instances_of_different_classes_never_compare_equal():
    samples = [build(v) for _, build in CASES.values() for v in (0, 1)]
    for a in samples:
        for b in samples:
            if type(a) is not type(b):
                assert a != b and not a == b
    # same field values, different classes
    assert SignVector((0, 1)) != LinearOrdering((0, 1))
    assert SignVector((0, 1)) != (0, 1) and (0, 1) != SignVector((0, 1))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_assigning_a_field_raises(cls):
    fields, build = CASES[cls]
    a = build(0)
    before = [getattr(a, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, f) for f in fields] == before
    assert a == build(0)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_pickle_round_trips_to_an_equal_object(cls):
    fields, build = CASES[cls]
    a = build(0)
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cls and back is not a
    assert back == a
    assert [getattr(back, f) for f in fields] == [getattr(a, f) for f in fields]
    with pytest.raises(AttributeError):
        setattr(back, fields[0], None)


def test_cached_properties_survive_pickle_and_immutability():
    g = Hypergraph(4, [{0, 1}, {0, 2}])
    assert g.degrees == (2, 1, 1, 0)  # cached before pickling
    back = pickle.loads(pickle.dumps(g))
    assert back.degrees == (2, 1, 1, 0)
    assert back.isolated_vertices == frozenset({3})
    with pytest.raises(AttributeError):
        back.degrees = ()
