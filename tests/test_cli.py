import ast
import hashlib
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kneserturan import (
    MANIFEST,
    Hypergraph,
    build_named_family,
    canonical_dumps,
    from_dimacs,
    run_golden_suite,
)
from kneserturan.cli import _build_parser, _compute_chi, _options_echo, main
from kneserturan.kneser import _rebuild_instance, _target_of


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_build_named_kneser(capsys):
    doc = _run_json(capsys, "build", "--family", "kneser", "--n", "5", "--k", "2")
    assert doc["result"]["n_vertices"] == 10
    assert doc["result"]["n_edges"] == 15
    assert doc["config"]["instance"]["scheme"] == "named"


def test_compute_chi_on_petersen(capsys):
    doc = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2")
    assert doc["result"]["chi"] == 3
    assert doc["config"]["quantity"] == "chi"
    assert len(doc["result"]["assignment"]) == 10


def test_compute_alpha_beta_on_petersen(capsys):
    a = _run_json(capsys, "compute", "alpha", "--family", "kneser", "--n", "5", "--k", "2")
    b = _run_json(capsys, "compute", "beta", "--family", "kneser", "--n", "5", "--k", "2")
    assert a["result"]["alpha"] == 4
    assert b["result"]["beta"] == 6
    assert len(a["result"]["witness_vertices"]) == 4


def test_compute_ex_with_host_and_pattern(capsys):
    doc = _run_json(capsys, "compute", "ex", "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2")
    assert doc["result"]["ex"] == 2
    assert doc["result"]["report"]["mode"] == "exact"


def test_compute_ex_alt_with_ordering_file(capsys, tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text("[0, 5, 1, 4, 2, 3]")
    doc = _run_json(capsys, "compute", "ex-alt", "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2", "--ordering", str(path))
    assert doc["result"]["ex-alt"] == 2
    assert doc["config"]["options"]["ordering"]["kind"] == "explicit"


def test_compute_ex_salt_interval_on_doubled_host(capsys):
    doc = _run_json(capsys, "compute", "ex-salt", "--host", "complete", "--n", "3",
                    "--pattern", "complete", "--pattern-n", "3", "--double", "--interval")
    assert doc["result"]["ex-salt"] == 5
    assert doc["config"]["instance"]["host"]["double"] is True


def test_same_invocation_same_bytes(capsys):
    argv = ("compute", "chi", "--family", "schrijver", "--n", "6", "--k", "2")
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second
    assert first.endswith("\n")
    assert "\n" not in first[:-1]  # one line unless --pretty


def test_pretty_output(capsys):
    code, out = _run(capsys, "compute", "chi", "--family", "circular",
                     "--n", "5", "--d", "2", "--pretty")
    assert code == 0
    assert "chi: 3" in out


def test_export_json_roundtrips_bytes(capsys):
    code, out = _run(capsys, "export", "--host", "complete", "--n", "4")
    assert code == 0
    h = Hypergraph.from_json_dict(json.loads(out))
    assert out == h.canonical_json() + "\n"
    assert h.n_edges == 6


def test_export_dimacs(capsys):
    code, out = _run(capsys, "export", "--host", "cycle", "--n", "5",
                     "--format", "dimacs")
    assert code == 0
    assert from_dimacs(out).n_edges == 5


def test_export_pattern_scheme_exports_kneser_graph(capsys):
    code, out = _run(capsys, "export", "--host", "complete", "--n", "4",
                     "--pattern", "path", "--len", "2")
    assert code == 0
    assert Hypergraph.from_json_dict(json.loads(out)).n_vertices == 12


def test_export_input_labels_must_be_strings_or_null(capsys, tmp_path):
    path = tmp_path / "host.json"
    for labels in ("abc", {"a": 1, "b": 2, "c": 3}, [1, 2, 3], 5):
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "labels": labels}))
        code = main(["export", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2, labels
        assert captured.out == ""
        assert "'labels' is not a list of strings or null" in captured.err, labels
        assert "Traceback" not in captured.err
    for labels, out in ((None, '{"edges":[[0,1],[1,2]],"n":3}\n'),
                        (["a", "b", "c"], '{"edges":[[0,1],[1,2]],"labels":["a","b","c"],"n":3}\n')):
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "labels": labels}))
        assert _run(capsys, "export", "--input", str(path)) == (0, out)


def test_input_file_roundtrip(capsys, tmp_path):
    g = build_named_family("cycle", n=5)
    path = tmp_path / "host.json"
    path.write_text(g.canonical_json())
    doc = _run_json(capsys, "compute", "ex", "--input", str(path),
                    "--pattern", "path", "--len", "2")
    assert doc["result"]["ex"] == 2  # alternate edges, no two adjacent


def test_verify_accepts_fresh_run_document(capsys, tmp_path):
    doc = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2")
    path = tmp_path / "run.json"
    path.write_text(canonical_dumps(doc))
    verdict = _run_json(capsys, "verify", str(path))
    assert verdict["verified"] is True
    assert verdict["checks"]["recomputed"] is True


def test_verify_rejects_tampered_value(capsys, tmp_path):
    for quantity, headline in (("chi", "chi"), ("alpha", "alpha"), ("beta", "beta"),
                               ("alt-sigma", "alt"), ("salt-sigma", "salt")):
        doc = _run_json(capsys, "compute", quantity, "--family", "kneser", "--n", "5",
                        "--k", "2")
        doc["result"][headline] -= 1
        doc["result"].pop("assignment", None)
        path = tmp_path / "run.json"
        path.write_text(canonical_dumps(doc))
        code, out = _run(capsys, "verify", str(path))
        assert code == 1, quantity
        verdict = json.loads(out)
        assert verdict["verified"] is False
        assert "recomputes" in verdict["reason"]


def test_verify_rejects_tampered_chi_witness(capsys, tmp_path):
    k4 = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "4", "--k", "1")
    petersen = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5",
                         "--k", "2")
    assert k4["result"]["witness"] == {"kind": "clique", "members": [0, 1, 2, 3]}
    assert petersen["result"]["witness"] == {"kind": "exhausted", "refuted_colors": 2}
    path = tmp_path / "run.json"
    for doc, witness, reason in (
            (k4, {"kind": "clique", "members": [0, 0, 0, 0]}, "repeat"),
            (k4, {"kind": "clique", "members": [0, 1, 2, 4]}, "out of range"),
            (k4, {"kind": "clique", "members": [0, 1, 2]}, "3 members, chi is 4"),
            # the Petersen graph has no triangle
            (petersen, {"kind": "clique", "members": [0, 1, 2]}, "not pairwise adjacent"),
            (petersen, {"kind": "exhausted", "refuted_colors": 1}, "not chi - 1")):
        doc["result"]["witness"] = witness
        path.write_text(canonical_dumps(doc))
        code, out = _run(capsys, "verify", str(path))
        assert code == 1, witness
        verdict = json.loads(out)
        assert verdict["verified"] is False
        assert reason in verdict["reason"], verdict["reason"]


@pytest.mark.parametrize("kind", ("empty", "edgeless", "has-edges", "singleton-edge"))
def test_verify_rejects_a_chi_witness_kind_that_does_not_fit(capsys, tmp_path, kind):
    # each of these kinds backs one value on one shape of target; the
    # Petersen graph has chi 3, ten vertices and fifteen edges
    doc = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2")
    doc["result"]["witness"] = {"kind": kind}
    path = tmp_path / "run.json"
    path.write_text(canonical_dumps(doc))
    code, out = _run(capsys, "verify", str(path))
    assert code == 1, out
    verdict = json.loads(out)
    assert verdict["verified"] is False
    assert kind in verdict["reason"], verdict["reason"]


@st.composite
def _small_inputs(draw):
    """A graph on at most 7 vertices, sometimes with one more hyperedge of one
    or three vertices, so that every chi witness kind comes up."""
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    edges = []
    if pairs:
        edges = [list(e) for e in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))]
    if n >= 3 and draw(st.integers(0, 3)) == 0:
        size = draw(st.sampled_from((1, 3)))
        edges.append(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
    return {"n": n, "edges": edges}


_CHI_KIND_VALUES = {"empty": 0, "edgeless": 1, "has-edges": 2, "singleton-edge": "unbounded"}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_small_inputs(), data=st.data())
def test_compute_documents_verify_and_one_tampered_field_is_rejected(capsys, tmp_path, graph,
                                                                     data):
    # capsys and tmp_path serve every example: each one overwrites the files
    # and reads its own output
    source = tmp_path / "input.json"
    source.write_text(json.dumps(graph))
    path = tmp_path / "doc.json"

    def verify(doc):
        path.write_text(canonical_dumps(doc))
        code, out = _run(capsys, "verify", str(path))
        return code, json.loads(out)

    for quantity in ("chi", "alpha", "beta", "ex", "ex-alt", "ex-salt", "certificate"):
        flags = ("--pattern", "path", "--len", "2") if quantity.startswith("ex") else ()
        doc = _run_json(capsys, "compute", quantity, "--input", str(source), *flags)
        code, verdict = verify(doc)
        assert code == 0 and verdict["verified"] is True, (quantity, verdict)
        result = doc["result"]
        if quantity in ("ex-alt", "ex-salt"):
            # the result at the identity ordering, spliced into the minimized
            # document, verifies only where it is the minimum or cannot be rechecked
            fixed = _run_json(capsys, "compute", quantity, "--input", str(source), *flags,
                              "--identity")["result"]
            code, verdict = verify({**doc, "result": fixed})
            if result["report"]["mode"] == "exact":
                assert code == int(fixed[quantity] != result[quantity]), (quantity, verdict)
            else:  # beyond the ordering-scan cap the minimum is not rechecked
                assert code == 0 and verdict["checks"]["value_rechecked"] is False, verdict
        if quantity == "certificate":
            # the value and its alternation count move together; the witness
            # (or its absence, which stands for alternation 0) no longer backs them
            cert = result["certificate"]
            cert["alt_value"] += 1
            cert["value"] -= 1
            result["value"] -= 1
        elif quantity == "chi":
            result["witness"] = {"kind": data.draw(st.sampled_from(
                [k for k, v in _CHI_KIND_VALUES.items() if v != result["chi"]]))}
        elif quantity == "ex":
            ids = result["report"]["witness_edges"]
            ids.append(min(set(range(len(graph["edges"]) + 1)) - set(ids)))
        elif quantity in ("ex-alt", "ex-salt"):
            colored = result["report"]["witness_coloring"]["colored"]
            if not colored:
                continue  # nothing to drop from an empty coloring
            colored.pop()
        elif result["witness_vertices"]:
            result["witness_vertices"].pop(data.draw(
                st.integers(0, len(result["witness_vertices"]) - 1)))
        else:
            continue  # nothing to drop from an empty witness
        code, verdict = verify(doc)
        assert code == 1 and verdict["verified"] is False, (quantity, verdict)


# KG(6,2): alpha 5 with witness [0, 5, 6, 7, 8], beta 10; vertices 0 and 9
# are adjacent, and so are 5 and 14
@pytest.mark.parametrize("quantity, witness, code, reason", (
    ("alpha", "junk", 2, None),
    ("alpha", [], 1, "witness has 0 vertices, alpha is 5"),
    ("alpha", [0, 0, 0, 0, 0], 1, "repeat"),
    ("alpha", [100, 101, 102, 103, 104], 1, "out of range"),
    ("alpha", [0, 5, 6, 7, 9], 1, "contain a hyperedge"),
    ("beta", [999], 1, "out of range"),
    ("beta", [0, 1, 2, 3, 4, 9, 10, 11, 12, 13], 1, "miss a hyperedge"),
), ids=("alpha-junk", "alpha-empty", "alpha-repeat", "alpha-out-of-range",
        "alpha-not-independent", "beta-out-of-range", "beta-not-a-cover"))
def test_verify_checks_the_vertex_set_witness(capsys, tmp_path, quantity, witness, code,
                                              reason):
    doc = _run_json(capsys, "compute", quantity, "--family", "kneser", "--n", "6", "--k", "2")
    doc["result"]["witness_vertices"] = witness
    path = tmp_path / "run.json"
    path.write_text(canonical_dumps(doc))
    got, out = _run(capsys, "verify", str(path))
    assert got == code, out
    if reason is not None:
        verdict = json.loads(out)
        assert verdict["verified"] is False
        assert reason in verdict["reason"], verdict["reason"]


def test_verify_certificate_document(capsys, tmp_path):
    doc = _run_json(capsys, "compute", "certificate", "--host", "cycle", "--n", "5",
                    "--identity")
    path = tmp_path / "cert-run.json"
    path.write_text(canonical_dumps(doc))
    verdict = _run_json(capsys, "verify", str(path))
    assert verdict["verified"] is True
    # the bare certificate verifies on its own as well
    bare = tmp_path / "cert.json"
    bare.write_text(canonical_dumps(doc["result"]["certificate"]))
    verdict2 = _run_json(capsys, "verify", str(bare))
    assert verdict2["kind"] == "certificate"


def test_verify_build_and_ex_documents(capsys, tmp_path):
    host = tmp_path / "host.json"
    host.write_text(build_named_family("cycle", n=5).canonical_json())
    k4_p2 = ("--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
    for argv in (
        ("build", "--family", "circular", "--n", "5", "--d", "2"),
        ("compute", "ex", *k4_p2),
        ("compute", "ex-alt", "--host", "complete", "--n", "3", "--pattern",
         "complete", "--pattern-n", "3", "--double", "--interval"),
        ("compute", "alpha", *k4_p2),
        ("compute", "beta", *k4_p2),
        ("compute", "alt-sigma", *k4_p2, "--i", "2"),
        ("compute", "salt-sigma", *k4_p2),
        ("compute", "ex-salt", *k4_p2),
        ("compute", "chi", "--input", str(host)),
        ("compute", "chi", "--host", "cycle", "--n", "7", "--pattern", "path", "--len", "1",
         "--r", "3"),
    ):
        doc = _run_json(capsys, *argv)
        path = tmp_path / "doc.json"
        path.write_text(canonical_dumps(doc))
        verdict = _run_json(capsys, "verify", str(path))
        assert verdict["verified"] is True


def test_exit_codes_for_bad_input(capsys, tmp_path):
    code, _ = _run(capsys, "compute", "chi", "--family", "banana", "--n", "3")
    assert code == 2
    code, _ = _run(capsys, "compute", "chi", "--host", "complete")  # missing --n
    assert code == 2
    code, _ = _run(capsys, "compute", "chi")  # no instance at all
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, "verify", str(bad))
    assert code == 2
    code, _ = _run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    # malformed documents are bad input, not failed verifications
    for doc in (
        {"config": {"verb": "compute", "quantity": "chi"}, "result": {"chi": 3}},
        {"alt_value": 1, "ordering": [0], "i": 1, "strong": False, "value": 1},
        {"config": {"verb": "golden", "selection": None, "workers": 1}, "result": {}},
        [1, 2, 3],
    ):
        bad.write_text(json.dumps(doc))
        code, out = _run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
    # malformed nested fields of otherwise complete documents
    k4_p2 = ("--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
    chi = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2")
    alt = _run_json(capsys, "compute", "alt-sigma", *k4_p2)
    ex = _run_json(capsys, "compute", "ex", *k4_p2)
    string_n = json.loads(json.dumps(chi))
    string_n["config"]["instance"]["params"]["n"] = "5"
    scalar_assignment = json.loads(json.dumps(chi))
    scalar_assignment["result"]["assignment"] = 5
    string_r = json.loads(json.dumps(ex))
    string_r["config"]["instance"]["r"] = "2"
    string_i = json.loads(json.dumps(alt))
    string_i["config"]["options"]["i"] = "1"
    string_value = json.loads(json.dumps(ex))
    string_value["result"]["report"]["value"] = "x"
    k4_p2_chi = _run_json(capsys, "compute", "chi", *k4_p2)
    string_double = json.loads(json.dumps(k4_p2_chi))
    string_double["config"]["instance"]["host"]["double"] = "yes"
    string_witness = json.loads(json.dumps(k4_p2_chi))
    string_witness["result"]["witness"] = "x"
    unknown_witness = json.loads(json.dumps(k4_p2_chi))
    unknown_witness["result"]["witness"]["kind"] = "hunch"
    list_quantity = json.loads(json.dumps(k4_p2_chi))
    list_quantity["config"]["quantity"] = []
    dict_quantity = json.loads(json.dumps(k4_p2_chi))
    dict_quantity["config"]["quantity"] = {}
    null_r = json.loads(json.dumps(k4_p2_chi))
    null_r["config"]["instance"]["r"] = None
    chi["config"]["instance"] = {}
    alt["config"]["options"]["ordering"] = None
    del ex["result"]["report"]["quantity"]
    for doc, reason in ((chi, "the instance lacks scheme"),
                        (alt, "the ordering echo is not a JSON object"),
                        (ex, "the report lacks quantity"),
                        (string_n, "in the named instance params, n is not of type int"),
                        (scalar_assignment, "the assignment is not a list of ints"),
                        (string_r, "in the instance, r is not of type int"),
                        (string_i, "in options, i is not of type int"),
                        (string_value, "in the report, value is not of type int"),
                        (string_double, "in the host, double is not of type bool"),
                        (string_witness, "the witness is not a JSON object"),
                        (unknown_witness, "unknown witness kind 'hunch'"),
                        (list_quantity, "in config, quantity is not of type str"),
                        (dict_quantity, "in config, quantity is not of type str"),
                        (null_r, "in the instance, r is not of type int")):
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2, reason
        assert captured.out == ""
        assert f"malformed document: {reason}" in captured.err
    # ordering files that are not a JSON list of ints
    for sigma, reason in (({"a": 1}, "is not a list of ints"),
                          ([0.5, 1.7, 2, 3, 4, 5], "is not a list of ints"),
                          ([True, False, True, True, True, True], "is not a list of ints")):
        bad.write_text(json.dumps(sigma))
        code = main(["compute", "ex-alt", *k4_p2, "--ordering", str(bad)])
        captured = capsys.readouterr()
        assert code == 2, sigma
        assert captured.out == ""
        assert f"the ordering file {bad} {reason}" in captured.err
    # input files with fields that are not ints
    for text, reason in (("p edge x 1\n", "non-integer field in DIMACS line"),
                         ("p edge 2 1\ne 1\n", "bad DIMACS edge line"),
                         ('{"n": 5.9, "edges": [[0, 1]]}', "'n' is not an int"),
                         ('{"n": true, "edges": [[0, 1]]}', "'n' is not an int"),
                         ('{"n": 5, "edges": [[0, 1.8]]}', "'edges' is not a list of lists"),
                         ('{"n": 5, "edges": [[0, true]]}', "'edges' is not a list of lists")):
        bad.write_text(text)
        code = main(["compute", "chi", "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2, text
        assert captured.out == ""
        assert reason in captured.err, text


_K4_P2 = ("--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
_CYCLE5_CERTIFICATE = ("compute", "certificate", "--host", "cycle", "--n", "5", "--identity")


# each edit leaves a document that verified while the record readers coerced
# values with int() and bool() and verify skipped fields it prints
@pytest.mark.parametrize("argv, path, edit, code", (
    (("compute", "ex", *_K4_P2), ("result", "report", "value"), lambda v: v + 0.5, 2),
    (("compute", "ex", *_K4_P2), ("result", "report", "witness_edges"),
     lambda ids: [float(e) for e in ids], 2),
    # both alternating maxima are 3 on a triangle under K3
    (("compute", "ex-alt", "--host", "complete", "--n", "3", "--pattern", "complete",
      "--pattern-n", "3"), ("result", "report", "quantity"), lambda q: "ex-salt", 1),
    (("compute", "ex-alt", *_K4_P2, "--identity"), ("config", "options", "ordering", "sequence"),
     lambda seq: seq[::-1], 1),
    (_CYCLE5_CERTIFICATE, ("result", "certificate", "strong"), lambda s: [], 2),
    (_CYCLE5_CERTIFICATE, ("result", "certificate", "i"), lambda i: 1.5, 2),
    (_CYCLE5_CERTIFICATE, ("result", "certificate", "witness"),
     lambda w: [True if x == 1 else x for x in w], 2),
    (_CYCLE5_CERTIFICATE, ("result", "value"), lambda v: True, 2),
    (_CYCLE5_CERTIFICATE, ("config", "options", "i"), lambda i: 2, 1),
    (("build", "--family", "circular", "--n", "5", "--d", "2"), ("result", "n_vertices"),
     lambda n: 999, 1),
    (("compute", "alt-sigma", *_K4_P2), ("result", "i"), lambda i: 7, 1),
    (("compute", "chi", "--family", "kneser", "--n", "5", "--k", "2"), ("result", "assignment"),
     lambda a: None, 1),
    # build refuses --cap on a raw host without --r, so its echo is refused too
    (("build", "--host", "complete", "--n", "4"), ("config", "options", "cap"), lambda c: 5, 2),
), ids=("report-value-float", "report-witness-edges-floats", "report-quantity",
        "report-options-ordering", "certificate-strong-list", "certificate-i-float", "certificate-witness-bools",
        "certificate-headline-bool", "certificate-options-level", "build-n-vertices",
        "alt-sigma-result-level", "chi-without-coloring", "build-raw-cap"))
def test_verify_refuses_coerced_and_unchecked_fields(capsys, tmp_path, argv, path, edit, code):
    doc = _run_json(capsys, *argv)
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = edit(node[last])
    file = tmp_path / "doc.json"
    file.write_text(canonical_dumps(doc))
    got, out = _run(capsys, "verify", str(file))
    assert got == code, out
    assert out == "" if code == 2 else json.loads(out)["verified"] is False


@pytest.mark.parametrize("flags", (("--host", "complete", "--n", "5000"),
                                   ("--host", "complete-uniform", "--n", "60", "--s", "8")))
def test_named_builders_check_sizes_before_making_edges(flags):
    # with a 1 GB address space: making the edges first ends in a MemoryError
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from kneserturan.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    out = subprocess.run([sys.executable, "-c", probe, "build", *flags], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_cap_escape_hatch_required(capsys):
    code, _ = _run(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--cap", "100000")
    assert code == 2
    code, _ = _run(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--cap", "100000", "--i-know-this-is-huge")
    assert code == 0


@pytest.mark.parametrize("verb", ["build", "export"])
def test_build_and_export_obey_the_cap(capsys, verb):
    # KG(5,2) and KG(K5,P1) both have 10 vertices, one per host edge; a raw
    # host without --r has no Kneser power for the cap to bound
    for instance, reason in (
            (("--family", "kneser", "--n", "5", "--k", "2"), "size cap"),
            (("--host", "complete", "--n", "5", "--pattern", "path", "--len", "1"), "size cap"),
            (("--host", "complete", "--n", "10"), f"{verb} does not read --cap")):
        code = main([verb, *instance, "--cap", "9"])
        captured = capsys.readouterr()
        assert code == 2, instance
        assert captured.out == ""
        assert reason in captured.err
        assert "Traceback" not in captured.err


def test_interval_needs_host_edges(capsys, tmp_path):
    # a raw representation has no host edges for --interval to order
    rep = tmp_path / "path.json"
    rep.write_text(build_named_family("path", length=3).canonical_json())
    for quantity in ("alt-sigma", "salt-sigma", "certificate"):
        code = main(["compute", quantity, "--input", str(rep), "--interval"])
        captured = capsys.readouterr()
        assert code == 2, quantity
        assert captured.out == ""
        assert "--interval orders host edges" in captured.err


def test_fixed_orderings_share_the_turan_cap(capsys, tmp_path):
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[0, 1, 2, 3, 4, 5]")
    k4_p2 = ("--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
    for flags in (("--identity",), ("--interval",), ("--ordering", str(sigma))):
        doc = _run_json(capsys, "compute", "ex-alt", *k4_p2, *flags, "--cap", "10")
        assert doc["config"]["options"]["cap"] == 10
    # the ordering scan keeps its own, smaller default
    code, _ = _run(capsys, "compute", "ex-alt", *k4_p2, "--cap", "10")
    assert code == 2


def test_golden_verb_single_case(capsys):
    doc = _run_json(capsys, "golden", "--only", "kneser-4-2")
    assert doc["result"]["ok"] is True
    assert doc["result"]["cases"][0]["computed"] == 2


def test_console_entry_point():
    for module in ("kneserturan.cli", "kneserturan"):
        out = subprocess.run(
            [sys.executable, "-m", module, "golden", "--only", "circular-5-2"],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["ok"] is True


def test_import_leaves_process_pool_unloaded():
    # no code path imports a process pool, so no call pays for loading
    # multiprocessing at start-up
    probe = ("import sys, kneserturan.cli; print(sorted(m for m in ("
             "'multiprocessing', 'concurrent.futures.process', 'kneserturan.harness', "
             "'kneserturan.turanalt') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['kneserturan.harness', 'kneserturan.turanalt']"


def test_verify_leaves_process_pool_unloaded(capsys, tmp_path):
    doc = _run_json(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2")
    path = tmp_path / "chi.json"
    path.write_text(canonical_dumps(doc))
    probe = ("import sys; from kneserturan.cli import main; code = main(['verify', sys.argv[1]]); "
             "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    verdict, loaded = out.stdout.strip().splitlines()
    assert json.loads(verdict)["verified"] is True
    assert loaded == "0 []"


def test_cli_import_loads_traced_modules_and_two_dataclasses():
    # The benchmark's tracer wraps the functions in perfbench/tracer.py TRACED
    # after `import kneserturan.cli` alone, so that import must load every
    # module they live in. The records are plain classes, since a dataclass
    # costs about 1 ms of code generation in every fresh interpreter; only
    # ChromaticReport and TuranReport stay dataclasses, because the
    # benchmark's --plant-wrong check corrupts them with dataclasses.replace.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    probe = (
        "import sys, dataclasses, kneserturan.cli\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import TRACED\n"
        "print(sorted({m for m, _ in TRACED if 'kneserturan.' + m not in sys.modules}))\n"
        "print(sorted({v.__qualname__ for k, mod in list(sys.modules.items())\n"
        "              if k.startswith('kneserturan') for v in vars(mod).values()\n"
        "              if isinstance(v, type) and v.__module__ == k\n"
        "              and dataclasses.is_dataclass(v)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    missing, dataclasses = out.stdout.strip().splitlines()
    assert missing == "[]"
    assert dataclasses == "['ChromaticReport', 'TuranReport']"


def test_named_family_rejects_r_override(capsys):
    code, _ = _run(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--r", "3")
    assert code == 2


def test_named_family_rejects_double(capsys):
    # KG(5,2) has no host to double; chi 3 of the plain graph is not an answer
    code = main(["compute", "chi", "--family", "kneser", "--n", "5", "--k", "2", "--double"])
    assert code == 2
    assert "--double" in capsys.readouterr().err


def test_named_family_rejects_pattern(capsys):
    code = main(["compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                 "--pattern", "path", "--len", "2"])
    assert code == 2
    assert "--pattern" in capsys.readouterr().err


def test_alt_sigma_rejects_strong(capsys):
    # the strong alternation is salt-sigma; alt-sigma computes only the plain one
    code = main(["compute", "alt-sigma", "--family", "kneser", "--n", "5", "--k", "2", "--strong"])
    assert code == 2
    assert "salt-sigma" in capsys.readouterr().err


def test_salt_sigma_rejects_level(capsys):
    code = main(["compute", "salt-sigma", "--family", "kneser", "--n", "5", "--k", "2",
                 "--i", "3"])
    assert code == 2
    assert "--i" in capsys.readouterr().err


def test_strong_certificate_rejects_level(capsys):
    # the strong value ignores i, so a document recording i = 2 would misstate it
    code = main(["compute", "certificate", "--family", "kneser", "--n", "5", "--k", "2",
                 "--strong", "--i", "2"])
    assert code == 2
    assert "i must be 1" in capsys.readouterr().err


@pytest.mark.parametrize("quantity, flag", [
    ("ex-alt", ("--strong",)),
    ("ex-salt", ("--i", "3")),
    ("chi", ("--strong",)),
    ("chi", ("--ordering", "missing.json")),
    ("chi", ("--interval",)),
    ("beta", ("--singles-last",)),
    ("alpha", ("--mode", "heuristic")),
    ("alpha", ("--seed", "5")),
    ("certificate", ("--restarts", "3")),
    ("ex", ("--r", "3")),
    ("ex-salt", ("--r", "2")),
    ("ex-alt", ("--seed", "3", "--interval")),
    ("ex-salt", ("--mode", "heuristic", "--identity")),
    ("ex-alt", ("--restarts", "3", "--identity")),
    ("ex-alt", ("--singles-last",)),
    ("ex-salt", ("--singles-last", "--identity")),
])
def test_quantity_rejects_options_it_does_not_read(capsys, quantity, flag):
    # ex-salt is the strong ex-alt and takes no level; chi takes neither
    code = main(["compute", quantity, "--host", "complete", "--n", "4",
                 "--pattern", "path", "--len", "2", *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{quantity} does not read {flag[0]}" in captured.err


def test_verify_rejects_strong_certificate_with_level(capsys, tmp_path):
    # the shape a strong certificate with i = 2 had before compute refused it
    doc = _run_json(capsys, "compute", "certificate", "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2", "--strong")
    doc["result"]["certificate"]["i"] = 2
    doc["config"]["options"]["i"] = 2
    path = tmp_path / "cert.json"
    for edited in (doc, doc["result"]["certificate"]):
        path.write_text(canonical_dumps(edited))
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "i must be 1" in captured.err


def test_verify_applies_the_option_check_of_compute(capsys, tmp_path):
    flags = ("ex-alt", "--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
    assert main(["compute", *flags, "--strong", "--i", "3"]) == 2
    reason = capsys.readouterr().err
    assert "ex-alt does not read --i" in reason
    doc = _run_json(capsys, "compute", *flags)
    doc["config"]["options"].update(strong=True, i=3)
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == reason


@pytest.mark.parametrize("quantity, edit, flag", [
    ("chi", {"ordering": {"kind": "identity", "sequence": [0, 1, 2, 3, 4, 5]}}, "--ordering"),
    ("alpha", {"mode": "heuristic"}, "--mode"),
    ("beta", {"seed": 5}, "--seed"),
    ("ex", {"r": 3}, "--r"),
    ("certificate", {"restarts": 3}, "--restarts"),
    ("ex-alt", {"ordering": {"kind": "identity", "sequence": [0, 1, 2, 3, 4, 5]}, "seed": 3},
     "--seed"),
    ("ex-salt", {"ordering": {"kind": "interval", "sequence": [0, 1, 2, 3, 4, 5]},
                 "mode": "exact"}, "--mode"),
    ("ex-alt", {"ordering": {"kind": "explicit", "sequence": [5, 4, 3, 2, 1, 0]},
                "restarts": 3}, "--restarts"),
])
def test_verify_refuses_options_the_quantity_ignores(capsys, tmp_path, quantity, edit, flag):
    # compute refuses each of these options; verify refuses its echo alike
    doc = _run_json(capsys, "compute", quantity, "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2")
    doc["config"]["options"].update(edit)
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{quantity} does not read {flag}" in captured.err


def test_named_family_r_is_a_parameter_for_every_quantity(capsys):
    # the r of the permutation family picks the family, not a power order
    for quantity in ("chi", "ex", "certificate"):
        doc = _run_json(capsys, "compute", quantity, "--family", "permutation",
                        "--m", "3", "--n", "3", "--r", "2")
        assert doc["config"]["options"]["r"] == 2
        assert doc["config"]["instance"]["params"]["r"] == 2


def test_manifest_constructions_are_compute_chi_instance_echoes(capsys, tmp_path):
    # each golden construction, wrapped as a compute chi document under the
    # default options, passes verify and carries the chi golden computes
    options = _options_echo(_build_parser().parse_args(["compute", "chi"]), None, None)
    computed = {record["name"]: record["computed"] for record in run_golden_suite()["cases"]}
    path = tmp_path / "doc.json"
    for case in MANIFEST:
        config = {"verb": "compute", "quantity": "chi", "instance": case.construction,
                  "options": options}
        result = _compute_chi(_target_of(_rebuild_instance(case.construction)), options)
        path.write_text(canonical_dumps({"config": config, "result": result}))
        code, out = _run(capsys, "verify", str(path))
        assert code == 0, (case.name, out)
        assert json.loads(out)["verified"] is True
        assert result["chi"] == computed[case.name], case.name


def test_order_three_power_without_edges(capsys, tmp_path):
    # the two host edges share a vertex, so the order-3 power has two vertices
    # and no edge: it is 2-uniform vacuously, yet still no graph to export
    flags = ("--host", "path", "--len", "2", "--r", "3")
    code = main(["export", "--format", "dimacs", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "2-uniform" in captured.err
    doc = _run_json(capsys, "compute", "chi", *flags)
    assert doc["result"] == {"assignment": [0, 0], "chi": 1, "witness": {"kind": "edgeless"}}
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    assert _run_json(capsys, "verify", str(path))["verified"] is True


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "kneserturan." * bool(node.level) + (node.module or "")
            yield base.rstrip(".")
            yield from (f"{base.rstrip('.')}.{alias.name}" for alias in node.names)


def test_only_main_imports_cli():
    # cli imports the library modules, so none of them may import cli back
    src = Path(__file__).resolve().parents[1] / "src" / "kneserturan"
    importers = [
        path.name for path in sorted(src.glob("*.py"))
        if any(name == "kneserturan.cli" or name.startswith("kneserturan.cli.")
               for name in _imported_modules(ast.parse(path.read_text())))
    ]
    assert importers == ["__main__.py"]


def test_verify_accepts_a_workers_option_echo(capsys, tmp_path):
    # documents written while compute had --workers echo it among the options
    doc = _run_json(capsys, "compute", "ex-alt", "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2")
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    code, fresh = _run(capsys, "verify", str(path))
    assert code == 0
    doc["config"]["options"]["workers"] = 1
    path.write_text(canonical_dumps(doc))
    assert _run(capsys, "verify", str(path)) == (0, fresh)


def test_cache_dir_variable_is_ignored(capsys, tmp_path, monkeypatch):
    # an entry in the format of the former on-disk occurrence cache, under
    # the name it was read from, that leaves every K4 edge free of P2s and
    # carries a digest rewritten to match
    host_json = build_named_family("complete", n=4).canonical_json()
    family_json = canonical_dumps([build_named_family("path", length=2).to_json_dict()])
    hypergraph = {"edges": [], "n": 6}
    entry = {"host": host_json, "family": family_json, "hypergraph": hypergraph,
             "digest": hashlib.sha256(canonical_dumps(hypergraph).encode()).hexdigest()}
    key = hashlib.sha256(f"{host_json}|{family_json}".encode()).hexdigest()
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"pattern-{key}.json").write_text(canonical_dumps(entry))
    monkeypatch.setenv("KNESERTURAN_CACHE_DIR", str(cache))
    doc = _run_json(capsys, "compute", "ex", "--host", "complete", "--n", "4",
                    "--pattern", "path", "--len", "2")
    assert doc["result"]["ex"] == 2
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    assert _run_json(capsys, "verify", str(path))["verified"] is True
    assert [(p.name, p.read_text()) for p in cache.iterdir()] == \
        [(f"pattern-{key}.json", canonical_dumps(entry))]
