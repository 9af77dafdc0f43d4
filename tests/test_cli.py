import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kneserturan import Hypergraph, build_named_family, canonical_dumps, from_dimacs
from kneserturan.cli import main


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
                        (string_value, "the report: invalid literal"),
                        (string_double, "in the host, double is not of type bool"),
                        (string_witness, "the witness is not a JSON object"),
                        (unknown_witness, "unknown witness kind 'hunch'")):
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


def test_cap_escape_hatch_required(capsys):
    code, _ = _run(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--cap", "100000")
    assert code == 2
    code, _ = _run(capsys, "compute", "chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--cap", "100000", "--i-know-this-is-huge")
    assert code == 0


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
    # the pool is imported only where --workers > 1 asks for one, so a
    # serial call does not pay for multiprocessing at start-up
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
