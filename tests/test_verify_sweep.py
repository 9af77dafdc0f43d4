"""verify on every one-field corruption of small documents.

Each field of each document, at every depth, is replaced in turn by one of
a few values of the wrong type or range. verify must answer 0, 1 or 2 and
never raise; a refusal (2) prints nothing on stdout.
"""

import copy
import json

import pytest

from kneserturan import build_named_family, canonical_dumps
from kneserturan.cli import main

_K3_P2 = ("--host", "complete", "--n", "3", "--pattern", "path", "--len", "2")

# "{input}" stands for a file holding the 4-cycle, so one document carries a
# hypergraph inside its instance echo
_DOCUMENTS = {
    "chi": ("compute", "chi", "--family", "kneser", "--n", "4", "--k", "1"),
    "alpha": ("compute", "alpha", "--input", "{input}"),
    "ex": ("compute", "ex", *_K3_P2),
    "ex-alt": ("compute", "ex-alt", *_K3_P2),
    "certificate": ("compute", "certificate", "--host", "cycle", "--n", "4", "--identity"),
    "alt-sigma": ("compute", "alt-sigma", "--host", "path", "--len", "3", "--i", "2"),
    "build": ("build", *_K3_P2),
}

_JUNK = (None, "x", 1.5, -1, [], {}, [None], True)


def _paths(node, path=()):
    """The key path of every value below ``node``, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@pytest.mark.parametrize("name", _DOCUMENTS)
def test_verify_answers_every_corrupted_field_without_raising(capsys, tmp_path, name):
    source = tmp_path / "input.json"
    source.write_text(build_named_family("cycle", n=4).canonical_json())
    argv = [str(source) if arg == "{input}" else arg for arg in _DOCUMENTS[name]]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    file = tmp_path / "doc.json"
    for path in _paths(doc):
        for junk in _JUNK:
            bad = copy.deepcopy(doc)
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = junk
            file.write_text(canonical_dumps(bad))
            code = main(["verify", str(file)])
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (path, junk)
            if code == 2:
                assert out == "", (path, junk)
            else:
                assert json.loads(out)["verified"] is (code == 0), (path, junk)
