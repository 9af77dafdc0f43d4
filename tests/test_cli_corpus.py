"""Byte-level gate on the documents the command line prints.

Each case pins the sha256 of the canonical stdout of one CLI call and, for
every document a ``build`` or ``compute`` call produced, of the ``verify``
verdict on it. A refactor of the command line or of a search behind it that
changes a single byte of output shows up here as a digest mismatch.
"""

import hashlib

import pytest

from kneserturan import build_named_family
from kneserturan.cli import main

_K4_P2 = ("--host", "complete", "--n", "4", "--pattern", "path", "--len", "2")
_KNESER_5_2 = ("--family", "kneser", "--n", "5", "--k", "2")

# "{c5}" is a JSON file holding the 5-cycle, "{sigma6}" an explicit ordering
# of the six edges of K4.
CASES = {
    "chi-named": ("compute", "chi", *_KNESER_5_2),
    "chi-pattern": ("compute", "chi", *_K4_P2),
    "chi-input": ("compute", "chi", "--input", "{c5}"),
    "chi-r3": ("compute", "chi", "--host", "cycle", "--n", "7",
               "--pattern", "path", "--len", "1", "--r", "3"),
    "chi-pretty": ("compute", "chi", "--family", "circular", "--n", "5", "--d", "2",
                   "--pretty"),
    "alpha-named": ("compute", "alpha", *_KNESER_5_2),
    "alpha-pattern": ("compute", "alpha", *_K4_P2),
    "alpha-input": ("compute", "alpha", "--input", "{c5}"),
    "beta-named": ("compute", "beta", *_KNESER_5_2),
    "beta-pattern": ("compute", "beta", *_K4_P2),
    "beta-input": ("compute", "beta", "--input", "{c5}"),
    "ex-named": ("compute", "ex", *_KNESER_5_2),
    "ex-pattern": ("compute", "ex", *_K4_P2),
    "ex-input": ("compute", "ex", "--input", "{c5}", "--pattern", "path", "--len", "2"),
    "ex-k5-k3": ("compute", "ex", "--host", "complete", "--n", "5",
                 "--pattern", "complete", "--pattern-n", "3"),
    "ex-heuristic": ("compute", "ex", "--host", "complete", "--n", "5",
                     "--pattern", "complete", "--pattern-n", "3",
                     "--mode", "heuristic", "--seed", "3", "--restarts", "8"),
    "ex-alt-named": ("compute", "ex-alt", *_KNESER_5_2),
    "ex-alt-pattern": ("compute", "ex-alt", *_K4_P2),
    "ex-alt-input": ("compute", "ex-alt", "--input", "{c5}", "--pattern", "path", "--len", "2"),
    "ex-alt-ordering": ("compute", "ex-alt", *_K4_P2, "--ordering", "{sigma6}"),
    "ex-alt-interval": ("compute", "ex-alt", "--host", "complete", "--n", "3", "--pattern",
                        "complete", "--pattern-n", "3", "--double", "--interval"),
    "ex-alt-heuristic": ("compute", "ex-alt", "--host", "complete", "--n", "5",
                         "--pattern", "complete", "--pattern-n", "3"),
    "ex-salt-named": ("compute", "ex-salt", *_KNESER_5_2),
    "ex-salt-pattern": ("compute", "ex-salt", *_K4_P2),
    "ex-salt-input": ("compute", "ex-salt", "--input", "{c5}", "--pattern", "path",
                      "--len", "2", "--interval"),
    "ex-salt-identity": ("compute", "ex-salt", *_K4_P2, "--identity"),
    "alt-sigma-named": ("compute", "alt-sigma", *_KNESER_5_2),
    "alt-sigma-pattern": ("compute", "alt-sigma", *_K4_P2),
    "alt-sigma-input": ("compute", "alt-sigma", "--input", "{c5}"),
    "alt-sigma-ordering": ("compute", "alt-sigma", *_K4_P2, "--ordering", "{sigma6}",
                           "--i", "2"),
    "salt-sigma-named": ("compute", "salt-sigma", *_KNESER_5_2),
    "salt-sigma-pattern": ("compute", "salt-sigma", *_K4_P2),
    "salt-sigma-input": ("compute", "salt-sigma", "--input", "{c5}"),
    "certificate-named": ("compute", "certificate", *_KNESER_5_2),
    "certificate-pattern": ("compute", "certificate", *_K4_P2),
    "certificate-input": ("compute", "certificate", "--input", "{c5}"),
    "certificate-strong": ("compute", "certificate", *_K4_P2, "--strong"),
    "certificate-interval": ("compute", "certificate", "--host", "cycle", "--n", "5",
                             "--pattern", "path", "--len", "2", "--interval", "--i", "2"),
    "certificate-identity": ("compute", "certificate", "--host", "cycle", "--n", "5",
                             "--identity"),
    "build-named": ("build", *_KNESER_5_2),
    "build-pattern": ("build", *_K4_P2),
    "build-input-r3": ("build", "--input", "{c5}", "--r", "3"),
    "export-dimacs": ("export", "--host", "cycle", "--n", "5", "--format", "dimacs"),
    "export-json": ("export", *_K4_P2),
    "golden": ("golden", "--only", "kneser-4-2,circular-5-2"),
}

DIGESTS = {
    "alpha-input": "735b6bbf6bb203554460cdb9ed21f53298f24b785d82bbb5ec88282682d7b1e9",
    "alpha-input verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alpha-named": "d357665d6ca4bffd7b071bc1ee8801dc3c2ebe77ff5953c8deac7dca600bf27d",
    "alpha-named verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alpha-pattern": "e8878c46ca42a35ba3a7f37be258f18162a70c92fd9a46badaa83ffe3246ede2",
    "alpha-pattern verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alt-sigma-input": "5c200107fd930b529f6ea459bf31a2c9e8d7adc05611d58afea9fd5431d8e4c7",
    "alt-sigma-input verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-named": "6634fe093873d6e454dbc2d7f4836f2d477a5e863c945d99e5147ba2893ff0c2",
    "alt-sigma-named verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-ordering": "2d61476306a70885ac8f87b426fa77b55d379ad5a338aa312b9cb776a3df08ef",
    "alt-sigma-ordering verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-pattern": "9ed733648b5c700cd9015f9cc0fbc22c09d7a55343a0534266d80f8946fbe299",
    "alt-sigma-pattern verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "beta-input": "173173034e621219fedb703086b447f10c8b6e7fff28e25da73fefd1e9fe0389",
    "beta-input verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "beta-named": "f40ea6cc9a587ff591ecf1b4cbc82f3a8be0656141c00ef8fa0be090e266e37c",
    "beta-named verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "beta-pattern": "679c71d59049d8e89508ce88d3fcbe29a0ccf72108ead828b9dfaea3cb108f12",
    "beta-pattern verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "build-input-r3": "b77c665825ad6c8547aa2c5155773a0d1f6d9a0bc2ff8ef2a1ca1b59265a7d88",
    "build-input-r3 verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "build-named": "e806ba70c46aec387afa72e5d142a3c1630dafc4d36683aae3a8450639c4f06e",
    "build-named verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "build-pattern": "0342a02ec7d9a02dc562e2d6b24ced33632ce961b61a1e85e93938f5fc942ef7",
    "build-pattern verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "certificate-identity": "93833ac5acb67384d7a7bec01aa84e35f07b2c44cad3ed1eac3c1d204974bb7f",
    "certificate-identity verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "certificate-input": "93d73771d92746d27bb4ceba03ee7dcc74ccd7138a343a4f2064f7783102b7ec",
    "certificate-input verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "certificate-interval": "bba16c9d7c867fa600215c40cedff5cb18c50c4119ac33435f4b4efad6d0401d",
    "certificate-interval verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "certificate-named": "f65641f84538938c654da449bf5b9858b85f6549c80a8d1dc9fca3844ab3cb76",
    "certificate-named verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "certificate-pattern": "4a4f3da575c19c6274b2a6427b5502e3b672aadc5e78380bf103be6d25921ffc",
    "certificate-pattern verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "certificate-strong": "a5bd4d40a93e4e71c6548881a2fb7aecda44f4c5d8fb63f2b456a252a081ea41",
    "certificate-strong verify": "758f142cb78de8e5dc546b7ef13ba95a6d43e181ff4ddf44f008080ce74891e7",
    "chi-input": "8f7c5c5d888d88a3e8838d39644a20d06af99272cd1338562cd25db1c5836ad4",
    "chi-input verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-named": "1b80ce1df96bcf91b4752ac758cedb2e1a95ca0355dd76f911f7d0991f54af9a",
    "chi-named verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-pattern": "940faa236614ac5edfcae23f24272684bb19793345c208cd9414a89ab2b249f9",
    "chi-pattern verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-pretty": "d0fab4da1c37af009238a23f292bb48d5ba39a55771d37e59c74f7a63f985c6d",
    "chi-r3": "076c96cbd63461eb775a8769a6868de18e7bbbea97d5930bf485e184cea72322",
    "chi-r3 verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "ex-alt-heuristic": "bfdd1d34e2d4acf3c52ca30e5912ef36fa34fc89e6639dce031ae8fd69197dce",
    "ex-alt-heuristic verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-alt-input": "43eed5cdae7f992fc6b112396693f0b10436c0f6c6d671e5b1a89cde9546b460",
    "ex-alt-input verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-alt-interval": "7ea67f3f262ba4af52b3fe7a0eccc87d3e2ae21788b20e981864f3201d35f125",
    "ex-alt-interval verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-alt-named": "d9e4e5ca76aa0f563157b5ba0cb02db0d3ac6e5d88acb00c085afc7b5d29759e",
    "ex-alt-named verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-alt-ordering": "7176e58766e67817b7a6358b23c21d91c1859f32c1ce858922b14a69320795d6",
    "ex-alt-ordering verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-alt-pattern": "eb22ef774c7a4aa5c2d5f60998bf2aa6909cd32e26c85db90b008e632b5ffcd9",
    "ex-alt-pattern verify": "427c8d21b048b4ea3ddbc165fbf762bd8fb9cf5dc45ea3a2cf4c00322e74f0d9",
    "ex-heuristic": "e1bebeb5597a4480fda56399949f89c5829d87b604fdb3e5f61b71a5823582cb",
    "ex-heuristic verify": "e67415d5a175e6a4b6154b8c4a308617fe988e8771fba2b9e661e00c879e292b",
    "ex-input": "ea27c66341e3bc175da90f0616e24bf8cb9307a1492e03e6cf7b577498cf7375",
    "ex-input verify": "61cf62c569a3fb0f20ce00f6fba1ac64c0fd0def7f8c4e036630fa89c584eb35",
    "ex-k5-k3": "280e489ae1806952be51a54c9528a9526dac14413fe1554d2f61fe932001139f",
    "ex-k5-k3 verify": "61cf62c569a3fb0f20ce00f6fba1ac64c0fd0def7f8c4e036630fa89c584eb35",
    "ex-named": "11ea6e394547c664d979531e5735237e6379e78c1d11881fdf6a915f5d997a21",
    "ex-named verify": "61cf62c569a3fb0f20ce00f6fba1ac64c0fd0def7f8c4e036630fa89c584eb35",
    "ex-pattern": "9ac15a96b2098c18052947388a9109c978c73f1f108f5de24d2a47123e3644d7",
    "ex-pattern verify": "61cf62c569a3fb0f20ce00f6fba1ac64c0fd0def7f8c4e036630fa89c584eb35",
    "ex-salt-identity": "e403b26cca95d3ad7a3a51207591f4fc950e8b2572d01ce796ef89c9a7853a53",
    "ex-salt-identity verify": "ef6a1af8f8c0d20cf4537dc26903f3c666d2bdcd855776ff29fba1e79f00bd46",
    "ex-salt-input": "aa26a9002281c19bb78004c9bf5bea4ce3fc80f5414618c8cdf752433c7e28d0",
    "ex-salt-input verify": "ef6a1af8f8c0d20cf4537dc26903f3c666d2bdcd855776ff29fba1e79f00bd46",
    "ex-salt-named": "6db9d8f8536020cc048e66eaea98e45b914363a4ee311aa662facb233497230a",
    "ex-salt-named verify": "ef6a1af8f8c0d20cf4537dc26903f3c666d2bdcd855776ff29fba1e79f00bd46",
    "ex-salt-pattern": "1515e1c3b66f520797ee9b8cd54a3fc56c79f16394401ac63b4ebc02daa1f0d6",
    "ex-salt-pattern verify": "ef6a1af8f8c0d20cf4537dc26903f3c666d2bdcd855776ff29fba1e79f00bd46",
    "export-dimacs": "a4486877b0bbf1d5fa1902ffd5041f8a1c95f518b73e21c9074878b61855b7e5",
    "export-json": "9517fca07cc5a7f103629b1ca1ef74e687887dea8f19dc9657b9195c37865019",
    "golden": "209ddaa3e30cf1a140589d749c54ec8b885720dc24fc25427ce5d2523a9a3e6f",
    "salt-sigma-input": "246eb6f67eadb93f8f2aa57282345470ddb05f5619399fcd4de577edbb4ae7a8",
    "salt-sigma-input verify": "791d1bcfd421a7e8492ce428e3fd52c93a1bf77254d8c6892116ee403e895438",
    "salt-sigma-named": "af47b9bff8d06d571f84b52b70d786e071bf9d7db857d9f080f5612a4f7d4cf9",
    "salt-sigma-named verify": "791d1bcfd421a7e8492ce428e3fd52c93a1bf77254d8c6892116ee403e895438",
    "salt-sigma-pattern": "a85bd23e963dd9f1dea59e5fa628a3149e88c8fd9b2a66e85d0a484bb9f1df0f",
    "salt-sigma-pattern verify": "791d1bcfd421a7e8492ce428e3fd52c93a1bf77254d8c6892116ee403e895438",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_digest(name, capsys, tmp_path):
    files = {"c5": tmp_path / "c5.json", "sigma6": tmp_path / "sigma6.json"}
    files["c5"].write_text(build_named_family("cycle", n=5).canonical_json())
    files["sigma6"].write_text("[0, 5, 1, 4, 2, 3]")
    argv = [arg.format(**files) for arg in CASES[name]]
    code, out = _run(capsys, argv)
    assert code == 0, out
    assert _sha(out) == DIGESTS[name]
    if argv[0] in ("build", "compute") and "--pretty" not in argv:
        doc = tmp_path / "doc.json"
        doc.write_text(out)
        code, verdict = _run(capsys, ("verify", str(doc)))
        assert code == 0, verdict
        assert _sha(verdict) == DIGESTS[name + " verify"]
