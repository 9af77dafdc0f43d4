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
    "alpha-input": "b022278d6fcc3c67c7d99098ecae464da22dd2bdde264af34cc1cc70e5734bd1",
    "alpha-input verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alpha-named": "356e3578dfc98155840fc4cf1f4c2c9bdc4d1f79539e71d031de92caea16375f",
    "alpha-named verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alpha-pattern": "308f32dedff30dd264b44a4b3d8203f0fd38ee0fda223b182a59549e3ad3fecb",
    "alpha-pattern verify": "5359d34ceaf9eb40b10674e631cfc3a9dd34d1e6f4263239045a3c141f947c48",
    "alt-sigma-input": "733f3ac467451237e6d6210f8566641bddca59b866c2adb76fa6758b78d345ec",
    "alt-sigma-input verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-named": "3856011c67991ec92eef58be0789ad9fcc8512b4eceb4a6b2da884b0e3d1ad80",
    "alt-sigma-named verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-ordering": "afeae68e31dd257f81e561e24880c0dae2b55293dc58c5604d295c30f2cd9d8b",
    "alt-sigma-ordering verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "alt-sigma-pattern": "55eda7b4910ab7fb993708c06d116299f3dbc67e61b57307b2211bbc55ad0ec9",
    "alt-sigma-pattern verify": "51cdaff0fd5e6605b5f59cf82b3199e0a2e86ceaf0f2e379726333b4a42c35c7",
    "beta-input": "4fc7818c1d246efe5de3b9e125d353b7e5b4efdd8b93c491a96a61650e1b7f32",
    "beta-input verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "beta-named": "e7e9f676a232a92c72ac46ec94eb3960ef1ce61509ef1567301e9b5f2d62789d",
    "beta-named verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "beta-pattern": "461fc840a92e84ff5923e37e8a6ff23f3ff536a46e50e715bc3a573e28d83ec3",
    "beta-pattern verify": "a009185825d4a2c1c39c49254a5880417454f3bbb18bb765fc3ddb4b9c460d40",
    "build-input-r3": "93fa629b73f133d5a90f4af6e497acbc8b2e9d266b3f8b73833caa125cf2344c",
    "build-input-r3 verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "build-named": "16ce8687e83fd58aa67fb16244dad5f54a13cb09343ad133fec1413c4176b20f",
    "build-named verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "build-pattern": "b71714e39a7f869881d1dcc853f6f745a0872b0506c1d3eb55f3392e9c2ae18e",
    "build-pattern verify": "2f798902bdcbf4ce7368d854b45cd123384e41bf34f245a49fb3569b6011a39e",
    "certificate-identity": "3a6a31ae7a41ca3c87fd8325d6cff587ce5a9a31696a1d9f8a1142ee5183c4a2",
    "certificate-identity verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "certificate-input": "fd7a6b522be85c16fd48a929e248787a589102f2db8f6c8ec3b1450ccee0901e",
    "certificate-input verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "certificate-interval": "dea7db9da599c8f50949b94a222d23072bc72919fe7f4cb545a38934ac160767",
    "certificate-interval verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "certificate-named": "46997c16c867791559b628954b2141c37fad2090abba869e3cdd29a86136f36c",
    "certificate-named verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "certificate-pattern": "dbf860b97a47c59da735e09e6bdec521935d0a3f88b28da3538317af8a565ac5",
    "certificate-pattern verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "certificate-strong": "06efd9f0c5ac2a569222cffbb15449d08bbb1903a4b90b564e47991e898da119",
    "certificate-strong verify": "fe4a5a8e1102f5392f489692cd8df88bb2b0561af9278525fcbf2f357ddc7da8",
    "chi-input": "dd7e35677e7ffe25da8a59c59e1df89ffa0a613d3c0b8e140b4aa09a5f73cd67",
    "chi-input verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-named": "b0ced58106d96e9773f00a19a19a345aba3eea4b00157ec3e1275ae94747b8bc",
    "chi-named verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-pattern": "8a9b39067bf3d12c1755b44aa34eff477198b3d6f71a26562e17ee9c81af8cb2",
    "chi-pattern verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "chi-pretty": "1fc2b5e56ca879976b5e7a468c28d0fddfc45319681e57dae5316f82d8dd8087",
    "chi-r3": "d39840a08b4111047fe9d1b12904735a08c6ce686d2568bdba5ff19d344910e4",
    "chi-r3 verify": "6d2a58be3f176be8bf4bf5b860b49c65386c32c02c0c6124fd3de8cea85423aa",
    "ex-alt-heuristic": "fe6adbc27aa778287b6f39593dac12d120f00c5715c56fdf57acda473428961c",
    "ex-alt-heuristic verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-alt-input": "1ae70203acd5aed0db2386919b570ce42e5b73a169252e50fd299d07a9741460",
    "ex-alt-input verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-alt-interval": "66d3b3e9595c344951be4c52f0b6e813bfb5193c415ad1db9381c1222b197268",
    "ex-alt-interval verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-alt-named": "dc64efb8045a70a8ca31aa1a197dc1971e9889f3de57c74a81c72b83aa44caac",
    "ex-alt-named verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-alt-ordering": "d3c2e66720bac9cffb4b80b6966c1f452526735473068c520c8afe49c9940b5b",
    "ex-alt-ordering verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-alt-pattern": "96a6ba3441de273ec88c2cf24039a03a8cd9e68949f332e04c9b7fbaeb7581ed",
    "ex-alt-pattern verify": "96bfe4afc4fac1cd5b81ccdcff6f4fc0620dd3ecbc7396d2d84754fc06a45500",
    "ex-heuristic": "f6a93e52cb1a774412a4705cb99fd58dd85e7962ae6e367ee7378668ad3d405d",
    "ex-heuristic verify": "ab5183ab4a1c259f44f13d6ee44c078a6d2056b7eaf2a7f10c78f8f467295c32",
    "ex-input": "42295ae6f04d6ba20e2e1a2946786d21f1b58892aae4472fe846c3a36a6a6653",
    "ex-input verify": "530a43aabbb9218f50e00082005fc22e4b3065578e23b528b90fece0735cefaf",
    "ex-k5-k3": "699555def4e9f2bbb3921fe809fc96ee242bd411303c9fd4eba7ff81f8d93ffc",
    "ex-k5-k3 verify": "530a43aabbb9218f50e00082005fc22e4b3065578e23b528b90fece0735cefaf",
    "ex-named": "925f743c4d57a1122f49508bdf26bdc1dabeeed07c4f4d87d8f58db7cc6a3f16",
    "ex-named verify": "530a43aabbb9218f50e00082005fc22e4b3065578e23b528b90fece0735cefaf",
    "ex-pattern": "30cea4115c73ae1d722278e25a36eeb2fcad2fb4107093c58d8c820bab8e5c32",
    "ex-pattern verify": "530a43aabbb9218f50e00082005fc22e4b3065578e23b528b90fece0735cefaf",
    "ex-salt-identity": "697f316ead950958b048c27c125f4b21191ddea888d60a12e1c8e62ae609698c",
    "ex-salt-identity verify": "5f7ea20a94336dadc2e0cceab0566d904914401baa712d011dd7d873acbbed5e",
    "ex-salt-input": "c769c4b8ea0907f7b46f26581a5d41325a60b059a5bc1c4ed743f19dcdd45cc5",
    "ex-salt-input verify": "5f7ea20a94336dadc2e0cceab0566d904914401baa712d011dd7d873acbbed5e",
    "ex-salt-named": "c317ed714734f852e1ea3aa1afd1daadf2c665f67ed0b844a72c2cce5ca58bdd",
    "ex-salt-named verify": "5f7ea20a94336dadc2e0cceab0566d904914401baa712d011dd7d873acbbed5e",
    "ex-salt-pattern": "2a2cd3e798a0350a2eedde33d3d9b7a94b4bbac3399823c686ce65bd86c3ffbb",
    "ex-salt-pattern verify": "5f7ea20a94336dadc2e0cceab0566d904914401baa712d011dd7d873acbbed5e",
    "export-dimacs": "a4486877b0bbf1d5fa1902ffd5041f8a1c95f518b73e21c9074878b61855b7e5",
    "export-json": "9517fca07cc5a7f103629b1ca1ef74e687887dea8f19dc9657b9195c37865019",
    "golden": "a5a9ba91756a1d91aa93dedf9b60d5214e66451ea10b62c7b9fb8d65c7daa1ff",
    "salt-sigma-input": "610177143dc3bad5bdf94c5e26b0e4fad3ac7af02379d5300247a1a18ef36685",
    "salt-sigma-input verify": "791d1bcfd421a7e8492ce428e3fd52c93a1bf77254d8c6892116ee403e895438",
    "salt-sigma-named": "b03d2b9148881dbdd3fced26eee7e9e71f288a397a472fb77234689930fda4ce",
    "salt-sigma-named verify": "791d1bcfd421a7e8492ce428e3fd52c93a1bf77254d8c6892116ee403e895438",
    "salt-sigma-pattern": "97e285556a8f93fc2c9a700cb13aa6e1ee4bac88a43ea69c96576d107942fbe9",
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
