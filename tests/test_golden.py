"""Result documents are byte-identical to the recorded ones.

Pins the sha256 of the `compute` and `oracle` documents of every
presentation in scripts/presentations/, of the `bv` documents of those that
scripts/run_corpus.py runs it on, of `verify --seed 0`, `1` and `2`, of
the `compute` documents of four benchmark inputs (three whose product
tables and collapse certificates are large, one whose products take the
homology path), of the `oracle` documents of the benchmark's oracle
workload, of the `bv` document of the three-generator exterior input
at max filtration 3, and of the `oracle` and `bv` documents of
F_2[x1]/(x1^2) with |x1| = 10^4 in the default window.
A change that is meant to alter results must re-record these hashes and
say why.
"""

import hashlib
import json
import pathlib

import pytest

from hhkt.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PRESENTATIONS = ROOT / "scripts" / "presentations"
BENCH_INPUTS = ROOT / "perfbench" / "inputs"

COMPUTE_SHA256 = {
    "ext1_deg3_char3":
        "974e490fdd5b6885415a60d6f2a6247bb8e0fd0a9f04ceaaef9dfd7c8598d6c2",
    "ext2_deg3_char2":
        "8cbb5052ab14a7dcfb4712fe2fe180d5b5b58282513ac6c84bb9181f43a50c37",
    "ext2_deg5_char2":
        "cd09fdec34c9aedb4d5ffc25b4dd983fa6f7420c9bb125aa6fe9a97a5fae1430",
    "mixed_ext5_trunc4_char2":
        "2b4815bb02fa6af2bf05aa9e197e1a5037c436422380254ceb97e12f8a7c18bf",
    "poly1_deg2_char3":
        "55e8a128227bc353b1ec5ac567c737721a0c5d1a393567e70146e76732bc54df",
    "trunc_x2_deg4_char2":
        "36f1bb0660afcd56c515d0d8371f9e270de555888abd8f913e3acf9704132130",
}

ORACLE_SHA256 = {
    "ext1_deg3_char3":
        "9b548318b1da3792907e1633e4e7ca1d3ff512b33e706522f0abb82f026f0398",
    "ext2_deg3_char2":
        "6223b771c909d8707e73ed3d4197f65a681afecd13cb6286782b25bf3eff5aef",
    "ext2_deg5_char2":
        "2e5a9627038e72e604defe451b8de75df31171a2f4150771533e8b3240e876cc",
    "mixed_ext5_trunc4_char2":
        "2d016ff7400f9e82e5721cf42f132dedd4ba9edfd1ee3cc1272732786010df5d",
    "poly1_deg2_char3":
        "9f7200ba27e4b01fe3f99439affd5e99c9783cd2eeb39d7dfd88f0e6541bbf77",
    "trunc_x2_deg4_char2":
        "f6ddc588b983386fb5d6d64b3492d775e825fe2835542d27023f68ad9b8d942d",
}

# poly1_deg2_char3 has no Poincare duality, so it has no bv document
BV_SHA256 = {
    "ext1_deg3_char3":
        "2116c6aeae381372a079b70d16172bd9e76af8bba2c3bad3ac3d0ba44fb34acf",
    "ext2_deg3_char2":
        "4314c37880570d7b64e69fea3b6083a32a32c8daba1073b6d9ea5bbb103e3df9",
    "ext2_deg5_char2":
        "09fa6243b31f2bfd5e6e4ac091158c6c4e8f30222f1cdcfc6dcffc19871a3be1",
    "mixed_ext5_trunc4_char2":
        "5b0335b64cc01b9de371f51cf9994d67021d0a6afdbac60c2b0aafe3278b2565",
    "trunc_x2_deg4_char2":
        "a372e7265edade46b8ea1bbe734d39924dbc84d6f3b9cae4921ec9de4e28b770",
}

# ext3_deg5_char2: 2 697 product rows; poly2_deg2_char2: 14 721 product
# rows; mixed_ext3_trunc3_char3: an "obstructed" certificate with 22
# potential differentials into cells beyond the window; poly2_rel_deg2_char2:
# 75 product rows on the homology path (cup_via_diagonal, then _express)
BENCH_COMPUTE_SHA256 = {
    "ext3_deg5_char2":
        "f5c0d048f9fde2bc77b5e6399225e19981b9ffd9ba5cd6cc33c19ddc6a529fa5",
    "poly2_deg2_char2":
        "d3d22f4e9ac9df79058784f1f4bb4d7d82006b7c2445567927c9cc28265333fd",
    "mixed_ext3_trunc3_char3":
        "a56e92b54a87fed93a3b29e2679ac88fc6d2ace328482edae816b75619eb7b41",
    "poly2_rel_deg2_char2":
        "21294d4bc1d2b32453101224718d2fd04ae3d96b92a825ba4487adb9c321e590",
}

# the two commands of the benchmark's oracle workload: a relation that is
# not a pure power over F_2, and a mixed presentation over F_3
BENCH_ORACLE_SHA256 = {
    "poly2_rel_deg2_char2":
        "cf9d0b6365d9178f53cb697056a855273de5320f00b231fde62aa36831c3d137",
    "mixed_ext3_trunc3_char3":
        "d6c54ee72d9308971821d9213981140765db1db5d3506aaa19f1567c2de73769",
}

# /\(y1,y2,y3), |y| = 5, F_2: the BV composite with three exterior
# generators, cut at max filtration 3
BENCH_BV_EXT3_SHA256 = \
    "95e6439c98b3d8746a7fad554f51d0b81e66d3f2b3d3efba98cf9fab5fe1c1f8"

# F_2[x1]/(x1^2), |x1| = 10^4, default window: a generator degree far
# above the window, where only the degrees 0 and 10^4 hold monomials
LARGE_DEGREE_INPUT = {
    "characteristic": 2, "relations": ["x1^2"],
    "generators": [{"name": "x1", "degree": 10000, "kind": "polynomial"}]}
LARGE_DEGREE_SHA256 = {
    "oracle":
        "361cdbfb215ae745ce38d8a920e75c092a3a1849cf329f298e1273940802f668",
    "bv": "53d10d94311f34a9573dfa0e97a344feff29b02198455d7a2317313df6aaa582",
}

VERIFY_SHA256 = {
    0: "e278035399e71a1eab88af0f429f45480a9565fec941d7cc1032b81928d448a6",
    1: "306065906c6b23adbf2da4800da66e95d4bed37f3b25acdf6d473e20c6a5532f",
    2: "ac21c6796f3ebfacc1e325dd5dad799e94b873040cdf0fbe810de8ea169dccff",
}


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_presentation_is_pinned():
    names = sorted(p.stem for p in PRESENTATIONS.glob("*.json"))
    assert names == sorted(COMPUTE_SHA256) == sorted(ORACLE_SHA256)
    assert set(BV_SHA256) == set(names) - {"poly1_deg2_char3"}


@pytest.mark.parametrize("name", sorted(COMPUTE_SHA256))
def test_compute_document_is_unchanged(capsys, name):
    path = PRESENTATIONS / f"{name}.json"
    assert _stdout_sha256(capsys, ["compute", "--input", str(path)]) \
        == COMPUTE_SHA256[name]


@pytest.mark.parametrize("name", sorted(BENCH_COMPUTE_SHA256))
def test_benchmark_compute_document_is_unchanged(capsys, name):
    path = BENCH_INPUTS / f"{name}.json"
    assert _stdout_sha256(capsys, ["compute", "--input", str(path)]) \
        == BENCH_COMPUTE_SHA256[name]


@pytest.mark.parametrize("name", sorted(BENCH_ORACLE_SHA256))
def test_benchmark_oracle_document_is_unchanged(capsys, name):
    path = BENCH_INPUTS / f"{name}.json"
    assert _stdout_sha256(capsys, ["oracle", "--input", str(path)]) \
        == BENCH_ORACLE_SHA256[name]


@pytest.mark.parametrize("name", sorted(ORACLE_SHA256))
def test_oracle_document_is_unchanged(capsys, name):
    path = PRESENTATIONS / f"{name}.json"
    assert _stdout_sha256(capsys, ["oracle", "--input", str(path)]) \
        == ORACLE_SHA256[name]


@pytest.mark.parametrize("name", sorted(BV_SHA256))
def test_bv_document_is_unchanged(capsys, name):
    path = PRESENTATIONS / f"{name}.json"
    assert _stdout_sha256(capsys, ["bv", "--input", str(path)]) \
        == BV_SHA256[name]


def test_benchmark_bv_document_is_unchanged(capsys):
    path = BENCH_INPUTS / "ext3_deg5_char2.json"
    assert _stdout_sha256(capsys, ["bv", "--input", str(path),
                                   "--max-p", "3"]) == BENCH_BV_EXT3_SHA256


@pytest.mark.parametrize("command", sorted(LARGE_DEGREE_SHA256))
def test_large_generator_degree_document_is_unchanged(capsys, tmp_path,
                                                      command):
    path = tmp_path / "x1_deg10000_char2.json"
    path.write_text(json.dumps(LARGE_DEGREE_INPUT))
    assert _stdout_sha256(capsys, [command, "--input", str(path)]) \
        == LARGE_DEGREE_SHA256[command]


def test_verify_document_is_unchanged(capsys):
    for seed, digest in VERIFY_SHA256.items():
        assert _stdout_sha256(capsys, ["verify", "--seed", str(seed)]) \
            == digest, f"verify --seed {seed}"
