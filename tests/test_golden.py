"""Result documents are byte-identical to the recorded ones.

Pins the sha256 of the `compute` and `oracle` documents of every
presentation in scripts/presentations/, of the `bv` documents of those that
scripts/run_corpus.py runs it on, of `verify --seed 0`, `1` and `2`, of
the `compute` documents of four benchmark inputs (three whose product
tables and collapse certificates are large, one whose products take the
homology path), of the `oracle` documents of the benchmark's oracle
workload, and of the `bv` document of the three-generator exterior input
at max filtration 3.
A change that is meant to alter results must re-record these hashes and
say why.
"""

import hashlib
import pathlib

import pytest

from hhkt.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PRESENTATIONS = ROOT / "scripts" / "presentations"
BENCH_INPUTS = ROOT / "perfbench" / "inputs"

COMPUTE_SHA256 = {
    "ext1_deg3_char3":
        "5bb7657903de3d79cb157107a51ec9e1b11d64b6344f3b60925b154153b23ce8",
    "ext2_deg3_char2":
        "9b62e42686ddb955e66ed31636c2beedd7b08c35db01c434c548f294d2f670dd",
    "ext2_deg5_char2":
        "b077d9dc8940eb12560f430a3563b21f731a69946e582807ee5c692edad75e6f",
    "mixed_ext5_trunc4_char2":
        "321bfe4aec716c169a3737ebac503b1f0ad8ab97e7ed57acd3f54afcc2bec345",
    "poly1_deg2_char3":
        "c806002455568e6a00af25c95f876728ba13c0e9f8c60f9acf72e7d1dcafc450",
    "trunc_x2_deg4_char2":
        "e40e922a0ff3d122d1b9ae37690e5ade4099a251af0a1e41cb83374b8dfc2610",
}

ORACLE_SHA256 = {
    "ext1_deg3_char3":
        "e02ff0543086725e4381779eaf84101899a7a88fee0e47404085fe2d4325a06d",
    "ext2_deg3_char2":
        "7cd6abf0ad206961c7b4ecf6b349c121c2a62635e6a4cbd35009eefd814ae8fe",
    "ext2_deg5_char2":
        "f136df34d46ad51a12966080a53259d8e4b5106613b6c6134d8e59ffa3377103",
    "mixed_ext5_trunc4_char2":
        "c3d385a9e731464a0644a06ae240552d5d6254dbb010e8d16ed1f895295ecea0",
    "poly1_deg2_char3":
        "4dc0f845e0acb5bb590f03f088676ca524e54670568e0857504b1682d3f7b03c",
    "trunc_x2_deg4_char2":
        "961accbaaeaddee38addb5ea325a8b6e2bf42d6ee46f019da58c82a822ec5153",
}

# poly1_deg2_char3 has no Poincare duality, so it has no bv document
BV_SHA256 = {
    "ext1_deg3_char3":
        "c76a4ec6ba5e37c48826d4c28446d5299c173ccd25155f78cc6b3d828d16b08b",
    "ext2_deg3_char2":
        "4e807c6a3c8fe6275878a22130c8a73d77744075574f380f65ed600466f8effc",
    "ext2_deg5_char2":
        "ee6a579fa5fa70a39868c1a1316df2f0223b340deadc343f11949a75b712e32e",
    "mixed_ext5_trunc4_char2":
        "e28be699bc7af9e91185989feecb730b76995bbf548387e64a4a00d63a61cc24",
    "trunc_x2_deg4_char2":
        "a05772869ecfb947496a74092069909bb94c46f071d322cf47ddffe9f1ef3bff",
}

# ext3_deg5_char2: 2 697 product rows; poly2_deg2_char2: 14 721 product
# rows; mixed_ext3_trunc3_char3: an "obstructed" certificate with 22
# potential differentials into cells beyond the window; poly2_rel_deg2_char2:
# 75 product rows on the homology path (cup_via_diagonal, then _express)
BENCH_COMPUTE_SHA256 = {
    "ext3_deg5_char2":
        "58f4db88888336b5b07369644f0b7c0446e5be1d03db1c9ebd947b602953c60e",
    "poly2_deg2_char2":
        "933a0125de797d9c0c96a32deecaed511d6bad8bc53e45a9c841d557e7b61b24",
    "mixed_ext3_trunc3_char3":
        "77fcc73822908b79bdabc76bae02a35ebcdc81bbfde789a68e234b929ba101f5",
    "poly2_rel_deg2_char2":
        "9be6ed53305d74cd59d12e9bf7b16c49e2d21257979425c4fadbded3a594bc78",
}

# the two commands of the benchmark's oracle workload: a relation that is
# not a pure power over F_2, and a mixed presentation over F_3
BENCH_ORACLE_SHA256 = {
    "poly2_rel_deg2_char2":
        "edcba227f770285945c9fec90e1f2ddc1f607d5a9cd363859eaec7a9e21c05c7",
    "mixed_ext3_trunc3_char3":
        "d5f139b9a5a6dbc3133c8bdcb54ada7928f382222f39a17affb5348e369d37f1",
}

# /\(y1,y2,y3), |y| = 5, F_2: the BV composite with three exterior
# generators, cut at max filtration 3
BENCH_BV_EXT3_SHA256 = \
    "d6f506fc25615279ced555225ebe8fa3e1d49dd9ad88aba34e422d122114ce7d"

VERIFY_SHA256 = {
    0: "16d1c0e9d89e3f18c5a79b4fce179fce336fb46dec1f17bcff1d42a2ad3a0a86",
    1: "6a706390efa2a26ad7e2281d969f326a9b6adcd541423185e5f6a040663a9e6b",
    2: "d826e7a90352d1f7ddde46ab0ebe674cca2553c1d7737937c953b27f986e14b9",
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


def test_verify_document_is_unchanged(capsys):
    for seed, digest in VERIFY_SHA256.items():
        assert _stdout_sha256(capsys, ["verify", "--seed", str(seed)]) \
            == digest, f"verify --seed {seed}"
