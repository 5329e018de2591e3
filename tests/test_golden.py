"""Result documents are byte-identical to the recorded ones.

Pins the sha256 of the `compute` document of every presentation in
scripts/presentations/ and of `verify --seed 0`.  A change that is meant to
alter results must re-record these hashes and say why.
"""

import hashlib
import pathlib

import pytest

from hhkt.cli import main

PRESENTATIONS = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
    / "presentations"

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

VERIFY_SEED0_SHA256 = \
    "16d1c0e9d89e3f18c5a79b4fce179fce336fb46dec1f17bcff1d42a2ad3a0a86"


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_presentation_is_pinned():
    assert sorted(p.stem for p in PRESENTATIONS.glob("*.json")) \
        == sorted(COMPUTE_SHA256)


@pytest.mark.parametrize("name", sorted(COMPUTE_SHA256))
def test_compute_document_is_unchanged(capsys, name):
    path = PRESENTATIONS / f"{name}.json"
    assert _stdout_sha256(capsys, ["compute", "--input", str(path)]) \
        == COMPUTE_SHA256[name]


def test_verify_document_is_unchanged(capsys):
    assert _stdout_sha256(capsys, ["verify", "--seed", "0"]) \
        == VERIFY_SEED0_SHA256
