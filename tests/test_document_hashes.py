"""The document list and the comparison of scripts/document_hashes.py,
without running the documents."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "document_hashes", ROOT / "scripts" / "document_hashes.py")
document_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(document_hashes)


def test_every_input_command_format_and_seed_is_listed():
    docs = document_hashes.documents()
    inputs = [path for directory in document_hashes.INPUT_DIRS
              for path in directory.glob("*.json")]
    assert len(inputs) == 16
    assert len(docs) == 16 * 3 * 2 + 3 * 2 == 102
    assert docs["presentations/ext2_deg5_char2.bv.text"] == [
        "bv", "--input",
        str(ROOT / "scripts" / "presentations" / "ext2_deg5_char2.json"),
        "--format", "text"]
    assert docs["verify.seed2.json"] == ["verify", "--seed", "2",
                                         "--format", "json"]


def test_hash_covers_exit_code_stdout_and_stderr():
    base = document_hashes.document_hash(0, b"out", b"")
    assert len({base, document_hashes.document_hash(1, b"out", b""),
                document_hashes.document_hash(0, b"out2", b""),
                document_hashes.document_hash(0, b"out", b"err"),
                document_hashes.document_hash(0, b"", b"out")}) == 5


def test_differing_names_include_one_sided_ones():
    recorded = {"a": "1", "b": "2", "c": "3"}
    assert document_hashes.differing(recorded, dict(recorded)) == []
    assert document_hashes.differing(recorded, {"a": "1", "b": "x",
                                                "d": "4"}) == ["b", "c", "d"]
