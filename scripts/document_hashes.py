#!/usr/bin/env python3
"""Hash every result document of a checkout, to show a change leaves
them byte-identical.

The documents are `compute`, `oracle` and `bv` in json and text on every
input of perfbench/inputs/ and scripts/presentations/, plus
`verify --seed 0`, `1` and `2` in both formats: 102 in all.  Each runs in
a fresh process with CHECKOUT/src on PYTHONPATH (and bytecode writing off,
so the checkout gains no __pycache__), on the input files of the checkout
that holds this script, so two checkouts are hashed on the same inputs.  A
document's hash is the sha256 of its exit code, then the sha256 digests
of its stdout and its stderr: a command that exits 1 on an input (`bv`
on an algebra without Poincare duality) is pinned too.

Usage:
    python3 scripts/document_hashes.py CHECKOUT > hashes.json
    python3 scripts/document_hashes.py CHECKOUT --compare hashes.json

Without --compare it prints {name: hash} as JSON.  With it, it prints the
names whose hash differs from the file's (or that only one side has), one
per line, then a count on stderr, and exits 1 if any differ.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUT_DIRS = (ROOT / "perfbench" / "inputs", ROOT / "scripts" / "presentations")
FORMATS = ("json", "text")
SEEDS = (0, 1, 2)
WORKERS = 2  # processes at a time


def documents():
    """{name: CLI arguments} for every document, in a fixed order."""
    docs = {}
    for directory in INPUT_DIRS:
        for path in sorted(directory.glob("*.json")):
            for command in ("compute", "oracle", "bv"):
                for fmt in FORMATS:
                    name = f"{directory.name}/{path.stem}.{command}.{fmt}"
                    docs[name] = [command, "--input", str(path),
                                  "--format", fmt]
    for seed in SEEDS:
        for fmt in FORMATS:
            docs[f"verify.seed{seed}.{fmt}"] = ["verify", "--seed", str(seed),
                                                "--format", fmt]
    return docs


def document_hash(returncode, stdout, stderr):
    h = hashlib.sha256(f"{returncode}\n".encode())
    h.update(hashlib.sha256(stdout).digest())
    h.update(hashlib.sha256(stderr).digest())
    return h.hexdigest()


def run_document(checkout, argv):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "hhkt.cli"] + argv,
                          cwd=checkout, env=env, capture_output=True)
    return document_hash(proc.returncode, proc.stdout, proc.stderr)


def hash_documents(checkout):
    docs = documents()
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        hashes = pool.map(lambda argv: run_document(checkout, argv),
                          docs.values())
        return dict(zip(docs, hashes))


def differing(recorded, hashes):
    """The names whose hash differs between the two {name: hash} maps, or
    that only one of them has, sorted."""
    return sorted(name for name in set(recorded) | set(hashes)
                  if recorded.get(name) != hashes.get(name))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sha256 of every result document of a checkout")
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--compare", type=Path, metavar="FILE",
                        help="a JSON file printed by an earlier run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "hhkt").is_dir():
        parser.error(f"{checkout} holds no src/hhkt")
    hashes = hash_documents(checkout)
    if args.compare is None:
        print(json.dumps(hashes, sort_keys=True, indent=2))
        return 0
    names = differing(json.loads(args.compare.read_text()), hashes)
    for name in names:
        print(name)
    print(f"{len(names)} of {len(hashes)} documents differ", file=sys.stderr)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
