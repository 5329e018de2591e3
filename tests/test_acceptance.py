"""Acceptance criteria, one test per criterion.

Criteria that name a CLI command are exercised through the CLI (arguments
in, JSON documents out); every comparison is exact, and expected tables are
enumerated independently inside this module, never read back from the code
under test.  Each criterion prints its own pass/fail line and enforces its
runtime bound.
"""

import itertools
import json
import time

from hhkt.bigraded import DegreeWindow
from hhkt.bv import BVContext
from hhkt.cli import main
from hhkt.koszul_tate import hh_via_kt
from hhkt.spectral import collapse_certificate, resolve_bv_extension
from hhkt.verify import run_suite

from .helpers import exterior
from .reference import ExplicitBigradedRing


def _report(number, name, started, bound):
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"criterion {number} exceeded {bound}s " \
        f"({elapsed:.1f}s)"
    print(f"PASS criterion {number}: {name} ({elapsed:.1f}s)")


def _write_presentation(tmp_path, name, p, gens, rels=()):
    doc = {"characteristic": p,
           "generators": [{"name": n, "degree": d, "kind": k}
                          for (n, d, k) in gens],
           "relations": list(rels)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_criterion_1_polynomial_rings(tmp_path, capsys):
    """cmd_compute on polynomial algebras matches K[x] (x) /\\(u*)."""
    started = time.monotonic()
    cases = [(1, 2, [2]), (1, 3, [2]), (1, 5, [4]), (2, 2, [2, 2]),
             (2, 3, [4, 4])]
    window = DegreeWindow(4, -24, 24)
    for n, p, degs in cases:
        case_start = time.monotonic()
        path = _write_presentation(
            tmp_path, f"poly_{n}_{p}", p,
            [(f"x{j+1}", d, "polynomial") for j, d in enumerate(degs)])
        code, doc = _run_cli(capsys, [
            "compute", "--input", path, "--max-p", "4",
            "--q-min", "-24", "--q-max", "24"])
        assert code == 0
        got = {(r["p"], r["q"]): r["dim"] for r in doc["hh_table"]}
        expected = {}
        for mask in range(1 << n):
            filt = bin(mask).count("1")
            drop = sum(d for j, d in enumerate(degs) if (mask >> j) & 1)

            def rec(j, acc):
                if j == n:
                    q = acc - drop
                    if window.contains(filt, q):
                        expected[(filt, q)] = expected.get((filt, q), 0) + 1
                    return
                e = 0
                while acc + e * degs[j] <= window.q_max + sum(degs):
                    rec(j + 1, acc + e * degs[j])
                    e += 1

            rec(0, 0)
        assert got == expected, (n, p, degs)
        assert time.monotonic() - case_start < 10
    _report(1, "polynomial algebra cells match the closed form", started, 60)


def _parse_label(label):
    """(frozen set of exterior names, {nu name: exp}) from a class label."""
    mask = frozenset()
    nu = {}
    if label == "1":
        return mask, nu
    for part in label.split("."):
        if part.startswith("nu_"):
            if "^" in part:
                head, exp = part.split("^")
            else:
                head, exp = part, 1
            nu[head] = int(exp)
        else:
            mask = mask | frozenset(part.split("*"))
    return mask, dict(sorted(nu.items()))


def _expected_label(mask, nu):
    parts = []
    if mask:
        parts.append("*".join(sorted(mask)))
    for name, e in sorted(nu.items()):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return ".".join(parts) if parts else "1"


def test_criterion_2_exterior_ring_and_products(tmp_path, capsys):
    """cmd_compute: exterior deg-5 char-2 dims and full product table."""
    started = time.monotonic()
    degs = [5, 5]
    window = DegreeWindow(5, -25, 10)
    path = _write_presentation(
        tmp_path, "ext5", 2,
        [("y1", 5, "exterior"), ("y2", 5, "exterior")])
    code, doc = _run_cli(capsys, [
        "compute", "--input", path, "--max-p", "5",
        "--q-min", "-25", "--q-max", "10"])
    assert code == 0
    got = {(r["p"], r["q"]): r["dim"] for r in doc["hh_table"]}
    expected = {}
    for mask in range(4):
        base = sum(d for i, d in enumerate(degs) if (mask >> i) & 1)
        for e1 in range(6):
            for e2 in range(6):
                p, q = e1 + e2, base - 5 * (e1 + e2)
                if window.contains(p, q):
                    expected[(p, q)] = expected.get((p, q), 0) + 1
    assert got == expected

    # product table: (y^S nu^e)(y^T nu^f) = [S disjoint T] y^{S u T} nu^{e+f}
    assert doc["product_table"]
    checked = 0
    for row in doc["product_table"]:
        ma, na = _parse_label(row["a"])
        mb, nb = _parse_label(row["b"])
        if ma & mb:
            assert row["value"] == [], row
        else:
            nu = dict(na)
            for k, v in nb.items():
                nu[k] = nu.get(k, 0) + v
            assert row["value"] == [[_expected_label(ma | mb, nu), 1]], row
        checked += 1
    assert checked > 500
    _report(2, "exterior ring dims and product table", started, 10)


def test_criterion_3_oracle_equivalence(tmp_path, capsys):
    """cmd_oracle agrees with cmd_compute cell by cell."""
    started = time.monotonic()
    jobs = [
        (_write_presentation(tmp_path, "o1", 2,
                             [("y1", 5, "exterior"), ("y2", 5, "exterior")]),
         ["--max-p", "5", "--q-min", "-25", "--q-max", "10"]),
        (_write_presentation(tmp_path, "o2", 3, [("y1", 3, "exterior")]),
         ["--max-p", "6", "--q-min", "-20", "--q-max", "4"]),
        (_write_presentation(tmp_path, "o3", 2,
                             [("x1", 4, "polynomial")], ["x1^2"]),
         ["--max-p", "5", "--q-min", "-24", "--q-max", "6"]),
    ]
    for path, flags in jobs:
        code, doc = _run_cli(capsys, ["oracle", "--input", path] + flags)
        assert code == 0, path
        rep = doc["oracle_report"]
        assert rep["agree"] is True and rep["mismatches"] == []
        assert all(r["bar_dim"] == r["resolution_dim"] for r in rep["cells"])
    _report(3, "oracle equivalence on the three stated cases", started, 120)


def test_criterion_4_bv_table(tmp_path, capsys):
    """cmd_bv: full deg-5 table determined; deg-3 ambiguity with the exact
    basis."""
    started = time.monotonic()
    path5 = _write_presentation(
        tmp_path, "bv5", 2,
        [("y1", 5, "exterior"), ("y2", 5, "exterior")])
    code, doc = _run_cli(capsys, [
        "bv", "--input", path5, "--max-p", "3",
        "--q-min", "-22", "--q-max", "12"])
    assert code == 0
    rows = {r["class"]: r for r in doc["bv_table"]}
    for i, j in itertools.product((1, 2), repeat=2):
        row = rows[f"y{j}.nu_y{i}*"]
        assert row["status"] == "determined"
        assert row["delta_gr"] == ([["1", 1]] if i == j else []), (i, j)
    for cls in ("nu_y1*", "nu_y2*", "nu_y1*^2", "nu_y1*.nu_y2*", "nu_y2*^2",
                "y1", "y2", "y1*y2"):
        assert rows[cls]["status"] == "determined"
        assert rows[cls]["delta_gr"] == []
    exts = {(r["a"], r["b"]): r for r in doc["extension_report"]}
    for i in (1, 2):
        row = exts[(f"y{i}", f"y{i}")]
        assert row["status"] == "determined" and row["value"] == []
    assert doc["bv_identity_sweep"]["failures"] == []

    path3 = _write_presentation(
        tmp_path, "bv3", 2,
        [("y1", 3, "exterior"), ("y2", 3, "exterior")])
    code, doc3 = _run_cli(capsys, [
        "bv", "--input", path3, "--max-p", "3",
        "--q-min", "-14", "--q-max", "8"])
    assert code == 0
    rows3 = {r["class"]: r for r in doc3["bv_table"]}
    expected_basis = sorted(
        _expected_label(frozenset(("y1", "y2")),
                        {"nu_y1*": l, "nu_y2*": 3 - l})
        for l in range(4))
    for i, j in itertools.product((1, 2), repeat=2):
        row = rows3[f"y{j}.nu_y{i}*"]
        assert row["status"] == "ambiguous", (i, j)
        assert sorted(row["ambiguity_basis"]) == expected_basis, (i, j)
        assert row["delta_gr"] == ([["1", 1]] if i == j else [])
    _report(4, "BV tables: deg-5 determined, deg-3 ambiguous", started, 60)


def _bv_data(degs, window):
    A = exterior(2, degs)
    ctx = BVContext(A, window)
    ring = ctx.ring
    gens = ring.generators
    labels = []
    for g in gens:
        labels.append(ring.label_from_exponents({g: 1}))
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        exps = {g1: 1}
        exps[g2] = exps.get(g2, 0) + 1
        lbl = ring.label_from_exponents(exps)
        if lbl is None:  # a square of an exterior generator
            continue
        if ring.window.contains(*ring.bidegree(lbl)) and lbl not in labels:
            if lbl in ring.cells.get(ring.bidegree(lbl), []):
                labels.append(lbl)
    delta = {lbl: ctx.delta_of_label(lbl) for lbl in labels}
    return ctx, ring, labels, delta


def test_criterion_5_direct_vs_solver():
    """The operator computed through the duality composite equals every
    solver-determined value on generator monomials of total degree
    >= -2n + 2."""
    started = time.monotonic()
    n = 5
    window = DegreeWindow(3, -22, 12)
    ctx, ring, labels, delta = _bv_data([n, n], window)
    floor = -2 * n + 2
    compared = 0
    for lbl in labels:
        if ring.total_degree(lbl) < floor:
            continue
        res = resolve_bv_extension(ring, delta, lbl)
        if res.status != "determined":
            continue
        assert res.value == delta[lbl], ring.label_str(lbl)
        compared += 1
    assert compared >= 12
    _report(5, "direct and solver operators agree", started, 60)


def test_criterion_6_invariant_suites():
    started = time.monotonic()
    report = run_suite(seed=0)
    failures = [c for c in report if c["status"] != "pass"]
    assert not failures, failures
    _report(6, f"invariant suite ({len(report)} checks)", started, 300)


def test_criterion_7_collapse_certificates():
    started = time.monotonic()
    corpus = [
        hh_via_kt(exterior(2, [5, 5]), DegreeWindow(4, -22, 12)),
        hh_via_kt(exterior(2, [3, 3]), DegreeWindow(4, -14, 8)),
        hh_via_kt(exterior(3, [3]), DegreeWindow(4, -13, 4)),
    ]
    for ring in corpus:
        cert = collapse_certificate(ring)
        assert cert.status == "collapse", cert.detail
    bad = ExplicitBigradedRing({(0, 0): ["a"], (2, -1): ["b"]})
    cert = collapse_certificate(bad)
    assert cert.status == "obstructed"
    assert [(d.r, d.source, d.target)
            for d in cert.potential_differentials] == [(2, (0, 0), (2, -1))]
    _report(7, "collapse certificates issued and declined correctly",
            started, 60)
