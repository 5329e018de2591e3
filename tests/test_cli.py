import hashlib
import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from hhkt.bigraded import DegreeWindow
from hhkt.cli import (ProductRows, build_parser, json_text, load_job, main,
                      product_table_from_ring)
from hhkt.fields import ComplexViolationError, SparseMatrix
from hhkt.koszul_tate import UnsupportedDiagonalError, hh_via_kt

from .helpers import polynomial, two_spheres_deg3

PRESENTATIONS = {
    "ext2_deg5": {
        "characteristic": 2,
        "generators": [{"name": "y1", "degree": 5, "kind": "exterior"},
                       {"name": "y2", "degree": 5, "kind": "exterior"}],
        "relations": [],
        "window": {"max_filtration": 3, "q_min": -18, "q_max": 10},
    },
    "ground_field": {
        "characteristic": 2,
        "generators": [],
        "relations": [],
        "window": {"max_filtration": 2, "q_min": -4, "q_max": 4},
    },
    "poly_f2": {
        "characteristic": 2,
        "generators": [{"name": "x1", "degree": 2, "kind": "polynomial"}],
        "relations": [],
        "window": {"max_filtration": 3, "q_min": -8, "q_max": 8},
    },
    "mixed_f3": {
        "characteristic": 3,
        "generators": [{"name": "y1", "degree": 3, "kind": "exterior"},
                       {"name": "x1", "degree": 2, "kind": "polynomial"}],
        "relations": ["x1^3"],
        "window": {"max_filtration": 3, "q_min": -14, "q_max": 14},
    },
    "not_regular": {
        "characteristic": 2,
        "generators": [{"name": "x1", "degree": 2, "kind": "polynomial"},
                       {"name": "x2", "degree": 2, "kind": "polynomial"}],
        "relations": ["x1*x2", "x1^2*x2"],
        "window": {"max_filtration": 2, "q_min": -6, "q_max": 6},
    },
    # Poincare duality algebras whose HH has no monomial generator model:
    # the Hom differential does not vanish, or the relations are not pure
    # powers
    "square_zero_f3": {
        "characteristic": 3,
        "generators": [{"name": "x1", "degree": 2, "kind": "polynomial"}],
        "relations": ["x1^2"],
        "window": {"max_filtration": 4, "q_min": -12, "q_max": 2},
    },
    "sum_of_squares_f2": {
        "characteristic": 2,
        "generators": [{"name": "x1", "degree": 2, "kind": "polynomial"},
                       {"name": "x2", "degree": 2, "kind": "polynomial"}],
        "relations": ["x1^2 + x2^2", "x2^2"],
        "window": {"max_filtration": 2, "q_min": -8, "q_max": 4},
    },
    # degree 1 over F_2: the circle, and two truncated polynomial rings
    "circle": {
        "characteristic": 2,
        "generators": [{"name": "y1", "degree": 1, "kind": "exterior"}],
        "relations": [],
    },
    "x1_squared_deg1": {
        "characteristic": 2,
        "generators": [{"name": "x1", "degree": 1, "kind": "polynomial"}],
        "relations": ["x1^2"],
    },
    "x1_quartic_deg1": {
        "characteristic": 2,
        "generators": [{"name": "x1", "degree": 1, "kind": "polynomial"}],
        "relations": ["x1^4"],
    },
}


def write(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(PRESENTATIONS[name]))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_json_output(tmp_path, capsys):
    code, out = run(capsys, ["compute", "--input",
                             write(tmp_path, "ext2_deg5")])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["characteristic"] == 2
    dims = {(r["p"], r["q"]): r["dim"] for r in doc["hh_table"]}
    assert dims[(0, 0)] == 1
    assert dims[(1, -5)] == 2
    assert dims[(2, -10)] == 3
    assert doc["certificate"]["status"] == "collapse"
    assert doc["product_table"]


def test_compute_ground_field(tmp_path, capsys):
    code, out = run(capsys, ["compute", "--input",
                             write(tmp_path, "ground_field")])
    assert code == 0
    doc = json.loads(out)
    assert doc["hh_table"] == [{"p": 0, "q": 0, "dim": 1, "basis": ["1"]}]


def test_compute_rejects_non_regular_sequence(tmp_path, capsys):
    code = main(["compute", "--input", write(tmp_path, "not_regular")])
    assert code == 1


def test_window_flag_overrides(tmp_path, capsys):
    code, out = run(capsys, ["compute", "--input",
                             write(tmp_path, "ext2_deg5"),
                             "--max-p", "1", "--q-min", "-6",
                             "--q-max", "6"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["p"] <= 1 and -6 <= r["q"] <= 6 for r in doc["hh_table"])


def test_oracle_agreement_and_exit_code(tmp_path, capsys):
    code, out = run(capsys, ["oracle", "--input",
                             write(tmp_path, "ext2_deg5"), "--max-p", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_report"]["agree"] is True
    assert doc["oracle_report"]["mismatches"] == []


def test_oracle_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # force a lying resolution side to exercise the mismatch exit path
    import hhkt.koszul_tate as kt_mod

    real = kt_mod.hh_via_kt

    def lying(A, window):
        ring = real(A, window)
        ring.cells[(0, 0)] = []
        return ring

    monkeypatch.setattr(kt_mod, "hh_via_kt", lying)
    code, out = run(capsys, ["oracle", "--input",
                             write(tmp_path, "ext2_deg5"), "--max-p", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["oracle_report"]["mismatches"]


def test_oracle_needs_no_bar_homology_basis(tmp_path, capsys, monkeypatch):
    """The oracle reads bar-side dimensions from ranks alone: with the
    full homology basis unavailable it writes the same document."""
    import hhkt.bar as bar_mod

    argv = ["oracle", "--input", write(tmp_path, "mixed_f3"), "--max-p", "2"]
    code, expected = run(capsys, argv)

    def refused(self, p, q):
        raise AssertionError("bar homology basis built")

    monkeypatch.setattr(bar_mod.BarComplex, "homology", refused)
    assert run(capsys, argv) == (code, expected)
    assert code == 0


def test_oracle_corrupted_bar_matrix_exit_code(tmp_path, capsys,
                                               monkeypatch):
    """One wrong entry in a bar coboundary matrix breaks d^2 = 0, and the
    rank-only oracle still refuses it."""
    import hhkt.bar as bar_mod

    real = bar_mod.BarComplex._matrix

    def corrupted(self, p, q):
        M = real(self, p, q)
        if (p, q) != (1, -5):
            return M
        entries = dict(M.entries)
        entries[(0, 0)] = entries.get((0, 0), 0) + 1
        return SparseMatrix(M.rows, M.cols, entries, M.field)

    monkeypatch.setattr(bar_mod.BarComplex, "_matrix", corrupted)
    code = main(["oracle", "--input", write(tmp_path, "ext2_deg5"),
                 "--max-p", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: composite "
                            "differential is nonzero: d^2 != 0\n")


def test_input_hash_is_sha256_of_the_document(tmp_path):
    path = write(tmp_path, "ext2_deg5")
    args = build_parser().parse_args(["compute", "--input", path])
    doc = PRESENTATIONS["ext2_deg5"]
    assert load_job(args)[2] == hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="no built-in _sha256 module")
def test_cli_import_leaves_openssl_unloaded():
    import hhkt
    src = str(pathlib.Path(hhkt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hhkt.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


def test_bv_requires_poincare_duality(tmp_path, capsys):
    code = main(["bv", "--input", write(tmp_path, "poly_f2")])
    assert code == 1


@pytest.mark.parametrize("name, reason", [
    ("square_zero_f3", "differential does not vanish"),
    ("sum_of_squares_f2", "not pure powers"),
])
def test_bv_without_generator_model_is_an_input_error(tmp_path, capsys,
                                                      name, reason):
    # an empty BV table would be a silently empty result
    code = main(["bv", "--input", write(tmp_path, name)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1


def test_bv_deg5_table(tmp_path, capsys):
    code, out = run(capsys, ["bv", "--input", write(tmp_path, "ext2_deg5")])
    assert code == 0
    doc = json.loads(out)
    rows = {r["class"]: r for r in doc["bv_table"]}
    assert rows["y1.nu_y1*"]["delta_gr"] == [["1", 1]]
    assert rows["y1.nu_y1*"]["status"] == "determined"
    assert rows["y1.nu_y2*"]["delta_gr"] == []
    assert all(r["status"] == "determined" for r in doc["bv_table"])
    assert doc["bv_identity_sweep"]["failures"] == []
    exts = {(r["a"], r["b"]): r for r in doc["extension_report"]}
    assert exts[("y1", "y1")]["value"] == []
    assert exts[("y1", "y1")]["status"] == "determined"


def test_compute_deterministic(tmp_path, capsys):
    path = write(tmp_path, "ext2_deg5")
    _, out1 = run(capsys, ["compute", "--input", path])
    _, out2 = run(capsys, ["compute", "--input", path])
    assert out1 == out2


def test_verify_deterministic(capsys):
    code1 = main(["verify", "--seed", "9"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--seed", "9"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_fault_injection(capsys, monkeypatch):
    # one zeta coefficient off by one fails the construction's own
    # verification; only the zeta check builds zeta coefficients
    import hhkt.algebra as algebra_mod
    import hhkt.verify as verify_mod

    def corrupted(rho):
        zetas = algebra_mod.zeta_coefficients(rho)
        j = next(j for j, z in enumerate(zetas) if z.terms)
        key, c = next(iter(zetas[j].terms.items()))
        zetas[j] = algebra_mod.TensorPoly(rho.algebra,
                                          {**zetas[j].terms, key: c + 1})
        algebra_mod._verify_zeta(rho, zetas)
        return zetas
    monkeypatch.setattr(verify_mod, "zeta_coefficients", corrupted)
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 3
    doc = json.loads(out)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["name"] == "zeta_conditions_on_random_relations"
    assert failed[0]["witness"].startswith("zeta construction failed on ")


def test_text_format(tmp_path, capsys):
    code, out = run(capsys, ["compute", "--input",
                             write(tmp_path, "ext2_deg5"),
                             "--format", "text"])
    assert code == 0
    assert "HH cells" in out and "collapse" in out


def _with(base, **changes):
    doc = json.loads(json.dumps(PRESENTATIONS[base]))
    doc.update(changes)
    return doc


MALFORMED = {
    "generator_without_degree": _with(
        "ext2_deg5", generators=[{"name": "y1", "kind": "exterior"}]),
    "generators_not_a_list": _with("ext2_deg5", generators="y1"),
    "characteristic_not_an_integer": _with("ext2_deg5", characteristic=2.5),
    "window_bound_not_an_integer": _with(
        "ext2_deg5", window={"max_filtration": 2, "q_min": "a", "q_max": 4}),
    "window_bound_boolean": _with(
        "ext2_deg5", window={"max_filtration": True, "q_min": -4,
                             "q_max": 4}),
    "relation_with_trailing_operator": _with("poly_f2", relations=["x1^2 +"]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_presentation_is_an_input_error(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code = main(["compute", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 1), (10 ** 9 + 7, 0)])
def test_characteristic_is_checked_promptly(tmp_path, p, code):
    """A characteristic of 2^31 or more is refused before its primality
    check, which would divide by every d up to sqrt(p); 10^9 + 7 is still
    accepted.  The command runs in a process of its own, so a check that
    hangs fails at the timeout."""
    import hhkt
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_with("poly_f2", characteristic=p)))
    proc = subprocess.run(
        [sys.executable, "-m", "hhkt.cli", "compute", "--input", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(
            pathlib.Path(hhkt.__file__).resolve().parents[1])})
    assert proc.returncode == code
    if code:
        assert proc.stderr == (f"input error: characteristic {p} is too "
                               f"large (at most 2^31 - 1)\n")
    else:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["metadata"]["characteristic"] == p


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not_utf8":
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
    assert main(["compute", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error, code", [
    (ComplexViolationError("composite differential is nonzero", 0, (1,)), 3),
    (UnsupportedDiagonalError("no diagonal correction within the window"),
     1),
])
def test_library_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch,
                                          error, code):
    import hhkt.koszul_tate as kt_mod

    def failing(A, window):
        raise error

    monkeypatch.setattr(kt_mod, "hh_via_kt", failing)
    assert main(["compute", "--input", write(tmp_path, "ext2_deg5")]) == code
    err = capsys.readouterr().err
    assert str(error) in err
    assert err.count("\n") == 1


def test_connes_failure_is_internal(tmp_path, capsys, monkeypatch):
    # a Connes boundary with every rotation signed +1, dualised on a dual
    # cocycle of this odd-characteristic input, gives a non-cocycle, which
    # is a bug, not bad input
    import hhkt.bar as bar_mod
    import hhkt.bv as bv_mod

    def unsigned(c):
        unit = c.A.unit_monomial()
        out = {}
        for (a0, word), coeff in c.terms.items():
            if a0 != unit:
                entries = (a0,) + word
                for i in range(len(entries)):
                    key = (unit, entries[i:] + entries[:i])
                    out[key] = out.get(key, 0) + coeff
        return bar_mod.ChainElement(c.A, out)
    monkeypatch.setattr(bv_mod, "connes_boundary", unsigned)
    code = main(["bv", "--input", write(tmp_path, "mixed_f3")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("internal consistency failure: Connes image of a cycle "
                   "is not a cycle class in the window\n")


def test_bv_reduces_no_hochschild_chain_homology(capsys, monkeypatch):
    # a chain complex is a cell complex whose differential lowers degree
    from hhkt.fields import CellComplex

    def refusing(method):
        def run(self, d, w):
            if self.step == -1:
                raise AssertionError(f"chain homology reduced at ({d},{w})")
            return method(self, d, w)
        return run
    for name in ("homology", "homology_dim"):
        monkeypatch.setattr(CellComplex, name,
                            refusing(getattr(CellComplex, name)))
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "presentations" / "ext2_deg5_char2.json"
    code, _ = run(capsys, ["bv", "--input", str(path)])
    assert code == 0


def test_bv_odd_characteristic_two_generators(tmp_path, capsys):
    """/\\(y1) (x) F_3[x1]/(x1^3) passes the seven-term sweep: the Connes
    signs hold when an entry has even degree."""
    code, out = run(capsys, ["bv", "--input", write(tmp_path, "mixed_f3")])
    assert code == 0
    sweep = json.loads(out)["bv_identity_sweep"]
    assert (sweep["checked"], sweep["failures"]) == (23, [])


@pytest.mark.parametrize("name, symbol", [("circle", "nu_y1*"),
                                          ("x1_squared_deg1", "w_0*")])
def test_bv_with_unbounded_extension_problems_is_an_input_error(
        tmp_path, capsys, name, symbol):
    """A resolution generator of total degree 0 leaves the ambiguity bases
    of the extension problems without a bound: one line, exit 1."""
    code = main(["bv", "--input", write(tmp_path, name)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {symbol} has total "
                                   f"degree 0")
    assert captured.err.count("\n") == 1


def test_bv_square_zero_u_of_total_degree_0(tmp_path, capsys):
    """In F_2[x1]/(x1^4), |x1| = 1, u_x1* has total degree 0, but it is
    square-zero, so the extension problems stay bounded."""
    code, out = run(capsys, ["bv", "--input",
                             write(tmp_path, "x1_quartic_deg1")])
    assert code == 0
    doc = json.loads(out)
    assert doc["bv_identity_sweep"]["failures"] == []
    assert doc["bv_identity_sweep"]["checked"] > 0


def test_cli_import_leaves_numpy_unloaded():
    import hhkt
    src = str(pathlib.Path(hhkt.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hhkt.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


TRACE_TARGETS_CHECK = """
import importlib.util, sys
import hhkt.cli
spec = importlib.util.spec_from_file_location("child", sys.argv[1])
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
for module, qualname, *_ in child.TARGETS:
    owner = sys.modules.get(f"hhkt.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if not callable(getattr(owner, attr, None)):
        print(child.span_name(module, qualname))
"""


def test_benchmark_trace_targets_resolve_after_cli_import():
    """The benchmark wraps only functions of modules already imported when
    its tracer installs, and does not report a target it cannot find; this
    repeats its lookup in a fresh process after `import hhkt.cli`.  The
    allowed names are targets the benchmark still lists for code that is
    gone."""
    import hhkt
    root = pathlib.Path(hhkt.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_TARGETS_CHECK,
         str(root / "perfbench" / "child.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    missing = set(proc.stdout.split())
    assert missing <= {"fields._rref_dense", "bar.ChainComplexCells.b_matrix",
                       "bar.ChainComplexCells.homology",
                       "bar.ChainComplexCells.connes_matrix_on_homology",
                       "bar.cochain_differential",
                       "bv.BVContext.pairing_matrix",
                       "bv.BVContext.translate_matrix",
                       "bv.BVContext.theta_matrix",
                       "bv.BVContext.kt_to_bar_cochain",
                       "fields.rank_kernel_image"}


def _reference_product_rows(ring):
    """Every label pair in combinations_with_replacement order, kept when
    its summed bidegree is in the window."""
    labels = [lbl for _, lbls in sorted(ring.cells.items()) for lbl in lbls]
    rows = []
    for la, lb in itertools.combinations_with_replacement(labels, 2):
        (pa, qa), (pb, qb) = ring.bidegree(la), ring.bidegree(lb)
        if ring.window.contains(pa + pb, qa + qb):
            rows.append({"a": ring.label_str(la), "b": ring.label_str(lb),
                         "value": sorted([ring.label_str(lc), c] for lc, c
                                         in ring.product(la, lb).items())})
    return rows, len(labels)


@pytest.mark.parametrize("presentation, window, monomial_model", [
    (two_spheres_deg3(), DegreeWindow(2, -6, 6), True),
    (polynomial(2, [2, 2], ["x1^2 + x1*x2"]), DegreeWindow(2, -6, 6), False),
])
def test_product_table_walks_pairs_in_reference_order(presentation, window,
                                                      monomial_model):
    ring = hh_via_kt(presentation, window)
    assert ring.differential_vanishes == monomial_model
    rows, n = _reference_product_rows(ring)
    assert 0 < len(rows) < n * (n + 1) // 2
    table = product_table_from_ring(ring)
    assert len(table) == len(rows)
    assert list(table) == rows


PERFBENCH_INPUTS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
     / "inputs").glob("*.json"))


@pytest.mark.parametrize("path", PERFBENCH_INPUTS, ids=lambda p: p.stem)
def test_product_table_text_is_json_dumps_of_itself(path):
    """The product table's text, alone and at its indent in a document,
    is what json.dumps writes for the rows it reads back as."""
    A, window, _digest = load_job(
        build_parser().parse_args(["compute", "--input", str(path)]))
    table = product_table_from_ring(hh_via_kt(A, window))
    text = json_text(table)
    assert text == json.dumps(json.loads(text), indent=2)
    assert json.loads(text) == list(table)
    doc_text = json_text({"product_table": table})
    assert doc_text == json.dumps(json.loads(doc_text), indent=2)


JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028'),
                                 st.characters()))
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2**200, max_value=2**200)
                | st.floats(allow_nan=True, allow_infinity=True)
                | JSON_STRINGS)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=20)


@given(JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


# a set, and a top-level key that is not str
@pytest.mark.parametrize("value", [{"a": {1, 2}}, {"a": 1, 2: "b"}, {3: 4}])
def test_json_text_rejects_what_documents_never_hold(value):
    with pytest.raises(TypeError):
        json_text(value)


COEFFICIENTS = (st.integers()
                | st.integers(min_value=-2**200, max_value=2**200))
VALUES = st.lists(st.tuples(JSON_STRINGS, COEFFICIENTS).map(list),
                  max_size=3)


def _table(blocks):
    """A ProductRows table of (a, bs, values or None) blocks."""
    table = ProductRows()
    for a, bs, values in blocks:
        table.add(a, bs, values)
    return table


# blocks of rows with any labels and coefficients; values None (every row
# zero) or one value per b, some of them one shared list
PRODUCT_ROWS = st.lists(st.tuples(
    JSON_STRINGS, st.lists(JSON_STRINGS, max_size=4),
    st.none() | VALUES.flatmap(lambda shared: st.lists(
        VALUES | st.just(shared), min_size=4, max_size=4)))
    .map(lambda blk: (blk[0], blk[1], blk[2] and blk[2][:len(blk[1])])),
    max_size=4).map(_table)


@given(st.dictionaries(JSON_STRINGS, PRODUCT_ROWS, min_size=1, max_size=3))
def test_product_row_template_matches_json_dumps(doc):
    plain = {key: list(rows) for key, rows in doc.items()}
    assert json_text(doc) == json.dumps(plain, sort_keys=True, indent=2)


def test_empty_product_table_is_written_as_json_does():
    doc = {"product_table": ProductRows()}
    assert len(doc["product_table"]) == 0
    assert json_text(doc) == json.dumps({"product_table": []},
                                        sort_keys=True, indent=2)
    assert json_text(doc) == '{\n  "product_table": []\n}'


# the row template writes str labels only, as product_table_from_ring
# builds them, so the int label is refused too
@pytest.mark.parametrize("row", [
    {"a": b"y1", "b": "x", "value": []},
    {"a": "y1", "b": "x", "value": [[b"x", 1]]},
    {"a": "y1", "b": "x", "value": [["x", {1}]]},
    {"a": 1, "b": "x", "value": []},
])
def test_product_row_with_a_label_json_cannot_write_raises(row):
    table = _table([(row["a"], [row["b"]], [row["value"]])])
    with pytest.raises(TypeError):
        json_text({"product_table": table})


def test_product_table_is_uncapped():
    """Every in-window pair of basis classes gets a row, also past the
    20 000 rows the table used to stop at."""
    ring = hh_via_kt(polynomial(2, [2, 2]), DegreeWindow(4, -24, 24))
    labels = [lbl for _, lbls in sorted(ring.cells.items()) for lbl in lbls]
    in_window = 0
    for la, lb in itertools.combinations_with_replacement(labels, 2):
        (pa, qa), (pb, qb) = ring.bidegree(la), ring.bidegree(lb)
        in_window += ring.window.contains(pa + pb, qa + qb)
    assert len(product_table_from_ring(ring)) == in_window > 20000


def test_bv_sweep_skips_triples_that_leave_the_window(capsys):
    # y1 . y2 is a nonzero class at q = 6, above q_max = 4: the triples
    # with both used to end in a KeyError traceback; y_i . y_i = 0 is fine
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "presentations" / "ext2_deg3_char2.json"
    code = main(["bv", "--input", str(path), "--max-p", "2",
                 "--q-min", "-8", "--q-max", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    sweep = json.loads(captured.out)["bv_identity_sweep"]
    assert sweep["failures"] == []
    assert sweep["checked"] == 10
    assert sweep["skipped_outside_window"] == [["y1", "y2", "nu_y1*"],
                                              ["y1", "y2", "nu_y2*"]]



# the generator pairs of the extension report at q_max = 2
PAIRS_INSIDE_Q_MAX_2 = {
    "ext2_deg3_char2": [["nu_y1*", "nu_y1*"], ["nu_y1*", "nu_y2*"],
                        ["nu_y2*", "nu_y2*"]],
    "trunc_x2_deg4_char2": [["u_x1*", "u_x1*"], ["u_x1*", "w_0*"],
                            ["w_0*", "w_0*"]],
}


@pytest.mark.parametrize("name", sorted(PAIRS_INSIDE_Q_MAX_2))
def test_bv_pairs_only_the_generators_inside_the_window(capsys, name):
    # q_max = 2 is below |y_i| = 3 and |x1| = 4: a pair such as y1 . nu_y1*
    # lies inside the window while y1 does not, and multiplying it used to
    # end in exit 1 ("class y1 lies outside the window")
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "presentations" / f"{name}.json"
    code = main(["bv", "--input", str(path), "--q-max", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert [[row["a"], row["b"]] for row in doc["extension_report"]] \
        == PAIRS_INSIDE_Q_MAX_2[name]
    assert doc["bv_identity_sweep"]["checked"] > 0
    assert doc["bv_identity_sweep"]["failures"] == []

USAGE_ERRORS = {
    "bad_int": ["compute", "--input", "pres.json", "--max-p", "foo"],
    "unknown_command": ["frobnicate"],
    "no_command": [],
    "missing_input": ["compute"],
    "compute_max_bar_length": ["compute", "--input", "pres.json",
                               "--max-bar-length", "3"],
    "compute_cell_limit": ["compute", "--input", "pres.json",
                           "--cell-limit", "3"],
    "bv_max_bar_length": ["bv", "--input", "pres.json",
                          "--max-bar-length", "3"],
    "bv_cell_limit": ["bv", "--input", "pres.json", "--cell-limit", "3"],
    # --max-p caps the bar length of the oracle too
    "oracle_max_bar_length": ["oracle", "--input", "pres.json",
                              "--max-bar-length", "3"],
    # only verify samples, so only verify takes a seed
    "compute_seed": ["compute", "--input", "pres.json", "--seed", "3"],
    "oracle_seed": ["oracle", "--input", "pres.json", "--seed", "3"],
    "bv_seed": ["bv", "--input", "pres.json", "--seed", "3"],
    "verify_input": ["verify", "--input", "pres.json"],
    # verify's checks take no fault switch; the tests inject faults
    "verify_inject_zeta_fault": ["verify", "--inject-zeta-fault"],
    "bad_format": ["verify", "--format", "xml"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_is_an_input_error(capsys, name):
    assert main(USAGE_ERRORS[name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1


def test_negative_cell_limit_is_an_input_error(tmp_path, capsys):
    code = main(["oracle", "--input", write(tmp_path, "ext2_deg5"),
                 "--cell-limit", "-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "input error: --cell-limit must be >= 0\n"


def test_negative_max_p_is_an_input_error(tmp_path, capsys):
    code = main(["oracle", "--input", write(tmp_path, "ext2_deg5"),
                 "--max-p", "-1", "--cell-limit", "100000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "input error: max filtration must be >= 0\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-h"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


def test_oracle_keeps_its_bar_flags(tmp_path, capsys):
    code, out = run(capsys, ["oracle", "--input",
                             write(tmp_path, "ext2_deg5"), "--max-p", "1",
                             "--cell-limit", "100000"])
    assert code == 0
    assert json.loads(out)["metadata"]["window"]["max_filtration"] == 1


def test_bv_reports_the_lifting_depth_it_uses(capsys):
    # max_filtration 5: words of length 5 are lifted, past the default 4
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "presentations" / "trunc_x2_deg4_char2.json"
    assert main(["bv", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["xi_lifting_depth"] == 5
