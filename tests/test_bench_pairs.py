"""The summary of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "success_rate": "higher", "setup_s": "lower"}
PAIRS = [({"wall_s": p, "success_rate": sp}, {"wall_s": c, "success_rate": sc})
         for p, c, sp, sc in [(0.60, 0.50, 1.0, 1.0), (0.55, 0.55, 1.0, 1.0),
                              (0.65, 0.52, 1.0, 1.0), (0.60, 0.61, 0.9, 1.0)]]


def test_summary_counts_wins_without_ties():
    summary = bench_pairs.summarize(PAIRS, BETTER)
    wall, rate = summary["wall_s"], summary["success_rate"]
    assert (wall["pairs"], wall["change_wins"], wall["parent_wins"]) \
        == (4, 2, 1)
    # higher is better: only the last pair differs, and the change wins it
    assert (rate["change_wins"], rate["parent_wins"]) == (1, 0)
    # a metric neither side reported is left out
    assert "setup_s" not in summary


def test_summary_quartiles():
    summary = bench_pairs.summarize(PAIRS, BETTER)
    assert summary["wall_s"]["parent"] == pytest.approx((0.5625, 0.60,
                                                        0.6375))
    assert summary["wall_s"]["change"] == pytest.approx((0.505, 0.535,
                                                        0.5950))
    assert bench_pairs.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_summary_lines():
    lines = bench_pairs.format_summary(
        bench_pairs.summarize(PAIRS, {"wall_s": "lower"}))
    assert lines == ["wall_s: parent 0.6 (0.5625-0.6375) -> change 0.535 "
                     "(0.505-0.595); change better in 2/4, parent better "
                     "in 1/4; change/parent 0.9167 (0.8083-1.012)"]


def test_path_length_warning(tmp_path):
    for name in ("parent", "change", "changed"):
        (tmp_path / name).mkdir()
    assert bench_pairs.path_length_warning(tmp_path / "parent",
                                           tmp_path / "change") is None
    warning = bench_pairs.path_length_warning(tmp_path / "parent",
                                              tmp_path / "changed")
    assert "differ in length" in warning and "peak_rss_mb" in warning


def test_summary_ratios_are_paired():
    """The ratio statistic pairs each change run with its own parent run:
    a parent that drifts by 2x between pairs leaves every ratio at 0.9,
    while the two medians alone differ by less than their spread."""
    pairs = [({"wall_s": p}, {"wall_s": 0.9 * p})
             for p in (0.2, 0.4, 0.3, 0.35, 0.25)]
    wall = bench_pairs.summarize(pairs, {"wall_s": "lower"})["wall_s"]
    assert wall["ratio"] == pytest.approx((0.9, 0.9, 0.9))
    assert wall["change_wins"] == 5
    # ratios of the PAIRS above: 0.5/0.6, 1, 0.52/0.65, 0.61/0.6
    summary = bench_pairs.summarize(PAIRS, BETTER)
    assert summary["wall_s"]["ratio"] == pytest.approx(
        bench_pairs.quartiles([0.5 / 0.6, 1.0, 0.8, 0.61 / 0.6]))
    # a parent that read 0 gives no ratio
    zero = bench_pairs.summarize([({"x": 0.0}, {"x": 1.0})], {"x": "lower"})
    assert zero["x"]["ratio"] is None
    assert bench_pairs.format_summary(zero)[0].endswith("change/parent n/a")


def test_bytecode_cache_stops_the_run(tmp_path, capsys):
    """A src/hhkt/__pycache__ in either checkout exits 2 before any run,
    with one line naming it."""
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "hhkt").mkdir(parents=True)
    cache = tmp_path / "change" / "src" / "hhkt" / "__pycache__"
    cache.mkdir()
    argv = ["--parent", str(tmp_path / "parent"),
            "--change", str(tmp_path / "change"), "--workload", "products"]
    assert bench_pairs.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(cache) in err
