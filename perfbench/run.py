#!/usr/bin/env python3
"""The hhkt benchmark: CLI commands run one at a time, each in a fresh
Python process started by this one parent process (a closed loop with one
client).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hhkt is imported from its src/ directory.
The seed shuffles the generator order of every presentation (seed 0 keeps
the files as written) and is passed to `hhkt verify --seed`.  hhkt receives
only the generated JSON files, written under .perfbench_work/ and removed
at the end.

--trace 0 repeats the workload's commands back to back until S seconds have
passed and reports the end-to-end metrics (medians over those passes).
--trace 1 runs one untraced and two traced passes and reports per-layer
metrics.  Every command's output is checked against references.json.  The
last line of standard output is one JSON object; see README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
REFERENCES = HERE / "references.json"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

# the job list of scripts/run_corpus.py, over copies of its presentations
CORPUS = ["ext1_deg3_char3", "ext2_deg3_char2", "ext2_deg5_char2",
          "mixed_ext5_trunc4_char2", "poly1_deg2_char3",
          "trunc_x2_deg4_char2"]
CORPUS_BV = {"ext2_deg5_char2", "ext2_deg3_char2", "trunc_x2_deg4_char2",
             "ext1_deg3_char3", "mixed_ext5_trunc4_char2"}

WORKLOADS = {
    "products": [("compute", "ext3_deg5_char2"),
                 ("compute", "poly2_deg2_char2")],
    "oracle": [("oracle", "poly2_rel_deg2_char2"),
               ("oracle", "mixed_ext3_trunc3_char3")],
    "corpus": [(command, name) for name in CORPUS
               for command in ("compute", "oracle", "bv")
               if command != "bv" or name in CORPUS_BV] + [("verify", None)],
}

SETUP_SAMPLES = 3        # set-up samples per run, padded by set-up-only passes
COMMAND_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 165.0   # no command may outlive this, from the run's start

# per-layer metrics: "<module>.<function>.<field>" read from the trace, or
# one of the names in DERIVED
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "hits": 3}
PER_LAYER = [
    "cli.load_job.s", "cli.regularity_gate.s",
    "cli.product_table_from_ring.self_s", "cli.emit.s", "cli.product_rows",
    "algebra.validate_regular_sequence.s",
    "algebra.AlgebraPresentation.mono_degree.calls",
    "algebra.AlgebraPresentation.mul_monomials.calls",
    "algebra.AlgebraPresentation.monomial_basis.calls",
    "koszul_tate.hh_via_kt.s", "koszul_tate.kt_d_mono.calls",
    "koszul_tate.KTRing.product.calls", "koszul_tate.KTRing.product.self_s",
    "koszul_tate.KTRing.product.hit_ratio",
    "koszul_tate.cup_via_diagonal.calls",
    "koszul_tate.cup_via_diagonal.self_s",
    "koszul_tate.cup_via_diagonal.share",
    "koszul_tate.diagonal_mono.calls", "koszul_tate.diagonal_mono.s",
    "koszul_tate.diagonal_per_product",
    "koszul_tate.XiLift.value.calls", "koszul_tate.XiLift.value.s",
    "bar.BarComplex.cell_basis.s", "bar.BarComplex.cell_basis.size",
    "bar.BarComplex.matrix.self_s", "bar.BarComplex.matrix.calls",
    "bar.BarComplex.matrix.hits", "bar.BarComplex.matrix.rows",
    "bar.BarComplex.matrix.cols", "bar.BarComplex.matrix.nnz",
    "bar.BarComplex.matrix.s", "bar.BarComplex.matrix.share",
    "bar.cochain_differential.calls", "bar.cochain_differential.self_s",
    "bar.BarComplex.homology.self_s", "bar.compute_hh_window.s",
    "bar.cochain_cup.calls", "bar.cochain_cup.s",
    "bar.ChainComplexCells.b_matrix.self_s",
    "bar.ChainComplexCells.b_matrix.nnz",
    "bar.ChainComplexCells.homology.self_s",
    "bar.ChainComplexCells.connes_matrix_on_homology.self_s",
    "fields.cohomology_cell.self_s", "fields.cohomology_cell.calls",
    "fields.rref.s", "fields.rref.calls", "fields.rref.dense_calls",
    "fields.rref.cols", "fields.rref.nnz", "fields.rref.rank",
    "fields.rank_kernel_image.self_s",
    "fields.LinearSystem.init.s", "fields.LinearSystem.init.calls",
    "fields.LinearSystem.solve.s", "fields.LinearSystem.solve.calls",
    "bv.BVContext.init.s", "bv.BVContext.translate_matrix.self_s",
    "bv.BVContext.theta_matrix.self_s", "bv.BVContext.pairing_matrix.self_s",
    "bv.BVContext.delta_matrix.self_s", "bv.BVContext.kt_to_bar_cochain.s",
    "bv.BVContext.check_bv_identity.self_s",
    "spectral.collapse_certificate.s", "spectral.resolve_bv_extension.s",
    "spectral.resolve_product_extension.s",
    "verify.run_suite.self_s",
    "trace.wall_s", "trace.overhead_s", "trace.uncovered_share",
    "trace.count_mismatches",
]


def layer_unit(name):
    field = name.rsplit(".", 1)[1]
    if field in ("s", "self_s") or field.endswith("_s"):
        return "s"
    if field.endswith(("share", "ratio", "per_product")):
        return "ratio"
    return "count"


# -- inputs and references --------------------------------------------------


def write_inputs(jobs, seed):
    """Write each presentation the jobs read, generators shuffled by seed."""
    paths = {}
    (WORK / "inputs").mkdir(parents=True)
    for name in sorted({name for _, name in jobs if name}):
        doc = json.loads((INPUTS / f"{name}.json").read_text())
        if seed:
            random.Random(f"{seed}:{name}").shuffle(doc["generators"])
        path = WORK / "inputs" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths[name] = path
    return paths


def summarize(command, doc):
    """The parts of a result document that must equal the reference; they
    do not depend on generator order."""
    if command == "compute":
        return {"hh_dims": [[r["p"], r["q"], r["dim"]]
                            for r in doc["hh_table"]],
                "product_rows": len(doc["product_table"])}
    if command == "oracle":
        rep = doc["oracle_report"]
        return {"oracle_dims": [[c["p"], c["q"], c["bar_dim"],
                                 c["resolution_dim"]] for c in rep["cells"]],
                "agree": rep["agree"]}
    if command == "bv":
        sweep = doc["bv_identity_sweep"]
        return {"bv_status": sorted(r["status"] for r in doc["bv_table"]),
                "sweep_triples": sweep["checked"],
                "sweep_failures": len(sweep["failures"])}
    return {"checks": sorted([c["name"], c["status"]]
                             for c in doc["checks"])}


def work_counts(command, summary):
    if command == "compute":
        return {"hh_cells": len(summary["hh_dims"]),
                "product_rows": summary["product_rows"]}
    if command == "oracle":
        return {"oracle_cells": len(summary["oracle_dims"])}
    if command == "bv":
        return {"bv_rows": len(summary["bv_status"]),
                "sweep_triples": summary["sweep_triples"]}
    return {"checks": len(summary["checks"])}


def invariant_failure(command, summary):
    if command == "oracle" and summary["agree"] is not True:
        return "oracle_report.agree is false"
    if command == "bv" and summary["sweep_failures"]:
        return "bv_identity_sweep.failures is not empty"
    if command == "verify" and any(s != "pass"
                                   for _, s in summary["checks"]):
        return "a verify check did not pass"
    return None


# -- running commands -------------------------------------------------------


class Command:
    """One hhkt process: its timings, exit status and checked output."""

    def __init__(self, command, name):
        self.command, self.name = command, name
        self.key = f"{command}:{name}" if name else command
        self.start = self.end = None
        self.setup_s = None
        self.rss_mb = 0.0
        self.exit = None
        self.status = "not run"   # "ok", "timeout", "exit N" or a check
        self.stdout = None
        self.work = {}
        self.digest = None
        self.trace = None

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def wall_s(self):
        return self.end - self.start


def run_command(cmd, input_path, seed, mode, index, deadline):
    """Run one command in a fresh process; fill in timings and exit."""
    tag = f"{mode}{index}.{cmd.key.replace(':', '.')}"
    report = WORK / f"{tag}.report.json"
    cmd.stdout = WORK / f"{tag}.out"
    stderr = WORK / f"{tag}.err"
    argv = [sys.executable, str(CHILD), "--report", str(report)]
    if mode == "traced":
        argv.append("--trace")
    if mode == "setup":
        argv.append("--setup-only")
    argv += ["--", cmd.command]
    if cmd.name:
        argv += ["--input", str(input_path)]
    else:
        argv += ["--seed", str(seed)]
    argv += ["--format", "json"]

    timeout = min(COMMAND_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        cmd.status = "timeout"
        return
    timed_out = []
    with open(cmd.stdout, "wb") as out, open(stderr, "wb") as err:
        cmd.start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)

    def kill(_signum, _frame):
        timed_out.append(True)
        os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted: leave no hhkt process behind
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cmd.end = time.monotonic()
    proc.returncode = cmd.exit = os.waitstatus_to_exitcode(status)
    cmd.rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        cmd.status = "timeout"
        return
    cmd.status = "ok" if cmd.exit == 0 else f"exit {cmd.exit}"
    if not cmd.ok:
        tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
        sys.stderr.write(f"{cmd.key}: exit {cmd.exit}: {' | '.join(tail)}\n")
    if report.exists():
        data = json.loads(report.read_text())
        if data["setup_end"] is not None:
            cmd.setup_s = data["setup_end"] - cmd.start
        cmd.trace = data.get("trace")
    elif cmd.ok:
        cmd.status = "no report"


def check_output(cmd, references):
    """Compare a finished command's output with its reference."""
    if not cmd.ok:
        return
    raw = cmd.stdout.read_bytes()
    cmd.digest = hashlib.sha256(raw).hexdigest()
    try:
        summary = summarize(cmd.command, json.loads(raw))
    except (ValueError, KeyError, TypeError) as err:
        cmd.status = f"unreadable output: {err!r}"
        return
    cmd.work = work_counts(cmd.command, summary)
    problem = invariant_failure(cmd.command, summary)
    if problem is None and summary != references.get(cmd.key):
        problem = "output differs from the reference"
    if problem is None and cmd.setup_s is None:
        problem = "set-up end was not reported"
    if problem:
        cmd.status = problem


def run_pass(jobs, inputs, seed, mode, index, deadline, references=None):
    """Run the jobs back to back; check outputs only after the last exit."""
    cmds = [Command(command, name) for command, name in jobs]
    for cmd in cmds:
        run_command(cmd, inputs.get(cmd.name), seed, mode, index, deadline)
    if mode != "setup":
        for cmd in cmds:
            check_output(cmd, references)
    for cmd in cmds:
        if mode != "setup" or not cmd.ok:
            print(f"{mode:8s} {index} {cmd.key:36s} {cmd.status:8s} "
                  + ("" if cmd.start is None or cmd.end is None else
                     f"wall {cmd.wall_s:8.3f} s  ")
                  + ("" if cmd.setup_s is None else
                     f"setup {cmd.setup_s:6.3f} s  ")
                  + f"rss {cmd.rss_mb:6.1f} MB  "
                  + " ".join(f"{k} {v}" for k, v in cmd.work.items()),
                  flush=True)
    return cmds


def pass_wall(cmds):
    started = [c for c in cmds if c.start is not None]
    if not started:
        return 0.0
    return started[-1].end - started[0].start


def pass_setup(cmds):
    if any(c.setup_s is None for c in cmds):
        return None
    return sum(c.setup_s for c in cmds)


# -- tracing aggregates -----------------------------------------------------


def merge_traces(cmds):
    """Sum span statistics and sizes over the commands of one pass."""
    stats, sizes, uncovered = {}, {}, 0.0
    for cmd in cmds:
        if cmd.trace is None:
            continue
        for name, values in cmd.trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, fields in cmd.trace["sizes"].items():
            acc = sizes.setdefault(name, {})
            for key, v in fields.items():
                acc[key] = acc.get(key, 0) + v
        uncovered += cmd.wall_s - cmd.trace["root_s"]
    return {"stats": stats, "sizes": sizes, "uncovered_s": uncovered,
            "wall_s": pass_wall(cmds)}


def _field(agg, span, key):
    if key in SPAN_FIELDS:
        return agg["stats"].get(span, [0, 0.0, 0.0, 0])[SPAN_FIELDS[key]]
    return agg["sizes"].get(span, {}).get(key, 0)


def _ratio(a, b):
    return a / b if b else 0.0


DERIVED = {
    "cli.product_rows": lambda agg: _field(
        agg, "cli.product_table_from_ring", "rows"),
    "fields.rref.dense_calls": lambda agg: _field(
        agg, "fields._rref_dense", "calls"),
    "koszul_tate.KTRing.product.hit_ratio": lambda agg: _ratio(
        _field(agg, "koszul_tate.KTRing.product", "hits"),
        _field(agg, "koszul_tate.KTRing.product", "calls")),
    "koszul_tate.diagonal_per_product": lambda agg: _ratio(
        _field(agg, "koszul_tate.diagonal_mono", "calls"),
        _field(agg, "koszul_tate.KTRing.product", "calls")),
    "koszul_tate.cup_via_diagonal.share": lambda agg: _ratio(
        _field(agg, "koszul_tate.cup_via_diagonal", "s"), agg["wall_s"]),
    "bar.BarComplex.matrix.share": lambda agg: _ratio(
        _field(agg, "bar.BarComplex.matrix", "s"), agg["wall_s"]),
}


def trace_value(agg, name):
    if name in DERIVED:
        return DERIVED[name](agg)
    span, key = name.rsplit(".", 1)
    return _field(agg, span, key)


def count_mismatches(a, b):
    """Number of count fields that differ between two traced passes."""
    names = set(a["stats"]) | set(b["stats"])
    zero = [0, 0.0, 0.0, 0]
    diff = sum(a["stats"].get(n, zero)[i] != b["stats"].get(n, zero)[i]
               for n in names for i in (0, 3))
    return diff + sum(a["sizes"].get(n) != b["sizes"].get(n)
                      for n in set(a["sizes"]) | set(b["sizes"]))


# -- the two kinds of run ---------------------------------------------------


def measure(jobs, inputs, seed, seconds, deadline, references):
    """End-to-end metrics: passes until `seconds` have elapsed."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(jobs, inputs, seed, "timed", len(passes),
                               deadline, references))
        elapsed = time.monotonic() - start
        if elapsed >= seconds \
                or elapsed + pass_wall(passes[-1]) * 1.5 > RUN_DEADLINE_S - 30:
            break
    setups = [pass_setup(p) for p in passes]
    probes = []
    while len(setups) < SETUP_SAMPLES:
        probe = run_pass(jobs, inputs, seed, "setup", len(probes), deadline)
        probes.append(probe)
        setups.append(pass_setup(probe))
    cmds = [c for p in passes for c in p]
    failed = sum(not c.ok for c in cmds) + sum(
        not c.ok for p in probes for c in p)
    attempted = len(cmds) + sum(len(p) for p in probes)
    walls = [pass_wall(p) for p in passes]
    rss = [max(c.rss_mb for c in p) for p in passes]
    valid_setups = [s for s in setups if s is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(valid_setups) if valid_setups else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "success_rate": (attempted - failed) / attempted,
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "success_rate": "ratio"}
    print(f"passes {len(passes)}  walls {walls}  set-up samples {setups}",
          flush=True)
    return attempted, failed, {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}


def traced(jobs, inputs, seed, deadline, references):
    """Per-layer metrics: one untraced and two traced passes."""
    plain = run_pass(jobs, inputs, seed, "untraced", 0, deadline, references)
    runs = [run_pass(jobs, inputs, seed, "traced", i, deadline, references)
            for i in range(2)]
    # tracing must not change a single byte of any result document
    for run in runs:
        for cmd, ref in zip(run, plain):
            if cmd.ok and ref.ok and cmd.digest != ref.digest:
                cmd.status = "traced output differs from untraced output"
    aggs = [merge_traces(run) for run in runs]
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        both = [trace_value(agg, name) for agg in aggs]
        unit = layer_unit(name)
        values[name] = statistics.mean(both) if unit in ("s", "ratio") \
            else both[0]
    traced_wall = statistics.mean(agg["wall_s"] for agg in aggs)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - pass_wall(plain)
    values["trace.uncovered_share"] = statistics.mean(
        _ratio(agg["uncovered_s"], agg["wall_s"]) for agg in aggs)
    values["trace.count_mismatches"] = count_mismatches(*aggs)
    missing = sorted({m for run in runs for c in run if c.trace is not None
                      for m in c.trace.get("missing", [])})
    if missing:
        print(f"trace targets not found: {missing}", flush=True)
    cmds = plain + [c for run in runs for c in run]
    failed = sum(not c.ok for c in cmds)
    correct = values["trace.count_mismatches"] == 0
    return len(cmds), failed, correct, {
        name: {"value": values[name], "unit": layer_unit(name)}
        for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hhkt" / "cli.py").is_file():
        sys.stderr.write(f"no hhkt sources under {ROOT / 'src'}; run from "
                         f"the root of an hhkt checkout\n")
        return 2
    references = json.loads(REFERENCES.read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        inputs = write_inputs(jobs, args.seed)
        # one set-up-only launch first, so byte-code and file caches are warm
        run_pass(jobs[:1], inputs, args.seed, "setup", "warm", deadline)
        if args.trace:
            attempted, failed, correct, metrics = traced(
                jobs, inputs, args.seed, deadline, references)
        else:
            attempted, failed, metrics = measure(
                jobs, inputs, args.seed, args.seconds, deadline, references)
            correct = True
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
