#!/usr/bin/env python3
"""Run one hhkt CLI command in this process, as `python3 -m hhkt.cli` does,
and write its set-up time (and, with --trace, per-function spans) to a file.

Usage:
    python3 perfbench/child.py --report FILE [--trace] [--setup-only] \
        -- <hhkt arguments>

hhkt is imported from the src/ directory of the checkout this file sits in.
Standard output, standard error and the exit code are hhkt's own; the
report goes only to FILE, so result documents are unchanged.

Set-up ends when `cli.regularity_gate` returns (compute, oracle, bv; it runs
right after `cli.load_job`) or when `cli.cmd_verify` is entered (verify).
--setup-only exits with code 0 at that point.

With --trace, the public functions named in TARGETS are wrapped from
outside.  A span records calls, inclusive seconds (outermost call only, so
recursion is not counted twice) and self seconds (the span minus its child
spans).  Functions that run millions of times are only counted.  A target
missing from the code is skipped and listed in the report.
"""

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cached(attr):
    """Hit probe for a method that caches on (args...) in self.<attr>."""
    def probe(args):
        cache = getattr(args[0], attr, None)
        if cache is None or len(args) < 2:
            return False
        key = args[1] if len(args) == 2 else tuple(args[1:])
        return key in cache
    return probe


def _rows_cols_nnz(result, args):
    return {"rows": result.rows, "cols": result.cols, "nnz": result.nnz()}


# (module, qualified name, kind, hit probe, size measure on a miss)
TARGETS = [
    ("cli", "load_job", "span", None, None),
    ("cli", "regularity_gate", "span", None, None),
    ("cli", "product_table_from_ring", "span", None,
     lambda result, args: {"rows": len(result)}),
    ("cli", "emit", "span", None, None),
    ("algebra", "validate_regular_sequence", "span", None, None),
    ("algebra", "AlgebraPresentation.mono_degree", "count", None, None),
    ("algebra", "AlgebraPresentation.mul_monomials", "count", None, None),
    ("algebra", "AlgebraPresentation.monomial_basis", "count", None, None),
    ("koszul_tate", "hh_via_kt", "span", None, None),
    ("koszul_tate", "kt_d_mono", "count", None, None),
    ("koszul_tate", "KTRing.product", "span", _cached("_product_cache"),
     None),
    ("koszul_tate", "cup_via_diagonal", "span", None, None),
    ("koszul_tate", "diagonal_mono", "span", None, None),
    ("koszul_tate", "XiLift.value", "span", _cached("table"), None),
    ("bar", "BarComplex.cell_basis", "span", _cached("_cells"),
     lambda result, args: {"size": len(result)}),
    ("bar", "BarComplex.matrix", "span", _cached("_mats"), _rows_cols_nnz),
    ("bar", "cochain_differential", "span", None, None),
    ("bar", "BarComplex.homology", "span", _cached("_hom"), None),
    ("bar", "compute_hh_window", "span", None, None),
    ("bar", "cochain_cup", "span", None, None),
    ("bar", "ChainComplexCells.b_matrix", "span", _cached("_mats"),
     _rows_cols_nnz),
    ("bar", "ChainComplexCells.homology", "span", _cached("_hom"), None),
    ("bar", "ChainComplexCells.connes_matrix_on_homology", "span", None,
     None),
    ("fields", "cohomology_cell", "span", None, None),
    ("fields", "rref", "span", None,
     lambda result, args: {"cols": args[0].cols, "nnz": args[0].nnz(),
                           "rank": len(result[0])}),
    ("fields", "_rref_dense", "count", None, None),
    ("fields", "rank_kernel_image", "span", None, None),
    ("fields", "LinearSystem.__init__", "span", None, None),
    ("fields", "LinearSystem.solve", "span", None, None),
    ("bv", "BVContext.__init__", "span", None, None),
    ("bv", "BVContext.translate_matrix", "span", _cached("_translate"),
     None),
    ("bv", "BVContext.theta_matrix", "span", _cached("_theta"), None),
    ("bv", "BVContext.pairing_matrix", "span", _cached("_pairing"), None),
    ("bv", "BVContext.delta_matrix", "span", _cached("_delta"), None),
    ("bv", "BVContext.kt_to_bar_cochain", "span", None, None),
    ("bv", "BVContext.check_bv_identity", "span", None, None),
    ("spectral", "collapse_certificate", "span", None, None),
    ("spectral", "resolve_bv_extension", "span", None, None),
    ("spectral", "resolve_product_extension", "span", None, None),
    ("verify", "run_suite", "span", None, None),
]


def span_name(module, qualname):
    return f"{module}.{qualname.replace('__init__', 'init')}"


class Tracer:
    """In-memory span and counter aggregates for one process."""

    def __init__(self):
        self.stats = {}     # name -> [calls, inclusive s, self s, hits]
        self.sizes = {}     # name -> {key: summed size over cache misses}
        self.root_s = 0.0   # time covered by spans with no parent span
        self._stack = []    # open spans: [start, seconds of child spans]
        self._depth = {}    # name -> number of open spans of that name

    def counter(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name, fn, hit=None, measure=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        sizes = self.sizes.setdefault(name, {})
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            was_hit = hit is not None and hit(args)
            if was_hit:
                stats[3] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                stats[2] += elapsed - frame[1]
                if not depth[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if measure is not None and not was_hit:
                for key, value in measure(result, args).items():
                    sizes[key] = sizes.get(key, 0) + value
            return result
        return wrapper

    def install(self):
        """Wrap every target; return the names of targets not found."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hhkt" or n.startswith("hhkt.")]
        missing = []
        for module, qualname, kind, hit, measure in TARGETS:
            name = span_name(module, qualname)
            owner = sys.modules.get(f"hhkt.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                missing.append(name)
                continue
            if kind == "count":
                wrapped = self.counter(name, fn)
            else:
                wrapped = self.span(name, fn, hit, measure)
            if path:
                setattr(owner, attr, wrapped)
                continue
            # a module-level function is also bound in every module that
            # imported it by name
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        return missing

    def report(self):
        return {"stats": self.stats, "sizes": self.sizes,
                "root_s": self.root_s}


class SetupDone(BaseException):
    """Raised to stop a --setup-only run; not caught by hhkt."""


def main(argv):
    split = argv.index("--")
    opts, hhkt_argv = argv[:split], argv[split + 1:]
    report_path = Path(opts[opts.index("--report") + 1])
    trace = "--trace" in opts
    setup_only = "--setup-only" in opts

    sys.path.insert(0, str(SRC))
    import hhkt.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "hhkt":
        sys.stderr.write(f"hhkt imported from {cli.__file__}, "
                         f"not from {SRC}\n")
        return 2

    report = {"setup_end": None}
    tracer = Tracer() if trace else None
    if tracer is not None:
        report["missing"] = tracer.install()

    def end_setup():
        report["setup_end"] = time.monotonic()
        if setup_only:
            raise SetupDone

    # installed after the tracer, so the gate's span ends inside set-up
    gate, verify = cli.regularity_gate, cli.cmd_verify

    def timed_gate(*args, **kwargs):
        result = gate(*args, **kwargs)
        end_setup()
        return result

    def timed_verify(*args, **kwargs):
        end_setup()
        return verify(*args, **kwargs)

    cli.regularity_gate = timed_gate
    cli.cmd_verify = timed_verify
    try:
        code = cli.main(hhkt_argv)
    except SetupDone:
        code = 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.report()
        report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
