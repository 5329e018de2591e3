"""Command-line driver: presentation files in, result documents out.

Commands
--------
compute   HH table and product table from the resolution side
oracle    brute-force bar-complex dims, diffed against the resolution side
bv        BV operator table with extension resolutions and identity sweep
verify    the full invariant suite over the built-in corpus

Presentation files are UTF-8 JSON:
    {"characteristic": 2,
     "generators": [{"name": "y1", "degree": 5, "kind": "exterior"}, ...],
     "relations": ["x1^2", ...],
     "window": {"max_filtration": 4, "q_min": -24, "q_max": 24}}

Exit codes: 0 success/agreement, 1 input error (including a malformed
command line) or window limit, 2 oracle mismatch, 3 internal consistency
failure.  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii

try:  # CPython's built-in module; hashlib would map OpenSSL for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .algebra import (InternalConsistencyError, PresentationError, json_int,
                      parse_presentation, validate_regular_sequence)
from .bar import COEFF_SELF, CellBlowupError, compute_hh_window
from .bigraded import DegreeWindow, WindowError
from .bv import BVContext, NotPoincareDualityError
from .fields import ComplexViolationError, FieldError
from .koszul_tate import KTRing, UnsupportedDiagonalError, hh_via_kt
from .spectral import (collapse_certificate, resolve_bv_extension,
                       resolve_product_extension)
from . import verify as verify_suite


JobConfig = namedtuple(
    "JobConfig", "command input_path max_p q_min q_max fmt seed "
    "max_bar_length inject_zeta_fault cell_limit", defaults=(False, 200000))


SOLVER_CHOICES = {
    "cup_diagonal": "front-back word splitting (strictly associative)",
    "resolution_diagonal": ("divided-power coproduct; relation generators "
                            "corrected by an in-window linear solve"),
    "zeta_construction": ("variable-ordered telescoping, verified against "
                          "both defining conditions on every call"),
    "duality_class": "dual basis element of the top monomial, used directly",
}


def load_job(cfg: JobConfig):
    with open(cfg.input_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    A = parse_presentation(doc)
    win = doc.get("window", {})
    if not isinstance(win, dict):
        raise PresentationError("'window' must be an object")

    def bound(flag, key, default):
        if flag is not None:
            return flag
        return json_int(win.get(key, default), f"window {key}")

    window = DegreeWindow(bound(cfg.max_p, "max_filtration", 4),
                          bound(cfg.q_min, "q_min", -24),
                          bound(cfg.q_max, "q_max", 24))
    digest = sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    return A, window, doc, digest


def base_metadata(cfg, A, window, digest, extra=None):
    meta = {
        "command": cfg.command,
        "input_hash": digest,
        "characteristic": A.field.p,
        "generators": [{"name": g.name, "degree": g.degree, "kind": g.kind}
                       for g in A.generators],
        "relations": [A.label_poly(r) for r in A.relations],
        "window": {"max_filtration": window.max_p, "q_min": window.q_min,
                   "q_max": window.q_max},
        "seed": cfg.seed,
        "choices": dict(SOLVER_CHOICES),
    }
    if extra:
        meta.update(extra)
    return meta


def hh_table_from_ring(ring: KTRing):
    table = []
    for (p, q), labels in sorted(ring.cells.items()):
        if not labels:
            continue
        table.append({"p": p, "q": q, "dim": len(labels),
                      "basis": [ring.label_str(lbl) for lbl in labels]})
    return table


def product_table_from_ring(ring: KTRing):
    """Every product of two basis classes whose bidegree is in the window,
    in the order of combinations_with_replacement over the labels listed
    cell by cell.  Only the cell pairs whose summed bidegree lies in the
    window are walked."""
    cells = [(pq, lbls) for pq, lbls in sorted(ring.cells.items()) if lbls]
    name = {lbl: ring.label_str(lbl)
            for _pq, lbls in cells for lbl in lbls}
    out = []
    for i, ((pa, qa), lbls_a) in enumerate(cells):
        partners = [(j, lbls_b) for j, ((pb, qb), lbls_b)
                    in enumerate(cells[i:], i)
                    if ring.window.contains(pa + pb, qa + qb)]
        for k, la in enumerate(lbls_a):
            for j, lbls_b in partners:
                for lb in (lbls_b[k:] if j == i else lbls_b):
                    prod = ring.product(la, lb)
                    out.append({"a": name[la], "b": name[lb],
                                "value": sorted([name[lc], c]
                                                for lc, c in prod.items())})
    return out


def regularity_gate(A):
    if not A.relations:
        return None
    bound = max(r.degree() for r in A.relations) * 2 + 4
    report = validate_regular_sequence(A, bound)
    if not report.ok:
        raise PresentationError(
            f"relations are not a regular sequence: {report.detail}")
    return {"regular_sequence_checked_through_degree": report.bound}


def cmd_compute(cfg: JobConfig):
    A, window, _doc, digest = load_job(cfg)
    extra = regularity_gate(A) or {}
    ring = hh_via_kt(A, window)
    extra["differential_vanishes"] = ring.differential_vanishes
    doc = {
        "metadata": base_metadata(cfg, A, window, digest, extra),
        "hh_table": hh_table_from_ring(ring),
        "product_table": product_table_from_ring(ring),
        "resolution_generators": [
            {"symbol": s, "bidegree": list(b)}
            for s, b in ring.R.generator_roster()],
    }
    cert = collapse_certificate(ring)
    doc["certificate"] = {
        "status": cert.status, "page_bound": cert.r_bound,
        "detail": cert.detail,
        "potential_differentials": [
            {"page": d.r, "source": list(d.source),
             "target": list(d.target), "target_dim": d.target_dim}
            for d in cert.potential_differentials],
    }
    return doc, 0


def cmd_oracle(cfg: JobConfig):
    A, window, _doc, digest = load_job(cfg)
    extra = regularity_gate(A) or {}
    if cfg.max_bar_length is not None:
        window = DegreeWindow(min(window.max_p, cfg.max_bar_length),
                              window.q_min, window.q_max)
    ring = hh_via_kt(A, window)
    kt_dims = {pq: len(lbls) for pq, lbls in ring.cells.items()}
    bar_dims = compute_hh_window(A, COEFF_SELF, window,
                                 cell_limit=cfg.cell_limit)
    mismatches = []
    edge_cells = []
    table = []
    for (p, q) in window.cells():
        bar_dim = bar_dims[(p, q)]
        kt_dim = kt_dims.get((p, q), 0)
        if window.is_edge(p, q) and (bar_dim or kt_dim):
            edge_cells.append([p, q])
        if bar_dim or kt_dim:
            table.append({"p": p, "q": q, "bar_dim": bar_dim,
                          "resolution_dim": kt_dim,
                          "agree": bar_dim == kt_dim})
        if bar_dim != kt_dim:
            mismatches.append([p, q, bar_dim, kt_dim])
    doc = {
        "metadata": base_metadata(cfg, A, window, digest, extra),
        "oracle_report": {
            "cells": table,
            "mismatches": mismatches,
            "agree": not mismatches,
            "edge_cells": sorted(edge_cells),
            "note": ("edge cells flagged: outgoing maps are built with one "
                     "extra filtration column of slack" if edge_cells
                     else ""),
        },
    }
    return doc, (0 if not mismatches else 2)


def _generator_monomial_labels(ring: KTRing):
    """Basis classes that are products of one or two model generators (the
    unit is omitted: the operator kills it by the algebra axioms)."""
    labels = []
    gens = ring.generators
    items = [{g.label: 1} for g in gens]
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        exps = {g1.label: 1}
        exps[g2.label] = exps.get(g2.label, 0) + 1
        items.append(exps)
    for exps in items:
        lbl = ring.label_from_exponents(exps)
        p, q = ring.bidegree(lbl)
        if not ring.window.contains(p, q):
            continue
        if lbl in ring.cells.get((p, q), []) and lbl not in labels:
            labels.append(lbl)
    return labels


def cmd_bv(cfg: JobConfig):
    A, window, _doc, digest = load_job(cfg)
    extra = regularity_gate(A) or {}
    ctx = BVContext(A, window)
    ring = ctx.ring
    if ring.generators is None:
        why = ("the relations are not pure powers"
               if ring.differential_vanishes else
               "the Hom-complex differential does not vanish in the window")
        raise PresentationError(
            f"bv needs a monomial generator model of HH, and there is "
            f"none: {why}")
    if A.field.p != 2:
        extra["odd_characteristic_bv"] = \
            "computed, but outside the validated scope"
    extra["formal_dimension"] = ctx.d
    extra["fundamental_class"] = A.label_monomial(ctx.pd.fundamental_class)
    extra["xi_lifting_depth"] = ctx.xi.depth
    labels = _generator_monomial_labels(ring)
    delta_gr = {}
    for lbl in labels:
        delta_gr[lbl] = ctx.delta_of_label(lbl)
    bv_table = []
    for lbl in labels:
        res = resolve_bv_extension(ring, delta_gr, lbl)
        bv_table.append({
            "class": ring.label_str(lbl),
            "bidegree": list(ring.bidegree(lbl)),
            "delta_gr": sorted([ring.label_str(t), c]
                               for t, c in delta_gr[lbl].items()),
            "status": res.status,
            "ambiguity_basis": [ring.label_str(t) for t in res.ambiguity],
        })
    ext_table = []
    gens = ring.generators
    for g1, g2 in itertools.combinations_with_replacement(gens, 2):
        l1 = ring.label_from_exponents({g1.label: 1})
        l2 = ring.label_from_exponents({g2.label: 1})
        p, q = (ring.bidegree(l1)[0] + ring.bidegree(l2)[0],
                ring.bidegree(l1)[1] + ring.bidegree(l2)[1])
        if not ring.window.contains(p, q):
            continue
        res = resolve_product_extension(ring, l1, l2)
        ext_table.append({
            "a": ring.label_str(l1), "b": ring.label_str(l2),
            "status": res.status,
            "value": sorted([ring.label_str(t), c]
                            for t, c in (res.value or {}).items()),
            "ambiguity_basis": [ring.label_str(t) for t in res.ambiguity],
        })
    # seven-term identity sweep over generator triples
    gen_labels = []
    for g in gens:
        lbl = ring.label_from_exponents({g.label: 1})
        if ring.window.contains(*ring.bidegree(lbl)):
            gen_labels.append(lbl)
    sweep = {"checked": 0, "failures": []}
    skipped = []
    for la, lb, lc in itertools.combinations_with_replacement(gen_labels, 3):
        p = sum(ring.bidegree(x)[0] for x in (la, lb, lc))
        q = sum(ring.bidegree(x)[1] for x in (la, lb, lc))
        if not ring.window.contains(p, q) or p < 1:
            continue
        da = ring.total_degree(la)
        db = ring.total_degree(lb)
        try:
            holds, residual = ctx.check_bv_identity(
                {la: 1}, {lb: 1}, {lc: 1}, da, db)
        except WindowError:
            # a nonzero a.b, b.c or a.c, or a term built from one, lies
            # outside the window although a.b.c lies inside it
            skipped.append([ring.label_str(x) for x in (la, lb, lc)])
            continue
        sweep["checked"] += 1
        if not holds:
            sweep["failures"].append({
                "triple": [ring.label_str(x) for x in (la, lb, lc)],
                "residual": sorted([ring.label_str(t), c]
                                   for t, c in residual.items())})
    if skipped:
        sweep["skipped_outside_window"] = skipped
    doc = {
        "metadata": base_metadata(cfg, A, window, digest, extra),
        "bv_table": bv_table,
        "extension_report": ext_table,
        "bv_identity_sweep": sweep,
    }
    code = 0 if not sweep["failures"] else 3
    return doc, code


def cmd_verify(cfg: JobConfig):
    report = verify_suite.run_suite(seed=cfg.seed,
                                    inject_zeta_fault=cfg.inject_zeta_fault)
    doc = {
        "metadata": {
            "command": "verify",
            "seed": cfg.seed,
            "choices": dict(SOLVER_CHOICES),
            "zeta_fault_injected": cfg.inject_zeta_fault,
        },
        "checks": report,
    }
    ok = all(c["status"] == "pass" for c in report)
    return doc, (0 if ok else 3)


# -- rendering ------------------------------------------------------------------


def render_text(doc) -> str:
    lines = []
    meta = doc.get("metadata", {})
    lines.append(f"command: {meta.get('command')}")
    if "characteristic" in meta:
        gens = ", ".join(f"{g['name']}:{g['degree']}:{g['kind'][:4]}"
                         for g in meta.get("generators", []))
        lines.append(f"field: F_{meta['characteristic']}  generators: {gens}")
        if meta.get("relations"):
            lines.append("relations: " + ", ".join(meta["relations"]))
        w = meta.get("window", {})
        lines.append(f"window: p <= {w.get('max_filtration')}, "
                     f"{w.get('q_min')} <= q <= {w.get('q_max')}")
    if "hh_table" in doc:
        lines.append("")
        lines.append("HH cells (p, q, dim, basis):")
        for row in doc["hh_table"]:
            lines.append(f"  ({row['p']:2d},{row['q']:4d})  dim {row['dim']}"
                         f"  {', '.join(row['basis'])}")
    if "certificate" in doc:
        cert = doc["certificate"]
        lines.append("")
        lines.append(f"collapse certificate: {cert['status']} "
                     f"({cert['detail']})")
    if "oracle_report" in doc:
        rep = doc["oracle_report"]
        lines.append("")
        lines.append("oracle comparison (p, q, bar, resolution):")
        for row in rep["cells"]:
            mark = "" if row["agree"] else "  <-- MISMATCH"
            lines.append(f"  ({row['p']:2d},{row['q']:4d})  "
                         f"{row['bar_dim']:3d} {row['resolution_dim']:3d}"
                         f"{mark}")
        lines.append(f"agreement: {rep['agree']}")
        if rep.get("note"):
            lines.append(f"note: {rep['note']} "
                         f"(cells {rep['edge_cells']})")
    if "bv_table" in doc:
        lines.append("")
        lines.append("BV operator table:")
        for row in doc["bv_table"]:
            val = " + ".join(str(c) if t == "1" else
                             (t if c == 1 else f"{c}*{t}")
                             for t, c in row["delta_gr"]) or "0"
            extra = ""
            if row["status"] == "ambiguous":
                extra = ("  [ambiguous; basis: "
                         + ", ".join(row["ambiguity_basis"]) + "]")
            lines.append(f"  Delta({row['class']}) = {val}"
                         f"  [{row['status']}]{extra}")
        sweep = doc.get("bv_identity_sweep", {})
        lines.append(f"seven-term identity sweep: {sweep.get('checked', 0)} "
                     f"triples, {len(sweep.get('failures', []))} failures")
        if sweep.get("skipped_outside_window"):
            lines.append(f"  skipped {len(sweep['skipped_outside_window'])} "
                         f"triples that need a class outside the window")
    if "checks" in doc:
        lines.append("")
        for c in doc["checks"]:
            lines.append(f"  {c['status'].upper():4s}  {c['name']}"
                         + (f"  ({c['witness']})" if c.get("witness") else ""))
    return "\n".join(lines) + "\n"


def _float_text(x: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the JSON text of a scalar, by its exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def json_text(obj, indent=""):
    """The text json.dumps(obj, sort_keys=True, indent=2) gives, built as
    one str.join per container instead of json's pure-Python chunk
    iterator (json uses its C encoder only without indent).  Dict keys must
    be str; any other key or value type raises TypeError.  Scalars in a
    container are written inline, without a call per scalar."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    # the list of children's texts is gone before the brackets are added,
    # so at most two copies of a container's text are alive at once
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not str
        items = f",\n{inner}".join([
            encode_basestring_ascii(k) + ": "
            + (scalar(v) if (scalar := _SCALAR_TEXT.get(type(v)))
               else json_text(v, inner))
            for k, v in sorted(obj.items())])
        return "".join(("{\n", inner, items, "\n", indent, "}"))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = f",\n{inner}".join([
            scalar(v) if (scalar := _SCALAR_TEXT.get(type(v)))
            else json_text(v, inner) for v in obj])
        return "".join(("[\n", inner, items, "\n", indent, "]"))
    for kind in (str, int, float):
        if isinstance(obj, kind):
            return _SCALAR_TEXT[kind](obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def emit(doc, fmt):
    if fmt == "text":
        sys.stdout.write(render_text(doc))
    else:
        sys.stdout.write(json_text(doc))
        sys.stdout.write("\n")


class UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting with 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="hhkt",
        description=("Hochschild cohomology of graded complete "
                     "intersections over prime fields"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("compute", "oracle", "bv"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--max-p", type=int, default=None)
        p.add_argument("--q-min", type=int, default=None)
        p.add_argument("--q-max", type=int, default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if name == "oracle":
            p.add_argument("--max-bar-length", type=int, default=None)
            p.add_argument("--cell-limit", type=int, default=200000)
    v = sub.add_parser("verify")
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--inject-zeta-fault", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as err:
        sys.stderr.write(f"input error: {err}\n")
        return 1
    cfg = JobConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        max_p=getattr(args, "max_p", None),
        q_min=getattr(args, "q_min", None),
        q_max=getattr(args, "q_max", None),
        fmt=args.format,
        seed=args.seed,
        max_bar_length=getattr(args, "max_bar_length", None),
        inject_zeta_fault=getattr(args, "inject_zeta_fault", False),
        cell_limit=getattr(args, "cell_limit", 200000),
    )
    try:
        if cfg.command == "compute":
            doc, code = cmd_compute(cfg)
        elif cfg.command == "oracle":
            doc, code = cmd_oracle(cfg)
        elif cfg.command == "bv":
            doc, code = cmd_bv(cfg)
        else:
            doc, code = cmd_verify(cfg)
    except (PresentationError, FieldError, WindowError, OSError,
            UnicodeDecodeError, NotPoincareDualityError,
            json.JSONDecodeError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 1
    except CellBlowupError as err:
        sys.stderr.write(f"window too large for the oracle: {err}\n")
        return 1
    except UnsupportedDiagonalError as err:
        sys.stderr.write(f"window limit: {err}\n")
        return 1
    except (InternalConsistencyError, ComplexViolationError) as err:
        sys.stderr.write(f"internal consistency failure: {err}\n")
        return 3
    emit(doc, cfg.fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
