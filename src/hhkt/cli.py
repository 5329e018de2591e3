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
command line, and a bv input whose extension problems have no degree
bound) or window limit, 2 oracle mismatch, 3 internal consistency
failure.  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

try:  # CPython's built-in module; hashlib would map OpenSSL for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import lazy_module
from .algebra import (CELL_LIMIT, CellBlowupError,
                      InternalConsistencyError, NotPoincareDualityError,
                      PresentationError, UnsupportedDiagonalError, json_int,
                      parse_presentation, validate_regular_sequence)
from .bigraded import DegreeWindow, UnboundedSearchError, WindowError
from .fields import ComplexViolationError, FieldError

# each command runs only some of these; a module is compiled and run when a
# command first reads from it, so no process pays for the ones it skips
bar = lazy_module("hhkt.bar")
bv = lazy_module("hhkt.bv")
koszul_tate = lazy_module("hhkt.koszul_tate")
render = lazy_module("hhkt.render")  # --format text alone
spectral = lazy_module("hhkt.spectral")
verify_suite = lazy_module("hhkt.verify")


SOLVER_CHOICES = {
    "cup_diagonal": "front-back word splitting (strictly associative)",
    "resolution_diagonal": ("divided-power coproduct; relation generators "
                            "corrected by an in-window linear solve"),
    "zeta_construction": ("variable-ordered telescoping, verified against "
                          "both defining conditions on every call"),
    "duality_class": "dual basis element of the top monomial, used directly",
}


def load_job(args):
    """(presentation, window, input digest) of a command's --input, its
    window flags overriding the file's."""
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    A = parse_presentation(doc)
    win = doc.get("window", {})
    if not isinstance(win, dict):
        raise PresentationError("'window' must be an object")

    def bound(flag, key, default):
        if flag is not None:
            return flag
        return json_int(win.get(key, default), f"window {key}")

    window = DegreeWindow(bound(args.max_p, "max_filtration", 4),
                          bound(args.q_min, "q_min", -24),
                          bound(args.q_max, "q_max", 24))
    digest = sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
    return A, window, digest


def base_metadata(args, A, window, digest, extra=None):
    meta = {
        "command": args.command,
        "input_hash": digest,
        "characteristic": A.field.p,
        "generators": [{"name": g.name, "degree": g.degree, "kind": g.kind}
                       for g in A.generators],
        "relations": [A.label_poly(r) for r in A.relations],
        "window": {"max_filtration": window.max_p, "q_min": window.q_min,
                   "q_max": window.q_max},
        "choices": dict(SOLVER_CHOICES),
    }
    if extra:
        meta.update(extra)
    return meta


def hh_table_from_ring(ring):
    table = []
    for (p, q), labels in sorted(ring.cells.items()):
        if not labels:
            continue
        table.append({"p": p, "q": q, "dim": len(labels),
                      "basis": [ring.label_str(lbl) for lbl in labels]})
    return table


class ProductRows:
    """The product table: rows {"a": str, "b": str, "value": [[str, int],
    ...]} held as blocks (a, bs, values), the rows (a, bs[i], values[i]),
    values None when every value of the block is [].  json_text writes it
    from one template per row, with no dict per row; len() counts the
    rows, and iterating gives each row as a dict."""

    __slots__ = ("blocks", "_rows")

    def __init__(self):
        self.blocks = []
        self._rows = 0

    def add(self, a, bs, values=None):
        """The rows (a, bs[i], values[i]); values None: every value is []."""
        self.blocks.append((a, bs, values))
        self._rows += len(bs)

    def __len__(self):
        return self._rows

    def __iter__(self):
        for block in self.blocks:
            yield from _block_rows(*block)


def _block_rows(a, bs, values):
    """The rows of one ProductRows block, as dicts."""
    for i, b in enumerate(bs):
        yield {"a": a, "b": b, "value": [] if values is None else values[i]}


def product_table_from_ring(ring):
    """Every product of two basis classes whose bidegree is in the window,
    in the order of combinations_with_replacement over the labels listed
    cell by cell.  Only the cell pairs whose summed bidegree lies in the
    window are walked, each class against the run of its partners in one
    cell at a time, block by block as ring.product_blocks gives them: a
    block that is zero becomes rows without a value to name or sort."""
    cells = [(pq, lbls) for pq, lbls in sorted(ring.cells.items()) if lbls]
    name = {lbl: ring.label_str(lbl)
            for _pq, lbls in cells for lbl in lbls}
    out = ProductRows()
    # product_blocks may give equal products as one object, which is named
    # once: {id: (product, its value)}, the product kept so its id is not
    # reused
    named = {}
    for i, ((pa, qa), lbls_a) in enumerate(cells):
        partners = [(j, lbls_b) for j, ((pb, qb), lbls_b)
                    in enumerate(cells[i:], i)
                    if ring.window.contains(pa + pb, qa + qb)]
        for k, la in enumerate(lbls_a):
            a = name[la]
            for j, lbls_b in partners:
                run = lbls_b[k:] if j == i else lbls_b
                for block, values in ring.product_blocks(la, run):
                    if values is not None:
                        rows = []
                        for prod in values:
                            hit = named.get(id(prod))
                            if hit is None:
                                hit = named[id(prod)] = (prod, sorted(
                                    [name[lc], c] for lc, c in prod.items()))
                            rows.append(hit[1])
                        values = rows
                    out.add(a, [name[lb] for lb in block], values)
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


def cmd_compute(args):
    A, window, digest = load_job(args)
    extra = regularity_gate(A) or {}
    ring = koszul_tate.hh_via_kt(A, window)
    extra["differential_vanishes"] = ring.differential_vanishes
    doc = {
        "metadata": base_metadata(args, A, window, digest, extra),
        "hh_table": hh_table_from_ring(ring),
        "product_table": product_table_from_ring(ring),
        "resolution_generators": [
            {"symbol": s, "bidegree": list(b)}
            for s, b in ring.R.generator_roster()],
    }
    cert = spectral.collapse_certificate(ring)
    doc["certificate"] = {
        "status": cert.status, "page_bound": cert.r_bound,
        "detail": cert.detail,
        "potential_differentials": [
            {"page": d.r, "source": list(d.source),
             "target": list(d.target), "target_dim": d.target_dim}
            for d in cert.potential_differentials],
    }
    return doc, 0


def cmd_oracle(args):
    A, window, digest = load_job(args)
    extra = regularity_gate(A) or {}
    ring = koszul_tate.hh_via_kt(A, window)
    report = bar.oracle_report(
        window,
        bar.compute_hh_window(A, bar.COEFF_SELF, window, args.cell_limit),
        {pq: len(lbls) for pq, lbls in ring.cells.items()})
    doc = {
        "metadata": base_metadata(args, A, window, digest, extra),
        "oracle_report": report,
    }
    return doc, (0 if report["agree"] else 2)


def cmd_bv(args):
    A, window, digest = load_job(args)
    extra = regularity_gate(A) or {}
    meta, sections, code = bv.bv_report(A, window)
    extra.update(meta)
    return {"metadata": base_metadata(args, A, window, digest, extra),
            **sections}, code


def cmd_verify(args):
    report = verify_suite.run_suite(seed=args.seed)
    doc = {
        "metadata": {
            "command": "verify",
            "seed": args.seed,
            "choices": dict(SOLVER_CHOICES),
        },
        "checks": report,
    }
    ok = all(c["status"] == "pass" for c in report)
    return doc, (0 if ok else 3)


# -- JSON text ---------------------------------------------------------------


def json_text(obj):
    """The text json.dumps(obj, sort_keys=True, indent=2) gives.  A
    ProductRows value, alone or at the top level of a dict with str keys,
    is written by _product_rows_text; every other value by json.dumps,
    each top-level value of a dict re-indented by one level (a JSON string
    holds no raw newline)."""
    if type(obj) is ProductRows:
        return _product_rows_text(obj, "")
    if not isinstance(obj, dict) or not obj:
        return json.dumps(obj, sort_keys=True, indent=2)
    # encode_basestring_ascii raises TypeError on a key that is not str
    items = ",\n  ".join([
        encode_basestring_ascii(k) + ": "
        + (_product_rows_text(v, "  ") if type(v) is ProductRows else
           json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  "))
        for k, v in sorted(obj.items())])
    return "{\n  " + items + "\n}"


class _JSONStrings(dict):
    """str -> its JSON text, encoded on first use."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def _product_rows_text(rows, indent):
    """json_text of a ProductRows table: one template per row, with the
    JSON text of each label and of each value object made once; a block
    of zero products is one join of its b labels.  Labels are str and
    values lists of [str, int] pairs, as product_table_from_ring builds
    them; a label or coefficient of another type raises TypeError."""
    if not len(rows):
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    pair = field + "  "
    entry = pair + "  "
    pair_sep = f",\n{pair}"
    value_head = f',\n{field}"value": '
    row_end = f"\n{inner}}}"
    zero_end = f"{value_head}[]{row_end}"
    names = _JSONStrings()
    value_texts = {}    # id of a value list (alive in rows) -> its text
    texts = []
    for a, bs, values in rows.blocks:
        head = f'{{\n{field}"a": {names[a]},\n{field}"b": '
        if values is None:
            if bs:
                texts.append(head + f"{zero_end},\n{inner}{head}".join(
                    [names[b] for b in bs]) + zero_end)
            continue
        for b, value in zip(bs, values):
            text = value_texts.get(id(value))
            if text is None:
                text = "[]"
                if value:
                    text = pair_sep.join([
                        f"[\n{entry}{names[lc]},\n{entry}"
                        f"{int.__repr__(c)}\n{pair}]" for lc, c in value])
                    text = f"[\n{pair}{text}\n{field}]"
                value_texts[id(value)] = text
            texts.append(f"{head}{names[b]}{value_head}{text}{row_end}")
    return "".join(("[\n", inner, f",\n{inner}".join(texts), "\n", indent,
                    "]"))


def emit(doc, fmt):
    if fmt == "text":
        sys.stdout.write(render.render_text(doc))
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
    """The command line.  Each subcommand's run default is its cmd_
    function as this module holds it when the parser is built, which main
    does on every call."""
    parser = _Parser(
        prog="hhkt",
        description=("Hochschild cohomology of graded complete "
                     "intersections over prime fields"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in (("compute", cmd_compute), ("oracle", cmd_oracle),
                      ("bv", cmd_bv)):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--input", required=True)
        p.add_argument("--max-p", type=int, default=None)
        p.add_argument("--q-min", type=int, default=None)
        p.add_argument("--q-max", type=int, default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "oracle":
            p.add_argument("--cell-limit", type=int, default=CELL_LIMIT)
    v = sub.add_parser("verify")
    v.set_defaults(run=cmd_verify)
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "cell_limit", 0) < 0:
            raise UsageError("--cell-limit must be >= 0")
    except UsageError as err:
        sys.stderr.write(f"input error: {err}\n")
        return 1
    try:
        doc, code = args.run(args)
    except (PresentationError, FieldError, WindowError, OSError,
            UnicodeDecodeError, NotPoincareDualityError,
            UnboundedSearchError, json.JSONDecodeError) as err:
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
    emit(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
