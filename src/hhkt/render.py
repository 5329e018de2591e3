"""Plain-text rendering of result documents, for --format text.

Only a command run with --format text loads this module; JSON output is
written by cli.json_text.
"""


def render_text(doc) -> str:
    """The --format text rendering of a result document."""
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
