"""ASCII rendering of experiment results, in the layout of the paper's
figures (one row per x-axis category, one column per scheme/series)."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple


def _format_cell(value, width: int) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.3f}".rjust(width)
    return str(value).rjust(width)


def format_table(title: str, row_label: str, columns: Sequence[str],
                 rows: Sequence[tuple], notes: Optional[str] = None) -> str:
    """Render rows of (label, value, value, ...) under column headings."""
    label_width = max([len(row_label)] + [len(str(row[0])) for row in rows]) + 2
    widths = [max(len(col), 8) + 2 for col in columns]
    lines = [title, "=" * len(title)]
    header = row_label.ljust(label_width) + "".join(
        col.rjust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        label, *values = row
        cells = "".join(_format_cell(value, width)
                        for value, width in zip(values, widths))
        lines.append(str(label).ljust(label_width) + cells)
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)


def series_rows(x_labels: Sequence, series: Dict[str, Dict],
                columns: Sequence[str]) -> List[tuple]:
    """Convert {series: {x: value}} into format_table rows."""
    rows = []
    for x in x_labels:
        rows.append((x,) + tuple(series[col].get(x) for col in columns))
    return rows


def output_digest(data) -> str:
    """SHA-256 of ``data``'s canonical JSON form (16 hex digits).

    The code salt says what code ran; this says what came out.  Floats
    serialise by their shortest round-trip repr, so bit-identical results
    give identical digests.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def provenance_footer(code_salt: str,
                      experiments: Sequence[Tuple[str, str]],
                      output: Optional[str] = None) -> str:
    """One machine-greppable line tying a committed table back to the
    experiment-store rows (and code salt) that produced it, and to the
    :func:`output_digest` of what it shows.

    Everything in the line is content-derived — experiment ids and spec
    hashes are hashes of the grid, the salt a hash of the source tree, the
    output digest a hash of the result — so regenerating an unchanged
    figure on any machine reproduces the footer byte for byte.
    """
    parts = [f"code salt {code_salt}"]
    if output is not None:
        parts.append(f"output {output}")
    if experiments:
        parts.append("experiments: " + ", ".join(
            f"{experiment_id} (spec {spec_hash[:16]})"
            for experiment_id, spec_hash in experiments))
    return "[provenance] " + "; ".join(parts)
