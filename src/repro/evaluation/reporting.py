"""Plain-text table formatting for the paper-style experiment outputs.

Every benchmark prints its result as a small aligned table so that the
``bench_output.txt`` transcript can be compared side by side with the paper's
tables and figures.  The formatting helpers here keep that output consistent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None,
                 float_format: str = "{:.3f}") -> str:
    """Render rows as an aligned monospace table.

    Floats are rendered with ``float_format``; everything else with ``str``.
    """
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                rendered.append(float_format.format(float(cell)))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)
