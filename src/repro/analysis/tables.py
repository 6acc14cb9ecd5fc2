"""ASCII table rendering in the shape of the paper's tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence


class Table:
    """A simple column-aligned text table."""

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []
        self._raw_rows: list[list[Any]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} "
                "columns"
            )
        self._raw_rows.append(list(cells))
        self.rows.append([_format_cell(cell) for cell in cells])

    def to_records(self) -> list[dict]:
        """Rows as header-keyed dicts of the *raw* (unformatted) cells,
        the shape :func:`repro.obs.export.bench_payload` takes."""
        return [
            dict(zip(self.headers, row)) for row in self._raw_rows
        ]

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        separator = "-+-".join("-" * w for w in widths)
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append(separator)
        for row in self.rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "n/a"
        if math.isinf(cell):
            return "inf"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


@dataclass
class Comparison:
    """One paper-vs-measured data point for EXPERIMENTS.md."""

    experiment: str
    metric: str
    paper: Optional[float]
    measured: float
    unit: str = ""
    note: str = ""

    @property
    def ratio(self) -> float:
        if self.paper in (None, 0):
            return math.nan
        return self.measured / self.paper


def render_comparisons(comparisons: Sequence[Comparison], title: str = "") -> str:
    table = Table(
        ["experiment", "metric", "paper", "measured", "ratio", "note"],
        title=title,
    )
    for comp in comparisons:
        paper = "n/a" if comp.paper is None else _format_cell(float(comp.paper))
        measured = _format_cell(comp.measured)
        if comp.unit:
            if paper != "n/a":
                paper = f"{paper} {comp.unit}"
            measured = f"{measured} {comp.unit}"
        table.add_row(
            comp.experiment, comp.metric, paper, measured,
            _format_cell(comp.ratio), comp.note,
        )
    return table.render()
