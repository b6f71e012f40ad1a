"""Result containers and table rendering for the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One regenerated table/figure: a header row plus data rows."""

    name: str
    description: str
    headers: list
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, *values) -> None:
        self.rows.append(list(values))

    def series(self, column: str, **where) -> list:
        """``column``'s values, in row order, of the rows whose named
        columns equal ``where``'s values (every row when none is named)."""
        index = self.headers.index(column)
        keys = [(self.headers.index(name), value) for name, value in where.items()]
        return [
            row[index] for row in self.rows if all(row[i] == v for i, v in keys)
        ]

    def cell(self, column: str, **where):
        """``column``'s value in the one row ``where`` selects."""
        values = self.series(column, **where)
        if len(values) != 1:
            raise KeyError(f"{self.name}: {where} selects {len(values)} rows")
        return values[0]


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render(result: ExperimentResult) -> str:
    """Render an experiment as an aligned text table."""
    table = [[str(h) for h in result.headers]]
    for row in result.rows:
        table.append([_format_cell(v) for v in row])
    widths = [max(len(r[c]) for r in table) for c in range(len(result.headers))]
    lines = [f"== {result.name} — {result.description}"]
    header, *body = table
    lines.append("  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  " + "-+-".join("-" * w for w in widths))
    for row in body:
        lines.append("  " + " | ".join(c.rjust(w) for c, w in zip(row, widths)))
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
