"""A minimal aligned-text table: how experiments and the CLI print rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class Table:
    """A minimal aligned-text table for experiment output."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [list(map(_fmt, row)) for row in self.rows]
        widths = [
            max(len(str(c)), *(len(r[i]) for r in cells)) if cells else len(str(c))
            for i, c in enumerate(self.columns)
        ]
        lines = [self.title, ""]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
