"""Result container shared by the experiment harnesses and the sweep engine.

:class:`ExperimentResult` (and the :data:`Row` alias) live here, below
both the scenario layer and ``repro.experiments`` — whose ``__init__``
imports every figure harness, and those import the sweep engine — so
the sweep engine can depend on the container without an import cycle.
``repro.reporting`` depends only on ``repro.errors``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import ConfigurationError

#: One measurement row: flat column -> value.
Row = Dict[str, Any]


@dataclass
class ExperimentResult:
    """Rows of measurements plus the metadata to interpret them.

    Attributes:
        name: experiment id (``repro list`` prints them).
        description: what the rows measure.
        rows: flat records; every row shares the same keys.
        parameters: the configuration that produced the rows.
    """

    name: str
    description: str
    rows: List[Row] = field(default_factory=list)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def add(self, **fields: Any) -> None:
        """Append one measurement row."""
        self.rows.append(dict(fields))

    def columns(self) -> List[str]:
        """Column names in first-appearance order across all rows."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def series(
        self,
        x: str,
        y: str,
        where: Optional[Callable[[Row], bool]] = None,
    ) -> List[Tuple[Any, Any]]:
        """(x, y) pairs from rows passing ``where``, in row order."""
        pairs = []
        for row in self.rows:
            if where is not None and not where(row):
                continue
            if x not in row or y not in row:
                raise ConfigurationError(
                    f"experiment {self.name!r}: row lacks {x!r}/{y!r}"
                )
            pairs.append((row[x], row[y]))
        return pairs

    def column(self, key: str, where: Optional[Callable[[Row], bool]] = None) -> List[Any]:
        """One column's values, optionally filtered."""
        return [row[key] for row in self.rows if where is None or where(row)]

    def to_table(self, float_digits: int = 4) -> str:
        """Render rows as an aligned text table."""
        columns = self.columns()
        if not columns:
            return f"[{self.name}] (no rows)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}f}"
            return str(value)

        rendered = [[fmt(row.get(col, "")) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
            for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        separator = "  ".join("-" * widths[i] for i in range(len(columns)))
        body = "\n".join(
            "  ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
            for r in rendered
        )
        title = f"[{self.name}] {self.description}"
        return "\n".join([title, header, separator, body])

    def to_ascii_chart(
        self,
        x: str,
        y: str,
        group: Optional[str] = None,
        *,
        width: int = 50,
    ) -> str:
        """Render one metric as horizontal ASCII bars, grouped by a column.

        Args:
            x: column labelling each bar (e.g. ``n_locals``).
            y: numeric column giving the bar length.
            group: optional column splitting rows into labelled series.
            width: bar length of the maximum value.

        Example output::

            [fig3b] bandwidth_gbps by n_locals
            fixed-spff    3   320.7  ################
            flexible-mst  3   190.0  #########
            ...
        """
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        values = [row[y] for row in self.rows]
        if not values:
            return f"[{self.name}] (no rows)"
        peak = max(values)
        lines = [f"[{self.name}] {y} by {x}"]
        label_width = max(
            (len(str(row.get(group, ""))) for row in self.rows), default=0
        )
        x_width = max(len(str(row[x])) for row in self.rows)
        for row in self.rows:
            bar = "#" * (round(width * row[y] / peak) if peak > 0 else 0)
            prefix = f"{str(row.get(group, '')):<{label_width}}  " if group else ""
            lines.append(
                f"{prefix}{str(row[x]):>{x_width}}  {row[y]:>10.2f}  {bar}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialise (name, parameters, rows) as JSON."""
        return json.dumps(
            {
                "name": self.name,
                "description": self.description,
                "parameters": self.parameters,
                "rows": self.rows,
            },
            indent=2,
            sort_keys=True,
        )

    def save(self, path: str) -> None:
        """Write :meth:`to_json` to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
