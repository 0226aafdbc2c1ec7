"""Plain-text report rendering: measured values next to paper values."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(values):
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_bars(
    groups: Sequence[tuple],
    width: int = 48,
    log_scale: bool = True,
    unit: str = "ms",
) -> str:
    """ASCII bar chart: ``groups`` is [(group_label, [(series, value)])].

    Used by the Fig. 4 harnesses to render the figures as text; values are
    log-scaled by default because the paper's sweeps span six decades.
    """
    import math as _math

    values = [value for _label, series in groups
              for _name, value in series if value is not None and value > 0]
    if not values:
        return "(no data)"
    top = max(values)
    bottom = min(values)

    def bar_length(value: float) -> int:
        if value is None or value <= 0:
            return 0
        if log_scale and top > bottom:
            fraction = (
                (_math.log10(value) - _math.log10(bottom))
                / (_math.log10(top) - _math.log10(bottom))
            )
        else:
            fraction = value / top
        return max(1, int(round(fraction * width)))

    name_width = max(
        (len(name) for _l, series in groups for name, _v in series),
        default=0,
    )
    label_width = max((len(label) for label, _s in groups), default=0)
    lines = []
    for label, series in groups:
        for index, (name, value) in enumerate(series):
            prefix = label.ljust(label_width) if index == 0 else \
                " " * label_width
            if value is None:
                lines.append(f"{prefix}  {name.ljust(name_width)}  -")
                continue
            bar = "#" * bar_length(value)
            lines.append(
                f"{prefix}  {name.ljust(name_width)}  "
                f"{bar} {value:.3g} {unit}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()

