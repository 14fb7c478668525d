"""Plain-text rendering of figure data: tables, series and sparkline plots.

The harness has no plotting dependency by design (offline environments);
``render()`` output is the deliverable the benchmarks print, and
EXPERIMENTS.md embeds it verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["FigureResult", "render_table", "render_series", "sparkline"]

_BARS = " .:-=+*#%@"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width ASCII table."""
    cols = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    lines = []
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """One-line density plot of a series (NaNs render as spaces)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # bucket means to fit the width
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([
            np.nanmean(arr[a:b]) if b > a else np.nan
            for a, b in zip(edges[:-1], edges[1:])
        ])
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return " " * arr.size
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo if hi > lo else 1.0
    out = []
    for v in arr:
        if not np.isfinite(v):
            out.append(" ")
        else:
            idx = int((v - lo) / span * (len(_BARS) - 1))
            out.append(_BARS[idx])
    return "".join(out)


def render_series(
    name: str, xs: Sequence[float], ys: Sequence[float], *, width: int = 60,
    fmt: str = "%.3g",
) -> str:
    """A labelled sparkline with min/max annotations."""
    arr = np.asarray(list(ys), dtype=float)
    finite = arr[np.isfinite(arr)]
    lo = fmt % finite.min() if finite.size else "nan"
    hi = fmt % finite.max() if finite.size else "nan"
    xs = list(xs)
    xr = f"x: {xs[0]:.0f}..{xs[-1]:.0f}" if xs else "x: -"
    return f"{name:28s} [{sparkline(arr, width=width)}] min={lo} max={hi} ({xr})"


@dataclass
class FigureResult:
    """The output of one figure-regeneration run."""

    figure_id: str
    title: str
    # free-form key metrics for EXPERIMENTS.md and assertions in benches
    metrics: Dict[str, float] = field(default_factory=dict)
    # pre-rendered blocks (tables/series) composing the figure body
    blocks: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_block(self, block: str) -> None:
        """Append a pre-rendered block to the figure body."""
        self.blocks.append(block)

    def note(self, text: str) -> None:
        """Attach a free-form note."""
        self.notes.append(text)

    def render(self) -> str:
        """Render the whole figure as text."""
        lines = [f"=== {self.figure_id}: {self.title} ==="]
        for block in self.blocks:
            lines.append(block)
            lines.append("")
        if self.metrics:
            lines.append("key metrics:")
            for k, v in self.metrics.items():
                lines.append(f"  {k} = {v:.4g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (for JSON dumps / plotting pipelines)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "metrics": dict(self.metrics),
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON dump of the figure's metrics (not the rendered blocks)."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
