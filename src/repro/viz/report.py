"""HTML situation reports: one self-contained page per analysis run.

Combines the SVG map, the event log and summary statistics into a single
HTML document — the closest headless stand-in for the paper's
"interactive Visual Analytics for supporting human exploration and
interpretation".
"""

from __future__ import annotations

import html
from typing import Iterable, Sequence

from repro.model.events import ComplexEvent, SimpleEvent

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 960px;
         color: #222; }}
  h1 {{ font-size: 1.4rem; }}
  h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
  table {{ border-collapse: collapse; width: 100%; font-size: 0.9rem; }}
  th, td {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: left; }}
  th {{ background: #f0f4f8; }}
  .sev-3 {{ background: #fde8e8; }}
  .sev-2 {{ background: #fff4e5; }}
  .map svg {{ border: 1px solid #ccc; max-width: 100%; height: auto; }}
  .stats span {{ display: inline-block; margin-right: 2rem; }}
  .stats b {{ font-size: 1.2rem; }}
</style>
</head>
<body>
<h1>{title}</h1>
{stats_block}
{map_block}
{events_block}
{extra_blocks}
</body>
</html>
"""


class HtmlReport:
    """Accumulates report sections and renders one HTML page."""

    def __init__(self, title: str) -> None:
        self.title = title
        self._stats: list[tuple[str, str]] = []
        self._map_svg: str | None = None
        self._events: list[ComplexEvent | SimpleEvent] = []
        self._extra: list[str] = []

    def add_stat(self, label: str, value: object) -> None:
        """One headline statistic (shown in the stats strip)."""
        if isinstance(value, float):
            rendered = f"{value:,.3f}" if abs(value) < 100 else f"{value:,.0f}"
        else:
            rendered = str(value)
        self._stats.append((label, rendered))

    def set_map(self, svg_document: str) -> None:
        """Embed the SVG map (as produced by :class:`SvgMap`)."""
        self._map_svg = svg_document

    def add_events(self, events: Iterable[ComplexEvent | SimpleEvent]) -> None:
        """Append events to the event-log table."""
        self._events.extend(events)

    def add_timeline(
        self,
        profile: Sequence[tuple[float, int]],
        heading: str = "Activity timeline",
        width_px: int = 860,
        height_px: int = 80,
    ) -> None:
        """An SVG bar sparkline from a temporal profile.

        Args:
            profile: ``(bucket_start, count)`` pairs as produced by
                :func:`repro.viz.density.temporal_profile`.
        """
        if not profile:
            return
        peak = max(count for __, count in profile)
        if peak <= 0:
            return
        n = len(profile)
        bar_w = max(1.0, width_px / n - 1.0)
        bars = []
        for i, (bucket, count) in enumerate(profile):
            bar_h = max(1.0, count / peak * (height_px - 4))
            x = i * (width_px / n)
            y = height_px - bar_h
            bars.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{bar_h:.1f}" fill="#08519c" fill-opacity="0.8">'
                f"<title>t={bucket:.0f}s: {count}</title></rect>"
            )
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
            f'height="{height_px}">' + "".join(bars) + "</svg>"
        )
        self._extra.append(f"<h2>{html.escape(heading)}</h2>\n{svg}")

    def add_table(self, heading: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
        """An arbitrary extra table section."""
        cells_header = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
        body_rows = []
        for row in rows:
            cells = "".join(
                f"<td>{html.escape(self._fmt(cell))}</td>" for cell in row
            )
            body_rows.append(f"<tr>{cells}</tr>")
        self._extra.append(
            f"<h2>{html.escape(heading)}</h2>\n<table><tr>{cells_header}</tr>\n"
            + "\n".join(body_rows)
            + "\n</table>"
        )

    @staticmethod
    def _fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """The complete HTML document."""
        stats_block = ""
        if self._stats:
            spans = "".join(
                f"<span>{html.escape(label)}<br><b>{html.escape(value)}</b></span>"
                for label, value in self._stats
            )
            stats_block = f'<div class="stats">{spans}</div>'

        map_block = f'<h2>Map</h2><div class="map">{self._map_svg}</div>' if self._map_svg else ""

        events_block = ""
        if self._events:
            rows = []
            for event in sorted(self._events, key=self._event_time):
                if isinstance(event, SimpleEvent):
                    t, etype, entities, sev = event.t, event.event_type, event.entity_id, event.severity
                else:
                    t, etype, entities, sev = (
                        event.t_end, event.event_type, ", ".join(event.entity_ids), event.severity
                    )
                rows.append(
                    f'<tr class="sev-{int(sev)}"><td>{t:.0f}</td>'
                    f"<td>{html.escape(etype)}</td>"
                    f"<td>{html.escape(str(entities))}</td>"
                    f"<td>{html.escape(sev.name)}</td></tr>"
                )
            events_block = (
                "<h2>Event log</h2>\n<table>"
                "<tr><th>t (s)</th><th>type</th><th>entities</th><th>severity</th></tr>\n"
                + "\n".join(rows)
                + "\n</table>"
            )

        return _PAGE.format(
            title=html.escape(self.title),
            stats_block=stats_block,
            map_block=map_block,
            events_block=events_block,
            extra_blocks="\n".join(self._extra),
        )

    def save(self, path: str) -> None:
        """Write the document to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())

    @staticmethod
    def _event_time(event: ComplexEvent | SimpleEvent) -> float:
        return event.t if isinstance(event, SimpleEvent) else event.t_end
