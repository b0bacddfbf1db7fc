"""Bench-side spans: the traced run's record of where time went.

Spans are opened by the benchmark around calls into each layer's public
functions (spans inside the program are a later change). They are kept
in memory and written as JSON lines when the run ends. One trace id
covers one repeat, batch or request; a span's parent is the span that
was open when it started.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._record)
        self._record[4] = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._record[5] = perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Collects ``[trace, span, parent, name, start, end]`` records."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._traces = 0

    def span(self, name: str) -> _Span:
        """Open a span under the current one; a root span starts a new trace."""
        if self._stack:
            parent = self._stack[-1]
            trace, parent_id = parent[0], parent[1]
        else:
            self._traces += 1
            trace, parent_id = self._traces, None
        record = [trace, len(self.spans) + 1, parent_id, name, 0.0, 0.0]
        self.spans.append(record)
        return _Span(self, record)

    def durations(self, name: str) -> list[float]:
        """Duration of every span called ``name``, in seconds."""
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name``."""
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s[2] is not None:
                covered[s[2]] = covered.get(s[2], 0.0) + (s[5] - s[4])
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[3]] = out.get(s[3], 0.0) + (s[5] - s[4]) - covered.get(s[1], 0.0)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span: trace, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            for trace, span, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "trace": trace,
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
