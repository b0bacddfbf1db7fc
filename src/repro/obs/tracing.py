"""Hierarchical tracing spans.

A span measures one named unit of work; spans opened while another span
is active become its children, so a run's spans form the parent/child
tree a flamegraph renders: ingest → synopsis → RDF → store → query, with
per-span wall time and record counts.

Spans are deliberately single-threaded (each pipeline runs in one
thread of one process); the active-span stack lives on the
:class:`Tracer`, and the buffer of completed spans is bounded — overflow
is *counted*, never silently lost.
"""

from __future__ import annotations

from repro.obs.clock import monotonic
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span.

    Attributes:
        span_id: Unique id within the tracer (creation order).
        parent_id: Enclosing span's id, or ``None`` for a root span.
        name: Dotted operation name (``pipeline.record``, ``query.scan``).
        start_s: Start time relative to the tracer's epoch, in seconds. The
            epoch is taken when the tracer is built or unpickled, on the
            clock of the process that holds it.
        duration_s: Wall time between enter and exit, in seconds.
        records: Records attributed to the span via :meth:`Span.add_records`.
        depth: Nesting depth (0 for roots).
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    duration_s: float
    records: int
    depth: int

    @property
    def duration_ms(self) -> float:
        """Span wall time in milliseconds."""
        return self.duration_s * 1000.0


class Span:
    """An open span handle; use as a context manager."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "depth", "records", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        depth: int,
        records: int,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.records = records
        self._start = 0.0

    def add_records(self, n: int = 1) -> None:
        """Attribute ``n`` processed records to this span."""
        self.records += n

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self._start = monotonic()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        ended = monotonic()
        self._tracer._exit(self, ended - self._start)
        return False


class _NullSpan:
    """A reusable no-op span for disabled tracers."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    depth = 0
    records = 0

    def add_records(self, n: int = 1) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: The shared null span handed out by disabled tracers/registries.
NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and buffers the completed records.

    Args:
        max_spans: Completed-span buffer capacity; completions past it
            increment :attr:`dropped` instead of growing memory.
        enabled: ``False`` makes :meth:`span` return :data:`NULL_SPAN`.
    """

    def __init__(self, max_spans: int = 10_000, enabled: bool = True) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        self.enabled = enabled
        self._spans: list[SpanRecord] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._epoch = monotonic()
        self.dropped = 0

    def __getstate__(self) -> dict:
        # Everything but the epoch: a reading of this process's clock would
        # make equal tracers pickle differently and hand a restoring
        # process a start time from another clock.
        return {
            "max_spans": self.max_spans,
            "enabled": self.enabled,
            "_spans": self._spans,
            "_stack": self._stack,
            "_next_id": self._next_id,
            "dropped": self.dropped,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._epoch = monotonic()

    def span(self, name: str, records: int = 0) -> "Span | _NullSpan":
        """Open a span named ``name``; children of the active span nest."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            records=records,
        )
        self._next_id += 1
        return span

    def _enter(self, span: Span) -> None:
        self._stack.append(span)

    def _exit(self, span: Span, duration_s: float) -> None:
        # Exits happen in LIFO order under context-manager discipline;
        # tolerate (and trim past) stray handles so a leaked span cannot
        # poison parentage for the rest of the run.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return
        self._spans.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                start_s=span._start - self._epoch,
                duration_s=duration_s,
                records=span.records,
                depth=span.depth,
            )
        )

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Completed spans in completion order (children before parents)."""
        return tuple(self._spans)

    def roots(self) -> list[SpanRecord]:
        """Root spans (no parent), in completion order."""
        return [s for s in self._spans if s.parent_id is None]

    def children_of(self, span_id: int) -> list[SpanRecord]:
        """Direct children of one span, in completion order."""
        return [s for s in self._spans if s.parent_id == span_id]

    def reset(self) -> None:
        """Drop all completed spans and any active stack."""
        self._spans.clear()
        self._stack.clear()
        self._next_id = 0
        self.dropped = 0
        self._epoch = monotonic()
