"""Columnar simple-event and complex-event recognition over one micro-batch.

The batch form of the per-record extractor and detector stages. Each
component owns the vector half of its own rule next to the scalar one:
its guard names the records that must run the scalar rule
(:meth:`SimpleEventExtractor.replay_mask`,
:meth:`SimpleEventExtractor.proximity_pairs`,
:meth:`CollisionRiskDetector.replay_mask`), or it runs columnar outright
and keys its events by the position raising them
(:meth:`LoiteringDetector.process_recordbatch`,
:meth:`CapacityDemandDetector.process_recordbatch`). :func:`detect` only
sequences them. It holds no state: the components are passed in on every
call, so a caller that replaces them (a checkpoint restore) never runs
stale ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cep.detectors import (
    CapacityDemandDetector,
    CollisionRiskDetector,
    LoiteringDetector,
    RendezvousDetector,
)
from repro.cep.simple import SimpleEventExtractor
from repro.model.events import ComplexEvent, SimpleEvent, SimpleEventLog

if TYPE_CHECKING:
    from repro.cep.hotspot_stream import StreamingHotspotDetector
    from repro.core.recordbatch import RecordBatch


def detect(
    rb: RecordBatch,
    mask: np.ndarray,
    inside_cols: Sequence[np.ndarray],
    *,
    extractor: SimpleEventExtractor,
    collision: CollisionRiskDetector,
    loitering: LoiteringDetector,
    rendezvous: RendezvousDetector,
    capacity: CapacityDemandDetector | None,
    hotspots: StreamingHotspotDetector | None,
    simple_events: SimpleEventLog,
) -> tuple[list[ComplexEvent], dict[str, int]]:
    """The events of ``rb``'s records where ``mask`` holds.

    Equivalent to one ``extractor.process`` call per masked record, its
    events appended to ``simple_events``, then the detectors in the
    per-record order (collision, loitering, rendezvous, capacity,
    hotspots): the same events in the same order and the same component
    state after. ``inside_cols[i]`` is ``contains_batch`` of the
    extractor's zone ``i`` (capacity's sector ``i``) over the batch.

    One walk over the masked records: guard-flagged ones call the scalar
    extractor / collision detector, the proximity hits between them are
    logged unbuilt as one run, the others advance per-entity latest state
    lazily, and the columnar loitering and capacity events are
    interleaved by position.

    Returns the complex events, and how many records (pairs, for
    ``proximity_band``) each guard sent to a scalar kernel.
    """
    active = np.flatnonzero(mask)
    ex_int = extractor.replay_mask(rb, mask, inside_cols)
    coll_int = np.zeros(len(rb), dtype=bool)
    prox_vec = np.zeros(0, dtype=bool)
    prox_start: list[int] = [0]
    prox_subj: list = []
    prox_other: list = []
    band = 0
    if active.size:
        own, latest = rb.asof_join(active)
        (prox_start, prox_subj, prox_other), prox_vec, band = extractor.proximity_pairs(
            rb, active, own, latest
        )
        ex_int[active] |= prox_vec
        coll_int[active] = collision.replay_mask(rb, active, own, latest)
    replays = {
        "extractor": int(np.count_nonzero(ex_int)),
        "collision": int(np.count_nonzero(coll_int)),
        "proximity_vector_kernel": int(np.count_nonzero(prox_vec)),
        "proximity_band": band,
    }
    loit_get = loitering.process_recordbatch(rb, mask).get
    cap_map = {} if capacity is None else capacity.process_recordbatch(rb, active, inside_cols)

    reports = rb.reports
    codes_l = rb.entity_codes.tolist()
    t_l = rb.t.tolist()
    ex_l = ex_int.tolist()
    coll_l = coll_int.tolist()
    out: list[ComplexEvent] = []
    # Latest unsynced record per code. Flushed (in first-appearance
    # order, preserving dict insertion order of new entities) before
    # every scalar component call and at batch end; a flush is the exact
    # state residue of the scalar calls for a no-event record, and
    # re-flushing after a scalar call is idempotent.
    pending: dict[int, int] = {}

    def flush() -> None:
        for p2 in pending.values():
            extractor.advance_quiet(reports[p2])
            collision.note_position(reports[p2])
        pending.clear()

    # Proximity hits read no extractor state and are no-ops for the
    # rendezvous detector: a record not replayed just joins the run from
    # `run_lo` (no flush, no `events`); a replayed one closes it.
    run_lo = 0
    rdv_process = rendezvous.process
    rdv_tick = rendezvous.tick
    rdv_timing = rendezvous.timing_pairs
    for i, p in enumerate(active.tolist()):
        r = reports[p]
        events: Sequence[SimpleEvent] = ()
        if ex_l[p]:
            if pending:
                flush()
            hi = prox_start[i]
            extractor.log_proximity(simple_events, prox_subj[run_lo:hi], prox_other[run_lo:hi])
            run_lo = prox_start[i + 1]
            events = extractor.process(r)
            simple_events.extend(events)
        new_complex: list[ComplexEvent] | None = None
        if coll_l[p]:
            if pending:
                flush()
            new_complex = collision.process(r) or None
        pending[codes_l[p]] = p

        # --- remaining detectors, in per-record order -----------------
        lev = loit_get(p)
        if lev is not None:
            new_complex = (new_complex or []) + [lev]
        if events:
            if new_complex is None:
                new_complex = []
            for event in events:
                new_complex.extend(rdv_process(event))
            new_complex.extend(rdv_tick(t_l[p]))
        elif rdv_timing:
            # tick() with no co-stopped pairs is a pure no-op.
            ticked = rdv_tick(t_l[p])
            if ticked:
                new_complex = (new_complex or []) + ticked
        if cap_map and p in cap_map:
            new_complex = (new_complex or []) + cap_map[p]
        if hotspots is not None:
            new_complex = (new_complex or []) + hotspots.process(r)
        if new_complex:
            out.extend(new_complex)

    extractor.log_proximity(simple_events, prox_subj[run_lo:], prox_other[run_lo:])
    if pending:
        flush()
    return out, replays
