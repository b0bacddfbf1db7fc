"""Pattern compilation to NFAs and the recognition engine.

Semantics: *skip-till-next-match*. A run waits in its current state;
events that match an outgoing transition advance it (one run per matching
transition), events matching a forbidden (negated) atom kill it, all other
events are skipped. Runs older than the pattern window are pruned. A run
reaching an accept state emits a :class:`PatternMatch` and terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.cep.patterns import Atom, Iter, MatchContext, Neg, Or, Pattern, Seq
from repro.model.events import ComplexEvent, EventSeverity, SimpleEvent


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """One completed pattern match."""

    pattern_name: str
    key: Any
    events: tuple[SimpleEvent, ...]

    @property
    def t_start(self) -> float:
        """Time of the first contributing event."""
        return self.events[0].t

    @property
    def t_end(self) -> float:
        """Time of the completing event (detection-time basis)."""
        return self.events[-1].t

    def to_complex_event(self, severity: EventSeverity = EventSeverity.WARNING) -> ComplexEvent:
        """Convert the match to the system-wide complex-event type."""
        entity_ids = tuple(dict.fromkeys(e.entity_id for e in self.events))
        return ComplexEvent(
            event_type=self.pattern_name,
            entity_ids=entity_ids,
            t_start=self.t_start,
            t_end=self.t_end,
            severity=severity,
            contributing=self.events,
        )


class NFA:
    """A compiled pattern automaton.

    States are integers; 0 is the start state. ``transitions[s]`` is the
    list of ``(atom, target)`` edges out of ``s``; ``forbidden[s]`` lists
    atoms that kill a run waiting in ``s``; ``accepts`` are the final
    states.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.transitions: dict[int, list[tuple[Atom, int]]] = {0: []}
        self.forbidden: dict[int, list[Atom]] = {}
        self.accepts: set[int] = set()

    def new_state(self) -> int:
        """Allocate a fresh state."""
        state = next(self._counter)
        self.transitions[state] = []
        return state

    def add_edge(self, source: int, atom: Atom, target: int) -> None:
        """Add a transition edge."""
        self.transitions[source].append((atom, target))

    def add_forbidden(self, state: int, atom: Atom) -> None:
        """Mark an atom as killing runs waiting in ``state``."""
        self.forbidden.setdefault(state, []).append(atom)

    @property
    def n_states(self) -> int:
        """Number of states (including start)."""
        return len(self.transitions)

    @classmethod
    def compile(cls, pattern: Pattern) -> NFA:
        """Compile a pattern expression into an automaton."""
        nfa = cls()
        exits = nfa._compile(pattern, {0})
        nfa.accepts = exits
        return nfa

    def _compile(self, pattern: Pattern, entries: set[int]) -> set[int]:
        if isinstance(pattern, Atom):
            target = self.new_state()
            for entry in entries:
                self.add_edge(entry, pattern, target)
            return {target}
        if isinstance(pattern, Seq):
            return self._compile_seq(pattern, entries)
        if isinstance(pattern, Or):
            exits: set[int] = set()
            for branch in pattern.branches:
                exits |= self._compile(branch, entries)
            return exits
        if isinstance(pattern, Iter):
            return self._compile_iter(pattern, entries)
        if isinstance(pattern, Neg):
            raise ValueError("Neg may only appear inside a Seq")
        raise TypeError(f"unknown pattern type: {type(pattern).__name__}")

    def _compile_seq(self, pattern: Seq, entries: set[int]) -> set[int]:
        current = entries
        pending_neg: list[Atom] = []
        compiled_positive = False
        for part in pattern.parts:
            if isinstance(part, Neg):
                if not compiled_positive:
                    raise ValueError("Seq cannot start with a Neg component")
                pending_neg.append(part.atom)
                continue
            if pending_neg:
                for state in current:
                    for atom in pending_neg:
                        self.add_forbidden(state, atom)
                pending_neg = []
            current = self._compile(part, current)
            compiled_positive = True
        if pending_neg:
            raise ValueError("Seq cannot end with a Neg component")
        return current

    def _compile_iter(self, pattern: Iter, entries: set[int]) -> set[int]:
        current = entries
        exits: set[int] = set()
        for i in range(pattern.max_count):
            current = self._compile(pattern.atom, current)
            if i + 1 >= pattern.min_count:
                exits |= current
        return exits


@dataclass
class _Run:
    state: int
    context: MatchContext
    t_start: float


class PatternEngine:
    """Runs one compiled pattern over a keyed simple-event stream.

    Args:
        pattern: The pattern expression.
        window_s: Maximum allowed span between a match's first and last
            events; runs exceeding it are pruned.
        key_fn: Partitioning key for runs (default: the entity id).
        name: The emitted matches' ``pattern_name``.
    """

    def __init__(
        self,
        pattern: Pattern,
        window_s: float,
        key_fn: Callable[[SimpleEvent], Any] | None = None,
        name: str = "pattern",
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.nfa = NFA.compile(pattern)
        self.window_s = window_s
        self.key_fn = key_fn or (lambda event: event.entity_id)
        self.name = name
        self._runs: dict[Any, list[_Run]] = {}

    def process(self, event: SimpleEvent) -> list[PatternMatch]:
        """Feed one event (event-time order); returns completed matches."""
        key = self.key_fn(event)
        runs = self._runs.setdefault(key, [])
        matches: list[PatternMatch] = []
        survivors: list[_Run] = []

        # Existing runs: prune, kill, advance.
        for run in runs:
            if event.t - run.t_start > self.window_s:
                continue  # window expired
            if any(atom.matches(event, run.context) for atom in self.nfa.forbidden.get(run.state, ())):
                continue  # negation violated
            advanced = False
            for atom, target in self.nfa.transitions[run.state]:
                if atom.matches(event, run.context):
                    new_run = _Run(
                        state=target,
                        context=run.context.extended(event),
                        t_start=run.t_start,
                    )
                    if target in self.nfa.accepts:
                        matches.append(
                            PatternMatch(
                                pattern_name=self.name, key=key, events=new_run.context.events
                            )
                        )
                    else:
                        survivors.append(new_run)
                    advanced = True
            if not advanced:
                survivors.append(run)  # skip-till-next-match: keep waiting

        # New run from the start state.
        for atom, target in self.nfa.transitions[0]:
            if atom.matches(event, MatchContext()):
                context = MatchContext((event,))
                if target in self.nfa.accepts:
                    matches.append(
                        PatternMatch(pattern_name=self.name, key=key, events=context.events)
                    )
                else:
                    survivors.append(_Run(state=target, context=context, t_start=event.t))

        self._runs[key] = survivors
        return matches

    def process_all(self, events: Iterable[SimpleEvent]) -> list[PatternMatch]:
        """Batch helper: feed many events, collect all matches."""
        out: list[PatternMatch] = []
        for event in events:
            out.extend(self.process(event))
        return out

    def active_runs(self, key: Any) -> int:
        """Number of live partial matches for a key (introspection)."""
        return len(self._runs.get(key, ()))

    def partial_states(self, key: Any) -> list[int]:
        """Current NFA states of a key's live runs (forecasting input)."""
        return [run.state for run in self._runs.get(key, ())]
