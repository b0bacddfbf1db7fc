"""Checkpoint/recovery for the streaming layer.

The paper's in-situ processing must sustain high-rate streams under
operational latency constraints; in any real deployment that implies
surviving worker crashes without losing or double-counting reports. This
module provides the recovery substrate:

- the **snapshot protocol**:
  :meth:`repro.core.pipeline.MobilityPipeline.snapshot` pickles every
  component its ``_STATEFUL_COMPONENTS`` names into one payload and
  ``restore`` unpickles it; components with append-only state write
  their own ``__getstate__``/``__setstate__`` (rule C1 checks both);
- a :class:`Checkpoint`: that payload plus the **source offset** (records
  consumed so far) taken at a record boundary — the single-process
  analogue of a barrier-aligned consistent snapshot;
- :class:`CheckpointStore` backends: :class:`InMemoryCheckpointStore` for
  tests/benchmarks and :class:`FileCheckpointStore` persisting pickled
  checkpoints to a directory, each behind a SHA-256 of its bytes — a
  truncated or bit-flipped file raises :class:`CheckpointCorruptError`
  and :meth:`CheckpointStore.latest` falls back to the newest checkpoint
  that still verifies.

Recovery replays the source suffix from the stored offset (see
:class:`repro.streams.replay.ReplayLog`); skipping the already-consumed
prefix is what deduplicates replayed records, so a crash-resume run
produces outputs and counts identical to an uninterrupted run.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Checkpoint:
    """A consistent snapshot of a running computation.

    Attributes:
        checkpoint_id: Monotonically increasing id assigned by the caller
            (use :meth:`CheckpointStore.next_id`).
        source_offset: Number of source records fully processed when the
            snapshot was taken. Resume skips exactly this prefix.
        states: The state payload, opaque to the stores: the bytes of
            :meth:`repro.core.pipeline.MobilityPipeline.snapshot`. It
            must be self-contained (serialized or deep-copied), never
            aliased to live state.
    """

    checkpoint_id: int
    source_offset: int
    states: Any

    def __post_init__(self) -> None:
        if self.source_offset < 0:
            raise ValueError("source_offset must be >= 0")


class CheckpointCorruptError(ValueError):
    """A stored checkpoint is truncated, altered or unreadable."""


class CheckpointVersionError(ValueError):
    """An intact checkpoint payload written in another format version.

    Distinct from :class:`CheckpointCorruptError`: the file verifies, so
    :meth:`CheckpointStore.latest` returns it rather than counting it as
    corrupt — and falling back to an older file would not help, because
    that one is just as old a format. The payload's reader raises this
    before touching any component state.
    """

    def __init__(self, found: int, expected: int) -> None:
        super().__init__(found, expected)
        self.found = found
        self.expected = expected

    def __str__(self) -> str:
        return (
            f"checkpoint payload is format version {self.found}, "
            f"this program reads version {self.expected}"
        )


class CheckpointStore:
    """Interface for checkpoint persistence backends."""

    #: Stored checkpoints :meth:`latest` passed over because they failed
    #: their integrity check.
    corrupt_skipped: int = 0

    def save(self, checkpoint: Checkpoint) -> None:
        """Persist one checkpoint (and apply the retention policy)."""
        raise NotImplementedError

    def load(self, checkpoint_id: int) -> Checkpoint:
        """Load a checkpoint by id.

        Raises ``KeyError`` when absent and
        :class:`CheckpointCorruptError` when it fails verification.
        """
        raise NotImplementedError

    def latest(self) -> Checkpoint | None:
        """The newest checkpoint that verifies, or ``None`` when none does.

        Resuming from an older checkpoint only replays a longer suffix,
        so a corrupt newest checkpoint costs work, never correctness;
        each one passed over is counted in :attr:`corrupt_skipped`.
        """
        for checkpoint_id in reversed(self.checkpoint_ids()):
            try:
                return self.load(checkpoint_id)
            except CheckpointCorruptError:
                self.corrupt_skipped += 1
        return None

    def checkpoint_ids(self) -> list[int]:
        """All stored checkpoint ids, ascending."""
        raise NotImplementedError

    def next_id(self) -> int:
        """The next free checkpoint id (max stored + 1)."""
        ids = self.checkpoint_ids()
        return (ids[-1] + 1) if ids else 0


class InMemoryCheckpointStore(CheckpointStore):
    """Keeps checkpoints in a dict; retains only the most recent ``retain``."""

    def __init__(self, retain: int = 3) -> None:
        if retain <= 0:
            raise ValueError("retain must be positive")
        self._retain = retain
        self._checkpoints: dict[int, Checkpoint] = {}

    def save(self, checkpoint: Checkpoint) -> None:
        self._checkpoints[checkpoint.checkpoint_id] = checkpoint
        for stale in sorted(self._checkpoints)[: -self._retain]:
            del self._checkpoints[stale]

    def load(self, checkpoint_id: int) -> Checkpoint:
        return self._checkpoints[checkpoint_id]

    def checkpoint_ids(self) -> list[int]:
        return sorted(self._checkpoints)


class FileCheckpointStore(CheckpointStore):
    """Writes checkpoints to ``<directory>/checkpoint-<id>.pkl``.

    Survives process crashes: a fresh store opened on the same directory
    sees the previous run's checkpoints. States must therefore be
    picklable (a pipeline snapshot is already bytes, so pickling it is a
    buffer copy). A file is the
    SHA-256 of the pickled checkpoint followed by the pickle itself.

    One writer per directory: the directory is listed once, at open
    (sweeping ``*.tmp`` files a crash mid-write left behind, ignoring
    names whose id part is not all ASCII digits), and the id list is
    kept in memory from then on.
    """

    _PREFIX = "checkpoint-"
    _SUFFIX = ".pkl"
    _DIGEST_BYTES = hashlib.sha256().digest_size

    def __init__(self, directory: str, retain: int = 3) -> None:
        if retain <= 0:
            raise ValueError("retain must be positive")
        self._dir = directory
        self._retain = retain
        os.makedirs(directory, exist_ok=True)
        self._ids: list[int] = []
        for name in os.listdir(directory):
            if not name.startswith(self._PREFIX):
                continue
            if name.endswith(self._SUFFIX + ".tmp"):
                os.remove(os.path.join(directory, name))
            elif name.endswith(self._SUFFIX):
                # Only names this store writes: a stray ``checkpoint-latest.pkl``
                # or ``checkpoint--1.pkl`` is someone else's file, not an id.
                id_part = name[len(self._PREFIX) : -len(self._SUFFIX)]
                if id_part.isascii() and id_part.isdigit():
                    self._ids.append(int(id_part))
        self._ids.sort()

    def _path(self, checkpoint_id: int) -> str:
        return os.path.join(self._dir, f"{self._PREFIX}{checkpoint_id}{self._SUFFIX}")

    def save(self, checkpoint: Checkpoint) -> None:
        body = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        # Write-then-rename so a crash mid-write never leaves a truncated
        # file under a checkpoint's name.
        tmp = self._path(checkpoint.checkpoint_id) + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(hashlib.sha256(body).digest())
            fh.write(body)
        os.replace(tmp, self._path(checkpoint.checkpoint_id))
        if checkpoint.checkpoint_id not in self._ids:
            bisect.insort(self._ids, checkpoint.checkpoint_id)
        while len(self._ids) > self._retain:
            os.remove(self._path(self._ids.pop(0)))

    def load(self, checkpoint_id: int) -> Checkpoint:
        path = self._path(checkpoint_id)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise KeyError(checkpoint_id) from None
        except OSError as exc:
            raise CheckpointCorruptError(f"{path}: unreadable ({exc})") from exc
        digest, body = blob[: self._DIGEST_BYTES], blob[self._DIGEST_BYTES :]
        if (
            len(digest) < self._DIGEST_BYTES
            or hashlib.sha256(body).digest() != digest
        ):
            raise CheckpointCorruptError(
                f"{path}: SHA-256 mismatch over {len(body)} bytes"
            )
        return pickle.loads(body)

    def checkpoint_ids(self) -> list[int]:
        return list(self._ids)
