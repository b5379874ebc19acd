"""Append-only, fsynced JSONL log of a sweep's settled cells.

The result cache (:mod:`repro.core.cache`) is the sweep's only
checkpoint: a rerun over the same cache serves every settled cell from
it. :class:`SweepJournal` is a write-only record next to it, one JSON
line per settled cell (content key, label, status, attempt count, a
pointer to the stored result), flushed and fsynced before the sweep
moves on. Nothing in the package reads it back; ``bench/`` times its
appends.

- **Torn writes stay contained.** A kill mid-append leaves at most one
  partial trailing line; the next :meth:`SweepJournal.append` seals it
  off with a newline, so later lines are never merged into it.
- **Append is signal-deferred.** The sweep wraps each store-write +
  journal-append in :func:`deferred_signals`, so SIGINT and SIGTERM are
  held until both land and are then re-raised.

File naming: one journal per sweep, keyed by :func:`sweep_id` (a sha256
over the sorted cell keys), so different sweeps sharing a directory
never collide.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import signal
import threading
from dataclasses import asdict, dataclass
from hashlib import sha256
from typing import Iterable, Iterator

#: Journal format version; bump on incompatible line-schema changes.
JOURNAL_VERSION = 1


def sweep_id(keys: Iterable[str]) -> str:
    """A stable identity for one sweep: sha256 over its sorted cell keys.

    Order-independent, so the same grid always names the same journal
    regardless of cell enumeration order.
    """
    digest = sha256()
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One durable fact: cell ``key`` reached ``status``.

    ``result_path`` is informational: the pointer into the result cache
    where the value was written.
    """

    key: str
    label: str
    status: str  #: "done" | "failed"
    attempts: int = 1
    result_path: str = ""
    error: str = ""  #: for "failed": "ErrorType: message"


class SweepJournal:
    """Append-only JSONL log of one sweep's settled cells.

    Args:
        path: the journal file (created on first append; parent
            directories are created as needed).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.appended = 0  #: entries written by this instance
        self._tail_checked = False

    # ------------------------------------------------------------------
    @classmethod
    def for_sweep(
        cls, directory: str | os.PathLike, keys: Iterable[str]
    ) -> "SweepJournal":
        """The canonical per-sweep journal file inside ``directory``."""
        name = f"sweep-{sweep_id(keys)[:16]}.jsonl"
        return cls(pathlib.Path(directory) / name)

    # ------------------------------------------------------------------
    def append(self, entry: JournalEntry) -> None:
        """Durably record one entry: single write, flush, fsync."""
        record = {"v": JOURNAL_VERSION, **asdict(entry)}
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._tail_checked:
            # A torn trailing write has no newline; terminate it so the
            # first entry of this session cannot merge into the fragment
            # (which would corrupt a valid line too).
            try:
                with open(self.path, "rb") as fh:
                    fh.seek(0, os.SEEK_END)
                    if fh.tell() > 0:
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            line = "\n" + line
            except FileNotFoundError:
                pass
            self._tail_checked = True
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self.appended += 1

    def rotate(self) -> None:
        """Discard any prior journal: each run starts a fresh file."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self.appended = 0


@contextlib.contextmanager
def deferred_signals(
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
) -> Iterator[None]:
    """Hold SIGINT/SIGTERM across a critical section, re-raise after.

    Guards the store-write + journal-append pair so an interrupt can
    never tear them apart. Outside the main thread (where handlers
    cannot be installed) this is a no-op — worker pools deliver results
    to the main thread in this codebase, so the guarantee holds where it
    matters.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    received: list[tuple[int, object]] = []
    previous = {}
    try:
        for signum in signals:
            previous[signum] = signal.signal(
                signum, lambda s, frame: received.append((s, frame))
            )
    except (ValueError, OSError):
        # Exotic contexts (no signal support): run unguarded.
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        yield
        return
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum, frame in received:
            handler = previous[signum]
            if callable(handler):
                handler(signum, frame)
            elif signum == signal.SIGINT:
                raise KeyboardInterrupt
            else:
                signal.raise_signal(signum)
