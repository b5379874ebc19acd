"""Measuring tools shared by every workload: the calibration kernel, the
interleaved operation timer, in-memory spans, the failure tally and the
pin comparison behind ``reference.json``.

Nothing here imports ``repro``: the instrument must not change when the
program does.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from typing import Any, Callable, Iterator

import numpy as np

#: Roughly what one calibration kernel costs on the reference host.
#: ``wall_norm_s`` is ``sum(op / calibration) * CALIB_NOMINAL_S``: seconds
#: on a host that runs the kernel in exactly this time.
CALIB_NOMINAL_S = 0.006

#: A new calibration sample is taken once the previous one is this old.
CALIB_GAP_S = 0.040

_CALIB_ARRAY = np.arange(20000, dtype=np.float64)


def calibrate() -> float:
    """Seconds taken by a fixed bytecode + NumPy kernel.

    Interpreter arithmetic plus cache-resident array sorting track the
    host's speed states best (spread of workload/kernel over ten runs:
    3-4 %); allocation-heavy or memory-streaming kernels were tried and
    are 3-5x noisier than the workloads they were meant to normalise.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    for _ in range(12):
        np.sort(np.sin(_CALIB_ARRAY)).sum()
    return time.perf_counter() - start


def calibrate_median(samples: int = 9) -> float:
    return statistics.median(calibrate() for _ in range(samples))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); degenerate inputs repeat the single value."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class OpTimer:
    """Times keyed operations with calibration samples interleaved.

    The host this runs on changes speed by up to 1.5x for seconds at a
    time, so a raw wall-clock median moves with the host, not with the
    program. Each operation is therefore divided by the mean of the
    calibration samples taken just before and just after it; the
    statistic per key is the median over passes, and a repetition costs
    the sum over keys. Raw seconds are kept alongside.
    """

    def __init__(self) -> None:
        # ("c", seconds) and ("o", key, seconds) in program order.
        self._events: list[tuple] = []
        self._last_calib_at = -1.0
        self._mark = 0.0

    def _maybe_calibrate(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last_calib_at >= CALIB_GAP_S:
            self._events.append(("c", calibrate()))
            self._last_calib_at = time.perf_counter()

    def begin(self) -> None:
        """Start the clock for the next operation."""
        self._maybe_calibrate()
        self._mark = time.perf_counter()

    def lap(self, key: str) -> None:
        """Close the operation running since ``begin``/the last ``lap``."""
        now = time.perf_counter()
        self._events.append(("o", key, now - self._mark))
        self._maybe_calibrate()
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def op(self, key: str) -> Iterator[None]:
        self.begin()
        yield
        self.lap(key)

    def finish(self) -> None:
        if self._events and self._events[-1][0] == "o":
            self._maybe_calibrate(force=True)

    # ------------------------------------------------------------------
    def samples(self) -> dict[str, list[tuple[float, float, float]]]:
        """key -> [(raw seconds, seconds / local calibration, how far the
        two calibrations around the operation disagree)] in order."""
        events = self._events
        after: list[float | None] = [None] * len(events)
        nxt = None
        for i in range(len(events) - 1, -1, -1):
            if events[i][0] == "c":
                nxt = events[i][1]
            after[i] = nxt
        out: dict[str, list[tuple[float, float, float]]] = {}
        before = None
        for i, event in enumerate(events):
            if event[0] == "c":
                before = event[1]
                continue
            pair = [c for c in (before, after[i]) if c is not None]
            local = sum(pair) / len(pair)
            drift = (max(pair) - min(pair)) / min(pair)
            out.setdefault(event[1], []).append((event[2], event[2] / local, drift))
        return out

    def summary(self) -> dict[str, Any]:
        """The per-repetition statistic plus what it was made from."""
        per_key = {}
        raw_total = norm_total = 0.0
        drifts = []
        for key, pairs in self.samples().items():
            drifts += [p[2] for p in pairs]
            raw = [p[0] for p in pairs]
            norm = [p[1] for p in pairs]
            raw_q, norm_q = quartiles(raw), quartiles(norm)
            raw_total += raw_q[1]
            norm_total += norm_q[1]
            per_key[key] = {
                "n": len(pairs),
                "raw_s": {"q1": raw_q[0], "median": raw_q[1], "q3": raw_q[2]},
                "norm": {"q1": norm_q[0], "median": norm_q[1], "q3": norm_q[2]},
            }
        return {
            "wall_raw_s": raw_total,
            "wall_norm_s": norm_total * CALIB_NOMINAL_S,
            # Typical change of host speed across one operation: what the
            # local normalisation cannot absorb.
            "op_drift": statistics.median(drifts) if drifts else 0.0,
            "ops": per_key,
        }


class Tracer:
    """In-memory spans recorded from ``bench/`` around calls into layers.

    A span is ``{id, name, start, end, parent, workload, rep, counts}``;
    the layer is the part of ``name`` before the first dot. Self time is
    the span's duration minus what its children cover.
    """

    def __init__(
        self, workload: str, rep: int = 0, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.workload = workload
        self.rep = rep
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def add(
        self, name: str, start: float, end: float, parent: int | None = None, **counts: Any
    ) -> int:
        """Record a span timed elsewhere (e.g. from a job record)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": max(end, start),
                "parent": parent,
                "workload": self.workload,
                "rep": self.rep,
                "counts": counts,
            }
        )
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[dict[str, Any]]:
        span_id = self.add(name, self.clock(), 0.0, **counts)
        self._stack.append(span_id)
        try:
            yield self.spans[span_id]
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = self.clock()

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span in self.spans:
            own = (span["end"] - span["start"]) - covered[span["id"]]
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def layer_shares(self) -> dict[str, float]:
        """Layer -> share of the root span's duration spent as self time."""
        roots = [s for s in self.spans if s["parent"] is None]
        wall = sum(s["end"] - s["start"] for s in roots)
        shares: dict[str, float] = {}
        for name, own in self.self_times().items():
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + (own / wall if wall > 0 else 0.0)
        return shares


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.messages.append(message)

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(message)


# ----------------------------------------------------------------------
# Pins: what reference.json stores and how it is compared.
# ----------------------------------------------------------------------
def hexf(value: float) -> str:
    """A float as its exact hex literal (one ulp off is a different pin)."""
    return float(value).hex()


def digest(array: Any) -> str:
    """sha256 of an integer array's canonical bytes."""
    data = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:32]


def approx(value: float, tol: float) -> dict[str, float]:
    """A pin compared as ``|actual - value| <= tol`` (SCF energies)."""
    return {"approx": float(value), "tol": tol}


def compare_pins(actual: Any, expected: Any, path: str, tally: Tally) -> None:
    """Compare a pin tree against the stored one, leaf by leaf.

    Under a ``counters`` mapping, a key the program no longer reports (a
    counter a refactor removed) is not an error; everywhere else a
    missing key is, and so is any key reported with another value.
    """
    if isinstance(expected, dict) and "approx" in expected:
        value = actual["approx"] if isinstance(actual, dict) else actual
        ok = isinstance(value, (int, float)) and abs(value - expected["approx"]) <= expected["tol"]
        tally.check(ok, f"pin {path}: {value!r} not within {expected['tol']} of {expected['approx']!r}")
        return
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            tally.fail(f"pin {path}: expected a mapping, got {actual!r}")
            return
        for key, sub in expected.items():
            if key in actual:
                compare_pins(actual[key], sub, f"{path}.{key}", tally)
            elif not path.endswith(".counters"):
                tally.fail(f"pin {path}.{key}: missing from this run")
        return
    tally.check(actual == expected, f"pin {path}: {actual!r} != pinned {expected!r}")
