"""Performance-variability models (the paper's "energy-induced" dynamics).

Experiment E7 injects rank slowdowns and measures how each execution model
absorbs them. A variability model maps ``(rank, time) -> speed multiplier``
(1.0 = nominal; 0.5 = half speed). Compute durations divide by the
multiplier sampled at task start.

Every model is a frozen dataclass whose fields are the parameters it was
built from: that is what a sweep cell key hashes
(:func:`repro.core.cache.fingerprint` encodes dataclasses field by field
and rejects anything else), so tables derived from a seed stay out of the
fields and equal parameters mean an equal key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.util import ConfigurationError, check_positive, spawn_rng


def _set(model: "VariabilityModel", **values: object) -> None:
    """Normalise fields (or attach a derived table) on a frozen model."""
    for name, value in values.items():
        object.__setattr__(model, name, value)


class VariabilityModel(ABC):
    """Maps (rank, simulated time) to a speed multiplier."""

    #: True when ``speed(rank, t)`` is constant in ``t``. Time-independent
    #: models allow batch evaluation of per-task compute costs (one NumPy
    #: division per dispatch burst instead of a ``speed`` call per task);
    #: time-dependent models must stay on the per-task path because the
    #: multiplier is sampled at each task's start time.
    time_independent: bool = False

    @abstractmethod
    def speed(self, rank: int, time: float) -> float:
        """Speed multiplier for ``rank`` at ``time``; must be > 0."""


@dataclass(frozen=True)
class NoVariability(VariabilityModel):
    """Homogeneous machine: every rank runs at nominal speed."""

    time_independent = True

    def speed(self, rank: int, time: float) -> float:
        return 1.0


@dataclass(frozen=True)
class StaticHeterogeneity(VariabilityModel):
    """A fixed set of ranks runs at a fixed fraction of nominal speed.

    This is the classic "slow node" scenario: e.g. 4 of 128 ranks at 0.5x
    models thermally throttled sockets.
    """

    slow_ranks: Iterable[int]
    factor: float

    time_independent = True

    def __post_init__(self) -> None:
        check_positive("factor", self.factor)
        _set(
            self,
            slow_ranks=frozenset(int(r) for r in self.slow_ranks),
            factor=float(self.factor),
        )

    def speed(self, rank: int, time: float) -> float:
        return self.factor if rank in self.slow_ranks else 1.0


@dataclass(frozen=True)
class RandomStaticVariability(VariabilityModel):
    """Per-rank lognormal speed multipliers, fixed over time.

    ``sigma`` is the standard deviation of log-speed; multipliers are
    normalized so their mean is 1.0 (total machine capacity is conserved,
    only its distribution varies).
    """

    n_ranks: int
    sigma: float
    seed: int = 0

    time_independent = True

    def __post_init__(self) -> None:
        check_positive("n_ranks", self.n_ranks)
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        rng = spawn_rng(self.seed, "random_static_variability", self.n_ranks)
        speeds = np.exp(rng.normal(0.0, self.sigma, size=self.n_ranks))
        _set(self, _speeds=speeds / speeds.mean())

    def speed(self, rank: int, time: float) -> float:
        return float(self._speeds[rank])


@dataclass(frozen=True)
class PeriodicThrottle(VariabilityModel):
    """DVFS-style duty cycling: ranks periodically drop to a lower speed.

    Each affected rank runs at ``factor`` for the first ``duty`` fraction
    of every ``period`` seconds, at nominal speed otherwise. Per-rank
    phase offsets are derived from the seed so throttling windows are
    decorrelated across the machine — the "energy-induced performance
    variability" regime of the paper's conclusion in its most literal
    form.
    """

    n_ranks: int
    period: float
    duty: float
    factor: float
    seed: int = 0
    affected: Iterable[int] | None = None

    def __post_init__(self) -> None:
        check_positive("n_ranks", self.n_ranks)
        check_positive("period", self.period)
        check_positive("factor", self.factor)
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigurationError(f"duty must be in [0, 1], got {self.duty}")
        rng = spawn_rng(self.seed, "periodic_throttle", self.n_ranks)
        _set(
            self,
            period=float(self.period),
            duty=float(self.duty),
            factor=float(self.factor),
            affected=frozenset(
                range(self.n_ranks) if self.affected is None else self.affected
            ),
            _phases=rng.uniform(0.0, float(self.period), size=self.n_ranks),
        )

    def speed(self, rank: int, time: float) -> float:
        if rank not in self.affected:
            return 1.0
        position = (time + self._phases[rank]) % self.period
        return self.factor if position < self.duty * self.period else 1.0


@dataclass(frozen=True)
class TransientSlowdown(VariabilityModel):
    """Time-windowed slowdowns: ``(rank, t_start, t_end, factor)`` tuples.

    Outside its windows a rank runs at nominal speed; overlapping windows
    multiply (two 0.5x windows give 0.25x).
    """

    windows: Iterable[tuple[int, float, float, float]]

    def __post_init__(self) -> None:
        windows = []
        for rank, t0, t1, factor in self.windows:
            if t1 <= t0:
                raise ConfigurationError(f"window end {t1} must exceed start {t0}")
            check_positive("factor", factor)
            windows.append((int(rank), float(t0), float(t1), float(factor)))
        _set(self, windows=tuple(windows))

    def speed(self, rank: int, time: float) -> float:
        mult = 1.0
        for wrank, t0, t1, factor in self.windows:
            if wrank == rank and t0 <= time < t1:
                mult *= factor
        return mult
