"""Shared utilities: error types, validation, deterministic RNG helpers."""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    SimulationError,
    SchedulingError,
    PartitionError,
    RankFailedError,
)
from repro.util.validation import (
    check_positive,
    check_integer,
    check_non_negative,
    check_probability,
    check_in,
)
from repro.util.rng import spawn_rng, derive_seed
from repro.util.lazy import once_property

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulingError",
    "PartitionError",
    "RankFailedError",
    "check_positive",
    "check_integer",
    "check_non_negative",
    "check_probability",
    "check_in",
    "spawn_rng",
    "derive_seed",
    "once_property",
]
