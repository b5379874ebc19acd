"""Name-based execution-model factory.

The study driver and the benchmarks refer to models by short names; this
registry maps them to configured instances, so an experiment sweep is just
a tuple of strings. Each registry entry is a (class, default options)
pair, and :func:`make_model` accepts extra keyword options on top of the
defaults — spelled in the *canonical* vocabulary shared with
:class:`~repro.exec_models.scf_simulation.ScfSimulation` via
:func:`normalize_model_options`, so the one-shot and whole-SCF surfaces
take the same option names.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.balance.greedy import locality_greedy, lpt_balancer
from repro.balance.partition import hypergraph_balancer
from repro.balance.semi_matching import semi_matching_balancer
from repro.exec_models.base import ExecutionModel
from repro.exec_models.counter_dynamic import CounterDynamic
from repro.exec_models.ft import FaultTolerantStatic, FaultTolerantWorkStealing
from repro.exec_models.node_counter import CounterPerNode
from repro.exec_models.inspector import InspectorExecutor
from repro.exec_models.static_ import StaticBlock, StaticCyclic
from repro.exec_models.work_stealing import WorkStealing
from repro.util import ConfigurationError

#: Accepted alternative spellings -> canonical constructor keyword. One
#: normalizer serves every option-taking surface (``make_model``,
#: ``ScfSimulation``), so callers never have to remember which layer
#: calls the knob what.
OPTION_ALIASES: dict[str, str] = {
    "chunk": "chunk",
    "chunk_size": "chunk",
    "order": "order",
    "home_rank": "home_rank",
    "steal": "steal",
    "steal_policy": "steal",
    "victim": "victim",
    "initial": "initial",
    "min_backoff": "min_backoff",
    "max_backoff": "max_backoff",
    "park_after": "park_after",
    "partition": "partition",
    "balancer": "balancer",
    "name": "name",
    "retry": "retry",
    "token_timeout": "token_timeout",
}


def normalize_model_options(options: dict[str, Any]) -> dict[str, Any]:
    """Map option spellings to canonical constructor keywords.

    Rejects unknown spellings and two spellings of the same canonical
    option in one call (``steal=`` and ``steal_policy=`` together).
    """
    out: dict[str, Any] = {}
    for key, value in options.items():
        canonical = OPTION_ALIASES.get(key)
        if canonical is None:
            known = ", ".join(sorted(OPTION_ALIASES))
            raise ConfigurationError(
                f"unknown model option {key!r}; known spellings: {known}"
            )
        if canonical in out:
            raise ConfigurationError(
                f"option {canonical!r} given more than once (alias collision on {key!r})"
            )
        out[canonical] = value
    return out


_SPECS: dict[str, tuple[Callable[..., ExecutionModel], dict[str, Any]]] = {
    "static_block": (StaticBlock, {}),
    "static_cyclic": (StaticCyclic, {}),
    "counter_dynamic": (CounterDynamic, {}),
    "counter_dynamic_chunk4": (CounterDynamic, {"chunk": 4}),
    "counter_dynamic_chunk16": (CounterDynamic, {"chunk": 16}),
    "counter_dynamic_guided": (CounterDynamic, {"chunk": 1, "order": "desc_cost"}),
    "counter_per_node": (CounterPerNode, {}),
    "counter_per_node_cost": (CounterPerNode, {"partition": "cost"}),
    "ft_work_stealing": (FaultTolerantWorkStealing, {}),
    "ft_static_block": (FaultTolerantStatic, {}),
    "work_stealing": (WorkStealing, {}),
    "work_stealing_hier": (WorkStealing, {"victim": "hierarchical"}),
    "work_stealing_one": (WorkStealing, {"steal": "one"}),
    "work_stealing_half_cost": (WorkStealing, {"steal": "half_cost"}),
    "work_stealing_ring": (WorkStealing, {"victim": "ring"}),
    "work_stealing_cyclic": (WorkStealing, {"initial": "cyclic"}),
    "inspector_lpt": (InspectorExecutor, {"balancer": lpt_balancer, "name": "inspector(lpt)"}),
    "inspector_locality": (
        InspectorExecutor,
        {"balancer": locality_greedy, "name": "inspector(locality_greedy)"},
    ),
    "inspector_semi_matching": (
        InspectorExecutor,
        {"balancer": semi_matching_balancer, "name": "inspector(semi_matching)"},
    ),
    "inspector_hypergraph": (
        InspectorExecutor,
        {"balancer": hypergraph_balancer, "name": "inspector(hypergraph)"},
    ),
}

MODEL_NAMES: tuple[str, ...] = tuple(sorted(_SPECS))


def make_model(name: str, **options: Any) -> ExecutionModel:
    """Instantiate an execution model by registry name.

    Extra keyword options (in any spelling
    :func:`normalize_model_options` accepts) override the registry
    defaults, e.g. ``make_model("work_stealing", steal_policy="one")``.
    """
    try:
        cls, defaults = _SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution model {name!r}; known: {', '.join(MODEL_NAMES)}"
        ) from None
    merged = {**defaults, **normalize_model_options(options)}
    try:
        return cls(**merged)
    except TypeError as exc:
        raise ConfigurationError(
            f"model {name!r} does not accept options "
            f"{sorted(set(merged) - set(defaults))}: {exc}"
        ) from None
