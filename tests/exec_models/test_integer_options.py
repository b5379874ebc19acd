"""Integer model options are integers: a float, a bool or a string is
refused at construction instead of being truncated by ``int()``."""

from functools import partial

import numpy as np
import pytest

from repro.balance.partition import _check_k_eps
from repro.exec_models.counter_dynamic import CounterDynamic
from repro.exec_models.node_counter import CounterPerNode
from repro.exec_models.scf_simulation import ScfSimulation
from repro.exec_models.termination import TokenRing
from repro.exec_models.work_stealing import WorkStealing
from repro.util import ConfigurationError

#: (constructor, option, smallest value) for every integer option.
SITES = [
    pytest.param(CounterDynamic, "chunk", 1, id="counter_dynamic-chunk"),
    pytest.param(CounterDynamic, "home_rank", 0, id="counter_dynamic-home_rank"),
    pytest.param(CounterPerNode, "chunk", 1, id="counter_per_node-chunk"),
    pytest.param(partial(ScfSimulation, "counter"), "chunk", 1, id="scf_simulation-chunk"),
    pytest.param(WorkStealing, "park_after", 1, id="work_stealing-park_after"),
]


@pytest.mark.parametrize("make, option, minimum", SITES)
@pytest.mark.parametrize("value", [0.5, 1.5, True, "2"])
def test_a_non_integer_is_refused_by_name(make, option, minimum, value):
    with pytest.raises(ConfigurationError, match=rf"{option} must be an integer >= {minimum}"):
        make(**{option: value})


@pytest.mark.parametrize("make, option, minimum", SITES)
def test_below_the_minimum_is_refused(make, option, minimum):
    with pytest.raises(ConfigurationError, match=option):
        make(**{option: minimum - 1})


@pytest.mark.parametrize("make, option, minimum", SITES)
def test_a_numpy_integer_is_accepted_as_int(make, option, minimum):
    model = make(**{option: np.int64(4)})
    value = getattr(model, option)
    assert value == 4 and type(value) is int


def test_the_model_name_shows_the_chunk_it_runs():
    assert CounterDynamic(chunk=np.int64(4)).name == "counter_dynamic(chunk=4)"
    assert CounterDynamic(chunk=1).name == "counter_dynamic"


def test_token_ring_ranks():
    assert TokenRing(np.int64(3)).dirty == [False] * 3
    for value in (0, 2.5, True, "4"):
        with pytest.raises(ConfigurationError, match="n_ranks must be an integer >= 1"):
            TokenRing(value)


def test_partition_k_keeps_its_message():
    with pytest.raises(ConfigurationError, match=r"^k must be an integer >= 1, got 2\.0$"):
        _check_k_eps(2.0, 0.05)
    _check_k_eps(np.int64(2), 0.05)
