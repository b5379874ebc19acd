"""Fault-tolerant execution models: recovery, degradation, no-hang.

The regression that motivates half of this file: a ring member crashing
while the termination token is in flight (or in its mailbox) must never
hang the run — the fault-tolerant ring heals around the corpse and
regenerates lost tokens.
"""

import numpy as np
import pytest

from repro.chemistry.tasks import synthetic_task_graph
from repro.exec_models import make_model
from repro.exec_models.ft import FaultTolerantStatic, FaultTolerantWorkStealing
from repro.faults import FaultPlan, MessageFaults, RankCrash, StallWindow
from repro.simulate import commodity_cluster
from repro.util import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return synthetic_task_graph(300, 12, seed=3, skew=1.0)


@pytest.fixture(scope="module")
def machine():
    return commodity_cluster(8)


def crash_plan(base_makespan, rank=2, frac=0.3):
    return FaultPlan(crashes=(RankCrash(rank, frac * base_makespan),))


class TestZeroFaultGuarantee:
    """FT variants with no plan (or an empty plan) == plain, bit for bit."""

    def test_ft_ws_empty_plan_identical(self, graph, machine):
        a = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        b = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=FaultPlan())
        assert a.makespan == b.makespan
        assert (a.assignment == b.assignment).all()
        assert a.counters == b.counters

    def test_ft_ws_matches_plain_ws(self, graph, machine):
        plain = make_model("work_stealing").run(graph, machine, seed=4)
        ft = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        assert ft.makespan == plain.makespan
        assert (ft.assignment == plain.assignment).all()

    def test_ft_static_matches_plain_static(self, graph, machine):
        plain = make_model("static_block").run(graph, machine, seed=4)
        ft = FaultTolerantStatic().run(graph, machine, seed=4, faults=FaultPlan())
        assert ft.makespan == plain.makespan
        assert (ft.assignment == plain.assignment).all()


class TestCrashRecovery:
    def test_ws_completes_every_task_after_crash(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = crash_plan(base.makespan)
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0
        assert not r.degraded
        assert r.failed_ranks == (2,)
        assert (r.assignment >= 0).all()
        assert r.counters["ranks_recovered"] == 1.0
        # Recovery overhead is visible, not free.
        assert r.breakdown["failed"][2] > 0.0

    def test_crashed_rank_executes_nothing_after_death(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = crash_plan(base.makespan, rank=2, frac=0.25)
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        crash_time = plan.crashes[0].time
        ends = r.task_starts + r.task_durations
        on_dead = r.assignment == 2
        assert (ends[on_dead] <= crash_time + 1e-12).all()

    def test_static_degrades_instead(self, graph, machine):
        base = make_model("static_block").run(graph, machine, seed=4)
        plan = crash_plan(base.makespan)
        r = FaultTolerantStatic().run(graph, machine, seed=4, faults=plan)
        assert r.degraded
        assert 0.0 < r.completion_rate < 1.0
        assert r.counters["tasks_lost"] > 0
        # Detection happened: abandoned contacts were counted.
        assert r.counters["detected_failures"] > 0

    def test_early_crash_loses_more_for_static(self, graph, machine):
        base = make_model("static_block").run(graph, machine, seed=4)
        early = FaultTolerantStatic().run(
            graph, machine, seed=4, faults=crash_plan(base.makespan, frac=0.05)
        )
        late = FaultTolerantStatic().run(
            graph, machine, seed=4, faults=crash_plan(base.makespan, frac=0.8)
        )
        assert early.completion_rate < late.completion_rate


class TestTokenRingNoHang:
    """Ring-member crashes must never hang termination detection."""

    @pytest.mark.parametrize("crashed_rank", [0, 3, 7])
    def test_crash_of_any_ring_member(self, graph, machine, crashed_rank):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = crash_plan(base.makespan, rank=crashed_rank, frac=0.5)
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0
        assert r.failed_ranks == (crashed_rank,)

    def test_rank0_crash_before_token_launch(self, graph, machine):
        """Rank 0 owns the token launch; its death must hand that duty on."""
        plan = FaultPlan(crashes=(RankCrash(0, 1.0e-6),))
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0

    def test_two_crashes(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = FaultPlan(
            crashes=(
                RankCrash(1, 0.2 * base.makespan),
                RankCrash(5, 0.5 * base.makespan),
            )
        )
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0
        assert r.failed_ranks == (1, 5)
        assert r.counters["ranks_recovered"] == 2.0

    def test_message_loss_alone_terminates(self, graph, machine):
        """Dropped tokens/terminates are regenerated, not waited on."""
        plan = FaultPlan(message_faults=MessageFaults(drop=0.05), seed=3)
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0
        assert r.counters["messages_dropped"] > 0


class TestStallsAndDeterminism:
    def test_stall_shows_up_as_idle_not_failure(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = FaultPlan(
            stalls=(StallWindow(1, 0.1 * base.makespan, 0.4 * base.makespan),)
        )
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        assert r.completion_rate == 1.0
        assert r.failed_ranks == ()
        # The straggler's idle time includes the stall.
        assert r.breakdown["idle"][1] >= 0.2 * base.makespan

    def test_combined_faults_deterministic(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = FaultPlan(
            crashes=(RankCrash(2, 0.3 * base.makespan),),
            stalls=(StallWindow(4, 0.1 * base.makespan, 0.2 * base.makespan),),
            message_faults=MessageFaults(drop=0.02, duplicate=0.01),
            seed=11,
        )
        runs = [
            FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
            for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        assert (runs[0].assignment == runs[1].assignment).all()
        assert runs[0].counters == runs[1].counters
        for cat in runs[0].breakdown:
            assert (runs[0].breakdown[cat] == runs[1].breakdown[cat]).all()

    def test_breakdown_sums_to_wall_clock_under_faults(self, graph, machine):
        base = FaultTolerantWorkStealing().run(graph, machine, seed=4)
        plan = crash_plan(base.makespan)
        r = FaultTolerantWorkStealing().run(graph, machine, seed=4, faults=plan)
        total = sum(r.breakdown.values())
        assert np.allclose(total, r.makespan)


class TestRegistry:
    def test_ft_models_registered(self):
        assert make_model("ft_work_stealing").name == "ft_work_stealing"
        assert make_model("ft_static_block").name == "ft_static_block"


class TestValidation:
    """Bad options are refused where the model is made, not at its first
    run under a fault plan."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"token_timeout": -1.0}, {"token_timeout": 0.0}, {"token_timeout": "abc"}, {"retry": "x"}],
        ids=["negative-timeout", "zero-timeout", "string-timeout", "retry-not-a-policy"],
    )
    def test_bad_options_refused_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultTolerantWorkStealing(**kwargs)
        with pytest.raises(ConfigurationError):
            make_model("ft_work_stealing", **kwargs)

    def test_good_options_kept(self):
        from repro.faults import RetryPolicy

        retry = RetryPolicy(max_attempts=2)
        model = FaultTolerantWorkStealing(retry=retry, token_timeout=2.0e-3)
        assert model.retry is retry and model.token_timeout == 2.0e-3
