"""FailureDetector visibility rules and the retry/backoff helper."""

import numpy as np
import pytest

from repro.faults import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    RankCrash,
    RetryPolicy,
    with_retries,
)
from repro.simulate.engine import Engine, Timeout
from repro.simulate.network import Network, NetworkModel
from repro.util import ConfigurationError, RankFailedError


def make_detector(crash_time=1.0, latency=0.5, n_ranks=4):
    engine = Engine()
    network = Network(engine, NetworkModel(), n_ranks)
    plan = FaultPlan(
        crashes=(RankCrash(1, crash_time),), detection_latency=latency
    )
    injector = FaultInjector(plan, engine, network)
    injector.arm({})
    return engine, injector, FailureDetector(injector)


class TestFailureDetector:
    def test_heartbeat_visibility_after_latency(self):
        engine, injector, detector = make_detector(crash_time=1.0, latency=0.5)
        engine.schedule(10.0, lambda: None)  # keep the clock advancing
        engine.run(until=1.2)
        assert injector.is_dead(1)
        assert not detector.is_suspected(1)  # dead but inside the window
        engine.run(until=2.0)
        assert detector.is_suspected(1)
        assert detector.suspects() == {1}

    def test_report_makes_death_immediately_visible(self):
        engine, injector, detector = make_detector(crash_time=1.0, latency=100.0)
        engine.run(until=1.1)
        assert not detector.is_suspected(1)
        detector.report(1)
        assert detector.is_suspected(1)

    def test_report_of_live_rank_ignored(self):
        engine, injector, detector = make_detector(crash_time=50.0)
        detector.report(3)  # rank 3 is alive; report must not stick
        assert not detector.is_suspected(3)
        assert detector.suspects() == set()

    def test_bad_latency_rejected(self):
        engine, injector, _ = make_detector()
        with pytest.raises(ConfigurationError):
            FailureDetector(injector, detection_latency=0.0)


class TestRetryPolicy:
    def test_delays_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, max_delay=4.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay(a, rng) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(20):
            d = policy.delay(attempt, rng)
            assert 1.0 <= d <= 1.5

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_delay=1e-9, base_delay=1e-6)


class _FakeCtx:
    """Minimal RankContext stand-in: sleep is a generator, no sim time."""

    def __init__(self):
        self.slept = []

    def sleep(self, seconds):
        self.slept.append(seconds)
        return
        yield  # pragma: no cover


class TestWithRetries:
    def _drive(self, gen):
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def test_success_first_try(self):
        ctx = _FakeCtx()

        def op():
            return 42
            yield  # pragma: no cover

        rng = np.random.default_rng(0)
        result = self._drive(
            with_retries(ctx, op, RetryPolicy(), rng)
        )
        assert result == 42
        assert ctx.slept == []

    def test_retries_then_succeeds(self):
        ctx = _FakeCtx()
        attempts = []

        def op():
            attempts.append(1)
            if len(attempts) < 3:
                raise RankFailedError(5, "get")
            return "ok"
            yield  # pragma: no cover

        reported = []
        rng = np.random.default_rng(0)
        result = self._drive(
            with_retries(
                ctx, op, RetryPolicy(max_attempts=4), rng,
                on_failure=reported.append,
            )
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert reported == [5, 5]
        assert len(ctx.slept) == 2

    def test_final_failure_propagates(self):
        ctx = _FakeCtx()

        def op():
            raise RankFailedError(2, "put")
            yield  # pragma: no cover

        rng = np.random.default_rng(0)
        with pytest.raises(RankFailedError):
            self._drive(
                with_retries(ctx, op, RetryPolicy(max_attempts=2), rng)
            )
        assert len(ctx.slept) == 1
