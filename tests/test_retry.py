"""Directed tests for the retry policy (repro.service.retry) and the
executor's in-process trial retry."""

import random

import pytest

from repro.service.retry import (HTTP_RETRY, RetryError, RetryPolicy,
                                 call_with_retry)


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, value="ok", exc=OSError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom {self.calls}")
        return self.value


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(budget=0.0)


def test_success_passthrough_no_retry():
    fn = Flaky(0, value=42)
    assert call_with_retry(fn, policy=HTTP_RETRY) == 42
    assert fn.calls == 1


def test_retries_then_success():
    clock = FakeClock()
    fn = Flaky(2)
    result = call_with_retry(
        fn, policy=RetryPolicy(max_attempts=4, base_delay=0.1,
                               retryable=(OSError,)),
        rng=random.Random(7), sleep=clock.sleep, clock=clock)
    assert result == "ok"
    assert fn.calls == 3
    assert len(clock.sleeps) == 2  # one backoff before each retry


def test_non_retryable_propagates_unchanged():
    fn = Flaky(1, exc=KeyError)
    policy = RetryPolicy(max_attempts=5, retryable=(OSError,))
    with pytest.raises(KeyError):
        call_with_retry(fn, policy=policy)
    assert fn.calls == 1


def test_retry_on_predicate_overrides_types():
    fn = Flaky(1, exc=KeyError)
    policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                         retryable=(OSError,))
    result = call_with_retry(
        fn, policy=policy, retry_on=lambda exc: isinstance(exc, KeyError))
    assert result == "ok"


def test_attempts_exhausted_raises_with_cause():
    clock = FakeClock()
    fn = Flaky(99)
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, budget=None,
                         retryable=(OSError,))
    with pytest.raises(RetryError) as info:
        call_with_retry(fn, policy=policy, rng=random.Random(1),
                        sleep=clock.sleep, clock=clock)
    assert fn.calls == 3
    assert info.value.attempts == 3
    assert isinstance(info.value.cause, OSError)
    assert info.value.__cause__ is info.value.cause


def test_budget_exhaustion_stops_before_max_attempts():
    clock = FakeClock()
    fn = Flaky(99)
    # every backoff draw is >= 0 and the budget is tiny, so the first
    # non-zero delay that would overshoot the deadline must abort
    policy = RetryPolicy(max_attempts=50, base_delay=1.0, max_delay=1.0,
                         budget=2.5, retryable=(OSError,))
    with pytest.raises(RetryError) as info:
        call_with_retry(fn, policy=policy, rng=random.Random(3),
                        sleep=clock.sleep, clock=clock)
    assert "budget" in str(info.value)
    assert fn.calls < 50
    assert clock.now <= 2.5


def test_jitter_determinism_under_seeded_rng():
    policy = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=2.0)
    a = [policy.delay(i, random.Random(11)) for i in range(6)]
    b = [policy.delay(i, random.Random(11)) for i in range(6)]
    assert a == b
    c = [policy.delay(i, random.Random(12)) for i in range(6)]
    assert a != c


def test_full_jitter_bounds_double_per_attempt():
    policy = RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=10.0)
    rng = random.Random(5)
    for attempt in range(8):
        cap = min(10.0, 0.05 * (2 ** attempt))
        for _ in range(50):
            delay = policy.delay(attempt, rng)
            assert 0.0 <= delay <= cap


def test_default_rng_schedule_is_reproducible():
    clock_a, clock_b = FakeClock(), FakeClock()
    policy = RetryPolicy(max_attempts=4, base_delay=0.2, budget=None,
                         retryable=(OSError,))
    for clock in (clock_a, clock_b):
        with pytest.raises(RetryError):
            call_with_retry(Flaky(99), policy=policy,
                            sleep=clock.sleep, clock=clock)
    assert clock_a.now == clock_b.now > 0.0


def test_executor_crash_semantics_preserved():
    """The executor's counters and CRASH message shape for a trial that
    fails its in-process retry too."""
    from repro.campaign.executor import ExecutionReport, _retry
    from repro.campaign.spec import TrialSpec

    trial = TrialSpec(scheme="unsync", workload="fibonacci",
                      ser=0.001, seed=3)

    def bad_runner(t):
        raise RuntimeError("retry failed too")

    report = ExecutionReport()
    result = _retry(trial, bad_runner, ValueError("first failure"), report)
    assert report.worker_failures == 2
    assert report.retries == 1
    assert report.crashes == 1
    assert result.taxonomy == "crash"
    assert "first: ValueError('first failure')" in result.error
    assert "retry failed too" in result.error


def test_executor_retry_lets_interrupts_through():
    """Only an ``Exception`` becomes a CRASH record; an interrupt during
    the in-process retry stops the campaign."""
    from repro.campaign.executor import ExecutionReport, _retry
    from repro.campaign.spec import TrialSpec

    trial = TrialSpec(scheme="unsync", workload="fibonacci",
                      ser=0.001, seed=3)

    def interrupted(t):
        raise KeyboardInterrupt

    report = ExecutionReport()
    with pytest.raises(KeyboardInterrupt):
        _retry(trial, interrupted, ValueError("pool died"), report)
    assert report.retries == 1
    assert report.crashes == 0


def test_executor_retry_success_counts_once():
    from repro.campaign.executor import ExecutionReport, _retry
    from repro.campaign.spec import TrialSpec
    from repro.campaign.trial import run_trial

    trial = TrialSpec(scheme="unsync", workload="fibonacci",
                      ser=0.0001, seed=1)
    report = ExecutionReport()
    result = _retry(trial, run_trial, ValueError("pool died"), report)
    assert report.worker_failures == 1
    assert report.retries == 1
    assert report.crashes == 0
    assert result.key() == trial.key()
