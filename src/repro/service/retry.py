"""Retry policy for the worker tier: exponential backoff, full jitter,
hard budgets.

Worker<->coordinator HTTP calls fail transiently (restarts, 500s,
socket timeouts) and need backoff and budgets. This module is the one
policy they use:

* :class:`RetryPolicy` — a frozen value object describing attempt
  count, backoff shape, and wall-clock budget.
* :func:`call_with_retry` — runs a callable under a policy, sleeping
  a **full-jitter** backoff between attempts: attempt ``i`` waits
  ``uniform(0, min(max_delay, base_delay * 2**i))``. Full jitter
  de-synchronises a fleet of retrying workers so an expired coordinator
  is not stampeded the instant it returns.

Everything is deterministic under a seeded ``random.Random`` — chaos
tests replay identical schedules, and the default RNG is seeded so two
runs of the same failure pattern back off identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TypeVar

T = TypeVar("T")


class RetryError(RuntimeError):
    """Every attempt failed, or the wall-clock budget ran out.

    Carries the final underlying exception (``cause``) and how many
    attempts were actually made (``attempts``) so callers can classify
    the failure without parsing the message.
    """

    def __init__(self, message: str, cause: BaseException,
                 attempts: int) -> None:
        super().__init__(message)
        self.cause = cause
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry one fallible operation.

    ``max_attempts`` counts *calls*, not re-tries: ``1`` means a single
    attempt and no backoff at all. ``budget`` caps wall-clock seconds
    across all attempts and sleeps; exceeding it raises
    :class:`RetryError` even with attempts remaining (``None`` =
    unbounded). ``retryable`` is the exception-type allowlist — anything
    else propagates unchanged on the first occurrence.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    budget: Optional[float] = 30.0
    retryable: Tuple[type, ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ValueError("delays must be non-negative")
        if self.budget is not None and self.budget <= 0.0:
            raise ValueError("budget must be positive (or None)")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter backoff before attempt ``attempt + 1`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if cap <= 0.0:
            return 0.0
        return rng.uniform(0.0, cap)


#: Worker<->coordinator HTTP default: bounded attempts, jittered
#: backoff, and a hard wall-clock budget per logical call so a dead
#: coordinator fails the worker loop instead of wedging it.
HTTP_RETRY = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=1.0,
                         budget=15.0, retryable=(OSError,))


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = HTTP_RETRY,
    rng: Optional[random.Random] = None,
    retry_on: Optional[Callable[[BaseException], bool]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> T:
    """Call ``fn`` under ``policy``; return its value or raise.

    ``retry_on`` (a predicate over the raised exception) overrides the
    policy's ``retryable`` type tuple when given. Non-retryable
    exceptions propagate unchanged; exhausting attempts or the budget
    raises :class:`RetryError` chained to the last failure. The
    schedule is deterministic under a seeded ``rng`` (default:
    ``random.Random(0)`` per call, so identical failure patterns
    produce identical backoff sequences).
    """
    if rng is None:
        rng = random.Random(0)
    deadline = None if policy.budget is None else clock() + policy.budget
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except BaseException as exc:
            if retry_on is not None:
                should = retry_on(exc)
            else:
                should = isinstance(exc, policy.retryable)
            if not should:
                raise
            last = exc
        if attempt + 1 >= policy.max_attempts:
            break
        wait = policy.delay(attempt, rng)
        if deadline is not None and clock() + wait > deadline:
            raise RetryError(
                f"retry budget ({policy.budget}s) exhausted after "
                f"{attempt + 1} attempt(s): {last!r}",
                last, attempt + 1) from last
        if wait > 0.0:
            sleep(wait)
    assert last is not None
    raise RetryError(
        f"all {policy.max_attempts} attempt(s) failed: {last!r}",
        last, policy.max_attempts) from last
