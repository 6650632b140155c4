"""One retry/backoff policy for every layer of the stack.

Before this module each tier grew its own loop — the NDB session retried
lock conflicts with no backoff, the remote driver redialed with
deterministic exponential backoff, the supervisor respawned crashed
servers with *no* backoff at all. :class:`RetryPolicy` unifies them:

* **exponential backoff with full jitter** — delays are drawn uniformly
  from ``[0, min(max_delay, base_delay * 2**(attempt-1))]`` (AWS-style
  full jitter), so synchronized clients do not retry in lockstep after a
  shared failure;
* **a retry budget** — ``max_attempts`` bounds the work;
* a fixed **never-retry set**: :class:`CommitAmbiguousError` is never
  transparently retried anywhere in the stack — retrying an ambiguous
  commit can double-apply (docs/robustness.md).

The jitter RNG is injectable so tests (and the deterministic fault
harness) can replay exact delay sequences from a seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import CommitAmbiguousError

#: errors that must never be transparently retried, at any layer: an
#: ambiguous commit may already have applied (double-apply hazard)
NEVER_RETRY: tuple[type[BaseException], ...] = (CommitAmbiguousError,)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour: attempts, backoff, error classes."""

    #: total attempts, including the first (>= 1)
    max_attempts: int = 5
    #: first retry's backoff cap in seconds; 0 disables sleeping
    base_delay: float = 0.0
    #: upper bound any single backoff can reach
    max_delay: float = 2.0
    #: errors worth retrying; empty means any Exception
    retryable: tuple[type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def backoff(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Backoff before attempt ``attempt`` (attempt 0 never sleeps):
        uniform in ``[0, cap]``, the cap doubling per attempt."""
        if attempt <= 0 or self.base_delay <= 0:
            return 0.0
        cap = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
        return (rng or random).uniform(0.0, cap)

    def is_retryable(self, exc: BaseException) -> bool:
        if isinstance(exc, NEVER_RETRY):
            return False
        if not self.retryable:
            return isinstance(exc, Exception)
        return isinstance(exc, self.retryable)

    def attempts(self, *, rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep
                 ) -> Iterator[int]:
        """Yield attempt indices, sleeping with backoff before retries.

        The caller's loop falling through means the budget is exhausted
        and it should raise its last error.
        """
        for attempt in range(self.max_attempts):
            if attempt:
                delay = self.backoff(attempt, rng)
                if delay > 0.0:
                    sleep(delay)
            yield attempt
