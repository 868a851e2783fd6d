"""Shim-side retry policy: timeout, bounded backoff, deterministic jitter.

When a worker shim (or a box forwarding upstream) cannot reach its
target, it retries with exponential backoff before degrading down the
ladder (next on-path box, then direct-to-master).  Real systems add
random jitter to decorrelate retry storms; here the jitter is a hash of
``(key, attempt)`` so runs are bit-reproducible while different senders
still spread out.

The timing of a retry is a set of module constants (:data:`TIMEOUT`,
:data:`MAX_ATTEMPTS`, the backoff curve, :data:`SEND_LATENCY`): every
deployment ran the same values, so they are not options.

Two jitter schemes are available:

- the default multiplies each exponential backoff by a hash-derived
  factor in ``[1 - JITTER, 1]`` -- bounded, but senders that fail at
  the same instant still share the exponential *envelope*, so their
  retries cluster around the same doubling points (visible as aliasing
  spikes in ``fig_failures``);
- ``decorrelated=True`` switches to decorrelated jitter (the AWS
  architecture-blog scheme): each delay is drawn uniformly from
  ``[BASE_BACKOFF, 3 * previous_delay]``, capped at ``MAX_BACKOFF``.
  Consecutive delays no longer share an envelope, so synchronized
  senders spread out after the first retry.  The draw is seeded from
  ``(key, attempt, seed)`` via :func:`repro.netsim.routing.stable_hash`,
  so a given policy + key reproduces the same delays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.routing import stable_hash

#: Jitter granularity: hashes are reduced modulo this many buckets.
_JITTER_BUCKETS = 10_000

#: Seconds a failed connect attempt burns before the shim gives up on it.
TIMEOUT = 0.05

#: Connect attempts per target before the shim degrades down its ladder.
MAX_ATTEMPTS = 3

#: Sleep after the first failed attempt, and the growth factor of each
#: further one (exponential backoff).
BASE_BACKOFF = 0.01
MULTIPLIER = 2.0

#: Backoff ceiling: the "bounded" in bounded backoff.
MAX_BACKOFF = 0.5

#: Fraction of each backoff randomised away: sleeps land in
#: ``[(1 - JITTER) * b, b]``, deterministically from the retry key.
JITTER = 0.5

#: Clock cost of one successful delivery hop; also the baseline the
#: gray-failure detector is seeded with.
SEND_LATENCY = 0.001


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        deadline: optional total retry-time budget per send.  Once a
            send has burnt this much clock across attempts, the shim
            degrades down the ladder immediately, even with attempts
            remaining -- so a send can never exceed a request SLO.
            None (the default) keeps attempts unbounded in time.
        decorrelated: use decorrelated jitter instead of jittered
            exponential backoff (see the module docstring); delays stay
            within ``[BASE_BACKOFF, MAX_BACKOFF]`` and are a pure
            function of ``(policy, key, attempt)``.
        seed: extra entropy folded into the deterministic jitter hash,
            so two deployments sharing retry keys still decorrelate.
    """

    deadline: Optional[float] = None
    decorrelated: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def backoff(self, attempt: int, key: str = "") -> float:
        """Sleep before retry number ``attempt + 1`` (attempts from 1).

        Deterministic: the same ``(policy, attempt, key)`` always yields
        the same delay.  With the default scheme the delay is within
        ``[(1 - JITTER) * b, b]`` for the un-jittered bound ``b``
        (:func:`raw_backoff`); with ``decorrelated=True`` it is within
        ``[BASE_BACKOFF, MAX_BACKOFF]``.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        if self.decorrelated:
            return self._decorrelated(attempt, key)
        bucket = stable_hash(f"{key}#a{attempt}") % _JITTER_BUCKETS
        return raw_backoff(attempt) * (
            1.0 - JITTER * bucket / _JITTER_BUCKETS)

    def _decorrelated(self, attempt: int, key: str) -> float:
        """Decorrelated jitter, replayed from the first attempt.

        ``sleep_n = min(cap, uniform(base, 3 * sleep_{n-1}))`` with
        ``sleep_0 = base``; the uniform draw for step ``n`` hashes
        ``(key, n, seed)``, so the whole sequence is a pure function of
        the policy and the retry key.  Replaying from the start keeps
        :meth:`backoff` stateless (the caller passes only the attempt
        number), at O(attempt) hash cost -- attempts are small.
        """
        sleep = BASE_BACKOFF
        for step in range(1, attempt + 1):
            bucket = stable_hash(
                f"{key}#d{step}#s{self.seed}") % _JITTER_BUCKETS
            frac = bucket / (_JITTER_BUCKETS - 1)
            span = max(3.0 * sleep - BASE_BACKOFF, 0.0)
            sleep = min(BASE_BACKOFF + frac * span, MAX_BACKOFF)
        return sleep

    def delays(self, key: str = "") -> List[float]:
        """All backoff sleeps of one full retry sequence for ``key``."""
        return [self.backoff(a, key) for a in range(1, MAX_ATTEMPTS)]

    def worst_case_clock(self) -> float:
        """Upper bound on clock burnt before giving up on one target."""
        raw = MAX_ATTEMPTS * TIMEOUT + sum(
            raw_backoff(a) for a in range(1, MAX_ATTEMPTS))
        if self.deadline is None:
            return raw
        # The deadline is checked before each attempt after the first,
        # so the worst case is one full attempt past the budget.
        return min(raw, self.deadline + TIMEOUT)


def raw_backoff(attempt: int) -> float:
    """The un-jittered exponential backoff after attempt ``attempt``."""
    return min(BASE_BACKOFF * MULTIPLIER ** (attempt - 1), MAX_BACKOFF)
