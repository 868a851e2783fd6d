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

    A probe gives up after :data:`MAX_ATTEMPTS` timeouts and the
    backoffs between them: with the default jitter at most
    ``3 * TIMEOUT + BASE_BACKOFF * (1 + MULTIPLIER)`` = 0.18 s of
    virtual clock, below the serving layer's default 0.25 s SLO, so a
    send has no separate time budget.

    Attributes:
        decorrelated: use decorrelated jitter instead of jittered
            exponential backoff (see the module docstring); delays stay
            within ``[BASE_BACKOFF, MAX_BACKOFF]`` and are a pure
            function of ``(policy, key, attempt)``.
        seed: extra entropy folded into the deterministic jitter hash,
            so two deployments sharing retry keys still decorrelate.
    """

    decorrelated: bool = False
    seed: int = 0

    def backoff(self, attempt: int, key: str = "") -> float:
        """Sleep before retry number ``attempt + 1`` (attempts from 1).

        Deterministic: the same ``(policy, attempt, key)`` always yields
        the same delay.  With the default scheme the delay is within
        ``[(1 - JITTER) * b, b]`` for the un-jittered bound
        ``b = min(BASE_BACKOFF * MULTIPLIER ** (attempt - 1),
        MAX_BACKOFF)``; with ``decorrelated=True`` it is within
        ``[BASE_BACKOFF, MAX_BACKOFF]``.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        if self.decorrelated:
            return self._decorrelated(attempt, key)
        bucket = stable_hash(f"{key}#a{attempt}") % _JITTER_BUCKETS
        raw = min(BASE_BACKOFF * MULTIPLIER ** (attempt - 1), MAX_BACKOFF)
        return raw * (1.0 - JITTER * bucket / _JITTER_BUCKETS)

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
