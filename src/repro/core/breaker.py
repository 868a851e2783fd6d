"""Per-target circuit breakers for the shim send path.

A flapping agg box makes every shim burn its full retry budget
(``MAX_ATTEMPTS * TIMEOUT`` plus backoffs) on every send.  A circuit
breaker remembers recent failures per target and fails fast instead:

- ``closed``: sends flow normally; consecutive connect failures are
  counted, and :data:`FAILURE_THRESHOLD` of them trip the breaker
  ``open``;
- ``open``: sends are refused immediately (zero clock burnt) until
  :data:`RESET_TIMEOUT` virtual seconds have passed since tripping;
- ``half-open``: after the reset timeout, exactly one probe attempt is
  allowed through; success closes the breaker, failure re-opens it and
  restarts the timeout.

Every breaker of every platform runs on these two constants: the
service turns breakers on and nothing tunes them.

All timing runs on the platform's deterministic virtual clock, so a
given workload + fault schedule produces bit-identical breaker traces.
Every transition is recorded for the chaos-invariant suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Consecutive connect failures that trip a closed breaker open: one
#: full probe of a dead box (three attempts) is enough evidence.
FAILURE_THRESHOLD = 3

#: Virtual seconds an open breaker refuses sends before it lets one
#: half-open probe through; every deployment ran this default.
RESET_TIMEOUT = 0.5

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)

#: state -> states it may legally transition to.
BREAKER_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    CLOSED: (OPEN,),
    OPEN: (HALF_OPEN,),
    HALF_OPEN: (CLOSED, OPEN),
}


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change of one breaker."""

    at: float
    target: str
    frm: str
    to: str
    reason: str = ""


class CircuitBreaker:
    """The breaker guarding one send target (an agg box)."""

    def __init__(self, target: str) -> None:
        self.target = target
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.transitions: List[BreakerTransition] = []

    @property
    def state(self) -> str:
        return self._state

    def _move(self, to: str, at: float, reason: str) -> None:
        if to not in BREAKER_TRANSITIONS[self._state]:
            raise RuntimeError(
                f"illegal breaker transition {self._state} -> {to} "
                f"({self.target})"
            )
        self.transitions.append(BreakerTransition(
            at=at, target=self.target, frm=self._state, to=to, reason=reason,
        ))
        self._state = to

    def allow(self, now: float) -> bool:
        """May a send attempt go through at virtual time ``now``?

        An open breaker whose reset timeout has elapsed moves to
        half-open and admits the probe; otherwise open refuses
        immediately (the caller records a ``breaker-open`` event and
        degrades down its ladder without burning retry clock).
        """
        if self._state == OPEN:
            if now >= self._opened_at + RESET_TIMEOUT:
                self._move(HALF_OPEN, now, "reset-timeout")
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        """A connect to the target succeeded: a half-open probe closes."""
        if self._state == HALF_OPEN:
            self._move(CLOSED, now, "probe-success")
        self._failures = 0

    def record_failure(self, now: float) -> None:
        """A connect attempt to the target timed out."""
        if self._state == HALF_OPEN:
            self._move(OPEN, now, "probe-failure")
            self._opened_at = now
            return
        if self._state == CLOSED:
            self._failures += 1
            if self._failures >= FAILURE_THRESHOLD:
                self._move(OPEN, now,
                           f"{self._failures} consecutive failures")
                self._opened_at = now


class BreakerBoard:
    """All of a platform's per-target breakers, created on first use."""

    def __init__(self) -> None:
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, target: str) -> CircuitBreaker:
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(target)
            self._breakers[target] = breaker
        return breaker

    def states(self) -> Dict[str, str]:
        return {t: b.state for t, b in self._breakers.items()}

    def transitions(self) -> List[BreakerTransition]:
        """All recorded transitions, ordered by (time, target)."""
        merged = [
            t for b in self._breakers.values() for t in b.transitions
        ]
        merged.sort(key=lambda t: (t.at, t.target))
        return merged


def assert_legal_breaker_transitions(
    transitions: List[BreakerTransition],
) -> None:
    """Raise AssertionError when a recorded trace breaks the machine.

    Per target: the trace must start from ``closed``, be contiguous,
    and every hop must be in :data:`BREAKER_TRANSITIONS`.
    """
    state_by_target: Dict[str, str] = {}
    for t in transitions:
        state = state_by_target.get(t.target, CLOSED)
        assert t.frm == state, \
            f"{t.target}: trace gap at {t.at}: expected {state}, " \
            f"recorded {t.frm}"
        assert t.to in BREAKER_TRANSITIONS[t.frm], \
            f"{t.target}: illegal transition {t.frm} -> {t.to} at {t.at}"
        state_by_target[t.target] = t.to
