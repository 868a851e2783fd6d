"""Multi-window SLO burn-rate alerting (Google SRE style).

An :class:`SloObjective` states a contract over a stream of good/bad
events -- "at least ``target`` of this tenant's requests are good" --
and its error budget is ``1 - target``.  The **burn rate** over a
window is the observed bad fraction divided by the budget: burn 1.0
spends the budget exactly at the sustainable pace, burn 10 spends it
ten times too fast.

:class:`SloMonitor` evaluates each objective over *two* sliding
windows, the multi-window pattern from the SRE workbook:

- the **fast** window (short) must burn at >= ``fast_burn`` (default
  5x budget) -- catches sharp regressions quickly;
- the **slow** window (long) must burn at >= ``slow_burn`` (default
  1x budget) -- suppresses blips that never threaten the budget.

An alert fires on the rising edge of *both* conditions holding and
re-arms only after both clear, so a sustained burn produces one alert
per episode, not one per request.  Everything runs on the caller's
virtual clock; evaluation is deterministic and allocation-bounded
(window deltas over ring-buffered cumulative counters).

Events are recorded through a :class:`~repro.obs.live.series
.TimeSeriesStore` (cumulative ``slo.good:<key>`` / ``slo.bad:<key>``
counter series), so the same store answers goodput-rate queries for
``/metrics`` and the ``watch`` dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.obs.live.series import TimeSeriesStore
from repro.obs.metrics import METRICS

#: Series-name prefixes the monitor records events under.
GOOD_PREFIX = "slo.good:"
BAD_PREFIX = "slo.bad:"


@dataclass(frozen=True)
class SloObjective:
    """One objective: a good-event fraction target over two windows."""

    key: str                    #: event-stream key (e.g. tenant name)
    target: float = 0.9         #: required good fraction (0 < t < 1)
    fast_window: float = 1.0    #: short window (virtual seconds)
    slow_window: float = 10.0   #: long window (virtual seconds)
    fast_burn: float = 5.0      #: firing threshold on the fast window
    slow_burn: float = 1.0      #: firing threshold on the slow window

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), "
                             f"got {self.target}")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window > self.slow_window:
            raise ValueError("fast_window must not exceed slow_window")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnRateAlert:
    """One fired burn-rate alert (the rising edge of an episode)."""

    key: str
    at: float
    fast_burn: float           #: observed burn over the fast window
    slow_burn: float           #: observed burn over the slow window
    budget: float
    fast_window: float
    slow_window: float
    good: int = 0              #: good events in the slow window
    bad: int = 0               #: bad events in the slow window

    def to_dict(self) -> Dict[str, float]:
        return {
            "key": self.key, "at": self.at,
            "fast_burn": self.fast_burn, "slow_burn": self.slow_burn,
            "budget": self.budget, "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "good": self.good, "bad": self.bad,
        }

    def tags(self) -> Dict[str, object]:
        """Flat tags for tracer instants / flight-recorder triggers."""
        return {"key": self.key, "fast_burn": round(self.fast_burn, 4),
                "slow_burn": round(self.slow_burn, 4),
                "budget": self.budget}


class SloMonitor:
    """Evaluates burn-rate objectives over a live time-series store."""

    def __init__(self, store: Optional[TimeSeriesStore] = None,
                 template: Optional[SloObjective] = None) -> None:
        self.store = store if store is not None else TimeSeriesStore()
        #: Objective auto-created (with its ``key`` substituted) for
        #: streams recorded without an explicit objective.
        self.template = template if template is not None \
            else SloObjective(key="")
        self.objectives: Dict[str, SloObjective] = {}
        self.alerts: List[BurnRateAlert] = []
        self._burning: Dict[str, float] = {}  #: key -> alert time
        self._m_alerts = METRICS.counter("obs.slo.alerts")

    def add_objective(self, objective: SloObjective) -> None:
        self.objectives[objective.key] = objective

    def objective(self, key: str) -> SloObjective:
        obj = self.objectives.get(key)
        if obj is None:
            obj = replace(self.template, key=key)
            self.objectives[key] = obj
        return obj

    # -- recording ---------------------------------------------------------

    def record(self, key: str, at: float, good: bool) -> None:
        """Fold one good/bad event at virtual time ``at``."""
        self.objective(key)
        prefix = GOOD_PREFIX if good else BAD_PREFIX
        self.store.count(prefix + key, at)

    # -- evaluation --------------------------------------------------------

    def counts(self, key: str, at: float,
               window: float) -> Tuple[float, float]:
        """(good, bad) event counts over ``(at - window, at]``."""
        return (self.store.delta(GOOD_PREFIX + key, at, window),
                self.store.delta(BAD_PREFIX + key, at, window))

    def burn_rate(self, key: str, at: float, window: float) -> float:
        """Observed bad fraction over the window, per unit budget.

        0.0 with no in-window events (no evidence is not a burn).
        """
        good, bad = self.counts(key, at, window)
        total = good + bad
        if total <= 0:
            return 0.0
        return (bad / total) / self.objective(key).budget

    def is_burning(self, key: str) -> bool:
        return key in self._burning

    def active(self) -> List[str]:
        """Keys currently inside a burn episode, sorted."""
        return sorted(self._burning)

    def evaluate(self, at: float) -> List[BurnRateAlert]:
        """Evaluate every objective at ``at``; returns *new* alerts.

        Edge-triggered: a key alerts once when both windows first
        exceed their thresholds and re-arms only after both drop back
        below -- the episode semantics that make alert counts
        meaningful.
        """
        fired: List[BurnRateAlert] = []
        for key in sorted(self.objectives):
            obj = self.objectives[key]
            fast = self.burn_rate(key, at, obj.fast_window)
            slow = self.burn_rate(key, at, obj.slow_window)
            burning = fast >= obj.fast_burn and slow >= obj.slow_burn
            if burning and key not in self._burning:
                good, bad = self.counts(key, at, obj.slow_window)
                alert = BurnRateAlert(
                    key=key, at=at, fast_burn=fast, slow_burn=slow,
                    budget=obj.budget, fast_window=obj.fast_window,
                    slow_window=obj.slow_window,
                    good=int(good), bad=int(bad),
                )
                self._burning[key] = at
                self.alerts.append(alert)
                fired.append(alert)
                self._m_alerts.inc()
            elif not burning and key in self._burning \
                    and fast < obj.fast_burn and slow < obj.slow_burn:
                del self._burning[key]
        return fired
