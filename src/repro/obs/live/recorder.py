"""The anomaly-triggered flight recorder.

A :class:`FlightRecorder` is a :class:`~repro.obs.tracer.Tracer` whose
record lists are bounded rings: it can stay installed as the active
tracer indefinitely -- the black box on the aircraft -- holding only
the most recent ``capacity`` spans, instants and counter samples.
Instrumented hot paths keep their exact NULL_TRACER discipline (one
``tracer.enabled`` branch when no tracer is installed; the recorder is
only active while the serving layer is inside a request), so always-on
recording costs ring appends, never growth.

When something anomalous happens -- an SLO burn-rate alert fires, a
circuit breaker opens, a partition is detected -- :meth:`dump` freezes
the ring as a complete, validator-clean Perfetto ``trace_event``
payload via :mod:`repro.obs.export`, tagged with the triggering event,
so the operator gets the seconds *leading up to* the anomaly without
having traced anything in advance.

Dumps are debounced per trigger kind (``min_interval`` on the virtual
clock) and the kept payloads are themselves a bounded ring, so a
pathological alert storm cannot turn the recorder into a leak.
Determinism: the ring content is a pure function of the recorded
virtual-clock events, so identical seeds and fault schedules dump
byte-identical traces (pinned by ``tests/test_live.py``).
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Deque, Dict, Optional, Tuple, Union

from repro.obs.export import trace_payload
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer

#: Default ring capacity (records per kind).
DEFAULT_CAPACITY = 2048

#: Dump payloads kept in memory (oldest evicted).
KEPT_DUMPS = 8


class FlightRecorder(Tracer):
    """A tracer whose memory is a bounded ring (see module docstring)."""

    __slots__ = ("capacity", "min_interval", "dumps", "_last_dump")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 min_interval: float = 1.0) -> None:
        super().__init__()
        if capacity < 16:
            raise ValueError("capacity must be >= 16")
        self.capacity = capacity
        self.min_interval = min_interval
        # Rebind the record containers as rings; every Tracer method
        # appends through these, so the override is complete.
        self.spans = deque(maxlen=capacity)
        self.instants = deque(maxlen=capacity)
        self.samples = deque(maxlen=capacity)
        #: (trigger, at, payload) of recent dumps, oldest evicted.
        self.dumps: Deque[Tuple[str, float, dict]] = \
            deque(maxlen=KEPT_DUMPS)
        self._last_dump: Dict[str, float] = {}

    def dump(self, trigger: str, at: float,
             path: Optional[Union[str, pathlib.Path]] = None,
             metrics: Optional[Dict[str, float]] = None,
             **tags: object) -> Optional[dict]:
        """Freeze the ring as a Perfetto payload tagged with ``trigger``.

        Returns the payload dict (and writes it to ``path`` when
        given), or None when the trigger kind is inside its debounce
        interval.  The payload passes
        :func:`repro.obs.export.validate_trace_events` by construction
        and carries a top-level ``trigger`` object (viewers ignore
        unknown keys).
        """
        last = self._last_dump.get(trigger)
        if last is not None and at - last < self.min_interval:
            METRICS.counter("obs.flightrec.suppressed").inc()
            return None
        self._last_dump[trigger] = at
        payload = trace_payload(self, metrics=metrics)
        payload["trigger"] = {
            "kind": trigger,
            "at": at,
            **{key: value if isinstance(value,
                                        (str, int, float, bool))
               or value is None else repr(value)
               for key, value in tags.items()},
        }
        self.dumps.append((trigger, at, payload))
        METRICS.counter("obs.flightrec.dumps").inc()
        if path is not None:
            pathlib.Path(path).write_text(
                json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return payload
