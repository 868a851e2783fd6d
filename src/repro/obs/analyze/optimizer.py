"""Optimizer attribution: every control-loop action, from the trace.

The self-healing control loop (:func:`repro.core.optimizer.tick`)
emits ``optimizer.*`` spans and instants as it works -- one audit span
and one apply span per tick, per-action instants tagged with
kind/target/reason, and a drain or undrain instant per applied action.
:func:`optimizer_report` folds a whole trace's worth into the
``optimizer`` section of the diagnosis dict, so ``python -m repro
analyze`` can answer "what did the optimizer do, to whom, and why" for
any traced run without consulting the experiment that drove it.

Optimizer records are collected trace-wide rather than per
``flowsim.run`` window: the control loop ticks during *planning*, which
happens before (and between) simulator runs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.analyze.trace_data import TraceData

#: Actions kept in the report's chronological log.
_LOG_TOP = 50


def optimizer_report(trace: TraceData) -> Dict[str, object]:
    """The ``optimizer`` diagnosis section; ``{}`` when nothing ran.

    Shape::

        {"ticks": ..., "audits": ..., "actions": {kind: count},
         "drains": n, "undrains": n,
         "targets": {box_id: action count},
         "log": [{at, kind, target, reason}, ...]}

    ``actions`` counts what the strategy asked for, ``drains`` and
    ``undrains`` what was applied; every action is applied, so the
    kinds in ``actions`` sum to ``drains + undrains``.
    """
    audits = sum(1 for s in trace.spans if s.name == "optimizer.audit")
    ticks = sum(1 for s in trace.spans if s.name == "optimizer.apply")
    if not audits and not ticks:
        return {}
    actions: Dict[str, int] = {}
    targets: Dict[str, int] = {}
    log: List[Dict[str, object]] = []
    drains = undrains = 0
    for rec in trace.instants:
        if rec.name == "optimizer.action":
            kind = str(rec.tags.get("kind", ""))
            actions[kind] = actions.get(kind, 0) + 1
            target = str(rec.tags.get("target", ""))
            if target:
                targets[target] = targets.get(target, 0) + 1
            log.append({
                "at": rec.at,
                "kind": kind,
                "target": target,
                "reason": str(rec.tags.get("reason", "")),
            })
        elif rec.name == "optimizer.drain":
            drains += 1
        elif rec.name == "optimizer.undrain":
            undrains += 1
    return {
        "ticks": ticks,
        "audits": audits,
        "actions": actions,
        "drains": drains,
        "undrains": undrains,
        "targets": dict(sorted(targets.items(),
                               key=lambda kv: (-kv[1], kv[0]))),
        "log": log[:_LOG_TOP],
    }
