"""Multiprocess sweep runner: multi-seed / multi-scale grids on all cores.

Two layers:

- :func:`run_parallel` is the generic fan-out primitive.  It maps a
  module-level function over picklable items with a ``fork`` process
  pool, preserves item order, and merges every counter increment the
  children make back into the parent's metrics registry -- so counter
  totals are identical to a serial run.  It degrades to
  the plain serial loop whenever parallelism is unsafe or pointless:
  one item, ``processes=1`` (or ``REPRO_PROCESSES=1``), no ``fork``
  start method, an enabled tracer (child trace spans cannot be merged),
  or when already inside a pool worker (daemonic processes cannot
  spawn).  Results are deterministic either way: every cell carries its
  own explicit seed, so *which* worker runs it cannot matter.

Merge-back scope -- what does and does not cross the fork boundary:

- **Merged**: every monotonic *counter*, whatever its layer
  (``netsim.*``, ``cluster.*``, ``aggbox.*``, ``platform.*``, ...).  Each
  child reports its before/after delta, which the parent re-applies exactly
  once, so serial and parallel totals agree and nothing is counted
  twice (the child inherits the parent's counter values at fork time;
  the delta subtracts that inheritance out).
- **Per-process, discarded**: everything else.  Histograms
  are point-in-time process state with no meaningful cross-process
  sum.  Likewise the live telemetry plane (:mod:`repro.obs.live`) --
  ``TimeSeriesStore`` windows, ``SloMonitor`` burn state and
  ``FlightRecorder`` rings index *one process's* virtual clock; a
  child's windowed points are never folded into the parent store, so
  a sweep can never double-count a request into a window or fire a
  parent-side alert from child events.  Experiments that want live
  telemetry build a private :class:`repro.obs.live.SloMonitor` inside
  the cell function (see ``fig_burnrate``) and return plain rows.

- :func:`sweep` runs an (experiment x scale x seed) grid through
  :func:`run_parallel` and merges the cells into one
  :class:`ExperimentResult` per (experiment, scale), each row prefixed
  with its ``seed``/``scale`` columns, in deterministic grid order.
  ``python -m repro sweep fig06 fig08 --seeds 1,2,3`` is the CLI front
  end.

:mod:`repro.experiments.fig06_fct_cdf` uses :func:`run_parallel`
directly to run its four strategy simulations concurrently -- the
per-figure fan-out that makes ``DEFAULT``-scale figures interactive.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import ExperimentResult, load, resolve
from repro.experiments.common import SCALES
from repro.obs import METRICS, get_tracer


def _effective_processes(processes: Optional[int], n_items: int) -> int:
    """How many workers to actually use (1 = run serially)."""
    if n_items <= 1:
        return 1
    if processes is None:
        env = os.environ.get("REPRO_PROCESSES", "").strip()
        if env:
            try:
                processes = int(env)
            except ValueError:
                raise SystemExit(
                    f"REPRO_PROCESSES={env!r} is not an integer") from None
        else:
            processes = os.cpu_count() or 1
    if processes <= 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1  # pool workers cannot spawn their own pools
    if get_tracer().enabled:
        return 1  # children's trace spans would be lost
    return min(processes, n_items)


def _call_with_counters(packed: Tuple[Callable, object]):
    """Pool target: run one call and capture its counter increments.

    Runs in a fork child whose metrics registry is a copy of the
    parent's; the before/after difference is exactly this call's
    contribution, which the parent re-applies on merge.
    """
    fn, item = packed
    before = METRICS.counters()
    payload = fn(item)
    after = METRICS.counters()
    delta = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    return payload, delta


def run_parallel(fn: Callable, items: Iterable,
                 processes: Optional[int] = None) -> List:
    """``[fn(item) for item in items]``, fanned out over fork workers.

    ``fn`` must be a module-level function and every item picklable.
    Results come back in item order; the children's counter
    increments are merged into the parent registry.  Falls back
    to the serial loop when parallelism is unavailable (see module
    docstring) -- results and counter totals are identical either way.
    """
    items = list(items)
    count = _effective_processes(processes, len(items))
    if count <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=count) as pool:
        outs = pool.map(_call_with_counters,
                        [(fn, item) for item in items])
    results = []
    for payload, delta in outs:
        for name, value in delta.items():
            METRICS.counter(name).inc(value)
        results.append(payload)
    return results


#: One sweep cell: (experiment module, scale name, seed).
SweepCell = Tuple[str, str, int]


def _run_cell(cell: SweepCell) -> Dict[str, object]:
    module, scale_name, seed = cell
    exp = load(module)
    result = exp.run(scale=SCALES[scale_name], seed=seed)
    return result.to_dict()


def sweep(names: Sequence[str],
          scales: Sequence[str] = ("bench",),
          seeds: Sequence[int] = (1,),
          processes: Optional[int] = None) -> List[ExperimentResult]:
    """Run an (experiment x scale x seed) grid; one merged result per
    (experiment, scale), rows prefixed with ``seed`` and ``scale``.

    The grid order -- experiments in the order given, then scales, then
    seeds -- is deterministic, every cell's seed is explicit, and
    :func:`run_parallel` preserves cell order, so the output is
    bit-for-bit identical at any worker count.
    """
    modules = [resolve(name) for name in names]
    for scale_name in scales:
        if scale_name not in SCALES:
            raise KeyError(
                f"unknown scale {scale_name!r}; "
                f"choose from {sorted(SCALES)}")
    grid: List[SweepCell] = [
        (module, scale_name, seed)
        for module in modules
        for scale_name in scales
        for seed in seeds
    ]
    payloads = run_parallel(_run_cell, grid, processes=processes)

    order: List[Tuple[str, str]] = []
    groups: Dict[Tuple[str, str], List[Tuple[int, Dict[str, object]]]] = {}
    for (module, scale_name, seed), payload in zip(grid, payloads):
        key = (module, scale_name)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((seed, payload))

    merged: List[ExperimentResult] = []
    for module, scale_name in order:
        cells = groups[(module, scale_name)]
        first = cells[0][1]
        seed_list = ",".join(str(seed) for seed, _ in cells)
        result = ExperimentResult(
            experiment=first["experiment"],
            description=first["description"],
            columns=("scale", "seed") + tuple(first["columns"]),
            notes=f"sweep over seeds [{seed_list}] at scale "
                  f"{scale_name!r}" + (f"; {first['notes']}"
                                       if first.get("notes") else ""),
        )
        for seed, payload in cells:
            for row in payload["rows"]:
                result.add_row(scale=scale_name, seed=seed, **row)
        merged.append(result)
    return merged
