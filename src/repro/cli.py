"""Command-line interface: regenerate any paper experiment.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro run fig08 --scale bench
    python -m repro run fig22
    python -m repro run all --scale quick --out results.txt
    python -m repro run fig09 --out results.json   # JSON, round-trips
    python -m repro bench --scale quick
    python -m repro bench --compare BENCH_netsim.json
    python -m repro sweep fig06 --seeds 1,2,3 --processes 4
    python -m repro analyze --run fig06
    python -m repro analyze --trace trace_fig06.json
    python -m repro serve --port 8080
    python -m repro loadgen --users 1e6 --duration 60
    python -m repro watch --url http://127.0.0.1:8080
    python -m repro info

Experiment names accept the short form (``fig08``) or the full module
name (``fig08_output_ratio``).  Every experiment goes through the
registry in :mod:`repro.experiments` and the canonical
``run(scale=..., seed=...)`` entry point.

Uniform contract: every workload-running subcommand (``run``,
``bench``, ``trace``, ``analyze``, ``serve``, ``loadgen``) accepts the
same ``--scale/--seed/--out`` trio (shared argparse parent,
:func:`common_options`), and ``--out`` infers its format from the
extension everywhere: ``*.json`` serialises, anything else gets the
text rendering.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, TextIO, Tuple

import repro.experiments as experiments
from repro.experiments import ExperimentResult, SimScale
from repro.experiments.common import SCALES

#: Ordered experiment catalogue (kept as an alias of the registry's
#: module list for back-compat with older scripts).
EXPERIMENTS = experiments.MODULES


def common_options(scale_default: str = "bench",
                   out_help: str = "write results to a file (*.json "
                                   "serialises; any other extension gets "
                                   "the text rendering)"
                   ) -> argparse.ArgumentParser:
    """The shared ``--scale/--seed/--out`` argparse parent.

    Every workload-running subcommand composes this parent so the trio
    spells and behaves identically across the CLI; only the scale
    default and the ``--out`` help text vary per command.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scale", choices=sorted(SCALES),
                        default=scale_default,
                        help=f"simulation scale (default: {scale_default})")
    parent.add_argument("--seed", type=int, default=1,
                        help="deterministic RNG seed (default: 1)")
    parent.add_argument("--out", help=out_help)
    return parent


def write_result(result: ExperimentResult, out: Optional[str],
                 announce: bool = True) -> None:
    """Write one result to ``out``, format inferred from the extension.

    ``*.json`` gets ``ExperimentResult.to_dict`` (round-trippable);
    anything else gets ``to_text``.  ``out=None`` prints the text to
    stdout.
    """
    if not out:
        print(result.to_text())
        return
    with open(out, "w", encoding="utf-8") as fh:
        if out.endswith(".json"):
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(result.to_text())
            fh.write("\n")
    if announce:
        print(f"wrote {out}", file=sys.stderr)


def resolve(name: str) -> str:
    """Map a short name (fig08, tab01) to its module name."""
    try:
        return experiments.resolve(name)
    except KeyError:
        raise SystemExit(
            experiments.unknown_experiment_message(name)) from None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def run_experiment(name: str, scale: SimScale, seed: int,
                   ) -> Tuple[ExperimentResult, float]:
    """Run one experiment via the registry; returns (result, seconds).

    The observability registry is reset around the run so the result's
    ``metrics`` snapshot covers exactly this experiment.
    """
    from repro.obs import METRICS

    exp = experiments.load(name)
    METRICS.reset()
    started = time.time()
    result = exp.run(scale=scale, seed=seed)
    elapsed = time.time() - started
    result.metrics = METRICS.snapshot()
    return result, elapsed


def cmd_list(_args: argparse.Namespace) -> int:
    for exp in experiments.all_experiments():
        print(f"{exp.module:26s} {exp.summary}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [resolve(args.experiment)]
    as_json = bool(args.out) and args.out.endswith(".json")
    out: TextIO
    close = False
    if args.out:
        out = open(args.out, "w", encoding="utf-8")
        close = True
    else:
        out = sys.stdout
    try:
        total = 0.0
        collected = []
        for name in names:
            print(f"running {name} (scale={args.scale}) ...",
                  file=sys.stderr)
            result, elapsed = run_experiment(name, scale, args.seed)
            total += elapsed
            if as_json:
                collected.append(result.to_dict())
                continue
            print(result.to_text(), file=out)
            if args.plot:
                from repro.report import summarise

                print(summarise(result), file=out)
            print(f"[{elapsed:.1f}s]\n", file=out)
        if as_json:
            json.dump(collected, out, indent=2)
            out.write("\n")
        print(f"done: {len(names)} experiment(s) in {total:.1f}s",
              file=sys.stderr)
    finally:
        if close:
            out.close()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import sweep

    names = list(EXPERIMENTS) if "all" in args.experiments \
        else [resolve(name) for name in args.experiments]
    scales = [s.strip() for s in args.scale.split(",") if s.strip()]
    for scale_name in scales:
        if scale_name not in SCALES:
            raise SystemExit(f"unknown scale {scale_name!r}; choose from "
                             f"{sorted(SCALES)}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise SystemExit("--seeds must be comma-separated integers, "
                         f"got {args.seeds!r}") from None
    if not scales or not seeds:
        raise SystemExit("sweep needs at least one scale and one seed")
    print(f"sweep: {len(names)} experiment(s) x {len(scales)} scale(s) "
          f"x {len(seeds)} seed(s)", file=sys.stderr)
    started = time.perf_counter()
    results = sweep(names, scales=scales, seeds=seeds,
                    processes=args.processes)
    elapsed = time.perf_counter() - started
    if args.out and args.out.endswith(".json"):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for result in results:
                fh.write(result.to_text())
                fh.write("\n\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        for result in results:
            print(result.to_text())
            print()
    print(f"done: {len(results)} merged result(s) in {elapsed:.1f}s",
          file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench

    return run_bench(scale_name=args.scale, out=args.out,
                     names=args.only or None, seed=args.seed,
                     profile=args.profile, compare=args.compare)


def _trace_platform_companion(scale: SimScale, seed: int) -> None:
    """One functional platform request under the ambient tracer.

    Flow-level experiments (fig06 etc.) only exercise the simulator, so
    a bare experiment trace would carry ``netsim`` spans alone.  This
    companion drives :class:`~repro.core.platform.NetAggPlatform`
    through a top-k aggregation over the same topology so every trace
    also shows the platform (shim lifecycle) and aggbox (per-partial
    aggregation) timelines.
    """
    from repro.aggregation import deploy_boxes
    from repro.aggbox.functions import SearchResult, TopKFunction
    from repro.core.platform import NetAggPlatform
    from repro.topology.threetier import three_tier
    from repro.wire.records import decode_search_results, \
        encode_search_results

    topo = three_tier(scale.topo)
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    function = TopKFunction(k=10)
    platform.register_app("topk", function,
                          encode_search_results, decode_search_results)
    hosts = sorted(topo.hosts())
    master = hosts[0]
    partials = [
        (host, [SearchResult(doc_id=i * 100 + j,
                             score=float((i * 37 + j * 13) % 97))
                for j in range(6)])
        for i, host in enumerate(hosts[1:9])
    ]
    platform.execute_request("topk", f"trace:{seed}", master, partials)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.topology.threetier import three_tier
    from repro.workload.synthetic import generate_workload
    from repro.workload.traces import save_workload, workload_summary

    if args.target == "generate":
        if not args.out:
            raise SystemExit("trace generate requires --out")
        scale = SCALES[args.scale]
        topo = three_tier(scale.topo)
        workload = generate_workload(topo, scale.workload, seed=args.seed)
        save_workload(workload, args.out)
        print(f"wrote {len(workload.jobs)} jobs + "
              f"{len(workload.background)} background flows to {args.out}")
        return 0
    if args.target == "inspect":
        if not args.path:
            raise SystemExit("trace inspect requires a trace file path")
        workload = _read_workload(args.path)
        for key, value in workload_summary(workload).items():
            if isinstance(value, float):
                print(f"{key:28s} {value:,.3f}")
            else:
                print(f"{key:28s} {value:,}")
        return 0

    # `trace <experiment>`: run it under a live tracer and export a
    # Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev).
    from repro.obs import METRICS, Tracer, tracing, write_trace

    name = resolve(args.target)
    scale = SCALES[args.scale]
    out = args.out or f"trace_{args.target}.json"
    tracer = Tracer()
    METRICS.reset()
    with tracing(tracer):
        print(f"tracing {name} (scale={args.scale}) ...", file=sys.stderr)
        _, elapsed = run_experiment(name, scale, args.seed)
        _trace_platform_companion(scale, args.seed)
    snapshot = METRICS.snapshot()
    write_trace(tracer, out, metrics=snapshot)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out}: {len(snapshot)} metrics")
    spans = tracer.spans
    layers = ", ".join(
        f"{layer}={sum(1 for s in spans if s.layer == layer)}"
        for layer in tracer.layers())
    print(f"wrote {out}: {len(spans)} spans ({layers}), "
          f"{len(tracer.instants)} instants, "
          f"{len(tracer.samples)} counter samples  [{elapsed:.1f}s]")
    return 0


#: Strategy name -> (factory, needs agg boxes deployed).
STRATEGIES = {
    "none": ("NoAggregationStrategy", False),
    "rack": ("RackLevelStrategy", False),
    "binary": ("BinaryTreeStrategy", False),
    "chain": ("ChainStrategy", False),
    "netagg": ("NetAggStrategy", True),
}


def _sweep_strategies(scale: SimScale, names: List[str], seed: int) -> None:
    """Simulate each named strategy once under the ambient tracer.

    Every :func:`repro.experiments.common.simulate` call produces one
    ``flowsim.run`` span labelled with the strategy's name, so the
    diagnosis gets one run (and one bottleneck table) per strategy.
    """
    import repro.aggregation as aggregation
    from repro.experiments.common import simulate

    for name in names:
        if name not in STRATEGIES:
            raise SystemExit(
                f"unknown strategy {name!r} "
                f"(choose from {', '.join(sorted(STRATEGIES))})")
        factory_name, needs_boxes = STRATEGIES[name]
        strategy = getattr(aggregation, factory_name)()
        simulate(scale, strategy,
                 deploy=aggregation.deploy_boxes if needs_boxes else None,
                 seed=seed)


def _diagnosis_result(diagnosis: dict, source: str) -> ExperimentResult:
    """Wrap a diagnosis dict in an ExperimentResult for reporting."""
    from repro.obs.analyze import CATEGORIES

    result = ExperimentResult(
        experiment="analyze",
        description=f"Critical-path and bottleneck diagnosis of {source}",
        columns=("run", "dominant_tier", "bottleneck_link") + CATEGORIES,
        notes="Fractions are critical-path seconds per category / total "
              "attributed seconds (they sum to 1).  The bottleneck link "
              "is the top row of the run's credit-ranked link table.",
    )
    for run in diagnosis.get("runs", []):
        timeline = run.get("timeline", {})
        links = timeline.get("links", [])
        fractions = (run.get("critical_path") or {}).get("fractions", {})
        result.add_row(**{
            "run": run.get("strategy") or "(unlabelled)",
            "dominant_tier": timeline.get("dominant_tier", ""),
            "bottleneck_link": links[0]["link"] if links else "",
            **{cat: round(float(fractions.get(cat, 0.0)), 4)
               for cat in CATEGORIES},
        })
    platform = diagnosis.get("platform")
    if platform:
        fractions = platform.get("fractions", {})
        result.add_row(**{
            "run": "platform",
            "dominant_tier": platform.get("dominant", ""),
            "bottleneck_link": "",
            **{cat: round(float(fractions.get(cat, 0.0)), 4)
               for cat in CATEGORIES},
        })
    result.diagnosis = diagnosis
    return result


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.report import summarise

    if bool(args.trace) == bool(args.run or args.strategies):
        raise SystemExit(
            "analyze needs exactly one source: --trace <file>, or "
            "--run <experiment> (optionally with --strategies)")

    if args.trace:
        from repro.obs.analyze import diagnose_file

        diagnosis = diagnose_file(args.trace)
        source = args.trace
    else:
        from repro.obs import METRICS, Tracer, tracing
        from repro.obs.analyze import diagnose_tracer

        scale = SCALES[args.scale]
        if args.incast:
            # The paper's §2 partition/aggregate microbenchmark: wide
            # fan-in per job, workers scattered across racks.  This is
            # the configuration under which the edge->core bottleneck
            # shift between `none` and `netagg` is visible at small
            # scale.
            scale = scale.with_workload(min_workers=24,
                                        random_placement=True)
        tracer = Tracer()
        METRICS.reset()
        with tracing(tracer):
            if args.strategies:
                names = [n.strip() for n in args.strategies.split(",")
                         if n.strip()]
                print(f"simulating strategies {', '.join(names)} "
                      f"(scale={args.scale}) ...", file=sys.stderr)
                _sweep_strategies(scale, names, args.seed)
                source = f"strategies {','.join(names)}"
            else:
                name = resolve(args.run)
                print(f"tracing {name} (scale={args.scale}) ...",
                      file=sys.stderr)
                run_experiment(name, scale, args.seed)
                _trace_platform_companion(scale, args.seed)
                source = name
        diagnosis = diagnose_tracer(tracer)

    result = _diagnosis_result(diagnosis, source)
    print(result.to_text())
    optimizer = diagnosis.get("optimizer")
    if optimizer:
        print(_optimizer_text(optimizer))
    serve = diagnosis.get("serve")
    if serve:
        print(_serve_text(serve))
    print(summarise(result))
    if args.out:
        write_result(result, args.out)
    return 0


def _optimizer_text(optimizer: dict) -> str:
    """Render the diagnosis's optimizer section for the terminal."""
    actions = optimizer.get("actions", {})
    lines = [
        "== optimizer: self-healing actions ==",
        "ticks={ticks} audits={audits} drains={drains} "
        "undrains={undrains}".format(
            ticks=optimizer.get("ticks", 0),
            audits=optimizer.get("audits", 0),
            drains=optimizer.get("drains", 0),
            undrains=optimizer.get("undrains", 0)),
    ]
    if actions:
        lines.append("actions: " + "  ".join(
            f"{kind}={count}" for kind, count in sorted(actions.items())))
    for entry in optimizer.get("log", []):
        lines.append(
            "  t={at:8.3f}  {kind:<8s} {target:<20s} {reason}".format(
                at=float(entry.get("at", 0.0)),
                kind=str(entry.get("kind", "")),
                target=str(entry.get("target", "")),
                reason=str(entry.get("reason", ""))))
    return "\n".join(lines)


def _serve_text(serve: dict) -> str:
    """Render the diagnosis's serve section for the terminal."""
    lines = [
        "== serve: per-tenant latency attribution ==",
        f"requests={serve.get('requests', 0)}",
    ]
    for tenant, row in sorted(serve.get("tenants", {}).items()):
        statuses = "  ".join(
            f"{code}={count}"
            for code, count in sorted(row.get("statuses", {}).items()))
        lines.append(
            "  {tenant:<12s} req={req:<6d} ok={ok:<6d} "
            "wait={wait:8.4f}s service={service:8.4f}s "
            "p99={p99:8.4f}s  {statuses}".format(
                tenant=str(tenant),
                req=int(row.get("requests", 0)),
                ok=int(row.get("ok", 0)),
                wait=float(row.get("mean_wait", 0.0)),
                service=float(row.get("mean_service", 0.0)),
                p99=float(row.get("p99_latency", 0.0)),
                statuses=statuses))
    return "\n".join(lines)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import AggregationService, ServeConfig, serve_forever
    from repro.serve.service import TenantPolicy

    scale = SCALES[args.scale]
    config = ServeConfig(topo=scale.topo,
                         default_policy=TenantPolicy(slo=args.slo),
                         admission=not args.no_admission)
    service = AggregationService(config)
    try:
        asyncio.run(serve_forever(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    # On shutdown, report what the service saw (format by extension).
    report = service.report
    if report.total_requests():
        write_result(report.to_result(
            description=f"serving report ({report.total_requests()} "
                        "requests)"), args.out)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.serve.watch import watch_loop

    return watch_loop(args.url, interval=args.interval,
                      iterations=args.iterations, top=args.top)


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_loadgen
    from repro.serve.service import TenantPolicy
    from repro.workload.openloop import OpenLoopParams

    scale = SCALES[args.scale]
    params = OpenLoopParams(
        users=args.users,
        duration=args.duration,
        per_user_rate=args.per_user_rate,
        tenants=args.tenants,
    )
    admission = not args.no_admission
    config = ServeConfig(topo=scale.topo,
                         default_policy=TenantPolicy(slo=args.slo),
                         admission=admission)
    print(f"loadgen: {params.users:,} users -> "
          f"{params.offered_rate:.1f} req/s offered over "
          f"{params.duration:g}s (scale={args.scale}, seed={args.seed}, "
          f"admission={'on' if admission else 'off'}) ...",
          file=sys.stderr)
    outcome = run_loadgen(params, config=config, seed=args.seed,
                          slo=args.slo, admission=admission)
    write_result(outcome.result, args.out)
    errors = outcome.report.accounting_errors()
    if errors:
        for error in errors:
            print(f"SLO-accounting error: {error}", file=sys.stderr)
        return 1
    print(f"aggregate goodput {outcome.aggregate_goodput:.1f} req/s, "
          "0 accounting errors", file=sys.stderr)
    return 0


def _read_workload(path: str):
    """The workload in trace file ``path``.  A file that cannot be read
    or parsed ends the command with one line naming it (exit 1)."""
    from repro.workload.traces import load_workload

    try:
        return load_workload(path)
    except (OSError, ValueError) as exc:  # TraceError is a ValueError
        raise SystemExit(f"cannot read trace {path}: {exc}") from None


def cmd_replay(args: argparse.Namespace) -> int:
    import repro.aggregation as aggregation
    from repro.netsim.metrics import fct_summary, slowdown_summary
    from repro.netsim.simulator import FlowSim
    from repro.topology.threetier import three_tier

    workload = _read_workload(args.trace)
    scale = SCALES[args.scale]
    rows = []
    names = sorted(STRATEGIES) if args.strategy == "all" \
        else [args.strategy]
    for name in names:
        factory_name, needs_boxes = STRATEGIES[name]
        strategy = getattr(aggregation, factory_name)()
        topo = three_tier(scale.topo)
        if needs_boxes:
            aggregation.deploy_boxes(topo)
        sim = FlowSim(topo.network)
        sim.add_flows(strategy.plan(workload, topo))
        result = sim.run()
        fct = fct_summary(result)
        slow = slowdown_summary(result, topo.network)
        rows.append((name, fct, slow))
        print(f"{name:8s} p50 {fct.median * 1e3:8.2f} ms   "
              f"p99 {fct.p99 * 1e3:8.2f} ms   "
              f"slowdown p99 {slow.p99:6.2f}x   "
              f"({fct.count} flows)")
    if len(rows) > 1:
        best = min(rows, key=lambda r: r[1].p99)
        print(f"\nbest 99th-percentile FCT: {best[0]}")
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — NetAgg (CoNEXT 2014) reproduction")
    print(f"{len(EXPERIMENTS)} experiments; scales: {', '.join(SCALES)}")
    for label, scale in SCALES.items():
        topo = scale.topo
        print(f"  {label:8s} {topo.n_hosts:5d} hosts, "
              f"{scale.workload.n_flows} flows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate NetAgg's evaluation figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments").set_defaults(
        func=cmd_list)

    run = sub.add_parser(
        "run", help="run one experiment (or 'all')",
        parents=[common_options(
            scale_default="bench",
            out_help="write results to a file (*.json serialises "
                     "via ExperimentResult.to_dict)")])
    run.add_argument("experiment",
                     help="experiment name (fig08, tab01, ...) or 'all'")
    run.add_argument("--plot", action="store_true",
                     help="append sparkline summaries to the tables")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser(
        "bench", help="count every experiment's deterministic work, "
                      "write the BENCH_netsim.json ledger",
        parents=[common_options(
            scale_default="bench",
            out_help="output JSON path (default: BENCH_netsim.json)")])
    bench.set_defaults(out="BENCH_netsim.json")
    bench.add_argument("--only", nargs="*", metavar="EXPERIMENT",
                       help="restrict to these experiments")
    bench.add_argument("--profile", action="store_true",
                       help="cProfile the slowest experiment "
                            "(dumps <out>.prof)")
    bench.add_argument("--compare", metavar="BASELINE",
                       help="regression gate: instead of writing --out, "
                            "exit non-zero unless every work counter "
                            "equals this ledger's (same --scale/--seed)")
    bench.set_defaults(func=cmd_bench)

    sweep_p = sub.add_parser(
        "sweep",
        help="multi-seed/scale experiment grid on all cores",
        description="Run an (experiment x scale x seed) grid through "
                    "the multiprocess sweep runner; one merged result "
                    "per (experiment, scale), each row prefixed with "
                    "its scale/seed.  Output is bit-for-bit identical "
                    "at any worker count.")
    sweep_p.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                         help="experiment names (short or module form), "
                              "or 'all'")
    sweep_p.add_argument("--scale", default="bench",
                         help="comma-separated scale names "
                              "(default: bench)")
    sweep_p.add_argument("--seeds", default="1",
                         help="comma-separated RNG seeds (default: 1)")
    sweep_p.add_argument("--processes", type=int, default=None,
                         help="worker processes (default: one per core; "
                              "REPRO_PROCESSES also overrides)")
    sweep_p.add_argument("--out",
                         help="write results to a file (*.json "
                              "serialises; any other extension gets the "
                              "text rendering)")
    sweep_p.set_defaults(func=cmd_sweep)

    analyze = sub.add_parser(
        "analyze",
        help="critical-path and bottleneck diagnosis of a trace or run",
        parents=[common_options(
            scale_default="quick",
            out_help="write the diagnosis ExperimentResult to this file "
                     "(*.json serialises, embedded JSON diagnosis "
                     "included; other extensions get the text table)")])
    analyze.add_argument("--trace", metavar="FILE",
                         help="analyze an exported trace_event JSON")
    analyze.add_argument("--run", metavar="EXPERIMENT",
                         help="run this experiment under a tracer and "
                              "analyze the live trace")
    analyze.add_argument("--strategies", metavar="A,B,...",
                         help="instead of an experiment, simulate these "
                              "strategies (none, rack, binary, chain, "
                              "netagg) on the scale's workload and "
                              "diagnose each run")
    analyze.add_argument("--incast", action="store_true",
                         help="use the paper's incast microbenchmark "
                              "workload (wide fan-in, random placement) "
                              "-- shows the edge->core bottleneck shift")
    analyze.set_defaults(func=cmd_analyze)

    trace = sub.add_parser(
        "trace",
        help="trace an experiment (Perfetto JSON), or generate/inspect "
             "workload traces",
        parents=[common_options(
            scale_default="quick",
            out_help="output path (trace_event JSON for experiments, "
                     "JSONL for 'generate'; default: "
                     "trace_<experiment>.json)")])
    trace.add_argument(
        "target",
        help="experiment name (fig06, ...) to run under the tracer, or "
             "'generate' / 'inspect' for workload traces")
    trace.add_argument(
        "path", nargs="?",
        help="workload trace file (for 'inspect')")
    trace.add_argument("--metrics-out", metavar="PATH",
                       help="also dump the METRICS registry snapshot as "
                            "JSON (experiment tracing only)")
    trace.set_defaults(func=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the live HTTP/JSON aggregation service",
        parents=[common_options(
            scale_default="quick",
            out_help="on shutdown, write the serving report here "
                     "(*.json serialises; else text)")])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port, 0 picks a free one "
                            "(default: 8080)")
    serve.add_argument("--slo", type=float, default=0.25,
                       help="per-request latency SLO in virtual seconds "
                            "(default: 0.25)")
    serve.add_argument("--no-admission", action="store_true",
                       help="disable per-tenant admission control")
    serve.set_defaults(func=cmd_serve)

    watch = sub.add_parser(
        "watch",
        help="live text dashboard over a running serve front-end",
        description="Polls GET /v1/stats and GET /metrics of a running "
                    "`python -m repro serve` and renders the top-N "
                    "tenants by windowed rate: live p99, goodput, SLO "
                    "burn rates and episode state, plus the hottest "
                    "platform/aggbox counters.")
    watch.add_argument("--url", default="http://127.0.0.1:8080",
                       help="front-end base URL "
                            "(default: http://127.0.0.1:8080)")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="poll interval in wall seconds (default: 1)")
    watch.add_argument("--iterations", type=int, default=None,
                       help="render N frames then exit "
                            "(default: run until interrupted)")
    watch.add_argument("--top", type=int, default=10,
                       help="tenants shown (default: 10)")
    watch.set_defaults(func=cmd_watch)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load test against a fresh serving deployment",
        parents=[common_options(
            scale_default="quick",
            out_help="write the per-tenant report (*.json serialises; "
                     "else text)")])
    loadgen.add_argument("--users", type=lambda s: int(float(s)),
                         default=10_000,
                         help="user population; offered rate = users x "
                              "per-user rate (default: 10000; accepts "
                              "1e6 notation)")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="arrival window in virtual seconds "
                              "(default: 10)")
    loadgen.add_argument("--tenants", type=int, default=8,
                         help="Zipf tenant population (default: 8)")
    loadgen.add_argument("--per-user-rate", type=float, default=0.001,
                         help="requests/s each user offers "
                              "(default: 0.001)")
    loadgen.add_argument("--slo", type=float, default=0.25,
                         help="latency SLO in virtual seconds "
                              "(default: 0.25)")
    loadgen.add_argument("--no-admission", action="store_true",
                         help="disable per-tenant admission control "
                              "(the fig_serve ablation arm)")
    loadgen.set_defaults(func=cmd_loadgen)

    replay = sub.add_parser(
        "replay", help="replay a JSONL trace through a strategy")
    replay.add_argument("trace")
    replay.add_argument("--strategy", default="all",
                        choices=sorted(STRATEGIES) + ["all"])
    replay.add_argument("--scale", choices=sorted(SCALES),
                        default="bench",
                        help="topology to replay on (must contain the "
                             "trace's hosts)")
    replay.set_defaults(func=cmd_replay)

    sub.add_parser("info", help="version and scale summary").set_defaults(
        func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other tools.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
