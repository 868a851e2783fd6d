"""Failure and straggler handling (§3.1 of the paper).

Shows the full recovery story on live requests:

1. a request aggregates through healthy boxes;
2. we kill each box that participated -- the trees rewire around it
   (children re-parented to the detector node) and the result stays
   byte-identical;
3. the heartbeat failure detector flags an overdue box;
4. the straggler monitor redirects a slow box per-request and declares
   it failed after repeated offences;
5. duplicate suppression: a recovering child resending an already-
   processed partial result is dropped by the box runtime.

Run:  python examples/failure_recovery.py
"""

from repro.aggbox.box import AggBoxRuntime, AppBinding
from repro.aggbox.functions import TopKFunction
from repro.aggregation import deploy_boxes
from repro.core import FailureDetector, NetAggPlatform, StragglerMonitor
from repro.core.straggler import StragglerPolicy
from repro.topology import ThreeTierParams, three_tier
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)


def build_platform():
    topo = three_tier(ThreeTierParams(
        n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2,
        hosts_per_tor=4,
    ))
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    platform.register_app("solr", TopKFunction(k=3),
                          encode_search_results, decode_search_results)
    return platform


def solr_runtime(box_id, function):
    """One agg box driven directly (outside any platform)."""
    runtime = AggBoxRuntime(box_id)
    runtime.register_app(AppBinding(
        app="solr", function=function,
        deserialise=decode_search_results,
        serialise=encode_search_results,
    ))
    return runtime


PARTIALS = [
    (host, [SearchResult(base * 10 + j, float(base * 10 + j))
            for j in range(4)])
    for base, host in enumerate(("host:1", "host:5", "host:9", "host:13"))
]


def main():
    platform = build_platform()
    healthy = platform.execute_request("solr", "req", "host:0", PARTIALS)
    print("healthy run:", [r.doc_id for r in healthy.value],
          "via", len(healthy.boxes_used), "boxes")

    print("\n-- killing every participating box, one at a time --")
    for box_id in healthy.boxes_used:
        fresh = build_platform()
        fresh.fail_box(box_id)
        outcome = fresh.execute_request("solr", "req", "host:0", PARTIALS)
        assert outcome.value == healthy.value
        assert box_id not in outcome.boxes_used
        print(f"  {box_id:22s} failed -> rerouted through "
              f"{len(outcome.boxes_used)} boxes, result identical")

    print("\n-- heartbeat failure detection --")
    detector = FailureDetector(timeout=1.0)
    detector.watch("box:tor:0:0", now=0.0)
    detector.watch("box:core:0:0", now=0.0)
    detector.heartbeat("box:tor:0:0", now=2.0)
    overdue = detector.missing(now=2.5)
    print("  overdue at t=2.5s:", overdue)
    assert overdue == ["box:core:0:0"]

    print("\n-- straggler mitigation --")
    monitor = StragglerMonitor(StragglerPolicy(latency_threshold=0.5,
                                               repeat_limit=3))
    for request in ("r1", "r2", "r3"):
        decision = monitor.observe("box:aggr:0:0:0", request, latency=2.0)
        print(f"  slow for {request}: decision = {decision}")
    assert monitor.permanently_failed() == ["box:aggr:0:0:0"]

    print("\n-- duplicate suppression on recovery --")
    # The platform's boxes forget a request once it is answered, so
    # this box is driven directly and its request is still in flight.
    runtime = solr_runtime("box:tor:0:0", TopKFunction(k=3))
    request_key = "req@t0"
    runtime.announce("solr", request_key, expected=2)
    runtime.submit_partial("solr", request_key, "worker:0", PARTIALS[0][1])
    assert runtime.flush("solr", request_key) is not None
    processed = runtime.last_processed("solr", request_key)
    resend = runtime.submit_partial("solr", request_key,
                                    processed[0], PARTIALS[0][1])
    print(f"  resend from {processed[0]!r} after recovery ->",
          "dropped" if resend is None else "ACCEPTED (bug!)")
    assert resend is None

    print("\n-- mid-request failure: boxes die while partials are in "
          "flight --")
    from repro.core import InFlightRequest, TreeBuilder

    fresh = build_platform()
    topo = fresh.topology
    function = TopKFunction(k=3)
    runtimes = {info.box_id: solr_runtime(info.box_id, function)
                for info in topo.all_boxes()}
    tree = TreeBuilder(topo).build("live-req", "host:0",
                                   [h for h, _ in PARTIALS])
    request = InFlightRequest(
        tree, runtimes, "solr", "live-req",
        [p for _, p in PARTIALS],
        merge=lambda parts: function.merge(parts),
    )
    request.announce_all()
    request.deliver_worker(0)
    request.deliver_worker(1)
    victim = request.tree.worker_entry[0] or sorted(request.tree.boxes)[0]
    log = request.fail_box(victim)
    print(f"  {victim} died mid-request; replayed "
          f"{log.replayed_sources or 'nothing (all processed)'}")
    request.deliver_worker(2)
    request.deliver_worker(3)
    recovered = request.finish()
    expected = function.merge([p for _, p in PARTIALS])
    assert recovered == expected
    print("  final result identical to the failure-free run")
    print("\nall recovery invariants held")


if __name__ == "__main__":
    main()
