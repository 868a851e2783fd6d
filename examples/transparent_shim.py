"""Transparent socket interception (§3.2.2): zero application changes.

The same application function -- workers `connect()` to the master and
`send()` partial results, the master gathers one response per worker --
runs twice: once on the plain socket factory, once on the NetAgg
factory.  The application code cannot tell the difference, but with the
NetAgg factory the bytes flow through agg boxes, the master receives a
single aggregated response plus empty frames, and the final merged
results are byte-identical.

Run:  python examples/transparent_shim.py
"""

from repro.aggbox.functions import TopKFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform, NetAggSocketFactory, SocketFactory
from repro.core.sockets import DATA_PORT
from repro.topology import ThreeTierParams, three_tier
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)

MASTER = "host:0"
WORKERS = ["host:1", "host:4", "host:8", "host:12"]


def application(factory):
    """The unmodified partition/aggregation application."""
    # Workers produce and send partial results.
    for i, host in enumerate(WORKERS):
        results = [SearchResult(i * 10 + j, float(i * 10 + j))
                   for j in range(5)]
        conn = factory.connect(host, MASTER, DATA_PORT)
        conn.send_frame(encode_search_results(results))
        conn.close()
    # The master gathers responses and merges (empty frames are noise).
    merger = TopKFunction(k=3)
    inbox = factory.endpoint(MASTER)
    gathered, responses = [], 0
    while True:
        item = inbox.recv(DATA_PORT)
        if item is None:
            break
        responses += 1
        _, payload = item
        if payload:
            gathered.append(decode_search_results(payload))
    return merger.merge(gathered), responses, len(gathered)


def main():
    plain_result, plain_responses, plain_data = application(SocketFactory())
    print("plain sockets : "
          f"{plain_responses} responses ({plain_data} with data), "
          f"top docs {[r.doc_id for r in plain_result]}")

    topo = three_tier(ThreeTierParams(
        n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2,
        hosts_per_tor=4,
    ))
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    platform.register_app("solr", TopKFunction(k=3),
                          encode_search_results, decode_search_results)
    shim = NetAggSocketFactory(platform, "solr")
    shim.register_request("req-1", MASTER, WORKERS)

    netagg_result, netagg_responses, netagg_data = application(shim)
    # The boxes forget a request once the master has its answer, so the
    # boxes it went through are read off its tree.
    boxes = len(platform.build_trees("req-1", MASTER, WORKERS)[0].boxes)
    print("netagg shim   : "
          f"{netagg_responses} responses ({netagg_data} with data, the "
          f"rest emulated empty), aggregated through {boxes} boxes, "
          f"top docs {[r.doc_id for r in netagg_result]}")

    assert netagg_result == plain_result
    print("\nidentical results; the application never changed")


if __name__ == "__main__":
    main()
