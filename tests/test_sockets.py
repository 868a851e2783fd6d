"""Tests for socket-level interception: the same application code must
work unchanged on the plain and the NetAgg socket factories."""

import pytest

from repro.aggbox.functions import TopKFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
from repro.core.sockets import (
    CONTROL_PORT,
    DATA_PORT,
    NetAggSocketFactory,
    SocketError,
    SocketFactory,
)
from repro.topology import ThreeTierParams, three_tier
from repro.wire.records import (
    SearchResult,
    decode_search_results,
    encode_search_results,
)
from tests.leftovers import NOTHING, census, left_behind

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=4
)
MASTER = "host:0"
WORKERS = ["host:1", "host:4", "host:8", "host:12"]


def partials():
    return [
        [SearchResult(i * 10 + j, float(i * 10 + j)) for j in range(4)]
        for i in range(len(WORKERS))
    ]


def run_application(factory):
    """The application: scatter assumed done; workers send partial
    results to the master; the master gathers one response per worker
    and merges.  Identical code for both factories."""
    for host, results in zip(WORKERS, partials()):
        conn = factory.connect(host, MASTER, DATA_PORT)
        conn.send_frame(encode_search_results(results))
        conn.close()
    merger = TopKFunction(k=3)
    gathered = []
    inbox = factory.endpoint(MASTER)
    while True:
        item = inbox.recv(DATA_PORT)
        if item is None:
            break
        _, payload = item
        if payload:
            gathered.append(decode_search_results(payload))
    return merger.merge(gathered), len(gathered)


def make_netagg_factory():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    platform = NetAggPlatform(topo)
    platform.register_app("solr", TopKFunction(k=3),
                          encode_search_results, decode_search_results)
    return NetAggSocketFactory(platform, "solr")


class TestPlainFactory:
    def test_bytes_arrive(self):
        factory = SocketFactory()
        result, n_responses = run_application(factory)
        assert n_responses == len(WORKERS)
        assert [r.doc_id for r in result] == [33, 32, 31]

    def test_chunked_send_reassembles(self):
        factory = SocketFactory()
        conn = factory.connect("host:1", MASTER, DATA_PORT)
        from repro.wire.framing import frame

        data = frame(b"hello world")
        for i in range(len(data)):
            conn.send(data[i:i + 1])
        src, payload = factory.endpoint(MASTER).recv(DATA_PORT)
        assert (src, payload) == ("host:1", b"hello world")

    def test_send_after_close_rejected(self):
        factory = SocketFactory()
        conn = factory.connect("host:1", MASTER, DATA_PORT)
        conn.close()
        with pytest.raises(SocketError):
            conn.send(b"x")


class TestNetAggFactory:
    def test_same_application_same_result(self):
        plain_result, _ = run_application(SocketFactory())
        factory = make_netagg_factory()
        factory.register_request("req-1", MASTER, WORKERS)
        netagg_result, n_responses = run_application(factory)
        assert netagg_result == plain_result
        # The master still sees one response per worker; all but one
        # are the shim's emulated empty results.
        assert n_responses == 1

    def test_master_gets_one_frame_per_worker(self):
        factory = make_netagg_factory()
        factory.register_request("req-1", MASTER, WORKERS)
        for host, results in zip(WORKERS, partials()):
            conn = factory.connect(host, MASTER, DATA_PORT)
            conn.send_frame(encode_search_results(results))
        inbox = factory.endpoint(MASTER)
        frames = []
        while True:
            item = inbox.recv(DATA_PORT)
            if item is None:
                break
            frames.append(item)
        assert len(frames) == len(WORKERS)
        non_empty = [p for _, p in frames if p]
        assert len(non_empty) == 1

    def test_control_traffic_passes_through(self):
        factory = make_netagg_factory()
        factory.register_request("req-1", MASTER, WORKERS)
        conn = factory.connect("host:1", MASTER, CONTROL_PORT)
        conn.send_frame(b"heartbeat")
        src, payload = factory.endpoint(MASTER).recv(CONTROL_PORT)
        assert (src, payload) == ("host:1", b"heartbeat")
        assert factory.endpoint(MASTER).recv(DATA_PORT) is None

    def test_unregistered_traffic_passes_through(self):
        factory = make_netagg_factory()
        conn = factory.connect("host:1", "host:2", DATA_PORT)
        conn.send_frame(b"not a partial result")
        src, payload = factory.endpoint("host:2").recv(DATA_PORT)
        assert payload == b"not a partial result"

    def test_duplicate_request_rejected(self):
        factory = make_netagg_factory()
        factory.register_request("req-1", MASTER, WORKERS)
        with pytest.raises(SocketError):
            factory.register_request("req-1", MASTER, WORKERS)

    def test_boxes_actually_processed_traffic(self):
        factory = make_netagg_factory()
        factory.register_request("req-1", MASTER, WORKERS)
        platform = factory._platform
        # The boxes forget a request on delivery: look while the last
        # worker has yet to send.
        for host, results in list(zip(WORKERS, partials()))[:-1]:
            conn = factory.connect(host, MASTER, DATA_PORT)
            conn.send_frame(encode_search_results(results))
        touched = sum(
            1 for info in platform.topology.all_boxes()
            if platform.box_runtime(info.box_id).last_processed(
                "solr", "req-1@t0")
        )
        assert touched >= 1

    def test_delivery_ends_the_request(self):
        """Fifty delivered requests leave nothing in the boxes or the
        factory, and a delivered id is free to be registered again."""
        factory = make_netagg_factory()
        platform = factory._platform
        expected, _ = run_application(SocketFactory())
        before = census()
        for i in range(50):
            factory.register_request(f"q{i}", MASTER, WORKERS)
            # In flight, the id is taken.
            with pytest.raises(SocketError):
                factory.register_request(f"q{i}", MASTER, WORKERS)
            result, _ = run_application(factory)
            assert result == expected
        assert census() == before
        assert factory._requests == {}
        assert left_behind(platform) == NOTHING
        for info in platform.topology.all_boxes():
            assert not platform.box_runtime(info.box_id)._requests
        factory.register_request("q0", MASTER, WORKERS)
        result, _ = run_application(factory)
        assert result == expected
