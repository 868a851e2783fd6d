"""Tests for the partition-tolerance plane (PR 8).

Covers the pieces end-to-end, each label checked against ground truth:

- schedule coherence: ``FaultSchedule.validate`` rejects incoherent
  timelines and names the offending events;
- partition scopes: rack/pod membership;
- gray detection: the seeded-EWMA latency-outlier detector flags
  without poisoning its baseline, and the platform hedges deliveries
  into gray boxes against the deadline;
- partial delivery: the platform completes around unreachable
  subtrees, the completeness record matches the centralised ground
  truth exactly, the fail-stop baseline raises instead;
- serving: 206 bodies with completeness, the ``MIN_COMPLETENESS``
  floor, 503 partition mapping, and frame-level HTTP robustness
  (garbled request line -> 400, oversized body -> 413 -- well-formed
  JSON, never a dropped connection).
"""

import asyncio
import contextlib
import hashlib
import json
import logging
from unittest import mock

import pytest

from repro.aggbox.functions import SumFunction
from repro.aggregation import deploy_boxes
from repro.core import NetAggPlatform
from repro.core.partition import (
    Completeness,
    GrayDetector,
    SubtreeUnreachable,
)
from repro.faults import (
    BOX_CRASH,
    BOX_GRAY,
    BOX_RECOVER,
    LINK_DOWN,
    LINK_UP,
    NET_PARTITION,
    FaultEvent,
    FaultSchedule,
    PlatformFaultInjector,
    in_scope,
)
from repro.serve import AggregationService, HttpFrontend, ServeConfig
from repro.serve import http
from repro.serve import service as service_module
from repro.topology import ThreeTierParams, three_tier
from repro.topology.base import TOR
from repro.wire.serializer import write_float
from repro.workload.openloop import OP_MLGRAD, pick_endpoints

SMALL = ThreeTierParams(
    n_pods=2, tors_per_pod=2, aggrs_per_pod=2, n_cores=2, hosts_per_tor=2
)
from tests.codecs import read_float
from tests.health import GRAY, health_report


def small_topo():
    topo = three_tier(SMALL)
    deploy_boxes(topo)
    return topo


def sum_platform(topo, schedule, partition):
    platform = NetAggPlatform(
        topo, faults=PlatformFaultInjector(schedule, topo=topo),
        partition=partition)
    platform.register_app("sum", SumFunction(), write_float,
                          lambda b: read_float(b)[0])
    return platform


def pod_partition(duration=0.0, pod=1):
    return FaultSchedule([
        FaultEvent(time=0.5, kind=NET_PARTITION,
                   target=f"pod:{pod}", duration=duration),
    ])


# ---------------------------------------------------------------------------
# Schedule coherence


class TestScheduleValidate:
    def test_constructor_validates_by_default(self):
        with pytest.raises(ValueError, match="incoherent fault schedule"):
            FaultSchedule([
                FaultEvent(time=1.0, kind=BOX_RECOVER, target="box:a"),
            ])

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ValueError, match=r"box-recover@1->box:tor:0:0"):
            FaultSchedule([
                FaultEvent(time=1.0, kind=BOX_RECOVER, target="box:tor:0:0"),
            ])

    def test_overlapping_crash_windows_rejected(self):
        with pytest.raises(ValueError, match="still crashed"):
            FaultSchedule([
                FaultEvent(time=1.0, kind=BOX_CRASH, target="box:tor:0:0",
                           duration=0.0),
                FaultEvent(time=2.0, kind=BOX_CRASH, target="box:tor:0:0",
                           duration=0.0),
            ])

    def test_double_link_down_rejected(self):
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule([
                FaultEvent(time=1.0, kind=LINK_DOWN, target="a->b"),
                FaultEvent(time=2.0, kind=LINK_DOWN, target="a->b"),
            ])

    def test_overlapping_domain_windows_rejected(self):
        # duration=0 is permanent, so any later window on the same
        # scope overlaps it.
        with pytest.raises(ValueError, match="pod:1"):
            FaultSchedule([
                FaultEvent(time=1.0, kind=NET_PARTITION, target="pod:1",
                           duration=0.0),
                FaultEvent(time=5.0, kind=NET_PARTITION, target="pod:1",
                           duration=1.0),
            ])

    def test_coherent_timeline_returns_self(self):
        schedule = FaultSchedule([
            FaultEvent(time=1.0, kind=BOX_CRASH, target="box:tor:0:0"),
            FaultEvent(time=2.0, kind=BOX_RECOVER, target="box:tor:0:0"),
            FaultEvent(time=2.0, kind=BOX_CRASH, target="box:tor:0:0"),
            FaultEvent(time=3.0, kind=BOX_RECOVER, target="box:tor:0:0"),
            FaultEvent(time=1.0, kind=LINK_DOWN, target="a->b"),
            FaultEvent(time=2.0, kind=LINK_UP, target="a->b"),
            FaultEvent(time=1.0, kind=NET_PARTITION, target="pod:1",
                       duration=1.0),
            FaultEvent(time=2.0, kind=NET_PARTITION, target="pod:1",
                       duration=1.0),
        ])
        assert schedule.validate() is schedule

    def test_all_violations_listed(self):
        with pytest.raises(ValueError) as exc:
            FaultSchedule([
                FaultEvent(time=1.0, kind=BOX_RECOVER, target="box:a"),
                FaultEvent(time=1.0, kind=LINK_DOWN, target="a->b"),
                FaultEvent(time=2.0, kind=LINK_DOWN, target="a->b"),
            ])
        message = str(exc.value)
        assert "box-recover@1->box:a" in message
        assert "link-down@2->a->b" in message


# ---------------------------------------------------------------------------
# Partition scopes


class TestFaultDomains:
    def test_pod_domains_cover_pod_members(self):
        topo = small_topo()
        scope = "pod:0"
        hosts = {h for h in topo.hosts() if in_scope(topo, h, scope)}
        assert hosts == {h for h in topo.hosts() if topo.pod_of(h) == 0}
        boxes = [b.box_id for b in topo.all_boxes()]
        assert {b for b in boxes if in_scope(topo, b, scope)} == {
            b for b in boxes if topo.pod_of(b) == 0}

    def test_rack_domains_cover_rack_members(self):
        topo = small_topo()
        tor = sorted(topo.switches(TOR))[0]
        scope = f"rack:{tor}"
        assert {h for h in topo.hosts() if in_scope(topo, h, scope)} == {
            h for h in topo.hosts() if topo.tor_of(h) == tor}
        assert {b.box_id for b in topo.all_boxes()
                if in_scope(topo, b.box_id, scope)} == {
            b.box_id for b in topo.boxes_at(tor)}

    def test_in_scope_membership(self):
        topo = small_topo()
        host0 = sorted(topo.hosts())[0]
        assert in_scope(topo, host0, f"pod:{topo.pod_of(host0)}")
        assert not in_scope(topo, host0, "pod:9")
        tor = topo.tor_of(host0)
        assert in_scope(topo, host0, f"rack:{tor}")
        assert in_scope(topo, tor, f"rack:{tor}")
        # Unknown nodes are outside every scope.
        assert not in_scope(topo, "host:999", "pod:0")
        assert not in_scope(topo, "nonsense", f"rack:{tor}")


# ---------------------------------------------------------------------------
# Gray detection


class TestGrayDetector:
    def test_seeded_outlier_flags_immediately(self):
        detector = GrayDetector(baseline=0.001)
        assert detector.observe("box:a", 0.01, at=0.0)
        assert detector.is_gray("box:a")
        assert not detector.is_gray("box:b")

    def test_outliers_do_not_poison_the_baseline(self):
        detector = GrayDetector(baseline=0.001)
        for t in range(5):
            detector.observe("box:a", 0.5, at=float(t))
        # Five huge samples later the baseline is still the seed: a
        # gray box cannot talk the detector into calling it normal, and
        # ten times the seed still flags.
        assert detector.is_gray("box:a")
        assert detector.observe("box:a", 0.01, at=5.0)

    def test_healthy_sample_clears_the_flag(self):
        detector = GrayDetector(baseline=0.001)
        detector.observe("box:a", 0.01, at=0.0)
        assert detector.is_gray("box:a")
        assert not detector.observe("box:a", 0.001, at=1.0)
        assert not detector.is_gray("box:a")


class TestCompleteness:
    def test_exact_for(self):
        comp = Completeness(workers_total=8, workers_included=8)
        assert comp.exact and comp.fraction == 1.0
        assert comp.missing_workers == ()

    def test_fraction_and_exact(self):
        comp = Completeness(workers_total=4, workers_included=3,
                            missing_workers=(2,),
                            missing_scopes=("pod:1",))
        assert not comp.exact
        assert comp.fraction == pytest.approx(0.75)
        body = comp.to_dict()
        assert body["missing_workers"] == [2]
        assert body["missing_scopes"] == ["pod:1"]

    def test_merged_unions_missing_workers(self):
        parts = [
            Completeness(4, 3, (1,), ("pod:1",)),
            Completeness(4, 3, (2,), ("rack:tor:1:0",)),
        ]
        merged = Completeness.merged(parts)
        assert merged.workers_total == 4
        assert merged.missing_workers == (1, 2)
        assert merged.workers_included == 2
        assert set(merged.missing_scopes) == {"pod:1", "rack:tor:1:0"}

    def test_incoherent_counts_rejected(self):
        with pytest.raises(ValueError):
            Completeness(workers_total=2, workers_included=3)


# ---------------------------------------------------------------------------
# Platform partial delivery


class TestPartialDelivery:
    def _workers(self, topo):
        """Worker hosts split across both pods, with known values."""
        hosts = sorted(topo.hosts(),
                       key=lambda h: (topo.pod_of(h), h))
        pod0 = [h for h in hosts if topo.pod_of(h) == 0]
        pod1 = [h for h in hosts if topo.pod_of(h) == 1]
        workers = pod0[1:3] + pod1[:2]          # indices 0,1 / 2,3
        values = [1.0, 2.0, 4.0, 8.0]
        return pod0[0], list(zip(workers, values))

    def test_partial_value_is_exact_over_included_workers(self):
        topo = small_topo()
        master, partials = self._workers(topo)
        platform = sum_platform(topo, pod_partition(), True)
        platform.advance_clock(1.0)
        outcome = platform.execute_request("sum", "r1", master, partials)
        # Ground truth: the pod-0 workers only, nothing double-counted.
        assert outcome.value == pytest.approx(1.0 + 2.0)
        comp = outcome.completeness
        assert comp is not None and not comp.exact
        assert comp.workers_total == 4
        assert comp.workers_included == 2
        assert comp.missing_workers == (2, 3)
        assert comp.missing_scopes == ("pod:1",)
        assert comp.fraction == pytest.approx(0.5)
        cut = outcome.events_of_kind("partition")
        assert len(cut) == 2

    def test_fail_stop_baseline_raises(self):
        topo = small_topo()
        master, partials = self._workers(topo)
        platform = sum_platform(topo, pod_partition(), partition=False)
        platform.advance_clock(1.0)
        with pytest.raises(SubtreeUnreachable) as exc:
            platform.execute_request("sum", "r1", master, partials)
        assert exc.value.missing_workers == (2, 3)
        assert exc.value.scopes == ("pod:1",)

    def test_no_reachable_workers_always_raises(self):
        topo = small_topo()
        hosts = sorted(topo.hosts(), key=lambda h: (topo.pod_of(h), h))
        master = [h for h in hosts if topo.pod_of(h) == 0][0]
        partials = [(h, 1.0) for h in hosts if topo.pod_of(h) == 1][:3]
        platform = sum_platform(topo, pod_partition(), True)
        platform.advance_clock(1.0)
        # An answer covering zero workers is no answer, partial or not.
        with pytest.raises(SubtreeUnreachable):
            platform.execute_request("sum", "r1", master, partials)

    def test_post_heal_requests_are_exact_again(self):
        topo = small_topo()
        master, partials = self._workers(topo)
        platform = sum_platform(topo, pod_partition(duration=1.0), True)
        platform.advance_clock(1.0)
        inside = platform.execute_request("sum", "r1", master, partials)
        assert not inside.completeness.exact
        platform.advance_clock(30.0)
        healed = platform.execute_request("sum", "r2", master, partials)
        assert healed.completeness.exact
        assert healed.value == pytest.approx(sum(v for _, v in partials))
        assert not healed.events_of_kind("partition")


class TestGrayHedging:
    def _gray_everything(self, topo, severity=400.0):
        return FaultSchedule([
            FaultEvent(time=0.5, kind=BOX_GRAY, target=info.box_id,
                       duration=1e9, severity=severity)
            for info in topo.all_boxes()
        ])

    def _run(self, partition):
        topo = small_topo()
        schedule = self._gray_everything(topo)
        platform = sum_platform(topo, schedule, partition)
        hosts = sorted(topo.hosts(), key=lambda h: (topo.pod_of(h), h))
        partials = [(h, 1.0) for h in hosts[1:5]]
        platform.advance_clock(1.0)
        start = platform.clock
        outcome = platform.execute_request("sum", "r1", hosts[0],
                                           partials)
        return platform, outcome, platform.clock - start

    def test_hedging_caps_gray_latency(self):
        _, slow, slow_latency = self._run(partition=False)
        platform, hedged, hedged_latency = self._run(partition=True)
        # Exactness is never traded away -- only latency.
        assert slow.value == hedged.value == pytest.approx(4.0)
        assert hedged.events_of_kind("hedge")
        assert not slow.events_of_kind("hedge")
        assert hedged_latency < slow_latency

    def test_detector_flags_and_health_report_shows_gray(self):
        platform, _, _ = self._run(partition=True)
        flagged = [b for b in sorted(platform._boxes)
                   if platform._gray.is_gray(b)]
        assert flagged
        report = health_report(platform)
        assert any(report[b].state == GRAY for b in flagged)


# ---------------------------------------------------------------------------
# Serving: 206 bodies, the completeness floor, partition 503s

SERVE_WORKERS = 4


def serve_request(tenant="t1", rid="r1", seed=0):
    # Four explicit gradients: row i lands on sorted-host i (the
    # service maps explicit payload rows to hosts by index), so with
    # the rack of rows 2-3 cut exactly those rows drop out.
    return {"op": OP_MLGRAD, "tenant": tenant, "id": rid,
            "payload_seed": seed,
            "gradients": [[1.0, float(i)] for i in range(SERVE_WORKERS)]}


class ServeScenario:
    """One rack cut, coordinator outside both the rack and the rows."""

    def __init__(self):
        self.topo = small_topo()
        self.hosts = sorted(self.topo.hosts())
        # Cut the rack of row 2's host (the second pod-0 rack).
        self.tor = self.topo.tor_of(self.hosts[2])
        self.scope = f"rack:{self.tor}"
        self.missing = [i for i in range(SERVE_WORKERS)
                        if self.topo.tor_of(self.hosts[i]) == self.tor]
        self.included = [i for i in range(SERVE_WORKERS)
                         if i not in self.missing]
        assert self.missing and self.included
        self.seed = self._coordinator_seed()

    def _coordinator_seed(self):
        """A payload seed whose coordinator is a pod-1 host.

        Pod-1 hosts are outside the cut rack (same side as the other
        pod-0 rack via the core) and not among the explicit payload
        rows, so the request is legal and partially deliverable.
        """
        for seed in range(1, 500):
            master, _ = pick_endpoints(self.hosts, seed, 8)
            if self.topo.pod_of(master) == 1:
                return seed
        raise AssertionError("no pod-1 coordinator seed found")

    def schedule(self):
        return FaultSchedule([
            FaultEvent(time=0.5, kind=NET_PARTITION, target=self.scope,
                       duration=0.0),
        ])

    def service(self, partition, **config):
        return AggregationService(ServeConfig(
            topo=SMALL, admission=False, faults=self.schedule(),
            partition=partition, **config))


def raised_floor():
    """Lift the completeness floor above the scenario's half coverage."""
    return mock.patch.object(service_module, "MIN_COMPLETENESS", 0.9)


class TestServePartialResponses:
    def test_206_carries_exact_completeness(self):
        scenario = ServeScenario()
        service = scenario.service(True)
        service.platform.advance_clock(1.0)
        response = service.handle(serve_request(seed=scenario.seed))
        assert response["status"] == 206
        assert response["value"] == pytest.approx(
            [float(len(scenario.included)),
             float(sum(scenario.included))])
        comp = response["completeness"]
        assert comp["exact"] is False
        assert comp["missing_workers"] == scenario.missing
        assert comp["missing_scopes"] == [scenario.scope]
        assert comp["fraction"] == pytest.approx(
            len(scenario.included) / SERVE_WORKERS)

    def test_completeness_floor_maps_to_503(self):
        scenario = ServeScenario()
        service = scenario.service(True)
        service.platform.advance_clock(1.0)
        with raised_floor():
            response = service.handle(
                serve_request(tenant="picky", seed=scenario.seed))
        assert response["status"] == 503
        assert response["error"] == "incomplete"
        assert response["completeness"]["fraction"] < 0.9

    def test_fail_stop_arm_maps_to_503_partition(self):
        scenario = ServeScenario()
        service = scenario.service(partition=False)
        service.platform.advance_clock(1.0)
        response = service.handle(serve_request(seed=scenario.seed))
        assert response["status"] == 503
        assert response["error"] == "partition"
        assert response["missing_workers"] == scenario.missing
        assert response["scopes"] == [scenario.scope]

    def test_stats_count_partials_and_stay_coherent(self):
        scenario = ServeScenario()
        service = scenario.service(True)
        service.platform.advance_clock(1.0)
        response = service.handle(serve_request(seed=scenario.seed))
        assert response["status"] == 206
        stats = service.report.stats("t1")
        assert stats.partial == 1
        assert service.report.accounting_errors() == []


# ---------------------------------------------------------------------------
# Frozen outcomes: every observable of the scenarios above, pinned

#: sha256 of :func:`frozen_outcomes` as canonical JSON.  The scenarios
#: may change how they build a platform or service; they may not change
#: a value, a completeness record, a hedge count, a latency, a gray
#: flag, an audit-trail event or a response body.
FROZEN_OUTCOMES_SHA256 = (
    "f79efe59c2a47a64b526e0f9f8e53d54bef80d4e7a61f77fa5dd5de90a61d583")

#: The partition argument of the resilient and the fail-stop arms.
RESILIENT = True
FAIL_STOP = False


def frozen_outcomes():
    """The platform and service scenarios of this module, as data."""
    out = {}
    topo = small_topo()
    master, partials = TestPartialDelivery()._workers(topo)
    platform = sum_platform(topo, pod_partition(), RESILIENT)
    platform.advance_clock(1.0)
    outcome = platform.execute_request("sum", "r1", master, partials)
    out["partial"] = [outcome.value, outcome.completeness.to_dict(),
                      [repr(e) for e in outcome.shim_events],
                      platform.clock]
    platform = sum_platform(small_topo(), pod_partition(), FAIL_STOP)
    platform.advance_clock(1.0)
    with pytest.raises(SubtreeUnreachable) as exc:
        platform.execute_request("sum", "r1", master, partials)
    out["failstop"] = [str(exc.value), list(exc.value.missing_workers),
                       list(exc.value.scopes), platform.clock]
    platform = sum_platform(small_topo(), pod_partition(duration=1.0),
                            RESILIENT)
    platform.advance_clock(1.0)
    inside = platform.execute_request("sum", "r1", master, partials)
    platform.advance_clock(30.0)
    healed = platform.execute_request("sum", "r2", master, partials)
    out["heal"] = [inside.value, inside.completeness.to_dict(),
                   healed.value, healed.completeness.to_dict(),
                   platform.clock]
    for name, partition in (("slow", FAIL_STOP), ("hedged", RESILIENT)):
        platform, outcome, latency = TestGrayHedging()._run(partition)
        out[name] = [
            outcome.value, len(outcome.events_of_kind("hedge")), latency,
            [repr(e) for e in outcome.shim_events],
            {b: beat.state for b, beat in health_report(platform).items()},
            None if outcome.completeness is None
            else outcome.completeness.to_dict(),
        ]
    scenario = ServeScenario()
    for name, partition, floor, tenant in (
            ("206", RESILIENT, contextlib.nullcontext(), "t1"),
            ("floor-503", RESILIENT, raised_floor(), "picky"),
            ("partition-503", FAIL_STOP, contextlib.nullcontext(), "t1")):
        service = scenario.service(partition)
        service.platform.advance_clock(1.0)
        with floor:
            out[f"serve-{name}"] = service.handle(
                serve_request(tenant=tenant, seed=scenario.seed))
    return out


def test_scenario_outcomes_are_frozen():
    text = json.dumps(frozen_outcomes(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == FROZEN_OUTCOMES_SHA256, text


#: The reason phrase of every status the front door writes (RFC 9110;
#: 429 and 431 are RFC 6585's).
REASON_PHRASES = {
    200: "OK", 206: "Partial Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


#: The frame-layer errors: each is answered, then the connection closes.
FRAME_ERRORS = frozenset({
    "bad-request-line", "bad-content-length", "payload-too-large",
    "header-too-large", "too-many-headers"})


class _Capture:
    """A stream-writer stand-in that keeps what is written."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


class TestHttpFrameRobustness:
    def _raw_exchange(self, raw):
        async def scenario():
            frontend = HttpFrontend(AggregationService())
            host, port = await frontend.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(raw)
            await writer.drain()

            # A server that waits for bytes never sent fails, not hangs.
            def read(step):
                return asyncio.wait_for(step, 30)

            status_line = await read(reader.readline())
            headers = {}
            while (line := await read(reader.readline())) not in (
                    b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = json.loads(await read(
                reader.readexactly(int(headers["content-length"]))))
            if payload.get("error") in FRAME_ERRORS:
                # The stream cannot be resynced: the server closes the
                # connection after the error body.
                assert await read(reader.read(1)) == b""
            writer.close()
            await frontend.stop()
            return status_line, payload

        return asyncio.run(scenario())

    def test_garbled_request_line_is_a_400(self):
        status_line, payload = self._raw_exchange(b"\xff\xfe garbage\r\n\r\n")
        assert b"400" in status_line
        assert payload["status"] == 400
        assert payload["error"] == "bad-request-line"

    def test_non_integer_content_length_is_a_400(self):
        status_line, payload = self._raw_exchange(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert b"400" in status_line
        assert payload["error"] == "bad-content-length"

    def test_negative_content_length_is_a_400(self):
        status_line, payload = self._raw_exchange(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert b"400" in status_line
        assert payload["error"] == "bad-content-length"

    def test_oversized_body_is_a_413(self):
        # One byte past the 4 MiB frame limit.
        status_line, payload = self._raw_exchange(
            b"POST /v1/query HTTP/1.1\r\n"
            b"Content-Length: 4194305\r\n\r\n")
        assert status_line == b"HTTP/1.1 413 Payload Too Large\r\n"
        assert payload["status"] == 413
        assert payload["error"] == "payload-too-large"

    def test_body_of_exactly_the_frame_limit_is_served(self):
        body = json.dumps({"tenant": "t1", "id": "r1", "payload_seed": 1})
        # JSON allows trailing spaces.
        body = body.encode().ljust(4 * 1024 * 1024)
        status_line, payload = self._raw_exchange(
            b"POST /v1/query HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert status_line == b"HTTP/1.1 200 OK\r\n"
        assert payload["status"] == 200

    def test_long_header_line_is_a_431_without_a_traceback(self, caplog):
        # One header line past the stream reader's 64 KiB limit once
        # raised ValueError out of the header loop, and asyncio logged
        # "Unhandled exception in client_connected_cb".
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            status_line, payload = self._raw_exchange(
                b"POST /v1/query HTTP/1.1\r\nX-Long: "
                + b"a" * 70_000 + b"\r\n\r\n")
        assert b"431" in status_line
        assert payload["status"] == 431
        assert payload["error"] == "header-too-large"
        assert not [r for r in caplog.records if r.exc_info], caplog.text
        assert "Unhandled exception" not in caplog.text

    def test_too_many_header_lines_is_a_431(self, caplog):
        # 101 header lines: one past the cap of 100, spelled out so a
        # moved cap fails here.
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            status_line, payload = self._raw_exchange(
                b"POST /v1/query HTTP/1.1\r\n" + headers + b"\r\n")
        assert status_line == \
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        assert payload["status"] == 431
        assert payload["error"] == "too-many-headers"
        assert not [r for r in caplog.records if r.exc_info], caplog.text

    def test_header_lines_up_to_the_cap_are_served(self):
        body = json.dumps({"tenant": "t1", "id": "r1",
                           "payload_seed": 1}).encode()
        # 99 of these plus Content-Length: exactly 100 header lines.
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(99))
        status_line, payload = self._raw_exchange(
            b"POST /v1/query HTTP/1.1\r\n" + headers
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert status_line == b"HTTP/1.1 200 OK\r\n"
        assert payload["status"] == 200

    @pytest.mark.parametrize("status", sorted(REASON_PHRASES))
    def test_status_line_carries_the_reason_phrase(self, status):
        writer = _Capture()
        asyncio.run(http._write_response(writer, status, {}))
        assert writer.data.startswith(
            f"HTTP/1.1 {status} {REASON_PHRASES[status]}\r\n".encode())

    def test_no_status_is_written_without_its_phrase(self):
        assert http._REASONS == REASON_PHRASES

    @pytest.mark.parametrize("raw,status,error", [
        (b"\xff\xfe garbage\r\n\r\n", 400, "bad-request-line"),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\n[1",
         400, "bad-json"),
        (b"GET /v1/nowhere HTTP/1.1\r\n\r\n", 404, "not-found"),
        (b"GET /v1/query HTTP/1.1\r\n\r\n", 405, "method-not-allowed"),
    ])
    def test_body_status_is_the_wire_status(self, raw, status, error):
        status_line, payload = self._raw_exchange(raw)
        assert status_line == \
            f"HTTP/1.1 {status} {REASON_PHRASES[status]}\r\n".encode()
        assert payload["status"] == status
        assert payload["error"] == error
