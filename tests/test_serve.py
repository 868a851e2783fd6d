"""Tests for the live serving layer (``repro.serve``).

Covers the four contract areas of the serving API:

- endpoint round-trips (service dicts and the HTTP dispatch seam);
- admission mapping: ``AdmissionNack`` -> 429 with a retry hint,
  per-tenant isolation intact;
- deterministic loadgen replay: identical (params, seed) -> identical
  per-tenant report, and the report's accounting self-checks hold;
- chaos: box failures mid-stream yield well-formed errors (503 when
  the breakers fail fast) and a post-recovery retry returns the exact
  centralised aggregate.
"""

import asyncio
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AggregationService,
    HttpFrontend,
    ServeConfig,
    TenantPolicy,
    run_loadgen,
)
from repro.workload.openloop import (
    OP_MLGRAD,
    OP_QUERY,
    OpenLoopParams,
    ZipfTenants,
    iter_arrivals,
    pick_endpoints,
)
from repro.serve.service import MAX_SYNTHESISED_VALUES
from repro.wire import write_floats
from tests.leftovers import NOTHING, census, left_behind


def _query(tenant="t1", rid="r1", seed=42, **extra):
    return {"op": OP_QUERY, "tenant": tenant, "id": rid,
            "payload_seed": seed, **extra}


def _mlgrad(tenant="t1", rid="g1", seed=7, **extra):
    return {"op": OP_MLGRAD, "tenant": tenant, "id": rid,
            "payload_seed": seed, **extra}


class TestServiceRoundTrips:
    def test_query_exact_aggregate(self):
        service = AggregationService()
        request = _query()
        response = service.handle(request)
        assert response["status"] == 200
        assert response["value"] == service.expected_value(request)
        assert response["latency"] > 0
        assert response["boxes"] >= 1

    def test_mlgrad_matches_centralised_sum(self):
        service = AggregationService()
        request = _mlgrad()
        response = service.handle(request)
        assert response["status"] == 200
        expected = service.expected_value(request)
        assert len(response["value"]) == len(expected)
        # Tree-shaped merges reassociate float adds; agreement is to
        # rounding error, exactly as repro.apps.mlgrad documents.
        assert all(abs(a - b) < 1e-9
                   for a, b in zip(response["value"], expected))

    def test_explicit_payloads(self):
        service = AggregationService()
        response = service.handle(_query(
            results=[[[1, 0.9], [2, 0.5]], [[3, 0.7]], [[4, 0.99]]]))
        assert response["status"] == 200
        assert response["value"][0] == [4, 0.99]

    def test_expected_value_of_explicit_payload_draws_no_endpoints(self):
        """Explicit rows name their own hosts: ``workers`` is unused, so
        a value no draw would accept cannot fail the ground truth."""
        service = AggregationService()
        assert service.expected_value(_query(
            results=[[[1, 0.9]], [[4, 0.99]]], workers=-5))[0] == [4, 0.99]
        assert service.expected_value(_mlgrad(
            gradients=[[1.0, 2.0], [0.5, 0.5]], workers=-5)) == [1.5, 2.5]

    def test_unknown_op_404(self):
        service = AggregationService()
        response = service.handle({"op": "nonsense", "tenant": "t1",
                                   "id": "x"})
        assert response["status"] == 404
        assert response["error"] == "unknown-op"
        assert response["id"] == "x" and response["tenant"] == "t1"

    def test_malformed_payload_400(self):
        service = AggregationService()
        response = service.handle(_query(results=[]))
        assert response["status"] == 400
        assert response["error"] == "bad-request"

    def test_report_ledger_tracks_statuses(self):
        service = AggregationService()
        service.handle(_query(rid="a"))
        service.handle({"op": "nope", "tenant": "t1", "id": "b"})
        stats = service.report.tenants["t1"]
        assert stats.requests == 2
        assert stats.ok == 1 and stats.errors == 1
        assert not service.report.accounting_errors()

    def test_lock_is_built_inside_the_running_loop(self):
        """On 3.9 an ``asyncio.Lock`` built with no running loop raises:
        the service builds its one lock in the first ``handle_async``,
        and concurrent submissions still run in submission order."""
        real_lock = asyncio.Lock
        built = []

        def lock_needing_a_loop():
            asyncio.get_running_loop()      # RuntimeError outside a loop
            built.append(True)
            return real_lock()

        async def submit(service):
            return await asyncio.gather(*(
                service.handle_async(_query(rid=f"r{i}", seed=i))
                for i in range(4)))

        with mock.patch("asyncio.Lock", lock_needing_a_loop):
            service = AggregationService()
            responses = asyncio.run(submit(service))
        assert [r["id"] for r in responses] == ["r0", "r1", "r2", "r3"]
        assert all(r["status"] == 200 for r in responses)
        assert built == [True]


_SYNTH_SERVICE = []


def _synth_service():
    """One service shared by every example (synthesis reads only hosts)."""
    if not _SYNTH_SERVICE:
        _SYNTH_SERVICE.append(AggregationService(ServeConfig(
            admission=False, telemetry=False)))
    return _SYNTH_SERVICE[0]


class TestSynthesisedGradients:
    @given(seed=st.one_of(st.integers(), st.integers(min_value=2 ** 64),
                          st.integers(max_value=-1)),
           dims=st.sampled_from([-3, 0, 1, 7, 1024, 1998, 1999, 2000,
                                 4100]),
           workers=st.sampled_from([1, 3, 8]))
    @settings(max_examples=200, deadline=None)
    def test_partials_are_the_literal_formula_bit_for_bit(
            self, seed, dims, workers):
        service = _synth_service()
        request = _mlgrad(seed=seed, gradient_dims=dims, workers=workers)
        _, hosts = pick_endpoints(sorted(service.platform.topology.hosts()),
                                  seed, workers)
        literal = [
            (host, [((seed + i * 31 + j * 7) % 1999 - 999) / 999.0
                    for j in range(dims)])
            for i, host in enumerate(hosts)
        ]
        partials = service._mlgrad_partials(request)
        assert [host for host, _ in partials] == hosts
        assert [write_floats(v) for _, v in partials] == \
            [write_floats(v) for _, v in literal]


    @pytest.mark.parametrize("dims", [0, 1, 1999, 2000, 4100])
    def test_served_round_is_the_centralised_sum(self, dims):
        service = AggregationService()
        request = _mlgrad(rid=f"g{dims}", gradient_dims=dims, workers=3)
        response = service.handle(request)
        assert response["status"] == 200
        expected = service.expected_value(request)
        assert len(response["value"]) == len(expected) == dims
        # The trees reassociate float adds (see the round-trip test).
        assert response["value"] == pytest.approx(expected, abs=1e-9)


class TestSynthesisBounds:
    """A short body cannot buy unbounded synthesis under the lock."""

    @pytest.mark.parametrize("request_, field", [
        (_mlgrad(workers=-2), "'workers'"),
        (_mlgrad(workers=0), "'workers'"),
        (_query(workers=0), "'workers'"),
        (_query(results=[[[1, 0.5]]], workers=0), "'workers'"),
        (_mlgrad(gradient_dims=-5), "'gradient_dims'"),
        (_query(results_per_worker=-1), "'results_per_worker'"),
        (_mlgrad(gradient_dims=300_000), "'gradient_dims'"),
        (_query(results_per_worker=200_000), "'results_per_worker'"),
    ])
    def test_refused_400_naming_the_field(self, request_, field):
        service = AggregationService()
        response = service.handle(request_)
        assert response["status"] == 400
        assert response["error"] == "bad-request"
        assert field in response["reason"]

    def test_the_ceiling_itself_is_served(self):
        service = AggregationService()
        at = service.handle(_mlgrad(
            rid="at", workers=8, gradient_dims=MAX_SYNTHESISED_VALUES // 8))
        over = service.handle(_mlgrad(
            rid="over", workers=8,
            gradient_dims=MAX_SYNTHESISED_VALUES // 8 + 1))
        assert at["status"] == 200
        assert len(at["value"]) == MAX_SYNTHESISED_VALUES // 8
        assert over["status"] == 400

    def test_served_shapes_stay_well_under_the_ceiling(self):
        from repro.experiments import fig_partition

        # loadgen and fig_serve send OpenLoopParams' sizes; fig_partition
        # sends its WORKERS with the default four results; serve_bulk
        # sends 8 x 1,024.
        params = OpenLoopParams()
        largest = max(params.workers * params.results_per_worker,
                      params.workers * params.gradient_dims,
                      fig_partition.WORKERS * 4)
        assert largest * 100 < MAX_SYNTHESISED_VALUES
        assert 8 * 1024 * 2 <= MAX_SYNTHESISED_VALUES


class TestDuplicateIdsCostNothing:
    """A re-sent id is refused at the front door: it used to be
    admitted, planned and probed first, and only then refused."""

    @staticmethod
    def _charges(service):
        platform = service.platform
        return {
            "clock": platform.clock,
            "admitted": platform._admission.admitted,
            "nacks": len(platform._admission.nacks),
            "tokens": platform._admission.bucket("t1").available(
                platform.clock),
            "breakers": platform.breakers.states(),
            "transitions": platform.breakers.transitions(),
            "partials": {box.box_id: service.platform.box_runtime(
                box.box_id).pending_count()
                for box in platform.topology.all_boxes()},
        }

    @pytest.mark.parametrize("make", [_query, _mlgrad])
    def test_refused_before_any_charge(self, make):
        service = AggregationService()
        first = service.handle(make(rid="a"))
        assert first["status"] == 200
        before = self._charges(service)
        assert before["admitted"] == 1
        again = service.handle(make(rid="a"))
        assert again["status"] == 400
        assert again["error"] == "bad-request"
        assert "duplicate request id 'a'" in again["reason"]
        assert self._charges(service) == before
        # The refusal is still a served request in the ledgers.
        assert service.report.tenants["t1"].requests == 2
        # ... and the next fresh id is charged exactly once, from the
        # clock the first request left behind.
        fresh = service.handle(make(rid="b"))
        assert fresh["status"] == 200
        assert fresh["latency"] == pytest.approx(first["latency"])
        assert service.platform._admission.admitted == 2

    def test_a_rate_limited_tenant_keeps_its_last_token(self):
        service = AggregationService(ServeConfig(
            tenants={"hot": TenantPolicy(rate=0.001, burst=2.0)}))
        assert service.handle(_query(tenant="hot", rid="a"))["status"] == 200
        assert service.handle(_query(tenant="hot", rid="a"))["status"] == 400
        # The duplicate did not spend the second token.
        assert service.handle(_query(tenant="hot", rid="b"))["status"] == 200
        assert service.handle(_query(tenant="hot", rid="c"))["status"] == 429


class TestNothingLeftBehind:
    """A served request's box and shim state ends with its response."""

    #: Eight gradients, the last one short: refused by a box's merge,
    #: after seven partials were already buffered in the tree.
    #: (Explicit rows go to the first eight hosts; ``payload_seed`` 0
    #: draws a master outside them.)
    RAGGED = [[1.0] * 4] * 7 + [[1.0] * 3]

    def test_malformed_rounds_leave_no_phantom_pending(self):
        service = AggregationService(ServeConfig(admission=False))
        for i in range(40):
            response = service.handle(
                _mlgrad(rid=f"bad-{i}", seed=0, gradients=self.RAGGED))
            assert response["status"] == 400
            assert "gradient length mismatch" in response["reason"]
        assert left_behind(service.platform) == NOTHING

    def test_an_unencodable_doc_id_is_refused_by_the_encoder(self):
        """A doc id the wire cannot carry dies where the worker's
        partial is serialised, not in the first box's decode."""
        service = AggregationService(ServeConfig(admission=False))
        rows = [[[1, 0.25]], [[2**70, 0.5]], [[2, 0.75]]]
        response = service.handle(_query(rid="wide", results=rows))
        assert response["status"] == 400
        assert response["reason"] == (
            f"varint cannot encode {2**70}: it needs more than 10 bytes")
        assert left_behind(service.platform) == NOTHING
        rows[1][0][0] = 2**70 - 1   # the widest id that fits
        response = service.handle(_query(rid="fits", results=rows))
        assert response["status"] == 200
        assert response["value"] == [[2, 0.75], [2**70 - 1, 0.5], [1, 0.25]]

    def test_an_id_is_free_again_on_another_master(self):
        service = AggregationService(ServeConfig(admission=False))
        hosts = sorted(service.platform.topology.hosts())
        seed_of = {}
        for seed in range(100):
            seed_of.setdefault(pick_endpoints(hosts, seed, 8)[0], seed)
        assert len(seed_of) >= 4
        for seed in list(seed_of.values())[:4]:
            request = _query(rid="same", seed=seed)
            response = service.handle(request)
            assert response["status"] == 200
            assert response["value"] == service.expected_value(request)

    def test_idless_requests_get_ids_of_their_own(self):
        service = AggregationService(ServeConfig(admission=False))
        responses = [
            service.handle({"op": OP_QUERY, "tenant": "t1",
                            "payload_seed": 42})
            for _ in range(50)
        ]
        assert [r["status"] for r in responses] == [200] * 50
        assert [r["id"] for r in responses] == \
            [f"t1:query:anon-{n}" for n in range(50)]

    def test_state_is_flat_over_thousands_of_mixed_requests(self):
        """Memory per request is memory per *concurrent* request: the
        per-request objects alive after 2,000 more requests are the
        ones alive after warm-up (admission on, so 429s occur)."""
        service = AggregationService()

        def drive(first, count):
            statuses = set()
            for n in range(first, first + count):
                if n % 10 == 9:
                    request = _mlgrad(rid=f"n{n}", seed=0,
                                      gradients=self.RAGGED)
                elif n % 3 == 0:
                    request = _mlgrad(rid=f"n{n}", seed=n, workers=3)
                else:
                    request = _query(rid=f"n{n}", seed=n, workers=3)
                # 80 small requests/s offered, 50/s admitted: the gate
                # refuses before the platform's clock backs up.
                statuses.add(service.handle(
                    request, arrival=n / 80.0)["status"])
            return statuses

        drive(0, 300)
        warm = census()
        assert drive(300, 2000) == {200, 400, 429}
        assert census() == warm
        assert left_behind(service.platform) == NOTHING


class TestAdmissionMapping:
    def _strict_service(self):
        # tenant-hot gets one token and (practically) no refill, so its
        # second request inside the same instant must NACK.
        return AggregationService(ServeConfig(
            tenants={"hot": TenantPolicy(rate=0.001, burst=1.0)},
            default_policy=TenantPolicy(rate=1000.0, burst=1000.0),
        ))

    def test_nack_maps_to_429_with_retry_hint(self):
        service = self._strict_service()
        assert service.handle(_query(tenant="hot", rid="a"))["status"] == 200
        rejected = service.handle(_query(tenant="hot", rid="b"))
        assert rejected["status"] == 429
        assert rejected["error"] == "admission-nack"
        assert rejected["reason"] == "rate-limit"
        assert rejected["retry_after"] == pytest.approx(1.0 / 0.001)

    def test_per_tenant_isolation(self):
        service = self._strict_service()
        service.handle(_query(tenant="hot", rid="a"))
        assert service.handle(_query(tenant="hot", rid="b"))["status"] == 429
        # The cold tenant's bucket is untouched by hot's exhaustion.
        assert service.handle(_query(tenant="cold", rid="c"))["status"] == 200
        assert service.report.tenants["hot"].rejected_admission == 1
        assert service.report.tenants["cold"].rejected_admission == 0

    def test_admission_off_never_429s(self):
        service = AggregationService(ServeConfig(
            tenants={"hot": TenantPolicy(rate=0.001, burst=1.0)},
            admission=False))
        for i in range(5):
            assert service.handle(
                _query(tenant="hot", rid=f"r{i}"))["status"] == 200


class TestTenantPolicy:
    @pytest.mark.parametrize("field", ["rate", "burst", "slo"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"),
                                       float("nan")])
    def test_every_field_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TenantPolicy(**{field: value})


class TestHttpEndpoints:
    def _dispatch(self, frontend, method, path, body=b""):
        return asyncio.run(frontend.dispatch(method, path, body))

    def test_query_endpoint_round_trip(self):
        frontend = HttpFrontend(AggregationService())
        status, payload = self._dispatch(
            frontend, "POST", "/v1/query",
            json.dumps({"tenant": "t1", "id": "r1",
                        "payload_seed": 42}).encode())
        assert status == 200
        assert payload["status"] == 200
        assert payload["value"]

    def test_mlgrad_endpoint_round_trip(self):
        service = AggregationService()
        frontend = HttpFrontend(service)
        status, payload = self._dispatch(
            frontend, "POST", "/v1/mlgrad",
            json.dumps({"tenant": "t1", "id": "g1",
                        "payload_seed": 7}).encode())
        assert status == 200
        expected = service.expected_value(_mlgrad())
        assert payload["value"] == pytest.approx(expected, abs=1e-9)

    def test_healthz_and_stats(self):
        frontend = HttpFrontend(AggregationService())
        status, payload = self._dispatch(frontend, "GET", "/healthz")
        assert status == 200 and payload["ok"]
        self._dispatch(frontend, "POST", "/v1/query",
                       json.dumps({"tenant": "t1", "id": "r1",
                                   "payload_seed": 1}).encode())
        status, payload = self._dispatch(frontend, "GET", "/v1/stats")
        assert status == 200
        assert payload["requests"] == 1
        assert payload["tenants"]["t1"]["ok"] == 1

    def test_http_status_mirrors_admission_nack(self):
        service = AggregationService(ServeConfig(
            tenants={"hot": TenantPolicy(rate=0.001, burst=1.0)}))
        frontend = HttpFrontend(service)
        # Distinct ids: a re-sent id is refused (400) ahead of admission.
        bodies = [json.dumps({"tenant": "hot", "id": rid,
                              "payload_seed": 1}).encode()
                  for rid in ("a", "b")]
        first, _ = self._dispatch(frontend, "POST", "/v1/query", bodies[0])
        second, payload = self._dispatch(frontend, "POST", "/v1/query",
                                         bodies[1])
        assert first == 200
        assert second == 429
        assert payload["error"] == "admission-nack"

    def test_routing_errors_are_well_formed(self):
        frontend = HttpFrontend(AggregationService())
        status, payload = self._dispatch(frontend, "GET", "/v1/nowhere")
        assert status == 404 and payload["error"] == "not-found"
        status, payload = self._dispatch(frontend, "GET", "/v1/query")
        assert status == 405 and payload["error"] == "method-not-allowed"
        status, payload = self._dispatch(frontend, "POST", "/v1/query",
                                         b"{not json")
        assert status == 400 and payload["error"] == "bad-json"

    def test_live_socket_round_trip(self):
        # One real TCP request through asyncio.start_server.
        async def scenario():
            frontend = HttpFrontend(AggregationService())
            host, port = await frontend.start()
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"tenant": "t1", "id": "r1",
                               "payload_seed": 42}).encode()
            writer.write(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n" + body)
            await writer.drain()
            status_line = await reader.readline()
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            payload = json.loads(await reader.read(65536))
            writer.close()
            await frontend.stop()
            return status_line, payload

        status_line, payload = asyncio.run(scenario())
        assert b"200" in status_line
        assert payload["status"] == 200


class TestLoadgenDeterminism:
    PARAMS = OpenLoopParams(users=5_000, duration=2.0, tenants=4)

    def test_same_seed_identical_report(self):
        a = run_loadgen(self.PARAMS, seed=11)
        b = run_loadgen(self.PARAMS, seed=11)
        assert a.result.rows == b.result.rows
        assert a.aggregate_goodput == b.aggregate_goodput

    def test_different_seed_different_stream(self):
        a = run_loadgen(self.PARAMS, seed=11)
        b = run_loadgen(self.PARAMS, seed=12)
        assert a.result.rows != b.result.rows

    def test_accounting_self_checks_pass(self):
        outcome = run_loadgen(self.PARAMS, seed=3)
        assert outcome.report.accounting_errors() == []
        assert outcome.report.total_requests() > 0

    def test_arrival_stream_is_deterministic(self):
        params = OpenLoopParams(users=20_000, duration=1.0, tenants=8)
        a = list(iter_arrivals(params, seed=5))
        b = list(iter_arrivals(params, seed=5))
        assert a == b
        assert all(x.at <= y.at for x, y in zip(a, a[1:]))
        assert all(arrival.at < params.duration for arrival in a)

    def test_zipf_rank_one_is_hottest(self):
        import random

        zipf = ZipfTenants(8, 1.2)
        rng = random.Random(9)
        draws = [zipf.draw(rng) for _ in range(4000)]
        counts = {t: draws.count(t) for t in set(draws)}
        assert max(counts, key=counts.get) == "tenant-1"


class TestChaos:
    def _boxes(self, service):
        return sorted(info.box_id
                      for info in service.platform.topology.all_boxes())

    def test_failure_mid_stream_stays_well_formed_and_exact(self):
        service = AggregationService()
        request = _query(seed=99)
        expected = service.expected_value(request)
        assert service.handle(dict(request, id="before"))["value"] \
            == expected
        for box in self._boxes(service):
            service.platform.fail_box(box)
        # Mid-stream failure: the shim ladder degrades (spill to parent,
        # ultimately direct to the master) but never silently corrupts:
        # any 200 carries the exact aggregate; any non-200 is a
        # well-formed JSON error body.
        response = service.handle(dict(request, id="during"))
        assert response["tenant"] == "t1" and response["id"] == "during"
        if response["status"] == 200:
            assert response["value"] == expected
        else:
            assert response["status"] in (500, 503)
            assert response["error"] and response["reason"]

    def test_breakers_fail_fast_503_then_recover_exact(self):
        service = AggregationService()
        request = _query(seed=123)
        expected = service.expected_value(request)
        boxes = self._boxes(service)
        for box in boxes:
            service.platform.fail_box(box)
        # Trip every breaker (the deterministic stand-in for the probe
        # storm a real outage produces) and the service fails fast.
        board = service.platform.breakers
        now = service.clock
        for box in boxes:
            breaker = board.breaker(box)
            for _ in range(3):
                breaker.record_failure(now)
        rejected = service.handle(dict(request, id="while-down"))
        assert rejected["status"] == 503
        assert rejected["error"] == "breaker-open"
        assert rejected["reason"]
        assert service.report.tenants["t1"].rejected_unavailable == 1
        # Recovery: the breaker reset timeout elapses (allow() performs
        # open -> half-open), and the retried request returns the exact
        # centralised aggregate.
        service.platform.advance_clock(service.clock + 1.0)
        retried = service.handle(dict(request, id="retry"))
        assert retried["status"] == 200
        assert retried["value"] == expected

    def test_scheduled_fault_replay_is_deterministic(self):
        from repro.faults import FaultEvent, FaultSchedule

        def run_once():
            boxes = self._boxes(AggregationService())
            schedule = FaultSchedule([
                FaultEvent(0.01, "box-crash", boxes[0]),
                FaultEvent(0.30, "box-recover", boxes[0]),
            ])
            service = AggregationService(ServeConfig(faults=schedule))
            return [service.handle(_query(rid=f"r{i}", seed=i))["status"]
                    for i in range(10)]

        assert run_once() == run_once()


class TestAnalyzeIntegration:
    def test_diagnosis_gains_a_serve_section(self):
        from repro.obs import Tracer, tracing
        from repro.obs.analyze import diagnose_tracer

        tracer = Tracer()
        with tracing(tracer):
            service = AggregationService()
            service.handle(_query(tenant="a", rid="r1", seed=1))
            service.handle(_query(tenant="b", rid="r2", seed=2))
            service.handle({"op": "nope", "tenant": "a", "id": "r3"})
        diagnosis = diagnose_tracer(tracer)
        serve = diagnosis["serve"]
        assert serve["requests"] == 3
        assert serve["tenants"]["a"]["ok"] == 1
        assert serve["tenants"]["a"]["statuses"] == {"200": 1, "404": 1}
        assert serve["tenants"]["b"]["p99_latency"] > 0
        assert serve["tenants"]["b"]["mean_service"] > 0

    def test_untraced_runs_have_no_serve_section(self):
        from repro.obs import Tracer
        from repro.obs.analyze import diagnose_tracer

        assert "serve" not in diagnose_tracer(Tracer())


class TestFigServe:
    def test_admission_wins_at_overload(self):
        from repro.experiments import QUICK, load

        result = load("fig_serve").run(
            scale=QUICK, loads=(2.0,), duration=1.0)
        (row,) = result.rows
        # The tentpole claim: per-tenant admission preserves aggregate
        # goodput at 2x overload versus the ungated arm.
        assert row["adm_goodput"] > row["noadm_goodput"]
        assert row["adm_cold_attain"] >= row["noadm_cold_attain"]
        assert row["adm_r429"] > 0

    def test_quick_deterministic(self):
        from repro.experiments import QUICK, load

        exp = load("fig_serve")
        a = exp.run(scale=QUICK, seed=4, loads=(1.0,), duration=1.0)
        b = exp.run(scale=QUICK, seed=4, loads=(1.0,), duration=1.0)
        assert a.rows == b.rows
