"""Tests for the HTTP synthesis service (:mod:`repro.service`)."""

import asyncio
import json
import multiprocessing
import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

import pytest

from repro import api
from repro.obs.export import validate_prometheus_text
from repro.service import (
    RetryPolicy,
    SynthesisService,
    handle_connection,
    parse_request,
    start_server,
)

from tests.example_stgs import CONCURRENT, CSC_CONFLICT, HANDSHAKE


def run(coro):
    return asyncio.run(coro)


def make_service(**kwargs):
    kwargs.setdefault("executor", "inline")
    return SynthesisService(**kwargs)


class TestParseRequest:
    def test_raw_g_text(self):
        request = parse_request(CSC_CONFLICT)
        assert isinstance(request, api.SynthesisRequest)
        assert request.method == "modular"

    def test_bytes_decode(self):
        request = parse_request(CSC_CONFLICT.encode("utf-8"))
        assert request.g_text == CSC_CONFLICT

    def test_json_document(self):
        body = api.to_json_bytes(
            api.SynthesisRequest(g_text=HANDSHAKE, method="direct")
        )
        request = parse_request(body)
        assert request.method == "direct"

    def test_empty_body_rejected(self):
        with pytest.raises(api.ApiError, match="empty"):
            parse_request("   \n ")

    def test_response_document_rejected(self):
        body = json.dumps(
            {"schema": api.API_SCHEMA, "kind": "response"}
        )
        with pytest.raises(api.ApiError):
            parse_request(body)

    def test_non_utf8_rejected(self):
        with pytest.raises(api.ApiError, match="UTF-8"):
            parse_request(b"\xff\xfe\x00")


class TestSynthesize:
    def test_ok_run_without_cache(self):
        service = make_service()
        status, payload = run(service.synthesize(CSC_CONFLICT))
        assert status == 200
        response = api.from_json(payload)
        assert response.status == "ok"
        assert response.cache == "off"
        assert response.verified is True
        assert response.model == "csc-ex"
        assert service.counters["service_requests"] == 1
        assert service.counters["service_cache_misses"] == 1

    def test_cache_miss_then_hit_byte_identical(self, tmp_path):
        service = make_service(cache_dir=tmp_path / "cache")

        async def scenario():
            first = await service.synthesize(CSC_CONFLICT)
            second = await service.synthesize(CSC_CONFLICT)
            third = await service.synthesize(CSC_CONFLICT)
            return first, second, third

        (s1, p1), (s2, p2), (s3, p3) = run(scenario())
        assert (s1, s2, s3) == (200, 200, 200)
        assert api.from_json(p1).cache == "miss"
        assert api.from_json(p2).cache == "hit"
        assert p2 == p3  # replayed bytes, not a re-serialization
        assert service.counters["service_cache_hits"] == 2
        assert service.counters["service_cache_misses"] == 1

    def test_reformatted_duplicate_hits(self, tmp_path):
        # The fingerprint is over canonical text: whitespace noise in
        # the upload must not split the cache.
        service = make_service(cache_dir=tmp_path / "cache")
        noisy = CSC_CONFLICT.replace("\n.end", "\n\n.end") + "\n"

        async def scenario():
            await service.synthesize(CSC_CONFLICT)
            return await service.synthesize(noisy)

        _status, payload = run(scenario())
        assert api.from_json(payload).cache == "hit"

    def test_budgeted_request_never_cached(self, tmp_path):
        service = make_service(cache_dir=tmp_path / "cache")
        body = api.to_json_bytes(
            api.SynthesisRequest(g_text=HANDSHAKE, timeout_seconds=60)
        )

        async def scenario():
            first = await service.synthesize(body)
            second = await service.synthesize(body)
            return first, second

        (_s1, p1), (_s2, p2) = run(scenario())
        assert api.from_json(p1).cache == "off"
        assert api.from_json(p2).cache == "off"

    def test_json_request_document_honored(self):
        service = make_service()
        body = api.to_json_bytes(
            api.SynthesisRequest(g_text=CSC_CONFLICT, method="direct")
        )
        status, payload = run(service.synthesize(body))
        assert status == 200
        assert api.from_json(payload).method == "direct"

    def test_malformed_document_is_400(self):
        service = make_service()
        status, payload = run(service.synthesize(b'{"schema": "nope"}'))
        assert status == 400
        assert "schema" in json.loads(payload)["error"]
        assert service.counters["service_errors"] == 1

    def test_invalid_g_is_400(self):
        service = make_service()
        bad = ".model broken\n.inputs a\n.graph\n"
        status, payload = run(service.synthesize(bad))
        assert status == 400
        assert "invalid specification" in json.loads(payload)["error"]

    def test_one_line_body_is_400_not_a_path_probe(self):
        # A body without newlines must never be interpreted as a
        # server-side file path.
        service = make_service()
        status, payload = run(service.synthesize("/etc/passwd"))
        assert status == 400
        assert "invalid specification" in json.loads(payload)["error"]

    def test_inflight_dedup_coalesces(self):
        service = make_service(executor="thread", jobs=1)

        async def scenario():
            first, second = await asyncio.gather(
                service.synthesize(CSC_CONFLICT),
                service.synthesize(CSC_CONFLICT),
            )
            return first, second

        (s1, p1), (s2, p2) = run(scenario())
        service.close()
        assert (s1, s2) == (200, 200)
        assert service.counters["service_inflight_dedup"] == 1
        assert service.counters["service_cache_misses"] == 1
        # The follower is served the "hit" variant of the same bytes.
        assert api.from_json(p1).equations == api.from_json(p2).equations


class TestWorkerRecovery:
    @staticmethod
    def flaky_factory(broken_generations):
        """Executors that refuse every submit for the first N builds."""
        state = {"built": 0}

        class Broken:
            def submit(self, fn, *args, **kwargs):
                raise BrokenExecutor("injected pool failure")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        def factory():
            state["built"] += 1
            if state["built"] <= broken_generations:
                return Broken()
            return ThreadPoolExecutor(max_workers=1)

        return factory, state

    def test_respawn_rescues_the_request(self):
        factory, state = self.flaky_factory(broken_generations=1)
        service = make_service(
            executor=factory,
            retry=RetryPolicy(retries=2, backoff=0.0),
        )
        status, payload = run(service.synthesize(HANDSHAKE))
        service.close()
        assert status == 200
        assert api.from_json(payload).status == "ok"
        assert service.counters["service_worker_respawns"] == 1
        assert state["built"] == 2

    def test_exhausted_retries_are_500(self):
        factory, _state = self.flaky_factory(broken_generations=99)
        service = make_service(
            executor=factory,
            retry=RetryPolicy(retries=1, backoff=0.0),
        )
        status, payload = run(service.synthesize(HANDSHAKE))
        service.close()
        assert status == 500
        assert "died" in json.loads(payload)["error"]
        assert service.counters["service_errors"] == 1


class DieOnFirstTask(ProcessPoolExecutor):
    """A real process pool whose first task of the whole test kills its
    worker with ``os._exit`` -- the shape of an OS kill -- so the pool
    genuinely breaks (``BrokenProcessPool``) under the service."""

    deaths = None  # per-test shared counter, set by the factory

    def submit(self, fn, /, *args, **kwargs):
        if self.deaths["left"] > 0:
            self.deaths["left"] -= 1
            return super().submit(os._exit, 43)
        return super().submit(fn, *args, **kwargs)


def _comparable(payload):
    """A response document without its timing and cache-tier fields."""
    document = json.loads(payload)
    document.pop("seconds")
    document.pop("cache")
    return document


class TestRealWorkerCrash:
    """The crash-recovery guarantee, end to end on a real process pool:
    one worker death costs one pool respawn and changes no response."""

    BODIES = (CSC_CONFLICT, HANDSHAKE, CONCURRENT, CSC_CONFLICT)

    def serve_all(self, service):
        async def scenario():
            return await asyncio.gather(
                *(service.synthesize(body) for body in self.BODIES)
            )

        try:
            return run(scenario())
        finally:
            service.close()

    def test_worker_death_respawns_once_and_changes_nothing(self):
        deaths = {"left": 1}
        context = multiprocessing.get_context("forkserver")

        def factory():
            pool = DieOnFirstTask(max_workers=2, mp_context=context)
            pool.deaths = deaths
            return pool

        crashed = make_service(
            executor=factory, jobs=2,
            retry=RetryPolicy(retries=2, backoff=0.0),
        )
        faulted = self.serve_all(crashed)
        clean = self.serve_all(make_service())

        assert deaths["left"] == 0  # the death really happened
        assert [status for status, _ in faulted] == [200] * len(self.BODIES)
        assert [_comparable(p) for _, p in faulted] == [
            _comparable(p) for _, p in clean
        ]
        assert crashed.counters["service_worker_respawns"] == 1


class TestRetryPolicy:
    def test_delay_is_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff=0.1, seed=7)
        first = policy.delay(1, token="a")
        assert first == policy.delay(1, token="a")
        assert 0.05 <= first < 0.1
        assert policy.delay(1, token="b") != first  # de-synchronised

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_cap=0.3)
        d1, d2, d3, d9 = (policy.delay(n, token="t") for n in (1, 2, 3, 9))
        assert d1 < d2 < d3
        assert d9 <= 0.3  # capped

    def test_delay_differs_by_seed(self):
        assert (RetryPolicy(seed=0).delay(1, token="t")
                != RetryPolicy(seed=1).delay(1, token="t"))

    def test_delay_attempt_starts_at_one(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)


class TestIntrospection:
    def test_metrics_text_is_valid_prometheus(self, tmp_path):
        service = make_service(cache_dir=tmp_path / "cache")

        async def scenario():
            await service.synthesize(CSC_CONFLICT)
            await service.synthesize(CSC_CONFLICT)

        run(scenario())
        text = service.metrics_text()
        validate_prometheus_text(text)
        assert "repro_service_requests_total 2" in text
        assert "repro_service_cache_hits_total 1" in text
        assert "repro_service_cache_hit_rate 0.5" in text
        assert "repro_service_request_seconds_bucket" in text

    def test_health(self):
        service = make_service()
        assert service.health() == {"status": "ok", "inflight": 0}


async def http_request(port, method, path, body=b"", keep_reader=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    data = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    head_part, _sep, payload = data.partition(b"\r\n\r\n")
    status = int(head_part.split(b" ", 2)[1])
    return status, payload


class TestHttpLayer:
    def test_end_to_end(self, tmp_path):
        async def scenario():
            service = make_service(cache_dir=tmp_path / "cache")
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                first = await http_request(
                    port, "POST", "/synthesize",
                    CSC_CONFLICT.encode("utf-8"),
                )
                second = await http_request(
                    port, "POST", "/synthesize",
                    CSC_CONFLICT.encode("utf-8"),
                )
                health = await http_request(port, "GET", "/healthz")
                metrics = await http_request(port, "GET", "/metrics")
                missing = await http_request(port, "GET", "/nope")
                wrong = await http_request(port, "GET", "/synthesize")
            return first, second, health, metrics, missing, wrong

        first, second, health, metrics, missing, wrong = run(scenario())
        assert first[0] == 200
        assert api.from_json(first[1]).status == "ok"
        assert second[0] == 200
        assert api.from_json(second[1]).cache == "hit"
        assert health[0] == 200
        assert json.loads(health[1])["status"] == "ok"
        assert metrics[0] == 200
        assert b"repro_service_requests_total" in metrics[1]
        assert missing[0] == 404
        assert wrong[0] == 405

    def test_keep_alive_serves_two_requests(self):
        async def scenario():
            service = make_service()
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                for _ in range(2):
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: 0\r\n\r\n"
                    )
                    await writer.drain()
                statuses = []
                for _ in range(2):
                    line = await reader.readline()
                    statuses.append(int(line.split(b" ", 2)[1]))
                    while True:
                        header = await reader.readline()
                        if header == b"\r\n":
                            break
                        if header.lower().startswith(b"content-length:"):
                            length = int(header.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()
                await writer.wait_closed()
            return statuses

        assert run(scenario()) == [200, 200]

    def test_oversized_body_is_413(self, monkeypatch):
        import repro.service as service_mod

        monkeypatch.setattr(service_mod, "MAX_BODY_BYTES", 64)

        async def scenario():
            service = make_service()
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                return await http_request(
                    port, "POST", "/synthesize", b"x" * 100
                )

        status, payload = run(scenario())
        assert status == 413
        assert b"too large" in payload
