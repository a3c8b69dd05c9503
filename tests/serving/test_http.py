"""HTTP front door: routes, error mapping, and graceful shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import resource
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.errors import ServerOverloadedError
from repro.serving import (
    DetectionHTTPServer,
    DetectionService,
    ReplicaServer,
    Router,
    RouterConfig,
    ServingConfig,
    detection_payload,
)
from repro.serving import http as http_module
from repro.serving.http import (
    MAX_HEADER_LINES,
    HttpRequestError,
    http_response,
    read_http_request,
)
from repro.text.normalizer import MAX_QUERY_TOKENS, normalize_fast, token_cap_error


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


def _request(port: int, path: str, body: bytes | None = None):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


async def _exchange(port: int, path: str, body: bytes | None = None):
    return await asyncio.to_thread(_request, port, path, body)


def serve(handler):
    """Run ``handler(server, port)`` against a live server, then stop it."""

    async def main(compiled, config=None):
        service = DetectionService(compiled, config or ServingConfig())
        server = DetectionHTTPServer(service, port=0)
        await server.start()
        try:
            return await handler(server, server.port)
        finally:
            await server.stop()

    return main


class TestRoutes:
    def test_detect_matches_one_shot(self, compiled):
        query = "cheap hotels in rome"

        async def handler(server, port):
            body = json.dumps({"query": query}).encode()
            return await _exchange(port, "/detect", body)

        status, payload = asyncio.run(serve(handler)(compiled))
        assert status == 200
        assert payload == detection_payload(compiled.detect(query))
        assert payload["head"] == "hotels"

    def test_healthz_and_stats(self, compiled):
        async def handler(server, port):
            health = await _exchange(port, "/healthz")
            body = json.dumps({"query": "iphone 5s case"}).encode()
            await _exchange(port, "/detect", body)
            stats = await _exchange(port, "/stats")
            return health, stats

        health, stats = asyncio.run(serve(handler)(compiled))
        assert health == (200, {"status": "ok"})
        status, payload = stats
        assert status == 200
        assert payload["requests"] == 1
        assert payload["batches"] == 1

    def test_error_mapping(self, compiled):
        async def handler(server, port):
            return {
                "bad_json": await _exchange(port, "/detect", b"nonsense"),
                "bad_type": await _exchange(
                    port, "/detect", json.dumps({"query": 7}).encode()
                ),
                "missing_key": await _exchange(
                    port, "/detect", json.dumps({"q": "x"}).encode()
                ),
                "wrong_method": await _exchange(port, "/detect"),
                "unknown_route": await _exchange(port, "/nope"),
            }

        outcomes = asyncio.run(serve(handler)(compiled))
        assert outcomes["bad_json"][0] == 400
        assert outcomes["bad_type"][0] == 400
        assert outcomes["missing_key"][0] == 400
        assert outcomes["wrong_method"][0] == 405
        assert outcomes["unknown_route"][0] == 404

    def test_overload_maps_to_503(self, compiled):
        async def handler(server, port):
            async def overloaded(text):
                raise ServerOverloadedError("serving queue is full (test)")

            server.backend.detect = overloaded
            return await _exchange(
                port, "/detect", json.dumps({"query": "q"}).encode()
            )

        status, payload = asyncio.run(serve(handler)(compiled))
        assert status == 503
        assert "full" in payload["error"]


async def _raw_exchange(port: int, payload: bytes, close_early: bool = False):
    """Speak raw bytes to the server; return everything it sends until
    it closes (b"" if the connection was abandoned), so a well-formed
    ``payload`` must ask for ``Connection: close``. ``close_early``
    drops the connection after writing ``payload`` without finishing
    the request."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if close_early:
        writer.close()
        await writer.wait_closed()
        return b""
    response = await asyncio.wait_for(reader.read(-1), timeout=10)
    writer.close()
    await writer.wait_closed()
    return response


@pytest.mark.parametrize(
    ("status", "reason"),
    [
        (200, "OK"),
        (400, "Bad Request"),
        (404, "Not Found"),
        (405, "Method Not Allowed"),
        (408, "Request Timeout"),
        (413, "Payload Too Large"),
        (431, "Request Header Fields Too Large"),
        (500, "Internal Server Error"),
        (502, "Bad Gateway"),
        (503, "Service Unavailable"),
    ],
)
def test_status_line_carries_standard_reason(status, reason):
    """Every status the servers emit gets its standard reason phrase
    (the router answers a failed ``/reload`` with 502)."""
    status_line = http_response(status, {}).split(b"\r\n", 1)[0]
    assert status_line == f"HTTP/1.1 {status} {reason}".encode("ascii")


class TestProtocolEdges:
    """Malformed and hostile inputs get deterministic status codes and
    never wedge the service behind the server."""

    def test_oversized_body_is_413(self, compiled):
        async def handler(server, port):
            huge = b'{"query": "' + b"x" * (65 * 1024) + b'"}'
            request = (
                b"POST /detect HTTP/1.1\r\nContent-Length: "
                + str(len(huge)).encode()
                + b"\r\n\r\n"
            )
            return await _raw_exchange(port, request + huge)

        response = asyncio.run(serve(handler)(compiled))
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds" in response

    def test_malformed_request_line_is_400(self, compiled):
        async def handler(server, port):
            return await _raw_exchange(port, b"\r\n\r\n")

        response = asyncio.run(serve(handler)(compiled))
        assert response.startswith(b"HTTP/1.1 400 ")

    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"POST /detect HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            b"POST /detect HTTP/1.1\r\nX-Big: " + b"a" * 70_000,  # no CRLF
        ],
        ids=["request-line", "header-line", "unterminated-header"],
    )
    def test_overlong_line_is_431(self, raw):
        """A line past the StreamReader's 64 KiB limit maps to 431
        instead of escaping as ``readline``'s ``ValueError``."""

        async def parse():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_http_request(reader)

        with pytest.raises(HttpRequestError) as info:
            asyncio.run(parse())
        assert info.value.status == 431
        assert http_response(431, info.value.payload).startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )

    def test_too_many_header_lines_is_431(self):
        """Past ``MAX_HEADER_LINES`` headers the request is a 431, even
        though every line alone is well within the line limit."""
        filler = [b"X-Filler-%d: y\r\n" % i for i in range(MAX_HEADER_LINES + 1)]

        async def parse(headers):
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /stats HTTP/1.1\r\n" + b"".join(headers) + b"\r\n")
            reader.feed_eof()
            return await read_http_request(reader)

        with pytest.raises(HttpRequestError) as info:
            asyncio.run(parse(filler))
        assert info.value.status == 431
        assert asyncio.run(parse(filler[:-1])) == ("GET", "/stats", b"", False)

    def test_slow_client_is_408(self, compiled, monkeypatch):
        """A client that stops mid-header-block is answered 408 once the
        read deadline passes, and the server keeps serving."""
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)

        async def handler(server, port):
            stalled = await _raw_exchange(
                port, b"POST /detect HTTP/1.1\r\nContent-Le"
            )
            body = json.dumps({"query": "cheap hotels in rome"}).encode()
            return stalled, await _exchange(port, "/detect", body)

        stalled, (status, payload) = asyncio.run(serve(handler)(compiled))
        assert stalled.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"0.2s" in stalled
        assert status == 200
        assert payload["head"] == "hotels"

    def test_bad_content_length_is_400(self, compiled):
        async def handler(server, port):
            return await _raw_exchange(
                port, b"POST /detect HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
            )

        response = asyncio.run(serve(handler)(compiled))
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_503_carries_retry_after(self, compiled):
        async def handler(server, port):
            async def overloaded(text):
                raise ServerOverloadedError("full")

            server.backend.detect = overloaded
            body = json.dumps({"query": "q"}).encode()
            request = (
                b"POST /detect HTTP/1.1\r\nConnection: close\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            return await _raw_exchange(port, request)

        response = asyncio.run(serve(handler)(compiled))
        assert response.startswith(b"HTTP/1.1 503 ")
        assert b"Retry-After: 1" in response

    def test_dropped_connection_mid_request_never_wedges(self, compiled):
        """A client that vanishes mid-request is abandoned silently: the
        service is never touched with the partial request, and the very
        next well-formed request is served normally."""

        async def handler(server, port):
            # Headers promise a body that never arrives.
            await _raw_exchange(
                port,
                b"POST /detect HTTP/1.1\r\nContent-Length: 64\r\n\r\ntrunc",
                close_early=True,
            )
            # Drop mid-headers too.
            await _raw_exchange(
                port, b"POST /detect HT", close_early=True
            )
            await asyncio.sleep(0)  # let the server observe both EOFs
            body = json.dumps({"query": "cheap hotels in rome"}).encode()
            status, payload = await _exchange(port, "/detect", body)
            stats = server.backend.stats()
            return status, payload, stats

        status, payload, stats = asyncio.run(serve(handler)(compiled))
        assert status == 200
        assert payload["head"] == "hotels"
        # Only the completed request reached the service.
        assert stats["requests"] == 1
        assert stats["batches"] == 1


class TestShutdown:
    def test_stop_drains_service(self, compiled):
        async def main():
            service = DetectionService(compiled)
            server = DetectionHTTPServer(service, port=0)
            await server.start()
            port = server.port
            body = json.dumps({"query": "cheap hotels in rome"}).encode()
            status, _ = await _exchange(port, "/detect", body)
            assert status == 200
            await server.stop()
            assert service.closed
            # The socket is gone: new connections are refused.
            with pytest.raises(urllib.error.URLError):
                await _exchange(port, "/healthz")

        asyncio.run(main())

    def test_stop_signal_right_after_ready_drains(self):
        """A supervisor that signals as soon as it reads the ready line
        gets a graceful stop: the handlers are in before ``ready`` runs,
        so SIGTERM never takes its default, backend-orphaning action."""
        script = textwrap.dedent(
            """
            import asyncio, os, signal
            from repro.serving.http import DetectionHTTPServer, run_server

            class Backend:
                async def close(self):
                    print("backend closed", flush=True)

            def ready(port):
                os.kill(os.getpid(), signal.SIGTERM)

            asyncio.run(run_server(DetectionHTTPServer(Backend(), port=0), ready))
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert result.stdout == "backend closed\n"


async def _service_front_door(compiled):
    """A single-process front door; returns (server, teardown)."""
    server = DetectionHTTPServer(DetectionService(compiled), port=0)
    await server.start()
    return server, server.stop


async def _router_front_door(compiled):
    """A router front door over one in-process replica."""
    replica = ReplicaServer(DetectionService(compiled), port=0)
    await replica.start()
    router = Router(RouterConfig(health_interval_s=30.0))
    router.attach("127.0.0.1", replica.port)
    await router.start()
    server = DetectionHTTPServer(router, port=0)
    await server.start()

    async def teardown():
        await server.stop()  # also closes the router
        await replica.stop()

    return server, teardown


def _split(response: bytes) -> tuple[int, bytes]:
    """(status, body) of one raw HTTP response."""
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _post(path: str, body: bytes, extra: bytes = b"", version: str = "HTTP/1.1") -> bytes:
    """One raw POST; ``extra`` is spliced in as additional header lines."""
    return (
        f"POST {path} {version}\r\nContent-Length: {len(body)}\r\n".encode()
        + extra
        + b"\r\n"
        + body
    )


def _get(path: str, extra: bytes = b"") -> bytes:
    return f"GET {path} HTTP/1.1\r\n".encode() + extra + b"\r\n"


def _detect_request(query: str, extra: bytes = b"", version: str = "HTTP/1.1") -> bytes:
    return _post("/detect", json.dumps({"query": query}).encode(), extra, version)


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    """Read exactly one response off a kept-alive connection:
    (status, lower-cased headers, body)."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10)
    status_line, *lines = head.decode("ascii").split("\r\n")[:-2]
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


async def _at_eof(reader: asyncio.StreamReader) -> bool:
    """Whether the server closed the connection (nothing more to read)."""
    return await asyncio.wait_for(reader.read(), timeout=10) == b""


QUERY = "cheap hotels in rome"

FRONT_DOORS = pytest.mark.parametrize(
    "front_door",
    [_service_front_door, _router_front_door],
    ids=["service", "router"],
)


class TestConformance:
    """Both backends behind the one front door answer alike."""

    @FRONT_DOORS
    def test_backends_answer_alike(self, compiled, front_door, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)
        query = "cheap hotels in rome"

        def post(path: str, body: bytes) -> bytes:
            return _post(path, body, b"Connection: close\r\n")

        def get(path: str) -> bytes:
            return _get(path, b"Connection: close\r\n")

        missing = json.dumps({"snapshot": str(tmp_path / "missing.hdms")})
        requests = {
            "detect": post("/detect", json.dumps({"query": query}).encode()),
            "non_json": post("/detect", b"nonsense"),
            "non_string": post("/detect", json.dumps({"query": 7}).encode()),
            "detect_get": get("/detect"),
            "reload_get": get("/reload"),
            "reload_missing": post("/reload", missing.encode()),
            "healthz": get("/healthz"),
            "stats": get("/stats"),
            "unknown": get("/nope"),
            "too_large": post("/detect", b"x" * (65 * 1024)),
            "too_many_headers": b"GET /stats HTTP/1.1\r\n"
            + b"".join(b"X-F%d: y\r\n" % i for i in range(MAX_HEADER_LINES + 1))
            + b"\r\n",
            "slow": b"POST /detect HTTP/1.1\r\nContent-Le",
        }

        async def main():
            server, teardown = await front_door(compiled)
            try:
                return {
                    name: _split(await _raw_exchange(server.port, raw))
                    for name, raw in requests.items()
                }
            finally:
                await teardown()

        answers = asyncio.run(main())
        expected_body = http_response(
            200, detection_payload(compiled.detect(query))
        ).partition(b"\r\n\r\n")[2]
        assert answers["detect"] == (200, expected_body)
        statuses = {name: status for name, (status, _) in answers.items()}
        assert statuses == {
            "detect": 200,
            "non_json": 400,
            "non_string": 400,
            "detect_get": 405,
            "reload_get": 405,
            "reload_missing": 400,
            "healthz": 200,
            "stats": 200,
            "unknown": 404,
            "too_large": 413,
            "too_many_headers": 431,
            "slow": 408,
        }
        assert b"snapshot rejected" in answers["reload_missing"][1]

    @FRONT_DOORS
    def test_query_over_token_cap_is_413(self, compiled, front_door):
        """A query one token over ``MAX_QUERY_TOKENS`` is refused with
        413 and a reason naming the limit, never truncated; the
        connection stays usable and the next query is answered in full."""
        over = " ".join(["hotels"] * (MAX_QUERY_TOKENS + 1))

        async def main():
            server, teardown = await front_door(compiled)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(_detect_request(over))
                refused = await _read_response(reader)
                writer.write(_detect_request(QUERY, b"Connection: close\r\n"))
                answered = await _read_response(reader)
                writer.close()
                await writer.wait_closed()
                return refused, answered
            finally:
                await teardown()

        (status, _, body), (next_status, _, next_body) = asyncio.run(main())
        assert status == 413
        assert json.loads(body) == {
            "error": f"query has {MAX_QUERY_TOKENS + 1} tokens, over the limit "
            f"of {MAX_QUERY_TOKENS} (MAX_QUERY_TOKENS)"
        }
        assert next_status == 200
        expected = json.dumps(detection_payload(compiled.detect(QUERY)), sort_keys=True)
        assert next_body == (expected + "\n").encode()

    @FRONT_DOORS
    def test_keep_alive_answers_in_order(self, compiled, front_door):
        """Several requests on one socket, two of them pipelined in one
        write, get byte-identical bodies in order on a connection that
        stays open until the client asks to close it."""
        queries = [
            "cheap hotels in rome",
            "iphone 5s case",
            "best resorts in chicago",
            "cheap hotels in rome",
        ]

        async def main():
            server, teardown = await front_door(compiled)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                answers = []
                writer.write(_detect_request(queries[0]))
                answers.append(await _read_response(reader))
                writer.write(_detect_request(queries[1]) + _detect_request(queries[2]))
                answers.append(await _read_response(reader))
                answers.append(await _read_response(reader))
                writer.write(_detect_request(queries[3], b"Connection: close\r\n"))
                answers.append(await _read_response(reader))
                closed = await _at_eof(reader)
                writer.close()
                await writer.wait_closed()
                return answers, closed, server._http_stats()
            finally:
                await teardown()

        answers, closed, http = asyncio.run(main())
        expected = [
            (json.dumps(detection_payload(compiled.detect(q)), sort_keys=True) + "\n").encode()
            for q in queries
        ]
        assert [body for _, _, body in answers] == expected
        assert [status for status, _, _ in answers] == [200] * len(queries)
        assert ["connection" in headers for _, headers, _ in answers] == [
            False, False, False, True
        ]
        assert answers[-1][1]["connection"] == "close"
        assert closed
        assert http["connections_opened"] == 1
        assert http["requests"] == len(queries)

    @FRONT_DOORS
    @pytest.mark.parametrize(
        ("raw", "status"),
        [
            pytest.param(
                _detect_request(QUERY, b"Connection: close\r\n"), 200, id="connection-close"
            ),
            pytest.param(
                _detect_request(QUERY, b"Connection: Keep-Alive, Close\r\n"),
                200,
                id="close-token",
            ),
            pytest.param(_detect_request(QUERY, version="HTTP/1.0"), 200, id="http-1.0"),
            # A body framed by Transfer-Encoding is not read, so its bytes
            # would parse as the next request: answer (400, no JSON body)
            # and close.
            pytest.param(
                b"POST /detect HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"21\r\n" + json.dumps({"query": QUERY}).encode() + b"\r\n0\r\n\r\n",
                400,
                id="chunked",
            ),
            # Parse errors leave the stream position unknown.
            pytest.param(b"\r\n\r\n", 400, id="400"),
            pytest.param(b"POST /detect HTTP/1.1\r\nContent-Le", 408, id="408"),
            pytest.param(_post("/detect", b"x" * (65 * 1024)), 413, id="413"),
            pytest.param(
                _get(
                    "/stats",
                    b"".join(b"X-F%d: y\r\n" % i for i in range(MAX_HEADER_LINES + 1)),
                ),
                431,
                id="431",
            ),
        ],
    )
    def test_answer_then_close(self, compiled, front_door, raw, status, monkeypatch):
        """The client's close intent and every parse error end the
        connection: the answer carries ``Connection: close``, then EOF."""
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)

        async def main():
            server, teardown = await front_door(compiled)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(raw)
                answer = await _read_response(reader)
                closed = await _at_eof(reader)
                writer.close()
                await writer.wait_closed()
                return answer, closed
            finally:
                await teardown()

        (answered, headers, body), closed = asyncio.run(main())
        assert answered == status
        if status == 200:
            assert json.loads(body)["head"] == "hotels"
        assert headers["connection"] == "close"
        assert closed

    @FRONT_DOORS
    def test_connection_cap_refuses_one_more(self, compiled, front_door, monkeypatch):
        """At ``MAX_CONNECTIONS`` open connections the next one is
        answered 503 with ``Retry-After`` and closed; the open ones keep
        being served."""
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)

        async def main():
            server, teardown = await front_door(compiled)
            port = server.port
            try:
                held = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
                for reader, writer in held:  # both accepted and kept alive
                    writer.write(_detect_request("iphone 5s case"))
                    assert (await _read_response(reader))[0] == 200
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(_detect_request("iphone 5s case"))
                refused = await _read_response(reader)
                refused_closed = await _at_eof(reader)
                writer.close()
                first_reader, first_writer = held[0]
                first_writer.write(_get("/stats"))
                status, _, stats = await _read_response(first_reader)
                assert status == 200
                for _, held_writer in held:
                    held_writer.close()
                return refused, refused_closed, json.loads(stats)["http"]
            finally:
                await teardown()

        (status, headers, body), closed, http = asyncio.run(main())
        assert status == 503
        assert headers["retry-after"] == "1"
        assert headers["connection"] == "close"
        assert b"connection limit" in body
        assert closed
        assert http["refused_at_cap"] == 1
        assert http["connections_opened"] == 2
        assert http["connections_open"] == 2

    @FRONT_DOORS
    def test_stats_carry_http_block(self, compiled, front_door):
        """``GET /stats`` reports connection reuse without a profiler:
        two requests on one kept-alive connection, then ``/stats`` on a
        second one."""

        async def main():
            server, teardown = await front_door(compiled)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                for query in ("iphone 5s case", "laptop backpack"):
                    writer.write(_detect_request(query))
                    await _read_response(reader)
                writer.close()
                await writer.wait_closed()
                status, payload = await _exchange(server.port, "/stats")
                return status, payload
            finally:
                await teardown()

        status, payload = asyncio.run(main())
        assert status == 200
        http = payload["http"]
        assert http["connections_opened"] == 2
        assert http["requests"] == 3
        assert http["refused_at_cap"] == 0
        assert http["connections_open"] == 1  # the /stats request itself
        assert payload["process"]["max_rss_mb"] > 0


class TestQueryTokenCap:
    """Every ingress caps a query at ``MAX_QUERY_TOKENS`` tokens, so one
    request's detection cost is bounded."""

    def test_cap_counts_normalized_tokens(self):
        at_cap = " ".join(["w"] * MAX_QUERY_TOKENS)
        assert token_cap_error(at_cap) is None
        # Whitespace runs and punctuation do not make tokens.
        assert token_cap_error("  " + at_cap.replace(" ", " , ") + "  ") is None
        assert "33 tokens" in token_cap_error(at_cap + " w")

    def test_query_at_cap_detects_within_budget(self, model, eval_examples):
        """A fresh detector detects a query of exactly ``MAX_QUERY_TOKENS``
        held-out words within a fixed budget (a few ms on a 2-vCPU host;
        head scoring is quadratic, so an uncapped 1,000-token query
        takes seconds), and the front door answers it 200."""
        words = dict.fromkeys(
            word for example in eval_examples for word in example.query.split()
        )
        query = " ".join(list(words)[:MAX_QUERY_TOKENS])
        assert len(normalize_fast(query).split()) == MAX_QUERY_TOKENS
        fresh = model.compile()
        began = time.perf_counter()
        detection = fresh.detect(query)
        assert time.perf_counter() - began < 0.5
        assert detection == model.detector().detect(query)

        async def handler(server, port):
            body = json.dumps({"query": query}).encode()
            return await _exchange(port, "/detect", body)

        status, payload = asyncio.run(serve(handler)(fresh))
        assert status == 200
        assert payload == detection_payload(detection)


class TestProcessStats:
    def test_max_rss_is_this_process_peak(self):
        reported = http_module.process_stats()["max_rss_mb"]
        assert reported > 0
        if sys.platform.startswith("linux"):
            status = Path("/proc/self/status").read_text()
            hwm_kib = next(
                int(line.split()[1])
                for line in status.splitlines()
                if line.startswith("VmHWM:")
            )
            assert abs(reported - hwm_kib / 1024) < 8

    @pytest.mark.parametrize(
        "platform, max_rss, expected",
        [("linux", 3 * 1024 * 1024, 3072.0), ("darwin", 3 * 1024 * 1024, 3.0)],
    )
    def test_units_follow_the_platform(
        self, monkeypatch, platform, max_rss, expected
    ):
        """``ru_maxrss`` is KiB on Linux and bytes on macOS."""

        class Usage:
            ru_maxrss = max_rss

        monkeypatch.setattr(http_module.sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
        assert http_module.process_stats() == {"max_rss_mb": expected}


class TestKeepAliveLifecycle:
    def test_idle_connection_closes_without_response(self, compiled, monkeypatch):
        """A kept-alive connection idle for ``READ_TIMEOUT_S`` is hung up
        with no response; a request already under way still gets 408."""
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)

        async def handler(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_detect_request("cheap hotels in rome"))
            status = (await _read_response(reader))[0]
            idle_tail = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_detect_request("cheap hotels in rome"))
            await _read_response(reader)
            writer.write(b"POST /detect HTTP/1.1\r\nContent-Le")
            stalled = await _read_response(reader)
            writer.close()
            return status, idle_tail, stalled[0]

        status, idle_tail, stalled = asyncio.run(serve(handler)(compiled))
        assert status == 200
        assert idle_tail == b""
        assert stalled == 408

    def test_stop_hangs_up_idle_and_finishes_in_flight(self, compiled):
        """``stop()`` returns promptly with an idle client attached, lets
        an in-flight request finish with its 200 (and ``Connection:
        close``), and leaves no handler task behind."""

        async def main():
            service = DetectionService(compiled)
            server = DetectionHTTPServer(service, port=0)
            await server.start()
            port = server.port
            release = asyncio.Event()
            detect = service.detect

            async def slow_detect(text):
                await release.wait()
                return await detect(text)

            idle_reader, idle_writer = await asyncio.open_connection("127.0.0.1", port)
            idle_writer.write(_detect_request("iphone 5s case"))
            assert (await _read_response(idle_reader))[0] == 200
            service.detect = slow_detect
            busy_reader, busy_writer = await asyncio.open_connection("127.0.0.1", port)
            busy_writer.write(_detect_request("cheap hotels in rome"))
            while server._http_stats()["requests"] != 2:
                await asyncio.sleep(0.01)
            started = asyncio.get_running_loop().time()
            stopping = asyncio.create_task(server.stop())
            idle_closed = await _at_eof(idle_reader)
            release.set()
            answer = await _read_response(busy_reader)
            busy_closed = await _at_eof(busy_reader)
            await asyncio.wait_for(stopping, timeout=5)
            elapsed = asyncio.get_running_loop().time() - started
            for writer in (idle_writer, busy_writer):
                writer.close()
            await asyncio.sleep(0)
            leftover = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            return idle_closed, answer, busy_closed, elapsed, server, leftover

        idle_closed, answer, busy_closed, elapsed, server, leftover = asyncio.run(main())
        status, headers, body = answer
        assert idle_closed
        assert status == 200
        assert json.loads(body)["head"] == "hotels"
        assert headers["connection"] == "close"
        assert busy_closed
        assert elapsed < 1.0
        assert server._http_stats()["connections_open"] == 0
        assert leftover == []
