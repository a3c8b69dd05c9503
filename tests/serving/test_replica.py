"""Replica socket protocol: framing, multiplexing, structured errors."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.core.detector import Detection
from repro.errors import ReplicaProtocolError, ServerClosedError
from repro.serving import DetectionService, detection_payload
from repro.serving import replica as replica_module
from repro.serving.replica import (
    MAX_FRAME_BYTES,
    ReplicaServer,
    encode_frame,
    read_frame,
)
from repro.text.normalizer import MAX_QUERY_TOKENS


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "detect", "id": "7", "query": "cheap hotels"}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == payload

    def test_sorted_keys_are_deterministic(self):
        assert encode_frame({"b": 1, "a": 2}) == encode_frame({"a": 2, "b": 1})

    def test_oversized_outgoing_frame_is_refused(self):
        with pytest.raises(ReplicaProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_read_rejects_oversized_length(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ReplicaProtocolError, match="exceeds"):
                await read_frame(reader)

        asyncio.run(main())

    def test_read_rejects_non_json(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
            with pytest.raises(ReplicaProtocolError, match="not JSON"):
                await read_frame(reader)

        asyncio.run(main())

    def test_read_rejects_non_object(self):
        async def main():
            body = json.dumps([1, 2]).encode()
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", len(body)) + body)
            with pytest.raises(ReplicaProtocolError, match="object"):
                await read_frame(reader)

        asyncio.run(main())

    def test_clean_eof_returns_none(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await read_frame(reader) is None

        asyncio.run(main())

    def test_eof_mid_frame_raises(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 100) + b"partial")
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

        asyncio.run(main())


def _empty_detection(text: str) -> Detection:
    return Detection(query=text, terms=(), score=0.0, method="empty")


def _answer_tasks() -> int:
    """Replica answer tasks alive on the running loop."""
    return sum(
        1
        for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "ReplicaServer._answer"
    )


async def _call(writer, reader, payload: dict) -> dict:
    writer.write(encode_frame(payload))
    await writer.drain()
    response = await asyncio.wait_for(read_frame(reader), timeout=10)
    assert response is not None
    return response


def _against_server(handler, service_factory):
    """Run ``handler(server, reader, writer)`` against a live
    ReplicaServer over one connection, then stop everything."""

    async def main():
        service = service_factory()
        server = ReplicaServer(service, port=0, replica_id=3, generation=2)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            return await handler(server, reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()

    return asyncio.run(main())


class TestReplicaServer:
    def test_detect_matches_service_payload(self, compiled):
        query = "cheap hotels in rome"

        async def handler(server, reader, writer):
            return await _call(
                writer, reader, {"op": "detect", "id": "1", "query": query}
            )

        response = _against_server(
            handler, lambda: DetectionService(compiled)
        )
        assert response["ok"] is True
        assert response["id"] == "1"
        assert response["result"] == detection_payload(compiled.detect(query))

    def test_multiplexed_requests_match_by_id(self, compiled):
        queries = {
            "a": "cheap hotels in rome",
            "b": "iphone 5s case",
            "c": "toyota camry price",
        }

        async def handler(server, reader, writer):
            # Write all requests before reading any response: responses
            # may arrive in any order and must carry the request's id.
            for request_id, query in queries.items():
                writer.write(
                    encode_frame(
                        {"op": "detect", "id": request_id, "query": query}
                    )
                )
            await writer.drain()
            responses = {}
            for _ in queries:
                response = await asyncio.wait_for(read_frame(reader), timeout=10)
                responses[response["id"]] = response
            return responses

        responses = _against_server(handler, lambda: DetectionService(compiled))
        assert set(responses) == set(queries)
        for request_id, query in queries.items():
            assert responses[request_id]["result"]["query"] == query

    def test_health_and_stats_ops(self, compiled):
        async def handler(server, reader, writer):
            health = await _call(writer, reader, {"op": "health", "id": "h"})
            await _call(
                writer, reader, {"op": "detect", "id": "d", "query": "hotels"}
            )
            stats = await _call(writer, reader, {"op": "stats", "id": "s"})
            return health, stats

        health, stats = _against_server(handler, lambda: DetectionService(compiled))
        assert health["status"] == "ok"
        assert health["replica"] == 3
        assert health["generation"] == 2
        assert stats["stats"]["requests"] == 1
        assert stats["stats"]["replica"] == 3

    def test_cache_keys_returns_hottest_normalized_keys(self, compiled):
        queries = ["cheap hotels in rome", "iphone 5s case", "cheap hotels in rome"]

        async def handler(server, reader, writer):
            for index, query in enumerate(queries):
                await _call(
                    writer,
                    reader,
                    {"op": "detect", "id": str(index), "query": query},
                )
            hot = await _call(writer, reader, {"op": "cache_keys", "id": "k"})
            capped = await _call(
                writer, reader, {"op": "cache_keys", "id": "k1", "n": 1}
            )
            bad = await _call(
                writer, reader, {"op": "cache_keys", "id": "kb", "n": -1}
            )
            return hot, capped, bad

        hot, capped, bad = _against_server(
            handler, lambda: DetectionService(compiled)
        )
        assert hot["ok"] is True
        # Keys are the cache's normalized texts, hottest (MRU) first.
        assert hot["keys"] == ["cheap hotels in rome", "iphone 5s case"]
        assert capped == {"id": "k1", "ok": True, "keys": ["cheap hotels in rome"]}
        assert bad == {
            "id": "kb",
            "ok": False,
            "kind": "bad_request",
            "error": "cache_keys needs a non-negative integer 'n'",
        }

    def test_unknown_op_and_bad_query_are_bad_request(self, compiled):
        async def handler(server, reader, writer):
            unknown = await _call(writer, reader, {"op": "frobnicate", "id": "1"})
            bad = await _call(
                writer, reader, {"op": "detect", "id": "2", "query": 7}
            )
            return unknown, bad

        unknown, bad = _against_server(handler, lambda: DetectionService(compiled))
        assert unknown == {
            "id": "1",
            "ok": False,
            "kind": "bad_request",
            "error": "unknown op 'frobnicate'",
        }
        assert bad["kind"] == "bad_request"

    def test_query_over_token_cap_is_bad_request(self, compiled):
        at_cap = " ".join(["hotels"] * MAX_QUERY_TOKENS)

        async def handler(server, reader, writer):
            over = await _call(
                writer, reader, {"op": "detect", "id": "1", "query": at_cap + " rome"}
            )
            fits = await _call(
                writer, reader, {"op": "detect", "id": "2", "query": at_cap}
            )
            return over, fits, server.backend.stats()["requests"]

        over, fits, requests = _against_server(
            handler, lambda: DetectionService(compiled)
        )
        assert over == {
            "id": "1",
            "ok": False,
            "kind": "bad_request",
            "error": f"query has {MAX_QUERY_TOKENS + 1} tokens, over the limit "
            f"of {MAX_QUERY_TOKENS} (MAX_QUERY_TOKENS)",
        }
        assert fits["ok"] is True
        assert fits["result"] == detection_payload(compiled.detect(at_cap))
        assert requests == 1  # the refused query never reached the service

    def test_closed_is_structured(self):
        class _ClosingService:
            closed = False

            async def detect(self, text):
                raise ServerClosedError("closing")

            async def close(self):
                pass

        async def handler(server, reader, writer):
            return await _call(
                writer, reader, {"op": "detect", "id": "2", "query": "x"}
            )

        closed = _against_server(handler, _ClosingService)
        assert closed == {"id": "2", "ok": False, "kind": "closed", "error": "closing"}

    def test_unanswered_frames_per_connection_are_capped(self, monkeypatch):
        """A peer that sends frames faster than they are answered holds
        at most ``MAX_UNANSWERED_FRAMES`` answer tasks: past the cap the
        replica stops reading its socket. Once the backend frees up,
        every frame is answered, in the order sent."""
        cap, extra = 4, 3
        monkeypatch.setattr(replica_module, "MAX_UNANSWERED_FRAMES", cap)
        frames_read = 0
        real_read_frame = replica_module.read_frame

        async def counting_read_frame(reader):
            nonlocal frames_read
            frame = await real_read_frame(reader)
            frames_read += frame is not None
            return frame

        monkeypatch.setattr(replica_module, "read_frame", counting_read_frame)

        class _BlockedService:
            closed = False

            def __init__(self):
                self.release = asyncio.Event()
                self.started = 0

            async def detect(self, text):
                self.started += 1
                await self.release.wait()
                return _empty_detection(text)

            async def close(self):
                pass

        async def handler(server, reader, writer):
            service = server.backend
            for index in range(cap + extra):
                writer.write(
                    encode_frame({"op": "detect", "id": str(index), "query": "q"})
                )
            await writer.drain()
            for _ in range(50):  # let the replica read all it will
                await asyncio.sleep(0.01)
            held = (frames_read, service.started, _answer_tasks())
            service.release.set()
            answers = [
                await asyncio.wait_for(read_frame(reader), timeout=10)
                for _ in range(cap + extra)
            ]
            return held, answers

        held, answers = _against_server(handler, _BlockedService)
        assert held == (cap, cap, cap)
        assert [answer["id"] for answer in answers] == [
            str(index) for index in range(cap + extra)
        ]
        assert all(answer["ok"] for answer in answers)

    def test_internal_error_fails_only_that_request(self, compiled):
        class _FlakyService:
            def __init__(self):
                self._inner = DetectionService(compiled)
                self.closed = False

            async def detect(self, text):
                if text == "boom":
                    raise ValueError("kaboom")
                return await self._inner.detect(text)

            async def close(self):
                await self._inner.close()

        async def handler(server, reader, writer):
            boom = await _call(
                writer, reader, {"op": "detect", "id": "1", "query": "boom"}
            )
            fine = await _call(
                writer, reader, {"op": "detect", "id": "2", "query": "hotels"}
            )
            return boom, fine

        boom, fine = _against_server(handler, _FlakyService)
        assert boom["kind"] == "internal"
        assert "kaboom" in boom["error"]
        assert fine["ok"] is True

    def test_poisoned_connection_is_dropped_not_wedged(self, compiled):
        async def handler(server, reader, writer):
            writer.write(struct.pack(">I", MAX_FRAME_BYTES + 5))
            await writer.drain()
            # The server closes a protocol-violating connection.
            assert await asyncio.wait_for(reader.read(-1), timeout=10) == b""
            # A fresh connection still works.
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                return await _call(
                    writer2, reader2, {"op": "health", "id": "1"}
                )
            finally:
                writer2.close()
                await writer2.wait_closed()

        health = _against_server(handler, lambda: DetectionService(compiled))
        assert health["status"] == "ok"

    def test_stop_drains_service(self, compiled):
        async def main():
            service = DetectionService(compiled)
            server = ReplicaServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            response = await _call(
                writer, reader, {"op": "detect", "id": "1", "query": "hotels"}
            )
            assert response["ok"]
            writer.close()
            await writer.wait_closed()
            await server.stop()
            assert service.closed
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)

        asyncio.run(main())
