"""HTTP-level tests for the micro-batching gateway."""

import asyncio
import json

import pytest

from repro.engine.service import EmbeddingService
from repro.server.client import AsyncServeClient, fire_measure
from repro.server.gateway import BatchingGateway, GatewayConfig


def _with_gateway(config=None):
    """Run ``coro(gateway, host, port)`` against a started ephemeral gateway."""

    def runner(coro):
        async def main():
            gateway = BatchingGateway(config or GatewayConfig(port=0))
            await gateway.start()
            host, port = gateway.address
            try:
                return await coro(gateway, host, port)
            finally:
                await gateway.close()

        return asyncio.run(main())

    return runner


class TestRoutes:
    def test_healthz(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/healthz")
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_route_is_404(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/nope")
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 404 and "error" in payload

    def test_malformed_json_is_400(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            writer.write(
                (
                    f"POST /measure HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert _with_gateway()(scenario) == 400

    def test_chunked_transfer_encoding_is_refused_not_desynced(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /measure HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\n{\"d\":\r\n0\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return int(status_line.split()[1])

        assert _with_gateway()(scenario) == 501

    def test_negative_content_length_is_400_not_a_silent_drop(self):
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /measure HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -5\r\n\r\n"
            )
            await writer.drain()
            status_line = await reader.readline()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(
                next(
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                )
            )
            body = json.loads(await reader.readexactly(length))
            closed = await reader.read() == b""  # the gateway closes after
            writer.close()
            return int(status_line.split()[1]), body, closed

        status, body, closed = _with_gateway()(scenario)
        assert status == 400
        assert body == {"error": "bad Content-Length"}
        assert closed

    def test_unknown_topology_is_400(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/measure", {"topology": "torus", "d": 2, "n": 5}
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 400 and "torus" in payload["error"]

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/measure", {"d": 2.5, "n": 5}, "d"),
            ("/measure", {"d": True, "n": 5}, "d"),
            ("/measure", {"n": 5}, "d"),
            ("/measure", {"d": 2, "n": "5"}, "n"),
            ("/measure", {"d": 2, "n": 5, "faults": [[0, 0, 0, 1.7, 1]]}, "faults"),
            ("/measure", {"d": 2, "n": 5, "faults": [5]}, "faults"),
            ("/measure", {"d": 2, "n": 5, "root": [0, 0, 0, 0, 1.5]}, "root"),
            ("/embed", {"d": 2.5, "n": 5}, "d"),
            ("/embed", {"n": 5}, "d"),
            ("/embed", {"d": 2, "n": 5, "faults": [[0, 0, 0, 1.7, 1]]}, "faults"),
            ("/churn", {"d": 2, "n": 5.0, "op": "reset"}, "n"),
            ("/churn", {"d": 2, "n": 5, "op": "fault"}, "node"),
            ("/churn", {"d": 2, "n": 5, "op": "fault", "node": [0, 0, 0, 1.7, 1]},
             "node"),
            ("/churn", {"d": 2, "n": 5, "op": "fault", "node": [0, 0, 0, 1, 1],
                        "seq": 0.5}, "seq"),
        ],
    )
    def test_non_integer_or_missing_field_is_400_naming_it(self, path, body, field):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("POST", path, body)
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 400, payload
        assert f"'{field}'" in payload["error"]
        assert "KeyError" not in payload["error"]


class TestMeasure:
    def test_answers_match_the_scalar_service_path(self):
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 6,
             "faults": [[0, 1, 0, 1, 1, 0]], "root": None},
            {"topology": "kautz", "d": 2, "n": 6, "faults": [], "root": None},
            {"topology": "hypercube", "d": 2, "n": 6,
             "faults": [[0] * 6, [1] * 6], "root": None},
        ]

        async def scenario(gateway, host, port):
            answers, _ = await fire_measure(host, port, payloads, concurrency=3)
            return answers

        answers = _with_gateway()(scenario)
        service = EmbeddingService()
        for payload, got in zip(payloads, answers):
            want = service.measure(
                payload["d"], payload["n"], faults=payload["faults"],
                topology=payload["topology"],
            ).as_dict()
            for transient in ("cached", "elapsed_s", "trace_id"):
                want.pop(transient, None), got.pop(transient, None)
            assert got == want

    def test_repeat_request_is_served_from_cache(self):
        payload = {"topology": "debruijn", "d": 2, "n": 6,
                   "faults": [[0, 0, 1, 1, 0, 1]], "root": None}

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, cold = await client.request("POST", "/measure", payload)
                _, warm = await client.request("POST", "/measure", payload)
                return cold, warm, gateway.stats()
            finally:
                await client.close()

        cold, warm, stats = _with_gateway()(scenario)
        assert not cold["cached"] and warm["cached"]
        assert warm["region_size"] == cold["region_size"]
        assert stats["measure_cache"]["hits"] == 1

    def test_rotated_faults_share_one_cache_entry(self):
        # canonical fault-unit normalisation, exactly like the service
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                base = {"topology": "debruijn", "d": 2, "n": 5, "root": None}
                _, a = await client.request(
                    "POST", "/measure", {**base, "faults": [[0, 0, 0, 1, 1]]}
                )
                _, b = await client.request(
                    "POST", "/measure", {**base, "faults": [[0, 0, 1, 1, 0]]}
                )
                return a, b
            finally:
                await client.close()

        a, b = _with_gateway()(scenario)
        assert b["cached"] and a["fault_units"] == b["fault_units"]

    def test_gateway_and_service_share_one_measurement_cache(self):
        # a library measure() warms the cache the gateway answers from
        service = EmbeddingService()
        warm = service.measure(2, 6, faults=[(0, 0, 0, 1, 1, 0)])

        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                _, answer = await client.request(
                    "POST", "/measure",
                    {"topology": "debruijn", "d": 2, "n": 6,
                     "faults": [[0, 0, 1, 1, 0, 0]], "root": None},  # rotated
                )
                _, stats = await client.request("GET", "/stats")
                return answer, stats
            finally:
                await client.close()

        config = GatewayConfig(port=0)

        async def main():
            gateway = BatchingGateway(config, service=service)
            await gateway.start()
            host, port = gateway.address
            try:
                return await scenario(gateway, host, port)
            finally:
                await gateway.close()

        answer, stats = asyncio.run(main())
        assert answer["cached"] is True
        assert answer["region_size"] == warm.region_size
        assert answer["fault_units"] == [list(w) for w in warm.fault_units]
        assert stats["measure_cache"] == stats["service"]["measurements"]
        assert stats["measure_cache"]["hits"] == 1
        assert stats["measure_cache"]["misses"] == 1


class TestEmbed:
    def test_embed_matches_direct_service_call(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/embed",
                    {"d": 2, "n": 5, "faults": [[0, 0, 0, 1, 1]]},
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 200
        direct = EmbeddingService().embed(2, 5, faults=[(0, 0, 0, 1, 1)])
        assert payload["length"] == direct.length
        assert payload["cycle"] == [list(w) for w in direct.cycle]
        assert payload["meets_guarantee"] == direct.meets_guarantee

    def test_include_cycle_false_drops_the_payload(self):
        async def scenario(gateway, host, port):
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request(
                    "POST", "/embed",
                    {"d": 2, "n": 5, "faults": [], "include_cycle": False},
                )
            finally:
                await client.close()

        status, payload = _with_gateway()(scenario)
        assert status == 200
        assert "cycle" not in payload and payload["length"] == 32


class TestStats:
    def test_stats_shape_and_occupancy_under_concurrency(self):
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[i % 2] * 7 + [1]], "root": None}
            for i in range(2)
        ] + [
            {"topology": "debruijn", "d": 2, "n": 8,
             "faults": [[int(b) for b in format(i, "08b")]], "root": None}
            for i in range(40)
        ]

        async def scenario(gateway, host, port):
            await fire_measure(host, port, payloads, concurrency=16)
            client = await AsyncServeClient.open(host, port)
            try:
                return await client.request("GET", "/stats")
            finally:
                await client.close()

        status, stats = _with_gateway()(scenario)
        assert status == 200
        server = stats["server"]
        assert server["requests"]["POST /measure"] == len(payloads)
        assert server["batch_occupancy"] > 1.0
        assert "debruijn(2,8)" in stats["shards"]
        shard = stats["shards"]["debruijn(2,8)"]
        assert shard["completed"] == shard["lanes"] >= 1
        # the engine cache audit rides along, as the service exposes it
        assert "process_caches" in stats["service"]
        json.dumps(stats)  # everything must be JSON-serialisable

    def test_queue_limit_maps_to_503(self):
        config = GatewayConfig(port=0, queue_limit=1, max_batch=1, max_wait_ms=0.0)
        payloads = [
            {"topology": "debruijn", "d": 2, "n": 10,
             "faults": [[int(b) for b in format(i, "010b")]], "root": None}
            for i in range(64)
        ]

        async def scenario(gateway, host, port):
            async def one(payload):
                client = await AsyncServeClient.open(host, port)
                try:
                    status, _ = await client.request("POST", "/measure", payload)
                    return status
                finally:
                    await client.close()

            return await asyncio.gather(*[one(p) for p in payloads])

        statuses = _with_gateway(config)(scenario)
        assert set(statuses) <= {200, 503}
        assert 200 in statuses
        # with a queue of 1 and 64 simultaneous requests, some must shed
        assert 503 in statuses


@pytest.mark.parametrize("include_root", [False, True])
def test_explicit_root_shards_separately(include_root):
    payload = {"topology": "debruijn", "d": 2, "n": 5,
               "faults": [], "root": [1, 0, 1, 0, 1] if include_root else None}

    async def scenario(gateway, host, port):
        client = await AsyncServeClient.open(host, port)
        try:
            status, answer = await client.request("POST", "/measure", payload)
            return status, answer, gateway.stats()["shards"]
        finally:
            await client.close()

    status, answer, shards = _with_gateway()(scenario)
    assert status == 200
    expected_root = [1, 0, 1, 0, 1] if include_root else [0, 0, 0, 0, 1]
    assert answer["root"] == expected_root
    name = "debruijn(2,5)" + ("@(1, 0, 1, 0, 1)" if include_root else "")
    assert name in shards
