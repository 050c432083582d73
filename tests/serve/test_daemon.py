"""In-process daemon tests: scheduling, robustness, degradation."""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.cache import cached_schedule
from repro.graph.generators import from_traffic_matrix
from repro.serve import (
    BackgroundServer,
    LadderConfig,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.admission import QueueItem
from repro.serve.protocol import FRAME_ERROR, decode_frame, encode_frame

MATRIX = [[4.0, 1.0], [2.0, 3.0]]


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServeConfig(metrics_port=None)) as bg:
        yield bg


@pytest.fixture()
def client(server):
    with ServeClient(server.address) as c:
        yield c


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping()["status"] == "ok"

    def test_status(self, client):
        doc = client.status()
        assert doc["queue_depth"] == 0
        assert doc["transfers_enabled"] is False

    def test_unknown_op_lists_valid_ops(self, client):
        with pytest.raises(ServeError, match="valid ops") as err:
            client.call("frobnicate", max_attempts=1)
        assert err.value.code == "UNKNOWN_OP"

    def test_schedule_matches_serial_cached_schedule(self, client):
        response = client.schedule(matrix=MATRIX, k=2, beta=0.1)
        expected = cached_schedule(
            from_traffic_matrix(MATRIX), 2, 0.1, "oggp", "fast", cache=None
        )
        assert response["cost"] == pytest.approx(expected.cost)
        assert response["num_steps"] == expected.num_steps
        assert response["degraded"] is False
        assert response["lower_bound"] <= response["cost"] + 1e-9

    def test_schedule_via_kpbw_graph_blob(self, client):
        graph = from_traffic_matrix(MATRIX)
        response = client.schedule(graph=graph, k=2, beta=0.1)
        expected = cached_schedule(graph, 2, 0.1, "oggp", "fast", cache=None)
        assert response["cost"] == pytest.approx(expected.cost)

    def test_schedule_without_matrix_or_graph(self, client):
        with pytest.raises(ServeError, match="matrix"):
            client.call("schedule", k=1, max_attempts=1)

    def test_bad_algorithm_rejected(self, client):
        with pytest.raises(ServeError, match="valid algorithms"):
            client.call(
                "schedule", matrix=MATRIX, algorithm="qsort", max_attempts=1
            )

    def test_removed_resume_engine_gets_error_frame(self, client):
        with pytest.raises(ServeError, match="valid engines: fast, vector"):
            client.call(
                "schedule", matrix=MATRIX, engine="resume", max_attempts=1
            )
        assert client.ping()["status"] == "ok"  # the daemon stays up

    def test_transfer_disabled_without_state_dir(self, client):
        with pytest.raises(ServeError, match="state-dir"):
            client.transfer("r1", max_attempts=1)

    def test_concurrent_clients_multiplex(self, server):
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            matrix = rng.uniform(1, 5, (3, 3)).tolist()
            try:
                with ServeClient(server.address) as c:
                    for _ in range(3):
                        doc = c.schedule(matrix=matrix, k=2)
                        assert doc["status"] == "ok"
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors


class TestRobustness:
    def test_malformed_frame_gets_structured_error(self, server):
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as s:
            s.sendall(b"\x00" * 64)
            data = s.recv(1 << 16)
        ftype, doc, _ = decode_frame(data)
        assert ftype == FRAME_ERROR
        assert doc["code"] == "BAD_FRAME"

    def test_daemon_survives_malformed_frame(self, server, client):
        self.test_malformed_frame_gets_structured_error(server)
        assert client.ping()["status"] == "ok"

    def test_corrupt_crc_rejected_not_crashed(self, server, client):
        frame = bytearray(encode_frame(1, {"op": "ping"}))
        frame[-1] ^= 0xFF
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as s:
            s.sendall(bytes(frame))
            ftype, doc, _ = decode_frame(s.recv(1 << 16))
        assert doc["code"] == "BAD_FRAME"
        assert "CRC" in doc["detail"]
        assert client.ping()["status"] == "ok"

    def test_mid_frame_disconnect_tolerated(self, server, client):
        frame = encode_frame(1, {"op": "ping"})
        host, port = server.address.rsplit(":", 1)
        s = socket.create_connection((host, int(port)), timeout=10)
        s.sendall(frame[: len(frame) // 2])
        s.close()  # vanish mid-frame
        assert client.ping()["status"] == "ok"

    def test_bad_item_answers_without_stranding_its_batch(self, server):
        # One micro-batch holding a good request, one whose k overflows
        # int(), and one that trips an unexpected parser error: each gets
        # its own answer, none is left waiting for its deadline.
        daemon = server.server
        parse = daemon._parse_schedule_request

        def flaky(doc, blob):
            if doc.get("k") == 3:
                raise RuntimeError("parser bug")
            return parse(doc, blob)

        async def one_batch(docs):
            loop = asyncio.get_running_loop()
            items = [
                QueueItem("t", "schedule", doc, b"", loop.create_future(),
                          loop.time())
                for doc in docs
            ]
            daemon._parse_schedule_request = flaky
            try:
                await daemon._run_schedule_batch(items)
            finally:
                del daemon._parse_schedule_request
            return [item.future.result() for item in items]

        good, overflow, bug = asyncio.run_coroutine_threadsafe(
            one_batch([
                {"matrix": MATRIX, "k": 2},
                {"matrix": MATRIX, "k": float("inf")},
                {"matrix": MATRIX, "k": 3},
            ]),
            daemon._loop,
        ).result(60)
        assert good["status"] == "ok"
        assert (overflow["code"], bug["code"]) == ("BAD_REQUEST", "INTERNAL")
        assert "parser bug" in bug["detail"]

    def test_deadline_expired_is_prompt_and_structured(self, client):
        big = np.random.default_rng(3).uniform(1, 9, (40, 40)).tolist()
        started = time.monotonic()
        response = client.request(
            {"op": "schedule", "matrix": big, "k": 4, "deadline_s": 0.005}
        )
        elapsed = time.monotonic() - started
        assert response["status"] == "error"
        assert response["code"] == "DEADLINE_EXPIRED"
        assert elapsed < 5.0  # answered, not hung


class TestQuotasAndShedding:
    def test_quota_shed_has_retry_hint(self):
        config = ServeConfig(
            metrics_port=None, tenant_rate=0.5, tenant_burst=1.0
        )
        with BackgroundServer(config) as bg:
            with ServeClient(bg.address, tenant="noisy") as c:
                assert c.schedule(matrix=MATRIX, k=1)["status"] == "ok"
                shed = c.request({"op": "schedule", "matrix": MATRIX, "k": 1})
                assert shed["status"] == "retry"
                assert shed["code"] == "RETRY_AFTER"
                assert shed["retry_after"] > 0.0
                # Another tenant is unaffected.
                with ServeClient(bg.address, tenant="quiet") as other:
                    assert other.schedule(matrix=MATRIX, k=1)["status"] == "ok"

    def test_client_retries_through_quota_shed(self):
        config = ServeConfig(
            metrics_port=None, tenant_rate=5.0, tenant_burst=1.0
        )
        with BackgroundServer(config) as bg:
            with ServeClient(bg.address, tenant="steady") as c:
                # Second call is shed, then retried after the hint.
                assert c.schedule(matrix=MATRIX, k=1)["status"] == "ok"
                assert c.schedule(matrix=MATRIX, k=1)["status"] == "ok"


class TestDegradationLadder:
    def test_degraded_responses_are_labeled(self):
        # Escalation timing is unit-tested in test_admission; here we pin
        # the end-to-end contract: once the ladder is engaged, responses
        # are served with the cheaper engine AND say so.  A slow release
        # window keeps the level from decaying mid-test.
        config = ServeConfig(
            metrics_port=None,
            ladder=LadderConfig(release_after=300.0),
        )
        with BackgroundServer(config) as bg:
            bg.server.ladder._level = 1
            with ServeClient(bg.address) as c:
                doc = c.schedule(matrix=MATRIX, k=2, engine="fast")
                assert doc["degraded"] is True
                assert doc["engine"] == "approx"
                assert doc["degraded_level"] == 1
                assert doc["algorithm"] == "oggp"  # level 1 keeps oggp

    def test_level_two_also_degrades_algorithm(self):
        config = ServeConfig(
            metrics_port=None,
            ladder=LadderConfig(release_after=300.0),
        )
        with BackgroundServer(config) as bg:
            bg.server.ladder._level = 2
            with ServeClient(bg.address) as c:
                doc = c.schedule(matrix=MATRIX, k=2)
                assert doc["degraded"] is True
                assert (doc["algorithm"], doc["engine"]) == ("greedy", "approx")
                # A degraded answer is still a valid schedule.
                assert doc["cost"] >= doc["lower_bound"] - 1e-9
