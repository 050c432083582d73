"""In-process daemon tests: scheduling, robustness, degradation."""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.cache import cached_schedule
from repro.graph.generators import from_traffic_matrix, random_bipartite
from repro.parallel import encode_graph
from repro.serve import (
    BackgroundServer,
    LadderConfig,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.admission import QueueItem
from repro.serve.daemon import ScheduleServer
from repro.serve.protocol import (
    _HEADER,
    FRAME_ERROR,
    FRAME_REQUEST,
    decode_frame,
    encode_frame,
)

MATRIX = [[4.0, 1.0], [2.0, 3.0]]
BLOB = encode_graph(random_bipartite(7, max_side=12, max_edges=60))
OTHER_BLOB = encode_graph(random_bipartite(8, max_side=12, max_edges=60))


def exchange(address: str, doc: dict, blob: bytes = b"") -> bytes:
    """One request on a fresh connection; the answer frame's raw bytes."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=60) as s:
        s.sendall(encode_frame(FRAME_REQUEST, doc, blob))
        with s.makefile("rb") as stream:
            header = stream.read(_HEADER.size)
            *_, json_len, blob_len = _HEADER.unpack(header)
            return header + stream.read(json_len + blob_len)


def schedule_doc(**fields) -> dict:
    return {"op": "schedule", "k": 3, "beta": 0.5, **fields}


def memo_counts() -> tuple[int, int]:
    """Lifetime ``(hits, misses)`` of the daemons' answer memos."""
    metrics = obs.metrics()
    return tuple(
        metrics.counter(f"serve.answer_cache.{name}").value
        for name in ("hits", "misses")
    )


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

    def test_answer_building_error_does_not_strand_its_batch(
        self, server, monkeypatch
    ):
        # The k=3 group's schedule cannot be turned into an answer; that
        # item is answered INTERNAL and the k=2 group after it still gets
        # its schedule, instead of both waiting out their deadline.
        from repro.core.schedule import Schedule

        daemon = server.server
        to_dict = Schedule.to_dict

        def flaky(schedule):
            if schedule.k == 3:
                raise RuntimeError("answer bug")
            return to_dict(schedule)

        monkeypatch.setattr(Schedule, "to_dict", flaky)

        async def one_batch(docs):
            loop = asyncio.get_running_loop()
            items = [
                QueueItem("t", "schedule", doc, b"", loop.create_future(),
                          loop.time())
                for doc in docs
            ]
            await daemon._run_schedule_batch(items)
            return [item.future.result() for item in items]

        bug, good = asyncio.run_coroutine_threadsafe(
            one_batch([{"matrix": MATRIX, "k": 3}, {"matrix": MATRIX, "k": 2}]),
            daemon._loop,
        ).result(60)
        assert (bug["status"], bug["code"]) == ("error", "INTERNAL")
        assert "answer bug" in bug["detail"]
        assert good["status"] == "ok" and good["schedule"]["k"] == 2

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


class TestAnswerMemo:
    def test_repeat_replays_the_cold_answer_byte_for_byte(self):
        with BackgroundServer(ServeConfig(metrics_port=None)) as cold:
            cold_frame = exchange(cold.address, schedule_doc(), BLOB)
        with BackgroundServer(ServeConfig(metrics_port=None)) as bg:
            before = memo_counts()
            first = exchange(bg.address, schedule_doc(), BLOB)
            again = exchange(bg.address, schedule_doc(), BLOB)
            hits, misses = memo_counts()
            assert (hits - before[0], misses - before[1]) == (1, 1)
        assert first == again == cold_frame
        _, doc, _ = decode_frame(again)
        assert (doc["status"], doc["degraded"]) == ("ok", False)

    def test_engine_names_are_echoed_but_share_one_schedule(self):
        with BackgroundServer(ServeConfig(metrics_port=None)) as bg:
            with ServeClient(bg.address) as c:
                fast = c.request(schedule_doc(engine="fast"), BLOB)
                vector = c.request(schedule_doc(engine="vector"), BLOB)
            assert (fast["engine"], vector["engine"]) == ("fast", "vector")
            assert fast["schedule"] == vector["schedule"]
            assert len(bg.server._answers) == 2
            assert bg.server.cache.stats()["size"] == 1
            assert bg.server.cache.stats()["hits"] == 1

    def test_other_parameters_miss(self):
        with BackgroundServer(ServeConfig(metrics_port=None)) as bg:
            before = memo_counts()
            for doc in (
                schedule_doc(),
                schedule_doc(k=4),
                schedule_doc(beta=0.25),
                schedule_doc(algorithm="ggp"),
            ):
                exchange(bg.address, doc, BLOB)
            exchange(bg.address, schedule_doc(), OTHER_BLOB)
            exchange(bg.address, schedule_doc(k=3.0, beta=0.5), BLOB)
            hits, misses = memo_counts()
        # k and beta are keyed by value: 3.0 is the k=3 request again.
        assert (hits - before[0], misses - before[1]) == (1, 5)

    def test_degraded_requests_bypass_the_memo(self):
        config = ServeConfig(
            metrics_port=None, ladder=LadderConfig(release_after=300.0)
        )
        with BackgroundServer(config) as bg:
            daemon = bg.server
            plain = exchange(bg.address, schedule_doc(), BLOB)
            before = memo_counts()
            daemon.ladder._level = 1
            _, degraded, _ = decode_frame(
                exchange(bg.address, schedule_doc(), BLOB)
            )
            assert (degraded["engine"], degraded["degraded"]) == (
                "approx", True,
            )
            assert memo_counts() == before  # neither read nor written
            assert len(daemon._answers) == 1
            daemon.ladder._level = 0
            assert exchange(bg.address, schedule_doc(), BLOB) == plain
            assert memo_counts()[0] == before[0] + 1

    def test_memo_is_lru_bounded_by_cache_size(self):
        blobs = [
            encode_graph(random_bipartite(seed, max_side=6, max_edges=20))
            for seed in range(3)
        ]
        config = ServeConfig(metrics_port=None, cache_size=2)
        with BackgroundServer(config) as bg:
            def ask(i):
                exchange(bg.address, schedule_doc(), blobs[i])

            before = memo_counts()
            for i in (0, 1, 0, 2):  # the repeat keeps 0; 2 evicts 1
                ask(i)
            assert len(bg.server._answers) == 2
            ask(0)
            ask(1)
            hits, misses = memo_counts()
            assert len(bg.server._answers) == 2
        assert (hits - before[0], misses - before[1]) == (2, 4)

    def test_hit_is_answered_while_a_miss_holds_the_compute_lock(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        with BackgroundServer(ServeConfig(metrics_port=None)) as bg:
            daemon = bg.server
            stored = exchange(bg.address, schedule_doc(), BLOB)
            compute = daemon._compute_group

            def gated(*args):
                entered.set()
                release.wait(60)
                return compute(*args)

            monkeypatch.setattr(daemon, "_compute_group", gated)
            answers = []
            miss = threading.Thread(
                target=lambda: answers.append(
                    exchange(bg.address, schedule_doc(), OTHER_BLOB)
                )
            )
            miss.start()
            try:
                assert entered.wait(60)
                assert daemon._compute_lock.locked()
                assert exchange(bg.address, schedule_doc(), BLOB) == stored
                assert not answers  # the miss is still computing
            finally:
                release.set()
                miss.join(60)
        _, doc, _ = decode_frame(answers[0])
        assert doc["status"] == "ok"


class TestShutdown:
    def test_stop_cancelling_a_closing_handler_logs_nothing(
        self, monkeypatch
    ):
        # The client hangs up, and its handler parks in the finally that
        # waits for the writer to close; stop() then cancels it.  The
        # cancellation must end the handler quietly: nothing may reach
        # the loop's exception handler.
        parked = asyncio.Event()

        async def parked_wait_closed(writer):
            parked.set()
            await asyncio.Event().wait()  # only a cancellation ends this

        monkeypatch.setattr(
            asyncio.StreamWriter, "wait_closed", parked_wait_closed
        )
        logged = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context["message"])
            )
            daemon = await ScheduleServer(
                ServeConfig(metrics_port=None)
            ).start()
            host, port = daemon.address.rsplit(":", 1)
            _, writer = await asyncio.open_connection(host, int(port))
            writer.close()
            await parked.wait()
            await daemon.stop()

        asyncio.run(scenario())
        assert logged == []
