"""Server protocol behaviour: ops, errors, streaming, single-flight."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.serve.client import ServeError, connect
from repro.serve.jobs import ResolvedJob, register_workload
from repro.serve.load import zipf_ranks
from repro.serve.server import PROTOCOL_VERSION, serve_in_thread


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(workers=0) as handle:
        yield handle


class TestProtocol:
    def test_ping(self, server):
        with connect(server.address) as client:
            pong = client.ping()
        assert pong["pong"] is True
        assert pong["v"] == PROTOCOL_VERSION

    def test_stats_op(self, server):
        with connect(server.address) as client:
            stats = client.stats()
        assert stats["workers"] == 0
        assert stats["protocol"] == PROTOCOL_VERSION
        assert "latency_ms" in stats

    def test_run_streams_status_then_response(self, server):
        with connect(server.address) as client:
            rid = client.submit("gcd", "mesh4")
            response = client.recv(rid)
            states = [e["state"] for e in client.events.get(rid, [])]
        assert response["ok"] is True
        assert response["result"]["run_cycles"] > 0
        assert response["meta"]["fingerprint"]
        assert "seconds" in response["meta"]
        assert states[0] == "queued"

    def test_unknown_op_is_an_error_response(self, server):
        with connect(server.address) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.recv(client.send({"op": "frobnicate"}))

    def test_malformed_requests_keep_the_connection_alive(self, server):
        with connect(server.address) as client:
            with pytest.raises(ServeError, match="kernel"):
                client.recv(client.send({"op": "run"}))
            with pytest.raises(ServeError, match="unknown workload"):
                client.run("no-such-kernel", "mesh4")
            with pytest.raises(ServeError):
                client.run("gcd", "no-such-composition")
            # the same connection still serves good requests
            assert client.ping()["pong"] is True

    def test_garbage_line_is_an_error_not_a_crash(self, server):
        host, port = server.address.rsplit(":", 1)
        raw = socket.create_connection((host, int(port)))
        try:
            raw.sendall(b"this is not json\n")
            line = raw.makefile("rb").readline()
        finally:
            raw.close()
        msg = json.loads(line)
        assert msg["ok"] is False


class TestSingleFlight:
    def test_slow_duplicates_share_one_execution(self):
        """A deliberately slow synthetic workload makes the in-flight
        window wide: all followers must ride the leader's future."""
        from repro.verify.workloads import get_workload

        wl = get_workload("gcd")
        vec = wl.vectors[0]
        calls = []

        def _slow(params):
            calls.append(1)
            time.sleep(0.5)
            return ResolvedJob(
                kernel=wl.build(),
                livein=dict(vec.livein),
                arrays=vec.fresh_arrays(),
            )

        register_workload("slow-gcd", _slow)
        try:
            with serve_in_thread(workers=0) as handle:
                K = 4
                responses = [None] * K
                barrier = threading.Barrier(K)

                def _one(i):
                    with connect(handle.address) as client:
                        barrier.wait()
                        responses[i] = client.run("slow-gcd", "mesh4")

                threads = [
                    threading.Thread(target=_one, args=(i,))
                    for i in range(K)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                stats = handle.server.stats()
        finally:
            from repro.serve.jobs import _EXTRA_WORKLOADS

            _EXTRA_WORKLOADS.pop("slow-gcd", None)

        assert all(r is not None for r in responses)
        # the workload builder ran once: single-flight collapsed the
        # other K-1 requests onto the leader
        assert len(calls) == 1
        assert stats["jobs_completed"] == 1
        assert stats["inflight_hits"] + stats["memo_hits"] == K - 1
        digests = {r["result"]["program_digest"] for r in responses}
        assert len(digests) == 1

    def test_failed_leader_propagates_to_followers_then_recovers(self):
        boom = {"armed": True}
        from repro.verify.workloads import get_workload

        wl = get_workload("gcd")
        vec = wl.vectors[0]

        def _flaky(params):
            if boom["armed"]:
                time.sleep(0.3)
                raise RuntimeError("synthetic workload failure")
            return ResolvedJob(
                kernel=wl.build(),
                livein=dict(vec.livein),
                arrays=vec.fresh_arrays(),
            )

        register_workload("flaky-gcd", _flaky)
        try:
            with serve_in_thread(workers=0) as handle:
                with connect(handle.address) as client:
                    with pytest.raises(ServeError, match="synthetic"):
                        client.run("flaky-gcd", "mesh4")
                    boom["armed"] = False
                    # the failure was not memoised: a retry succeeds
                    response = client.run("flaky-gcd", "mesh4")
                    assert response["ok"] is True
                stats = handle.server.stats()
            assert stats["jobs_failed"] == 1
        finally:
            from repro.serve.jobs import _EXTRA_WORKLOADS

            _EXTRA_WORKLOADS.pop("flaky-gcd", None)


class TestShutdownOp:
    def test_shutdown_request_stops_the_server(self):
        handle = serve_in_thread(workers=0)
        with handle:
            with connect(handle.address) as client:
                client.shutdown()
            deadline = time.time() + 30
            while handle._thread.is_alive() and time.time() < deadline:
                time.sleep(0.05)
        assert not handle._thread.is_alive()


class TestZipfGenerator:
    def test_seeded_and_skewed(self):
        a = zipf_ranks(500, 8, seed=7)
        b = zipf_ranks(500, 8, seed=7)
        assert a == b
        assert set(a) <= set(range(8))
        # rank 0 must dominate rank 7 under any sensible Zipf draw
        assert a.count(0) > a.count(7)

    def test_different_seeds_differ(self):
        assert zipf_ranks(100, 8, seed=1) != zipf_ranks(100, 8, seed=2)


class TestPooledStats:
    def test_schedule_cache_stats_reflect_the_workers(self, tmp_path):
        """With a worker pool, ``stats.schedule_cache`` counts the
        workers' cache traffic, not the idle parent's."""
        with serve_in_thread(workers=1, cache_dir=str(tmp_path)) as handle:
            with connect(handle.address) as client:
                client.run("gcd", "mesh4")
                client.run("gcd", "mesh4")  # memo: no job at all
                # a new live-in is a new job on the same schedule
                client.run("gcd", "mesh4", livein={"a": 97, "b": 13})
                client.run("dotp", "mesh4")
                stats = client.stats()
        assert stats["memo_hits"] == 1
        assert (stats["schedule_computed"], stats["schedule_cache_hits"]) \
            == (2, 1)
        cache = stats["schedule_cache"]
        assert cache["hits"] == stats["schedule_cache_hits"]
        assert cache["misses"] == stats["schedule_computed"]
        assert cache["entries"] == 2
