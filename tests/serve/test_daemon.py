"""The serve daemon: HTTP API, back-pressure, quotas, durable spool,
and the kill-mid-flight / restart / drain exactly-once round trip.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import (
    DaemonError,
    QueueFullError,
    QuotaExceededError,
    ServeError,
)
from repro.serve import JobSpec, SerialExecutor
from repro.serve.daemon import DaemonClient, ServeDaemon


def probe(seed=0, seconds=0.0):
    behavior = "sleep" if seconds else "ok"
    return JobSpec(kind="probe", behavior=behavior, seed=seed,
                   seconds=seconds)


@pytest.fixture
def served(tmp_path):
    """A started daemon (serial executor: fast, fork-free) + client."""
    daemon = ServeDaemon(str(tmp_path / "spool"),
                         executor=SerialExecutor(), max_queue=64)
    daemon.start()
    try:
        yield daemon, DaemonClient(daemon.host, daemon.port,
                                   client="tester")
    finally:
        daemon.stop()


class TestSubmission:
    """Queue admission logic, exercised without a scheduler thread."""

    def test_empty_batch_refused(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor())
        with pytest.raises(ServeError, match="empty"):
            daemon.submit([])

    def test_queue_full_raises_with_retry_after(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor(), max_queue=4)
        daemon.submit([probe(seed=n) for n in range(3)])
        with pytest.raises(QueueFullError) as excinfo:
            daemon.submit([probe(seed=n) for n in range(10, 12)])
        assert excinfo.value.retry_after >= 1.0
        assert "queue is full" in str(excinfo.value)

    def test_per_client_quota_enforced(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor(),
                             max_queue=64, max_client_jobs=3)
        daemon.submit([probe(seed=1), probe(seed=2)], client="alice")
        with pytest.raises(QuotaExceededError) as excinfo:
            daemon.submit([probe(seed=3), probe(seed=4)],
                          client="alice")
        assert excinfo.value.client == "alice"
        # Quotas are per client: bob's identical batch is admitted.
        accepted = daemon.submit([probe(seed=3), probe(seed=4)],
                                 client="bob")
        assert accepted["total"] == 2

    def test_quota_error_is_a_queue_full_error(self):
        # One except-clause on the client side handles both refusals.
        assert issubclass(QuotaExceededError, QueueFullError)

    def test_submission_spooled_before_ack(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor())
        accepted = daemon.submit([probe(seed=7)])
        path = daemon._batch_path(accepted["batch"])
        with open(path) as handle:
            record = json.load(handle)
        assert record["jobs"][0]["seed"] == 7


class TestRetryAfterParsing:
    """The client must survive any Retry-After a proxy can produce."""

    @staticmethod
    def _client_seeing_429(monkeypatch, header):
        client = DaemonClient("localhost", 1, client="tester")
        headers = {} if header is None else {"Retry-After": header}

        def fake_request(method, path, body=None):
            return 429, headers, {"error": "queue is full"}

        monkeypatch.setattr(client, "_request", fake_request)
        return client

    def _retry_after(self, monkeypatch, header):
        client = self._client_seeing_429(monkeypatch, header)
        with pytest.raises(QueueFullError) as excinfo:
            client.status()
        return excinfo.value.retry_after

    def test_numeric_header_honoured(self, monkeypatch):
        assert self._retry_after(monkeypatch, "5") == 5.0
        assert self._retry_after(monkeypatch, "2.5") == 2.5

    def test_http_date_falls_back_to_default(self, monkeypatch):
        # RFC 7231 allows an HTTP-date here; bare float() used to
        # crash the retry loop with an unhandled ValueError.
        value = self._retry_after(monkeypatch,
                                  "Wed, 21 Oct 2015 07:28:00 GMT")
        assert value == 1.0

    def test_garbage_and_missing_fall_back(self, monkeypatch):
        assert self._retry_after(monkeypatch, "soon") == 1.0
        assert self._retry_after(monkeypatch, None) == 1.0

    def test_clamped_to_the_backpressure_band(self, monkeypatch):
        assert self._retry_after(monkeypatch, "0") == 1.0
        assert self._retry_after(monkeypatch, "-3") == 1.0
        assert self._retry_after(monkeypatch, "86400") == 60.0


class TestHTTPApi:
    def test_submit_poll_peek_status_round_trip(self, served):
        daemon, client = served
        specs = [probe(seed=n) for n in range(4)]
        accepted = client.submit(specs)
        assert accepted["total"] == 4
        final = client.wait(accepted["batch"], timeout=30)
        assert final["state"] == "done"
        assert [r["status"] for r in final["results"]] == ["ok"] * 4
        assert [r["payload"]["value"] for r in final["results"]] \
            == [0, 1, 2, 3]
        # Completed results are peekable by raw digest...
        assert client.peek(accepted["digests"][2]) == {"value": 2}
        # ...unknown digests are a clean None, not an error.
        assert client.peek("0" * 64) is None
        status = client.status()
        assert status["queue_depth"] == 0
        assert status["batches"][accepted["batch"]] == "done"

    def test_incremental_poll_with_since(self, served):
        daemon, client = served
        accepted = client.submit([probe(seed=n) for n in range(3)])
        final = client.wait(accepted["batch"], timeout=30)
        tail = client.poll(accepted["batch"], since=2)
        assert len(tail["results"]) == 1
        assert tail["results"][0] == final["results"][2]

    def test_unknown_batch_is_a_daemon_error(self, served):
        daemon, client = served
        with pytest.raises(DaemonError, match="b999999"):
            client.poll("b999999")

    def test_queue_full_maps_to_429_with_retry_after(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor(), max_queue=2)
        daemon.start()
        try:
            client = DaemonClient(daemon.host, daemon.port)
            with pytest.raises(QueueFullError) as excinfo:
                client.submit([probe(seed=n) for n in range(5)])
            assert excinfo.value.retry_after >= 1.0
        finally:
            daemon.stop()

    def test_drain_refuses_new_batches(self, served):
        daemon, client = served
        client.drain()
        with pytest.raises(DaemonError, match="draining"):
            client.submit([probe()])

    def test_dropped_connections_survived_by_client_retries(
            self, tmp_path):
        from repro.serve.chaos import ChaosMonkey

        chaos = ChaosMonkey(seed=1, drop_rate=1.0, max_faults_per_job=1)
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor(), chaos=chaos)
        daemon.start()
        try:
            client = DaemonClient(daemon.host, daemon.port,
                                  retries=3, backoff=0.05)
            accepted = client.submit([probe(seed=5)])
            final = client.wait(accepted["batch"], timeout=30)
            assert final["results"][0]["payload"] == {"value": 5}
            assert chaos.log.counts()["drop-connection"] >= 1
        finally:
            daemon.stop()


class TestRecovery:
    def test_restart_recovers_unfinished_batches(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = ServeDaemon(spool, executor=SerialExecutor())
        accepted = first.submit([probe(seed=n) for n in range(3)])
        # No scheduler was started: the daemon "dies" with the batch
        # spooled but unprocessed.
        second = ServeDaemon(spool, executor=SerialExecutor())
        second.start()
        try:
            client = DaemonClient(second.host, second.port)
            final = client.wait(accepted["batch"], timeout=30)
            assert final["state"] == "done"
            assert [r["payload"]["value"] for r in final["results"]] \
                == [0, 1, 2]
        finally:
            second.stop()

    def test_torn_spool_record_skipped_as_never_acked(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = ServeDaemon(spool, executor=SerialExecutor())
        kept = first.submit([probe(seed=1)])
        torn = first.submit([probe(seed=2)])
        path = first._batch_path(torn["batch"])
        with open(path, "r+") as handle:
            handle.truncate(10)
        second = ServeDaemon(spool, executor=SerialExecutor())
        assert kept["batch"] in second._batches
        assert torn["batch"] not in second._batches
        # The torn id is not reused for the next submission.
        fresh = second.submit([probe(seed=3)])
        assert fresh["batch"] not in (kept["batch"], torn["batch"])


class TestKillRestartLifecycle:
    """The acceptance bar: SIGKILL mid-flight, restart, drain — every
    job exactly-once in the merged results."""

    @staticmethod
    def start_daemon(spool, ready):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        return subprocess.Popen(
            [sys.executable, "-m", "repro.serve.daemon",
             "--spool", spool, "--jobs", "2", "--ready-file", ready],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    @staticmethod
    def wait_ready(ready, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with open(ready) as handle:
                    return json.load(handle)["port"]
            except (OSError, ValueError):
                time.sleep(0.1)
        raise AssertionError("daemon never wrote its ready file")

    def test_kill_mid_flight_restart_drain_exactly_once(self, tmp_path):
        spool = str(tmp_path / "spool")
        ready = str(tmp_path / "ready.json")
        process = self.start_daemon(spool, ready)
        try:
            port = self.wait_ready(ready)
            client = DaemonClient("127.0.0.1", port)
            specs = [probe(seed=n, seconds=0.25) for n in range(10)]
            accepted = client.submit(specs)

            # Let some (not all) jobs finish, then pull the plug.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                state = client.poll(accepted["batch"])
                if state["completed"] >= 2:
                    break
                time.sleep(0.05)
            assert 0 < state["completed"] < state["total"]
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)

            os.remove(ready)
            process = self.start_daemon(spool, ready)
            port = self.wait_ready(ready)
            client = DaemonClient("127.0.0.1", port)
            final = client.wait(accepted["batch"], timeout=60)

            digests = [entry["digest"] for entry in final["results"]]
            assert final["state"] == "done"
            assert sorted(digests) == sorted(accepted["digests"])
            assert len(set(digests)) == len(specs)  # exactly once
            assert all(entry["status"] == "ok"
                       for entry in final["results"])
            # Work finished before the kill was replayed from the
            # cache, not recomputed.
            assert any(entry["cached"] for entry in final["results"])

            client.drain()
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _proc_stat(pid):
    """``(state, ppid, starttime)`` of ``pid`` from /proc, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), fields[19]


def _children(pid):
    """``{child pid: starttime}`` of every live child of ``pid``."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                children[int(entry)] = stat[2]
    return children


def _still_running(pid, starttime):
    stat = _proc_stat(pid)
    return stat is not None and stat[2] == starttime and stat[0] != "Z"


class TestOrphanedWorkers:
    """A SIGKILLed daemon must not leave its worker incarnations behind."""

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_after_daemon_sigkill(self, tmp_path):
        spool = str(tmp_path / "spool")
        ready = str(tmp_path / "ready.json")
        process = TestKillRestartLifecycle.start_daemon(spool, ready)
        workers = {}
        try:
            port = TestKillRestartLifecycle.wait_ready(ready)
            client = DaemonClient("127.0.0.1", port)
            accepted = client.submit(
                [probe(seed=n, seconds=0.2) for n in range(4)])
            client.wait(accepted["batch"], timeout=60)
            # The incarnations stay warm (idle) after the batch.
            workers = _children(process.pid)
            assert workers, "the daemon spawned no worker incarnation"
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                alive = [pid for pid, start in workers.items()
                         if _still_running(pid, start)]
                if not alive:
                    break
                time.sleep(0.1)
            assert not alive, f"workers outlived the daemon: {alive}"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            for pid, start in workers.items():
                if _still_running(pid, start):
                    os.kill(pid, signal.SIGKILL)


class TestWarmPoolStatus:
    """/v1/status telemetry and the per-kind Retry-After estimate."""

    def test_status_reports_warm_pool_telemetry(self, tmp_path):
        from repro.serve import SupervisedPool

        pool = SupervisedPool(jobs=1, heartbeat=0.05,
                              watchdog=5.0)
        daemon = ServeDaemon(str(tmp_path / "spool"), executor=pool)
        daemon.start()
        try:
            client = DaemonClient(daemon.host, daemon.port)
            accepted = client.submit([probe(seed=n) for n in range(3)])
            client.wait(accepted["batch"], timeout=30)
            warm = client.status()["executor"]["warm_pool"]
            assert warm["warm"] is True
            assert warm["dispatched"] == 3
            assert warm["worker_reuse_rate"] == pytest.approx(2 / 3)
            assert warm["live_workers"] == 1
            assert "recycles" in warm and "affinity_hit_rate" in warm
        finally:
            daemon.stop()
        # stop() retires the warm incarnations.
        assert pool.telemetry()["live_workers"] == 0

    def test_serial_executor_reports_no_warm_pool(self, served):
        daemon, client = served
        assert client.status()["executor"]["warm_pool"] is None

    def test_avg_seconds_tracked_per_kind(self, served):
        daemon, client = served
        accepted = client.submit([probe(seed=1, seconds=0.05)])
        client.wait(accepted["batch"], timeout=30)
        status = client.status()
        assert "probe" in status["avg_seconds"]
        assert status["avg_seconds"]["probe"] > 0
        # Kinds never run carry no estimate entry.
        assert "campaign" not in status["avg_seconds"]

    def test_retry_after_costs_backlog_per_kind(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor(), max_queue=4)
        # Teach the daemon that probes are slow: 10 s each.
        daemon._avg_seconds["probe"] = 10.0
        daemon.submit([probe(seed=n) for n in range(3)])
        with pytest.raises(QueueFullError) as excinfo:
            daemon.submit([probe(seed=n) for n in range(10, 13)])
        # 6 probes x 10 s / 1 worker, clamped to the 60 s band cap.
        assert excinfo.value.retry_after == 60.0

    def test_status_reports_queue_by_kind(self, tmp_path):
        daemon = ServeDaemon(str(tmp_path / "spool"),
                             executor=SerialExecutor())
        daemon.submit([probe(seed=1), probe(seed=2)])
        assert daemon.status()["queue_by_kind"] == {"probe": 2}
