"""Executor contracts: ordering, failure modes, cache integration.

Probe jobs keep these tests independent of the simulator: every
behaviour (ok / fail / crash / hang / sleep) is exercised without
compiling a single benchmark.
"""

import pytest

from repro.errors import ServeError
from repro.serve import (
    JobSpec,
    ResultCache,
    SerialExecutor,
    SupervisedPool,
    raise_for_failures,
    run_jobs,
)


def probe(behavior="ok", seed=0, seconds=0.0):
    return JobSpec(kind="probe", behavior=behavior, seed=seed,
                   seconds=seconds)


class TestSerialExecutor:
    def test_results_in_input_order(self):
        specs = [probe(seed=n) for n in (5, 3, 9)]
        outcomes = SerialExecutor().run(specs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.payload["value"] for o in outcomes] == [5, 3, 9]
        assert all(o.ok for o in outcomes)

    def test_failure_is_structured_not_raised(self):
        outcomes = SerialExecutor().run([probe("fail")])
        assert outcomes[0].status == "error"
        assert "asked to fail" in outcomes[0].error

    def test_refuses_crash_and_hang_probes(self):
        for behavior in ("crash", "hang", "stubborn"):
            with pytest.raises(ServeError, match="SupervisedPool"):
                SerialExecutor().run([probe(behavior)])

    def test_on_result_sees_every_job(self):
        seen = []
        SerialExecutor().run([probe(seed=n) for n in range(4)],
                             on_result=lambda o: seen.append(o.index))
        assert seen == [0, 1, 2, 3]


def fresh_pool(**overrides):
    """A pool that runs every job on a new worker process, with crash
    quarantine out of the way so retry budgets decide outcomes."""
    settings = dict(jobs=2, recycle_after=1, poison_after=99,
                    backoff_base=0.01, backoff_cap=0.05)
    settings.update(overrides)
    return SupervisedPool(**settings)


class TestFreshWorkerPool:
    def test_results_in_input_order_despite_scheduling(self):
        # Earlier jobs sleep longer, so completion order is reversed —
        # the returned list must not be.
        specs = [probe("sleep", seed=n, seconds=0.3 - 0.1 * n)
                 for n in range(3)]
        outcomes = fresh_pool(jobs=3).run(specs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]

    def test_error_probe_reports_error(self):
        outcomes = fresh_pool().run([probe("fail"), probe()])
        assert [o.status for o in outcomes] == ["error", "ok"]

    def test_crash_retried_then_surfaced(self):
        outcomes = fresh_pool(retries=2).run([probe("crash")])
        outcome = outcomes[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 3  # first try + 2 retries
        assert "exit code 13" in outcome.error

    def test_exit_code_read_after_the_reap(self, monkeypatch):
        # The pipe can report EOF before the dead worker is reaped, when
        # its exit code still reads None.  A fake incarnation whose exit
        # code appears only once it is joined pins that ordering down
        # without racing a real process.
        import multiprocessing
        import time

        from repro.serve.supervisor import _WarmWorker

        class UnreapedProcess:
            joined = False

            @property
            def exitcode(self):
                return 13 if self.joined else None

            def join(self, timeout=None):
                self.joined = True

            def is_alive(self):
                return not self.joined

        class HangUpOnJob:
            """A parent pipe end whose worker hangs up on its first job."""

            def __init__(self):
                self.conn, self.peer = multiprocessing.Pipe(duplex=True)

            def send(self, message):
                self.conn.send(message)
                self.peer.close()

            def recv(self):
                return self.conn.recv()

            def fileno(self):
                return self.conn.fileno()

            def close(self):
                self.conn.close()

        pool = fresh_pool(jobs=1, retries=0)

        def spawn():
            conn = HangUpOnJob()
            worker = _WarmWorker(1, UnreapedProcess(), conn,
                                 time.monotonic())
            pool._warm_workers[conn] = worker
            return worker

        monkeypatch.setattr(pool, "_spawn_warm", spawn)
        outcome = pool.run([probe("crash")])[0]
        assert outcome.status == "crashed"
        assert "exit code 13" in outcome.error

    def test_zero_retries_honoured(self):
        outcome = fresh_pool(jobs=1, retries=0).run([probe("crash")])[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 1

    def test_crash_does_not_poison_neighbours(self):
        specs = [probe(seed=1), probe("crash"), probe(seed=2)]
        outcomes = fresh_pool(retries=0).run(specs)
        assert [o.status for o in outcomes] == ["ok", "crashed", "ok"]
        assert outcomes[0].payload["value"] == 1
        assert outcomes[2].payload["value"] == 2

    def test_hang_reaped_by_timeout(self):
        outcomes = fresh_pool(timeout=0.5).run(
            [probe("hang"), probe(seed=4)])
        assert outcomes[0].status == "timeout"
        assert "0.5s" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].payload["value"] == 4

    def test_hang_reap_names_the_ending_signal(self):
        outcome = fresh_pool(jobs=1, timeout=0.4).run(
            [probe("hang")])[0]
        assert outcome.status == "timeout"
        assert "worker ended by SIG" in outcome.error

    def test_sigterm_ignoring_child_escalated_to_sigkill(self):
        # A "stubborn" probe masks SIGTERM and spins; the reap ladder
        # must escalate to SIGKILL instead of blocking in join().
        outcome = fresh_pool(jobs=1, timeout=0.4,
                             term_grace=0.3).run([probe("stubborn")])[0]
        assert outcome.status == "timeout"
        assert "SIGKILL" in outcome.error

    def test_bad_construction_rejected(self):
        with pytest.raises(ServeError):
            fresh_pool(jobs=0)
        with pytest.raises(ServeError):
            fresh_pool(timeout=-1.0)
        with pytest.raises(ServeError):
            fresh_pool(retries=-1)
        with pytest.raises(ServeError):
            fresh_pool(term_grace=0.0)


class TestRunJobs:
    def test_cache_short_circuits_second_run(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), salt="s1")
        specs = [probe(seed=n) for n in range(3)]
        first = run_jobs(specs, cache=cache)
        assert not any(o.cached for o in first)
        assert cache.stats.puts == 3
        second = run_jobs(specs, cache=cache)
        assert all(o.cached for o in second)
        assert [o.payload for o in second] == [o.payload for o in first]

    def test_partial_hits_merge_in_input_order(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), salt="s1")
        run_jobs([probe(seed=1)], cache=cache)
        outcomes = run_jobs([probe(seed=0), probe(seed=1), probe(seed=2)],
                            cache=cache)
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]
        assert [o.cached for o in outcomes] == [False, True, False]

    def test_failures_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), salt="s1")
        run_jobs([probe("fail")], cache=cache)
        assert cache.stats.puts == 0
        assert len(cache) == 0

    def test_on_result_fires_for_hits_and_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), salt="s1")
        run_jobs([probe(seed=1)], cache=cache)
        seen = []
        run_jobs([probe(seed=1), probe(seed=2)], cache=cache,
                 on_result=lambda o: seen.append((o.index, o.cached)))
        assert sorted(seen) == [(0, True), (1, False)]

    def test_defaults_to_serial_executor(self):
        assert run_jobs([probe(seed=7)])[0].payload == {"value": 7}


class TestRaiseForFailures:
    def test_quiet_when_all_ok(self):
        raise_for_failures(SerialExecutor().run([probe()]))

    def test_failures_named_in_the_error(self):
        outcomes = SerialExecutor().run([probe(), probe("fail")])
        with pytest.raises(ServeError, match="1 of 2.*probe:fail"):
            raise_for_failures(outcomes)

    def test_message_carries_counts_and_first_digest(self):
        outcomes = SerialExecutor().run(
            [probe("fail", seed=1), probe(), probe("fail", seed=2)])
        failing_digest = probe("fail", seed=1).digest()
        with pytest.raises(ServeError) as excinfo:
            raise_for_failures(outcomes)
        message = str(excinfo.value)
        assert "2 of 3 jobs failed" in message
        assert "error=2" in message
        assert f"digest {failing_digest}" in message
