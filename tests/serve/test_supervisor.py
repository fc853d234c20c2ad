"""SupervisedPool: heartbeats, watchdog, retries, poison quarantine,
degraded serial fallback.

Probe jobs drive every failure mode without touching the simulator;
chaos directives drive the infrastructure faults (worker killed or
hung mid-job) that no probe behaviour can express.
"""

import pytest

from repro.errors import ServeError, SpawnError
from repro.serve import JobSpec, SupervisedPool
from repro.serve.chaos import ChaosMonkey


def probe(behavior="ok", seed=0, seconds=0.0):
    return JobSpec(kind="probe", behavior=behavior, seed=seed,
                   seconds=seconds)


class PoolShape:
    """Builds the pools a test class runs on.

    The classes below run on the default warm pool; each ``...Fresh``
    subclass at the end of the module reruns them with
    ``recycle_after=1``, so every behaviour holds for both shapes.
    Pools built here are closed when the test ends.
    """

    recycle_after = None

    @pytest.fixture(autouse=True)
    def _close_pools(self):
        self._pools = []
        yield
        for built in self._pools:
            built.close()

    def pool(self, **overrides):
        """A SupervisedPool with test-friendly (fast) timing defaults."""
        settings = dict(jobs=2, heartbeat=0.05, watchdog=0.5,
                        backoff_base=0.01, backoff_cap=0.05,
                        recycle_after=self.recycle_after)
        settings.update(overrides)
        built = SupervisedPool(**settings)
        self._pools.append(built)
        return built


class TestOrderingAndBasics(PoolShape):
    def test_results_in_input_order_despite_scheduling(self):
        specs = [probe("sleep", seed=n, seconds=0.3 - 0.1 * n)
                 for n in range(3)]
        outcomes = self.pool(jobs=3).run(specs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_failure_is_structured_not_raised(self):
        outcomes = self.pool().run([probe("fail"), probe(seed=3)])
        assert [o.status for o in outcomes] == ["error", "ok"]
        assert "asked to fail" in outcomes[0].error

    def test_on_result_sees_every_job(self):
        seen = []
        self.pool().run([probe(seed=n) for n in range(4)],
                        on_result=lambda o: seen.append(o.index))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_bad_construction_rejected(self):
        with pytest.raises(ServeError):
            SupervisedPool(jobs=0)
        with pytest.raises(ServeError):
            SupervisedPool(poison_after=0)
        with pytest.raises(ServeError):
            SupervisedPool(backoff_base=0.2, backoff_cap=0.1)
        with pytest.raises(ServeError, match="watchdog"):
            SupervisedPool(heartbeat=1.0, watchdog=0.5)
        with pytest.raises(ServeError, match="recycle_after=1"):
            SupervisedPool(warm=False)


class TestCrashRetries(PoolShape):
    def test_crash_retry_exhaustion_surfaces_crashed(self):
        # poison_after above the attempt budget: the job must exhaust
        # its retries and report crashed, not poisoned.
        outcome = self.pool(retries=1, poison_after=5).run(
            [probe("crash")])[0]
        assert outcome.status == "crashed"
        assert outcome.attempts == 2
        assert "exit code 13" in outcome.error

    def test_crash_does_not_poison_neighbours(self):
        specs = [probe(seed=1), probe("crash"), probe(seed=2)]
        outcomes = self.pool(retries=0, poison_after=5).run(specs)
        assert [o.status for o in outcomes] == ["ok", "crashed", "ok"]

    def test_backoff_delay_is_deterministic_and_bounded(self):
        supervisor = self.pool(backoff_base=0.05, backoff_cap=0.4)
        digest = probe("crash").digest()
        first = supervisor.backoff_delay(digest, 1)
        assert first == supervisor.backoff_delay(digest, 1)
        for failures in range(1, 8):
            delay = supervisor.backoff_delay(digest, failures)
            window = min(0.4, 0.05 * 2 ** (failures - 1))
            assert 0.5 * window <= delay <= window

    def test_zero_base_means_no_backoff(self):
        supervisor = self.pool(backoff_base=0.0)
        assert supervisor.backoff_delay("ab" * 32, 3) == 0.0


class TestPoisonQuarantine(PoolShape):
    def test_crash_loop_is_quarantined_as_poisoned(self):
        supervisor = self.pool(retries=5, poison_after=2)
        outcome = supervisor.run([probe("crash")])[0]
        assert outcome.status == "poisoned"
        assert "crash-looped" in outcome.error
        assert probe("crash").digest() in supervisor.quarantined()

    def test_requeued_poisoned_digest_refused_without_spawning(self):
        supervisor = self.pool(retries=5, poison_after=2)
        supervisor.run([probe("crash")])
        again = supervisor.run([probe("crash"), probe(seed=4)])
        assert again[0].status == "poisoned"
        assert again[0].attempts == 0  # refused, never re-spawned
        assert again[1].ok  # healthy neighbours still run


class TestWatchdog(PoolShape):
    def test_heartbeats_keep_slow_jobs_alive(self):
        # The job outlives the watchdog window many times over; the
        # worker's heartbeat thread must keep it off the reap list.
        outcome = self.pool(jobs=1, heartbeat=0.05, watchdog=0.3).run(
            [probe("sleep", seed=9, seconds=1.0)])[0]
        assert outcome.ok
        assert outcome.attempts == 1

    def test_chaos_hang_reaped_and_retried_to_success(self):
        chaos = ChaosMonkey(seed=3, hang_rate=1.0, max_faults_per_job=1)
        outcome = self.pool(jobs=1, watchdog=0.3, retries=2,
                            chaos=chaos).run([probe(seed=5)])[0]
        assert outcome.ok
        assert outcome.payload == {"value": 5}
        assert outcome.attempts == 2
        counts = chaos.log.counts()
        assert counts["hang-worker"] == 1
        assert counts["watchdog-reap"] == 1

    def test_watchdog_exhaustion_is_a_structured_timeout(self):
        chaos = ChaosMonkey(seed=3, hang_rate=1.0,
                            max_faults_per_job=99)
        outcome = self.pool(jobs=1, watchdog=0.3, retries=1,
                            chaos=chaos).run([probe(seed=5)])[0]
        assert outcome.status == "timeout"
        assert "watchdog" in outcome.error
        assert outcome.attempts == 2

    def test_per_job_timeout_is_not_retried(self):
        # A hang probe heartbeats merrily, so only the per-job budget
        # can reap it — and a deterministic job fault earns no retry.
        outcome = self.pool(jobs=1, timeout=0.4, retries=3).run(
            [probe("hang")])[0]
        assert outcome.status == "timeout"
        assert outcome.attempts == 1
        assert "0.4s" in outcome.error

    def test_chaos_kill_reaped_and_retried_to_success(self):
        chaos = ChaosMonkey(seed=3, kill_rate=1.0, max_faults_per_job=1)
        outcomes = self.pool(retries=2, chaos=chaos).run(
            [probe(seed=n) for n in range(3)])
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert chaos.log.counts()["kill-worker"] == 3


class TestDegradedFallback(PoolShape):
    def test_spawn_failure_degrades_to_serial(self, monkeypatch):
        supervisor = self.pool()

        def refuse():
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(supervisor, "_spawn_warm", refuse)
        outcomes = supervisor.run([probe(seed=n) for n in range(3)])
        assert supervisor.degraded
        assert [o.payload["value"] for o in outcomes] == [0, 1, 2]
        assert all(o.meta.get("degraded") for o in outcomes)

    def test_degraded_mode_reports_unrunnable_probes_as_crashed(
            self, monkeypatch):
        supervisor = self.pool()
        monkeypatch.setattr(
            supervisor, "_spawn_warm",
            lambda: (_ for _ in ()).throw(
                OSError("no more processes")))
        outcomes = supervisor.run([probe("crash"), probe(seed=1)])
        assert outcomes[0].status == "crashed"
        assert "degraded" in outcomes[0].error
        assert outcomes[1].ok

    def test_fallback_disabled_raises_spawn_error(self, monkeypatch):
        supervisor = self.pool(fallback_serial=False)
        monkeypatch.setattr(
            supervisor, "_spawn_warm",
            lambda: (_ for _ in ()).throw(
                OSError("no more processes")))
        with pytest.raises(SpawnError):
            supervisor.run([probe()])


class TestOrderingAndBasicsFresh(TestOrderingAndBasics):
    recycle_after = 1


class TestCrashRetriesFresh(TestCrashRetries):
    recycle_after = 1


class TestPoisonQuarantineFresh(TestPoisonQuarantine):
    recycle_after = 1


class TestWatchdogFresh(TestWatchdog):
    recycle_after = 1


class TestDegradedFallbackFresh(TestDegradedFallback):
    recycle_after = 1
