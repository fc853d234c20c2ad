"""Warm persistent worker pool: byte-identity, affinity routing,
recycling, and supervision of long-lived worker incarnations.

The differential tests are the contract: whatever the warm fabric does
— reuse, route, recycle, crash, quarantine — outcome tables must stay
byte-identical to ``SerialExecutor``.  Probes drive the failure modes
cheaply; one differential covers all four real job kinds (sweep,
campaign incl. the vector engine, bench, probe) at quick sizes.
"""

import os
import signal

import pytest

from repro.config import epic_with_alus
from repro.serve import (
    JobSpec,
    SerialExecutor,
    SupervisedPool,
    bench_job,
    campaign_job,
    shard_campaign,
    sweep_job,
)
from repro.serve.chaos import ChaosMonkey, outcome_table
from repro.workloads import WORKLOADS


def probe(behavior="ok", seed=0, seconds=0.0):
    return JobSpec(kind="probe", behavior=behavior, seed=seed,
                   seconds=seconds)


def warm_pool(**overrides):
    settings = dict(jobs=2, heartbeat=0.05, watchdog=0.5,
                    backoff_base=0.01, backoff_cap=0.05)
    settings.update(overrides)
    return SupervisedPool(**settings)


def all_kind_specs():
    """One batch covering every job kind and both campaign engines."""
    from repro.harness.cli import quick_specs

    sha, dijkstra = quick_specs(["SHA", "Dijkstra"])
    config = epic_with_alus(2)
    specs = shard_campaign(campaign_job(sha, config, n=6, seed=3), 3)
    specs.append(campaign_job(dijkstra, epic_with_alus(1), n=4, seed=5,
                              engine="vector"))
    specs.append(sweep_job(dijkstra, config))
    specs.append(bench_job(sha, epic_with_alus(1), engine="fast"))
    specs.append(probe(seed=9))
    specs.append(probe("fail", seed=10))
    return specs


class TestWarmDifferential:
    def test_all_four_kinds_byte_identical_and_reused(self):
        specs = all_kind_specs()
        serial = SerialExecutor().run(specs)
        with warm_pool(watchdog=5.0, recycle_after=1) as pool:
            fresh = pool.run(specs)
        with warm_pool(watchdog=5.0) as pool:
            warm_once = pool.run(specs)
            warm_again = pool.run(specs)
            telemetry = pool.telemetry()
        tables = [outcome_table(run) for run
                  in (serial, fresh, warm_once, warm_again)]
        assert len(set(tables)) == 1
        # The second run must ride entirely on warm incarnations.
        assert telemetry["spawns"] <= 2
        assert telemetry["reused_jobs"] > 0
        assert telemetry["affinity_hits"] > 0

    def test_second_run_hits_the_checker_memo(self):
        from repro.harness.cli import quick_specs

        sha = quick_specs(["SHA"])[0]
        spec = campaign_job(sha, epic_with_alus(1), n=4, seed=11)
        with warm_pool(jobs=1, watchdog=5.0) as pool:
            first = pool.run([spec])[0]
            second = pool.run([spec])[0]
        assert first.payload == second.payload
        assert second.meta["checker_memo_hit"] is True
        assert second.meta["worker"]["affinity_hit"] is True
        assert second.meta["worker"]["jobs_on_worker"] == 2
        assert second.meta["worker"]["checker_memo"]["size"] >= 1


class TestWarmLifecycle:
    def test_workers_persist_across_runs_and_close_retires(self):
        pool = warm_pool()
        pool.run([probe(seed=n) for n in range(4)])
        workers = list(pool._warm_workers.values())
        assert workers and all(w.process.is_alive() for w in workers)
        pool.run([probe(seed=n) for n in range(4, 8)])
        assert pool.telemetry()["spawns"] == len(workers)
        pool.close()
        assert pool.telemetry()["live_workers"] == 0
        assert all(not w.process.is_alive() for w in workers)
        # The pool stays usable after close: fresh incarnations spawn.
        outcomes = pool.run([probe(seed=99)])
        assert outcomes[0].payload == {"value": 99}
        pool.close()

    def test_context_manager_closes(self):
        with warm_pool() as pool:
            pool.run([probe(seed=1)])
            assert pool.telemetry()["live_workers"] >= 1
        assert pool.telemetry()["live_workers"] == 0

    def test_recycle_mid_batch_after_n_jobs(self):
        specs = [probe(seed=n) for n in range(8)]
        with warm_pool(jobs=1, recycle_after=2) as pool:
            outcomes = pool.run(specs)
            telemetry = pool.telemetry()
        assert [o.payload["value"] for o in outcomes] == list(range(8))
        assert telemetry["recycles_jobs"] == 4
        assert telemetry["spawns"] == 4
        # Recycling is bookkeeping, not failure.
        assert telemetry["workers_lost"] == 0

    def test_rss_ceiling_recycles(self):
        # Any live Python process exceeds 1 MB RSS, so every job ends
        # its incarnation — the hard bound still yields correct output.
        specs = [probe(seed=n) for n in range(4)]
        with warm_pool(jobs=1, max_worker_rss_mb=1.0) as pool:
            outcomes = pool.run(specs)
            telemetry = pool.telemetry()
        assert [o.payload["value"] for o in outcomes] == list(range(4))
        assert telemetry["recycles_rss"] == 4

    def test_bad_construction_rejected(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            SupervisedPool(recycle_after=0)
        with pytest.raises(ServeError):
            SupervisedPool(max_worker_rss_mb=0)
        SupervisedPool(warm=True).close()  # the default, spelled out


class TestWarmSupervision:
    def test_crash_costs_only_the_incarnation(self):
        # seed order: ok jobs surround a crasher; the crash retries on
        # a fresh incarnation and finally surfaces, neighbours ride on.
        specs = [probe(seed=1), probe("crash"), probe(seed=2)]
        with warm_pool(retries=1, poison_after=5) as pool:
            outcomes = pool.run(specs)
            telemetry = pool.telemetry()
        assert [o.status for o in outcomes] == ["ok", "crashed", "ok"]
        assert outcomes[1].attempts == 2
        assert telemetry["workers_lost"] == 2

    def test_poisoned_warm_worker_quarantines_digest(self):
        crasher = probe("crash")
        with warm_pool(retries=5, poison_after=2) as pool:
            first = pool.run([crasher, probe(seed=1)])
            again = pool.run([crasher])
        assert [o.status for o in first] == ["poisoned", "ok"]
        # Quarantine persists across runs: refused without an attempt.
        assert again[0].status == "poisoned"
        assert again[0].attempts == 0

    def test_per_job_timeout_sacrifices_the_incarnation(self):
        specs = [probe("sleep", seed=1, seconds=30.0), probe(seed=2)]
        with warm_pool(timeout=0.3) as pool:
            outcomes = pool.run(specs)
        assert outcomes[0].status == "timeout"
        assert outcomes[0].attempts == 1  # deterministic: no retry
        assert outcomes[1].status == "ok"

    def test_chaos_kill_warm_worker_mid_stream(self):
        monkey = ChaosMonkey(seed=3, kill_rate=1.0, max_faults_per_job=1)
        specs = [probe(seed=n) for n in range(4)]
        with warm_pool(retries=2, chaos=monkey) as pool:
            outcomes = pool.run(specs)
            telemetry = pool.telemetry()
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert telemetry["workers_lost"] == 4
        assert monkey.log.counts()["kill-worker"] == 4

    def test_chaos_hang_warm_worker_reaped_by_watchdog(self):
        monkey = ChaosMonkey(seed=4, hang_rate=1.0, max_faults_per_job=1)
        specs = [probe(seed=n) for n in range(2)]
        with warm_pool(retries=2, watchdog=0.3, chaos=monkey) as pool:
            outcomes = pool.run(specs)
            telemetry = pool.telemetry()
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert telemetry["workers_lost"] == 2
        assert monkey.log.counts()["hang-worker"] == 2

    def test_idle_worker_killed_between_jobs_is_replaced(self):
        with warm_pool(jobs=1) as pool:
            pool.run([probe(seed=1)])
            worker = next(iter(pool._warm_workers.values()))
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5.0)
            # The next job must not be lost to the dead incarnation.
            outcomes = pool.run([probe(seed=2)])
            telemetry = pool.telemetry()
        assert outcomes[0].payload == {"value": 2}
        assert telemetry["spawns"] == 2

    def test_degrades_to_serial_when_spawn_fails(self, monkeypatch):
        supervisor = warm_pool()

        def refuse():
            raise OSError("no processes for you")

        monkeypatch.setattr(supervisor, "_spawn_warm", refuse)
        outcomes = supervisor.run([probe(seed=1), probe(seed=2)])
        assert [o.payload["value"] for o in outcomes] == [1, 2]
        assert supervisor.degraded
        assert all(o.meta.get("degraded") for o in outcomes)


class TestTelemetryShape:
    def test_telemetry_rates_and_worker_entries(self):
        with warm_pool(jobs=1) as pool:
            pool.run([probe(seed=n) for n in range(3)])
            telemetry = pool.telemetry()
        assert telemetry["warm"] is True
        assert telemetry["dispatched"] == 3
        assert telemetry["worker_reuse_rate"] == pytest.approx(2 / 3)
        # Probes all share the "probe" affinity key.
        assert telemetry["affinity_hit_rate"] == pytest.approx(2 / 3)
        (worker,) = telemetry["workers"]
        assert worker["jobs_done"] == 3
        assert worker["busy"] is False
        assert worker["rss_kb"] > 0
        assert set(worker["checker_memo"]) == {
            "hits", "misses", "evictions", "size", "limit"}

    def test_fresh_pool_telemetry_counts_every_job(self):
        # recycle_after=1 forks one incarnation per job: all of them
        # must show up as spawned, dispatched and never reused.
        specs = [probe(seed=n) for n in range(4)]
        pool = warm_pool(recycle_after=1)
        outcomes = pool.run(specs)
        telemetry = pool.telemetry()
        assert [o.payload["value"] for o in outcomes] == list(range(4))
        assert telemetry["warm"] is False
        assert telemetry["spawns"] == telemetry["dispatched"] == 4
        assert telemetry["reused_jobs"] == 0
        assert telemetry["recycles_jobs"] == 4
        assert all(o.meta["worker"]["jobs_on_worker"] == 1
                   for o in outcomes)
        assert telemetry["live_workers"] == 0

    def test_affinity_key_shapes(self):
        assert probe().affinity_key() == "probe"
        sweep = sweep_job(WORKLOADS["SHA"](), epic_with_alus(2))
        key = sweep.affinity_key()
        assert key.startswith("SHA:")
        assert sweep.config.digest()[:16] in key
        other = sweep_job(WORKLOADS["SHA"](), epic_with_alus(3))
        assert other.affinity_key() != key
