"""``repro-serve`` end to end: batch, run, warm, verify."""

import json

import pytest

from repro.serve import JobSpec, ResultCache, dump_batch, load_batch
from repro.serve.cli import main as serve_main


@pytest.fixture(scope="module")
def sweep_batch(tmp_path_factory):
    """A small real batch: quick Dijkstra on two machines."""
    path = str(tmp_path_factory.mktemp("serve") / "batch.json")
    assert serve_main(["batch", "--kind", "sweep", "--bench", "Dijkstra",
                       "--alus", "1", "2", "--quick",
                       "--out", path]) == 0
    return path


class TestBatchCommand:
    def test_writes_loadable_jobs(self, sweep_batch, capsys):
        jobs = load_batch(sweep_batch)
        assert len(jobs) == 2
        assert {job.config.n_alus for job in jobs} == {1, 2}
        assert all(job.kind == "sweep" for job in jobs)

    def test_campaign_batch_shards(self, tmp_path, capsys):
        path = str(tmp_path / "campaign.json")
        assert serve_main(["batch", "--kind", "campaign", "--bench",
                           "SHA", "--alus", "4", "--quick", "--n", "6",
                           "--seed", "3", "--shards", "3",
                           "--out", path]) == 0
        jobs = load_batch(path)
        assert len(jobs) == 3
        assert [job.fault_offset for job in jobs] == [0, 2, 4]
        assert "3 campaign job(s)" in capsys.readouterr().out


class TestRunWarmVerify:
    def test_cold_then_cached_then_verified(self, sweep_batch, tmp_path,
                                            capsys):
        cache = str(tmp_path / "cache")
        report_path = str(tmp_path / "report.json")

        # Cold run fills the cache.
        assert serve_main(["run", sweep_batch, "--cache", cache,
                           "--out", report_path]) == 0
        cold = json.loads(open(report_path).read())
        assert cold["summary"]["ok"] == 2
        assert cold["summary"]["cached"] == 0
        assert cold["cache"]["puts"] == 2
        capsys.readouterr()

        # Warm rerun is served entirely from cache.
        assert serve_main(["run", sweep_batch, "--cache", cache,
                           "--out", report_path, "--verbose"]) == 0
        warm = json.loads(open(report_path).read())
        assert warm["summary"]["cached"] == 2
        assert warm["cache"]["hit_rate"] == 1.0
        captured = capsys.readouterr()
        assert "hit rate 100.0%" in captured.out
        assert "(cache)" in captured.err  # --verbose per-job lines

        # verify recomputes fresh and agrees with the cache.
        assert serve_main(["verify", sweep_batch, "--cache", cache]) == 0
        assert "verified 2/2" in capsys.readouterr().out

    def test_verify_flags_stale_records(self, sweep_batch, tmp_path,
                                        capsys):
        cache_root = str(tmp_path / "cache")
        assert serve_main(["warm", sweep_batch, "--cache",
                           cache_root]) == 0
        # Tamper with one cached payload, keeping the record valid.
        cache = ResultCache(cache_root)
        spec = load_batch(sweep_batch)[0]
        payload = cache.get(spec)
        payload["cycles"] += 1
        cache.put(spec, payload)
        capsys.readouterr()
        assert serve_main(["verify", sweep_batch, "--cache",
                           cache_root]) == 1
        captured = capsys.readouterr()
        assert "1 stale" in captured.out
        assert "STALE" in captured.err

    def test_json_report_printed(self, sweep_batch, tmp_path, capsys):
        assert serve_main(["run", sweep_batch, "--cache",
                           str(tmp_path / "cache"), "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["summary"]["total"] == 2


class TestWarmgate:
    def test_gate_report_and_exit_zero(self, tmp_path, capsys):
        batch = str(tmp_path / "probes.json")
        dump_batch([JobSpec(kind="probe", behavior="ok", seed=n)
                    for n in range(1, 5)], batch)
        report_path = str(tmp_path / "warmgate.json")
        # --speedup 0 keeps the perf gate off: probes are too cheap to
        # make a timing promise, the identity gate is the point here.
        assert serve_main(["warmgate", batch, "--jobs", "2",
                           "--out", report_path]) == 0
        report = json.loads(open(report_path).read())
        assert report["identical"] is True
        assert report["jobs"] == 4
        assert report["warm_pool"]["warm"] is True
        assert report["warm_pool"]["reused_jobs"] > 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_unreachable_speedup_fails_the_gate(self, tmp_path, capsys):
        batch = str(tmp_path / "probes.json")
        dump_batch([JobSpec(kind="probe", behavior="ok", seed=1)],
                   batch)
        # One probe job can never make warm reuse pay 1000000x.
        assert serve_main(["warmgate", batch, "--jobs", "1",
                           "--speedup", "1000000"]) == 1
        assert "required 1e+06x" in capsys.readouterr().err

    def test_run_fresh_vs_warm_telemetry(self, sweep_batch, tmp_path,
                                         capsys):
        fresh_report = str(tmp_path / "fresh.json")
        warm_report = str(tmp_path / "warm.json")
        telemetry_path = str(tmp_path / "telemetry.json")
        assert serve_main(["run", sweep_batch, "--jobs", "2",
                           "--fresh-workers",
                           "--out", fresh_report]) == 0
        assert serve_main(["run", sweep_batch, "--jobs", "2",
                           "--telemetry-out", telemetry_path,
                           "--out", warm_report]) == 0
        fresh = json.loads(open(fresh_report).read())
        warm = json.loads(open(warm_report).read())

        def ledger(report):
            return [(j["job_id"], j["digest"], j["status"],
                     j["attempts"]) for j in report["jobs"]]

        assert ledger(fresh) == ledger(warm)
        assert fresh["warm_pool"]["warm"] is False
        assert fresh["warm_pool"]["reused_jobs"] == 0
        assert fresh["warm_pool"]["spawns"] == len(fresh["jobs"])
        telemetry = json.loads(open(telemetry_path).read())
        assert telemetry["warm"] is True
        assert telemetry == warm["warm_pool"]


class TestFailureSurfacing:
    def test_probe_failures_exit_nonzero_with_structure(self, tmp_path,
                                                        capsys):
        batch = str(tmp_path / "probes.json")
        dump_batch([
            JobSpec(kind="probe", behavior="ok", seed=1),
            JobSpec(kind="probe", behavior="crash"),
            JobSpec(kind="probe", behavior="hang"),
        ], batch)
        assert serve_main(["run", batch, "--jobs", "2",
                           "--timeout", "1.0", "--retries", "0",
                           "--out", str(tmp_path / "report.json")]) == 1
        report = json.loads(open(tmp_path / "report.json").read())
        statuses = [job["status"] for job in report["jobs"]]
        assert statuses == ["ok", "crashed", "timeout"]
        out = capsys.readouterr().out
        assert "1 crashed" in out and "1 timeout" in out

    def test_bad_jobs_argument(self, tmp_path, capsys):
        batch = str(tmp_path / "b.json")
        dump_batch([JobSpec(kind="probe", behavior="ok")], batch)
        assert serve_main(["run", batch, "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_batch_file_reported(self, capsys):
        assert serve_main(["run", "/nonexistent/batch.json"]) == 1
        assert "repro-serve:" in capsys.readouterr().err
