"""Host-performance layer: phase timers and the repro-bench harness."""

import json

import pytest

from repro.config import epic_with_alus
from repro.errors import SimulationError
from repro.perf import PhaseTimer, kcycles_per_second
from repro.perf.bench import (
    CompileCache,
    bench_cell,
    check_against_golden,
    cycles_by_cell,
    deterministic_report,
    main as bench_main,
    run_bench,
)
from repro.perf.timers import MIN_MEASURABLE_SECONDS
from repro.workloads import dct_workload, sha_workload


class TestPhaseTimer:
    def test_phases_accumulate_in_first_use_order(self):
        timer = PhaseTimer()
        with timer.phase("compile"):
            pass
        with timer.phase("simulate"):
            pass
        with timer.phase("compile"):
            pass
        assert list(timer.seconds) == ["compile", "simulate"]
        assert timer.seconds["compile"] >= 0.0
        assert timer.total == pytest.approx(sum(timer.seconds.values()))

    def test_add_and_summary(self):
        timer = PhaseTimer()
        timer.add("simulate", 0.25)
        timer.add("simulate", 0.25)
        assert timer.seconds["simulate"] == pytest.approx(0.5)
        assert "simulate" in timer.summary()
        assert PhaseTimer().summary() == "(no phases timed)"

    def test_timer_records_exceptions_too(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("boom"):
                raise ValueError("x")
        assert "boom" in timer.seconds


class TestKcycles:
    def test_rate(self):
        assert kcycles_per_second(50_000, 2.0) == pytest.approx(25.0)

    def test_zero_time_is_not_infinite(self):
        assert kcycles_per_second(1000, 0.0) == 0.0

    def test_sub_resolution_timings_report_unmeasurable(self):
        # A cell that finishes inside the timer's resolution must not
        # report a rate dominated by timer noise.
        assert kcycles_per_second(1000, MIN_MEASURABLE_SECONDS / 10) == 0.0
        assert kcycles_per_second(
            1000, MIN_MEASURABLE_SECONDS) == pytest.approx(
                1.0 / MIN_MEASURABLE_SECONDS)


@pytest.fixture(scope="module")
def tiny_payload():
    return run_bench([sha_workload(4, 4)], alu_counts=[1], quick=True)


class TestRunBench:
    def test_payload_shape_and_agreement(self, tiny_payload):
        payload = tiny_payload
        assert payload["benchmarks"] == ["SHA"]
        (run,) = payload["runs"]
        assert run["machine"] == "EPIC-1ALU"
        assert run["cycles"] > 0
        assert run["reference_seconds"] > 0.0
        assert run["fast_seconds"] > 0.0
        assert run["fast_kcycles_per_host_second"] > 0.0
        summary = payload["summary"]
        assert summary["overall_speedup"] > 0.0
        assert summary["min_speedup"] <= summary["geomean_speedup"] \
            or len(payload["runs"]) == 1

    def test_bench_cell_checks_both_engines(self):
        cell = bench_cell(dct_workload(8, 8), 2)
        assert cell["benchmark"] == "DCT"
        assert cell["machine"] == "EPIC-2ALU"
        assert cell["specialise_seconds"] > 0.0

    def test_golden_check_passes_and_detects_drift(self, tiny_payload):
        cells = cycles_by_cell(tiny_payload)
        assert list(cells) == ["SHA/EPIC-1ALU"]
        assert check_against_golden(tiny_payload, {"cycles": cells}) == []
        drifted = {cell: cycles + 1 for cell, cycles in cells.items()}
        problems = check_against_golden(tiny_payload, {"cycles": drifted})
        assert len(problems) == 1 and "SHA/EPIC-1ALU" in problems[0]
        missing = dict(cells, **{"DCT/EPIC-1ALU": 123})
        problems = check_against_golden(tiny_payload, {"cycles": missing})
        assert any("missing" in problem for problem in problems)

    def test_golden_size_mismatch_refused_not_compared(self, tiny_payload):
        # Cell names don't encode workload size; comparing a quick
        # golden against a full-size run would report drift everywhere.
        golden = {"quick": False, "cycles": cycles_by_cell(tiny_payload)}
        problems = check_against_golden(tiny_payload, golden)
        assert len(problems) == 1
        assert "not comparable" in problems[0]


class TestCompileCache:
    def test_each_pair_compiles_exactly_once(self, tiny_payload):
        stats = tiny_payload["summary"]["compile_cache"]
        assert stats["pairs"] == 1  # one workload x one machine
        assert stats["compiles"] == stats["pairs"]

    def test_repeated_cell_hits_instead_of_recompiling(self):
        cache = CompileCache()
        spec = sha_workload(4, 4)
        payload = run_bench([spec, spec], alu_counts=[1], quick=True)
        stats = payload["summary"]["compile_cache"]
        assert stats["pairs"] == 1
        assert stats["compiles"] == 1
        assert stats["hits"] == 1
        # The hoist must be invisible in the simulated results.
        first, second = payload["runs"]
        assert first["cycles"] == second["cycles"]
        assert first["fingerprint"] == second["fingerprint"]

        first_get = cache.get(spec, epic_with_alus(1))
        assert cache.stats() == {"compiles": 1, "hits": 0, "pairs": 1}
        assert cache.get(spec, epic_with_alus(1)) is first_get
        assert cache.stats()["hits"] == 1

    def test_hoisted_cell_cycles_match_uncached_cell(self):
        spec = dct_workload(8, 8)
        plain = bench_cell(spec, 1)
        hoisted = bench_cell(spec, 1, compile_cache=CompileCache())
        assert hoisted["cycles"] == plain["cycles"]
        assert hoisted["fingerprint"] == plain["fingerprint"]
        assert hoisted["ilp"] == plain["ilp"]


class TestDeterministicReport:
    def test_projection_shape(self, tiny_payload):
        projection = deterministic_report(tiny_payload)
        assert projection["quick"] is True
        assert list(projection["cells"]) == ["SHA/EPIC-1ALU"]
        cell = projection["cells"]["SHA/EPIC-1ALU"]
        assert set(cell) == {"cycles", "ilp", "fingerprint"}

    def test_timings_are_excluded(self, tiny_payload):
        rendered = json.dumps(deterministic_report(tiny_payload))
        assert "seconds" not in rendered
        assert "speedup" not in rendered

    def test_every_cell_carries_a_fingerprint(self, tiny_payload):
        for run in tiny_payload["runs"]:
            fingerprint = run["fingerprint"]
            assert isinstance(fingerprint, dict) and fingerprint
            assert "bundles" in fingerprint
            json.dumps(fingerprint)  # must survive the report file


class TestTraceEngineBench:
    def test_trace_columns_present_by_default(self, tiny_payload):
        (run,) = tiny_payload["runs"]
        assert tiny_payload["engines"] == ["reference", "fast", "trace"]
        assert run["trace_seconds"] > 0.0
        assert run["trace_vs_fast_speedup"] > 0.0
        assert run["trace_kcycles_per_host_second"] is not None
        summary = tiny_payload["summary"]
        assert summary["overall_trace_vs_fast_speedup"] > 0.0
        # Cold = everything paid before the first warm run.
        assert run["cold_seconds"] == pytest.approx(
            run["compile_seconds"] + run["specialise_seconds"]
            + run["trace_compile_seconds"])
        assert summary["total_cold_seconds"] == pytest.approx(
            run["cold_seconds"])
        assert summary["trace_cache"]["compiles"] >= 0

    def test_trace_columns_never_leak_into_determinism(self, tiny_payload):
        rendered = json.dumps(deterministic_report(tiny_payload))
        assert "trace" not in rendered
        assert "kcycles" not in rendered

    def test_single_engine_cell_leaves_other_timings_none(self):
        cell = bench_cell(sha_workload(4, 4), 1, engines=("fast",))
        assert cell["fast_seconds"] > 0.0
        assert cell["reference_seconds"] is None
        assert cell["trace_seconds"] is None
        assert cell["speedup"] is None
        assert cell["trace_vs_fast_speedup"] is None
        assert cell["cycles"] > 0

    def test_trace_only_cell_times_the_trace_engine(self):
        cell = bench_cell(sha_workload(4, 4), 1, engines=("trace",))
        assert cell["trace_seconds"] > 0.0
        assert cell["trace_compile_seconds"] > 0.0
        assert cell["fast_seconds"] is None
        assert cell["cold_seconds"] == pytest.approx(
            cell["compile_seconds"] + cell["trace_compile_seconds"])

    def test_unknown_engine_rejected_with_choices(self):
        with pytest.raises(SimulationError, match="unknown bench engine"):
            bench_cell(sha_workload(4, 4), 1, engines=("warp",))

    def test_trace_cell_cycles_match_the_default_cell(self):
        spec = dct_workload(8, 8)
        default = bench_cell(spec, 2)
        traced = bench_cell(spec, 2, engines=("trace",))
        assert traced["cycles"] == default["cycles"]
        assert traced["fingerprint"] == default["fingerprint"]


class TestCli:
    def test_writes_report_and_checks_golden(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert bench_main(["--quick", "--bench", "Dijkstra", "--alus", "1",
                           "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["quick"] is True
        assert payload["runs"][0]["benchmark"] == "Dijkstra"
        assert "overall speedup" in capsys.readouterr().out

        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps({"cycles": cycles_by_cell(payload)}))
        assert bench_main(["--quick", "--bench", "Dijkstra", "--alus", "1",
                           "--out", str(out), "--check", str(golden)]) == 0

        drifted = {cell: cycles + 7
                   for cell, cycles in cycles_by_cell(payload).items()}
        golden.write_text(json.dumps({"cycles": drifted}))
        assert bench_main(["--quick", "--bench", "Dijkstra", "--alus", "1",
                           "--out", str(out), "--check", str(golden)]) == 1
        assert "cycle drift" in capsys.readouterr().err

    def test_verbose_prints_one_line_per_cell(self, tmp_path, capsys):
        assert bench_main(["--quick", "--bench", "Dijkstra",
                           "--alus", "1", "2", "--verbose",
                           "--out", str(tmp_path / "bench.json")]) == 0
        err = capsys.readouterr().err
        assert err.count("cycles, speedup") == 2
        assert "Dijkstra on EPIC-1ALU" in err
        assert "Dijkstra on EPIC-2ALU" in err

    def test_engine_flag_restricts_the_run(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert bench_main(["--quick", "--bench", "Dijkstra", "--alus", "1",
                           "--engine", "fast", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["engines"] == ["fast"]
        (run,) = payload["runs"]
        assert run["fast_seconds"] > 0.0
        assert run["reference_seconds"] is None
        assert run["trace_seconds"] is None

    def test_gate_passes_and_fails(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = ["--quick", "--bench", "Dijkstra", "--alus", "1",
                "--out", str(out)]
        assert bench_main(argv + ["--gate-trace-speedup", "0.001"]) == 0
        assert "clears the 0.00x gate" in capsys.readouterr().out
        assert bench_main(argv + ["--gate-trace-speedup", "1e6"]) == 1
        assert "below the 1000000.00x gate" in capsys.readouterr().err

    def test_gate_needs_both_trace_and_fast(self, tmp_path, capsys):
        assert bench_main(["--quick", "--bench", "Dijkstra", "--alus", "1",
                           "--engine", "fast",
                           "--out", str(tmp_path / "bench.json"),
                           "--gate-trace-speedup", "1.5"]) == 2
        assert "use --engine all" in capsys.readouterr().err

    def test_parallel_jobs_match_serial_cycles(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        pool_out = tmp_path / "pool.json"
        argv = ["--quick", "--bench", "Dijkstra", "--alus", "1", "2"]
        assert bench_main(argv + ["--out", str(serial_out)]) == 0
        assert bench_main(argv + ["--jobs", "2",
                                  "--out", str(pool_out)]) == 0
        serial = json.loads(serial_out.read_text())
        pooled = json.loads(pool_out.read_text())
        assert deterministic_report(pooled) == deterministic_report(serial)
