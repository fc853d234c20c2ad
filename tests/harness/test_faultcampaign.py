"""Campaign determinism, the vulnerability table, and the CLI."""

import json

import pytest

from repro.config import epic_config
from repro.errors import CycleLimitExceeded, SimulationError
from repro.harness import (
    OUTCOME_CYCLE_LIMIT,
    OUTCOME_OK,
    run_on_epic,
)
from repro.harness.cli_faults import main as faults_main
from repro.harness.faultcampaign import (
    campaign_payload,
    generate_faults,
    render_vulnerability_table,
    result_from_payload,
    result_payload,
    run_campaign,
)
from repro.reliability import FAULT_SPACES, LockstepChecker
from tests.reliability.test_lockstep import tiny_spec


@pytest.fixture(scope="module")
def checker():
    return LockstepChecker(tiny_spec(), epic_config())


class TestFaultGeneration:
    def test_same_seed_same_faults(self, checker):
        assert generate_faults(checker, 40, seed=7) == \
            generate_faults(checker, 40, seed=7)

    def test_different_seed_different_faults(self, checker):
        assert generate_faults(checker, 40, seed=7) != \
            generate_faults(checker, 40, seed=8)

    def test_faults_stay_in_machine_bounds(self, checker):
        config = checker.config
        for fault in generate_faults(checker, 200, seed=3):
            assert fault.space in FAULT_SPACES
            if fault.space == "gpr":
                assert 0 <= fault.index < config.n_gprs
            elif fault.space == "pred":
                assert 0 <= fault.index < config.n_preds
            assert fault.cycle < checker.reference_cycles

    def test_space_restriction_respected(self, checker):
        faults = generate_faults(checker, 30, seed=1, spaces=("mem",))
        assert {fault.space for fault in faults} == {"mem"}

    def test_bad_arguments_rejected(self, checker):
        with pytest.raises(ValueError):
            generate_faults(checker, -1, seed=1)
        with pytest.raises(ValueError):
            generate_faults(checker, 1, seed=1, spaces=())

    def test_seed_zero_rejected(self, checker):
        # XorShift32 maps state 0 to itself, so seed 0 would silently
        # alias to a degenerate all-identical fault stream.
        with pytest.raises(ValueError, match="non-zero"):
            generate_faults(checker, 10, seed=0)


class TestRateDenominator:
    """Rates divide by classified outcomes, never by the nominal n."""

    @staticmethod
    def _report(n, counts):
        from repro.harness.faultcampaign import CampaignReport

        return CampaignReport(workload="tiny", machine="EPIC-2ALU",
                              n=n, seed=1, reference_cycles=100,
                              counts=counts)

    def test_missing_results_do_not_deflate_rates(self):
        # 10 nominal injections, but two jobs were quarantined: only 8
        # outcomes exist, and 2 SDCs out of 8 classified is 25%.
        report = self._report(10, {"sdc": 2, "masked": 5, "detected": 1})
        assert report.classified == 8
        assert report.sdc_rate == pytest.approx(2 / 8)
        assert report.masked_rate == pytest.approx(5 / 8)
        assert report.detected_rate == pytest.approx(1 / 8)
        assert report.hung_rate == 0.0

    def test_empty_report_has_zero_rates(self):
        report = self._report(4, {})
        assert report.classified == 0
        assert report.sdc_rate == 0.0

    def test_payload_exposes_the_raw_denominator(self):
        report = self._report(10, {"sdc": 2, "masked": 6})
        payload = campaign_payload([report])[0]
        assert payload["n"] == 10
        assert payload["classified"] == 8
        assert payload["sdc_rate"] == pytest.approx(2 / 8)


class TestCampaignDeterminism:
    def test_same_seed_identical_outcome_tables(self):
        """The ISSUE's regression: two campaigns, same seed, identical
        outcome tables — rebuilt from scratch both times."""
        spec = tiny_spec()
        config = epic_config()
        first = run_campaign(spec, config, n=25, seed=11)
        second = run_campaign(spec, config, n=25, seed=11)
        assert first.outcome_table() == second.outcome_table()
        assert first.counts == second.counts
        assert render_vulnerability_table([first]) == \
            render_vulnerability_table([second])

    def test_every_run_classified_exactly_once(self, checker):
        report = run_campaign(tiny_spec(), checker.config, n=20, seed=5,
                              checker=checker)
        assert sum(report.counts.values()) == report.n == 20
        assert len(report.results) == 20
        assert set(report.counts) == {"masked", "detected", "hung", "sdc"}

    def test_rates_sum_to_one(self, checker):
        report = run_campaign(tiny_spec(), checker.config, n=16, seed=9,
                              checker=checker)
        total = (report.masked_rate + report.detected_rate +
                 report.hung_rate + report.sdc_rate)
        assert total == pytest.approx(1.0)

    def test_payload_is_json_serialisable(self, checker):
        report = run_campaign(tiny_spec(), checker.config, n=4, seed=2,
                              checker=checker)
        text = json.dumps(campaign_payload([report]))
        assert "tiny" in text

    def test_on_result_fires_per_injection_in_fault_order(self, checker):
        seen = []
        report = run_campaign(tiny_spec(), checker.config, n=6, seed=3,
                              checker=checker,
                              on_result=lambda r: seen.append(r))
        assert seen == report.results

    def test_result_payload_round_trip(self, checker):
        report = run_campaign(tiny_spec(), checker.config, n=6, seed=3,
                              checker=checker)
        for result in report.results:
            clone = result_from_payload(json.loads(json.dumps(
                result_payload(result))))
            assert clone == result


class TestVulnerabilityTable:
    def test_render_contains_header_and_row(self, checker):
        report = run_campaign(tiny_spec(), checker.config, n=4, seed=2,
                              checker=checker)
        table = render_vulnerability_table([report])
        assert "benchmark" in table and "SDC rate" in table
        assert "tiny" in table and "EPIC-4ALU" in table


class TestRunnerOutcome:
    def test_ok_run_has_ok_outcome(self):
        run = run_on_epic(tiny_spec(), epic_config())
        assert run.outcome == OUTCOME_OK

    def test_cycle_limit_surfaces_as_outcome_when_opted_in(self):
        run = run_on_epic(tiny_spec(), epic_config(), max_cycles=5,
                          cycle_limit_ok=True)
        assert run.outcome == OUTCOME_CYCLE_LIMIT
        assert run.cycles == 5

    def test_cycle_limit_raises_by_default(self):
        with pytest.raises(CycleLimitExceeded):
            run_on_epic(tiny_spec(), epic_config(), max_cycles=5)

    def test_ok_run_reports_time_and_ok(self):
        run = run_on_epic(tiny_spec(), epic_config())
        assert run.ok
        assert run.time_seconds > 0.0
        assert "ms" in str(run)

    def test_budget_run_refuses_time_and_says_so(self):
        # A cut-off run's cycle count is the budget it was stopped at;
        # converting it into milliseconds would fabricate a measurement.
        run = run_on_epic(tiny_spec(), epic_config(), max_cycles=5,
                          cycle_limit_ok=True)
        assert not run.ok
        with pytest.raises(SimulationError, match="budget, not a measurement"):
            run.time_seconds
        rendered = str(run)
        assert OUTCOME_CYCLE_LIMIT in rendered
        assert "no measurement" in rendered
        assert "ms" not in rendered


class TestCli:
    def test_smoke_campaign(self, capsys):
        assert faults_main(["--bench", "SHA", "--quick",
                            "--n", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "SHA" in out and "seed=1" in out

    def test_json_output_parses(self, capsys):
        assert faults_main(["--bench", "SHA", "--quick",
                            "--n", "2", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 1
        assert payload["campaigns"][0]["workload"] == "SHA"
        assert len(payload["campaigns"][0]["outcomes"]) == 2

    def test_zero_injections_rejected(self, capsys):
        assert faults_main(["--n", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, capsys):
        assert faults_main(["--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_verbose_prints_one_line_per_injection(self, capsys):
        assert faults_main(["--bench", "SHA", "--quick", "--n", "3",
                            "--seed", "1", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "[1/3]" in err and "[3/3]" in err

    def test_gate_and_plain_runs_write_one_record_shape(self, tmp_path,
                                                        capsys):
        base = ["--bench", "SHA", "--quick", "--n", "4", "--seed", "1"]
        timing_out = tmp_path / "timing.json"
        retirement_out = tmp_path / "retirement.json"
        assert faults_main(base + [
            "--gate-vector-speedup", "0", "--gate-repeat", "1",
            "--timing-out", str(timing_out),
            "--retirement-out", str(retirement_out)]) == 0
        gated = json.loads(timing_out.read_text())["timings"][0]
        retired = json.loads(retirement_out.read_text())["campaigns"][0]
        assert faults_main(base + ["--engine", "vector", "--timing-out",
                                   str(timing_out)]) == 0
        plain = json.loads(timing_out.read_text())["timings"][0]
        capsys.readouterr()
        # A gate entry is the measured pass's flat record plus the A/B.
        assert set(gated) - {"baseline", "speedup"} == set(plain)
        assert gated["engine"] == plain["engine"] == "vector"
        assert gated["baseline"]["engine"] == "auto"
        assert retired["retired"] == gated["retired"]
        assert retired["scalar_faults"] == gated["scalar_faults"]

    def test_parallel_jobs_output_matches_serial(self, capsys):
        argv = ["--bench", "SHA", "--quick", "--n", "4", "--seed", "1",
                "--json"]
        assert faults_main(argv) == 0
        serial = capsys.readouterr().out
        assert faults_main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
