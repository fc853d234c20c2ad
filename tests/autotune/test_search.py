"""Strategy trajectories, determinism, and the differential gate.

The acceptance property: on a small enumerable space, the autotuner's
constrained frontier is byte-identical to what the old pipeline
(exhaustive sweep + ``pareto_frontier`` + post-filter) produces — and
identical again under a process-pool executor and under a warm-cache
replay.
"""

import json

import pytest

from repro.autotune import (
    CandidateEvaluator, SearchSpace, TuneArchive, field_axis,
    known_from_report, parse_constraints, tune,
)
from repro.autotune.archive import STATUS_BUDGET
from repro.config import epic_config
from repro.errors import TuneError
from repro.explore import pareto_frontier, sweep_configs
from repro.workloads import dct_workload


@pytest.fixture(scope="module")
def spec():
    return dct_workload(8, 8)


def small_space():
    return SearchSpace(epic_config(), [
        field_axis("n_alus", (1, 2)),
        field_axis("forwarding", (True, False)),
    ])


def run_tune(spec, strategy="exhaustive", seed=1, budget=None,
             constraints=(), objectives=("cycles", "slices"),
             executor=None, cache=None, known=None, cycle_budget=None):
    space = small_space()
    archive = TuneArchive(objectives=objectives,
                          constraints=parse_constraints(constraints))
    kwargs = {}
    if cycle_budget is not None:
        kwargs["cycle_budget"] = cycle_budget
    evaluator = CandidateEvaluator(spec, archive, executor=executor,
                                   cache=cache, known=known, **kwargs)
    report = tune(space, evaluator, archive, strategy=strategy,
                  seed=seed, budget=budget)
    return report, archive


def canonical(report):
    """The deterministic report, rendered for byte comparison."""
    return json.dumps(report, sort_keys=True)


class TestStrategies:
    def test_exhaustive_visits_everything_in_order(self, spec):
        report, archive = run_tune(spec)
        assert archive.considered == 4
        visited = [index for step in report["trajectory"]
                   for index in step["indices"]]
        assert visited == [0, 1, 2, 3]

    def test_random_visits_budget_without_repeats(self, spec):
        report, archive = run_tune(spec, strategy="random", seed=5,
                                   budget=3)
        visited = [index for step in report["trajectory"]
                   for index in step["indices"]]
        assert len(visited) == len(set(visited)) == 3

    def test_hill_equals_exhaustive_given_full_budget(self, spec):
        exhaustive, _ = run_tune(spec)
        hill, _ = run_tune(spec, strategy="hill", seed=9)
        assert hill["archive"]["frontier"] \
            == exhaustive["archive"]["frontier"]

    def test_same_seed_same_trajectory(self, spec):
        first, _ = run_tune(spec, strategy="hill", seed=3)
        second, _ = run_tune(spec, strategy="hill", seed=3)
        assert canonical(first) == canonical(second)

    def test_zero_seed_rejected(self, spec):
        with pytest.raises(TuneError, match="non-zero"):
            run_tune(spec, seed=0)

    def test_unknown_strategy_rejected(self, spec):
        with pytest.raises(TuneError, match="unknown strategy"):
            run_tune(spec, strategy="anneal")


class TestDifferentialGate:
    def test_frontier_matches_sweep_plus_pareto(self, spec):
        """Autotuner == old pipeline on the same enumerable space."""
        report, archive = run_tune(
            spec, constraints=["slices<=7000"])
        space = small_space()
        configs = [config for _i, config in space.enumerate_configs()]
        points = sweep_configs(spec, configs)
        frontier = pareto_frontier(
            points, objectives=(lambda p: p.cycles,
                                lambda p: float(p.slices)))
        expected = sorted(
            (point.config.digest(), point.cycles, point.slices)
            for point in frontier if point.slices <= 7000)
        got = sorted(
            (r.digest, r.metrics["cycles"], r.metrics["slices"])
            for r in archive.frontier())
        assert got == expected
        assert got  # the gate is vacuous on an empty frontier


class TestDeterminismAcrossExecutionPaths:
    def test_serial_pool_and_cache_replay_are_byte_identical(
            self, spec, tmp_path):
        from repro.serve import ResultCache, SupervisedPool

        serial, _ = run_tune(spec)
        pooled, _ = run_tune(
            spec, executor=SupervisedPool(jobs=2, recycle_after=1),
            cache=ResultCache(str(tmp_path / "cache")))
        warm, _ = run_tune(
            spec, cache=ResultCache(str(tmp_path / "cache")))
        assert canonical(serial) == canonical(pooled) == canonical(warm)


class TestBudgetTruncation:
    def test_truncated_candidates_never_fully_scored(self, spec):
        report, archive = run_tune(spec, cycle_budget=1000)
        assert archive.counts[STATUS_BUDGET] == 4
        assert archive.frontier() == []
        for entry in report["evaluations"]:
            assert entry["status"] == "budget"
            assert "cycles" not in entry["metrics"]

    def test_partially_truncated_space_keeps_the_fast_ones(self, spec):
        # 2-ALU DCT 8x8 finishes in ~2.9k cycles; 1-ALU takes ~5.1k.
        report, archive = run_tune(spec, cycle_budget=4000)
        assert archive.counts[STATUS_BUDGET] == 2
        assert {r.choices["n_alus"] for r in archive.frontier()} == {2}


class TestInfeasibleConstraints:
    def test_empty_frontier_is_explained_and_cheap(self, spec):
        report, archive = run_tune(spec, constraints=["slices<=10"])
        assert archive.frontier() == []
        explanation = report["archive"]["explain"]
        assert "slices<=10 rejected 4" in explanation
        assert "no candidate satisfied the constraints" in explanation
        # The model prefilter pruned them before any simulation ran.
        for entry in report["evaluations"]:
            assert "cycles" not in entry["metrics"]
            assert "pruned by model estimate" in entry["detail"]


class TestResume:
    def test_resume_replays_byte_identically(self, spec):
        first, _ = run_tune(spec, strategy="hill", seed=4)
        space = small_space()
        settings = dict(first["settings"])
        known = known_from_report(first, space, settings,
                                  first["workload"])
        assert len(known) == 4
        resumed, _ = run_tune(spec, strategy="hill", seed=4,
                              known=known)
        assert canonical(first) == canonical(resumed)

    def test_resume_rejects_a_different_space(self, spec):
        first, _ = run_tune(spec)
        other = SearchSpace(epic_config(), [
            field_axis("n_alus", (1, 2, 4)),
        ])
        with pytest.raises(TuneError, match="different space"):
            known_from_report(first, other, dict(first["settings"]))

    def test_resume_rejects_different_settings(self, spec):
        first, _ = run_tune(spec)
        settings = dict(first["settings"])
        settings["cycle_budget"] = 1234
        with pytest.raises(TuneError, match="cycle_budget"):
            known_from_report(first, small_space(), settings)
