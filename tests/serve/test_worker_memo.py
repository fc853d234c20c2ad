"""Worker-process compilation reuse and checkpoint environment knobs."""

import pytest

from repro.config import epic_with_alus
from repro.harness.cli import quick_specs
from repro.serve.jobspec import campaign_job
from repro.serve.worker import (
    _CHECKER_MEMO,
    campaign_checker,
    checkpoint_store,
    checkpoints_enabled,
    execute_spec,
)


@pytest.fixture()
def sha_job():
    spec = quick_specs(["SHA"])[0]
    return campaign_job(spec, epic_with_alus(2), n=2, seed=3)


class TestCheckerMemo:
    def test_same_key_reuses_the_checker(self, sha_job):
        first = campaign_checker(sha_job)
        second = campaign_checker(sha_job)
        assert first is second

    def test_shards_of_one_campaign_share_a_checker(self, sha_job):
        spec = quick_specs(["SHA"])[0]
        shard = campaign_job(spec, epic_with_alus(2), n=2, seed=3,
                             fault_offset=1, fault_count=1)
        assert campaign_checker(sha_job) is campaign_checker(shard)

    def test_different_machine_gets_its_own_checker(self, sha_job):
        spec = quick_specs(["SHA"])[0]
        other = campaign_job(spec, epic_with_alus(4), n=2, seed=3)
        assert campaign_checker(sha_job) is not campaign_checker(other)

    def test_execute_campaign_reports_fastforward_meta(self, sha_job):
        payload, meta = execute_spec(sha_job)
        assert payload["workload"] == "SHA"
        assert len(payload["outcomes"]) == 2
        assert meta["faults_run"] == 2
        for key in ("engine", "elapsed_s", "faults_per_s", "checkpointed",
                    "ff_restores", "ff_cycles_skipped",
                    "ff_convergence_cuts", "checker_memo_hit",
                    "checker_memo"):
            assert key in meta


class TestEnvironmentKnobs:
    def test_checkpoints_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)
        assert checkpoints_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "no", "false", "OFF"])
    def test_checkpoints_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECKPOINTS", value)
        assert not checkpoints_enabled()

    def test_checkpoints_explicit_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        assert checkpoints_enabled()

    def test_store_absent_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_STORE", raising=False)
        assert checkpoint_store() is None

    def test_store_built_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT_STORE", str(tmp_path))
        store = checkpoint_store()
        assert store is not None
        assert store.root == str(tmp_path)

    def test_memo_respects_disabled_checkpoints(self, monkeypatch):
        # A checker built while checkpoints are off must not
        # fast-forward; the memo key does not include the env, so use
        # a distinct (workload, machine) cell to get a fresh build.
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        _CHECKER_MEMO.clear()
        spec = quick_specs(["SHA"])[0]
        job = campaign_job(spec, epic_with_alus(3), n=1, seed=7)
        checker = campaign_checker(job)
        assert not checker.checkpoints
        _CHECKER_MEMO.clear()


class TestCheckerMemoLRU:
    """The memo is bounded now that workers are long-lived (PR 10)."""

    def _fresh(self):
        from repro.serve.worker import CheckerMemo

        return CheckerMemo()

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKER_MEMO", "2")
        memo = self._fresh()
        memo.put(("a",), "A")
        memo.put(("b",), "B")
        assert memo.get(("a",)) == "A"   # touch: "b" is now LRU
        memo.put(("c",), "C")
        assert ("b",) not in memo
        assert memo.get(("a",)) == "A"
        assert memo.get(("c",)) == "C"
        assert memo.evictions == 1
        assert len(memo) == 2

    def test_counters_track_hits_and_misses(self):
        memo = self._fresh()
        assert memo.get(("x",)) is None
        memo.put(("x",), 1)
        assert memo.get(("x",)) == 1
        stats = memo.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["size"] == 1

    def test_limit_env_is_read_per_lookup(self, monkeypatch):
        memo = self._fresh()
        monkeypatch.setenv("REPRO_CHECKER_MEMO", "5")
        assert memo.limit == 5
        monkeypatch.setenv("REPRO_CHECKER_MEMO", "3")
        assert memo.limit == 3

    def test_limit_is_at_least_one_and_survives_garbage(self, monkeypatch):
        memo = self._fresh()
        monkeypatch.setenv("REPRO_CHECKER_MEMO", "0")
        assert memo.limit == 1
        monkeypatch.setenv("REPRO_CHECKER_MEMO", "banana")
        assert memo.limit == memo.DEFAULT_LIMIT

    def test_campaign_meta_reports_memo_stats(self, sha_job):
        _CHECKER_MEMO.clear()
        _, cold_meta = execute_spec(sha_job)
        assert cold_meta["checker_memo_hit"] is False
        _, warm_meta = execute_spec(sha_job)
        assert warm_meta["checker_memo_hit"] is True
        stats = warm_meta["checker_memo"]
        assert stats["size"] >= 1
        assert stats["hits"] >= 1
        _CHECKER_MEMO.clear()
