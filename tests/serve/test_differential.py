"""The serving contract, differentially enforced.

For every workload the same evaluation runs three ways — in-process
serial, through a two-worker :class:`SupervisedPool` that runs every
job on a fresh process (``recycle_after=1``), and replayed from a
warm :class:`ResultCache` — and the deterministic results must be
byte-identical.  Scheduling, process boundaries and caching are never
allowed to show through.
"""

import json

import pytest

from repro.config import epic_with_alus
from repro.explore import sweep_configs
from repro.explore.reliability import reliability_sweep
from repro.harness.faultcampaign import campaign_payload, run_campaign
from repro.perf.bench import deterministic_report, run_bench
from repro.serve import ResultCache, SupervisedPool
from repro.workloads import (
    aes_workload,
    dct_workload,
    dijkstra_workload,
    sha_workload,
)

#: Smallest valid instance of each paper benchmark.
TINY_WORKLOADS = {
    "SHA": lambda: sha_workload(8, 8),
    "AES": lambda: aes_workload(1),
    "DCT": lambda: dct_workload(8, 8),
    "Dijkstra": lambda: dijkstra_workload(6),
}

WORKLOAD_NAMES = sorted(TINY_WORKLOADS)


def pool():
    return SupervisedPool(jobs=2, recycle_after=1)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestSweepDifferential:
    def test_serial_pool_and_cache_agree(self, name, tmp_path):
        spec = TINY_WORKLOADS[name]()
        configs = [epic_with_alus(1), epic_with_alus(2)]
        cache = ResultCache(str(tmp_path / "cache"))

        serial = sweep_configs(spec, configs)
        parallel = sweep_configs(spec, configs, executor=pool(),
                                 cache=cache)
        replayed = sweep_configs(spec, configs, cache=cache)

        assert parallel == serial  # DesignPoint equality is field-wise
        assert replayed == serial
        assert cache.stats.hits == len(configs)  # replay was all hits


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestCampaignDifferential:
    def test_sharded_pool_and_cache_agree(self, name, tmp_path):
        spec = TINY_WORKLOADS[name]()
        config = epic_with_alus(2)
        cache = ResultCache(str(tmp_path / "cache"))

        serial = run_campaign(spec, config, n=3, seed=11)
        sharded = run_campaign(spec, config, n=3, seed=11,
                               executor=pool(), cache=cache, shards=2)
        # Replay with the same shard layout: every slice is a hit.
        replayed = run_campaign(spec, config, n=3, seed=11, cache=cache,
                                shards=2)

        rendered = [json.dumps(campaign_payload([report]), sort_keys=True)
                    for report in (serial, sharded, replayed)]
        assert rendered[1] == rendered[0]
        assert rendered[2] == rendered[0]
        assert cache.stats.hits > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestBenchDifferential:
    def test_deterministic_report_identical(self, name):
        spec = TINY_WORKLOADS[name]()
        serial = run_bench([spec], alu_counts=[2], quick=True)
        parallel = run_bench([spec], alu_counts=[2], quick=True,
                             executor=pool())
        assert json.dumps(deterministic_report(parallel),
                          sort_keys=True) == \
            json.dumps(deterministic_report(serial), sort_keys=True)


class TestReliabilitySweepDifferential:
    def test_pool_matches_serial(self):
        spec = dijkstra_workload(6)
        configs = [epic_with_alus(1), epic_with_alus(2)]
        serial = reliability_sweep(spec, configs, n=3, seed=5)
        parallel = reliability_sweep(spec, configs, n=3, seed=5,
                                     executor=pool())
        for a, b in zip(serial, parallel):
            assert a.config == b.config
            assert a.slices == b.slices
            assert a.cycles == b.cycles
            assert a.report.counts == b.report.counts
            assert a.report.outcome_table() == b.report.outcome_table()


class TestSchedulingInvariance:
    def test_shard_layout_cannot_show_through(self, tmp_path):
        """2-way and 3-way sharding of one campaign merge identically."""
        spec = dijkstra_workload(6)
        config = epic_with_alus(2)
        two = run_campaign(spec, config, n=5, seed=9,
                           executor=pool(), shards=2)
        three = run_campaign(spec, config, n=5, seed=9,
                             executor=pool(), shards=3)
        assert json.dumps(campaign_payload([two]), sort_keys=True) == \
            json.dumps(campaign_payload([three]), sort_keys=True)
