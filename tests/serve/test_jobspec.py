"""JobSpec canonicalisation, digests, sharding and batch files."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.config import epic_config, epic_with_alus
from repro.errors import ServeError
from repro.serve import (
    JobSpec,
    bench_job,
    campaign_job,
    derive_seeds,
    dump_batch,
    load_batch,
    shard_campaign,
    sweep_job,
)
from repro.workloads import dijkstra_workload, sha_workload


def tiny_sweep():
    return sweep_job(sha_workload(8, 8), epic_with_alus(2))


class TestDigest:
    def test_equal_specs_share_a_digest(self):
        assert tiny_sweep().digest() == tiny_sweep().digest()

    def test_digest_distinguishes_workload_size(self):
        a = sweep_job(sha_workload(8, 8), epic_with_alus(2))
        b = sweep_job(sha_workload(16, 16), epic_with_alus(2))
        assert a.digest() != b.digest()

    def test_digest_distinguishes_machine(self):
        spec = sha_workload(8, 8)
        assert sweep_job(spec, epic_with_alus(1)).digest() != \
            sweep_job(spec, epic_with_alus(2)).digest()

    def test_digest_distinguishes_engine_and_budget(self):
        spec = sha_workload(8, 8)
        config = epic_config()
        base = sweep_job(spec, config)
        assert sweep_job(spec, config, engine="fast").digest() != \
            base.digest()
        assert sweep_job(spec, config, max_cycles=1000).digest() != \
            base.digest()

    def test_campaign_digest_covers_slice(self):
        spec = dijkstra_workload(8)
        config = epic_config()
        whole = campaign_job(spec, config, n=10, seed=3)
        shard = campaign_job(spec, config, n=10, seed=3,
                             fault_offset=5, fault_count=5)
        assert whole.digest() != shard.digest()

    def test_digest_stable_across_processes(self):
        job = tiny_sweep()
        program = (
            "from repro.config import epic_with_alus\n"
            "from repro.serve import sweep_job\n"
            "from repro.workloads import sha_workload\n"
            "print(sweep_job(sha_workload(8, 8), "
            "epic_with_alus(2)).digest())\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "99"  # digest must not depend on hashing
        output = subprocess.run(
            [sys.executable, "-c", program], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        assert output == job.digest()

    def test_canonical_is_pure_json(self):
        rendered = json.dumps(tiny_sweep().canonical(), sort_keys=True)
        assert json.loads(rendered) == tiny_sweep().canonical()

    def test_job_id_names_kind_and_subject(self):
        job = tiny_sweep()
        assert job.job_id.startswith("sweep:SHA:")
        assert job.digest().startswith(job.job_id.rsplit(":", 1)[1])


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="kind"):
            JobSpec(kind="mystery")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ServeError, match="workload"):
            JobSpec(kind="sweep", workload="FFT", config=epic_config())

    def test_unknown_engine_rejected_naming_the_choices(self):
        with pytest.raises(ServeError,
                           match="expected one of .*trace.*all"):
            JobSpec(kind="sweep", workload="SHA", config=epic_config(),
                    engine="warp")

    def test_trace_and_multi_engine_names_accepted(self):
        spec = sha_workload(8, 8)
        config = epic_config()
        assert sweep_job(spec, config, engine="trace").engine == "trace"
        assert bench_job(spec, config).engine == "all"
        assert bench_job(spec, config,
                         engine="reference").engine == "reference"
        digests = {
            bench_job(spec, config, engine=name).digest()
            for name in ("all", "reference", "trace", "fast")
        }
        assert len(digests) == 4  # the engine is part of the job identity
        with pytest.raises(ServeError, match="unknown engine"):
            bench_job(spec, config, engine="both")

    def test_missing_config_rejected(self):
        with pytest.raises(ServeError, match="config"):
            JobSpec(kind="sweep", workload="SHA")

    def test_custom_op_config_rejected(self):
        from repro.isa import CustomOpSpec

        config = epic_config(custom_ops=(
            CustomOpSpec("FOO", func=lambda a, b, m: a),))
        with pytest.raises(ServeError, match="custom"):
            sweep_job(sha_workload(8, 8), config)

    def test_campaign_needs_injections(self):
        with pytest.raises(ServeError, match="n >= 1"):
            JobSpec(kind="campaign", workload="SHA", config=epic_config(),
                    n=0, spaces=("gpr",))

    def test_probe_behaviour_checked(self):
        with pytest.raises(ServeError, match="behaviour"):
            JobSpec(kind="probe", behavior="explode")

    def test_campaign_seed_zero_rejected(self):
        # The campaign PRNG (XorShift32) maps state 0 to itself; a
        # zero seed must be refused at job build time, mirroring
        # generate_faults, not discovered by a worker mid-campaign.
        with pytest.raises(ServeError, match="seed"):
            campaign_job(dijkstra_workload(8), epic_config(), n=4,
                         seed=0)

    def test_vector_engine_is_campaign_only(self):
        with pytest.raises(ServeError, match="campaign"):
            sweep_job(sha_workload(8, 8), epic_config(),
                      engine="vector")

    def test_vector_campaign_accepted_and_in_digest(self):
        spec = dijkstra_workload(8)
        config = epic_config()
        auto = campaign_job(spec, config, n=4, seed=3)
        vectored = campaign_job(spec, config, n=4, seed=3,
                                engine="vector")
        assert vectored.engine == "vector"
        assert vectored.digest() != auto.digest()


class TestPayloadRoundTrip:
    def test_sweep_round_trip(self):
        job = tiny_sweep()
        clone = JobSpec.from_payload(json.loads(json.dumps(
            job.to_payload())))
        assert clone == job
        assert clone.digest() == job.digest()

    def test_campaign_round_trip(self):
        job = campaign_job(dijkstra_workload(8), epic_with_alus(3),
                           n=12, seed=7, fault_offset=4, fault_count=4)
        clone = JobSpec.from_payload(job.to_payload())
        assert clone == job

    def test_probe_round_trip(self):
        job = JobSpec(kind="probe", behavior="sleep", seconds=0.5, seed=9)
        clone = JobSpec.from_payload(job.to_payload())
        assert clone == job

    def test_future_schema_rejected(self):
        payload = tiny_sweep().to_payload()
        payload["version"] = 99
        with pytest.raises(ServeError, match="v99"):
            JobSpec.from_payload(payload)

    def test_garbage_rejected(self):
        with pytest.raises(ServeError, match="malformed"):
            JobSpec.from_payload(["not", "a", "job"])


class TestShardCampaign:
    def test_shards_cover_every_fault_exactly_once(self):
        job = campaign_job(dijkstra_workload(8), epic_config(),
                           n=10, seed=5)
        shards = shard_campaign(job, 3)
        assert len(shards) == 3
        covered = []
        for shard in shards:
            assert shard.n == job.n and shard.seed == job.seed
            covered.extend(range(shard.fault_offset,
                                 shard.fault_offset + shard.fault_count))
        assert covered == list(range(job.n))

    def test_more_shards_than_faults_clamped(self):
        job = campaign_job(dijkstra_workload(8), epic_config(), n=2,
                           seed=1)
        assert len(shard_campaign(job, 8)) == 2

    def test_resharding_a_slice_refused(self):
        job = campaign_job(dijkstra_workload(8), epic_config(), n=10,
                           seed=1, fault_offset=2, fault_count=3)
        with pytest.raises(ServeError, match="re-shard"):
            shard_campaign(job, 2)

    def test_only_campaigns_shard(self):
        with pytest.raises(ServeError, match="campaign"):
            shard_campaign(tiny_sweep(), 2)

    def test_shards_inherit_the_engine(self):
        # Regression: rebuilt shards used to drop the engine field,
        # silently downgrading sharded vector campaigns to scalar.
        job = campaign_job(dijkstra_workload(8), epic_config(), n=10,
                           seed=5, engine="vector")
        assert all(shard.engine == "vector"
                   for shard in shard_campaign(job, 3))


class TestDeriveSeeds:
    def test_deterministic_and_positional(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)
        assert derive_seeds(42, 5)[:3] == derive_seeds(42, 3)

    def test_master_seed_matters(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_zero_master_seed_rejected(self):
        # XorShift32 cannot hold state 0: a zero master seed would
        # derive an all-identical (and all-zero) seed stream.  Mirrors
        # generate_faults' rejection of seed 0.
        with pytest.raises(ServeError, match="non-zero"):
            derive_seeds(0, 4)

    def test_derived_seeds_are_usable_campaign_seeds(self):
        # Every derived seed must be accepted by campaign_job (i.e.
        # non-zero), so batch-built campaigns can never differ from
        # directly-built ones.
        seeds = derive_seeds(7, 200)
        assert all(seeds)
        spec = dijkstra_workload(8)
        config = epic_config()
        batch = [campaign_job(spec, config, n=4, seed=seed)
                 for seed in seeds[:3]]
        direct = [campaign_job(spec, config, n=4, seed=seed)
                  for seed in derive_seeds(7, 3)]
        assert [job.digest() for job in batch] == \
            [job.digest() for job in direct]


class TestBatchFiles:
    def test_round_trip_preserves_order(self, tmp_path):
        jobs = [sweep_job(sha_workload(8, 8), epic_with_alus(n))
                for n in (4, 1, 2)]
        path = str(tmp_path / "batch.json")
        dump_batch(jobs, path)
        assert load_batch(path) == jobs

    def test_stream_round_trip(self):
        jobs = [tiny_sweep()]
        buffer = io.StringIO()
        dump_batch(jobs, buffer)
        buffer.seek(0)
        assert load_batch(buffer) == jobs

    def test_bad_file_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ServeError, match="batch"):
            load_batch(str(path))

    def test_wrong_envelope_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"version": 1}), encoding="utf-8")
        with pytest.raises(ServeError, match="jobs"):
            load_batch(str(path))


class TestCycleLimitOk:
    """cycle_limit_ok: budget blow-ups as results, sweep jobs only."""

    def test_default_off_and_in_canonical(self):
        job = tiny_sweep()
        assert job.cycle_limit_ok is False
        assert job.canonical()["cycle_limit_ok"] is False

    def test_flag_changes_the_digest(self):
        from repro.config import epic_with_alus
        from repro.workloads import sha_workload

        spec = sha_workload(8, 8)
        config = epic_with_alus(2)
        tolerant = sweep_job(spec, config, cycle_limit_ok=True)
        strict = sweep_job(spec, config)
        assert tolerant.digest() != strict.digest()

    def test_round_trips_through_payload(self):
        from repro.config import epic_with_alus
        from repro.workloads import sha_workload

        job = sweep_job(sha_workload(8, 8), epic_with_alus(2),
                        cycle_limit_ok=True)
        rebuilt = JobSpec.from_payload(job.to_payload())
        assert rebuilt.cycle_limit_ok is True
        assert rebuilt == job

    def test_rejected_on_campaign_jobs(self):
        from repro.config import epic_with_alus
        from repro.workloads import sha_workload

        with pytest.raises(ServeError, match="cycle_limit_ok"):
            JobSpec(kind="campaign", workload="SHA",
                    config=epic_with_alus(2), n=5, seed=3,
                    spaces=("gpr",), cycle_limit_ok=True)

    def test_worker_surfaces_the_truncation_outcome(self):
        from repro.config import epic_with_alus
        from repro.serve.worker import execute_spec
        from repro.workloads import sha_workload

        job = sweep_job(sha_workload(8, 8), epic_with_alus(2),
                        max_cycles=100, cycle_limit_ok=True)
        payload, _meta = execute_spec(job)
        assert payload["outcome"] == "cycle-limit-exceeded"
        assert payload["cycles"] == 100

    def test_completed_runs_report_ok_outcome(self):
        from repro.config import epic_with_alus
        from repro.serve.worker import execute_spec
        from repro.workloads import sha_workload

        job = sweep_job(sha_workload(8, 8), epic_with_alus(2))
        payload, _meta = execute_spec(job)
        assert payload["outcome"] == "ok"
