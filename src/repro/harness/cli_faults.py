"""``repro-faults``: seeded SEU fault-injection campaigns from the shell.

Examples::

    repro-faults --quick --n 100 --seed 42          # all four benchmarks
    repro-faults --bench SHA --alus 4 --n 100       # the acceptance run
    repro-faults --quick --n 50 --protect-regfile ecc --protect-memory parity
    repro-faults --quick --n 20 --policy squash-bundle --json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import PROTECTION_SCHEMES, TRAP_POLICIES, epic_with_alus
from repro.errors import ReproError
from repro.fpga import estimate_resources
from repro.harness.cli import quick_specs
from repro.harness.faultcampaign import (
    AB_GATES,
    DEFAULT_SPACES,
    campaign_payload,
    measure_speedup,
    render_vulnerability_table,
    run_campaign,
)
from repro.harness.tables import BENCHMARK_ORDER
from repro.reliability import FAULT_SPACES
from repro.workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="Run seeded SEU fault-injection campaigns against the "
                    "EPIC core, lockstep-checked against the IR golden "
                    "model.",
    )
    parser.add_argument("--bench", nargs="*", default=list(BENCHMARK_ORDER),
                        choices=list(BENCHMARK_ORDER),
                        help="benchmarks to attack")
    parser.add_argument("--alus", nargs="*", type=int, default=[4],
                        help="ALU counts (machine presets) to evaluate")
    parser.add_argument("--n", type=int, default=100,
                        help="injections per (benchmark, machine) pair")
    parser.add_argument("--seed", type=int, default=42,
                        help="campaign seed (same seed -> identical table)")
    parser.add_argument("--quick", action="store_true",
                        help="use reduced benchmark input sizes")
    parser.add_argument("--spaces", nargs="*", default=list(DEFAULT_SPACES),
                        choices=list(FAULT_SPACES),
                        help="fault target spaces to draw from")
    parser.add_argument("--policy", default="halt", choices=TRAP_POLICIES,
                        help="architectural trap policy")
    parser.add_argument("--protect-regfile", default="none",
                        choices=PROTECTION_SCHEMES,
                        help="register-file SEU protection")
    parser.add_argument("--protect-memory", default="none",
                        choices=PROTECTION_SCHEMES,
                        help="data-memory SEU protection")
    parser.add_argument("--watchdog", type=float, default=4.0,
                        help="hang watchdog, as a multiple of the "
                             "fault-free cycle count")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard each campaign over N worker "
                             "processes via repro.serve (default: serial; "
                             "the report is byte-identical either way)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one progress line per injection "
                             "instead of one per 25")
    parser.add_argument("--no-checkpoints", action="store_true",
                        help="disable golden checkpoint fast-forwarding "
                             "(the outcome table is identical either way)")
    parser.add_argument("--checkpoint-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="golden checkpoint spacing in cycles "
                             "(default: ~24 checkpoints per workload)")
    parser.add_argument("--checkpoint-store", default=None, metavar="DIR",
                        help="content-addressed on-disk store for golden "
                             "checkpoint streams, shared across processes")
    parser.add_argument("--timing-out", default=None, metavar="FILE",
                        help="write campaign throughput timings (JSON; "
                             "non-deterministic, kept out of --json output)")
    parser.add_argument("--gate-checkpoint-speedup", type=float,
                        default=None, metavar="X",
                        help="run each campaign both from zero and "
                             "checkpointed, verify identical outcome "
                             "tables, and fail unless the checkpointed "
                             "pass is >= X times faster")
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "vector"),
                        help="campaign classification engine: 'auto' "
                             "(scalar checker) or 'vector' (batched "
                             "lane engine; byte-identical outcomes)")
    parser.add_argument("--gate-vector-speedup", type=float,
                        default=None, metavar="X",
                        help="run each campaign scalar-checkpointed and "
                             "vector, verify identical outcome tables, "
                             "and fail unless the vector pass is >= X "
                             "times faster")
    parser.add_argument("--gate-repeat", type=int, default=3, metavar="N",
                        help="best-of-N timing trials per engine for "
                             "--gate-vector-speedup (every trial is still "
                             "byte-compared; N > 1 damps host noise)")
    parser.add_argument("--gate-retired-fraction", type=float,
                        default=None, metavar="F",
                        help="with --gate-vector-speedup: fail unless the "
                             "fraction of lanes genuinely retired to the "
                             "scalar checker (fetch-fault re-walks "
                             "excluded) is < F")
    parser.add_argument("--retirement-out", default=None, metavar="FILE",
                        help="write a per-reason lane-retirement artifact "
                             "(JSON) from the vector engine's telemetry")
    arguments = parser.parse_args(argv)

    if arguments.n < 1:
        print("repro-faults: --n must be >= 1", file=sys.stderr)
        return 2
    if arguments.jobs < 1:
        print("repro-faults: --jobs must be >= 1", file=sys.stderr)
        return 2
    if arguments.seed == 0:
        print("repro-faults: --seed must be non-zero (the campaign PRNG "
              "cannot hold state 0)", file=sys.stderr)
        return 2

    if arguments.gate_checkpoint_speedup is not None \
            and arguments.gate_vector_speedup is not None:
        print("repro-faults: pick one gate (--gate-vector-speedup or "
              "--gate-checkpoint-speedup)", file=sys.stderr)
        return 2
    gate_name = gate_value = None
    if arguments.gate_checkpoint_speedup is not None:
        gate_name, gate_value = ("checkpoint",
                                 arguments.gate_checkpoint_speedup)
    elif arguments.gate_vector_speedup is not None:
        gate_name, gate_value = "vector", arguments.gate_vector_speedup
    if gate_name is not None:
        flag = f"--gate-{gate_name}-speedup"
        if arguments.jobs > 1:
            print(f"repro-faults: {flag} measures the serial path; drop "
                  f"--jobs", file=sys.stderr)
            return 2
        if arguments.no_checkpoints:
            print(f"repro-faults: {flag} times a checkpointed pass; drop "
                  f"--no-checkpoints", file=sys.stderr)
            return 2
        if arguments.gate_repeat < 1:
            print("repro-faults: --gate-repeat must be >= 1",
                  file=sys.stderr)
            return 2
    if arguments.gate_retired_fraction is not None \
            and arguments.gate_vector_speedup is None:
        print("repro-faults: --gate-retired-fraction needs "
              "--gate-vector-speedup (it reads the vector pass's "
              "retirement telemetry)", file=sys.stderr)
        return 2

    if arguments.quick:
        specs = quick_specs(arguments.bench)
    else:
        specs = [WORKLOADS[name]() for name in arguments.bench]

    # Checkpointing knobs travel via the environment so that serve
    # worker processes (--jobs) observe the same settings; they are
    # perf knobs only and never enter job digests or the JSON report.
    if arguments.no_checkpoints:
        import os

        os.environ["REPRO_CHECKPOINTS"] = "0"
    if arguments.checkpoint_store:
        import os

        os.environ["REPRO_CHECKPOINT_STORE"] = arguments.checkpoint_store
    store = None
    if arguments.checkpoint_store:
        from repro.core.snapshot import CheckpointStore

        store = CheckpointStore(arguments.checkpoint_store)

    executor = None
    if arguments.jobs > 1:
        from repro.serve import SupervisedPool

        # Warm persistent workers: every shard of every campaign in
        # this invocation shares the same (workload, config) checker
        # memos via affinity routing.
        executor = SupervisedPool(jobs=arguments.jobs)

    injections_done = [0]

    def per_injection(result) -> None:
        injections_done[0] += 1
        if arguments.verbose:
            fault = result.fault.describe() if result.fault else "none"
            print(f"    [{injections_done[0]}/{arguments.n}] {fault}: "
                  f"{result.outcome.value}", file=sys.stderr)

    reports = []
    resources = []
    timings = []
    gate_failures = []
    try:
        for spec in specs:
            for n_alus in arguments.alus:
                config = epic_with_alus(
                    n_alus,
                    trap_policy=arguments.policy,
                    regfile_protection=arguments.protect_regfile,
                    memory_protection=arguments.protect_memory,
                )
                injections_done[0] = 0
                if gate_name is not None:
                    report, timing = measure_speedup(
                        gate_name, spec, config, arguments.n,
                        arguments.seed,
                        spaces=arguments.spaces,
                        watchdog_factor=arguments.watchdog,
                        checkpoint_interval=arguments.checkpoint_interval,
                        checkpoint_store=store,
                        repeat=(arguments.gate_repeat
                                if gate_name == "vector" else 1),
                    )
                    (baseline, _, _), (measured, _, _) = \
                        AB_GATES[gate_name]
                    verdict = ("ok" if timing["speedup"] >= gate_value
                               else "FAIL")
                    if verdict == "FAIL":
                        gate_failures.append(timing)
                    print(f"  {report.workload} {report.machine}: "
                          f"{measured} {timing['faults_per_s']:.1f} "
                          f"faults/s vs {baseline} "
                          f"{timing['baseline']['faults_per_s']:.1f} — "
                          f"speedup {timing['speedup']:.2f}x "
                          f"(gate {gate_value:.1f}x): {verdict}",
                          file=sys.stderr)
                    if arguments.gate_retired_fraction is not None:
                        retired_fraction = (timing["scalar_faults"]
                                            / arguments.n)
                        timing["retired_fraction"] = retired_fraction
                        limit = arguments.gate_retired_fraction
                        verdict = ("ok" if retired_fraction < limit
                                   else "FAIL")
                        if verdict == "FAIL":
                            gate_failures.append(timing)
                        print(f"  {report.workload} {report.machine}: "
                              f"{timing['scalar_faults']}/"
                              f"{arguments.n} lanes retired to scalar "
                              f"({retired_fraction:.1%}, gate "
                              f"<{limit:.0%}): {verdict}",
                              file=sys.stderr)
                else:
                    report = run_campaign(
                        spec, config, arguments.n, arguments.seed,
                        spaces=arguments.spaces,
                        watchdog_factor=arguments.watchdog,
                        progress=lambda message: print(f"  {message}",
                                                       file=sys.stderr),
                        on_result=per_injection,
                        executor=executor,
                        checkpoints=(False if arguments.no_checkpoints
                                     else None),
                        checkpoint_interval=arguments.checkpoint_interval,
                        checkpoint_store=store,
                        engine=arguments.engine,
                    )
                    timing = dict(report.timing)
                    timing.update(workload=report.workload,
                                  machine=report.machine,
                                  n=report.n, seed=report.seed)
                    print(f"  {report.workload} {report.machine}: "
                          f"{timing['faults_per_s']:.1f} faults/s "
                          f"({timing['ff_cycles_skipped']} prefix "
                          f"cycles skipped, "
                          f"{timing['ff_convergence_cuts']} convergence "
                          f"cuts)", file=sys.stderr)
                    if "vector_occupancy" in timing:
                        print(f"    vector: "
                              f"{timing['vector_faults']} lanes, "
                              f"{timing['rewalk_lanes']} re-walked, "
                              f"{timing['scalar_faults']} retired to "
                              f"scalar, occupancy "
                              f"{timing['vector_occupancy']:.2f} "
                              f"(+{timing['wasted_retired_cycles']:.2f} "
                              f"wasted)",
                              file=sys.stderr)
                    if arguments.verbose and timing.get(
                            "engine_downgrade_reason"):
                        print(f"    vector engine downgraded to "
                              f"scalar: "
                              f"{timing['engine_downgrade_reason']}",
                              file=sys.stderr)
                timings.append(timing)
                reports.append(report)
                estimate = estimate_resources(config)
                resources.append({
                    "machine": report.machine,
                    "slices": estimate.slices,
                    "block_rams": estimate.block_rams,
                })
    except ReproError as error:
        print(f"repro-faults: {error}", file=sys.stderr)
        return 1
    finally:
        if executor is not None:
            executor.close()

    if arguments.timing_out:
        with open(arguments.timing_out, "w", encoding="utf-8") as handle:
            json.dump({
                "timings": timings,
                "gate": gate_value,
                "gate_failures": len(gate_failures),
            }, handle, indent=2)
            handle.write("\n")
    if arguments.retirement_out:
        retirements = [{
            "workload": timing["workload"],
            "machine": timing["machine"],
            "retired": timing["retired"],
            "scalar_faults": timing["scalar_faults"],
            "rewalk_lanes": timing["rewalk_lanes"],
            "retired_fraction": timing["scalar_faults"] / arguments.n,
            "engine_downgrade_reason": timing["engine_downgrade_reason"],
        } for timing in timings if "retired" in timing]
        with open(arguments.retirement_out, "w",
                  encoding="utf-8") as handle:
            json.dump({
                "n": arguments.n,
                "seed": arguments.seed,
                "gate_retired_fraction": arguments.gate_retired_fraction,
                "campaigns": retirements,
            }, handle, indent=2)
            handle.write("\n")

    exit_code = 0
    if gate_failures:
        print(f"repro-faults: {gate_name} speedup gate "
              f"({gate_value:.1f}x) failed for "
              f"{len(gate_failures)} campaign(s)", file=sys.stderr)
        exit_code = 1

    if arguments.json:
        payload = {
            "seed": arguments.seed,
            "n": arguments.n,
            "policy": arguments.policy,
            "protection": {
                "regfile": arguments.protect_regfile,
                "memory": arguments.protect_memory,
            },
            "campaigns": campaign_payload(reports),
            "resources": resources,
        }
        print(json.dumps(payload, indent=2))
        return exit_code

    print(f"Fault-injection campaigns: N={arguments.n}, "
          f"seed={arguments.seed}, policy={arguments.policy}, "
          f"regfile={arguments.protect_regfile}, "
          f"memory={arguments.protect_memory}")
    print()
    print(render_vulnerability_table(reports))
    if arguments.protect_regfile != "none" or arguments.protect_memory != "none":
        print()
        for entry in resources:
            print(f"  {entry['machine']}: {entry['slices']} slices, "
                  f"{entry['block_rams']} BRAM (with protection)")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
