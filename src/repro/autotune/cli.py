"""``repro-tune``: multi-objective design-space search from the shell.

Examples::

    # Exhaustive sweep of a small space, cycles x slices frontier:
    repro-tune --bench DCT --quick --alus 1,2,4 --forwarding both

    # Fastest machine under 7000 slices with SDC below 1%:
    repro-tune --bench SHA --quick --strategy hill --budget 24 \\
        --objectives cycles,slices,sdc_rate --faults-n 50 \\
        --constraint "slices<=7000" --constraint "sdc_rate<0.01"

    # Parallel + cached, resumable (the report IS the checkpoint):
    repro-tune --bench DCT --quick --jobs 2 --cache /tmp/tune-cache \\
        --out report.json
    repro-tune --bench DCT --quick --resume report.json --out report2.json

The report artifact is deterministic for a given (space, strategy,
seed, settings): no timestamps, no host names, no wall-clock figures.
Timing lives behind ``--timing-out`` so two runs can be diffed
byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.config import epic_config
from repro.errors import ReproError, TuneError
from repro.harness.cli import quick_specs
from repro.harness.tables import BENCHMARK_ORDER
from repro.workloads import WORKLOADS

from repro.autotune.archive import (
    METRIC_SENSES, TuneArchive, parse_constraints,
)
from repro.autotune.evaluate import (
    CandidateEvaluator, DEFAULT_CYCLE_BUDGET,
)
from repro.autotune.search import (
    BATCH_SIZE, STRATEGIES, known_from_report, tune,
)
from repro.autotune.space import (
    SearchSpace, custom_ops_axis, field_axis, latency_axis,
    mine_custom_ops,
)


def _int_list(text: str):
    return [int(part) for part in text.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Search the EPIC configuration space for Pareto-"
                    "optimal machines under constraints, with seeded, "
                    "resumable, byte-reproducible trajectories.",
    )
    parser.add_argument("--bench", default="DCT",
                        choices=list(BENCHMARK_ORDER),
                        help="workload to tune for")
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced benchmark input size")
    parser.add_argument("--strategy", default="exhaustive",
                        choices=list(STRATEGIES),
                        help="search strategy")
    parser.add_argument("--seed", type=int, default=1,
                        help="search seed (non-zero; same seed -> "
                             "byte-identical trajectory)")
    parser.add_argument("--budget", type=int, default=None,
                        help="max candidates to evaluate "
                             "(default: the whole space)")
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE,
                        help="candidates per evaluation batch (fixed "
                             "regardless of --jobs, for determinism)")
    # -- the space -----------------------------------------------------
    parser.add_argument("--alus", type=_int_list, default=[1, 2, 4],
                        metavar="LIST", help="ALU counts, e.g. 1,2,4")
    parser.add_argument("--btrs", type=_int_list, default=None,
                        metavar="LIST", help="branch-target register "
                        "counts, e.g. 4,8,16")
    parser.add_argument("--mem-banks", type=_int_list, default=None,
                        metavar="LIST",
                        help="external memory bank counts, e.g. 1,2,4")
    parser.add_argument("--forwarding", default="on",
                        choices=("on", "off", "both"),
                        help="result forwarding: fix it, or search both")
    parser.add_argument("--latency", action="append", default=[],
                        metavar="CLASS=LIST",
                        help="latency axis, e.g. --latency mul=1,3 "
                             "(repeatable)")
    parser.add_argument("--custom-ops", type=_int_list, default=None,
                        metavar="LIST",
                        help="custom-instruction counts to search, "
                             "e.g. 0,1,2 (mined from the workload)")
    # -- objectives and constraints ------------------------------------
    parser.add_argument("--objectives", default="cycles,slices",
                        metavar="LIST",
                        help="comma-separated objectives (known: "
                             f"{', '.join(sorted(METRIC_SENSES))})")
    parser.add_argument("--constraint", action="append", default=[],
                        metavar="EXPR",
                        help="constraint such as 'slices<=7000' or "
                             "'sdc_rate<0.01' (repeatable)")
    # -- evaluation settings -------------------------------------------
    parser.add_argument("--cycle-budget", type=int,
                        default=DEFAULT_CYCLE_BUDGET,
                        help="per-candidate cycle budget; candidates "
                             "that blow it are pruned, not failed")
    parser.add_argument("--faults-n", type=int, default=0,
                        help="fault injections per candidate (needed "
                             "when sdc_rate is scored)")
    parser.add_argument("--faults-seed", type=int, default=42,
                        help="fault-campaign seed")
    parser.add_argument("--campaign-engine", default="auto",
                        choices=("auto", "vector"),
                        help="campaign execution engine (vector = "
                             "batched lanes; byte-identical outcomes)")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip golden output validation (faster, "
                             "but a miscomputing machine could score)")
    # -- execution and artifacts ---------------------------------------
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="evaluate on N worker processes via "
                             "repro.serve (byte-identical to serial)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="result-cache directory (warm replays "
                             "are byte-identical)")
    parser.add_argument("--resume", metavar="REPORT", default=None,
                        help="prior report to resume from (same space "
                             "and settings required)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report artifact here")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    parser.add_argument("--timing-out", metavar="PATH", default=None,
                        help="write wall-clock timing here (kept out "
                             "of the report so it stays diffable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")
    return parser


def build_space(args, spec) -> SearchSpace:
    axes = [field_axis("n_alus", args.alus)]
    if args.btrs:
        axes.append(field_axis("n_btrs", args.btrs))
    if args.mem_banks:
        axes.append(field_axis("n_mem_banks", args.mem_banks))
    if args.forwarding == "both":
        axes.append(field_axis("forwarding", (True, False)))
    base = epic_config()
    if args.forwarding == "off":
        base = base.with_changes(forwarding=False)
    for text in args.latency:
        op_class, _, values = text.partition("=")
        if not values:
            raise TuneError(
                f"--latency wants CLASS=LIST, got {text!r}")
        axes.append(latency_axis(op_class, _int_list(values)))
    if args.custom_ops:
        top_k = max(args.custom_ops)
        specs = mine_custom_ops(spec, top_k)
        if len(specs) < top_k:
            raise TuneError(
                f"only {len(specs)} custom instruction(s) could be "
                f"mined from {spec.name}, but --custom-ops asked "
                f"for up to {top_k}"
            )
        axes.append(custom_ops_axis(specs, args.custom_ops))
    return SearchSpace(base, axes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def say(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)

    started = time.time()
    executor = None
    try:
        if args.quick:
            spec = quick_specs([args.bench])[0]
        else:
            spec = WORKLOADS[args.bench]()
        space = build_space(args, spec)
        objectives = [name for name in args.objectives.split(",") if name]
        archive = TuneArchive(
            objectives=objectives,
            constraints=parse_constraints(args.constraint))

        cache = None
        if args.jobs > 1:
            from repro.serve import SupervisedPool

            # Warm persistent workers: the DSE loop re-evaluates the
            # same workload across many configs, so candidate jobs ride
            # on workers whose compile caches are already populated.
            executor = SupervisedPool(jobs=args.jobs)
        if args.cache:
            from repro.serve import ResultCache
            cache = ResultCache(args.cache)

        evaluator = CandidateEvaluator(
            spec, archive,
            cycle_budget=args.cycle_budget,
            faults_n=args.faults_n,
            faults_seed=args.faults_seed,
            campaign_engine=args.campaign_engine,
            validate=not args.no_validate,
            executor=executor, cache=cache,
            progress=say)
        if args.resume:
            with open(args.resume, "r", encoding="utf-8") as handle:
                prior = json.load(handle)
            settings = {
                "objectives": list(archive.objectives),
                "constraints": [c.describe()
                                for c in archive.constraints],
                "cycle_budget": args.cycle_budget,
                "faults_n": args.faults_n,
                "faults_seed": args.faults_seed,
                "campaign_engine": args.campaign_engine,
                "validate": not args.no_validate,
            }
            workload = {"name": spec.name,
                        "args": list(spec.instance_args)}
            evaluator.known = known_from_report(
                prior, space, settings, workload)
            say(f"resuming with {len(evaluator.known)} known "
                "evaluation(s)")

        report = tune(space, evaluator, archive,
                      strategy=args.strategy, seed=args.seed,
                      budget=args.budget, batch_size=args.batch_size,
                      progress=say)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"repro-tune: {error}", file=sys.stderr)
        return 1
    finally:
        if executor is not None:
            executor.close()

    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        say(f"report written to {args.out}")
    if args.json:
        print(rendered)
    else:
        say("")
        print(report["archive"]["explain"])
        for entry in report["archive"]["frontier"]:
            values = ", ".join(
                f"{name}={entry['metrics'][name]}"
                for name in archive.objectives)
            print(f"  {entry['describe']}: {values}")
    if args.timing_out:
        timing = {"seconds": round(time.time() - started, 3)}
        with open(args.timing_out, "w", encoding="utf-8") as handle:
            json.dump(timing, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
