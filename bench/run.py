"""Benchmark of the superdraw command line: training, evaluation, export.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Runs one workload (see `workloads.py` and README.md) from the root of a
source checkout, importing `superdraw` from `src/`. The last line of stdout
is one JSON object: whether every check passed, the operations attempted
and failed, and the end-to-end metrics (`--trace 0`) or the per-layer
metrics of a traced run (`--trace 1`). Run outputs go to `.bench_runs/`
and are deleted afterwards, except the traced run's span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from spans import MODULES, WRITERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

# Per-layer metrics of a traced run, per measured round:
# (name, unit, span or counter, kind).
LAYER_METRICS = (
    ("autodiff.backward.s", "s", "autodiff.backward", "inclusive"),
    ("autodiff.tape_nodes", "count", "autodiff.tape_nodes", "counter_once"),
    ("trainer.batch_objective.s", "s", "trainer.batch_objective",
     "inclusive"),
    ("trainer.batch_objective.self_s", "s", "trainer.batch_objective",
     "self"),
    ("trainer.adam_step.s", "s", "trainer.adam_step", "inclusive"),
    ("esg.panel_take.s", "s", "esg.panel_take", "inclusive"),
    ("trainer.iterations_to_target", "count", None, "target"),
    ("account.age_pension.s", "s", "account.age_pension", "inclusive"),
    ("account.fees.s", "s", "account.fees", "inclusive"),
    ("account.transition_balance.s", "s", "account.transition_balance",
     "inclusive"),
    ("utility.consumption_utility.s", "s", "utility.consumption_utility",
     "inclusive"),
    ("utility.bequest_utility.s", "s", "utility.bequest_utility",
     "inclusive"),
    ("policy.normalized_inputs.s", "s", "policy.normalized_inputs",
     "inclusive"),
    ("policy.policy_fraction.s", "s", "policy.policy_fraction", "inclusive"),
    ("policy.save_checkpoint.s", "s", "policy.save_checkpoint", "inclusive"),
    ("policy.save_checkpoint.calls", "count", "policy.save_checkpoint",
     "calls"),
    ("mortality.load_life_table.s", "s", "mortality.load_life_table",
     "inclusive"),
    ("mortality.load_life_table.calls", "count",
     "mortality.load_life_table", "calls"),
    ("esg.simulate.s", "s", "esg.simulate", "inclusive"),
    ("esg.simulate.path_years", "count", "esg.simulate.path_years",
     "counter"),
    ("baselines.rollout_strategy.s", "s", "baselines.rollout_strategy",
     "inclusive"),
    ("baselines.rollout_strategy.calls", "count",
     "baselines.rollout_strategy", "calls"),
    ("evaluator.compare.s", "s", "evaluator.compare", "inclusive"),
    ("evaluator.outperformance_curve.s", "s",
     "evaluator.outperformance_curve", "inclusive"),
    ("evaluator.panel_rollouts", "count", "trainer.rollout_consume", "calls"),
    ("policy.load_checkpoint.s", "s", "policy.load_checkpoint", "inclusive"),
    ("evaluator.utility_diff_density.s", "s",
     "evaluator.utility_diff_density", "inclusive"),
    ("evaluator.median_paths.s", "s", "evaluator.median_paths", "inclusive"),
    ("evaluator.write_csv.s", "s", "evaluator.write_csv", "writers"),
    ("evaluator.write_csv.bytes", "bytes", "evaluator.write_csv.bytes",
     "counter"),
    ("esg.calibrate.s", "s", "esg.calibrate", "inclusive"),
    ("esg.panel_to_csv.s", "s", "esg.panel_to_csv", "inclusive"),
    ("esg.panel_to_csv.bytes", "bytes", "esg.panel_to_csv.bytes", "counter"),
    ("cli.command.self_s", "s", "cli", "module_self"),
) + tuple((f"{m}.self_s", "s", m, "module_self") for m in MODULES
          if m != "cli") + (
    ("trace.command_s", "s", None, "command"),
    ("trace.unaccounted_s", "s", None, "unaccounted"),
)


def layer_metrics(tracer, rounds, result) -> dict:
    """Per-round figures from the aggregated spans of the traced commands."""
    n = len(rounds)
    out = {}
    for name, unit, key, kind in LAYER_METRICS:
        if kind == "inclusive":
            value = tracer.inclusive(key) / n
        elif kind == "self":
            value = tracer.self_time(key) / n
        elif kind == "calls":
            value = tracer.calls(key) / n
        elif kind == "counter":
            value = tracer.counters[key] / n
        elif kind == "counter_once":
            value = tracer.counters[key]
        elif kind == "module_self":
            value = tracer.module_self(key) / n
        elif kind == "writers":
            value = sum(tracer.inclusive(f"evaluator.{w}")
                        for w in WRITERS) / n
        elif kind == "target":
            value = result.get("iterations_to_target", 0)
        elif kind == "command":
            value = sum(rounds) / n
        else:
            value = (sum(rounds) - tracer.total_self()) / n
        out[name] = {"value": value, "unit": unit}
    return out


def end_to_end_metrics(run, result) -> dict:
    values = {"setup_s": (statistics.median(run.setup), "s"),
              "command_s": (statistics.median(run.rounds), "s"),
              "time_to_target_s": (result.get("time_to_target_s"), "s"),
              "rate_per_s": (result.get("rate_per_s"), "1/s"),
              "peak_rss_mb": (run.peak_rss_mb, "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()
            if v is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-train", "held-out-eval", "scenario-export"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "superdraw" / "cli.py").is_file():
        print(f"error: no superdraw sources under {SRC}", file=sys.stderr)
        return 2

    # One process; BLAS may use at most one thread per available core.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    tracer = Tracer() if args.trace else None
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(work, args.seed, args.seconds, tracer)
    correct = True
    result = {}
    try:
        result = workloads.WORKLOADS[args.workload](run)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not run.rounds:
        return 1
    if tracer:
        metrics = layer_metrics(tracer, run.rounds, result)
        spans = {name: {"calls": c, "inclusive_s": t, "self_s": t - child}
                 for name, (c, t, child) in sorted(tracer.spans.items())}
        with open(OUT / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"rounds": run.rounds, "spans": spans,
                       "counters": tracer.counters}, fh, indent=1)
    else:
        metrics = end_to_end_metrics(run, result)
    print(json.dumps({"correct": correct and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
