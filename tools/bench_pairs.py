"""Alternating parent/change runs of the benchmark, summarised as BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . \
        --workload held-out-eval --pairs 10 --seconds 20 --seed 1

Each pair runs `bench/run.py` once in each checkout, with the same workload,
seed and run length; odd pairs (the first, third, ...) start with the
parent, even pairs with the change. `bench/` must be identical in both checkouts, so both sides are
measured by the same benchmark code. Runs are sequential: one benchmark
process at a time.

The JSON file (written to the change checkout unless `--out` is given) holds
every run's result line, and for each end-to-end metric of BENCHMARK.json
each side's median and quartiles over its successful runs, the change's
wins and losses over the pairs (ties, and pairs where either side failed,
count for neither), each side's failed runs, and three marks, each also
printed beside the metric's summary line:
- `gain_claimable` (printed `claimable`): wins in at least nine tenths of
  all pairs run, no more failed runs than the parent, and a median better
  by more than the parent's interquartile range;
- `worse_than_bound` (`worse than bound`): the change's median is worse
  than the parent's by more than the metric's relative bound;
- `unresolved`: the parent's interquartile range is wider than the bound,
  so these runs cannot tell a change of the bound's size from noise,
  unless every run of the change reads better than every run of the
  parent.
After the pairs, one traced run (`--trace 1`) in each checkout records
the per-layer metrics under `traced`. The file also records `nproc`, the
Python and NumPy versions and both checkouts' git revisions; for a
checkout whose tracked files differ from HEAD, also the sha256 of
`git diff --binary HEAD` over all files but Markdown documents and the
BENCH_*.json outputs, which names the tree measured.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def _git(path: Path, *args) -> str:
    try:
        out = subprocess.run(["git", "-C", str(path), *args], check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return ""
    return out.stdout.strip()


def revision(path: Path) -> dict:
    """HEAD of a checkout and, if its tracked files differ, a digest of how."""
    rev = {"rev": _git(path, "rev-parse", "HEAD"),
           "dirty": bool(_git(path, "status", "--porcelain",
                              "--untracked-files=no"))}
    if rev["dirty"]:
        diff = subprocess.run(["git", "-C", str(path), "diff", "--binary",
                               "HEAD", "--", ".", ":!*.md", ":!BENCH_*.json"],
                              capture_output=True).stdout
        rev["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return rev


def bench_digest(path: Path) -> str:
    """sha256 over the benchmark's source files, by relative name."""
    h = hashlib.sha256()
    for f in sorted((path / "bench").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(path)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def run_once(path: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One `bench/run.py` run; its JSON result, or the failure."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit_code"] = proc.returncode
    if proc.returncode != 0 or not result.get("correct"):
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values)}


def ok(run: dict) -> bool:
    return run["exit_code"] == 0 and bool(run.get("correct"))


def summarise(pairs: list, metric_defs: list) -> dict:
    """Per-metric sides, wins and the claim rule over the recorded pairs.

    Wins are counted against every pair run, so a failed run of the change
    is a pair it did not win.
    """
    failures = {s: sum(not ok(p[s]) for p in pairs)
                for s in ("parent", "change")}
    out = {}
    for m in metric_defs:
        name, lower = m["name"], m["better"] == "lower"
        values = [{s: p[s]["metrics"].get(name, {}).get("value")
                   if ok(p[s]) else None for s in ("parent", "change")}
                  for p in pairs]
        sides = {s: [v[s] for v in values if v[s] is not None]
                 for s in ("parent", "change")}
        if not sides["parent"] or not sides["change"]:
            continue
        parent, change = spread(sides["parent"]), spread(sides["change"])
        both = [(v["parent"], v["change"]) for v in values
                if v["parent"] is not None and v["change"] is not None]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        losses = sum((b > a) if lower else (b < a) for a, b in both)
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        apart = max(sides["change"]) < min(sides["parent"]) if lower \
            else min(sides["change"]) > max(sides["parent"])
        bound = None if m.get("bound") is None \
            else m["bound"] * abs(parent["median"])
        out[name] = {
            "unit": m.get("unit"), "better": m["better"],
            "bound": m.get("bound"), "parent": parent, "change": change,
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "failed": failures,
            "relative_change": (change["median"] - parent["median"])
            / parent["median"] if parent["median"] else None,
            "worse_than_bound": bound is not None and -gain > bound,
            "gain_claimable": wins >= 0.9 * len(pairs)
            and failures["change"] <= failures["parent"]
            and gain > parent["iqr"],
            "unresolved": bound is not None and parent["iqr"] > bound
            and not apart,
        }
    return out


MARKS = (("gain_claimable", "claimable"),
         ("worse_than_bound", "worse than bound"),
         ("unresolved", "unresolved"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout holding the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="output directory "
                    "(default: the change checkout)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    digests = {side: bench_digest(getattr(args, side))
               for side in ("parent", "change")}
    if digests["parent"] != digests["change"]:
        print("error: bench/ differs between the two checkouts",
              file=sys.stderr)
        return 2
    with open(args.change / "BENCHMARK.json") as fh:
        metric_defs = json.load(fh)["end_to_end"]

    revisions = {side: revision(getattr(args, side))
                 for side in ("parent", "change")}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload,
                                  args.seed, args.seconds)
        pairs.append(pair)
        cmd = {s: pair[s]["metrics"].get("command_s", {}).get("value")
               for s in ("parent", "change")}
        print(f"pair {i + 1}/{args.pairs}: command_s parent {cmd['parent']} "
              f"change {cmd['change']}", flush=True)

    traced = {side: run_once(getattr(args, side), args.workload, args.seed,
                             args.seconds, trace=1)
              for side in ("parent", "change")}

    failed = [f"pair {i + 1} {s}" for i, p in enumerate(pairs)
              for s in ("parent", "change") if not ok(p[s])]
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        **revisions,
        "bench_sha256": digests["change"], "failed_runs": failed,
        "metrics": summarise(pairs, metric_defs),
        "traced": traced,
        "runs": pairs,
    }
    out = (args.out or args.change) / f"BENCH_{args.workload}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, m in doc["metrics"].items():
        marks = [label for key, label in MARKS if m[key]]
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  "
              f"change {m['change']['median']:.6g} "
              f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  "
              f"wins {m['wins']}/{m['pairs']}"
              + "".join(f"  {label}" for label in marks))
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
