"""Train the desk configuration on several training seeds and score each run.

    python3 tools/seed_sweep.py --seeds 5 --iterations 800

For each training seed 1..N this runs `superdraw train` on the benchmark's
desk configuration (`bench/workloads.write_config` with the training seed
replaced) with a checkpoint every 50 iterations, then `superdraw evaluate`
of the checkpoint directory on 10,000 held-out paths (seed 777 unless
`--test-seed` says otherwise). Both run in this process through
`superdraw.cli.main`, in a temporary directory. It prints one row per
seed: the first checkpoint whose policy beats every baseline on at least
99% of the held-out paths (`bench/checks.target_iteration`; "-" if none
does), the first that beats every baseline on every held-out path (the
same function at a share of 1), then the minimum over the six baselines
of the paths the policy beats, every 100 iterations, and last the lowest
such count at any checkpoint from the first one at 99% on ("-" if none
reaches 99%): a collapse after the target shows there.

`--src` names the source tree whose `superdraw` runs (default: this
checkout's `src/`), so the same sweep scores another checkout, for
example a parent commit.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

EVERY = 50            # checkpoint cadence
PRINT_EVERY = 100     # iterations between printed win counts


def write_config(path: Path, seed: int, iterations: int) -> Path:
    """The benchmark's desk config, trained on `seed`."""
    workloads.write_config(path, iterations, EVERY)
    cp = configparser.ConfigParser()
    cp.read(path)
    cp["train"]["seed"] = str(seed)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _cell(iteration) -> str:
    """An iteration as printed; "-" where there is none."""
    return "-" if iteration is None else str(iteration)


def run_cli(main, argv) -> None:
    """One command with its stdout discarded; a non-zero exit ends the
    sweep."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"exit {code}: superdraw {' '.join(map(str, argv))}")


def sweep_seed(main, seed: int, work: Path, iterations: int,
               test_seed: int) -> Path:
    """Train and evaluate one seed; returns its outperformance.csv."""
    config = write_config(work / f"seed{seed}.ini", seed, iterations)
    run = work / f"seed{seed}"
    run_cli(main, ["train", "--config", config, "--out", run])
    run_cli(main, ["evaluate", "--config", config, "--checkpoint",
                   run / "checkpoints", "--m-test", workloads.M_TEST,
                   "--seed", test_seed, "--out", run / "eval"])
    return run / "eval" / "outperformance.csv"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=5,
                    help="train on seeds 1..N (default 5)")
    ap.add_argument("--iterations", type=int, default=800)
    ap.add_argument("--test-seed", type=int, default=workloads.TEST_SEED)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree of the superdraw to run")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from superdraw.cli import main as superdraw_main

    m_test, share = workloads.M_TEST, workloads.TARGET_SHARE
    shown = list(range(PRINT_EVERY, args.iterations + 1, PRINT_EVERY))
    print(f"superdraw from {args.src}; held-out seed {args.test_seed}, "
          f"{m_test} paths; target {math.ceil(share * m_test)} wins")
    print("seed  99% at  100% at  min wins at "
          + " ".join(f"{it:>6d}" for it in shown) + "  from 99%", flush=True)
    with tempfile.TemporaryDirectory(prefix="seed_sweep_") as tmp:
        for seed in range(1, args.seeds + 1):
            csv_path = sweep_seed(superdraw_main, seed, Path(tmp),
                                  args.iterations, args.test_seed)
            wins = {it: min(counts.values()) for it, counts in
                    checks.read_outperformance(csv_path).items()}
            first = checks.target_iteration(csv_path, m_test, share)
            every = checks.target_iteration(csv_path, m_test, 1.0)
            cells = " ".join(f"{wins[it]:>6d}" if it in wins else f"{'-':>6}"
                             for it in shown)
            low = "-" if first is None else min(
                n for it, n in wins.items() if it >= first)
            print(f"{seed:>4}  {_cell(first):>6}  {_cell(every):>7}  "
                  f"{'':12}{cells}  {low:>8}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
