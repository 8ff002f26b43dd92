"""Shows that every correctness check of the benchmark can fail.

    python3 bench/selftest.py

Builds small real outputs with the superdraw command line (a 20-iteration
training run, an evaluation on 300 held-out paths, a 200-path scenario
panel), confirms that each check accepts them, then feeds each check a copy
with one corruption and expects it to raise CheckFailed. Exits 0 when every
check accepted the clean output and rejected the corrupted one. Takes a few
seconds; files go to `.bench_runs/selftest-<pid>` and are removed.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

M_TEST = 300
M_PANEL = 200


def rewrite_csv(src: Path, dst: Path, edit) -> Path:
    """Copy a CSV, passing each data row (a dict) through `edit`."""
    with open(src, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    with open(dst, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\r\n")
        w.writeheader()
        for i, row in enumerate(rows):
            w.writerow(edit(i, dict(row)))
    return dst


def copy_dir(src: Path, dst: Path) -> Path:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def main() -> int:
    work = ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path) -> int:
    run = workloads.Run(work, seed=11, seconds=0, tracer=None)
    config = workloads.write_config(work / "c.ini", 20, 5)
    train, ev = work / "train", work / "eval"
    run.command(["train", "--config", config, "--out", train])
    run.command(["evaluate", "--config", config, "--checkpoint",
                 train / "checkpoints", "--m-test", M_TEST, "--seed",
                 workloads.TEST_SEED, "--out", ev])
    cal, sim, one = work / "cal", work / "sim", work / "one"
    run.command(["calibrate", "--out", cal])
    for m, out in ((M_PANEL, sim), (1, one)):
        run.command(["simulate", "--params", cal / "params.ini", "--m", m,
                     "--t", workloads.EXPORT_T, "--seed",
                     workloads.EXPORT_SEED, "--out", out])

    model = ref.Model.from_config_used(ev / "config_used.ini")
    final = train / "checkpoints" / "checkpoint_final.npz"
    net = ref.load_mlp(final)
    paths = run.sample(4, M_TEST)
    walks = checks.reference_walks(model, net, workloads.TEST_SEED, paths[0])
    first_year = {label: c[0] for label, (_, c) in walks.items()}
    counts = checks.read_outperformance(ev / "outperformance.csv")
    best = max(min(c.values()) for c in counts.values())
    share = best / M_TEST
    params = ref.read_params_file(cal / "params.ini")
    omega = model.account["omega"]
    T = workloads.EXPORT_T
    cols = checks.load_panel(sim / "panel.csv", M_PANEL, T)

    g_model, g_net, program_gradient, draw = workloads.gradient_setup(
        run, config, train)

    def gradient_check(provider):
        checks.check_gradients(g_model, g_net, workloads.TRAIN_SEED, [5, 17],
                               draw, provider, per_path=3)

    def scaled_gradient(m):
        value, grads = program_gradient(m)
        return value, {n: g * (1.0 + 1e-3) for n, g in grads.items()}

    def bad_utilities():
        def edit(i, row):
            if int(row["path"]) == paths[0] and row["strategy"] == "luxury":
                row["utility"] = f"{float(row['utility']) * (1 + 1e-7):.10g}"
            return row
        return rewrite_csv(ev / "utilities.csv", work / "u.csv", edit)

    def bad_count():
        last = max(counts)

        def edit(i, row):
            if int(row["iter"]) == last and row["strategy"] == "minimum":
                row["count"] = str(int(row["count"]) + 1)
            return row
        return rewrite_csv(ev / "outperformance.csv", work / "o.csv", edit)

    def bad_kde():
        d = copy_dir(ev, work / "eval_kde")
        rewrite_csv(ev / "kde_modest.csv", d / "kde_modest.csv",
                    lambda i, r: {**r, "density":
                                  f"{float(r['density']) * 1.01:.10g}"})
        return d

    def bad_median():
        d = copy_dir(ev, work / "eval_med")
        rewrite_csv(ev / "medians_policy.csv", d / "medians_policy.csv",
                    lambda i, r: {**r, "consumption": f"{float(r['consumption']) + 1:.10g}"}
                    if i == 0 else r)
        return d

    def bad_target():
        return rewrite_csv(ev / "outperformance.csv", work / "t.csv",
                           lambda i, r: {**r, "count": str(int(r["count"]) - 1)})

    def bad_report():
        rows = checks.read_report(train / "report.csv")
        first = rows[0][1]
        n = len(rows)
        return rewrite_csv(train / "report.csv", work / "r.csv",
                           lambda i, r: {**r, "objective": repr(first - 1.0)}
                           if i == n - 1 else r)

    def bad_params():
        text = (cal / "params.ini").read_text().splitlines()
        out = [f"psi_n1 = {params['psi_n1'] * (1 + 1e-6)!r}"
               if line.startswith("psi_n1") else line for line in text]
        path = work / "p.ini"
        path.write_text("\n".join(out) + "\n")
        return path

    def bad_cols(column, m, t, value):
        c = {k: v.copy() for k, v in cols.items()}
        c[column][m, t] = value(c[column][m, t])
        return c

    def bad_single():
        return rewrite_csv(one / "panel.csv", work / "one.csv",
                           lambda i, r: {**r, "e": r["e"] + "1"}
                           if i == 7 else r)

    sampled = run.sample(3, M_PANEL)
    cases = [
        ("objective rises", lambda p: checks.check_objective_rises(p),
         train / "report.csv", bad_report),
        ("target crossed", lambda p: checks.check_target(p, M_TEST, share, 20),
         ev / "outperformance.csv", bad_target),
        ("BPTT vs finite differences", gradient_check, program_gradient,
         lambda: scaled_gradient),
        ("sampled utilities", lambda p: checks.check_sampled_utilities(
            p, model, net, workloads.TEST_SEED, paths),
         ev / "utilities.csv", bad_utilities),
        ("outperformance recount", lambda p: checks.check_outperformance_recount(
            ev / "utilities.csv", p, 20), ev / "outperformance.csv", bad_count),
        ("KDE", lambda d: checks.check_kde(d, ev / "utilities.csv"), ev,
         bad_kde),
        ("first-year median", lambda d: checks.check_first_year_median(
            d, first_year, model.retirement_age), ev, bad_median),
        ("OLS normal equations", checks.check_ols, cal / "params.ini",
         bad_params),
        ("panel Q identity", lambda c: checks.check_panel_identities(c, omega),
         cols, lambda: bad_cols("Q", 3, 9, lambda v: v * (1 + 1e-6))),
        ("panel R formula", lambda c: checks.check_panel_identities(c, omega),
         cols, lambda: bad_cols("R", 150, 30, lambda v: v + 1e-6)),
        ("path 0 alone", lambda p: checks.check_first_block(
            sim / "panel.csv", p, T), one / "panel.csv", bad_single),
        ("last-year mean of q", lambda c: checks.check_q_mean(
            c, params["mu_q"]), cols,
         lambda: {**cols, "q": cols["q"] + np.eye(1, T + 1, T) * 0.01}),
        ("reference scenario paths", lambda c: checks.check_reference_paths(
            c, params, workloads.EXPORT_SEED, omega, sampled), cols,
         lambda: bad_cols("o", sampled[1], 12, lambda v: v + 1e-7)),
    ]
    bad = 0
    for name, check, clean, corrupt in cases:
        try:
            check(clean)
        except checks.CheckFailed as exc:
            print(f"FAIL  {name}: rejected the clean output: {exc}")
            bad += 1
            continue
        try:
            check(corrupt())
        except checks.CheckFailed as exc:
            print(f"ok    {name}: rejected the corruption ({exc})")
        else:
            print(f"FAIL  {name}: accepted the corrupted output")
            bad += 1
    print(f"{len(cases) - bad}/{len(cases)} checks accept clean output and "
          f"reject a corrupted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
