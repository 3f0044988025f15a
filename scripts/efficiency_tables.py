#!/usr/bin/env python3
"""Reproduce the regression and ARIMA efficiency-comparison tables.

Writes two CSVs of empirical efficiency coefficients ghat2 per error
distribution and sample size.  Desk-scale replication counts by default;
pass --full for publication-scale runs.

Usage:
    python3 scripts/efficiency_tables.py --outdir results [--full] [--jobs 4]
"""

import argparse
from dataclasses import replace
from pathlib import Path

from pmmest.mcbench import InnovationSpec, McSpec, run_monte_carlo
from pmmest.tscore import ModelOrder

REGRESSION_ERRORS = [
    ("gaussian", InnovationSpec("gaussian")),
    ("gamma(2,1)", InnovationSpec("gamma", (2.0, 1.0))),
    ("lognormal(0,0.55)", InnovationSpec("lognormal", (0.0, 0.55))),
    ("chisq(3)", InnovationSpec("chisq", (3.0,))),
    ("uniform(-1,1)", InnovationSpec("uniform")),
    ("beta(2,5)", InnovationSpec("beta", (2.0, 5.0))),
]

ARIMA_ERRORS = REGRESSION_ERRORS[:4]


REGRESSION = McSpec("regression", (1.0, 2.5), InnovationSpec("gaussian"), 50)
ARIMA = McSpec("arima", (0.7,), InnovationSpec("gaussian"), 100,
               order=ModelOrder(p=1, d=1, q=0))


def run_table(template, leading, errors, sizes, n_sim, seed, jobs):
    """ghat2 of parameter ``leading`` per error law and size, on ``template``'s model."""
    specs = [replace(template, innovations=innov, n=n, label=f"{name}_n{n}")
             for name, innov in errors for n in sizes]
    _, summary = run_monte_carlo(specs, ("ols", "pmm2"), n_sim, seed=seed,
                                 n_jobs=jobs)
    lines = ["distribution," + ",".join(f"n={n}" for n in sizes) + ",g2_theory"]
    for name, innov in errors:
        cells = [f"{summary.get(f'{name}_n{n}', 'pmm2', leading).gain:.3f}"
                 for n in sizes]
        theory = summary.get(f"{name}_n{sizes[0]}", "pmm2", leading).theory_g
        lines.append(f"{name}," + ",".join(cells) + f",{theory:.3f}")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--full", action="store_true",
                        help="publication-scale replication counts")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reg_sim = 2000 if args.full else 500
    ts_sim = 500 if args.full else 300

    print(f"regression table ({reg_sim} replications) ...", flush=True)
    table = run_table(REGRESSION, "x1", REGRESSION_ERRORS, [50, 100, 200, 500],
                      reg_sim, args.seed, args.jobs)
    (outdir / "regression_efficiency.csv").write_text(table)
    print(table)

    print(f"ARIMA(1,1,0) table ({ts_sim} replications) ...", flush=True)
    table = run_table(ARIMA, "ar1", ARIMA_ERRORS, [100, 200, 500],
                      ts_sim, args.seed, args.jobs)
    (outdir / "arima_efficiency.csv").write_text(table)
    print(table)


if __name__ == "__main__":
    main()
