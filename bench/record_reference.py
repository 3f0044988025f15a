"""Record the reference outputs that bench/run.py checks, one entry per seed.

Run from the repository root, with the tree's ``src`` on the path:

    PYTHONPATH=src python3 bench/record_reference.py 0 64

records seeds 0..63 of every workload into bench/reference.json.  The values
are the outputs of the tree it runs against; record them only at a commit
whose numbers are the accepted ones.  CLI reports come from ``cli.main`` in
process, which runs the same code as ``python -m pmmest.cli``.

Tolerance: a value passes when |got - recorded| <= ATOL + RTOL * |recorded|.
Refitting every time-series job with scipy's Nelder-Mead at tight tolerances
in place of ``minimize_qn`` moved estimates, bootstrap standard errors and
grid gains by at most 2e-7 absolute and 2e-6 relative, so RTOL is 50 times
that optimizer-path difference.  The sampling spread of the same numbers is
5-10% relative (B = 100..500 replicates, n_sim = 100..300), so RTOL stays
about 500 times below it.
"""

import json
import os
import shutil
import sys
import warnings

import pmmest
import pmmest.cli

import run
import workloads

RTOL = 1e-4
ATOL = 1e-6


def _rounded(values: dict) -> dict:
    return {job: {k: [v if isinstance(v, str) else float(f"{v:.10g}") for v in vals]
                  for k, vals in keys.items()}
            for job, keys in values.items()}


def in_process(workload, seed, root):
    inputs = workloads.make_inputs(workload, seed, root)
    outputs = {job.name: job.outputs(job.run(pmmest, inputs))
               for job in workloads.jobs(workload)}
    return run.reference_subset(outputs)


def cli(seed, tmp):
    inputs = workloads.write_cli_inputs(seed, tmp)
    values = {}
    for name, argv, report in workloads.cli_commands(inputs, tmp):
        code = pmmest.cli.main(argv)
        if code != 0:
            raise SystemExit(f"seed {seed}: {name} exited with {code}")
        with open(report) as fh:
            values[name] = workloads.report_values(json.load(fh))
    return values


def main():
    first, count = int(sys.argv[1]), int(sys.argv[2])
    root = os.getcwd()
    tmp = os.path.join(root, ".bench_out", "reference-tmp")
    os.makedirs(tmp, exist_ok=True)
    recorded = {w: {} for w in workloads.WORKLOADS}
    warnings.simplefilter("ignore")
    try:
        for seed in range(first, first + count):
            recorded["cli_oneshot"][str(seed)] = _rounded(cli(seed, tmp))
            for w in workloads.IN_PROCESS:
                recorded[w][str(seed)] = _rounded(in_process(w, seed, root))
            print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"rtol": RTOL, "atol": ATOL, "workloads": recorded}, fh,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
