"""Workload process: set up, then run passes of a workload's jobs.

Started by ``run.py`` in a fresh process per use, with the tree's ``src``
first on ``PYTHONPATH``, so import time and peak RSS belong to this workload
alone.  Writes one JSON record to ``--out``.

Modes:
  setup  import pmmest and generate the seeded inputs, nothing else
  run    set up, then repeat untraced passes until --seconds have elapsed
  trace  set up, then alternate an untraced and a traced pass
"""

import argparse
import hashlib
import json
import os
import sys
import time
import traceback


def setup(workload, seed, root, inputs_dir):
    """Import pmmest and build the inputs; returns (pmmest, inputs, seconds)."""
    t0 = time.perf_counter()
    import pmmest
    import workloads
    if workload == "cli_oneshot":
        inputs = workloads.write_cli_inputs(seed, inputs_dir)
    else:
        inputs = workloads.make_inputs(workload, seed, root)
    elapsed = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    where = os.path.realpath(pmmest.__file__)
    if os.path.commonpath([src, where]) != src:
        raise SystemExit(f"pmmest imported from {where}, outside the tree under test {src}")
    return pmmest, inputs, elapsed


def run_pass(pm, jobs, inputs, tracer=None):
    """Run every job once; the pass's wall time is the sum of job times."""
    records, outputs = [], {}
    for job in jobs:
        t0 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                result = job.run(pm, inputs)
            else:
                with tracer.span(f"job:{job.name}"):
                    result = job.run(pm, inputs)
        except Exception:
            # The job boundary must keep running: record the traceback and
            # count every fit of the job as failed.
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        if error is None:
            failed = int(job.failed(result))
            outputs[job.name] = job.outputs(result)
        else:
            failed = job.fits
            print(error, file=sys.stderr)
        records.append({"name": job.name, "wall_s": wall, "fits": job.fits,
                        "failed": failed, "error": error})
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {"wall_s": sum(r["wall_s"] for r in records),
            "fits": sum(r["fits"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "jobs": records, "digest": digest}, outputs


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run", "trace"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--inputs-dir", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    pm, inputs, setup_s = setup(args.workload, args.seed, args.root, args.inputs_dir)
    record = {"setup_s": setup_s}
    if args.mode != "setup":
        import tracer as tracing
        import workloads
        jobs = workloads.jobs(args.workload)
        deadline = time.perf_counter() + args.seconds
        passes, layers, first, first_spans = [], [], None, None
        while True:
            started = time.perf_counter()
            p, outputs = run_pass(pm, jobs, inputs)
            p["traced"] = False
            passes.append(p)
            if first is None:
                first = outputs
                invariants = workloads.check_invariants(pm, inputs, outputs)
            if args.mode == "trace":
                t = tracing.Tracer()
                with tracing.installed(t):
                    tp, _ = run_pass(pm, jobs, inputs, tracer=t)
                tp["traced"] = True
                passes.append(tp)
                layers.append(tracing.layer_metrics(t))
                if first_spans is None:
                    first_spans = t
            cycle = time.perf_counter() - started
            if time.perf_counter() + cycle > deadline:
                break
        record.update(passes=passes, outputs=first, invariants=invariants, layers=layers)
        if first_spans is not None and args.spans:
            first_spans.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
