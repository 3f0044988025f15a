"""pmmest benchmark: one command per workload, end to end or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload ts_resample --seed 0 --seconds 25 --trace 0

Workloads (see bench/README.md for why each was chosen):
  cli_oneshot   cold ``python -m pmmest.cli`` commands, one after another
  ts_resample   quasi-Newton time-series resampling, in process
  lin_resample  linear-model resampling and Monte Carlo, in process

With ``--trace 0`` the last stdout line carries the end-to-end metrics
declared in BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Outputs are checked on every run; the exit code is
1 when a check fails and 2 when the directory holds no pmmest tree.  A full
record of each run is written to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 2        # set-up-only processes per run, plus the measuring one
IMPORT_RUNS = 3       # fresh processes per import probe in traced runs
CHILD_TIMEOUT = 150.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TREE_FILES = (os.path.join("src", "pmmest", "__init__.py"), workloads.BUNDLED,
              os.path.join("docs", "report_schema.json"), "BENCHMARK.json")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Context:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.out_dir = os.path.join(root, ".bench_out")
        self.tmp = os.path.join(self.out_dir, f"tmp-{os.getpid()}")
        os.makedirs(self.tmp)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def child(self, argv, timeout=CHILD_TIMEOUT) -> Child:
        """Run a process to completion; returns its exit code, wall time and peak RSS."""
        self.count += 1
        out_p = os.path.join(self.tmp, f"child{self.count}.out")
        err_p = os.path.join(self.tmp, f"child{self.count}.err")
        with open(out_p, "wb") as out, open(err_p, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_p) as fh:
            stdout = fh.read()
        with open(err_p) as fh:
            stderr = fh.read()
        os.remove(out_p)
        os.remove(err_p)
        # ru_maxrss is in KiB on Linux.
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)

    def worker(self, mode, seconds=0.0, inputs_dir=None, spans=None):
        out = os.path.join(self.tmp, f"worker-{mode}-{self.count}.json")
        argv = [sys.executable, os.path.join(BENCH, "worker.py"), mode,
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(seconds), "--root", self.root, "--out", out]
        if inputs_dir:
            argv += ["--inputs-dir", inputs_dir]
        if spans:
            argv += ["--spans", spans]
        child = self.child(argv)
        if child.code != 0:
            raise BenchError(f"worker {mode} exited with {child.code}:\n{child.stderr[-4000:]}")
        with open(out) as fh:
            record = json.load(fh)
        os.remove(out)
        return record, child


def median(values):
    return statistics.median(values) if values else 0.0


def machine_info():
    from importlib.metadata import PackageNotFoundError, version
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": " ".join(os.uname()[i] for i in (0, 2, 4)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}
    for name in ("numpy", "scipy", "jsonschema"):
        try:
            info[name] = version(name)
        except PackageNotFoundError:
            info[name] = None
    return info


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

REFERENCE = os.path.join(BENCH, "reference.json")
# Output keys recorded in the reference; the rest are checked for determinism only.
UNCHECKED_KEYS = ("conf_low", "conf_high", "p_value", "objective", "converged")


def reference_subset(outputs: dict) -> dict:
    return {job: {k: v for k, v in vals.items() if k not in UNCHECKED_KEYS}
            for job, vals in outputs.items()}


def compare_reference(workload, seed, actual, problems):
    """Compare outputs with the values recorded for this seed; returns whether any existed."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    expected = ref["workloads"].get(workload, {}).get(str(seed))
    if expected is None:
        return False
    rtol, atol = ref["rtol"], ref["atol"]
    for job, values in expected.items():
        for key, want in values.items():
            got = actual.get(job, {}).get(key)
            if got is None or len(got) != len(want):
                problems.append(f"reference: {job}.{key} missing or wrong length")
                continue
            for g, w in zip(got, want):
                if isinstance(w, str):
                    ok = g == w
                else:
                    ok = abs(g - w) <= atol + rtol * abs(w)
                if not ok:
                    problems.append(f"reference: {job}.{key} = {got}, recorded {want}")
                    break
    return True


# ---------------------------------------------------------------------------
# Import probes (traced runs)
# ---------------------------------------------------------------------------

def scipy_import_share(importtime_log: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    Sums the cumulative time of every scipy module not imported under
    another scipy module, so the non-scipy modules scipy pulls in count too.
    The log lists children before their parent, indented one level deeper.
    """
    stack = []  # (depth, scipy seconds in that subtree)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = 0.0
        while stack and stack[-1][0] > depth:
            children += stack.pop()[1]
        module = name.strip()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        stack.append((depth, int(cumulative) * 1e-6 if is_scipy else children))
    return sum(s for _, s in stack)


def import_probes(ctx):
    code = ("import time; t0 = time.perf_counter(); import pmmest.cli; "
            "print(time.perf_counter() - t0)")
    walls, shares = [], []
    for _ in range(IMPORT_RUNS):
        c = ctx.child([sys.executable, "-c", code])
        if c.code != 0:
            raise BenchError(f"import pmmest.cli failed:\n{c.stderr[-4000:]}")
        walls.append(float(c.stdout.strip()))
        c = ctx.child([sys.executable, "-X", "importtime", "-c", "import pmmest.cli"])
        shares.append(scipy_import_share(c.stderr))
    return {"cli.import_s": median(walls), "cli.import.scipy_s": median(shares)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def add_layers(metrics, layers, traced, plain):
    """Median of each per-layer metric over the traced passes, and the tracing overhead."""
    metrics.update({name: median([m[name] for m in layers]) for name in layers[0]})
    metrics["trace_overhead_s"] = (median([p["wall_s"] for p in traced])
                                   - median([p["wall_s"] for p in plain]))


def run_in_process(ctx, problems):
    args = ctx.args
    setups = [ctx.worker("setup")[0]["setup_s"] for _ in range(SETUP_RUNS)]
    mode = "trace" if args.trace else "run"
    spans = os.path.join(ctx.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    record, child = ctx.worker(mode, seconds=args.seconds, spans=spans if args.trace else None)
    setups.append(record["setup_s"])
    passes = record["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("outputs differ between passes"
                        + (" (traced and untraced)" if traced else ""))
    for p in passes:
        for job in p["jobs"]:
            if job["error"]:
                problems.append(f"{job['name']} raised: {job['error'].splitlines()[-1]}")
    problems.extend(record["invariants"])
    checked = compare_reference(args.workload, args.seed,
                                reference_subset(record["outputs"]), problems)

    # Jobs differ in size, so the median of single job times would fall
    # between two job kinds; the per-pass mean job time is steady.
    n_jobs = len(plain[0]["jobs"])
    metrics = {
        "setup_s": median(setups),
        "fits_per_s": median([p["fits"] / p["wall_s"] for p in plain]),
        "cmd_p50_s": median([p["wall_s"] / n_jobs for p in plain]),
        "peak_rss_mb": child.maxrss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "fits_per_s": f"median of {len(plain)} passes, {plain[0]['fits']} fits each",
        "cmd_p50_s": f"median of {len(plain)} passes of the mean time of {n_jobs} jobs",
        "peak_rss_mb": "peak RSS of the workload process",
    }
    if traced:
        add_layers(metrics, record["layers"], traced, plain)
    samples = {"setup_s": setups, "passes": passes}
    return metrics, notes, samples, passes, checked


def run_cli(ctx, problems):
    args = ctx.args
    setups, input_bytes = [], None
    for i in range(SETUP_RUNS + 1):
        inputs_dir = os.path.join(ctx.tmp, f"inputs{i}")
        os.makedirs(inputs_dir)
        record, _ = ctx.worker("setup", inputs_dir=inputs_dir)
        setups.append(record["setup_s"])
        files = {}
        for name in sorted(os.listdir(inputs_dir)):
            with open(os.path.join(inputs_dir, name), "rb") as fh:
                files[name] = fh.read()
        if input_bytes is None:
            input_bytes, inputs = files, {
                "regression": os.path.join(inputs_dir, "regression.csv"),
                "residuals": os.path.join(inputs_dir, "residuals.csv")}
        elif files != input_bytes:
            problems.append("seeded CLI inputs differ between set-ups")
    commands = workloads.cli_commands(inputs, ctx.tmp)
    module = [sys.executable, "-m", "pmmest.cli"]
    launcher = [sys.executable, os.path.join(BENCH, "trace_cli.py")]

    # Untimed warm-up: fills the bytecode cache, as an install would.
    warm = ctx.child(module + commands[0][1])
    if warm.code != 0:
        raise BenchError(f"warm-up command exited with {warm.code}:\n{warm.stderr[-4000:]}")
    os.remove(commands[0][2])

    reports = {}

    def cycle(traced):
        walls, rss, failed, t = [], [], 0, tracer.Tracer()
        for name, argv, report in commands:
            spans = os.path.join(ctx.tmp, "spans.json")
            c = ctx.child(launcher + [spans] + argv if traced else module + argv)
            walls.append(c.wall_s)
            rss.append(c.maxrss_mb)
            if c.code != 0:
                failed += 1
                problems.append(f"{name} exited with {c.code}: {c.stderr.strip()[-500:]}")
                continue
            with open(report, "rb") as fh:
                text = fh.read()
            os.remove(report)
            if name not in reports:
                reports[name] = text
            elif reports[name] != text:
                problems.append(f"{name}: report differs between runs of the command")
            if traced:
                with open(spans) as fh:
                    t.extend(json.load(fh))
                os.remove(spans)
        return {"traced": traced, "walls": walls, "rss": rss, "failed": failed,
                "fits": len(commands), "wall_s": sum(walls), "tracer": t}

    cycles = []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        cycles.append(cycle(False))
        if args.trace:
            cycles.append(cycle(True))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    validate_reports(ctx, reports, problems)
    actual = {name: workloads.report_values(json.loads(text)) for name, text in reports.items()}
    checked = compare_reference(args.workload, args.seed, actual, problems)

    plain = [c for c in cycles if not c["traced"]]
    traced = [c for c in cycles if c["traced"]]
    cmd_walls = [w for c in plain for w in c["walls"]]
    metrics = {
        "setup_s": median(setups),
        "fits_per_s": median([c["fits"] / c["wall_s"] for c in plain]),
        "cmd_p50_s": median(cmd_walls),
        "peak_rss_mb": max(r for c in plain for r in c["rss"]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "fits_per_s": f"median of {len(plain)} cycles of {len(commands)} commands",
        "cmd_p50_s": f"median of {len(cmd_walls)} commands",
        "peak_rss_mb": "peak RSS of the largest command process",
    }
    if traced:
        add_layers(metrics, [tracer.layer_metrics(c["tracer"]) for c in traced], traced, plain)
        traced[0]["tracer"].dump(
            os.path.join(ctx.out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    samples = {"setup_s": setups,
               "cycles": [{k: v for k, v in c.items() if k != "tracer"} for c in cycles]}
    return metrics, notes, samples, cycles, checked


def validate_reports(ctx, reports, problems):
    """Reports validate against the schema of the tree under test and say converged."""
    import jsonschema
    with open(os.path.join(ctx.root, "docs", "report_schema.json")) as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    for name, text in reports.items():
        report = json.loads(text)
        for err in validator.iter_errors(report):
            problems.append(f"{name}: schema: {err.message}")
        if report.get("command") == "fit" and report.get("converged") is not True:
            problems.append(f"{name}: report does not say converged: true")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def declared_metrics(root, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    missing = [f for f in TREE_FILES if not os.path.isfile(os.path.join(root, f))]
    if missing:
        print(f"error: {root} is not a pmmest checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    declared = declared_metrics(root, args.trace)
    ctx = Context(args, root)
    problems: list[str] = []
    started = time.perf_counter()
    try:
        if args.workload == "cli_oneshot":
            metrics, notes, samples, rounds, checked = run_cli(ctx, problems)
        else:
            metrics, notes, samples, rounds, checked = run_in_process(ctx, problems)
        if args.trace:
            metrics.update(import_probes(ctx))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    attempted = sum(r["fits"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    undeclared = sorted(set(declared) - set(metrics))
    if undeclared:
        problems.append(f"metrics not computed: {undeclared}")
    machine = machine_info()
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in declared.items()}}

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"wall={time.perf_counter() - started:.1f}s")
    for name, unit in declared.items():
        note = notes.get(name, "")
        print(f"  {name:<40} {metrics.get(name, 0.0):>14.6g} {unit:<6} {note}")
    print(f"  {'failed_share':<40} {failed / attempted if attempted else 0.0:>14.6g} "
          f"{'':<6} {failed} of {attempted} fits failed")
    print(f"reference values: {'compared' if checked else 'none recorded for this seed'}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    with open(os.path.join(ctx.out_dir,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "result": result,
                   "failed_share": failed / attempted if attempted else 0.0,
                   "problems": problems, "samples": samples}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
