"""Outside-in span tracer for the pmmest package.

The tracer never edits the program's source.  It replaces every public
function of every loaded ``pmmest`` module by a timing wrapper, matched by
object identity in *every* ``pmmest.*`` namespace that bound it (``tspmm``
and ``tscore`` closures look ``css_residuals`` and ``pmm2_objective`` up as
module globals at call time, and ``pmmest/__init__`` re-exports most
functions).  Module-level dicts that hold functions by value, such as
``inference._REGRESSION_FITTERS``, are rewritten too, otherwise refits inside
``residual_bootstrap`` would record no spans.  ``DesignProblem`` is a class,
so its ``__post_init__`` (the SVD rank check) is wrapped instead.

Spans live in flat in-memory arrays until the run ends.  Only the standard
library is used, so importing this module does not change what the program
imports or when.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "pmmest"

# (module, class, method) wrapped in place; the span takes the class name.
CLASS_METHODS = (("linmodel", "DesignProblem", "__post_init__"),)

# Outermost time-series fits, for residual evaluations per fit.
TS_FITS = ("tscore.fit_css", "tspmm.fit_ts_pmm2", "tspmm.fit_ts_pmm3")
RESIDUALS = "tscore.css_residuals"
OPTIMIZER = "tscore.minimize_qn"


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _ts_structure(fit):
    order = fit.order
    return "arma" if (order.q or order.P or order.Q) else "ar"


def _mc_failed(result):
    _, summary = result
    return sum(summary.n_failed.values())


# Values read from return values of traced calls, keyed by span name.
RESULT_TAGS = {
    "linmodel.fit_pmm2": lambda fit: fit.iterations,
    "linmodel.fit_pmm3": lambda fit: fit.iterations,
    "inference.residual_bootstrap": lambda res: res.n_failed,
    "inference.block_bootstrap_ts": lambda res: res.n_failed,
    "mcbench.run_monte_carlo": _mc_failed,
    "tscore.fit_css": _ts_structure,
    "tspmm.fit_ts_pmm2": _ts_structure,
    "tspmm.fit_ts_pmm3": _ts_structure,
}


class Tracer:
    """Span store: name id, parent index, start and end (ns) per span.

    Span indices are assigned on entry, so a parent always has a smaller
    index than its children.  Parent -1 marks a root.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.tags: dict[int, object] = {}
        self._stack = [-1]

    def __len__(self):
        return len(self.name_ids)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, e.g. one benchmark job (a request)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        tag = RESULT_TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if tag is not None:
                tracer.tags[idx] = tag(result)
            return result

        return traced

    def spans(self):
        """Yield (name, start_ns, end_ns, parent) for every recorded span."""
        for i in range(len(self.name_ids)):
            yield self.names[self.name_ids[i]], self.starts[i], self.ends[i], self.parents[i]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": list(self.spans()),
                       "tags": {str(i): v for i, v in self.tags.items()}}, fh)

    def extend(self, dumped: dict):
        """Append the spans of another process's ``dump`` as new roots."""
        offset = len(self)
        for name, start, end, parent in dumped["spans"]:
            self.name_ids.append(self.name_id(name))
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.starts.append(start)
            self.ends.append(end)
        for i, v in dumped["tags"].items():
            self.tags[int(i) + offset] = v


def _package_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def _public_functions(modules):
    """Map each public function (by identity) to its span name."""
    found = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname):
                found[obj] = f"{_short(modname)}.{attr}"
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's public functions for the duration of the block.

    Every replaced binding is restored on exit, also when the block raises.
    """
    modules = _package_modules()
    if PACKAGE not in modules:
        raise RuntimeError(f"{PACKAGE} must be imported before tracing")
    targets = _public_functions(modules)
    wrappers = {fn: tracer.wrap(fn, name) for fn, name in targets.items()}
    undo = []
    try:
        for mod in modules.values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((space, attr, obj))
                    space[attr] = wrappers[obj]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            undo.append((obj, key, val))
                            obj[key] = wrappers[val]
        for modname, clsname, meth in CLASS_METHODS:
            cls = getattr(modules[f"{PACKAGE}.{modname}"], clsname)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(original, f"{modname}.{clsname}"))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            if isinstance(holder, type):
                setattr(holder, key, original)
            else:
                holder[key] = original


def aggregate(tracer: Tracer):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    n = len(tracer)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += durations[i]
    stats: dict[str, list] = {}
    for i in range(n):
        name = tracer.names[tracer.name_ids[i]]
        row = stats.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += durations[i]
        row[2] += durations[i] - child_time[i]
    return {name: {"calls": c, "total_s": t * 1e-9, "self_s": s * 1e-9}
            for name, (c, t, s) in stats.items()}


def residual_evaluations(tracer: Tracer):
    """Residual evaluations per quasi-Newton time-series fit.

    A fit is an outermost fit_css / fit_ts_pmm2 / fit_ts_pmm3 span; it counts
    when minimize_qn ran inside it, and every css_residuals call inside it is
    one evaluation.  Returns {structure: (fits, evaluations)}, where the
    structure is "arma" (MA or seasonal terms) or "ar" (pure AR after
    differencing, whose CSS stage is an exact OLS solve).
    """
    ids = {name: tracer.name_id(name) for name in (*TS_FITS, RESIDUALS, OPTIMIZER)}
    fit_ids = {ids[name] for name in TS_FITS}
    n = len(tracer)
    root = [-1] * n
    evals: dict[int, int] = {}
    with_qn: set[int] = set()
    for i in range(n):
        p = tracer.parents[i]
        r = root[p] if p >= 0 else -1
        nid = tracer.name_ids[i]
        if r < 0 and nid in fit_ids:
            r = i
        root[i] = r
        if r >= 0:
            if nid == ids[RESIDUALS]:
                evals[r] = evals.get(r, 0) + 1
            elif nid == ids[OPTIMIZER]:
                with_qn.add(r)
    out: dict[str, tuple[int, int]] = {}
    for r in with_qn:
        kind = tracer.tags.get(r, "arma")
        fits, total = out.get(kind, (0, 0))
        out[kind] = (fits + 1, total + evals.get(r, 0))
    return out


def tag_values(tracer: Tracer, name: str) -> list:
    nid = tracer.name_id(name)
    return [v for i, v in sorted(tracer.tags.items()) if tracer.name_ids[i] == nid]


# Per-layer metrics read from spans: (metric, span name, field).
SPAN_METRICS = (
    ("cli.main.self_s", "cli.main", "self_s"),
    ("dispatch.select_method.calls", "dispatch.select_method", "calls"),
    ("dispatch.dispatch_fit.self_s", "dispatch.dispatch_fit", "self_s"),
    ("tscore.css_residuals.calls", "tscore.css_residuals", "calls"),
    ("tscore.css_residuals.self_s", "tscore.css_residuals", "self_s"),
    ("tscore.css_residuals.total_s", "tscore.css_residuals", "total_s"),
    ("tscore.expand_polynomial.self_s", "tscore.expand_polynomial", "self_s"),
    ("tscore.minimize_qn.calls", "tscore.minimize_qn", "calls"),
    ("tscore.minimize_qn.self_s", "tscore.minimize_qn", "self_s"),
    ("tscore.fit_css.calls", "tscore.fit_css", "calls"),
    ("tscore.fit_css.self_s", "tscore.fit_css", "self_s"),
    ("tspmm.fit_ts_pmm2.calls", "tspmm.fit_ts_pmm2", "calls"),
    ("tspmm.fit_ts_pmm2.self_s", "tspmm.fit_ts_pmm2", "self_s"),
    ("tspmm.fit_ts_pmm3.calls", "tspmm.fit_ts_pmm3", "calls"),
    ("tspmm.fit_ts_pmm3.self_s", "tspmm.fit_ts_pmm3", "self_s"),
    ("tspmm.pmm2_objective.self_s", "tspmm.pmm2_objective", "self_s"),
    ("linmodel.DesignProblem.calls", "linmodel.DesignProblem", "calls"),
    ("linmodel.DesignProblem.self_s", "linmodel.DesignProblem", "self_s"),
    ("linmodel.fit_ols.calls", "linmodel.fit_ols", "calls"),
    ("linmodel.fit_ols.self_s", "linmodel.fit_ols", "self_s"),
    ("linmodel.fit_pmm2.calls", "linmodel.fit_pmm2", "calls"),
    ("linmodel.fit_pmm2.self_s", "linmodel.fit_pmm2", "self_s"),
    ("linmodel.fit_pmm3.calls", "linmodel.fit_pmm3", "calls"),
    ("linmodel.fit_pmm3.self_s", "linmodel.fit_pmm3", "self_s"),
    ("cumulants.central_moments.calls", "cumulants.central_moments", "calls"),
    ("cumulants.central_moments.self_s", "cumulants.central_moments", "self_s"),
    ("inference.residual_bootstrap.self_s", "inference.residual_bootstrap", "self_s"),
    ("inference.block_bootstrap_ts.self_s", "inference.block_bootstrap_ts", "self_s"),
    ("mcbench.run_monte_carlo.self_s", "mcbench.run_monte_carlo", "self_s"),
    ("mcbench.advantage_grid.self_s", "mcbench.advantage_grid", "self_s"),
    ("mcbench.sample_innovations.self_s", "mcbench.sample_innovations", "self_s"),
    ("tscore.simulate_arima.self_s", "tscore.simulate_arima", "self_s"),
    ("tscore.ts_asymptotic_covariance.self_s", "tscore.ts_asymptotic_covariance", "self_s"),
    ("linmodel.asymptotic_covariance.self_s", "linmodel.asymptotic_covariance", "self_s"),
)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced pass.

    A layer that did not run reads 0: no calls, no time.
    """
    stats = aggregate(tracer)
    out = {}
    for metric, span, field in SPAN_METRICS:
        out[metric] = stats.get(span, {}).get(field, 0)
    # The headline count covers fits with MA or seasonal terms, whose CSS
    # and PMM stages both run minimize_qn; pure-AR fits (exact OLS CSS
    # stage) and all fits together are reported beside it.
    evals = residual_evaluations(tracer)
    groups = {"tspmm.evals_per_fit": ("arma",), "tspmm.evals_per_fit.ar": ("ar",),
              "tspmm.evals_per_fit.all": ("arma", "ar")}
    for metric, kinds in groups.items():
        fits = sum(evals.get(k, (0, 0))[0] for k in kinds)
        total = sum(evals.get(k, (0, 0))[1] for k in kinds)
        out[metric] = total / fits if fits else 0.0
    out["linmodel.fit_pmm2.iters_mean"] = _mean(tag_values(tracer, "linmodel.fit_pmm2"))
    out["linmodel.fit_pmm3.iters_mean"] = _mean(tag_values(tracer, "linmodel.fit_pmm3"))
    out["inference.failed_replicates"] = (
        sum(tag_values(tracer, "inference.residual_bootstrap"))
        + sum(tag_values(tracer, "inference.block_bootstrap_ts")))
    out["mcbench.failed_replicates"] = sum(tag_values(tracer, "mcbench.run_monte_carlo"))
    return out
