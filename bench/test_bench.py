"""Self-tests of the benchmark's tracer and checks.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pmmest  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pmmest import inference, linmodel, tscore, tspmm  # noqa: E402


def synthetic(spans, tags=None):
    """Tracer holding (name, start, end, parent) spans, as another process dumps them."""
    t = tracer.Tracer()
    t.extend({"spans": spans, "tags": {str(k): v for k, v in (tags or {}).items()}})
    return t


def test_self_time_subtracts_direct_children_only():
    t = synthetic([
        ("job", 0, 100, -1),
        ("fit", 10, 40, 0),
        ("fit", 50, 90, 0),
        ("kernel", 60, 70, 2),
        ("kernel", 72, 75, 2),
    ])
    stats = tracer.aggregate(t)
    ns = 1e-9
    assert stats["job"] == {"calls": 1, "total_s": 100 * ns, "self_s": pytest.approx(30 * ns)}
    assert stats["fit"]["calls"] == 2
    assert stats["fit"]["total_s"] == pytest.approx(70 * ns)
    assert stats["fit"]["self_s"] == pytest.approx((30 + 27) * ns)
    assert stats["kernel"]["self_s"] == pytest.approx(13 * ns)


def test_extend_offsets_parents_of_a_second_dump():
    t = synthetic([("a", 0, 10, -1), ("b", 2, 4, 0)])
    t.extend({"spans": [("a", 20, 30, -1), ("b", 21, 22, 0)], "tags": {"1": 7}})
    assert list(t.parents) == [-1, 0, -1, 2]
    assert t.tags == {3: 7}


def test_residual_evaluations_count_per_outermost_fit():
    t = synthetic([
        ("tspmm.fit_ts_pmm2", 0, 100, -1),       # ARMA fit: CSS stage nested inside
        ("tscore.fit_css", 1, 50, 0),
        ("tscore.minimize_qn", 2, 49, 1),
        ("tscore.css_residuals", 3, 4, 2),
        ("tscore.css_residuals", 5, 6, 2),
        ("tscore.minimize_qn", 51, 90, 0),
        ("tscore.css_residuals", 52, 53, 5),
        ("tscore.css_residuals", 95, 96, 0),     # final residuals, outside the optimizer
        ("tscore.fit_css", 200, 210, -1),        # pure AR: OLS, no optimizer, not counted
        ("tscore.css_residuals", 201, 202, 8),
    ], tags={0: "arma", 8: "ar"})
    assert tracer.residual_evaluations(t) == {"arma": (1, 4)}


def test_tracer_restores_every_binding():
    modules = tracer._package_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    fitters = dict(inference._REGRESSION_FITTERS)
    post_init = linmodel.DesignProblem.__dict__["__post_init__"]
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(t):
            assert tscore.css_residuals is not before["pmmest.tscore"]["css_residuals"]
            assert tspmm.css_residuals is tscore.css_residuals
            assert pmmest.css_residuals is tscore.css_residuals
            assert inference._REGRESSION_FITTERS["PMM2"] is linmodel.fit_pmm2
            assert inference._REGRESSION_FITTERS["PMM2"] is not fitters["PMM2"]
            assert linmodel.DesignProblem.__dict__["__post_init__"] is not post_init
            raise RuntimeError("leave the block early")
    for name, mod in modules.items():
        now = vars(mod)
        assert all(now[k] is v for k, v in before[name].items()), name
    assert all(inference._REGRESSION_FITTERS[k] is v for k, v in fitters.items())
    assert linmodel.DesignProblem.__dict__["__post_init__"] is post_init


def test_traced_outputs_equal_untraced_and_refits_are_seen():
    x = workloads.read_bundled(ROOT)
    rng = np.random.default_rng(5)
    X, y = workloads.regression_data(rng, 60, workloads.gamma_errors)

    def jobs():
        fit = pmmest.fit_ts_pmm2(x, pmmest.ModelOrder(p=1, q=1))
        boot = pmmest.residual_bootstrap(pmmest.DesignProblem(X, y), "PMM2", B=50, seed=3)
        return fit.coefficients, boot.std_error

    plain = jobs()
    t = tracer.Tracer()
    with tracer.installed(t):
        traced = jobs()
    for a, b in zip(plain, traced):
        assert a.tobytes() == b.tobytes()
    stats = tracer.aggregate(t)
    assert stats["linmodel.fit_pmm2"]["calls"] == 51
    assert stats["linmodel.DesignProblem"]["calls"] == 51
    assert stats["tscore.minimize_qn"]["calls"] == 2
    metrics = tracer.layer_metrics(t)
    assert 150 <= metrics["tspmm.evals_per_fit"] <= 430
    assert metrics["linmodel.fit_pmm2.iters_mean"] > 1


def test_scipy_import_share_counts_outermost_scipy_subtrees():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        30 |         30 |       threadpoolctl",
        "import time:       100 |        180 |     scipy.linalg",
        "import time:        20 |        200 |   scipy",
        "import time:        10 |        210 | pmmest.tscore",
        "import time:       400 |        400 | scipy.signal",
    ])
    assert run.scipy_import_share(log) == pytest.approx((200 + 400) * 1e-6)


def test_reference_comparison_tolerates_only_small_differences(tmp_path, monkeypatch):
    ref = {"rtol": 1e-4, "atol": 1e-6, "workloads": {"w": {"3": {
        "job": {"estimate": [1.0, 0.0], "method": ["PMM2"]}}}}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    problems = []
    assert run.compare_reference("w", 3, {"job": {"estimate": [1.00005, 5e-7],
                                                  "method": ["PMM2"]}}, problems)
    assert problems == []
    run.compare_reference("w", 3, {"job": {"estimate": [1.001, 0.0], "method": ["PMM3"]}},
                          problems)
    assert len(problems) == 2
    assert not run.compare_reference("w", 4, {}, problems)


def test_benchmark_json_declares_what_the_run_computes():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    t = tracer.Tracer()
    computed = set(tracer.layer_metrics(t)) | {"cli.import_s", "cli.import.scipy_s",
                                               "trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "fits_per_s", "cmd_p50_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
