"""Cold start without scipy, and the pure-AR residual path it rests on.

Pure-AR CSS residuals are a finite convolution computed with numpy alone;
``scipy.signal`` loads only for the IIR recursions of MA terms, simulation
and bootstraps.  This file needs numpy, pytest and hypothesis only: the
comparisons against ``scipy.signal.lfilter`` skip when scipy is missing.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmmest.tscore import (
    ModelOrder,
    TsParams,
    _filter_polynomials,
    css_residuals,
    expand_polynomial,
    ma_expand_polynomial,
)

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = str(ROOT / "data" / "ar1_gamma_sample.csv")

# Runs CLI commands in a fresh interpreter and prints the exit codes and the
# scipy modules loaded afterwards.
_PROBE = """
import json, sys
import pmmest, pmmest.cli
codes = [pmmest.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _probe(commands):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)
    return str(path)


def test_ar_regression_and_dispatch_commands_stay_scipy_free(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(120)
    y = 1.0 + 2.0 * x + rng.gamma(2.0, 1.0, 120) - 2.0
    regression = _write_csv(tmp_path / "regression.csv", ["y", "x"], zip(y, x))
    residuals = _write_csv(tmp_path / "residuals.csv", ["e"],
                           zip(rng.uniform(-1.0, 1.0, 150)))
    series = _write_csv(tmp_path / "series.csv", ["y"],
                        zip(np.cumsum(rng.gamma(2.0, 1.0, 150) - 2.0)))

    def out(name):
        return ["--output", str(tmp_path / f"{name}.json")]

    commands = [
        ["fit", "--input", BUNDLED, "--column", "y", "--method", "auto",
         "--order", "1,0,0"] + out("ar1"),
        ["fit", "--input", BUNDLED, "--column", "y", "--method", "pmm2",
         "--order", "2,0,0"] + out("ar2"),
        ["fit", "--input", series, "--column", "y", "--method", "pmm2",
         "--order", "1,1,0"] + out("ari"),
        ["fit", "--input", regression, "--column", "y", "--design", "x",
         "--method", "auto"] + out("regression"),
        ["dispatch", "--input", residuals, "--column", "e"] + out("dispatch"),
    ]
    result = _probe(commands)
    assert result["codes"] == [0] * len(commands)
    assert result["scipy"] == []
    for name in ("ar1", "ar2", "ari", "regression", "dispatch"):
        assert json.loads((tmp_path / f"{name}.json").read_text())


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="scipy not installed")
def test_ma_fit_loads_scipy_signal(tmp_path):
    result = _probe([["fit", "--input", BUNDLED, "--column", "y", "--method", "pmm2",
                      "--order", "1,0,1", "--output", str(tmp_path / "arma.json")]])
    assert result["codes"] == [0]
    assert "scipy.signal" in result["scipy"]


@pytest.fixture(scope="module")
def lfilter():
    return pytest.importorskip("scipy.signal").lfilter


_ar_orders = st.one_of(
    st.builds(lambda p, mean: ModelOrder(p=p, include_mean=mean),
              st.integers(0, 6), st.booleans()),
    st.builds(lambda p, P, s: ModelOrder(p=p, P=P, s=s),
              st.integers(0, 2), st.integers(1, 2), st.sampled_from([4, 12])),
)


@settings(max_examples=300, deadline=None)
@given(order=_ar_orders, n=st.integers(1, 400), scale_exp=st.integers(-8, 8),
       seed=st.integers(0, 2**32 - 1))
def test_pure_ar_residuals_equal_lfilter_bit_for_bit(lfilter, order, n, scale_exp, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) * 10.0**scale_exp
    params = TsParams(rng.uniform(-0.95, 0.95, order.p), np.empty(0),
                      rng.uniform(-0.95, 0.95, order.P), np.empty(0),
                      rng.standard_normal() * 10.0**scale_exp if order.include_mean else 0.0)
    num = np.concatenate([[1.0], -expand_polynomial(params.phi, params.Phi, order.s)])
    expected = lfilter(num, [1.0], w - params.mean)
    assert css_residuals(w, params, order).tobytes() == expected.tobytes()


_iir_orders = st.builds(
    lambda p, q, P, Q, s, mean: ModelOrder(p=p, q=q, P=P, Q=Q, s=s, include_mean=mean),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([4, 12]), st.booleans()).filter(lambda o: o.q + o.Q > 0)


@settings(max_examples=300, deadline=None)
@given(order=_iir_orders, n=st.integers(1, 400), scale_exp=st.integers(-8, 8),
       seed=st.integers(0, 2**32 - 1))
def test_iir_residuals_equal_lfilter_of_expanded_polynomials(lfilter, order, n, scale_exp,
                                                             seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) * 10.0**scale_exp

    def coefficients(k):
        # zeros of either sign: the filter keeps the expansion's signed zeros
        return rng.choice([0.0, -0.0, 1.0], k) * rng.uniform(-0.95, 0.95, k)

    params = TsParams(coefficients(order.p), coefficients(order.q),
                      coefficients(order.P), coefficients(order.Q),
                      rng.standard_normal() * 10.0**scale_exp if order.include_mean else 0.0)
    a = expand_polynomial(params.phi, params.Phi, order.s)
    b = ma_expand_polynomial(params.theta, params.Theta, order.s)
    expected = lfilter(np.r_[1.0, -a], np.r_[1.0, b], w - params.mean)
    assert css_residuals(w, params, order).tobytes() == expected.tobytes()
    num, den = _filter_polynomials(params, order)
    assert ((-num[1:]).tobytes(), den[1:].tobytes()) == (a.tobytes(), b.tobytes())
