import csv
import json
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from helpers import unconverged_pmm2_problem
from pmmest import cli, mcbench
from pmmest.cli import build_parser, main
from pmmest.mcbench import InnovationSpec, sample_innovations
from pmmest.tscore import ModelOrder, TsParams, simulate_arima

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    write_csv(path, ["y", "x"], [(1.0, 0.0), (3.0, 1.0), (5.0, 2.0)])
    return path


@pytest.fixture
def gamma_ar_csv(tmp_path):
    rng = np.random.default_rng(42)
    eps = sample_innovations(InnovationSpec("gamma"), 400, rng)
    order = ModelOrder(p=1, include_mean=False)
    x = simulate_arima(order, TsParams([0.7], [], [], [], 0.0), eps, 150)
    path = tmp_path / "series.csv"
    write_csv(path, ["y"], [(repr(float(v)),) for v in x])
    return path


def load_report(path):
    report = json.loads(Path(path).read_text())
    jsonschema.validate(report, SCHEMA)
    return report


class TestFit:
    def test_ols_exact_line(self, line_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(line_csv), "--column", "y",
                     "--design", "x", "--method", "ols", "--output", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["method"] == "OLS"
        assert report["coefficients"]["intercept"] == pytest.approx(1.0, abs=1e-10)
        assert report["coefficients"]["x"] == pytest.approx(2.0, abs=1e-10)

    def test_auto_prints_dispatch_transcript(self, gamma_ar_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(gamma_ar_csv), "--column", "y",
                     "--method", "auto", "--order", "1,0,0", "--output", str(out)])
        assert code == 0
        transcript = capsys.readouterr().out
        assert ">>>" in transcript
        assert "PMM2" in transcript
        report = load_report(out)
        assert report["dispatch"]["method"] == "PMM2"
        assert report["method"] == "PMM2"

    def test_bundled_sample_dispatches_to_pmm2(self, tmp_path, capsys):
        sample = Path(__file__).parent.parent / "data" / "ar1_gamma_sample.csv"
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(sample), "--column", "y",
                     "--method", "auto", "--order", "1,0,0", "--output", str(out)])
        assert code == 0
        assert ">>>" in capsys.readouterr().out
        report = load_report(out)
        assert report["dispatch"]["method"] == "PMM2"
        assert report["coefficients"]["ar1"] == pytest.approx(0.7, abs=0.12)

    def test_random_walk_forecasts_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal(60))
        path = tmp_path / "rw.csv"
        write_csv(path, ["y"], [(repr(float(v)),) for v in x])
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(path), "--column", "y",
                     "--method", "css", "--order", "0,1,0", "--horizon", "3",
                     "--output", str(out)])
        assert code == 0
        report = load_report(out)
        fc = report["forecasts"]
        assert len(fc) == 3
        assert fc[0] == pytest.approx(x[-1]) and fc[1] == fc[0] and fc[2] == fc[0]

    def test_horizon_on_regression_is_usage_error(self, line_csv):
        code = main(["fit", "--input", str(line_csv), "--column", "y",
                     "--design", "x", "--method", "ols", "--horizon", "2"])
        assert code == 2


class TestDispatchCommand:
    def test_transcript_for_skewed_residuals(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        resid = rng.gamma(2.0, 1.0, 500) - 2.0
        path = tmp_path / "resid.csv"
        write_csv(path, ["resid"], [(repr(float(v)),) for v in resid])
        out = tmp_path / "dispatch.json"
        code = main(["dispatch", "--input", str(path), "--column", "resid",
                     "--output", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("n = 500 | gamma3 = ")
        assert "PMM2" in lines[2]
        report = load_report(out)
        assert report["decision"]["method"] == "PMM2"


class TestBootstrapCommand:
    def test_regression_bootstrap_report(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(80)
        y = 1.0 + 0.5 * x + rng.gamma(2.0, 1.0, 80) - 2.0
        path = tmp_path / "data.csv"
        write_csv(path, ["y", "x"], list(zip(y, x)))
        out = tmp_path / "boot.json"
        code = main(["bootstrap", "--input", str(path), "--column", "y",
                     "--design", "x", "--method", "pmm2", "--B", "120",
                     "--seed", "9", "--output", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["scheme"] == "residual"
        assert [r["parameter"] for r in report["rows"]] == ["intercept", "x"]
        for row in report["rows"]:
            assert row["conf_low"] <= row["conf_high"]

    def test_block_bootstrap_report(self, gamma_ar_csv, tmp_path):
        out = tmp_path / "boot.json"
        code = main(["bootstrap", "--input", str(gamma_ar_csv), "--column", "y",
                     "--method", "css", "--order", "1,0,0", "--B", "80",
                     "--seed", "3", "--output", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["scheme"] == "block"
        assert report["block_length"] is not None

    def test_needs_design_or_order(self, line_csv):
        code = main(["bootstrap", "--input", str(line_csv), "--column", "y"])
        assert code == 2


class TestSimulateCommand:
    def test_round_trips_innovation_file(self, tmp_path):
        rng = np.random.default_rng(12)
        eps = rng.standard_normal(40)
        inn = tmp_path / "innov.csv"
        write_csv(inn, ["eps"], [(repr(float(v)),) for v in eps])
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--order", "0,0,0", "--innovations-file", str(inn),
                     "--column", "eps", "--output", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x"
        values = np.array([float(v) for v in rows[1:]])
        assert np.array_equal(values, eps)

    def test_seeded_generation_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--order", "1,0,0", "--ar", "0.7", "--no-mean",
                "--innovations", "gamma:shape=2,rate=1", "--n", "50",
                "--burnin", "20", "--seed", "77"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_length_names_the_flag(self, tmp_path, capsys, n):
        code = main(["simulate", "--n", n, "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n must be at least 1, got {n}\n"

    def test_coefficient_count_mismatch(self, tmp_path):
        code = main(["simulate", "--order", "2,0,0", "--ar", "0.7",
                     "--n", "50", "--output", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--ar", "nan"], ["--ar", "0.5", "--mean", "inf"]])
    def test_non_finite_parameter_is_data_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--order", "1,0,0", "--n", "10", "--output", str(out)]
                    + flags)
        assert code == 3
        assert "NaN or infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_unused_non_finite_mean_is_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--order", "1,0,0", "--ar", "0.5", "--no-mean",
                     "--mean", "inf", "--n", "10", "--seed", "3", "--output", str(out)])
        assert code == 0
        assert np.isfinite([float(v) for v in out.read_text().splitlines()[1:]]).all()


# --innovations text setting one key, and the full parameter tuple it must
# give: the named key plus every other key's default.
INNOVATION_FLAGS = {
    "beta": ("beta:b=3", (2.0, 3.0)),
    "chisq": ("chisq:df=4", (4.0,)),
    "gamma": ("gamma:rate=2", (2.0, 2.0)),
    "gaussian": ("gaussian:sd=2", (2.0,)),
    "laplace": ("laplace:scale=0.5", (0.5,)),
    "lognormal": ("lognormal:sigma=0.3", (0.0, 0.3)),
    "triangular": ("triangular:half_width=2", (2.0,)),
    "uniform": ("uniform:low=-2", (-2.0, 1.0)),
}


class TestInnovationsFlag:
    @pytest.mark.parametrize("family", sorted(INNOVATION_FLAGS))
    def test_named_key_fills_remaining_defaults(self, family, tmp_path):
        text, params = INNOVATION_FLAGS[family]
        args = build_parser().parse_args(["simulate", "--innovations", text, "--n", "30",
                                          "--output", str(tmp_path / "sim.csv")])
        assert args.innovations == InnovationSpec(family, params)
        assert args.handler(args) == 0

    def test_unknown_family_and_key_are_usage_errors(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        for text in ("cauchy", "gamma:scale=2"):
            assert main(["simulate", "--innovations", text, "--n", "30",
                         "--output", out]) == 2


class TestMcCommand:
    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--model", "regression", "--theta", "1,2.5",
                "--innovations", "gamma:shape=2,rate=1", "--n", "60",
                "--n-sim", "50", "--methods", "ols,pmm2", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header.startswith("label,method,parameter")

    def test_ml_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ml.csv"
        code = main(["mc", "--model", "ar", "--order", "1,0,0", "--no-mean",
                     "--theta", "0.5", "--innovations", "gaussian", "--n", "80",
                     "--n-sim", "50", "--methods", "ml,pmm2", "--seed", "2",
                     "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: method must be one of") and "'ml'" in err
        assert not out.exists()

    def test_jobs_flag_preserves_determinism(self, tmp_path):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        args = ["mc", "--model", "regression", "--theta", "1,2",
                "--innovations", "gamma", "--n", "60", "--n-sim", "50",
                "--methods", "ols,pmm2", "--seed", "6"]
        assert main(args + ["--jobs", "1", "--output", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--output", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestGridCommand:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["grid", "--grid-gamma3", "0,1.6", "--grid-n", "100",
                     "--B", "60", "--seed", "4", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma3,n,g2_hat"
        assert len(lines) == 3


class TestExitCodes:
    def test_missing_column_is_data_error(self, line_csv):
        code = main(["fit", "--input", str(line_csv), "--column", "zzz",
                     "--method", "ols", "--design", "x"])
        assert code == 3

    @pytest.mark.parametrize("cell", ["oops", "nan", "inf", "-inf"])
    def test_non_numeric_cell_reports_coordinates(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y"], [(1.0,), (cell,), (3.0,)])
        code = main(["fit", "--input", str(path), "--column", "y", "--method", "css"])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 3" in err and "'y'" in err

    def test_missing_value_reports_coordinates(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("y,x\n1.0,2.0\n,3.0\n")
        code = main(["fit", "--input", str(path), "--column", "y",
                     "--design", "x", "--method", "ols"])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    def test_malformed_order_is_usage_error(self, line_csv):
        code = main(["fit", "--input", str(line_csv), "--column", "y",
                     "--method", "css", "--order", "1;0;0"])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, line_csv):
        code = main(["fit", "--input", str(line_csv), "--column", "y",
                     "--definitely-not-a-flag", "1"])
        assert code == 2

    def test_singular_design_is_fit_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_csv(path, ["y", "a", "b"],
                  [(i + 0.5, i, 2 * i) for i in range(10)])
        code = main(["fit", "--input", str(path), "--column", "y",
                     "--design", "a,b", "--method", "ols"])
        assert code == 4

    def test_unconverged_bootstrap_base_fit_is_fit_error(self, tmp_path, capsys):
        prob = unconverged_pmm2_problem()
        path = tmp_path / "cap.csv"
        write_csv(path, ["y", "x"], [(repr(float(v)), repr(float(u)))
                                     for v, u in zip(prob.y, prob.X[:, 1])])
        code = main(["bootstrap", "--input", str(path), "--column", "y", "--design", "x",
                     "--method", "pmm2", "--B", "199", "--seed", "1"])
        assert code == 4
        assert capsys.readouterr().err == "fit error: base fit did not converge\n"

    @pytest.mark.parametrize("argv, runner", [
        (["grid", "--grid-gamma3", "0,1.2", "--grid-n", "100", "--B", "50"],
         "advantage_grid"),
        (["mc", "--model", "regression", "--theta", "1,2", "--innovations", "gamma",
          "--n", "100", "--n-sim", "50", "--methods", "ols,pmm2"], "run_monte_carlo"),
    ], ids=["grid", "mc"])
    @pytest.mark.parametrize("output, reason", [
        ("NODIR", "No such file or directory"), ("DIR", "Is a directory")])
    def test_unwritable_output_fails_before_the_run(self, argv, runner, output, reason,
                                                    tmp_path, monkeypatch, capsys):
        def run(*args, **kwargs):
            raise AssertionError(f"{runner} ran before the output was checked")

        monkeypatch.setattr(cli, runner, run)
        path = str(tmp_path / "missing" / "out.csv") if output == "NODIR" else str(tmp_path)
        assert main(argv + ["--output", path]) == 2
        assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
        assert not (tmp_path / "missing").exists()

    # Each command passes argparse, then the library rejects an argument with
    # a ValueError, which must exit 2 with a one-line message.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--innovations", "gamma:shape=-1", "--n", "20"],
        ["bootstrap", "--input", "SAMPLE", "--column", "y", "--order", "1,0,0",
         "--B", "0"],
        ["bootstrap", "--input", "SAMPLE", "--column", "y", "--order", "1,0,0",
         "--B", "1"],
        ["bootstrap", "--input", "SAMPLE", "--column", "y", "--order", "1,0,0",
         "--B", "50", "--block-length", "1"],
        ["mc", "--model", "ar", "--order", "1,0,0", "--no-mean", "--theta", "0.5",
         "--innovations", "gamma", "--n", "50", "--n-sim", "10"],
        ["mc", "--model", "ar", "--order", "1,0,0", "--theta", "0.5,0.2,0.1",
         "--innovations", "gamma", "--n", "50", "--n-sim", "50"],
        ["fit", "--input", "SAMPLE", "--column", "y", "--method", "css",
         "--order", "1,0,0", "--horizon", "-1"],
        ["grid", "--grid-gamma3", "-1", "--grid-n", "50", "--B", "50"],
        ["fit", "--input", "SAMPLE", "--column", "y", "--method", "css",
         "--seasonal", "1,0,0,1"],
        # time-series flags with --design, rejected before the file is read
        # (SAMPLE has no column x, which would be a data error)
        ["fit", "--input", "SAMPLE", "--column", "y", "--design", "x", "--order", "0,0,1"],
        ["fit", "--input", "SAMPLE", "--column", "y", "--design", "x",
         "--seasonal", "1,0,0,4"],
        ["fit", "--input", "SAMPLE", "--column", "y", "--design", "x", "--no-mean"],
        ["bootstrap", "--input", "SAMPLE", "--column", "y", "--design", "x",
         "--order", "1,0,0", "--block-length", "5"],
        ["bootstrap", "--input", "SAMPLE", "--column", "y", "--design", "x",
         "--block-length", "5"],
        # an output path that cannot be written: a missing directory (NODIR)
        # or an existing directory (DIR)
        ["fit", "--input", "SAMPLE", "--column", "y", "--method", "css",
         "--order", "1,0,0", "--output", "NODIR"],
        ["fit", "--input", "SAMPLE", "--column", "y", "--method", "css",
         "--order", "1,0,0", "--output", "DIR"],
        ["simulate", "--innovations", "gamma", "--n", "20", "--output", "NODIR"],
        ["simulate", "--innovations", "gamma", "--n", "0"],
    ], ids=["simulate-innovations", "bootstrap-B", "bootstrap-B1", "bootstrap-block-length",
            "mc-n-sim", "mc-theta-length", "fit-horizon", "grid-gamma3", "seasonal-s",
            "fit-design-order", "fit-design-seasonal", "fit-design-no-mean",
            "bootstrap-design-order", "bootstrap-design-block-length",
            "fit-output-missing-dir", "fit-output-is-dir", "simulate-output-missing-dir",
            "simulate-n-zero"])
    def test_library_argument_error_is_usage_error(self, argv, tmp_path, capsys):
        places = {"SAMPLE": str(Path(__file__).parent.parent / "data" / "ar1_gamma_sample.csv"),
                  "NODIR": str(tmp_path / "missing" / "out"), "DIR": str(tmp_path)}
        argv = [places.get(a, a) for a in argv]
        if argv[0] in ("simulate", "mc", "grid") and "--output" not in argv:
            argv += ["--output", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    # n too short for the order (or the regression) fails before the first
    # replicate, where it used to fail every replicate and exit 4
    @pytest.mark.parametrize("argv", [
        ["mc", "--model", "ar", "--order", "1,0,0", "--theta", "0.5,0",
         "--innovations", "gamma", "--n", "5", "--n-sim", "50"],
        ["mc", "--model", "regression", "--theta", "1,2", "--innovations", "gamma",
         "--n", "5", "--n-sim", "50", "--methods", "ols,pmm2"],
        ["grid", "--grid-gamma3", "0", "--grid-n", "3", "--B", "50"],
    ], ids=["mc-ar", "mc-regression", "grid"])
    def test_too_short_monte_carlo_is_data_error(self, argv, tmp_path, monkeypatch, capsys):
        def chunk(args):
            raise AssertionError("a replicate ran before the length check")

        monkeypatch.setattr(mcbench, "_replicate_chunk", chunk)
        out = tmp_path / "out.csv"
        assert main(argv + ["--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: spec ") and "too short for" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_too_short_series_is_data_error(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, ["y"], [(1.0,), (2.0,), (3.0,)])
        code = main(["fit", "--input", str(path), "--column", "y",
                     "--method", "css", "--order", "1,0,0"])
        assert code == 3


def test_fit_on_data_near_1e100_prints_one_error_line(tmp_path, capsys):
    # sum d^6 overflows: a fit error, without numpy's overflow warning first
    path = tmp_path / "big.csv"
    write_csv(path, ["y"], [(repr(float(v)),)
                            for v in np.random.default_rng(0).standard_normal(40) * 1e100])
    for extra in ([], ["--method", "css", "--order", "1,0,0"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--input", str(path), "--column", "y", *extra])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("fit error: ") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_data_near_1e160_is_one_fit_error(tmp_path, capsys):
    # the squares overflow: a moment overflow, not numpy's warnings and then a
    # rank-deficient design, an exit 0 with NaN moments or a near-Gaussian dispatch
    path = tmp_path / "huge.csv"
    write_csv(path, ["y"], [(repr(float(v)),)
                            for v in np.random.default_rng(0).standard_normal(40) * 1e160])
    for command, *extra in (["fit"], ["fit", "--method", "css", "--order", "0,0,1"],
                            ["dispatch"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--input", str(path), "--column", "y", *extra])
        assert code == 4
        assert capsys.readouterr().err == \
            "fit error: sample moments overflow the float range (m2 = inf)\n"
        assert not caught
