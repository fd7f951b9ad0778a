import json

import numpy as np
import pytest

from msplogit.cli import (
    EXIT_BOUNDARY,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNCONVERGED,
    RunConfig,
    culcita_config,
    load_csv,
    main,
    parse_result,
)
from msplogit.datasets import culcita, culcita_path
from msplogit.likelihood import LoglikEvaluator, ModeFindingError
from msplogit.model import DataError
from msplogit.simulate import REASONS


def parse_float_list(value: str) -> list[float]:
    return [float(v) for v in value.split(",") if v != ""]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SEPARATED_CSV = "y,x,g\n" + "".join(
    f"{int(x > 0)},{x},{g}\n" for g in range(4) for x in (-1.0, -0.5, 0.5, 1.0)
)


class TestLoadCsv:
    def test_culcita_shape(self):
        config = culcita_config()
        data = load_csv(culcita_path(), config)
        assert data.k == 10
        assert list(data.sizes) == [8] * 10
        assert data.p == 4 and data.q == 1
        assert data.X[:, 0].min() == 1.0
        # dummy columns are mutually exclusive
        assert (data.X[:, 1:].sum(axis=1) <= 1).all()

    def test_single_row_file(self, tmp_path):
        # intercept-only model: one row is one cluster of size one
        path = write(tmp_path, "tiny.csv", "y,x,g\n1,0.5,a\n")
        config = RunConfig(
            command="fit", data=path, response="y", cluster="g", intercept=True,
        )
        data = load_csv(path, config)
        assert data.k == 1 and data.n == 1 and data.p == 1 and data.q == 1

    def test_non_binary_response_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "y,x,g\n1,0.5,a\n2,0.1,a\n")
        config = RunConfig(
            command="fit", data=path, response="y", cluster="g",
            fixed=["x"], intercept=True,
        )
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, config)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "cols.csv", "y,x,g\n1,0.5,a\n")
        config = RunConfig(
            command="fit", data=path, response="y", cluster="g",
            fixed=["nope"], intercept=True,
        )
        with pytest.raises(DataError, match="nope"):
            load_csv(path, config)

    def test_non_numeric_covariate_names_line(self, tmp_path):
        path = write(tmp_path, "covs.csv", "y,x,g\n1,0.5,a\n0,oops,a\n")
        config = RunConfig(
            command="fit", data=path, response="y", cluster="g",
            fixed=["x"], intercept=True,
        )
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, config)

    def test_first_appearance_cluster_order(self, tmp_path):
        path = write(
            tmp_path, "order.csv",
            "y,x,g\n1,0.1,b\n0,0.2,a\n1,0.3,b\n0,0.4,a\n",
        )
        config = RunConfig(
            command="fit", data=path, response="y", cluster="g",
            fixed=["x"], intercept=True,
        )
        data = load_csv(path, config)
        # cluster "b" first because it appears first
        assert list(data.sizes) == [2, 2]
        assert np.allclose(data.X[:2, 1], [0.1, 0.3])

    def test_atypical_row_drop(self):
        assert culcita().n == 80
        reduced = culcita(drop_atypical=True)
        assert reduced.n == 79
        # removed row is the second "none" replicate of the last block
        assert list(reduced.sizes) == [8] * 9 + [7]


class TestFitCommand:
    def test_fit_writes_parsable_document(self, tmp_path):
        out = str(tmp_path / "result.txt")
        code = main([
            "fit", "--data", culcita_path(), "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block",
            "--intercept", "--method", "mspl", "--quadrature", "30",
            "--out", out,
        ])
        assert code == EXIT_OK
        doc = parse_result(open(out).read())
        est = parse_float_list(doc["parameters"]["kv"]["estimates"])
        assert len(est) == 5
        assert doc["fit"]["kv"]["converged"] == "true"
        names = doc["parameters"]["kv"]["names"].split(",")
        assert names[0] == "beta:intercept" and names[-1] == "psi:log_l11"

    def test_round_trip_full_precision(self, tmp_path):
        out = str(tmp_path / "result.txt")
        main([
            "fit", "--data", culcita_path(), "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block",
            "--intercept", "--quadrature", "25", "--out", out,
        ])
        text = open(out).read()
        est = parse_float_list(parse_result(text)["parameters"]["kv"]["estimates"])
        # re-serializing the parsed numbers reproduces the exact text
        assert ",".join(format(v, ".17g") for v in est) in text

    def test_ml_on_separated_data_exits_boundary(self, tmp_path):
        path = write(tmp_path, "sep.csv", SEPARATED_CSV)
        out = str(tmp_path / "result.txt")
        code = main([
            "fit", "--data", path, "--response", "y", "--fixed", "x",
            "--cluster", "g", "--intercept", "--method", "ml",
            "--quadrature", "25", "--out", out,
        ])
        assert code == EXIT_BOUNDARY
        doc = parse_result(open(out).read())
        flags = doc["parameters"]["kv"]["boundary_flags"].split(",")
        assert "1" in flags
        # estimates still written
        assert len(parse_float_list(doc["parameters"]["kv"]["estimates"])) == 3

    def test_reference_estimates_through_cli(self, tmp_path):
        # Fit on the data minus the atypical row at full quadrature and
        # compare the written estimates with the reference values.
        lines = open(culcita_path()).read().splitlines()
        kept = [lines[0]] + [
            ln for ln in lines[1:] if not ln.startswith("10,none,2,")
        ]
        path = write(tmp_path, "reduced.csv", "\n".join(kept) + "\n")
        out = str(tmp_path / "result.txt")
        code = main([
            "fit", "--data", path, "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block",
            "--intercept", "--method", "mspl", "--quadrature", "100",
            "--out", out,
        ])
        assert code == EXIT_OK
        doc = parse_result(open(out).read())
        est = np.array(parse_float_list(doc["parameters"]["kv"]["estimates"]))
        assert np.abs(est - [8.05, -6.90, -7.87, -9.64, 1.72]).max() < 0.15

    def test_input_error_exit_code(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "missing.csv"),
                     "--response", "y", "--fixed", "x", "--cluster", "g",
                     "--intercept"])
        assert code == EXIT_INPUT_ERROR

    def test_flags_override_config_file(self, tmp_path, capsys):
        config_path = write(tmp_path, "config.json", json.dumps({
            "data": culcita_path(),
            "response": "predation",
            "fixed": ["crabs", "shrimp", "both"],
            "cluster": "block",
            "intercept": True,
            "method": "ml",
            "quadrature": 20,
        }))
        out = str(tmp_path / "result.txt")
        code = main(["fit", "--config", config_path, "--method", "mspl", "--out", out])
        assert code == EXIT_OK
        doc = parse_result(open(out).read())
        assert doc["run"]["kv"]["method"] == "mspl"
        assert doc["run"]["kv"]["quadrature"] == "20"

    def test_unknown_config_key_rejected(self, tmp_path):
        config_path = write(tmp_path, "config.json", json.dumps({"dataa": "x"}))
        code = main(["fit", "--config", config_path])
        assert code == EXIT_INPUT_ERROR

    def test_missing_required_setting(self):
        assert main(["fit", "--data", "x.csv", "--response", "y"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("extra", [
        ["fit", "--quadrature", "0"],
        ["fit", "--quadrature", "500"],
        ["fit", "--config", {"approx": "foo"}],
        ["fit", "--approx", "agq", "--random", "crabs"],
        ["simulate", "--replications", "0"],
        ["fit", "--config", {"quadrature": "20"}],
        ["simulate", "--config", {"methods": []}],
        ["simulate", "--config", {"methods": ["mspl", "ml", "mspl"]}],
        ["fit", "--beta-max", "nan"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--config", {"theta_true": [float("nan"), 0.0, 0.0, 0.0, 0.0]}],
        ["simulate", "--config", {"theta_true": [0.0, 0.0, 0.0, 0.0, float("inf")]}],
    ], ids=["quadrature-0", "quadrature-500", "config-approx", "agq-q2", "replications-0",
            "config-quadrature-string", "config-no-methods", "config-repeated-method", "beta-max-nan",
            "seed-negative", "theta-true-nan", "theta-true-infinity"])
    def test_invalid_setting_is_an_input_error(self, tmp_path, capsys, extra):
        args = [
            write(tmp_path, "config.json", json.dumps(a)) if isinstance(a, dict) else a
            for a in extra
        ]
        code = main(args + [
            "--data", culcita_path(), "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block", "--intercept",
        ])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_se_step_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def failing_hessian(self, theta):
            raise ModeFindingError("cluster modes did not converge")

        monkeypatch.setattr(LoglikEvaluator, "hessian", failing_hessian)
        code = main([
            "fit", "--data", culcita_path(), "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block", "--intercept",
            "--quadrature", "5", "--out", str(tmp_path / "result.txt"),
        ])
        assert code == EXIT_UNCONVERGED
        assert capsys.readouterr().err.startswith("error: standard-error evaluation failed")


class TestSimulateCommand:
    def test_byte_identical_repeat_runs(self, tmp_path):
        args = [
            "simulate", "--data", culcita_path(), "--response", "predation",
            "--fixed", "crabs,shrimp,both", "--cluster", "block",
            "--intercept", "--method", "mspl", "--quadrature", "20",
            "--replications", "3", "--seed", "42",
        ]
        out1 = str(tmp_path / "a.txt")
        out2 = str(tmp_path / "b.txt")
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_summary_sections_present(self, tmp_path):
        config_path = write(tmp_path, "sim.json", json.dumps({
            "data": culcita_path(),
            "response": "predation",
            "fixed": ["crabs", "shrimp", "both"],
            "cluster": "block",
            "intercept": True,
            "methods": ["mspl", "ml"],
            "quadrature": 20,
            "replications": 2,
            "seed": 7,
            "theta_true": [4.0, -3.0, -3.5, -4.5, 1.0],
        }))
        out = str(tmp_path / "sim.txt")
        assert main(["simulate", "--config", config_path, "--out", out]) == EXIT_OK
        doc = parse_result(open(out).read())
        assert "summary:mspl" in doc and "summary:ml" in doc
        assert "percentiles:mspl" in doc
        assert doc["simulation"]["kv"]["replications"] == "2"
        for label in ("mspl", "ml"):
            kv = doc[f"summary:{label}"]["kv"]
            counts = [int(kv[f"discarded_{reason}"]) for reason in REASONS]
            assert all(0 <= n <= 2 for n in counts)
        table = doc["summary:mspl"]["table"]
        assert table[0][:3] == ["param", "bias", "variance"]
        assert len(table) == 6  # header + 5 parameters
