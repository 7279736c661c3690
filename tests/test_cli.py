import json
import hashlib

import numpy as np
import pytest

import eulac.modelsel
from eulac.cli import main
from eulac.data import (
    bayes_risk_oracle,
    format_synthetic_spec,
    load_features_csv,
    load_libsvm,
    parse_synthetic_spec,
)
from eulac.modelsel import HyperGrid

from conftest import two_cluster_spec

FAST_GRID = ["--sigma-mult", "1.0", "--lambda", "0.01", "--folds", "2"]


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(format_synthetic_spec(two_cluster_spec(0.7, seed=0)))
    return path


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(spec_file, out, seed=3, nl=100, nu=150, nt=120):
    rc = main(["gen", "--spec", str(spec_file), "--out", str(out), "--seed", str(seed),
               "--n-labeled", str(nl), "--n-unlabeled", str(nu), "--n-test", str(nt)])
    assert rc == 0
    return out


class TestGen:
    def test_writes_expected_files(self, spec_file, tmp_path):
        out = _gen(spec_file, tmp_path / "out")
        for name in ("labeled.libsvm", "unlabeled.csv", "test.libsvm", "manifest.json"):
            assert (out / name).exists()

    def test_manifest_bayes_matches_rerun(self, spec_file, tmp_path):
        out = _gen(spec_file, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        spec = parse_synthetic_spec(spec_file.read_text())
        rerun = bayes_risk_oracle(spec, manifest["grid_resolution"])
        assert abs(manifest["bayes_risk"] - rerun) <= 1e-6

    def test_theta_one_writes_no_novel_labels(self, tmp_path):
        spec_path = tmp_path / "spec1.txt"
        spec_path.write_text(format_synthetic_spec(two_cluster_spec(1.0, seed=0)))
        out = _gen(spec_path, tmp_path / "out")
        labels = [line.split()[0] for line in (out / "test.libsvm").read_text().splitlines()]
        assert "0" not in labels

    def test_byte_identical_reruns(self, spec_file, tmp_path):
        a = _gen(spec_file, tmp_path / "a")
        b = _gen(spec_file, tmp_path / "b")
        for name in ("labeled.libsvm", "unlabeled.csv", "test.libsvm", "manifest.json"):
            assert _digest(a / name) == _digest(b / name)


class TestFit:
    def test_happy_path(self, spec_file, tmp_path, capsys):
        data = _gen(spec_file, tmp_path / "data")
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "fit"), "--seed", "1",
                   "--theta", "0.7", "--loss", "square"] + FAST_GRID)
        assert rc == 0
        assert (tmp_path / "fit" / "model.json").exists()
        assert (tmp_path / "fit" / "cv_report.json").exists()
        assert (tmp_path / "fit" / "theta.json").exists()

    def test_missing_unlabeled_exits_one(self, spec_file, tmp_path, capsys):
        data = _gen(spec_file, tmp_path / "data")
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "fit")])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_reruns_byte_identical(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data")
        args = ["fit", "--labeled", str(data / "labeled.libsvm"),
                "--unlabeled", str(data / "unlabeled.csv"), "--seed", "2",
                "--theta", "0.7"] + FAST_GRID
        assert main(args + ["--out", str(tmp_path / "f1")]) == 0
        assert main(args + ["--out", str(tmp_path / "f2")]) == 0
        for name in ("model.json", "cv_report.json", "theta.json"):
            assert _digest(tmp_path / "f1" / name) == _digest(tmp_path / "f2" / name)

    def test_double_hinge_warns_exit_two(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=50)
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "fit"), "--theta", "0.7",
                   "--loss", "double-hinge"] + FAST_GRID)
        assert rc == 2  # subgradient method cannot hit the gradient tolerance


class TestEval:
    @pytest.fixture()
    def fitted(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data")
        main(["fit", "--labeled", str(data / "labeled.libsvm"),
              "--unlabeled", str(data / "unlabeled.csv"),
              "--out", str(tmp_path / "fit"), "--seed", "1", "--theta", "0.7"]
             + FAST_GRID)
        return data, tmp_path / "fit" / "model.json"

    def test_metrics_json(self, fitted, tmp_path, capsys):
        data, model = fitted
        rc = main(["eval", "--model", str(model), "--test", str(data / "test.libsvm")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_test"] == 120
        assert sum(sum(row) for row in payload["confusion"]["counts"]) == 120
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["confusion"]["classes"] == ["1", "2", "nc"]
        assert payload["zero_one_risk"] == pytest.approx(1.0 - payload["accuracy"])

    def test_fitted_model_beats_constant_prediction_on_train(self, fitted, capsys):
        data, model = fitted
        rc = main(["eval", "--model", str(model), "--test", str(data / "labeled.libsvm")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        labels = [int(l.split()[0]) for l in (data / "labeled.libsvm").read_text().splitlines()]
        majority = max(np.bincount(labels)) / len(labels)
        assert payload["accuracy"] >= majority

    def test_foreign_labels_exit_one(self, fitted, tmp_path, capsys):
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_text("5 1:0.0 2:0.0\n6 1:1.0 2:1.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert "outside" in capsys.readouterr().err

    def test_out_file(self, fitted, tmp_path):
        data, model = fitted
        target = tmp_path / "metrics.json"
        rc = main(["eval", "--model", str(model), "--test", str(data / "test.libsvm"),
                   "--out", str(target)])
        assert rc == 0 and json.loads(target.read_text())["n_test"] == 120


class TestThetaAndCv:
    def test_theta_command(self, spec_file, tmp_path, capsys):
        data = _gen(spec_file, tmp_path / "data", nl=200, nu=300)
        capsys.readouterr()  # discard the gen command's progress line
        rc = main(["theta", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["theta_hat"] <= 1.0
        assert len(payload["curve"]) > 0

    def test_cv_command(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data")
        rc = main(["cv", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "cv"), "--theta", "0.7"] + FAST_GRID)
        assert rc == 0
        report = json.loads((tmp_path / "cv" / "cv_report.json").read_text())
        assert len(report["cells"]) == 1

    def test_cv_solver_failure_names_cell_and_exits_one(self, spec_file, tmp_path,
                                                        monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(eulac.modelsel, "_square_loss_alpha", singular)
        data = _gen(spec_file, tmp_path / "data")
        labeled = load_libsvm(data / "labeled.libsvm")
        unlabeled = load_features_csv(data / "unlabeled.csv")
        grid = HyperGrid(sigma_multipliers=(1.0,), lambda_candidates=(0.01,), folds=2)
        with pytest.raises(RuntimeError) as info:
            eulac.modelsel.cross_validate(labeled, unlabeled, 0.7, grid, seed=0)
        message = str(info.value)
        assert "sigma_multiplier=1.0, lambda=0.01, fold=0" in message
        assert "LinAlgError: not positive definite" in message
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

        capsys.readouterr()
        rc = main(["cv", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "cv"), "--theta", "0.7"] + FAST_GRID)
        assert rc == 1
        assert "LinAlgError" in capsys.readouterr().err
        assert not (tmp_path / "cv" / "cv_report.json").exists()


class TestBench:
    def test_scaling_csv_rows(self, spec_file, tmp_path):
        rc = main(["bench", "scaling", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b"), "--sizes", "60", "120",
                   "--repeats", "1", "--n-labeled", "40", "--n-test", "100",
                   "--theta", "0.7"] + FAST_GRID)
        assert rc == 0
        lines = (tmp_path / "b" / "scaling.csv").read_text().strip().split("\n")
        assert lines[0] == "x,mean,std,n"
        assert len(lines) == 3

    def test_theta_sweep_default_ratios(self, spec_file, tmp_path):
        rc = main(["bench", "theta-sweep", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b"), "--repeats", "1",
                   "--n-labeled", "40", "--n-unlabeled", "60", "--n-test", "80",
                   ] + FAST_GRID)
        assert rc == 0
        lines = (tmp_path / "b" / "theta_sweep_f1.csv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + ratios {0, 0.2, 0.6, 0.8}
        assert (tmp_path / "b" / "theta_sweep_accuracy.csv").exists()

    def test_excess_risk_verdict(self, spec_file, tmp_path, capsys):
        rc = main(["bench", "excess-risk", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b"), "--repeats", "1",
                   "--n-labeled", "60", "--n-unlabeled", "90", "--theta", "0.7",
                   ] + FAST_GRID)
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "lhs=" in out and "rhs=" in out
        payload = json.loads((tmp_path / "b" / "excess_risk.json").read_text())
        assert payload["runs"][0]["passed"]

    def test_source_required(self, tmp_path, capsys):
        rc = main(["bench", "scaling", "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "--spec" in capsys.readouterr().err
