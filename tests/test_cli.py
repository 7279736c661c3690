import dataclasses
import json
import hashlib
import subprocess
import sys

import numpy as np
import pytest

import eulac.cli
import eulac.mixture
import eulac.modelsel
from eulac.cli import build_parser, main
from eulac.data import (
    bayes_risk_oracle,
    format_synthetic_spec,
    load_features_csv,
    load_libsvm,
    parse_synthetic_spec,
)
from eulac.evalbench import _make_task
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took about half of a fresh `import eulac.cli`
    code = "import sys, eulac.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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

    def test_same_data_in_two_directories_byte_identical(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data")
        copy = tmp_path / "elsewhere" / "copy"
        copy.mkdir(parents=True)
        for name in ("labeled.libsvm", "unlabeled.csv"):
            (copy / name).write_bytes((data / name).read_bytes())
        for src, out in ((data, "f1"), (copy, "f2")):
            assert main(["fit", "--labeled", str(src / "labeled.libsvm"),
                         "--unlabeled", str(src / "unlabeled.csv"), "--seed", "2",
                         "--out", str(tmp_path / out)] + FAST_GRID) == 0
        for name in ("model.json", "cv_report.json", "theta.json"):
            assert _digest(tmp_path / "f1" / name) == _digest(tmp_path / "f2" / name)
        config = json.loads((tmp_path / "f1" / "theta.json").read_text())["config"]
        assert config["labeled_sha256"] == _digest(data / "labeled.libsvm")
        assert config["unlabeled_sha256"] == _digest(data / "unlabeled.csv")
        assert "labeled" not in config and "unlabeled" not in config

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_median_heuristic_runs_once(self, spec_file, tmp_path, monkeypatch, command):
        # theta estimation and cross-validation share one median distance
        calls = []
        for module in (eulac.cli, eulac.modelsel):
            def counting(points, _median=module.median_heuristic):
                calls.append(len(points))
                return _median(points)
            monkeypatch.setattr(module, "median_heuristic", counting)
        data = _gen(spec_file, tmp_path / "data")
        assert main([command, "--labeled", str(data / "labeled.libsvm"),
                     "--unlabeled", str(data / "unlabeled.csv"),
                     "--out", str(tmp_path / command)] + FAST_GRID) == 0
        assert calls == [100 + 150]

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_unlabeled_set_smaller_than_folds_exits_one(self, spec_file, tmp_path, capsys,
                                                        command):
        data = _gen(spec_file, tmp_path / "data")
        one_row = tmp_path / "one.csv"
        one_row.write_text((data / "unlabeled.csv").read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        rc = main([command, "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(one_row), "--out", str(tmp_path / command),
                   "--theta", "0.7"] + FAST_GRID)
        assert rc == 1
        assert "unlabeled set has 1 samples, fewer than 2 folds" in capsys.readouterr().err

    def test_double_hinge_warns_exit_two(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=50)
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "fit"), "--theta", "0.7",
                   "--loss", "double-hinge"] + FAST_GRID)
        assert rc == 2  # the loss has kinks, so no gradient method can certify its tolerance


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

    def test_sentinel_label_in_file_exits_one(self, fitted, tmp_path, capsys):
        # files mark novel rows with 0; a raw K+1 is not read as novel
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:0.0 2:0.0\n3 1:1.0 2:1.0\n0 1:2.0 2:2.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert "labels [3] outside the expected range 1..2" in capsys.readouterr().err

    def test_out_file(self, fitted, tmp_path):
        data, model = fitted
        target = tmp_path / "metrics.json"
        rc = main(["eval", "--model", str(model), "--test", str(data / "test.libsvm"),
                   "--out", str(target)])
        assert rc == 0 and json.loads(target.read_text())["n_test"] == 120

    def test_same_files_in_two_directories_byte_identical(self, fitted, tmp_path):
        data, model = fitted
        copy = tmp_path / "elsewhere"
        copy.mkdir()
        (copy / "m.json").write_bytes(model.read_bytes())
        (copy / "t.libsvm").write_bytes((data / "test.libsvm").read_bytes())
        for m, t, out in ((model, data / "test.libsvm", "e1.json"),
                          (copy / "m.json", copy / "t.libsvm", "e2.json")):
            assert main(["eval", "--model", str(m), "--test", str(t),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "e1.json").read_bytes() == (tmp_path / "e2.json").read_bytes()
        payload = json.loads((tmp_path / "e1.json").read_text())
        assert payload["model_sha256"] == _digest(model)
        assert payload["test_sha256"] == _digest(data / "test.libsvm")
        assert "model" not in payload and "test" not in payload


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
            exc = np.linalg.LinAlgError("not positive definite")
            exc.fold = 0  # the solver names the fold whose recurrence failed
            raise exc

        monkeypatch.setattr(eulac.modelsel, "_square_loss_fold_alphas", singular)
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

    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_theta_guard_hits_warn(self, spec_file, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_PER_COORDINATE", 0)
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_SLACK", 1)
        data = _gen(spec_file, tmp_path / "data")
        capsys.readouterr()
        rc = main([command, "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / command)] + FAST_GRID)
        assert rc == 0  # the warning does not change the exit code
        err = capsys.readouterr().err
        assert "of the theta curve's QPs stopped at their iteration guard" in err
        assert err.count("warning:") == 1

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_unconverged_cv_solves_warn(self, spec_file, tmp_path, monkeypatch, capsys,
                                        command):
        solve = eulac.modelsel._first_order_alpha

        def short_of_tolerance(*args):
            alpha, record = solve(*args)
            return alpha, dataclasses.replace(record, converged=False)

        monkeypatch.setattr(eulac.modelsel, "_first_order_alpha", short_of_tolerance)
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=60)
        capsys.readouterr()
        rc = main([command, "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"), "--out", str(tmp_path / command),
                   "--theta", "0.7", "--loss", "logistic", "--sigma-mult", "1.0",
                   "--lambda", "0.01", "0.1", "--folds", "2"])
        assert rc == 0  # the refit converged; CV solves alone do not change the exit code
        err = capsys.readouterr().err
        assert ("did not reach their gradient tolerance at sigma_multiplier=1.0 lambda=0.01 "
                "(2 of 2 folds), sigma_multiplier=1.0 lambda=0.1 (2 of 2 folds)") in err
        report = json.loads((tmp_path / command / "cv_report.json").read_text())
        assert all("nonconverged_folds" not in cell for cell in report["cells"])


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


class TestBenchData:
    @pytest.fixture()
    def data_file(self, tmp_path):
        # file class ids 0..3; the first feature is the id plus small noise,
        # so every row names the file class it came from
        rng = np.random.default_rng(0)
        ids = np.repeat([0, 1, 2, 3], 60).tolist()
        path = tmp_path / "full.libsvm"
        path.write_text("".join(f"{c} 1:{c + 0.1 * rng.uniform()!r} 2:{float(rng.normal())!r}\n"
                                for c in ids))
        return path

    def test_configuration_names_file_ids(self, data_file, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("known_labels = 1 2\nnew_labels = 3\n")
        source = eulac.cli._bench_source(build_parser().parse_args(
            ["bench", "scaling", "--data", str(data_file), "--config", str(config)]))
        labeled, unlabeled, test, theta = _make_task(source, 40, 60, 60, seed=0)

        def file_ids(X):
            return set(np.floor(X[:, 0]).astype(int).tolist())

        assert file_ids(labeled.X) == {1, 2}
        assert file_ids(unlabeled.X) == {1, 2, 3}
        for label, ids in ((1, {1}), (2, {2}), (3, {3})):  # 3 = K+1, the novel class
            assert file_ids(test.X[test.y == label]) == ids
        assert theta == pytest.approx(2.0 / 3.0)

    def test_absent_configured_id_exits_one(self, data_file, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("known_labels = 1 2\nnew_labels = 7\n")
        rc = main(["bench", "scaling", "--data", str(data_file), "--config", str(config),
                   "--out", str(tmp_path / "b")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "class configuration names ids absent from" in err and err.endswith(": [7]\n")
