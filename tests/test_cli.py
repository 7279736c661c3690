import dataclasses
import json
import math
import hashlib
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import eulac.cli
import eulac.kernel
import eulac.mixture
import eulac.modelsel
import eulac.solver
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
TEN_D_SPEC = Path(__file__).resolve().parents[1] / "specs" / "five_known_ten_d.txt"


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


# runs each command in one fresh interpreter and prints, after the import
# and after each command, its exit code and which of scipy.stats and
# scipy.optimize are loaded
MODULE_PROBE = """
import json, sys
import eulac.cli
spec, d = sys.argv[1:]
data = ["--labeled", d + "/labeled.libsvm", "--unlabeled", d + "/unlabeled.csv"]
grid = ["--sigma-mult", "1.0", "--lambda", "0.01", "--folds", "2"]
runs = [
    ("gen", ["gen", "--spec", spec, "--out", d, "--n-labeled", "40", "--n-unlabeled", "50",
             "--n-test", "30", "--grid-resolution", "50"]),
    ("fit", ["fit", *data, "--out", d + "/fit", *grid]),
    ("eval", ["eval", "--model", d + "/fit/model.json", "--test", d + "/test.libsvm",
              "--out", d + "/eval.json"]),
    ("theta", ["theta", *data, "--out", d + "/theta.json"]),
    ("cv", ["cv", *data, "--out", d + "/cv", "--theta", "0.7", *grid]),
    ("logistic fit", ["fit", *data, "--out", d + "/logistic", "--theta", "0.7",
                      "--loss", "logistic", *grid]),
]
seen = {"import": [0, sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)]}
for name, argv in runs:
    rc = eulac.cli.main(argv)
    seen[name] = [rc, sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)]
print(json.dumps(seen))
"""


def test_square_loss_leaves_scipy_stats_and_optimize_unloaded(spec_file, tmp_path):
    # scipy.stats alone took about half of a fresh `import eulac.cli`;
    # scipy.optimize adds about 11 MB of RSS and 0.1 s, and only the
    # first-order losses use it
    out = subprocess.run([sys.executable, "-c", MODULE_PROBE, str(spec_file), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    square = ["import", "gen", "fit", "eval", "theta", "cv"]
    assert seen == {**{name: [0, []] for name in square},
                    "logistic fit": [0, ["scipy.optimize"]]}


class TestParser:
    def test_built_once_per_process_not_at_import(self, tmp_path, monkeypatch, capsys):
        # building it took 84 add_argument calls on every main() call
        probe = ("import eulac.cli; print(eulac.cli._parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        assert done.stdout == "0\n"
        builds = []
        build = eulac.cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(eulac.cli, "build_parser", counting_build)
        eulac.cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["theta", "--labeled", str(tmp_path / "missing.libsvm"),
                             "--unlabeled", str(tmp_path / "missing.csv")]) == 1
        finally:
            eulac.cli._parser.cache_clear()
        assert len(builds) == 1
        assert capsys.readouterr().err.count("No such file") == 3

    def test_list_defaults_cannot_be_changed_by_a_command(self):
        # the parser is shared by every main() call of a process, so a list
        # default that a command changed would reach the next call
        parser = build_parser()
        for argv, names in [
            (["bench", "scaling", "--spec", "s"], ("sizes", "lam", "sigma_mult")),
            (["bench", "theta-sweep", "--spec", "s"], ("ratios", "lam", "sigma_mult")),
            (["fit", "--labeled", "l", "--unlabeled", "u"], ("lam", "sigma_mult")),
            (["cv", "--labeled", "l", "--unlabeled", "u"], ("lam", "sigma_mult")),
        ]:
            args = parser.parse_args(argv)
            for name in names:
                assert isinstance(getattr(args, name), tuple), (argv, name)


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

    @pytest.mark.parametrize("old, new, message", [
        # a component without its cov ended in a KeyError traceback
        ("class.1.component.1.cov = 1.0 0.0 ; 0.0 1.0\n", "",
         "5: missing key 'class.1.component.1.cov'"),
        ("class.1.prior = 0.5", "class.1.prior = x", "4: could not convert string to float: 'x'"),
        ("seed = 0", "seed 0", "3: expected 'key = value'"),
        # an unknown field exited 0, and a misspelt weight fell back to 1.0
        ("component.1.weight", "component.1.bogus",
         "5: unrecognised key 'class.1.component.1.bogus'"),
        # a non-finite mean failed only after sampling, naming no file
        ("mean = -2.0 0.0", "mean = nan 0.0", "6: mean must hold finite numbers"),
        # a bad covariance was named by its 0-based position, with no line
        ("class.2.component.1.cov = 1.0 0.0 ; 0.0 1.0",
         "class.2.component.1.cov = 1.0 2.0 ; 2.0 1.0",
         "11: class.2.component.1.cov is not positive definite"),
        # a non-finite weight or theta was named by the file alone, or not
        # at its line
        ("class.1.component.1.weight = 1.0", "class.1.component.1.weight = nan",
         "5: weight must be finite and nonnegative, got nan"),
        ("theta = 0.7", "theta = nan", "2: theta must lie in (0, 1], got nan"),
    ])
    def test_malformed_spec_names_path_and_line(self, spec_file, tmp_path, capsys, old, new,
                                                message):
        spec_file.write_text(spec_file.read_text().replace(old, new, 1))
        rc = main(["gen", "--spec", str(spec_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {spec_file}:{message}\n"
        assert not (tmp_path / "out").exists()


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
        theta = json.loads((tmp_path / "fit" / "theta.json").read_text())
        # a supplied fraction has no curve, so no knee and no slope cut
        assert theta["theta_hat"] == 0.7 and theta["curve"] == []
        assert theta["knee"] is None and theta["slope_cut"] is None

    def test_missing_unlabeled_exits_one(self, spec_file, tmp_path, capsys):
        data = _gen(spec_file, tmp_path / "data")
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "fit")])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_out_of_memory_exits_one(self, spec_file, tmp_path, monkeypatch, capsys):
        data = _gen(spec_file, tmp_path / "data")
        refusal = ("Unable to allocate 74.5 GiB for an array with shape (5000000000,) "
                   "and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(refusal)

        # the median heuristic's pairwise distances are the first n^2 build
        monkeypatch.setattr(eulac.kernel, "pdist", out_of_memory)
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / "fit")] + FAST_GRID)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert not (tmp_path / "fit").exists()

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

    def test_double_hinge_warns_exit_two(self, spec_file, tmp_path, monkeypatch, capsys):
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=50)
        argv = ["fit", "--labeled", str(data / "labeled.libsvm"),
                "--unlabeled", str(data / "unlabeled.csv"),
                "--out", str(tmp_path / "fit"), "--theta", "0.7",
                "--loss", "double-hinge"] + FAST_GRID
        assert main(argv) == 0  # every score column's duality gap is certified
        solve = eulac.solver._first_order_alpha

        def short_of_tolerance(*args):
            alpha, record = solve(*args)
            return alpha, dataclasses.replace(record, converged=False)

        # the refit reads this name; cross-validation reads its own import
        monkeypatch.setattr(eulac.solver, "_first_order_alpha", short_of_tolerance)
        capsys.readouterr()
        assert main(argv) == 2
        assert "solver did not reach its convergence tolerance" in capsys.readouterr().err


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

    def test_test_file_of_another_width_exits_one(self, fitted, tmp_path, capsys):
        data, model = fitted
        wide = tmp_path / "wide.libsvm"
        wide.write_text("1 1:0.0 2:0.0 3:1.0\n0 1:1.0 2:1.0 3:0.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(wide)])
        assert rc == 1
        assert "query dimension 3 does not match support 2" in capsys.readouterr().err

    def test_nonfinite_support_point_exits_one(self, fitted, tmp_path, capsys):
        data, model = fitted
        payload = json.loads(model.read_text())
        payload["support_points"][5][0] = math.nan
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))  # writes the NaN literal
        rc = main(["eval", "--model", str(bad), "--test", str(data / "test.libsvm")])
        assert rc == 1
        assert capsys.readouterr().err == "error: support points must be finite\n"

    @staticmethod
    def _without(payload, name):
        del payload[name]
        return payload

    @pytest.mark.parametrize("edit, message", [
        (lambda p: TestEval._without(p, "kernel_sigma"),
         "model file: field 'kernel_sigma' is missing"),
        (lambda p: [p], "model file is not a JSON object with format_version 1"),
        (lambda p: {**p, "num_known_classes": "2"},
         "model file: field 'num_known_classes' has the wrong type (str)"),
        (lambda p: {**p, "theta": 1.5}, "theta must lie in (0, 1], got 1.5"),
        (lambda p: {**p, "lambda": -1},
         "regularization weight must be positive and finite, got -1"),
        # every version-1 file has it: a missing verdict is not read as converged
        (lambda p: TestEval._without(p, "converged"), "model file: field 'converged' is missing"),
        (lambda p: {**p, "alpha": [p["alpha"][0][:2], *p["alpha"][1:]]},
         "model file: field 'alpha' is not a rectangular array of numbers"),
        # JSON integers beyond the float range
        (lambda p: {**p, "alpha": [[10**400, *p["alpha"][0][1:]], *p["alpha"][1:]]},
         "model file: field 'alpha' holds an integer beyond the float range"),
        (lambda p: {**p, "support_points": [[10**400, *p["support_points"][0][1:]],
                                            *p["support_points"][1:]]},
         "model file: field 'support_points' holds an integer beyond the float range"),
        (lambda p: {**p, "kernel_sigma": 10**400},
         "model file: field 'kernel_sigma' is an integer beyond the float range"),
        (lambda p: {**p, "lambda": 10**400},
         "model file: field 'lambda' is an integer beyond the float range"),
    ], ids=["missing-key", "json-list", "string-class-count", "theta-1.5", "lambda-minus-1",
            "missing-converged", "ragged-alpha", "huge-alpha", "huge-support-point",
            "huge-sigma", "huge-lambda"])
    def test_malformed_model_exits_one(self, fitted, tmp_path, capsys, edit, message):
        data, model = fitted
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(edit(json.loads(model.read_text()))))
        capsys.readouterr()
        rc = main(["eval", "--model", str(bad), "--test", str(data / "test.libsvm")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sentinel_label_in_file_exits_one(self, fitted, tmp_path, capsys):
        # files mark novel rows with 0; a raw K+1 is not read as novel
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:0.0 2:0.0\n3 1:1.0 2:1.0\n0 1:2.0 2:2.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert "labels [3] outside the expected range 1..2" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan"])
    def test_nonfinite_label_exits_one(self, fitted, tmp_path, capsys, label):
        # int(float("inf")) raises OverflowError, which main() does not catch
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_text(f"1 1:0.0 2:0.0\n{label} 1:1.0 2:1.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:2: invalid label '{label}'\n"

    def test_nonfinite_feature_names_its_line(self, fitted, tmp_path, capsys):
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:0.0 2:0.0\n\n1 1:0.5 2:nan\n0 1:inf 2:0.0\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:3: features must be finite\n"

    def test_test_file_not_utf8_names_its_line(self, fitted, tmp_path, capsys):
        # the decoder's own message named neither the file nor the line
        data, model = fitted
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"1 1:0.0 2:0.0\n\n0 1:1.0 2:\xff1.0\n1 1:0.5 2:0.5\n")
        rc = main(["eval", "--model", str(model), "--test", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:3: not valid UTF-8 (byte 0xff)\n"

    def test_model_not_utf8_names_its_path(self, fitted, tmp_path, capsys):
        data, model = fitted
        bad = tmp_path / "model.json"
        text = model.read_bytes()
        bad.write_bytes(text[:40] + b"\xfe" + text[40:])
        capsys.readouterr()
        rc = main(["eval", "--model", str(bad), "--test", str(data / "test.libsvm")])
        assert rc == 1
        line = text[:40].count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {bad}:{line}: not valid UTF-8 (byte 0xfe)\n"

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


# names the benchmark tracer (perfbench/spans.py) wraps and that reach the
# kernel or a model's JSON; its span stack is the process's, so none may run
# on a kernel tile thread
TRACED_NAMES = ((eulac.solver, "gram"), (eulac.modelsel, "gram"), (eulac.mixture, "gram"),
                (eulac.cli, "_write_text"))


def test_traced_names_run_only_in_the_main_thread(spec_file, tmp_path, monkeypatch):
    data = _gen(spec_file, tmp_path / "data", nl=200, nu=300, nt=3 * eulac.kernel.TILE_ROWS + 1)
    calls = {}

    def recorder(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), (module, name)
            calls[module.__name__, name] = calls.get((module.__name__, name), 0) + 1
            return original(*args, **kwargs)
        return recorded

    for module, name in TRACED_NAMES:
        monkeypatch.setattr(module, name, recorder(module, name))
    # the largest pool, whatever this machine's CPU count
    monkeypatch.setattr(eulac.kernel, "_usable_cpus",
                        lambda: eulac.kernel.GRAM_BLOCK_ROWS // eulac.kernel.TILE_ROWS)
    train = ["--labeled", str(data / "labeled.libsvm"), "--unlabeled", str(data / "unlabeled.csv")]
    # square loss with theta estimated, then logistic, which reach every
    # Gram name; the pooled 500 rows span two tiles
    assert main(["fit", *train, "--out", str(tmp_path / "square"), *FAST_GRID]) == 0
    assert main(["fit", *train, "--out", str(tmp_path / "logistic"), "--loss", "logistic",
                 "--theta", "0.7", *FAST_GRID]) == 0
    assert main(["eval", "--model", str(tmp_path / "square" / "model.json"),
                 "--test", str(data / "test.libsvm"), "--out", str(tmp_path / "eval.json")]) == 0
    assert sorted(calls) == sorted((module.__name__, name) for module, name in TRACED_NAMES)


class TestTenDimensionalSpec:
    """The second bundled spec: five known classes and a novel one in ten
    dimensions, at 100/400 with 600 test rows and the default grid."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ten_d") / "data"
        assert main(["gen", "--spec", str(TEN_D_SPEC), "--out", str(out), "--seed", "1",
                     "--n-labeled", "100", "--n-unlabeled", "400", "--n-test", "600"]) == 0
        return out

    @pytest.fixture(scope="class")
    def runs(self, data, tmp_path_factory):
        # fit and eval on one worker and on four: 400 unlabeled rows make
        # two column tiles in each dense Lanczos product, 500 pooled rows
        # two row tiles in each Gram
        root = tmp_path_factory.mktemp("ten_d_runs")
        outs = []
        with pytest.MonkeyPatch.context() as patch:
            for cpus in (1, 4):
                patch.setattr(eulac.kernel, "_usable_cpus", lambda: cpus)
                out = root / f"cpus_{cpus}"
                assert main(["fit", "--labeled", str(data / "labeled.libsvm"),
                             "--unlabeled", str(data / "unlabeled.csv"), "--out", str(out)]) == 0
                assert main(["eval", "--model", str(out / "model.json"),
                             "--test", str(data / "test.libsvm"),
                             "--out", str(out / "eval.json")]) == 0
                outs.append(out)
        return outs

    def test_artifacts_same_on_any_cpu_count(self, runs):
        for name in ("model.json", "cv_report.json", "theta.json", "eval.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_theta_in_range(self, runs):
        theta = json.loads((runs[0] / "theta.json").read_text())["theta_hat"]
        assert 0.0 < theta <= 1.0

    def test_certified_labels_equal_dense_labels(self, data, runs):
        model = eulac.solver.DualModel.load(runs[0] / "model.json")
        X = load_libsvm(data / "test.libsvm", nc_label=0, num_known_classes=5).X
        assert len(X) >= len(model.support_points)  # the certified path is tried
        dense = eulac.solver.predict_labels(eulac.solver.predict_scores(model, X))
        np.testing.assert_array_equal(model.predict(X), dense)

    def test_median_bandwidth_takes_the_dense_operator(self, data):
        # no pivoted-Cholesky factor under rank_cap exists in ten dimensions
        # at 1x median, so cross-validation's run falls back to the dense
        # block there
        labeled = load_libsvm(data / "labeled.libsvm")
        unlabeled = load_features_csv(data / "unlabeled.csv").X
        spec = eulac.kernel.KernelSpec(
            eulac.kernel.median_heuristic(np.vstack([labeled.X, unlabeled])))
        n_train = len(unlabeled) * 4 // 5
        assert eulac.solver._unlabeled_operator(spec, unlabeled, n_train, 1e-3) == ("dense", None)
        tolerance = eulac.solver._factor_tolerance(len(unlabeled), n_train, 1e-3)
        assert eulac.kernel.pivoted_cholesky(spec, unlabeled, len(unlabeled) // 2,
                                             tolerance) is None


class TestThetaAndCv:
    def test_theta_command(self, spec_file, tmp_path, capsys):
        data = _gen(spec_file, tmp_path / "data", nl=200, nu=300)
        capsys.readouterr()  # discard the gen command's progress line
        rc = main(["theta", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["theta_hat"] <= 1.0
        # the curve stops one point right of the knee, where theta_hat is read
        assert len(payload["curve"]) == payload["knee"] + 2
        assert payload["theta_hat"] == 1.0 / payload["curve"][payload["knee"]][0]
        assert payload["slope_cut"] == eulac.mixture.DEFAULT_SLOPE_THRESHOLD * (
            1.0 / math.sqrt(200) + 1.0 / math.sqrt(300))
        # the estimate reads no seed or grid flag, so none is echoed
        assert payload["config"] == {
            "command": "theta", "labeled_sha256": _digest(data / "labeled.libsvm"),
            "unlabeled_sha256": _digest(data / "unlabeled.csv"), "theta": None,
            "theta_threshold": eulac.mixture.DEFAULT_SLOPE_THRESHOLD}

    @pytest.mark.parametrize("flag", [["--loss", "logistic"], ["--seed", "1"],
                                      ["--lambda", "0.1"], ["--sigma-mult", "1.0"],
                                      ["--folds", "3"]], ids=lambda flag: flag[0])
    def test_theta_rejects_flags_it_does_not_read(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["theta", "--labeled", str(tmp_path / "l"), "--unlabeled",
                  str(tmp_path / "u")] + flag)
        assert info.value.code == 2  # an argparse usage error
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_flat_first_segment_reports_no_novelty(self, spec_file, tmp_path):
        data = _gen(spec_file, tmp_path / "data", nl=200, nu=300)
        rc = main(["theta", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"), "--out", str(tmp_path / "t.json"),
                   "--theta-threshold", "1e300"])
        assert rc == 0
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["theta_hat"] == 1.0
        assert payload["no_novelty_detected"] is True
        assert payload["config"]["theta_threshold"] == 1e300
        # the first segment is flat, so the curve stops at its right end
        assert payload["knee"] == 0 and len(payload["curve"]) == 2

    @pytest.mark.parametrize("theta", [[], ["--theta", "0.7"]], ids=["estimated", "given"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_unusable_theta_threshold_exits_one(self, tmp_path, capsys, command, threshold,
                                                 theta):
        # neither file exists: the threshold is refused before either is
        # read, also beside --theta, since every artifact echoes it.  nan
        # echoed as a bare NaN, which is not JSON
        out = tmp_path / "out"
        rc = main([command, "--labeled", str(tmp_path / "l"), "--unlabeled", str(tmp_path / "u"),
                   "--out", str(out), f"--theta-threshold={threshold}", *theta])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: slope threshold must be a positive finite number, got {float(threshold)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_theta_out_of_range_exits_one(self, spec_file, tmp_path, capsys, command):
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=60)
        capsys.readouterr()
        out = tmp_path / command
        rc = main([command, "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"), "--out", str(out),
                   "--theta", "1.5"])
        assert rc == 1
        assert capsys.readouterr().err == "error: theta must lie in (0, 1], got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        *(pytest.param(command, flag, message, id=f"{command}{flag[0]}")
          for command in ("fit", "cv", "theta", "bench")
          for flag, message in (
              (["--theta", "1.5"], "theta must lie in (0, 1], got 1.5"),
              (["--folds", "1"], "--folds must be at least 2, got 1"),
              (["--lambda", "nan"], "regularization weight must be positive and finite, got nan"),
              (["--sigma-mult", "inf"], "sigma multipliers must be positive and finite, got [inf]"))
          if command != "theta" or flag[0] == "--theta"),
        # its shift 2 lambda overflows; the grid used to pass it on to the
        # median and the first Gram
        *(pytest.param(command, ["--lambda", "1e308"],
                       "regularization weight must be positive and finite, got 1e+308",
                       id=f"{command}--lambda=1e308")
          for command in ("fit", "cv", "bench"))])
    def test_bad_flag_refused_before_any_file_is_read(self, tmp_path, capsys, command, flag,
                                                      message):
        # no input file exists, so an error that reads one names the file
        out = tmp_path / "out"
        files = (["scaling", "--spec", str(tmp_path / "spec")] if command == "bench" else
                 ["--labeled", str(tmp_path / "l"), "--unlabeled", str(tmp_path / "u")])
        rc = main([command, *files, "--out", str(out), *flag])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_mismatched_dimensions_exit_one(self, spec_file, tmp_path, capsys, command):
        # numpy's concatenate error used to end fit and cv
        data = _gen(spec_file, tmp_path / "data", nl=40, nu=60)
        wide = tmp_path / "wide.csv"
        wide.write_text("".join(line + ",0.0\n" for line in
                                (data / "unlabeled.csv").read_text().splitlines()))
        capsys.readouterr()
        out = tmp_path / command
        rc = main([command, "--labeled", str(data / "labeled.libsvm"), "--unlabeled", str(wide),
                   "--out", str(out)] + ([] if command == "theta" else FAST_GRID))
        assert rc == 1
        assert capsys.readouterr().err == "error: labeled and unlabeled dimensions differ\n"
        assert not out.exists()

    @pytest.mark.parametrize("mult", ["1e200", "1e-200"])
    def test_bandwidth_without_a_normal_square_exits_one(self, spec_file, tmp_path, capsys,
                                                          mult):
        # 1e200 squared overflowed to a traceback; 1e-200 squared made the
        # Gram diagonal 0/0 and warned twice before a non-finite Gram error
        data = _gen(spec_file, tmp_path / "data")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["cv", "--labeled", str(data / "labeled.libsvm"),
                       "--unlabeled", str(data / "unlabeled.csv"), "--out", str(tmp_path / "cv"),
                       "--sigma-mult", mult, "--lambda", "0.01", "--folds", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bandwidth ") and err.count("\n") == 1
        assert "outside the normal floating-point range" in err
        assert not (tmp_path / "cv").exists()

    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_unlabeled_file_not_utf8_names_its_line(self, spec_file, tmp_path, capsys,
                                                     command):
        data = _gen(spec_file, tmp_path / "data")
        rows = (data / "unlabeled.csv").read_bytes().split(b"\n")
        rows[3] = b"\xc3" + rows[3]  # a lead byte with no continuation
        bad = tmp_path / "unlabeled.csv"
        bad.write_bytes(b"\n".join(rows))
        capsys.readouterr()
        rc = main([command, "--labeled", str(data / "labeled.libsvm"), "--unlabeled", str(bad),
                   "--out", str(tmp_path / command), "--theta", "0.7"]
                  + ([] if command == "theta" else FAST_GRID))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}:4: not valid UTF-8 (byte 0xc3)\n"

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
        def singular(block, labeled_points, unlabeled_points, labels, *args):
            assert block(unlabeled_points, unlabeled_points).shape == (len(unlabeled),
                                                                       len(unlabeled))
            assert block(labeled_points, unlabeled_points).shape == (len(labeled),
                                                                     len(unlabeled))
            exc = np.linalg.LinAlgError("not positive definite")
            exc.fold = 0  # the solver names the fold whose recurrence failed
            raise exc

        monkeypatch.setattr(eulac.modelsel, "_square_loss_fold_scores", singular)
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

    @pytest.mark.parametrize("mult, loss", [("1.0", "square"), ("10.0", "square"),
                                            ("1.0", "logistic")])
    def test_refit_failure_names_its_cell_and_exits_one(self, spec_file, tmp_path, monkeypatch,
                                                        capsys, mult, loss):
        # the refit's solve fails after cross-validation has passed: on the
        # dense form its Cholesky factorization, on the factor form its
        # Krylov run, for logistic its first-order solve
        forms, choose = [], eulac.solver._unlabeled_operator
        # the refit reads this name; cross-validation reads its own import
        monkeypatch.setattr(eulac.solver, "_unlabeled_operator",
                            lambda *args: forms.append(choose(*args)) or forms[-1])
        if loss == "logistic":
            def failing(*args):
                raise FloatingPointError("overflow in exp")
            # the refit reads this name; cross-validation reads its own import
            monkeypatch.setattr(eulac.solver, "_first_order_alpha", failing)
            cause = "FloatingPointError: overflow in exp"
        elif mult == "1.0":
            def failing(*args, **kwargs):
                raise np.linalg.LinAlgError("2-th leading minor not positive definite")
            monkeypatch.setattr(eulac.solver, "cho_factor", failing)
            cause = "LinAlgError: square-loss system not positive definite (condition estimate "
        else:
            lanczos = eulac.solver._shifted_lanczos

            def failing(product, starts, shifts, masks, scales):
                if masks.all():  # the refit's run alone trains on every row
                    raise np.linalg.LinAlgError("shifted Lanczos stopped at its cap")
                return lanczos(product, starts, shifts, masks, scales)
            monkeypatch.setattr(eulac.solver, "_shifted_lanczos", failing)
            cause = "LinAlgError: shifted Lanczos stopped at its cap"
        data = _gen(spec_file, tmp_path / "data")
        capsys.readouterr()
        rc = main(["fit", "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"), "--out", str(tmp_path / "fit"),
                   "--theta", "0.7", "--loss", loss, "--sigma-mult", mult, "--lambda", "0.01",
                   "--folds", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: fit failed at sigma_multiplier={mult}, lambda=0.01, "
                              f"refit: {cause}") and err.count("\n") == 1
        assert [form for form, _ in forms] == ([] if loss == "logistic" else
                                               ["dense"] if mult == "1.0" else ["factor"])
        assert not (tmp_path / "fit" / "model.json").exists()

    @pytest.mark.parametrize("command", ["fit", "cv", "theta"])
    def test_theta_guard_hits_warn(self, spec_file, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_PER_COORDINATE", 0)
        monkeypatch.setattr(eulac.mixture, "QP_GUARD_SLACK", 1)
        data = _gen(spec_file, tmp_path / "data")
        capsys.readouterr()
        rc = main([command, "--labeled", str(data / "labeled.libsvm"),
                   "--unlabeled", str(data / "unlabeled.csv"),
                   "--out", str(tmp_path / command)] + ([] if command == "theta" else FAST_GRID))
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
        assert ("did not reach their convergence tolerance at sigma_multiplier=1.0 lambda=0.01 "
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

    def test_excess_risk_rows_carry_surrogate_risks(self, spec_file, tmp_path):
        # rhs = sqrt(2 x surrogate excess) is recomputable from the artifact
        rc = main(["bench", "excess-risk", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b"), "--repeats", "2",
                   "--n-labeled", "60", "--n-unlabeled", "90", "--theta", "0.7",
                   ] + FAST_GRID)
        assert rc in (0, 1)
        runs = json.loads((tmp_path / "b" / "excess_risk.json").read_text())["runs"]
        assert len(runs) == 2
        for run in runs:
            assert run["lac_risk"] >= run["optimal_lac_risk"] > 0.0
            assert run["rhs"] == np.sqrt(2.0 * max(run["lac_risk"] - run["optimal_lac_risk"],
                                                   0.0))

    @pytest.mark.parametrize("harness", ["scaling", "theta-sweep", "excess-risk"])
    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_exits_one(self, spec_file, tmp_path, capsys, harness, repeats):
        # excess-risk wrote {"runs": []} and theta-sweep header-only CSVs,
        # both with exit 0.  theta-sweep reads no --theta
        theta = [] if harness == "theta-sweep" else ["--theta", "0.7"]
        rc = main(["bench", harness, "--spec", str(spec_file), "--out", str(tmp_path / "b"),
                   "--repeats", repeats, *theta] + FAST_GRID)
        assert rc == 1
        assert capsys.readouterr().err == f"error: --repeats must be at least 1, got {repeats}\n"
        assert not (tmp_path / "b").exists()

    def test_source_required(self, tmp_path, capsys):
        for harness in ("scaling", "theta-sweep"):
            rc = main(["bench", harness, "--out", str(tmp_path / "b")])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: bench needs either --spec or both --data and --config\n")

    def test_excess_risk_requires_spec(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "excess-risk", "--out", str(tmp_path / "b")])
        assert info.value.code == 2
        assert "the following arguments are required: --spec" in capsys.readouterr().err

    @pytest.mark.parametrize("harness, flag", [
        pytest.param(harness, flag, id=f"{harness}{flag[0]}") for harness, flag in (
            ("scaling", ["--ratios", "0.2"]),
            ("scaling", ["--n-unlabeled", "90"]),
            ("theta-sweep", ["--sizes", "60"]),
            ("theta-sweep", ["--theta", "0.3"]),
            ("excess-risk", ["--sizes", "60"]),
            ("excess-risk", ["--ratios", "0.2"]),
            ("excess-risk", ["--n-test", "80"]),
            ("excess-risk", ["--data", "full.libsvm"]),
            ("excess-risk", ["--config", "config.txt"]))])
    def test_harness_rejects_flags_it_does_not_read(self, spec_file, tmp_path, capsys, harness,
                                                    flag):
        with pytest.raises(SystemExit) as info:
            main(["bench", harness, "--spec", str(spec_file), "--out", str(tmp_path / "b")]
                 + flag)
        assert info.value.code == 2  # an argparse usage error
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("harness", ["scaling", "theta-sweep"])
    @pytest.mark.parametrize("source", [["--data"], ["--config"], ["--data", "--config"]],
                             ids=["data", "config", "both"])
    def test_spec_beside_data_exits_one(self, tmp_path, capsys, harness, source):
        # --spec silently won over --data and --config; no file exists, so
        # the refusal comes before any is read
        out = tmp_path / "b"
        rc = main(["bench", harness, "--spec", str(tmp_path / "spec"), "--out", str(out),
                   *[arg for flag in source for arg in (flag, str(tmp_path / flag))]])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: bench takes either --spec or --data with --config, not both\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        pytest.param(command, flag, message, id=f"{command[-1]}{'='.join(flag)}")
        for command, flag, message in (
            (["bench", "scaling"], ["--sizes", "0"],
             "--sizes must be strictly increasing and at least 1, got [0]"),
            (["bench", "scaling"], ["--sizes", "120", "60"],
             "--sizes must be strictly increasing and at least 1, got [120, 60]"),
            (["bench", "scaling"], ["--sizes", "60", "60"],
             "--sizes must be strictly increasing and at least 1, got [60, 60]"),
            (["bench", "theta-sweep"], ["--ratios", "1.5"],
             "--ratios must lie in [0, 1), got [1.5]"),
            (["bench", "theta-sweep"], ["--ratios", "0.2", "-0.1"],
             "--ratios must lie in [0, 1), got [0.2, -0.1]"),
            (["bench", "theta-sweep"], ["--ratios", "nan"],
             "--ratios must lie in [0, 1), got [nan]"),
            (["bench", "scaling"], ["--n-labeled", "-5"], "--n-labeled must be at least 1, got -5"),
            (["bench", "scaling"], ["--n-test", "0"], "--n-test must be at least 1, got 0"),
            (["bench", "theta-sweep"], ["--n-unlabeled", "0"],
             "--n-unlabeled must be at least 1, got 0"),
            (["bench", "excess-risk"], ["--n-labeled", "0"],
             "--n-labeled must be at least 1, got 0"),
            (["bench", "excess-risk"], ["--n-unlabeled", "-1"],
             "--n-unlabeled must be at least 1, got -1"),
            (["bench", "excess-risk"], ["--repeats", "0"], "--repeats must be at least 1, got 0"),
            (["gen"], ["--n-labeled", "-1"], "--n-labeled must be at least 1, got -1"),
            (["gen"], ["--n-unlabeled", "0"], "--n-unlabeled must be at least 1, got 0"),
            (["gen"], ["--n-test", "0"], "--n-test must be at least 1, got 0"),
            (["gen"], ["--grid-resolution", "1"], "--grid-resolution must be at least 2, got 1"))])
    def test_bad_size_refused_before_any_file_is_read(self, tmp_path, capsys, command, flag,
                                                      message):
        # the spec does not exist, so an error that reads it names the file
        out = tmp_path / "out"
        rc = main([*command, "--spec", str(tmp_path / "spec"), "--out", str(out), *flag])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_misspelt_configuration_key_exits_one(self, data_file, tmp_path, capsys):
        # a misspelt new_labels ran the harness with no novel class and exit 0
        config = tmp_path / "config.txt"
        config.write_text("known_labels = 1 2\nnew_label = 3\n")
        rc = main(["bench", "scaling", "--data", str(data_file), "--config", str(config),
                   "--out", str(tmp_path / "b")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}:2: unrecognised key 'new_label'\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("text, message", [
        ("known_labels = 1 x\n", "1: invalid literal for int() with base 10: 'x'"),
        # a repeated key replaced the first, so this ran with known classes {3}
        ("known_labels = 1 2\nknown_labels = 3\n",
         "2: repeated key 'known_labels', first on line 1"),
    ])
    def test_malformed_configuration_names_path_and_line(self, data_file, tmp_path, capsys, text,
                                                         message):
        config = tmp_path / "config.txt"
        config.write_text(text)
        rc = main(["bench", "theta-sweep", "--data", str(data_file), "--config", str(config),
                   "--out", str(tmp_path / "b")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {config}:{message}\n"
        assert not (tmp_path / "b").exists()
