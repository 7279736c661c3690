import numpy as np
import pytest

import eulac.data as dt
from eulac.data import (
    ClassConfiguration,
    GaussianMixture,
    LabeledDataset,
    UnlabeledDataset,
    _largest_remainder_counts,
    bayes_risk_oracle,
    format_synthetic_spec,
    kfold_indices,
    load_features_csv,
    load_libsvm,
    parse_class_configuration,
    parse_synthetic_spec,
    pooled_points,
    sample_synthetic,
    sample_test_set,
    split_class_configuration,
    write_features_csv,
    write_libsvm,
)

from eulac.kernel import KernelSpec
from eulac.mixture import estimate_theta
from eulac.modelsel import HyperGrid, cross_validate
from eulac.risk import empirical_lac_risk
from eulac.solver import FitOptions, fit_first_order, fit_square_closed_form

from conftest import two_cluster_spec
from oracles import FiniteDistribution, ovr_reject_baseline


class TestLibsvmLoader:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.5 3:2.0\n2 2:1.0\n")
        ds = load_libsvm(p)
        assert len(ds) == 2 and ds.dimension == 3
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert sorted(np.unique(ds.y)) == [1, 2]

    def test_label_remap_preserves_order(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("7 1:1.0\n3 1:2.0\n7 1:3.0\n")
        ds = load_libsvm(p)
        assert ds.label_map == {3: 1, 7: 2}
        np.testing.assert_array_equal(ds.y, [2, 1, 2])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        y = rng.integers(1, 4, 100)
        ds = LabeledDataset(X, y, 3)
        p = tmp_path / "rt.libsvm"
        write_libsvm(p, ds)
        back = load_libsvm(p)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.num_known_classes == 3

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 1:0.5\n2 nonsense\n")
        with pytest.raises(ValueError, match=":2:"):
            load_libsvm(p)

    def test_nonnumeric_token(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 1:abc\n")
        with pytest.raises(ValueError, match=":1:"):
            load_libsvm(p)

    def test_indices_must_increase(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 2:1.0 2:2.0\n")
        with pytest.raises(ValueError, match="increasing"):
            load_libsvm(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.libsvm"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(p)

    def test_nc_label_mode(self, tmp_path):
        p = tmp_path / "t.libsvm"
        p.write_text("0 1:1.0\n1 1:2.0\n2 1:3.0\n")
        ds = load_libsvm(p, nc_label=0)
        assert ds.num_known_classes == 2
        np.testing.assert_array_equal(ds.y, [3, 1, 2])

    def test_raw_label_mode_checks_range(self, tmp_path):
        p = tmp_path / "t.libsvm"
        p.write_text("5 1:1.0\n6 1:2.0\n")
        with pytest.raises(ValueError, match="outside"):
            load_libsvm(p, nc_label=0, num_known_classes=2)
        # K+1 is the novel sentinel inside the package only; files mark
        # novel rows with nc_label
        p.write_text("1 1:1.0\n3 1:2.0\n0 1:3.0\n")
        with pytest.raises(ValueError, match=r"labels \[3\] outside the expected range 1..2"):
            load_libsvm(p, nc_label=0, num_known_classes=2)
        p.write_text("1 1:1.0\n2 1:2.0\n0 1:3.0\n")
        np.testing.assert_array_equal(load_libsvm(p, nc_label=0, num_known_classes=2).y,
                                      [1, 2, 3])

    def test_loader_is_pure(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.25\n2 1:0.5\n")
        a, b = load_libsvm(p), load_libsvm(p)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


def _reference_libsvm(path, nc_label=None):
    """(X, y, label_map) read one line and one token at a time."""
    labels, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                labels.append(int(float(parts[0])))
                rows.append({int(t.split(":")[0]): float(t.split(":")[1]) for t in parts[1:]})
    X = np.zeros((len(rows), max(max(r, default=0) for r in rows)))
    for i, row in enumerate(rows):
        for idx, val in row.items():
            X[i, idx - 1] = val
    known = sorted({r for r in labels if r != nc_label})
    table = {orig: i + 1 for i, orig in enumerate(known)}
    return X, np.array([table.get(r, len(known) + 1) for r in labels]), table


def _ragged_libsvm(rng) -> str:
    """LIBSVM text with blank lines, mixed line endings and separators,
    skipped indices, repeated labels and signed numbers."""
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", " ", "\t", " \t "])))
        label = str(rng.choice(["0", "1", "+1", "1.0", "3", "-2", "7", "7e0"]))
        idx = np.flatnonzero(rng.random(6) < 0.5) + 1
        tokens = [label]
        for i in idx:
            v = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
            text = str(rng.choice([repr(v), f"{v:+.3e}", f"{v:.2f}", str(int(v))]))
            tokens.append(f"{str(rng.choice(['', '+', '0']))}{i}:{text}")
        seps = rng.choice(["", " ", "  ", "\t", " \t"], size=len(tokens) + 1)
        seps[1:-1][seps[1:-1] == ""] = " "  # tokens need a separator between them
        lines.append("".join(s + t for s, t in zip(seps, tokens + [""])))
    # one row with every index, so every file has features
    lines.append("1 " + " ".join(f"{i}:{i / 4}" for i in range(1, 7)))
    rng.shuffle(lines)
    return "".join(line + str(rng.choice(["\n", "\r\n"])) for line in lines)


# malformed LIBSVM texts, the line each names and its problem
_LIBSVM_LINE_ERRORS = [
    ("1 1:1\n\n1x 1:1\n", 3, "invalid label '1x'"),
    ("1 1:1\n2.5 1:1\n", 2, "non-integer label '2.5'"),
    ("1 1:1\n2 1:1 5\n", 2, "invalid token '5'"),
    ("1 1:1 2:1:1\n", 1, "invalid token '2:1:1'"),
    ("1 1:1\n2 1.5:1\n", 2, "invalid token '1.5:1'"),
    ("1 1:1\n2 1:abc\n", 2, "invalid token '1:abc'"),
    ("1 1:1 3:1 3:2\n", 1, "indices must be 1-based and strictly increasing"),
    ("1 1:1\n2 0:1\n", 2, "indices must be 1-based and strictly increasing"),
    # the first bad line wins, whatever its problem
    ("1 2:1 1:1\nx 1:1\n3 1:y\n", 1, "indices must be 1-based and strictly increasing"),
    ("1 1:1\n2 1:y\nx 1:1\n", 2, "invalid token '1:y'"),
    ("1 1:1 1:1\n2 1\n", 1, "indices must be 1-based and strictly increasing"),
    ("1 5 1:2:3\n", 1, "invalid token '5'"),
    # within a line, the label first, then each token in turn
    ("x 1:1 2\n", 1, "invalid label 'x'"),
    ("1 2:1 1:y\n", 1, "invalid token '1:y'"),
    ("1 2:1 1:1 3:y\n", 1, "indices must be 1-based and strictly increasing"),
    ("1 1:1 2:2 3\n", 1, "invalid token '3'"),
]

_KNOWN_CLASS_TEXT = "0 2:1.5\n\n+2 1:-1 3:2e-1\r\n1.0 1:+0.25\n"
_NONFINITE_LABELS = ["inf", "-inf", "nan", "1e400"]
_NONFINITE_FEATURE_TEXT = "1 1:0.5\n\n1 1:0.5 2:nan\n2 1:inf\n"

_LIBSVM_FILE_ERRORS = [
    ("", "empty file"),
    ("\n \n\t\n", "empty file"),
    ("1\n2\n", "no features found"),
]


class TestLibsvmParity:
    """The bulk loader against a per-line reference parse."""

    @pytest.mark.parametrize("seed", range(12))
    def test_ragged_text(self, tmp_path, seed):
        p = tmp_path / "r.libsvm"
        p.write_bytes(_ragged_libsvm(np.random.default_rng(seed)).encode())
        for nc_label in (None, 0):
            ds = load_libsvm(p, nc_label=nc_label)
            X, y, table = _reference_libsvm(p, nc_label)
            np.testing.assert_array_equal(ds.X, X)
            np.testing.assert_array_equal(ds.y, y)
            assert ds.label_map == table and ds.num_known_classes == len(table)

    def test_known_class_mode(self, tmp_path):
        p = tmp_path / "k.libsvm"
        p.write_text(_KNOWN_CLASS_TEXT)
        ds = load_libsvm(p, nc_label=0, num_known_classes=2)
        np.testing.assert_array_equal(ds.X, [[0.0, 1.5, 0.0], [-1.0, 0.0, 0.2], [0.25, 0, 0]])
        np.testing.assert_array_equal(ds.y, [3, 2, 1])
        assert ds.label_map is None

    @pytest.mark.parametrize("text, line, problem", _LIBSVM_LINE_ERRORS)
    def test_error_names_first_bad_line(self, tmp_path, text, line, problem):
        p = tmp_path / "bad.libsvm"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_libsvm(p)
        assert str(info.value) == f"{p}:{line}: {problem}"

    @pytest.mark.parametrize("text, problem", _LIBSVM_FILE_ERRORS)
    def test_file_level_errors(self, tmp_path, text, problem):
        p = tmp_path / "bad.libsvm"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_libsvm(p)
        assert str(info.value) == f"{p}: {problem}"

    @pytest.mark.parametrize("label", _NONFINITE_LABELS)
    def test_nonfinite_label_names_its_line(self, tmp_path, label):
        p = tmp_path / "bad.libsvm"
        p.write_text(f"1 1:1\n{label} 1:1\n")
        with pytest.raises(ValueError) as info:
            load_libsvm(p)
        assert str(info.value) == f"{p}:2: invalid label '{label}'"

    def test_nonfinite_feature_names_its_line(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text(_NONFINITE_FEATURE_TEXT)
        with pytest.raises(ValueError) as info:
            load_libsvm(p)
        assert str(info.value) == f"{p}:3: features must be finite"


def _token(line: str, k: int, new: str) -> str:
    tokens = line.split(" ")
    tokens[k] = new
    return " ".join(tokens)


# the lines of a three-feature file from write_libsvm edited one way, and
# whether the result stays in the dense layout that load_libsvm reads
# without its general parser
_DENSE_EDITS = {
    "as-written": (lambda ls: "\n".join(ls) + "\n", True),
    "crlf": (lambda ls: "\r\n".join(ls) + "\r\n", True),
    "cr": (lambda ls: "\r".join(ls) + "\r", True),
    "blank-lines": (lambda ls: "\n" + "\n \n".join(ls) + "\n\n", True),
    "no-final-newline": (lambda ls: "\n".join(ls), True),
    "padded-lines": (lambda ls: "".join(f"  {l.replace(' ', '   ')} \n" for l in ls), True),
    "row-split": (lambda ls: "\n".join(ls).replace(" 3:", "\n3:", 1) + "\n", False),
    "rows-merged": (lambda ls: "\n".join(ls).replace("\n", " ", 1) + "\n", False),
    # the token and colon counts of the whole file still fit the layout
    "row-split-then-merged": (
        lambda ls: "\n".join([ls[0], ls[1][:1], ls[1][2:] + " " + ls[2], *ls[3:]]) + "\n", False),
    "colon-moved": (lambda ls: "\n".join([_token(_token(ls[0], 2, ls[0].split(" ")[2] + ":3"),
                                                  3, "0.5"), *ls[1:]]) + "\n", False),
    "label-takes-index": (lambda ls: "\n".join([ls[0].replace(" 1:", ":1 ", 1), *ls[1:]])
                          + "\n", False),
    "colon-in-label": (lambda ls: "\n".join(["1:2" + ls[0][1:], *ls[1:]]) + "\n", False),
    "two-colons": (lambda ls: "\n".join([_token(ls[0], 2, "2:1:1"), *ls[1:]]) + "\n", False),
    "zero-padded-index": (lambda ls: "\n".join(ls).replace(" 1:", " 01:", 1) + "\n", False),
    "signed-index": (lambda ls: "\n".join(ls).replace(" 1:", " +1:", 1) + "\n", False),
    "empty-value": (lambda ls: "\n".join([_token(ls[0], 3, "3:"), *ls[1:]]) + "\n", False),
    "swapped-indices": (lambda ls: "\n".join([ls[0].replace(" 1:", " 9:").replace(" 2:", " 1:")
                                               .replace(" 9:", " 2:"), *ls[1:]]) + "\n", False),
    "missing-last": (lambda ls: "\n".join([ls[0].rsplit(" ", 1)[0], *ls[1:]]) + "\n", False),
    "extra-last": (lambda ls: "\n".join([ls[0] + " 4:0.5", *ls[1:]]) + "\n", False),
    "tab": (lambda ls: "\n".join(ls).replace(" ", "\t", 2) + "\n", False),
    "vertical-tab": (lambda ls: "\n".join(ls).replace(" ", "\v", 1) + "\n", False),
    "file-separator": (lambda ls: "\n".join(ls).replace(" ", "\x1c", 1) + "\n", False),
    "nbsp": (lambda ls: "\n".join(ls).replace(" ", "\xa0", 1) + "\n", False),
    "bad-label": (lambda ls: "\n".join([ls[0], "x" + ls[1][1:], *ls[2:]]) + "\n", False),
    "non-integer-label": (lambda ls: "\n".join([ls[0], "1.5" + ls[1][1:], *ls[2:]]) + "\n",
                          False),
    "infinite-label": (lambda ls: "\n".join([ls[0], "inf" + ls[1][1:], *ls[2:]]) + "\n",
                       False),
    "nan-value": (lambda ls: "\n".join([ls[0], _token(ls[1], 2, "2:nan"), *ls[2:]]) + "\n",
                  False),
    "bad-value": (lambda ls: "\n".join([ls[0], _token(ls[1], 2, "2:1x"), *ls[2:]]) + "\n",
                  False),
}


class TestDenseLayoutParity:
    """``load_libsvm``, which reads the dense layout without its general
    parser, against that parser alone: the same bits or the same error."""

    @staticmethod
    def _outcome(path, **kwargs):
        try:
            ds = load_libsvm(path, **kwargs)
        except ValueError as exc:
            return str(exc)
        return ds.X.shape, ds.X.tobytes(), ds.y.tolist(), ds.label_map, ds.num_known_classes

    def _assert_parity(self, monkeypatch, path):
        for kwargs in ({}, {"nc_label": 0}, {"nc_label": 0, "num_known_classes": 2}):
            either = self._outcome(path, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(dt, "_dense_libsvm", lambda text: None)
                assert self._outcome(path, **kwargs) == either, kwargs

    @pytest.mark.parametrize("edit", list(_DENSE_EDITS))
    def test_edited_dense_file(self, tmp_path, monkeypatch, edit):
        write, dense = _DENSE_EDITS[edit]
        p = tmp_path / "e.libsvm"
        rng = np.random.default_rng(3)
        write_libsvm(p, LabeledDataset(rng.normal(size=(6, 3)), [1, 2, 3, 1, 2, 3], 2))
        p.write_bytes(write(p.read_text().splitlines()).encode())
        with open(p, encoding="utf-8") as fh:
            assert (dt._dense_libsvm(fh.read()) is not None) == dense
        self._assert_parity(monkeypatch, p)

    @pytest.mark.parametrize("text", [
        *(pytest.param(_ragged_libsvm(np.random.default_rng(seed)), id=f"ragged-{seed}")
          for seed in range(12)),
        pytest.param(_KNOWN_CLASS_TEXT, id="known-class"),
        *(pytest.param(text, id=f"line-error-{i}")
          for i, (text, _, _) in enumerate(_LIBSVM_LINE_ERRORS)),
        *(pytest.param(text, id=f"file-error-{i}")
          for i, (text, _) in enumerate(_LIBSVM_FILE_ERRORS)),
        *(pytest.param(f"1 1:1\n{label} 1:1\n", id=f"label-{label}")
          for label in _NONFINITE_LABELS),
        pytest.param(_NONFINITE_FEATURE_TEXT, id="nonfinite-feature"),
        pytest.param("1 1:0.5\n", id="dense-one-row"),
        pytest.param("0 1:-0.0 2:1e-300\n2 1:3 2:4\n", id="dense-signed-zero"),
        pytest.param("1 " + " ".join(f"{j}:{j / 8}" for j in range(1, 13)) + "\n",
                     id="dense-two-digit-indices"),
    ])
    def test_parity_file(self, tmp_path, monkeypatch, text):
        p = tmp_path / "p.libsvm"
        p.write_bytes(text.encode())
        self._assert_parity(monkeypatch, p)

    @pytest.mark.parametrize("d", [1, 5])
    def test_dense_file_skips_the_general_parser(self, tmp_path, monkeypatch, d):
        def refuse(path, text):
            raise AssertionError("the general parser ran on a dense file")

        monkeypatch.setattr(dt, "_parse_general", refuse)
        rng = np.random.default_rng(d)
        ds = LabeledDataset(rng.normal(size=(50, d)), rng.integers(1, 4, 50), 2)
        p = tmp_path / "d.libsvm"
        write_libsvm(p, ds)
        back = load_libsvm(p, nc_label=0, num_known_classes=2)
        assert back.X.tobytes() == ds.X.tobytes()
        np.testing.assert_array_equal(back.y, ds.y)


def _reference_csv(path) -> np.ndarray:
    """The feature matrix read one line and one cell at a time."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append([float(c) for c in line.strip().split(",")])
    return np.array(rows)


def _ragged_csv(rng) -> str:
    """CSV text with blank lines, mixed line endings, spaces around cells
    and signed, exponent and integer numbers."""
    width = int(rng.integers(1, 5))
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["", " ", "\t", " \t "])))
        cells = []
        for _ in range(width):
            v = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
            text = str(rng.choice([repr(v), f"{v:+.3e}", f"{v:.2f}", str(int(v)), "0"]))
            pad = rng.choice(["", " ", "\t", "  "], size=2)
            cells.append(f"{pad[0]}{text}{pad[1]}")
        lines.append(",".join(cells))
    return "".join(line + str(rng.choice(["\n", "\r\n"])) for line in lines)


class TestCsvParity:
    """The bulk loader against a per-line reference parse."""

    @pytest.mark.parametrize("seed", range(12))
    def test_ragged_text(self, tmp_path, seed):
        p = tmp_path / "r.csv"
        p.write_bytes(_ragged_csv(np.random.default_rng(seed)).encode())
        np.testing.assert_array_equal(load_features_csv(p).X, _reference_csv(p))

    @pytest.mark.parametrize("text, line, problem", [
        ("1,2\n\n3\n", 3, "ragged row (1 cells, expected 2)"),
        ("1,2\n3,4,5\n", 2, "ragged row (3 cells, expected 2)"),
        ("f1,f2\n0.5,0.25\n", 1, "non-numeric cell"),
        ("1,2\n3,\n", 2, "non-numeric cell"),
        ("1,2\r\n\r\n3,4x\r\n", 3, "non-numeric cell"),
        # the first bad line wins, whatever its problem
        ("1,2\n3,x\n4\n", 2, "non-numeric cell"),
        ("1,2\n3\n4,x\n", 2, "ragged row (1 cells, expected 2)"),
        # within a line, its cell count first
        ("1,2\nx,y,z\n", 2, "ragged row (3 cells, expected 2)"),
        # non-finite values come after every parse check
        ("1,2\nnan,1.0\n", 2, "features must be finite"),
        ("1,2\n\n3,-inf\n4,inf\n", 3, "features must be finite"),
        ("1,nan\n2,1e400\n3\n", 3, "ragged row (1 cells, expected 2)"),
    ])
    def test_error_names_first_bad_line(self, tmp_path, text, line, problem):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_features_csv(p)
        assert str(info.value) == f"{p}:{line}: {problem}"

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_empty_file(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_features_csv(p)
        assert str(info.value) == f"{p}: empty file"


class TestCsvLoader:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.0,2.0\n0.0,1.0,0.0\n\n1.0,1.0,1.0\n")
        ds = load_features_csv(p)
        assert len(ds) == 3 and ds.dimension == 3

    def test_header_rejected_naming_row_one(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2\n0.5,0.25\n")
        with pytest.raises(ValueError, match=":1:"):
            load_features_csv(p)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.25\n0.5\n")
        with pytest.raises(ValueError, match=":2: ragged"):
            load_features_csv(p)

    def test_csv_equivalent_of_libsvm(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        y = rng.integers(1, 3, 20)
        lib = tmp_path / "d.libsvm"
        write_libsvm(lib, LabeledDataset(X, y, 2))
        csv = tmp_path / "d.csv"
        csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X))
        a, b = load_libsvm(lib), load_features_csv(csv)
        np.testing.assert_array_equal(a.X, b.X)

    def test_features_csv(self, tmp_path):
        p = tmp_path / "u.csv"
        rng = np.random.default_rng(2)
        X = rng.normal(size=(9, 3))
        write_features_csv(p, X)
        back = load_features_csv(p)
        np.testing.assert_array_equal(back.X, X)


class TestDatasets:
    def test_labeled_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [1, 5], 2)  # label out of range
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.inf, 0.0]]), [1], 1)
        with pytest.raises(ValueError):
            UnlabeledDataset(np.empty((0, 3)))

    def test_novel_flagging(self):
        ds = LabeledDataset(np.zeros((2, 1)), [1, 3], 2)
        assert ds.contains_novel and ds.novel_label == 3


# every function that trains or estimates on a labeled/unlabeled pair, each
# reaching the pair through pooled_points
_SMALL_GRID = dict(sigma_multipliers=(1.0,), lambda_candidates=(0.1,), folds=2)
PAIR_CALLERS = {
    "estimate_theta": lambda L, U: estimate_theta(L, U, KernelSpec(1.0)),
    "cross_validate-square": lambda L, U: cross_validate(L, U, 0.7, HyperGrid(**_SMALL_GRID), 0),
    "cross_validate-logistic": lambda L, U: cross_validate(
        L, U, 0.7, HyperGrid(loss_kind="logistic", **_SMALL_GRID), 0),
    "fit_square_closed_form": lambda L, U: fit_square_closed_form(L, U, KernelSpec(1.0), 0.7, 0.1),
    "fit_first_order": lambda L, U: fit_first_order(L, U, KernelSpec(1.0), 0.7,
                                                    FitOptions(lam=0.1), "logistic"),
}


class TestPooledPoints:
    def _pair(self):
        rng = np.random.default_rng(0)
        return (LabeledDataset(rng.normal(size=(20, 2)), np.tile([1, 2], 10), 2),
                UnlabeledDataset(rng.normal(size=(30, 2))))

    def test_labeled_rows_first(self):
        L, U = self._pair()
        np.testing.assert_array_equal(pooled_points(L, U), np.concatenate([L.X, U.X]))

    @pytest.mark.parametrize("fault", ["novel", "dimension"])
    @pytest.mark.parametrize("caller", list(PAIR_CALLERS))
    def test_every_caller_refuses_a_bad_pair(self, caller, fault):
        L, U = self._pair()
        if fault == "novel":
            L = LabeledDataset(L.X, np.where(np.arange(len(L)) == 3, 3, L.y), 2)
            message = "training labels must not contain the novel class"
        else:
            U = UnlabeledDataset(np.zeros((len(U), 3)))
            message = "labeled and unlabeled dimensions differ"
        with pytest.raises(ValueError, match=f"^{message}$"):
            PAIR_CALLERS[caller](L, U)

    @pytest.mark.parametrize("caller", ["empirical_lac_risk", "ovr_reject_baseline"])
    def test_one_set_callers_refuse_novel_rows(self, caller):
        # neither stacks a pair, yet both train or score on known classes
        # only, under the same rule and message as pooled_points
        L, U = self._pair()
        L = LabeledDataset(L.X, np.where(np.arange(len(L)) == 3, 3, L.y), 2)
        call = {"empirical_lac_risk": lambda: empirical_lac_risk(
                    lambda X: np.zeros((len(X), 3)), L, U, 0.7, "square"),
                "ovr_reject_baseline": lambda: ovr_reject_baseline(L, KernelSpec(1.0), 0.1)}
        with pytest.raises(ValueError, match="^training labels must not contain the novel class$"):
            call[caller]()


class TestSplitConfiguration:
    def _dataset(self, seed=0, classes=6, per_class=400, dim=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(classes * per_class, dim))
        y = np.repeat(np.arange(1, classes + 1), per_class)
        return LabeledDataset(X, y, classes)

    def test_sizes_exact(self):
        full = self._dataset()
        config = ClassConfiguration(frozenset({1, 3, 5}), frozenset({2, 4, 6}))
        L, U, T = split_class_configuration(full, config, 500, 1000, 700, seed=2)
        assert len(L) == 500 and len(U) == 1000 and len(T) == 700

    def test_no_novel_leak_into_labeled(self):
        full = self._dataset()
        config = ClassConfiguration(frozenset({2, 4, 6}), frozenset({1, 3, 5}))
        L, _, T = split_class_configuration(full, config, 400, 400, 400, seed=4)
        assert not L.contains_novel
        assert L.num_known_classes == 3
        assert T.contains_novel  # new classes exist and are sampled proportionally

    def test_empty_new_labels(self):
        full = self._dataset(classes=3)
        config = ClassConfiguration(frozenset({1, 2, 3}), frozenset())
        _, _, T = split_class_configuration(full, config, 200, 200, 200, seed=5)
        assert not T.contains_novel

    def test_proportions_preserved(self):
        full = self._dataset(classes=4, per_class=500)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        _, U, T = split_class_configuration(full, config, 100, 1000, 1000, seed=6)
        # pool is balanced, so novel rows should be ~half of the test set
        novel = np.mean(T.y == T.novel_label)
        assert abs(novel - 0.5) <= 0.002

    def test_forced_novel_fraction(self):
        full = self._dataset(classes=4, per_class=500)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        _, _, T = split_class_configuration(full, config, 100, 400, 400, seed=7,
                                            novel_fraction=0.2)
        assert np.mean(T.y == T.novel_label) == pytest.approx(0.2, abs=0.003)

    def test_disjoint_when_possible(self):
        full = self._dataset(classes=4, per_class=300)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        L, U, T = split_class_configuration(full, config, 100, 200, 200, seed=8)
        rows = {tuple(r) for r in np.round(L.X, 12)}
        rows_u = {tuple(r) for r in np.round(U.X, 12)}
        rows_t = {tuple(r) for r in np.round(T.X, 12)}
        assert not rows & rows_u and not rows & rows_t and not rows_u & rows_t

    def test_insufficient_samples(self):
        full = self._dataset(classes=2, per_class=20)
        config = ClassConfiguration(frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="insufficient"):
            split_class_configuration(full, config, 100, 10, 10, seed=0)

    @pytest.mark.parametrize("fraction", [1.2, 1.0, -0.1, float("nan")])
    def test_novel_fraction_in_unit_interval(self, fraction):
        full = self._dataset(classes=4)
        config = ClassConfiguration(frozenset({1, 2}), frozenset({3, 4}))
        with pytest.raises(ValueError,
                           match=rf"^novel fraction must lie in \[0, 1\), got \[{fraction}\]$"):
            split_class_configuration(full, config, 10, 10, 10, seed=0, novel_fraction=fraction)

    def test_absent_class_rejected(self):
        full = self._dataset(classes=2)
        config = ClassConfiguration(frozenset({1}), frozenset({9}))
        with pytest.raises(ValueError, match="absent"):
            split_class_configuration(full, config, 10, 10, 10, seed=0)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ClassConfiguration(frozenset({1, 2}), frozenset({2, 3}))

    @pytest.mark.parametrize("per_class, sizes, novel_fraction", [
        (400, (500, 1000, 700), None),
        (300, (100, 200, 200), 0.2),
        # too few rows for disjoint sets: later draws reuse earlier rows
        (60, (100, 150, 150), None),
        (60, (50, 100, 100), 0.8),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_per_index_draw(self, per_class, sizes, novel_fraction, seed):
        full = self._dataset(seed=seed, classes=4, per_class=per_class)
        config = ClassConfiguration(frozenset({1, 3}), frozenset({2, 4}))
        splits = split_class_configuration(full, config, *sizes, seed=seed,
                                           novel_fraction=novel_fraction)
        expected = _reference_split(full, config, *sizes, seed, novel_fraction)
        for got, (idx, y) in zip(splits, expected):
            np.testing.assert_array_equal(got.X, full.X[idx])
            if y is not None:
                np.testing.assert_array_equal(got.y, y)
                assert got.y.dtype == y.dtype


def _reference_split(full, config, n_labeled, n_unlabeled, n_test, seed, novel_fraction):
    """The split's rows and labels as drawn with a Python set of used rows
    and a per-row relabel, one rng call at a time; None for the unlabeled
    set's labels."""
    rng = np.random.default_rng(seed)
    known_sorted = sorted(config.known_labels)
    remap = {orig: i + 1 for i, orig in enumerate(known_sorted)}
    K = len(known_sorted)
    known_pool = np.flatnonzero(np.isin(full.y, known_sorted))
    labeled_idx = rng.choice(known_pool, size=n_labeled, replace=False)
    pool_classes = known_sorted + sorted(config.new_labels)
    pool_idx = {c: np.flatnonzero(full.y == c) for c in pool_classes}
    sizes = np.array([len(pool_idx[c]) for c in pool_classes], dtype=float)
    if novel_fraction is None:
        proportions = sizes / sizes.sum()
    else:
        proportions = np.concatenate([(1.0 - novel_fraction) * sizes[:K] / sizes[:K].sum(),
                                      novel_fraction * sizes[K:] / sizes[K:].sum()])
    used = set(int(i) for i in labeled_idx)

    def draw(count):
        chosen = []
        for c, want in zip(pool_classes, _largest_remainder_counts(proportions, count)):
            if want == 0:
                continue
            avail = np.array([i for i in pool_idx[c] if int(i) not in used], dtype=int)
            if len(avail) >= want:
                take = rng.choice(avail, size=want, replace=False)
            else:
                extra = rng.choice(pool_idx[c], size=want - len(avail), replace=True)
                take = np.concatenate([avail, extra])
            used.update(int(i) for i in take)
            chosen.append(take)
        return np.concatenate(chosen)

    def relabel(idx):
        return np.array([remap.get(int(full.y[i]), K + 1) for i in idx], dtype=np.int64)

    unlabeled_idx = draw(n_unlabeled)
    test_idx = draw(n_test)
    return ((labeled_idx, relabel(labeled_idx)), (unlabeled_idx, None),
            (test_idx, relabel(test_idx)))


class TestSyntheticSampling:
    def test_theta_one_means_no_novel(self):
        spec = two_cluster_spec(1.0, seed=0)
        _, _, T = sample_synthetic(spec, 50, 50, 400)
        assert not T.contains_novel

    def test_novel_fraction_concentrates(self):
        spec = two_cluster_spec(0.5, seed=1)
        _, _, T = sample_synthetic(spec, 10, 10, 10000)
        frac = np.mean(T.y == T.novel_label)
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / 10000)

    def test_unlabeled_known_fraction_concentrates(self):
        spec = two_cluster_spec(0.7, seed=2)
        _, U, T = sample_synthetic(spec, 10, 10000, 10)
        # unlabeled carries no labels; verify through an identically drawn test set
        frac = np.mean(sample_test_set(spec, 10000, seed=3).y <= 2)
        assert abs(frac - 0.7) <= 3.0 * np.sqrt(0.21 / 10000)

    def test_deterministic(self):
        spec = two_cluster_spec(0.6, seed=9)
        a = sample_synthetic(spec, 40, 40, 40)
        b = sample_synthetic(spec, 40, 40, 40)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)

    def test_invalid_theta(self):
        with pytest.raises(ValueError, match="theta"):
            two_cluster_spec(0.0, seed=0)
        with pytest.raises(ValueError, match="theta"):
            two_cluster_spec(1.5, seed=0)

    def test_non_psd_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture([1.0], [[0.0, 0.0]], [np.array([[1.0, 2.0], [2.0, 1.0]])])

    def test_priors_must_sum_to_one(self):
        gm = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        with pytest.raises(ValueError, match="priors"):
            from eulac.data import SyntheticSpec
            SyntheticSpec([0.6, 0.3], (gm, gm), gm, 0.5)


class TestBayesOracle:
    def test_separated_classes_near_zero(self):
        gm1 = GaussianMixture([1.0], [[-50.0]], [np.eye(1)])
        gm2 = GaussianMixture([1.0], [[50.0]], [np.eye(1)])
        from eulac.data import SyntheticSpec
        spec = SyntheticSpec([0.5, 0.5], (gm1, gm2), gm1, 1.0)
        assert bayes_risk_oracle(spec, 500) <= 1e-6

    @pytest.mark.parametrize("resolution", [1, 0, -4])
    def test_grid_of_fewer_than_two_points_refused(self, resolution):
        # the same check refuses eulac gen --grid-resolution before any read
        with pytest.raises(ValueError,
                           match=f"^grid_resolution must be at least 2, got {resolution}$"):
            bayes_risk_oracle(two_cluster_spec(0.7, 0), resolution)

    def test_monte_carlo_cross_check(self):
        from eulac.data import SyntheticSpec
        known = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        new = GaussianMixture([1.0], [[2.0]], [np.eye(1)])
        spec = SyntheticSpec([1.0], (known,), new, 0.5, seed=0)
        quad = bayes_risk_oracle(spec, 800)

        # independent oracle: classify a large Monte-Carlo sample by exact
        # posterior and count errors
        test = sample_test_set(spec, 1_000_000, seed=42)
        j1 = 0.5 * known.pdf(test.X)
        j2 = 0.5 * new.pdf(test.X)
        pred = np.where(j1 >= j2, 1, 2)
        mc = float(np.mean(pred != test.y))
        assert abs(quad - mc) <= 0.003

    def test_resolution_convergence(self):
        spec = two_cluster_spec(0.7, seed=0)
        a = bayes_risk_oracle(spec, 400)
        b = bayes_risk_oracle(spec, 800)
        assert abs(a - b) < 1e-4

    def test_dimension_and_resolution_guards(self):
        gm = GaussianMixture([1.0], [np.zeros(3)], [np.eye(3)])
        from eulac.data import SyntheticSpec
        spec = SyntheticSpec([1.0], (gm,), gm, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            bayes_risk_oracle(spec, 100)
        with pytest.raises(ValueError, match="resolution"):
            bayes_risk_oracle(two_cluster_spec(0.5, 0), 1)


class TestFiniteDistribution:
    def test_mass_split_matches_theta(self):
        fd = FiniteDistribution(
            np.zeros((3, 1)), [1, 1, 2], [0.42, 0.28, 0.3], 0.7, 1
        )
        assert fd.probabilities[fd.known_mask].sum() == pytest.approx(0.7, abs=1e-12)

    def test_bad_mass_split_rejected(self):
        with pytest.raises(ValueError, match="decomposition"):
            FiniteDistribution(np.zeros((2, 1)), [1, 2], [0.5, 0.5], 0.7, 1)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteDistribution(np.zeros((2, 1)), [1, 2], [0.6, 0.5], 0.6, 1)


class TestKfold:
    def _data(self, n_l=500, n_u=1000):
        rng = np.random.default_rng(0)
        L = LabeledDataset(rng.normal(size=(n_l, 2)),
                           rng.permutation(np.repeat([1, 2], n_l // 2)), 2)
        U = UnlabeledDataset(rng.normal(size=(n_u, 2)))
        return L, U

    def test_fold_sizes(self):
        L, U = self._data()
        folds = kfold_indices(L, U, 5, seed=0)
        assert all(len(vl) == 100 and len(vu) == 200 for _, _, vl, vu in folds)

    def test_partition_property(self):
        L, U = self._data(60, 90)
        folds = kfold_indices(L, U, 3, seed=1)
        for tl, tu, vl, vu in folds:
            np.testing.assert_array_equal(np.sort(np.concatenate([tl, vl])), np.arange(60))
            np.testing.assert_array_equal(np.sort(np.concatenate([tu, vu])), np.arange(90))
        seen_l = np.concatenate([vl for _, _, vl, _ in folds])
        seen_u = np.concatenate([vu for _, _, _, vu in folds])
        np.testing.assert_array_equal(np.sort(seen_l), np.arange(60))
        np.testing.assert_array_equal(np.sort(seen_u), np.arange(90))

    def test_stratification_within_one(self):
        L, U = self._data(500, 100)
        for _, _, val_l, _ in kfold_indices(L, U, 5, seed=2):
            counts = np.bincount(L.y[val_l], minlength=3)[1:]
            assert np.all(np.abs(counts - 50) <= 1)

    def test_small_class_rejected(self):
        rng = np.random.default_rng(3)
        L = LabeledDataset(rng.normal(size=(10, 1)), [1] * 7 + [2] * 3, 2)
        U = UnlabeledDataset(rng.normal(size=(10, 1)))
        with pytest.raises(ValueError, match="fewer than"):
            kfold_indices(L, U, 5, seed=0)

    @pytest.mark.parametrize("n_u, k", [(1, 2), (3, 5)])
    def test_small_unlabeled_set_rejected(self, n_u, k):
        L, _ = self._data(50, 10)
        U = UnlabeledDataset(np.zeros((n_u, 2)))
        with pytest.raises(ValueError, match=f"unlabeled set has {n_u} samples, fewer than {k} folds"):
            kfold_indices(L, U, k, seed=0)


class TestConfigFormats:
    def test_synthetic_spec_roundtrip(self):
        spec = two_cluster_spec(0.7, seed=5)
        back = parse_synthetic_spec(format_synthetic_spec(spec))
        assert back.theta == spec.theta and back.seed == spec.seed
        np.testing.assert_array_equal(back.class_priors, spec.class_priors)
        for a, b in zip(back.class_mixtures, spec.class_mixtures):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_class_configuration_parse(self):
        config = parse_class_configuration("known_labels = 1 2 3\nnew_labels = 4 5\n")
        assert config.known_labels == frozenset({1, 2, 3})
        assert config.new_labels == frozenset({4, 5})

    @pytest.mark.parametrize("text, message, where", [
        ("known_labels = 1 2\nnew_label = 3\n", "unrecognised key 'new_label'", "<string>:2"),
        ("known_labels = 1 2\nnew_labels = 3\nseed = 7\n", "unrecognised key 'seed'",
         "<string>:3"),
        ("new_labels = 3\n", "missing key 'known_labels'", "<string>"),
    ])
    def test_class_configuration_bad_key_rejected(self, text, message, where):
        with pytest.raises(ValueError, match=f"^{where}: {message}$"):
            parse_class_configuration(text)

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="unrecognised|missing"):
            parse_synthetic_spec("dimension = 2\ntheta = 0.5\nwhatever = 3\n")

    @pytest.mark.parametrize("edit, message", [
        # (line to replace or drop, its replacement) in format_synthetic_spec's output
        (("class.1.component.1.cov", None), "5: missing key 'class.1.component.1.cov'"),
        (("class.1.prior", "class.1.prior = x"),
         "4: could not convert string to float: 'x'"),
        (("seed", "seed 0"), "3: expected 'key = value'"),
        (("theta", "theta = 0.7\ntheta = 0.5"), "3: repeated key 'theta', first on line 2"),
        (("class.1.component.1.weight", "class.1.component.1.bogus = 3"),
         "5: unrecognised key 'class.1.component.1.bogus'"),
        (("class.1.component.1.weight", "class.1.component.1.weigth = 1.0"),
         "5: unrecognised key 'class.1.component.1.weigth'"),
        (("class.1.prior", "class.01.prior = 0.5"), "4: unrecognised key 'class.01.prior'"),
        (("class.2.prior", None), "8: missing key 'class.2.prior'"),
        (("class.1.component.1.mean", "class.1.component.1.mean = 1"),
         "6: mean must hold 1 row(s) of 2 numbers, separated by ';'"),
        (("class.1.component.1.cov", "class.1.component.1.cov = 1 0 ; 0"),
         "7: covariance must hold 2 row(s) of 2 numbers, separated by ';'"),
        (("dimension", "# a comment holding \f and \v\ndimension = x"),
         "2: invalid literal for int() with base 10: 'x'"),
        (("class.1.component.1.mean", "class.1.component.1.mean = nan 0"),
         "6: mean must hold finite numbers"),
        (("new.component.1.mean", "new.component.1.mean = 0 -inf"),
         "13: mean must hold finite numbers"),
        (("class.2.component.1.cov", "class.2.component.1.cov = 1 0 ; 0 Infinity"),
         "11: covariance must hold finite numbers"),
        (("class.2.component.1.cov", "class.2.component.1.cov = 1 0 ; 0 -1"),
         "11: class.2.component.1.cov is not positive definite"),
        (("new.component.1.cov", "new.component.1.cov = 1 0.5 ; 0 1"),
         "14: new.component.1.cov is not symmetric"),
        (("class.1.component.1.weight", "class.1.component.1.weight = nan"),
         "5: weight must be finite and nonnegative, got nan"),
        (("new.component.1.weight", "new.component.1.weight = -0.5"),
         "12: weight must be finite and nonnegative, got -0.5"),
        (("class.1.prior", "class.1.prior = nan"),
         "4: prior must be finite and nonnegative, got nan"),
        (("class.2.prior", "class.2.prior = -inf"),
         "8: prior must be finite and nonnegative, got -inf"),
        (("theta", "theta = nan"), "2: theta must lie in (0, 1], got nan"),
        (("theta", "theta = 1.5"), "2: theta must lie in (0, 1], got 1.5"),
        # single values that pass, but do not sum to 1: the mixture's and the
        # spec's checks name the file alone
        (("class.1.component.1.weight", "class.1.component.1.weight = 0.5"),
         " class.1: mixture weights must be nonnegative and sum to 1"),
        (("class.1.prior", "class.1.prior = 0.25"),
         " class priors must be nonnegative and sum to 1"),
    ])
    def test_spec_error_names_path_and_line(self, edit, message):
        key, replacement = edit
        lines = format_synthetic_spec(two_cluster_spec(0.7, seed=0)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[at:at + 1] = [] if replacement is None else [replacement]
        with pytest.raises(ValueError) as info:
            parse_synthetic_spec("\n".join(lines) + "\n", "spec.txt")
        assert str(info.value) == f"spec.txt:{message}"

    @pytest.mark.parametrize("text, message", [
        ("known_labels = 1 x\n", "cfg:1: invalid literal for int() with base 10: 'x'"),
        ("known_labels = 1 2\nknown_labels = 3\n",
         "cfg:2: repeated key 'known_labels', first on line 1"),
        ("# \x1c\nknown_labels = 1\n\nnew_labels 3\n", "cfg:4: expected 'key = value'"),
    ])
    def test_class_configuration_error_names_path_and_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_class_configuration(text, "cfg")
        assert str(info.value) == message
