"""Datasets, file ingestion, class-split protocols and synthetic generators.

Conventions used throughout the package:

* features are dense float64 matrices of shape (n, d);
* known-class labels are the contiguous integers 1..K (loaders remap and
  keep the original ids in ``label_map``);
* the aggregate novel class is the sentinel label K+1 internally and the
  string ``"nc"`` (or label 0 in LIBSVM files) externally.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress, repeat
from operator import length_hint
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, solve_triangular

NC_NAME = "nc"
NC_FILE_LABEL = 0  # label used for the novel class in LIBSVM files


def json_text(payload) -> str:
    """Every JSON artifact's text: sorted keys, one-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _validate_features(X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-D array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    if X.shape[1] < 1:
        raise ValueError("feature dimension must be at least 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return X


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus labels in 1..K, or 1..K+1 when novel rows occur."""

    X: np.ndarray
    y: np.ndarray
    num_known_classes: int
    label_map: dict[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "X", _validate_features(self.X))
        y = np.asarray(self.y, dtype=np.int64)
        if y.shape != (self.X.shape[0],):
            raise ValueError("labels must align with feature rows")
        K = int(self.num_known_classes)
        if K < 1:
            raise ValueError("need at least one known class")
        if np.any(y < 1) or np.any(y > K + 1):
            raise ValueError(f"labels must lie in 1..{K + 1}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "num_known_classes", K)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    @property
    def novel_label(self) -> int:
        return self.num_known_classes + 1

    @property
    def contains_novel(self) -> bool:
        return bool(np.any(self.y == self.novel_label))


@dataclass(frozen=True)
class UnlabeledDataset:
    """Feature matrix sampled from the deployment-time marginal."""

    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _validate_features(self.X))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]


def check_theta(theta: float) -> None:
    """Refuse a known-class fraction outside (0, 1], NaN included."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")


def check_count(name: str, count: int, least: int = 1) -> None:
    """Refuse a sample size, repeat count or grid resolution below ``least``."""
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")


def check_ratios(name: str, ratios) -> None:
    """Refuse no novel-class shares, or one outside [0, 1), NaN included."""
    check_count(f"the number of {name}", len(ratios))
    if not all(0.0 <= r < 1.0 for r in ratios):
        raise ValueError(f"{name} must lie in [0, 1), got {list(ratios)}")


def check_known_only(labeled: LabeledDataset) -> None:
    """Refuse training labels that hold the novel class."""
    if labeled.contains_novel:
        raise ValueError("training labels must not contain the novel class")


def pooled_points(labeled: LabeledDataset, unlabeled: UnlabeledDataset) -> np.ndarray:
    """The training support: the labeled rows, then the unlabeled rows.

    The labeled rows must hold known classes only, and both sets must
    share one dimension.
    """
    check_known_only(labeled)
    if labeled.dimension != unlabeled.dimension:
        raise ValueError("labeled and unlabeled dimensions differ")
    return np.vstack([labeled.X, unlabeled.X])


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def utf8_text(path, raw: bytes) -> str:
    """The bytes of the file at ``path`` decoded as UTF-8.  Bytes that are
    not UTF-8 raise ValueError naming ``path:line`` of the first bad byte,
    counted by the newlines before it."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not valid UTF-8 (byte 0x{raw[exc.start]:02x})") from None


def read_text(path) -> str:
    """A UTF-8 text file's contents with every line end (CR LF, CR or LF)
    read as LF, as a text-mode ``open`` reads it; bytes that are not UTF-8
    are refused by ``utf8_text``."""
    text = utf8_text(path, Path(path).read_bytes())
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _remap_labels(raw: list[int], nc_label: int | None) -> tuple[np.ndarray, int, dict[int, int]]:
    known_ids = sorted({r for r in raw if r != nc_label})
    if not known_ids:
        raise ValueError("file contains no known-class labels")
    table = {orig: i + 1 for i, orig in enumerate(known_ids)}
    K = len(known_ids)
    y = np.array([table.get(r, K + 1) for r in raw], dtype=np.int64)  # nc_label is not in table
    return y, K, table


def _converted(kind, strings: list, dtype) -> tuple[np.ndarray, int]:
    """``kind`` mapped over ``strings`` in one pass, as a ``dtype`` array.

    Also returns how many strings come before the first one that ``kind``
    rejects, or that does not fit ``dtype``; the array holds only those.
    """
    it = iter(strings)
    try:
        return np.fromiter(map(kind, it), dtype, len(strings)), len(strings)
    except (ValueError, OverflowError):
        # the iterator stopped just past the rejected string
        good = len(strings) - length_hint(it) - 1
        return np.fromiter(map(kind, strings[:good]), dtype, good), good


def _one_colon_prefix(joined: str, n: int) -> int:
    """How many of the ``n`` space-joined tokens in ``joined`` come before
    the first that does not hold exactly one ':' (``n`` if none)."""
    # no token holds a space, and UTF-8 encodes non-ASCII characters
    # without the bytes of ':' and ' '
    b = np.frombuffer(joined.encode(), dtype=np.uint8)
    marks = b[(b == ord(":")) | (b == ord(" "))]
    # well-formed tokens give ':' then their ' ' separator, token after token
    expected = np.empty_like(marks)
    expected[0::2], expected[1::2] = ord(":"), ord(" ")
    wrong = np.flatnonzero(marks != expected)
    if not wrong.size and len(marks) == 2 * n - 1:
        return n
    return int(np.count_nonzero(marks[:wrong[0] if wrong.size else len(marks)] == ord(" ")))


def _dense_shape(text: str) -> tuple[int, int] | None:
    """``(n, d)`` when ``text`` is ASCII, its only whitespace is ' ' and
    newlines, and its n nonblank lines each hold 1+d tokens (d >= 1, taken
    from the first) with one ':' in each token after the first and no other
    ':'; None otherwise."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    if np.count_nonzero(b < ord(" ")) != len(ends):
        return None  # a tab, \v, \f, \x1c-\x1f or another control byte
    space = b <= ord(" ")
    first = ~space
    first[1:] &= space[:-1]
    starts = np.flatnonzero(first)  # where each token begins
    per_line = np.diff(np.searchsorted(starts, ends), prepend=0, append=len(starts))
    per_line = per_line[per_line > 0]
    if not per_line.size or per_line[0] < 2 or np.any(per_line != per_line[0]):
        return None
    n, width = len(per_line), int(per_line[0])
    colons = np.flatnonzero(b == ord(":"))
    feature_tokens = np.arange(n * width).reshape(n, width)[:, 1:].ravel()
    if not np.array_equal(np.searchsorted(starts, colons, side="right") - 1, feature_tokens):
        return None
    return n, width - 1


def _dense_libsvm(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """``(X, labels)`` of LIBSVM text in the dense layout, else None.

    The layout is the one ``write_libsvm`` writes: every nonblank line reads
    ``label 1:v_1 ... d:v_d`` with the indices spelled exactly so (see
    ``_dense_shape`` for the rest), every label and value is one that
    ``float`` reads as finite, and every label is a whole number.
    """
    shape = _dense_shape(text)
    if shape is None:
        return None
    n, d = shape
    step = 2 * d + 1  # the label, then each index and its value
    pieces = text.replace(":", " ").split()
    # an empty index or value drops a piece; an index is spelled 1..d only
    if len(pieces) != n * step or any(pieces[2 * j - 1::step] != [str(j)] * n
                                      for j in range(1, d + 1)):
        return None
    X = np.empty((n, d))
    try:
        labels = np.fromiter(map(float, pieces[0::step]), float, n)
        for j in range(d):
            X[:, j] = np.fromiter(map(float, pieces[2 * j + 2::step]), float, n)
    except ValueError:
        return None
    if not (np.isfinite(X).all() and np.isfinite(labels).all()
            and np.array_equal(labels, np.trunc(labels))):
        return None
    return X, labels


def _parse_general(path, text: str) -> tuple[np.ndarray, np.ndarray, int | None]:
    """``(X, labels, line)`` of any LIBSVM text, ``line`` the first line
    with a non-finite feature value (None if there is none); a malformed
    text raises ValueError naming ``path:line`` and the problem."""
    # every token, line after line, and the token count of each line; no
    # per-line lists are kept, which would raise the peak RSS of a load.
    # splitlines() would also break lines at \v, \f, \x1c-\x1e, \x85,
    # \u2028 and \u2029, which the file's own line numbers do not count
    flat, lens = [], []
    for parts in map(str.split, text.split("\n")):
        lens.append(len(parts))
        flat += parts
    counts = np.array(lens, dtype=np.intp)
    line_nos = np.flatnonzero(counts) + 1  # nonblank lines
    counts = counts[counts > 0]
    is_label = np.zeros(len(flat), dtype=bool)
    is_label[np.cumsum(counts) - counts] = True
    labels = list(compress(flat, is_label))
    joined = " ".join(compress(flat, ~is_label))  # every feature token, row after row
    del flat, is_label
    counts -= 1  # feature tokens per row
    n_tokens = int(counts.sum())
    token_row = np.repeat(np.arange(len(counts)), counts)
    row_start = np.cumsum(counts) - counts  # each row's first feature token

    # tokens [0, end) passed every check made so far
    end = _one_colon_prefix(joined, n_tokens)
    pieces = joined.replace(":", " ").split(" ")[:2 * end]
    idx, good_idx = _converted(int, pieces[0::2], np.intp)
    values, good_values = _converted(float, pieces[1::2], float)
    del pieces
    end = min(end, good_idx, good_values)
    checked = idx[:end]
    prev = np.zeros_like(checked)  # 0 before each row's first token
    prev[1:] = checked[:-1]
    prev[row_start[row_start < end]] = 0
    unordered = np.flatnonzero(checked <= prev)
    order_problem = unordered.size > 0
    if order_problem:
        end = int(unordered[0])

    label_values, good_labels = _converted(float, labels, float)
    # int() rejects nan and inf; a finite label must be a whole number
    bad_labels = np.flatnonzero(~np.isfinite(label_values)
                                | (label_values != np.trunc(label_values)))
    label_row = min(good_labels, int(bad_labels[0]) if bad_labels.size else len(labels))
    if label_row < len(labels) and (end == n_tokens or label_row <= token_row[end]):
        tok = labels[label_row]
        whole = label_row < good_labels and np.isfinite(label_values[label_row])
        kind = "non-integer" if whole else "invalid"
        raise ValueError(f"{path}:{line_nos[label_row]}: {kind} label {tok!r}")
    if end < n_tokens:
        problem = ("indices must be 1-based and strictly increasing" if order_problem
                   else f"invalid token {joined.split(' ')[end]!r}")
        raise ValueError(f"{path}:{line_nos[token_row[end]]}: {problem}")
    del joined

    if not labels:
        raise ValueError(f"{path}: empty file")
    if not n_tokens:
        raise ValueError(f"{path}: no features found")
    del labels
    X = np.zeros((len(counts), int(idx.max())))
    X[token_row, idx - 1] = values
    nonfinite = np.flatnonzero(~np.isfinite(values))
    return X, label_values, int(line_nos[token_row[nonfinite[0]]]) if nonfinite.size else None


def _labeled(path, X: np.ndarray, label_values: np.ndarray, nc_label: int | None,
             num_known_classes: int | None, nonfinite_line: int | None = None) -> LabeledDataset:
    """The dataset of a LIBSVM file either path parsed, from its
    whole-number float labels: they are checked against 1..K or remapped,
    and then ``nonfinite_line``, the general parser's first line with a
    non-finite value, is refused."""
    if num_known_classes is not None:
        K = int(num_known_classes)
        novel = label_values == nc_label
        outside = ~novel & ((label_values < 1) | (label_values > K))
        if outside.any():
            bad = sorted(set(map(int, label_values[outside].tolist())))
            raise ValueError(f"{path}: labels {bad} outside the expected range 1..{K}")
        y = np.where(novel, K + 1, label_values).astype(np.int64)
        table = None
    else:
        y, K, table = _remap_labels(list(map(int, label_values.tolist())), nc_label)
    if nonfinite_line is not None:
        raise ValueError(f"{path}:{nonfinite_line}: features must be finite")
    return LabeledDataset(X, y, K, label_map=table)


def load_libsvm(
    path,
    nc_label: int | None = None,
    num_known_classes: int | None = None,
) -> LabeledDataset:
    """Read a LIBSVM text file (``label index:value ...``, 1-based indices).

    Rows whose label equals ``nc_label`` (if given) become the novel class;
    all other labels are remapped to 1..K preserving sorted order.  When
    ``num_known_classes`` is given no remapping happens: every other label
    must already lie in 1..K (useful for files that pair with a fitted
    model).

    Tokens are whitespace-separated and blank lines are skipped.  The file
    is read once and takes one of two paths, which give the same dataset.
    A file in the dense layout that ``write_libsvm`` and ``eulac gen``
    write (ASCII, spaces between tokens, every nonblank line
    ``label 1:v_1 ... d:v_d``) passes one vectorised check of that layout,
    and is then split once, its labels and each value column going through
    ``float``.  Any other file, or one whose labels or values that path
    does not read as finite (whole-number labels), goes to the general
    parser.  It parses in bulk: each line is split once, labels go through
    ``float`` and then ``int``, and the feature tokens are joined and split
    on ':' once, their indices going through ``int`` and their values
    through ``float``.  Only the general parser reports a malformed file:
    it raises ValueError naming ``path:line`` of its first bad line and
    the problem there, in the order a line is read: the label, then each
    token in turn (its ':', then its index and value, then whether its
    index is 1-based and greater than the one before).  Non-finite feature
    values are reported the same way, after the labels' range.
    """
    text = read_text(path)
    dense = _dense_libsvm(text)
    if dense is not None:
        return _labeled(path, *dense, nc_label, num_known_classes)
    X, label_values, nonfinite_line = _parse_general(path, text)
    return _labeled(path, X, label_values, nc_label, num_known_classes, nonfinite_line)


def load_features_csv(path) -> UnlabeledDataset:
    """Read a features-only numeric CSV without header.

    Blank lines are skipped, and a cell is anything ``float`` accepts,
    spaces around it included.  The file is parsed in bulk: the stripped
    nonblank lines are joined and split on ',' once, and every cell goes
    through ``float`` in one pass.  A malformed file raises ValueError
    naming ``path:line`` of its first bad line: a ragged row (its cell
    count differs from the first row's) before a non-numeric cell.
    Non-finite values are reported the same way, once every cell parsed.
    """
    lines = list(map(str.strip, read_text(path).split("\n")))
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    line_nos = np.flatnonzero(lengths) + 1  # nonblank lines
    rows = list(compress(lines, lengths))
    del lines
    if not rows:
        raise ValueError(f"{path}: empty file")
    counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows)) + 1
    cells = ",".join(rows).split(",")
    del rows
    values, good = _converted(float, cells, float)
    width = int(counts[0])
    ragged = np.flatnonzero(counts != width)
    ragged_row = int(ragged[0]) if ragged.size else len(counts)
    # the row of the first cell that float rejected
    bad_row = int(np.searchsorted(np.cumsum(counts), good, side="right"))
    if ragged_row < len(counts) and ragged_row <= bad_row:
        raise ValueError(f"{path}:{line_nos[ragged_row]}: ragged row "
                         f"({counts[ragged_row]} cells, expected {width})")
    if bad_row < len(counts):
        raise ValueError(f"{path}:{line_nos[bad_row]}: non-numeric cell")
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        raise ValueError(f"{path}:{line_nos[nonfinite[0] // width]}: features must be finite")
    return UnlabeledDataset(values.reshape(len(counts), width))


def write_libsvm(path, dataset: LabeledDataset) -> None:
    """Write a dataset in LIBSVM text form; novel rows get ``NC_FILE_LABEL``.

    All feature positions are written (including zeros) so that a reload
    recovers the exact dimension.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            label = int(dataset.y[i])
            if label == dataset.novel_label:
                label = NC_FILE_LABEL
            cells = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(dataset.X[i]))
            fh.write(f"{label} {cells}\n")


def write_features_csv(path, X: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(X, dtype=float):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# class-configuration splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassConfiguration:
    """Partition of a dataset's class ids into known and novel groups."""

    known_labels: frozenset[int]
    new_labels: frozenset[int]

    def __post_init__(self):
        known = frozenset(int(c) for c in self.known_labels)
        new = frozenset(int(c) for c in self.new_labels)
        if not known:
            raise ValueError("need at least one known class")
        if known & new:
            raise ValueError(f"known and new label sets overlap: {sorted(known & new)}")
        object.__setattr__(self, "known_labels", known)
        object.__setattr__(self, "new_labels", new)


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    ideal = proportions * total
    counts = np.floor(ideal).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def split_class_configuration(
    full: LabeledDataset,
    config: ClassConfiguration,
    n_labeled: int,
    n_unlabeled: int,
    n_test: int,
    seed: int,
    novel_fraction: float | None = None,
) -> tuple[LabeledDataset, UnlabeledDataset, LabeledDataset]:
    """Carve labeled / unlabeled / test sets out of a fully labeled dataset.

    The labeled set is drawn uniformly from the known classes only.  The
    unlabeled and test sets are drawn from known and new classes together,
    preserving the empirical class proportions of that pool (or forcing the
    novel mass to ``novel_fraction`` when given); novel rows in the test
    set are relabeled to the sentinel class.  The three index sets are
    disjoint as long as the dataset is large enough.
    """
    present = set(int(c) for c in np.unique(full.y))
    wanted = config.known_labels | config.new_labels
    missing = sorted(wanted - present)
    if missing:
        raise ValueError(f"configuration references absent classes: {missing}")

    rng = np.random.default_rng(seed)
    known_sorted = sorted(config.known_labels)
    remap = {orig: i + 1 for i, orig in enumerate(known_sorted)}
    K = len(known_sorted)

    known_pool = np.flatnonzero(np.isin(full.y, known_sorted))
    if len(known_pool) < n_labeled:
        raise ValueError(
            f"insufficient known-class samples: need {n_labeled}, have {len(known_pool)}"
        )
    labeled_idx = rng.choice(known_pool, size=n_labeled, replace=False)

    pool_classes = known_sorted + sorted(config.new_labels)
    pool_idx = {c: np.flatnonzero(full.y == c) for c in pool_classes}
    pool_sizes = np.array([len(pool_idx[c]) for c in pool_classes], dtype=float)
    if novel_fraction is None:
        proportions = pool_sizes / pool_sizes.sum()
    else:
        check_ratios("novel fraction", [novel_fraction])
        proportions = np.zeros(len(pool_classes))
        known_part = pool_sizes[:K] / pool_sizes[:K].sum()
        proportions[:K] = (1.0 - novel_fraction) * known_part
        if config.new_labels:
            new_part = pool_sizes[K:] / pool_sizes[K:].sum()
            proportions[K:] = novel_fraction * new_part
        elif novel_fraction > 0:
            raise ValueError("cannot force a novel fraction without new classes")

    used = np.zeros(len(full), dtype=bool)  # rows already drawn
    used[labeled_idx] = True

    def draw_stratified(count: int) -> np.ndarray:
        per_class = _largest_remainder_counts(proportions, count)
        chosen: list[np.ndarray] = []
        for c, want in zip(pool_classes, per_class):
            if want == 0:
                continue
            avail = pool_idx[c][~used[pool_idx[c]]]
            if len(avail) >= want:
                take = rng.choice(avail, size=want, replace=False)
            else:
                # dataset too small for disjoint splits: reuse earlier rows
                extra = rng.choice(pool_idx[c], size=want - len(avail), replace=True)
                take = np.concatenate([avail, extra])
            used[take] = True
            chosen.append(take)
        return np.concatenate(chosen) if chosen else np.array([], dtype=int)

    unlabeled_idx = draw_stratified(n_unlabeled)
    test_idx = draw_stratified(n_test)

    # the split's label of every file label: 1..K for the known ids, K+1 else
    relabel = np.full(int(full.y.max()) + 1, K + 1, dtype=np.int64)
    relabel[known_sorted] = np.arange(1, K + 1)
    labeled = LabeledDataset(full.X[labeled_idx], relabel[full.y[labeled_idx]], K,
                             label_map=remap)
    unlabeled = UnlabeledDataset(full.X[unlabeled_idx])
    test = LabeledDataset(full.X[test_idx], relabel[full.y[test_idx]], K, label_map=remap)
    return labeled, unlabeled, test


def stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold id in 0..k-1 per row, dealt round-robin within each shuffled class."""
    if k < 2:
        raise ValueError("need k >= 2 folds")
    fold_of = np.empty(len(labels), dtype=int)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise ValueError(f"class {int(c)} has {len(idx)} samples, fewer than {k} folds")
        idx = rng.permutation(idx)
        fold_of[idx] = np.arange(len(idx)) % k
    return fold_of


def kfold_indices(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    k: int,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Index-level folds: (train_L, train_U, val_L, val_U) row indices per fold.

    Labeled folds are stratified by class (``stratified_folds``); unlabeled
    folds are a plain random partition.
    """
    if len(unlabeled) < k:
        raise ValueError(f"unlabeled set has {len(unlabeled)} samples, fewer than {k} folds")
    rng = np.random.default_rng(seed)
    fold_of = stratified_folds(labeled.y, k, rng)
    u_perm = rng.permutation(len(unlabeled))
    u_folds = np.array_split(u_perm, k)

    out = []
    for f in range(k):
        val_L = np.flatnonzero(fold_of == f)
        train_L = np.flatnonzero(fold_of != f)
        val_U = np.sort(u_folds[f])
        train_U = np.sort(np.concatenate([u_folds[g] for g in range(k) if g != f]))
        out.append((train_L, train_U, val_L, val_U))
    return out


# ---------------------------------------------------------------------------
# synthetic class-shift generators
# ---------------------------------------------------------------------------


def _covariance_factor(cov: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor of the covariance matrix ``cov``; one that
    is not symmetric or not positive definite is refused naming ``name``."""
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(f"{name} is not symmetric")
    try:
        return cholesky(cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted Gaussian mixture with full covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        m, d = mu.shape
        if w.shape != (m,) or cov.shape != (m, d, d):
            raise ValueError("mixture weight/mean/covariance shapes are inconsistent")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0, atol=1e-9):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        chols = np.empty_like(cov)
        for j in range(m):
            chols[j] = _covariance_factor(cov[j], f"covariance {j}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "_chols", chols)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.dimension
        out = np.zeros(pts.shape[0])
        for w, mu, L in zip(self.weights, self.means, self._chols):
            z = solve_triangular(L, (pts - mu).T, lower=True)
            quad = np.sum(z * z, axis=0)
            logdet = 2.0 * np.sum(np.log(np.diag(L)))
            out += w * np.exp(-0.5 * quad - 0.5 * logdet - 0.5 * d * np.log(2.0 * np.pi))
        return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Class-shift generator: known Gaussian-mixture classes plus one novel mixture."""

    class_priors: np.ndarray
    class_mixtures: tuple[GaussianMixture, ...]
    new_mixture: GaussianMixture
    theta: float
    seed: int = 0

    def __post_init__(self):
        priors = np.asarray(self.class_priors, dtype=float)
        mixes = tuple(self.class_mixtures)
        if priors.ndim != 1 or len(priors) != len(mixes) or len(mixes) < 1:
            raise ValueError("need one prior per known class")
        if np.any(priors < 0) or not np.isclose(priors.sum(), 1.0, atol=1e-9):
            raise ValueError("class priors must be nonnegative and sum to 1")
        check_theta(self.theta)
        d = mixes[0].dimension
        for gm in mixes + (self.new_mixture,):
            if gm.dimension != d:
                raise ValueError("all mixtures must share one dimension")
        object.__setattr__(self, "class_priors", priors)
        object.__setattr__(self, "class_mixtures", mixes)

    @property
    def num_known_classes(self) -> int:
        return len(self.class_mixtures)

    @property
    def dimension(self) -> int:
        return self.class_mixtures[0].dimension


def _flatten_mixture(spec: SyntheticSpec, include_new: bool):
    """Joint categorical over (label, component) pairs for one-shot sampling."""
    scale = spec.theta if include_new else 1.0
    parts = [(c, scale * prior, gm) for c, (prior, gm)
             in enumerate(zip(spec.class_priors, spec.class_mixtures), start=1)]
    if include_new:
        parts.append((spec.num_known_classes + 1, 1.0 - spec.theta, spec.new_mixture))
    return (np.concatenate([np.full(len(gm.weights), label) for label, _, gm in parts]),
            np.concatenate([gm.means for _, _, gm in parts]),
            np.concatenate([gm._chols for _, _, gm in parts]),
            np.concatenate([weight * gm.weights for _, weight, gm in parts]))


def _draw(rng, labels, means, chols, probs, size):
    probs = probs / probs.sum()
    pick = rng.choice(len(probs), size=size, p=probs)
    eps = rng.standard_normal((size, means.shape[1]))
    X = means[pick] + np.einsum("nij,nj->ni", chols[pick], eps)
    return X, labels[pick]


def sample_synthetic(
    spec: SyntheticSpec,
    n_labeled: int,
    n_unlabeled: int,
    n_test: int,
) -> tuple[LabeledDataset, UnlabeledDataset, LabeledDataset]:
    """Draw labeled (known classes), unlabeled and test sets under class shift.

    Each unlabeled/test point comes from the known-class part with
    probability theta and from the novel mixture otherwise; novel test
    points carry the sentinel label.  Fully deterministic given spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    train_parts = _flatten_mixture(spec, include_new=False)
    test_parts = _flatten_mixture(spec, include_new=True)

    XL, yL = _draw(rng, *train_parts, n_labeled)
    XU, _ = _draw(rng, *test_parts, n_unlabeled)
    XT, yT = _draw(rng, *test_parts, n_test)

    K = spec.num_known_classes
    labeled = LabeledDataset(XL, yL, K)
    unlabeled = UnlabeledDataset(XU)
    test = LabeledDataset(XT, yT, K)
    return labeled, unlabeled, test


def sample_test_set(spec: SyntheticSpec, n_test: int, seed: int) -> LabeledDataset:
    """Draw a labeled sample of the testing distribution only."""
    rng = np.random.default_rng(seed)
    X, y = _draw(rng, *_flatten_mixture(spec, include_new=True), n_test)
    return LabeledDataset(X, y, spec.num_known_classes)


# ---------------------------------------------------------------------------
# exact error floor for low-dimensional synthetic tasks
# ---------------------------------------------------------------------------


def posterior_grid(spec: SyntheticSpec, grid_resolution: int):
    """Midpoint quadrature grid with per-class joint densities.

    Returns (points, cell_volume, joints) where joints has one row per
    class 1..K plus a final row for the novel class; row k holds the joint
    density p(x, y=k) of the testing distribution at each grid point.  The
    bounding box covers at least 1 - 1e-6 of every component's mass.
    """
    d = spec.dimension
    if d > 2:
        raise ValueError("quadrature grid supports dimension <= 2 only")
    check_count("grid_resolution", grid_resolution, least=2)

    mixtures = list(spec.class_mixtures) + [spec.new_mixture]
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    for gm in mixtures:
        sd = np.sqrt(np.diagonal(gm.covariances, axis1=1, axis2=2))
        lo = np.minimum(lo, (gm.means - 6.0 * sd).min(axis=0))
        hi = np.maximum(hi, (gm.means + 6.0 * sd).max(axis=0))

    axes = [lo[a] + (hi[a] - lo[a]) * (np.arange(grid_resolution) + 0.5) / grid_resolution
            for a in range(d)]
    if d == 1:
        points = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([g0.ravel(), g1.ravel()])
    volume = float(np.prod((hi - lo) / grid_resolution))

    K = spec.num_known_classes
    joints = np.empty((K + 1, points.shape[0]))
    for k in range(K):
        joints[k] = spec.theta * spec.class_priors[k] * spec.class_mixtures[k].pdf(points)
    joints[K] = (1.0 - spec.theta) * spec.new_mixture.pdf(points)
    return points, volume, joints


def bayes_risk_oracle(spec: SyntheticSpec, grid_resolution: int = 400) -> float:
    """Minimal achievable 0-1 risk of the testing distribution by quadrature."""
    _, volume, joints = posterior_grid(spec, grid_resolution)
    return bayes_risk_from_joints(volume, joints)


def bayes_risk_from_joints(volume: float, joints: np.ndarray) -> float:
    """0-1 risk of the Bayes rule from quadrature joints (one row per class)."""
    correct = volume * joints.max(axis=0).sum()
    return float(min(max(1.0 - correct, 0.0), 1.0))


# ---------------------------------------------------------------------------
# key-value text configs
# ---------------------------------------------------------------------------


def _parse_kv_lines(path, text: str, keys: re.Pattern) -> dict[str, tuple[str, int]]:
    """Each ``key = value`` line of the file at ``path`` as key: (value, line
    number); '#' starts a comment and blank lines are skipped.  Lines are
    counted at each '\\n', as the loaders count them.  A line without '=',
    a key that ``keys`` does not match in full, or a key given twice raises
    ValueError naming ``path:line``."""
    out: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not keys.fullmatch(key):
            raise ValueError(f"{path}:{line_no}: unrecognised key {key!r}")
        if key in out:
            raise ValueError(f"{path}:{line_no}: repeated key {key!r}, first on line {out[key][1]}")
        out[key] = (value, line_no)
    return out


def _kv_value(path, kv: dict, key: str, parse, default: str | None = None,
              line: int | None = None):
    """``parse`` of the value of ``key`` in ``kv``, or of ``default`` when
    the key is absent.  Its ValueError is raised again naming ``path:line``;
    an absent key without a default is refused naming ``path``, ``line``
    when given, and the key."""
    if key not in kv:
        if default is None:
            where = path if line is None else f"{path}:{line}"
            raise ValueError(f"{where}: missing key {key!r}")
        return parse(default)
    value, line = kv[key]
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None


def _class_ids(value: str) -> frozenset[int]:
    return frozenset(int(t) for t in value.split())


def parse_class_configuration(text: str, path="<string>") -> ClassConfiguration:
    """Parse ``known_labels`` and the optional ``new_labels``, each a
    space-separated list of class ids, from the text of the file at
    ``path``; any other key is an error.  A malformed configuration raises
    ValueError naming ``path``, and ``path:line`` where one line is at
    fault."""
    kv = _parse_kv_lines(path, text, re.compile("known_labels|new_labels"))
    known = _kv_value(path, kv, "known_labels", _class_ids)
    new = _kv_value(path, kv, "new_labels", _class_ids, default="")
    try:
        return ClassConfiguration(known, new)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_rows(value: str, n_rows: int, d: int, name: str) -> np.ndarray:
    """The ';'-separated rows of finite numbers in ``value``: n_rows of d each."""
    rows = [[float(t) for t in r.split()] for r in value.split(";")]
    if len(rows) != n_rows or any(len(r) != d for r in rows):
        raise ValueError(f"{name} must hold {n_rows} row(s) of {d} numbers, separated by ';'")
    array = np.array(rows)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must hold finite numbers")
    return array


def _parse_share(value: str, name: str) -> float:
    """One finite nonnegative number: a component weight or a class prior."""
    share = float(value)
    if not (np.isfinite(share) and share >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {share}")
    return share


def _parse_theta(value: str) -> float:
    """The known-class fraction, refused outside (0, 1] as ``check_theta`` does."""
    theta = float(value)
    check_theta(theta)
    return theta


def _parse_covariance(value: str, d: int, key: str) -> np.ndarray:
    """The d x d covariance matrix in ``value``, refused naming its spec
    ``key`` when it is not symmetric or not positive definite."""
    cov = _parse_rows(value, d, d, "covariance")
    _covariance_factor(cov, key)
    return cov


# every key of the spec format; ids are spelled as str writes them, so that
# no two keys name one entry
_SPEC_KEY = re.compile(r"dimension|theta|seed|class\.(0|[1-9]\d*)\.prior"
                       r"|(class\.(0|[1-9]\d*)|new)\.component\.(0|[1-9]\d*)\.(weight|mean|cov)")


def parse_synthetic_spec(text: str, path="<string>") -> SyntheticSpec:
    """Parse the key-value synthetic-spec format (see format_synthetic_spec)
    from the text of the file at ``path``.

    A malformed spec raises ValueError naming ``path:line`` of a line that
    does not parse, holds a non-finite mean or covariance entry, a weight
    or prior that is not finite and nonnegative or a theta outside (0, 1],
    or gives a covariance that is not symmetric or not positive definite
    (named by its key), of an unrecognised or repeated key, or of a
    component or class without a required key; a missing top-level key,
    or a mixture's weights or the priors that do not sum to 1, is named by
    ``path`` alone.
    """
    kv = _parse_kv_lines(path, text, _SPEC_KEY)
    classes, components = {}, {}  # class id -> first line; mixture -> {component id: first line}
    for key, (_, line) in kv.items():
        match = _SPEC_KEY.fullmatch(key)
        if match[1] or match[3]:
            classes.setdefault(int(match[1] or match[3]), line)
        if match[2]:
            components.setdefault(match[2], {}).setdefault(int(match[4]), line)
    d = _kv_value(path, kv, "dimension", int)
    theta = _kv_value(path, kv, "theta", _parse_theta)
    seed = _kv_value(path, kv, "seed", int, default="0")

    def build_mixture(name: str) -> GaussianMixture:
        if name not in components:
            raise ValueError(f"{path}: no components given for {name!r}")
        fields = [(f"{name}.component.{j}.", line) for j, line in sorted(components[name].items())]
        weights = [_kv_value(path, kv, key + "weight", lambda v: _parse_share(v, "weight"),
                             default="1.0") for key, _ in fields]
        means = [_kv_value(path, kv, key + "mean", lambda v: _parse_rows(v, 1, d, "mean")[0],
                           line=line) for key, line in fields]
        covs = [_kv_value(path, kv, key + "cov", lambda v: _parse_covariance(v, d, key + "cov"),
                          line=line) for key, line in fields]
        try:
            return GaussianMixture(np.array(weights), np.array(means), np.array(covs))
        except ValueError as exc:
            raise ValueError(f"{path}: {name}: {exc}") from None

    priors = np.array([_kv_value(path, kv, f"class.{c}.prior",
                                 lambda v: _parse_share(v, "prior"), line=classes[c])
                       for c in sorted(classes)])
    mixtures = tuple(build_mixture(f"class.{c}") for c in sorted(classes))
    new_mixture = build_mixture("new")
    try:
        return SyntheticSpec(priors, mixtures, new_mixture, theta, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_synthetic_spec(spec: SyntheticSpec) -> str:
    """Render a SyntheticSpec in the key-value text format."""
    lines = [f"dimension = {spec.dimension}", f"theta = {spec.theta!r}", f"seed = {spec.seed}"]

    def emit(prefix: str, gm: GaussianMixture):
        for j in range(len(gm.weights)):
            lines.append(f"{prefix}.component.{j + 1}.weight = {float(gm.weights[j])!r}")
            lines.append(f"{prefix}.component.{j + 1}.mean = "
                         + " ".join(repr(float(v)) for v in gm.means[j]))
            rows = " ; ".join(" ".join(repr(float(v)) for v in row) for row in gm.covariances[j])
            lines.append(f"{prefix}.component.{j + 1}.cov = {rows}")

    for c, (prior, gm) in enumerate(zip(spec.class_priors, spec.class_mixtures), start=1):
        lines.append(f"class.{c}.prior = {float(prior)!r}")
        emit(f"class.{c}", gm)
    emit("new", spec.new_mixture)
    return "\n".join(lines) + "\n"
