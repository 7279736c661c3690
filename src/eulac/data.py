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
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def _remap_labels(raw: list[int], nc_label: int | None) -> tuple[np.ndarray, int, dict[int, int]]:
    known_ids = sorted({r for r in raw if r != nc_label})
    if not known_ids:
        raise ValueError("file contains no known-class labels")
    table = {orig: i + 1 for i, orig in enumerate(known_ids)}
    K = len(known_ids)
    y = np.array([table.get(r, K + 1) for r in raw], dtype=np.int64)  # nc_label is not in table
    return y, K, table


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
    """
    raw_labels: list[int] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label_f = float(parts[0])
                label = int(label_f)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: invalid label {parts[0]!r}") from exc
            if label != label_f:
                raise ValueError(f"{path}:{line_no}: non-integer label {parts[0]!r}")
            feats: dict[int, float] = {}
            prev = 0
            for tok in parts[1:]:
                if ":" not in tok:
                    raise ValueError(f"{path}:{line_no}: invalid token {tok!r}")
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: invalid token {tok!r}") from exc
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{line_no}: indices must be 1-based and strictly increasing"
                    )
                prev = idx
                feats[idx] = val
            max_index = max(max_index, prev)
            raw_labels.append(label)
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: empty file")
    if max_index == 0:
        raise ValueError(f"{path}: no features found")
    X = np.zeros((len(rows), max_index))
    for i, feats in enumerate(rows):
        for idx, val in feats.items():
            X[i, idx - 1] = val
    if num_known_classes is not None:
        K = int(num_known_classes)
        bad = sorted({r for r in raw_labels if r != nc_label and not 1 <= r <= K})
        if bad:
            raise ValueError(f"{path}: labels {bad} outside the expected range 1..{K}")
        y = np.array([K + 1 if r == nc_label else r for r in raw_labels], dtype=np.int64)
        return LabeledDataset(X, y, K)
    y, K, table = _remap_labels(raw_labels, nc_label)
    return LabeledDataset(X, y, K, label_map=table)


def load_features_csv(path) -> UnlabeledDataset:
    """Read a features-only numeric CSV without header."""
    feats: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(f"{path}:{line_no}: ragged row ({len(cells)} cells, expected {width})")
            try:
                feats.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: non-numeric cell") from exc
    if not feats:
        raise ValueError(f"{path}: empty file")
    return UnlabeledDataset(np.array(feats))


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
    seed: int = 0

    def __post_init__(self):
        known = frozenset(int(c) for c in self.known_labels)
        new = frozenset(int(c) for c in self.new_labels)
        if not known:
            raise ValueError("need at least one known class")
        if known & new:
            raise ValueError(f"known and new label sets overlap: {sorted(known & new)}")
        object.__setattr__(self, "known_labels", known)
        object.__setattr__(self, "new_labels", new)


def random_class_configuration(class_ids, seed: int, num_new: int | None = None) -> ClassConfiguration:
    """Choose novel classes at random; by default half of all classes."""
    ids = sorted(int(c) for c in class_ids)
    if num_new is None:
        num_new = len(ids) // 2
    if num_new >= len(ids):
        raise ValueError("at least one class must stay known")
    rng = np.random.default_rng(seed)
    new = rng.choice(ids, size=num_new, replace=False) if num_new else np.array([], dtype=int)
    new_set = frozenset(int(c) for c in new)
    return ClassConfiguration(frozenset(ids) - new_set, new_set, seed=seed)


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
        if not 0.0 <= novel_fraction < 1.0:
            raise ValueError("novel fraction must lie in [0, 1)")
        proportions = np.zeros(len(pool_classes))
        known_part = pool_sizes[:K] / pool_sizes[:K].sum()
        proportions[:K] = (1.0 - novel_fraction) * known_part
        if config.new_labels:
            new_part = pool_sizes[K:] / pool_sizes[K:].sum()
            proportions[K:] = novel_fraction * new_part
        elif novel_fraction > 0:
            raise ValueError("cannot force a novel fraction without new classes")

    used = set(int(i) for i in labeled_idx)

    def draw_stratified(count: int) -> np.ndarray:
        per_class = _largest_remainder_counts(proportions, count)
        chosen: list[np.ndarray] = []
        for c, want in zip(pool_classes, per_class):
            if want == 0:
                continue
            avail = np.array([i for i in pool_idx[c] if int(i) not in used], dtype=int)
            if len(avail) >= want:
                take = rng.choice(avail, size=want, replace=False)
            else:
                # dataset too small for disjoint splits: reuse earlier rows
                extra = rng.choice(pool_idx[c], size=want - len(avail), replace=True)
                take = np.concatenate([avail, extra])
            used.update(int(i) for i in take)
            chosen.append(take)
        return np.concatenate(chosen) if chosen else np.array([], dtype=int)

    unlabeled_idx = draw_stratified(n_unlabeled)
    test_idx = draw_stratified(n_test)

    def relabel(idx: np.ndarray) -> np.ndarray:
        return np.array(
            [remap.get(int(full.y[i]), K + 1) for i in idx], dtype=np.int64
        )

    labeled = LabeledDataset(full.X[labeled_idx], relabel(labeled_idx), K, label_map=remap)
    unlabeled = UnlabeledDataset(full.X[unlabeled_idx])
    test = LabeledDataset(full.X[test_idx], relabel(test_idx), K, label_map=remap)
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
            if not np.allclose(cov[j], cov[j].T, atol=1e-12):
                raise ValueError(f"covariance {j} is not symmetric")
            try:
                chols[j] = cholesky(cov[j], lower=True)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"covariance {j} is not positive definite") from exc
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
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
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
    labels, means, chols, probs = [], [], [], []
    for c, (prior, gm) in enumerate(zip(spec.class_priors, spec.class_mixtures), start=1):
        scale = spec.theta * prior if include_new else prior
        for j in range(len(gm.weights)):
            labels.append(c)
            means.append(gm.means[j])
            chols.append(gm._chols[j])
            probs.append(scale * gm.weights[j])
    if include_new:
        gm = spec.new_mixture
        for j in range(len(gm.weights)):
            labels.append(spec.num_known_classes + 1)
            means.append(gm.means[j])
            chols.append(gm._chols[j])
            probs.append((1.0 - spec.theta) * gm.weights[j])
    return (np.array(labels), np.array(means), np.array(chols), np.array(probs))


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
# exact finite-support distributions (oracle for the risk identities)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """Exact finite-support joint distribution satisfying the class-shift split.

    Rows with a known label carry total mass theta (the known-class part);
    rows with the sentinel label carry mass 1 - theta.
    """

    points: np.ndarray
    labels: np.ndarray
    probabilities: np.ndarray
    theta: float
    num_known_classes: int

    def __post_init__(self):
        pts = _validate_features(self.points)
        y = np.asarray(self.labels, dtype=np.int64)
        p = np.asarray(self.probabilities, dtype=float)
        K = int(self.num_known_classes)
        if y.shape != (pts.shape[0],) or p.shape != (pts.shape[0],):
            raise ValueError("labels/probabilities must align with points")
        if K < 1 or np.any(y < 1) or np.any(y > K + 1):
            raise ValueError(f"labels must lie in 1..{K + 1}")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        known_mass = float(p[y <= K].sum())
        if abs(known_mass - self.theta) > 1e-9:
            raise ValueError(
                f"class-shift decomposition violated: known mass {known_mass} != theta {self.theta}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "num_known_classes", K)

    @property
    def novel_label(self) -> int:
        return self.num_known_classes + 1

    @property
    def known_mask(self) -> np.ndarray:
        return self.labels <= self.num_known_classes

    def sample_train(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Row indices drawn from the known-class conditional (the training law)."""
        known = np.flatnonzero(self.known_mask)
        p = self.probabilities[known] / self.theta
        return known[rng.choice(len(known), size=size, p=p / p.sum())]

    def sample_test(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Row indices drawn from the full testing law."""
        return rng.choice(len(self.labels), size=size, p=self.probabilities)


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
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")

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


def _parse_kv_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_class_configuration(text: str) -> ClassConfiguration:
    kv = _parse_kv_lines(text)
    try:
        known = frozenset(int(t) for t in kv["known_labels"].split())
        new = frozenset(int(t) for t in kv.get("new_labels", "").split())
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from exc
    return ClassConfiguration(known, new, seed=int(kv.get("seed", "0")))


def _parse_matrix(value: str, d: int) -> np.ndarray:
    rows = [r.strip() for r in value.split(";")]
    mat = np.array([[float(t) for t in r.split()] for r in rows])
    if mat.shape != (d, d):
        raise ValueError(f"covariance must be {d}x{d}, got {mat.shape}")
    return mat


def parse_synthetic_spec(text: str) -> SyntheticSpec:
    """Parse the key-value synthetic-spec format (see format_synthetic_spec)."""
    kv = _parse_kv_lines(text)
    try:
        d = int(kv.pop("dimension"))
        theta = float(kv.pop("theta"))
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from exc
    seed = int(kv.pop("seed", "0"))

    groups: dict[str, dict[int, dict[str, str]]] = {}
    priors: dict[int, float] = {}
    for key, value in kv.items():
        parts = key.split(".")
        if parts[0] == "class" and parts[-1] == "prior" and len(parts) == 3:
            priors[int(parts[1])] = float(value)
            continue
        if parts[0] == "class" and len(parts) == 5 and parts[2] == "component":
            name, comp, field_name = f"class.{int(parts[1])}", int(parts[3]), parts[4]
        elif parts[0] == "new" and len(parts) == 4 and parts[1] == "component":
            name, comp, field_name = "new", int(parts[2]), parts[3]
        else:
            raise ValueError(f"unrecognised key {key!r}")
        groups.setdefault(name, {}).setdefault(comp, {})[field_name] = value

    def build_mixture(name: str) -> GaussianMixture:
        comps = groups.get(name)
        if not comps:
            raise ValueError(f"no components given for {name!r}")
        weights, means, covs = [], [], []
        for comp_id in sorted(comps):
            fields = comps[comp_id]
            weights.append(float(fields.get("weight", "1.0")))
            means.append([float(t) for t in fields["mean"].split()])
            covs.append(_parse_matrix(fields["cov"], d))
        return GaussianMixture(np.array(weights), np.array(means), np.array(covs))

    class_ids = sorted(priors)
    if not class_ids:
        raise ValueError("spec declares no known classes")
    mixtures = tuple(build_mixture(f"class.{c}") for c in class_ids)
    prior_vec = np.array([priors[c] for c in class_ids])
    return SyntheticSpec(prior_vec, mixtures, build_mixture("new"), theta, seed=seed)


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
