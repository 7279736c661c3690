"""Evaluation metrics, the rejecting one-versus-rest baseline, and the
benchmark harnesses (unlabeled-data scaling, novel-ratio sweep, and the
excess-risk transfer check for the square loss)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import (
    LabeledDataset,
    SyntheticSpec,
    bayes_risk_from_joints,
    check_count,
    check_known_only,
    check_ratios,
    json_text,
    posterior_grid,
    sample_synthetic,
    sample_test_set,
    split_class_configuration,
    stratified_folds,
)
from .kernel import DEFAULT_SIGMA_MULTIPLIERS, KernelSpec, gram, median_heuristic
from .losses import SQUARE
from .modelsel import HyperGrid, fit_with_selection
from .risk import (
    TheoryParams,
    empirical_lac_risk,
    generalization_bound,
    marginal_row_loss,
    optimal_square_risk_from_joints,
    tabulate_scores,
    zero_one_risk,
)
from .solver import DualModel, predict_labels, predict_scores

DEFAULT_SCALING_SIZES = (250, 500, 750, 1000, 1250, 1500)
DEFAULT_SWEEP_RATIOS = (0.0, 0.2, 0.6, 0.8)
EXCESS_RISK_GRID_RESOLUTION = 300  # quadrature points per axis of the surrogate risks
EXCESS_RISK_TEST_SIZE = 20000  # Monte-Carlo sample of the 0-1 risk


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with truth on rows and prediction on columns; last index = novel."""

    counts: np.ndarray
    num_known_classes: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        K1 = self.num_known_classes + 1
        if c.shape != (K1, K1) or np.any(c < 0):
            raise ValueError(f"counts must be a nonnegative {K1}x{K1} matrix")
        object.__setattr__(self, "counts", c)

    @staticmethod
    def from_labels(truths, predictions, num_known_classes: int) -> "ConfusionMatrix":
        t = np.asarray(truths, dtype=np.int64)
        p = np.asarray(predictions, dtype=np.int64)
        if t.shape != p.shape:
            raise ValueError("truth/prediction length mismatch")
        K1 = num_known_classes + 1
        if np.any(t < 1) or np.any(t > K1) or np.any(p < 1) or np.any(p > K1):
            raise ValueError(f"labels must lie in 1..{K1}")
        counts = np.zeros((K1, K1), dtype=np.int64)
        np.add.at(counts, (t - 1, p - 1), 1)
        return ConfusionMatrix(counts, num_known_classes)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over all classes including the novel one.

    A class with zero truth rows and zero predicted columns is left out of
    the mean; any other zero denominator yields F1 = 0 for that class.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    counts = cm.counts
    scores = []
    for k in range(counts.shape[0]):
        truth = counts[k, :].sum()
        pred = counts[:, k].sum()
        if truth == 0 and pred == 0:
            continue
        tp = counts[k, k]
        denom = truth + pred  # 2PR/(P+R) == 2 tp / (truth + pred)
        scores.append(2.0 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# rejecting one-versus-rest baseline (labeled data only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RejectingOvrModel:
    """Square-loss kernel one-versus-rest scorers fit on labeled data alone.

    Predicts the novel class only when every known-class score is strictly
    negative; a query whose scores all vanish (far from the support) is
    assigned the argmax known class.
    """

    support_points: np.ndarray
    alpha: np.ndarray
    kernel: KernelSpec
    num_known_classes: int

    def scores(self, queries) -> np.ndarray:
        return predict_scores(self, queries)

    def predict(self, queries) -> np.ndarray:
        s = self.scores(queries)
        labels = np.argmax(s, axis=1).astype(np.int64) + 1
        labels[np.max(s, axis=1) < 0.0] = self.num_known_classes + 1
        return labels


def ovr_reject_baseline(
    labeled: LabeledDataset, kernel: KernelSpec, lam: float
) -> RejectingOvrModel:
    """Fit the baseline: one regularized kernel scorer per known class."""
    check_known_only(labeled)
    n = len(labeled)
    K = labeled.num_known_classes
    G = gram(kernel, labeled.X, labeled.X)
    targets = np.where(labeled.y[:, None] == np.arange(1, K + 1)[None, :], 1.0, -1.0)
    # square loss (1 - y f)^2 / 4 plus lam ||f||^2 gives (G + 4 n lam I) a = y
    system = G + (4.0 * n * lam + 1e-10) * np.eye(n)
    alpha = cho_solve(cho_factor(system, lower=True), targets)
    return RejectingOvrModel(labeled.X.copy(), alpha, kernel, K)


def select_baseline_bandwidth(
    labeled: LabeledDataset,
    lam: float = 1.0,
    multipliers: tuple[float, ...] = DEFAULT_SIGMA_MULTIPLIERS,
    folds: int = 5,
    seed: int = 0,
) -> KernelSpec:
    """Labeled-only bandwidth selection for the baseline (accuracy criterion).

    Mirrors the candidate grid used for the main method but applies it to
    the labeled-median distance, since the baseline never sees unlabeled
    data.
    """
    median = median_heuristic(labeled.X)
    fold_of = stratified_folds(labeled.y, folds, np.random.default_rng(seed))
    best = None
    for mult in multipliers:
        kernel = KernelSpec(mult * median)
        hits = 0
        for f in range(folds):
            tr = np.flatnonzero(fold_of != f)
            va = np.flatnonzero(fold_of == f)
            sub = LabeledDataset(labeled.X[tr], labeled.y[tr], labeled.num_known_classes)
            model = ovr_reject_baseline(sub, kernel, lam)
            scores = model.scores(labeled.X[va])
            pred = np.argmax(scores, axis=1) + 1  # known-class accuracy only
            hits += int(np.sum(pred == labeled.y[va]))
        acc = hits / len(labeled)
        if best is None or acc > best[0] or (acc == best[0] and kernel.sigma > best[1].sigma):
            best = (acc, kernel)
    return best[1]


# ---------------------------------------------------------------------------
# experiment reports
# ---------------------------------------------------------------------------


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of the positions they span."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


@dataclass(frozen=True)
class ExperimentReport:
    """Per-run metrics plus aggregates recomputable from them."""

    config: dict
    runs: tuple[dict, ...]

    def aggregate(self, metric: str) -> list[dict]:
        keys = sorted({run["x"] for run in self.runs})
        rows = []
        for key in keys:
            vals = np.array([run[metric] for run in self.runs if run["x"] == key])
            rows.append({
                "x": key,
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=0)),
                "n": int(len(vals)),
            })
        return rows

    def spearman(self, metric: str) -> float | None:
        rows = self.aggregate(metric)
        if len(rows) < 2:
            return None
        x_ranks = _average_ranks([r["x"] for r in rows])
        mean_ranks = _average_ranks([r["mean"] for r in rows])
        # corrcoef can land one ulp inside +-1 (at 2 or 5 sizes, say)
        if np.array_equal(mean_ranks, x_ranks):
            return 1.0
        if np.array_equal(mean_ranks, len(rows) + 1 - x_ranks):
            return -1.0
        ranks = np.column_stack([x_ranks, mean_ranks])
        with np.errstate(divide="ignore", invalid="ignore"):  # constant input gives NaN
            return float(np.corrcoef(ranks, rowvar=False)[1, 0])

    def to_json(self) -> str:
        metric = self.config.get("primary_metric", "macro_f1")
        payload = {
            "config": self.config,
            "runs": list(self.runs),
            "aggregates": {metric: self.aggregate(metric)},
        }
        if self.config.get("command") == "scaling":
            payload["spearman"] = self.spearman(metric)
        return json_text(payload)

    def to_csv(self, metric: str) -> str:
        lines = ["x,mean,std,n"]
        for row in self.aggregate(metric):
            lines.append(f"{row['x']},{row['mean']!r},{row['std']!r},{row['n']}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benchmark harnesses
# ---------------------------------------------------------------------------


def check_sizes(name: str, sizes) -> None:
    """Refuse no unlabeled sizes, or sizes that are not strictly increasing
    from at least 1."""
    check_count(f"the number of {name}", len(sizes))
    if list(sizes) != sorted(set(sizes)) or min(sizes) < 1:
        raise ValueError(f"{name} must be strictly increasing and at least 1, got {list(sizes)}")


def _make_task(source, n_labeled, n_unlabeled, n_test, seed, novel_ratio=None):
    """Concrete (labeled, unlabeled, test, true theta) for one run."""
    for name, count in (("n_labeled", n_labeled), ("n_unlabeled", n_unlabeled),
                        ("n_test", n_test)):
        check_count(name, count)
    if isinstance(source, SyntheticSpec):
        spec = dataclasses.replace(source, seed=seed)
        if novel_ratio is not None:  # SyntheticSpec rejects a ratio of 1
            spec = dataclasses.replace(spec, theta=1.0 - novel_ratio)
        labeled, unlabeled, test = sample_synthetic(spec, n_labeled, n_unlabeled, n_test)
        return labeled, unlabeled, test, spec.theta
    full, config = source
    labeled, unlabeled, test = split_class_configuration(
        full, config, n_labeled, n_unlabeled, n_test, seed, novel_fraction=novel_ratio
    )
    if novel_ratio is not None:
        theta = 1.0 - novel_ratio
    else:
        pool = np.isin(full.y, sorted(config.known_labels | config.new_labels))
        known = np.isin(full.y, sorted(config.known_labels))
        theta = float(known.sum() / pool.sum())
    return labeled, unlabeled, test, theta


def _fit_and_evaluate(labeled, unlabeled, test, theta, grid, seed) -> dict:
    """Fit with selection at the given theta and score the test set."""
    model, _ = fit_with_selection(labeled, unlabeled, theta, grid, seed)
    pred = model.predict(test.X)
    cm = ConfusionMatrix.from_labels(test.y, pred, test.num_known_classes)
    return {
        "accuracy": cm.accuracy,
        "macro_f1": macro_f1(cm),
        "zero_one_risk": zero_one_risk(pred, test.y),
        "lac_risk": empirical_lac_risk(model.scores, labeled, unlabeled, theta, grid.loss_kind),
    }


def run_unlabeled_scaling(
    source,
    sizes: tuple[int, ...] = DEFAULT_SCALING_SIZES,
    seeds: tuple[int, ...] = tuple(range(10)),
    n_labeled: int = 500,
    n_test: int = 1000,
    grid: HyperGrid | None = None,
    theta: float | None = None,
) -> ExperimentReport:
    """Refit with growing unlabeled sets and track held-out performance.

    Every run fits with ``theta`` when it is given, and with the task's true
    mixture fraction otherwise.
    """
    check_sizes("sizes", sizes)
    check_count("the number of seeds", len(seeds))
    grid = grid or HyperGrid()
    runs = []
    for size in sizes:
        for seed in seeds:
            labeled, unlabeled, test, true_theta = _make_task(
                source, n_labeled, size, n_test, seed
            )
            run_theta = float(true_theta if theta is None else theta)
            entry = {"x": size, "seed": seed, "theta": run_theta}
            entry.update(_fit_and_evaluate(labeled, unlabeled, test, run_theta, grid, seed))
            # uniform deviation bound at unit norm/kernel/loss constants,
            # recording how the guaranteed estimation gap shrinks with size
            entry["deviation_bound"] = generalization_bound(TheoryParams(
                norm_bound=1.0, kernel_bound=1.0, lipschitz=1.0, loss_sup=1.0,
                delta=0.05, theta=run_theta,
                num_known_classes=labeled.num_known_classes,
                n_labeled=n_labeled, n_unlabeled=size,
            ))
            runs.append(entry)
    config = {
        "command": "scaling",
        "sizes": list(sizes),
        "seeds": list(seeds),
        "n_labeled": n_labeled,
        "n_test": n_test,
        "loss": grid.loss_kind,
        "primary_metric": "macro_f1",
    }
    return ExperimentReport(config, tuple(runs))


def run_theta_sweep(
    source,
    ratios: tuple[float, ...] = DEFAULT_SWEEP_RATIOS,
    seeds: tuple[int, ...] = tuple(range(10)),
    n_labeled: int = 500,
    n_unlabeled: int = 1000,
    n_test: int = 1000,
    grid: HyperGrid | None = None,
) -> ExperimentReport:
    """Vary the novel-class share of the testing distribution.

    Each ratio r corresponds to a known-class fraction of 1 - r, supplied
    to the fit directly (the sweep assumes the fraction is known).
    """
    check_ratios("ratios", ratios)
    check_count("the number of seeds", len(seeds))
    grid = grid or HyperGrid()
    runs = []
    for ratio in ratios:
        for seed in seeds:
            labeled, unlabeled, test, theta = _make_task(
                source, n_labeled, n_unlabeled, n_test, seed, novel_ratio=ratio
            )
            entry = {"x": ratio, "seed": seed, "theta": theta}
            entry.update(_fit_and_evaluate(labeled, unlabeled, test, theta, grid, seed))
            runs.append(entry)
    config = {
        "command": "theta-sweep",
        "ratios": list(ratios),
        "seeds": list(seeds),
        "n_labeled": n_labeled,
        "n_unlabeled": n_unlabeled,
        "n_test": n_test,
        "loss": grid.loss_kind,
        "primary_metric": "macro_f1",
    }
    return ExperimentReport(config, tuple(runs))


# ---------------------------------------------------------------------------
# excess-risk transfer check (square loss)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcessRiskCheck:
    """lhs = observed 0-1 excess risk; rhs = sqrt(2 x surrogate excess risk)."""

    lhs: float
    rhs: float
    monte_carlo_se: float
    bayes_risk: float
    test_risk: float
    lac_risk: float
    optimal_lac_risk: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.monte_carlo_se


def run_excess_risk_check(spec: SyntheticSpec, score_fn, seed: int = 0) -> ExcessRiskCheck:
    """Check that the square-loss surrogate excess bounds the 0-1 excess.

    score_fn is a fitted model or any score function set (see
    ``risk.tabulate_scores``).  Both surrogate risks are computed by
    quadrature; the 0-1 risk comes from a Monte-Carlo test sample, so the
    comparison allows three standard errors of slack.
    """
    if isinstance(score_fn, DualModel):
        if score_fn.loss_kind != SQUARE:
            raise ValueError("the transfer inequality is established for the square loss")
        score_fn = score_fn.scores

    points, volume, joints = posterior_grid(spec, EXCESS_RISK_GRID_RESOLUTION)
    K = spec.num_known_classes
    p_te = joints.sum(axis=0)

    bayes = bayes_risk_from_joints(volume, joints)

    scores = tabulate_scores(score_fn, points, K)
    gaps = scores[:, K][None, :] - scores[:, :K].T            # (K, m)
    labeled_term = volume * float(np.sum(joints[:K] * gaps))
    lac_risk = labeled_term + volume * float(np.sum(p_te * marginal_row_loss(scores, SQUARE)))

    optimal = volume * optimal_square_risk_from_joints(joints)

    rhs = float(np.sqrt(2.0 * max(lac_risk - optimal, 0.0)))

    test = sample_test_set(spec, EXCESS_RISK_TEST_SIZE, seed)
    pred = predict_labels(tabulate_scores(score_fn, test.X, K))
    test_risk = zero_one_risk(pred, test.y)
    se = float(np.sqrt(test_risk * (1.0 - test_risk) / EXCESS_RISK_TEST_SIZE))
    lhs = test_risk - bayes

    return ExcessRiskCheck(lhs, rhs, se, bayes, test_risk, lac_risk, optimal)


def run_excess_risk_seeds(spec: SyntheticSpec, seeds, n_labeled: int, n_unlabeled: int,
                          grid: HyperGrid, theta: float | None):
    """Yield (seed, check) for one model per seed, fit on the spec's draws
    with ``theta`` when it is given and the spec's fraction otherwise."""
    check_count("the number of seeds", len(seeds))
    for seed in seeds:
        # the task's test draw goes unused: the check samples its own
        labeled, unlabeled, _, spec_theta = _make_task(spec, n_labeled, n_unlabeled, 1, seed)
        model, _ = fit_with_selection(labeled, unlabeled,
                                      spec_theta if theta is None else theta, grid, seed)
        yield seed, run_excess_risk_check(spec, model, seed=seed)
