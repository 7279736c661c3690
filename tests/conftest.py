"""Shared generators for the test suite."""

from __future__ import annotations

import numpy as np

from eulac.data import GaussianMixture, LabeledDataset, SyntheticSpec, UnlabeledDataset

from oracles import FiniteDistribution


def random_finite_distribution(
    rng: np.random.Generator,
    max_atoms: int = 50,
    max_classes: int = 4,
    dim: int = 2,
    theta: float | None = None,
) -> FiniteDistribution:
    """Random finite-support joint distribution obeying the class-shift split."""
    K = int(rng.integers(1, max_classes + 1))
    n_known = int(rng.integers(K, max(max_atoms - 1, K) + 1))
    if theta is None:
        theta = float(rng.uniform(0.2, 1.0))
    n_new = 0 if theta >= 1.0 else int(rng.integers(1, max(max_atoms - n_known, 1) + 1))

    labels = np.concatenate([
        np.arange(1, K + 1),                                   # every class present
        rng.integers(1, K + 1, size=n_known - K),
        np.full(n_new, K + 1, dtype=int),
    ])
    points = rng.normal(size=(len(labels), dim))

    probs = np.empty(len(labels))
    known = rng.dirichlet(np.ones(n_known))
    probs[:n_known] = theta * known
    if n_new:
        probs[n_known:] = (1.0 - theta) * rng.dirichlet(np.ones(n_new))
    else:
        theta = 1.0
    return FiniteDistribution(points, labels, probs, theta, K)


def random_scores(rng: np.random.Generator, m: int, num_known: int, scale: float = 2.0):
    return scale * rng.normal(size=(m, num_known + 1))


def two_cluster_spec(theta: float, seed: int, new_mean=(0.0, 3.5)) -> SyntheticSpec:
    """Two unit-variance known classes on the x-axis plus one novel cluster."""
    gm1 = GaussianMixture([1.0], [[-2.0, 0.0]], [np.eye(2)])
    gm2 = GaussianMixture([1.0], [[2.0, 0.0]], [np.eye(2)])
    new = GaussianMixture([1.0], [list(new_mean)], [np.eye(2)])
    return SyntheticSpec([0.5, 0.5], (gm1, gm2), new, theta, seed=seed)


def small_train_data(seed: int, n_l: int = 25, n_u: int = 35, num_known: int = 2):
    """Quick labeled/unlabeled pair for solver-level tests."""
    rng = np.random.default_rng(seed)
    XL = rng.normal(size=(n_l, 2)) + np.where(rng.random(n_l)[:, None] < 0.5, 2.0, -2.0)
    y = rng.integers(1, num_known + 1, n_l)
    XU = rng.normal(size=(n_u, 2))
    return LabeledDataset(XL, y, num_known), UnlabeledDataset(XU)
