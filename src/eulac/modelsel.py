"""Hyperparameter selection by k-fold cross-validation on the unbiased risk.

Because the validation criterion is the same estimator the solver
minimises (without its regulariser), the selected cell targets the
testing-distribution risk directly; no labeled-only proxy is involved.
Both the labeled and the unlabeled sets are folded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, kfold_indices
from .kernel import DEFAULT_SIGMA_MULTIPLIERS, KernelSpec, gram, median_heuristic
from .losses import SQUARE, canonical_loss_kind
from .risk import lac_risk_from_scores
from .solver import (
    DualModel,
    FitOptions,
    _first_order_alpha,
    _square_loss_alpha,
    fit_first_order,
    fit_square_closed_form,
)

DEFAULT_LAMBDAS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)


@dataclass(frozen=True)
class HyperGrid:
    """Candidate bandwidth multipliers and regularization weights."""

    sigma_multipliers: tuple[float, ...] = DEFAULT_SIGMA_MULTIPLIERS
    lambda_candidates: tuple[float, ...] = DEFAULT_LAMBDAS
    loss_kind: str = SQUARE
    folds: int = 5

    def __post_init__(self):
        if not self.sigma_multipliers or not self.lambda_candidates:
            raise ValueError("grids must be nonempty")
        if any(m <= 0 for m in self.sigma_multipliers) or any(l <= 0 for l in self.lambda_candidates):
            raise ValueError("grid values must be positive")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        object.__setattr__(self, "sigma_multipliers", tuple(float(m) for m in self.sigma_multipliers))
        object.__setattr__(self, "lambda_candidates", tuple(float(l) for l in self.lambda_candidates))
        object.__setattr__(self, "loss_kind", canonical_loss_kind(self.loss_kind))


@dataclass(frozen=True)
class CvCell:
    sigma_multiplier: float
    sigma: float
    lam: float
    mean_risk: float
    stderr: float
    fold_risks: tuple[float, ...]


@dataclass(frozen=True)
class CvReport:
    cells: tuple[CvCell, ...]
    selected: CvCell
    folds: int
    loss_kind: str
    median_distance: float

    def to_json(self) -> str:
        payload = {
            "folds": self.folds,
            "loss": self.loss_kind,
            "median_distance": self.median_distance,
            "selected": {
                "sigma_multiplier": self.selected.sigma_multiplier,
                "sigma": self.selected.sigma,
                "lambda": self.selected.lam,
                "mean_risk": self.selected.mean_risk,
            },
            "cells": [
                {
                    "sigma_multiplier": c.sigma_multiplier,
                    "sigma": c.sigma,
                    "lambda": c.lam,
                    "mean_risk": c.mean_risk,
                    "stderr": c.stderr,
                    "fold_risks": list(c.fold_risks),
                }
                for c in self.cells
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _select(cells: list[CvCell]) -> CvCell:
    # minimal mean risk; ties prefer the stronger regulariser, then the
    # smoother kernel
    return sorted(cells, key=lambda c: (c.mean_risk, -c.lam, -c.sigma))[0]


def cross_validate(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    grid: HyperGrid,
    seed: int,
) -> CvReport:
    """Mean validation risk (no regulariser) for every grid cell.

    The bandwidth for each cell is multiplier x median pairwise distance of
    the pooled data.  For every sigma the pooled Gram matrix is built once;
    each fold's sub-Grams are sliced from it in turn and shared by all
    lambda candidates.
    """
    n_l = len(labeled)
    pooled = np.vstack([labeled.X, unlabeled.X])
    median = median_heuristic(pooled)
    folds = kfold_indices(labeled, unlabeled, grid.folds, seed)
    K = labeled.num_known_classes

    cells: list[CvCell] = []
    for mult in grid.sigma_multipliers:
        sigma = mult * median
        G = gram(KernelSpec(sigma), pooled, pooled)
        risks = [[] for _ in grid.lambda_candidates]
        for fold, (train_L, train_U, val_L, val_U) in enumerate(folds):
            sup = np.concatenate([train_L, n_l + train_U])
            val = np.concatenate([val_L, n_l + val_U])
            G_tt = G[np.ix_(sup, sup)]
            G_vt = G[np.ix_(val, sup)]
            y_tr = labeled.y[train_L]
            for lam, lam_risks in zip(grid.lambda_candidates, risks):
                try:
                    if grid.loss_kind == SQUARE:
                        alpha = _square_loss_alpha(G_tt, y_tr, K, len(train_L), len(train_U),
                                                   theta, lam)
                    else:
                        opts = FitOptions(lam=lam, max_iterations=2000, gradient_tolerance=1e-5)
                        alpha, _ = _first_order_alpha(G_tt, y_tr, K, len(train_L), len(train_U),
                                                      theta, opts, grid.loss_kind)
                except Exception as exc:
                    raise RuntimeError(
                        f"fit failed at sigma_multiplier={mult}, lambda={lam}, fold={fold}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                scores_val = G_vt @ alpha
                lam_risks.append(lac_risk_from_scores(
                    scores_val[:len(val_L)], labeled.y[val_L], scores_val[len(val_L):],
                    theta, grid.loss_kind
                ))
        for lam, lam_risks in zip(grid.lambda_candidates, risks):
            risks_arr = np.array(lam_risks)
            stderr = float(risks_arr.std(ddof=1) / np.sqrt(len(risks_arr))) if len(risks_arr) > 1 else 0.0
            cells.append(CvCell(mult, sigma, lam, float(risks_arr.mean()), stderr, tuple(lam_risks)))

    return CvReport(tuple(cells), _select(cells), grid.folds, grid.loss_kind, median)


def fit_with_selection(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    grid: HyperGrid,
    seed: int,
) -> tuple[DualModel, CvReport]:
    """Cross-validate, then refit on all data at the selected cell."""
    report = cross_validate(labeled, unlabeled, theta, grid, seed)
    kernel = KernelSpec(report.selected.sigma)
    lam = report.selected.lam
    if grid.loss_kind == SQUARE:
        model = fit_square_closed_form(labeled, unlabeled, kernel, theta, lam)
    else:
        model = fit_first_order(labeled, unlabeled, kernel, theta,
                                FitOptions(lam=lam), grid.loss_kind)
    return model, report
