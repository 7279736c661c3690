"""Hyperparameter selection by k-fold cross-validation on the unbiased risk.

Because the validation criterion is the same estimator the solver
minimises (without its regulariser), the selected cell targets the
testing-distribution risk directly; no labeled-only proxy is involved.
Both the labeled and the unlabeled sets are folded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, json_text, kfold_indices, pooled_points
from .kernel import DEFAULT_SIGMA_MULTIPLIERS, KernelSpec, gram, median_heuristic
from .losses import SQUARE, canonical_loss_kind
from .risk import lac_risk_from_scores
from .solver import (
    DualModel,
    FitOptions,
    _first_order_alpha,
    _square_loss_fold_alphas,
    check_lambda,
    fit_first_order,
    fit_square_closed_form,
)

DEFAULT_LAMBDAS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)


@dataclass(frozen=True)
class HyperGrid:
    """Candidate bandwidth multipliers and regularization weights; each
    weight must pass ``solver.check_lambda``."""

    sigma_multipliers: tuple[float, ...] = DEFAULT_SIGMA_MULTIPLIERS
    lambda_candidates: tuple[float, ...] = DEFAULT_LAMBDAS
    loss_kind: str = SQUARE
    folds: int = 5

    def __post_init__(self):
        if not self.sigma_multipliers or not self.lambda_candidates:
            raise ValueError("grids must be nonempty")
        bad = [m for m in self.sigma_multipliers if not (math.isfinite(m) and m > 0)]
        if bad:
            raise ValueError(f"sigma multipliers must be positive and finite, got {bad}")
        for lam in self.lambda_candidates:
            check_lambda(lam)
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
    # folds whose first-order solve stopped short of its convergence
    # tolerance; kept out of the payload so the report's keys stay fixed
    nonconverged_folds: int = 0


@dataclass(frozen=True)
class CvReport:
    cells: tuple[CvCell, ...]
    selected: CvCell
    folds: int
    loss_kind: str
    median_distance: float

    def payload(self) -> dict:
        return {
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

    def to_json(self) -> str:
        return json_text(self.payload())


def _select(cells: list[CvCell]) -> CvCell:
    # minimal mean risk; ties prefer the stronger regulariser, then the
    # smoother kernel
    return sorted(cells, key=lambda c: (c.mean_risk, -c.lam, -c.sigma))[0]


def _fit_failure(mult: float, lams, fold: int, exc: Exception) -> RuntimeError:
    """Name the failed cell; one square-loss run serves, and names, every lambda."""
    lam_text = "/".join(str(lam) for lam in lams)
    return RuntimeError(f"fit failed at sigma_multiplier={mult}, lambda={lam_text}, fold={fold}: "
                        f"{type(exc).__name__}: {exc}")


def cross_validate(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    grid: HyperGrid,
    seed: int,
    median: float | None = None,
) -> CvReport:
    """Mean validation risk (no regulariser) for every grid cell.

    The bandwidth for each cell is multiplier x median pairwise distance of
    the pooled data; pass ``median`` when it is already known.  For every
    sigma the pooled Gram matrix is built once.  Square loss solves every
    fold and lambda of a sigma from one shifted-Lanczos run on the pooled
    Gram's unlabeled block, gathering no fold block; other losses solve
    each (fold, lambda) on the fold's gathered training Gram with the
    refit's default ``FitOptions``, one L-BFGS-B run per score column, and
    count the folds that end unconverged in ``CvCell.nonconverged_folds``.
    Validation scores multiply the validation rows of the pooled Gram by
    dual coefficients that are zero outside the fold's training rows.
    """
    n_l = len(labeled)
    pooled = pooled_points(labeled, unlabeled)
    if median is None:
        median = median_heuristic(pooled)
    folds = kfold_indices(labeled, unlabeled, grid.folds, seed)
    K = labeled.num_known_classes
    lams = grid.lambda_candidates
    square = grid.loss_kind == SQUARE

    cells: list[CvCell] = []
    for mult in grid.sigma_multipliers:
        sigma = mult * median
        G = fold_alphas = None  # release the last bandwidth's arrays before its successor
        G = gram(KernelSpec(sigma), pooled, pooled)
        if square:
            try:
                fold_alphas = _square_loss_fold_alphas(
                    G, n_l, labeled.y, K, theta,
                    [(train_L, train_U) for train_L, train_U, _, _ in folds], lams)
            except np.linalg.LinAlgError as exc:
                raise _fit_failure(mult, lams, exc.fold, exc) from exc
        risks = [[] for _ in lams]
        nonconverged = [0 for _ in lams]
        for fold, (train_L, train_U, val_L, val_U) in enumerate(folds):
            if square:
                alphas = fold_alphas[fold]
            else:
                sup = np.concatenate([train_L, n_l + train_U])
                G_tt = G[np.ix_(sup, sup)]
                alphas = []
                for i, lam in enumerate(lams):
                    try:
                        alpha_sup, record = _first_order_alpha(
                            G_tt, labeled.y[train_L], K, len(train_L), len(train_U), theta,
                            FitOptions(lam=lam), grid.loss_kind)
                    except Exception as exc:
                        raise _fit_failure(mult, (lam,), fold, exc) from exc
                    nonconverged[i] += not record.converged
                    alpha = np.zeros((len(pooled), K + 1))
                    alpha[sup] = alpha_sup
                    alphas.append(alpha)
                del G_tt
            # one product scores every lambda: the validation rows are read once
            scores = G.take(np.concatenate([val_L, n_l + val_U]), axis=0) @ np.hstack(alphas)
            for i, lam_risks in enumerate(risks):
                scores_val = scores[:, i * (K + 1):(i + 1) * (K + 1)]
                lam_risks.append(lac_risk_from_scores(
                    scores_val[:len(val_L)], labeled.y[val_L], scores_val[len(val_L):],
                    theta, grid.loss_kind
                ))
        for lam, lam_risks, missed in zip(lams, risks, nonconverged):
            risks_arr = np.array(lam_risks)
            stderr = float(risks_arr.std(ddof=1) / np.sqrt(len(risks_arr))) if len(risks_arr) > 1 else 0.0
            cells.append(CvCell(mult, sigma, lam, float(risks_arr.mean()), stderr,
                                tuple(lam_risks), missed))

    return CvReport(tuple(cells), _select(cells), grid.folds, grid.loss_kind, median)


def fit_with_selection(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    theta: float,
    grid: HyperGrid,
    seed: int,
    median: float | None = None,
) -> tuple[DualModel, CvReport]:
    """Cross-validate, then refit on all data at the selected cell."""
    report = cross_validate(labeled, unlabeled, theta, grid, seed, median)
    kernel = KernelSpec(report.selected.sigma)
    lam = report.selected.lam
    if grid.loss_kind == SQUARE:
        model = fit_square_closed_form(labeled, unlabeled, kernel, theta, lam)
    else:
        model = fit_first_order(labeled, unlabeled, kernel, theta,
                                FitOptions(lam=lam), grid.loss_kind)
    return model, report
