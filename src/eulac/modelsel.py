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
    _square_loss_fold_scores,
    _unlabeled_operator,
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


def _fit_failure(mult: float, lams, fold: int | None, exc: Exception) -> RuntimeError:
    """Name the failed cell and the failed cross-validation fold, or, with
    no fold, the refit; one square-loss run serves, and names, every lambda."""
    cell = f"sigma_multiplier={mult}, lambda={'/'.join(str(lam) for lam in lams)}"
    where = "refit" if fold is None else f"fold={fold}"
    return RuntimeError(f"fit failed at {cell}, {where}: {type(exc).__name__}: {exc}")


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
    the pooled data; pass ``median`` when it is already known.  Square loss
    solves every fold and lambda of a sigma from one shifted-Lanczos run on
    the unlabeled block G_UU, gathering no fold block.  The run takes the
    form of G_UU that ``solver._unlabeled_operator`` chooses for the
    smallest training fold and lambda, the sparse block, a pivoted-Cholesky
    factor or the dense block (see there), which the refit chooses again
    for all rows.  On the bundled
    spec at 500/1000 the default grid's 0.01x, 0.1x, 1x and 10x take the
    sparse, dense, factor and factor forms.  The run returns
    each fold's validation scores at every lambda, read from the products
    it already took, so no dual coefficient is assembled.  Its Gram blocks
    are built inside ``_square_loss_fold_scores`` and dropped there one at
    a time, G_LL, G_LU, G_UU (on the dense form alone), then G_LU again for
    the labeled validation rows, so no labeled block is held beside G_UU;
    G_LU is computed twice per sigma.  Other losses build the
    pooled Gram once per sigma, because their folds read every block of it,
    and solve each (fold, lambda) on the fold's gathered training Gram with
    the refit's default ``FitOptions``, one L-BFGS-B run per score column,
    counting the folds that end unconverged in
    ``CvCell.nonconverged_folds``.  A first-order fold's dual coefficients
    for every lambda form one (n, L, K+1) block, zero outside the fold's
    training rows, so one product with the validation rows of the pooled
    Gram scores every lambda.
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
        spec = KernelSpec(sigma)
        # release the last bandwidth's arrays before its successor
        G = fold_scores = operator = None
        if square:
            # the run builds and drops its blocks one at a time
            _, operator = _unlabeled_operator(spec, pooled[n_l:],
                                              min(len(f[1]) for f in folds), min(lams))
            try:
                fold_scores = _square_loss_fold_scores(
                    lambda rows, cols: gram(spec, rows, cols), pooled[:n_l], pooled[n_l:],
                    labeled.y, K, theta,
                    [(train_L, train_U, val_L) for train_L, train_U, val_L, _ in folds], lams,
                    operator)
            except np.linalg.LinAlgError as exc:
                raise _fit_failure(mult, lams, exc.fold, exc) from exc
        else:
            G = gram(spec, pooled, pooled)
        risks = [[] for _ in lams]
        nonconverged = [0 for _ in lams]
        for fold, (train_L, train_U, val_L, val_U) in enumerate(folds):
            if square:
                scores = fold_scores[fold]
            else:
                sup = np.concatenate([train_L, n_l + train_U])
                G_tt = G[np.ix_(sup, sup)]
                coef = np.zeros((len(pooled), len(lams), K + 1))
                for i, lam in enumerate(lams):
                    try:
                        coef[sup, i], record = _first_order_alpha(
                            G_tt, labeled.y[train_L], K, theta, FitOptions(lam=lam),
                            grid.loss_kind)
                    except Exception as exc:
                        raise _fit_failure(mult, (lam,), fold, exc) from exc
                    nonconverged[i] += not record.converged
                del G_tt
                # one product scores every lambda: the validation rows are read once
                scores = (G.take(np.concatenate([val_L, n_l + val_U]), axis=0)
                          @ coef.reshape(len(pooled), -1)).reshape(-1, len(lams), K + 1)
            for i, lam_risks in enumerate(risks):
                lam_risks.append(lac_risk_from_scores(
                    scores[:len(val_L), i], labeled.y[val_L], scores[len(val_L):, i],
                    theta, grid.loss_kind
                ))
        for lam, lam_risks, missed in zip(lams, risks, nonconverged):
            risks_arr = np.array(lam_risks)
            stderr = float(risks_arr.std(ddof=1) / np.sqrt(len(risks_arr)))
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
    """Cross-validate, then refit on all data at the selected cell.  The
    square-loss refit chooses its form of G_UU anew for all n_u rows at the
    selected lambda (``fit_square_closed_form``).  A failed refit raises
    RuntimeError naming the selected sigma multiplier and lambda."""
    report = cross_validate(labeled, unlabeled, theta, grid, seed, median)
    kernel = KernelSpec(report.selected.sigma)
    lam = report.selected.lam
    try:
        if grid.loss_kind == SQUARE:
            model = fit_square_closed_form(labeled, unlabeled, kernel, theta, lam)
        else:
            model = fit_first_order(labeled, unlabeled, kernel, theta,
                                    FitOptions(lam=lam), grid.loss_kind)
    except Exception as exc:
        raise _fit_failure(report.selected.sigma_multiplier, (lam,), None, exc) from exc
    return model, report
