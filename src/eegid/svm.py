"""One-vs-rest RBF-kernel SVM trained by sequential minimal optimization.

The binary solver is a working-set SMO: at each step the maximal
KKT-violating pair is selected and solved analytically, until the maximal
violation drops below tolerance or the iteration cap is hit.  The full Gram
matrix of the training set is precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    SingleClassInput,
    TooFewClasses,
    TooFewRows,
)

KKT_TOL = 1e-3
MAX_SMO_ITER = 1_000_000
DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)
DEFAULT_GAMMA_GRID = (1.0, 0.1, 0.01, 0.001)
_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class SvmHyperparams:
    c: float
    gamma: float

    def __post_init__(self):
        if not self.c > 0 or not self.gamma > 0:
            raise ValueError("c and gamma must be positive")


def rbf_kernel(x, y, gamma) -> float:
    """exp(-gamma * ||x - y||^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    d = x - y
    return float(np.exp(-gamma * np.dot(d, d)))


def _rbf_cross(a: np.ndarray, b: np.ndarray, gamma) -> np.ndarray:
    """Kernel block K[i, j] = k(a_i, b_j), vectorized."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


# --- standardization --------------------------------------------------------


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray
    stds: np.ndarray  # floored at 1e-12; constant columns transform to 0

    @property
    def dimension(self):
        return self.means.shape[0]


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewRows("standardizer needs at least two rows")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    constant = stds < _STD_FLOOR
    # constant columns: mean snaps to the observed value and std to 1, so
    # (x - mean) / std is exactly zero on the training data
    means = np.where(constant, x[0], means)
    stds = np.where(constant, 1.0, stds)
    return Standardizer(means=means, stds=stds)


def apply_standardizer(s: Standardizer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != s.dimension:
        raise DimensionMismatch(
            f"feature dimension {x.shape[-1]} != fitted {s.dimension}"
        )
    return (x - s.means) / s.stds


# --- binary SMO -------------------------------------------------------------


@dataclass
class BinarySvmModel:
    """Binary decision function sum_i alpha_i y_i k(x_i, .) + bias."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for the support vectors
    bias: float
    params: SvmHyperparams
    converged: bool = True
    alphas: np.ndarray = field(default=None, repr=False)  # full-length, for audits

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatch(
                f"feature dimension {x.shape[1]} != model "
                f"{self.support_vectors.shape[1]}"
            )
        k = _rbf_cross(x, self.support_vectors, self.params.gamma)
        return k @ self.dual_coef + self.bias


def train_binary_smo(x, y, params: SvmHyperparams,
                     _kernel: np.ndarray = None) -> BinarySvmModel:
    """Solve the binary soft-margin dual by SMO.

    y must be -1/+1 with both classes present.  Stops at maximal KKT
    violation < 1e-3 or after 10^6 pair updates; the latter sets
    converged=False on the returned model instead of raising.  `_kernel`
    is the training Gram matrix when the caller already has it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 2 or y.shape != (n,):
        raise ValueError("x must be (n, d) and y length n with n >= 2")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassInput("training labels contain a single class")
    if not np.all(np.abs(y) == 1):
        raise ValueError("y must be -1/+1")

    c = params.c
    kernel = _rbf_cross(x, x, params.gamma) if _kernel is None else _kernel
    alphas = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    converged = False

    def try_update(i, j):
        """Analytic two-variable step; returns False if the pair cannot move."""
        k_i = kernel[i]
        k_j = kernel[j]
        eta = k_i[i] + k_j[j] - 2.0 * k_i[j]
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        a_i, a_j = alphas[i], alphas[j]
        if y[i] != y[j]:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        a_j_new = a_j + y[j] * (e_i - e_j) / max(eta, 1e-12)
        a_j_new = min(max(a_j_new, lo), hi)
        a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
        d_i = (a_i_new - a_i) * y[i]
        d_j = (a_j_new - a_j) * y[j]
        if d_i == 0.0 and d_j == 0.0:
            return False
        alphas[i], alphas[j] = a_i_new, a_j_new
        f[:] = f + d_i * k_i + d_j * k_j
        return True

    for _ in range(MAX_SMO_ITER):
        # violation scores: maximize y-f over I_up, minimize over I_low
        up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
        low = ((y < 0) & (alphas < c)) | ((y > 0) & (alphas > 0))
        g = y - f
        up_score = np.where(up, g, -np.inf)
        low_score = np.where(low, g, np.inf)
        i = int(np.argmax(up_score))
        j = int(np.argmin(low_score))
        if up_score[i] - low_score[j] < KKT_TOL:
            converged = True
            break
        if try_update(i, j):
            continue
        # the top pair sits at a box corner and cannot move; scan for the
        # next most violating pair that can
        moved = False
        for ii in np.argsort(-up_score):
            ii = int(ii)
            if not np.isfinite(up_score[ii]):
                break
            for jj in np.argsort(low_score):
                jj = int(jj)
                if not np.isfinite(low_score[jj]):
                    break
                if up_score[ii] - low_score[jj] < KKT_TOL:
                    break
                if ii == jj or (ii, jj) == (i, j):
                    continue
                if try_update(ii, jj):
                    moved = True
                    break
            if moved:
                break
        if not moved:
            # no violating pair can move: the solver is at a fixed point
            # short of the tolerance
            break

    free = (alphas > 1e-12) & (alphas < c - 1e-12)
    if np.any(free):
        bias = float(np.mean((y - f)[free]))
    else:
        up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
        low = ((y < 0) & (alphas < c)) | ((y > 0) & (alphas > 0))
        g = y - f
        hi = np.max(np.where(up, g, -np.inf))
        lo = np.min(np.where(low, g, np.inf))
        bias = float((hi + lo) / 2.0)

    sv = alphas > 1e-12
    return BinarySvmModel(
        support_vectors=x[sv].copy(),
        dual_coef=(alphas * y)[sv],
        bias=bias,
        params=params,
        converged=converged,
        alphas=alphas,
    )


# --- one-vs-rest multiclass --------------------------------------------------


@dataclass
class MulticlassSvmModel:
    classes: tuple  # sorted label order; also the tie-break order
    models: tuple   # one BinarySvmModel per class
    standardizer: Standardizer


def train_ovr(x, labels, params: SvmHyperparams) -> MulticlassSvmModel:
    """Train one binary model per class on standardized features.

    The Gram matrix is shared across the per-class binary problems since the
    kernel only depends on gamma.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise TooFewClasses(f"need at least 2 classes, got {len(classes)}")
    standardizer = fit_standardizer(x)
    xs = apply_standardizer(standardizer, x)
    shared = _rbf_cross(xs, xs, params.gamma)
    models = []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        models.append(train_binary_smo(xs, y, params, _kernel=shared))
    return MulticlassSvmModel(classes=classes, models=tuple(models),
                              standardizer=standardizer)


def decision_values(model: MulticlassSvmModel, x) -> np.ndarray:
    """(n, n_classes) matrix of per-class decision values."""
    xs = apply_standardizer(model.standardizer, np.atleast_2d(np.asarray(x, dtype=float)))
    return np.column_stack([m.decision(xs) for m in model.models])


def predict(model: MulticlassSvmModel, x):
    """Label of a single feature vector; ties break by class sort order."""
    values = decision_values(model, x)[0]
    return model.classes[int(np.argmax(values))]


def predict_batch(model: MulticlassSvmModel, x) -> list:
    values = decision_values(model, x)
    return [model.classes[int(i)] for i in np.argmax(values, axis=1)]
