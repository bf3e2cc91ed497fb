"""One-vs-rest RBF-kernel SVM trained by sequential minimal optimization.

`train_ovr` is the one trainer: it takes training sets (folds), each a set
of rows with its grid, and yields one {params: model} mapping per fold.
Each fold is standardized once and its squared-distance matrix built once;
each (fold, gamma) then takes one full Gram matrix.  The (C, class) binary
problems of consecutive (fold, gamma) groups of one training-set size are
solved by one working-set SMO run in lockstep while the run's problems x
rows stay within 2^16 (a larger group runs alone): each step moves every
unfinished problem's maximal KKT-violating pair analytically, reading that
problem's own Gram matrix.  So a run spans training sets as well as gammas,
and the nested CV of one config makes two runs on small data.  A run holds
each of its folds' squared distances, means, stds and targets, not their
standardized rows: a fold's rows are standardized again, to the same bits,
only when its models are yielded.  A model holds the standardizer's column
means and stds, the standardized training matrix (one array shared by every
model of a fold), a class x row matrix of dual coefficients (zero off the
support vectors) and per-class bias and converged vectors.  Prediction takes
a group of models that share one training matrix and builds each kernel once
per distinct support-vector set and gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SingleClassInput, TooFewClasses, TooFewRows

KKT_TOL = 1e-3
MAX_SMO_ITER = 1_000_000
DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)
DEFAULT_GAMMA_GRID = (1.0, 0.1, 0.01, 0.001)
_STD_FLOOR = 1e-12
# most (problems x training rows) of one lockstep SMO run over several
# (training set, gamma) groups: 512 KiB per float64 state array.  Merging pays
# below it, where per-step numpy overhead dominates, and costs above it.
_LOCKSTEP_BLOCK = 1 << 16


@dataclass(frozen=True)
class SvmHyperparams:
    c: float
    gamma: float

    def __post_init__(self):
        if not self.c > 0 or not self.gamma > 0:
            raise ValueError("c and gamma must be positive")


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances D[i, j] = ||a_i - b_j||^2, clipped at 0."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return sq


def _rbf_cross(a: np.ndarray, b: np.ndarray, gamma) -> np.ndarray:
    """Kernel block K[i, j] = k(a_i, b_j), vectorized."""
    return np.exp(-gamma * _sq_dist(a, b))


# --- standardization --------------------------------------------------------


def fit_standardizer(x: np.ndarray):
    """(means, stds) of the columns of x."""
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
    return means, stds


def apply_standardizer(means, stds, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != means.shape[0]:
        raise DimensionMismatch(
            f"feature dimension {x.shape[-1]} != fitted {means.shape[0]}"
        )
    return (x - means) / stds


# --- binary SMO -------------------------------------------------------------


def train_binary_smo(x, y, params: SvmHyperparams):
    """Solve the binary soft-margin dual by SMO; returns (alphas, bias, converged).

    y must be -1/+1 with both classes present.  The decision function is
    sum_i alphas_i y_i k(x_i, .) + bias.  Stops at maximal KKT violation
    < 1e-3 or after 10^6 pair updates; the latter returns converged=False
    instead of raising.
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
    y, c = y[None, :], np.array([params.c])
    alphas, f, converged = _smo(_rbf_cross(x, x, params.gamma), np.zeros(1, int), y, c)
    return alphas[0], float(_biases(y, alphas, f, c)[0]), bool(converged[0])


def _pair_update(kernel, base, y, c, alphas, f, i, j) -> np.ndarray:
    """Analytic two-variable step on pair (i[p], j[p]) of each row p, in place.

    Row p reads its Gram matrix at kernel rows base[p] + 0..n-1.  Returns the
    mask of rows whose pair moved.  Each row's arithmetic is the scalar
    step's, term by term, down to Python's max/min tie rules.
    """
    r = np.arange(len(i))
    k_i, k_j = base + i, base + j
    eta = kernel[k_i, i] + kernel[k_j, j] - 2.0 * kernel[k_i, j]
    y_i, y_j = y[r, i], y[r, j]
    a_i, a_j = alphas[r, i], alphas[r, j]
    e_i, e_j = f[r, i] - y_i, f[r, j] - y_j
    same = y_i == y_j
    lo = np.where(same, a_i + a_j - c, a_j - a_i)
    lo = np.where(lo > 0.0, lo, 0.0)
    hi = np.where(same, a_i + a_j, c + a_j - a_i)
    hi = np.where(hi < c, hi, c)
    a_j_new = a_j + y_j * (e_i - e_j) / np.maximum(eta, 1e-12)
    a_j_new = np.where(lo > a_j_new, lo, a_j_new)
    a_j_new = np.where(hi < a_j_new, hi, a_j_new)
    a_i_new = a_i + y_i * y_j * (a_j - a_j_new)
    d_i = (a_i_new - a_i) * y_i
    d_j = (a_j_new - a_j) * y_j
    moved = (d_i != 0.0) | (d_j != 0.0)
    rows = slice(None)
    if not moved.all():
        r, i, j, k_i, k_j, a_i_new, a_j_new, d_i, d_j = (
            v[moved] for v in (r, i, j, k_i, k_j, a_i_new, a_j_new, d_i, d_j))
        rows = r
    alphas[r, i] = a_i_new
    alphas[r, j] = a_j_new
    # f + d_i k_i + d_j k_j, summed in that order
    f[rows] += d_i[:, None] * kernel[k_i]
    f[rows] += d_j[:, None] * kernel[k_j]
    return moved


def _corner_scan(kernel, base, y, c, alphas, f, up_score, low_score, top) -> bool:
    """Move the most violating pair of one problem that can move, if any.

    Takes one-row slices of the lockstep arrays and that row's scores; `top`,
    the row's maximal pair, sits at a box corner and cannot move.
    """
    for ii in np.argsort(-up_score):
        if not np.isfinite(up_score[ii]):
            break
        for jj in np.argsort(low_score):
            if not np.isfinite(low_score[jj]):
                break
            if up_score[ii] - low_score[jj] < KKT_TOL:
                break
            if ii == jj or (ii, jj) == top:
                continue
            if _pair_update(kernel, base, y, c, alphas, f,
                            np.array([ii]), np.array([jj]))[0]:
                return True
    return False


def _smo(kernel, base, y, c):
    """Lockstep SMO for P binary problems, rows of y (P, n), on a Gram stack.

    kernel stacks G Gram matrices as a (G n, n) array, and problem p reads
    its own at rows base[p] + 0..n-1, so one run can span several gammas.
    Each step moves every unfinished problem's maximal KKT-violating pair
    (first index on ties), exactly as if it were solved alone.  A problem
    stops below KKT_TOL (converged), at a fixed point or after MAX_SMO_ITER
    steps.  Returns alphas and f = K (alphas * y), both (P, n), and converged.
    """
    alphas, f, converged = np.zeros(y.shape), np.zeros(y.shape), np.zeros(len(y), bool)
    # unfinished problems, compacted; finished rows are written back
    act, ba, ya, ca, aa, fa = np.arange(len(y)), base, y, c, alphas.copy(), f.copy()

    def finish(mask):
        nonlocal act, ba, ya, ca, aa, fa
        alphas[act[mask]] = aa[mask]
        f[act[mask]] = fa[mask]
        keep = ~mask
        act, ba, ya, ca, aa, fa = (v[keep] for v in (act, ba, ya, ca, aa, fa))

    for _ in range(MAX_SMO_ITER):
        if not len(act):
            break
        pos, below, above = ya > 0, aa < ca[:, None], aa > 0
        g = ya - fa
        up_score = np.where(np.where(pos, below, above), g, -np.inf)
        low_score = np.where(np.where(pos, above, below), g, np.inf)
        i = up_score.argmax(axis=1)
        j = low_score.argmin(axis=1)
        r = np.arange(len(act))
        done = up_score[r, i] - low_score[r, j] < KKT_TOL
        if done.any():
            converged[act[done]] = True
            i, j, up_score, low_score = (v[~done] for v in (i, j, up_score, low_score))
            finish(done)
        moved = _pair_update(kernel, ba, ya, ca, aa, fa, i, j)
        if not moved.all():
            for p in np.flatnonzero(~moved):
                rows = slice(p, p + 1)
                moved[p] = _corner_scan(kernel, ba[rows], ya[rows], ca[rows], aa[rows],
                                        fa[rows], up_score[p], low_score[p], (i[p], j[p]))
            if not moved.all():
                # no violating pair can move: a fixed point short of KKT_TOL
                finish(~moved)
    finish(np.ones(len(act), dtype=bool))
    return alphas, f, converged


def _biases(y, alphas, f, c) -> np.ndarray:
    """Bias of each solved problem, a row of y, alphas and f with its c: the
    mean of y - f over its free alphas, else the midpoint of its KKT bounds.
    Rows with L free alphas are summed together by `np.add.reduce` over axis
    1, which sums each row as `np.mean` sums it alone, and divided by L."""
    g = y - f
    c = c[:, None]
    free = (alphas > 1e-12) & (alphas < c - 1e-12)
    n_free = np.count_nonzero(free, axis=1)
    up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
    low = ((y < 0) & (alphas < c)) | ((y > 0) & (alphas > 0))
    bias = (np.max(np.where(up, g, -np.inf), axis=1)
            + np.min(np.where(low, g, np.inf), axis=1)) / 2.0
    for n in np.unique(n_free[n_free > 0]).tolist():
        rows = np.flatnonzero(n_free == n)
        bias[rows] = np.add.reduce(g[rows][free[rows]].reshape(len(rows), n), axis=1) / n
    return bias


# --- one-vs-rest multiclass --------------------------------------------------


@dataclass
class MulticlassSvmModel:
    """Class k decides by sum_i dual_coef[k, i] k(train_i, .) + bias[k]."""

    classes: tuple  # sorted label order; also the tie-break order
    means: np.ndarray      # (d,) standardizer column means
    stds: np.ndarray       # (d,) standardizer column stds
    params: SvmHyperparams
    train: np.ndarray      # (n, d) standardized training rows, shared by a grid
    dual_coef: np.ndarray  # (n_classes, n) alpha_i y_i, 0 where alpha_i <= 1e-12
    bias: np.ndarray       # (n_classes,)
    converged: np.ndarray  # (n_classes,) bool


def train_ovr(x, labels, folds):
    """Yield {params: one-vs-rest model} for each (rows, grid) fold, in order.

    A fold trains on its rows of x and labels, once for each distinct point of
    its grid.  The (C, class) problems of consecutive (fold, gamma) groups of
    one training-set size share one lockstep SMO run while the run's problems
    x rows stay within _LOCKSTEP_BLOCK; a group above it runs alone.  A fold
    is prepared when its first run starts, keeping its means and stds, the
    (n, n) squared distances between its standardized rows and its targets,
    but not those rows.  Its models are yielded as soon as its last run ends,
    after which nothing here refers to them; only then are its rows
    standardized again, to the same bits, into the one training matrix that
    all its models share.  Points come grouped by gamma, and the models of a
    fold share its means and stds too.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    plans, runs = [], []  # per fold (rows, classes); each run: (fold, points) groups
    n = problems = 0  # the last run's training-set size and problem count
    for fold, (rows, grid) in enumerate(folds):
        classes = tuple(sorted(set(labels[rows].tolist())))
        if len(classes) < 2:
            raise TooFewClasses(f"need at least 2 classes, got {len(classes)}")
        by_gamma = {}
        for p in dict.fromkeys(grid):
            by_gamma.setdefault(p.gamma, []).append(p)
        if not by_gamma:
            raise ValueError(f"fold {fold} has an empty grid")
        plans.append((rows, classes))
        for group in by_gamma.values():
            more = len(group) * len(classes)
            if len(rows) == n and (problems + more) * n <= _LOCKSTEP_BLOCK:
                runs[-1].append((fold, group))
                problems += more
            else:
                runs.append([(fold, group)])
                n, problems = len(rows), more
    # the folds of the current run, and each point's (dual_coef, bias, converged)
    prepared, solved = {}, {}
    for r, run in enumerate(runs):
        for fold, _ in run:
            if fold not in prepared:
                rows, classes = plans[fold]
                prepared[fold] = _prepare_fold(x[rows], labels[rows], classes)
                solved[fold] = {}
        _solve_run(run, prepared, solved)
        # only a run's last fold can go on into the next run
        going_on = runs[r + 1][0][0] if r + 1 < len(runs) else None
        for fold in [fold for fold in prepared if fold != going_on]:
            # no name here holds the models or their rows once they are yielded
            yield _fold_models(prepared.pop(fold), solved.pop(fold), x[plans[fold][0]])


class _Fold(NamedTuple):
    """One training set, ready for its runs."""

    classes: tuple
    means: np.ndarray
    stds: np.ndarray
    sq: np.ndarray  # (n, n) squared distances between the standardized rows
    ys: np.ndarray  # (n_classes, n) one-vs-rest targets


def _prepare_fold(x, labels, classes) -> _Fold:
    means, stds = fit_standardizer(x)
    xs = apply_standardizer(means, stds, x)
    ys = np.array([np.where(labels == cls, 1.0, -1.0) for cls in classes])
    return _Fold(classes, means, stds, _sq_dist(xs, xs), ys)


def _fold_models(prep: _Fold, solved, x) -> dict:
    """{params: model} of one fold from its solved points, over one
    standardization of its rows x."""
    train = apply_standardizer(prep.means, prep.stds, x)
    return {params: MulticlassSvmModel(prep.classes, prep.means, prep.stds, params, train,
                                       *result)
            for params, result in solved.items()}


def _solve_run(run, prepared, solved):
    """Solve one lockstep run of (fold, points) groups and add each point's
    (dual_coef, bias, converged) to solved[fold].

    Problem rows are group-major, then point-major, class-minor; each group
    takes the next Gram matrix of the stack, built from its fold's squared
    distances and its gamma.
    """
    n = len(prepared[run[0][0]].sq)
    kernel = np.empty((len(run) * n, n))
    for g, (fold, group) in enumerate(run):
        block = kernel[g * n:(g + 1) * n]
        np.multiply(prepared[fold].sq, -group[0].gamma, out=block)
        np.exp(block, out=block)
    y = np.vstack([np.tile(prepared[fold].ys, (len(group), 1)) for fold, group in run])
    base = np.repeat(np.arange(len(run)) * n,
                     [len(group) * len(prepared[fold].classes) for fold, group in run])
    c = np.concatenate([np.repeat([p.c for p in group], len(prepared[fold].classes))
                        for fold, group in run])
    alphas, f, converged = _smo(kernel, base, y, c)
    coef = np.where(alphas > 1e-12, alphas * y, 0.0)
    k = 0
    bias = _biases(y, alphas, f, c)
    for fold, group in run:
        prep = prepared[fold]
        for params in group:
            rows = slice(k, k + len(prep.classes))
            solved[fold][params] = (coef[rows], bias[rows], converged[rows])
            k += len(prep.classes)


def predict_batch(models, x) -> list:
    """One prediction list per model, for models that share one training
    matrix and its means and stds, such as the models of one fold of a
    `train_ovr` call."""
    return [[m.classes[int(i)] for i in np.argmax(v, axis=1)]
            for m, v in zip(models, _decision_values(models, x))]


def _decision_values(models, x) -> list:
    """(n, n_classes) decision values of each model; see `predict_batch`.

    Class k of a model decides by its kernel against its own support-vector
    rows, the rows where its coefficient is nonzero.  The rows of x are
    standardized once; squared distances to a support-vector row set are
    computed once per distinct set, and their kernel once per (set, gamma).
    Only one distance block and one kernel are alive at a time.  Each class
    still takes its own matvec, so every value has the bits that a kernel
    built for that class alone gives.
    """
    models = list(models)
    first = models[0]
    if any(m.train is not first.train or m.means is not first.means
           or m.stds is not first.stds for m in models):
        raise ValueError("models do not share one training matrix, means and stds")
    xs = apply_standardizer(first.means, first.stds,
                            np.atleast_2d(np.asarray(x, dtype=float)))
    values = [np.empty((xs.shape[0], len(m.classes))) for m in models]
    # support-vector mask bytes -> {gamma: [(model, class) indices]}
    by_set = {}
    for m_idx, model in enumerate(models):
        for k, sv in enumerate(model.dual_coef != 0.0):
            by_gamma = by_set.setdefault(sv.tobytes(), {})
            by_gamma.setdefault(model.params.gamma, []).append((m_idx, k))
    for key, by_gamma in by_set.items():
        sv = np.frombuffer(key, dtype=bool)
        sq = _sq_dist(xs, first.train[sv])
        for gamma, columns in by_gamma.items():
            kernel = np.exp(-gamma * sq)
            for m_idx, k in columns:
                model = models[m_idx]
                values[m_idx][:, k] = kernel @ model.dual_coef[k][sv] + model.bias[k]
            del kernel
        del sq
    return values
