"""One-vs-rest RBF-kernel SVM trained by sequential minimal optimization.

`train_ovr` is the one trainer: it takes training sets (folds), each a set
of rows with its grid, and yields one `OvrGrid` per fold.  A grid point is
a plain (C, gamma) pair of floats; the inner grid search's grid is the
product of `C_GRID` and `GAMMA_GRID`.  Each fold is standardized once and
its squared-distance matrix built once; each (fold, gamma) then takes one
full Gram matrix.  The (C, class) binary problems of consecutive (fold,
gamma) groups of one training-set size are solved by one working-set SMO
run in lockstep while the run's problems x rows stay within 2^16 (a larger
group runs alone): each step moves every unfinished problem's maximal
KKT-violating pair analytically, reading that problem's own Gram matrix.
So a run spans training sets as well as gammas, and the nested CV of one
config makes two runs on small data.  A run holds each of
its folds' squared distances, means, stds and targets, not their
standardized rows: a fold's rows are standardized again, to the same bits,
only when its grid is yielded.  A grid holds the standardizer's column means
and stds, the standardized training matrix, and for each grid point a class
x row matrix of dual coefficients (zero off the support vectors) and
per-class bias and converged flags.  Prediction builds each kernel of a grid
once per distinct support-vector set and gamma.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SingleClassInput, TooFewClasses, TooFewRows

KKT_TOL = 1e-3
MAX_SMO_ITER = 1_000_000
# the values of the inner grid search's (C, gamma) product
C_GRID = (0.1, 1.0, 10.0, 100.0)
GAMMA_GRID = (1.0, 0.1, 0.01, 0.001)
_STD_FLOOR = 1e-12
# most (problems x training rows) of one lockstep SMO run over several
# (training set, gamma) groups: 512 KiB per float64 state array.  Merging pays
# below it, where per-step numpy overhead dominates, and costs above it.
_LOCKSTEP_BLOCK = 1 << 16


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


def train_binary_smo(x, y, c, gamma):
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
    y, c = y[None, :], np.array([c])
    alphas, f, converged = _smo(_rbf_cross(x, x, gamma), np.zeros(1, int), y, c)
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


class OvrGrid(NamedTuple):
    """One training set's one-vs-rest models at each of its grid points: class k
    at point p decides by sum_i dual_coef[p, k, i] k(train_i, .) + bias[p, k]."""

    classes: tuple         # sorted label order; also the tie-break order
    points: tuple          # (C, gamma) pairs in solve order, grouped by gamma
    means: np.ndarray      # (d,) standardizer column means
    stds: np.ndarray       # (d,) standardizer column stds
    train: np.ndarray      # (n, d) standardized training rows
    dual_coef: np.ndarray  # (points, classes, n) alpha_i y_i, 0 where alpha_i <= 1e-12
    bias: np.ndarray       # (points, classes)
    converged: np.ndarray  # (points, classes) bool


def train_ovr(x, labels, folds):
    """Yield one `OvrGrid` for each (rows, grid) fold, in order.

    A fold trains on its rows of x and labels, once for each distinct point of
    its grid, a sequence of (C, gamma) pairs; `OvrGrid.points` holds them
    grouped by gamma, each group in order of first appearance.  The (C,
    class) problems of consecutive (fold, gamma) groups of one training-set
    size share one lockstep SMO run while the run's problems x rows stay
    within _LOCKSTEP_BLOCK; a group above it runs alone.  A fold is prepared
    when its first run starts (`_prepare_fold`), and each run writes its
    grid's arrays in place.  The grid is yielded as soon as the fold's last
    run ends, after which nothing here refers to it; only then are its rows
    standardized again, to the same bits, into its training matrix.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    # per fold (rows, classes, points); each run: (fold, slice of its points) groups
    plans, runs = [], []
    n = problems = 0  # the last run's training-set size and problem count
    for fold, (rows, grid) in enumerate(folds):
        classes = tuple(sorted(set(labels[rows].tolist())))
        if len(classes) < 2:
            raise TooFewClasses(f"need at least 2 classes, got {len(classes)}")
        by_gamma = {}
        for c, gamma in dict.fromkeys(grid):
            by_gamma.setdefault(gamma, []).append((c, gamma))
        if not by_gamma:
            raise ValueError(f"fold {fold} has an empty grid")
        plans.append((rows, classes, [p for group in by_gamma.values() for p in group]))
        start = 0
        for group in by_gamma.values():
            points = slice(start, start + len(group))
            start = points.stop
            more = len(group) * len(classes)
            if len(rows) == n and (problems + more) * n <= _LOCKSTEP_BLOCK:
                runs[-1].append((fold, points))
                problems += more
            else:
                runs.append([(fold, points)])
                n, problems = len(rows), more
    prepared = {}  # the folds of the current run: (grid without train, sq, targets)
    for r, run in enumerate(runs):
        for fold, _ in run:
            if fold not in prepared:
                rows, classes, points = plans[fold]
                prepared[fold] = _prepare_fold(x[rows], labels[rows], classes, points)
        _solve_run(run, prepared)
        # only a run's last fold can go on into the next run
        going_on = runs[r + 1][0][0] if r + 1 < len(runs) else None
        for fold in [fold for fold in prepared if fold != going_on]:
            # no name here holds the grid or its rows once it is yielded
            yield _with_rows(prepared.pop(fold)[0], x[plans[fold][0]])


def _prepare_fold(x, labels, classes, points):
    """(grid, sq, targets) of one training set: its grid with unsolved arrays
    and no training rows, the (n, n) squared distances between its
    standardized rows and its (classes, n) one-vs-rest targets."""
    means, stds = fit_standardizer(x)
    xs = apply_standardizer(means, stds, x)
    sq = _sq_dist(xs, xs)
    del xs  # before the grid's arrays are allocated
    ys = np.array([np.where(labels == cls, 1.0, -1.0) for cls in classes])
    shape = (len(points), len(classes))
    grid = OvrGrid(classes, tuple(points), means, stds, None, np.empty(shape + (len(x),)),
                   np.empty(shape), np.empty(shape, dtype=bool))
    return grid, sq, ys


def _with_rows(grid: OvrGrid, x) -> OvrGrid:
    """The solved grid with its rows x standardized into its training matrix."""
    return grid._replace(train=apply_standardizer(grid.means, grid.stds, x))


def _solve_run(run, prepared):
    """Solve one lockstep run of (fold, point slice) groups into their folds'
    grids.  Problem rows are group-major, then point-major, class-minor; each
    group takes the next Gram matrix of the stack, built from its fold's
    squared distances and its gamma."""
    n = len(prepared[run[0][0]][1])
    kernel = np.empty((len(run) * n, n))
    y, c = [], []
    for g, (fold, points) in enumerate(run):
        grid, sq, ys = prepared[fold]
        block = kernel[g * n:(g + 1) * n]
        np.multiply(sq, -grid.points[points.start][1], out=block)
        np.exp(block, out=block)
        y.append(np.tile(ys, (points.stop - points.start, 1)))
        c.append(np.repeat([point[0] for point in grid.points[points]], len(grid.classes)))
    base = np.repeat(np.arange(len(run)) * n, [len(part) for part in y])
    y, c = np.vstack(y), np.concatenate(c)
    alphas, f, converged = _smo(kernel, base, y, c)
    bias = _biases(y, alphas, f, c)
    k = 0
    for fold, points in run:
        grid = prepared[fold][0]
        coef = grid.dual_coef[points].reshape(-1, n)
        own = slice(k, k + len(coef))
        np.multiply(alphas[own], y[own], out=coef)
        coef[alphas[own] <= 1e-12] = 0.0
        grid.bias[points] = bias[own].reshape(-1, len(grid.classes))
        grid.converged[points] = converged[own].reshape(-1, len(grid.classes))
        k = own.stop


def predict_batch(models: OvrGrid, x) -> list:
    """One prediction list per point of a `train_ovr` grid, in its order."""
    return [[models.classes[int(i)] for i in row]
            for row in np.argmax(_decision_values(models, x), axis=2)]


def _decision_values(grid: OvrGrid, x) -> np.ndarray:
    """(points, rows, classes) decision values of a grid; see `predict_batch`.

    Class k at a point decides by its kernel against its own support-vector
    rows, the rows where its coefficient is nonzero.  The rows of x are
    standardized once; squared distances to a support-vector row set are
    computed once per distinct set, and their kernel once per (set, gamma).
    Only one distance block and one kernel are alive at a time.  Each class
    still takes its own matvec, so every value has the bits that a kernel
    built for that class alone gives.
    """
    xs = apply_standardizer(grid.means, grid.stds,
                            np.atleast_2d(np.asarray(x, dtype=float)))
    values = np.empty((len(grid.points), xs.shape[0], len(grid.classes)))
    # support-vector mask bytes -> {gamma: [(point, class) indices]}
    by_set = {}
    for p, (_, gamma) in enumerate(grid.points):
        for k, sv in enumerate(grid.dual_coef[p] != 0.0):
            by_gamma = by_set.setdefault(sv.tobytes(), {})
            by_gamma.setdefault(gamma, []).append((p, k))
    for key, by_gamma in by_set.items():
        sv = np.frombuffer(key, dtype=bool)
        sq = _sq_dist(xs, grid.train[sv])
        for gamma, columns in by_gamma.items():
            kernel = np.exp(-gamma * sq)
            for p, k in columns:
                values[p, :, k] = kernel @ grid.dual_coef[p, k][sv] + grid.bias[p, k]
            del kernel
        del sq
    return values
