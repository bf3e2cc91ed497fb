import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid import evaluation as ev, svm
from eegid.errors import DimensionMismatch, SingleClassInput, TooFewClasses, TooFewRows

from conftest import train_grid, train_one
from oracles import (bias_scalar, decision_values, dual_objective, kkt_violations, rbf_loop,
                     smo_scalar, train_ovr_kept_rows)


def blobs(rng, centers, per_class=10, spread=0.1):
    """Well-separated Gaussian clusters with string labels a, b, c, ..."""
    x, labels = [], []
    for idx, center in enumerate(centers):
        x.append(center + spread * rng.standard_normal((per_class, len(center))))
        labels.extend([chr(ord("a") + idx)] * per_class)
    return np.vstack(x), np.array(labels)


class TestRbfKernel:
    def test_zero_distance(self):
        x = np.array([[1.0, 2.0]])
        assert svm._rbf_cross(x, x, gamma=0.5)[0, 0] == 1.0
        assert rbf_loop(x, x, gamma=0.5)[0, 0] == 1.0

    def test_unit_distance(self):
        # ||x - y||^2 = 1, gamma = 1 -> e^-1
        k = svm._rbf_cross(np.array([[0.0]]), np.array([[1.0]]), gamma=1.0)[0, 0]
        assert k == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert k == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_symmetry_and_range(self, rng):
        x = rng.standard_normal((20, 5))
        k = svm._rbf_cross(x, x, gamma=0.1)
        np.testing.assert_allclose(k, k.T, rtol=0, atol=1e-15)
        assert np.all((k > 0.0) & (k <= 1.0))

    def test_cross_block_matches_scalar(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(svm._rbf_cross(a, b, gamma=0.7),
                                   rbf_loop(a, b, gamma=0.7), rtol=0, atol=1e-12)


class TestStandardizer:
    def test_oracle(self, rng):
        x = rng.standard_normal((50, 4)) * np.array([1.0, 5.0, 0.2, 3.0]) + 7.0
        means, stds = svm.fit_standardizer(x)
        z = svm.apply_standardizer(means, stds, x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self, rng):
        x = rng.standard_normal((20, 3))
        x[:, 1] = 4.2
        z = svm.apply_standardizer(*svm.fit_standardizer(x), x)
        np.testing.assert_array_equal(z[:, 1], 0.0)
        assert np.all(np.isfinite(z))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            svm.fit_standardizer(np.ones((1, 3)))

    def test_dimension_mismatch(self, rng):
        means, stds = svm.fit_standardizer(rng.standard_normal((5, 3)))
        with pytest.raises(DimensionMismatch):
            svm.apply_standardizer(means, stds, rng.standard_normal((5, 4)))


def binary_decision(x, y, alphas, bias, gamma, probe):
    """sum_i alpha_i y_i k(x_i, probe) + bias over the support vectors."""
    sv = alphas > 1e-12
    return svm._rbf_cross(probe, x[sv], gamma) @ (alphas * y)[sv] + bias


class TestBinarySmo:
    def test_separable_blobs_perfect(self, rng):
        x, labels = blobs(rng, [np.zeros(3), 3.0 * np.ones(3)], per_class=15)
        y = np.where(labels == "a", 1.0, -1.0)
        alphas, bias, converged = svm.train_binary_smo(x, y, 10.0, 0.1)
        assert converged
        preds = np.sign(binary_decision(x, y, alphas, bias, 0.1, x))
        np.testing.assert_array_equal(preds, y)

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((10, 2))
        with pytest.raises(SingleClassInput):
            svm.train_binary_smo(x, np.ones(10), 1.0, 1.0)

    def test_kkt_satisfied_on_random_problems(self, rng):
        # the independent KKT audit from the oracle module, 50 problems
        for trial in range(50):
            n = int(rng.integers(8, 25))
            x = rng.standard_normal((n, 3))
            y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            c = float(rng.choice([0.1, 1.0, 10.0]))
            gamma = float(rng.choice([1.0, 0.1]))
            alphas, bias, converged = svm.train_binary_smo(x, y, c, gamma)
            assert converged
            worst = kkt_violations(x, y, alphas, bias, c, gamma)
            assert worst <= svm.KKT_TOL + 1e-9, f"trial {trial}: violation {worst}"

    def test_dual_feasibility(self, rng):
        x = rng.standard_normal((30, 3))
        y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c = 5.0
        alphas, _, _ = svm.train_binary_smo(x, y, c, 0.5)
        assert np.all(alphas >= -1e-12)
        assert np.all(alphas <= c + 1e-12)
        assert abs(np.dot(alphas, y)) < 1e-6

    def test_dual_objective_beats_random_feasible(self, rng):
        x = rng.standard_normal((20, 2))
        y = np.where(rng.uniform(size=20) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c, gamma = 1.0, 0.5
        alphas, _, _ = svm.train_binary_smo(x, y, c, gamma)
        best = dual_objective(x, y, alphas, gamma)
        n_pos = int(np.sum(y > 0))
        n_neg = 20 - n_pos
        for _ in range(200):
            # random feasible point: box-constrained, then project onto
            # the equality constraint by scaling the heavier side
            a = rng.uniform(0.0, c, 20)
            pos_sum = float(np.sum(a[y > 0]))
            neg_sum = float(np.sum(a[y < 0]))
            if pos_sum == 0.0 or neg_sum == 0.0:
                continue
            target = min(pos_sum, neg_sum)
            a[y > 0] *= target / pos_sum
            a[y < 0] *= target / neg_sum
            assert dual_objective(x, y, a, gamma) <= best + 1e-6

    def test_duplicate_non_sv_invariance(self, rng):
        # adding a copy of a strictly interior (non-support) point must not
        # move the decision function materially
        x, labels = blobs(rng, [np.zeros(2), 4.0 * np.ones(2)], per_class=12,
                          spread=0.05)
        y = np.where(labels == "a", 1.0, -1.0)
        c, gamma = 10.0, 0.5
        alphas, bias, _ = svm.train_binary_smo(x, y, c, gamma)
        margins = y * binary_decision(x, y, alphas, bias, gamma, x)
        non_sv = int(np.argmax(margins))
        assert alphas[non_sv] <= 1e-12
        x2 = np.vstack([x, x[non_sv]])
        y2 = np.append(y, y[non_sv])
        alphas2, bias2, _ = svm.train_binary_smo(x2, y2, c, gamma)
        probe = rng.standard_normal((20, 2))
        np.testing.assert_allclose(
            binary_decision(x2, y2, alphas2, bias2, gamma, probe),
            binary_decision(x, y, alphas, bias, gamma, probe), atol=1e-6)


def assert_matches_scalar(kernels, y, c, which=None):
    """_smo on the rows of y, row p on Gram matrix kernels[which[p]] of a
    stack, equals smo_scalar on each row with its own kernel, bit for bit.

    kernels is one (n, n) Gram matrix or a (G, n, n) stack; which defaults to
    every row on the first."""
    kernels = np.asarray(kernels).reshape(-1, *np.shape(kernels)[-2:])
    which = np.zeros(len(y), int) if which is None else np.asarray(which)
    n = y.shape[1]
    alphas, f, converged = svm._smo(kernels.reshape(-1, n), which * n, y, c)
    biases = svm._biases(y, alphas, f, np.asarray(c, dtype=float))
    for p in range(len(y)):
        a_ref, f_ref, bias_ref, conv_ref = smo_scalar(kernels[which[p]], y[p], c[p],
                                                      max_iter=svm.MAX_SMO_ITER)
        assert np.array_equal(alphas[p], a_ref), f"row {p}"
        assert np.array_equal(f[p], f_ref), f"row {p}"
        assert converged[p] == conv_ref, f"row {p}"
        assert biases[p] == bias_ref, f"row {p}"
    return converged


def random_labels(rng, p, n):
    y = np.where(rng.uniform(size=(p, n)) < rng.uniform(0.1, 0.9), 1.0, -1.0)
    y[:, 0], y[:, 1] = 1.0, -1.0
    return y


class TestBiases:
    """svm._biases over many problems equals oracles.bias_scalar row by row,
    to the bit and the sign of zero."""

    @staticmethod
    def problems(rng, free_counts, n):
        """One row per free count: that many alphas strictly inside (0, c),
        the rest at 0 or c, with both classes present."""
        p = len(free_counts)
        y = random_labels(rng, p, n)
        c = rng.choice([0.1, 1.0, 10.0, 100.0], size=p)
        alphas = np.where(rng.uniform(size=(p, n)) < 0.5, 0.0, c[:, None])
        for row, count in enumerate(free_counts):
            free = rng.permutation(n)[:count]
            alphas[row, free] = c[row] * rng.uniform(0.01, 0.99, count)
        return y, alphas, rng.standard_normal((p, n)) * 3.0, c

    def assert_equal_to_scalar(self, y, alphas, f, c):
        got = svm._biases(y, alphas, f, c)
        want = np.array([bias_scalar(*row, float(cr)) for *row, cr in zip(y, alphas, f, c)])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    # numpy sums pairwise in blocks of 8 and 128 elements: counts on both
    # sides of each, repeated so that rows share a group
    @pytest.mark.parametrize("free_counts", [
        [1, 2, 5, 7, 7, 3], [8, 9, 31, 64, 127, 128, 9, 127], [129, 200, 255, 300, 129],
        [0, 0, 4, 0, 130, 0], [0] * 5,
    ], ids=["below-8", "8-to-128", "above-128", "mixed-with-no-free", "no-free"])
    def test_equals_scalar(self, rng, free_counts):
        for _ in range(5):
            self.assert_equal_to_scalar(*self.problems(rng, free_counts, 320))

    def test_exactly_zero_biases(self):
        # a free mean of 0.25 and -0.25, and a bounds midpoint of 0.5 and -0.5
        y = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
        f = y - np.array([[0.25, -0.25, 2.0, -2.0], [0.5, -0.5, 0.5, -0.5]])
        alphas = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        for sign in (1.0, -1.0):
            self.assert_equal_to_scalar(sign * y, alphas, sign * f, np.array([1.0, 1.0]))
        assert not svm._biases(y, alphas, f, np.array([1.0, 1.0])).any()

    def test_solved_problems(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 140))
            p = int(rng.integers(1, 8))
            x = rng.standard_normal((n, 3))
            y = random_labels(rng, p, n)
            c = rng.choice([0.1, 1.0, 10.0, 100.0], size=p)
            alphas, f, _ = svm._smo(svm._rbf_cross(x, x, float(rng.choice([1.0, 0.01]))),
                                    np.zeros(p, int), y, c)
            self.assert_equal_to_scalar(y, alphas, f, c)


class TestLockstepSmo:
    def test_matches_scalar_on_random_problems(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 30))
            x = rng.standard_normal((n, int(rng.integers(1, 5))))
            p = int(rng.integers(1, 17))
            kernel = svm._rbf_cross(x, x, float(rng.choice([10.0, 1.0, 0.1, 0.01])))
            c = rng.choice([0.1, 1.0, 10.0, 100.0], size=p)
            assert_matches_scalar(kernel, random_labels(rng, p, n), c)

    def test_mixed_gamma_stacks(self, rng):
        # one run over several Gram matrices, rows in any order of kernels
        for _ in range(40):
            n = int(rng.integers(4, 30))
            x = rng.standard_normal((n, int(rng.integers(1, 5))))
            gammas = rng.choice([10.0, 1.0, 0.1, 0.01, 0.001], size=int(rng.integers(1, 5)))
            kernels = np.stack([svm._rbf_cross(x, x, g) for g in gammas])
            p = int(rng.integers(1, 25))
            which = rng.integers(0, len(gammas), size=p)
            c = rng.choice([0.1, 1.0, 10.0, 100.0], size=p)
            assert_matches_scalar(kernels, random_labels(rng, p, n), c, which)

    def test_duplicate_rows(self, rng):
        # repeated points give pairs with eta = 0, floored at 1e-12, alone
        # and in a run over several gammas
        for _ in range(20):
            x = rng.standard_normal((12, 2))
            x[6:] = x[:6]
            kernel = svm._rbf_cross(x, x, 1.0)
            assert kernel[0, 0] + kernel[6, 6] - 2.0 * kernel[0, 6] == 0.0
            p = int(rng.integers(1, 9))
            assert_matches_scalar(kernel, random_labels(rng, p, 12),
                                  rng.choice([0.1, 1.0, 10.0], size=p))
            kernels = np.stack([svm._rbf_cross(x, x, g) for g in (1.0, 0.1, 0.01)])
            assert_matches_scalar(kernels, random_labels(rng, p, 12),
                                  rng.choice([0.1, 1.0, 10.0], size=p),
                                  rng.integers(0, 3, size=p))

    def _spy_scan(self, monkeypatch):
        outcomes = []
        scan = svm._corner_scan

        def spy(*args):
            outcomes.append(scan(*args))
            return outcomes[-1]

        monkeypatch.setattr(svm, "_corner_scan", spy)
        return outcomes

    def test_box_corner_scan(self, monkeypatch):
        # the maximal pair of this problem hits a box corner once; the scan
        # moves the next pair, and the problem still converges
        outcomes = self._spy_scan(monkeypatch)
        x = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 1.0], [2.0, 2.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        kernel = svm._rbf_cross(x, x, 0.1)
        # alone, and in lockstep with problems that take no scan
        converged = assert_matches_scalar(kernel, y[None, :], np.array([10.0]))
        assert outcomes == [True] and converged.all()
        rows = np.array([y, -y, y, [1.0, 1.0, -1.0, -1.0]])
        assert_matches_scalar(kernel, rows, np.array([10.0, 10.0, 1.0, 10.0]))
        assert True in outcomes[1:]
        # in one run with other gammas' problems, the scan reads its own kernel
        outcomes.clear()
        kernels = np.stack([svm._rbf_cross(x, x, g) for g in (1.0, 0.1, 0.01)])
        converged = assert_matches_scalar(kernels, np.vstack([rows, rows]),
                                          np.array([10.0, 10.0, 1.0, 10.0] * 2),
                                          [1, 0, 2, 1, 0, 2, 1, 0])
        assert True in outcomes and converged[0]

    def test_fixed_point_short_of_tolerance(self, monkeypatch):
        # three copies of one point with labels +1, -1, -1: no violating
        # pair can move, so the problem stops unconverged
        outcomes = self._spy_scan(monkeypatch)
        x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0],
                      [0.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0])
        kernel = svm._rbf_cross(x, x, 1.0)
        rows = np.array([y, y, -y])
        converged = assert_matches_scalar(kernel, rows, np.array([1.0, 0.1, 1.0]))
        assert False in outcomes
        assert not converged[0]
        # the same fixed point inside one run with other gammas' problems
        outcomes.clear()
        kernels = np.stack([svm._rbf_cross(x, x, g) for g in (0.1, 1.0, 0.01)])
        converged = assert_matches_scalar(kernels, np.vstack([rows, rows]),
                                          np.array([1.0, 0.1, 1.0] * 2),
                                          [0, 2, 0, 1, 1, 2])
        assert False in outcomes
        assert not converged[3]

    def test_iteration_cap(self, rng, monkeypatch):
        monkeypatch.setattr(svm, "MAX_SMO_ITER", 3)
        x = rng.standard_normal((20, 3))
        kernel = svm._rbf_cross(x, x, 0.1)
        converged = assert_matches_scalar(kernel, random_labels(rng, 6, 20),
                                          np.array([0.1, 1.0, 10.0] * 2))
        assert not converged.any()
        kernels = np.stack([svm._rbf_cross(x, x, g) for g in (1.0, 0.1, 0.01, 0.001)])
        converged = assert_matches_scalar(kernels, random_labels(rng, 8, 20),
                                          np.array([0.1, 1.0, 10.0, 100.0] * 2),
                                          [0, 1, 2, 3, 3, 2, 1, 0])
        assert not converged.any()
        _, _, converged = svm.train_binary_smo(x, random_labels(rng, 1, 20)[0], 1.0, 0.1)
        assert not converged

    def test_binary_smo_is_the_p1_case(self, rng):
        x = rng.standard_normal((25, 3))
        y = random_labels(rng, 1, 25)[0]
        alphas, bias, converged = svm.train_binary_smo(x, y, 10.0, 0.5)
        a_ref, _, bias_ref, conv_ref = smo_scalar(svm._rbf_cross(x, x, 0.5), y, 10.0)
        assert np.array_equal(alphas, a_ref)
        assert bias == bias_ref and converged == conv_ref


class TestOvr:
    def test_three_clusters_perfect(self, rng):
        x, labels = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], per_class=12)
        model = train_one(x, labels, (10.0, 0.5))
        assert model.classes == ("a", "b", "c")
        assert svm.predict_batch(model, x) == [list(labels)]

    def test_wide_problem_accepted(self, rng):
        # 109 classes x a handful of rows each is the scale ceiling; here a
        # thin sanity slice: many classes, few points, high dimension
        x = rng.standard_normal((30, 15))
        labels = np.repeat([f"s{i}" for i in range(10)], 3)
        model = train_one(x, labels, (1.0, 0.01))
        assert model.dual_coef.shape == (1, 10, 30)
        assert model.bias.shape == model.converged.shape == (1, 10)
        assert svm._decision_values(model, x).shape == (1, 30, 10)

    def test_too_few_classes(self, rng):
        with pytest.raises(TooFewClasses):
            train_one(rng.standard_normal((6, 2)), ["a"] * 6,
                      (1.0, 1.0))

    def test_argmax_tie_break_first_class(self, rng):
        x, labels = blobs(rng, [(0.0,), (4.0,), (8.0,)], per_class=8)
        model = train_one(x, labels, (1.0, 0.1))
        values = np.array([[-0.2, 0.7, 0.7]])
        idx = int(np.argmax(values[0]))
        assert model.classes[idx] == "b"  # np.argmax returns the first max

    def test_predict_matches_batch(self, rng):
        x, labels = blobs(rng, [(0.0, 0.0), (3.0, 3.0)], per_class=10)
        model = train_one(x, labels, (10.0, 0.5))
        [batch] = svm.predict_batch(model, x)
        singles = [svm.predict_batch(model, row)[0][0] for row in x]
        assert batch == singles

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_training_accuracy_on_separated_blobs(self, seed):
        rng = np.random.default_rng(seed)
        x, labels = blobs(rng, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], per_class=8)
        model = train_one(x, labels, (10.0, 0.5))
        assert svm.predict_batch(model, x) == [list(labels)]


def grid_models(x, labels):
    """The grid of one train_ovr fold over the default 16-point grid."""
    grid = [(c, g) for c in svm.C_GRID for g in svm.GAMMA_GRID]
    return train_grid(x, labels, grid)


class TestLockstepRuns:
    """train_ovr solves consecutive (fold, gamma) groups in one _smo run while
    the run's problems x rows stay within svm._LOCKSTEP_BLOCK."""

    @staticmethod
    def spy_smo(monkeypatch):
        runs = []
        smo = svm._smo

        def spy(kernel, base, y, c):
            runs.append((kernel.shape[0] // y.shape[1], len(y)))
            return smo(kernel, base, y, c)

        monkeypatch.setattr(svm, "_smo", spy)
        return runs

    @pytest.mark.parametrize("block, runs", [
        (None, [(4, 64)]),                 # 4 gammas x 4 C x 4 classes, 24 rows
        (4 * 16 * 24, [(4, 64)]),
        (2 * 16 * 24, [(2, 32), (2, 32)]),
        (2 * 16 * 24 - 1, [(1, 16)] * 4),
        (16 * 24, [(1, 16)] * 4),
        (0, [(1, 16)] * 4),                # each gamma above the block runs alone
    ])
    def test_runs_per_block(self, rng, monkeypatch, block, runs):
        x, labels = blobs(rng, list(rng.standard_normal((4, 5))), per_class=6, spread=1.0)
        if block is not None:
            monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", block)
        seen = self.spy_smo(monkeypatch)
        grid_models(x, labels)
        assert seen == runs

    def test_uneven_gamma_groups(self, rng, monkeypatch):
        # gammas with 3, 1 and 2 points: 30 rows x (9, 3, 6) problems
        x, labels = blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], per_class=10)
        grid = [(1.0, 0.1), (10.0, 0.1), (1.0, 0.5), (0.1, 0.1), (1.0, 2.0), (10.0, 2.0)]
        monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", 12 * 30)
        seen = self.spy_smo(monkeypatch)
        models = train_grid(x, labels, grid)
        assert seen == [(2, 12), (1, 6)]
        assert models.points == tuple(grid[i] for i in (0, 1, 3, 2, 4, 5))

    def test_repeated_points_solved_once(self, rng, monkeypatch):
        # a gamma that comes back after another, and points given twice
        x, labels = blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], per_class=10)
        grid = [(10.0, 0.1), (0.1, 0.1), (10.0, 0.1), (100.0, 1.0), (1.0, 0.1), (0.1, 0.1)]
        seen = self.spy_smo(monkeypatch)
        models = train_grid(x, labels, grid)
        assert seen == [(2, 12)]
        assert models.points == ((10.0, 0.1), (0.1, 0.1), (1.0, 0.1), (100.0, 1.0))
        want = train_grid(x, labels, models.points)
        for name in ("dual_coef", "bias", "converged"):
            assert np.array_equal(getattr(models, name), getattr(want, name)), name

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_block_does_not_change_models(self, seed):
        rng = np.random.default_rng(seed)
        n_classes, dim = int(rng.integers(2, 7)), int(rng.integers(1, 40))
        x, labels = blobs(rng, list(rng.standard_normal((n_classes, dim))),
                          per_class=int(rng.integers(2, 8)), spread=float(rng.uniform(0.1, 2.0)))
        grid = [(c, g) for c in svm.C_GRID for g in svm.GAMMA_GRID]
        grid = [grid[i] for i in rng.permutation(len(grid))]
        results = []
        for block in (0, 1 << 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(svm, "_LOCKSTEP_BLOCK", block)
                results.append(train_grid(x, labels, grid))
        alone, merged = results
        assert alone.points == merged.points
        for name in ("dual_coef", "bias", "converged"):
            assert np.array_equal(getattr(alone, name), getattr(merged, name)), name


def nested_folds(rng, grid):
    """x, labels and the inner folds of a k1 = 3, k2 = 2 nested CV, as
    evaluation.grid_search builds them, over four classes of 10-15 rows, so
    the folds differ in size."""
    counts = rng.integers(10, 16, size=4)
    labels = np.repeat(list("abcd"), counts)
    x = rng.standard_normal((len(labels), 5)) + 1.5 * np.repeat(np.eye(4, 5), counts, axis=0)
    folds = []
    for held, (outer, _) in enumerate(ev.fold_splits(labels, 3, 0)):
        folds.extend((outer[inner], grid)
                     for inner, _ in ev.fold_splits(labels[outer], 2, held + 1))
    return x, labels, folds


class TestFoldRuns:
    """One train_ovr call over many folds gives each fold the grid of a call
    that trains that fold alone."""

    GRID = [(c, g) for c in svm.C_GRID for g in svm.GAMMA_GRID]

    # the fixture seed deals inner folds of 14, 18, 14, 18, 18 and 18 rows;
    # a run is (problems, rows), and each fold has 4 gammas x 4 C x 4 classes
    MERGED = [(64, 14), (64, 18), (64, 14), (192, 18)]

    @pytest.mark.parametrize("block, max_iter, runs", [
        (None, None, MERGED),
        # the fourth run ends halfway through the fifth fold
        (96 * 18, None, [(64, 14), (64, 18), (64, 14), (96, 18), (96, 18)]),
        (0, None, [(16, n) for n in (14, 18, 14, 18, 18, 18) for _ in range(4)]),
        (None, 12, MERGED),  # the step cap stops some problems short of KKT_TOL
    ], ids=["default", "split", "alone", "nonconverged"])
    def test_equals_one_fold_at_a_time(self, rng, monkeypatch, block, max_iter, runs):
        x, labels, folds = nested_folds(rng, self.GRID)
        if block is not None:
            monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", block)
        if max_iter is not None:
            monkeypatch.setattr(svm, "MAX_SMO_ITER", max_iter)
        seen, smo = [], svm._smo
        monkeypatch.setattr(svm, "_smo", lambda kernel, base, y, c:
                            seen.append(y.shape) or smo(kernel, base, y, c))
        merged = list(svm.train_ovr(x, labels, folds))
        assert seen == runs
        flags = []
        for got, (rows, grid) in zip(merged, folds, strict=True):
            want = train_grid(x[rows], labels[rows], grid)
            assert got.points == want.points
            for name in ("train", "dual_coef", "bias", "converged"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            flags.extend(got.converged.flat)
            probe = x[np.setdiff1d(np.arange(len(x)), rows)]
            assert np.array_equal(svm._decision_values(got, probe),
                                  svm._decision_values(want, probe))
        if max_iter is not None:
            assert any(flags) and not all(flags)

    def test_each_fold_yielded_when_its_last_run_ends(self, rng, monkeypatch):
        x, labels, folds = nested_folds(rng, self.GRID)
        monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", 96 * 18)
        events, smo = [], svm._smo
        monkeypatch.setattr(svm, "_smo", lambda kernel, base, y, c:
                            events.append("run") or smo(kernel, base, y, c))
        for models in svm.train_ovr(x, labels, folds):
            events.append(len(models.train))
        assert events == ["run", 14, "run", 18, "run", 14, "run", 18, "run", 18, 18]

    def test_empty_grid_rejected(self, rng):
        x, labels, folds = nested_folds(rng, self.GRID)
        with pytest.raises(ValueError, match="fold 1 has an empty grid"):
            next(svm.train_ovr(x, labels, [folds[0], (folds[1][0], [])]))


class TestFoldRows:
    """A run keeps each fold's distances, not its standardized rows; a fold's
    rows are standardized again only when its grid is yielded."""

    @pytest.mark.parametrize("block", [None, 96 * 18, 0], ids=["merged", "split", "alone"])
    def test_models_equal_the_kept_rows_reference(self, rng, monkeypatch, block):
        x, labels, folds = nested_folds(rng, TestFoldRuns.GRID)
        if block is not None:
            monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", block)
        merged = list(svm.train_ovr(x, labels, folds))
        for got, want in zip(merged, train_ovr_kept_rows(x, labels, folds),
                             strict=True):
            assert list(got.points) == list(want)
            for p, (train, coef, bias, converged) in enumerate(want.values()):
                for mine, ref in ((got.train, train), (got.dual_coef[p], coef),
                                  (got.bias[p], bias), (got.converged[p], converged)):
                    assert mine.dtype == ref.dtype and np.array_equal(mine, ref)

    def test_one_run_holds_one_fold_of_rows(self, monkeypatch):
        """24 folds of 24 rows x 2000 features in one run.  Keeping every
        fold's standardized rows until its models are yielded holds 24 x 375
        KiB of them at once."""
        rng = np.random.default_rng(3)
        n_folds, n, d = 24, 24, 2000
        labels = np.repeat(list("abcd"), 12)
        x = rng.standard_normal((len(labels), d)) + np.repeat(np.eye(4, d), 12, axis=0)
        grid = [(1.0, 0.01), (10.0, 0.01)]
        folds = [(np.sort(rng.permutation(len(labels))[:n]), grid) for _ in range(n_folds)]
        runs, smo = [], svm._smo
        monkeypatch.setattr(svm, "_smo", lambda kernel, base, y, c:
                            runs.append(y.shape) or smo(kernel, base, y, c))
        n_classes = 4
        problems = n_folds * len(grid) * n_classes
        rows = n * d * 8
        # what each fold keeps for its runs (means, stds, distances, targets),
        # the run's Gram stack, and a generous 16 of _smo's (problems, n) arrays
        solver = 8 * (n_folds * (2 * d + n * n + n_classes * n) + n_folds * n * n
                      + 16 * problems * n)
        tracemalloc.start()
        try:
            for models in svm.train_ovr(x, labels, folds):
                assert len(models.points) == len(grid)
                del models
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == [(problems, n)]
        assert peak < 3 * rows + solver, (peak, rows, solver)


def support_sets(dual_coef):
    """The distinct support-vector row sets of a (..., rows) coefficient array."""
    return {sv.tobytes() for sv in dual_coef.reshape(-1, dual_coef.shape[-1]) != 0.0}


class TestSharedPrediction:
    """predict_batch shares kernels across a grid; each value keeps the bits
    of the per-class kernel in oracles.decision_values."""

    def assert_matches_per_class(self, grid, x):
        values = svm._decision_values(grid, x)
        want = decision_values(grid, x)
        assert values.shape == want.shape == (
            len(grid.points), len(np.atleast_2d(x)), len(grid.classes))
        assert np.array_equal(values, want)
        assert svm.predict_batch(grid, x) == [
            [grid.classes[i] for i in np.argmax(v, axis=1)] for v in values]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_grid_equals_per_class_kernels(self, seed):
        rng = np.random.default_rng(seed)
        n_classes, dim = int(rng.integers(2, 6)), int(rng.integers(1, 30))
        x, labels = blobs(rng, list(rng.standard_normal((n_classes, dim))),
                          per_class=int(rng.integers(2, 7)), spread=float(rng.uniform(0.1, 2.0)))
        grid = grid_models(x, labels)
        probe = x.mean(axis=0) + rng.standard_normal((int(rng.integers(2, 40)), dim))
        self.assert_matches_per_class(grid, probe)
        self.assert_matches_per_class(grid, probe[:1])
        self.assert_matches_per_class(grid, probe[0])

    def test_classes_with_different_support_sets(self, rng):
        x, labels = blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (3.0, 3.0)],
                          per_class=9, spread=0.6)
        grid = grid_models(x, labels)
        assert all(len(support_sets(coef)) == len(grid.classes) for coef in grid.dual_coef)
        self.assert_matches_per_class(grid, rng.uniform(-1.0, 4.0, (25, 2)))

    def test_class_with_empty_support_set(self, rng):
        x, labels = blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], per_class=6, spread=1.0)
        grid = grid_models(x, labels)
        coef = grid.dual_coef.copy()
        coef[5, 1] = 0.0
        grid = grid._replace(dual_coef=coef)
        probe = rng.standard_normal((7, 2))
        self.assert_matches_per_class(grid, probe)
        # an empty set leaves that class's bias alone
        assert np.array_equal(svm._decision_values(grid, probe)[5, :, 1],
                              np.full(7, grid.bias[5, 1]))

    def test_single_model(self, rng):
        x, labels = blobs(rng, [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0)], per_class=8, spread=1.0)
        model = train_one(x, labels, (1.0, 0.1))
        self.assert_matches_per_class(model, x)
        self.assert_matches_per_class(model, x[3])

    def test_one_distance_block_per_support_set(self, rng, monkeypatch):
        x, labels = blobs(rng, [(0.0,) * 4, (2.0,) * 4, (0.0, 4.0, 0.0, 0.0)],
                          per_class=6, spread=1.5)
        grid = grid_models(x, labels)
        n_sets = len(support_sets(grid.dual_coef))
        assert n_sets < grid.bias.size
        calls = []
        real = svm._sq_dist
        monkeypatch.setattr(svm, "_sq_dist", lambda a, b: calls.append(b.shape) or real(a, b))
        svm.predict_batch(grid, x[:5])
        assert len(calls) == n_sets


def test_default_grids():
    assert svm.C_GRID == (0.1, 1.0, 10.0, 100.0)
    assert svm.GAMMA_GRID == (1.0, 0.1, 0.01, 0.001)
    assert len(svm.C_GRID) * len(svm.GAMMA_GRID) == 16
