import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid import evaluation as ev
from eegid import svm
from eegid.errors import (
    DegenerateVariance,
    EegIdError,
    InsufficientEpochs,
    MissingCondition,
    TooFewClasses,
    UnknownLabel,
)

from conftest import make_recording, train_grid, train_one
from oracles import decision_values, smo_scalar
import synth


def cluster_features(rng, n_classes, per_class, dim=4, spread=0.1):
    """Well-separated clusters: nested CV should score 100% on these."""
    x, labels = [], []
    for k in range(n_classes):
        center = np.zeros(dim)
        center[k % dim] = 3.0 * (1 + k // dim)
        x.append(center + spread * rng.standard_normal((per_class, dim)))
        labels.extend([f"d1/S{k:03d}"] * per_class)
    return np.vstack(x), np.array(labels)


class TestFoldPlan:
    """ev.fold_splits, and the checks run_nested_cv makes before using it."""

    def test_paper_scale_fold_sizes(self):
        # 184 subjects x 15 epochs into 10 folds: five folds get two epochs
        # per subject, five get one
        labels = np.repeat([f"s{i}" for i in range(184)], 15)
        sizes = sorted(len(test) for _, test in ev.fold_splits(labels, 10, 0))
        assert set(sizes) == {184, 368}
        assert sum(sizes) == 2760

    def test_partition_is_exact(self, rng):
        labels = np.repeat(["a", "b", "c"], 12)
        splits = ev.fold_splits(labels, 4, 3)
        all_idx = sorted(i for _, test in splits for i in test.tolist())
        assert all_idx == list(range(36))
        for train, test in splits:
            assert sorted(train.tolist() + test.tolist()) == list(range(36))

    def test_every_subject_in_every_fold(self):
        labels = np.repeat([f"s{i}" for i in range(5)], 20)
        for _, test in ev.fold_splits(labels, 10, 1):
            assert set(labels[test].tolist()) == set(labels.tolist())

    def test_k1_of_one_rejected(self):
        labels = np.repeat(["a", "b"], 10)
        with pytest.raises(ValueError, match="k1"):
            ev.run_nested_cv(np.zeros((20, 2)), labels, k1=1)
        with pytest.raises(ValueError, match="k2"):
            ev.run_nested_cv(np.zeros((20, 2)), labels, k1=2, k2=1)

    def test_insufficient_epochs(self):
        labels = np.array(["a"] * 10 + ["b"] * 3)
        with pytest.raises(InsufficientEpochs, match="'b'"):
            ev.run_nested_cv(np.zeros((13, 2)), labels, k1=10)

    def test_more_folds_than_epochs(self):
        # fold h is empty unless some subject has more than h epochs
        labels = np.array(["a"] * 3 + ["b"] * 5)
        with pytest.raises(InsufficientEpochs, match="6 folds .* most any subject has is 5"):
            ev.fold_splits(labels, 6, 0)
        assert all(len(test) for _, test in ev.fold_splits(labels, 5, 0))

    def test_inner_folds_need_epochs(self, rng):
        # 10 epochs per subject leave 8 per subject in each outer training fold
        x, labels = cluster_features(rng, 3, 10, dim=3, spread=1.0)
        with pytest.raises(InsufficientEpochs, match="9 folds .* is 8$"):
            ev.run_nested_cv(x, labels, k1=5, k2=9)
        report = ev.run_nested_cv(x, labels, k1=5, k2=8)
        assert len(report.fold_accuracies) == 5

    def test_rows_and_labels_must_agree(self):
        labels = np.repeat(["a", "b"], 10)
        with pytest.raises(ValueError, match="disagree in size"):
            ev.run_nested_cv(np.zeros((19, 2)), labels, k1=2, k2=2)

    def test_seed_determinism(self):
        labels = np.repeat(["a", "b", "c"], 15)

        def folds(seed):
            return [test.tolist() for _, test in ev.fold_splits(labels, 5, seed)]

        assert folds(7) == folds(7)
        assert folds(7) != folds(8)

    def test_golden_indices(self):
        # the per-subject shuffled round-robin assignment, pinned index by index
        labels = np.array(["b", "a", "c", "a", "b", "a", "c", "b", "a", "c", "b"])
        splits = ev.fold_splits(labels, 3, 2)
        assert [test.tolist() for _, test in splits] == [
            [0, 2, 3, 8, 10], [4, 5, 9], [1, 6, 7]]
        assert [train.tolist() for train, _ in splits] == [
            [1, 4, 5, 6, 7, 9], [0, 1, 2, 3, 6, 7, 8, 10], [0, 2, 3, 4, 5, 8, 9, 10]]
        for train, test in splits:
            assert train.dtype == test.dtype == np.intp


def _loop_error(train_counts, k1, k2, test_counts=None):
    """The EegIdError that run_experiment's fold loop raises on tiny random
    features with these {subject: epochs} counts, with fold_problem stubbed
    out, or None if the loop runs through.  The loop's guards sit in
    fold_splits, train_ovr's fold planning and _cross_validate; to keep
    the examples fast the grid has one point, and SMO stops at once, with
    every alpha 0 (its models predict the first class)."""
    rng = np.random.default_rng(0)
    features = {condition: (rng.standard_normal((sum(counts.values()), 2)),
                            np.repeat(list(counts), list(counts.values())))
                for condition, counts in (("resting", train_counts), ("task", test_counts))
                if counts is not None}
    config = ev.ExperimentConfig(metric="COR", band="gamma", k1=k1, k2=k2,
                                 test_condition="resting" if test_counts is None else "task")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "fold_problem", lambda *args: None)
        patch.setattr(ev, "GRID", (svm.SvmHyperparams(c=1.0, gamma=0.5),))
        patch.setattr(svm, "_smo", lambda kernel, base, y, c: (
            np.zeros(y.shape), np.zeros(y.shape), np.ones(len(y), bool)))
        patch.setattr(ev, "_features_cached", lambda corpus, config, condition, *args:
                      features[condition])
        try:
            ev.run_experiment(None, config)
        except EegIdError as exc:
            return exc
    return None


class TestFoldProblem:
    """ev.fold_problem predicts from epoch counts alone what the fold loop meets."""

    def test_held_counts_what_fold_splits_deals(self):
        for n in range(1, 31):
            labels = np.array(["a"] * n + ["b"] * 10)
            for k in range(2, 11):
                dealt = [int(np.count_nonzero(labels[test] == "a"))
                         for _, test in ev.fold_splits(labels, k, n)]
                assert dealt == [ev._held(n, k, h) for h in range(k)], (n, k)

    def test_subject_below_k1(self):
        problem = ev.fold_problem({"a": 10, "c": 2, "b": 3}, 10, 3)
        assert isinstance(problem, InsufficientEpochs)
        assert str(problem) == "subject 'b' has fewer epochs than outer folds: 3 for k1 = 10"

    def test_k2_above_every_outer_training_count(self):
        # outer fold 0 holds 2 of 10 epochs, so it trains on 8 of each subject's
        assert ev.fold_problem({"a": 10, "b": 10}, 5, 8) is None
        assert str(ev.fold_problem({"a": 10, "b": 10}, 5, 9)) == (
            "9 folds need a subject with at least 9 epochs, but the most any subject has is 8")

    def test_untrained_test_subject(self):
        problem = ev.fold_problem({"a": 5, "b": 5}, 10, 2, {"a": 1, "d": 2, "c": 1})
        assert isinstance(problem, MissingCondition)
        assert str(problem) == "test-condition subjects absent from training data: ['c', 'd']"
        assert ev.fold_problem({"a": 5, "b": 5}, 10, 2, {"b": 3}) is None

    def test_inner_training_set_with_one_subject(self):
        # outer fold 0 trains on 2 of A's epochs and 1 of B's; inner fold 0
        # holds B's one epoch, so it trains on A alone
        problem = ev.fold_problem({"A": 4, "B": 2}, 2, 2)
        assert isinstance(problem, TooFewClasses)
        assert str(problem) == ("inner fold 0 of outer fold 0 trains on 1 subject(s); "
                                "a classifier needs 2")
        assert isinstance(ev.fold_problem({"A": 4}, 2, 2, {"A": 1}), TooFewClasses)

    def test_paper_scale_passes(self):
        counts = {f"d/S{i:03d}": 150 for i in range(184)}
        assert ev.fold_problem(counts, 10, 3) is None
        assert ev.fold_problem(counts, 10, 3, counts) is None

    def test_run_nested_cv_refuses_before_training(self, monkeypatch):
        def train_ovr(*args):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(svm, "train_ovr", train_ovr)
        labels = np.array(["A"] * 4 + ["B"] * 2)
        with pytest.raises(TooFewClasses, match="inner fold 0 of outer fold 0 trains on 1"):
            ev.run_nested_cv(np.random.default_rng(0).standard_normal((6, 2)), labels,
                             k1=2, k2=2)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(counts=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           k1=st.integers(2, 10), k2=st.integers(2, 10), mismatched=st.booleans(),
           test=st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(any))
    def test_predicts_the_fold_loop(self, counts, k1, k2, mismatched, test):
        # test epochs of subjects d/S0, d/S1, ...; 0 leaves a subject out
        train_counts = {f"d/S{i}": n for i, n in enumerate(counts)}
        test_counts = {f"d/S{i}": n for i, n in enumerate(test) if n} if mismatched else None
        problem = ev.fold_problem(train_counts, k1, k2, test_counts)
        if not mismatched and min(counts) < k1:
            # a policy: the loop would run with a subject missing from some folds
            first = next(s for s, n in sorted(train_counts.items()) if n < k1)
            assert isinstance(problem, InsufficientEpochs)
            assert str(problem).startswith(f"subject {first!r} has fewer epochs")
            return
        loop = _loop_error(train_counts, k1, k2, test_counts)
        assert type(loop) is type(problem), (loop, problem)
        if isinstance(problem, (InsufficientEpochs, MissingCondition)):
            assert str(loop) == str(problem)


def train_ovr_scalar(x, labels, params):
    """One-vs-rest training, one smo_scalar call per class and grid point."""
    classes = tuple(sorted(set(labels.tolist())))
    means, stds = svm.fit_standardizer(x)
    xs = svm.apply_standardizer(means, stds, x)
    kernel = svm._rbf_cross(xs, xs, params.gamma)
    coefs, biases, converged = [], [], []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        alphas, _, bias, ok = smo_scalar(kernel, y, params.c)
        coefs.append(np.where(alphas > 1e-12, alphas * y, 0.0))
        biases.append(bias)
        converged.append(ok)
    return svm.MulticlassSvmModel(classes, means, stds, params, xs, np.array(coefs),
                                  np.array(biases), np.array(converged))


def model_arrays(obj):
    """Every numpy array reachable from a model through fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from model_arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from model_arrays(item)


def grid_search_per_point(x, labels, k2, grid, seed):
    """The grid search as one scalar-trained model per point and fold."""
    audit = {}
    for params in grid:
        accs = []
        for train_idx, val_idx in ev.fold_splits(labels, k2, seed):
            model = train_ovr_scalar(x[train_idx], labels[train_idx], params)
            values = decision_values(model, x[val_idx])
            preds = [model.classes[i] for i in np.argmax(values, axis=1)]
            accs.append(ev._accuracy(labels[val_idx].tolist(), preds))
        audit[params] = float(np.mean(accs))
    best = sorted(audit, key=lambda p: (-audit[p], p.c, p.gamma))[0]
    return best, audit


def grid(cs, gammas):
    return tuple(svm.SvmHyperparams(c=c, gamma=g) for c in cs for g in gammas)


def search_all_rows(x, labels, k2, seed):
    """(best, audit) of a grid search over every row of x, with inner seed `seed`."""
    [(best, audit, _)] = ev.grid_search(x, labels, [(np.arange(len(labels)), None)], k2,
                                        seed - 1)
    return best, audit


class TestGridSearch:
    @pytest.mark.parametrize("points", [
        ev.GRID,
        tuple(reversed(ev.GRID[::3])) + ev.GRID[1:4],           # unsorted
        grid((10.0, 0.1, 1.0), (0.1, 0.1)) + grid((100.0,), (0.1, 1.0)),  # repeated gamma
        grid((0.1, 1.0, 10.0, 100.0), (0.01,)),                  # a single gamma
        grid((1.0,), (0.1,)),                                     # a single point
    ], ids=["default", "unsorted", "repeated-gamma", "single-gamma", "one-point"])
    def test_equals_per_point_scalar_loop(self, rng, monkeypatch, points):
        x, labels = cluster_features(rng, 4, 9, dim=6, spread=1.5)
        monkeypatch.setattr(ev, "GRID", points)
        best, audit = search_all_rows(x, labels, k2=3, seed=5)
        best_ref, audit_ref = grid_search_per_point(x, labels, 3, points, seed=5)
        assert list(audit.items()) == list(audit_ref.items())
        assert best == best_ref

    def test_grid_models_equal_single_point_models(self, rng):
        x, labels = cluster_features(rng, 3, 8, dim=5, spread=1.0)
        points = ev.GRID[::-1]
        models = train_grid(x, labels, points)
        assert set(models) == set(points)
        for params in points:
            one, many = train_one(x, labels, params), models[params]
            assert one.classes == many.classes
            assert np.array_equal(one.means, many.means)
            assert np.array_equal(one.stds, many.stds)
            assert one.params == many.params == params
            assert np.array_equal(one.train, many.train)
            for name in ("dual_coef", "bias", "converged"):
                a, b = getattr(one, name), getattr(many, name)
                assert a.shape[0] == len(one.classes), name
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_grid_models_share_one_training_matrix(self, rng):
        # 60 noisy features: at the larger gammas most training rows are
        # support vectors of every class
        n_classes = 6
        x, labels = cluster_features(rng, n_classes, 5, dim=60, spread=3.0)
        n, d = x.shape
        # one training matrix, the standardizer's means and stds, and the
        # float coefficient, float bias and bool converged arrays
        bound = x.nbytes + 2 * d * 8 + n_classes * (n * 8 + 8 + 1)
        models = list(train_grid(x, labels, ev.GRID).values())
        for model in models:
            assert sum(a.nbytes for a in model_arrays(model)) <= bound
        shared = models[0].train
        assert shared.shape == x.shape
        assert all(np.shares_memory(model.train, shared) for model in models)

    def test_one_distance_block_per_support_set_and_fold(self, rng, monkeypatch):
        # every inner fold's training block as their one run starts, then per
        # inner fold one validation block per distinct support-vector row set
        # of the fold's 16 models
        x, labels = cluster_features(rng, 4, 9, dim=6, spread=1.5)
        training, validation, folds = [], [], ev.fold_splits(labels, 3, 5)
        for train_idx, val_idx in folds:
            models = train_grid(x[train_idx], labels[train_idx], ev.GRID).values()
            sets = {sv.tobytes() for m in models for sv in m.dual_coef != 0.0}
            assert len(sets) < sum(len(m.classes) for m in models)
            training.append((len(train_idx), True))
            validation.extend([(len(val_idx), False)] * len(sets))
        want = training + validation
        calls, predictions = [], []
        sq_dist, predict_batch = svm._sq_dist, svm.predict_batch
        monkeypatch.setattr(svm, "_sq_dist",
                            lambda a, b: calls.append((len(a), a is b)) or sq_dist(a, b))
        monkeypatch.setattr(svm, "predict_batch",
                            lambda models, v: predictions.append(len(v))
                            or predict_batch(models, v))
        search_all_rows(x, labels, k2=3, seed=5)
        assert calls == want
        assert predictions == [len(val_idx) for _, val_idx in folds]

    def test_nonconverged_models_reported(self, rng, monkeypatch, capsys):
        x, labels = cluster_features(rng, 3, 10, spread=1.0)
        ev.run_nested_cv(x, labels, k1=2, k2=2)
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(svm, "MAX_SMO_ITER", 2)
        ev.run_nested_cv(x, labels, k1=2, k2=2)
        err = capsys.readouterr().err.splitlines()
        # per outer fold: 2 inner folds x 16 points x 3 classes, then 3 classes
        assert err == [
            line
            for fold in (0, 1)
            for line in (
                "warning: SMO did not converge in 96 of 96 binary SVMs (grid search)",
                "warning: SMO did not converge in 3 of 3 binary SVMs "
                f"(final fit, outer fold {fold})",
            )
        ]


    def test_audit_covers_sixteen_points(self, rng):
        x, labels = cluster_features(rng, 3, 12)
        best, audit = search_all_rows(x, labels, k2=3, seed=0)
        assert len(audit) == 16
        assert best in audit
        assert audit[best] == max(audit.values())

    def test_tie_break_prefers_smaller_c_then_gamma(self, rng):
        # fully separable clusters: many grid points reach 100%, the
        # smallest C (then gamma) must win
        x, labels = cluster_features(rng, 3, 12, spread=0.01)
        best, audit = search_all_rows(x, labels, k2=3, seed=0)
        top = max(audit.values())
        winners = [p for p, a in audit.items() if a == top]
        expected = sorted(winners, key=lambda p: (p.c, p.gamma))[0]
        assert best == expected

    def test_known_optimum_recovered(self, rng):
        # gamma = 1000 makes every point its own island (train-only memory),
        # so validation accuracy collapses; moderate gammas stay perfect.
        # check the search never returns an off-grid value and scores sanely
        x, labels = cluster_features(rng, 4, 9, spread=0.2)
        best, audit = search_all_rows(x, labels, k2=3, seed=0)
        assert best.c in svm.DEFAULT_C_GRID
        assert best.gamma in svm.DEFAULT_GAMMA_GRID
        assert audit[best] >= 0.9


class TestStandardError:
    def test_hand_example(self):
        # [0.9, 1.0]: population std 0.05, over sqrt(2)
        assert ev.standard_error([0.9, 1.0]) == pytest.approx(
            0.05 / np.sqrt(2), abs=1e-15)

    def test_constant_folds_zero(self):
        assert ev.standard_error([0.8, 0.8, 0.8]) == pytest.approx(0.0, abs=1e-15)


class TestConfusionMatrix:
    def test_hand_example(self):
        truth = ["a", "a", "b", "b", "b"]
        preds = ["a", "b", "b", "b", "a"]
        counts = ev.confusion_matrix(truth, preds, ("a", "b"))
        np.testing.assert_array_equal(counts, [[1, 1], [1, 2]])

    def test_trace_equals_correct_count(self, rng):
        classes = ("a", "b", "c")
        truth = rng.choice(classes, 60).tolist()
        preds = rng.choice(classes, 60).tolist()
        counts = ev.confusion_matrix(truth, preds, classes)
        assert counts.sum() == 60
        assert np.trace(counts) == sum(t == p for t, p in zip(truth, preds))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            ev.confusion_matrix(["a"], ["z"], ("a", "b"))
        with pytest.raises(UnknownLabel):
            ev.confusion_matrix(["z"], ["a"], ("a", "b"))

    def test_pgm_emission(self):
        counts = np.array([[4, 0], [1, 3]])
        buf = io.BytesIO()
        ev.confusion_to_pgm(counts, buf)
        blob = buf.getvalue()
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, [255, 0, 64, 191])

    def test_csv_emission(self):
        counts = np.array([[4, 0], [1, 3]])
        buf = io.StringIO()
        ev.confusion_to_csv(counts, ("a", "b"), buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["true\\pred,a,b", "a,4,0", "b,1,3"]


class TestNestedCv:
    def test_separable_is_perfect(self, rng):
        x, labels = cluster_features(rng, 4, 20)
        report = ev.run_nested_cv(x, labels, k1=5, k2=3, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.standard_error == 0.0
        assert np.trace(report.confusion) == 80

    def test_shuffled_labels_hit_chance(self, rng):
        # destroy the feature-label link: accuracy must sit near 1/n_classes
        x, labels = cluster_features(rng, 10, 12)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        report = ev.run_nested_cv(x, shuffled, k1=4, k2=2, seed=0)
        chance = 1.0 / 10
        spread = max(3 * report.standard_error, 0.08)
        assert abs(report.mean_accuracy - chance) <= spread

    def test_two_solver_runs_per_config(self, rng, monkeypatch):
        # every inner fold of the three outer folds in one lockstep run, then
        # the three final fits in another
        x, labels = cluster_features(rng, 4, 12, spread=1.0)
        runs, smo = [], svm._smo
        monkeypatch.setattr(svm, "_smo", lambda kernel, base, y, c:
                            runs.append(y.shape) or smo(kernel, base, y, c))
        report = ev.run_nested_cv(x, labels, k1=3, k2=2, seed=0)
        assert runs == [(3 * 2 * 16 * 4, 16), (3 * 4, 32)]
        assert len(report.fold_accuracies) == 3

    def test_no_leakage_between_folds(self):
        labels = np.repeat(["a", "b", "c"], 10)
        for train, test in ev.fold_splits(labels, 5, 0):
            assert not set(test.tolist()) & set(train.tolist())

    def test_report_roundtrips_to_json(self, rng):
        x, labels = cluster_features(rng, 3, 10)
        report = ev.run_nested_cv(x, labels, k1=5, k2=2, seed=0)
        d = report.to_dict()
        again = json.loads(json.dumps(d))
        assert again["mean_accuracy"] == report.mean_accuracy
        assert len(again["fold_accuracies"]) == 5
        assert len(again["chosen_params"]) == 5

    def test_deterministic_given_seed(self, rng):
        x, labels = cluster_features(rng, 3, 10, spread=0.8)
        r1 = ev.run_nested_cv(x, labels, k1=5, k2=2, seed=11)
        r2 = ev.run_nested_cv(x, labels, k1=5, k2=2, seed=11)
        assert r1.fold_accuracies == r2.fold_accuracies
        assert r1.chosen_params == r2.chosen_params


@pytest.fixture(scope="module")
def raw_corpus():
    return synth.synthetic_corpus(n_subjects=4, n_channels=6, duration_s=30.0,
                                  seed=5)


@pytest.fixture(scope="module")
def small_corpus(raw_corpus):
    """raw_corpus preprocessed with the default filter settings."""
    return synth.preprocessed(synth.as_built(raw_corpus))


class TestExperiment:
    def test_epoch_features_shapes(self, small_corpus):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        recordings = list(ev.band_epochs(small_corpus, config, "resting"))
        assert len(recordings) == 4
        for epochs, _, _ in recordings:
            assert epochs.shape == (7, 6, 512)  # 30 s / 4 s = 7 per subject
            assert epochs.flags.c_contiguous
        x, labels, provenance = ev.epoch_features(recordings, "PLV")
        assert labels.shape == (28,)
        assert provenance.shape == (28, 3)
        assert x.shape == (28, 6 * 5 // 2)
        x_gb, _, _ = ev.epoch_features(recordings, "PLV", "ND")
        assert x_gb.shape == (28, 6)

    def test_band_epochs_provenance(self, rng):
        corpus = [make_recording(rng.standard_normal((2, 1024)), subject="S7",
                                 dataset="d2", condition="task"),
                  make_recording(rng.standard_normal((2, 512)), subject="S8",
                                 dataset="d3", condition="task")]
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        corpus = synth.preprocessed(synth.as_built(corpus), **config.filters)
        recordings = list(ev.band_epochs(corpus, config, "task"))
        assert [epochs.shape for epochs, _, _ in recordings] == [(2, 2, 512), (1, 2, 512)]
        labels = np.concatenate([labels for _, labels, _ in recordings])
        provenance = np.concatenate([provenance for _, _, provenance in recordings])
        assert labels.tolist() == ["d2/S7", "d2/S7", "d3/S8"]
        assert [tuple(p) for p in provenance.tolist()] == [
            ("d2", "S7", "task"), ("d2", "S7", "task"), ("d3", "S8", "task")]

    def test_band_epochs_needs_two_channels(self, rng):
        corpus = [make_recording(rng.standard_normal((1, 1024)), subject=f"S{i}")
                  for i in range(2)]
        config = ev.ExperimentConfig(metric="COR", band="gamma")
        corpus = synth.preprocessed(synth.as_built(corpus), **config.filters)
        with pytest.raises(ValueError, match=r"corpus has 1 channel\(s\)"):
            ev.band_epochs(corpus, config, "resting")

    def test_degenerate_epoch_names_recording(self, small_corpus):
        config = ev.ExperimentConfig(metric="COR", band="gamma")
        recordings = list(ev.band_epochs(small_corpus, config, "resting"))
        recordings[1][0][2, 2] = 0.0  # epoch 9 overall: 7 per subject
        with pytest.raises(DegenerateVariance, match=r"\[2\] in epoch 9 \[synth/S001\]"):
            ev.epoch_features(recordings, "COR")

    @pytest.mark.parametrize("filters", [{"notch_hz": 40.0}], ids=["other-notch"])
    def test_band_epochs_refuses_other_preprocessing(self, raw_corpus, filters):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        corpus = synth.preprocessed(synth.as_built(raw_corpus), **filters)
        with pytest.raises(ValueError, match="preprocessed as"):
            ev.band_epochs(corpus, config, "resting")

    def test_missing_condition(self, small_corpus):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        with pytest.raises(MissingCondition):
            ev.band_epochs(small_corpus, config, "task")

    def test_matched_experiment(self, small_corpus):
        config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                     epoch_length_s=2.0, k1=5, k2=2, seed=0)
        report = ev.run_experiment(small_corpus, config)
        assert report.n_subjects == 4
        assert report.n_epochs == 4 * 15
        assert not report.mismatched
        assert report.cv.mean_accuracy >= 0.9  # strongly identifiable corpus

    def test_matched_report_is_nested_cv_of_the_features(self, small_corpus):
        # nested CV of the cached train-condition features, with the config's
        # k1, k2 and seed, as in the mismatched recipe test below
        config = ev.ExperimentConfig(metric="COR", band="alpha", epoch_length_s=2.0,
                                     k1=5, k2=2, seed=3)
        report = ev.run_experiment(small_corpus, config)
        x, labels = ev._features_cached(small_corpus, config, "resting")
        cv = ev.run_nested_cv(x, labels, config.k1, config.k2, config.seed)
        assert report.config == config
        assert not report.mismatched
        assert report.n_epochs == len(labels) == 4 * 15
        assert report.n_subjects == 4
        assert report.policy == "default"
        for f in dataclasses.fields(ev.CvReport):
            mine, ref = getattr(report.cv, f.name), getattr(cv, f.name)
            if f.name == "confusion":
                np.testing.assert_array_equal(mine, ref)
            else:
                assert mine == ref, f.name

    def test_mismatched_conditions(self):
        rest = synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                      duration_s=24.0, seed=9,
                                      condition="resting")
        task = synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                      duration_s=24.0, seed=9,
                                      condition="task")
        config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                     epoch_length_s=2.0,
                                     train_condition="resting",
                                     test_condition="task", k2=2, seed=0)
        report = ev.run_experiment(synth.preprocessed(synth.as_built(rest + task),
                                                      **config.filters), config)
        assert report.mismatched
        assert len(report.cv.fold_accuracies) == 1
        assert report.cv.standard_error == 0.0
        assert 0.0 <= report.cv.mean_accuracy <= 1.0

    def test_mismatched_report_is_one_train_test_split(self):
        # grid search on the train condition with seed + 1, a final fit, and
        # predictions on the test condition, as one fold of the fold loop
        corpus = [rec for condition in ("resting", "task")
                  for rec in synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                                    duration_s=24.0, seed=4,
                                                    condition=condition)]
        config = ev.ExperimentConfig(metric="COR", band="alpha", epoch_length_s=2.0,
                                     train_condition="resting", test_condition="task",
                                     k2=2, seed=3)
        corpus = synth.preprocessed(synth.as_built(corpus), **config.filters)
        report = ev.run_experiment(corpus, config)
        x_train, y_train = ev._features_cached(corpus, config, "resting")
        x_test, y_test = ev._features_cached(corpus, config, "task")
        params, audit = search_all_rows(x_train, y_train, k2=2, seed=4)
        [preds] = svm.predict_batch([train_one(x_train, y_train, params)], x_test)
        truth = y_test.tolist()
        acc = sum(t == p for t, p in zip(truth, preds)) / len(truth)
        class_order = tuple(sorted(set(y_train.tolist())))
        assert report.mismatched
        assert report.n_epochs == len(y_train) + len(y_test)
        assert report.n_subjects == 3
        assert report.cv.fold_accuracies == [acc]
        assert report.cv.mean_accuracy == acc
        assert report.cv.standard_error == 0.0
        assert report.cv.chosen_params == [(params.c, params.gamma)]
        assert report.cv.class_order == class_order
        np.testing.assert_array_equal(report.cv.confusion,
                                      ev.confusion_matrix(truth, preds, class_order))
        assert report.cv.seed == 3
        assert report.cv.grid_audits == [audit]

    def test_mismatched_missing_subjects_rejected(self):
        rest = synth.synthetic_corpus(n_subjects=2, n_channels=6,
                                      duration_s=24.0, seed=9,
                                      condition="resting")
        task = synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                      duration_s=24.0, seed=9,
                                      condition="task")
        config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                     epoch_length_s=2.0,
                                     train_condition="resting",
                                     test_condition="task", k2=2)
        with pytest.raises(MissingCondition):
            ev.run_experiment(synth.preprocessed(synth.as_built(rest + task), **config.filters),
                              config)

    def test_feature_cache_roundtrip(self, small_corpus, tmp_path):
        config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                     epoch_length_s=2.0, k1=5, k2=2, seed=0)
        first = ev.run_experiment(small_corpus, config,
                                  feature_cache_dir=tmp_path, cache_tag="t1")
        assert list(tmp_path.glob("features-*.npz"))
        second = ev.run_experiment(small_corpus, config,
                                   feature_cache_dir=tmp_path, cache_tag="t1")
        assert ev.report_to_json(first) == ev.report_to_json(second)

    @pytest.mark.parametrize("field, value", [
        ("filter_order", 2), ("notch_hz", 0.0), ("notch_q", 10.0)])
    def test_feature_cache_keyed_on_filter_settings(self, raw_corpus,
                                                    tmp_path, field, value):
        base = ev.ExperimentConfig(metric="COR", band="gamma",
                                   epoch_length_s=2.0)
        changed = ev.ExperimentConfig(metric="COR", band="gamma",
                                      epoch_length_s=2.0, **{field: value})
        corpus = {config: synth.preprocessed(synth.as_built(raw_corpus), **config.filters)
                  for config in (base, changed)}
        x_base, _ = ev._features_cached(corpus[base], base, "resting",
                                        cache_dir=tmp_path, cache_tag="t1")
        x, _ = ev._features_cached(corpus[changed], changed, "resting",
                                   cache_dir=tmp_path, cache_tag="t1")
        assert len(list(tmp_path.glob("features-*.npz"))) == 2
        assert not np.array_equal(x, x_base)
        cold, _ = ev._features_cached(corpus[changed], changed, "resting")
        np.testing.assert_array_equal(x, cold)

    def test_config_name(self):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        assert config.name() == "plv_fc_gamma_4s_resting"
        config = ev.ExperimentConfig(metric="COR", band="delta", gb_metric="EC",
                                     epoch_length_s=2.0,
                                     train_condition="resting",
                                     test_condition="task")
        assert config.name() == "cor_ec_delta_2s_resting-vs-task"
