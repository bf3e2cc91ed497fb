import io
import json

import numpy as np
import pytest

from eegid import evaluation as ev
from eegid import svm, synth
from eegid.errors import InsufficientEpochs, MissingCondition, UnknownLabel


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
    def test_paper_scale_fold_sizes(self):
        # 184 subjects x 15 epochs into 10 folds: five folds get two epochs
        # per subject, five get one
        labels = np.repeat([f"s{i}" for i in range(184)], 15)
        plan = ev.make_fold_plan(labels, k1=10, k2=3, seed=0)
        sizes = sorted(len(f) for f in plan.outer_folds)
        assert set(sizes) == {184, 368}
        assert sum(sizes) == 2760

    def test_partition_is_exact(self, rng):
        labels = np.repeat(["a", "b", "c"], 12)
        plan = ev.make_fold_plan(labels, k1=4, k2=2, seed=3)
        all_idx = sorted(i for f in plan.outer_folds for i in f)
        assert all_idx == list(range(36))

    def test_every_subject_in_every_fold(self):
        labels = np.repeat([f"s{i}" for i in range(5)], 20)
        plan = ev.make_fold_plan(labels, k1=10, k2=3, seed=1)
        for fold in plan.outer_folds:
            assert {labels[i] for i in fold} == set(labels.tolist())

    def test_k1_of_one_rejected(self):
        with pytest.raises(ValueError):
            ev.make_fold_plan(np.repeat(["a", "b"], 10), k1=1)

    def test_insufficient_epochs(self):
        labels = np.array(["a"] * 10 + ["b"] * 3)
        with pytest.raises(InsufficientEpochs):
            ev.make_fold_plan(labels, k1=10)

    def test_seed_determinism(self):
        labels = np.repeat(["a", "b", "c"], 15)
        p1 = ev.make_fold_plan(labels, seed=7, k1=5)
        p2 = ev.make_fold_plan(labels, seed=7, k1=5)
        p3 = ev.make_fold_plan(labels, seed=8, k1=5)
        assert p1.outer_folds == p2.outer_folds
        assert p1.outer_folds != p3.outer_folds


class TestGridSearch:
    def test_audit_covers_sixteen_points(self, rng):
        x, labels = cluster_features(rng, 3, 12)
        best, audit = ev.grid_search(x, labels, k2=3, seed=0)
        assert len(audit) == 16
        assert best in audit
        assert audit[best] == max(audit.values())

    def test_single_point_grid_shortcut(self, rng):
        x, labels = cluster_features(rng, 2, 8)
        only = svm.SvmHyperparams(c=1.0, gamma=0.1)
        best, audit = ev.grid_search(x, labels, grid=(only,))
        assert best == only
        assert audit == {only: None}

    def test_tie_break_prefers_smaller_c_then_gamma(self, rng):
        # fully separable clusters: many grid points reach 100%, the
        # smallest C (then gamma) must win
        x, labels = cluster_features(rng, 3, 12, spread=0.01)
        best, audit = ev.grid_search(x, labels, k2=3, seed=0)
        top = max(audit.values())
        winners = [p for p, a in audit.items() if a == top]
        expected = sorted(winners, key=lambda p: (p.c, p.gamma))[0]
        assert best == expected

    def test_known_optimum_recovered(self, rng):
        # gamma = 1000 makes every point its own island (train-only memory),
        # so validation accuracy collapses; moderate gammas stay perfect.
        # check the search never returns an off-grid value and scores sanely
        x, labels = cluster_features(rng, 4, 9, spread=0.2)
        best, audit = ev.grid_search(x, labels, k2=3, seed=0)
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
        plan = ev.make_fold_plan(labels, k1=5, k2=3, seed=0)
        report = ev.run_nested_cv(x, labels, plan)
        assert report.mean_accuracy == 1.0
        assert report.standard_error == 0.0
        assert np.trace(report.confusion) == 80

    def test_shuffled_labels_hit_chance(self, rng):
        # destroy the feature-label link: accuracy must sit near 1/n_classes
        x, labels = cluster_features(rng, 10, 12)
        shuffled = labels.copy()
        rng.shuffle(shuffled)
        plan = ev.make_fold_plan(shuffled, k1=4, k2=2, seed=0)
        report = ev.run_nested_cv(x, shuffled, plan)
        chance = 1.0 / 10
        spread = max(3 * report.standard_error, 0.08)
        assert abs(report.mean_accuracy - chance) <= spread

    def test_no_leakage_between_folds(self):
        labels = np.repeat(["a", "b", "c"], 10)
        plan = ev.make_fold_plan(labels, k1=5, k2=2, seed=0)
        for held in range(plan.k1):
            test = set(plan.outer_folds[held])
            train = {i for f, fold in enumerate(plan.outer_folds)
                     if f != held for i in fold}
            assert not test & train

    def test_report_roundtrips_to_json(self, rng):
        x, labels = cluster_features(rng, 3, 10)
        plan = ev.make_fold_plan(labels, k1=5, k2=2, seed=0)
        report = ev.run_nested_cv(x, labels, plan)
        d = report.to_dict()
        again = json.loads(json.dumps(d))
        assert again["mean_accuracy"] == report.mean_accuracy
        assert len(again["fold_accuracies"]) == 5
        assert len(again["chosen_params"]) == 5

    def test_deterministic_given_seed(self, rng):
        x, labels = cluster_features(rng, 3, 10, spread=0.8)
        plan = ev.make_fold_plan(labels, k1=5, k2=2, seed=11)
        r1 = ev.run_nested_cv(x, labels, plan)
        r2 = ev.run_nested_cv(x, labels, plan)
        assert r1.fold_accuracies == r2.fold_accuracies
        assert r1.chosen_params == r2.chosen_params


@pytest.fixture(scope="module")
def small_corpus():
    return synth.synthetic_corpus(n_subjects=4, n_channels=6, duration_s=30.0,
                                  seed=5)


class TestExperiment:
    def test_epoch_features_shapes(self, small_corpus):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        epochs = ev.band_epochs(small_corpus, config, "resting")
        assert len(epochs) == 4 * 7  # 30 s / 4 s = 7 per subject
        x, labels = ev.epoch_features(epochs, "PLV")
        assert x.shape == (28, 6 * 5 // 2)
        assert labels.shape == (28,)
        x_gb, _ = ev.epoch_features(epochs, "PLV", "ND")
        assert x_gb.shape == (28, 6)

    def test_parallel_features_match_serial(self, small_corpus):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        epochs = ev.band_epochs(small_corpus, config, "resting")[:8]
        serial, l1 = ev.epoch_features(epochs, "PLV", workers=1)
        parallel, l2 = ev.epoch_features(epochs, "PLV", workers=2)
        np.testing.assert_array_equal(serial, parallel)
        np.testing.assert_array_equal(l1, l2)

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
        report = ev.run_experiment(rest + task, config)
        assert report.mismatched
        assert len(report.cv.fold_accuracies) == 1
        assert report.cv.standard_error == 0.0
        assert 0.0 <= report.cv.mean_accuracy <= 1.0

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
            ev.run_experiment(rest + task, config)

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
    def test_feature_cache_keyed_on_filter_settings(self, small_corpus,
                                                    tmp_path, field, value):
        base = ev.ExperimentConfig(metric="COR", band="gamma",
                                   epoch_length_s=2.0)
        changed = ev.ExperimentConfig(metric="COR", band="gamma",
                                      epoch_length_s=2.0, **{field: value})
        ev._features_cached(small_corpus, base, "resting", 1,
                            cache_dir=tmp_path, cache_tag="t1")
        x, _, _ = ev._features_cached(small_corpus, changed, "resting", 1,
                                      cache_dir=tmp_path, cache_tag="t1")
        assert len(list(tmp_path.glob("features-*.npz"))) == 2
        cold, _, _ = ev._features_cached(small_corpus, changed, "resting", 1)
        np.testing.assert_array_equal(x, cold)

    def test_config_name(self):
        config = ev.ExperimentConfig(metric="PLV", band="gamma")
        assert config.name() == "plv_fc_gamma_4s_resting"
        config = ev.ExperimentConfig(metric="COR", band="delta", gb_metric="EC",
                                     epoch_length_s=2.0,
                                     train_condition="resting",
                                     test_condition="task")
        assert config.name() == "cor_ec_delta_2s_resting-vs-task"
