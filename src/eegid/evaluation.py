"""Nested cross-validation, grid search and the experiment sweeps.

The fold unit is the epoch, grouped per subject: every subject contributes
epochs to every outer fold (subject-disjoint folds are impossible for
identification, where each subject is a class).  All randomness flows from
one seed recorded in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import connectivity, dsp, graph, svm
from .errors import InsufficientEpochs, MissingCondition, UnknownLabel

GRID = tuple(
    svm.SvmHyperparams(c=c, gamma=g)
    for c in svm.DEFAULT_C_GRID
    for g in svm.DEFAULT_GAMMA_GRID
)


# --- fold plans ---------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    k1: int
    k2: int
    outer_folds: tuple  # tuple of index tuples, one per outer fold
    seed: int

    @property
    def size(self):
        return sum(len(f) for f in self.outer_folds)


def _round_robin_folds(labels, k, rng):
    """Per-subject shuffled round-robin assignment of epochs to k folds."""
    labels = np.asarray(labels)
    folds = [[] for _ in range(k)]
    for subject in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == subject)
        rng.shuffle(idx)
        for pos, epoch_idx in enumerate(idx):
            folds[pos % k].append(int(epoch_idx))
    return tuple(tuple(sorted(f)) for f in folds)


def make_fold_plan(labels, k1=10, k2=3, seed=0) -> FoldPlan:
    """Stratified outer fold assignment; deterministic given the seed."""
    if k1 < 2:
        raise ValueError("k1 must be at least 2 (need held-out data)")
    if k2 < 2:
        raise ValueError("k2 must be at least 2")
    labels = np.asarray(labels)
    counts = {s: int(np.sum(labels == s)) for s in set(labels.tolist())}
    for subject, count in sorted(counts.items()):
        if count < k1:
            raise InsufficientEpochs(subject)
    rng = np.random.default_rng(seed)
    return FoldPlan(k1=k1, k2=k2, outer_folds=_round_robin_folds(labels, k1, rng),
                    seed=seed)


# --- grid search and nested CV -------------------------------------------------


def _accuracy(truth, predictions):
    truth = list(truth)
    return sum(t == p for t, p in zip(truth, predictions)) / len(truth)


def grid_search(x, labels, k2=3, grid=GRID, seed=0, budget_bytes=256 << 20):
    """Inner k2-fold selection of (C, gamma); ties break toward smaller values.

    Returns (best_params, audit) where audit maps each grid point to its mean
    inner-validation accuracy.
    """
    grid = tuple(grid)
    audit = {}
    if len(grid) == 1:
        return grid[0], {grid[0]: None}
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    inner = _round_robin_folds(labels, k2, rng)
    for params in grid:
        accs = []
        for held in range(k2):
            val_idx = np.array(inner[held], dtype=int)
            train_idx = np.array(
                sorted(i for f in inner[:held] + inner[held + 1:] for i in f),
                dtype=int,
            )
            model = svm.train_ovr(x[train_idx], labels[train_idx], params,
                                  budget_bytes=budget_bytes)
            preds = svm.predict_batch(model, x[val_idx])
            accs.append(_accuracy(labels[val_idx].tolist(), preds))
        audit[params] = float(np.mean(accs))
    # sorted() is stable: ordering by (-accuracy, C, gamma) implements the
    # smaller-C-then-smaller-gamma tie break
    best = sorted(audit, key=lambda p: (-audit[p], p.c, p.gamma))[0]
    return best, audit


@dataclass
class CvReport:
    fold_accuracies: list
    mean_accuracy: float
    standard_error: float
    chosen_params: list  # (c, gamma) per outer fold
    confusion: np.ndarray
    class_order: tuple
    seed: int
    grid_audits: list = field(default_factory=list, repr=False)

    def to_dict(self):
        return {
            "fold_accuracies": [float(a) for a in self.fold_accuracies],
            "mean_accuracy": float(self.mean_accuracy),
            "standard_error": float(self.standard_error),
            "chosen_params": [{"c": c, "gamma": g} for c, g in self.chosen_params],
            "confusion": self.confusion.tolist(),
            "class_order": list(self.class_order),
            "seed": self.seed,
        }


def confusion_matrix(truth, predictions, class_order) -> np.ndarray:
    """counts[t][p] over the provided class order."""
    if len(truth) != len(predictions):
        raise ValueError("truth and predictions differ in length")
    index = {c: i for i, c in enumerate(class_order)}
    counts = np.zeros((len(class_order), len(class_order)), dtype=int)
    for t, p in zip(truth, predictions):
        if t not in index:
            raise UnknownLabel(f"true label {t!r} not in class order")
        if p not in index:
            raise UnknownLabel(f"predicted label {p!r} not in class order")
        counts[index[t], index[p]] += 1
    return counts


def standard_error(fold_accuracies) -> float:
    """Population std of the fold accuracies over sqrt(#folds)."""
    accs = np.asarray(fold_accuracies, dtype=float)
    return float(np.std(accs) / np.sqrt(accs.size))


def run_nested_cv(x, labels, plan: FoldPlan, grid=GRID,
                  budget_bytes=256 << 20) -> CvReport:
    """Outer-fold evaluation with inner grid search per fold.

    The standardizer and hyperparameters for each outer fold are fitted on
    that fold's training epochs only.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.shape[0] != labels.shape[0] or x.shape[0] != plan.size:
        raise ValueError("features, labels and fold plan disagree in size")
    class_order = tuple(sorted(set(labels.tolist())))
    fold_accs, chosen, audits = [], [], []
    all_truth, all_pred = [], []
    for held in range(plan.k1):
        test_idx = np.array(plan.outer_folds[held], dtype=int)
        train_idx = np.array(
            sorted(i for f, fold in enumerate(plan.outer_folds)
                   if f != held for i in fold),
            dtype=int,
        )
        params, audit = grid_search(
            x[train_idx], labels[train_idx], k2=plan.k2, grid=grid,
            seed=plan.seed + held + 1, budget_bytes=budget_bytes,
        )
        model = svm.train_ovr(x[train_idx], labels[train_idx], params,
                              budget_bytes=budget_bytes)
        preds = svm.predict_batch(model, x[test_idx])
        truth = labels[test_idx].tolist()
        fold_accs.append(_accuracy(truth, preds))
        chosen.append((params.c, params.gamma))
        audits.append(audit)
        all_truth.extend(truth)
        all_pred.extend(preds)
    return CvReport(
        fold_accuracies=fold_accs,
        mean_accuracy=float(np.mean(fold_accs)),
        standard_error=standard_error(fold_accs),
        chosen_params=chosen,
        confusion=confusion_matrix(all_truth, all_pred, class_order),
        class_order=class_order,
        seed=plan.seed,
        grid_audits=audits,
    )


# --- feature extraction ---------------------------------------------------------


def epoch_features(epochs, metric: str, gb_metric: str = None,
                   workers: int = 1) -> tuple:
    """(features, labels) for a list of band-filtered epochs.

    Features are the vectorized connectivity upper triangle, or per-node
    graph scores when gb_metric is given.
    """
    tasks = [(e, metric, gb_metric) for e in epochs]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # executor.map preserves task order, so results are deterministic
            rows = list(pool.map(_feature_task, tasks))
    else:
        rows = [_feature_task(t) for t in tasks]
    labels = np.array([e.label for e in epochs])
    return np.vstack(rows), labels


def _feature_task(args):
    epoch, metric, gb_metric = args
    cm = connectivity.connectivity_matrix(epoch, metric)
    if gb_metric is None:
        return connectivity.vectorize_upper(cm).values
    return graph.node_scores(graph.from_connectivity(cm), gb_metric).scores


# --- experiment configs and runner ------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    metric: str                 # COR | PLV | PLI
    band: str                   # Table-style band name
    gb_metric: str = None       # ND | EC | BC | CC, or None for raw FC
    epoch_length_s: float = 4.0
    train_condition: str = "resting"
    test_condition: str = "resting"
    seed: int = 0
    k1: int = 10
    k2: int = 3
    filter_order: int = 4
    notch_hz: float = 50.0
    notch_q: float = 30.0

    def name(self):
        gb = self.gb_metric or "fc"
        cond = (self.train_condition if self.train_condition == self.test_condition
                else f"{self.train_condition}-vs-{self.test_condition}")
        return f"{self.metric.lower()}_{gb.lower()}_{self.band}_{self.epoch_length_s:g}s_{cond}"


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cv: CvReport
    n_epochs: int
    n_subjects: int
    mismatched: bool = False

    def to_dict(self):
        d = {
            "config": asdict(self.config),
            "n_epochs": self.n_epochs,
            "n_subjects": self.n_subjects,
            "mismatched": self.mismatched,
        }
        d.update(self.cv.to_dict())
        return d


def band_epochs(corpus, config: ExperimentConfig, condition: str) -> list:
    """Preprocess + band filter + epoch every recording of one condition."""
    band = dsp.BANDS[config.band]
    epochs = []
    for rec in corpus:
        if rec.condition != condition:
            continue
        rec = dsp.preprocess(rec, notch_hz=config.notch_hz, notch_q=config.notch_q,
                             order=config.filter_order)
        rec = dsp.bandpass(rec, band, config.filter_order)
        epochs.extend(dsp.split_epochs(rec, config.epoch_length_s, band=band))
    if not epochs:
        raise MissingCondition(f"corpus has no recordings with condition {condition!r}")
    return epochs


def _features_cached(corpus, config: ExperimentConfig, condition, workers,
                     cache_dir=None, cache_tag=""):
    """Band-filter + featurize one condition, with optional on-disk caching.

    The cache key combines the caller-supplied tag (corpus hash + channel
    policy) with band, metric, graph metric, epoch length, condition and the
    filter settings (band-pass order, notch frequency and Q), so classifier
    sweeps reuse the expensive connectivity computation.
    """
    import pathlib

    key = (f"features-{cache_tag}-{config.band}-{config.metric}-"
           f"{config.gb_metric or 'fc'}-{config.epoch_length_s:g}s-{condition}-"
           f"order{config.filter_order}-notch{config.notch_hz:g}-q{config.notch_q:g}")
    cache_file = None
    if cache_dir and cache_tag:
        cache_file = pathlib.Path(cache_dir) / f"{key}.npz"
        if cache_file.exists():
            blob = np.load(cache_file, allow_pickle=False)
            return blob["x"], blob["labels"], len(blob["labels"])
    epochs = band_epochs(corpus, config, condition)
    x, labels = epoch_features(epochs, config.metric, config.gb_metric,
                               workers=workers)
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        np.savez(cache_file, x=x, labels=labels)
    return x, labels, len(epochs)


def run_experiment(corpus, config: ExperimentConfig, workers: int = 1,
                   budget_bytes=256 << 20, feature_cache_dir=None,
                   cache_tag="") -> ExperimentReport:
    """Full pipeline for one experiment configuration.

    Matched conditions run nested CV.  Mismatched conditions train on the
    full train-condition data (grid search by inner folds of the training
    side only) and report a single train/test accuracy.
    """
    x_train, y_train, n_train = _features_cached(
        corpus, config, config.train_condition, workers,
        feature_cache_dir, cache_tag)
    if config.train_condition == config.test_condition:
        plan = make_fold_plan(y_train, k1=config.k1, k2=config.k2, seed=config.seed)
        cv = run_nested_cv(x_train, y_train, plan, budget_bytes=budget_bytes)
        return ExperimentReport(
            config=config, cv=cv, n_epochs=n_train,
            n_subjects=len(cv.class_order),
        )

    x_test, y_test, n_test = _features_cached(
        corpus, config, config.test_condition, workers,
        feature_cache_dir, cache_tag)
    train_subjects = set(y_train.tolist())
    missing = [s for s in set(y_test.tolist()) if s not in train_subjects]
    if missing:
        raise MissingCondition(
            f"test-condition subjects absent from training data: {sorted(missing)[:5]}"
        )
    params, audit = grid_search(x_train, y_train, k2=config.k2,
                                seed=config.seed + 1, budget_bytes=budget_bytes)
    model = svm.train_ovr(x_train, y_train, params, budget_bytes=budget_bytes)
    preds = svm.predict_batch(model, x_test)
    truth = y_test.tolist()
    acc = _accuracy(truth, preds)
    class_order = tuple(sorted(train_subjects))
    cv = CvReport(
        fold_accuracies=[acc],
        mean_accuracy=acc,
        standard_error=0.0,
        chosen_params=[(params.c, params.gamma)],
        confusion=confusion_matrix(truth, preds, class_order),
        class_order=class_order,
        seed=config.seed,
        grid_audits=[audit],
    )
    return ExperimentReport(
        config=config, cv=cv, n_epochs=n_train + n_test,
        n_subjects=len(class_order), mismatched=True,
    )


# --- report emission ---------------------------------------------------------------


def confusion_to_pgm(counts: np.ndarray, fh):
    """Row-normalized 8-bit grayscale PGM (binary P5) of a confusion matrix."""
    counts = np.asarray(counts, dtype=float)
    row_sums = counts.sum(axis=1, keepdims=True)
    norm = np.divide(counts, row_sums, out=np.zeros_like(counts),
                     where=row_sums > 0)
    pixels = np.round(norm * 255).astype(np.uint8)
    fh.write(b"P5\n")
    fh.write(f"{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
    fh.write(pixels.tobytes())


def confusion_to_csv(counts: np.ndarray, class_order, fh):
    fh.write("true\\pred," + ",".join(str(c) for c in class_order) + "\n")
    for cls, row in zip(class_order, counts):
        fh.write(str(cls) + "," + ",".join(str(int(v)) for v in row) + "\n")


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
