"""Nested cross-validation, grid search and the experiment sweeps.

The fold unit is the epoch, grouped per subject: every subject contributes
epochs to every outer fold (subject-disjoint folds are impossible for
identification, where each subject is a class).  All randomness flows from
one seed recorded in the report.  The nested CV of one config makes two
`svm.train_ovr` calls: one trains the grid on every inner fold of every
outer fold, the other makes every final fit.
"""

from __future__ import annotations

import json
import operator
import os
import sys
import tempfile
import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import connectivity, dsp, graph, svm
from .errors import (DegenerateVariance, InsufficientEpochs, MissingCondition, NoConvergence,
                     UnknownLabel, ZeroGraph)

GRID = tuple(
    svm.SvmHyperparams(c=c, gamma=g)
    for c in svm.DEFAULT_C_GRID
    for g in svm.DEFAULT_GAMMA_GRID
)


# --- folds --------------------------------------------------------------------


def fold_splits(labels, k, seed):
    """Round-robin k-fold splits of epochs grouped per subject.

    Subject by subject in sorted order, the subject's epochs are shuffled by
    `np.random.default_rng(seed)` and dealt to the folds in turn.  Returns one
    (train_idx, test_idx) pair of sorted index arrays per fold.  Fold h is
    empty unless some subject has more than h epochs, so a k above every
    subject's epoch count raises InsufficientEpochs.
    """
    labels = np.asarray(labels)
    largest = int(np.unique(labels, return_counts=True)[1].max(initial=0))
    if largest < k:
        raise InsufficientEpochs(f"{k} folds need a subject with at least {k} epochs, "
                                 f"but the most any subject has is {largest}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=int)
    for subject in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == subject)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold_of != held), np.flatnonzero(fold_of == held))
            for held in range(k)]


# --- grid search and nested CV -------------------------------------------------


def _accuracy(truth, predictions):
    truth = list(truth)
    return sum(t == p for t, p in zip(truth, predictions)) / len(truth)


def grid_search(x, labels, splits, k2, seed):
    """Inner k2-fold selection of (C, gamma) over GRID on the training rows of
    each outer (train_idx, test_idx) split of x; ties break toward smaller
    values.

    Split `held` deals its training rows into inner folds with seed
    `seed + held + 1`.  One `svm.train_ovr` call trains the whole grid on
    every inner fold of every split, and each inner fold predicts with all
    its models in one `svm.predict_batch` call.  Returns one (best_params,
    audit, converged) per split: audit maps each grid point to its mean
    inner-validation accuracy, and converged lists the flags of the split's
    binary SVMs.
    """
    folds, validation = [], []  # per inner fold: (rows, GRID) and (split, rows)
    for held, (train_idx, _) in enumerate(splits):
        for inner_train, inner_val in fold_splits(labels[train_idx], k2, seed + held + 1):
            folds.append((train_idx[inner_train], GRID))
            validation.append((held, train_idx[inner_val]))
    accs = [{params: [] for params in GRID} for _ in splits]
    converged = [[] for _ in splits]
    for (held, val_idx), models in zip(validation, svm.train_ovr(x, labels, folds)):
        truth = labels[val_idx].tolist()
        for params, preds in zip(models, svm.predict_batch(models.values(), x[val_idx])):
            accs[held][params].append(_accuracy(truth, preds))
        converged[held].extend(flag for model in models.values() for flag in model.converged)
        # the next fold's solve needs none of this fold's models
        del models
    searches = []
    for split_accs, split_converged in zip(accs, converged):
        audit = {params: float(np.mean(a)) for params, a in split_accs.items()}
        # sorted() is stable: ordering by (-accuracy, C, gamma) implements the
        # smaller-C-then-smaller-gamma tie break
        best = sorted(audit, key=lambda p: (-audit[p], p.c, p.gamma))[0]
        searches.append((best, audit, split_converged))
    return searches


def _report_nonconverged(converged, where):
    """One stderr line if any binary SVM stopped short of svm.KKT_TOL."""
    failed = len(converged) - int(np.count_nonzero(converged))
    if failed:
        print(f"warning: SMO did not converge in {failed} of {len(converged)} binary "
              f"SVMs ({where})", file=sys.stderr)


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


def run_nested_cv(x, labels, k1=10, k2=3, seed=0) -> CvReport:
    """Outer k1-fold evaluation with an inner k2-fold grid search per fold.

    The standardizer and hyperparameters for each outer fold are fitted on
    that fold's training epochs only.  Every subject needs at least k1
    epochs, so that it appears in every outer fold.
    """
    if k1 < 2:
        raise ValueError("k1 must be at least 2 (need held-out data)")
    if k2 < 2:
        raise ValueError("k2 must be at least 2")
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree in size")
    subjects, counts = np.unique(labels, return_counts=True)
    for subject, count in zip(subjects.tolist(), counts.tolist()):
        if count < k1:
            raise InsufficientEpochs(f"subject {subject!r} has fewer epochs than outer folds")
    return _cross_validate(x, labels, fold_splits(labels, k1, seed), k2, seed)


def _cross_validate(x, labels, splits, k2, seed) -> CvReport:
    """Score each (train_idx, test_idx) split of the rows of x: an inner
    grid search on the training rows, a final fit with the chosen
    hyperparameters, and predictions on the test rows.  The final fits share
    one `svm.train_ovr` call; stderr gets each split's grid-search warning,
    then its final-fit warning."""
    class_order = tuple(sorted(set(labels.tolist())))
    fold_accs, chosen, audits = [], [], []
    all_truth, all_pred = [], []
    searches = grid_search(x, labels, splits, k2, seed)
    fits = svm.train_ovr(x, labels, [(train_idx, (params,)) for (train_idx, _), (params, _, _)
                                     in zip(splits, searches)])
    for held, ((_, test_idx), (params, audit, converged), models) in enumerate(
            zip(splits, searches, fits)):
        _report_nonconverged(converged, "grid search")
        model = models[params]
        _report_nonconverged(model.converged, f"final fit, outer fold {held}")
        [preds] = svm.predict_batch([model], x[test_idx])
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
        seed=seed,
        grid_audits=audits,
    )


# --- feature extraction ---------------------------------------------------------


def epoch_features(recordings, metric: str, gb_metric: str = None) -> tuple:
    """(x, labels, provenance) of `band_epochs`' recordings.

    Each recording's (epochs, channels, samples) stack is featurized before
    the next recording is band-filtered, and only the feature rows are
    stacked.  Rows are the vectorized connectivity upper triangle, or
    per-node graph scores when gb_metric is given; epochs are numbered in
    error messages in the order of the rows, and named by their label.
    """
    rows, labels, provenance = [], [], []
    for epochs, epoch_labels, epoch_provenance in recordings:
        for data, label in zip(epochs, epoch_labels):
            try:
                values = connectivity.connectivity_matrix(data, metric)
                rows.append(connectivity.vectorize_upper(values) if gb_metric is None else
                            graph.node_scores(graph.from_connectivity(values, metric),
                                              gb_metric))
            except (DegenerateVariance, ZeroGraph, NoConvergence) as exc:
                raise type(exc)(f"{exc} in epoch {len(rows)} [{label}]") from None
        labels.append(epoch_labels)
        provenance.append(epoch_provenance)
        # both would hold this stack (data is a view of its last epoch) while
        # the next recording is filtered
        del epochs, data
    return np.vstack(rows), np.concatenate(labels), np.concatenate(provenance)


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

    @property
    def filters(self):
        """The filter settings, as keyword arguments of preprocessed and filter_tag."""
        return {"notch_hz": self.notch_hz, "notch_q": self.notch_q,
                "filter_order": self.filter_order}


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cv: CvReport
    n_epochs: int
    n_subjects: int
    mismatched: bool = False
    policy: str = "default"  # file-name text of the corpus's channel policy

    def to_dict(self):
        d = {
            "config": asdict(self.config),
            "n_epochs": self.n_epochs,
            "n_subjects": self.n_subjects,
            "mismatched": self.mismatched,
            "policy": self.policy,
        }
        d.update(self.cv.to_dict())
        return d


# the arrays of a corpus, as preprocessed returns them and its cache file holds them
CORPUS_KEYS = ("data", "ends", "provenance", "rate", "filters")


def preprocessed(corpus, notch_hz=50.0, notch_q=30.0, filter_order=4) -> dict:
    """The corpus arrays of `io_ingest.build_corpus`'s (layout, recordings)
    after `dsp.preprocess` (notch, then the broadband band-pass) with the
    given filter settings, `ExperimentConfig.filters`.

    `data` is allocated once from the layout and holds the recordings side
    by side as (channels, total samples), recording i ending at column
    `ends[i]`.  Each recording is preprocessed into its columns before the
    next is read.  `provenance` is an (R, 3) array of dataset id, subject id
    and condition; `rate` and `filters` (the `filter_tag`) are 0-d.
    """
    layout, recordings = corpus
    ends, rate = layout["ends"], float(layout["rate"])
    data = np.empty((len(layout["channels"]), ends[-1]))
    for start, end in zip(ends - np.diff(ends, prepend=0), ends):
        # next() inside the call: no name holds a raw recording past its filtering
        dsp.preprocess(next(recordings), rate, notch_hz=notch_hz, notch_q=notch_q,
                       order=filter_order, out=data[:, start:end])
    return {"data": data, "ends": ends, "provenance": layout["provenance"],
            "rate": layout["rate"], "filters": np.array(filter_tag(notch_hz, notch_q,
                                                                   filter_order))}


def filter_tag(notch_hz, notch_q, filter_order) -> str:
    """Cache-key text of the filter settings."""
    return f"order{filter_order}-notch{notch_hz:g}-q{notch_q:g}"


def band_epochs(corpus, config: ExperimentConfig, condition: str):
    """Band filter + epoch every recording of one condition of a `preprocessed` corpus.

    Checks the corpus first, then returns an iterator that band-filters one
    recording when it is reached and gives its (epochs, labels,
    provenance): a C-contiguous (E, N, M) stack, the "dataset/subject"
    label of each epoch, and an (E, 3) array of each epoch's dataset id,
    subject id and condition.
    """
    band = dsp.BANDS[config.band]
    picked = np.flatnonzero(corpus["provenance"][:, 2] == condition)
    if not picked.size:
        raise MissingCondition(f"corpus has no recordings with condition {condition!r}")
    tag = filter_tag(**config.filters)
    if corpus["filters"] != tag:
        raise ValueError(f"corpus is preprocessed as {str(corpus['filters'])!r}, but the "
                         f"config needs {tag!r}: pass its recordings through "
                         "preprocessed(recordings, **config.filters)")
    data, rate, ends = corpus["data"], float(corpus["rate"]), corpus["ends"]
    if len(data) < 2:
        raise ValueError(f"corpus has {len(data)} channel(s); connectivity needs at least 2")
    starts = ends - np.diff(ends, prepend=0)
    rows = corpus["provenance"][picked]
    labels = np.array([f"{dataset}/{subject}" for dataset, subject, _ in rows.tolist()])

    def recording(k):
        i = picked[k]
        epochs = dsp.split_epochs(
            dsp.bandpass(data[:, starts[i]:ends[i]], rate, band, config.filter_order),
            rate, config.epoch_length_s)
        return (epochs, labels[k:k + 1].repeat(len(epochs)),
                rows[k:k + 1].repeat(len(epochs), axis=0))

    return (recording(k) for k in range(len(picked)))


def load_or_build(path, build, unpack):
    """(unpack(arrays), was_cached) for the npz cache file `path` (a Path).

    A missing file is written from `build()`, a dict of arrays, to a temporary
    file that is renamed over `path`; one that cannot be read or unpacked is
    logged and rewritten.  Each array goes to its own uncompressed `.npy`
    member straight from its buffer (`_write_npz`), so writing copies no
    array; files that `np.savez` wrote load the same way.  Object arrays are
    refused, so loading runs no code.
    """
    if path.exists():
        try:
            with np.load(path, allow_pickle=False) as blob:
                return unpack(blob), True
        # what a damaged, truncated or foreign npz file raises
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            print(f"rebuilding unreadable cache {path.name}: {exc!r}", file=sys.stderr)
    arrays = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            _write_npz(fh, arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return unpack(arrays), False


def _write_npz(fh, arrays):
    """Write a dict of arrays as the npz file `np.savez` would: one stored
    (uncompressed) `<name>.npy` member per array, holding the `.npy` header
    and then the C-order bytes, here written from the array's own buffer."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            # the header must describe the bytes: C order, copied only if not already
            array = np.asarray(array, order="C")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(array.reshape(-1).view(np.uint8).data)


def _features_cached(corpus, config: ExperimentConfig, condition,
                     cache_dir=None, cache_tag=""):
    """Band-filter + featurize one condition of a preprocessed corpus, with
    optional on-disk caching.

    The cache key combines the caller-supplied tag (corpus hash + channel
    policy) with band, metric, graph metric, epoch length, condition and the
    filter settings (band-pass order, notch frequency and Q), so classifier
    sweeps reuse the expensive connectivity computation.
    """
    def build():
        x, labels, _ = epoch_features(band_epochs(corpus, config, condition),
                                      config.metric, config.gb_metric)
        return {"x": x, "labels": labels}

    unpack = operator.itemgetter("x", "labels")
    if not (cache_dir and cache_tag):
        return unpack(build())
    key = (f"features-{cache_tag}-{config.band}-{config.metric}-"
           f"{config.gb_metric or 'fc'}-{config.epoch_length_s:g}s-{condition}-"
           f"{filter_tag(**config.filters)}")
    return load_or_build(Path(cache_dir) / f"{key}.npz", build, unpack)[0]


def run_experiment(corpus, config: ExperimentConfig,
                   feature_cache_dir=None, cache_tag="") -> ExperimentReport:
    """Full pipeline for one experiment configuration on a preprocessed corpus.

    Matched conditions run nested CV.  Mismatched conditions run the same
    fold loop on one split: train on all train-condition epochs (grid search
    by inner folds of the training side only), test on all test-condition
    epochs, and report that single accuracy.
    """
    x, labels = _features_cached(
        corpus, config, config.train_condition, feature_cache_dir, cache_tag)
    mismatched = config.train_condition != config.test_condition
    if not mismatched:
        cv = run_nested_cv(x, labels, config.k1, config.k2, config.seed)
    else:
        x_test, y_test = _features_cached(
            corpus, config, config.test_condition, feature_cache_dir, cache_tag)
        missing = set(y_test.tolist()) - set(labels.tolist())
        if missing:
            raise MissingCondition(
                f"test-condition subjects absent from training data: {sorted(missing)[:5]}"
            )
        split = (np.arange(len(labels)), np.arange(len(labels), len(labels) + len(y_test)))
        x, labels = np.vstack((x, x_test)), np.concatenate((labels, y_test))
        cv = _cross_validate(x, labels, [split], config.k2, config.seed)
    return ExperimentReport(config=config, cv=cv, n_epochs=len(labels),
                            n_subjects=len(cv.class_order), mismatched=mismatched)


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
