"""Nested cross-validation, grid search and the experiment sweeps.

The fold unit is the epoch, grouped per subject: every subject contributes
epochs to every outer fold (subject-disjoint folds are impossible for
identification, where each subject is a class).  All randomness flows from
one seed recorded in the report.  The nested CV of one config makes two
`svm.train_ovr` calls: one trains the grid on every inner fold of every
outer fold, the other makes every final fit.
"""

from __future__ import annotations

import os
import sys
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import connectivity, dsp, graph, svm
from .errors import (DegenerateVariance, InsufficientEpochs, MissingCondition, NoConvergence,
                     TooFewClasses, UnknownLabel, ZeroGraph)

# --- folds --------------------------------------------------------------------


def fold_splits(labels, k, seed):
    """Round-robin k-fold splits of epochs grouped per subject.

    Subject by subject in sorted order, the subject's epochs are shuffled by
    `np.random.default_rng(seed)` and dealt to the folds in turn (`_held`).
    Returns one (train_idx, test_idx) pair of sorted index arrays per fold.
    Fold h is empty unless some subject has more than h epochs, so a k above
    every subject's epoch count raises InsufficientEpochs.
    """
    labels = np.asarray(labels)
    if problem := _too_few_for_folds(k, Counter(labels.tolist()).values()):
        raise problem
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=int)
    for subject in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == subject)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold_of != held), np.flatnonzero(fold_of == held))
            for held in range(k)]


def _held(n, k, fold):
    """How many of a subject's n epochs `fold_splits` deals to fold `fold` of k."""
    return n // k + (fold < n % k)


def _too_few_for_folds(k, counts):
    """InsufficientEpochs if k folds of these per-subject counts leave one empty."""
    if (largest := max(counts, default=0)) < k:
        return InsufficientEpochs(f"{k} folds need a subject with at least {k} epochs, "
                                  f"but the most any subject has is {largest}")
    return None


def _untrained(train_subjects, test_subjects):
    """MissingCondition if a test subject is not among the training subjects."""
    if missing := sorted(set(test_subjects) - set(train_subjects)):
        return MissingCondition(f"test-condition subjects absent from training data: "
                                f"{missing[:5]}")
    return None


def fold_problem(train_counts, k1, k2, test_counts=None):
    """The first problem that the fold loop meets on these {subject: epochs}
    counts, as the EegIdError it would raise, or None.

    Without test_counts the loop is `run_nested_cv`'s; with them, that of a
    mismatched run's one split, which trains on all of train_counts.  In the
    loop's order: a subject below k1 (matched; a policy, as the loop would
    run), a test subject with no training epochs (mismatched), k2 above
    every count of an outer training set, and an inner training set of
    fewer than two subjects; every outer and final-fit set holds its inner
    ones.  `_held` gives every set's counts.
    """
    if test_counts is None:
        for subject, n in sorted(train_counts.items()):
            if n < k1:
                return InsufficientEpochs(f"subject {subject!r} has fewer epochs than outer "
                                          f"folds: {n} for k1 = {k1}")
        first = _too_few_for_folds(k1, train_counts.values())
        outer = [{s: n - _held(n, k1, h) for s, n in train_counts.items()} for h in range(k1)]
    else:
        first, outer = _untrained(train_counts, test_counts), [train_counts]
    if first:
        return first
    for counts in outer:
        if problem := _too_few_for_folds(k2, counts.values()):
            return problem
    for h, counts in enumerate(outer):
        for inner in range(k2):
            trained = sum(n > _held(n, k2, inner) for n in counts.values())
            if trained < 2:
                return TooFewClasses(f"inner fold {inner} of outer fold {h} trains on "
                                     f"{trained} subject(s); a classifier needs 2")
    return None


# --- grid search and nested CV -------------------------------------------------


def _accuracy(truth, predictions):
    truth = list(truth)
    return sum(t == p for t, p in zip(truth, predictions)) / len(truth)


def grid_search(x, labels, splits, k2, seed):
    """Inner k2-fold selection of a (C, gamma) point of the `svm.C_GRID` x
    `svm.GAMMA_GRID` product on the training rows of each outer (train_idx,
    test_idx) split of x; ties break toward smaller C, then smaller gamma.

    Split `held` deals its training rows into inner folds with seed
    `seed + held + 1`.  One `svm.train_ovr` call trains the whole grid on
    every inner fold of every split, and each inner fold predicts with all
    its grid in one `svm.predict_batch` call.  Returns (best, audit,
    converged): each split's chosen (C, gamma) pair of floats, the (splits,
    gamma, C) array of mean inner-validation accuracies, and per split the
    flags of its binary SVMs.
    """
    # gamma-major, the order of the (splits, gamma, C, inner fold) array
    # below and train_ovr's solve order, so the lockstep runs are as before
    points = [(c, g) for g in svm.GAMMA_GRID for c in svm.C_GRID]
    folds, validation = [], []  # per inner fold: (rows, points) and (split, inner fold, rows)
    for held, (train_idx, _) in enumerate(splits):
        for inner, (inner_train, inner_val) in enumerate(
                fold_splits(labels[train_idx], k2, seed + held + 1)):
            folds.append((train_idx[inner_train], points))
            validation.append((held, inner, train_idx[inner_val]))
    accs = np.empty((len(splits), len(svm.GAMMA_GRID), len(svm.C_GRID), k2))
    converged = [[] for _ in splits]
    for (held, inner, val_idx), models in zip(validation, svm.train_ovr(x, labels, folds)):
        truth = labels[val_idx].tolist()
        accs[held, ..., inner] = np.reshape([_accuracy(truth, preds) for preds
                                             in svm.predict_batch(models, x[val_idx])],
                                            accs.shape[1:3])
        converged[held].extend(models.converged.flat)
        # the next fold's solve needs none of this fold's grid
        del models
    # over the last, contiguous axis each point's accuracies are summed as
    # np.mean sums them alone, to the same bits
    audit = accs.mean(axis=-1)
    scores = audit.reshape(len(splits), -1)
    c_of, gamma_of = (np.broadcast_to(v, scores.shape) for v in np.array(points).T)
    # per split, the first point by -accuracy, then C, then gamma
    best = [points[p] for p in np.lexsort((gamma_of, c_of, -scores))[:, 0].tolist()]
    return best, audit, converged


def _report_nonconverged(converged, where):
    """One stderr line if any binary SVM stopped short of svm.KKT_TOL."""
    failed = len(converged) - int(np.count_nonzero(converged))
    if failed:
        print(f"warning: SMO did not converge in {failed} of {len(converged)} binary "
              f"SVMs ({where})", file=sys.stderr)


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


def run_nested_cv(x, labels, k1=10, k2=3, seed=0) -> dict:
    """Outer k1-fold evaluation with an inner k2-fold grid search per fold,
    as the cross-validation keys of the report document (`_cross_validate`).

    The standardizer and hyperparameters for each outer fold are fitted on
    that fold's training epochs only.  The label counts must pass
    `fold_problem`, so every subject appears in every outer fold.
    """
    if k1 < 2:
        raise ValueError("k1 must be at least 2 (need held-out data)")
    if k2 < 2:
        raise ValueError("k2 must be at least 2")
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree in size")
    if problem := fold_problem(Counter(labels.tolist()), k1, k2):
        raise problem
    return _cross_validate(x, labels, fold_splits(labels, k1, seed), k2, seed)


def _cross_validate(x, labels, splits, k2, seed) -> dict:
    """Score each (train_idx, test_idx) split of the rows of x: an inner
    grid search on the training rows, a final fit with the chosen
    hyperparameters, and predictions on the test rows of subjects it trains
    on.  The final fits share one `svm.train_ovr` call; stderr gets each
    split's grid-search warning, then its final-fit warning.  Returns the
    report keys of the scores, in JSON types (README: Evaluation)."""
    for train_idx, test_idx in splits:
        if problem := _untrained(labels[train_idx].tolist(), labels[test_idx].tolist()):
            raise problem
    class_order = sorted(set(labels.tolist()))
    fold_accs = []
    all_truth, all_pred = [], []
    best, _, converged = grid_search(x, labels, splits, k2, seed)
    fits = svm.train_ovr(x, labels, [(train_idx, [point])
                                     for (train_idx, _), point in zip(splits, best)])
    for held, ((_, test_idx), flags, fit) in enumerate(zip(splits, converged, fits)):
        _report_nonconverged(flags, "grid search")
        _report_nonconverged(fit.converged[0], f"final fit, outer fold {held}")
        [preds] = svm.predict_batch(fit, x[test_idx])
        truth = labels[test_idx].tolist()
        fold_accs.append(_accuracy(truth, preds))
        all_truth.extend(truth)
        all_pred.extend(preds)
    return {"fold_accuracies": fold_accs, "mean_accuracy": float(np.mean(fold_accs)),
            "standard_error": standard_error(fold_accs),
            "chosen_params": [{"c": c, "gamma": gamma} for c, gamma in best],
            "confusion": confusion_matrix(all_truth, all_pred, class_order).tolist(),
            "class_order": class_order, "seed": seed}


# --- feature extraction ---------------------------------------------------------


def epoch_features(recordings, metric: str, gb_metric: str = None) -> tuple:
    """(x, labels, provenance) of `band_epochs`' recordings, or of a list of them.

    Each recording's (epochs, channels, samples) stack is featurized before
    the next recording is band-filtered, and each row is written into one
    (epochs, features) matrix, sized by the recordings' `n_epochs`.  Rows are
    the vectorized connectivity upper triangle, or per-node graph scores
    when gb_metric is given; epochs are numbered in error messages in the
    order of the rows, and named by their label.
    """
    n_epochs = (recordings.n_epochs if isinstance(recordings, _Recordings) else
                sum(len(epoch_labels) for _, epoch_labels, _ in recordings))
    x, row, labels, provenance = None, 0, [], []
    for epochs, epoch_labels, epoch_provenance in recordings:
        for data, label in zip(epochs, epoch_labels):
            try:
                values = connectivity.connectivity_matrix(data, metric)
                values = (connectivity.vectorize_upper(values) if gb_metric is None else
                          graph.node_scores(graph.from_connectivity(values, metric), gb_metric))
            except (DegenerateVariance, ZeroGraph, NoConvergence) as exc:
                raise type(exc)(f"{exc} in epoch {row} [{label}]") from None
            if x is None:
                x = np.empty((n_epochs, values.size))
            x[row] = values
            row += 1
        labels.append(epoch_labels)
        provenance.append(epoch_provenance)
        # both would hold this stack (data is a view of its last epoch) while
        # the next recording is filtered
        del epochs, data
    return x, np.concatenate(labels), np.concatenate(provenance)


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
        """The filter settings, as keyword arguments of write_preprocessed and filter_tag."""
        return {"notch_hz": self.notch_hz, "notch_q": self.notch_q,
                "filter_order": self.filter_order}


# the cache-file name tag of the corpus layout below: each recording's
# preprocessed (channels, samples) block, one after another in `data.npy`
CORPUS_LAYOUT = "blocks"
# bytes per read of the pass that checks the data member's CRC-32
_CRC_CHUNK = 1 << 20


def write_preprocessed(fh, corpus, notch_hz=50.0, notch_q=30.0, filter_order=4):
    """Write the corpus cache file of `io_ingest.build_corpus`'s (layout,
    recordings) after `dsp.preprocess` (notch, then the broadband band-pass)
    with the given filter settings, `ExperimentConfig.filters`, to the binary
    file fh.

    Each recording is preprocessed in place and written, row after row, as
    its C-order (channels, samples) block before the next one is read.  The
    blocks follow one another in the float64 member `data`, whose header is
    sized from the layout; `channels` names the rows of every block, `ends`
    gives the column at which each recording ends, `provenance` is an (R, 3)
    array of dataset id, subject id and condition, and `rate` and `filters`
    (the `filter_tag`) are 0-d.
    """
    layout, recordings = corpus
    ends, rate = layout["ends"], float(layout["rate"])

    def fill(member):
        for _ in ends:
            data = next(recordings)
            dsp.preprocess(data, rate, notch_hz=notch_hz, notch_q=notch_q,
                           order=filter_order, out=data)
            # row by row: each row is contiguous, the recording need not be
            member.writelines(row.view(np.uint8).data for row in data)
            del data  # before the next recording is decoded

    _write_npz(fh, {
        "data": ((len(layout["channels"]) * int(ends[-1]),), fill),
        "channels": layout["channels"], "ends": ends, "provenance": layout["provenance"],
        "rate": layout["rate"],
        "filters": np.array(filter_tag(notch_hz, notch_q, filter_order)),
    })


class PreprocessedCorpus:
    """A corpus cache file of `write_preprocessed`, read one recording at a time.

    `channels`, `ends`, `provenance`, `rate` and `filters` are held in
    memory, with `n_channels`; `recording(i)` reads recording i's (channels,
    samples) block from the file with one seek and one `readinto`, and the
    file stays open until `close`.  Opening checks the `data` member's
    dtype, shape and stored size, and its zip CRC-32 in _CRC_CHUNK reads
    (the checks `np.load` makes on a member it reads whole); a file that
    fails them raises ValueError, KeyError, EOFError or zipfile.BadZipFile.
    Object arrays are refused, so opening runs no code.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._check()
        except BaseException:
            self._fh.close()
            raise

    def _check(self):
        fh = self._fh
        arrays = {}
        with zipfile.ZipFile(fh) as archive:
            for name in ("channels", "ends", "provenance", "rate", "filters"):
                with archive.open(f"{name}.npy") as member:
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
            info = archive.getinfo("data.npy")
        self.channels, self.ends = arrays["channels"], arrays["ends"]
        self.provenance = arrays["provenance"]
        self.rate, self.filters = float(arrays["rate"]), str(arrays["filters"])
        self.n_channels = len(self.channels)
        if (self.channels.ndim != 1 or self.ends.ndim != 1 or not self.ends.size
                or self.provenance.shape != (self.ends.size, 3)):
            raise ValueError(f"channels {self.channels.shape}, ends {self.ends.shape} and "
                             f"provenance {self.provenance.shape} do not describe one corpus")
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError("data member is compressed")
        # the member's bytes follow its local header, whose name and extra
        # field lengths sit at offsets 26 and 28
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise zipfile.BadZipFile("bad local header of data.npy")
        offset = (info.header_offset + 30 + int.from_bytes(local[26:28], "little")
                  + int.from_bytes(local[28:30], "little"))
        fh.seek(offset)
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("data member is not a version 1.0 .npy array")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        self._start = fh.tell()
        want = (self.n_channels * int(self.ends[-1]),)
        if dtype != np.dtype(float) or fortran_order or shape != want:
            raise ValueError(f"data member is {dtype} {shape}, not float64 {want}")
        size = self._start - offset + dtype.itemsize * want[0]
        if info.file_size != size:
            raise ValueError(f"data member stores {info.file_size} bytes, but its header "
                             f"describes {size}")
        fh.seek(offset)
        crc, left, chunk = 0, info.file_size, memoryview(bytearray(_CRC_CHUNK))
        while left:
            n = fh.readinto(chunk[:min(left, _CRC_CHUNK)])
            if not n:
                raise EOFError(f"data member ends {left} bytes early")
            crc = zlib.crc32(chunk[:n], crc)
            left -= n
        if crc != info.CRC:
            raise zipfile.BadZipFile("Bad CRC-32 for file 'data.npy'")

    def recording(self, i) -> np.ndarray:
        """Recording i's preprocessed (channels, samples) block, read into a new array."""
        start = int(self.ends[i - 1]) if i else 0
        block = np.empty((self.n_channels, int(self.ends[i]) - start))
        self._fh.seek(self._start + start * self.n_channels * block.itemsize)
        if self._fh.readinto(block) != block.nbytes:
            raise EOFError(f"recording {i} ends early in {self._fh.name}")
        return block

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def filter_tag(notch_hz, notch_q, filter_order) -> str:
    """Cache-key text of the filter settings."""
    return f"order{filter_order}-notch{notch_hz:g}-q{notch_q:g}"


def band_epochs(corpus, config: ExperimentConfig, condition: str):
    """Band filter + epoch every recording of one condition of a `PreprocessedCorpus`.

    Checks the corpus first, then returns an iterable that reads and
    band-filters one recording when it is reached and gives its (epochs,
    labels, provenance): a C-contiguous (E, N, M) stack, the
    "dataset/subject" label of each epoch, and an (E, 3) array of each
    epoch's dataset id, subject id and condition.  Its `n_epochs` is the
    number of epochs of all of them, from the corpus layout.
    """
    band = dsp.BANDS[config.band]
    picked = np.flatnonzero(corpus.provenance[:, 2] == condition)
    if not picked.size:
        raise MissingCondition(f"corpus has no recordings with condition {condition!r}")
    tag = filter_tag(**config.filters)
    if corpus.filters != tag:
        raise ValueError(f"corpus is preprocessed as {corpus.filters!r}, but the config "
                         f"needs {tag!r}: pass its recordings through "
                         "write_preprocessed(fh, recordings, **config.filters)")
    if corpus.n_channels < 2:
        raise ValueError(f"corpus has {corpus.n_channels} channel(s); connectivity needs "
                         "at least 2")
    rate = corpus.rate
    rows = corpus.provenance[picked]
    labels = np.array([f"{dataset}/{subject}" for dataset, subject, _ in rows.tolist()])

    def recording(k):
        data = corpus.recording(picked[k])
        epochs = dsp.split_epochs(dsp.bandpass(data, rate, band, config.filter_order, out=data),
                                  rate, config.epoch_length_s)
        return (epochs, labels[k:k + 1].repeat(len(epochs)),
                rows[k:k + 1].repeat(len(epochs), axis=0))

    return _Recordings(recording, len(picked), int(
        epoch_counts(corpus.ends, rate, config.epoch_length_s)[picked].sum()))


class _Recordings:
    """`band_epochs`' recordings, made one at a time as they are iterated."""

    def __init__(self, recording, n, n_epochs):
        self._recording, self._n, self.n_epochs = recording, n, n_epochs

    def __iter__(self):
        return map(self._recording, range(self._n))


def epoch_counts(ends, rate, epoch_length_s) -> np.ndarray:
    """`dsp.split_epochs`' epoch count of each recording of a corpus layout."""
    return np.diff(ends, prepend=0) // dsp.epoch_samples(rate, epoch_length_s)


@contextmanager
def atomic_open(path, mode="wb"):
    """`open(path, mode)` ("wb", or "w" for UTF-8 text) through a new
    temporary file beside `path` (a Path), renamed over it when the block
    ends: a kill or an exception leaves `path` as it was, an exception
    removes the temporary file, and the file gets the mode `open` gives."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_or_build(path, load, write):
    """(load(path), was_cached) for the npz cache file `path` (a Path).

    A missing file is written by `write(fh)` through `atomic_open`, and
    then loaded; one that `load` cannot read is logged and rewritten the
    same way.
    """
    if path.exists():
        try:
            return load(path), True
        # what a damaged, truncated or foreign npz file raises
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            print(f"rebuilding unreadable cache {path.name}: {exc!r}", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        write(fh)
    return load(path), False


def _write_npz(fh, members):
    """Write an npz file as `np.savez` would: one stored (uncompressed)
    `<name>.npy` member per entry of `members`, holding the `.npy` header
    and then the C-order bytes, written from each array's own buffer.  An
    entry is an array, or a (shape, fill) pair: a float64 array of that
    shape whose C-order bytes `fill(member)` writes to the open member, so
    that the whole array never exists at once."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        for name, member in members.items():
            if isinstance(member, tuple):
                shape, fill = member
                header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                          "fortran_order": False, "shape": shape}
            else:
                # the header must describe the bytes: C order, copied only if not already
                array = np.asarray(member, order="C")
                header = np.lib.format.header_data_from_array_1_0(array)
                fill = lambda out: out.write(array.reshape(-1).view(np.uint8).data)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array_header_1_0(out, header)
                fill(out)


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
        return epoch_features(band_epochs(corpus, config, condition),
                              config.metric, config.gb_metric)[:2]

    def load(path):
        with np.load(path, allow_pickle=False) as blob:
            return blob["x"], blob["labels"]

    def write(fh):
        x, labels = build()
        _write_npz(fh, {"x": x, "labels": labels})

    if not (cache_dir and cache_tag):
        return build()
    key = (f"features-{cache_tag}-{config.band}-{config.metric}-"
           f"{config.gb_metric or 'fc'}-{config.epoch_length_s:g}s-{condition}-"
           f"{filter_tag(**config.filters)}")
    return load_or_build(Path(cache_dir) / f"{key}.npz", load, write)[0]


def run_experiment(corpus, config: ExperimentConfig,
                   feature_cache_dir=None, cache_tag="") -> dict:
    """Full pipeline for one experiment configuration on a preprocessed corpus.

    Matched conditions run nested CV.  Mismatched conditions run the same
    fold loop on one split: train on all train-condition epochs (grid search
    by inner folds of the training side only), test on all test-condition
    epochs, and report that single accuracy.  The label counts must pass
    `fold_problem` first.  Returns the report document, its `policy`
    "default" until `eegid evaluate` names the corpus's channel policy.
    """
    x, labels = _features_cached(
        corpus, config, config.train_condition, feature_cache_dir, cache_tag)
    mismatched = config.train_condition != config.test_condition
    if not mismatched:
        cv = run_nested_cv(x, labels, config.k1, config.k2, config.seed)
    else:
        x_test, y_test = _features_cached(
            corpus, config, config.test_condition, feature_cache_dir, cache_tag)
        if problem := fold_problem(Counter(labels.tolist()), config.k1, config.k2,
                                   Counter(y_test.tolist())):
            raise problem
        split = (np.arange(len(labels)), np.arange(len(labels), len(labels) + len(y_test)))
        x, labels = np.vstack((x, x_test)), np.concatenate((labels, y_test))
        cv = _cross_validate(x, labels, [split], config.k2, config.seed)
    return {"config": asdict(config), "n_epochs": len(labels),
            "n_subjects": len(cv["class_order"]), "mismatched": mismatched,
            "policy": "default", **cv}


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

