"""Correctness checks on the files a pass writes; a failed check fails the command.

Every seed gets the seed-free checks: shapes, labels, finite values in the
metric's range, report structure, grid membership and internal consistency.
The reference seed additionally compares with `reference.json`, recorded
from plain `eegid` runs of the seed commit on the same inputs:

- feature matrices (the CSVs of `features`, and the feature cache that
  `evaluate` writes): each row's projection on fixed random weights w must
  match within FEATURE_TOL * sum(|w|) * max(1, the row's largest |value|),
  i.e. a per-feature deviation of at most FEATURE_TOL relative to the row's
  scale (betweenness scores run into the hundreds);
- CV reports: each outer fold's accuracy within FOLD_ACC_TOL_EPOCHS test
  epochs of the reference.  A solver may legitimately take another path to
  the same KKT tolerance, which can move a borderline test epoch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import workloads as wl

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
FEATURE_TOL = 1e-8
FOLD_ACC_TOL_EPOCHS = 1
_WEIGHT_SEED = 20220601
_VALUE_RANGE = {"COR": (-1.0, 1.0), "PLV": (0.0, 1.0), "PLI": (0.0, 1.0)}


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text())["workloads"].get(workload.name)


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def projection_weights(n_features):
    return np.random.default_rng(_WEIGHT_SEED).standard_normal(n_features)


def expected_row_labels(workload):
    return [(wl.DATASET_ID, label.split("/", 1)[1], "resting")
            for label in workload.labels for _ in range(workload.epochs_per_subject)]


def read_features(path):
    """(header, label triples, values) of a feature CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    labels = [tuple(r[:3]) for r in rows]
    values = np.array([r[3:] for r in rows], dtype=float)
    return lines[0].split(","), labels, values


def feature_projections(values):
    return values @ projection_weights(values.shape[1])


def check_features(path, workload, metric, reference_rows=None):
    """Problems found in one feature CSV (empty list when correct)."""
    n_feat = wl.N_CHANNELS_USED * (wl.N_CHANNELS_USED - 1) // 2
    try:
        header, labels, values = read_features(path)
    except (OSError, ValueError) as exc:
        return [f"{Path(path).name}: unreadable ({exc})"]
    problems = []
    if header != ["dataset_id", "subject_id", "condition"] + [f"f{i}" for i in range(n_feat)]:
        problems.append("unexpected header")
    if labels != expected_row_labels(workload):
        problems.append("row labels differ from the expected subject/epoch order")
    if values.shape != (workload.n_epochs, n_feat):
        return problems + [f"shape {values.shape}, expected {(workload.n_epochs, n_feat)}"]
    problems += _value_problems(values, _VALUE_RANGE[metric], reference_rows)
    return [f"{Path(path).name}: {p}" for p in problems]


def _value_problems(values, value_range, reference_rows):
    """Finite values in range and, when given, a match with the reference projections."""
    lo, hi = value_range
    if not np.all(np.isfinite(values)):
        return ["non-finite values"]
    problems = []
    if values.min() < lo or values.max() > hi:
        problems.append(f"values outside [{lo}, {hi}]")
    if reference_rows is not None:
        weights = projection_weights(values.shape[1])
        scale = np.maximum(1.0, np.abs(values).max(axis=1))
        deviation = np.abs(values @ weights - np.asarray(reference_rows))
        if np.any(deviation > FEATURE_TOL * np.abs(weights).sum() * scale):
            problems.append(f"differs from the reference (max projection deviation "
                            f"{deviation.max():.3g})")
    return problems


def feature_cache(reports_dir):
    """The feature matrix file `evaluate` caches next to its run config."""
    return sorted((Path(reports_dir).parent / "cache").glob("features-*.npz"))


def check_feature_cache(workload, reports_dir, reference_rows=None):
    """Problems found in the features an `evaluate` pass classified."""
    files = feature_cache(reports_dir)
    if len(files) != 1:
        return [f"expected one feature cache file, found {len(files)}"]
    try:
        with np.load(files[0], allow_pickle=False) as blob:
            values, labels = blob["x"], blob["labels"].tolist()
    except (OSError, ValueError, KeyError) as exc:
        return [f"feature cache unreadable ({exc})"]
    metric, _, gb = workload.config
    n = wl.N_CHANNELS_USED
    if gb is None:
        n_feat, value_range = n * (n - 1) // 2, _VALUE_RANGE[metric]
    else:  # betweenness: each node lies on at most every path between two others
        n_feat, value_range = n, (0.0, (n - 1) * (n - 2) / 2)
    if values.shape != (workload.n_epochs, n_feat):
        return [f"feature cache shape {values.shape}, expected {(workload.n_epochs, n_feat)}"]
    problems = []
    expected = [label for label in workload.labels for _ in range(workload.epochs_per_subject)]
    if labels != expected:
        problems.append("feature cache labels differ from the expected subject/epoch order")
    problems += _value_problems(values, value_range, reference_rows)
    return [f"feature cache: {p}" for p in problems]


def report_files(workload, reports_dir):
    stem = workload.report_stem()
    return [Path(reports_dir) / f"{stem}{suffix}"
            for suffix in (".json", "_confusion.csv", "_confusion.pgm")] + [
        Path(reports_dir) / "rollup.csv"]


def _fold_sizes(workload):
    # round-robin assignment: fold j gets positions j, j + k1, ... of each subject
    return [workload.n_subjects * len(range(j, workload.epochs_per_subject, wl.K1))
            for j in range(wl.K1)]


def check_report(workload, reports_dir, reference=None):
    """Problems found in one `evaluate` report directory (empty when correct)."""
    files = report_files(workload, reports_dir)
    missing = [p.name for p in files if not p.is_file()]
    if missing:
        return [f"missing report files {missing}"]
    try:
        doc = json.loads(files[0].read_text())
        fold_accs = [float(a) for a in doc["fold_accuracies"]]
        confusion = np.array(doc["confusion"], dtype=int)
        chosen = [(p["c"], p["gamma"]) for p in doc["chosen_params"]]
        mean_acc, class_order, n_epochs = doc["mean_accuracy"], doc["class_order"], doc["n_epochs"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report ({exc})"]
    problems = []
    labels = list(workload.labels)
    if class_order != labels:
        problems.append(f"class order {class_order}, expected {labels}")
    if n_epochs != workload.n_epochs:
        problems.append(f"n_epochs {n_epochs}, expected {workload.n_epochs}")
    if len(fold_accs) != wl.K1 or not all(0.0 <= a <= 1.0 for a in fold_accs):
        problems.append("fold accuracies are not k1 values in [0, 1]")
    if any(c not in wl.C_GRID or g not in wl.GAMMA_GRID for c, g in chosen) or len(chosen) != wl.K1:
        problems.append(f"chosen (C, gamma) off the grid: {chosen}")
    sizes = _fold_sizes(workload)
    if (confusion.shape != (len(labels), len(labels))
            or np.any(confusion.sum(axis=1) != workload.epochs_per_subject)):
        problems.append("confusion matrix does not hold every epoch once")
    elif len(fold_accs) == wl.K1 and abs(np.dot(fold_accs, sizes) - np.trace(confusion)) > 1e-6:
        problems.append("fold accuracies disagree with the confusion matrix")
    if fold_accs and abs(mean_acc - np.mean(fold_accs)) > 1e-12:
        problems.append("mean accuracy is not the mean of the fold accuracies")
    if mean_acc < workload.min_accuracy:
        problems.append(f"mean accuracy {mean_acc:.3f} below {workload.min_accuracy}")
    csv_rows = files[1].read_text().splitlines()[1:]
    if [[int(v) for v in row.split(",")[1:]] for row in csv_rows] != confusion.tolist():
        problems.append("confusion CSV disagrees with the report")
    pgm, header = files[2].read_bytes(), f"P5\n{len(labels)} {len(labels)}\n255\n".encode()
    if not pgm.startswith(header) or len(pgm) != len(header) + len(labels) ** 2:
        problems.append("confusion PGM has the wrong header or size")
    if reference is not None and len(fold_accs) == wl.K1:
        ref_accs = reference["fold_accuracies"]
        worst = max(abs(a - r) * s for a, r, s in zip(fold_accs, ref_accs, sizes))
        if worst > FOLD_ACC_TOL_EPOCHS + 1e-9:
            problems.append(f"fold accuracies differ from the reference by up to "
                            f"{worst:.1f} test epochs (tolerance {FOLD_ACC_TOL_EPOCHS})")
    return problems + check_feature_cache(
        workload, reports_dir, reference["features"] if reference else None)

