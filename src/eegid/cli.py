"""Command-line front end: ingest -> features -> evaluate -> report.

Progress goes to stderr; machine-readable results only to files.  Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import connectivity, dsp, evaluation, graph
from .errors import (
    EegIdError,
    EpochTooShort,
    InsufficientEpochs,
    MissingCondition,
    NoConvergence,
    RecordingTooShort,
    UnstableDesign,
)
from .channels import resolve_policy
from .io_ingest import (CONDITIONS, build_corpus, corpus_layout, is_finite_number, load_json,
                        load_manifest)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _log(msg):
    print(msg, file=sys.stderr)


def _corpus_hash(manifest) -> str:
    """Digest of a `load_manifest` document and the bytes of its files."""
    h = hashlib.sha256()
    h.update(repr((manifest["target_rate_hz"], manifest["channel_policy"])).encode())
    for entry in manifest["entries"]:
        # an EDF entry's loader reads the rate and channels from the file
        matrix = entry["format"] == "matrix"
        h.update(repr((entry["subject_id"], entry["dataset_id"], entry["condition"],
                       tuple(entry["window_s"]), entry["format"],
                       entry["sampling_rate_hz"] if matrix else 0.0,
                       tuple(entry["channel_names"]) if matrix else ())).encode())
        h.update(Path(entry["path"]).read_bytes())
    return h.hexdigest()[:16]


def _with_policy(manifest, policy):
    """The manifest with a run-config channel policy; None keeps its own."""
    return manifest if policy is None else {**manifest, "channel_policy": policy}


def _cached_corpus(manifest, cache_dir, filters, channel_policy=None):
    """Load the preprocessed corpus cache, or build and write it; returns
    (corpus, hash, was_cached).

    The file is keyed by the corpus hash and the filter settings `filters`
    (`ExperimentConfig.filters`), and holds the arrays of
    `evaluation.preprocessed`.  On a miss the corpus is built from the loaded
    `manifest` and each recording is preprocessed as it is copied into them.
    """
    manifest = _with_policy(manifest, channel_policy)
    digest = _corpus_hash(manifest)
    path = Path(cache_dir) / f"preprocessed-{digest}-{evaluation.filter_tag(**filters)}.npz"
    corpus, cached = evaluation.load_or_build(
        path, lambda: evaluation.preprocessed(build_corpus(manifest), **filters),
        # a file without one of the arrays raises KeyError here, and is rebuilt
        lambda arrays: {key: arrays[key] for key in evaluation.CORPUS_KEYS})
    if cached:
        _log(f"cache hit: {path.name} (no recompute)")
    return corpus, digest, cached


def _filters(args):
    """The global filter flags as `ExperimentConfig.filters`."""
    return {"notch_hz": args.notch_hz, "notch_q": args.notch_q,
            "filter_order": args.filter_order}


def _filter_problem(filters):
    """Usage message for the first filter flag out of its range, or None."""
    if not 0 <= filters["notch_hz"] < np.inf:
        return f"--notch-hz must be a finite frequency >= 0, not {filters['notch_hz']}"
    if not 0 < filters["notch_q"] < np.inf:
        return f"--notch-q must be a finite quality factor > 0, not {filters['notch_q']}"
    if filters["filter_order"] % 2 or not 2 <= filters["filter_order"] <= 8:
        return f"--filter-order must be even and within 2-8, not {filters['filter_order']}"
    return None


def _epoch_length_problem(length):
    """Usage message for an epoch length that is not a positive number, or None."""
    if not is_finite_number(length) or not length > 0:
        return f"epoch length {length!r} is not a positive number of seconds"
    return None


def cmd_ingest(args) -> int:
    corpus, digest, _ = _cached_corpus(load_manifest(args.manifest), args.out,
                                       _filters(args))
    provenance = corpus["provenance"]
    subjects = {(dataset, subject) for dataset, subject, _ in provenance.tolist()}
    _log(f"corpus {digest}: {len(provenance)} recordings, {len(subjects)} subjects, "
         f"rates {[float(corpus['rate'])]} Hz")
    return EXIT_OK


def _unknown_name(bands, metrics, gb_metrics):
    """Usage message for the first unknown metric, graph metric or band, or None."""
    for kind, names, valid in (("metric", metrics, connectivity.METRICS),
                               ("graph metric", gb_metrics, (None, *graph.GRAPH_METRICS)),
                               ("band", bands, sorted(dsp.BANDS))):
        for name in names:
            if name not in valid:
                return f"unknown {kind} {name!r}; valid: {', '.join(filter(None, valid))}"
    return None


def cmd_features(args) -> int:
    if problem := (_unknown_name([args.band], [args.metric], [args.gb])
                   or _epoch_length_problem(args.epoch_length)):
        _log(problem)
        return EXIT_USAGE
    config = evaluation.ExperimentConfig(
        metric=args.metric, band=args.band, gb_metric=args.gb,
        epoch_length_s=args.epoch_length, **_filters(args),
    )
    corpus, digest, _ = _cached_corpus(load_manifest(args.manifest), args.cache,
                                       config.filters)
    features, _, provenance = evaluation.epoch_features(
        evaluation.band_epochs(corpus, config, args.condition), args.metric, args.gb)
    with open(args.out, "w", encoding="utf-8") as fh:
        n_feat = features.shape[1]
        fh.write("dataset_id,subject_id,condition," +
                 ",".join(f"f{i}" for i in range(n_feat)) + "\n")
        for (dataset_id, subject_id, condition), row in zip(provenance, features):
            fh.write(f"{dataset_id},{subject_id},{condition},")
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")
    _log(f"wrote {features.shape[0]} x {n_feat} feature matrix to {args.out} "
         f"(corpus {digest})")
    return EXIT_OK


# optional run-config keys besides cache_dir, which defaults to "cache" in the
# config's directory; manifest, bands and metrics are required
_RUN_CONFIG_DEFAULTS = {
    "gb_metrics": (None,), "epoch_lengths_s": (4.0,), "channel_policies": (None,),
    "conditions": (("resting", "resting"),), "seed": 0, "k1": 10, "k2": 3,
}


def _load_run_config(path):
    """The run config with defaults filled in; a non-object is returned as is."""
    doc = load_json(path)
    if isinstance(doc, dict):
        for key, value in _RUN_CONFIG_DEFAULTS.items():
            doc.setdefault(key, value)
    return doc


def _grid_configs(doc, filters):
    """Each run-config channel policy with its experiment configs, in sweep order."""
    grid = list(itertools.product(doc["bands"], doc["metrics"], doc["gb_metrics"],
                                  doc["epoch_lengths_s"], doc["conditions"]))
    return [(policy, [evaluation.ExperimentConfig(
                metric=metric, band=band, gb_metric=gb, epoch_length_s=float(length),
                train_condition=train, test_condition=test,
                seed=doc["seed"], k1=doc["k1"], k2=doc["k2"], **filters)
             for band, metric, gb, length, (train, test) in grid])
            for policy in doc["channel_policies"]]


def _run_config_problem(doc):
    """Usage message for a run config that cannot run as written, or None.
    A legacy `"workers": 1` is accepted: every run is one process now."""
    if not isinstance(doc, dict):
        return f"run config must be a JSON object, not {type(doc).__name__}"
    if doc.get("workers", 1) != 1:
        return "run-config key 'workers' was removed: features are computed in one process"
    known = {"manifest", "bands", "metrics", "cache_dir", "workers", *_RUN_CONFIG_DEFAULTS}
    unknown = sorted(set(doc) - known)
    if unknown:
        return f"unknown run-config key(s): {', '.join(map(repr, unknown))}"
    if not isinstance(doc.get("manifest"), str):
        return f"run config needs a 'manifest' path string, not {doc.get('manifest')!r}"
    if not isinstance(doc.get("cache_dir", ""), str):
        return f"run-config key 'cache_dir' must be a path string, not {doc['cache_dir']!r}"
    if not doc.get("bands") or not doc.get("metrics"):
        return "experiment grid is empty: config needs non-empty bands and metrics"
    for key in ("bands", "metrics", "gb_metrics", "epoch_lengths_s", "channel_policies",
                "conditions"):
        if not isinstance(doc[key], (list, tuple)):
            return f"run-config key {key!r} must be a list, not {doc[key]!r}"
    for pair in doc["conditions"]:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(name in CONDITIONS for name in pair)):
            return f"condition pair {pair!r} is not two of {', '.join(CONDITIONS)}"
    for policy in doc["channel_policies"]:
        if policy is None:
            continue
        if not (isinstance(policy, str) or isinstance(policy, list) and policy
                and all(isinstance(name, str) for name in policy)):
            return f"channel policy {policy!r} is not a name or a list of channel labels"
        try:
            n_channels = len(resolve_policy(policy))
        except ValueError as exc:
            return str(exc)
        if n_channels < 2:
            return (f"channel policy {policy!r} names {n_channels} channel; "
                    "connectivity needs at least 2")
    for length in doc["epoch_lengths_s"]:
        if problem := _epoch_length_problem(length):
            return problem
    for key in ("seed", "k1", "k2"):
        if type(doc[key]) is not int:
            return f"run-config key {key!r} must be an integer, not {doc[key]!r}"
        if key != "seed" and doc[key] < 2:
            return f"run-config key {key!r} must be at least 2, not {doc[key]}"
    return _unknown_name(doc["bands"], doc["metrics"], doc["gb_metrics"])


def _policy_name(policy):
    """File-name text of a run-config channel policy: a built-in's name, or
    `labels-` and a short digest of an explicit label list; None stays None."""
    if isinstance(policy, list):
        return "labels-" + hashlib.sha256(json.dumps(policy).encode()).hexdigest()[:12]
    return policy


def _check_epoch_lengths(lengths, rate_hz, metrics):
    """Raise unless every epoch length gives at least one sample at rate_hz,
    and enough samples for a phase metric when one is swept."""
    phase = sorted({"PLV", "PLI"} & set(metrics))
    for length in lengths:
        m = dsp.epoch_samples(rate_hz, length)
        if phase and m < connectivity.MIN_PHASE_SAMPLES:
            raise EpochTooShort(
                f"a {length} s epoch is {m} samples at {rate_hz} Hz; {'/'.join(phase)} "
                f"need >= {connectivity.MIN_PHASE_SAMPLES}")


def _check_recordings(manifest, doc):
    """Raise unless every entry holds every channel of every run-config
    channel policy, every swept condition has recordings, each of them holds
    one epoch of every epoch length, and every condition pair has the epochs
    its folds need at every length: when matched, k1 per subject and k2 for
    some subject in the training part of every outer fold; when mismatched,
    k2 for some training subject and training epochs for every test subject.
    Reads entry headers only (`corpus_layout`)."""
    for policy in doc["channel_policies"]:
        layout = corpus_layout(_with_policy(manifest, policy))
    if not doc["channel_policies"]:  # an empty sweep runs nothing
        return
    # sample counts and provenance do not depend on the channel policy
    rate, samples = float(layout["rate"]), np.diff(layout["ends"], prepend=0)
    # (dataset, subject, condition) is unique: one recording per subject and condition
    recordings = {}  # condition -> {class label: samples}
    for (dataset, subject, condition), n in zip(layout["provenance"].tolist(), samples.tolist()):
        recordings.setdefault(condition, {})[f"{dataset}/{subject}"] = n
    swept = sorted({name for pair in doc["conditions"] for name in pair})
    for name in swept:
        if name not in recordings:
            raise MissingCondition(f"corpus has no recordings with condition {name!r}")
    k1, k2 = doc["k1"], doc["k2"]
    for length in map(float, doc["epoch_lengths_s"]):
        m = dsp.epoch_samples(rate, length)
        for entry, n in zip(manifest["entries"], samples):
            if entry["condition"] in swept and n < m:
                raise RecordingTooShort(f"{entry['path']}: {n} samples cannot hold one "
                                        f"{length} s epoch at {rate} Hz")
        for train, test in doc["conditions"]:
            epochs = {label: n // m for label, n in recordings[train].items()}
            if train == test:
                for label, n in epochs.items():
                    if n < k1:
                        raise InsufficientEpochs(
                            f"subject {label!r} has fewer epochs than outer folds: {n} "
                            f"{train} epochs of {length} s for k1 = {k1}")
                # the grid search deals each outer fold's training epochs into
                # k2 folds; outer fold 0 holds ceil(n / k1) of a subject's n
                # epochs, the most any fold holds, so it trains on the fewest
                inner = [n - -(-n // k1) for n in epochs.values()]
            else:
                inner = list(epochs.values())
            if max(inner) < k2:
                raise InsufficientEpochs(
                    f"{k2} folds need a subject with at least {k2} epochs, but the most any "
                    f"subject has is {max(inner)} ({train} epochs of {length} s)")
            if train != test and (missing := sorted(recordings[test].keys() - epochs.keys())):
                raise MissingCondition(f"test-condition subjects absent from training data: "
                                       f"{missing[:5]} ({test} against {train})")


def cmd_evaluate(args) -> int:
    doc = _load_run_config(args.config)
    if problem := _run_config_problem(doc):
        _log(problem)
        return EXIT_USAGE
    # build every config first, so that no bad value is met mid-sweep
    filters = _filters(args)
    grid = _grid_configs(doc, filters)
    base = Path(args.config).parent
    # relative paths resolve against the config's directory; absolute ones replace it
    manifest = load_manifest(base / doc["manifest"])
    _check_epoch_lengths(doc["epoch_lengths_s"], manifest["target_rate_hz"], doc["metrics"])
    _check_recordings(manifest, doc)
    cache_dir = base / doc.get("cache_dir", "cache")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for policy, configs in grid:
        # one policy's corpus is loaded once and held only while its configs run
        corpus, digest, _ = _cached_corpus(manifest, cache_dir, filters, channel_policy=policy)
        name = _policy_name(policy)
        for config in configs:
            _log(f"running {config.name()} [{name or 'manifest policy'}]")
            report = replace(evaluation.run_experiment(
                corpus, config, feature_cache_dir=cache_dir,
                cache_tag=f"{digest}-{name or 'manifest'}",
            ), policy=name or "default")
            stem = f"{report.policy}_{config.name()}"
            with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
                fh.write(evaluation.report_to_json(report))
                fh.write("\n")
            with open(out_dir / f"{stem}_confusion.csv", "w", encoding="utf-8") as fh:
                evaluation.confusion_to_csv(report.cv.confusion, report.cv.class_order, fh)
            with open(out_dir / f"{stem}_confusion.pgm", "wb") as fh:
                evaluation.confusion_to_pgm(report.cv.confusion, fh)
            reports.append(report.to_dict())
            _log(f"  accuracy {report.cv.mean_accuracy:.4f} "
                 f"+/- {report.cv.standard_error:.4f}")
        del corpus
    _write_rollup(out_dir, reports)
    return EXIT_OK


def _is_string(value):
    return isinstance(value, str)


# the keys _write_rollup reads from a report and its config, each with the
# check its value must pass and what the check asks for
_REPORT_FIELDS = (
    ("mean_accuracy", is_finite_number, "a finite number"),
    ("standard_error", is_finite_number, "a finite number"),
    ("config.metric", _is_string, "a string"),
    ("config.band", _is_string, "a string"),
    ("config.gb_metric", lambda v: v is None or _is_string(v), "a string or null"),
    ("config.epoch_length_s", is_finite_number, "a finite number"),
    ("config.train_condition", _is_string, "a string"),
    ("config.test_condition", _is_string, "a string"),
)


def _not_a_report(doc):
    """Why a JSON document is not a report that `_write_rollup` can read, or None."""
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        return "no 'config' object"
    for key, check, kind in _REPORT_FIELDS:
        section, _, name = key.rpartition(".")
        values = doc[section] if section else doc
        if name not in values:
            return f"no {key!r}"
        if not check(values[name]):
            return f"{key!r} is not {kind}"
    # reports from before policies were recorded have none and count as default
    if not _is_string(doc.get("policy", "default")):
        return "'policy' is not a string"
    return None


def _write_rollup(out_dir: Path, report_dicts):
    """Accuracy roll-up: one row per config and channel policy, one column per
    band.  A report without a policy, from before reports recorded it, counts
    as `default`."""
    bands = [b.name for b in dsp.ANALYSIS_BANDS] + ["broadband"]
    rows = {}
    for d in report_dicts:
        cfg = d["config"]
        key = (cfg["metric"], cfg["gb_metric"] or "-", f"{cfg['epoch_length_s']:g}",
               cfg["train_condition"], cfg["test_condition"], d.get("policy", "default"))
        cell = f"{100 * d['mean_accuracy']:.1f}+/-{100 * d['standard_error']:.1f}"
        rows.setdefault(key, {})[cfg["band"]] = cell
    with open(out_dir / "rollup.csv", "w", encoding="utf-8") as fh:
        fh.write("metric,gb_metric,epoch_s,train,test,policy," + ",".join(bands) + "\n")
        for key in sorted(rows):
            cells = [rows[key].get(b, "") for b in bands]
            fh.write(",".join(key) + "," + ",".join(cells) + "\n")


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    dicts = []
    for path in sorted(out_dir.glob("*.json")):
        doc = load_json(path)
        # a run config, a partial report or other JSON kept beside the reports
        if problem := _not_a_report(doc):
            _log(f"skipping {path.name}: not a report ({problem})")
        else:
            dicts.append(doc)
    if not dicts:
        _log(f"no report files found in {out_dir}")
        return EXIT_USAGE
    _write_rollup(out_dir, dicts)
    _log(f"rebuilt rollup.csv from {len(dicts)} report(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegid",
        description="EEG biometric identification from functional connectivity",
    )
    parser.add_argument("--notch-hz", type=float, default=50.0,
                        help="line-noise notch frequency (0 disables)")
    parser.add_argument("--notch-q", type=float, default=30.0,
                        help="notch quality factor")
    parser.add_argument("--filter-order", type=int, default=4,
                        help="Butterworth prototype order (even, 2-8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, resample and cache a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="cache directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="emit a labeled feature CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--cache", default="cache", help="corpus cache directory")
    p.add_argument("--band", required=True)
    p.add_argument("--metric", required=True, help="COR | PLV | PLI")
    p.add_argument("--gb", default=None, help="optional graph metric: ND | EC | BC | CC")
    p.add_argument("--epoch-length", type=float, default=4.0)
    p.add_argument("--condition", default="resting", choices=CONDITIONS)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("evaluate", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="rebuild the roll-up table from report files")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if problem := _filter_problem(_filters(args)):
        _log(problem)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UnstableDesign, NoConvergence, np.linalg.LinAlgError) as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (EegIdError, OSError, KeyError, ValueError) as exc:
        _log(f"data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
