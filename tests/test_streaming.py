"""Ingest and featurization stream the corpus one recording at a time.

`build_corpus` sizes every entry from its header before any entry is
decoded, `preprocessed` fills one preallocated array entry by entry, and
`band_epochs` hands `epoch_features` one recording's epochs at a time.  The
arrays must equal the whole-stack references of tests/oracles.py, and peak
memory must stay near the corpus array plus one recording.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eegid import cli, evaluation as ev, io_ingest
from eegid.channels import COMMON_56, resolve_policy
from eegid.errors import MissingChannel, WindowOutOfRange
from eegid.io_ingest import build_corpus, load_manifest, parse_edf

from edf_tools import write_edf
import oracles

_POLICY = ["C3", "C4", "CZ", "FC5", "P3", "O1"]
# EDF spellings of the policy's channels plus two more, in another order
_EDF_LABELS = ["O1..", "Fc5.", "C4..", "Pz..", "C3..", "Cz..", "P3..", "Fp1."]


def _mixed_manifest(root):
    """Six entries, resting and task interleaved, of unequal lengths: EDF at
    160 Hz, and matrix files at 256 and 128 Hz (one starting with a blank
    line), windowed unevenly."""
    rng = np.random.default_rng(23)
    entries = []
    for i, (kind, condition, seconds) in enumerate([
            ("edf", "resting", 9), ("matrix256", "task", 7), ("matrix128", "resting", 11),
            ("edf", "task", 8), ("matrix256", "resting", 10), ("matrix128", "task", 6)]):
        subject = f"S{i % 3}"
        if kind == "edf":
            digital = rng.integers(-3000, 3000, size=(len(_EDF_LABELS), 160 * seconds))
            path = root / f"e{i}.edf"
            path.write_bytes(write_edf(_EDF_LABELS, digital, 160.0))
            entry = {"format": "edf"}
        else:
            rate = 256.0 if kind == "matrix256" else 128.0
            names = _POLICY[::-1] + ["T7"]
            t = np.arange(int(rate * seconds)) / rate
            data = (np.sin(2 * np.pi * rng.uniform(5, 40, (len(names), 1)) * t)
                    + rng.standard_normal((len(names), t.size)))
            path = root / f"m{i}.txt"
            lead = "\n" if kind == "matrix128" else ""
            path.write_text(lead + "".join(",".join(map(repr, row.tolist())) + "\n"
                                           for row in data))
            entry = {"format": "matrix", "sampling_rate_hz": rate, "channel_names": names}
        entries.append({**entry, "path": path.name, "subject_id": subject,
                        "dataset_id": "mix", "condition": condition,
                        "window_s": [0.25 * (i % 3), seconds - 0.5 * (i % 2)]})
    path = root / "manifest.json"
    path.write_text(json.dumps({"target_rate_hz": 128.0, "channel_policy": _POLICY,
                                "entries": entries}))
    return path


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    return load_manifest(_mixed_manifest(tmp_path_factory.mktemp("mixed")))


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("filters", [{}, {"notch_hz": 0.0, "filter_order": 2}],
                         ids=["default", "no-notch"])
def test_corpus_equals_the_whole_stack_reference(mixed, filters):
    corpus = ev.preprocessed(build_corpus(mixed), **filters)
    want = oracles.preprocessed_whole(mixed, **filters)
    assert sorted(corpus) == sorted(want) == sorted(ev.CORPUS_KEYS)
    for key in ev.CORPUS_KEYS:
        _assert_identical(corpus[key], want[key])
    assert corpus["data"].shape[0] == len(_POLICY)
    assert len(set(np.diff(corpus["ends"], prepend=0).tolist())) == len(mixed["entries"])


@pytest.mark.parametrize("metric, gb_metric", [("COR", None), ("PLV", "ND"), ("PLI", None)])
@pytest.mark.parametrize("condition", ["resting", "task"])
def test_feature_rows_equal_the_whole_stack_reference(mixed, metric, gb_metric, condition):
    corpus = ev.preprocessed(build_corpus(mixed))
    config = ev.ExperimentConfig(metric=metric, band="alpha", gb_metric=gb_metric,
                                 epoch_length_s=1.5)
    got = ev.epoch_features(ev.band_epochs(corpus, config, condition), metric, gb_metric)
    want = oracles.features_whole(corpus, config, condition)
    for mine, ref in zip(got, want):
        _assert_identical(mine, ref)
    x, labels = ev._features_cached(corpus, config, condition)
    _assert_identical(x, want[0])
    _assert_identical(labels, want[1])


def test_layout_sizes_each_entry_before_any_is_decoded(mixed, monkeypatch):
    want = oracles.preprocessed_whole(mixed)
    decoded = []
    monkeypatch.setattr(io_ingest, "parse_edf", lambda *a, **k: decoded.append(a))
    monkeypatch.setattr(io_ingest, "load_matrix", lambda *a, **k: decoded.append(a))
    layout, recordings = build_corpus(mixed)
    assert decoded == []
    _assert_identical(layout["ends"], want["ends"])
    _assert_identical(layout["provenance"], want["provenance"])
    assert layout["rate"] == 128.0
    assert (layout["channels"].tolist() == list(resolve_policy(mixed["channel_policy"]))
            == sorted(_POLICY))


@pytest.mark.parametrize("edit, error", [
    ({"window_s": [0.0, 60.0]}, WindowOutOfRange),
    ({"channel_names": ["A1", "A2"]}, MissingChannel),
])
def test_bad_last_entry_fails_before_the_first_is_decoded(tmp_path, monkeypatch, edit, error):
    path = _mixed_manifest(tmp_path)
    doc = json.loads(path.read_text())
    doc["entries"][-1].update(edit)
    path.write_text(json.dumps(doc))
    decoded = []
    monkeypatch.setattr(io_ingest, "parse_edf", lambda *a, **k: decoded.append(a))
    with pytest.raises(error, match=r"m5\.txt: "):
        build_corpus(load_manifest(path))
    assert decoded == []


def _edf_corpus(root, n_recordings=12, seconds=10):
    """A manifest over 64-channel 160 Hz EDF files, one subject each."""
    rng = np.random.default_rng(5)
    labels = [name.capitalize().ljust(4, ".") for name in COMMON_56.names]
    labels += [f"X{i}" for i in range(64 - len(labels))]
    entries = []
    for i in range(n_recordings):
        path = root / f"S{i:03d}.edf"
        path.write_bytes(write_edf(labels, rng.integers(-2000, 2000, (64, 160 * seconds)),
                                   160.0))
        entries.append({"path": path.name, "format": "edf", "subject_id": f"S{i:03d}",
                        "dataset_id": "d", "condition": "resting",
                        "window_s": [0.0, float(seconds)]})
    path = root / "manifest.json"
    path.write_text(json.dumps({"target_rate_hz": 128.0, "channel_policy": "common_56",
                                "entries": entries}))
    return path


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_the_corpus_plus_one_recording(tmp_path):
    """A whole-corpus step would hold a second corpus-sized array (about
    eight recordings here) on top of the corpus."""
    manifest = _edf_corpus(tmp_path)
    first = load_manifest(manifest)["entries"][0]["path"]
    recording = parse_edf(Path(first).read_bytes())[0].nbytes
    corpus, peak = _traced_peak(lambda: ev.preprocessed(build_corpus(load_manifest(manifest))))
    bound = corpus["data"].nbytes + 3 * recording
    assert peak < bound, (peak, corpus["data"].nbytes, recording)
    # one features command on the corpus cache that ingest writes
    cache = tmp_path / "cache"
    assert cli.main(["ingest", "--manifest", str(manifest), "--out", str(cache)]) == 0
    code, peak = _traced_peak(lambda: cli.main([
        "features", "--manifest", str(manifest), "--cache", str(cache),
        "--out", str(tmp_path / "f.csv"), "--band", "gamma", "--metric", "COR"]))
    assert code == cli.EXIT_OK
    assert peak < bound, (peak, corpus["data"].nbytes, recording)
