"""Ingest and featurization stream the corpus one recording at a time.

`build_corpus` sizes every entry from its header before any entry is
decoded, `write_preprocessed` writes each recording's preprocessed block to
the cache file before the next is read, and `band_epochs` reads one block
from a `PreprocessedCorpus` when it reaches it and hands `epoch_features`
that recording's epochs.  The arrays must equal the whole-stack references
of tests/oracles.py, and no command may hold more than about three
recordings: not a cold one that writes the corpus cache, nor one that reads
it.
"""

import json
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from eegid import cli, evaluation as ev, io_ingest
from eegid.channels import COMMON_56, resolve_policy
from eegid.errors import MissingChannel, WindowOutOfRange
from eegid.io_ingest import build_corpus, load_manifest, parse_edf

from edf_tools import write_edf
import oracles
import synth

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
def test_corpus_equals_the_whole_stack_reference(mixed, filters, tmp_path):
    path = tmp_path / "corpus.npz"
    with open(path, "wb") as fh:
        ev.write_preprocessed(fh, build_corpus(mixed), **filters)
    want = oracles.preprocessed_whole(mixed, **filters)
    with ev.PreprocessedCorpus(path) as corpus:
        _assert_identical(corpus.ends, want["ends"])
        _assert_identical(corpus.provenance, want["provenance"])
        assert corpus.rate == want["rate"] and corpus.filters == want["filters"]
        assert corpus.n_channels == len(want["data"]) == len(_POLICY)
        starts = want["ends"] - np.diff(want["ends"], prepend=0)
        blocks = [want["data"][:, start:end] for start, end in zip(starts, want["ends"])]
        for i, block in enumerate(blocks):
            _assert_identical(corpus.recording(i), block)
    assert len(set(np.diff(want["ends"], prepend=0).tolist())) == len(mixed["entries"])
    # an npz file: the data member is the blocks' C-order bytes, one after another
    with np.load(path, allow_pickle=False) as blob:
        assert sorted(blob.files) == ["channels", "data", "ends", "filters", "provenance",
                                      "rate"]
        assert blob["channels"].tolist() == sorted(_POLICY)
        _assert_identical(blob["data"], np.concatenate([b.ravel() for b in blocks]))


@pytest.mark.parametrize("metric, gb_metric", [("COR", None), ("PLV", "ND"), ("PLI", None)])
@pytest.mark.parametrize("condition", ["resting", "task"])
def test_feature_rows_equal_the_whole_stack_reference(mixed, metric, gb_metric, condition):
    corpus = synth.preprocessed(build_corpus(mixed))
    config = ev.ExperimentConfig(metric=metric, band="alpha", gb_metric=gb_metric,
                                 epoch_length_s=1.5)
    got = ev.epoch_features(ev.band_epochs(corpus, config, condition), metric, gb_metric)
    want = oracles.features_whole(oracles.preprocessed_whole(mixed), config, condition)
    for mine, ref in zip(got, want):
        _assert_identical(mine, ref)
    x, labels = ev._features_cached(corpus, config, condition)
    corpus.close()
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


def _recording_bytes(manifest):
    """Bytes of the first entry's decoded EDF samples, the unit of the bounds below."""
    first = load_manifest(manifest)["entries"][0]["path"]
    return parse_edf(Path(first).read_bytes())[0].nbytes


def _features(manifest, cache, out):
    return cli.main(["features", "--manifest", str(manifest), "--cache", str(cache),
                     "--out", str(out), "--band", "gamma", "--metric", "COR"])


def test_warm_features_peak_below_three_recordings(tmp_path):
    """A `features` command on the corpus cache that `ingest` wrote reads one
    recording at a time; loading the cache whole held the corpus, about
    eleven recordings here."""
    manifest = _edf_corpus(tmp_path)
    recording = _recording_bytes(manifest)
    cache = tmp_path / "cache"
    assert cli.main(["ingest", "--manifest", str(manifest), "--out", str(cache)]) == 0
    _features(manifest, cache, tmp_path / "warm-designs.csv")
    code, peak = _traced_peak(lambda: _features(manifest, cache, tmp_path / "f.csv"))
    assert code == cli.EXIT_OK
    assert peak < 3 * recording, (peak, recording)


def test_featurizing_holds_one_recording_at_a_time(tmp_path):
    """Featurizing holds one band-filtered recording, its epoch stack, the
    filter's row buffers and the feature rows; a name left on the previous
    recording's stack (or a view of one of its epochs) adds a recording."""
    corpus = synth.preprocessed(build_corpus(load_manifest(_edf_corpus(tmp_path))))
    recording = corpus.n_channels * int(corpus.ends[0]) * 8
    config = ev.ExperimentConfig(metric="COR", band="gamma")
    ev.epoch_features(ev.band_epochs(corpus, config, "resting"), "COR", None)  # warm designs
    (x, _, _), peak = _traced_peak(
        lambda: ev.epoch_features(ev.band_epochs(corpus, config, "resting"), "COR", None))
    corpus.close()
    assert peak < 2.5 * recording + x.nbytes, (peak, recording, x.nbytes)


def test_featurizing_many_short_epochs_holds_the_matrix_once(tmp_path):
    """With 1/16 s epochs the feature matrix is several recordings large;
    featurizing writes each row into it, where a list of rows stacked at the
    end held it twice."""
    corpus = synth.preprocessed(build_corpus(load_manifest(_edf_corpus(tmp_path, 4))))
    recording = corpus.n_channels * int(corpus.ends[0]) * 8
    config = ev.ExperimentConfig(metric="COR", band="gamma", epoch_length_s=0.0625)
    ev.epoch_features(ev.band_epochs(corpus, config, "resting"), "COR", None)  # warm designs
    (x, _, _), peak = _traced_peak(
        lambda: ev.epoch_features(ev.band_epochs(corpus, config, "resting"), "COR", None))
    corpus.close()
    assert x.nbytes > 8 * recording, (x.nbytes, recording)
    assert peak < 2.5 * recording + x.nbytes, (peak, recording, x.nbytes)


def test_cold_commands_peak_below_three_recordings(tmp_path):
    """A cold `ingest` and a cold `features` command each build the corpus and
    write its cache one recording at a time; filling a corpus array first
    held all of it."""
    manifest = _edf_corpus(tmp_path)
    recording = _recording_bytes(manifest)
    for command in (["ingest", "--out", str(tmp_path / "ingest")],
                    ["features", "--cache", str(tmp_path / "features"),
                     "--out", str(tmp_path / "f.csv"), "--band", "gamma", "--metric", "COR"]):
        code, peak = _traced_peak(lambda: cli.main([command[0], "--manifest", str(manifest),
                                                    *command[1:]]))
        assert code == cli.EXIT_OK
        assert peak < 3 * recording, (command[0], peak, recording)


class _Featurized(Exception):
    """Raised in place of the model selection once a config is featurized."""


def test_evaluate_featurizes_a_config_below_three_recordings(tmp_path, monkeypatch):
    """From opening the corpus cache to the feature cache written and read
    back, one `evaluate` config holds about one recording; the corpus that
    was loaded whole per channel policy was about eleven.  Node degrees keep
    the feature rows small beside a recording."""
    manifest = _edf_corpus(tmp_path)
    recording = _recording_bytes(manifest)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"manifest": str(manifest), "bands": ["gamma"],
                                  "metrics": ["COR"], "gb_metrics": ["ND"],
                                  "epoch_lengths_s": [1.0], "k1": 2, "k2": 2}))
    assert cli.main(["ingest", "--manifest", str(manifest),
                     "--out", str(tmp_path / "cache")]) == 0
    peaks = []

    def featurize(corpus, config, feature_cache_dir=None, cache_tag=""):
        ev._features_cached(corpus, config, config.train_condition, feature_cache_dir,
                            cache_tag)
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _Featurized

    monkeypatch.setattr(ev, "run_experiment", featurize)
    with pytest.raises(_Featurized):
        _traced_peak(lambda: cli.main(["evaluate", "--config", str(config),
                                       "--out", str(tmp_path / "out")]))
    assert list((tmp_path / "cache").glob("features-*.npz"))
    [peak] = peaks
    assert peak < 3 * recording, (peak, recording)


def test_a_corpus_handle_never_reads_the_data_member_whole(tmp_path, monkeypatch):
    """Opening reads the data member in _CRC_CHUNK pieces, and a recording
    is one read of its own block."""
    path = tmp_path / "corpus.npz"
    with open(path, "wb") as fh:
        ev.write_preprocessed(fh, build_corpus(load_manifest(_edf_corpus(tmp_path))))
    reads = []

    class Spy:
        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def read(self, n=-1):
            data = self._fh.read(n)
            reads.append(len(data))
            return data

        def readinto(self, buffer):
            n = self._fh.readinto(buffer)
            reads.append(n)
            return n

    monkeypatch.setattr(ev, "open", lambda *args: Spy(open(*args)), raising=False)
    with ev.PreprocessedCorpus(path) as corpus:
        block = corpus.n_channels * int(corpus.ends[0]) * 8
        opened = len(reads)
        recordings = [corpus.recording(i) for i in range(len(corpus.ends))]
    data = sum(r.nbytes for r in recordings)
    assert data > 4 * max(ev._CRC_CHUNK, block)
    # every byte of the member was checked, in pieces
    assert sum(reads[:opened]) > data and max(reads[:opened]) <= ev._CRC_CHUNK
    assert reads[opened:] == [block] * len(recordings)


_CACHE_ARRAYS = {
    "data": np.arange(24.0).reshape(4, 6) / 7, "ends": np.array([2, 6]),
    "provenance": np.array([["d", "S1", "resting"], ["d", "S22", "task"]]),
    "rate": np.array(128.0), "filters": np.array("order4-notch50-q30"),
    "empty": np.zeros((0, 3)), "flags": np.array([True, False]),
}


def _load_all(path):
    with np.load(path, allow_pickle=False) as blob:
        return {key: blob[key] for key in blob}


def test_cache_file_holds_what_np_savez_would(tmp_path):
    """Same member names, and each member byte for byte what `np.savez`
    writes for a C-order array; loading needs no pickles."""
    path = tmp_path / "c.npz"
    _, cached = ev.load_or_build(path, _load_all, lambda fh: ev._write_npz(fh, _CACHE_ARRAYS))
    assert not cached
    np.savez(tmp_path / "ref.npz", **_CACHE_ARRAYS)
    with zipfile.ZipFile(path) as mine, zipfile.ZipFile(tmp_path / "ref.npz") as ref:
        assert mine.namelist() == ref.namelist() == [f"{k}.npy" for k in _CACHE_ARRAYS]
        for name in ref.namelist():
            assert mine.getinfo(name).compress_type == zipfile.ZIP_STORED
            assert mine.read(name) == ref.read(name), name
    with np.load(path, allow_pickle=False) as blob:
        for key, want in _CACHE_ARRAYS.items():
            got = blob[key]
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.array_equal(got, want), key
    # a Fortran-order array is written in C order, under a header that says so
    want = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    ev.load_or_build(tmp_path / "f.npz", _load_all, lambda fh: ev._write_npz(fh, {"f": want}))
    with np.load(tmp_path / "f.npz", allow_pickle=False) as blob:
        assert np.array_equal(blob["f"], want)


def test_cache_written_by_np_savez_still_hits(tmp_path):
    path = tmp_path / "c.npz"
    np.savez(path, **_CACHE_ARRAYS)

    def write(fh):
        raise AssertionError("a np.savez file was rebuilt")

    arrays, cached = ev.load_or_build(path, _load_all, write)
    assert cached
    assert sorted(arrays) == sorted(_CACHE_ARRAYS)
    for key, want in _CACHE_ARRAYS.items():
        assert arrays[key].dtype == want.dtype and np.array_equal(arrays[key], want), key


def test_cache_write_copies_no_array(tmp_path):
    arrays = {"data": np.ones((64, 16384)), "ends": np.array([16384])}
    _, peak = _traced_peak(lambda: ev.load_or_build(tmp_path / "c.npz", lambda path: None,
                                                    lambda fh: ev._write_npz(fh, arrays)))
    assert peak < arrays["data"].nbytes // 8, (peak, arrays["data"].nbytes)
