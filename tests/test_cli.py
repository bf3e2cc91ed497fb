import filecmp
import importlib.metadata as md
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from eegid import cli, dsp, evaluation, io_ingest, svm
from eegid.io_ingest import build_corpus, load_manifest

from edf_tools import save_matrix, write_edf
import oracles
import synth


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A manifest over matrix files of a small synthetic corpus."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                    duration_s=30.0, seed=5)
    entries = []
    for rec in corpus:
        path = root / f"{rec['subject_id']}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            save_matrix(rec["data"], fh)
        entries.append({
            "path": path.name,
            "format": "matrix",
            "subject_id": rec["subject_id"],
            "dataset_id": "synth",
            "condition": "resting",
            "window_s": [0.0, 30.0],
            "sampling_rate_hz": 128.0,
            "channel_names": list(rec["channel_names"]),
        })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({
        "target_rate_hz": 128.0,
        "channel_policy": list(corpus[0]["channel_names"]),
        "entries": entries,
    }))
    return root, manifest


_GOOD_ENTRY = {"path": "s1.txt", "format": "matrix", "subject_id": "s1",
               "dataset_id": "d1", "window_s": [0.0, 1.0],
               "sampling_rate_hz": 128.0, "channel_names": ["C3"]}


def _manifest_doc(**changes):
    """A two-entry manifest whose second entry has `changes`; a change to
    None drops the key."""
    second = {**_GOOD_ENTRY, "subject_id": "s2", **changes}
    return {"target_rate_hz": 128.0, "channel_policy": ["C3"],
            "entries": [_GOOD_ENTRY, {k: v for k, v in second.items() if v is not None}]}


def _bench_workloads():
    """bench/workloads.py, loaded once."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads


def _bench_inputs(name, seed, out_dir):
    """The manifest path of the benchmark's inputs for one workload and seed,
    written by bench/workloads.py."""
    workloads = _bench_workloads()
    return workloads.write_inputs(workloads.WORKLOADS[name], seed, out_dir)["manifest"]


def _task_copies(entries):
    """Give every subject of the manifest entries a task recording too."""
    entries += [{**entry, "condition": "task"} for entry in entries]


def _short_resting(entries):
    """Task copies, and 4 s of resting per subject of the cv_fc inputs."""
    _task_copies(entries)
    for entry in entries[:4]:
        entry["window_s"] = [0.0, 4.0]


def _no_resting_s004(entries):
    """Task copies, and no resting recording of the cv_fc inputs' S004."""
    _task_copies(entries)
    del entries[3]


def _workspace_doc(workspace):
    """The workspace manifest document with absolute entry paths."""
    root, manifest = workspace
    doc = json.loads(manifest.read_text())
    for entry in doc["entries"]:
        entry["path"] = str(root / entry["path"])
    return doc


class _Tripwire:
    """Unpickling this object creates the directory `path`."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


class TestIngest:
    def test_builds_and_caches(self, workspace, capsys):
        root, manifest = workspace
        cache = root / "cache"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        assert list(cache.glob("preprocessed-*.npz"))
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        assert "cache hit" in capsys.readouterr().err

    def test_cache_is_npz_read_without_pickles(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        cache = tmp_path / "cache"
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        name = (f"preprocessed-{cli._corpus_hash(load_manifest(manifest))}"
                "-order4-notch50-q30-blocks.npz")
        assert sorted(p.name for p in cache.iterdir()) == [name]
        whole = oracles.preprocessed_whole(load_manifest(manifest))
        # the (6, 3840) block of each recording in turn
        blocks = np.concatenate(np.split(whole["data"], whole["ends"][:-1], axis=1), axis=None)
        with np.load(cache / name, allow_pickle=False) as blob:
            assert sorted(blob.files) == sorted([*whole, "channels"])
            assert blob["channels"].tolist() == list(load_manifest(manifest)["channel_policy"])
            assert blob["data"].dtype == np.float64 and blob["data"].shape == (6 * 3 * 30 * 128,)
            assert np.array_equal(blob["data"], blocks)
            for key in ("ends", "provenance", "rate", "filters"):
                assert blob[key].dtype == whole[key].dtype, key
                assert np.array_equal(blob[key], whole[key]), key
            assert blob["ends"].tolist() == [3840, 7680, 11520]
            assert blob["provenance"].tolist() == [["synth", f"S00{i}", "resting"]
                                                   for i in range(3)]
            assert blob["rate"].shape == () and blob["rate"] == 128.0
            assert blob["filters"].shape == () and blob["filters"] == "order4-notch50-q30"
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        assert f"cache hit: {name}" in capsys.readouterr().err

    @staticmethod
    def _corpus_file(cache, manifest):
        digest = cli._corpus_hash(load_manifest(manifest))
        return cache / f"preprocessed-{digest}-order4-notch50-q30-blocks.npz"

    def test_object_array_cache_is_rebuilt_not_unpickled(self, workspace, tmp_path,
                                                         capsys):
        root, manifest = workspace
        cache = tmp_path / "cache"
        cache.mkdir()
        cache_file = self._corpus_file(cache, manifest)
        # the tripwire fires when numpy unpickles it
        probe = tmp_path / "probe.npz"
        np.savez(probe, data=np.array([_Tripwire(str(tmp_path / "probe-fired"))]))
        with np.load(probe, allow_pickle=True) as blob:
            blob["data"]
        assert (tmp_path / "probe-fired").is_dir()
        marker = tmp_path / "unpickled"
        # every key a corpus file holds, so only the object array is refused
        booby_trapped = {"data": np.array([_Tripwire(str(marker))]),
                         "channels": np.array(["C3"]), "ends": np.array([1]),
                         "provenance": np.array([["d", "s", "resting"]]),
                         "rate": np.array(128.0), "filters": np.array("order4-notch50-q30")}
        np.savez(cache_file, **booby_trapped)
        capsys.readouterr()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        err = capsys.readouterr().err
        assert f"rebuilding unreadable cache {cache_file.name}" in err
        assert "data member is object" in err
        assert "cache hit" not in err
        assert not marker.exists()
        with np.load(cache_file, allow_pickle=False) as blob:
            assert len(blob["ends"]) == 3
        # `features` reads the same file, and refuses it the same way
        np.savez(cache_file, **booby_trapped)
        assert cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "features.csv"), "--cache", str(cache),
                         "--band", "gamma", "--metric", "PLV"]) == cli.EXIT_OK
        err = capsys.readouterr().err
        assert f"rebuilding unreadable cache {cache_file.name}" in err
        assert "cache hit" not in err
        assert not marker.exists()
        with np.load(cache_file, allow_pickle=False) as blob:
            assert len(blob["ends"]) == 3

    def test_cache_of_the_old_layout_is_rebuilt_once(self, workspace, tmp_path, capsys,
                                                     monkeypatch):
        # flat samples, per-recording shapes and each recording's other
        # fields as a JSON string
        root, manifest = workspace
        cache = tmp_path / "cache"
        cache.mkdir()
        cache_file = self._corpus_file(cache, manifest)
        meta = [json.dumps({"channel_names": ["C3", "C4"], "sampling_rate_hz": 128.0,
                            "subject_id": subject, "dataset_id": "synth",
                            "condition": "resting", "filters": "order4-notch50-q30"})
                for subject in ("S000", "S001")]
        np.savez(cache_file, data=np.zeros(12), shapes=np.array([[2, 3], [2, 3]]),
                 meta=np.array(meta))
        build, builds = cli.build_corpus, []

        def building(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_corpus", building)
        capsys.readouterr()
        for _ in range(2):
            assert cli.main(["ingest", "--manifest", str(manifest),
                             "--out", str(cache)]) == cli.EXIT_OK
        err = capsys.readouterr().err
        assert err.count(f"rebuilding unreadable cache {cache_file.name}") == 1
        assert err.count("cache hit") == 1
        assert len(builds) == 1
        with np.load(cache_file, allow_pickle=False) as blob:
            assert sorted(blob.files) == ["channels", "data", "ends", "filters", "provenance",
                                          "rate"]

    @staticmethod
    def _damage(path, fault):
        """Rewrite the corpus cache file `path` with one fault."""
        if fault == "flipped-byte":
            with evaluation.PreprocessedCorpus(path) as corpus:
                # a byte of the second recording's fourth sample of channel 0
                at = corpus._start + 8 * (corpus.n_channels * int(corpus.ends[0]) + 3) + 2
            raw = bytearray(path.read_bytes())
            raw[at] ^= 0x10
            path.write_bytes(bytes(raw))
            return
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        with np.load(path, allow_pickle=False) as blob:
            data = blob["data"]
            samples = int(blob["ends"][-1])
        if fault == "truncated-data":
            members["data.npy"] = members["data.npy"][:-800]
        elif fault.startswith("missing-"):
            del members[f"{fault[len('missing-'):]}.npy"]
        else:
            wrong = {"float32-data": data.astype(np.float32),
                     "2d-data": data.reshape(-1, samples),
                     "short-data": data[:-samples]}[fault]
            out = io.BytesIO()
            np.save(out, wrong)
            members["data.npy"] = out.getvalue()
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            for name, raw in members.items():
                archive.writestr(name, raw)

    @pytest.mark.parametrize("fault", ["flipped-byte", "truncated-data", "missing-data",
                                       "missing-ends", "float32-data", "2d-data",
                                       "short-data"])
    def test_damaged_corpus_cache_is_rebuilt_before_any_work(self, workspace, tmp_path,
                                                            capsys, monkeypatch, fault):
        root, manifest = workspace
        cache = tmp_path / "cache"
        clean = tmp_path / "clean.csv"
        assert self._features_csv(manifest, cache, clean) == cli.EXIT_OK
        self._damage(self._corpus_file(cache, manifest), fault)
        events = self._watch_build_and_featurize(monkeypatch)
        capsys.readouterr()
        assert self._features_csv(manifest, cache, tmp_path / "f.csv") == cli.EXIT_OK
        err = capsys.readouterr().err
        assert err.count("rebuilding unreadable cache") == 1
        assert f"rebuilding unreadable cache {self._corpus_file(cache, manifest).name}" in err
        assert events == ["build", "featurize"]
        assert (tmp_path / "f.csv").read_bytes() == clean.read_bytes()
        assert self._features_csv(manifest, cache, tmp_path / "g.csv") == cli.EXIT_OK
        assert "cache hit" in capsys.readouterr().err
        assert events == ["build", "featurize", "featurize"]

    def test_cache_of_the_whole_array_layout_is_ignored(self, workspace, tmp_path,
                                                        capsys, monkeypatch):
        """A file written before the layout tag (one (channels, samples)
        array of every recording side by side) is neither read nor removed:
        the tagged file is built beside it, once."""
        root, manifest = workspace
        cache = tmp_path / "cache"
        clean = tmp_path / "clean.csv"
        assert self._features_csv(manifest, tmp_path / "fresh", clean) == cli.EXIT_OK
        cache.mkdir()
        new = self._corpus_file(cache, manifest)
        old = new.with_name(new.name.replace("-blocks.npz", ".npz"))
        np.savez(old, **oracles.preprocessed_whole(load_manifest(manifest)))
        old_bytes = old.read_bytes()
        events = self._watch_build_and_featurize(monkeypatch)
        opened, corpus = [], evaluation.PreprocessedCorpus
        monkeypatch.setattr(evaluation, "PreprocessedCorpus",
                            lambda path: opened.append(path.name) or corpus(path))
        capsys.readouterr()
        for out in ("f.csv", "g.csv"):
            assert self._features_csv(manifest, cache, tmp_path / out) == cli.EXIT_OK
            assert (tmp_path / out).read_bytes() == clean.read_bytes()
        err = capsys.readouterr().err
        assert "rebuilding" not in err and err.count("cache hit") == 1
        assert events == ["build", "featurize", "featurize"]
        assert opened == [new.name, new.name]
        assert sorted(cache.iterdir()) == sorted([old, new])
        assert old.read_bytes() == old_bytes

    @staticmethod
    def _features_csv(manifest, cache, out):
        return cli.main(["features", "--manifest", str(manifest), "--out", str(out),
                         "--cache", str(cache), "--band", "gamma", "--metric", "PLV"])

    @staticmethod
    def _watch_build_and_featurize(monkeypatch):
        """The order of corpus builds and band_epochs calls, as a list that grows."""
        events = []
        build, band_epochs = cli.build_corpus, evaluation.band_epochs

        def building(*args):
            events.append("build")
            return build(*args)

        def featurizing(*args):
            events.append("featurize")
            return band_epochs(*args)

        monkeypatch.setattr(cli, "build_corpus", building)
        monkeypatch.setattr(evaluation, "band_epochs", featurizing)
        return events

    @pytest.mark.parametrize("flags", [(), ("--notch-hz", "40", "--filter-order", "2")])
    def test_ingest_warms_the_cache_features_reads(self, workspace, tmp_path, capsys,
                                                   monkeypatch, flags):
        root, manifest = workspace
        cache = tmp_path / "cache"
        assert cli.main([*flags, "ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_OK
        builds = []
        monkeypatch.setattr(cli, "build_corpus", lambda *a: builds.append(a))
        capsys.readouterr()
        assert cli.main([*flags, "features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "features.csv"), "--cache", str(cache),
                         "--band", "gamma", "--metric", "PLV"]) == cli.EXIT_OK
        assert "cache hit: preprocessed-" in capsys.readouterr().err
        assert builds == []
        assert len(list(cache.iterdir())) == 1

    def test_empty_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"target_rate_hz": 128.0, "entries": []}))
        cache = tmp_path / "cache"
        cache.mkdir()
        assert cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(cache)]) == cli.EXIT_DATA
        assert ("manifest key 'entries' must be a non-empty list, not []"
                in capsys.readouterr().err)
        assert list(cache.iterdir()) == []

    @staticmethod
    def _ingest_one_edf(tmp_path, name, raw):
        (tmp_path / name).write_bytes(raw)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "target_rate_hz": 128.0,
            "channel_policy": ["C3"],
            "entries": [{"path": name, "format": "edf",
                         "subject_id": "s1", "dataset_id": "d1",
                         "window_s": [0.0, 1.0]}],
        }))
        return cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(tmp_path / "cache")])

    def test_corrupted_edf_names_file(self, tmp_path, capsys):
        code = self._ingest_one_edf(tmp_path, "junk.edf", b"\x00" * 100)
        assert code == cli.EXIT_DATA
        assert "junk.edf" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, width", [
        (184, 8),  # header length
        (236, 8),  # record count
        (252, 4),  # signal count
    ])
    def test_non_finite_edf_header_field(self, tmp_path, capsys, offset, width):
        raw = bytearray(write_edf(["C3"], np.zeros((1, 256), dtype=np.int16), 128.0))
        raw[offset:offset + width] = b"inf".ljust(width)
        code = self._ingest_one_edf(tmp_path, "bad.edf", bytes(raw))
        assert code == cli.EXIT_DATA
        assert "bad.edf" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sampling_rate_hz", 256.0),
        ("channel_names", [f"X{i}" for i in range(6)]),
    ])
    def test_corpus_hash_covers_matrix_entry_fields(self, workspace, tmp_path,
                                                    field, value):
        doc = _workspace_doc(workspace)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        doc["entries"][1][field] = value
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc))
        assert (cli._corpus_hash(load_manifest(base))
                != cli._corpus_hash(load_manifest(changed)))

    def test_edf_entry_matrix_keys_leave_hash(self, tmp_path):
        # the EDF loader reads rate and channels from the file, so the
        # manifest's matrix-only keys on an EDF entry change nothing
        manifest = _bench_inputs("cv_fc", 0, tmp_path / "inputs")
        base = cli._corpus_hash(load_manifest(manifest))
        doc = json.loads(manifest.read_text())
        doc["entries"][1].update(sampling_rate_hz=999.0, channel_names=["C3"])
        manifest.write_text(json.dumps(doc))
        assert cli._corpus_hash(load_manifest(manifest)) == base

    def test_benchmark_corpus_hashes_are_stable(self, tmp_path):
        # existing corpus caches of the benchmark's inputs keep hitting
        want = {
            "cv_fc": ["e3828448ff2866c1", "709c33569c2900e3", "ef8eef434ac468d7",
                      "9eee4beede2f594a", "4e24a01e9de13e74"],
            "cv_graph": ["aa3ccc40ac20e137", "8b734c65c6ce90fe", "5fd6f9a0e0c3975e",
                         "9c4c899ab31a7682", "61d283a4147c434f"],
            "feature_sweep": ["15a66990e619f351", "4b57d0515a8dc73e", "1392963d6f9b824a",
                              "86a1131036c0a9b4", "111711e3443a9887"],
        }
        got = {name: [cli._corpus_hash(load_manifest(_bench_inputs(
                   name, seed, tmp_path / f"{name}{seed}"))) for seed in range(5)]
               for name in want}
        assert got == want

    def test_benchmark_run_configs_pass_and_share_the_grid(self, tmp_path):
        """Every run config the benchmark writes runs as written (so a key it
        sends, such as `"workers": 1`, stays accepted), and bench/check.py
        checks chosen_params against the package's grid."""
        workloads = _bench_workloads()
        configs = []
        for name, workload in workloads.WORKLOADS.items():
            (tmp_path / name).mkdir()
            for argv in workloads.pass_commands(workload, tmp_path / "manifest.json",
                                                tmp_path / name):
                if argv[0] == "evaluate":
                    configs.append(cli._load_run_config(argv[argv.index("--config") + 1]))
        assert len(configs) == 2
        assert [cli._run_config_problem(doc) for doc in configs] == [None, None]
        assert workloads.C_GRID == svm.C_GRID
        assert workloads.GAMMA_GRID == svm.GAMMA_GRID

    def test_mixed_corpus_hashes_are_stable(self, tmp_path):
        # matrix entries with integer windows and rates, an entry without a
        # condition and an integer subject id, under the manifest's label-list
        # policy and two run-config policies
        names = ["C3", "C4", "CZ"]
        (tmp_path / "a.edf").write_bytes(write_edf(
            names, np.arange(3 * 256).reshape(3, 256) % 97, 128.0))
        (tmp_path / "b.txt").write_text("1 2 3 4 5 6\n6,5,4,3,2,1\n0 1 0 1 0 1\n")
        (tmp_path / "c.txt").write_text("\n0.5 1.5 2.5 3.5\n4 3 2 1\n9 9 9 9\n")
        entries = [
            {"path": "a.edf", "format": "edf", "subject_id": "S1", "dataset_id": "d1",
             "window_s": [0.5, 2.0], "sampling_rate_hz": 64.0, "channel_names": ["X"]},
            {"path": "b.txt", "format": "matrix", "subject_id": 7, "dataset_id": "d2",
             "condition": "task", "window_s": [0, 1], "sampling_rate_hz": 4,
             "channel_names": ["cz.", "C4", "c3"]},
            {"path": str(tmp_path / "c.txt"), "format": "matrix", "subject_id": "S1",
             "dataset_id": "d1", "condition": "task", "window_s": [0.25, 1],
             "sampling_rate_hz": 4.0, "channel_names": ["C3", "C4", "CZ"]},
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"target_rate_hz": 4, "channel_policy": names,
                                        "entries": entries}))
        loaded = load_manifest(manifest)
        got = [cli._corpus_hash(cli._with_policy(loaded, policy))
               for policy in (None, "common_56", ["C3", "CZ"])]
        assert got == ["d1ccc5961ebef3a3", "e1d1aaf490b3f28c", "429ebd80d1772905"]

    def test_unknown_format_rejected_before_any_file_is_read(self, tmp_path, monkeypatch,
                                                             capsys):
        manifest = _bench_inputs("cv_fc", 0, tmp_path / "inputs")
        doc = json.loads(manifest.read_text())
        doc["entries"][3]["format"] = "csv"
        manifest.write_text(json.dumps(doc))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["COR"],
            "epoch_lengths_s": [4.0], "k1": 10, "k2": 3,
        }))
        parsed = []
        monkeypatch.setattr(io_ingest, "parse_edf", lambda *a, **k: parsed.append(a))
        code = cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert "entry 3 key 'format' must be 'edf' or 'matrix', not 'csv'" in (
            capsys.readouterr().err)
        assert parsed == []
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _evaluate_cv_fc(tmp_path, monkeypatch, edit_entries=None, **run_config):
        """Evaluate the cv_fc seed-0 inputs (k1 = 3, k2 = 2) with a run-config
        edit; returns the exit code and the EDF files parsed."""
        manifest = _bench_inputs("cv_fc", 0, tmp_path / "inputs")
        if edit_entries:
            doc = json.loads(manifest.read_text())
            edit_entries(doc["entries"])
            manifest.write_text(json.dumps(doc))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["COR"],
            "k1": 3, "k2": 2, **run_config,
        }))
        parse_edf, parsed = io_ingest.parse_edf, []

        def parsing(raw, *args, **kwargs):
            parsed.append(len(raw))
            return parse_edf(raw, *args, **kwargs)

        monkeypatch.setattr(io_ingest, "parse_edf", parsing)
        code = cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")])
        return code, parsed

    def test_missing_policy_channel_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                             capsys):
        # the null policy would run first and write its report
        code, parsed = self._evaluate_cv_fc(tmp_path, monkeypatch,
                                            channel_policies=[None, ["FC5", "XX1"]])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "S001R01.edf: channel not present in recording: 'XX1'" in err, err
        assert parsed == []
        assert not (tmp_path / "out").exists()

    def test_recording_too_short_for_an_epoch_length_rejected_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # 3.5 s at 128 Hz holds 1 s epochs but no 4 s epoch; the 1 s config
        # would run first and write its report
        def cut_last(entries):
            entries[-1]["window_s"] = [0.0, 3.5]

        code, parsed = self._evaluate_cv_fc(tmp_path, monkeypatch, cut_last,
                                            epoch_lengths_s=[1, 4])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "S004R01.edf: 448 samples cannot hold one 4.0 s epoch at 128.0 Hz" in err, err
        assert parsed == []
        assert not (tmp_path / "out").exists()

    def test_unswept_condition_needs_no_epoch(self, tmp_path, monkeypatch, capsys):
        # a task recording too short for any epoch is never epoched when
        # only resting/resting is swept
        def short_task(entries):
            entries[-1].update(condition="task", window_s=[0.0, 0.5])

        code, _ = self._evaluate_cv_fc(tmp_path, monkeypatch, short_task,
                                       epoch_lengths_s=[1], k1=2)
        assert code == cli.EXIT_OK, capsys.readouterr().err

    @pytest.mark.parametrize("edit, run_config, named", [
        (None, {"epoch_lengths_s": [2, 5]},
         "subject 'pn/S001' has fewer epochs than outer folds"),
        (None, {"conditions": [["resting", "resting"], ["resting", "task"]]},
         "corpus has no recordings with condition 'task'"),
        (_short_resting, {"conditions": [["task", "task"], ["resting", "task"]],
                          "epoch_lengths_s": [2]},
         "3 folds need a subject with at least 3 epochs, but the most any subject has is 2"),
        (_no_resting_s004, {"conditions": [["task", "task"], ["resting", "task"]]},
         "test-condition subjects absent from training data: ['pn/S004']"),
        # outer fold 0 trains on 18 of a subject's 20 epochs of 2 s, but on 9
        # of its 10 epochs of 4 s
        (None, {"epoch_lengths_s": [2, 4], "k2": 10},
         "10 folds need a subject with at least 10 epochs, but the most any subject has "
         "is 9 (resting epochs of 4.0 s)"),
    ], ids=["matched-below-k1", "condition-without-recordings", "mismatched-below-k2",
            "test-subject-not-trained", "matched-inner-below-k2"])
    def test_config_short_of_epochs_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                             capsys, edit, run_config, named):
        # the first config of each sweep would run and write its report
        code, parsed = self._evaluate_cv_fc(tmp_path, monkeypatch, edit,
                                            **{"k1": 10, "k2": 3, **run_config})
        assert code == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert parsed == []
        assert not (tmp_path / "out").exists()

    def test_condition_with_one_subject_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                                capsys):
        # only S001 has a task recording: every task training set holds one
        # subject, which the resting config, run first, would not show
        def task_s001(entries):
            entries.append({**entries[0], "condition": "task"})

        code, parsed = self._evaluate_cv_fc(
            tmp_path, monkeypatch, task_s001,
            conditions=[["resting", "resting"], ["task", "task"]])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert ("inner fold 0 of outer fold 0 trains on 1 subject(s); a classifier needs 2 "
                "(task epochs of 4.0 s)") in err, err
        assert parsed == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, named", [
        ([_manifest_doc()], "must be a JSON object, not list"),
        ({**_manifest_doc(), "entries": {"s1": _GOOD_ENTRY}}, "key 'entries'"),
        ({**_manifest_doc(), "target_rate_hz": [1]}, "key 'target_rate_hz'"),
        ({**_manifest_doc(), "channel_policy": 3}, "key 'channel_policy'"),
        ({**_manifest_doc(), "channel_policy": []}, "key 'channel_policy'"),
        ({**_manifest_doc(), "entries": [_GOOD_ENTRY, 3]}, "entry 1 must be an object"),
        (_manifest_doc(path=3), "entry 1 key 'path'"),
        (_manifest_doc(window_s=5), "entry 1 key 'window_s'"),
        (_manifest_doc(window_s=["a", "b"]), "entry 1 key 'window_s'"),
        (_manifest_doc(condition=["resting"]), "entry 1 key 'condition'"),
        (_manifest_doc(condition="sleep"),
         "entry 1 key 'condition' must be 'resting' or 'task', not 'sleep'"),
        (_manifest_doc(channel_names=["FC5", "FC3", "fc5."]),
         "entry 1 key 'channel_names' repeats a channel after normalization"),
        (_manifest_doc(channel_names="C3"), "entry 1 key 'channel_names'"),
        (_manifest_doc(subject_id=None), "entry 1 has no 'subject_id'"),
        (_manifest_doc(format="csv"), "entry 1 key 'format' must be 'edf' or 'matrix', not 'csv'"),
        (_manifest_doc(sampling_rate_hz=None), "entry 1 has format 'matrix', which needs"),
        (_manifest_doc(sampling_rate_hz=0), "entry 1 has format 'matrix', which needs"),
        (_manifest_doc(channel_names=[]), "entry 1 has format 'matrix', which needs"),
        ({**_manifest_doc(), "target_rate_hz": 0},
         "key 'target_rate_hz' must be a positive finite number, not 0"),
        ({**_manifest_doc(), "target_rate_hz": -128}, "key 'target_rate_hz'"),
        (_manifest_doc(window_s=[-0.001, 1.0]),
         "entry 1 key 'window_s' must be [start, end] in seconds with 0 <= start < end"),
        (_manifest_doc(window_s=[1.0, 1.0]), "entry 1 key 'window_s'"),
        (_manifest_doc(subject_id="S,001"),
         "entry 1 key 'subject_id' must be text without ',' or a line break, not 'S,001'"),
        (_manifest_doc(subject_id="S\n001"), "entry 1 key 'subject_id'"),
        (_manifest_doc(dataset_id="d\r1"), "entry 1 key 'dataset_id'"),
        (_manifest_doc(subject_id="s1"),
         "manifest entries 0 and 1 are both dataset 'd1' subject 's1' in condition 'resting'"),
    ], ids=["top-level-list", "entries-object", "rate-list", "policy-number",
            "policy-empty", "entry-number", "path-number", "window-number", "window-strings",
            "condition-list", "condition-unknown", "channel-names-repeated",
            "channel-names-string", "no-subject", "format-unknown", "matrix-no-rate",
            "matrix-zero-rate", "matrix-no-channels", "rate-zero", "rate-negative",
            "window-negative-start", "window-empty", "subject-comma", "subject-newline",
            "dataset-carriage-return", "duplicate-entry"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, doc, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        code = cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(tmp_path / "cache")])
        assert code == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("raw", [json.dumps(_manifest_doc()).encode()[:35],
                                     b'\xff{"entries": []}'],
                             ids=["truncated", "not-utf8"])
    def test_unreadable_manifest_names_file(self, tmp_path, capsys, raw):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(raw)
        code = cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(tmp_path / "cache")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {manifest}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("key, value", [
        ("target_rate_hz", float("inf")),
        ("target_rate_hz", 10 ** 400),
        ("window_s", [0.0, float("inf")]),
        ("sampling_rate_hz", float("inf")),
    ], ids=["rate-infinite", "rate-huge-int", "window-infinite", "entry-rate-infinite"])
    def test_non_finite_number_is_data_error(self, workspace, tmp_path, capsys, key, value):
        # over readable files, where such a number used to reach int() or
        # resampling and end in a traceback
        doc = _workspace_doc(workspace)
        (doc if key == "target_rate_hz" else doc["entries"][2])[key] = value
        changed = tmp_path / "manifest.json"
        changed.write_text(json.dumps(doc))
        code = cli.main(["ingest", "--manifest", str(changed), "--out", str(tmp_path / "cache")])
        assert code == cli.EXIT_DATA
        named = f"key {key!r}" if key == "target_rate_hz" else f"entry 2 key {key!r}"
        assert named in capsys.readouterr().err

    def test_two_subjects_with_one_class_label_rejected(self, workspace, tmp_path, capsys):
        doc = _workspace_doc(workspace)
        doc["entries"][0].update(dataset_id="d", subject_id="a/b")
        doc["entries"][1].update(dataset_id="d/a", subject_id="b")
        changed = tmp_path / "manifest.json"
        changed.write_text(json.dumps(doc))
        code = cli.main(["ingest", "--manifest", str(changed), "--out", str(tmp_path / "cache")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "entries 0 and 1" in err and "'d/a/b'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_missing_manifest(self, tmp_path, capsys):
        code = cli.main(["ingest", "--manifest", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "cache")])
        assert code == cli.EXIT_DATA


class TestFeatures:
    def test_fc_csv_shape(self, workspace, tmp_path):
        root, manifest = workspace
        out = tmp_path / "features.csv"
        code = cli.main(["features", "--manifest", str(manifest),
                         "--out", str(out), "--cache", str(root / "cache"),
                         "--band", "gamma", "--metric", "PLV",
                         "--epoch-length", "2"])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 15  # header + 15 epochs x 3 subjects
        header = lines[0].split(",")
        assert header[:3] == ["dataset_id", "subject_id", "condition"]
        assert len(header) == 3 + 6 * 5 // 2  # provenance + upper triangle
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_graph_csv_shape(self, workspace, tmp_path):
        root, manifest = workspace
        out = tmp_path / "graph.csv"
        code = cli.main(["features", "--manifest", str(manifest),
                         "--out", str(out), "--cache", str(root / "cache"),
                         "--band", "gamma", "--metric", "PLV", "--gb", "EC",
                         "--epoch-length", "2"])
        assert code == cli.EXIT_OK
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 3 + 6  # provenance + one score per channel

    def test_one_channel_corpus_is_data_error(self, workspace, tmp_path, capsys):
        doc = {**_workspace_doc(workspace), "channel_policy": ["CH00"]}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert self._features(manifest, tmp_path / "cache", tmp_path / "f.csv") == cli.EXIT_DATA
        assert "corpus has 1 channel(s)" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_zero_graph_names_epoch_and_recording(self, tmp_path, capsys):
        # identical channels have no phase lag: every PLI entry is 0,
        # and EC is undefined on an all-zero graph
        names = ["C3", "C4", "CZ"]
        row = " ".join(map(repr, np.random.default_rng(0).standard_normal(8 * 128).tolist()))
        entries = []
        for sid in ("s1", "s2"):
            (tmp_path / f"{sid}.txt").write_text(f"{row}\n" * len(names))
            entries.append({**_GOOD_ENTRY, "path": f"{sid}.txt", "subject_id": sid,
                            "dataset_id": "d", "window_s": [0.0, 8.0],
                            "channel_names": names})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"target_rate_hz": 128.0, "channel_policy": names,
                                        "entries": entries}))
        code = cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "graph.csv"), "--cache", str(tmp_path / "cache"),
                         "--band", "gamma", "--metric", "PLI", "--gb", "EC"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "all edge weights are zero in epoch 0 [d/s1]" in err, err

    @staticmethod
    def _features(manifest, cache, out, *flags, band="gamma", metric="PLV"):
        return cli.main([*flags, "features", "--manifest", str(manifest),
                         "--out", str(out), "--cache", str(cache),
                         "--band", band, "--metric", metric, "--epoch-length", "2"])

    def test_commands_sharing_a_cache_preprocess_each_recording_once(
            self, workspace, tmp_path, monkeypatch):
        root, manifest = workspace
        build_corpus, preprocess, built, calls = cli.build_corpus, dsp.preprocess, [], []
        layouts = []

        def building(*args, **kwargs):
            layout, recordings = build_corpus(*args, **kwargs)
            layouts.append(layout)

            def recording():
                for data in recordings:
                    built.append(data)
                    yield data
            return layout, recording()

        def counting(data, *args, **kwargs):
            calls.append(data)
            return preprocess(data, *args, **kwargs)

        monkeypatch.setattr(cli, "build_corpus", building)
        monkeypatch.setattr(dsp, "preprocess", counting)
        for band, metric in (("gamma", "PLV"), ("alpha", "COR"), ("gamma", "PLI")):
            assert self._features(manifest, tmp_path / "cache", tmp_path / f"{band}_{metric}.csv",
                                  band=band, metric=metric) == cli.EXIT_OK
        [layout] = layouts
        assert [subject for _, subject, _ in layout["provenance"].tolist()] == [
            "S000", "S001", "S002"]
        assert len(built) == 3
        # one call per built recording, each on that recording's own samples
        assert len(calls) == len(built)
        assert all(data is rec for data, rec in zip(calls, built))

    @pytest.mark.parametrize("flags", [("--notch-hz", "40"), ("--filter-order", "2")])
    def test_filter_flags_key_the_preprocessed_cache(self, workspace, tmp_path, capsys,
                                                     flags):
        root, manifest = workspace
        cache = tmp_path / "cache"
        assert self._features(manifest, cache, tmp_path / "default.csv") == cli.EXIT_OK
        assert self._features(manifest, cache, tmp_path / "changed.csv",
                              *flags) == cli.EXIT_OK
        assert "cache hit" not in capsys.readouterr().err
        assert len(list(cache.glob("preprocessed-*.npz"))) == 2
        assert ((tmp_path / "default.csv").read_bytes()
                != (tmp_path / "changed.csv").read_bytes())
        assert self._features(manifest, cache, tmp_path / "again.csv",
                              *flags) == cli.EXIT_OK
        assert "cache hit: preprocessed-" in capsys.readouterr().err
        assert len(list(cache.glob("preprocessed-*.npz"))) == 2

    def test_warm_cache_writes_the_same_bytes(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        cache = tmp_path / "cache"
        assert self._features(manifest, cache, tmp_path / "cold.csv") == cli.EXIT_OK
        assert "cache hit" not in capsys.readouterr().err
        assert self._features(manifest, cache, tmp_path / "warm.csv") == cli.EXIT_OK
        assert "cache hit: preprocessed-" in capsys.readouterr().err
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    def test_unknown_metric_is_usage_error(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        code = cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "x.csv"),
                         "--band", "gamma", "--metric", "XYZ"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        for name in ("COR", "PLV", "PLI"):
            assert name in err

    def test_unknown_band_is_usage_error(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        code = cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "x.csv"),
                         "--band", "mu", "--metric", "PLV"])
        assert code == cli.EXIT_USAGE
        assert "gamma" in capsys.readouterr().err

    def test_seed_flag_removed(self, workspace, tmp_path, capsys):
        # features never read a seed; the flag is gone
        root, manifest = workspace
        assert cli.main(["features", "--manifest", str(manifest),
                         "--out", str(tmp_path / "x.csv"), "--cache", str(tmp_path / "cache"),
                         "--band", "gamma", "--metric", "PLV", "--seed", "1"]) == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_is_usage_error(self):
        assert cli.main([]) == cli.EXIT_USAGE


class TestFlagChecks:
    """Bad flag values exit 1 before any work, and write nothing."""

    @staticmethod
    def _argv(command, workspace, tmp_path):
        root, manifest = workspace
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["PLV"],
            "epoch_lengths_s": [2.0], "k1": 5, "k2": 2, "cache_dir": str(tmp_path / "cache"),
        }))
        return {"ingest": ["ingest", "--manifest", str(manifest),
                           "--out", str(tmp_path / "cache")],
                "features": ["features", "--manifest", str(manifest),
                             "--out", str(tmp_path / "x.csv"), "--cache", str(tmp_path / "cache"),
                             "--band", "gamma", "--metric", "PLV", "--epoch-length", "2"],
                "evaluate": ["evaluate", "--config", str(config),
                             "--out", str(tmp_path / "out")]}[command]

    @pytest.mark.parametrize("command", ["ingest", "features", "evaluate"])
    @pytest.mark.parametrize("flag, value", [
        ("--notch-q", "0"), ("--notch-q", "-1"), ("--notch-q", "inf"),
        ("--notch-hz", "nan"), ("--notch-hz", "-50"), ("--notch-hz", "inf"),
        ("--filter-order", "3"), ("--filter-order", "10"), ("--filter-order", "0"),
    ])
    def test_bad_filter_flag(self, workspace, tmp_path, capsys, command, flag, value):
        argv = self._argv(command, workspace, tmp_path)
        assert cli.main([flag, value, *argv]) == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("flags, named", [
        (("--epoch-length", "0"), "epoch length 0.0"),
        (("--epoch-length", "-2"), "epoch length -2.0"),
        (("--epoch-length", "nan"), "epoch length nan"),
        (("--condition", "rest"), "'rest'"),
    ])
    def test_bad_features_flag(self, workspace, tmp_path, capsys, flags, named):
        argv = self._argv("features", workspace, tmp_path)
        assert cli.main([*argv, *flags]) == cli.EXIT_USAGE
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_notch_disabled_and_above_nyquist_accepted(self, workspace, tmp_path):
        # 0 disables the notch; one at or above Nyquist is skipped, as documented
        for notch in ("0", "64"):
            argv = self._argv("features", workspace, tmp_path)
            assert cli.main(["--notch-hz", notch, *argv]) == cli.EXIT_OK


_SRC = Path(__file__).resolve().parents[1] / "src"

# runs `eegid` with every scipy import failing
_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from eegid import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestRuntimeWithoutScipy:
    def test_cli_import_loads_no_scipy(self, tmp_path):
        done = _run_python(["-c", "import sys, eegid.cli; print(sorted(m for m in "
                            "sys.modules if m.split('.')[0] == 'scipy'))"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_features_end_to_end(self, tmp_path):
        # 160 Hz EDF, so the run resamples as well as filters
        rng = np.random.default_rng(3)
        names = ["C3", "C4", "CZ", "FZ"]
        entries = []
        for subject in ("s1", "s2"):
            digital = rng.integers(-3000, 3000, size=(4, 160 * 12))
            (tmp_path / f"{subject}.edf").write_bytes(write_edf(names, digital, 160.0))
            entries.append({"path": f"{subject}.edf", "format": "edf",
                            "subject_id": subject, "dataset_id": "d1",
                            "window_s": [0.0, 12.0]})
        (tmp_path / "manifest.json").write_text(json.dumps({
            "target_rate_hz": 128.0, "channel_policy": names, "entries": entries,
        }))
        done = _run_python(["-c", _BLOCK_SCIPY, "features", "--manifest", "manifest.json",
                            "--out", "features.csv", "--cache", "cache",
                            "--band", "alpha", "--metric", "PLV", "--gb", "BC",
                            "--epoch-length", "2"], tmp_path)
        assert done.returncode == cli.EXIT_OK, done.stderr
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 6  # header + 6 epochs x 2 subjects
        assert len(lines[0].split(",")) == 3 + 4


# a run-config value that TestEvaluate._evaluate leaves out of the config
_MISSING = object()


@pytest.fixture(scope="module")
def run_config(workspace):
    root, manifest = workspace
    config = root / "run.json"
    config.write_text(json.dumps({
        "manifest": manifest.name,
        "bands": ["gamma"],
        "metrics": ["PLV"],
        "epoch_lengths_s": [2.0],
        "k1": 5,
        "k2": 2,
        "seed": 0,
    }))
    return config


class TestEvaluate:
    def test_end_to_end_artifacts(self, workspace, run_config, tmp_path):
        out = tmp_path / "reports"
        code = cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        stem = "default_plv_fc_gamma_2s_resting"
        report = json.loads((out / f"{stem}.json").read_text())
        assert report["n_subjects"] == 3
        assert report["n_epochs"] == 45
        assert len(report["fold_accuracies"]) == 5
        csv_lines = (out / f"{stem}_confusion.csv").read_text().splitlines()
        assert len(csv_lines) == 4  # header + 3 classes
        assert (out / f"{stem}_confusion.pgm").read_bytes().startswith(b"P5\n3 3\n")
        rollup = (out / "rollup.csv").read_text().splitlines()
        assert len(rollup) == 2
        assert rollup[0].startswith("metric,gb_metric,epoch_s,train,test,")
        assert "+/-" in rollup[1]

    def test_determinism_and_cache_equivalence(self, workspace, run_config,
                                               tmp_path):
        # second run hits the corpus + feature caches; outputs must be
        # byte-identical to the from-scratch run
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out2)]) == cli.EXIT_OK
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("conditions, k2, largest", [
        ([["resting", "resting"]], 13, 12),  # 15 epochs per subject, 3 held out
        ([["resting", "task"]], 16, 15),     # all 15 resting epochs train
    ], ids=["matched", "mismatched"])
    def test_more_inner_folds_than_epochs_is_data_error(self, workspace, tmp_path, capsys,
                                                        conditions, k2, largest):
        doc = _workspace_doc(workspace)
        doc["entries"] += [{**entry, "condition": "task"} for entry in doc["entries"]]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["PLV"],
            "epoch_lengths_s": [2.0], "conditions": conditions, "k1": 5, "k2": k2,
        }))
        code = cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{k2} folds need a subject with at least {k2} epochs" in err
        assert f"the most any subject has is {largest}" in err

    def test_lockstep_block_does_not_change_reports(self, workspace, tmp_path, monkeypatch,
                                                    capsys):
        # every gamma in its own SMO run, then all gammas of a fold in one
        _, manifest = workspace
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["PLV"],
            "gb_metrics": [None, "BC"], "epoch_lengths_s": [2.0], "k1": 5, "k2": 3,
            "cache_dir": str(tmp_path / "cache"),
        }))
        outs, errs = [], []
        for block in (0, 1 << 40):
            monkeypatch.setattr(svm, "_LOCKSTEP_BLOCK", block)
            outs.append(tmp_path / f"out{block}")
            assert cli.main(["evaluate", "--config", str(config),
                             "--out", str(outs[-1])]) == cli.EXIT_OK
            errs.append([line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("warning: SMO")])
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 7 and names == sorted(p.name for p in outs[1].iterdir())
        _, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
        assert (mismatch, errors) == ([], [])
        assert errs[0] == errs[1]

    def test_damaged_caches_are_rebuilt(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": ["gamma"], "metrics": ["PLV"],
            "epoch_lengths_s": [2.0], "k1": 5, "k2": 2, "seed": 0,
            "cache_dir": str(tmp_path / "cache"),
        }))
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli.main(["evaluate", "--config", str(config),
                         "--out", str(out1)]) == cli.EXIT_OK
        damaged = sorted((tmp_path / "cache").glob("features-*.npz"))
        damaged += sorted((tmp_path / "cache").glob("preprocessed-*.npz"))
        assert len(damaged) == 2
        for path in damaged:
            path.write_bytes(path.read_bytes()[:100])
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(config),
                         "--out", str(out2)]) == cli.EXIT_OK
        assert capsys.readouterr().err.count("rebuilding unreadable cache") == 2
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # the rebuilt files are whole again, and no temporary file is left
        assert sorted((tmp_path / "cache").iterdir()) == sorted(damaged)
        assert all(p.stat().st_size > 100 for p in damaged)

    def test_corpus_loaded_once_per_policy(self, workspace, tmp_path, monkeypatch):
        corpus_hash, calls = cli._corpus_hash, []

        def counting(manifest):
            calls.append(manifest["channel_policy"])
            return corpus_hash(manifest)

        monkeypatch.setattr(cli, "_corpus_hash", counting)
        first_four = [f"CH{i:02d}" for i in range(4)]
        assert self._evaluate(workspace, tmp_path, bands=["gamma", "beta2"],
                              epoch_lengths_s=[2.0, 3.0],
                              channel_policies=[None, first_four],
                              cache_dir=str(tmp_path / "cache")) == cli.EXIT_OK
        assert len(calls) == 2 and calls[1] == first_four
        assert len(list((tmp_path / "out").glob("*_confusion.pgm"))) == 8

    def test_empty_grid_is_usage_error(self, workspace, tmp_path, capsys):
        root, manifest = workspace
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": [], "metrics": ["PLV"],
        }))
        code = cli.main(["evaluate", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["channel_policies", "epoch_lengths_s", "conditions"])
    def test_empty_list_key_writes_an_empty_rollup(self, workspace, tmp_path, key):
        assert self._evaluate(workspace, tmp_path, **{key: []}) == cli.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["rollup.csv"]

    @staticmethod
    def _evaluate(workspace, tmp_path, **keys):
        """Run `evaluate` on a small config; a key given as _MISSING is left out."""
        root, manifest = workspace
        config = tmp_path / "run.json"
        doc = {"manifest": str(manifest), "bands": ["gamma"], "metrics": ["PLV"],
               "epoch_lengths_s": [2.0], "k1": 5, "k2": 2, "seed": 0,
               "cache_dir": str(root / "cache")}
        doc = {key: value for key, value in {**doc, **keys}.items() if value is not _MISSING}
        config.write_text(json.dumps(doc))
        return cli.main(["evaluate", "--config", str(config),
                         "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("key, value, named", [
        ("bands", ["gamma", "gama"], "'gama'"),
        ("metrics", ["PLV", "PLX"], "'PLX'"),
        ("gb_metrics", [None, "BX"], "'BX'"),
    ])
    def test_unknown_name_rejected_before_any_work(self, workspace, tmp_path, capsys,
                                                   key, value, named):
        assert self._evaluate(workspace, tmp_path, **{key: value}) == cli.EXIT_USAGE
        assert named in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key, value, named", [
        ("conditions", [["resting", "resting"], ["resting"]], "['resting']"),
        ("conditions", [["resting", "resting"], ["rest", "rest"]], "['rest', 'rest']"),
        ("epoch_lengths_s", [2.0, 0], "epoch length 0"),
        ("epoch_lengths_s", [2.0, "4"], "epoch length '4'"),
        ("epoch_lengths_s", [2.0, 10 ** 400], "epoch length 1000"),
        ("seed", "0", "'seed'"),
        ("seed", -1, "'seed' must be at least 0, not -1"),
        ("k1", 1, "'k1'"),
        ("k2", 2.5, "'k2'"),
        ("conditions", "resting", "'conditions'"),
        ("channel_policies", [None, "bogus"], "'bogus'"),
        ("channel_policies", [None, ["C3", 7]], "['C3', 7]"),
        ("channel_policies", [None, 5], "policy 5"),
        ("channel_policies", [None, ["CH00"]], "names 1 channel"),
        ("manifest", _MISSING, "'manifest'"),
        ("manifest", 5, "'manifest'"),
        ("cache_dir", 5, "'cache_dir'"),
    ], ids=["short-pair", "unknown-condition", "zero-length", "string-length", "huge-length",
            "string-seed", "negative-seed", "k1-below-2", "fractional-k2", "conditions-not-a-list",
            "unknown-channel-policy", "non-label-channel-policy", "number-channel-policy",
            "one-channel-policy", "missing-manifest", "number-manifest", "number-cache-dir"])
    def test_bad_value_rejected_before_any_work(self, workspace, tmp_path, capsys,
                                                key, value, named):
        assert self._evaluate(workspace, tmp_path, **{key: value}) == cli.EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys, named", [
        ({"bands": ["gamma", "gamma"]}, "2 configs of the sweep share the report name "
                                        "'default_plv_fc_gamma_2s_resting'"),
        ({"epoch_lengths_s": [4, 4.0]}, "'default_plv_fc_gamma_4s_resting'"),
        ({"channel_policies": [None, None], "bands": ["beta2", "gamma"]},
         "2 configs of the sweep share the report name 'default_plv_fc_beta2_2s_resting'"),
    ], ids=["repeated-band", "equal-lengths", "repeated-policy"])
    def test_configs_sharing_a_report_name_rejected_before_any_work(
            self, workspace, tmp_path, capsys, keys, named):
        # each would overwrite the other's report files
        assert self._evaluate(workspace, tmp_path, cache_dir=str(tmp_path / "cache"),
                              **keys) == cli.EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("writer, partial", [
        ("confusion_to_csv", "true\\pred,"), ("confusion_to_pgm", b"P5\n")], ids=["csv", "pgm"])
    def test_writer_that_raises_leaves_the_earlier_outputs(
            self, workspace, run_config, tmp_path, monkeypatch, capsys, writer, partial):
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def interrupted(*args):
            args[-1].write(partial)
            raise OSError("No space left on device")

        monkeypatch.setattr(evaluation, writer, interrupted)
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        # every file as it was, and no temporary file left beside them
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_outputs_and_caches_get_the_mode_open_gives(self, workspace, run_config,
                                                        tmp_path):
        root, _ = workspace
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        mode = (tmp_path / "plain").stat().st_mode
        written = sorted(out.iterdir()) + sorted((root / "cache").glob("*.npz"))
        assert len(written) > 4
        assert {path.name: path.stat().st_mode for path in written} == {
            path.name: mode for path in written}

    @pytest.mark.parametrize("metrics, lengths, named", [
        (["COR"], [2.0, 0.001], "0.001 s epoch is shorter than one sample at 128.0 Hz"),
        (["PLV"], [2.0, 0.03], "0.03 s epoch is 4 samples at 128.0 Hz; PLV need >= 8"),
        (["COR", "PLI"], [0.03], "PLI need >= 8"),
    ], ids=["below-one-sample", "plv-below-eight", "pli-below-eight"])
    def test_short_epoch_is_data_error_before_any_work(self, workspace, tmp_path, capsys,
                                                       metrics, lengths, named):
        assert self._evaluate(workspace, tmp_path, metrics=metrics, epoch_lengths_s=lengths,
                              cache_dir=str(tmp_path / "cache")) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    def test_label_list_policy_is_named_by_a_digest(self, workspace, tmp_path):
        # trailing dots are stripped from labels, so these name the workspace's
        # channels; pasted into a file name, the list would pass 255 bytes
        labels = [f"CH{i:02d}" + "." * 60 for i in range(6)]
        assert self._evaluate(workspace, tmp_path, channel_policies=[labels],
                              cache_dir=str(tmp_path / "cache")) == cli.EXIT_OK
        stem = "plv_fc_gamma_2s_resting"
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert len(names) == 4 and names[-1] == "rollup.csv"
        for name, suffix in zip(names, (".json", "_confusion.csv", "_confusion.pgm")):
            assert re.fullmatch(rf"labels-[0-9a-f]{{12}}_{stem}{suffix}", name), name
        features = [p.name for p in (tmp_path / "cache").glob("features-*.npz")]
        assert len(features) == 1 and "CH00" not in features[0]

    def test_relative_cache_dir_resolves_against_the_config(self, workspace, tmp_path,
                                                            monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert self._evaluate(workspace, tmp_path, cache_dir="own-cache") == cli.EXIT_OK
        assert len(list((tmp_path / "own-cache").glob("features-*.npz"))) == 1
        assert not (elsewhere / "own-cache").exists()

    @pytest.mark.parametrize("doc", [[], "run", 3, None])
    def test_config_not_an_object_is_usage_error(self, tmp_path, capsys, doc):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        code = cli.main(["evaluate", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "must be a JSON object" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_truncated_config_names_file(self, run_config, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(run_config.read_bytes()[:40])
        code = cli.main(["evaluate", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {config}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        code = self._evaluate(workspace, tmp_path, epoch_length_s=[2.0])
        assert code == cli.EXIT_USAGE
        assert "'epoch_length_s'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_other_than_one_rejected(self, workspace, tmp_path, capsys):
        assert self._evaluate(workspace, tmp_path, workers=2) == cli.EXIT_USAGE
        assert "'workers' was removed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_one_still_accepted(self, workspace, tmp_path):
        assert self._evaluate(workspace, tmp_path, workers=1) == cli.EXIT_OK
        assert (tmp_path / "out" / "rollup.csv").exists()

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    def test_workers_flag_removed(self, workspace, tmp_path, command):
        root, manifest = workspace
        argv = {"features": ["features", "--manifest", str(manifest),
                             "--out", str(tmp_path / "x.csv"),
                             "--band", "gamma", "--metric", "PLV"],
                "evaluate": ["evaluate", "--config", str(tmp_path / "run.json"),
                             "--out", str(tmp_path / "out")]}[command]
        assert cli.main(argv + ["--workers", "2"]) == cli.EXIT_USAGE

    def test_report_rebuilds_rollup(self, workspace, run_config, tmp_path):
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        original = (out / "rollup.csv").read_bytes()
        (out / "rollup.csv").unlink()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rollup.csv").read_bytes() == original

    def test_rollup_keeps_each_channel_policy(self, workspace, tmp_path):
        first_four = [f"CH{i:02d}" for i in range(4)]
        assert self._evaluate(workspace, tmp_path, channel_policies=[None, first_four],
                              cache_dir=str(tmp_path / "cache")) == cli.EXIT_OK
        out, name = tmp_path / "out", cli._policy_name(first_four)
        rollup = (out / "rollup.csv").read_text().splitlines()
        assert rollup[0].startswith("metric,gb_metric,epoch_s,train,test,policy,")
        assert [row.split(",")[5] for row in rollup[1:]] == ["default", name]
        for policy in ("default", name):
            report = json.loads((out / f"{policy}_plv_fc_gamma_2s_resting.json").read_text())
            assert report["policy"] == policy
        original = (out / "rollup.csv").read_bytes()
        (out / "rollup.csv").unlink()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rollup.csv").read_bytes() == original

    def test_report_without_policy_is_skipped(self, workspace, run_config, tmp_path,
                                              capsys):
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        path = out / "default_plv_fc_gamma_2s_resting.json"
        report = json.loads(path.read_text())
        assert report.pop("policy") == "default"
        (out / "old.json").write_text(json.dumps(report))
        original = (out / "rollup.csv").read_bytes()
        (out / "rollup.csv").unlink()
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rollup.csv").read_bytes() == original
        assert "skipping old.json: not a report (no 'policy')" in (
            capsys.readouterr().err.splitlines())
        path.unlink()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_USAGE

    def test_report_empty_dir_is_usage_error(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_USAGE

    def test_report_skips_json_that_is_not_a_report(self, workspace, run_config,
                                                    tmp_path, capsys):
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        original = (out / "rollup.csv").read_bytes()
        (out / "rollup.csv").unlink()
        (out / "run.json").write_bytes(run_config.read_bytes())
        (out / "list.json").write_text("[1, 2]")
        (out / "note.json").write_text(json.dumps({"config": "not an object"}))
        # partial reports: each lacks a key the roll-up reads
        report = json.loads((out / "default_plv_fc_gamma_2s_resting.json").read_text())
        (out / "bare.json").write_text(json.dumps({"config": {"metric": "COR"}}))
        (out / "no_sem.json").write_text(json.dumps(
            {k: v for k, v in report.items() if k != "standard_error"}))
        (out / "no_band.json").write_text(json.dumps(
            {**report, "config": {k: v for k, v in report["config"].items() if k != "band"}}))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rollup.csv").read_bytes() == original
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("skipping")] == [
            "skipping bare.json: not a report (no 'mean_accuracy')",
            "skipping list.json: not a report (no 'config' object)",
            "skipping no_band.json: not a report (no 'config.band')",
            "skipping no_sem.json: not a report (no 'standard_error')",
            "skipping note.json: not a report (no 'config' object)",
            "skipping run.json: not a report (no 'config' object)"]

    def test_report_skips_wrongly_typed_reports(self, workspace, run_config,
                                                tmp_path, capsys):
        out = tmp_path / "reports"
        assert cli.main(["evaluate", "--config", str(run_config),
                         "--out", str(out)]) == cli.EXIT_OK
        original = (out / "rollup.csv").read_bytes()
        (out / "rollup.csv").unlink()
        report = json.loads((out / "default_plv_fc_gamma_2s_resting.json").read_text())
        bad = {
            "acc_null": {**report, "mean_accuracy": None},
            "sem_bool": {**report, "standard_error": True},
            "sem_text": {**report, "standard_error": "0.1"},
            "sem_nan": {**report, "standard_error": float("nan")},
            "acc_huge": {**report, "mean_accuracy": 10 ** 400},
            "band_number": {**report, "config": {**report["config"], "band": 4}},
            "gb_number": {**report, "config": {**report["config"], "gb_metric": 1}},
            "length_text": {**report, "config": {**report["config"], "epoch_length_s": "2"}},
            "policy_number": {**report, "policy": 3},
        }
        for name, doc in bad.items():
            (out / f"{name}.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rollup.csv").read_bytes() == original
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("skipping")] == [
            "skipping acc_huge.json: not a report ('mean_accuracy' is not a finite number)",
            "skipping acc_null.json: not a report ('mean_accuracy' is not a finite number)",
            "skipping band_number.json: not a report ('config.band' is not a string)",
            "skipping gb_number.json: not a report "
            "('config.gb_metric' is not a string or null)",
            "skipping length_text.json: not a report "
            "('config.epoch_length_s' is not a finite number)",
            "skipping policy_number.json: not a report ('policy' is not a string)",
            "skipping sem_bool.json: not a report ('standard_error' is not a finite number)",
            "skipping sem_nan.json: not a report ('standard_error' is not a finite number)",
            "skipping sem_text.json: not a report ('standard_error' is not a finite number)"]

    def test_half_written_report_names_file(self, tmp_path, capsys):
        report = tmp_path / "default_plv_fc_gamma_2s_resting.json"
        report.write_text('{"config": {"metric": "PLV", "band"')
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {report}: ")
        assert not (tmp_path / "rollup.csv").exists()

    def test_report_with_only_other_json_is_usage_error(self, run_config, tmp_path, capsys):
        (tmp_path / "run.json").write_bytes(run_config.read_bytes())
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_USAGE
        assert "skipping run.json" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_console_entry_point(capsys):
    """The `eegid` command that pyproject.toml declares resolves to a working
    `eegid.cli:main`; an installed distribution, if any, declares the same."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("eegid") == "eegid.cli:main"

    entry = md.EntryPoint(name="eegid", value=scripts["eegid"],
                          group="console_scripts")
    func = entry.load()
    assert func is cli.main
    assert func(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: eegid")

    try:
        dist = md.distribution("eegid")
    except md.PackageNotFoundError:
        pass
    else:
        installed = [ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts" and ep.name == "eegid"]
        assert installed == [scripts["eegid"]]
