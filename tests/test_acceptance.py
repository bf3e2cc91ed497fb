"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 need the public motor-imagery EDF corpus on local disk;
they are skipped (with a visible line) unless EEGID_PHYSIONET_DIR points at
it, since this environment has no dataset access.
"""

import json
import os
import time

import numpy as np
import pytest

from eegid import cli, connectivity, dsp, evaluation as ev, graph, io_ingest, svm

from conftest import train_one
from edf_tools import save_matrix
from oracles import (
    betweenness_loop,
    clustering_loop,
    connectivity_loop,
    degree_loop,
    dominant_eigenvector_dense,
    kkt_violations,
)
import synth


def _report(capsys, number, description, ok):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _skip(capsys, number, description, reason):
    with capsys.disabled():
        print(f"[SKIP] criterion {number}: {description} ({reason})")
    pytest.skip(reason)


def _epoch(rng, n_channels, n_samples=512):
    return dsp.split_epochs(rng.standard_normal((n_channels, n_samples)), 128.0,
                            n_samples / 128.0)[0]


def test_criterion_1_oracle_equivalence(capsys):
    """Connectivity and graph metrics match brute-force oracles on >= 100
    randomized instances, in under a minute."""
    rng = np.random.default_rng(42)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 9))
        epoch = _epoch(rng, n, 256)
        phases = connectivity.analytic_phase(epoch)
        for metric in ("COR", "PLV", "PLI"):
            got = connectivity.connectivity_matrix(epoch, metric)
            ref = connectivity_loop(epoch if metric == "COR" else phases,
                                    metric)
            ok &= bool(np.allclose(got, ref, atol=1e-12))
        w = rng.uniform(0.0, 1.0, (n, n))
        w[rng.uniform(size=(n, n)) < 0.3] = 0.0
        w = np.triu(w, k=1)
        w = w + w.T
        if not np.any(w > 0):
            continue
        ok &= bool(np.allclose(graph.node_degree(w),
                               degree_loop(w), atol=1e-12))
        _, ref_ec = dominant_eigenvector_dense(w)
        ok &= bool(np.allclose(graph.eigenvector_centrality(w),
                               ref_ec, atol=1e-8))
        if n <= 7:
            ok &= bool(np.allclose(graph.betweenness_centrality(w),
                                   betweenness_loop(w), atol=1e-9))
        ok &= bool(np.allclose(graph.clustering_coefficient(w),
                               clustering_loop(w), atol=1e-12))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(capsys, 1,
            f"oracle equivalence on 100 randomized instances ({elapsed:.1f}s)",
            ok)


def test_criterion_2_feature_dimensions(capsys):
    """56-channel FC vectors have 1540 entries, graph vectors 56, and a
    60 s recording yields 15 four-second epochs."""
    rng = np.random.default_rng(0)
    epoch = _epoch(rng, 56, 512)
    cm = connectivity.connectivity_matrix(epoch, "PLV")
    fc_dim = connectivity.vectorize_upper(cm).size
    gb_dim = graph.node_scores(graph.from_connectivity(cm, "PLV"), "ND").size
    n_epochs = len(dsp.split_epochs(rng.standard_normal((4, 60 * 128)), 128.0, 4.0))
    ok = fc_dim == 1540 and gb_dim == 56 and n_epochs == 15
    _report(capsys, 2,
            f"dimensions fc={fc_dim} graph={gb_dim} epochs/60s={n_epochs}", ok)


def test_criterion_3_svm_kkt_and_ovr(capsys):
    """SMO satisfies the KKT conditions on 50 random problems and the OvR
    classifier separates clean clusters perfectly, in under two minutes."""
    rng = np.random.default_rng(7)
    start = time.monotonic()
    ok = True
    for _ in range(50):
        n = int(rng.integers(10, 30))
        x = rng.standard_normal((n, 4))
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c = float(rng.choice(svm.C_GRID))
        gamma = float(rng.choice(svm.GAMMA_GRID))
        alphas, bias, converged = svm.train_binary_smo(x, y, c, gamma)
        ok &= converged
        ok &= kkt_violations(x, y, alphas, bias, c, gamma) <= svm.KKT_TOL + 1e-9
    centers = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
    x, labels = [], []
    for k, center in enumerate(centers):
        x.append(np.array(center) + 0.2 * rng.standard_normal((12, 2)))
        labels.extend([f"c{k}"] * 12)
    x = np.vstack(x)
    ovr = train_one(x, labels, (10.0, 0.5))
    ok &= svm.predict_batch(ovr, x) == [labels]
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report(capsys, 3, f"KKT audit + separable OvR ({elapsed:.1f}s)", ok)


def test_criterion_4_null_experiment(capsys):
    """With shuffled labels the nested CV lands at chance (10 classes),
    within three standard errors, in under two minutes."""
    rng = np.random.default_rng(3)
    start = time.monotonic()
    x = rng.standard_normal((120, 8))
    labels = np.repeat([f"s{i}" for i in range(10)], 12)
    shuffled = labels.copy()
    rng.shuffle(shuffled)
    report = ev.run_nested_cv(x, shuffled, k1=4, k2=2, seed=0)
    chance = 0.1
    spread = max(3 * report["standard_error"], 0.08)
    elapsed = time.monotonic() - start
    ok = abs(report["mean_accuracy"] - chance) <= spread and elapsed < 120.0
    _report(capsys, 4,
            f"null accuracy {report['mean_accuracy']:.3f} vs chance 0.1 "
            f"(+/- {spread:.3f}, {elapsed:.1f}s)", ok)


def test_criterion_5_synthetic_identification(capsys):
    """PLV-gamma nested CV identifies 12 synthetic subjects at >= 95%
    accuracy, in under five minutes."""
    start = time.monotonic()
    corpus = synth.synthetic_corpus(n_subjects=12, n_channels=8,
                                    duration_s=60.0, seed=1)
    config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                 epoch_length_s=4.0, seed=0)
    report = ev.run_experiment(synth.preprocessed(synth.as_built(corpus), **config.filters),
                               config)
    elapsed = time.monotonic() - start
    ok = (report["mean_accuracy"] >= 0.95 and report["n_epochs"] == 12 * 15
          and elapsed < 300.0)
    _report(capsys, 5,
            f"synthetic 12-subject PLV-gamma accuracy "
            f"{report['mean_accuracy']:.3f} ({elapsed:.1f}s)", ok)


def _physionet_dir():
    path = os.environ.get("EEGID_PHYSIONET_DIR")
    return path if path and os.path.isdir(path) else None


def test_criterion_6_physionet_subset(capsys):
    """PLV-gamma on a 20-subject subset of the public 64-channel EDF corpus
    reaches >= 90% accuracy."""
    root = _physionet_dir()
    if root is None:
        _skip(capsys, 6, "20-subject EDF subset >= 90%",
              "EEGID_PHYSIONET_DIR not set; no dataset access here")
    manifest = _physionet_manifest(root, n_subjects=20)
    corpus = io_ingest.build_corpus(manifest)
    config = ev.ExperimentConfig(metric="PLV", band="gamma", seed=0)
    report = ev.run_experiment(synth.preprocessed(corpus, **config.filters), config)
    ok = report["mean_accuracy"] >= 0.90
    _report(capsys, 6,
            f"20-subject subset accuracy {report['mean_accuracy']:.3f}", ok)


def test_criterion_7_full_dataset(capsys):
    """Full 109-subject run within 2.5 points of the reference accuracy,
    with PLV-gamma beating PLI-delta."""
    root = _physionet_dir()
    if root is None or not os.environ.get("EEGID_FULL_RUN"):
        _skip(capsys, 7, "full-corpus replication",
              "needs EEGID_PHYSIONET_DIR and EEGID_FULL_RUN; no dataset "
              "access here")
    manifest = _physionet_manifest(root, n_subjects=109)
    corpus = synth.preprocessed(io_ingest.build_corpus(manifest))  # default filters
    gamma_cfg = ev.ExperimentConfig(metric="PLV", band="gamma", seed=0)
    delta_cfg = ev.ExperimentConfig(metric="PLI", band="delta", seed=0)
    gamma_acc = ev.run_experiment(corpus, gamma_cfg)["mean_accuracy"]
    delta_acc = ev.run_experiment(corpus, delta_cfg)["mean_accuracy"]
    ok = abs(gamma_acc - 0.994) <= 0.025 and gamma_acc > delta_acc
    _report(capsys, 7,
            f"full corpus PLV-gamma {gamma_acc:.3f}, PLI-delta {delta_acc:.3f}",
            ok)


def _physionet_manifest(root, n_subjects):
    """The first 60 s of each subject's first run, as `io_ingest.load_manifest`
    returns a manifest."""
    from pathlib import Path

    entries = []
    for s in range(1, n_subjects + 1):
        sid = f"S{s:03d}"
        path = Path(root) / sid / f"{sid}R01.edf"
        entries.append({"path": str(path), "format": "edf", "subject_id": sid,
                        "dataset_id": "d1", "condition": "resting", "window_s": [0.0, 60.0]})
    return {"target_rate_hz": 128.0, "channel_policy": "common_56", "entries": entries}


def test_criterion_8_epoch_sweep(capsys):
    """Epoch lengths 2/3/4/5/6 s over 60 s recordings yield exactly
    30/20/15/12/10 epochs per subject, all with finite accuracies."""
    corpus = synth.preprocessed(synth.as_built(synth.synthetic_corpus(
        n_subjects=4, n_channels=6, duration_s=60.0, seed=2)))
    expected = {2.0: 30, 3.0: 20, 4.0: 15, 5.0: 12, 6.0: 10}
    counts = {}
    accs = {}
    ok = True
    for length, per_subject in expected.items():
        config = ev.ExperimentConfig(metric="PLV", band="gamma",
                                     epoch_length_s=length, k1=5, k2=2, seed=0)
        report = ev.run_experiment(corpus, config)
        counts[length] = report["n_epochs"] // 4
        accs[length] = report["mean_accuracy"]
        ok &= counts[length] == per_subject
        ok &= np.isfinite(accs[length]) and 0.0 <= accs[length] <= 1.0
    _report(capsys, 8,
            "epoch sweep counts " +
            "/".join(str(counts[k]) for k in sorted(counts)) +
            ", accuracies all finite", ok)


def test_criterion_9_determinism(capsys, tmp_path):
    """Repeated CLI evaluations produce byte-identical report tables."""
    corpus = synth.synthetic_corpus(n_subjects=3, n_channels=6,
                                    duration_s=30.0, seed=5)
    entries = []
    for rec in corpus:
        path = tmp_path / f"{rec['subject_id']}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            save_matrix(rec["data"], fh)
        entries.append({
            "path": path.name, "format": "matrix",
            "subject_id": rec["subject_id"], "dataset_id": "synth",
            "condition": "resting", "window_s": [0.0, 30.0],
            "sampling_rate_hz": 128.0,
            "channel_names": list(rec["channel_names"]),
        })
    (tmp_path / "manifest.json").write_text(json.dumps({
        "target_rate_hz": 128.0,
        "channel_policy": list(corpus[0]["channel_names"]),
        "entries": entries,
    }))
    (tmp_path / "run.json").write_text(json.dumps({
        "manifest": "manifest.json", "bands": ["gamma"], "metrics": ["PLV"],
        "epoch_lengths_s": [2.0], "k1": 5, "k2": 2, "seed": 0,
    }))
    ok = True
    for out in (tmp_path / "r1", tmp_path / "r2"):
        ok &= cli.main(["evaluate", "--config", str(tmp_path / "run.json"),
                        "--out", str(out)]) == cli.EXIT_OK
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    for name in names:
        ok &= ((tmp_path / "r1" / name).read_bytes()
               == (tmp_path / "r2" / name).read_bytes())
    _report(capsys, 9, f"byte-identical outputs across reruns ({len(names)} files)",
            ok)
