"""Synthetic EEG with subject-specific phase-coupling structure.

Each synthetic subject is defined by a fixed assignment of channels to a
small set of independent band-limited oscillators plus per-channel phase
lags.  Channels driven by the same oscillator stay phase locked, so the
subject's PLV matrix has a stable block pattern that survives additive
noise; different subjects get different patterns.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from eegid import evaluation


def _oscillator_phases(n_samples, fs, freq_hz, jitter_rad, rng):
    t = np.arange(n_samples) / fs
    drift = np.cumsum(rng.normal(0.0, jitter_rad, size=n_samples))
    return 2 * np.pi * freq_hz * t + drift + rng.uniform(0, 2 * np.pi)


def synthetic_subject(assignment, lags, n_samples, fs, band_hz=(31.0, 43.0),
                      noise_scale=0.5, jitter_rad=0.05, rng=None) -> np.ndarray:
    """One subject's raw multichannel signal from its coupling structure."""
    rng = rng or np.random.default_rng()
    n_groups = int(max(assignment)) + 1
    freqs = rng.uniform(band_hz[0], band_hz[1], size=n_groups)
    phases = [_oscillator_phases(n_samples, fs, f, jitter_rad, rng) for f in freqs]
    data = np.empty((len(assignment), n_samples))
    for ch, (group, lag) in enumerate(zip(assignment, lags)):
        data[ch] = np.cos(phases[group] + lag)
        data[ch] += noise_scale * rng.standard_normal(n_samples)
    return data


def synthetic_corpus(n_subjects=12, n_channels=8, duration_s=60.0, fs=128.0,
                     n_oscillators=3, noise_scale=0.5, seed=0,
                     condition="resting", dataset_id="synth") -> list:
    """A corpus of identifiable synthetic subjects, one recording each.

    Each recording is a dict of a manifest entry's keys (`subject_id`,
    `dataset_id`, `condition`, `sampling_rate_hz`, `channel_names`) with its
    (channels, samples) array under `data` in place of a path.
    Channel-to-oscillator assignments are drawn without repetition across
    subjects so every subject has a distinct coupling pattern.
    """
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s * fs))
    channel_names = tuple(f"CH{i:02d}" for i in range(n_channels))
    seen = set()
    corpus = []
    for s in range(n_subjects):
        while True:
            assignment = tuple(rng.integers(0, n_oscillators, size=n_channels).tolist())
            if len(set(assignment)) >= 2 and assignment not in seen:
                seen.add(assignment)
                break
        lags = rng.uniform(-np.pi, np.pi, size=n_channels)
        data = synthetic_subject(assignment, lags, n_samples, fs,
                                 noise_scale=noise_scale, rng=rng)
        corpus.append({"data": data, "sampling_rate_hz": fs, "channel_names": channel_names,
                       "subject_id": f"S{s:03d}", "dataset_id": dataset_id,
                       "condition": condition})
    return corpus


def as_built(recordings) -> tuple:
    """A list of recordings that share one rate and channel list, in
    `io_ingest.build_corpus`'s (layout, recordings) shape."""
    layout = {
        "channels": np.array(recordings[0]["channel_names"]),
        "ends": np.cumsum([rec["data"].shape[1] for rec in recordings]),
        "provenance": np.array([(rec["dataset_id"], rec["subject_id"], rec["condition"])
                                for rec in recordings]),
        "rate": np.array(recordings[0]["sampling_rate_hz"]),
    }
    return layout, (rec["data"] for rec in recordings)


def preprocessed(corpus, **filters):
    """An open `evaluation.PreprocessedCorpus` of a (layout, recordings)
    pair, preprocessed with `filters` into a file that is gone once the
    handle is closed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.npz"
        with open(path, "wb") as fh:
            evaluation.write_preprocessed(fh, corpus, **filters)
        return evaluation.PreprocessedCorpus(path)
