"""Seeded inputs for the benchmark workloads.

The benchmark owns its EDF writer and its signal recipe, so edits to the
package's synthetic generator or to the test-suite EDF tools cannot change
what is measured.  The program only ever sees the files written here: EDF
recordings shaped like the public 64-channel motor-imagery corpus (BCI2000
labels with mixed case and trailing dots, 160 Hz, 1 s data records), a
manifest, and run configs.

Signal recipe (phase-coupled oscillators): each subject assigns every channel
to one of a few independent gamma-band oscillators whose phase drifts as a
random walk; channels on the same oscillator stay phase locked with fixed
per-channel lags, so each subject has a stable coupling pattern under
additive white noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Signal labels as they appear in the corpus's EDF headers.
BCI2000_LABELS = (
    "Fc5.", "Fc3.", "Fc1.", "Fcz.", "Fc2.", "Fc4.", "Fc6.",
    "C5..", "C3..", "C1..", "Cz..", "C2..", "C4..", "C6..",
    "Cp5.", "Cp3.", "Cp1.", "Cpz.", "Cp2.", "Cp4.", "Cp6.",
    "Fp1.", "Fpz.", "Fp2.",
    "Af7.", "Af3.", "Afz.", "Af4.", "Af8.",
    "F7..", "F5..", "F3..", "F1..", "Fz..", "F2..", "F4..", "F6..", "F8..",
    "Ft7.", "Ft8.", "T7..", "T8..", "T9..", "T10.", "Tp7.", "Tp8.",
    "P7..", "P5..", "P3..", "P1..", "Pz..", "P2..", "P4..", "P6..", "P8..",
    "Po7.", "Po3.", "Poz.", "Po4.", "Po8.",
    "O1..", "Oz..", "O2..", "Iz..",
)
FS_HZ = 160.0
TARGET_HZ = 128.0
DATASET_ID = "pn"
BANDS = ("delta", "theta", "alpha", "beta1", "beta2", "gamma")
METRICS = ("COR", "PLV", "PLI")
N_CHANNELS_USED = 56  # the common_56 policy
EPOCH_LENGTH_S = 4.0
K1, K2 = 10, 3
C_GRID = (0.1, 1.0, 10.0, 100.0)
GAMMA_GRID = (1.0, 0.1, 0.01, 0.001)

_PHYS_UV = 8092.0  # physical range of the corpus files, +/- uV
_AMPLITUDE_UV = 40.0
_N_OSCILLATORS = 3
_OSC_BAND_HZ = (31.0, 43.0)
_JITTER_RAD = 0.05


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each exists."""

    name: str
    n_subjects: int
    duration_s: float
    noise_scale: float
    # evaluate workloads: (metric, band, graph metric or None); features: None
    config: tuple = None
    min_accuracy: float = 0.0  # seed-free floor on the CV report's mean accuracy

    @property
    def epochs_per_subject(self):
        return int(self.duration_s // EPOCH_LENGTH_S)

    @property
    def n_epochs(self):
        return self.n_subjects * self.epochs_per_subject

    @property
    def labels(self):
        return tuple(f"{DATASET_ID}/S{i:03d}" for i in range(1, self.n_subjects + 1))

    def report_stem(self):
        metric, band, gb = self.config
        return (f"default_{metric.lower()}_{(gb or 'fc').lower()}_{band}_"
                f"{EPOCH_LENGTH_S:g}s_resting")


# Sizes: k1 = 10 needs ten epochs per subject, so the CV workloads record
# 40 s (ten 4 s epochs) per subject, and subject counts keep one pass to a
# few seconds so that several passes fit in one run.  cv_graph has two
# subjects because betweenness costs about a quarter second per 56-node epoch.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="cv_fc",
        n_subjects=4, duration_s=40.0, noise_scale=0.5,
        config=("COR", "gamma", None), min_accuracy=0.9,
    ),
    Workload(
        name="cv_graph",
        n_subjects=2, duration_s=40.0, noise_scale=2.0,
        config=("PLV", "gamma", "BC"),
    ),
    Workload(
        name="feature_sweep",
        n_subjects=6, duration_s=8.0, noise_scale=0.5,
    ),
)}


# --- EDF writing ------------------------------------------------------------


def _field(value, width):
    text = str(value)
    if len(text) > width:
        raise ValueError(f"EDF field {text!r} wider than {width}")
    return text.ljust(width).encode("ascii")


def edf_bytes(labels, digital, fs_hz):
    """Continuous EDF with 1 s data records from int16 (n_ch, n_samples)."""
    n_ch, n_samples = digital.shape
    spr = int(fs_hz)
    n_records = n_samples // spr
    if n_records * spr != n_samples:
        raise ValueError("samples must fill whole 1 s records")
    header = b"".join([
        _field("0", 8), _field("X X X X", 80), _field("Startdate X X X X", 80),
        _field("01.01.09", 8), _field("00.00.00", 8), _field(256 + 256 * n_ch, 8),
        _field("", 44), _field(n_records, 8), _field("1", 8), _field(n_ch, 4),
    ])
    per_signal = [
        (16, labels), (80, [""] * n_ch), (8, ["uV"] * n_ch),
        (8, [f"{-_PHYS_UV:g}"] * n_ch), (8, [f"{_PHYS_UV:g}"] * n_ch),
        (8, ["-32768"] * n_ch), (8, ["32767"] * n_ch), (80, [""] * n_ch),
        (8, [spr] * n_ch), (32, [""] * n_ch),
    ]
    signal_header = b"".join(_field(v, w) for w, values in per_signal for v in values)
    # record-major layout: record r holds spr samples of every signal in turn
    body = (digital.reshape(n_ch, n_records, spr).transpose(1, 0, 2)
            .astype("<i2").tobytes())
    return header + signal_header + body


# --- signal recipe ------------------------------------------------------------


def _subject_pattern(subject):
    """Fixed per-subject coupling pattern: oscillator per channel and lags.

    The pattern depends on the subject only, so every seed records the same
    subjects in a new session and the classification problem keeps its
    difficulty from seed to seed.
    """
    rng = np.random.default_rng([subject, 7])
    while True:
        assignment = rng.integers(0, _N_OSCILLATORS, size=len(BCI2000_LABELS))
        if len(set(assignment.tolist())) == _N_OSCILLATORS:
            return assignment, rng.uniform(-np.pi, np.pi, size=len(BCI2000_LABELS))


def _subject_signal(rng, subject, n_samples, noise_scale):
    """Raw (n_channels, n_samples) signal in uV for one session of a subject."""
    assignment, lags = _subject_pattern(subject)
    t = np.arange(n_samples) / FS_HZ
    freqs = rng.uniform(*_OSC_BAND_HZ, size=_N_OSCILLATORS)
    phases = np.stack([
        2 * np.pi * f * t + np.cumsum(rng.normal(0.0, _JITTER_RAD, n_samples))
        + rng.uniform(0, 2 * np.pi)
        for f in freqs
    ])
    data = np.cos(phases[assignment] + lags[:, None])
    data += noise_scale * rng.standard_normal(data.shape)
    return _AMPLITUDE_UV * data


def _to_digital(uv):
    scale = 32767.0 / _PHYS_UV
    return np.clip(np.round(uv * scale), -32768, 32767).astype(np.int16)


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the EDF files and manifest for one workload and seed.

    Returns {"manifest": path, "edf_bytes": total EDF size, "recordings": n}.
    """
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    out_dir.mkdir(parents=True, exist_ok=True)
    n_samples = int(workload.duration_s * FS_HZ)
    entries, total = [], 0
    for s in range(1, workload.n_subjects + 1):
        digital = _to_digital(_subject_signal(rng, s, n_samples, workload.noise_scale))
        rel = f"S{s:03d}/S{s:03d}R01.edf"
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = edf_bytes(BCI2000_LABELS, digital, FS_HZ)
        path.write_bytes(blob)
        total += len(blob)
        entries.append({
            "path": rel, "format": "edf", "subject_id": f"S{s:03d}",
            "dataset_id": DATASET_ID, "condition": "resting",
            "window_s": [0.0, workload.duration_s],
        })
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "target_rate_hz": TARGET_HZ, "channel_policy": "common_56", "entries": entries,
    }, indent=2))
    return {"manifest": manifest, "edf_bytes": total, "recordings": len(entries)}


def pass_commands(workload: Workload, manifest: Path, pass_dir: Path) -> list:
    """CLI argument lists for one measured pass, using a cold cache in pass_dir."""
    if workload.config is not None:
        metric, band, gb = workload.config
        config = pass_dir / "run.json"
        # no cache_dir key: the CLI then caches under the config's directory
        config.write_text(json.dumps({
            "manifest": str(manifest), "bands": [band], "metrics": [metric],
            "gb_metrics": [gb], "epoch_lengths_s": [EPOCH_LENGTH_S],
            "seed": 0, "k1": K1, "k2": K2, "workers": 1,
        }, indent=2))
        return [["evaluate", "--config", str(config), "--out", str(pass_dir / "reports")]]
    return [
        ["features", "--manifest", str(manifest),
         "--out", str(pass_dir / f"{band}_{metric}.csv"),
         "--cache", str(pass_dir / "cache"), "--band", band, "--metric", metric,
         "--epoch-length", f"{EPOCH_LENGTH_S:g}"]
        for band in BANDS for metric in METRICS
    ]
