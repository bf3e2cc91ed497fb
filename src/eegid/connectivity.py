"""Bivariate functional-connectivity metrics and matrix assembly.

Three metrics are supported: Pearson correlation of the band-filtered time
series, and the two phase metrics (phase locking value, phase lag index)
computed from the instantaneous phase of the analytic signal.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVariance, EpochTooShort

METRICS = ("COR", "PLV", "PLI")


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Analytic signal via the frequency-domain (one-sided spectrum) method.

    The transform runs at the next power of two >= M with zero padding and is
    truncated back to M, which slightly perturbs edge phases.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[-1]
    nfft = 1 << (m - 1).bit_length()
    spectrum = np.fft.fft(x, n=nfft, axis=-1)
    h = np.zeros(nfft)
    h[0] = 1.0
    if nfft % 2 == 0:
        h[nfft // 2] = 1.0
        h[1:nfft // 2] = 2.0
    else:
        h[1:(nfft + 1) // 2] = 2.0
    return np.fft.ifft(spectrum * h, axis=-1)[..., :m]


def analytic_phase(data: np.ndarray) -> np.ndarray:
    """Per-channel instantaneous phase (radians, in (-pi, pi]) of one epoch.

    Zero-valued analytic samples get phase 0 rather than NaN so a flat
    channel cannot poison a whole connectivity matrix.
    """
    if data.shape[-1] < 8:
        raise EpochTooShort(f"epoch of {data.shape[-1]} samples; need >= 8")
    z = analytic_signal(data)
    phases = np.angle(z)
    phases[z == 0] = 0.0
    return phases


def wrap_phase(d: np.ndarray) -> np.ndarray:
    """Wrap phase differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(d, dtype=float), 2 * np.pi)


def connectivity_matrix(data: np.ndarray, metric: str) -> np.ndarray:
    """All-pairs connectivity of one (channels, samples) epoch.

    Returns an N x N matrix, symmetric with zero diagonal.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    n, mm = data.shape
    if metric == "COR":
        centered = data - data.mean(axis=1, keepdims=True)
        stds = np.sqrt(np.mean(centered * centered, axis=1))
        flat = np.flatnonzero(stds == 0.0)
        if flat.size:
            raise DegenerateVariance(f"constant channel(s) {flat.tolist()}")
        values = (centered @ centered.T) / (mm * np.outer(stds, stds))
        values = np.clip(values, -1.0, 1.0)
    elif metric == "PLV":
        z = np.exp(1j * analytic_phase(data))
        values = np.abs(z @ z.conj().T) / mm
        values = np.minimum(values, 1.0)
    else:  # PLI
        phases = analytic_phase(data)
        values = np.zeros((n, n))
        for m in range(n - 1):
            d = wrap_phase(phases[m][None, :] - phases[m + 1:])
            values[m, m + 1:] = np.abs(np.mean(np.sign(d), axis=1))
        values = values + values.T
    values = values.copy()
    np.fill_diagonal(values, 0.0)
    # mirror the upper triangle exactly so symmetry holds bit for bit
    iu = np.triu_indices(n, k=1)
    sym = np.zeros((n, n))
    sym[iu] = values[iu]
    return sym + sym.T


def vectorize_upper(values: np.ndarray) -> np.ndarray:
    """Row-major strict upper triangle of an N x N matrix: N(N-1)/2 values."""
    return values[np.triu_indices(values.shape[0], k=1)]
