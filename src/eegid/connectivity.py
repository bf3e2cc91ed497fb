"""Bivariate functional-connectivity metrics and matrix assembly.

Three metrics are supported: Pearson correlation of the band-filtered time
series, and the two phase metrics (phase locking value, phase lag index)
computed from the instantaneous phase of the analytic signal.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVariance, EpochTooShort

METRICS = ("COR", "PLV", "PLI")
# the phase metrics (PLV, PLI) need at least this many samples per epoch
MIN_PHASE_SAMPLES = 8


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
    # nfft is a power of two: bins 0 and nfft/2 (one bin if nfft = 1) keep 1
    h[0] = 1.0
    h[nfft // 2] = 1.0
    h[1:nfft // 2] = 2.0
    return np.fft.ifft(spectrum * h, axis=-1)[..., :m]


def analytic_phase(data: np.ndarray) -> np.ndarray:
    """Per-channel instantaneous phase (radians, in (-pi, pi]) of one epoch.

    Zero-valued analytic samples get phase 0 rather than NaN so a flat
    channel cannot poison a whole connectivity matrix.
    """
    if data.shape[-1] < MIN_PHASE_SAMPLES:
        raise EpochTooShort(
            f"epoch of {data.shape[-1]} samples; need >= {MIN_PHASE_SAMPLES}")
    z = analytic_signal(data)
    phases = np.angle(z)
    phases[z == 0] = 0.0
    return phases


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
        # |#(d > 0) - #(d < 0)| / M over d = phi_m - phi_k wrapped into
        # (-pi, pi] as pi - mod(pi - d, 2 pi).  The signs are counted without
        # mod: u = pi - d is folded into [0, 2 pi) the way np.mod rounds (fmod
        # is exact; a negative remainder gets 2 pi added), and the wrapped d is
        # positive where the fold is below pi, negative where it is above.  The
        # sign sum is an integer, so the count gives the bits of a sign mean.
        phases = analytic_phase(data)
        two_pi = 2 * np.pi
        values = np.zeros((n, n))
        for m in range(n - 1):
            # -(phi_m - phi_k) is exact, so this is pi - d bit for bit
            u = phases[m + 1:] - phases[m]
            u += np.pi
            r = (u < 0) * two_pi
            r += u
            # u lies in [-pi, 3 pi], so u - 2 pi is exact wherever it is taken
            r -= (u >= two_pi) * two_pi
            lead = np.count_nonzero(r < np.pi, axis=1)
            lag = np.count_nonzero(r > np.pi, axis=1)
            values[m, m + 1:] = np.abs(lead - lag) / mm
    # mirror the strict upper triangle exactly, so symmetry holds bit for bit
    # and the diagonal is zero
    upper = np.triu(values, 1)
    return upper + upper.T


# N -> the read-only (rows, cols) of np.triu_indices(N, k=1)
_UPPER = {}


def vectorize_upper(values: np.ndarray) -> np.ndarray:
    """Row-major strict upper triangle of an N x N matrix: N(N-1)/2 values.
    The indices of each N are built once."""
    n = values.shape[0]
    if (upper := _UPPER.get(n)) is None:
        upper = _UPPER[n] = np.triu_indices(n, k=1)
        for index in upper:
            index.flags.writeable = False
    return values[upper]
