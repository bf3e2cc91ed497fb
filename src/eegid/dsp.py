"""Resampling, notch/band-pass filtering and epoch extraction.

Filter design and application are delegated to scipy.signal (polyphase
rational resampling, Butterworth bilinear-transform designs realized as
second-order sections, zero-phase forward-backward application with
odd-symmetric edge padding).  The module-level contracts are verified
against independent frequency-response oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import signal as sps

from .errors import (
    FrequencyOutOfRange,
    InvalidBand,
    IrrationalRatio,
    RecordingTooShort,
    SignalTooShort,
    UnstableDesign,
)
from .io_ingest import EegRecording

# large enough for 500 Hz -> 128 Hz (32/125), the widest ratio in scope
_MAX_RESAMPLE_FACTOR = 256


@dataclass(frozen=True)
class BandSpec:
    """A named EEG frequency band; edges in Hz."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        if not (0 < self.low_hz < self.high_hz):
            raise InvalidBand(f"bad band edges ({self.low_hz}, {self.high_hz}) Hz")
        if not self.high_hz < 64:
            raise InvalidBand(
                f"band {self.name} upper edge {self.high_hz} Hz not below the "
                "64 Hz Nyquist limit of the 128 Hz working rate"
            )


DELTA = BandSpec("delta", 0.5, 4.0)
THETA = BandSpec("theta", 4.0, 8.0)
ALPHA = BandSpec("alpha", 8.0, 12.0)
BETA1 = BandSpec("beta1", 12.0, 20.0)
BETA2 = BandSpec("beta2", 20.0, 30.0)
GAMMA = BandSpec("gamma", 30.0, 45.0)
BROADBAND = BandSpec("broadband", 0.5, 45.0)

BANDS = {b.name: b for b in (DELTA, THETA, ALPHA, BETA1, BETA2, GAMMA, BROADBAND)}
ANALYSIS_BANDS = (DELTA, THETA, ALPHA, BETA1, BETA2, GAMMA)


@dataclass(frozen=True)
class IirFilter:
    """Second-order-section IIR filter plus design metadata."""

    sos: np.ndarray  # (n_sections, 6), a0 normalized to 1
    kind: str
    order: int
    edges_hz: tuple
    fs_hz: float

    def __post_init__(self):
        sos = np.atleast_2d(np.asarray(self.sos, dtype=float))
        if sos.shape[1] != 6:
            raise ValueError("sos must have six coefficients per section")
        object.__setattr__(self, "sos", sos)

    def pole_moduli(self):
        mods = []
        for _, _, _, a0, a1, a2 in self.sos:
            mods.extend(abs(r) for r in np.roots([a0, a1, a2]))
        return np.array(mods)

    def response(self, freqs_hz):
        """Single-pass |H| at the given frequencies."""
        _, h = sps.sosfreqz(self.sos, worN=2 * np.pi * np.asarray(freqs_hz) / self.fs_hz)
        return np.abs(h)


def _rational_ratio(target_hz, source_hz):
    ratio = Fraction(target_hz / source_hz).limit_denominator(_MAX_RESAMPLE_FACTOR)
    if ratio.numerator > _MAX_RESAMPLE_FACTOR or ratio.numerator < 1:
        raise IrrationalRatio(
            f"resampling {source_hz} -> {target_hz} Hz needs a ratio beyond "
            f"{_MAX_RESAMPLE_FACTOR}/{_MAX_RESAMPLE_FACTOR}"
        )
    if abs(float(ratio) * source_hz - target_hz) > 1e-9 * target_hz:
        raise IrrationalRatio(
            f"ratio {target_hz}/{source_hz} is not rational within bounds"
        )
    return ratio.numerator, ratio.denominator


def resample(rec: EegRecording, target_hz) -> EegRecording:
    """Polyphase rational resampling of every channel to target_hz."""
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    p, q = _rational_ratio(target_hz, rec.sampling_rate_hz)
    if p == q:
        return replace(rec, sampling_rate_hz=float(target_hz))
    # linear boundary extension avoids edge transients on non-zero-mean data;
    # the high-beta Kaiser window keeps passband ripple below 1e-6
    out = sps.resample_poly(rec.data, p, q, axis=1, padtype="line",
                            window=("kaiser", 14.0))
    n_out = (rec.n_samples * p) // q
    return replace(rec, sampling_rate_hz=float(target_hz), data=out[:, :n_out])


def design_notch(f0_hz, q, fs_hz) -> IirFilter:
    """Second-order IIR notch at f0_hz with quality factor q."""
    if not 0 < f0_hz < fs_hz / 2:
        raise FrequencyOutOfRange(
            f"notch frequency {f0_hz} Hz outside (0, {fs_hz / 2}) at fs={fs_hz}"
        )
    b, a = sps.iirnotch(f0_hz, q, fs=fs_hz)
    return IirFilter(sos=sps.tf2sos(b, a), kind="notch", order=2,
                     edges_hz=(f0_hz, f0_hz), fs_hz=fs_hz)


def notch(rec: EegRecording, f0_hz, q=30.0) -> EegRecording:
    """Zero-phase notch filtering of every channel."""
    filt = design_notch(f0_hz, q, rec.sampling_rate_hz)
    return replace(rec, data=filtfilt_matrix(filt, rec.data))


def design_butterworth_bandpass(band: BandSpec, fs_hz, order=4) -> IirFilter:
    """Butterworth band-pass via bilinear transform with pre-warping.

    `order` is the analog prototype order (even, 2-8); the resulting
    band-pass filter has 2 x order poles, realized as second-order sections.
    """
    if order % 2 != 0 or not 2 <= order <= 8:
        raise InvalidBand(f"order must be even and within 2-8, got {order}")
    if not band.high_hz < fs_hz / 2:
        raise InvalidBand(
            f"band {band.name} upper edge {band.high_hz} Hz at or above "
            f"Nyquist for fs={fs_hz}"
        )
    sos = sps.butter(order, [band.low_hz, band.high_hz], btype="bandpass",
                     fs=fs_hz, output="sos")
    filt = IirFilter(sos=sos, kind="bandpass", order=2 * order,
                     edges_hz=(band.low_hz, band.high_hz), fs_hz=fs_hz)
    if np.any(filt.pole_moduli() >= 1.0):
        raise UnstableDesign(
            f"band-pass design for {band.name} at fs={fs_hz} has poles on or "
            "outside the unit circle"
        )
    return filt


def filtfilt(filt: IirFilter, x) -> np.ndarray:
    """Forward-backward (zero-phase) filtering of a 1-D signal."""
    return filtfilt_matrix(filt, np.atleast_2d(np.asarray(x, dtype=float)))[0]


def filtfilt_matrix(filt: IirFilter, data: np.ndarray) -> np.ndarray:
    """Zero-phase filtering row-wise with odd padding of length 3 x order.

    The forward-backward and backward-forward passes are averaged, which
    leaves the steady-state (squared-magnitude) response untouched but makes
    the operation exactly symmetric under time reversal, including the edge
    transients.
    """
    padlen = 3 * filt.order
    if data.shape[1] <= padlen:
        raise SignalTooShort(
            f"signal of {data.shape[1]} samples too short for order-{filt.order} "
            f"zero-phase filtering (needs > {padlen})"
        )
    fwd = sps.sosfiltfilt(filt.sos, data, axis=1, padtype="odd", padlen=padlen)
    bwd = sps.sosfiltfilt(filt.sos, data[:, ::-1], axis=1, padtype="odd",
                          padlen=padlen)[:, ::-1]
    return 0.5 * (fwd + bwd)


def bandpass(rec: EegRecording, band: BandSpec, order=4) -> EegRecording:
    """Zero-phase Butterworth band-pass of every channel."""
    filt = design_butterworth_bandpass(band, rec.sampling_rate_hz, order)
    return replace(rec, data=filtfilt_matrix(filt, rec.data))


def epoch_samples(rec: EegRecording, epoch_length_s) -> int:
    """Samples per epoch of epoch_length_s at the recording's rate."""
    if not epoch_length_s > 0:
        raise ValueError("epoch_length_s must be positive")
    m = int(round(epoch_length_s * rec.sampling_rate_hz))
    if m < 1:
        raise ValueError(
            f"a {epoch_length_s} s epoch is shorter than one sample at "
            f"{rec.sampling_rate_hz} Hz"
        )
    return m


def split_epochs(rec: EegRecording, epoch_length_s) -> np.ndarray:
    """Cut a recording into non-overlapping epochs; remainder is dropped.

    Returns a C-contiguous (epochs, channels, samples) stack.
    """
    m = epoch_samples(rec, epoch_length_s)
    n_epochs = rec.n_samples // m
    if n_epochs < 1:
        raise RecordingTooShort(
            f"{rec.n_samples} samples cannot hold one {epoch_length_s} s epoch "
            f"at {rec.sampling_rate_hz} Hz"
        )
    data = rec.data[:, :n_epochs * m].reshape(rec.n_channels, n_epochs, m)
    return np.ascontiguousarray(data.transpose(1, 0, 2))


def preprocess(rec: EegRecording, notch_hz=50.0, notch_q=30.0, order=4) -> EegRecording:
    """Standard cleanup applied to an already-resampled recording.

    Notch at notch_hz (skipped when at/above Nyquist, e.g. 50 Hz at 128 Hz
    would still fit, but 60 Hz at 100 Hz would not), then broadband
    0.5-45 Hz band-pass.
    """
    if notch_hz and 0 < notch_hz < rec.sampling_rate_hz / 2:
        rec = notch(rec, notch_hz, notch_q)
    return bandpass(rec, BROADBAND, order)
