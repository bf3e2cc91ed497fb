"""Resampling, notch/band-pass filtering and epoch extraction of
(channels, samples) arrays at a given rate, in numpy.

- Resampling is rational and polyphase: a Kaiser-windowed (beta 14) sinc
  low-pass, with the signal extended along the line through its first and
  last samples.  The input-to-output map repeats every `up` outputs, so it
  is one (window x frame) matrix per ratio, applied by one matrix product
  over strided input frames.
- Butterworth band-passes come from the analog prototype poles, the
  pre-warped band-pass transform and the bilinear map, paired into
  second-order sections nearest-pole-first; the notch is the closed-form
  second-order design (Orfanidis, Introduction to Signal Processing).  A
  filter is its read-only (sections, 6) array of [b0, b1, b2, 1, a1, a2] rows.
- Zero-phase filtering runs the section cascade as one state-space system
  over blocks of samples, forward and backward, with odd edge padding and
  the step steady state as initial state.

The test suite checks all three against scipy.signal and against
independent frequency-response oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    FrequencyOutOfRange,
    InvalidBand,
    IrrationalRatio,
    RecordingTooShort,
    SignalTooShort,
    UnstableDesign,
)

# large enough for 500 Hz -> 128 Hz (32/125), the widest ratio in scope
_MAX_RESAMPLE_FACTOR = 256
# resampling low-pass: 2 x 10 x max(up, down) + 1 taps, Kaiser beta 14
_RESAMPLE_HALF_TAPS = 10
_KAISER_BETA = 14.0
# outputs per resampling frame, before rounding up to a multiple of `up`
_FRAME_OUTPUTS = 64
# samples per block of the state-space filter, and rows filtered together
_BLOCK = 64
_ROW_CHUNK = 16


@dataclass(frozen=True)
class BandSpec:
    """A named EEG frequency band; edges in Hz."""

    name: str
    low_hz: float
    high_hz: float


DELTA = BandSpec("delta", 0.5, 4.0)
THETA = BandSpec("theta", 4.0, 8.0)
ALPHA = BandSpec("alpha", 8.0, 12.0)
BETA1 = BandSpec("beta1", 12.0, 20.0)
BETA2 = BandSpec("beta2", 20.0, 30.0)
GAMMA = BandSpec("gamma", 30.0, 45.0)
BROADBAND = BandSpec("broadband", 0.5, 45.0)

BANDS = {b.name: b for b in (DELTA, THETA, ALPHA, BETA1, BETA2, GAMMA, BROADBAND)}
ANALYSIS_BANDS = (DELTA, THETA, ALPHA, BETA1, BETA2, GAMMA)


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


@lru_cache(maxsize=16)
def _polyphase_operator(up, down):
    """Frame operator of rational resampling by up/down.

    Output i is sum_j x[j] h[(i + skip) * down - pre - j * up] over the
    low-pass taps h, with `pre` zero taps in front and `skip` leading
    outputs dropped so that output 0 sits on input 0.  Shifting i by `up`
    shifts j by `down`, so a frame of `frame` outputs (a multiple of `up`)
    reads `window` inputs that start `stride` inputs after the previous
    frame's, the first at input `first`.  Returns (matrix, first, stride),
    matrix being (window, frame).
    """
    max_rate = max(up, down)
    half = _RESAMPLE_HALF_TAPS * max_rate
    fc = 1.0 / max_rate
    m = np.arange(2 * half + 1, dtype=float) - half
    taps = fc * np.sinc(fc * m) * np.kaiser(2 * half + 1, _KAISER_BETA)
    taps = taps / taps.sum() * up
    pre = down - half % down
    skip = (half + pre) // down
    frame = up * -(-_FRAME_OUTPUTS // up)
    first = -((pre + 2 * half - skip * down) // up)
    last = ((frame - 1 + skip) * down - pre) // up
    window = last - first + 1
    lag = ((np.arange(frame) + skip) * down - pre
           - (first + np.arange(window))[:, None] * up)
    inside = (lag >= 0) & (lag <= 2 * half)
    matrix = np.where(inside, taps[np.clip(lag, 0, 2 * half)], 0.0)
    matrix.setflags(write=False)  # shared by every caller through the cache
    return matrix, first, frame * down // up


def resampled_length(n_samples, fs_hz, target_hz) -> int:
    """Samples per row of `resample`'s output for n_samples at fs_hz."""
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    p, q = _rational_ratio(target_hz, fs_hz)
    return n_samples * p // q


def resample(data, fs_hz, target_hz) -> np.ndarray:
    """Polyphase rational resampling of every row from fs_hz to target_hz;
    `data` itself when the ratio is 1/1.

    Rows are resampled _ROW_CHUNK at a time, each chunk's product written
    straight into the output, so the input frames of one chunk exist at
    once.  A one-row remainder joins the chunk before it: numpy multiplies a
    lone frame row by a vector routine, which may round differently.
    """
    n_out = resampled_length(data.shape[1], fs_hz, target_hz)
    p, q = _rational_ratio(target_hz, fs_hz)
    if p == q:
        return data
    if data.shape[1] < 2:
        raise SignalTooShort(
            "resampling needs two samples to extend the signal along a line"
        )
    # linear boundary extension avoids edge transients on non-zero-mean data;
    # the high-beta Kaiser window keeps passband ripple below 1e-6
    matrix, first, stride = _polyphase_operator(p, q)
    window, frame = matrix.shape
    n_frames = max(1, -(-n_out // frame))
    # the input position of every frame sample; outside the signal, samples
    # lie on the line through the first and last samples
    n = data.shape[1]
    at = first + stride * np.arange(n_frames)[:, None] + np.arange(window)
    inside = np.clip(at, 0, n - 1)
    before, after = at < 0, at > n - 1
    out = np.empty((len(data), n_frames * frame))
    edges = list(range(_ROW_CHUNK, len(data) - 1, _ROW_CHUNK))
    for x, y in zip(np.split(data, edges), np.split(out, edges)):
        # the chunk's frames, gathered in one copy (C order, so reshape copies nothing)
        frames = np.take(x, inside, axis=1)
        slope = (x[:, -1:] - x[:, :1]) / (n - 1)
        frames[:, before] = x[:, :1] + at[before] * slope
        frames[:, after] = x[:, -1:] + (at[after] - (n - 1)) * slope
        np.matmul(frames.reshape(-1, window), matrix, out=y.reshape(-1, frame))
        del frames  # before the next chunk's are gathered
    return out[:, :n_out]


@lru_cache(maxsize=64)
def design_notch(f0_hz, q, fs_hz) -> np.ndarray:
    """Second-order IIR notch at f0_hz with quality factor q, as a (1, 6)
    section array (memoized and read-only)."""
    if not 0 < f0_hz < fs_hz / 2:
        raise FrequencyOutOfRange(
            f"notch frequency {f0_hz} Hz outside (0, {fs_hz / 2}) at fs={fs_hz}"
        )
    if not q > 0:  # q = 0 divides by zero; q < 0 puts the poles outside the unit circle
        raise UnstableDesign(f"notch quality factor must be positive, got {q}")
    w0 = 2 * f0_hz / fs_hz * np.pi
    gain = 1.0 / (1.0 + np.tan(w0 / q / 2))
    sos = np.array([[gain, -2 * gain * np.cos(w0), gain,
                     1.0, -2 * gain * np.cos(w0), 2 * gain - 1.0]])
    sos.setflags(write=False)  # shared by every caller through the cache
    return sos


def notch(data, fs_hz, f0_hz, q=30.0, out=None) -> np.ndarray:
    """Zero-phase notch filtering of every row, into `out` when given."""
    return filtfilt_matrix(design_notch(f0_hz, q, fs_hz), data, out)


def _butterworth_bandpass_sos(order, low_hz, high_hz, fs_hz):
    """Second-order sections of a digital Butterworth band-pass.

    Analog prototype poles, pre-warped low-pass to band-pass transform and
    bilinear map at fs = 2.  The band-pass has `order` zeros at z = 1 and
    `order` at z = -1.  Sections pair poles with zeros nearest-first: the
    pole pair nearest the unit circle, with its two nearest zeros, is the
    last section, the next nearest the one before, and the overall gain
    goes into section 0 (scipy.signal.zpk2sos's "nearest" pairing, so that
    the cascade rounds the same way).
    """
    warped = 4.0 * np.tan(np.pi * (np.array([low_hz, high_hz]) / (fs_hz / 2)) / 2)
    width = warped[1] - warped[0]
    center = np.sqrt(warped[0] * warped[1])
    analog = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2) / (2 * order))
    lowpass = analog * width / 2
    shift = np.sqrt(lowpass**2 - center**2)
    poles = np.concatenate((lowpass + shift, lowpass - shift))
    gain = width**order * np.real(4.0**order / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    # one pole per conjugate pair, ordered by real part, then |imaginary|
    poles = poles[poles.imag > 0]
    poles = poles[np.lexsort((np.abs(poles.imag), poles.real))]
    zeros = np.concatenate((-np.ones(order), np.ones(order)))
    sos = np.zeros((order, 6))
    for section in range(order - 1, -1, -1):
        worst = np.argmin(np.abs(1 - np.abs(poles)))
        pole = poles[worst]
        poles = np.delete(poles, worst)
        nearest = np.argsort(np.abs(zeros - pole))[:2]
        z1, z2 = zeros[nearest]
        zeros = np.delete(zeros, nearest)
        sos[section] = [1.0, -(z1 + z2), z1 * z2,
                        1.0, -2 * pole.real, pole.real**2 + pole.imag**2]
    sos[0, :3] *= gain
    return sos


@lru_cache(maxsize=64)
def design_butterworth_bandpass(band: BandSpec, fs_hz, order=4) -> np.ndarray:
    """Butterworth band-pass via bilinear transform with pre-warping.

    `order` is the analog prototype order (even, 2-8); the resulting
    band-pass filter has 2 x order poles, realized as an (order, 6) array of
    second-order sections.  Designs are memoized and read-only; a rejected
    design raises again on every call.
    """
    if order % 2 != 0 or not 2 <= order <= 8:
        raise InvalidBand(f"order must be even and within 2-8, got {order}")
    if not band.high_hz < fs_hz / 2:
        raise InvalidBand(
            f"band {band.name} upper edge {band.high_hz} Hz at or above "
            f"Nyquist for fs={fs_hz}"
        )
    sos = _butterworth_bandpass_sos(order, band.low_hz, band.high_hz, fs_hz)
    if any(np.any(np.abs(np.roots(section[3:])) >= 1.0) for section in sos):
        raise UnstableDesign(
            f"band-pass design for {band.name} at fs={fs_hz} has poles on or "
            "outside the unit circle"
        )
    sos.setflags(write=False)  # shared by every caller through the cache
    return sos


@dataclass(frozen=True)
class _BlockOperators:
    """A second-order-section cascade as one state-space system (A, B, C, D)
    whose state stacks every section's two transposed-direct-form-II states,
    applied to blocks of _BLOCK samples.  Over one block with input x and
    entry state s, y = T x + O s and the exit state is A^L s + G x.  All
    matrices are stored transposed, for row-major (rows x samples) data."""

    toeplitz: np.ndarray   # T[t, j] = h[t - j], the impulse response h
    observe: np.ndarray    # O[t] = C A^t
    drive: np.ndarray      # G[:, j] = A^(L - 1 - j) B
    carry: np.ndarray      # A^L
    step_state: np.ndarray  # state after a unit step has settled


@lru_cache(maxsize=64)
def _block_operators(sos_bytes: bytes) -> _BlockOperators:
    sos = np.frombuffer(sos_bytes).reshape(-1, 6)
    n = 2 * len(sos)
    a, b, c, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
    step_state = np.zeros(n)
    dc_gain = 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        own = slice(2 * i, 2 * i + 2)
        a_i = np.array([[-a1, 1.0], [-a2, 0.0]])
        b_i = np.array([b1 - a1 * b0, b2 - a2 * b0])
        # section i is driven by the output C s + D x of the sections before it
        a[own, :2 * i] = np.outer(b_i, c[:2 * i])
        a[own, own] = a_i
        b[own] = b_i * d
        c[:2 * i] *= b0
        c[2 * i] = 1.0
        d *= b0
        # per-section steady state (scipy.signal.sosfilt_zi): a single
        # solve over the whole cascade is equal in exact arithmetic but
        # loses about 1e-8 relative on narrow high-order bands
        step_state[own] = dc_gain * np.linalg.solve(np.eye(2) - a_i, b_i)
        dc_gain *= sos[i, :3].sum() / sos[i, 3:].sum()
    powers = [np.eye(n)]
    for _ in range(_BLOCK):
        powers.append(a @ powers[-1])
    observe = np.array([c @ p for p in powers[:_BLOCK]])
    impulse = np.concatenate(([d], observe[:-1] @ b))
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lag >= 0, impulse[np.clip(lag, 0, None)], 0.0)
    drive = np.array([p @ b for p in powers[_BLOCK - 1::-1]])
    ops = _BlockOperators(toeplitz=toeplitz.T.copy(), observe=observe.T.copy(),
                          drive=drive, carry=powers[_BLOCK].T.copy(),
                          step_state=step_state)
    for matrix in vars(ops).values():
        matrix.setflags(write=False)  # shared by every caller through the cache
    return ops


def _filter_blocks(ops: _BlockOperators, blocks, state):
    """One causal pass of the cascade along each row of `blocks` (whose
    length is a multiple of _BLOCK), from (rows, 2 x sections) entry
    states."""
    rows = len(blocks)
    blocks = blocks.reshape(-1, _BLOCK)
    driven = (blocks @ ops.drive).reshape(rows, -1, len(ops.carry))
    entry = np.empty_like(driven)
    entry[:, 0] = state
    for k in range(driven.shape[1] - 1):
        np.add(entry[:, k] @ ops.carry, driven[:, k], out=entry[:, k + 1])
    y = blocks @ ops.toeplitz
    y += entry.reshape(len(blocks), -1) @ ops.observe
    return y.reshape(rows, -1)


def filtfilt_matrix(sos: np.ndarray, data: np.ndarray, out=None) -> np.ndarray:
    """Zero-phase filtering row-wise by the sections `sos`, each normalized
    to a0 = 1, with odd padding of 3 x order = 6 x sections samples.

    The forward-backward and backward-forward passes are averaged, which
    leaves the steady-state (squared-magnitude) response untouched but makes
    the operation exactly symmetric under time reversal, including the edge
    transients.  Each forward-backward pass is scipy.signal.sosfiltfilt's:
    odd padding, and each direction starts from the step steady state
    scaled by its first sample.  Rows and their time reversals are filtered
    together, _ROW_CHUNK at a time, into `out` (a new array by default).  A
    chunk's rows are read before its output is written, so `out` may be
    `data` itself.
    """
    padlen = 6 * len(sos)  # three samples per pole, two poles per section
    n = data.shape[1]
    if n <= padlen:
        raise SignalTooShort(
            f"signal of {n} samples too short for order-{2 * len(sos)} "
            f"zero-phase filtering (needs > {padlen})"
        )
    ops = _block_operators(sos.tobytes())
    m = n + 2 * padlen
    chunk = _ROW_CHUNK // 2
    buf = np.zeros((2 * chunk, -(-m // _BLOCK) * _BLOCK))
    if out is None:
        out = np.empty(data.shape)
    for r in range(0, len(data), chunk):
        x = data[r:r + chunk]
        c = len(x)
        ext, rev = buf[:c, :m], buf[c:2 * c, :m]
        ext[:, :padlen] = 2 * x[:, :1] - x[:, padlen:0:-1]
        ext[:, padlen:padlen + n] = x
        ext[:, padlen + n:] = 2 * x[:, -1:] - x[:, -2:-padlen - 2:-1]
        rev[:] = ext[:, ::-1]
        y = _filter_blocks(ops, buf[:2 * c], buf[:2 * c, :1] * ops.step_state)
        buf[:2 * c, :m] = y[:, m - 1::-1]
        y = _filter_blocks(ops, buf[:2 * c], buf[:2 * c, :1] * ops.step_state)
        # the backward pass left both halves time-reversed; the reversed
        # copy's result needs reversing once more, which cancels
        out[r:r + c] = y[:c, m - 1 - padlen:padlen - 1:-1]
        out[r:r + c] += y[c:2 * c, padlen:padlen + n]
        out[r:r + c] *= 0.5
    return out


def bandpass(data, fs_hz, band: BandSpec, order=4, out=None) -> np.ndarray:
    """Zero-phase Butterworth band-pass of every row, into `out` when given."""
    return filtfilt_matrix(design_butterworth_bandpass(band, fs_hz, order), data, out)


def epoch_samples(fs_hz, epoch_length_s) -> int:
    """Samples per epoch of epoch_length_s at fs_hz."""
    if not epoch_length_s > 0:
        raise ValueError("epoch_length_s must be positive")
    m = int(round(epoch_length_s * fs_hz))
    if m < 1:
        raise ValueError(
            f"a {epoch_length_s} s epoch is shorter than one sample at {fs_hz} Hz"
        )
    return m


def split_epochs(data, fs_hz, epoch_length_s) -> np.ndarray:
    """Cut (channels, samples) data into non-overlapping epochs; remainder
    is dropped.

    Returns a C-contiguous (epochs, channels, samples) stack.
    """
    m = epoch_samples(fs_hz, epoch_length_s)
    n_epochs = data.shape[1] // m
    if n_epochs < 1:
        raise RecordingTooShort(
            f"{data.shape[1]} samples cannot hold one {epoch_length_s} s epoch at {fs_hz} Hz"
        )
    data = data[:, :n_epochs * m].reshape(len(data), n_epochs, m)
    return np.ascontiguousarray(data.transpose(1, 0, 2))


def preprocess(data, fs_hz, notch_hz=50.0, notch_q=30.0, order=4, out=None) -> np.ndarray:
    """Standard cleanup of already-resampled (channels, samples) data, into
    `out` when given.

    Notch at notch_hz (skipped when at/above Nyquist, e.g. 50 Hz at 128 Hz
    would still fit, but 60 Hz at 100 Hz would not), then broadband
    0.5-45 Hz band-pass.  Both steps write `out`, so no intermediate array
    is allocated.
    """
    if notch_hz and 0 < notch_hz < fs_hz / 2:
        data = notch(data, fs_hz, notch_hz, notch_q, out)
    return bandpass(data, fs_hz, BROADBAND, order, out)
