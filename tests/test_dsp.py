import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid import dsp
from eegid.errors import (
    FrequencyOutOfRange,
    InvalidBand,
    IrrationalRatio,
    RecordingTooShort,
    SignalTooShort,
    UnstableDesign,
)

import oracles


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


class TestResample:
    def test_160_to_128_length(self, rng):
        out = dsp.resample(rng.standard_normal((2, 9600)), 160.0, 128.0)
        assert out.shape == (2, 7680)

    def test_same_rate_returns_the_input(self, rng):
        data = rng.standard_normal((2, 100))
        assert dsp.resample(data, 128.0, 128) is data

    def test_dc_preserved(self):
        out = dsp.resample(np.full((1, 9600), 3.0), 160.0, 128.0)
        np.testing.assert_allclose(out, 3.0, atol=1e-6)

    def test_fft_peak_survives_500_to_128(self):
        t = np.arange(5000) / 500.0
        out = dsp.resample(np.sin(2 * np.pi * 10 * t)[None], 500.0, 128.0)
        spectrum = np.abs(np.fft.rfft(out[0]))
        freqs = np.fft.rfftfreq(out.shape[1], 1 / 128.0)
        peak = freqs[np.argmax(spectrum)]
        bin_width = 128.0 / out.shape[1]
        assert abs(peak - 10.0) <= bin_width

    def test_irrational_ratio(self, rng):
        with pytest.raises(IrrationalRatio):
            dsp.resample(rng.standard_normal((1, 1000)), 128.0, 128.0 * np.pi)

    def test_single_sample_rejected(self):
        # the line extension needs a slope; one sample used to give all-NaN output
        with pytest.raises(SignalTooShort):
            dsp.resample(np.array([[3.0], [1.0]]), 1.0, 4.0)

    def test_there_and_back_preserves_bandlimited(self, rng):
        # band-limited (< 0.4 x lower Nyquist) noise, tapered so the
        # boundary extension is benign
        x = rng.standard_normal(4000)
        spectrum = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(4000, 1 / 128.0)
        spectrum[freqs > 0.4 * 64.0] = 0.0
        x = np.fft.irfft(spectrum, 4000) * np.hanning(4000)
        back = dsp.resample(dsp.resample(x[None], 128.0, 160.0), 160.0, 128.0)[0]
        n = min(len(back), len(x))
        assert rms(back[:n] - x[:n]) / rms(x) < 1e-3


class TestResampleRowChunks:
    """resample goes through _ROW_CHUNK rows at a time; the whole-array form
    in tests/oracles.py gathers every row's frames at once."""

    @pytest.mark.parametrize("up, down", [(4, 5), (1, 2), (5, 4), (32, 125)])
    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 49, 56])
    @pytest.mark.parametrize("n", [2, 40, 1000, 4000])
    def test_equal_to_the_whole_array(self, up, down, rows, n, rng):
        data = 40.0 * rng.standard_normal((rows, n)) + np.linspace(5, -2, n)
        out = dsp.resample(data, 100.0 * down, 100.0 * up)
        ref = oracles.resample_whole(data, 100.0 * down, 100.0 * up)
        assert out.shape == ref.shape
        if dsp._polyphase_operator(up, down)[0].shape[1] % 64 == 0:
            assert np.array_equal(out, ref)
        else:
            # a frame of 65 outputs: OpenBLAS multiplies a product of fewer
            # rows by another kernel, whose last column rounds differently
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.max(np.abs(data)))

    def test_frames_of_one_chunk_at_a_time(self, rng):
        """A 56-channel 75 s recording at 160 Hz: gathering every row's
        frames at once would hold 3.5 chunks of them beside the output."""
        data = rng.standard_normal((56, 12000))
        dsp.resample(data[:2], 160.0, 128.0)  # the operator is built and cached
        window, frame = dsp._polyphase_operator(4, 5)[0].shape
        n_frames = -(-12000 * 4 // 5 // frame)
        chunk = dsp._ROW_CHUNK * n_frames * window * 8
        tracemalloc.start()
        try:
            out = dsp.resample(data, 160.0, 128.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * chunk, (peak, out.nbytes, chunk)


class TestNotch:
    def test_line_noise_removed(self):
        t = np.arange(128 * 20) / 128.0
        x = np.sin(2 * np.pi * 50 * t)
        settled = dsp.notch(x[None], 128.0, 50.0, q=30.0)[0][512:-512]
        assert rms(settled) < 0.01 * rms(x)

    def test_passband_preserved(self):
        t = np.arange(128 * 20) / 128.0
        x = np.sin(2 * np.pi * 10 * t)
        settled = dsp.notch(x[None], 128.0, 50.0, q=30.0)[0][512:-512]
        assert abs(rms(settled) - rms(x)) < 0.01 * rms(x)

    def test_above_nyquist_rejected(self, rng):
        with pytest.raises(FrequencyOutOfRange):
            dsp.notch(rng.standard_normal((1, 1280)), 128.0, 70.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, float("nan")])
    def test_non_positive_q_rejected(self, q):
        # q = 0 divided by zero; q = -1 gave pole moduli 1.95 and 1.09
        with pytest.raises(UnstableDesign, match="quality factor"):
            dsp.design_notch(50.0, q, 160.0)


def sos_response(sos, freqs_hz, fs_hz):
    """Independent |H| oracle: evaluate every section at z = e^{jw} directly."""
    w = 2 * np.pi * np.asarray(freqs_hz) / fs_hz
    z = np.exp(1j * w)
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in np.atleast_2d(sos):
        h *= (b0 + b1 / z + b2 / z**2) / (a0 + a1 / z + a2 / z**2)
    return np.abs(h)


class TestButterworthDesign:
    def test_gamma_band_response(self):
        sos = dsp.design_butterworth_bandpass(dsp.GAMMA, 128.0, order=4)
        h = sos_response(sos, [37.0, 55.0], 128.0)
        assert h[0] >= 0.95
        assert h[1] <= 0.1

    def test_dc_killed(self):
        for band in dsp.ANALYSIS_BANDS:
            sos = dsp.design_butterworth_bandpass(band, 128.0, order=4)
            assert sos_response(sos, [1e-12], 128.0)[0] < 1e-9

    def test_delta_band_valid(self):
        sos = dsp.design_butterworth_bandpass(dsp.DELTA, 128.0, order=4)
        assert np.all(oracles.pole_moduli(sos) < 1.0)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("band", dsp.ANALYSIS_BANDS, ids=lambda b: b.name)
    def test_stability_all_bands_orders(self, band, order):
        sos = dsp.design_butterworth_bandpass(band, 128.0, order=order)
        assert np.all(oracles.pole_moduli(sos) < 1.0 - 1e-9)

    @pytest.mark.parametrize("band", dsp.ANALYSIS_BANDS, ids=lambda b: b.name)
    def test_band_center_gain(self, band):
        sos = dsp.design_butterworth_bandpass(band, 128.0, order=4)
        center = np.sqrt(band.low_hz * band.high_hz)
        gain = sos_response(sos, [center], 128.0)[0]
        assert 0.9 <= gain <= 1.0 + 1e-9

    def test_odd_order_rejected(self):
        with pytest.raises(InvalidBand):
            dsp.design_butterworth_bandpass(dsp.GAMMA, 128.0, order=3)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(InvalidBand):
            dsp.design_butterworth_bandpass(dsp.BandSpec("x", 30.0, 60.0), 100.0)

    @pytest.mark.parametrize("design, args", [
        (dsp.design_butterworth_bandpass, (dsp.BETA2, 128.0, 6)),
        (dsp.design_notch, (50.0, 30.0, 128.0)),
    ], ids=["bandpass", "notch"])
    def test_designs_are_memoized_read_only_and_bit_equal(self, design, args):
        sos = design(*args)
        assert design(*args) is sos
        assert not sos.flags.writeable
        fresh = design.__wrapped__(*args)
        assert fresh is not sos
        assert sos.tobytes() == fresh.tobytes()

    def test_unstable_design_raises_on_every_call(self, monkeypatch):
        unstable = np.array([[1.0, 0.0, -1.0, 1.0, 0.0, -1.5]])  # poles at +/-1.22
        monkeypatch.setattr(dsp, "_butterworth_bandpass_sos", lambda *args: unstable)
        band = dsp.BandSpec("unstable", 9.0, 11.0)
        for _ in range(2):
            with pytest.raises(UnstableDesign):
                dsp.design_butterworth_bandpass(band, 128.0, 2)


def filtfilt(sos, x):
    """Zero-phase filtering of one 1-D signal, as a one-row matrix."""
    return dsp.filtfilt_matrix(sos, np.asarray(x, dtype=float)[None])[0]


class TestFiltfilt:
    def test_identity_section(self):
        identity = np.array([[1.0, 0, 0, 1.0, 0, 0]])
        x = np.zeros(64)
        x[32] = 1.0
        np.testing.assert_allclose(filtfilt(identity, x), x, atol=1e-12)

    def test_zero_lag_in_passband(self):
        sos = dsp.design_butterworth_bandpass(dsp.GAMMA, 128.0, order=4)
        t = np.arange(128 * 8) / 128.0
        x = np.sin(2 * np.pi * 37 * t)
        y = filtfilt(sos, x)
        lags = np.arange(-20, 21)
        xc = [np.dot(x[20:-20], y[20 + lag:len(y) - 20 + lag]) for lag in lags]
        assert lags[np.argmax(xc)] == 0

    def test_too_short(self):
        sos = dsp.design_butterworth_bandpass(dsp.GAMMA, 128.0, order=2)
        with pytest.raises(SignalTooShort):
            filtfilt(sos, np.zeros(5))

    def test_padding_is_three_times_the_order(self):
        # an order-2 band-pass has 4 poles, so 12 samples of padding; the notch 2 and 6
        for sos, padlen in ((dsp.design_butterworth_bandpass(dsp.GAMMA, 128.0, order=2), 12),
                            (dsp.design_notch(50.0, 30.0, 128.0), 6)):
            with pytest.raises(SignalTooShort):
                filtfilt(sos, np.ones(padlen))
            filtfilt(sos, np.ones(padlen + 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_time_reversal_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        sos = dsp.design_butterworth_bandpass(dsp.ALPHA, 128.0, order=4)
        x = rng.standard_normal(512)
        forward = filtfilt(sos, x[::-1])[::-1]
        backward = filtfilt(sos, x)
        np.testing.assert_allclose(forward, backward, atol=1e-9)


class TestSplitEpochs:
    def test_fifteen_four_second_epochs(self, rng):
        epochs = dsp.split_epochs(rng.standard_normal((3, 7680)), 128.0, 4.0)
        assert epochs.shape == (15, 3, 512)
        assert epochs.flags.c_contiguous

    def test_thirty_two_second_epochs(self, rng):
        assert len(dsp.split_epochs(rng.standard_normal((1, 7680)), 128.0, 2.0)) == 30

    def test_floor_semantics(self, rng):
        epochs = dsp.split_epochs(rng.standard_normal((1, 7680)), 128.0, 7.0)
        assert len(epochs) == 8

    def test_too_short(self, rng):
        with pytest.raises(RecordingTooShort):
            dsp.split_epochs(rng.standard_normal((1, 100)), 128.0, 4.0)

    def test_epoch_shorter_than_one_sample(self, rng):
        with pytest.raises(ValueError, match="shorter than one sample"):
            dsp.split_epochs(rng.standard_normal((1, 512)), 128.0, 0.001)

    def test_concatenation_reconstructs_prefix(self, rng):
        data = rng.standard_normal((2, 1000))
        epochs = dsp.split_epochs(data, 128.0, 1.0)
        joined = np.concatenate(list(epochs), axis=1)
        np.testing.assert_array_equal(joined, data[:, :joined.shape[1]])


def test_band_table():
    table = {"delta": (0.5, 4), "theta": (4, 8), "alpha": (8, 12),
             "beta1": (12, 20), "beta2": (20, 30), "gamma": (30, 45)}
    for name, (lo, hi) in table.items():
        band = dsp.BANDS[name]
        assert band.low_hz == lo
        assert band.high_hz == hi


class TestScipyOracle:
    """The numpy designs, filter and resampler against scipy.signal."""

    @pytest.mark.parametrize("fs", [128.0, 256.0])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("band", list(dsp.BANDS.values()), ids=lambda b: b.name)
    def test_butterworth_sos(self, band, order, fs):
        ref = oracles.butter_bandpass_sos(order, band.low_hz, band.high_hz, fs)
        sos = dsp.design_butterworth_bandpass(band, fs, order)
        assert sos.shape == ref.shape
        assert np.max(np.abs(sos - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("f0, q, fs", [(50.0, 30.0, 128.0), (60.0, 30.0, 256.0),
                                           (50.0, 10.0, 160.0), (60.0, 35.0, 500.0)])
    def test_notch_sos(self, f0, q, fs):
        ref = oracles.notch_sos(f0, q, fs)
        sos = dsp.design_notch(f0, q, fs)
        assert sos.shape == ref.shape
        assert np.max(np.abs(sos - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def _check_filtfilt(sos, data):
        ref = oracles.filtfilt_average(sos, 3 * 2 * len(sos), data)
        np.testing.assert_allclose(dsp.filtfilt_matrix(sos, data), ref, rtol=0,
                                   atol=1e-11 * np.max(np.abs(data)))

    # the DC offset makes the edge states matter: at order 8 in the delta
    # band, one steady-state solve over the whole cascade is ~1e-9 off
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("band", list(dsp.BANDS.values()), ids=lambda b: b.name)
    def test_filtfilt_matrix(self, band, order, rng):
        sos = dsp.design_butterworth_bandpass(band, 128.0, order)
        self._check_filtfilt(sos, 50 * rng.standard_normal((20, 1500)) + 20)

    def test_filtfilt_notch(self, rng):
        sos = dsp.design_notch(50.0, 30.0, 128.0)
        self._check_filtfilt(sos, 50 * rng.standard_normal((20, 1500)) + 20)

    @pytest.mark.parametrize("n", [25, 26, 63, 64, 65, 200])
    def test_filtfilt_short_signals(self, n, rng):
        sos = dsp.design_butterworth_bandpass(dsp.DELTA, 128.0, order=4)
        self._check_filtfilt(sos, rng.standard_normal((1, n)) + 3)

    def test_filtfilt_impulse_and_step(self):
        sos = dsp.design_butterworth_bandpass(dsp.DELTA, 128.0, order=8)
        data = np.zeros((2, 1500))
        data[0, 700] = 1.0
        data[1] = 1.0
        self._check_filtfilt(sos, data)

    @pytest.mark.parametrize("up, down, n", [
        (up, down, n)
        for up, down in [(4, 5), (32, 125), (5, 4), (1, 2), (256, 255)]
        for n in [2, 3, 4, 5, 17, 300, 1001]
        if n * up // down > 0  # at least one output sample
    ])
    def test_resample(self, up, down, n, rng):
        data = rng.standard_normal((3, n)) + np.linspace(5, -2, n)
        out = dsp.resample(data, 100.0 * down, 100.0 * up)
        ref = oracles.resample_poly_line(data, up, down)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.max(np.abs(data)))


def test_dsp_imports_only_errors():
    """dsp is an array layer: of the package it imports only `.errors`, so
    io_ingest can import dsp at module level without a cycle."""
    path = Path(__file__).resolve().parents[1] / "src" / "eegid" / "dsp.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    relative = {"." * node.level + (node.module or "") for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {node.module for node in nodes if isinstance(node, ast.ImportFrom)
                and not node.level}
    absolute |= {alias.name for node in nodes if isinstance(node, ast.Import)
                 for alias in node.names}
    assert relative == {".errors"}
    assert not [name for name in absolute if name.split(".")[0] == "eegid"]
