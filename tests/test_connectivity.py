import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid import connectivity as con
from eegid import dsp, graph
from eegid.errors import DegenerateVariance, EpochTooShort

from oracles import (connectivity_loop, pearson_two_pass, pli_loop, pli_rows_parent,
                     plv_loop, wrap_phase)


def make_epoch(data, fs=128.0):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return dsp.split_epochs(data, fs, data.shape[1] / fs)[0]


class TestAnalyticPhase:
    def test_phase_slope_of_cosine(self):
        t = np.arange(512) / 128.0
        epoch = make_epoch(np.cos(2 * np.pi * 10 * t))
        phases = con.analytic_phase(epoch)[0]
        unwrapped = np.unwrap(phases)
        edge = int(0.05 * 512)
        slope = np.polyfit(t[edge:-edge], unwrapped[edge:-edge], 1)[0]
        assert slope == pytest.approx(2 * np.pi * 10, rel=0.01)

    def test_quadrature_pair(self):
        t = np.arange(512) / 128.0
        epoch = make_epoch(np.vstack([np.cos(2 * np.pi * 10 * t),
                                      np.sin(2 * np.pi * 10 * t)]))
        phases = con.analytic_phase(epoch)
        edge = int(0.05 * 512)
        diff = wrap_phase(phases[0] - phases[1])[edge:-edge]
        np.testing.assert_allclose(diff, np.pi / 2, atol=0.02)

    def test_zero_epoch_is_defined(self):
        epoch = make_epoch(np.zeros((2, 64)))
        phases = con.analytic_phase(epoch)
        assert np.all(np.isfinite(phases))
        np.testing.assert_array_equal(phases, 0.0)

    def test_too_short(self):
        epoch = make_epoch(np.ones((1, 16)))
        short = make_epoch(np.arange(7.0).reshape(1, -1) + np.sin(np.arange(7.0)))
        with pytest.raises(EpochTooShort):
            con.analytic_phase(short)
        con.analytic_phase(epoch)  # 16 samples is fine


def correlation(x, y):
    """COR of two channels, through the all-pairs matrix."""
    return con.connectivity_matrix(np.vstack([x, y]).astype(float), "COR")[0, 1]


class TestPearson:
    def test_identity(self):
        assert correlation([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        assert correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self, rng):
        for _ in range(20):
            x = rng.standard_normal(100)
            y = rng.standard_normal(100)
            assert correlation(x, y) == pytest.approx(
                pearson_two_pass(x.tolist(), y.tolist()), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            correlation([1, 1, 1], [1, 2, 3])

    @given(st.integers(0, 2**32 - 1),
           st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        base = correlation(x, y)
        assert correlation(a * x + b, y) == pytest.approx(base, abs=1e-9)
        assert correlation(-a * x + b, y) == pytest.approx(-base, abs=1e-9)


# PLV and PLI properties stated on phases check the loop oracles;
# test_matches_bruteforce_oracle ties those to the matrix code.


class TestPlv:
    def test_identical_phases(self, rng):
        phi = rng.uniform(-np.pi, np.pi, 100)
        assert plv_loop(phi, phi) == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset(self, rng):
        phi = rng.uniform(-np.pi, np.pi, 100)
        assert plv_loop(phi + 0.7, phi) == pytest.approx(1.0, abs=1e-12)

    def test_random_phases_small(self):
        # Monte-Carlo: independent channels should give PLV near zero; the
        # 1035 channel pairs of one 46-channel noise epoch are the trials
        rng = np.random.default_rng(2024)
        values = con.vectorize_upper(
            con.connectivity_matrix(rng.standard_normal((46, 10000)), "PLV"))
        assert values.size == 1035
        assert np.mean(values < 0.05) >= 0.99

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_two_pi_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-np.pi, np.pi, 64)
        b = rng.uniform(-np.pi, np.pi, 64)
        shifted = a.copy()
        shifted[rng.integers(0, 64)] += 2 * np.pi
        assert plv_loop(shifted, b) == pytest.approx(plv_loop(a, b), abs=1e-12)


class TestPli:
    def test_always_leading(self, rng):
        phi = rng.uniform(-1.0, 1.0, 50)
        assert pli_loop(phi + 0.3, phi) == 1.0

    def test_balanced_signs(self):
        diffs = np.array([0.4, -0.4, 0.9, -0.9])
        assert pli_loop(diffs, np.zeros(4)) == 0.0

    def test_hand_evaluated_sign_table(self):
        diffs = np.array([0.1, 0.2, -0.1, 0.0, 0.0])
        assert pli_loop(diffs, np.zeros(5)) == pytest.approx(0.2, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_two_pi_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 64)
        b = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 64)
        shifted = a.copy()
        shifted[rng.integers(0, 64)] += 2 * np.pi
        assert pli_loop(shifted, b) == pytest.approx(pli_loop(a, b), abs=1e-12)


def _ulps(x, k):
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


def _edge_phase_pairs():
    """(phi_m, phi_k) pairs in [-pi, pi] whose difference lies within a few
    ulps of 0, +-pi or +-2 pi (where pi - d lies near 3 pi), or is subnormal
    or far below ulp(pi)."""
    near = range(-7, 8)
    pairs = [(_ulps(x, i), x) for x in (0.0, 0.5, 1.0, np.pi, -np.pi) for i in near]
    for a, b in ((np.pi, 0.0), (np.pi / 2, -np.pi / 2), (np.pi, -np.pi)):
        pairs += [(_ulps(a, i), _ulps(b, j)) for i in near for j in near]
    pairs += [(0.0, t) for t in (5e-324, -5e-324, 1e-310, -1e-310, 1e-17, -1e-17)]
    pairs += [(np.pi, t) for t in (5e-324, -5e-324, 1e-17, -1e-17)]
    pairs += [(b, a) for a, b in pairs]
    return [(a, b) for a, b in pairs if abs(a) <= np.pi and abs(b) <= np.pi]


class TestPliExact:
    """The PLI matrix counts the signs of np.mod-wrapped phase differences
    exactly: it equals `pli_rows_parent`, the former mean-of-signs loop, bit
    for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 56), st.integers(8, 512),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_epochs_bit_equal(self, seed, n, m, quantized):
        rng = np.random.default_rng(seed)
        # small-integer samples make equal and mirrored phases common
        data = (rng.integers(-2, 3, (n, m)).astype(float) if quantized
                else rng.standard_normal((n, m)))
        cm = con.connectivity_matrix(data, "PLI")
        assert np.array_equal(np.triu(cm, 1), pli_rows_parent(con.analytic_phase(data)))

    def test_edge_differences_signed_as_wrap_phase(self, monkeypatch):
        # channel 2i is [0.25, a] and channel 2i+1 is [-0.25, b]: the first
        # sample leads, so their PLI is |1 + s| / 2 for the sign s of the
        # wrapped a - b, which recovers s exactly
        pairs = np.array(_edge_phase_pairs())
        phases = np.empty((2 * len(pairs), 2))
        phases[0::2] = np.column_stack([np.full(len(pairs), 0.25), pairs[:, 0]])
        phases[1::2] = np.column_stack([np.full(len(pairs), -0.25), pairs[:, 1]])
        monkeypatch.setattr(con, "analytic_phase", lambda data: phases)
        cm = con.connectivity_matrix(np.zeros(phases.shape), "PLI")
        got = 2 * cm[np.arange(0, len(phases), 2), np.arange(1, len(phases), 2)] - 1
        want = np.sign(wrap_phase(pairs[:, 0] - pairs[:, 1]))
        wrong = [(a.hex(), b.hex(), g, w)
                 for (a, b), g, w in zip(pairs.tolist(), got, want) if g != w]
        assert wrong == []
        # every other channel pair mixes the edge values too
        assert np.array_equal(np.triu(cm, 1), pli_rows_parent(phases))

    def test_flat_and_duplicated_channels(self, rng):
        data = rng.standard_normal((6, 256))
        data[1] = 0.0
        data[3] = 2.5
        data[4] = data[2]
        cm = con.connectivity_matrix(data, "PLI")
        assert np.array_equal(np.triu(cm, 1), pli_rows_parent(con.analytic_phase(data)))
        assert cm[2, 4] == 0.0 and cm[1, 3] == 0.0


class TestConnectivityMatrix:
    def test_56_channel_shape(self, rng):
        epoch = make_epoch(rng.standard_normal((56, 128)))
        cm = con.connectivity_matrix(epoch, "PLV")
        assert cm.shape == (56, 56)
        iu = np.triu_indices(56, k=1)
        assert iu[0].size == 1540

    def test_identical_channels_plv_one(self):
        t = np.arange(256) / 128.0
        x = np.sin(2 * np.pi * 12 * t)
        epoch = make_epoch(np.vstack([x, x]))
        cm = con.connectivity_matrix(epoch, "PLV")
        assert cm[0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("metric", ["COR", "PLV", "PLI"])
    def test_matches_bruteforce_oracle(self, metric, rng):
        epoch = make_epoch(rng.standard_normal((4, 64)))
        cm = con.connectivity_matrix(epoch, metric)
        if metric == "COR":
            expected = connectivity_loop(epoch, "COR")
        else:
            phases = con.analytic_phase(epoch)
            expected = connectivity_loop(phases, metric)
        np.testing.assert_allclose(cm, expected, atol=1e-12)

    def test_symmetry_and_zero_diagonal(self, rng):
        # the graph metrics take these matrices unchecked
        epoch = make_epoch(rng.standard_normal((6, 64)))
        for metric in con.METRICS:
            cm = con.connectivity_matrix(epoch, metric)
            assert np.array_equal(cm, cm.T), metric
            np.testing.assert_array_equal(np.diag(cm), 0.0, err_msg=metric)
            assert np.all(graph.from_connectivity(cm, metric) >= 0.0), metric

    def test_degenerate_channel_reported(self, rng):
        data = rng.standard_normal((3, 64))
        data[1] = 2.5
        epoch = make_epoch(data)
        with pytest.raises(DegenerateVariance, match="1"):
            con.connectivity_matrix(epoch, "COR")

    def test_ranges(self, rng):
        epoch = make_epoch(rng.standard_normal((5, 128)))
        assert np.all(np.abs(con.connectivity_matrix(epoch, "COR")) <= 1.0)
        for metric in ("PLV", "PLI"):
            vals = con.connectivity_matrix(epoch, metric)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((5, 64))
        perm = rng.permutation(5)
        base = con.connectivity_matrix(make_epoch(data), "PLV")
        permuted = con.connectivity_matrix(make_epoch(data[perm]), "PLV")
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=10, deadline=None)
    def test_amplitude_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((4, 64))
        for metric in ("COR", "PLV", "PLI"):
            base = con.connectivity_matrix(make_epoch(data), metric)
            scaled = con.connectivity_matrix(make_epoch(scale * data), metric)
            np.testing.assert_allclose(scaled, base, atol=1e-9)


class TestVectorizeUpper:
    def test_56_gives_1540(self, rng):
        epoch = make_epoch(rng.standard_normal((56, 64)))
        fv = con.vectorize_upper(con.connectivity_matrix(epoch, "PLV"))
        assert fv.shape == (1540,)

    def test_21_gives_210(self):
        assert con.vectorize_upper(np.zeros((21, 21))).shape == (21 * 20 // 2,)

    def test_row_major_order(self):
        values = np.zeros((3, 3))
        values[0, 1], values[0, 2], values[1, 2] = 0.1, 0.2, 0.3
        values = values + values.T
        np.testing.assert_array_equal(con.vectorize_upper(values), [0.1, 0.2, 0.3])


def test_plv_dominates_pli_on_identical_inputs(rng):
    # with identical phase inputs the phasor mean has unit magnitude while
    # the sign mean vanishes, so PLV >= PLI trivially; checked over many
    # random sequences
    for _ in range(1000):
        phi = rng.uniform(-np.pi, np.pi, 32)
        assert plv_loop(phi, phi) >= pli_loop(phi, phi) - 1e-12
