import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid.channels import (
    BCI2000_64,
    COMMON_56,
    TEN_TWENTY_21,
    ChannelSet,
    resolve_policy,
)
from eegid.errors import (
    MalformedHeader,
    MissingChannel,
    MixedSamplingRates,
    NonNumericCell,
    RaggedRows,
    TruncatedRecord,
    WindowOutOfRange,
)
from eegid.io_ingest import (
    DatasetManifest,
    ManifestEntry,
    build_corpus,
    load_manifest,
    load_matrix,
    parse_edf,
    save_matrix,
    select_channels,
    window_recording,
)

from conftest import make_recording
from edf_tools import decode_calibrated, write_edf


class TestParseEdf:
    def test_midpoint_calibration(self):
        # digital 0 on [-32768, 32767] -> [-1, 1] maps to 1/65535
        digital = np.zeros((1, 10), dtype=np.int16)
        raw = write_edf(["C3"], digital, 10.0, phys_min=-1.0, phys_max=1.0)
        rec = parse_edf(raw)
        expected = decode_calibrated(0, -1.0, 1.0, -32768, 32767)
        assert expected == pytest.approx(1.5259e-5, rel=1e-4)
        assert rec.n_samples == 10
        np.testing.assert_allclose(rec.data, expected, rtol=0, atol=1e-15)

    def test_empty_stream_is_malformed(self):
        with pytest.raises(MalformedHeader):
            parse_edf(b"")

    def test_label_normalization_and_rate(self):
        digital = np.zeros((2, 20), dtype=np.int16)
        raw = write_edf(["Fc5.", "Cz.."], digital, 10.0, record_duration=2.0)
        rec = parse_edf(raw)
        assert rec.channel_names == ("FC5", "CZ")
        assert rec.sampling_rate_hz == 10.0

    def test_annotation_channel_dropped(self):
        raw = write_edf(["C3", "EDF Annotations"],
                        np.zeros((2, 10), dtype=np.int16), 10.0)
        rec = parse_edf(raw)
        assert rec.channel_names == ("C3",)

    def test_mixed_rates_rejected(self):
        raw = bytearray(write_edf(["C3", "C4"], np.zeros((2, 10), dtype=np.int16), 10.0))
        # bump the second signal's samples-per-record field
        field_start = 256 + 2 * (16 + 80 + 8 + 8 + 8 + 8 + 8 + 80) + 8
        raw[field_start:field_start + 8] = b"20      "
        with pytest.raises(MixedSamplingRates):
            parse_edf(bytes(raw))

    def test_truncated_record(self):
        raw = write_edf(["C3"], np.zeros((1, 10), dtype=np.int16), 10.0)
        with pytest.raises(TruncatedRecord):
            parse_edf(raw[:-4])

    def test_bad_magic(self):
        raw = bytearray(write_edf(["C3"], np.zeros((1, 10), dtype=np.int16), 10.0))
        raw[:8] = b"9       "
        with pytest.raises(MalformedHeader):
            parse_edf(bytes(raw))

    @settings(max_examples=25, deadline=None)
    @given(
        n_ch=st.integers(1, 8),
        n_rec=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_within_quantization(self, n_ch, n_rec, seed):
        rng = np.random.default_rng(seed)
        spr = 16
        digital = rng.integers(-32768, 32768, size=(n_ch, n_rec * spr), dtype=np.int64)
        names = [f"CH{i}" for i in range(n_ch)]
        raw = write_edf(names, digital.astype(np.int16), float(spr),
                        phys_min=-200.0, phys_max=200.0)
        rec = parse_edf(raw)
        expected = decode_calibrated(digital, -200.0, 200.0, -32768, 32767)
        step = 400.0 / 65535
        assert np.max(np.abs(rec.data - expected)) <= step


class TestLoadMatrix:
    def test_zeros(self):
        rec = load_matrix(io.StringIO("0 0 0 0\n0,0,0,0\n"), 128.0, ["A", "B"])
        assert rec.n_channels == 2 and rec.n_samples == 4
        assert rec.sampling_rate_hz == 128.0

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            load_matrix(io.StringIO("1 2 3 4\n1 2 3 4 5\n"), 128.0, ["A", "B"])

    def test_non_numeric(self):
        with pytest.raises(NonNumericCell):
            load_matrix(io.StringIO("1 2 x\n"), 128.0, ["A"])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_write_read_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        rec = make_recording(rng.standard_normal((3, 17)))
        buf = io.StringIO()
        save_matrix(rec, buf)
        buf.seek(0)
        back = load_matrix(buf, rec.sampling_rate_hz, rec.channel_names)
        np.testing.assert_array_equal(back.data, rec.data)


class TestSelectChannels:
    def test_builtin_sizes(self):
        assert len(BCI2000_64) == 64
        assert len(COMMON_56) == 56
        assert len(TEN_TWENTY_21) == 21

    def test_bci2000_policy(self, tmp_path):
        policy = resolve_policy("bci2000_64")
        assert len(policy) == 64 and len(set(policy.names)) == 64
        # EDF header spelling of the BCI2000 montage: "Fc5.", "Cz..", "T10."
        labels = [name.capitalize().ljust(4, ".") for name in policy.names]
        path = tmp_path / "S001R01.edf"
        path.write_bytes(write_edf(labels, np.zeros((64, 160), dtype=np.int16), 160.0))
        entry = ManifestEntry(path=str(path), format="edf", subject_id="S001",
                              dataset_id="pn", condition="resting",
                              window_s=(0.0, 1.0))
        manifest = DatasetManifest(entries=(entry,), target_rate_hz=128.0,
                                   channel_policy="bci2000_64")
        [rec] = build_corpus(manifest)
        assert rec.channel_names == policy.names

    def test_64_to_56(self, rng):
        rec = make_recording(rng.standard_normal((64, 10)), names=BCI2000_64.names)
        sub = select_channels(rec, COMMON_56)
        assert sub.n_channels == 56
        assert sub.channel_names == COMMON_56.names

    def test_identity_on_canonical_order(self, rng):
        names = ("A1", "B2", "C3")
        rec = make_recording(rng.standard_normal((3, 5)), names=names)
        out = select_channels(rec, ChannelSet(names))
        np.testing.assert_array_equal(out.data, rec.data)
        assert out.channel_names == names

    def test_missing_channel(self, rng):
        rec = make_recording(rng.standard_normal((2, 5)), names=("A1", "B2"))
        with pytest.raises(MissingChannel):
            select_channels(rec, ChannelSet(("A1", "XX")))

    def test_idempotent(self, rng):
        rec = make_recording(rng.standard_normal((4, 6)),
                             names=("D4", "A1", "C3", "B2"))
        cs = ChannelSet(("B2", "D4", "A1"))
        once = select_channels(rec, cs)
        twice = select_channels(once, cs)
        np.testing.assert_array_equal(once.data, twice.data)
        assert once.channel_names == twice.channel_names


class TestBuildCorpus:
    def _manifest(self, tmp_path, n_entries=3, duration_s=60.0, fs=160.0,
                  window=(0.0, 60.0)):
        entries = []
        rng = np.random.default_rng(7)
        for i in range(n_entries):
            path = tmp_path / f"s{i}.txt"
            data = rng.standard_normal((2, int(duration_s * fs)))
            with open(path, "w") as fh:
                for row in data:
                    fh.write(" ".join(map(str, row)) + "\n")
            entries.append(ManifestEntry(
                path=str(path), format="matrix", subject_id=f"S{i}",
                dataset_id="d1", condition="resting", window_s=window,
                sampling_rate_hz=fs, channel_names=("C3", "C4"),
            ))
        return DatasetManifest(entries=tuple(entries), target_rate_hz=128.0,
                               channel_policy=["C3", "C4"])

    def test_three_entries_sixty_seconds(self, tmp_path):
        corpus = build_corpus(self._manifest(tmp_path))
        assert len(corpus) == 3
        for rec in corpus:
            assert rec.n_samples == 7680
            assert rec.sampling_rate_hz == 128.0

    def test_empty_manifest(self):
        manifest = DatasetManifest(entries=(), target_rate_hz=128.0,
                                   channel_policy="common_56")
        assert build_corpus(manifest) == []

    def test_window_out_of_range(self, tmp_path):
        manifest = self._manifest(tmp_path, n_entries=1, window=(0.0, 120.0))
        with pytest.raises(WindowOutOfRange):
            build_corpus(manifest)

    def test_manifest_json_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path, n_entries=1)
        doc = {
            "target_rate_hz": 128.0,
            "channel_policy": ["C3", "C4"],
            "entries": [{
                "path": manifest.entries[0].path,
                "format": "matrix",
                "subject_id": "S0",
                "dataset_id": "d1",
                "condition": "resting",
                "window_s": [0, 60],
                "sampling_rate_hz": 160.0,
                "channel_names": ["C3", "C4"],
            }],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        loaded = load_manifest(path)
        assert loaded.target_rate_hz == 128.0
        assert len(loaded.entries) == 1
        corpus = build_corpus(loaded)
        assert corpus[0].sampling_rate_hz == 128.0

    def test_duplicate_entry_rejected(self, tmp_path):
        entry = ManifestEntry(path="x", format="matrix", subject_id="S0",
                              dataset_id="d1", condition="resting",
                              window_s=(0.0, 60.0))
        with pytest.raises(ValueError):
            DatasetManifest(entries=(entry, entry), target_rate_hz=128.0,
                            channel_policy="common_56")


def test_window_recording_basic(rng):
    rec = make_recording(rng.standard_normal((2, 1280)))
    cut = window_recording(rec, 1.0, 3.0)
    assert cut.n_samples == 256
    np.testing.assert_array_equal(cut.data, rec.data[:, 128:384])
