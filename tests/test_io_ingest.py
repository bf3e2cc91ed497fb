import ast
import io
import json
from pathlib import Path

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
    EegIdError,
    MalformedHeader,
    MissingChannel,
    MixedSamplingRates,
    NonNumericCell,
    RaggedRows,
    TruncatedRecord,
    WindowOutOfRange,
)
from eegid.io_ingest import (
    _channel_rows,
    _window_columns,
    build_corpus,
    load_manifest,
    load_matrix,
    parse_edf,
    read_edf_header,
)

from edf_tools import decode_calibrated, save_matrix, write_edf


# two signals, two 1 s records at 10 Hz; 256 + 2 x 256 header bytes
_FUZZ_EDF = write_edf(["C3", "C4"], np.arange(40, dtype=np.int16).reshape(2, 20), 10.0)
_FUZZ_FIELD_STARTS = (
    [0, 8, 88, 168, 176, 184, 192, 236, 244, 252]
    + list(256 + 2 * np.cumsum([0, 16, 80, 8, 8, 8, 8, 8, 80, 8])[:-1])
)
_FUZZ_TOKENS = [b"inf", b"-inf", b"nan", b"-1", b"0", b"1e308", b"1e-300",
                b"0.5", b"2.5", b"99999999", b"        ", b"\xff", b"EDF Annotations"]
_MATRIX_TOKENS = ["0", "-1", "2.5", "1e308", "1e999", "nan", "inf", "-inf", "Infinity",
                  ",", " ", ", ", "\t", "\n", ""]


class TestParseEdf:
    def test_midpoint_calibration(self):
        # digital 0 on [-32768, 32767] -> [-1, 1] maps to 1/65535
        digital = np.zeros((1, 10), dtype=np.int16)
        raw = write_edf(["C3"], digital, 10.0, phys_min=-1.0, phys_max=1.0)
        data, _, _ = parse_edf(raw)
        expected = decode_calibrated(0, -1.0, 1.0, -32768, 32767)
        assert expected == pytest.approx(1.5259e-5, rel=1e-4)
        assert data.shape == (1, 10)
        np.testing.assert_allclose(data, expected, rtol=0, atol=1e-15)

    def test_empty_stream_is_malformed(self):
        with pytest.raises(MalformedHeader):
            parse_edf(b"")

    def test_label_normalization_and_rate(self):
        digital = np.zeros((2, 20), dtype=np.int16)
        raw = write_edf(["Fc5.", "Cz.."], digital, 10.0, record_duration=2.0)
        _, rate, names = parse_edf(raw)
        assert names == ("FC5", "CZ")
        assert rate == 10.0

    def test_annotation_channel_dropped(self):
        raw = write_edf(["C3", "EDF Annotations"],
                        np.zeros((2, 10), dtype=np.int16), 10.0)
        data, _, names = parse_edf(raw)
        assert names == ("C3",)
        assert data.shape == (1, 10)

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
        data, _, _ = parse_edf(raw)
        expected = decode_calibrated(digital, -200.0, 200.0, -32768, 32767)
        step = 400.0 / 65535
        assert np.max(np.abs(data - expected)) <= step

    @pytest.mark.parametrize("offset, width, text", [
        (184, 8, "inf"),    # header length
        (236, 8, "inf"),    # record count
        (252, 4, "inf"),    # signal count
        (244, 8, "nan"),    # record duration
        (244, 8, "inf"),
        (184, 8, "768.5"),
        (236, 8, "1.5"),
        (252, 4, "2.5"),
        (688, 8, "inf"),    # first signal's samples per record
        (688, 8, "10.5"),
        (464, 8, "nan"),    # first signal's physical minimum
        (512, 8, "inf"),    # first signal's digital maximum
    ])
    def test_non_finite_or_fractional_field(self, offset, width, text):
        raw = bytearray(_FUZZ_EDF)
        raw[offset:offset + width] = text.ljust(width).encode("ascii")
        with pytest.raises(MalformedHeader):
            parse_edf(bytes(raw))

    @pytest.mark.parametrize("edits, error", [
        ([(236, 8, "0")], TruncatedRecord),  # no data records
        # the second signal becomes an annotation signal with a negative
        # sample count, and the record count is left to inference
        ([(272, 16, "EDF Annotations"), (696, 8, "-10"), (236, 8, "-1")],
         MalformedHeader),
        ([(464, 8, "-1e308"), (480, 8, "1e308")], MalformedHeader),  # overflow
    ])
    def test_header_without_usable_data(self, edits, error):
        raw = bytearray(_FUZZ_EDF)
        for offset, width, text in edits:
            raw[offset:offset + width] = text.ljust(width).encode("ascii")
        with pytest.raises(error):
            parse_edf(bytes(raw))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_FUZZ_FIELD_STARTS), st.sampled_from(_FUZZ_TOKENS)),
            st.tuples(st.integers(0, 767), st.binary(min_size=1, max_size=8)),
        ),
        min_size=1, max_size=4,
    ))
    def test_header_fuzz_raises_only_pipeline_errors(self, edits):
        raw = bytearray(_FUZZ_EDF)
        for offset, patch in edits:
            raw[offset:offset + len(patch)] = patch
        raw = bytes(raw)
        try:
            header = read_edf_header(io.BytesIO(raw), len(raw))
        except EegIdError as exc:
            # both entry points raise the same error
            with pytest.raises(type(exc)) as parsed:
                parse_edf(raw)
            assert str(parsed.value) == str(exc)
            return
        try:
            data, rate, names = parse_edf(raw)
        except EegIdError as exc:
            # past a good header only the calibrated samples can fail
            assert isinstance(exc, MalformedHeader) and "calibration" in str(exc)
            return
        assert data.dtype == np.float64 and np.isfinite(data).all()
        assert names == header["labels"]
        assert rate == header["rate"]
        assert data.shape == (len(names), header["samples"])

    def test_header_infers_record_count_from_size(self):
        raw = bytearray(_FUZZ_EDF)
        raw[236:244] = b"-1      "
        header = read_edf_header(io.BytesIO(bytes(raw)), len(raw))
        assert header["samples"] == parse_edf(bytes(raw))[0].shape[1] == 20
        # only the header is read: the record count comes from the length
        # given, here one 40-byte record longer than these bytes
        longer = read_edf_header(io.BytesIO(bytes(raw)), len(raw) + 40)
        assert longer["samples"] == 30
        raw[236:244] = b"3       "
        with pytest.raises(TruncatedRecord):
            read_edf_header(io.BytesIO(bytes(raw)), len(raw))


class TestLoadMatrix:
    def test_zeros(self):
        data, rate, names = load_matrix(io.StringIO("0 0 0 0\n0,0,0,0\n"), 128.0, ["a", "B."])
        assert data.shape == (2, 4)
        assert rate == 128.0
        assert names == ("A", "B")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            load_matrix(io.StringIO("1 2 3 4\n1 2 3 4 5\n"), 128.0, ["A", "B"])

    def test_non_numeric(self):
        with pytest.raises(NonNumericCell):
            load_matrix(io.StringIO("1 2 x\n"), 128.0, ["A"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line(self, cell):
        with pytest.raises(NonNumericCell, match=f"line 3: non-finite value '{cell}'"):
            load_matrix(io.StringIO(f"1 2 3\n\n4,{cell},6\n"), 128.0, ["A", "B"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.one_of(st.sampled_from(_MATRIX_TOKENS),
                           st.floats().map(repr),
                           st.binary(max_size=6).map(lambda b: b.decode("latin-1"))),
                 max_size=6).map("".join),
        max_size=4,
    ))
    def test_fuzz_raises_only_pipeline_errors(self, lines):
        names = [f"CH{i}" for i in range(len(lines))]
        try:
            data, _, _ = load_matrix(lines, 128.0, names)
        except EegIdError:
            return
        assert np.isfinite(data).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_write_read_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 17))
        buf = io.StringIO()
        save_matrix(data, buf)
        buf.seek(0)
        back, _, _ = load_matrix(buf, 128.0, ["C3", "C4", "CZ"])
        np.testing.assert_array_equal(back, data)


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
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "target_rate_hz": 128.0, "channel_policy": "bci2000_64",
            "entries": [{"path": path.name, "format": "edf", "subject_id": "S001",
                         "dataset_id": "pn", "window_s": [0.0, 1.0]}]}))
        layout, recordings = build_corpus(load_manifest(manifest))
        [data] = list(recordings)
        assert tuple(layout["channels"].tolist()) == policy.names
        assert data.shape == (64, 128)

    def test_64_to_56(self):
        rows = _channel_rows(BCI2000_64.names, COMMON_56)
        assert len(rows) == 56
        assert tuple(BCI2000_64.names[row] for row in rows) == COMMON_56.names

    def test_identity_on_canonical_order(self):
        names = ("A1", "B2", "C3")
        assert _channel_rows(names, ChannelSet(names)) == [0, 1, 2]

    def test_missing_channel(self):
        with pytest.raises(MissingChannel):
            _channel_rows(("A1", "B2"), ChannelSet(("A1", "XX")))

    def test_idempotent(self):
        names = ("D4", "A1", "C3", "B2")
        cs = ChannelSet(("B2", "D4", "A1"))
        once = [names[row] for row in _channel_rows(names, cs)]
        assert once == list(cs)
        assert _channel_rows(once, cs) == [0, 1, 2]


class TestBuildCorpus:
    def _manifest(self, tmp_path, n_entries=3, duration_s=60.0, fs=160.0,
                  window=(0.0, 60.0)):
        """The loaded manifest of n_entries two-channel matrix files."""
        entries = []
        rng = np.random.default_rng(7)
        for i in range(n_entries):
            path = tmp_path / f"s{i}.txt"
            data = rng.standard_normal((2, int(duration_s * fs)))
            with open(path, "w") as fh:
                for row in data:
                    fh.write(" ".join(map(str, row)) + "\n")
            entries.append({"path": path.name, "format": "matrix", "subject_id": f"S{i}",
                            "dataset_id": "d1", "condition": "resting",
                            "window_s": list(window), "sampling_rate_hz": fs,
                            "channel_names": ["C3", "C4"]})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"target_rate_hz": 128.0, "channel_policy": ["C3", "C4"],
                                    "entries": entries}))
        return load_manifest(path)

    def test_three_entries_sixty_seconds(self, tmp_path):
        layout, recordings = build_corpus(self._manifest(tmp_path))
        corpus = list(recordings)
        assert len(corpus) == 3
        for data in corpus:
            assert data.shape[1] == 7680
        assert layout["ends"].tolist() == [7680, 2 * 7680, 3 * 7680]
        assert layout["rate"] == 128.0

    def test_empty_manifest(self):
        manifest = {"target_rate_hz": 128.0, "channel_policy": "common_56", "entries": []}
        layout, recordings = build_corpus(manifest)
        assert list(recordings) == []
        assert layout["ends"].size == layout["provenance"].size == 0

    def test_window_out_of_range(self, tmp_path):
        manifest = self._manifest(tmp_path, n_entries=1, window=(0.0, 120.0))
        with pytest.raises(WindowOutOfRange):
            build_corpus(manifest)

    def test_window_of_the_selected_channels(self, tmp_path):
        # the manifest lists the channels in another order than the policy,
        # and the window starts past the first sample
        data = np.random.default_rng(3).standard_normal((3, 640))
        with open(tmp_path / "m.txt", "w", encoding="utf-8") as fh:
            save_matrix(data, fh)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "target_rate_hz": 128.0, "channel_policy": ["C3", "C4"],
            "entries": [{"path": "m.txt", "format": "matrix", "subject_id": "S0",
                         "dataset_id": "d1", "window_s": [1, 3], "sampling_rate_hz": 128,
                         "channel_names": ["c4", "T7", "C3."]}]}))
        layout, recordings = build_corpus(load_manifest(manifest))
        [got] = list(recordings)
        assert layout["ends"].tolist() == [256]
        np.testing.assert_array_equal(got, data[[2, 0], 128:384])

    def test_manifest_json_roundtrip(self, tmp_path):
        first = self._manifest(tmp_path, n_entries=1)["entries"][0]["path"]
        doc = {
            "target_rate_hz": 128,
            "entries": [{
                "path": first,
                "format": "matrix",
                "subject_id": 7,
                "dataset_id": "d1",
                "window_s": [0, 60],
                "sampling_rate_hz": 160,
                "channel_names": ["C3", "C4"],
            }],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        loaded = load_manifest(path)
        # defaults filled in, ids as text, rates as floats, the window as parsed
        assert loaded == {
            "target_rate_hz": 128.0, "channel_policy": "common_56",
            "entries": [{**doc["entries"][0], "subject_id": "7", "condition": "resting",
                         "sampling_rate_hz": 160.0}],
        }
        entry = loaded["entries"][0]
        assert type(loaded["target_rate_hz"]) is type(entry["sampling_rate_hz"]) is float
        assert type(entry["window_s"][1]) is int
        loaded["channel_policy"] = ["C3", "C4"]
        layout, recordings = build_corpus(loaded)
        assert layout["rate"] == 128.0
        assert layout["provenance"].tolist() == [["d1", "7", "resting"]]
        assert [data.shape for data in recordings] == [(2, 7680)]

    def test_duplicate_entry_rejected(self, tmp_path):
        self._manifest(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        # entry 2 repeats entry 0's dataset, subject and (default) condition
        doc["entries"][2].update(subject_id="S0")
        del doc["entries"][2]["condition"]
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest entries 0 and 2 are both dataset "
                                             "'d1' subject 'S0' in condition 'resting'"):
            load_manifest(path)


def test_window_recording_basic():
    assert _window_columns(1.0, 3.0, 128.0, 1280) == (128, 384)


@pytest.mark.parametrize("window", [(0.0, 1e308), (1e307, 1e308), (0.0, float("inf"))])
def test_window_far_past_the_end_is_out_of_range(window):
    # the sample index of such an end overflows int()
    with pytest.raises(WindowOutOfRange):
        _window_columns(*window, 128.0, 1280)


def test_no_module_names_a_record_type():
    """Ingest hands over arrays and the checked manifest document: no
    package module names EegRecording, ManifestEntry or DatasetManifest, as
    a class, an import, a name or an attribute."""
    package = Path(__file__).resolve().parents[1] / "src" / "eegid"
    naming = []
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.alias, ast.ClassDef)):
                names.add(node.name.rsplit(".", 1)[-1])
        naming += sorted(names & {"EegRecording", "ManifestEntry", "DatasetManifest"})
    assert naming == []
