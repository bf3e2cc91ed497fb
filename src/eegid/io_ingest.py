"""EEG file ingestion: EDF and plain-matrix parsing, manifests, corpora.

A manifest is a checked JSON document (`load_manifest`); the parsers return
(data, rate_hz, channel_names), data a (channels, samples) float array; and
`build_corpus` hands over arrays, one recording at a time.

Only continuous EDF is supported (no EDF+D); "EDF Annotations" signals are
silently dropped.  All remaining signals must share one sampling rate.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dsp
from .channels import ChannelSet, normalize_label, resolve_policy
from .errors import (
    EegIdError,
    MalformedHeader,
    MissingChannel,
    MixedSamplingRates,
    NonNumericCell,
    RaggedRows,
    TruncatedRecord,
    WindowOutOfRange,
)

CONDITIONS = ("resting", "task")


def is_finite_number(value):
    """A finite JSON number that fits a float: not a bool, NaN, an infinity
    or an integer too large for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_id(value):
    """An id whose text can sit in a feature-CSV cell: no comma or line break."""
    return not {",", "\n", "\r"} & set(str(value))


# each manifest entry key's check and what it asks for
_ENTRY_TYPES = {
    "path": (lambda v: isinstance(v, str), "a path string"),
    "format": (lambda v: v in ("edf", "matrix"), "'edf' or 'matrix'"),
    "subject_id": (_is_id, "text without ',' or a line break"),
    "dataset_id": (_is_id, "text without ',' or a line break"),
    "condition": (lambda v: v in CONDITIONS, " or ".join(map(repr, CONDITIONS))),
    "window_s": (lambda v: isinstance(v, list) and len(v) == 2
                 and all(map(is_finite_number, v)) and 0 <= v[0] < v[1],
                 "[start, end] in seconds with 0 <= start < end"),
    "sampling_rate_hz": (is_finite_number, "a finite number"),
    "channel_names": (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                      "a list of channel labels"),
}
_REQUIRED_ENTRY_KEYS = ("path", "format", "subject_id", "dataset_id", "window_s")


def _manifest_problem(doc):
    """What makes a loaded manifest document the wrong shape, or None."""
    if not isinstance(doc, dict):
        return f"manifest must be a JSON object, not {type(doc).__name__}"
    if not isinstance(doc.get("entries"), list) or not doc["entries"]:
        return f"manifest key 'entries' must be a non-empty list, not {doc.get('entries')!r}"
    rate = doc.get("target_rate_hz")
    if not is_finite_number(rate) or not rate > 0:
        return f"manifest key 'target_rate_hz' must be a positive finite number, not {rate!r}"
    policy = doc.get("channel_policy", "common_56")
    if not (isinstance(policy, str) or isinstance(policy, list) and policy
            and all(isinstance(name, str) for name in policy)):
        return (f"manifest key 'channel_policy' must be a name or a non-empty list of "
                f"channel labels, not {policy!r}")
    owners = {}  # class label -> (entry index, (dataset, subject))
    first = {}  # (dataset, subject, condition) -> entry index
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            return f"manifest entry {i} must be an object, not {raw!r}"
        for key in _REQUIRED_ENTRY_KEYS:
            if key not in raw:
                return f"manifest entry {i} has no {key!r}"
        for key, (ok, kind) in _ENTRY_TYPES.items():
            if key in raw and not ok(raw[key]):
                return f"manifest entry {i} key {key!r} must be {kind}, not {raw[key]!r}"
        if raw["format"] == "matrix":
            names = [normalize_label(name) for name in raw.get("channel_names", ())]
            if not raw.get("sampling_rate_hz", 0.0) > 0 or not names:
                return (f"manifest entry {i} has format 'matrix', which needs a positive "
                        f"'sampling_rate_hz' and a non-empty 'channel_names'")
            if len(set(names)) < len(names):
                return (f"manifest entry {i} key 'channel_names' repeats a channel after "
                        f"normalization: {raw['channel_names']!r}")
        # evaluation.band_epochs joins the two with "/" into the class label,
        # so ("d", "a/b") and ("d/a", "b") would make two subjects one class
        who = (str(raw["dataset_id"]), str(raw["subject_id"]))
        label = "/".join(who)
        j, owner = owners.setdefault(label, (i, who))
        if owner != who:
            return (f"manifest entries {j} and {i} give two subjects the class label "
                    f"{label!r}: dataset {owner[0]!r} subject {owner[1]!r}, and dataset "
                    f"{who[0]!r} subject {who[1]!r}")
        condition = raw.get("condition", "resting")
        j = first.setdefault((*who, condition), i)
        if j != i:
            return (f"manifest entries {j} and {i} are both dataset {who[0]!r} subject "
                    f"{who[1]!r} in condition {condition!r}")
    return None


def load_json(path):
    """The JSON document in the file at `path`.  A file that is not JSON
    raises ValueError whose message starts with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a syntax error, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from exc


def load_manifest(path) -> dict:
    """Read a JSON manifest file (schema documented in the README).  A
    document of the wrong shape raises ValueError naming the entry and key.

    Returns the document with `channel_policy` and each entry's `condition`
    defaulted, entry paths resolved against the manifest's directory, ids as
    text and rates as floats; `window_s` and `channel_names` stay as parsed.
    """
    doc = load_json(path)
    if problem := _manifest_problem(doc):
        raise ValueError(problem)
    base = Path(path).parent
    doc.setdefault("channel_policy", "common_56")
    doc["target_rate_hz"] = float(doc["target_rate_hz"])
    for entry in doc["entries"]:
        # an absolute entry path replaces the base
        entry.update(path=str(base / entry["path"]), subject_id=str(entry["subject_id"]),
                     dataset_id=str(entry["dataset_id"]),
                     condition=entry.get("condition", "resting"),
                     sampling_rate_hz=float(entry.get("sampling_rate_hz", 0.0)))
    return doc


# --- EDF parsing -----------------------------------------------------------

_EDF_HEADER_LEN = 256
_EDF_SIGNAL_HEADER_LEN = 256
_ANNOTATION_LABEL = "EDF ANNOTATIONS"


def _ascii_field(buf: bytes, start: int, length: int) -> str:
    raw = buf[start:start + length]
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"non-ASCII bytes in header field at offset {start}") from exc


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedHeader(f"non-numeric {what}: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedHeader(f"non-finite {what}: {text!r}")
    return value


def _integer(text: str, what: str) -> int:
    value = _number(text, what)
    if value != int(value):
        raise MalformedHeader(f"non-integral {what}: {text!r}")
    return int(value)


def read_edf_header(stream, size) -> dict:
    """Decode the fixed-size header of a continuous EDF file of `size` bytes
    from the binary `stream`, read from the file's start.

    Returns a dict: `labels`, the normalized labels of the signals kept
    (annotation signals are dropped); `rate`; `samples`, each kept signal's
    sample count (a record count of -1 is inferred from `size`); and the
    layout `parse_edf` decodes the body with.  Raises MalformedHeader,
    MixedSamplingRates or TruncatedRecord on bad input, including numeric
    fields that are not finite, integer fields that are not integral, and a
    header that leaves no complete data record.
    """
    head = stream.read(_EDF_HEADER_LEN)
    if len(head) < _EDF_HEADER_LEN:
        raise MalformedHeader("input shorter than the 256-byte EDF header")
    version = _ascii_field(head, 0, 8)
    if version != "0":
        raise MalformedHeader(f"unsupported EDF version field {version!r}")
    header_bytes = _integer(_ascii_field(head, 184, 8), "header length field")
    n_records = _integer(_ascii_field(head, 236, 8), "record count field")
    record_duration = _number(_ascii_field(head, 244, 8), "record duration field")
    n_signals = _integer(_ascii_field(head, 252, 4), "signal count field")
    if n_signals < 1:
        raise MalformedHeader("EDF declares no signals")
    expected_header = _EDF_HEADER_LEN + n_signals * _EDF_SIGNAL_HEADER_LEN
    if header_bytes != expected_header:
        raise MalformedHeader(
            f"header length field {header_bytes} != 256 + 256 x {n_signals} signals"
        )
    if size < expected_header:
        raise MalformedHeader("input truncated inside the signal headers")
    if record_duration <= 0:
        raise MalformedHeader(f"non-positive data record duration {record_duration}")

    sig = stream.read(expected_header - _EDF_HEADER_LEN)

    def sig_numeric(width, offset, what, parse=_number):
        # offset is the byte offset of the field block within the
        # transposed signal-header area
        out = []
        for i in range(n_signals):
            start = offset + i * width
            text = sig[start:start + width].decode("ascii", errors="replace").strip()
            out.append(parse(text, f"{what} for a signal"))
        return out

    # signal header layout: label(16) transducer(80) dim(8) phys_min(8)
    # phys_max(8) dig_min(8) dig_max(8) prefilter(80) samples_per_record(8)
    off = 0
    labels = []
    for i in range(n_signals):
        labels.append(sig[off + i * 16: off + (i + 1) * 16].decode("ascii", errors="replace").strip())
    off += 16 * n_signals + 80 * n_signals + 8 * n_signals
    phys_min = sig_numeric(8, off, "physical minimum"); off += 8 * n_signals
    phys_max = sig_numeric(8, off, "physical maximum"); off += 8 * n_signals
    dig_min = sig_numeric(8, off, "digital minimum"); off += 8 * n_signals
    dig_max = sig_numeric(8, off, "digital maximum"); off += 8 * n_signals
    off += 80 * n_signals
    samples_per_record = sig_numeric(8, off, "samples per record", _integer)

    for i in range(n_signals):
        if samples_per_record[i] < 1:
            raise MalformedHeader(f"signal {labels[i]!r} declares no samples per record")
    keep = [i for i, lab in enumerate(labels)
            if normalize_label(lab) != _ANNOTATION_LABEL]
    if not keep:
        raise MalformedHeader("EDF contains only annotation signals")
    for i in keep:
        if dig_max[i] <= dig_min[i]:
            raise MalformedHeader(f"signal {labels[i]!r} has a degenerate digital range")

    rates = {samples_per_record[i] / record_duration for i in keep}
    if len(rates) > 1:
        raise MixedSamplingRates(f"signals declare multiple sampling rates: {sorted(rates)}")
    rate = rates.pop()

    record_samples = sum(samples_per_record)
    record_bytes = 2 * record_samples
    body_bytes = size - expected_header
    if n_records < 0:
        # unknown record count: infer from the payload size
        n_records = body_bytes // record_bytes
    if body_bytes < n_records * record_bytes:
        raise TruncatedRecord(
            f"expected {n_records} records of {record_bytes} bytes, got {body_bytes} bytes"
        )
    if n_records == 0:
        raise TruncatedRecord(f"no complete data record of {record_bytes} bytes")
    names = [normalize_label(labels[i]) for i in keep]
    if len(set(names)) != len(names):
        raise MalformedHeader("duplicate channel labels after normalization")
    starts = np.cumsum([0] + samples_per_record)
    return {
        "labels": tuple(names),
        "rate": rate,
        "samples": n_records * samples_per_record[keep[0]],
        "offset": expected_header,
        "records": (n_records, record_samples),
        # per kept signal: its columns of a record and its calibration
        "columns": [(starts[i], starts[i + 1]) for i in keep],
        "calibration": [((phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i]),
                         dig_min[i], phys_min[i]) for i in keep],
    }


def parse_edf(raw: bytes) -> tuple:
    """Decode a continuous EDF byte stream into (data, rate_hz, channel_names):
    a (channels, samples) float array whose rows follow the normalized labels.

    The header is `read_edf_header`'s.  Samples are 16-bit little-endian
    two's complement, mapped to physical units with the per-signal
    digital/physical min/max linear calibration.  Annotation signals are
    dropped.  Raises what `read_edf_header` raises, and MalformedHeader when
    the calibration maps a sample outside the floating-point range.
    """
    header = read_edf_header(io.BytesIO(raw), len(raw))
    n_records, record_samples = header["records"]
    flat = np.frombuffer(raw, dtype="<i2", count=n_records * record_samples,
                         offset=header["offset"]).reshape(n_records, record_samples)
    # filled row by row, so that one channel at a time is a temporary
    data = np.empty((len(header["labels"]), header["samples"]))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (start, stop), (gain, dig_min, phys_min) in zip(
                data, header["columns"], header["calibration"]):
            row[:] = (flat[:, start:stop].reshape(-1).astype(float) - dig_min) * gain + phys_min
    if not np.isfinite(data).all():
        raise MalformedHeader("calibration maps samples outside the floating-point range")
    return data, header["rate"], header["labels"]


# --- plain matrix format ---------------------------------------------------

def _cells(line):
    """The cells of one matrix line: commas and whitespace both delimit."""
    return line.replace(",", " ").split()


def load_matrix(stream, sampling_rate_hz, channel_names) -> tuple:
    """Read a delimiter-separated numeric matrix, one channel per line, into
    (data, rate_hz, channel_names), the names normalized.

    `stream` is an iterable of text lines (an open file works).  Commas and
    whitespace both act as delimiters.  A cell that is not a finite number
    raises NonNumericCell.
    """
    rows = []
    width = None
    for lineno, line in enumerate(stream, start=1):
        parts = _cells(line)
        if not parts:
            continue
        values = []
        for cell in parts:
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCell(f"line {lineno}: cannot parse {cell!r}") from None
            if not math.isfinite(values[-1]):
                raise NonNumericCell(f"line {lineno}: non-finite value {cell!r}")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise RaggedRows(f"line {lineno} has {len(values)} cells, expected {width}")
        rows.append(values)
    if not rows:
        raise RaggedRows("matrix stream contains no data rows")
    names = tuple(normalize_label(n) for n in channel_names)
    if len(names) != len(rows):
        raise RaggedRows(f"{len(names)} channel names for {len(rows)} data rows")
    return np.array(rows, dtype=float), sampling_rate_hz, names


# --- channel selection and corpus assembly ---------------------------------

def _channel_rows(channel_names, channel_set: ChannelSet) -> list:
    """The row of each channel of a channel set, in its canonical order."""
    index = {name: i for i, name in enumerate(channel_names)}
    for name in channel_set:
        if name not in index:
            raise MissingChannel(name)
    return [index[name] for name in channel_set]


def _window_columns(start_s, end_s, rate_hz, n_samples) -> tuple:
    """The columns [i0, i1) of the window [start_s, end_s) s of n_samples at rate_hz."""
    start, end = start_s * rate_hz, end_s * rate_hz
    # a loose bound first: int() overflows on a huge or infinite sample
    # position, such as the end of a 1e308 s window
    inside = -1 <= start < end <= n_samples + 1
    if inside:
        i0, i1 = int(round(start)), int(round(end))
        inside = 0 <= i0 < i1 <= n_samples
    if not inside:
        raise WindowOutOfRange(
            f"window [{start_s}, {end_s}] s outside recording of {n_samples / rate_hz:.3f} s"
        )
    return i0, i1


@contextmanager
def _naming(entry):
    """Prefix the message of a pipeline error raised inside with the entry's path."""
    try:
        yield
    except EegIdError as exc:
        exc.args = (f"{entry['path']}: {exc}",)
        raise


def _entry_header(entry) -> tuple:
    """(channel names, rate, samples) of a manifest entry, decoding no
    samples: an EDF entry's from its header, a matrix entry's names and rate
    from the manifest and its sample count from the cells of its first data
    row."""
    if entry["format"] == "edf":
        with open(entry["path"], "rb") as fh:
            header = read_edf_header(fh, os.fstat(fh.fileno()).st_size)
        return header["labels"], header["rate"], header["samples"]
    names = tuple(normalize_label(name) for name in entry["channel_names"])
    with open(entry["path"], "r", encoding="utf-8") as fh:
        for line in fh:
            if parts := _cells(line):
                return names, entry["sampling_rate_hz"], len(parts)
    raise RaggedRows("matrix stream contains no data rows")


def corpus_layout(manifest) -> dict:
    """What `build_corpus` will hand over for a `load_manifest` document,
    sized from headers alone.

    Returns a dict: `channels`, the channel set's names; `ends`, the column
    at which each entry ends once the entries sit side by side at the target
    rate; `provenance`, an (R, 3) array of dataset id, subject id and
    condition; and `rate`, 0-d.  A missing channel, a window outside its
    recording or a rate that cannot be resampled to the target raises here,
    naming the entry's path, before any entry is decoded.
    """
    channel_set = resolve_policy(manifest["channel_policy"])
    entries, target = manifest["entries"], manifest["target_rate_hz"]
    lengths = []
    for entry in entries:
        with _naming(entry):
            names, rate, samples = _entry_header(entry)
            _channel_rows(names, channel_set)
            i0, i1 = _window_columns(*entry["window_s"], rate, samples)
            lengths.append(dsp.resampled_length(i1 - i0, rate, target))
    return {
        "channels": np.array(channel_set.names),
        "ends": np.cumsum(lengths, dtype=np.int64),
        "provenance": np.array([(entry["dataset_id"], entry["subject_id"], entry["condition"])
                                for entry in entries]),
        "rate": np.array(target),
    }


def _entry_samples(entry, channel_set, target_rate_hz) -> np.ndarray:
    """One entry decoded, windowed, channel-selected and resampled."""
    with _naming(entry):
        if entry["format"] == "edf":
            data, rate, names = parse_edf(Path(entry["path"]).read_bytes())
        else:
            with open(entry["path"], "r", encoding="utf-8") as fh:
                data, rate, names = load_matrix(fh, entry["sampling_rate_hz"],
                                                entry["channel_names"])
        i0, i1 = _window_columns(*entry["window_s"], rate, data.shape[1])
        # one copy of the window's rows of the channel set; rebinding `data`
        # releases the decoded recording
        data = data[_channel_rows(names, channel_set), i0:i1]
        return dsp.resample(data, rate, target_rate_hz)


def build_corpus(manifest) -> tuple:
    """(layout, recordings): the `corpus_layout` of a `load_manifest`
    document, and an iterator that loads, windows, channel-selects and
    resamples one entry at a time, in manifest order, when it is reached.

    Each recording is a (channels, samples) array at the manifest target
    rate whose sample count the layout gives.  Each dataset's recordings
    are resampled independently to that rate, mirroring the pooling
    protocol for heterogeneous sources.
    """
    channel_set = resolve_policy(manifest["channel_policy"])
    layout = corpus_layout(manifest)
    return layout, (_entry_samples(entry, channel_set, manifest["target_rate_hz"])
                    for entry in manifest["entries"])
