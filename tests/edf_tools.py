"""Scripted EDF writer and decoder, independent of the package parser, and
a writer of the plain matrix format.

Used as the round-trip / calibration oracle: the writer emits spec-layout
EDF bytes directly, the decoder re-reads them with its own arithmetic.
"""

import numpy as np


def _field(value, width):
    text = str(value)
    if len(text) > width:
        raise ValueError(f"field {text!r} wider than {width}")
    return text.ljust(width).encode("ascii")


def write_edf(channel_names, digital, sampling_rate_hz,
              phys_min=-1000.0, phys_max=1000.0,
              dig_min=-32768, dig_max=32767, n_records=None,
              record_duration=1.0):
    """Build EDF bytes from per-channel int16 digital sample arrays.

    `digital` is (n_channels, n_samples) int; samples are split into
    records of record_duration seconds.
    """
    digital = np.asarray(digital, dtype=np.int16)
    n_ch, n_samples = digital.shape
    spr = int(round(sampling_rate_hz * record_duration))
    if n_records is None:
        n_records = n_samples // spr
    assert n_records * spr == n_samples, "samples must fill whole records"

    header = b"".join([
        _field("0", 8),
        _field("patient", 80),
        _field("recording", 80),
        _field("01.01.20", 8),
        _field("00.00.00", 8),
        _field(256 + 256 * n_ch, 8),
        _field("", 44),
        _field(n_records, 8),
        _field(f"{record_duration:g}", 8),
        _field(n_ch, 4),
    ])
    sig = b"".join(_field(name, 16) for name in channel_names)
    sig += b"".join(_field("", 80) for _ in range(n_ch))
    sig += b"".join(_field("uV", 8) for _ in range(n_ch))
    sig += b"".join(_field(f"{phys_min:g}", 8) for _ in range(n_ch))
    sig += b"".join(_field(f"{phys_max:g}", 8) for _ in range(n_ch))
    sig += b"".join(_field(dig_min, 8) for _ in range(n_ch))
    sig += b"".join(_field(dig_max, 8) for _ in range(n_ch))
    sig += b"".join(_field("", 80) for _ in range(n_ch))
    sig += b"".join(_field(spr, 8) for _ in range(n_ch))
    sig += b"".join(_field("", 32) for _ in range(n_ch))

    body = bytearray()
    for r in range(n_records):
        for ch in range(n_ch):
            body += digital[ch, r * spr:(r + 1) * spr].astype("<i2").tobytes()
    return header + sig + bytes(body)


def decode_calibrated(digital, phys_min, phys_max, dig_min, dig_max):
    """Independent linear-calibration arithmetic for expected physical values."""
    digital = np.asarray(digital, dtype=float)
    return (digital - dig_min) / (dig_max - dig_min) * (phys_max - phys_min) + phys_min


def save_matrix(data, fh):
    """Write a (channels, samples) array in the plain matrix format that
    load_matrix reads."""
    for row in data:
        fh.write(" ".join(repr(float(v)) for v in row))
        fh.write("\n")
