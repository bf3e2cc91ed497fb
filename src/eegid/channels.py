"""Built-in channel sets and label normalization.

Labels are normalized to upper case with trailing periods and whitespace
stripped, so that e.g. the "Fc5." spelling found in BCI2000 EDF headers
matches the Waveguard "FC5" spelling.

The 56- and 21-channel sets are best-effort reconstructions: the counts come
from the experimental protocol, but the exact label lists were never
published.  COMMON_56 is the intersection of the BCI2000 (10-10) montage and
the 64-electrode Waveguard montage, with the four midline electrodes FPZ,
FCZ, CPZ and POZ dropped to reach 56.  TEN_TWENTY_21 is the classical 10-20
montage extended with FPZ and OZ (both available on all caps considered).
An explicit label list in the manifest overrides any built-in.
"""

from __future__ import annotations

from dataclasses import dataclass


def normalize_label(label: str) -> str:
    return label.strip().rstrip(".").strip().upper()


@dataclass(frozen=True)
class ChannelSet:
    """An ordered, duplicate-free collection of channel labels.

    Order is canonical (lexicographic) so feature indices are stable across
    recordings from heterogeneous caps.
    """

    names: tuple

    def __post_init__(self):
        normalized = tuple(sorted({normalize_label(n) for n in self.names}))
        if len(normalized) != len(self.names):
            raise ValueError("duplicate channel labels in channel set")
        object.__setattr__(self, "names", normalized)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)


# 64-electrode BCI2000 montage (PhysioNet Motor Movement/Imagery files).
BCI2000_64 = ChannelSet((
    "FC5", "FC3", "FC1", "FCZ", "FC2", "FC4", "FC6",
    "C5", "C3", "C1", "CZ", "C2", "C4", "C6",
    "CP5", "CP3", "CP1", "CPZ", "CP2", "CP4", "CP6",
    "FP1", "FPZ", "FP2",
    "AF7", "AF3", "AFZ", "AF4", "AF8",
    "F7", "F5", "F3", "F1", "FZ", "F2", "F4", "F6", "F8",
    "FT7", "FT8", "T7", "T8", "T9", "T10", "TP7", "TP8",
    "P7", "P5", "P3", "P1", "PZ", "P2", "P4", "P6", "P8",
    "PO7", "PO3", "POZ", "PO4", "PO8",
    "O1", "OZ", "O2", "IZ",
))

COMMON_56 = ChannelSet((
    "FC5", "FC3", "FC1", "FC2", "FC4", "FC6",
    "C5", "C3", "C1", "CZ", "C2", "C4", "C6",
    "CP5", "CP3", "CP1", "CP2", "CP4", "CP6",
    "FP1", "FP2",
    "AF7", "AF3", "AF4", "AF8",
    "F7", "F5", "F3", "F1", "FZ", "F2", "F4", "F6", "F8",
    "FT7", "FT8", "T7", "T8", "TP7", "TP8",
    "P7", "P5", "P3", "P1", "PZ", "P2", "P4", "P6", "P8",
    "PO7", "PO3", "PO4", "PO8",
    "O1", "OZ", "O2",
))

TEN_TWENTY_21 = ChannelSet((
    "FP1", "FPZ", "FP2",
    "F7", "F3", "FZ", "F4", "F8",
    "T7", "C3", "CZ", "C4", "T8",
    "P7", "P3", "PZ", "P4", "P8",
    "O1", "OZ", "O2",
))

POLICY_SETS = {
    "bci2000_64": BCI2000_64,
    "common_56": COMMON_56,
    "ten_twenty_21": TEN_TWENTY_21,
}


def resolve_policy(policy) -> ChannelSet:
    """Map a manifest channel policy to a ChannelSet.

    `policy` is either one of the named built-ins or an explicit label list.
    """
    if isinstance(policy, str):
        try:
            return POLICY_SETS[policy]
        except KeyError:
            raise ValueError(
                f"unknown channel policy {policy!r}; expected one of "
                f"{sorted(POLICY_SETS)} or an explicit label list"
            ) from None
    return ChannelSet(tuple(policy))
