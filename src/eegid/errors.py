"""Exception hierarchy shared across the pipeline."""


class EegIdError(Exception):
    """Base class for all pipeline errors."""


# --- ingestion ---

class MalformedHeader(EegIdError):
    pass


class MixedSamplingRates(EegIdError):
    pass


class TruncatedRecord(EegIdError):
    pass


class RaggedRows(EegIdError):
    pass


class NonNumericCell(EegIdError):
    pass


class MissingChannel(EegIdError):
    def __init__(self, name):
        super().__init__(f"channel not present in recording: {name!r}")
        self.name = name


class WindowOutOfRange(EegIdError):
    pass


# --- dsp ---

class IrrationalRatio(EegIdError):
    pass


class FrequencyOutOfRange(EegIdError):
    pass


class UnstableDesign(EegIdError):
    pass


class InvalidBand(EegIdError):
    pass


class SignalTooShort(EegIdError):
    pass


class RecordingTooShort(EegIdError):
    pass


# --- connectivity ---

class EpochTooShort(EegIdError):
    pass


class DegenerateVariance(EegIdError):
    pass


# --- graph ---

class ZeroGraph(EegIdError):
    pass


class NoConvergence(EegIdError):
    pass


# --- svm ---

class DimensionMismatch(EegIdError):
    pass


class TooFewRows(EegIdError):
    pass


class SingleClassInput(EegIdError):
    pass


class TooFewClasses(EegIdError):
    pass


# --- evaluation ---

class InsufficientEpochs(EegIdError):
    pass


class MissingCondition(EegIdError):
    pass


class UnknownLabel(EegIdError):
    pass
