"""EEG-based biometric identification from functional connectivity.

Band-filtered functional-connectivity and graph features fed to a
one-vs-rest RBF-SVM under nested cross-validation, plus the ingestion,
signal-processing and experiment machinery around them.
"""

from . import channels, connectivity, dsp, evaluation, graph, io_ingest, svm

__all__ = [
    "channels",
    "connectivity",
    "dsp",
    "evaluation",
    "graph",
    "io_ingest",
    "svm",
]

__version__ = "0.1.0"
