"""Spans around the package's functions, installed at run time from outside src/.

Each wrapper replaces a name where its caller looks it up: a module attribute
such as `evaluation.grid_search`, a name a module imported such as
`cli.build_corpus`, or a module global called from inside the same module
such as `svm.train_binary_smo` inside `train_ovr`.  A target that no longer
exists is reported as absent instead of failing the pass.

Spans are kept in memory as [name, start, end, parent] with monotonic
times and written out by the pass when it ends; `pass_metrics` turns one
pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("io_ingest", "dsp", "connectivity", "graph", "svm", "evaluation", "cli")
CONNECTIVITY_METRICS = ("COR", "PLV", "PLI")


def _named_by_metric(prefix):
    """Span name taken from the call's `metric` argument (second positional)."""
    def name(args, kwargs):
        metric = kwargs.get("metric", args[1] if len(args) > 1 else "unknown")
        return f"{prefix}.{metric}"
    return name


def _count_edf_bytes(tracer, args, kwargs, result):
    tracer.counts["io_ingest.edf_bytes"] += len(args[0])


def _count_corpus_lookup(tracer, args, kwargs, result):
    tracer.counts["cli.corpus_lookups"] += 1
    tracer.counts["cli.corpus_hits"] += bool(result[2])


def _count_smo_model(tracer, args, kwargs, result):
    tracer.counts["svm.smo.train_points"] += len(args[1])
    tracer.counts["svm.smo.support_vectors"] += len(result.support_vectors)
    tracer.counts["svm.smo.nonconverged"] += not result.converged


# (module, attribute, span name or naming function, hook on the return value)
TARGETS = (
    ("eegid.cli", "main", "cli.main", None),
    ("eegid.cli", "cmd_evaluate", "cli.cmd_evaluate", None),
    ("eegid.cli", "cmd_features", "cli.cmd_features", None),
    ("eegid.cli", "_cached_corpus", "cli._cached_corpus", _count_corpus_lookup),
    ("eegid.cli", "_corpus_hash", "cli._corpus_hash", None),
    ("eegid.cli", "load_manifest", "io_ingest.load_manifest", None),
    ("eegid.cli", "build_corpus", "io_ingest.build_corpus", None),
    ("eegid.io_ingest", "parse_edf", "io_ingest.parse_edf", _count_edf_bytes),
    ("eegid.dsp", "resample", "dsp.resample", None),
    ("eegid.dsp", "preprocess", "dsp.preprocess", None),
    ("eegid.dsp", "notch", "dsp.notch", None),
    ("eegid.dsp", "bandpass", "dsp.bandpass", None),
    ("eegid.dsp", "split_epochs", "dsp.split_epochs", None),
    ("eegid.connectivity", "connectivity_matrix", _named_by_metric("connectivity"), None),
    ("eegid.connectivity", "vectorize_upper", "connectivity.vectorize_upper", None),
    ("eegid.graph", "from_connectivity", "graph.from_connectivity", None),
    ("eegid.graph", "node_scores", _named_by_metric("graph"), None),
    ("eegid.evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("eegid.evaluation", "_features_cached", "evaluation._features_cached", None),
    ("eegid.evaluation", "band_epochs", "evaluation.band_epochs", None),
    ("eegid.evaluation", "epoch_features", "evaluation.epoch_features", None),
    ("eegid.evaluation", "run_nested_cv", "evaluation.run_nested_cv", None),
    ("eegid.evaluation", "grid_search", "evaluation.grid_search", None),
    ("eegid.svm", "train_ovr", "svm.train_ovr", None),
    ("eegid.svm", "train_binary_smo", "svm.smo", _count_smo_model),
    ("eegid.svm", "predict_batch", "svm.predict", None),
)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.absent = []
        self.hook_failures = set()

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, hook))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            span = [span_name, time.monotonic(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function changed shape; its counters read as absent
                    self.hook_failures.add(span_name)
            return result
        return wrapper

    def dump(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
            "hook_failures": sorted(self.hook_failures),
        }


def span_stats(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children cover;
    children run inside their parent one after another, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return stats


def layer_self_times(stats):
    out = dict.fromkeys(LAYERS, 0.0)
    for name, entry in stats.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def pass_metrics(dump, wall_s, setup_s, recordings):
    """Per-layer metrics of one traced pass.

    `wall_s` and `setup_s` are measured by the parent around the pass
    process; the remainder that no span covers (gaps between commands,
    result writing, interpreter exit) is reported as trace.unattributed_s.
    """
    spans, counts = dump["spans"], dump["counts"]
    stats = span_stats(spans)
    layers = layer_self_times(stats)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def secs(name, key="s"):
        return stats[name][key] if name in stats else 0.0

    root_s = sum(end - start for _, start, end, parent in spans if parent < 0)
    m = {}
    m["io_ingest.parse_edf.calls"] = calls("io_ingest.parse_edf")
    m["io_ingest.parse_edf.s"] = secs("io_ingest.parse_edf")
    m["io_ingest.edf_mb_per_s"] = _ratio(counts.get("io_ingest.edf_bytes", 0) / 1e6,
                                         m["io_ingest.parse_edf.s"])
    m["dsp.resample.s"] = secs("dsp.resample")
    m["dsp.preprocess.calls"] = calls("dsp.preprocess")
    m["dsp.preprocess.s"] = secs("dsp.preprocess")
    m["dsp.preprocess.self_s"] = secs("dsp.preprocess", "self_s")
    m["dsp.bandpass.calls"] = calls("dsp.bandpass")
    m["dsp.bandpass.s"] = secs("dsp.bandpass")
    m["dsp.split_epochs.s"] = secs("dsp.split_epochs")
    m["dsp.preprocess_per_recording"] = _ratio(m["dsp.preprocess.calls"], recordings)
    m["connectivity.matrices"] = sum(calls(f"connectivity.{k}") for k in CONNECTIVITY_METRICS)
    for k in CONNECTIVITY_METRICS:
        m[f"connectivity.{k}.s"] = secs(f"connectivity.{k}")
        m[f"connectivity.{k}.ms_per_matrix"] = _ratio(
            secs(f"connectivity.{k}"), calls(f"connectivity.{k}"), 1e3)
    m["graph.node_scores.calls"] = sum(
        entry["calls"] for name, entry in stats.items()
        if name.startswith("graph.") and name != "graph.from_connectivity")
    m["graph.BC.s"] = secs("graph.BC")
    m["graph.BC.ms_per_epoch"] = _ratio(secs("graph.BC"), calls("graph.BC"), 1e3)
    m["svm.train_ovr.calls"] = calls("svm.train_ovr")
    m["svm.train_ovr.self_s"] = secs("svm.train_ovr", "self_s")
    m["svm.smo.calls"] = calls("svm.smo")
    m["svm.smo.s"] = secs("svm.smo")
    m["svm.smo.ms_per_call"] = _ratio(secs("svm.smo"), calls("svm.smo"), 1e3)
    m["svm.smo.nonconverged"] = counts.get("svm.smo.nonconverged", 0)
    m["svm.sv_frac"] = _ratio(counts.get("svm.smo.support_vectors", 0),
                              counts.get("svm.smo.train_points", 0))
    m["svm.predict.calls"] = calls("svm.predict")
    m["svm.predict.s"] = secs("svm.predict")
    m["evaluation.grid_search.calls"] = calls("evaluation.grid_search")
    m["evaluation.grid_search.s"] = secs("evaluation.grid_search")
    m["cli.commands"] = calls("cli.main")
    m["cli.corpus_builds"] = calls("io_ingest.build_corpus")
    m["cli.corpus_cache_hit_frac"] = _ratio(counts.get("cli.corpus_hits", 0),
                                            counts.get("cli.corpus_lookups", 0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]
    m["trace.setup_s"] = setup_s
    m["trace.unattributed_s"] = wall_s - setup_s - root_s
    m["trace.absent_spans"] = len(dump["absent"]) + len(dump["hook_failures"])
    return m
