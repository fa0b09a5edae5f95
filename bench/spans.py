"""Layer spans for the traced benchmark run.

The tracer wraps the public pcgkit functions listed in ``WRAPPED`` from the
outside: the program itself is not edited.  A module that imported a
function by name (``from .windows import frame_matrix``) looks it up in its
own namespace, so every pcgkit module binding that refers to the original
function is replaced, not only the one in the defining module.  A name
that no longer exists is recorded as absent instead of failing the run.

Spans are kept in memory as (name, start, end, parent, section) and turned
into per-layer metrics when the run ends.  Calls run on one thread (the
benchmark passes no ``--jobs``), so a plain stack gives each span its
parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run, in pipeline order.
WRAPPED = (
    ("synth", "generate_dataset"),
    ("ingest", "write_wav"),
    ("ingest", "read_wav"),
    ("ingest", "preprocess"),
    ("windows", "frame_matrix"),
    ("features", "extract_sequence"),
    ("features", "normalize_sequence"),
    ("nnet", "train"),
    ("nnet", "predict"),
    ("evaluate", "split"),
    ("evaluate", "run_trial"),
    ("evaluate", "extract_dataset"),
    ("evaluate", "run_grid"),
    ("evaluate", "emit_results"),
    ("cli", "main"),
)


def _count_extract(counts, args, result):
    counts["features.frames"] += result.values.shape[0]


def _count_train(counts, args, result):
    lengths = [seq.values.shape[0] for seq in args["dataset"]]
    epochs = args["config"].epochs
    counts["nnet.train_seq_epochs"] += len(lengths) * epochs
    counts["nnet.train_steps"] += sum(lengths) * epochs


def _count_predict(counts, args, result):
    counts["nnet.predict_seqs"] += 1
    counts["nnet.predict_steps"] += args["seq"].values.shape[0]


def _count_trial(counts, args, result):
    counts["evaluate.trials"] += 1
    if result.metrics.accuracy is not None:
        counts["evaluate.accuracy_sum"] += result.metrics.accuracy
        counts["evaluate.accuracy_n"] += 1


# Work counted at the span boundary, from the call's arguments and result.
COUNTERS = {
    "features.extract_sequence": _count_extract,
    "nnet.train": _count_train,
    "nnet.predict": _count_predict,
    "evaluate.run_trial": _count_trial,
}


class Tracer:
    """Installs span-recording wrappers and holds the spans they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.section = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.section])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts[self.section], bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every pcgkit binding of each wrapped function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pcgkit"
                                         or key.startswith("pcgkit."))]
        self.absent = []
        for module_name, func_name in WRAPPED:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"pcgkit.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- span arithmetic ---------------------------------------------------

    def totals(self, sections) -> tuple[dict, dict]:
        """Total and self seconds per span name over the given sections.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap, since calls run on one thread.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, section in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, parent, section) in enumerate(self.spans):
            if section in sections:
                total[name] += end - start
                own[name] += end - start - child_time[index]
        return dict(total), dict(own)

    def top_level_time(self, section: str) -> float:
        """Seconds covered by outermost spans of one section."""
        return sum(end - start for _, start, end, parent, sec in self.spans
                   if sec == section and parent < 0)

    def merged_counts(self, sections) -> dict[str, float]:
        out = defaultdict(float)
        for section in sections:
            for key, value in self.counts[section].items():
                out[key] += value
        return dict(out)


# Per-layer metric -> how it is derived from spans and counts:
#   ("total", span)       summed span seconds
#   ("self", span)        summed span seconds minus child spans
#   ("count", key)        a counter
#   ("per", span, key)    microseconds of span time per counted item
#   ("mean", key, n_key)  counter sum divided by counter n
LAYER_METRICS = {
    "synth.generate_s": ("total", "synth.generate_dataset"),
    "ingest.write_wav_s": ("total", "ingest.write_wav"),
    "ingest.read_wav_s": ("total", "ingest.read_wav"),
    "ingest.preprocess_s": ("total", "ingest.preprocess"),
    "windows.frame_matrix_s": ("total", "windows.frame_matrix"),
    "features.extract_sequence_s": ("total", "features.extract_sequence"),
    "features.normalize_sequence_s": ("total", "features.normalize_sequence"),
    "features.frames": ("count", "features.frames"),
    "features.us_per_frame": ("per", "features.extract_sequence",
                              "features.frames"),
    "nnet.train_s": ("total", "nnet.train"),
    "nnet.train_seq_epochs": ("count", "nnet.train_seq_epochs"),
    "nnet.train_us_per_step": ("per", "nnet.train", "nnet.train_steps"),
    "nnet.predict_s": ("total", "nnet.predict"),
    "nnet.predict_seqs": ("count", "nnet.predict_seqs"),
    "nnet.predict_us_per_step": ("per", "nnet.predict", "nnet.predict_steps"),
    "evaluate.split_s": ("total", "evaluate.split"),
    "evaluate.run_trial_self_s": ("self", "evaluate.run_trial"),
    "evaluate.extract_dataset_self_s": ("self", "evaluate.extract_dataset"),
    "evaluate.run_grid_self_s": ("self", "evaluate.run_grid"),
    "evaluate.emit_results_s": ("total", "evaluate.emit_results"),
    "evaluate.trials": ("count", "evaluate.trials"),
    "evaluate.accuracy_pct": ("mean", "evaluate.accuracy_sum",
                              "evaluate.accuracy_n"),
    "cli.main_self_s": ("self", "cli.main"),
}


def _derive(rule, total, own, counts):
    """The metric's value, or None when its spans or counts were not seen."""
    kind = rule[0]
    if kind in ("total", "self"):
        table = total if kind == "total" else own
        return table.get(rule[1])
    if kind == "count":
        return counts.get(rule[1])
    if kind == "per":
        if rule[1] not in total or not counts.get(rule[2]):
            return None
        return 1e6 * total[rule[1]] / counts[rule[2]]
    if not counts.get(rule[2]):
        return None
    return counts[rule[1]] / counts[rule[2]]


def layer_metrics(tracer: Tracer, own_sections, fallback_section):
    """Per-layer values from the workload's own sections.

    A layer the workload never calls is taken from the fallback section
    (the hop-1 grid probe) and named in ``from_probe``; one seen nowhere
    reads 0.0 and is named in ``absent``.
    """
    own_total, own_self = tracer.totals(own_sections)
    own_counts = tracer.merged_counts(own_sections)
    fb_total, fb_self = tracer.totals({fallback_section})
    fb_counts = tracer.merged_counts({fallback_section})
    values, from_probe, absent = {}, [], []
    for metric, rule in LAYER_METRICS.items():
        value = _derive(rule, own_total, own_self, own_counts)
        if value is None:
            value = _derive(rule, fb_total, fb_self, fb_counts)
            if value is None:
                absent.append(metric)
                value = 0.0
            else:
                from_probe.append(metric)
        values[metric] = value
    return values, from_probe, absent
