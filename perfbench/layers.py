"""Per-layer tracing of iotprint from outside the program.

`Tracer.install` wraps every public module-level function of the eight
package modules in a span and rebinds each name that refers to it, in
every module that imported it, so calls between modules are traced as
well. A span's self time is its duration minus the part covered by its
child spans. Counters read the arguments and results of a few calls;
the time they take counts as a child of the calling span, so it is in
no span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "synth", "pcap_io", "packet_model", "features", "fingerprint", "evaluation", "ml")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read_capture(counts, args, kwargs, result):
    meta, frames = result
    counts["pcap_io.frames_read"] += len(frames)
    counts["pcap_io.truncated_records"] += meta.truncated_records
    counts["pcap_io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _filter_device(counts, args, kwargs, result):
    counts["pcap_io.selector_checked"] += len(_arg(args, kwargs, 0, "packets"))
    counts["pcap_io.selector_matched"] += len(result)


def _packets_from_capture(counts, args, kwargs, result):
    packets, skipped = result
    counts["packet_model.frames_parsed"] += len(packets)
    counts["packet_model.frames_skipped"] += skipped


def _extract_features(counts, args, kwargs, result):
    counts["features.packets_extracted"] += 1
    counts["features.payload_bytes"] += len(_arg(args, kwargs, 0, "pkt").payload)


def _build_fingerprints(counts, args, kwargs, result):
    counts["fingerprint.fingerprints_built"] += len(result)
    counts["fingerprint.remainder_dropped"] += len(_arg(args, kwargs, 0, "features")) - 5 * len(result)


def _save_profile(counts, args, kwargs, result):
    counts["fingerprint.profile_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _stratified_folds(counts, args, kwargs, result):
    counts["evaluation.folds_run"] += result.k


def _train_boosted(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "data").rows
    ordered = np.sort(rows, axis=0)
    counts["ml.boost_stages"] += len(result.stages)
    counts["ml.split_boundaries_valid"] += int((ordered[1:] > ordered[:-1]).sum())
    counts["ml.split_boundaries"] += max(rows.shape[0] - 1, 0) * rows.shape[1]


def _scored(counts, args, kwargs, result):
    counts["ml.rows_scored"] += len(result)


def _knn_labels(counts, args, kwargs, result):
    counts["ml.rows_scored"] += len(result)
    counts["ml.knn_distance_pairs"] += len(result) * _arg(args, kwargs, 0, "model").rows.shape[0]


def _load_model(counts, args, kwargs, result):
    counts["ml.model_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _standard_corpus(counts, args, kwargs, result):
    counts["synth.frames_generated"] += sum(len(entry.frames) for entry in result)


COUNTERS = {
    "pcap_io.read_capture": _read_capture,
    "pcap_io.filter_device": _filter_device,
    "fingerprint.packets_from_capture": _packets_from_capture,
    "features.extract_features": _extract_features,
    "fingerprint.build_fingerprints": _build_fingerprints,
    "fingerprint.save_profile": _save_profile,
    "evaluation.stratified_folds": _stratified_folds,
    "ml.train_boosted": _train_boosted,
    "ml.boosted_scores": _scored,
    "ml.tree_labels": _scored,
    "ml.knn_labels": _knn_labels,
    "ml.load_model": _load_model,
    "synth.standard_corpus": _standard_corpus,
}


class Tracer:
    """Spans and counters for one phase; `install` to start, `uninstall` to stop."""

    def __init__(self):
        self.stats = {}  # name -> [self seconds, total seconds, calls]
        self.counts = defaultdict(float)
        self._open = []  # per open span: the seconds its children covered
        self._patched = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0.0, 0.0, 0])
        counter = COUNTERS.get(name)
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += duration - open_spans.pop()
                stat[1] += duration
                stat[2] += 1
                if open_spans:
                    open_spans[-1] += duration
            if counter is not None:
                start = clock()
                try:
                    counter(counts, args, kwargs, result)
                except Exception:  # a counter that no longer fits the code must not fail the op
                    counts["trace.counter_errors"] += 1
                if open_spans:  # counting is not the caller's own work
                    open_spans[-1] += clock() - start
            return result

        return span

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, name, wrapped)
                            self._patched.append((namespace, name, fn))

    def uninstall(self) -> None:
        for namespace, name, fn in reversed(self._patched):
            setattr(namespace, name, fn)
        self._patched.clear()

    def snapshot(self) -> dict:
        used = {name: stat for name, stat in self.stats.items() if stat[2]}
        return {
            "self_s": {name: stat[0] for name, stat in used.items()},
            "total_s": {name: stat[1] for name, stat in used.items()},
            "calls": {name: stat[2] for name, stat in used.items()},
            "counts": dict(self.counts),
        }
