"""Evaluation protocol: one-vs-all assembly, stratified five-fold CV,
identification-rate metrics, and experiment reports.

Experiments run per positive label: assemble the one-vs-all dataset,
deal each class into k folds with a seeded shuffle, train on k-1 folds,
score the held-out fold, and report fold means. The instance level
skips folding: it trains against one physical instance of a device and
tests on another instance's full profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ClassTooSmall, NoNegatives, UnknownLabel
from .features import PACKET_FEATURE_COUNT, PAYLOAD_FEATURE_INDICES, ENTROPY_INDEX
from .fingerprint import FINGERPRINT_PACKETS, BehavioralProfile
from .ml import LabeledDataset, VoteModel, train_boosted, train_knn, train_tree

REPORT_SCHEMA = "evaluation-report/1"

VARIANT_TAGS = {20: "20-features", 19: "19-no-entropy", 3: "3-payload-only"}
LEVELS = ("device", "category", "instance")

DEFAULT_FOLDS = 5
DEFAULT_KNN_K = 5
DEFAULT_TREE_DEPTH = 5

# classifier kind -> fit(data) -> model. The trainers are looked up by
# module-global name at call time, so a rebound `train_*` (as a tracer
# installs) is the one that runs.
_FIT = {
    "boosted": lambda data: train_boosted(data),
    "knn": lambda data: train_knn(data, k=min(DEFAULT_KNN_K, len(data))),
    "tree": lambda data: train_tree(data, max_depth=DEFAULT_TREE_DEPTH),
    "vote": lambda data: VoteModel(*(_FIT[kind](data) for kind in ("boosted", "knn", "tree"))),
}
CLASSIFIERS = tuple(_FIT)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    """TPR/accuracy/TNR/PPV; 0/0 ratios come out 0 and are flagged."""

    tpr: float
    accuracy: float
    tnr: float
    ppv: float
    degenerate: frozenset = frozenset()


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Fold number of every row, as one int64 array."""

    k: int
    assignments: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FoldPlan)
            and self.k == other.k
            and np.array_equal(self.assignments, other.assignments)
        )

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


@dataclass(frozen=True)
class ReportRow:
    label: str
    mean_tpr: float
    mean_accuracy: float
    mean_tnr: float
    mean_ppv: float
    fold_tpr: tuple
    fold_accuracy: tuple
    fold_tnr: tuple
    fold_ppv: tuple
    degenerate: tuple


@dataclass(frozen=True)
class EvaluationReport:
    level: str
    classifier: str
    variant: int
    k: int
    seed: int
    rows: tuple

    @property
    def variant_tag(self) -> str:
        return VARIANT_TAGS[self.variant]


def variant_columns(variant: int) -> list:
    """Column indices of the 100-wide fingerprint for a feature variant.

    20 keeps everything; 19 drops the five per-packet entropy positions;
    3 keeps only entropy, TCP payload length, and TCP window size.
    """
    if variant == 20:
        per_packet = range(PACKET_FEATURE_COUNT)
    elif variant == 19:
        per_packet = [i for i in range(PACKET_FEATURE_COUNT) if i != ENTROPY_INDEX]
    elif variant == 3:
        per_packet = list(PAYLOAD_FEATURE_INDICES)
    else:
        raise ValueError(f"unknown feature variant {variant}; pick 20, 19 or 3")
    return [
        packet * PACKET_FEATURE_COUNT + i
        for packet in range(FINGERPRINT_PACKETS)
        for i in per_packet
    ]


def _profile_key(profile: BehavioralProfile, level: str) -> str:
    return profile.category_label if level == "category" else profile.device_label


def assemble_one_vs_all(
    profiles: Sequence[BehavioralProfile], positive: str, level: str = "device"
) -> LabeledDataset:
    """Label the positive group's fingerprints +1 and all others -1."""
    keys = [_profile_key(p, level) for p in profiles]
    if positive not in keys:
        raise UnknownLabel(f"no profile with {level} label {positive!r}")
    if all(k == positive for k in keys):
        raise NoNegatives(f"every profile carries label {positive!r}")
    rows = np.concatenate([p.fingerprints for p in profiles])
    signs = [1 if key == positive else -1 for key in keys]
    labels = np.repeat(signs, [len(p.fingerprints) for p in profiles])
    return LabeledDataset(rows, labels, positive)


def stratified_folds(data: LabeledDataset, k: int, seed: int) -> FoldPlan:
    """Shuffle each class with a seeded generator, deal round-robin into k folds."""
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(data), dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ClassTooSmall(f"class {cls:+d} has {idx.size} members; need {k}")
        shuffled = rng.permutation(idx)
        assignments[shuffled] = np.arange(shuffled.size) % k
    return FoldPlan(k, assignments)


def metrics(counts: ConfusionCounts) -> Metrics:
    degenerate = set()

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            degenerate.add(name)
            return 0.0
        return num / den

    tpr = ratio(counts.tp, counts.tp + counts.fn, "tpr")
    accuracy = ratio(counts.tp + counts.tn, counts.total, "accuracy")
    tnr = ratio(counts.tn, counts.tn + counts.fp, "tnr")
    ppv = ratio(counts.tp, counts.tp + counts.fp, "ppv")
    return Metrics(tpr, accuracy, tnr, ppv, frozenset(degenerate))


def _confusion(predicted: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    return ConfusionCounts(
        tp=int(((predicted == 1) & (truth == 1)).sum()),
        fp=int(((predicted == 1) & (truth == -1)).sum()),
        tn=int(((predicted == -1) & (truth == -1)).sum()),
        fn=int(((predicted == -1) & (truth == 1)).sum()),
    )


def train_classifier(classifier: str, data: LabeledDataset):
    """Train one persistable model of the requested kind.

    Every model labels rows +1/-1 with `model.predict(X)`.
    """
    if classifier not in _FIT:
        raise ValueError(f"unknown classifier {classifier!r}")
    return _FIT[classifier](data)


def _fold_row(
    label: str,
    data: LabeledDataset,
    classifier: str,
    cols: list,
    k: int,
    seed: int,
) -> ReportRow:
    reduced = LabeledDataset(data.rows[:, cols], data.labels, data.positive_class)
    plan = stratified_folds(reduced, k, seed)
    per_fold = []
    for fold in range(k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        train = LabeledDataset(
            reduced.rows[train_idx], reduced.labels[train_idx], reduced.positive_class
        )
        predicted = train_classifier(classifier, train).predict(reduced.rows[test_idx])
        per_fold.append(metrics(_confusion(predicted, reduced.labels[test_idx])))
    return _row_from_metrics(label, per_fold)


def _row_from_metrics(label: str, per_fold: list) -> ReportRow:
    degenerate = sorted(set().union(*(m.degenerate for m in per_fold)))
    return ReportRow(
        label=label,
        mean_tpr=float(np.mean([m.tpr for m in per_fold])),
        mean_accuracy=float(np.mean([m.accuracy for m in per_fold])),
        mean_tnr=float(np.mean([m.tnr for m in per_fold])),
        mean_ppv=float(np.mean([m.ppv for m in per_fold])),
        fold_tpr=tuple(m.tpr for m in per_fold),
        fold_accuracy=tuple(m.accuracy for m in per_fold),
        fold_tnr=tuple(m.tnr for m in per_fold),
        fold_ppv=tuple(m.ppv for m in per_fold),
        degenerate=tuple(degenerate),
    )


def _instance_rows(
    profiles: Sequence[BehavioralProfile], classifier: str, cols: list
) -> list:
    """Train on the first instance of each twinned device, test the others.

    Profiles sharing a device label are treated as distinct physical
    instances in input order; only the first joins the training pool.
    """
    first_seen: dict = {}
    extras: list = []
    for profile in profiles:
        if profile.device_label in first_seen:
            extras.append(profile)
        else:
            first_seen[profile.device_label] = profile
    rows = []
    training_pool = list(first_seen.values())
    for held_out in extras:
        data = assemble_one_vs_all(training_pool, held_out.device_label, "device")
        train = LabeledDataset(data.rows[:, cols], data.labels, data.positive_class)
        predicted = train_classifier(classifier, train).predict(held_out.fingerprints[:, cols])
        truth = np.ones(len(predicted), dtype=np.int64)
        rows.append(_row_from_metrics(held_out.device_label, [metrics(_confusion(predicted, truth))]))
    return rows


def run_experiment(
    profiles: Sequence[BehavioralProfile],
    level: str = "device",
    classifier: str = "boosted",
    variant: int = 20,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> EvaluationReport:
    """Evaluate every positive label at the requested level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}")
    cols = variant_columns(variant)
    if level == "instance":
        rows = _instance_rows(profiles, classifier, cols)
    else:
        labels_in_order = []
        for profile in profiles:
            key = _profile_key(profile, level)
            if key not in labels_in_order:
                labels_in_order.append(key)
        rows = []
        for positive in labels_in_order:
            data = assemble_one_vs_all(profiles, positive, level)
            rows.append(_fold_row(positive, data, classifier, cols, k, seed))
    return EvaluationReport(level, classifier, variant, k, seed, tuple(rows))


def report_doc(report: EvaluationReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "level": report.level,
        "classifier": report.classifier,
        "variant": report.variant_tag,
        "folds": report.k,
        "seed": report.seed,
        "results": [
            {
                "label": row.label,
                "classifier": report.classifier,
                "variant": report.variant_tag,
                "mean_tpr": row.mean_tpr,
                "mean_accuracy": row.mean_accuracy,
                "mean_tnr": row.mean_tnr,
                "mean_ppv": row.mean_ppv,
                "fold_tpr": list(row.fold_tpr),
                "fold_accuracy": list(row.fold_accuracy),
                "fold_tnr": list(row.fold_tnr),
                "fold_ppv": list(row.fold_ppv),
                "degenerate": list(row.degenerate),
            }
            for row in report.rows
        ],
    }


def save_report(report: EvaluationReport, path: str | Path) -> None:
    text = json.dumps(report_doc(report), indent=1, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


def format_report(report: EvaluationReport) -> str:
    """Plain-text summary table, one row per positive label."""
    header = (
        f"level={report.level} classifier={report.classifier} "
        f"variant={report.variant_tag} folds={report.k} seed={report.seed}"
    )
    width = max([len(r.label) for r in report.rows] + [5])
    lines = [header, f"{'label':<{width}}  mean_tpr  mean_accuracy  flags"]
    for row in report.rows:
        flags = ",".join(row.degenerate) if row.degenerate else "-"
        lines.append(
            f"{row.label:<{width}}  {row.mean_tpr:8.4f}  {row.mean_accuracy:13.4f}  {flags}"
        )
    return "\n".join(lines) + "\n"
