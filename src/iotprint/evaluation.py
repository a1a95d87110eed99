"""Evaluation protocol: one-vs-all assembly, stratified five-fold CV,
identification-rate metrics, and the evaluation report document.

Experiments run per positive label: assemble the one-vs-all dataset,
deal each class into k folds with a seeded shuffle, train on k-1 folds,
score the held-out fold, and report fold means. The instance level
skips folding: it trains against one physical instance of a device and
tests on another instance's full profile. Both go through one
train-and-score loop, and the result is the report document itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import VARIANT_TAGS, variant_columns
from .fingerprint import BehavioralProfile
from .ml import LabeledDataset, VoteModel, train_boosted, train_knn, train_tree

REPORT_SCHEMA = "evaluation-report/1"

LEVELS = ("device", "category", "instance")

DEFAULT_FOLDS = 5
DEFAULT_KNN_K = 5
DEFAULT_TREE_DEPTH = 5

# The rates of a report entry, in document order.
_RATES = ("tpr", "accuracy", "tnr", "ppv")

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


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Fold number of every row, as one int64 array."""

    k: int
    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def _profile_key(profile: BehavioralProfile, level: str) -> str:
    return profile.category_label if level == "category" else profile.device_label


def assemble_one_vs_all(
    profiles: Sequence[BehavioralProfile], positive: str, level: str = "device", variant: int = 20
) -> LabeledDataset:
    """Label the positive group's fingerprints +1 and all others -1,
    keeping the feature variant's columns."""
    keys = [_profile_key(p, level) for p in profiles]
    if positive not in keys:
        raise ValueError(f"no profile with {level} label {positive!r}")
    if all(k == positive for k in keys):
        raise ValueError(f"every profile carries label {positive!r}")
    rows = np.concatenate([p.fingerprints for p in profiles])[:, variant_columns(variant)]
    signs = [1 if key == positive else -1 for key in keys]
    labels = np.repeat(signs, [len(p.fingerprints) for p in profiles])
    return LabeledDataset(rows, labels)


def stratified_folds(data: LabeledDataset, k: int, seed: int) -> FoldPlan:
    """Shuffle each class with a seeded generator, deal round-robin into k folds."""
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(data), dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls:+d} has {idx.size} members, fewer than the {k} folds")
        shuffled = rng.permutation(idx)
        assignments[shuffled] = np.arange(shuffled.size) % k
    return FoldPlan(k, assignments)


def metrics(predicted: np.ndarray, truth: np.ndarray) -> tuple:
    """`(rates, degenerate)` of +1/-1 predictions against +1/-1 truth: the
    rate of each `_RATES` name, 0.0 where it is 0/0, and the 0/0 names."""
    hit, miss, pos, neg = predicted == 1, predicted == -1, truth == 1, truth == -1
    tp, fp = int((hit & pos).sum()), int((hit & neg).sum())
    tn, fn = int((miss & neg).sum()), int((miss & pos).sum())
    ratios = {"tpr": (tp, tp + fn), "accuracy": (tp + tn, tp + fp + tn + fn)}
    ratios.update(tnr=(tn, tn + fp), ppv=(tp, tp + fp))
    rates = {name: num / den if den else 0.0 for name, (num, den) in ratios.items()}
    return rates, {name for name, (_, den) in ratios.items() if not den}


def train_classifier(classifier: str, data: LabeledDataset):
    """Train one persistable model of the requested kind.

    Every model labels rows +1/-1 with `model.predict(X)`.
    """
    if classifier not in _FIT:
        raise ValueError(f"unknown classifier {classifier!r}")
    return _FIT[classifier](data)


def _result(label: str, classifier: str, variant: int, splits) -> dict:
    """The report entry of one positive label.

    Trains on each `(train, X, truth)` split, labels X, and scores the
    labels against the truth; the entry holds every split's rates and
    their means.
    """
    folds = []  # the (rates, degenerate) of each split
    for train, X, truth in splits:
        folds.append(metrics(train_classifier(classifier, train).predict(X), truth))
    entry = {"label": label, "classifier": classifier, "variant": VARIANT_TAGS[variant]}
    entry.update({f"mean_{name}": float(np.mean([r[name] for r, _ in folds])) for name in _RATES})
    entry.update({f"fold_{name}": [r[name] for r, _ in folds] for name in _RATES})
    entry["degenerate"] = sorted(set().union(*(zero for _, zero in folds)))
    return entry


def _fold_splits(data: LabeledDataset, label: str, k: int, seed: int):
    """The k stratified `(train, X, truth)` splits of `label`'s one-vs-all set."""
    try:
        plan = stratified_folds(data, k, seed)
    except ValueError as error:
        raise ValueError(f"one-vs-all set of {label!r}: {error}") from None
    for fold in range(k):
        train_idx, test_idx = plan.train_indices(fold), plan.test_indices(fold)
        train = LabeledDataset(data.rows[train_idx], data.labels[train_idx])
        yield train, data.rows[test_idx], data.labels[test_idx]


def _instance_results(
    profiles: Sequence[BehavioralProfile], classifier: str, variant: int
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
    pool = list(first_seen.values())
    cols = variant_columns(variant)
    results = []
    for held_out in extras:
        train = assemble_one_vs_all(pool, held_out.device_label, "device", variant)
        X = held_out.fingerprints[:, cols]
        split = (train, X, np.ones(len(X), dtype=np.int64))
        results.append(_result(held_out.device_label, classifier, variant, [split]))
    return results


def run_experiment(
    profiles: Sequence[BehavioralProfile],
    level: str = "device",
    classifier: str = "boosted",
    variant: int = 20,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> dict:
    """Evaluate every positive label at the requested level.

    Returns the `evaluation-report/1` document: the run parameters and
    one result entry per positive label, in profile order.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}")
    if variant not in VARIANT_TAGS:
        raise ValueError(f"unknown feature variant {variant!r}")
    if level == "instance":
        results = _instance_results(profiles, classifier, variant)
    else:
        results = []
        for label in dict.fromkeys(_profile_key(p, level) for p in profiles):
            data = assemble_one_vs_all(profiles, label, level, variant)
            results.append(_result(label, classifier, variant, _fold_splits(data, label, k, seed)))
    return {
        "schema": REPORT_SCHEMA,
        "level": level,
        "classifier": classifier,
        "variant": VARIANT_TAGS[variant],
        "folds": k,
        "seed": seed,
        "results": results,
    }


def format_report(report: dict) -> str:
    """Plain-text summary table of a report document, one row per positive label.

    The instance level holds out one instance, with neither folds nor a
    seed, so its header says `holdout=instance` in their place.
    """
    if report["level"] == "instance":
        split = "holdout=instance"
    else:
        split = f"folds={report['folds']} seed={report['seed']}"
    header = (
        f"level={report['level']} classifier={report['classifier']} "
        f"variant={report['variant']} {split}"
    )
    rows = report["results"]
    width = max([len(r["label"]) for r in rows] + [5])
    lines = [header, f"{'label':<{width}}  mean_tpr  mean_accuracy  flags"]
    for row in rows:
        label, tpr, accuracy = row["label"], row["mean_tpr"], row["mean_accuracy"]
        flags = ",".join(row["degenerate"]) or "-"
        lines.append(f"{label:<{width}}  {tpr:8.4f}  {accuracy:13.4f}  {flags}")
    return "\n".join(lines) + "\n"
