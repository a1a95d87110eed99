"""One-vs-all classifiers: boosted stumps, kNN, decision tree, voting.

The primary model is gradient boosting with depth-1 regression trees
under binomial deviance: starting from the prior log-odds, each stage
fits a stump to the negative gradient (residuals y - p) by least
squares, then sets its two leaf values with a single Newton step
(sum residual / sum p(1-p) per leaf). Predictions sum the leaf values
onto the initial score; the label is sign(score) with ties going to +1.

All training is deterministic: the split search's pick resolves ties
to the lowest feature index then the lowest threshold, kNN distance
ties at the k-th neighbor include the smallest row index, and tied kNN
votes predict -1. Where no column varies, a boosted fit has no stages.

Every model labels a matrix of rows with `model.predict(X)`; the
boosted stumps and the tree find their splits through one search over
the boundaries between distinct sorted values (`_SplitSearch`).
Boosting rounds its residuals onto a fixed-point grid for the search
(`_on_grid`; its leaf values use them unrounded), so every sum the
search forms is an exact integer, as the tree's label counts are. A
vote labels rows with its boosted and tree members first and searches
kNN neighbours only for the rows where they differ.

A model holds only what it predicts with. The one-vs-all facts live in
its `model/4` JSON document alone: the packet layout
(`FEATURE_SCHEMA`), the fingerprint columns the model reads and the
class it labels +1. `save_model` takes them beside the model and
`load_model` returns them beside it. The document packs kNN rows and
labels as base64 text of their zlib-deflated little-endian bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .documents import (
    finite, int_in, load_doc, pack, require, require_list, require_str, save_doc, unpack
)
from .features import FEATURE_SCHEMA, FINGERPRINT_DIM

MAX_STAGES = 100
MODEL_SCHEMA = "model/4"


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with +/-1 labels for one one-vs-all problem; zero rows raise ValueError."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        labels = _plus_minus_one(self.labels)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")
        if rows.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        if rows.shape[1] == 0:
            raise ValueError("rows must have at least one column")
        if labels.shape != (rows.shape[0],):
            raise ValueError("rows and labels must have equal length")
        if not np.isfinite(rows).all():
            raise ValueError("rows must be finite (no NaN or infinity)")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.rows.shape[0]


def _plus_minus_one(labels) -> np.ndarray:
    """`labels` as int64, checked to be the integers +1 and -1 before any cast.

    A cast first would truncate 1.5 to 1, read True as 1 and warn on
    1e308, so floats, booleans and strings are rejected as they are.
    """
    if not isinstance(labels, np.ndarray):
        labels = list(labels)
        if not all(type(v) is int or isinstance(v, np.integer) for v in labels):
            raise ValueError("labels must be +1 or -1")
        labels = np.array(labels)  # ints beyond int64 become objects, rejected below
    if labels.size and (labels.dtype.kind not in "iu" or not np.isin(labels, (-1, 1)).all()):
        raise ValueError("labels must be +1 or -1")
    return np.asarray(labels, dtype=np.int64)


@dataclass(frozen=True)
class Stump:
    """Depth-1 regression tree: x[feature] <= threshold goes left."""

    feature_index: int
    threshold: float
    left_value: float
    right_value: float


@dataclass(frozen=True)
class BoostedModel:
    initial_score: float
    stages: tuple
    training_deviance: tuple = field(default=(), compare=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """+1/-1 per row of X; a score of exactly 0 goes to +1."""
        return np.where(boosted_scores(self, X) >= 0, 1, -1)


@dataclass(frozen=True)
class KnnModel:
    rows: np.ndarray
    labels: np.ndarray
    k: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return knn_labels(self, X)


@dataclass(frozen=True)
class TreeNode:
    """Internal node when label is None, else a leaf."""

    label: int | None = None
    feature_index: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return tree_labels(self, X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _row_loss(labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # logistic loss log(1 + exp(-y * F)) of each row, stable for large |F|
    return np.logaddexp(0.0, -labels * scores)


def _leaf(resid, weight, labels, scores, loss) -> tuple:
    """(value, loss): a leaf's Newton step, backtracked until it does not raise the leaf loss.

    The step is sum(resid) / sum(weight), and none where that weight is
    at most 1e-150: those rows are fit to within 1e-150 already, and a
    ratio of sums that small can overflow. `loss` is the leaf rows'
    `_row_loss` before the step; the returned one is theirs after it. A
    raw Newton step can overshoot badly once points saturate (tiny
    p(1-p) sums under a finite residual sum), which would break the
    non-increasing-deviance guarantee. The Newton direction is always a
    descent direction for the leaf, so halving terminates; a step that
    never helps collapses to 0 (loss unchanged).
    """
    den = float(weight.sum())
    value = float(resid.sum() / den) if den > 1e-150 else 0.0
    before = float(loss.sum())
    for _ in range(64):
        after = _row_loss(labels, scores + value)
        if float(after.sum()) <= before:
            return value, after
        value *= 0.5
    return 0.0, loss


def _midpoint(lo, hi) -> np.ndarray:
    """Split thresholds between adjacent sorted values `lo` < `hi`.

    Exactly 0.5 * (lo + hi) wherever that sum is finite; where it
    overflows (values near the float maximum), 0.5 * lo + 0.5 * hi.
    Where either rounds up to `hi` (adjacent floats), `lo`: the rule
    x <= threshold must send `hi` right, as the search scored it.
    """
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    mid = np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)
    return np.where(mid < hi, mid, lo)


def _on_grid(resid: np.ndarray) -> np.ndarray:
    """The residuals as integers: scaled by 2^(53 - b - e) and rounded, b = n.bit_length().

    2^e is the power of two above the largest |residual| (`np.frexp`), so
    each of the n values is at most 2^(53 - b) in magnitude and n < 2^b:
    every sum of them is an integer below 2^53, exact in float64 in any
    order of adding (BLAS included). The grid's step, 2^(b + e - 53), is
    relative to the largest residual, as the rounding of a float sum of
    n residuals is, so it stays fine when every residual is small.
    """
    e = np.frexp(np.abs(resid).max())[1]
    return np.rint(np.ldexp(resid, 53 - resid.size.bit_length() - e))


def _gain(left, total, left_n, right_n):
    """Boosting's gain sum_L^2/n_L + sum_R^2/n_R, which orders splits as squared error does."""
    return left**2 / left_n + (total - left) ** 2 / right_n


def _gini(pos_left, pos_total, left_n, right_n):
    """Gini's sum_side (pos^2 + neg^2) / n_side, which orders splits as weighted impurity does.

    The counts are exact in float64, so only the squares, sums and
    divisions round.
    """
    neg_left = left_n - pos_left
    pos_right = pos_total - pos_left
    neg_right = right_n - pos_right
    left = (pos_left**2 + neg_left**2) / left_n
    return left + (pos_right**2 + neg_right**2) / right_n


class _SplitSearch:
    """Split search over the rows of X, for both learners.

    The candidates are the boundaries between consecutive distinct
    values of each column; each threshold is the midpoint of the two
    values. Constant columns have none and are dropped. They are listed
    once per search as they are built: the boundaries of the columns
    with more than two values, feature-major and ascending within a
    column, then one per two-valued column. `_best` applies the tie rule
    over that list. Each boosting stage (or tree node) only brings new
    target values.

    The targets are integers whose absolute values sum to below 2^53:
    the tree's 0/1 labels, and boosting's residuals on `_on_grid`. Every
    sum of them is then exact in float64 in any order of adding, so each
    candidate is scored from its exact left sum and the exact total, and
    the split is bit-identical to scoring every boundary and masking the
    rest. Columns with more than two values are argsorted once and
    scanned by one cumsum per call. A two-valued column has one
    candidate, between its low and its high value, and is not sorted:
    its rows at the low value form the 0/1 matrix `low`, and one product
    `low @ target` gives every such left sum.
    """

    def __init__(self, X: np.ndarray):
        n = X.shape[0]
        lo, hi = X.min(axis=0), X.max(axis=0)
        varies = lo < hi
        two = varies & ((X == lo) | (X == hi)).all(axis=0)
        multi, two = np.flatnonzero(varies & ~two), np.flatnonzero(two)
        order = np.argsort(X[:, multi], axis=0, kind="stable")
        xs = np.take_along_axis(X[:, multi], order, axis=0).T
        self.order = np.ascontiguousarray(order.T)
        col, boundary = np.nonzero(xs[:, 1:] > xs[:, :-1])
        self.left_flat = col * n + boundary
        self.low = np.ascontiguousarray((X[:, two] == lo[two]).T, dtype=np.float64)
        self.features = np.concatenate([multi[col], two])
        self.thresholds = np.concatenate(
            [_midpoint(xs[col, boundary], xs[col, boundary + 1]), _midpoint(lo[two], hi[two])]
        )
        left_n = np.concatenate([boundary + 1.0, self.low.sum(axis=1)])
        self.sizes = left_n, n - left_n
        self.any_valid = bool(self.features.size)

    def _left_sums(self, target: np.ndarray) -> np.ndarray:
        """Every candidate's sum of `target` over its left rows."""
        csum = np.cumsum(target[self.order], axis=1)
        return np.concatenate([csum.take(self.left_flat), self.low @ target])

    def _best(self, scores: np.ndarray) -> tuple:
        """(feature, threshold) of the top score; of tied ones, the lowest feature's first."""
        tied = np.flatnonzero(scores == scores.max())
        best = tied[np.argmin(self.features[tied])]
        return int(self.features[best]), float(self.thresholds[best])

    def best_split(self, target: np.ndarray) -> tuple:
        """(feature, threshold) minimizing the squared error of leaf means of integer `target`."""
        return self._best(_gain(self._left_sums(target), target.sum(), *self.sizes))

    def best_gini_split(self, labels: np.ndarray) -> tuple:
        """(feature, threshold) minimizing the weighted Gini impurity of +/-1 labels."""
        pos = (labels > 0).astype(np.float64)
        return self._best(_gini(self._left_sums(pos), pos.sum(), *self.sizes))


def train_boosted(data: LabeledDataset, n_stages: int = 100) -> BoostedModel:
    """Fit the boosted-stump ensemble; records the deviance trajectory.

    The recorded training deviance (mean logistic loss, entry 0 before
    any stage) is non-increasing stage over stage. Each stage adds its
    safeguarded leaf values in full. Where no column varies there is no
    split to fit, and the model is the prior log-odds with no stages.
    """
    if np.all(data.labels == data.labels[0]):
        raise ValueError("training data contains a single class")
    if not 1 <= n_stages <= MAX_STAGES:
        raise ValueError(f"n_stages must be in 1..{MAX_STAGES}")
    X, y = data.rows, data.labels
    y01 = (y > 0).astype(np.float64)
    p0 = float(y01.mean())
    initial = float(np.log(p0 / (1.0 - p0)))
    scores = np.full(len(y), initial)

    search = _SplitSearch(X)
    loss = _row_loss(y, scores)
    deviance = [float(loss.mean())]
    stages = []
    for _ in range(n_stages if search.any_valid else 0):
        prob = _sigmoid(scores)
        resid = y01 - prob
        weight = prob * (1.0 - prob)
        feature, threshold = search.best_split(_on_grid(resid))
        left = X[:, feature] <= threshold
        values = []
        for side in (left, ~left):
            value, loss[side] = _leaf(resid[side], weight[side], y[side], scores[side], loss[side])
            values.append(value)
        stages.append(Stump(feature, threshold, *values))
        scores = scores + np.where(left, *values)
        deviance.append(float(loss.mean()))
    return BoostedModel(initial, tuple(stages), tuple(deviance))


def boosted_scores(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.initial_score)
    for stump in model.stages:
        leaf = np.where(
            X[:, stump.feature_index] <= stump.threshold, stump.left_value, stump.right_value
        )
        scores += leaf
    return scores


def train_knn(data: LabeledDataset, k: int) -> KnnModel:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(data):
        raise ValueError(f"k={k} exceeds {len(data)} training rows")
    return KnnModel(data.rows, data.labels, k)


# Query rows per distance block; each block holds a KNN_CHUNK x len(rows) matrix.
KNN_CHUNK = 512


def knn_labels(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Batch kNN prediction via the expanded-norm distance identity.

    A partition finds each query's k-th smallest distance. Where exactly
    k distances are at most that value, they are the k nearest under the
    (distance, row index) order and the vote is read off them. A row
    with a tie straddling the k-th distance (or a NaN distance) takes
    the full stable sort instead, which applies the smallest-row-index
    rule.
    """
    X = np.asarray(X, dtype=np.float64)
    rows, k, labels = model.rows, model.k, model.labels
    row_sq = (rows**2).sum(axis=1)
    # The votes are sums of at most len(rows) ones, exact in float64.
    positive = (labels > 0).astype(np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], KNN_CHUNK):
        block = X[start : start + KNN_CHUNK]
        dist2 = (block**2).sum(axis=1)[:, None] + row_sq[None, :] - 2.0 * block @ rows.T
        kth = np.partition(dist2, k - 1, axis=1)[:, k - 1].copy()
        inside = dist2 <= kth[:, None]
        count = inside.sum(axis=1)
        votes = 2.0 * (inside @ positive) - count  # labels are +/-1
        tied = np.flatnonzero(count != k)
        if tied.size:
            nearest = np.argsort(dist2[tied], axis=1, kind="stable")[:, :k]
            votes[tied] = labels[nearest].sum(axis=1)
        out[start : start + KNN_CHUNK] = np.where(votes > 0, 1, -1)
    return out


def _majority(y: np.ndarray) -> int:
    return 1 if y.sum() > 0 else -1


def _grow_tree(X: np.ndarray, y: np.ndarray, depth_left: int) -> TreeNode:
    """A split node, or a majority leaf where the node is pure, at depth 0 or cannot split."""
    if depth_left and not np.all(y == y[0]):
        search = _SplitSearch(X)
        if search.any_valid:
            feature, threshold = search.best_gini_split(y)
            mask = X[:, feature] <= threshold
            return TreeNode(
                feature_index=feature,
                threshold=threshold,
                left=_grow_tree(X[mask], y[mask], depth_left - 1),
                right=_grow_tree(X[~mask], y[~mask], depth_left - 1),
            )
    return TreeNode(label=_majority(y))


def train_tree(data: LabeledDataset, max_depth: int = 5) -> TreeModel:
    """Greedy Gini-impurity tree; pure data yields a single leaf."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    root = _grow_tree(data.rows, data.labels, max_depth)
    return TreeModel(root, max_depth)


def tree_labels(model: TreeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)

    def assign(node: TreeNode, idx: np.ndarray) -> None:
        if node.label is not None:
            out[idx] = node.label
            return
        mask = X[idx, node.feature_index] <= node.threshold
        assign(node.left, idx[mask])
        assign(node.right, idx[~mask])

    assign(model.root, np.arange(X.shape[0]))
    return out


def save_model(model, path: str | Path, columns: Sequence[int], positive_class: str) -> None:
    """Write `model`, which tells `positive_class` from the rest, as a `model/4` document.

    The document states once the packet layout it reads
    (`feature_schema`), the fingerprint `columns` its features are, in
    order, its `kind` and its `positive_class`; then come the kind's own
    parameters, a vote's under the keys `boosted`, `knn` and `tree`. kNN
    `rows` and `labels` go through `documents.pack`, so the bytes written
    depend on zlib's deflate output as well as the model. The document
    passes `load_model`'s checks before it is written; one that fails
    them raises ValueError and writes nothing.
    """
    kind, params = _params(model)
    doc = {"schema": MODEL_SCHEMA, "feature_schema": FEATURE_SCHEMA, "columns": list(columns)}
    doc.update(kind=kind, positive_class=positive_class, **params)
    _model_from_doc(doc, None)
    save_doc(path, doc)


def _params(model) -> tuple:
    """(kind, parameters): the model's kind and the fields only that kind has."""
    if isinstance(model, BoostedModel):
        return "boosted", {
            "initial_score": model.initial_score,
            "stages": [
                [s.feature_index, s.threshold, s.left_value, s.right_value]
                for s in model.stages
            ],
            "training_deviance": list(model.training_deviance),
        }
    if isinstance(model, KnnModel):
        return "knn", {
            "k": model.k,
            "rows": pack(model.rows, "<f8"),
            "labels": pack(model.labels, "<i1"),
        }
    if isinstance(model, TreeModel):
        return "tree", {"max_depth": model.max_depth, "root": _node_doc(model.root)}
    if isinstance(model, VoteModel):
        members = {"boosted": model.boosted, "knn": model.knn, "tree": model.tree}
        return "vote", {name: _params(member)[1] for name, member in members.items()}
    raise TypeError(f"cannot persist {type(model).__name__}")


def _node_doc(node: TreeNode) -> dict:
    if node.label is not None:
        return {"label": node.label}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_doc(node.left),
        "right": _node_doc(node.right),
    }


def load_model(path: str | Path, decoded: dict | None = None) -> tuple:
    """(model, columns, positive_class) of a `model/4` document.

    `columns` are the fingerprint columns the model reads, in order, and
    `positive_class` the class it labels +1; the model itself holds
    neither.

    `decoded` maps packed arrays already decoded to their read-only
    arrays. Models loaded with the same dict decode equal packed text
    once and share the array; the caller decides how long it lives.
    """
    return load_doc(path, lambda doc: _model_from_doc(doc, decoded), "model")


def _model_from_doc(doc, decoded: dict | None) -> tuple:
    """(model, columns, positive_class), rejecting any document that would fail or mislead.

    Every member reads the document's `columns`: a feature index must be
    below their number, and kNN rows must be exactly that wide. Packed kNN
    arrays are decoded through `decoded` (see `documents.unpack`).
    """
    schema = require(doc, "schema", "model")
    if schema != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema: {schema!r}")
    feature_schema = require(doc, "feature_schema", "model")
    if feature_schema != FEATURE_SCHEMA:
        raise ValueError(f"unsupported feature schema: {feature_schema!r}")
    columns = _checked_columns(require_list(doc, "columns", "model"))
    kind = require(doc, "kind", "model")
    positive_class = require_str(doc, "positive_class", "model")
    shared = len(columns), decoded
    if kind != "vote":
        return _member_from_doc(kind, doc, *shared), columns, positive_class
    names = ("boosted", "knn", "tree")
    members = (_member_from_doc(name, require(doc, name, "model"), *shared) for name in names)
    return VoteModel(*members), columns, positive_class


def _member_from_doc(kind, doc, width: int, decoded: dict | None):
    if kind == "boosted":
        deviance = require_list(doc, "training_deviance", "model")
        model = BoostedModel(
            initial_score=finite(require(doc, "initial_score", "model"), "initial_score", "model"),
            stages=tuple(_stump_from_doc(s, width) for s in require_list(doc, "stages", "model")),
            training_deviance=tuple(finite(v, "training_deviance", "model") for v in deviance),
        )
        reach = abs(model.initial_score)  # bounds every partial sum `boosted_scores` forms
        for s in model.stages:
            reach += max(abs(s.left_value), abs(s.right_value))
        if not reach <= sys.float_info.max:
            raise ValueError("model scores can overflow the float range")
        return model
    if kind == "knn":
        # `unpack` has checked the rows to be finite, 2-D and of positive
        # shape, once per decoded array.
        rows = unpack(doc, "rows", "model", "<f8", 2, decoded)
        if rows.shape[1] != width:
            raise ValueError(f"model rows must have {width} columns, got {rows.shape[1]}")
        labels = _plus_minus_one(unpack(doc, "labels", "model", "<i1", 1, decoded))
        if labels.shape != (rows.shape[0],):
            raise ValueError("rows and labels must have equal length")
        k = int_in(require(doc, "k", "model"), "k", "model", 1, len(rows))
        return KnnModel(rows, labels, k)
    if kind == "tree":
        max_depth = int_in(require(doc, "max_depth", "model"), "max_depth", "model", 1)
        root = _node_from_doc(require(doc, "root", "model"), width, max_depth)
        return TreeModel(root, max_depth)
    raise ValueError(f"unknown model kind {kind!r}")


def _checked_columns(columns: list) -> list:
    """`columns` if they are one or more distinct fingerprint column indices."""
    in_range = all(type(c) is int and 0 <= c < FINGERPRINT_DIM for c in columns)
    if not columns or not in_range or len(set(columns)) != len(columns):
        count, dim = max(len(columns), 1), FINGERPRINT_DIM
        raise ValueError(f"model columns must be {count} distinct integers in [0, {dim})")
    return columns


def _stump_from_doc(stage, width: int) -> Stump:
    if not isinstance(stage, list) or len(stage) != 4:
        raise ValueError("model stage must be [feature_index, threshold, left_value, right_value]")
    feature, threshold, left, right = stage
    return Stump(
        int_in(feature, "feature_index", "model", 0, width - 1),
        finite(threshold, "threshold", "model"),
        finite(left, "left_value", "model"),
        finite(right, "right_value", "model"),
    )


def _node_from_doc(doc, width: int, depth_left: int) -> TreeNode:
    if isinstance(doc, dict) and "label" in doc:
        if type(doc["label"]) is not int or doc["label"] not in (1, -1):
            raise ValueError(f"tree leaf label must be +1 or -1, got {doc['label']!r}")
        return TreeNode(label=doc["label"])
    if depth_left == 0:
        raise ValueError("tree has a split below its max_depth")
    feature = require(doc, "feature_index", "model")
    return TreeNode(
        feature_index=int_in(feature, "feature_index", "model", 0, width - 1),
        threshold=finite(require(doc, "threshold", "model"), "threshold", "model"),
        left=_node_from_doc(require(doc, "left", "model"), width, depth_left - 1),
        right=_node_from_doc(require(doc, "right", "model"), width, depth_left - 1),
    )


@dataclass(frozen=True)
class VoteModel:
    """Bundle of the three classifiers used for majority voting."""

    boosted: BoostedModel
    knn: KnnModel
    tree: TreeModel

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority label of the three members (odd voters, never tied).

        Two +1/-1 votes that agree decide a majority of three, so each row
        gets its boosted label where the tree member agrees and its kNN
        label where they differ. Only those rows are searched, and none
        when every row is decided.
        """
        X = np.asarray(X, dtype=np.float64)
        labels = self.boosted.predict(X)
        undecided = np.flatnonzero(labels != self.tree.predict(X))
        if undecided.size:
            labels[undecided] = knn_labels(self.knn, X[undecided])
        return labels
