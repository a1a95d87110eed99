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
search forms is an integer below 2^53, as the tree's label counts are,
and one sample-major int64 prefix sum per stage forms them exactly. A
vote labels rows with its boosted and tree members first and searches
kNN neighbours only for the rows where they differ.

A model holds only what it predicts with, in arrays: boosted stages as
the rows of one table, a tree as the rows of a heap. The one-vs-all
facts live in its `model/5` JSON document alone: the packet layout
(`FEATURE_SCHEMA`), the fingerprint columns the model reads and the
class it labels +1. `save_model` takes them beside the model and
`load_model` returns them beside it. The document packs every array as
base64 text of its zlib-deflated little-endian bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .documents import (
    finite, int_in, load_doc, pack, require, require_list, require_str, save_doc, unpack
)
from .features import FEATURE_SCHEMA, FINGERPRINT_DIM

MAX_STAGES = 100
# A tree of max_depth d holds 2^(d + 1) - 1 heap rows, so d is bounded too.
MAX_DEPTH = 16
MODEL_SCHEMA = "model/5"


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
class BoostedModel:
    """`stages` holds n stumps [feature, threshold, left, right], x[feature] <= threshold
    taking the left value, and `training_deviance` the fit's n + 1 mean deviances."""

    initial_score: float
    stages: np.ndarray
    training_deviance: np.ndarray

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
class TreeModel:
    """A heap of 2^(max_depth + 1) - 1 rows [feature, threshold, label].

    Row i sends x[feature] <= threshold to row 2i + 1 and every other row,
    NaN included, to 2i + 2. A split's label is 0; a leaf is [-1, 0, +/-1];
    a row below a leaf is [-1, 0, 0], so each tree has one encoding.
    """

    nodes: np.ndarray
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return tree_labels(self, X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, from one exp
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    """Boosting's gain sum_L^2/n_L + sum_R^2/n_R, which orders splits as squared error does,
    formed in the float64 array `left` operation for operation as written."""
    right = total - left
    np.divide(np.square(right, out=right), right_n, out=right)
    np.divide(np.square(left, out=left), left_n, out=left)
    return np.add(left, right, out=left)


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
    once per search, feature-major and ascending within a column, so the
    tie rule picks the first top score. Each boosting stage (or tree node)
    only brings new target values.

    The targets are integers whose absolute values sum to below 2^53:
    the tree's 0/1 labels, and boosting's residuals on `_on_grid`. Every
    partial sum of them is then an integer of magnitude below 2^53,
    exact in int64 and in float64 in any order of adding, so each
    candidate is scored from its exact left sum and the exact total, and
    the split is bit-identical to scoring every boundary and masking the
    rest. Columns with more than two values are argsorted once into an
    (n, m) row-index matrix, in whatever order within a run of equal
    values; each call gathers the target through it as int64 and takes
    one sample-major cumsum, read at `boundary * m + col`. A two-valued
    column has one candidate, between its low and its high value, and is
    not sorted: its rows at the low value form the 0/1 matrix `low`, and
    one product `low @ target` gives every such left sum. `left_rows`
    hands back the partition of the last pick.
    """

    def __init__(self, X: np.ndarray):
        n = X.shape[0]
        lo, hi = X.min(axis=0), X.max(axis=0)
        varies = lo < hi
        two = varies & ((X == lo) | (X == hi)).all(axis=0)
        multi, two = np.flatnonzero(varies & ~two), np.flatnonzero(two)
        self.order = np.argsort(X[:, multi], axis=0)
        xs = np.take_along_axis(X[:, multi], self.order, axis=0)
        boundary, col = np.nonzero(xs[1:] > xs[:-1])
        self.low = np.ascontiguousarray((X[:, two] == lo[two]).T, dtype=np.float64)
        features = np.concatenate([multi[col], two])
        listed = np.argsort(features, kind="stable")  # into feature order
        self.features = features[listed]
        sums_at = [boundary * multi.size + col, n * multi.size + np.arange(two.size)]
        self.sums_at = np.concatenate(sums_at)[listed]
        self.thresholds = np.concatenate(
            [_midpoint(xs[boundary, col], xs[boundary + 1, col]), _midpoint(lo[two], hi[two])]
        )[listed]
        left_n = np.concatenate([boundary + 1.0, self.low.sum(axis=1)])[listed]
        self.sizes = left_n, n - left_n
        self.any_valid = bool(self.features.size)

    def _left_sums(self, target: np.ndarray) -> np.ndarray:
        """Every candidate's sum of integer `target` over its left rows, as float64."""
        n, m = self.order.shape
        sums = np.empty(n * m + len(self.low), dtype=np.int64)
        cum = sums[: n * m].reshape(n, m)  # take fills it directly: mode "raise" would copy
        np.cumsum(target.astype(np.int64).take(self.order, out=cum, mode="clip"), axis=0, out=cum)
        sums[n * m :] = self.low @ target
        return sums.take(self.sums_at).astype(np.float64)

    def _best(self, scores: np.ndarray) -> tuple:
        """(feature, threshold) of the top score, the first listed of tied ones; keeps the pick."""
        self.pick = int(np.argmax(scores))
        return int(self.features[self.pick]), float(self.thresholds[self.pick])

    def best_split(self, target: np.ndarray) -> tuple:
        """(feature, threshold) minimizing the squared error of leaf means of integer `target`."""
        return self._best(_gain(self._left_sums(target), target.sum(), *self.sizes))

    def best_gini_split(self, labels: np.ndarray) -> tuple:
        """(feature, threshold) minimizing the weighted Gini impurity of +/-1 labels."""
        pos = (labels > 0).astype(np.float64)
        return self._best(_gini(self._left_sums(pos), pos.sum(), *self.sizes))

    def left_rows(self) -> np.ndarray:
        """Mask of the rows the last pick sends left, x <= threshold, off its sort or `low` row."""
        n, m = self.order.shape
        at = self.sums_at[self.pick]
        if at >= n * m:
            return self.low[at - n * m] > 0
        return np.bincount(self.order[: at // m + 1, at % m], minlength=n) > 0


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
    y01 = (data.labels > 0).astype(np.float64)
    y = data.labels.astype(np.float64)  # +/-1 as floats: `_row_loss` multiplies without a cast
    p0 = float(y01.mean())
    initial = float(np.log(p0 / (1.0 - p0)))
    scores = np.full(len(y), initial)

    search = _SplitSearch(data.rows)
    loss = _row_loss(y, scores)
    deviance = [float(loss.mean())]
    stages = []
    for _ in range(n_stages if search.any_valid else 0):
        prob = _sigmoid(scores)
        resid = y01 - prob
        weight = prob * (1.0 - prob)
        feature, threshold = search.best_split(_on_grid(resid))
        left = search.left_rows()
        values = []
        for rows in (left.nonzero()[0], (~left).nonzero()[0]):
            value, loss[rows] = _leaf(resid[rows], weight[rows], y[rows], scores[rows], loss[rows])
            values.append(value)
        stages.append((feature, threshold, *values))
        scores = scores + np.where(left, *values)
        deviance.append(float(loss.mean()))
    return BoostedModel(initial, np.array(stages).reshape(-1, 4), np.array(deviance))


def boosted_scores(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """The initial score plus each stage's leaf value, added one stage at a time in order."""
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.initial_score)
    for feature, threshold, left, right in model.stages.tolist():
        scores += np.where(X[:, int(feature)] <= threshold, left, right)
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


def _grow_tree(X: np.ndarray, y: np.ndarray, depth_left: int, nodes: np.ndarray, at: int) -> None:
    """Fill heap row `at` and below: a split, or a majority leaf where the
    node is pure, at depth 0 or cannot split."""
    if depth_left and not np.all(y == y[0]):
        search = _SplitSearch(X)
        if search.any_valid:
            nodes[at, :2] = search.best_gini_split(y)
            mask = search.left_rows()
            del search  # free its arrays before the children build theirs
            _grow_tree(X[mask], y[mask], depth_left - 1, nodes, 2 * at + 1)
            _grow_tree(X[~mask], y[~mask], depth_left - 1, nodes, 2 * at + 2)
            return
    nodes[at, 2] = _majority(y)


def train_tree(data: LabeledDataset, max_depth: int = 5) -> TreeModel:
    """Greedy Gini-impurity tree; pure data yields a single leaf."""
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be in 1..{MAX_DEPTH}")
    nodes = np.tile([-1.0, 0.0, 0.0], (2 ** (max_depth + 1) - 1, 1))
    _grow_tree(data.rows, data.labels, max_depth, nodes, 0)
    return TreeModel(nodes, max_depth)


def tree_labels(model: TreeModel, X: np.ndarray) -> np.ndarray:
    """Each row's leaf label, all rows stepping down one level per round."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0])
    at = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(model.max_depth):
        feature, threshold, _ = model.nodes[at].T
        split = feature >= 0
        if not split.any():
            break
        # a leaf's feature -1 reads the last column, and its row stays put
        right = ~(X[rows, feature.astype(np.intp)] <= threshold)
        at = np.where(split, 2 * at + 1 + right, at)
    return model.nodes[at, 2].astype(np.int64)


def save_model(model, path: str | Path, columns: Sequence[int], positive_class: str) -> None:
    """Write `model`, which tells `positive_class` from the rest, as a `model/5` document.

    The document states once the packet layout it reads
    (`feature_schema`), the fingerprint `columns` its features are, in
    order, its `kind` and its `positive_class`; then come the kind's own
    parameters, a vote's under the keys `boosted`, `knn` and `tree`. Its
    arrays go through `documents.pack`, so the bytes written depend on
    zlib's deflate output as well as the model. The document
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
            "stages": pack(model.stages, "<f8"),
            "training_deviance": pack(model.training_deviance, "<f8"),
        }
    if isinstance(model, KnnModel):
        return "knn", {
            "k": model.k,
            "rows": pack(model.rows, "<f8"),
            "labels": pack(model.labels, "<i1"),
        }
    if isinstance(model, TreeModel):
        return "tree", {"max_depth": model.max_depth, "nodes": pack(model.nodes, "<f8")}
    if isinstance(model, VoteModel):
        members = {"boosted": model.boosted, "knn": model.knn, "tree": model.tree}
        return "vote", {name: _params(member)[1] for name, member in members.items()}
    raise TypeError(f"cannot persist {type(model).__name__}")


def load_model(path: str | Path, decoded: dict | None = None) -> tuple:
    """(model, columns, positive_class) of a `model/5` document.

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
    below their number, and kNN rows must be exactly that wide. Packed
    arrays are decoded through `decoded` (see `documents.unpack`), which
    has checked them to be finite and of the field's rank.
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
        initial = finite(require(doc, "initial_score", "model"), "initial_score", "model")
        stages = unpack(doc, "stages", "model", "<f8", 2, decoded)
        if stages.shape[1] != 4:
            raise ValueError(f"model stages must have 4 columns, got {stages.shape[1]}")
        _check_features(stages[:, 0], width, "model stage")
        deviance = unpack(doc, "training_deviance", "model", "<f8", 1, decoded)
        if len(deviance) != len(stages) + 1:
            raise ValueError("model training_deviance must hold one value more than stages")
        # `reach` bounds every partial sum `boosted_scores` forms, added in its order.
        with np.errstate(over="ignore"):
            reach = np.cumsum(np.append(abs(initial), np.abs(stages[:, 2:]).max(axis=1)))[-1]
        if not reach <= sys.float_info.max:
            raise ValueError("model scores can overflow the float range")
        return BoostedModel(initial, stages, deviance)
    if kind == "knn":
        rows = unpack(doc, "rows", "model", "<f8", 2, decoded)
        if rows.shape[1] != width:
            raise ValueError(f"model rows must have {width} columns, got {rows.shape[1]}")
        labels = _plus_minus_one(unpack(doc, "labels", "model", "<i1", 1, decoded))
        if labels.shape != (rows.shape[0],):
            raise ValueError("rows and labels must have equal length")
        k = int_in(require(doc, "k", "model"), "k", "model", 1, len(rows))
        return KnnModel(rows, labels, k)
    if kind == "tree":
        max_depth = int_in(require(doc, "max_depth", "model"), "max_depth", "model", 1, MAX_DEPTH)
        return TreeModel(_checked_nodes(doc, width, max_depth, decoded), max_depth)
    raise ValueError(f"unknown model kind {kind!r}")


def _checked_columns(columns: list) -> list:
    """`columns` if they are one or more distinct fingerprint column indices."""
    in_range = all(type(c) is int and 0 <= c < FINGERPRINT_DIM for c in columns)
    if not columns or not in_range or len(set(columns)) != len(columns):
        count, dim = max(len(columns), 1), FINGERPRINT_DIM
        raise ValueError(f"model columns must be {count} distinct integers in [0, {dim})")
    return columns


def _check_features(features: np.ndarray, width: int, what: str) -> None:
    """Raise unless every value of `features` is an integer in [0, width); -0.0 is not."""
    bad = np.signbit(features) | (features != np.floor(features)) | (features >= width)
    if bad.any():
        got, high = float(features[bad][0]), width - 1
        raise ValueError(f"{what} feature_index must be an integer in [0, {high}], got {got!r}")


def _checked_nodes(doc, width: int, max_depth: int, decoded: dict | None) -> np.ndarray:
    """The tree's heap rows, if they are the one encoding (see `TreeModel`) of a tree
    of `max_depth` levels: a row splits where its feature is not negative, and
    only the root and the children of splits are reached."""
    nodes = unpack(doc, "nodes", "model", "<f8", 2, decoded)
    size = 2 ** (max_depth + 1) - 1
    if nodes.shape != (size, 3):
        raise ValueError(f"tree nodes must have shape [{size}, 3], got {list(nodes.shape)}")
    feature, _, label = nodes.T
    split = feature >= 0
    if split[size // 2 :].any():
        raise ValueError("tree has a split below its max_depth")
    _check_features(feature[split], width, "tree")
    reached = np.ones(size, dtype=bool)
    for depth in range(max_depth):  # level depth + 1 hangs from level depth
        level = slice(2**depth - 1, 2 ** (depth + 1) - 1)
        reached[level.stop : 2 * level.stop + 1] = np.repeat(reached[level] & split[level], 2)
    leaf = reached & ~split
    bad = leaf & (np.abs(label) != 1)
    if bad.any():
        raise ValueError(f"tree leaf label must be +1 or -1, got {float(label[bad][0])!r}")
    canonical = np.tile([-1.0, 0.0, 0.0], (size, 1))
    canonical[reached & split, :2] = nodes[reached & split, :2]
    canonical[leaf, 2] = label[leaf]
    differs = (canonical.view(np.int64) != nodes.view(np.int64)).any(axis=1)
    if differs.any():
        at = int(np.argmax(differs))
        expected, got = canonical[at].tolist(), nodes[at].tolist()
        raise ValueError(f"tree row {at} must be {expected}, got {got}")
    return nodes


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
