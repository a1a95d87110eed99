"""One-vs-all classifiers: boosted stumps, kNN, decision tree, voting.

The primary model is gradient boosting with depth-1 regression trees
under binomial deviance: starting from the prior log-odds, each stage
fits a stump to the negative gradient (residuals y - p) by least
squares, then sets its two leaf values with a single Newton step
(sum residual / sum p(1-p) per leaf). Predictions sum the learning-rate
scaled leaf values onto the initial score; the label is sign(score)
with ties going to +1.

All training is deterministic: stump and tree split ties resolve to the
lowest feature index then the lowest threshold, kNN distance ties at
the k-th neighbor include the smallest row index, and tied kNN votes
predict -1.

Every model labels a matrix of rows with `model.predict(X)`; the
boosted stumps and the tree find their splits through one search over
the boundaries between distinct sorted values (`_SplitSearch`).

Models persist as `model/2` JSON documents, which record the
fingerprint columns a model reads and pack kNN rows and labels as
little-endian binary in base64 text; `model/1` documents still load.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyData, KTooLarge, SingleClassData

MAX_STAGES = 100
MODEL_SCHEMA = "model/2"
MODEL_SCHEMA_V1 = "model/1"  # JSON number lists, no recorded columns; still read


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with +/-1 labels for one one-vs-all problem."""

    rows: np.ndarray
    labels: np.ndarray
    positive_class: str

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        labels = _plus_minus_one(self.labels)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")
        if labels.shape != (rows.shape[0],):
            raise ValueError("rows and labels must have equal length")
        if not np.isfinite(rows).all():
            raise ValueError("rows must be finite (no NaN or infinity)")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


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
    learning_rate: float
    n_features: int
    positive_class: str
    training_deviance: tuple = field(default=(), compare=False)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """+1/-1 per row of X; a score of exactly 0 goes to +1."""
        return np.where(boosted_scores(self, X) >= 0, 1, -1)


@dataclass(frozen=True)
class KnnModel:
    rows: np.ndarray
    labels: np.ndarray
    k: int
    positive_class: str

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

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
    n_features: int
    positive_class: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return tree_labels(self, X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _mean_deviance(labels: np.ndarray, scores: np.ndarray) -> float:
    # logistic loss log(1 + exp(-y * F)), stable for large |F|
    return float(np.logaddexp(0.0, -labels * scores).mean())


def _newton_value(resid: np.ndarray, weight: np.ndarray) -> float:
    den = float(weight.sum())
    if den <= 1e-150:
        return 0.0
    return float(resid.sum() / den)


def _safeguarded_leaf(value: float, labels: np.ndarray, scores: np.ndarray, rate: float) -> float:
    """Backtrack a Newton leaf value until it does not raise the leaf loss.

    A raw Newton step can overshoot badly once points saturate (tiny
    p(1-p) sums under a finite residual sum), which would break the
    non-increasing-deviance guarantee. The Newton direction is always a
    descent direction for the leaf, so halving terminates; a step that
    never helps collapses to 0 (loss unchanged).
    """
    if value == 0.0 or labels.size == 0:
        return value
    before = float(np.logaddexp(0.0, -labels * scores).sum())
    for _ in range(64):
        after = float(np.logaddexp(0.0, -labels * (scores + rate * value)).sum())
        if after <= before:
            return value
        value *= 0.5
    return 0.0


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


class _SplitSearch:
    """Sorted-order split search over the rows of X, for both learners.

    Feature columns are argsorted once; each boosting stage (or tree
    node) only brings new target values. The candidates are only the
    boundaries between consecutive distinct sorted values, listed once
    per search in feature-major, ascending-boundary order (the tie
    order); each threshold is the midpoint of the two values. Columns
    without a candidate are dropped, and the kept sort order is stored
    feature-major.

    A candidate's left sum is the same sequential prefix sum, over the
    same sorted targets, as a cumsum down every column, so its gain is
    bit-identical to scoring every boundary and masking the rest.
    Per-bin (histogram) sums would add in another order, move gains by
    an ulp and could flip a tied split.
    """

    def __init__(self, X: np.ndarray):
        n, _ = X.shape
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        self.fallback_threshold = float(xs[-1, 0]) if n else 0.0
        columns = np.flatnonzero((xs[1:] > xs[:-1]).any(axis=0))
        self.order = np.ascontiguousarray(order[:, columns].T)
        xs = np.ascontiguousarray(xs[:, columns].T)
        col, boundary = np.nonzero(xs[:, 1:] > xs[:, :-1])
        self.left_flat = col * n + boundary
        self.total_flat = col * n + (n - 1)
        self.left_n = (boundary + 1).astype(np.float64)
        self.right_n = n - self.left_n
        self.features = columns[col]
        self.thresholds = _midpoint(xs[col, boundary], xs[col, boundary + 1])
        self.any_valid = bool(col.size)

    def _sums(self, values: np.ndarray) -> tuple:
        """Per candidate: the sum of `values` left of it, and the column total."""
        csum = np.cumsum(values[self.order], axis=1)
        return csum.take(self.left_flat), csum.take(self.total_flat)

    def _first_max(self, score: np.ndarray) -> tuple:
        """Ties pick the lowest feature index, then the lowest threshold."""
        best = int(np.argmax(score))
        return int(self.features[best]), float(self.thresholds[best])

    def best_split(self, target: np.ndarray) -> tuple:
        """(feature, threshold) minimizing squared error of leaf means.

        Gain maximized is sum_L^2/n_L + sum_R^2/n_R, which orders splits
        identically to squared error.
        """
        left_sum, total = self._sums(target)
        gain = left_sum**2 / self.left_n + (total - left_sum) ** 2 / self.right_n
        return self._first_max(gain)

    def best_gini_split(self, labels: np.ndarray) -> tuple:
        """(feature, threshold) minimizing the weighted Gini impurity of +/-1 labels.

        Score maximized is sum_side (pos^2 + neg^2) / n_side. The counts
        are exact in float64, so only the divisions round.
        """
        pos_left, pos_total = self._sums((labels > 0).astype(np.float64))
        neg_left = self.left_n - pos_left
        pos_right = pos_total - pos_left
        neg_right = self.right_n - pos_right
        left = (pos_left**2 + neg_left**2) / self.left_n
        return self._first_max(left + (pos_right**2 + neg_right**2) / self.right_n)


def train_boosted(
    data: LabeledDataset, n_stages: int = 100, learning_rate: float = 1.0
) -> BoostedModel:
    """Fit the boosted-stump ensemble; records the deviance trajectory.

    The recorded training deviance (mean logistic loss, entry 0 before
    any stage) is non-increasing stage over stage.
    """
    if len(data) == 0:
        raise EmptyData("cannot train on an empty dataset")
    if np.all(data.labels == data.labels[0]):
        raise SingleClassData("training data contains a single class")
    if not 1 <= n_stages <= MAX_STAGES:
        raise ValueError(f"n_stages must be in 1..{MAX_STAGES}")
    X, y = data.rows, data.labels
    y01 = (y > 0).astype(np.float64)
    p0 = float(y01.mean())
    initial = float(np.log(p0 / (1.0 - p0)))
    scores = np.full(len(y), initial)

    search = _SplitSearch(X)
    deviance = [_mean_deviance(y, scores)]
    stages = []
    for _ in range(n_stages):
        prob = _sigmoid(scores)
        resid = y01 - prob
        weight = prob * (1.0 - prob)
        if search.any_valid:
            feature, threshold = search.best_split(resid)
            left = X[:, feature] <= threshold
            left_value = _safeguarded_leaf(
                _newton_value(resid[left], weight[left]), y[left], scores[left], learning_rate
            )
            right_value = _safeguarded_leaf(
                _newton_value(resid[~left], weight[~left]), y[~left], scores[~left], learning_rate
            )
        else:
            # Every feature is constant; emit a both-sides-equal stump.
            feature, threshold = 0, search.fallback_threshold
            left = np.ones(len(y), dtype=bool)
            left_value = right_value = _safeguarded_leaf(
                _newton_value(resid, weight), y, scores, learning_rate
            )
        stages.append(Stump(int(feature), threshold, left_value, right_value))
        scores = scores + learning_rate * np.where(left, left_value, right_value)
        deviance.append(_mean_deviance(y, scores))
    return BoostedModel(
        initial_score=initial,
        stages=tuple(stages),
        learning_rate=learning_rate,
        n_features=data.n_features,
        positive_class=data.positive_class,
        training_deviance=tuple(deviance),
    )


def boosted_scores(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], model.initial_score)
    for stump in model.stages:
        leaf = np.where(
            X[:, stump.feature_index] <= stump.threshold, stump.left_value, stump.right_value
        )
        scores += model.learning_rate * leaf
    return scores


def train_knn(data: LabeledDataset, k: int) -> KnnModel:
    if len(data) == 0:
        raise EmptyData("cannot train on an empty dataset")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(data):
        raise KTooLarge(f"k={k} exceeds {len(data)} training rows")
    return KnnModel(data.rows, data.labels, k, data.positive_class)


def knn_labels(
    model: KnnModel, X: np.ndarray, chunk: int = 512, labels: np.ndarray | None = None
) -> np.ndarray:
    """Batch kNN prediction via the expanded-norm distance identity.

    A partition finds each query's k-th smallest distance. Where exactly
    k distances are at most that value, they are the k nearest under the
    (distance, row index) order and the vote is read off them. A row
    with a tie straddling the k-th distance (or a NaN distance) takes
    the full stable sort instead, which applies the smallest-row-index
    rule.

    `labels`, an (n_rows, m) matrix, holds the +1/-1 training labels of
    m models that share `model.rows` and `model.k`; the result then has
    one column of predicted labels per model. Neighbour selection
    depends only on the distances and k, so it runs once for all of
    them. Without `labels` the one column is `model.labels`, returned
    as a vector.
    """
    one = labels is None
    labels = model.labels[:, None] if one else labels
    X = np.asarray(X, dtype=np.float64)
    rows, k = model.rows, model.k
    row_sq = (rows**2).sum(axis=1)
    # The votes are sums of at most len(rows) ones, exact in float64.
    positive = (labels > 0).astype(np.float64)
    out = np.empty((X.shape[0], labels.shape[1]), dtype=np.int64)
    for start in range(0, X.shape[0], chunk):
        block = X[start : start + chunk]
        dist2 = (block**2).sum(axis=1)[:, None] + row_sq[None, :] - 2.0 * block @ rows.T
        kth = np.partition(dist2, k - 1, axis=1)[:, k - 1].copy()
        inside = dist2 <= kth[:, None]
        count = inside.sum(axis=1)
        votes = 2.0 * (inside @ positive) - count[:, None]  # labels are +/-1
        tied = np.flatnonzero(count != k)
        if tied.size:
            nearest = np.argsort(dist2[tied], axis=1, kind="stable")[:, :k]
            votes[tied] = labels[nearest].sum(axis=1)
        out[start : start + chunk] = np.where(votes > 0, 1, -1)
    return out[:, 0] if one else out


def _majority(y: np.ndarray) -> int:
    vote = int(y.sum())
    return 1 if vote > 0 else -1


def _grow_tree(X: np.ndarray, y: np.ndarray, depth_left: int) -> TreeNode:
    if np.all(y == y[0]):
        return TreeNode(label=int(y[0]))
    if depth_left == 0:
        return TreeNode(label=_majority(y))
    search = _SplitSearch(X)
    if not search.any_valid:
        return TreeNode(label=_majority(y))
    feature, threshold = search.best_gini_split(y)
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature_index=feature,
        threshold=threshold,
        left=_grow_tree(X[mask], y[mask], depth_left - 1),
        right=_grow_tree(X[~mask], y[~mask], depth_left - 1),
    )


def train_tree(data: LabeledDataset, max_depth: int = 5) -> TreeModel:
    """Greedy Gini-impurity tree; pure data yields a single leaf."""
    if len(data) == 0:
        raise EmptyData("cannot train on an empty dataset")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    root = _grow_tree(data.rows, data.labels, max_depth)
    return TreeModel(root, max_depth, data.n_features, data.positive_class)


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


def save_model(model, path: str | Path, columns: Sequence[int]) -> None:
    """Write `model` as a `model/2` document.

    `columns` are the fingerprint columns the model's features are, in
    order.
    """
    columns = _checked_columns(list(columns), model.n_features)
    doc = {"schema": MODEL_SCHEMA, "columns": columns}
    text = json.dumps({**doc, **_model_doc(model)}, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


def _model_doc(model) -> dict:
    if isinstance(model, BoostedModel):
        return {
            "kind": "boosted",
            "positive_class": model.positive_class,
            "n_features": model.n_features,
            "learning_rate": model.learning_rate,
            "initial_score": model.initial_score,
            "stages": [
                [s.feature_index, s.threshold, s.left_value, s.right_value]
                for s in model.stages
            ],
            "training_deviance": list(model.training_deviance),
        }
    if isinstance(model, KnnModel):
        return {
            "kind": "knn",
            "positive_class": model.positive_class,
            "k": model.k,
            "rows": _pack(model.rows, "<f8"),
            "labels": _pack(model.labels, "<i1"),
        }
    if isinstance(model, TreeModel):
        return {
            "kind": "tree",
            "positive_class": model.positive_class,
            "n_features": model.n_features,
            "max_depth": model.max_depth,
            "root": _node_doc(model.root),
        }
    if isinstance(model, VoteModel):
        return {
            "kind": "vote",
            "positive_class": model.positive_class,
            "members": [_model_doc(model.boosted), _model_doc(model.knn), _model_doc(model.tree)],
        }
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
    """(model, columns): the model and the fingerprint columns it reads, in order.

    `decoded` maps packed arrays already decoded to their read-only
    arrays. Models loaded with the same dict decode equal packed text
    once and share the array; the caller decides how long it lives.
    """
    return _load_doc(path, lambda doc: _model_from_doc(doc, decoded), "model")


def _load_doc(path: str | Path, build, what: str):
    """`build` the JSON document at `path`; nesting too deep to decode is a data error."""
    try:
        return build(json.loads(Path(path).read_text(encoding="ascii")))
    except RecursionError:
        raise ValueError(f"{what} document is nested too deeply") from None


def _model_from_doc(doc, decoded: dict | None) -> tuple:
    schema = _field(doc, "schema")
    if schema == MODEL_SCHEMA:
        model = _member_from_doc(doc, packed=True, decoded=decoded)
        return model, _checked_columns(_list(doc, "columns"), model.n_features)
    if schema == MODEL_SCHEMA_V1:
        model = _member_from_doc(doc, packed=False)
        return model, _columns_for_width(model.n_features)
    raise ValueError(f"unsupported model schema: {schema!r}")


def _member_from_doc(doc, packed: bool, decoded: dict | None = None):
    """Rebuild a model, rejecting any document that would fail or mislead at prediction.

    `packed` documents (`model/2`) hold kNN arrays packed, decoded
    through `decoded` (see `_unpack`), and a boosted model's training
    deviance; `model/1` documents hold number lists.
    """
    if not packed and _field(doc, "schema") != MODEL_SCHEMA_V1:
        raise ValueError(f"unsupported model schema: {doc['schema']!r}")
    kind = _field(doc, "kind")
    positive_class = _str(doc, "positive_class")
    if kind == "boosted":
        n_features = _int_in(_field(doc, "n_features"), "n_features", 1)
        deviance = _list(doc, "training_deviance") if packed else []
        return BoostedModel(
            initial_score=_finite(_field(doc, "initial_score"), "initial_score"),
            stages=tuple(_stump_from_doc(stage, n_features) for stage in _list(doc, "stages")),
            learning_rate=_finite(_field(doc, "learning_rate"), "learning_rate"),
            n_features=n_features,
            positive_class=positive_class,
            training_deviance=tuple(_finite(v, "training_deviance") for v in deviance),
        )
    if kind == "knn":
        if packed:
            rows = _unpack(doc, "rows", "<f8", 2, decoded=decoded)
            labels = _unpack(doc, "labels", "<i1", 1, decoded=decoded)
        else:
            rows, labels = _array(doc, "rows", 2), _list(doc, "labels")
        data = LabeledDataset(rows, labels, positive_class)
        k = _int_in(_field(doc, "k"), "k", 1, len(data))
        return KnnModel(rows=data.rows, labels=data.labels, k=k, positive_class=positive_class)
    if kind == "tree":
        n_features = _int_in(_field(doc, "n_features"), "n_features", 1)
        max_depth = _int_in(_field(doc, "max_depth"), "max_depth", 1)
        return TreeModel(
            root=_node_from_doc(_field(doc, "root"), n_features, max_depth),
            max_depth=max_depth,
            n_features=n_features,
            positive_class=positive_class,
        )
    if kind == "vote":
        members = tuple(_member_from_doc(m, packed, decoded) for m in _list(doc, "members"))
        if tuple(map(type, members)) != (BoostedModel, KnnModel, TreeModel):
            raise ValueError("vote members must be boosted, knn and tree, in that order")
        if len({(m.n_features, m.positive_class) for m in members}) != 1:
            raise ValueError("vote members differ in n_features or positive_class")
        return VoteModel(*members)
    raise ValueError(f"unknown model kind {kind!r}")


def _checked_columns(columns: list, n_features: int) -> list:
    """`columns` if they are `n_features` distinct fingerprint column indices."""
    # deferred: fingerprint imports this module
    from .fingerprint import FINGERPRINT_DIM

    in_range = all(type(c) is int and 0 <= c < FINGERPRINT_DIM for c in columns)
    if not in_range or len(set(columns)) != len(columns) or len(columns) != n_features:
        raise ValueError(
            f"model columns must be {n_features} distinct integers in [0, {FINGERPRINT_DIM})"
        )
    return columns


def _columns_for_width(width: int) -> list:
    """Columns of the feature variant `width` values wide; `model/1` records none."""
    # deferred: evaluation imports this module
    from .evaluation import VARIANT_TAGS, variant_columns

    for variant in VARIANT_TAGS:
        cols = variant_columns(variant)
        if len(cols) == width:
            return cols
    raise ValueError(f"model expects {width} features; no feature variant is that wide")


# The packed-array codec: an array field is {"dtype", "shape", "data"},
# where data is the base64 text of the array's little-endian bytes in C
# order. Every packed field of every document uses it.
def _pack(array: np.ndarray, dtype: str) -> dict:
    data = np.ascontiguousarray(array, dtype=dtype)
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise ValueError("cannot pack non-finite values")
    text = base64.b64encode(data).decode("ascii")
    return {"dtype": dtype, "shape": list(data.shape), "data": text}


def _unpack(
    doc, key: str, dtype: str, ndim: int, what: str = "model", decoded: dict | None = None
) -> np.ndarray:
    """The packed field `key`, which must hold `ndim`-D `dtype` values (finite, if floats).

    The array is read-only. `decoded` memoizes by (dtype, shape, data):
    text equal to a field it already holds returns that same array, which
    passed every check below when it was first decoded.
    """
    packed = _field(doc, key, what)
    name = f"{what} {key}"
    if _field(packed, "dtype", what) != dtype:
        raise ValueError(f"{name} dtype must be {dtype!r}, got {packed['dtype']!r}")
    shape = _list(packed, "shape", what)
    if len(shape) != ndim or not all(type(n) is int and n >= 1 for n in shape):
        raise ValueError(f"{name} shape must be {ndim} positive integers, got {shape!r}")
    text = _str(packed, "data", what)
    memo = (dtype, tuple(shape), text)
    if decoded is not None and memo in decoded:
        return decoded[memo]
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{name} data is not base64: {exc}") from None
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValueError(f"{name} data holds {len(raw)} bytes, shape {shape} needs {size}")
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    if decoded is not None:
        decoded[memo] = array
    return array


# Document checks shared by the model and profile loaders; `what` names
# the document kind in the error message.
def _field(doc, key: str, what: str = "model"):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} document lacks {key!r}")
    return doc[key]


def _list(doc, key: str, what: str = "model") -> list:
    value = _field(doc, key, what)
    if not isinstance(value, list):
        raise ValueError(f"{what} {key} must be a list")
    return value


def _str(doc, key: str, what: str = "model") -> str:
    value = _field(doc, key, what)
    if not isinstance(value, str):
        raise ValueError(f"{what} {key} must be a string")
    return value


def _finite(value, name: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"model {name} must be a finite number, got {value!r}")
    return float(value)


def _int_in(value, name: str, low: int, high: float = math.inf, what: str = "model") -> int:
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{what} {name} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _array(doc, key: str, ndim: int, what: str = "model") -> np.ndarray:
    try:
        value = np.asarray(_field(doc, key, what))
    except ValueError:  # ragged
        value = np.empty(0)
    # dtype kinds "O" (objects, out-of-range ints) and "U" (strings) are not numbers
    numeric = value.dtype.kind in "iuf" and value.ndim == ndim and value.size > 0
    if not numeric or not np.isfinite(value).all():
        raise ValueError(f"{what} {key} must be a non-empty {ndim}-D array of finite numbers")
    return np.asarray(value, dtype=np.float64)


def _stump_from_doc(stage, n_features: int) -> Stump:
    if not isinstance(stage, list) or len(stage) != 4:
        raise ValueError("model stage must be [feature_index, threshold, left_value, right_value]")
    feature, threshold, left, right = stage
    return Stump(
        _int_in(feature, "feature_index", 0, n_features - 1),
        _finite(threshold, "threshold"),
        _finite(left, "left_value"),
        _finite(right, "right_value"),
    )


def _node_from_doc(doc, n_features: int, depth_left: int) -> TreeNode:
    if isinstance(doc, dict) and "label" in doc:
        if type(doc["label"]) is not int or doc["label"] not in (1, -1):
            raise ValueError(f"tree leaf label must be +1 or -1, got {doc['label']!r}")
        return TreeNode(label=doc["label"])
    if depth_left == 0:
        raise ValueError("tree has a split below its max_depth")
    return TreeNode(
        feature_index=_int_in(_field(doc, "feature_index"), "feature_index", 0, n_features - 1),
        threshold=_finite(_field(doc, "threshold"), "threshold"),
        left=_node_from_doc(_field(doc, "left"), n_features, depth_left - 1),
        right=_node_from_doc(_field(doc, "right"), n_features, depth_left - 1),
    )


@dataclass(frozen=True)
class VoteModel:
    """Bundle of the three classifiers used for majority voting."""

    boosted: BoostedModel
    knn: KnnModel
    tree: TreeModel

    @property
    def positive_class(self) -> str:
        return self.boosted.positive_class

    @property
    def n_features(self) -> int:
        return self.boosted.n_features

    def predict(self, X: np.ndarray, knn: np.ndarray | None = None) -> np.ndarray:
        """Majority label of the three members (odd voters, never tied).

        `knn`, if given, is the kNN member's labels of X, found by a
        neighbour search shared with other models (`knn_labels` with
        `labels`).
        """
        knn = self.knn.predict(X) if knn is None else knn
        total = self.boosted.predict(X) + knn + self.tree.predict(X)
        return np.where(total > 0, 1, -1)
