"""Scalar and dense reference paths that the library's batch code replaced.

Each labels or splits one thing at a time, the plain way, so the tests
can hold `model.predict(X)` and `ml._SplitSearch` against them.
"""

import numpy as np

from iotprint import ml
from iotprint.ml import TreeNode


def predict_boosted(model, x) -> tuple:
    """(label, score) of one row, stage by stage; a score >= 0 maps to +1."""
    score = model.initial_score
    for stump in model.stages:
        leaf = stump.left_value if x[stump.feature_index] <= stump.threshold else stump.right_value
        score += model.learning_rate * leaf
    return (1 if score >= 0 else -1), score


def predict_knn(model, x) -> int:
    """Label of one row by a stable sort of its summed squared differences.

    The kNN tie rule holds for the distances each path computes. The
    batch `ml.knn_labels` uses the expanded form |q|^2 + |r|^2 - 2 q.r,
    this oracle sums squared differences. Distances that are equal in
    exact arithmetic can round apart in one form and not the other, so
    on non-integer data with such ties the two can disagree; on small
    integer data both are exact and agree.
    """
    dist2 = ((model.rows - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=1)
    nearest = np.argsort(dist2, kind="stable")[: model.k]
    return 1 if int(model.labels[nearest].sum()) > 0 else -1


def predict_tree(model, x) -> int:
    node = model.root
    while node.label is None:
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return int(node.label)


def predict_vote(model, x) -> int:
    """Majority label of a `VoteModel`'s three members for one row."""
    votes = predict_boosted(model.boosted, x)[0] + predict_knn(model.knn, x)
    return 1 if votes + predict_tree(model.tree, x) > 0 else -1


def dense_gini_split(X: np.ndarray, y: np.ndarray) -> tuple | None:
    """Best (feature, threshold) by weighted Gini impurity, or None.

    Scores every boundary of every column and masks the boundaries
    between equal values to -inf. Minimizing weighted impurity is
    equivalent to maximizing sum_side (pos^2 + neg^2) / n_side; ties
    resolve feature-major.
    """
    n = X.shape[0]
    if n < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    valid = xs[1:] > xs[:-1]
    if not valid.any():
        return None
    pos_sorted = (y[order] > 0).astype(np.float64)
    pos_left = np.cumsum(pos_sorted, axis=0)[:-1]
    total_pos = float((y > 0).sum())
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    neg_left = left_n - pos_left
    pos_right = total_pos - pos_left
    neg_right = right_n - pos_right
    score = (pos_left**2 + neg_left**2) / left_n + (pos_right**2 + neg_right**2) / right_n
    score[~valid] = -np.inf
    flat = int(np.argmax(score.T))
    feature, boundary = divmod(flat, score.shape[0])
    return feature, float(ml._midpoint(xs[boundary, feature], xs[boundary + 1, feature]))


def grow_tree_with_dense_gini(X: np.ndarray, y: np.ndarray, depth_left: int) -> TreeNode:
    """The tree `ml.train_tree` grows, with every split found by `dense_gini_split`."""
    majority = TreeNode(label=1 if int(y.sum()) > 0 else -1)
    if np.all(y == y[0]):
        return TreeNode(label=int(y[0]))
    if depth_left == 0:
        return majority
    split = dense_gini_split(X, y)
    if split is None:
        return majority
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature_index=feature,
        threshold=threshold,
        left=grow_tree_with_dense_gini(X[mask], y[mask], depth_left - 1),
        right=grow_tree_with_dense_gini(X[~mask], y[~mask], depth_left - 1),
    )
