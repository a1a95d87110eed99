import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iotprint import ml
from iotprint.errors import EmptyData, KTooLarge, SingleClassData
from iotprint.evaluation import assemble_one_vs_all, stratified_folds
from iotprint.ml import (
    BoostedModel,
    LabeledDataset,
    Stump,
    VoteModel,
    boosted_scores,
    knn_labels,
    load_model,
    save_model,
    train_boosted,
    train_knn,
    train_tree,
    tree_labels,
)

from oracles import (
    dense_gini_split,
    grow_tree_with_dense_gini,
    predict_boosted,
    predict_knn,
    predict_tree,
    predict_vote,
)


def dataset(rows, labels, name="pos"):
    return LabeledDataset(np.asarray(rows, dtype=float), np.asarray(labels), name)


def random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1, 1, size=(n, d))
    labels = np.where(rows[:, 0] + 0.3 * rng.normal(size=n) > 0, 1, -1)
    if np.all(labels == labels[0]):  # keep both classes present
        labels[0] = -labels[0]
    return dataset(rows, labels)


def separable_dataset():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0.1, 1.0, size=(50, 1))
    neg = rng.uniform(-1.0, -0.1, size=(50, 1))
    rows = np.vstack([pos, neg])
    labels = np.array([1] * 50 + [-1] * 50)
    return dataset(rows, labels)


# --- independent oracles -------------------------------------------------


class ReferenceSplitSearch:
    """The dense split search `ml._SplitSearch` replaced, kept as its oracle.

    It scores every boundary of every column and masks the boundaries
    between equal values to -inf.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        n, _ = X.shape
        self.order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, self.order, axis=0)
        self.midpoints = 0.5 * (xs[1:] + xs[:-1]) if n > 1 else np.empty((0, X.shape[1]))
        self.valid = xs[1:] > xs[:-1] if n > 1 else np.empty((0, X.shape[1]), dtype=bool)
        self.any_valid = bool(self.valid.any())
        self.left_n = np.arange(1, n, dtype=np.float64)[:, None]
        self.right_n = n - self.left_n
        self.fallback_threshold = float(xs[-1, 0]) if n else 0.0

    def best_split(self, target: np.ndarray) -> tuple:
        """(feature, threshold) minimizing squared error of leaf means.

        Gain maximized is sum_L^2/n_L + sum_R^2/n_R, which orders splits
        identically to squared error. Ties pick the lowest feature index,
        then the lowest threshold (argmax over a feature-major layout).
        """
        sorted_target = target[self.order]
        csum = np.cumsum(sorted_target, axis=0)
        left_sum = csum[:-1]
        total = csum[-1]
        gain = left_sum**2 / self.left_n + (total - left_sum) ** 2 / self.right_n
        gain[~self.valid] = -np.inf
        flat = int(np.argmax(gain.T))
        n_candidates = gain.shape[0]
        feature, boundary = divmod(flat, n_candidates)
        return feature, float(self.midpoints[boundary, feature])


def boosted_with_reference_search(data, n_stages):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ml, "_SplitSearch", ReferenceSplitSearch)
        return train_boosted(data, n_stages=n_stages)


def stump_search_oracle(data):
    """All features x all midpoints, minimizing squared error to the
    stage-one residuals (y01 - positive fraction)."""
    X, y = data.rows, data.labels
    y01 = (y > 0).astype(float)
    residual = y01 - y01.mean()
    best = None
    n, d = X.shape
    for f in range(d):
        values = sorted(set(X[:, f].tolist()))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2
            left = X[:, f] <= threshold
            sse = 0.0
            for side in (left, ~left):
                seg = residual[side]
                mean = seg.sum() / seg.size
                sse += float(((seg - mean) ** 2).sum())
            if best is None or sse < best[0]:
                best = (sse, f, threshold)
    return best[1], best[2]


def newton_leaf_oracle(data, feature, threshold):
    y01 = (data.labels > 0).astype(float)
    p = y01.mean()
    out = []
    for side_left in (True, False):
        num = 0.0
        den = 0.0
        for value, target in zip(data.rows[:, feature], y01):
            if (value <= threshold) == side_left:
                num += target - p
                den += p * (1 - p)
        out.append(num / den)
    return out


def knn_oracle(model, x):
    """Exhaustive distance sort; ties by row index; tied votes -> -1."""
    scored = []
    for i, row in enumerate(model.rows):
        dist = sum((float(a) - float(b)) ** 2 for a, b in zip(row, x))
        scored.append((dist, i))
    scored.sort()
    vote = sum(int(model.labels[i]) for _, i in scored[: model.k])
    return 1 if vote > 0 else -1


def reference_knn_labels(model, X, chunk=512):
    """The full stable-argsort selection `ml.knn_labels` replaced, kept as its oracle."""
    X = np.asarray(X, dtype=np.float64)
    rows = model.rows
    row_sq = (rows**2).sum(axis=1)
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], chunk):
        block = X[start : start + chunk]
        dist2 = (block**2).sum(axis=1)[:, None] + row_sq[None, :] - 2.0 * block @ rows.T
        nearest = np.argsort(dist2, axis=1, kind="stable")[:, : model.k]
        votes = model.labels[nearest].sum(axis=1)
        out[start : start + chunk] = np.where(votes > 0, 1, -1)
    return out


def gini_stump_oracle(X, y):
    best = None
    n, d = X.shape
    for f in range(d):
        values = sorted(set(X[:, f].tolist()))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2
            left = X[:, f] <= threshold
            weighted = 0.0
            for side in (left, ~left):
                side_y = y[side]
                pos = float((side_y > 0).sum()) / side_y.size
                gini = 1.0 - pos**2 - (1.0 - pos) ** 2
                weighted += side_y.size / n * gini
            if best is None or weighted < best[0]:
                best = (weighted, f, threshold)
    return best[1], best[2]


# --- boosted -------------------------------------------------------------


def test_separable_data_perfect_after_one_stage():
    data = separable_dataset()
    model = train_boosted(data, n_stages=1)
    predicted = np.where(boosted_scores(model, data.rows) >= 0, 1, -1)
    assert np.array_equal(predicted, data.labels)


def test_balanced_prior_gives_zero_initial_score():
    data = separable_dataset()  # 50/50
    model = train_boosted(data, n_stages=1)
    assert model.initial_score == 0.0


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_first_stage_stump_matches_exhaustive_oracle(seed):
    data = random_dataset(n=160, d=8, seed=seed)
    model = train_boosted(data, n_stages=1)
    feature, threshold = stump_search_oracle(data)
    stump = model.stages[0]
    assert stump.feature_index == feature
    assert stump.threshold == threshold
    left, right = newton_leaf_oracle(data, feature, threshold)
    assert math.isclose(stump.left_value, left, rel_tol=1e-9)
    assert math.isclose(stump.right_value, right, rel_tol=1e-9)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_training_deviance_non_increasing(seed):
    data = random_dataset(n=160, d=8, seed=seed)
    model = train_boosted(data, n_stages=100)
    deviance = np.asarray(model.training_deviance)
    assert deviance.size == 101
    assert np.all(np.diff(deviance) <= 1e-12)


def test_training_accuracy_close_to_one_on_noisy_data():
    data = random_dataset(n=300, d=6, seed=7)
    model = train_boosted(data)
    predicted = np.where(boosted_scores(model, data.rows) >= 0, 1, -1)
    assert (predicted == data.labels).mean() > 0.9


def test_predict_zero_stage_model():
    model = BoostedModel(0.4, (), 1.0, 3, "pos")
    assert boosted_scores(model, np.zeros((1, 3))).tolist() == [0.4]
    assert model.predict(np.zeros((1, 3))).tolist() == [1]


def test_score_zero_predicts_positive():
    model = BoostedModel(0.0, (), 1.0, 2, "pos")
    assert model.predict([[1.0, 2.0]]).tolist() == [1]


def test_scale_consistency_of_sign():
    data = random_dataset(n=120, d=5, seed=11)
    model = train_boosted(data, n_stages=20)
    scaled = BoostedModel(
        model.initial_score * 3.5,
        tuple(
            Stump(s.feature_index, s.threshold, s.left_value * 3.5, s.right_value * 3.5)
            for s in model.stages
        ),
        model.learning_rate,
        model.n_features,
        model.positive_class,
    )
    queries = np.random.default_rng(1).uniform(-1, 1, size=(50, 5))
    assert model.predict(queries).tolist() == scaled.predict(queries).tolist()
    assert model.predict(queries).tolist() == [predict_boosted(model, q)[0] for q in queries]


def test_boosted_input_validation():
    with pytest.raises(EmptyData):
        train_boosted(dataset(np.empty((0, 3)), []))
    with pytest.raises(SingleClassData):
        train_boosted(dataset([[1.0], [2.0]], [1, 1]))
    with pytest.raises(ValueError):
        train_boosted(separable_dataset(), n_stages=101)


def test_constant_features_fall_back_to_prior_fit():
    rows = np.ones((10, 3))
    labels = np.array([1] * 3 + [-1] * 7)
    model = train_boosted(dataset(rows, labels), n_stages=5)
    deviance = np.asarray(model.training_deviance)
    assert np.all(np.diff(deviance) <= 1e-12)
    # both leaves equal, so routing is irrelevant
    assert all(s.left_value == s.right_value for s in model.stages)


@st.composite
def tie_heavy_datasets(draw):
    """Small-integer columns, some duplicated, some constant, scaled so
    that midpoints are not always exact."""
    n = draw(st.integers(2, 60))
    width = draw(st.integers(1, 4))
    base = draw(hnp.arrays(np.int64, (n, width), elements=st.integers(-2, 2)))
    duplicates = draw(st.lists(st.integers(0, width - 1), max_size=3))
    constants = draw(st.lists(st.integers(-2, 2), max_size=2))
    columns = [base[:, j] for j in (*range(width), *duplicates)]
    columns += [np.full(n, value) for value in constants]
    order = draw(st.permutations(range(len(columns))))
    scale = draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3]))
    rows = np.column_stack([columns[j] for j in order]) * scale
    labels = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    labels[0], labels[-1] = 1, -1  # both classes present
    return dataset(rows, labels)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_datasets())
def test_split_search_matches_reference_on_tie_heavy_data(data):
    model = train_boosted(data, n_stages=30)
    reference = boosted_with_reference_search(data, n_stages=30)
    assert model.stages == reference.stages
    assert model.training_deviance == reference.training_deviance


def test_split_search_matches_reference_on_corpus_folds(base_profiles):
    for profile in base_profiles:
        data = assemble_one_vs_all(base_profiles, profile.device_label)
        train_idx = stratified_folds(data, k=5, seed=3).train_indices(0)
        train = LabeledDataset(data.rows[train_idx], data.labels[train_idx], data.positive_class)
        model = train_boosted(train, n_stages=100)
        reference = boosted_with_reference_search(train, n_stages=100)
        assert model.stages == reference.stages, profile.device_label
        assert model.training_deviance == reference.training_deviance, profile.device_label


_BIG = sys.float_info.max
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.5 * _BIG, _BIG),
    st.floats(-_BIG, -0.5 * _BIG),
)
# a value and the next float above it, where the plain midpoint can round up
adjacent_floats = st.floats(allow_nan=False, allow_infinity=False, max_value=_BIG / 2).map(
    lambda x: (x, float(np.nextafter(x, math.inf)))
) | st.floats(_BIG / 2, _BIG, exclude_max=True).map(lambda x: (x, float(np.nextafter(x, _BIG))))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats) | adjacent_floats, min_size=1, max_size=8))
def test_midpoint_lies_below_hi_and_is_the_plain_midpoint_elsewhere(pairs):
    lo, hi = np.array([sorted(pair) for pair in pairs]).T
    mids = ml._midpoint(lo, hi)
    for a, b, mid in zip(lo, hi, mids):
        assert _bits(ml._midpoint(a, b)) == _bits(mid)  # scalars as arrays
        with np.errstate(over="ignore"):
            plain = 0.5 * (a + b)
        expected = plain if math.isfinite(plain) else 0.5 * a + 0.5 * b
        assert _bits(mid) == _bits(expected if expected < b else a)
        if a < b:
            assert a <= mid < b


def test_splits_between_values_near_the_float_maximum_are_finite():
    data = dataset([[1.0], [1.6e308], [1.7e308]], [-1, -1, 1])
    assert dense_gini_split(data.rows, data.labels) == (0, 0.5 * 1.6e308 + 0.5 * 1.7e308)
    thresholds = [s.threshold for s in train_boosted(data, n_stages=3).stages]
    assert thresholds and all(t == 0.5 * 1.6e308 + 0.5 * 1.7e308 for t in thresholds)
    assert train_tree(data).root.threshold == thresholds[0]


def test_a_split_between_adjacent_floats_sends_the_upper_value_right():
    a, b = 1 + 2**-52, 1 + 2**-51
    assert 0.5 * (a + b) == b  # the plain midpoint would send b left
    data = dataset([[a], [a], [b], [b]], [-1, -1, 1, 1])
    tree, boosted = train_tree(data), train_boosted(data, n_stages=1)
    assert tree.root.threshold == boosted.stages[0].threshold == a
    for model in (tree, boosted):
        assert model.predict(data.rows).tolist() == [-1, -1, 1, 1]


def test_labels_must_be_plus_minus_one():
    with pytest.raises(ValueError):
        dataset([[1.0], [2.0]], [1, 0])


@pytest.mark.parametrize(
    "labels",
    [[1.5, -1], [True, -1], [1e308, -1], [2**70, -1], ["1", -1], np.array([1.0, -1.0])],
    ids=["1.5", "true", "1e308", "2**70", "string", "float-array"],
)
def test_labels_must_be_integers_before_any_cast(labels):
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        LabeledDataset(np.zeros((2, 1)), labels, "pos")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rows_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        dataset([[1.0, 2.0], [bad, 0.0]], [1, -1])


# --- knn -----------------------------------------------------------------


def test_knn_exact_match_with_k1():
    data = random_dataset(n=30, d=4, seed=5)
    model = train_knn(data, k=1)
    picked = [0, 7, 29]
    assert model.predict(data.rows[picked]).tolist() == data.labels[picked].tolist()


def test_knn_k_equals_n_is_global_majority():
    rows = np.arange(8, dtype=float).reshape(-1, 1)
    labels = np.array([1, 1, 1, -1, -1, -1, -1, -1])
    model = train_knn(dataset(rows, labels), k=8)
    assert model.predict([[100.0], [0.0]]).tolist() == [-1, -1]


def test_knn_tied_vote_predicts_negative():
    rows = np.array([[0.0], [2.0]])
    model = train_knn(dataset(rows, [1, -1]), k=2)
    assert model.predict([[1.0]]).tolist() == [-1]


def test_knn_matches_exhaustive_oracle():
    data = random_dataset(n=300, d=12, seed=13)
    model = train_knn(data, k=5)
    queries = np.random.default_rng(14).uniform(-1, 1, size=(200, 12))
    assert model.predict(queries).tolist() == [knn_oracle(model, q) for q in queries]


def test_knn_batch_agrees_with_single_queries():
    data = random_dataset(n=250, d=9, seed=15)
    model = train_knn(data, k=5)
    queries = np.random.default_rng(16).uniform(-1, 1, size=(120, 9))
    batch = knn_labels(model, queries)
    assert [predict_knn(model, q) for q in queries] == batch.tolist()


def test_knn_invariant_under_row_permutation():
    data = random_dataset(n=100, d=6, seed=17)
    perm = np.random.default_rng(18).permutation(100)
    shuffled = dataset(data.rows[perm], data.labels[perm])
    a = train_knn(data, k=7)
    b = train_knn(shuffled, k=7)
    queries = np.random.default_rng(19).uniform(-1, 1, size=(60, 6))
    assert a.predict(queries).tolist() == b.predict(queries).tolist()


@st.composite
def tie_heavy_knn_cases(draw):
    """Small-integer rows, some duplicated, with queries that repeat
    training rows and one all-NaN query, so many queries have a tie at
    the k-th distance."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    base = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-2, 2)))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
    base[: len(copies)] = base[copies]
    labels = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    fresh = draw(hnp.arrays(np.int64, (draw(st.integers(0, 6)), d), elements=st.integers(-2, 2)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    queries = np.vstack([base, fresh, np.full((1, d), np.nan)]) * scale
    model = train_knn(dataset(base * scale, labels), k=draw(st.integers(1, n)))
    return model, queries, draw(st.integers(1, 8)), scale


@settings(max_examples=300, deadline=None)
@given(tie_heavy_knn_cases())
def test_knn_labels_match_reference_on_tie_heavy_data(case):
    model, queries, chunk, scale = case
    labels = knn_labels(model, queries, chunk=chunk)
    assert labels.tolist() == reference_knn_labels(model, queries, chunk=chunk).tolist()
    if scale == 1.0:  # small integers: both distance formulas are exact
        assert labels.tolist() == [predict_knn(model, q) for q in queries]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_knn_cases(), st.data())
def test_knn_labels_shared_search_matches_per_model_labels(case, data):
    """Several label vectors over one `rows` and `k` give, column by column,
    the labels of each model's own `knn_labels` and of the full sort."""
    model, queries, chunk, _ = case
    n = len(model.labels)
    signs = hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1]))
    extra = data.draw(st.lists(signs, max_size=4))
    models = [model, *(train_knn(dataset(model.rows, y), model.k) for y in extra)]
    labels = np.column_stack([m.labels for m in models])
    shared = knn_labels(model, queries, chunk=chunk, labels=labels)
    assert shared.shape == (len(queries), len(models))
    for column, m in zip(shared.T, models):
        assert column.tolist() == knn_labels(m, queries, chunk=chunk).tolist()
        assert column.tolist() == reference_knn_labels(m, queries, chunk=chunk).tolist()


def test_knn_labels_sort_only_tied_rows(monkeypatch):
    data = random_dataset(n=300, d=8, seed=21)
    model = train_knn(data, k=5)
    queries = np.random.default_rng(22).uniform(-1, 1, size=(100, 8))
    queries[37] = np.nan  # no k-th distance: the one row that needs the sort
    expected = reference_knn_labels(model, queries, chunk=64)
    sorted_shapes = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sorted_shapes.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    assert knn_labels(model, queries, chunk=64).tolist() == expected.tolist()
    assert sorted_shapes == [(1, 300)]


def test_knn_labels_match_reference_on_corpus(base_profiles):
    data = assemble_one_vs_all(base_profiles, base_profiles[0].device_label)
    model = train_knn(data, k=5)
    assert np.array_equal(knn_labels(model, data.rows), reference_knn_labels(model, data.rows))


def test_knn_validation():
    data = random_dataset(n=10, d=2, seed=20)
    with pytest.raises(KTooLarge):
        train_knn(data, k=11)
    with pytest.raises(ValueError):
        train_knn(data, k=0)
    with pytest.raises(EmptyData):
        train_knn(dataset(np.empty((0, 2)), []), k=1)


# --- tree ----------------------------------------------------------------


def test_pure_data_yields_single_leaf():
    rows = np.random.default_rng(21).uniform(size=(12, 3))
    model = train_tree(dataset(rows, [1] * 12), max_depth=4)
    assert model.root.label == 1
    assert model.predict(rows).tolist() == [1] * 12


def test_xor_pattern_needs_depth_two():
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    labels = np.array([-1, 1, 1, -1] * 10)
    model = train_tree(dataset(rows, labels), max_depth=2)
    assert tree_labels(model, rows).tolist() == labels.tolist()


def test_depth_one_tree_matches_gini_oracle():
    data = random_dataset(n=150, d=7, seed=22)
    model = train_tree(data, max_depth=1)
    feature, threshold = gini_stump_oracle(data.rows, data.labels)
    assert model.root.feature_index == feature
    assert model.root.threshold == threshold


def test_tree_depth_bound_respected():
    data = random_dataset(n=200, d=5, seed=23)
    model = train_tree(data, max_depth=3)

    def depth(node):
        if node.label is not None:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(model.root) <= 3


def test_tree_batch_agrees_with_single():
    data = random_dataset(n=150, d=5, seed=24)
    model = train_tree(data, max_depth=4)
    queries = np.random.default_rng(25).uniform(-1, 1, size=(80, 5))
    assert tree_labels(model, queries).tolist() == [predict_tree(model, q) for q in queries]


def _node_bits(node):
    """A tree node as nested tuples, thresholds by their bits."""
    if node.label is not None:
        return node.label
    split = (node.feature_index, _bits(node.threshold))
    return split, _node_bits(node.left), _node_bits(node.right)


def _assert_tree_matches_dense_gini(data, max_depth):
    model = train_tree(data, max_depth)
    reference = grow_tree_with_dense_gini(data.rows, data.labels, max_depth)
    assert _node_bits(model.root) == _node_bits(reference)


# Gini's (pos^2 + neg^2)/n and the boosting gain (pos - neg)^2/n order
# splits alike in exact arithmetic; on these rows they round apart and
# pick different roots, so the tree must keep Gini's own expression.
_GINI_ROUNDING_CASE = dataset(
    np.array(
        [
            [0, -2, 2, 0, 0, 2, 1, 1, -1, -1, 2, 0],
            [-2, -1, -1, 1, 1, -2, 2, 1, -1, -1, 0, 0],
        ]
    ).T,
    [1, 1, 1, 1, -1, -1, 1, 1, 1, 1, -1, -1],
)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_datasets(), st.integers(1, 6))
@example(_GINI_ROUNDING_CASE, 1)
def test_tree_matches_dense_gini_tree_on_tie_heavy_data(data, max_depth):
    _assert_tree_matches_dense_gini(data, max_depth)


def test_tree_matches_dense_gini_tree_on_corpus_folds(base_profiles):
    for profile in base_profiles:
        data = assemble_one_vs_all(base_profiles, profile.device_label)
        folds = stratified_folds(data, k=5, seed=3)
        _assert_tree_matches_dense_gini(data, 5)
        for fold in range(5):
            idx = folds.train_indices(fold)
            train = LabeledDataset(data.rows[idx], data.labels[idx], data.positive_class)
            _assert_tree_matches_dense_gini(train, 5)


def test_tree_validation():
    with pytest.raises(EmptyData):
        train_tree(dataset(np.empty((0, 2)), []))
    with pytest.raises(ValueError):
        train_tree(random_dataset(10, 2, 1), max_depth=0)


# --- voting --------------------------------------------------------------


def _trio(seed=26):
    data = random_dataset(n=120, d=4, seed=seed)
    return train_boosted(data, n_stages=20), train_knn(data, k=5), train_tree(data, 4), data


def test_vote_majority():
    boosted, knn, tree, data = _trio()
    vote = VoteModel(boosted, knn, tree)
    queries = data.rows[:25]
    assert vote.predict(queries).tolist() == [predict_vote(vote, q) for q in queries]


def test_vote_agreement_cases():
    boosted, knn, tree, data = _trio()
    agree = [
        q
        for q in data.rows
        if predict_boosted(boosted, q)[0] == predict_knn(knn, q) == predict_tree(tree, q)
    ]
    assert agree, "expected at least one unanimous point"
    assert VoteModel(boosted, knn, tree).predict(agree).tolist() == knn.predict(agree).tolist()


# --- persistence ---------------------------------------------------------


def test_model_save_load_preserves_predictions(tmp_path):
    boosted, knn, tree, data = _trio(seed=27)
    vote = VoteModel(boosted, knn, tree)
    queries = np.random.default_rng(28).uniform(-1, 1, size=(40, 4))
    for name, model in [("b", boosted), ("k", knn), ("t", tree), ("v", vote)]:
        path = tmp_path / f"{name}.model.json"
        save_model(model, path, range(4))
        back, columns = load_model(path)
        assert columns == [0, 1, 2, 3]
        assert back.predict(queries).tolist() == model.predict(queries).tolist()
        if name == "b":  # the scores too, not only their signs
            assert boosted_scores(back, queries).tolist() == boosted_scores(model, queries).tolist()


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_save_load_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(29)
    rows = rng.normal(size=(60, 5)) * 10.0 ** rng.integers(-300, 300, size=(60, 5))
    rows[0, :3] = [-0.0, 5e-324, -1.5e300]
    labels = np.where(rng.random(60) < 0.5, 1, -1)
    data = dataset(rows, labels)
    boosted, knn, tree = train_boosted(data, n_stages=8), train_knn(data, k=3), train_tree(data, 3)
    columns = [7, 3, 99, 0, 42]
    for model in (boosted, knn, tree, VoteModel(boosted, knn, tree)):
        path = tmp_path / "model.json"
        save_model(model, path, columns)
        back, back_columns = load_model(path)
        assert type(back) is type(model) and back_columns == columns
        for member, original in (
            zip((back.boosted, back.knn, back.tree), (boosted, knn, tree))
            if isinstance(back, VoteModel)
            else [(back, model)]
        ):
            if isinstance(original, type(knn)):
                assert _same_bits(member.rows, original.rows)
                assert _same_bits(member.labels, original.labels)
                assert (member.k, member.positive_class) == (original.k, original.positive_class)
            else:
                assert member == original
            if isinstance(original, BoostedModel):
                assert member.training_deviance == original.training_deviance


def test_models_loaded_with_one_dict_decode_equal_packed_text_once(tmp_path, monkeypatch):
    data = random_dataset(n=40, d=5, seed=31)
    trained = [train_knn(d, 3) for d in (data, dataset(data.rows, -data.labels), data)]
    paths = [tmp_path / f"{i}.model.json" for i in range(3)]
    for model, path in zip(trained, paths):
        save_model(model, path, range(5))
    decodes = []
    b64decode = ml.base64.b64decode

    def counting(*args, **kwargs):
        decodes.append(1)
        return b64decode(*args, **kwargs)

    monkeypatch.setattr(ml.base64, "b64decode", counting)

    decoded = {}
    shared = [load_model(path, decoded)[0] for path in paths]
    assert len(decodes) == 3  # the rows once, and each of the two label vectors
    assert shared[0].rows is shared[1].rows is shared[2].rows
    assert not shared[0].rows.flags.writeable
    for model, original in zip(shared, trained):
        assert knn_labels(model, data.rows).tolist() == knn_labels(original, data.rows).tolist()

    decodes.clear()
    alone = [load_model(path)[0] for path in paths]
    assert len(decodes) == 6 and alone[0].rows is not alone[1].rows

    # Equal text under another shape is no hit: its size is checked again.
    doc = json.loads(paths[0].read_text())
    doc["rows"]["shape"] = [40, 6]
    paths[0].write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bytes"):
        load_model(paths[0], decoded)


@pytest.mark.parametrize(
    "columns", [[0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 100], [-1, 0, 1, 2], [0.0, 1, 2, 3]]
)
def test_save_model_rejects_bad_columns_and_writes_nothing(tmp_path, columns):
    _, knn, _, _ = _trio(seed=30)
    path = tmp_path / "knn.model.json"
    with pytest.raises(ValueError, match="columns"):
        save_model(knn, path, columns)
    assert not path.exists()


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope", "kind": "boosted"}')
    with pytest.raises(ValueError):
        load_model(path)


def test_save_model_rejects_nan_and_writes_nothing(tmp_path):
    model = BoostedModel(0.0, (Stump(0, 0.5, math.nan, 1.0),), 1.0, 1, "pos")
    knn = ml.KnnModel(np.array([[0.0], [math.inf]]), np.array([1, -1]), 1, "pos")
    for model in (model, knn):
        path = tmp_path / "nan.model.json"
        with pytest.raises(ValueError):
            save_model(model, path, [0])
        assert not path.exists()
