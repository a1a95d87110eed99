import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iotprint import documents, ml
from iotprint.cli import main
from iotprint.evaluation import assemble_one_vs_all, stratified_folds, train_classifier
from iotprint.ml import (
    BoostedModel,
    LabeledDataset,
    TreeModel,
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
from iotprint.pcap_io import write_capture
from iotprint.synth import ARCHETYPES, generate_trace

from oracles import (
    dense_gini_split,
    grow_tree_with_dense_gini,
    nested_tree,
    predict_boosted,
    predict_knn,
    predict_tree,
    predict_vote,
)


def dataset(rows, labels):
    return LabeledDataset(np.asarray(rows, dtype=float), np.asarray(labels))


def random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1, 1, size=(n, d))
    labels = np.where(rows[:, 0] + 0.3 * rng.normal(size=n) > 0, 1, -1)
    if np.all(labels == labels[0]):  # keep both classes present
        labels[0] = -labels[0]
    return dataset(rows, labels)


def boosted(initial_score, stages=()):
    """A boosted model of these [feature, threshold, left, right] stages; its deviance is zeros."""
    table = np.array(stages, dtype=np.float64).reshape(-1, 4)
    return BoostedModel(float(initial_score), table, np.zeros(len(table) + 1))


def tree(*rows):
    """The tree of these heap rows, whose count fixes its max_depth."""
    nodes = np.array(rows, dtype=np.float64)
    return TreeModel(nodes, len(nodes).bit_length() - 1)


# A root leaf labelled +1, and a root split whose leaves are +1 and -1.
LEAF = tree([-1, 0, 1], [-1, 0, 0], [-1, 0, 0])
SPLIT = tree([0, 0, 0], [-1, 0, 1], [-1, 0, -1])


def two_levels(root):
    """The tree whose root row is `root` and whose two children are `SPLIT`'s root."""
    return tree(root, [0, 0, 0], [0, 0, 0], *[[-1, 0, 1], [-1, 0, -1]] * 2)


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
        self.pick = feature, float(self.midpoints[boundary, feature])
        return self.pick

    def left_rows(self) -> np.ndarray:
        """The rows the last pick sends left, by the rule a stump predicts with."""
        feature, threshold = self.pick
        return self.X[:, feature] <= threshold


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
    stump_feature, stump_threshold, stump_left, stump_right = model.stages[0].tolist()
    assert stump_feature == feature
    assert stump_threshold == threshold
    left, right = newton_leaf_oracle(data, feature, threshold)
    assert math.isclose(stump_left, left, rel_tol=1e-9)
    assert math.isclose(stump_right, right, rel_tol=1e-9)


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
    assert len(model.stages) == 100  # the default
    predicted = np.where(boosted_scores(model, data.rows) >= 0, 1, -1)
    assert (predicted == data.labels).mean() > 0.9


def test_predict_zero_stage_model():
    model = boosted(0.4)
    assert boosted_scores(model, np.zeros((1, 3))).tolist() == [0.4]
    assert model.predict(np.zeros((1, 3))).tolist() == [1]


def test_score_zero_predicts_positive():
    model = boosted(0.0)
    assert model.predict([[1.0, 2.0]]).tolist() == [1]


def test_scale_consistency_of_sign():
    data = random_dataset(n=120, d=5, seed=11)
    model = train_boosted(data, n_stages=20)
    scaled = boosted(model.initial_score * 3.5, model.stages * [1, 1, 3.5, 3.5])
    queries = np.random.default_rng(1).uniform(-1, 1, size=(50, 5))
    assert model.predict(queries).tolist() == scaled.predict(queries).tolist()
    assert model.predict(queries).tolist() == [predict_boosted(model, q)[0] for q in queries]


def test_scores_add_each_stage_in_stage_order_as_the_scalar_oracle_does():
    """Bit for bit: the same leaves summed in another order round apart."""
    data = random_dataset(n=120, d=5, seed=11)
    model = train_boosted(data)
    queries = np.random.default_rng(2).uniform(-1, 1, size=(50, 5))
    scores = [_bits(score) for score in boosted_scores(model, queries)]
    assert scores == [_bits(predict_boosted(model, q)[1]) for q in queries]


def test_a_leaf_fit_to_within_1e150_takes_no_step():
    """One negative among 500 positives, split off by the only feature:
    the first stage moves it to a score of about -494 (p about 1e-214),
    and every later stage leaves its leaf at 0."""
    rows = np.ones((500, 1))
    rows[0, 0] = 0.0
    labels = np.ones(500, dtype=np.int64)
    labels[0] = -1
    model = train_boosted(dataset(rows, labels), n_stages=3)
    assert model.stages[0, 2] < -400
    assert model.stages[1:, 2].tolist() == [0.0, 0.0]
    assert all(model.stages[:, 3] > 1.0)


def _leaf_of_one_row(resid, weight, label, score):
    labels, scores = np.array([label]), np.array([score])
    loss = ml._row_loss(labels, scores)
    return ml._leaf(np.array([resid]), np.array([weight]), labels, scores, loss), loss


def test_a_leaf_step_is_halved_at_most_64_times_and_taken_once_the_loss_does_not_rise():
    """One row labelled -1 at a score of 1024, whose residual pushes the
    score up: its loss 1024 + v rises with every step v until the step
    rounds away. 2^20 halved 63 times is 2^-43, half the float spacing at
    1024, so 1024 + 2^-43 rounds (to even) to 1024 and the 64th try is
    taken; from 2^21 that would take a 65th, so the step collapses to 0
    and the loss passed in comes back."""
    (value, after), loss = _leaf_of_one_row(1.0, 2.0**-20, -1, 1024.0)
    assert value == 2.0**-43 and after.tolist() == loss.tolist() == [1024.0]
    (value, after), loss = _leaf_of_one_row(1.0, 2.0**-21, -1, 1024.0)
    assert value == 0.0 and after is loss


def test_a_leaf_takes_a_step_that_leaves_its_loss_equal_and_none_at_a_weight_of_1e150():
    (value, after), loss = _leaf_of_one_row(1e-20, 0.25, 1, 0.0)
    assert value == 4e-20 and after.tolist() == loss.tolist()  # log 2 - 2e-20 rounds to log 2
    (value, after), loss = _leaf_of_one_row(0.5, 1e-150, 1, 0.0)
    assert value == 0.0 and after.tolist() == loss.tolist()
    (value, after), _ = _leaf_of_one_row(0.5, 1.5e-150, 1, 0.0)
    assert value == 0.5 / 1.5e-150 and after.tolist() == [0.0]


def test_boosted_input_validation():
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        train_boosted(dataset(np.empty((0, 3)), []))
    with pytest.raises(ValueError, match="^training data contains a single class$"):
        train_boosted(dataset([[1.0], [2.0]], [1, 1]))
    with pytest.raises(ValueError, match="^training data contains a single class$"):
        train_boosted(dataset([[1.0]], [-1]))
    for n_stages in (0, 101):
        with pytest.raises(ValueError, match="n_stages"):
            train_boosted(separable_dataset(), n_stages=n_stages)


def test_constant_features_fall_back_to_prior_fit(tmp_path, capsys):
    """No column varies, so no stage is fit: the model is the prior
    log-odds, which labels every row alike (3 of 10 positive gives -1; a
    balanced prior scores 0, which goes to +1), and it is saved, loaded
    and used by `identify` as any other model."""
    arch = ARCHETYPES["outlet"]
    pcap = tmp_path / "outlet.pcap"
    write_capture(pcap, generate_trace(arch, 100, seed=5)[0])
    unseen = np.random.default_rng(4).uniform(-1e3, 1e3, (25, 3))
    for positives, prior in ((3, -1), (5, 1)):
        rows = np.ones((10, 3))
        labels = np.array([1] * positives + [-1] * (10 - positives))
        model = train_boosted(dataset(rows, labels), n_stages=5)
        assert model.stages.shape == (0, 4)
        p = positives / 10
        assert math.isclose(model.initial_score, math.log(p / (1 - p)), abs_tol=1e-15)
        assert len(model.training_deviance) == 1
        for X in (rows, unseen):
            assert model.predict(X).tolist() == [prior] * len(X)
        path = tmp_path / f"constant-{positives}.model.json"
        save_model(model, path, [0, 1, 2], "outlet")
        loaded, _, _ = load_model(path)
        assert _same_boosted(loaded, model)
        capsys.readouterr()
        assert main(["identify", str(path), "--pcap", str(pcap), "--mac", arch.mac.hex(":")]) == 0
        doc = json.loads(capsys.readouterr().out)
        hits = doc["fingerprints"] if prior > 0 else 0
        assert doc["positives_per_model"] == {"outlet": hits}
        assert doc["verdict"] == ("outlet" if prior > 0 else "unknown")


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
    assert model.stages.tolist() == reference.stages.tolist()
    assert model.training_deviance.tolist() == reference.training_deviance.tolist()


def test_split_search_matches_reference_on_corpus_folds(base_profiles):
    for profile in base_profiles:
        data = assemble_one_vs_all(base_profiles, profile.device_label)
        train_idx = stratified_folds(data, k=5, seed=3).train_indices(0)
        train = LabeledDataset(data.rows[train_idx], data.labels[train_idx])
        model = train_boosted(train, n_stages=100)
        reference = boosted_with_reference_search(train, n_stages=100)
        assert model.stages.tolist() == reference.stages.tolist(), profile.device_label
        deviance = model.training_deviance.tolist()
        assert deviance == reference.training_deviance.tolist(), profile.device_label


def python_int_left_sums(X, target) -> bytes:
    """Every split candidate's left sum of integer `target`, as float64 bytes,
    from a prefix sum of Python ints over each column's sorted rows: the
    boundaries between distinct values, feature-major and ascending, as
    `ml._SplitSearch` lists them. Each sum is below 2^53, so its float is
    exact."""
    sums = []
    ints = [int(v) for v in target]
    for column in X.T:
        pairs = sorted(zip(column.tolist(), ints), key=lambda pair: pair[0])
        total = 0
        for (value, v), (after, _) in zip(pairs, pairs[1:]):
            total += v
            if after > value:
                sums.append(total)
    assert all(abs(v) < 2**53 for v in sums)
    return np.array(sums, dtype=np.float64).tobytes()


# Grid targets per kind, M = 2^(53 - n.bit_length()) being the grid's
# edge (what `ml._on_grid` makes of a residual of 1): "residuals" on the
# grid; "edge" values +/-M and 0, whose |sum| reaches n M < 2^53; and
# "cancelling" small integers, to which `split_search_cases` adds pairs
# of equal rows holding +M and -M, on the same side of every split.
GRID_TARGETS = ("residuals", "edge", "cancelling")


@st.composite
def split_search_cases(draw):
    """(X, target, labels): two-valued columns, some duplicated or
    complementary (exact ties), many-valued ones, or both, with targets
    of one kind of `GRID_TARGETS`."""
    n = draw(st.integers(2, 300))
    mix = draw(st.sampled_from(["two-valued", "many-valued", "both"]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["two-valued", "many-valued"])) if mix == "both" else mix
        if kind == "two-valued":
            pair = draw(st.tuples(*[st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0])] * 2))
            column = np.where(draw(hnp.arrays(np.bool_, n)), *pair)
        else:
            column = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3))) * 0.5
        flip = draw(hnp.arrays(np.bool_, n)) & (column == 0)
        columns.append(np.where(flip, -column, column))  # zeros of both signs
    for j in draw(st.lists(st.integers(0, len(columns) - 1), max_size=3)):
        column = columns[j]
        if draw(st.booleans()):  # the complement: the low rows take the high value
            column = np.where(column == column.min(), column.max(), column.min())
        columns.insert(draw(st.integers(0, len(columns))), column)
    X = np.column_stack(columns)
    kind = draw(st.sampled_from(GRID_TARGETS))
    edge = 2.0 ** (53 - n.bit_length())
    if kind == "residuals":
        target = ml._on_grid(draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))
    elif kind == "edge":
        target = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([edge, -edge, 0.0])))
    else:
        small = st.sampled_from([1.0, -1.0, 3.0, 2.0, -4.0])
        target = draw(hnp.arrays(np.float64, n, elements=small))
        rows = st.integers(0, n - 1)
        for i, j in draw(st.lists(st.tuples(rows, rows), min_size=1, max_size=3)):
            X[j], target[i], target[j] = X[i], edge, -edge
    labels = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    return X, target, labels


def _palindrome_case():
    """Targets that read the same backwards score the index column's
    boundaries b and n - 2 - b equally, bit for bit; the two-valued
    columns before it put their candidates among its boundaries."""
    rng = np.random.default_rng(32)
    half = rng.choice([-1, 1], 16)
    labels = np.concatenate([half, half[::-1]])
    X = np.column_stack([*(rng.random((3, 32)) < 0.5).astype(float), np.arange(32.0)])
    return X, labels.astype(np.float64), labels


@settings(max_examples=300, deadline=None)
@given(split_search_cases())
# a two-valued column ties a later many-valued one exactly
@example(
    (
        np.array([[0, 0], [0, 0], [1, 1], [1, 2.0]]),
        np.array([1, 1, -1, -1.0]),
        np.array([1, 1, -1, -1]),
    )
)
# equal rows 0 and 1 hold +/-2^49, the grid's edge for 9 rows
@example(
    (
        np.array([[1, 1], [1, 1], [1, 0], [0, 0], [0, 1], [0, 1], [1, 0], [0, 0], [1, 0.0]]),
        np.array([2.0**49, -(2.0**49), 2, 4, 2, 6, 4, -4, -4.0]),
        np.array([1, -1, 1, 1, 1, 1, 1, -1, -1]),
    )
)
@example(_palindrome_case())
def test_split_search_matches_dense_searches_on_adversarial_sums(case):
    X, target, labels = case
    assert (target == np.rint(target)).all() and np.abs(target).sum() < 2**53
    search = ml._SplitSearch(X)
    assert search.any_valid == ReferenceSplitSearch(X).any_valid
    assert search._left_sums(target).tobytes() == python_int_left_sums(X, target)
    if not search.any_valid:
        return
    feature, threshold = search.best_split(target)
    expected, expected_threshold = ReferenceSplitSearch(X).best_split(target)
    assert (feature, _bits(threshold)) == (expected, _bits(expected_threshold))
    feature, threshold = search.best_gini_split(labels)
    expected, expected_threshold = dense_gini_split(X, labels)
    assert (feature, _bits(threshold)) == (expected, _bits(expected_threshold))


def _two_valued(n, low_rows, low=0.0, high=1.0):
    column = np.full(n, high)
    column[low_rows] = low
    return column


@pytest.mark.parametrize("n, positives", [(100_000, 50_000), (100_000, 50_001), (100_001, 50_000)])
def test_gini_split_of_near_balanced_two_valued_columns_at_large_n(n, positives):
    """Left counts m in half-1..half+1, each with its positive count p
    in m//2-1..m//2+1: the scores of these candidates differ by about
    1e-9 of their size, where rounding n sums would blur them. Two
    columns repeat another's rows (one as its complement), an exact tie
    that the lowest feature must win, and one many-valued column has
    boundaries at the same counts."""
    rng = np.random.default_rng(n + positives)
    labels = np.full(n, -1)
    labels[rng.permutation(n)[:positives]] = 1
    pos, neg = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
    half = n // 2
    columns = []
    for m in (half - 1, half, half + 1):
        for p in (m // 2 - 1, m // 2, m // 2 + 1):
            low = np.concatenate([rng.permutation(pos)[:p], rng.permutation(neg)[: m - p]])
            columns.append(_two_valued(n, low, *rng.choice([-2.0, 0.0, 0.5, 3.0], 2, False)))
    columns.insert(2, columns[5])
    columns.insert(0, np.where(columns[4] == columns[4].min(), columns[4].max(), columns[4].min()))
    p = (half - 1) // 2
    many = np.full(n, 2.0)
    many[np.concatenate([pos[:p], neg[: half - 1 - p]])] = 0.0
    many[[pos[p], neg[half - 1 - p]]] = 1.0
    X = np.column_stack([*columns, many])
    feature, threshold = ml._SplitSearch(X).best_gini_split(labels)
    expected, expected_threshold = dense_gini_split(X, labels)
    assert (feature, _bits(threshold)) == (expected, _bits(expected_threshold))


def test_split_searches_match_the_dense_ones_sweeping_the_left_count_of_one_column():
    """Column 1 is two-valued with m rows low, for every m in 1..n-1,
    between a many-valued column and a fixed two-valued one."""
    n = 48
    rng = np.random.default_rng(11)
    sweep = rng.permutation(n)
    labels = np.where(rng.random(n) < 0.2, 1, -1)  # mostly -1 on column 1's first rows
    labels[sweep[n // 2 :]] *= -1
    target = ml._on_grid(np.where(labels > 0, 0.5, -0.5) + rng.uniform(-0.5, 0.5, n))
    many = rng.integers(0, 6, n) * 0.5
    fixed = _two_valued(n, rng.permutation(n)[: n // 3], -1.0, 2.0)
    for m in range(1, n):
        X = np.column_stack([many, _two_valued(n, sweep[:m]), fixed])
        search = ml._SplitSearch(X)
        feature, threshold = search.best_gini_split(labels)
        expected, expected_threshold = dense_gini_split(X, labels)
        assert (feature, _bits(threshold)) == (expected, _bits(expected_threshold)), m
        assert search.best_split(target) == ReferenceSplitSearch(X).best_split(target), m


def test_only_columns_of_three_or_more_values_are_sorted():
    """A two-valued column is one row of `low`, its rows at the low value,
    and is not argsorted; a constant column is in neither. Sorting every
    column would give the same splits, so only the layout tells them apart."""
    X = np.array([[0, 1, 5, 2], [1, 2, 5, 2], [0, 3, 7, 2], [1, 3, 7, 2]], dtype=np.float64)
    search = ml._SplitSearch(X)
    assert search.order.shape == (4, 1)
    assert search.low.tolist() == [[1, 0, 1, 0], [1, 1, 0, 0]]
    assert search.features.tolist() == [0, 1, 1, 2]


@pytest.mark.parametrize("seed, complement", [(25, False), (14, True)])
def test_candidates_that_split_the_rows_alike_tie_and_the_lowest_feature_wins(seed, complement):
    """Column 1 splits the rows as one candidate of column 0 does: it is
    a flag cut from the many-valued column 0, or column 0's complement.
    The two candidates' sums are equal integers, so their gains tie
    exactly and every stage picks column 0. Summed as floats in each
    column's own order, the first stage at these seeds picked column 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    many = rng.permutation(n) * 0.5
    cut = rng.integers(1, n - 1) * 0.5 - 0.25
    flag = (many <= cut).astype(np.float64)
    labels = np.where(rng.random(n) < np.where(flag > 0, 0.8, 0.2), 1, -1)
    labels[:2] = 1, -1
    X = np.column_stack([flag, 1 - flag] if complement else [many, flag])
    y01 = (labels > 0).astype(np.float64)
    first = ml._SplitSearch(X).best_split(ml._on_grid(y01 - y01.mean()))
    assert first == (0, 0.5 if complement else cut)
    model = train_boosted(dataset(X, labels), n_stages=10)
    assert model.stages[:, 0].tolist() == [0] * 10
    reference = boosted_with_reference_search(dataset(X, labels), 10)
    assert model.stages.tolist() == reference.stages.tolist()


def _tie_case(kind):
    """(X, labels, feature, threshold): a tie between candidates that the
    tie rule settles, and the candidate it picks.

    "two-valued first": column 0 is a flag whose low rows are column 1's
    rows at or below 7.5, and the search lists the many-valued column's
    candidates before the flag's. "many-valued first": the same columns,
    swapped. "one column": labels that read the same backwards tie column
    0's boundaries 3.5 and 27.5, both sides' counts swapped."""
    if kind == "one column":
        labels = np.array([1] * 4 + [-1] * 24 + [1] * 4)
        flag = np.arange(32) % 3 == 0  # a later column that scores lower
        return np.column_stack([np.arange(32.0), flag]), labels, 0, 3.5
    many = np.random.default_rng(8).permutation(16).astype(np.float64)
    flag = (many > 7.5).astype(np.float64)
    labels = np.where(many > 7.5, -1, 1)
    labels[[int(np.argmax(many == 2.0)), int(np.argmax(many == 12.0))]] *= -1  # not separable
    if kind == "two-valued first":
        return np.column_stack([flag, many]), labels, 0, 0.5
    return np.column_stack([many, flag]), labels, 0, 7.5


@pytest.mark.parametrize("kind", ["two-valued first", "many-valued first", "one column"])
def test_ties_go_to_the_lowest_feature_then_threshold_wherever_the_search_lists_them(kind):
    X, labels, feature, threshold = _tie_case(kind)
    y01 = (labels > 0).astype(np.float64)
    target = ml._on_grid(y01 - y01.mean())
    search = ml._SplitSearch(X)
    assert search.best_split(target) == ReferenceSplitSearch(X).best_split(target)
    assert search.best_split(target) == (feature, threshold)
    assert search.best_gini_split(labels) == dense_gini_split(X, labels) == (feature, threshold)
    left = search._left_sums
    gain = ml._gain(left(target), target.sum(), *search.sizes)
    gini = ml._gini(left(y01), y01.sum(), *search.sizes)
    for score in (gain, gini):  # the pick is one of two or more top scores
        assert (score == score.max()).sum() >= 2


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 100_000])
def test_grid_targets_are_integers_whose_sums_are_exact_in_any_order(n):
    """Residuals of +1, of -1, halfway between two grid points (beside a
    0.75), all below 1e-12, and all 0.75, whose sum reaches 3/4 of 2^53
    at n = 2^b - 1. The step is 2^(b + e - 53), 2^e being
    the power of two above the largest |residual|: each value lands
    within half a step, the largest reaches half the grid's edge
    2^(53 - b) or more, and a 0/1 matrix product, `sum` and the
    sequential `cumsum` give the same bits. So do the int64 values and
    every left sum the split search forms from them, against a prefix sum
    of Python ints, over a column of distinct values, one of 50 values
    and one of two."""
    b = n.bit_length()
    rng = np.random.default_rng(n)
    halfway = (rng.integers(-(2**20), 2**20, n) + 0.5) * 2.0 ** (b - 53)
    halfway[0] = 0.75
    tiny = rng.uniform(-1e-12, 1e-12, n)
    low = (rng.random((3, n)) < 0.5).astype(np.float64)
    X = np.column_stack([rng.permutation(n), rng.integers(0, 50, n), low[0]]).astype(np.float64)
    search = ml._SplitSearch(X)
    for resid in (np.ones(n), -np.ones(n), halfway, tiny, np.full(n, 0.75)):
        step = 2.0 ** (b + np.frexp(np.abs(resid).max())[1] - 53)
        t = ml._on_grid(resid)
        assert (t == np.rint(t)).all() and np.abs(t).sum() < 2**53
        assert (np.abs(t * step - resid) <= step / 2).all()
        assert np.abs(t).max() >= 2.0 ** (52 - b)
        assert _bits(t.sum()) == _bits(np.cumsum(t)[-1])
        sequential = [np.cumsum(np.where(row > 0, t, 0.0))[-1] for row in low]
        assert (low @ t).tobytes() == np.array(sequential).tobytes()
        assert t.astype(np.int64).astype(np.float64).tobytes() == t.tobytes()
        assert search._left_sums(t).tobytes() == python_int_left_sums(X, t)


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
@example([(1.5e-323, 3.5e-323)])  # subnormals, where 0.5 * lo + 0.5 * hi rounds otherwise
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


@st.composite
def partition_cases(draw):
    """Matrices whose columns draw from adjacent floats, signed zeros and
    subnormals, values whose plain midpoint overflows, or any floats."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["adjacent", "signed zeros", "overflowing", "any"]))
        if kind == "adjacent":
            x, above = draw(adjacent_floats)
            pool = [x, above, float(np.nextafter(above, _BIG))]
        elif kind == "signed zeros":
            pool = [-0.0, 0.0, 5e-324, -5e-324, 1.0]
        elif kind == "overflowing":
            pool = [1.6e308, 1.7e308, _BIG, -_BIG, 0.0]
        else:
            pool = draw(st.lists(finite_floats, min_size=1, max_size=4))
        columns.append(draw(hnp.arrays(np.float64, n, elements=st.sampled_from(pool))))
    return np.column_stack(columns)


@settings(max_examples=300, deadline=None)
@given(partition_cases(), st.randoms(use_true_random=False))
def test_the_rows_a_pick_sends_left_are_those_its_stump_sends_left(X, random):
    """For every candidate the search can pick, and for the picks of its
    two searches, `left_rows` is the rule a stump and a tree predict with,
    x[feature] <= threshold."""
    search = ml._SplitSearch(X)
    for pick, (feature, threshold) in enumerate(zip(search.features, search.thresholds)):
        search.pick = pick
        assert search.left_rows().tolist() == (X[:, feature] <= threshold).tolist()
    if search.any_valid:
        labels = np.array([random.choice([-1, 1]) for _ in X])
        target = ml._on_grid(labels - labels.mean())
        for split, values in ((search.best_split, target), (search.best_gini_split, labels)):
            feature, threshold = split(values)
            assert search.left_rows().tolist() == (X[:, feature] <= threshold).tolist()


def test_splits_between_values_near_the_float_maximum_are_finite():
    data = dataset([[1.0], [1.6e308], [1.7e308]], [-1, -1, 1])
    assert dense_gini_split(data.rows, data.labels) == (0, 0.5 * 1.6e308 + 0.5 * 1.7e308)
    thresholds = train_boosted(data, n_stages=3).stages[:, 1].tolist()
    assert thresholds and all(t == 0.5 * 1.6e308 + 0.5 * 1.7e308 for t in thresholds)
    assert train_tree(data).nodes[0, 1] == thresholds[0]


def test_a_split_between_adjacent_floats_sends_the_upper_value_right():
    a, b = 1 + 2**-52, 1 + 2**-51
    assert 0.5 * (a + b) == b  # the plain midpoint would send b left
    data = dataset([[a], [a], [b], [b]], [-1, -1, 1, 1])
    trained = train_tree(data), train_boosted(data, n_stages=1)
    assert trained[0].nodes[0, 1] == trained[1].stages[0, 1] == a
    for model in trained:
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
        LabeledDataset(np.zeros((2, 1)), labels)


@pytest.mark.parametrize(
    "train", [train_boosted, train_tree, lambda data: train_knn(data, k=1)],
    ids=["boosted", "tree", "knn"],
)
def test_rows_without_columns_are_rejected_before_training(train):
    with pytest.raises(ValueError, match="at least one column"):
        train(LabeledDataset(np.zeros((2, 0)), [1, -1]))


@pytest.mark.parametrize(
    "rows, labels, message",
    [
        (np.zeros(3), [1, -1, 1], "2-D"),
        (np.zeros((2, 2, 1)), [1, -1], "2-D"),
        (np.zeros((3, 2)), [1, -1], "equal length"),
        (np.zeros((2, 2)), np.array([[1, -1]]), "equal length"),
    ],
    ids=["vector", "3-D", "fewer-labels", "label-matrix"],
)
def test_rows_must_be_a_matrix_with_one_label_per_row(rows, labels, message):
    with pytest.raises(ValueError, match=message):
        LabeledDataset(rows, labels)


def test_rows_and_labels_are_kept_as_contiguous_float64_and_int64_arrays():
    data = LabeledDataset(np.arange(6).reshape(2, 3).T, [1, -1, 1])  # ints, column-major
    assert data.rows.dtype == np.float64 and data.rows.flags.c_contiguous
    assert data.rows.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]
    assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, -1, 1]


@pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
def test_a_dataset_of_zero_rows_is_empty_data(shape):
    for labels in ([], np.empty(0, dtype=np.int64)):
        with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
            LabeledDataset(np.empty(shape), labels)


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
    with mock.patch.object(ml, "KNN_CHUNK", chunk):
        labels = knn_labels(model, queries)
    assert labels.tolist() == reference_knn_labels(model, queries, chunk=chunk).tolist()
    if scale == 1.0:  # small integers: both distance formulas are exact
        assert labels.tolist() == [predict_knn(model, q) for q in queries]


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
    monkeypatch.setattr(ml, "KNN_CHUNK", 64)
    assert knn_labels(model, queries).tolist() == expected.tolist()
    assert sorted_shapes == [(1, 300)]


def test_knn_labels_match_reference_on_corpus(base_profiles):
    data = assemble_one_vs_all(base_profiles, base_profiles[0].device_label)
    model = train_knn(data, k=5)
    assert np.array_equal(knn_labels(model, data.rows), reference_knn_labels(model, data.rows))


def test_knn_labels_of_row_subsets_match_the_whole_capture(corpus_profiles, base_profiles):
    """A vote searches only its undecided rows, so each fingerprint must get
    the label it gets in a search of its whole capture: alone, and in
    random subsets, on a base vote model's kNN member and the held-out
    twin's fingerprints."""
    data = assemble_one_vs_all(base_profiles, base_profiles[0].device_label)
    model = train_classifier("vote", data).knn
    prints = corpus_profiles[6].fingerprints
    whole = knn_labels(model, prints)
    alone = [knn_labels(model, prints[i : i + 1])[0] for i in range(len(prints))]
    assert alone == whole.tolist()
    rng = np.random.default_rng(41)
    for _ in range(50):
        rows = rng.choice(len(prints), size=rng.integers(1, 18), replace=False)
        assert knn_labels(model, prints[rows]).tolist() == whole[rows].tolist()


def test_knn_validation():
    data = random_dataset(n=10, d=2, seed=20)
    with pytest.raises(ValueError, match="^k=11 exceeds 10 training rows$"):
        train_knn(data, k=11)
    with pytest.raises(ValueError):
        train_knn(data, k=0)
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        train_knn(dataset(np.empty((0, 2)), []), k=1)


# --- tree ----------------------------------------------------------------


def test_pure_data_yields_single_leaf():
    rows = np.random.default_rng(21).uniform(size=(12, 3))
    model = train_tree(dataset(rows, [1] * 12), max_depth=4)
    assert nested_tree(model.nodes) == 1
    assert model.predict(rows).tolist() == [1] * 12
    assert model.predict(np.empty((2, 0))).tolist() == [1, 1]  # a leaf reads no column


def test_xor_pattern_needs_depth_two():
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    labels = np.array([-1, 1, 1, -1] * 10)
    model = train_tree(dataset(rows, labels), max_depth=2)
    assert tree_labels(model, rows).tolist() == labels.tolist()


def test_depth_one_tree_matches_gini_oracle():
    data = random_dataset(n=150, d=7, seed=22)
    model = train_tree(data, max_depth=1)
    feature, threshold = gini_stump_oracle(data.rows, data.labels)
    assert model.nodes[0, :2].tolist() == [feature, threshold]


def test_tree_depth_bound_respected():
    data = random_dataset(n=200, d=5, seed=23)
    model = train_tree(data, max_depth=3)

    def depth(node):
        if isinstance(node, int):
            return 0
        return 1 + max(depth(node[2]), depth(node[3]))

    assert depth(nested_tree(model.nodes)) <= 3


def test_tree_batch_agrees_with_single():
    data = random_dataset(n=150, d=5, seed=24)
    model = train_tree(data, max_depth=4)
    queries = np.random.default_rng(25).uniform(-1, 1, size=(80, 5))
    assert tree_labels(model, queries).tolist() == [predict_tree(model, q) for q in queries]


THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@st.composite
def heap_trees(draw):
    """(model, X): a tree of heap rows whose branches stop at random depths,
    and rows of its thresholds, values between them, -0.0 and NaN."""
    max_depth, width = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    nodes = np.tile([-1.0, 0.0, 0.0], (2 ** (max_depth + 1) - 1, 1))
    reached = [0]
    while reached:
        at = reached.pop()
        if 2 * at + 1 < len(nodes) and draw(st.integers(0, 3)):
            nodes[at, :2] = draw(st.integers(0, width - 1)), draw(st.sampled_from(THRESHOLDS))
            reached += [2 * at + 1, 2 * at + 2]
        else:
            nodes[at, 2] = draw(st.sampled_from([-1.0, 1.0]))
    values = st.sampled_from([*THRESHOLDS, -2.0, -0.25, -0.0, 0.75, 2.0, math.nan])
    X = draw(hnp.arrays(np.float64, (draw(st.integers(0, 30)), width), elements=values))
    return TreeModel(nodes, max_depth), X


@settings(max_examples=300, deadline=None)
@given(heap_trees())
def test_tree_labels_match_the_scalar_walk_row_by_row_and_one_row_at_a_time(case):
    """Rows at a threshold go left and NaN rows go right, in a batch as
    alone; each tree drawn is one the loader takes as it is."""
    model, X = case
    labels = tree_labels(model, X)
    assert labels.tolist() == [predict_tree(model, x) for x in X]
    assert labels.tolist() == [tree_labels(model, X[i : i + 1])[0] for i in range(len(X))]
    loaded = ml._member_from_doc("tree", ml._params(model)[1], X.shape[1], None)
    assert _same_bits(loaded.nodes, model.nodes)


def _node_bits(node):
    """A nested tree (see `oracles.nested_tree`) with its thresholds as their bits."""
    if isinstance(node, int):
        return node
    feature, threshold, left, right = node
    return (feature, _bits(threshold)), _node_bits(left), _node_bits(right)


def _assert_tree_matches_dense_gini(data, max_depth):
    model = train_tree(data, max_depth)
    reference = grow_tree_with_dense_gini(data.rows, data.labels, max_depth)
    assert _node_bits(nested_tree(model.nodes)) == _node_bits(reference)


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
            train = LabeledDataset(data.rows[idx], data.labels[idx])
            _assert_tree_matches_dense_gini(train, 5)


def test_tree_validation():
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        train_tree(dataset(np.empty((0, 2)), []))
    for max_depth in (0, ml.MAX_DEPTH + 1):
        with pytest.raises(ValueError, match=r"^max_depth must be in 1\.\.16$"):
            train_tree(random_dataset(10, 2, 1), max_depth=max_depth)


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


@st.composite
def disagreeing_votes(draw):
    """(votes, queries): one to three votes whose members are trained on
    independent labels of one set of small-integer rows, so they differ
    on many queries, and kNN members that share those rows and k. The
    queries spread over several kNN blocks."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    rows = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3)))
    k = draw(st.integers(1, n))

    def data():
        labels = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
        labels[0], labels[-1] = 1, -1
        return dataset(rows, labels)

    votes = []
    for _ in range(draw(st.integers(1, 3))):
        boosted = train_boosted(data(), n_stages=draw(st.integers(1, 8)))
        tree = train_tree(data(), draw(st.integers(1, 4)))
        votes.append(VoteModel(boosted, train_knn(data(), k), tree))
    shape = (draw(st.integers(1, 40)), d)
    queries = draw(hnp.arrays(np.int64, shape, elements=st.integers(-3, 3)))
    return votes, queries.astype(np.float64)


@settings(max_examples=150, deadline=None)
@given(disagreeing_votes(), st.sampled_from([1, 3, 512]))
def test_votes_match_the_three_member_majority(case, chunk):
    """Each vote's `predict` gives the scalar majority. Small integers keep
    every distance exact, so the scalar kNN oracle applies."""
    votes, queries = case
    with mock.patch.object(ml, "KNN_CHUNK", chunk):
        for vote in votes:
            assert vote.predict(queries).tolist() == [predict_vote(vote, q) for q in queries]


def _split_vote(undecided_rows, n):
    """(vote, queries): boosted labels -1 where column 0 is -1, the tree +1
    everywhere, so exactly `undecided_rows` of the n queries are undecided."""
    knn = train_knn(random_dataset(n=50, d=2, seed=31), k=3)
    queries = np.random.default_rng(32).uniform(0.1, 1.0, size=(n, 2))
    queries[undecided_rows, 0] = -1.0
    return VoteModel(boosted(0.0, [[0, 0.0, -1.0, 1.0]]), knn, LEAF), queries


def test_vote_searches_only_when_some_row_is_undecided(monkeypatch):
    searches = []
    knn_search = ml.knn_labels

    def recording(model, X):
        searches.append(len(X))
        return knn_search(model, X)

    monkeypatch.setattr(ml, "knn_labels", recording)
    agreeing, queries = _split_vote([], 20)
    assert agreeing.predict(queries).tolist() == [1] * 20
    assert searches == []

    vote, queries = _split_vote([5, 6, 13], 20)
    assert vote.predict(queries).tolist() == [predict_vote(vote, q) for q in queries]
    assert searches == [3]


# --- persistence ---------------------------------------------------------


def test_model_save_load_preserves_predictions(tmp_path):
    boosted, knn, tree, data = _trio(seed=27)
    vote = VoteModel(boosted, knn, tree)
    queries = np.random.default_rng(28).uniform(-1, 1, size=(40, 4))
    for name, model in [("b", boosted), ("k", knn), ("t", tree), ("v", vote)]:
        path = tmp_path / f"{name}.model.json"
        save_model(model, path, range(4), f"class-{name}")
        back, columns, positive_class = load_model(path)
        assert (columns, positive_class) == ([0, 1, 2, 3], f"class-{name}")
        assert back.predict(queries).tolist() == model.predict(queries).tolist()
        if name == "b":  # the scores too, not only their signs
            assert boosted_scores(back, queries).tolist() == boosted_scores(model, queries).tolist()


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_boosted(a, b) -> bool:
    arrays = ((a.stages, b.stages), (a.training_deviance, b.training_deviance))
    return _bits(a.initial_score) == _bits(b.initial_score) and all(_same_bits(*p) for p in arrays)


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
        save_model(model, path, columns, "pos")
        back, back_columns, _ = load_model(path)
        assert type(back) is type(model) and back_columns == columns
        for member, original in (
            zip((back.boosted, back.knn, back.tree), (boosted, knn, tree))
            if isinstance(back, VoteModel)
            else [(back, model)]
        ):
            if isinstance(original, type(knn)):
                assert _same_bits(member.rows, original.rows)
                assert _same_bits(member.labels, original.labels)
                assert member.k == original.k
            elif isinstance(original, BoostedModel):
                assert _same_boosted(member, original)
            else:
                assert _same_bits(member.nodes, original.nodes)
                assert member.max_depth == original.max_depth


def test_models_loaded_with_one_dict_decode_equal_packed_text_once(tmp_path, monkeypatch):
    data = random_dataset(n=40, d=5, seed=31)
    trained = [train_knn(d, 3) for d in (data, dataset(data.rows, -data.labels), data)]
    paths = [tmp_path / f"{i}.model.json" for i in range(3)]
    for model, path in zip(trained, paths):
        save_model(model, path, range(5), "pos")
    decodes = []
    b64decode = documents.base64.b64decode

    def counting(*args, **kwargs):
        decodes.append(1)
        return b64decode(*args, **kwargs)

    monkeypatch.setattr(documents.base64, "b64decode", counting)

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
        save_model(knn, path, columns, "pos")
    assert not path.exists()


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nope", "kind": "boosted"}')
    with pytest.raises(ValueError):
        load_model(path)


def test_save_model_rejects_nan_and_writes_nothing(tmp_path):
    model = boosted(0.0, [[0, 0.5, math.nan, 1.0]])
    knn = ml.KnnModel(np.array([[0.0], [math.inf]]), np.array([1, -1]), 1)
    for model in (model, knn):
        path = tmp_path / "nan.model.json"
        with pytest.raises(ValueError):
            save_model(model, path, [0], "pos")
        assert not path.exists()


# name -> (model, columns, a fragment of the loader's message): documents
# that `load_model` refuses, so `save_model` must not write them.
UNLOADABLE = {
    "boosted-leaves-past-the-float-maximum": (
        boosted(0.0, [[0, 0.0, 1e308, 1.0], [0, 0.0, 1e308, 1.0]]),
        [0],
        "scores can overflow",
    ),
    "knn-k-above-its-rows": (
        ml.KnnModel(np.array([[0.0], [1.0]]), np.array([1, -1]), 3),
        [0],
        "k must be an integer in [1, 2]",
    ),
    "tree-split-with-max-depth-0": (
        TreeModel(SPLIT.nodes, 0), [0], "max_depth must be an integer in [1, 16], got 0"
    ),
    "tree-max-depth-above-the-bound": (
        TreeModel(SPLIT.nodes, ml.MAX_DEPTH + 1),
        [0],
        "max_depth must be an integer in [1, 16], got 17",
    ),
    "tree-split-below-max-depth": (
        tree([0, 1, 0], [0, 0, 0], [-1, 0, -1]), [0], "split below its max_depth"
    ),
    "tree-of-two-levels-as-max-depth-1": (
        TreeModel(two_levels([0, 1, 0]).nodes, 1),
        [0],
        "tree nodes must have shape [3, 3], got [7, 3]",
    ),
    "stump-index-at-len-columns": (
        boosted(0.0, [[2, 0.0, -1.0, 1.0]]),
        [5, 6],
        "feature_index must be an integer in [0, 1], got 2.0",
    ),
    "tree-index-past-len-columns": (
        two_levels([3, 0, 0]),
        [5, 6],
        "feature_index must be an integer in [0, 1], got 3.0",
    ),
}


@pytest.mark.parametrize("name", UNLOADABLE)
def test_save_model_writes_nothing_that_load_model_refuses(tmp_path, name):
    """Alone, and as the member of a vote whose other members are sound."""
    model, columns, message = UNLOADABLE[name]
    sound = {
        "boosted": boosted(0.0),
        "knn": ml.KnnModel(np.zeros((1, len(columns))), np.array([1]), 1),
        "tree": LEAF,
    }
    slot = {BoostedModel: "boosted", ml.KnnModel: "knn", TreeModel: "tree"}[type(model)]
    path = tmp_path / "model.json"
    for saved in (model, VoteModel(**{**sound, slot: model})):
        with pytest.raises(ValueError, match=re.escape(message)):
            save_model(saved, path, columns, "pos")
        assert not path.exists()



@pytest.mark.parametrize("initial_score, prior", [(-0.8, -1), (0.0, 1), (1.5, 1)])
def test_a_boosted_model_of_no_stages_saves_loads_and_predicts_its_prior(
    tmp_path, initial_score, prior
):
    model = boosted(initial_score)
    path = tmp_path / "prior.model.json"
    save_model(model, path, [3, 1], "pos")
    assert json.loads(path.read_text())["stages"]["shape"] == [0, 4]
    back = load_model(path)[0]
    assert _same_boosted(back, model)
    assert back.predict(np.zeros((4, 2))).tolist() == [prior] * 4


def test_a_numpy_float_initial_score_saves_and_a_bool_does_not(tmp_path):
    """`np.float64` is a float, so it is written exactly; `True` is an int but not a number."""
    model = BoostedModel(np.float64(0.25), np.array([[0, 0.5, -1.0, 2.0]]), np.zeros(2))
    path = tmp_path / "numpy.model.json"
    save_model(model, path, [1], "pos")
    back = load_model(path)[0]
    assert _same_boosted(back, model)
    queries = np.array([[0.0], [0.5], [0.75]])
    assert boosted_scores(back, queries).tobytes() == boosted_scores(model, queries).tobytes()
    assert back.predict(queries).tolist() == model.predict(queries).tolist()
    with pytest.raises(ValueError, match=r"model initial_score must be a finite number, got True"):
        save_model(BoostedModel(True, np.zeros((0, 4)), np.zeros(1)), tmp_path / "bool.json", [1], "pos")
    assert not (tmp_path / "bool.json").exists()


def test_the_overflow_bound_adds_in_the_order_scores_do(tmp_path):
    """Near the float maximum, a leaf of just over half a float step rounds
    each partial score up by a whole step, so eight of them overflow in
    stage order; summed first, they would come to about four steps."""
    step = 2 * np.spacing(sys.float_info.max / 2)
    model = boosted(sys.float_info.max - 5 * step, [[0, 0.0, 0.5000001 * step, 0.0]] * 8)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        boosted_scores(model, [[0.0]])
    with pytest.raises(ValueError, match="scores can overflow"):
        save_model(model, tmp_path / "model.json", [0], "pos")


def test_scores_that_reach_exactly_the_float_maximum_are_saved_and_loaded(tmp_path):
    """The overflow check bounds the reach by the float maximum inclusively."""
    half = sys.float_info.max / 2
    model = boosted(half, [[0, 0.0, half, -1.0]])
    path = tmp_path / "model.json"
    save_model(model, path, [0], "pos")
    back = load_model(path)[0]
    assert boosted_scores(back, [[0.0], [1.0]]).tolist() == [sys.float_info.max, half - 1.0]
