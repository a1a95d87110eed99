import numpy as np
import pytest

from iotprint import evaluation
from iotprint.evaluation import (
    LEVELS,
    assemble_one_vs_all,
    format_report,
    metrics,
    run_experiment,
    stratified_folds,
    variant_columns,
)
from iotprint.fingerprint import FINGERPRINT_DIM, BehavioralProfile
from iotprint.ml import LabeledDataset


def make_profile(label, category, n, offset=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = [tuple((rng.uniform(0, 1, FINGERPRINT_DIM) + offset).tolist()) for _ in range(n)]
    prints = np.asarray(rows, dtype=np.float64).reshape(-1, FINGERPRINT_DIM)
    return BehavioralProfile(label, category, prints, captures=("t",))


def test_variant_column_layout():
    assert variant_columns(20) == list(range(100))
    v19 = variant_columns(19)
    assert len(v19) == 95
    assert set(range(100)) - set(v19) == {17, 37, 57, 77, 97}
    v3 = variant_columns(3)
    assert v3 == [17, 18, 19, 37, 38, 39, 57, 58, 59, 77, 78, 79, 97, 98, 99]
    with pytest.raises(ValueError):
        variant_columns(10)


def test_assemble_fourteen_devices():
    profiles = [make_profile(f"dev-{i}", "cat", 3, seed=i) for i in range(14)]
    data = assemble_one_vs_all(profiles, "dev-4", "device")
    assert (data.labels == 1).sum() == 3
    assert (data.labels == -1).sum() == 13 * 3


def test_assemble_category_union_counts():
    profiles = [
        make_profile("dlink-camera", "Camera", 1991, seed=1),
        make_profile("omna-camera", "Camera", 1072, seed=2),
        make_profile("bulb", "Light", 10, seed=3),
    ]
    data = assemble_one_vs_all(profiles, "Camera", "category")
    assert (data.labels == 1).sum() == 3063


def test_assemble_errors():
    profiles = [make_profile("a", "x", 3), make_profile("b", "y", 3)]
    with pytest.raises(ValueError, match="^no profile with device label 'missing'$"):
        assemble_one_vs_all(profiles, "missing", "device")
    with pytest.raises(ValueError, match="^every profile carries label 'a'$"):
        assemble_one_vs_all([make_profile("a", "x", 3)], "a", "device")


def balanced_dataset(n_pos=10, n_neg=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_pos + n_neg, d))
    labels = np.array([1] * n_pos + [-1] * n_neg)
    return LabeledDataset(rows, labels)


def test_stratified_folds_balance_and_partition():
    data = balanced_dataset()
    plan = stratified_folds(data, k=5, seed=9)
    for fold in range(5):
        test_idx = plan.test_indices(fold)
        assert (data.labels[test_idx] == 1).sum() == 2
        assert (data.labels[test_idx] == -1).sum() == 2
    all_test = np.concatenate([plan.test_indices(f) for f in range(5)])
    assert sorted(all_test.tolist()) == list(range(20))


def test_stratified_folds_deterministic():
    data = balanced_dataset()
    plan = stratified_folds(data, 5, seed=4)
    assert np.array_equal(plan.assignments, stratified_folds(data, 5, seed=4).assignments)
    assert not np.array_equal(plan.assignments, stratified_folds(data, 5, seed=5).assignments)


def test_stratified_folds_validation():
    data = balanced_dataset(n_pos=3, n_neg=10)
    with pytest.raises(ValueError, match=r"^class \+1 has 3 members, fewer than the 5 folds$"):
        stratified_folds(data, 5, seed=0)
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        stratified_folds(data, 1, seed=0)


@pytest.mark.parametrize("n_pos, n_neg, smaller", [(4, 6, r"\+1"), (6, 4, "-1")])
def test_stratified_folds_take_every_k_from_2_to_the_smaller_class_size(n_pos, n_neg, smaller):
    """Each class is dealt round-robin: fold f holds n // k members, one
    more while f < n % k. One fold more than the smaller class is an error."""
    data = balanced_dataset(n_pos=n_pos, n_neg=n_neg)
    for k in (2, 3, 4):  # 4 is the smaller class's size
        plan = stratified_folds(data, k, seed=0)
        assert plan.k == k and plan.assignments.dtype == np.int64
        for cls, n in ((1, n_pos), (-1, n_neg)):
            dealt = np.bincount(plan.assignments[data.labels == cls], minlength=k)
            assert dealt.tolist() == [n // k + (f < n % k) for f in range(k)]
    with pytest.raises(ValueError, match=f"^class {smaller} has 4 members, fewer than the 5 folds$"):
        stratified_folds(data, 5, seed=0)


def scored(tp, fp, tn, fn):
    """+1/-1 `(predicted, truth)` arrays holding the given confusion counts."""
    predicted = np.repeat([1, 1, -1, -1], [tp, fp, tn, fn])
    truth = np.repeat([1, -1, -1, 1], [tp, fp, tn, fn])
    return predicted, truth


def test_metrics_basic():
    rates, degenerate = metrics(*scored(tp=9, fp=0, tn=90, fn=1))
    assert rates["tpr"] == pytest.approx(0.9)
    assert rates["accuracy"] == pytest.approx(0.99)
    assert rates["tnr"] == 1.0
    assert rates["ppv"] == 1.0
    assert degenerate == set()


def test_metrics_degenerate_zero_over_zero():
    rates, degenerate = metrics(*scored(tp=0, fp=0, tn=5, fn=0))
    assert rates["tpr"] == 0.0
    assert "tpr" in degenerate and "ppv" in degenerate


def test_metrics_perfect():
    rates, _ = metrics(*scored(tp=5, fp=0, tn=7, fn=0))
    assert [rates[name] for name in ("tpr", "accuracy", "tnr", "ppv")] == [1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "counts, rates, degenerate",
    [
        ((3, 2, 0, 0), (1.0, 0.6, 0.0, 0.6), set()),  # every prediction +1
        ((0, 0, 2, 3), (0.0, 0.4, 1.0, 0.0), {"ppv"}),  # every prediction -1
        ((3, 0, 0, 0), (1.0, 1.0, 0.0, 1.0), {"tnr"}),  # no negatives
        ((0, 2, 0, 0), (0.0, 0.0, 0.0, 0.0), {"tpr"}),  # no positives, every one called +1
        ((0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0), {"tpr", "accuracy", "tnr", "ppv"}),
    ],
    ids=["all-positive", "all-negative", "no-negatives", "no-positives", "empty"],
)
def test_metrics_at_the_boundaries(counts, rates, degenerate):
    got, got_degenerate = metrics(*scored(*counts))
    assert list(got) == ["tpr", "accuracy", "tnr", "ppv"]
    assert [(rate, type(rate)) for rate in got.values()] == [(rate, float) for rate in rates]
    assert got_degenerate == degenerate


def test_metrics_accuracy_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 40, size=4))
        rates, _ = metrics(*scored(tp, fp, tn, fn))
        pos, neg = tp + fn, tn + fp
        expected = (rates["tpr"] * pos + rates["tnr"] * neg) / (pos + neg)
        assert rates["accuracy"] == pytest.approx(expected)


def _small_separable_profiles():
    return [
        make_profile("alpha", "lit", 40, offset=0.0, seed=31),
        make_profile("beta", "lit", 40, offset=2.0, seed=32),
        make_profile("gamma", "cam", 40, offset=4.0, seed=33),
    ]


@pytest.mark.parametrize("classifier", ["boosted", "knn", "tree", "vote"])
def test_run_experiment_separable_all_classifiers(classifier):
    report = run_experiment(
        _small_separable_profiles(), "device", classifier, variant=20, k=5, seed=1
    )
    assert [row["label"] for row in report["results"]] == ["alpha", "beta", "gamma"]
    for row in report["results"]:
        assert row["mean_tpr"] == 1.0
        assert row["mean_accuracy"] == 1.0
        assert len(row["fold_tpr"]) == 5


def test_run_experiment_category_level():
    report = run_experiment(_small_separable_profiles(), "category", "tree", 20, k=5, seed=1)
    assert [row["label"] for row in report["results"]] == ["lit", "cam"]
    assert all(row["mean_tpr"] == 1.0 for row in report["results"])


def test_run_experiment_instance_level():
    profiles = _small_separable_profiles()
    twin = make_profile("alpha", "lit", 25, offset=0.0, seed=34)
    report = run_experiment(profiles + [twin], "instance", "boosted", 20)
    assert len(report["results"]) == 1
    row = report["results"][0]
    assert row["label"] == "alpha"
    assert row["mean_tpr"] == 1.0
    assert len(row["fold_tpr"]) == 1
    assert "tnr" in row["degenerate"]  # no negatives in the held-out instance


def test_report_header_names_the_split_each_level_used():
    profiles = [*_small_separable_profiles(), make_profile("alpha", "lit", 25, seed=34)]
    for level, split in [("device", "folds=5 seed=2"), ("instance", "holdout=instance")]:
        report = run_experiment(profiles, level, "knn", 20, k=5, seed=2)
        header = format_report(report).splitlines()[0]
        assert header == f"level={level} classifier=knn variant=20-features {split}"
        assert (report["folds"], report["seed"]) == (5, 2)  # the document's keys stay


def test_run_experiment_instance_level_without_twins_is_empty():
    report = run_experiment(_small_separable_profiles(), "instance", "boosted", 20)
    assert report["results"] == []


def test_run_experiment_reproducible():
    profiles = _small_separable_profiles()
    a = run_experiment(profiles, "device", "boosted", 19, k=5, seed=8)
    b = run_experiment(profiles, "device", "boosted", 19, k=5, seed=8)
    assert a == b


def test_run_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(_small_separable_profiles(), "nope", "boosted", 20)
    with pytest.raises(ValueError):
        run_experiment(_small_separable_profiles(), "device", "nope", 20)


def test_run_experiment_rejects_an_unknown_variant_before_training(monkeypatch):
    profiles = [*_small_separable_profiles(), make_profile("alpha", "lit", 25, seed=34)]
    trained = []
    monkeypatch.setattr(evaluation, "train_classifier", lambda *args: trained.append(args))
    for level in LEVELS:
        with pytest.raises(ValueError, match="unknown feature variant 7"):
            run_experiment(profiles, level, "boosted", 7)
    assert trained == []


def test_report_formats():
    report = run_experiment(_small_separable_profiles(), "device", "knn", 3, k=5, seed=2)
    assert report["schema"].startswith("evaluation-report/")
    assert report["variant"] == "3-payload-only"
    assert len(report["results"]) == 3
    text = format_report(report)
    assert "alpha" in text and "mean_tpr" in text
