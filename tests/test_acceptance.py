"""Acceptance suite.

Real-device captures for this problem are not redistributable, so these
criteria check the library against independent oracles and against
end-to-end runs on the synthetic archetype corpus, each at a fixed
tolerance. One PASS/FAIL line is printed per criterion (run with
`pytest tests/test_acceptance.py -v -s` to see them).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from iotprint.cli import main as cli_main
from iotprint.evaluation import run_experiment
from iotprint.features import shannon_entropy
from iotprint.fingerprint import (
    BehavioralProfile,
    build_fingerprints,
    save_profile,
    session_stats,
)
from iotprint.ml import (
    LabeledDataset,
    boosted_scores,
    knn_labels,
    train_boosted,
    train_knn,
)
from iotprint.packet_model import Network, ParsedPacket, RawFrame, Transport
from iotprint.pcap_io import read_capture, write_capture

from conftest import EVAL_SEED


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


# --- entropy oracle -------------------------------------------------------


def _tally_oracle(payload):
    if not payload:
        return 0.0
    counts = {}
    for byte in payload:
        counts[byte] = counts.get(byte, 0) + 1
    m = len(payload)
    return -sum((c / m) * (math.log(c / m) / math.log(256)) for c in counts.values())


def test_entropy_oracle():
    with criterion("entropy oracle (1000 payloads, 1e-12; exact 0/1/0.125; <1s)"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            length = int(rng.integers(0, 2001))
            payload = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            assert abs(shannon_entropy(payload) - _tally_oracle(payload)) <= 1e-12
        assert shannon_entropy(b"\x07" * 50) == 0.0
        assert shannon_entropy(bytes(range(256))) == 1.0
        assert shannon_entropy(b"\x00\xff") == 0.125
        assert time.monotonic() - start < 1.0


# --- session-average arithmetic -------------------------------------------


def _udp_packet(src_port, dst_port):
    return ParsedPacket(
        ts_sec=0,
        ts_usec=0,
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\x04" + b"\x00" * 5,
        ether_type=0x0800,
        network=Network.IPV4,
        transport=Transport.UDP,
        src_port=src_port,
        dst_port=dst_port,
    )


def _stream(sessions, total):
    packets = []
    base, extra = divmod(total, sessions)
    for i in range(sessions):
        for _ in range(base + (1 if i < extra else 0)):
            packets.append(_udp_packet(10000 + i, 30000 + i))
    return packets


SESSION_FIXTURES = [
    (12755, 3274, 3.89),
    (8600, 1390, 6.18),
    (1346, 305, 4.41),
    (8253, 1608, 5.13),
    (1660, 175, 9.48),
    (1994, 204, 9.77),
    (739, 84, 8.79),
]


def test_session_average_fixtures():
    with criterion("session averages match reference fixtures; mean 6.8 +/- 0.05"):
        averages = []
        for total, sessions, expected in SESSION_FIXTURES:
            stats = session_stats(_stream(sessions, total))
            assert stats.session_count == sessions
            assert stats.total_session_packets == total
            assert abs(stats.avg_packets_per_session - expected) < 0.01
            averages.append(stats.avg_packets_per_session)
        assert abs(sum(averages) / len(averages) - 6.8) <= 0.05


# --- fingerprint shape ----------------------------------------------------


def _marker_features(n):
    """tcp_payload_length (offset 18) acts as a monotone per-packet marker."""
    return [(0, 1, 0, 0, 0, 1, 0) + (0,) * 10 + (0.25, i, 1) for i in range(n)]


def test_fingerprint_shape():
    with criterion("fingerprints: floor(n/5) vectors of dim 100, order preserved"):
        for n in range(38):
            prints = build_fingerprints(_marker_features(n))
            assert len(prints) == n // 5
            for g, fp in enumerate(prints):
                assert len(fp) == 100
                markers = [fp[20 * k + 18] for k in range(5)]
                assert markers == [5 * g + k for k in range(5)]


# --- boosting correctness ---------------------------------------------------


def _random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1, 1, size=(n, d))
    labels = np.where(rows[:, 0] + 0.3 * rng.normal(size=n) > 0, 1, -1)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return LabeledDataset(rows, labels, "pos")


def _separable():
    rng = np.random.default_rng(0)
    rows = np.vstack([rng.uniform(0.1, 1, (50, 1)), rng.uniform(-1, -0.1, (50, 1))])
    return LabeledDataset(rows, np.array([1] * 50 + [-1] * 50), "pos")


def _stump_oracle(data):
    X = data.rows
    y01 = (data.labels > 0).astype(float)
    residual = y01 - y01.mean()
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f].tolist()))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2
            left = X[:, f] <= threshold
            sse = 0.0
            for side in (left, ~left):
                seg = residual[side]
                sse += float(((seg - seg.mean()) ** 2).sum())
            if best is None or sse < best[0]:
                best = (sse, f, threshold)
    return best[1], best[2]


def test_boosting_correctness(base_profiles):
    from iotprint.evaluation import assemble_one_vs_all

    with criterion("boosting: stump oracle, monotone deviance, 1-stage separable; <10s"):
        start = time.monotonic()
        for seed in (11, 22, 33):
            data = _random_dataset(180, 6, seed)
            model = train_boosted(data)
            feature, threshold = _stump_oracle(data)
            assert model.stages[0].feature_index == feature
            assert model.stages[0].threshold == threshold
            deviance = np.asarray(model.training_deviance)
            assert deviance.size == 101
            assert np.all(np.diff(deviance) <= 1e-12)

        separable = _separable()
        one_stage = train_boosted(separable, n_stages=1)
        predicted = np.where(boosted_scores(one_stage, separable.rows) >= 0, 1, -1)
        positives = separable.labels == 1
        assert np.all(predicted[positives] == 1)
        assert np.all(np.diff(one_stage.training_deviance) <= 1e-12)

        fingerprint_data = assemble_one_vs_all(base_profiles, "hub-conduit", "device")
        corpus_model = train_boosted(fingerprint_data)
        assert np.all(np.diff(corpus_model.training_deviance) <= 1e-12)
        assert time.monotonic() - start < 10.0


# --- knn oracle -------------------------------------------------------------


def _knn_oracle(model, x):
    scored = sorted(
        (sum((float(a) - float(b)) ** 2 for a, b in zip(row, x)), i)
        for i, row in enumerate(model.rows)
    )
    vote = sum(int(model.labels[i]) for _, i in scored[: model.k])
    return 1 if vote > 0 else -1


def test_knn_oracle():
    with criterion("kNN matches exhaustive distance-sort oracle on 200 queries; <5s"):
        start = time.monotonic()
        data = _random_dataset(400, 10, seed=44)
        model = train_knn(data, k=5)
        queries = np.random.default_rng(45).uniform(-1, 1, size=(200, 10))
        expected = [_knn_oracle(model, q) for q in queries]
        assert knn_labels(model, queries).tolist() == expected
        assert time.monotonic() - start < 5.0


# --- synthetic end-to-end ---------------------------------------------------


@pytest.fixture(scope="module")
def device_reports(base_profiles):
    reports = {}
    timings = {}
    for variant in (20, 19, 3):
        start = time.monotonic()
        reports[variant] = run_experiment(
            base_profiles, "device", "boosted", variant=variant, k=5, seed=EVAL_SEED
        )
        timings[variant] = time.monotonic() - start
    return reports, timings


def test_device_level_end_to_end(device_reports):
    with criterion("device level, boosted, 20 features: TPR>=0.95, acc>=0.97; <2min"):
        reports, timings = device_reports
        report = reports[20]
        assert len(report.rows) == 6
        for row in report.rows:
            assert row.mean_tpr >= 0.95, row
            assert row.mean_accuracy >= 0.97, row
        assert timings[20] < 120.0


def test_feature_variant_robustness(device_reports):
    with criterion("variant 19 within 0.05 of variant 20; variant 3 above 0.80"):
        reports, _ = device_reports
        tpr20 = {row.label: row.mean_tpr for row in reports[20].rows}
        for row in reports[19].rows:
            assert abs(tpr20[row.label] - row.mean_tpr) <= 0.05, row
        for row in reports[3].rows:
            assert row.mean_tpr > 0.80, row


def test_category_level(base_profiles):
    with criterion("category level: TPR >= 0.90 under 5-fold CV"):
        report = run_experiment(base_profiles, "category", "boosted", 20, k=5, seed=EVAL_SEED)
        labels = {row.label for row in report.rows}
        assert "light" in labels  # the two-archetype category
        for row in report.rows:
            assert row.mean_tpr >= 0.90, row


def test_cross_instance(corpus_profiles):
    with criterion("cross-instance: train on twin A, test on twin B, TPR >= 0.99"):
        report = run_experiment(corpus_profiles, "instance", "boosted", 20)
        assert len(report.rows) == 1
        assert report.rows[0].mean_tpr >= 0.99


# --- pcap round trip --------------------------------------------------------


def test_pcap_round_trip(tmp_path):
    with criterion("pcap write/read identity on 1000 random frames"):
        rng = np.random.default_rng(77)
        frames = []
        for _ in range(1000):
            size = int(rng.integers(14, 600))
            frames.append(
                RawFrame(
                    int(rng.integers(0, 2**31)),
                    int(rng.integers(0, 1_000_000)),
                    size,
                    bytes(rng.integers(0, 256, size=size, dtype=np.uint8)),
                )
            )
        path = tmp_path / "random.pcap"
        assert write_capture(path, frames) == 1000
        _, back = read_capture(path)
        assert len(back) == 1000
        for orig, readback in zip(frames, back):
            assert readback.data == orig.data
            assert (readback.ts_sec, readback.ts_usec) == (orig.ts_sec, orig.ts_usec)
            assert readback.original_length == orig.original_length


# --- CLI determinism --------------------------------------------------------


def test_evaluate_determinism(base_profiles, tmp_path):
    with criterion("cmd_evaluate twice with one seed: byte-identical reports"):
        paths = []
        for profile in base_profiles[:3]:
            trimmed = BehavioralProfile(
                profile.device_label,
                profile.category_label,
                profile.fingerprints[:100],
                profile.source,
            )
            path = tmp_path / f"{profile.device_label}.profile.json"
            save_profile(trimmed, path)
            paths.append(str(path))
        reports = []
        for name in ("one", "two"):
            out = tmp_path / f"report-{name}.json"
            code = cli_main(["evaluate", "--profiles", *paths, "--seed", "17", "--out", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        json.loads(reports[0])  # machine-readable
