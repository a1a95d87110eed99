"""Tests of the benchmark itself; they take a few minutes and are not part of `tests/`.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import iotprint  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from iotprint import cli, fingerprint  # noqa: E402
from layers import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRAS = {
    "ingest-corpus": {"failed_ops_ratio", "op_tail_ms", "frames_per_s"},
    "evaluate-device": {"failed_ops_ratio", "min_mean_tpr", "min_mean_accuracy"},
    "identify-gateway": {"failed_ops_ratio", "frames_per_s", "verdict_accuracy"},
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _measure(plan) -> dict:
    doc = {"src": str(ROOT / "src"), "ops": [asdict(op) for op in plan.ops],
           "warmup": plan.warmup, "seconds": 0, "trace": False}  # fmt: skip
    return measure.measure(doc)


def test_metric_lists_match_benchmark_json():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.ALL_PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "2.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    if not trace:
        assert set(report["extras"]) == EXTRAS[workload]
        spec.update({name: m["unit"] for name, m in report["extras"].items()})
    table = {line.split()[1]: line.split()[-1] for line in lines[:-2]}
    assert table == spec
    assert {"nproc", "python", "numpy", "blas_threads", "corpus_seed", "eval_seed"} <= set(
        report["environment"]
    )

    value = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "ingest-corpus":
        assert all(v == 0 for name, v in value.items() if name.startswith("ml."))
        assert value["pcap_io.selector_match_ratio"] == pytest.approx(1.0, abs=0.01)
    if trace and workload == "identify-gateway":
        assert value["pcap_io.selector_match_ratio"] == pytest.approx(1 / 7, abs=0.02)
        assert value["ml.knn_distance_pairs"] > 0
    if trace and workload == "evaluate-device":
        assert value["ml.train_boosted.self_s"] > 0.5 * value["trace.wall_s"]
        assert value["ml.train_boosted.calls"] == 30


def test_truncated_profile_is_a_failed_op(tmp_path):
    plan = workloads.setup("evaluate-device", tmp_path, 7, 3, tmp_path / "reference.sha256")
    argv = plan.ops[0].argv
    profile = Path(argv[argv.index("--profiles") + 1])
    profile.write_text(profile.read_text()[:1000])
    result = _measure(plan)
    (op,) = result["passes"][0]
    assert not op["ok"] and op["detail"].startswith("error: data:")
    _, extras = run.end_to_end(plan, [plan.setup_s], result)
    assert extras["failed_ops_ratio"]["value"] == 1.0


def test_truncated_capture_fails_only_its_own_check(tmp_path):
    plan = workloads.setup("ingest-corpus", tmp_path, 7, 3, tmp_path / "reference.sha256")
    argv = plan.ops[2].argv
    pcap = Path(argv[argv.index("--pcap") + 1])
    pcap.write_bytes(pcap.read_bytes()[:-20])
    result = _measure(plan)
    ops = result["warmup"] + result["passes"][0]
    assert [op["ok"] for op in ops] == [True, True, True, False, True, True, True, True]
    assert "fingerprints, expected" in ops[3]["detail"]


def test_op_that_raises_is_a_failed_op(tmp_path):
    model = tmp_path / "bad.model.json"
    stages = [[500, 0.5, 1.0, -1.0]]  # a feature index past the fingerprint width
    model.write_text(json.dumps({"schema": "model/1", "kind": "boosted", "positive_class": "x",
                                 "n_features": 100, "learning_rate": 1.0,
                                 "initial_score": 0.0, "stages": stages}))  # fmt: skip
    plan = workloads.setup("ingest-corpus", tmp_path, 7, 3, tmp_path / "reference.sha256")
    pcap = plan.ops[0].argv[plan.ops[0].argv.index("--pcap") + 1]
    mac = plan.ops[0].argv[plan.ops[0].argv.index("--mac") + 1]
    plan.ops = [workloads.Op(["identify", str(model), "--pcap", pcap, "--mac", mac], "verdict",
                             {"label": "x"}, 0)]  # fmt: skip
    plan.warmup = 0
    (op,) = _measure(plan)["passes"][0]
    assert not op["ok"]


def test_tracer_partitions_time_and_restores_the_program(tmp_path):
    plan = workloads.setup("ingest-corpus", tmp_path, 7, 3, tmp_path / "reference.sha256")
    originals = (cli.main, fingerprint.parse_frame)
    tracer = Tracer()
    tracer.install(iotprint)
    try:
        assert (cli.main, fingerprint.parse_frame) != originals
        assert cli.main(plan.ops[0].argv) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, fingerprint.parse_frame) == originals
    trace = tracer.snapshot()
    children = sum(
        trace["total_s"][name]
        for name in ("fingerprint.packets_from_capture", "pcap_io.filter_device",
                     "features.extract_features", "fingerprint.build_fingerprints")
    )  # fmt: skip
    total = trace["total_s"]["fingerprint.build_profile"]
    assert 0 <= trace["self_s"]["fingerprint.build_profile"] <= total - children + 1e-9
    assert all(value >= -1e-6 for value in trace["self_s"].values())
    assert trace["calls"]["packet_model.parse_frame"] == trace["counts"]["pcap_io.frames_read"]


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ingest-corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
