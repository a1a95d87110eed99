"""iotprint benchmark: one workload, end to end (`--trace 0`) or layer by layer (`--trace 1`).

    python3 perfbench/run.py --workload identify-gateway --seed 7 --seconds 15 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, and all files are written under `.bench_work/` there.
`--seed` is the corpus seed (taken modulo 2**31) and `--eval-seed` the
cross-validation seed. The run sets up its inputs three times (once
when traced) and reports the median set-up time, then runs the
measured phase in a fresh process (`measure.py`). With `--trace 1` it
runs that phase twice, untraced and then traced, and reports per-layer
self times, counts and the tracing overhead. It prints a table of every
metric, then a JSON report line (environment, seeds, input properties,
failures), and last one JSON line with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads are fixed before numpy can load)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Measured-phase layers, per pass; `.self_s` is span time minus child spans.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("pcap_io.read_capture.self_s", "s"),
    ("pcap_io.bytes_read", "bytes"),
    ("pcap_io.frames_read", "count"),
    ("pcap_io.truncated_records", "count"),
    ("pcap_io.filter_device.self_s", "s"),
    ("pcap_io.selector_match_ratio", "ratio"),
    ("packet_model.parse_frame.self_s", "s"),
    ("packet_model.frames_parsed", "count"),
    ("packet_model.frames_skipped", "count"),
    ("features.extract_features.self_s", "s"),
    ("features.shannon_entropy.self_s", "s"),
    ("features.packets_extracted", "count"),
    ("features.payload_bytes", "bytes"),
    ("fingerprint.packets_from_capture.self_s", "s"),
    ("fingerprint.build_fingerprints.self_s", "s"),
    ("fingerprint.fingerprints_built", "count"),
    ("fingerprint.remainder_dropped", "count"),
    ("fingerprint.save_profile.self_s", "s"),
    ("fingerprint.profile_bytes", "bytes"),
    ("fingerprint.load_profile.self_s", "s"),
    ("evaluation.assemble_one_vs_all.self_s", "s"),
    ("evaluation.stratified_folds.self_s", "s"),
    ("evaluation.run_experiment.self_s", "s"),
    ("evaluation.folds_run", "count"),
    ("ml.train_boosted.self_s", "s"),
    ("ml.train_boosted.calls", "count"),
    ("ml.boost_stages", "count"),
    ("ml.split_boundaries_valid_ratio", "ratio"),
    ("ml.knn_labels.self_s", "s"),
    ("ml.knn_distance_pairs", "count"),
    ("ml.boosted_scores.self_s", "s"),
    ("ml.tree_labels.self_s", "s"),
    ("ml.rows_scored", "count"),
    ("ml.load_model.self_s", "s"),
    ("ml.model_bytes", "bytes"),
)
# Set-up layers, from one traced set-up.
SETUP_LAYER = (
    ("synth.standard_corpus.self_s", "s"),
    ("synth.standard_corpus.total_s", "s"),
    ("synth.frames_generated", "count"),
    ("pcap_io.write_capture.self_s", "s"),
    ("evaluation.train_classifier.self_s", "s"),
    ("evaluation.train_classifier.total_s", "s"),
)
TRACE_LAYER = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
ALL_PER_LAYER = PER_LAYER + SETUP_LAYER + TRACE_LAYER

RATIOS = {
    "pcap_io.selector_match_ratio": ("pcap_io.selector_matched", "pcap_io.selector_checked"),
    "ml.split_boundaries_valid_ratio": ("ml.split_boundaries_valid", "ml.split_boundaries"),
}


class BenchError(Exception):
    """The run could not produce a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    parser.add_argument("--eval-seed", type=int, default=3, help="cross-validation seed (default 3)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "iotprint").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(corpus_seed: int, eval_seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and cannot return it
        blas = {}
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "corpus_seed": corpus_seed,
        "eval_seed": eval_seed,
    }


def _run_setup(args, run_dir: Path, corpus_seed: int):
    """Set up once when traced, else SETUP_REPS times.

    Returns the plan of the last set-up, every set-up time and the set-up trace.
    """
    import iotprint

    reference = WORK / "reports" / f"{_src_digest()}-c{corpus_seed}-e{args.eval_seed}.sha256"
    reps = 1 if args.trace else SETUP_REPS
    tracer = Tracer() if args.trace else None
    times = []
    for rep in range(reps):
        rep_dir = run_dir / f"setup-{rep}"
        rep_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.install(iotprint)
        try:
            plan = workloads.setup(args.workload, rep_dir, corpus_seed, args.eval_seed, reference)
        except workloads.SetupError as exc:
            raise BenchError(str(exc)) from exc
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(plan.setup_s)
        if rep + 1 < reps:
            shutil.rmtree(rep_dir)
    return plan, times, tracer.snapshot() if tracer is not None else None


def _measure(plan, run_dir: Path, seconds: float, traced: bool) -> dict:
    """Run the measured phase in a fresh process and return its records."""
    tag = "traced" if traced else "untraced"
    plan_path, result_path = run_dir / f"plan-{tag}.json", run_dir / f"result-{tag}.json"
    doc = {
        "src": str(SRC),
        "ops": [asdict(op) for op in plan.ops],
        "warmup": plan.warmup,
        "seconds": seconds,
        "trace": traced,
    }
    plan_path.write_text(json.dumps(doc))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(plan_path), str(result_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured phase exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"measured phase exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def _pass_totals(result: dict, key: str) -> list:
    return [sum(op[key] for op in ops) for ops in result["passes"]]


def _ops(result: dict) -> list:
    return result["warmup"] + [op for ops in result["passes"] for op in ops]


def end_to_end(plan, setup_times: list, result: dict) -> tuple:
    """(metrics, extras): the end-to-end metrics and the workload-specific ones."""
    wall_s = statistics.median(_pass_totals(result, "wall_s"))
    latencies = sorted(op["wall_s"] for ops in result["passes"] for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "cpu_s": statistics.median(_pass_totals(result, "cpu_s")),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    ops = _ops(result)
    failed = sum(not op["ok"] for op in ops)
    extras = {
        "failed_ops_ratio": {"value": failed / len(ops), "unit": "ratio", "failed": failed,
                             "attempted": len(ops)},
    }  # fmt: skip
    if len(latencies) > 10:  # the highest percentile with at least ten ops beyond it
        at = len(latencies) - 11
        extras["op_tail_ms"] = {
            "value": latencies[at] * 1e3,
            "unit": "ms",
            "percentile": 100.0 * (at + 1) / len(latencies),
            "ops": len(latencies),
        }
    frames = sum(op.frames for op in plan.ops)
    if frames:
        extras["frames_per_s"] = {"value": frames / wall_s, "unit": "frames/s"}
    if plan.workload == "evaluate-device":
        for name in ("min_mean_tpr", "min_mean_accuracy"):
            seen = [op["values"][name] for op in ops if name in op["values"]]
            extras[name] = {"value": min(seen) if seen else 0.0, "unit": "ratio"}
    if plan.workload == "identify-gateway":
        right = sum(op["ok"] for op in ops)
        extras["verdict_accuracy"] = {"value": right / len(ops), "unit": "ratio"}
    return metrics, extras


def _layer_value(name: str, trace: dict, passes: int) -> float:
    if name in RATIOS:
        numerator, denominator = (trace["counts"].get(key, 0) for key in RATIOS[name])
        return numerator / denominator if denominator else 0.0
    for suffix, table in ((".self_s", "self_s"), (".total_s", "total_s"), (".calls", "calls")):
        if name.endswith(suffix):
            return trace[table].get(name[: -len(suffix)], 0.0) / passes
    return trace["counts"].get(name, 0) / passes


def per_layer(setup_trace: dict, untraced: dict, traced: dict) -> dict:
    trace, passes = traced["trace"], len(traced["passes"])
    metrics = {name: _layer_value(name, trace, passes) for name, _ in PER_LAYER}
    metrics.update({name: _layer_value(name, setup_trace, 1) for name, _ in SETUP_LAYER})
    traced_wall = statistics.median(_pass_totals(traced, "wall_s"))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(_pass_totals(untraced, "wall_s"))
    return metrics


def _layer_table(trace: dict, passes: int) -> dict:
    """Every traced function: self and total seconds and calls, per pass."""
    return {
        name: {
            "self_s": trace["self_s"][name] / passes,
            "total_s": trace["total_s"][name] / passes,
            "calls": trace["calls"][name] / passes,
        }
        for name in sorted(trace["calls"])
    }


def run(args) -> tuple:
    """(report, result line) for one run; raises BenchError when there is no result."""
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; pick one of {workloads.WORKLOADS}")
    corpus_seed = args.seed % 2**31
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        plan, setup_times, setup_trace = _run_setup(args, run_dir, corpus_seed)
        if args.trace:  # untraced, then traced
            results = [_measure(plan, run_dir, args.seconds / 2, traced) for traced in (False, True)]
        else:
            results = [_measure(plan, run_dir, args.seconds, False)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [op for result in results for op in _ops(result)]
    failures = [f"{op['argv0']}: {op['detail']}" for op in ops if not op["ok"]]
    e2e, extras = end_to_end(plan, setup_times, results[0])
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(corpus_seed, args.eval_seed),
        "load": {
            "model": "closed loop, one client, in-process cli.main calls",
            "ops_per_pass": len(plan.ops),
            "warmup_ops": plan.warmup,
            "passes": [len(result["passes"]) for result in results],
        },
        "inputs": plan.inputs,
        "setup_s_reps": setup_times,
        "extras": extras,
        "failures": failures[:10],
    }
    if args.trace:
        values, units = per_layer(setup_trace, results[0], results[1]), dict(ALL_PER_LAYER)
        report["untraced_wall_s"] = e2e["wall_s"]
        report["layers"] = _layer_table(results[1]["trace"], len(results[1]["passes"]))
        report["setup_layers"] = _layer_table(setup_trace, 1)
        report["counts"] = results[1]["trace"]["counts"]
    else:
        values, units = e2e, dict(END_TO_END)
    line = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return report, line


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "iotprint" / "__init__.py").is_file():
        print(f"error: no iotprint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report, line = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    if not args.trace:
        rows += [(name, m["value"], m["unit"]) for name, m in report["extras"].items()]
    for name, value, unit in rows:
        print(f"{args.workload:<17} {name:<40} {value:>18.6f} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
