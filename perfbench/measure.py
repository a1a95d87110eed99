"""Measured phase of one benchmark run, in a process of its own.

    python3 perfbench/measure.py PLAN.json RESULT.json

A closed loop with one client: each op is one in-process
`iotprint.cli.main(argv)` call, and the next op starts when it returns.
The plan's warm-up ops run first, untimed; then whole passes over the
ops repeat until the plan's seconds are spent (at least one pass).
Every op's output is checked; an op that fails, raises or fails its
check is recorded and the loop goes on.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads
from layers import Tracer


def run_op(cli, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed op, never the end of the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if code == 0:
        ok, detail, values = workloads.check(op, out.getvalue())
    else:
        ok, values = False, {}
        detail = error or err.getvalue().strip() or f"exit code {code}"
    return {"argv0": op["argv"][0], "wall_s": wall, "cpu_s": cpu, "ok": ok, "detail": detail,
            "values": values}  # fmt: skip


def measure(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import iotprint
    from iotprint import cli

    ops = plan["ops"]
    warmup = [run_op(cli, op) for op in ops[: plan["warmup"]]]
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install(iotprint)
    passes = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < plan["seconds"]:
            passes.append([run_op(cli, op) for op in ops])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv: list) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    result = measure(plan)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
