"""Deterministic cost budgets: the calls and the memory peak of warm CLI ops.

Wall time on a shared machine drifts too far to gate a change in a unit
test, but two costs of an op come out the same on every warm repeat: the
Python-level and C-level calls that `sys.setprofile` sees, and the
tracemalloc peak (to within about a kilobyte). This test runs one warm op
each of `identify`, `profile` and `extract` on the seed-7 corpus, and one
small `evaluate`, and holds each cost to `FACTOR` times its entry in the
committed table `budgets.json`. A per-frame Python loop over a capture,
or a copy of a capture's bytes, breaks a budget; work inside numpy does
not.

The counts depend on the Python and numpy versions, which the table
records, and the test is skipped under others. A change that moves a
cost on purpose rewrites the table and says why:

    PYTHONPATH=src python tests/test_budgets.py > tests/budgets.json
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from iotprint import cli, synth
from iotprint.pcap_io import write_capture

TABLE = Path(__file__).with_name("budgets.json")
FACTOR = 1.10
VERSIONS = {"python": sys.version.split()[0], "numpy": np.__version__}


def _run(argv: list) -> None:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def _ops(corpus, work: Path) -> dict:
    """The argv of each measured op, after writing the inputs they read.

    `identify` runs one vote model over every corpus capture merged in
    time order (17,500 frames, as a gateway sees them); `profile` and
    `extract` read one device's capture, and `evaluate` does 2 folds of
    3 devices' profiles.
    """
    pcaps, merged, profiles = [], [], []
    for i, entry in enumerate(corpus):
        pcaps.append(work / f"{entry.archetype.name}-{entry.instance}.pcap")
        write_capture(pcaps[-1], entry.frames)
        merged += [((f.ts_sec, f.ts_usec, i, j), f) for j, f in enumerate(entry.frames)]
    gateway = work / "gateway.pcap"
    write_capture(gateway, [frame for _, frame in sorted(merged, key=lambda item: item[0])])
    macs = [entry.archetype.mac.hex(":") for entry in corpus]
    for entry, pcap, mac in zip(corpus[:6], pcaps, macs):  # one capture per device label
        arch = entry.archetype
        profiles.append(str(work / f"{arch.name}.profile.json"))
        argv = ["profile", "--pcap", str(pcap), "--mac", mac, "--label", arch.name]
        _run([*argv, "--category", arch.category, "--out", profiles[-1]])
    model = work / "vote.model.json"
    positive = corpus[0].archetype.name
    _run(["train", "--profiles", *profiles, "--positive", positive, "--classifier", "vote",
          "--out", str(model)])  # fmt: skip
    return {
        "identify": ["identify", str(model), "--pcap", str(gateway), "--mac", macs[0]],
        "profile": ["profile", "--pcap", str(pcaps[1]), "--mac", macs[1], "--label", "a",
                    "--category", "b", "--out", str(work / "measured.profile.json")],
        "extract": ["extract", "--pcap", str(pcaps[2]), "--mac", macs[2],
                    "--out", str(work / "measured.csv")],
        "evaluate": ["evaluate", "--profiles", *profiles[:3], "--folds", "2"],
    }  # fmt: skip


def _costs(argv: list) -> dict:
    """The calls and the tracemalloc peak of one run of `argv`, after a warm-up run."""
    _run(argv)
    calls = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in calls:
            calls[event] += 1

    sys.setprofile(count)
    try:
        _run(argv)
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        _run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"python_calls": calls["call"], "c_calls": calls["c_call"], "peak_bytes": peak}


def measure(corpus, work: Path) -> dict:
    return {name: _costs(argv) for name, argv in _ops(corpus, work).items()}


def test_warm_ops_stay_within_their_call_and_memory_budgets(corpus, tmp_path):
    table = json.loads(TABLE.read_text())
    if table["versions"] != VERSIONS:
        pytest.skip(f"budgets were measured under {table['versions']}, not {VERSIONS}")
    measured = measure(corpus, tmp_path)
    over = {
        (op, cost): (value, table["ops"][op][cost])
        for op, costs in measured.items()
        for cost, value in costs.items()
        if value > FACTOR * table["ops"][op][cost]
    }
    assert not over, f"(measured, budget) over {FACTOR}x the table: {over}; measured {measured}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        ops = measure(synth.standard_corpus(7), Path(work))
    print(json.dumps({"versions": VERSIONS, "ops": ops}, indent=1))
