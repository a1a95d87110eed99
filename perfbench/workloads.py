"""Workloads: how their inputs are set up, the ops of one pass, and the output checks.

Every op is one `iotprint.cli.main(argv)` call. Set-up drives the same
CLI (and `write_capture` for the merged gateway capture); only the
calls into the program count towards set-up time, not the benchmark's
own bookkeeping between them.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ingest-corpus", "evaluate-device", "identify-gateway")

FINGERPRINT_PACKETS = 5
TPR_MIN = 0.95
ACCURACY_MIN = 0.97


class SetupError(Exception):
    """Set-up could not build the workload's inputs."""


@dataclass
class Op:
    argv: list
    check: str  # key into CHECKS
    expect: dict
    frames: int  # pcap frames the op decodes


@dataclass
class Plan:
    workload: str
    ops: list
    warmup: int  # leading ops run once, untimed, before the measured passes
    setup_s: float = 0.0
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Device:
    stem: str
    pcap: Path
    label: str
    category: str
    mac: str
    frames: int
    matching: int  # frames whose sidecar label is the device's own


class _Stopwatch:
    """Sums the time spent inside `with stopwatch:` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start


def _cli(argv: list) -> None:
    from iotprint import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise SetupError(f"set-up step `{argv[0]}` exited {code}: {err.getvalue().strip()}")


def _frame_macs(path: Path) -> tuple:
    """(MACs in every frame, MACs in any frame) of a pcap, as source or destination."""
    data = path.read_bytes()
    endian = "<" if data[:4] in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1") else ">"
    every, anywhere = None, set()
    pos = 24
    while pos + 16 <= len(data):
        (incl_len,) = struct.unpack_from(endian + "I", data, pos + 8)
        frame = data[pos + 16 : pos + 16 + incl_len]
        macs = {frame[0:6], frame[6:12]}
        every = macs if every is None else every & macs
        anywhere |= macs
        pos += 16 + incl_len
    return every or set(), anywhere


def discover_devices(corpus: Path) -> list:
    """One Device per corpus capture, from its pcap and trace-labels sidecar.

    A device's MAC is the one address in every frame of its capture that
    no other capture holds at all (which drops the shared peer).
    """
    from iotprint import synth

    pcaps = sorted(corpus.glob("*.pcap"))
    macs = {p: _frame_macs(p) for p in pcaps}
    seen = Counter(mac for _, anywhere in macs.values() for mac in anywhere)
    devices = []
    for pcap in pcaps:
        labels = json.loads(pcap.with_suffix(".labels.json").read_text())["labels"]
        label, matching = Counter(labels).most_common(1)[0]
        own = [mac for mac in macs[pcap][0] if seen[mac] == 1]
        if len(own) != 1 or label not in synth.ARCHETYPES:
            raise SetupError(f"cannot tell which device {pcap.name} belongs to")
        devices.append(
            Device(
                stem=pcap.stem,
                pcap=pcap,
                label=label,
                category=synth.ARCHETYPES[label].category,
                mac=own[0].hex(":"),
                frames=len(labels),
                matching=matching,
            )
        )
    return devices


def _profile_argv(device: Device, out: Path) -> list:
    return [
        "profile",
        "--pcap", str(device.pcap),
        "--mac", device.mac,
        "--label", device.label,
        "--category", device.category,
        "--out", str(out),
    ]  # fmt: skip


def _merge_captures(pcaps: list, out: Path) -> int:
    """Merge captures in (timestamp, capture index, frame index) order."""
    from iotprint import pcap_io

    keyed = []
    for capture_index, path in enumerate(pcaps):
        _, frames = pcap_io.read_capture(path)
        for frame_index, frame in enumerate(frames):
            keyed.append(((frame.ts_sec, frame.ts_usec, capture_index, frame_index), frame))
    keyed.sort(key=lambda item: item[0])
    return pcap_io.write_capture(out, [frame for _, frame in keyed])


def setup(workload: str, work_dir: Path, corpus_seed: int, eval_seed: int, reference: Path) -> Plan:
    """Build the workload's inputs under work_dir and return its ops.

    `reference` holds the digest that every evaluation report of these
    seeds and this program must match.
    """
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    clock = _Stopwatch()
    corpus = work_dir / "corpus"
    with clock:
        _cli(["synth", "--corpus", "--seed", str(corpus_seed), "--out-dir", str(corpus)])
    devices = discover_devices(corpus)
    base = []  # the first capture of each device label
    for d in devices:
        if all(b.label != d.label for b in base):
            base.append(d)
    inputs = {
        "captures": len(devices),
        "corpus_frames": sum(d.frames for d in devices),
        "base_profiles": len(base),
    }

    if workload == "ingest-corpus":
        out_dir = work_dir / "measured"
        out_dir.mkdir()
        ops = [
            Op(
                _profile_argv(d, out_dir / f"{d.stem}.profile.json"),
                "profile",
                {"out": str(out_dir / f"{d.stem}.profile.json"),
                 "fingerprints": d.matching // FINGERPRINT_PACKETS},
                d.frames,
            )  # fmt: skip
            for d in devices
        ]
        return Plan(workload, ops, warmup=1, setup_s=clock.seconds, inputs=inputs)

    profile_dir = work_dir / "profiles"
    profile_dir.mkdir()
    profiles = []
    for d in base:
        out = profile_dir / f"{d.stem}.profile.json"
        with clock:
            _cli(_profile_argv(d, out))
        profiles.append(str(out))

    if workload == "evaluate-device":
        report = work_dir / "report.json"
        argv = [
            "evaluate", "--profiles", *profiles,
            "--level", "device", "--classifier", "boosted", "--variant", "20",
            "--folds", "5", "--seed", str(eval_seed), "--out", str(report),
        ]  # fmt: skip
        ops = [Op(argv, "report", {"out": str(report), "reference": str(reference)}, 0)]
        return Plan(workload, ops, warmup=0, setup_s=clock.seconds, inputs=inputs)

    gateway = work_dir / "gateway.pcap"
    with clock:
        gateway_frames = _merge_captures([d.pcap for d in devices], gateway)
    model_dir = work_dir / "models"
    model_dir.mkdir()
    models = []
    for d in base:
        out = model_dir / f"{d.label}.model.json"
        with clock:
            _cli(["train", "--profiles", *profiles, "--positive", d.label,
                  "--classifier", "vote", "--out", str(out)])  # fmt: skip
        models.append(str(out))
    ops = [
        Op(["identify", *models, "--pcap", str(gateway), "--mac", d.mac],
           "verdict", {"label": d.label}, gateway_frames)  # fmt: skip
        for d in devices
    ]
    inputs["gateway_frames"] = gateway_frames
    inputs["gateway_bytes"] = gateway.stat().st_size
    return Plan(workload, ops, warmup=1, setup_s=clock.seconds, inputs=inputs)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _check_profile(expect: dict, stdout: str) -> tuple:
    doc = _strict_json(Path(expect["out"]).read_text(encoding="ascii"))
    built = len(doc["fingerprints"])
    wanted = expect["fingerprints"]
    return built == wanted, f"{built} fingerprints, expected {wanted}", {}


def _check_report(expect: dict, stdout: str) -> tuple:
    raw = Path(expect["out"]).read_bytes()
    rows = _strict_json(raw.decode("ascii"))["results"]
    values = {
        "min_mean_tpr": min(row["mean_tpr"] for row in rows),
        "min_mean_accuracy": min(row["mean_accuracy"] for row in rows),
    }
    problems = []
    if values["min_mean_tpr"] < TPR_MIN:
        problems.append(f"min mean_tpr {values['min_mean_tpr']} < {TPR_MIN}")
    if values["min_mean_accuracy"] < ACCURACY_MIN:
        problems.append(f"min mean_accuracy {values['min_mean_accuracy']} < {ACCURACY_MIN}")
    digest = hashlib.sha256(raw).hexdigest()
    reference = Path(expect["reference"])
    if reference.exists():
        if reference.read_text().strip() != digest:
            problems.append("report differs from an earlier report of the same seeds")
    else:
        reference.parent.mkdir(parents=True, exist_ok=True)
        reference.write_text(digest + "\n")
    return not problems, "; ".join(problems) or "ok", values


def _check_verdict(expect: dict, stdout: str) -> tuple:
    verdict = _strict_json(stdout)["verdict"]
    return verdict == expect["label"], f"verdict {verdict!r}, true label {expect['label']!r}", {}


CHECKS = {"profile": _check_profile, "report": _check_report, "verdict": _check_verdict}


def check(op: dict, stdout: str) -> tuple:
    """(passed, detail, values) for one op whose exit code was 0."""
    try:
        return CHECKS[op["check"]](op["expect"], stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"output unreadable: {type(exc).__name__}: {exc}", {}
