"""Command-line surface for batch fingerprinting workflows.

Exit codes: 0 success, 2 configuration error (bad or missing flags),
3 data error (unreadable captures, insufficient traffic, bad documents).
A data error is any ValueError, OSError or MemoryError the package lets
out. Errors are reported as a single machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import documents, evaluation, ml, synth
from .features import FEATURE_NAMES, VARIANT_TAGS, ecdf, variant_columns, write_features_csv
from .fingerprint import (
    build_fingerprints,
    build_profile,
    format_session_average,
    load_profile,
    read_rows,
    save_profile,
    session_stats,
)
from .packet_model import parse_mac
from .pcap_io import DeviceSelector, write_capture

IDENTIFY_SCHEMA = "identify-report/1"
LABELS_SCHEMA = "trace-labels/1"

_ECDF_ALIASES = {"length": "tcp_payload_length", "window": "tcp_window_size"}


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep errors to one parseable line
        raise _ConfigError(message)


def _ip_address(text: str) -> str:
    """argparse type: an IPv4 or IPv6 address without a zone, in canonical form."""
    try:
        return DeviceSelector(ip=text).ip
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_selector(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mac", type=parse_mac, help="device MAC, e.g. 02:00:00:00:01:01")
    parser.add_argument("--ip", type=_ip_address, help="device IP address")


def _int_at_least(low: int):
    """argparse type: an integer >= low; anything else is a config error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _selector(args: argparse.Namespace, required: bool) -> DeviceSelector | None:
    if args.mac is None and args.ip is None:
        if required:
            raise _ConfigError("a device selector (--mac and/or --ip) is required")
        return None
    return DeviceSelector(mac=args.mac, ip=args.ip)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iotprint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="write per-packet feature CSV")
    p.add_argument("--pcap", required=True)
    _add_selector(p)
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("profile", help="build and persist a behavioral profile")
    p.add_argument("--pcap", required=True)
    _add_selector(p)
    p.add_argument("--label", required=True, help="device label")
    p.add_argument("--category", required=True, help="device category label")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sessions", help="print port-pair session statistics")
    p.add_argument("--pcap", required=True)
    _add_selector(p)

    p = sub.add_parser("ecdf", help="print a feature ECDF table per capture")
    p.add_argument("feature", choices=sorted(set(FEATURE_NAMES[17:]) | set(_ECDF_ALIASES)))
    p.add_argument("pcaps", nargs="+")

    p = sub.add_parser("train", help="train and persist a one-vs-all model")
    p.add_argument("--profiles", nargs="+", required=True)
    p.add_argument("--positive", required=True, help="positive class label")
    p.add_argument("--classifier", choices=evaluation.CLASSIFIERS, default="boosted")
    p.add_argument("--variant", type=int, choices=tuple(VARIANT_TAGS), default=20)
    p.add_argument("--level", choices=("device", "category"), default="device")
    p.add_argument("--out", required=True)

    p = sub.add_parser("identify", help="fingerprint a capture against stored models")
    p.add_argument("models", nargs="+", help="model document paths")
    p.add_argument("--pcap", required=True)
    _add_selector(p)

    p = sub.add_parser("evaluate", help="run the cross-validation experiment")
    p.add_argument("--profiles", nargs="+", required=True)
    p.add_argument("--level", choices=evaluation.LEVELS, default="device")
    p.add_argument("--classifier", choices=evaluation.CLASSIFIERS, default="boosted")
    p.add_argument("--variant", type=int, choices=tuple(VARIANT_TAGS), default=20)
    p.add_argument("--folds", type=_int_at_least(2), default=evaluation.DEFAULT_FOLDS)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("synth", help="generate labeled synthetic captures")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", action="store_true", help="emit the standard corpus")
    group.add_argument("--archetype", choices=sorted(synth.ARCHETYPES))
    p.add_argument("--packets", type=_int_at_least(0), default=synth.CORPUS_PACKETS)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out-dir", required=True)
    return parser


def _cmd_extract(args) -> int:
    rows, _, _ = read_rows(args.pcap, _selector(args, required=False))
    if args.out:
        with open(args.out, "w", encoding="ascii") as out:
            write_features_csv(rows, out)
    else:
        write_features_csv(rows, sys.stdout)
    return 0


def _cmd_profile(args) -> int:
    profile = build_profile(args.pcap, _selector(args, required=True), args.label, args.category)
    save_profile(profile, args.out)
    print(f"wrote profile {args.label!r} with {len(profile.fingerprints)} fingerprints")
    return 0


def _cmd_sessions(args) -> int:
    _, ports, _ = read_rows(args.pcap, _selector(args, required=False))
    total, sessions = session_stats(ports)
    print("Total Sessions' Packets  Sessions  Packets/Session")
    print(f"{total:<23}  {sessions:<8}  {format_session_average(total, sessions)}")
    return 0


def _cmd_ecdf(args) -> int:
    column = _ECDF_ALIASES.get(args.feature, args.feature)
    index = FEATURE_NAMES.index(column)
    tables = []  # all computed first, so a capture that fails leaves no partial output
    for path in args.pcaps:
        values = read_rows(path)[0][:, index]
        if not len(values):
            raise ValueError(f"ecdf needs at least one value; capture {path} has no packets")
        tables.append((path, len(values), ecdf(values)))
    for path, n, table in tables:
        print(f"# capture: {path}  feature: {column}  n={n}")
        print("value\tprobability")
        for value, prob in table:
            print(f"{value!r}\t{prob!r}")
    return 0


def _cmd_train(args) -> int:
    profiles = [load_profile(p) for p in args.profiles]
    data = evaluation.assemble_one_vs_all(profiles, args.positive, args.level, args.variant)
    model = evaluation.train_classifier(args.classifier, data)
    ml.save_model(model, args.out, variant_columns(args.variant), args.positive)
    print(f"wrote {args.classifier} model for {args.positive!r} ({len(data)} rows)")
    return 0


def _cmd_identify(args) -> int:
    decoded = {}  # packed kNN arrays, decoded once for all of this call's models
    loaded = [ml.load_model(p, decoded) for p in args.models]
    classes = [name for _, _, name in loaded]
    for name in classes:
        if classes.count(name) > 1:
            raise ValueError(f"{classes.count(name)} models have the positive class {name!r}")
    rows, _, _ = read_rows(args.pcap, _selector(args, required=False))
    prints = build_fingerprints(rows)
    if not len(prints):
        raise ValueError(f"insufficient traffic: {len(rows)} packets yield no fingerprints")
    per_fingerprint = [[] for _ in range(len(prints))]
    positives = {}
    for model, columns, name in loaded:
        hits = model.predict(prints[:, columns]) == 1
        positives[name] = int(hits.sum())
        for j in np.flatnonzero(hits):
            per_fingerprint[int(j)].append(name)
    best = max(positives.values())
    leaders = [label for label, n in positives.items() if n == best]
    verdict = leaders[0] if best > len(prints) / 2 and len(leaders) == 1 else "unknown"
    doc = {
        "schema": IDENTIFY_SCHEMA,
        "fingerprints": len(prints),
        "positives_per_model": positives,
        "per_fingerprint": per_fingerprint,
        "verdict": verdict,
    }
    print(documents.json_text(doc))
    return 0


def _cmd_evaluate(args) -> int:
    profiles = [load_profile(p) for p in args.profiles]
    report = evaluation.run_experiment(
        profiles,
        level=args.level,
        classifier=args.classifier,
        variant=args.variant,
        k=args.folds,
        seed=args.seed,
    )
    if not report["results"]:  # only the instance level, when no device label has a twin
        raise ValueError("no device label appears in two profiles, so no instance is held out")
    if args.out:  # written first, so a failed write leaves stdout empty
        documents.save_doc(args.out, report)
    sys.stdout.write(evaluation.format_report(report))
    return 0


def _write_trace(out_dir: Path, stem: str, frames, labels) -> None:
    write_capture(out_dir / f"{stem}.pcap", frames)
    labels_doc = {"schema": LABELS_SCHEMA, "labels": list(labels)}
    documents.save_doc(out_dir / f"{stem}.labels.json", labels_doc)


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.corpus:
        for entry in synth.standard_corpus(args.seed):
            stem = f"{entry.archetype.name}-{entry.instance}"
            _write_trace(out_dir, stem, entry.frames, entry.labels)
            print(f"wrote {stem}.pcap ({len(entry.frames)} frames)")
    else:
        arch = synth.ARCHETYPES[args.archetype]
        frames, labels = synth.generate_trace(arch, args.packets, args.seed)
        _write_trace(out_dir, arch.name, frames, labels)
        print(f"wrote {arch.name}.pcap ({len(frames)} frames)")
    return 0


# Parsing keeps no state in a parser, so one serves every `main` call of the process.
_parser = functools.cache(build_parser)

_COMMANDS = {
    "extract": _cmd_extract,
    "profile": _cmd_profile,
    "sessions": _cmd_sessions,
    "ecdf": _cmd_ecdf,
    "train": _cmd_train,
    "identify": _cmd_identify,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except _ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: data: {err}", file=sys.stderr)
        return 3
    except MemoryError:  # an input too large for this machine is still a data error
        print("error: data: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
