"""Command-line surface for batch fingerprinting workflows.

Exit codes: 0 success, 2 configuration error (bad or missing flags),
3 data error (unreadable captures, insufficient traffic, bad documents).
Errors are reported as a single machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, ml, synth
from .errors import InsufficientTraffic, IotprintError
from .features import FEATURE_NAMES, extract_features, ecdf, render_features_csv
from .fingerprint import (
    build_fingerprints,
    build_profile,
    format_session_average,
    load_profile,
    packets_from_capture,
    save_profile,
    session_stats,
)
from .packet_model import parse_mac
from .pcap_io import DeviceSelector, filter_device, write_capture

IDENTIFY_SCHEMA = "identify-report/1"
LABELS_SCHEMA = "trace-labels/1"

_ECDF_ALIASES = {"entropy": "entropy", "length": "tcp_payload_length", "window": "tcp_window_size"}


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep errors to one parseable line
        raise _ConfigError(message)


def _ip_address(text: str) -> str:
    """argparse type: an IPv4 or IPv6 address in canonical form."""
    try:
        return str(ipaddress.ip_address(text))
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
    p.add_argument("--variant", type=int, choices=tuple(evaluation.VARIANT_TAGS), default=20)
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
    p.add_argument("--variant", type=int, choices=tuple(evaluation.VARIANT_TAGS), default=20)
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


def _selected_packets(args) -> list:
    """The capture's parsed packets, narrowed to the device if a selector is given.

    A MAC-only selector picks frames before they are parsed; one with
    `--ip` needs parsed addresses, so every frame is parsed first.
    """
    sel = _selector(args, required=False)
    if sel is not None and not sel.needs_parsed_fields:
        packets, _ = packets_from_capture(args.pcap, sel)
        return packets
    packets, _ = packets_from_capture(args.pcap)
    return packets if sel is None else filter_device(packets, sel)


def _cmd_extract(args) -> int:
    csv_text = render_features_csv([extract_features(p) for p in _selected_packets(args)])
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_profile(args) -> int:
    profile = build_profile(args.pcap, _selector(args, required=True), args.label, args.category)
    save_profile(profile, args.out)
    print(f"wrote profile {args.label!r} with {len(profile.fingerprints)} fingerprints")
    return 0


def _cmd_sessions(args) -> int:
    stats = session_stats(_selected_packets(args))
    print("Total Sessions' Packets  Sessions  Packets/Session")
    print(
        f"{stats.total_session_packets:<23}  {stats.session_count:<8}  "
        f"{format_session_average(stats.avg_packets_per_session)}"
    )
    return 0


def _cmd_ecdf(args) -> int:
    column = _ECDF_ALIASES.get(args.feature, args.feature)
    index = FEATURE_NAMES.index(column)
    for path in args.pcaps:
        packets, _ = packets_from_capture(path)
        values = [extract_features(p)[index] for p in packets]
        print(f"# capture: {path}  feature: {column}  n={len(values)}")
        print("value\tprobability")
        for value, prob in ecdf(values):
            print(f"{value!r}\t{prob!r}")
    return 0


def _load_profiles(paths) -> list:
    return [load_profile(p) for p in paths]


def _cmd_train(args) -> int:
    profiles = _load_profiles(args.profiles)
    data = evaluation.assemble_one_vs_all(profiles, args.positive, args.level)
    cols = evaluation.variant_columns(args.variant)
    reduced = ml.LabeledDataset(data.rows[:, cols], data.labels, data.positive_class)
    model = evaluation.train_classifier(args.classifier, reduced)
    ml.save_model(model, args.out, cols)
    print(f"wrote {args.classifier} model for {args.positive!r} ({len(reduced)} rows)")
    return 0


def _shared_knn_labels(loaded: list, prints: np.ndarray) -> dict:
    """The kNN member's labels of every vote model, by its index in `loaded`.

    Members that read the same columns with equal k and rows (vote
    models trained from the same profiles) share one neighbour search.
    """
    groups = []  # [columns, knn member, indices into loaded]
    for i, (model, columns) in enumerate(loaded):
        if not isinstance(model, ml.VoteModel):
            continue
        knn = model.knn
        for group_columns, first, members in groups:
            same = group_columns == columns and first.k == knn.k
            if same and (first.rows is knn.rows or np.array_equal(first.rows, knn.rows)):
                members.append(i)
                break
        else:
            groups.append([columns, knn, [i]])
    shared = {}
    for columns, first, members in groups:
        labels = np.column_stack([loaded[i][0].knn.labels for i in members])
        found = ml.knn_labels(first, prints[:, columns], labels=labels)
        shared.update(zip(members, found.T))
    return shared


def _cmd_identify(args) -> int:
    packets = _selected_packets(args)
    prints = build_fingerprints([extract_features(p) for p in packets])
    if not len(prints):
        raise InsufficientTraffic(
            f"insufficient traffic: {len(packets)} packets yield no fingerprints"
        )
    decoded = {}  # packed kNN arrays, decoded once for all of this call's models
    loaded = [ml.load_model(p, decoded) for p in args.models]
    classes = [model.positive_class for model, _ in loaded]
    for name in classes:
        if classes.count(name) > 1:
            raise ValueError(f"{classes.count(name)} models have the positive class {name!r}")
    shared = _shared_knn_labels(loaded, prints)
    per_fingerprint = [[] for _ in range(len(prints))]
    positives = {}
    for i, (model, columns) in enumerate(loaded):
        X = prints[:, columns]
        labels = model.predict(X, knn=shared[i]) if i in shared else model.predict(X)
        hits = labels == 1
        positives[model.positive_class] = int(hits.sum())
        for j in np.flatnonzero(hits):
            per_fingerprint[int(j)].append(model.positive_class)
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
    print(json.dumps(doc, indent=1, allow_nan=False))
    return 0


def _cmd_evaluate(args) -> int:
    profiles = _load_profiles(args.profiles)
    report = evaluation.run_experiment(
        profiles,
        level=args.level,
        classifier=args.classifier,
        variant=args.variant,
        k=args.folds,
        seed=args.seed,
    )
    sys.stdout.write(evaluation.format_report(report))
    if args.out:
        evaluation.save_report(report, args.out)
    return 0


def _write_trace(out_dir: Path, stem: str, frames, labels) -> None:
    write_capture(out_dir / f"{stem}.pcap", frames)
    doc = {"schema": LABELS_SCHEMA, "labels": list(labels)}
    (out_dir / f"{stem}.labels.json").write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


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
    parser = build_parser()
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
    except (IotprintError, OSError, ValueError) as err:
        print(f"error: data: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
