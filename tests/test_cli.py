import base64
import copy
import errno
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import iotprint
from iotprint import cli, documents, fingerprint, ml
from iotprint.cli import main
from iotprint.evaluation import CLASSIFIERS, LEVELS, VARIANT_TAGS, format_report, run_experiment
from iotprint.features import FEATURE_NAMES, FEATURE_SCHEMA, extract_features
from iotprint.fingerprint import (
    BehavioralProfile,
    build_fingerprints,
    load_profile,
    read_rows,
    save_profile,
)
from iotprint.ml import load_model
from iotprint.packet_model import FrameTooShort, RawFrame, TruncatedHeader, parse_frame
from iotprint.pcap_io import DeviceSelector, filter_device, write_capture
from iotprint.synth import ARCHETYPES, generate_trace


@pytest.fixture()
def outlet_pcap(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 600, seed=41)
    path = tmp_path / "outlet.pcap"
    write_capture(path, frames)
    return arch, path


def _make_profiles(tmp_path, names, packets=450, seed=50):
    paths = []
    for i, name in enumerate(names):
        arch = ARCHETYPES[name]
        frames, _ = generate_trace(arch, packets, seed=seed + i)
        pcap = tmp_path / f"{name}.pcap"
        write_capture(pcap, frames)
        out = tmp_path / f"{name}.profile.json"
        code = main(
            [
                "profile",
                "--pcap", str(pcap),
                "--mac", arch.mac.hex(":"),
                "--label", name,
                "--category", arch.category,
                "--out", str(out),
            ]
        )
        assert code == 0
        paths.append(str(out))
    return paths


def test_synth_archetype_writes_pcap_and_labels(tmp_path, capsys):
    code = main(
        ["synth", "--archetype", "outlet", "--packets", "120", "--seed", "5", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "outlet.pcap").exists()
    doc = json.loads((tmp_path / "outlet.labels.json").read_text())
    assert doc["schema"].startswith("trace-labels/")
    assert len(doc["labels"]) == 120
    assert "outlet.pcap" in capsys.readouterr().out


def test_synth_corpus_writes_all_instances(tmp_path, capsys):
    code = main(["synth", "--corpus", "--seed", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    stems = sorted(p.name for p in tmp_path.glob("*.pcap"))
    assert "outlet-a.pcap" in stems and "outlet-b.pcap" in stems
    assert len(stems) == 7
    assert all((tmp_path / s).with_suffix(".labels.json").name for s in stems)
    assert len(list(tmp_path.glob("*.labels.json"))) == 7


def test_extract_writes_csv(outlet_pcap, tmp_path):
    arch, pcap = outlet_pcap
    out = tmp_path / "features.csv"
    code = main(["extract", "--pcap", str(pcap), "--mac", arch.mac.hex(":"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# schema:")
    assert len(lines) == 2 + 600


def test_extract_with_a_mac_matching_no_frame_prints_only_the_header(outlet_pcap, capsys):
    _, pcap = outlet_pcap
    assert main(["extract", "--pcap", str(pcap), "--mac", "02:ff:ff:ff:ff:ff"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"# schema: {FEATURE_SCHEMA}", ",".join(FEATURE_NAMES)]


def test_profile_and_sessions(outlet_pcap, tmp_path, capsys):
    arch, pcap = outlet_pcap
    out = tmp_path / "p.json"
    code = main(
        [
            "profile",
            "--pcap", str(pcap),
            "--mac", arch.mac.hex(":"),
            "--label", "outlet",
            "--category", "power",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(load_profile(out).fingerprints) == 120

    code = main(["sessions", "--pcap", str(pcap)])
    assert code == 0
    output = capsys.readouterr().out
    assert "Packets/Session" in output


def test_profile_requires_selector(outlet_pcap, tmp_path, capsys):
    _, pcap = outlet_pcap
    code = main(
        ["profile", "--pcap", str(pcap), "--label", "x", "--category", "y", "--out", str(tmp_path / "p")]
    )
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_ecdf_prints_table(outlet_pcap, capsys):
    _, pcap = outlet_pcap
    code = main(["ecdf", "window", str(pcap)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tcp_window_size" in out
    assert "probability" in out


@pytest.mark.parametrize("with_good", [False, True], ids=["empty-only", "good-then-empty"])
def test_ecdf_writes_nothing_when_a_capture_fails(outlet_pcap, tmp_path, capsys, with_good):
    empty = tmp_path / "empty.pcap"
    write_capture(empty, [])
    pcaps = [str(outlet_pcap[1])] * with_good + [str(empty)]
    assert main(["ecdf", "entropy", *pcaps]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: data: ecdf needs at least one value; capture {empty} has no packets\n"
    )


def test_train_identify_round_trip(tmp_path, capsys):
    profiles = _make_profiles(tmp_path, ["outlet", "camera-streamer", "hub-conduit"])
    model_path = tmp_path / "outlet.model.json"
    code = main(
        ["train", "--profiles", *profiles, "--positive", "outlet", "--out", str(model_path)]
    )
    assert code == 0
    capsys.readouterr()

    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 200, seed=90)
    target = tmp_path / "target.pcap"
    write_capture(target, frames)
    code = main(["identify", str(model_path), "--pcap", str(target), "--mac", arch.mac.hex(":")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "outlet"
    assert doc["fingerprints"] == 40
    assert doc["positives_per_model"]["outlet"] > 20

    # a different device should not be claimed by the outlet model
    cam = ARCHETYPES["camera-streamer"]
    frames, _ = generate_trace(cam, 200, seed=91)
    other = tmp_path / "cam.pcap"
    write_capture(other, frames)
    code = main(["identify", str(model_path), "--pcap", str(other), "--mac", cam.mac.hex(":")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "unknown"


@pytest.fixture(scope="module")
def three_profiles(tmp_path_factory):
    names = ["outlet", "camera-streamer", "hub-conduit"]
    return _make_profiles(tmp_path_factory.mktemp("profiles"), names)


def _identify(model_path, name, seed, tmp_path, capsys):
    """(exit code, stdout, stderr) of identifying a fresh trace of one archetype."""
    arch = ARCHETYPES[name]
    frames, _ = generate_trace(arch, 200, seed=seed)
    target = tmp_path / f"{name}.pcap"
    write_capture(target, frames)
    capsys.readouterr()
    code = main(["identify", str(model_path), "--pcap", str(target), "--mac", arch.mac.hex(":")])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("variant", tuple(VARIANT_TAGS))
@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_train_identify_every_classifier_and_variant(
    three_profiles, tmp_path, capsys, classifier, variant
):
    model = tmp_path / "outlet.model.json"
    argv = ["train", "--profiles", *three_profiles, "--positive", "outlet", "--out", str(model)]
    assert main([*argv, "--classifier", classifier, "--variant", str(variant)]) == 0
    for name, seed, verdict in (("outlet", 90, "outlet"), ("camera-streamer", 91, "unknown")):
        code, out, _ = _identify(model, name, seed, tmp_path, capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == verdict


@pytest.fixture(scope="module")
def model_docs(three_profiles, tmp_path_factory):
    """`model/4` documents of every classifier."""
    out = tmp_path_factory.mktemp("models")
    docs = {}
    for kind in CLASSIFIERS:
        path = out / f"{kind}.json"
        argv = ["train", "--profiles", *three_profiles, "--positive", "outlet"]
        assert main([*argv, "--classifier", kind, "--out", str(path)]) == 0
        docs[kind] = json.loads(path.read_text())
    return docs


_DELETE = object()


class _Raw(str):
    """JSON text spliced into a document verbatim."""


def _mutated_text(doc, path, value) -> str:
    """JSON text of `doc` with the field at `path` (() is the whole document)
    deleted (_DELETE), replaced by `value`, or by `value(old)`."""
    root = {"doc": copy.deepcopy(doc)}
    parent, path = root, ("doc", *path)
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
        return json.dumps(root["doc"])
    new = value(parent[path[-1]]) if callable(value) else value
    parent[path[-1]] = "@raw@" if isinstance(new, _Raw) else new
    text = json.dumps(root["doc"])
    return text.replace('"@raw@"', new) if isinstance(new, _Raw) else text


def _deep_tree(levels: int) -> _Raw:
    """A tree whose left spine holds `levels` splits."""
    split = '{"feature_index": 0, "threshold": 0.0, "left": '
    return _Raw(split * levels + '{"label": 1}' + ', "right": {"label": -1}}' * levels)


def _deep_right_tree(levels: int) -> dict:
    """A tree whose right spine holds `levels` splits."""
    node = {"label": 1}
    for _ in range(levels):
        node = {"feature_index": 0, "threshold": 0.0, "left": {"label": -1}, "right": node}
    return node


def _inflated(data: str) -> bytes:
    """The array bytes of a packed field's `data`."""
    return zlib.decompress(base64.b64decode(data))


def _deflated(raw: bytes) -> str:
    """`raw` as a packed field's `data`, as `documents.pack` writes it."""
    return base64.b64encode(zlib.compress(raw, 6)).decode("ascii")


def _packed(edit):
    """A mutation of a packed field's `data`: `edit(array bytes)`, deflated and encoded again."""
    return lambda data: _deflated(edit(_inflated(data)))


def _deflated_bytes(edit):
    """A mutation of a packed field's `data`: `edit(zlib stream)`, encoded again."""
    return lambda data: base64.b64encode(edit(base64.b64decode(data))).decode("ascii")


def _set_first(value: bytes):
    return _packed(lambda raw: value + raw[len(value) :])


def _first_50_columns(rows: dict) -> dict:
    """Packed kNN rows cut to their first 50 columns, validly packed."""
    n, width = rows["shape"]
    raw = _inflated(rows["data"])
    cut = b"".join(raw[i * width * 8 : (i * width + 50) * 8] for i in range(n))
    return {**rows, "shape": [n, 50], "data": _deflated(cut)}


# name -> (model document, path to the mutated field, new value, _DELETE,
# or a function of the old value; a _Raw value is JSON text; a fragment of
# the message of the check that must reject it). Each document is one
# `save_model` could not have written.
MODEL_MUTATIONS = {
    "boosted-feature-index-500": (
        "boosted", ("stages", 0, 0), 500,
        "feature_index must be an integer in [0, 99], got 500",
    ),
    "boosted-feature-index-negative": (
        "boosted", ("stages", 0, 0), -1,
        "feature_index must be an integer in [0, 99], got -1",
    ),
    "boosted-n-features-95-under-wide-stages": (
        "boosted", ("columns",), lambda c: c[:95],
        "feature_index must be an integer in [0, 94]",
    ),
    "boosted-stage-7": (
        "boosted", ("stages", 0), 7,
        "model stage must be [feature_index, threshold, left_value, right_value]",
    ),
    "boosted-stage-of-3": (
        "boosted", ("stages", 0), lambda stage: stage[:3],
        "model stage must be [feature_index, threshold, left_value, right_value]",
    ),
    "boosted-threshold-nan": (
        "boosted", ("stages", 0, 1), float("nan"),
        "threshold must be a finite number",
    ),
    "boosted-training-deviance-nan": (
        "boosted", ("training_deviance", 3), float("nan"),
        "training_deviance must be a finite number",
    ),
    "boosted-training-deviance-missing": (
        "boosted", ("training_deviance",), _DELETE,
        "lacks 'training_deviance'",
    ),
    "boosted-leaf-values-1e308": (
        "boosted", ("stages",), lambda stages: [[f, t, 1e308, -1e308] for f, t, _, _ in stages],
        "scores can overflow",
    ),
    # Each leaf or the initial score below must count by its magnitude,
    # and each stage by its larger leaf: a sum that lets them cancel or
    # reads one leaf only stays finite.
    "boosted-initial-score-minus-1e308-one-leaf-1e308": (
        "boosted", (),
        lambda doc: {**doc, "initial_score": -1e308, "stages": [[0, 0.5, 1e308, -1e308]]},
        "scores can overflow",
    ),
    "boosted-right-leaves-1e308": (
        "boosted", ("stages",), lambda stages: [[f, t, 0.0, 1e308] for f, t, _, _ in stages],
        "scores can overflow",
    ),
    "boosted-left-leaves-minus-1e308": (
        "boosted", ("stages",), lambda stages: [[f, t, -1e308, 0.0] for f, t, _, _ in stages],
        "scores can overflow",
    ),
    "boosted-right-leaves-minus-1e308": (
        "boosted", ("stages",), lambda stages: [[f, t, 0.0, -1e308] for f, t, _, _ in stages],
        "scores can overflow",
    ),
    "tree-feature-index-900": (
        "tree", ("root", "feature_index"), 900,
        "feature_index must be an integer in [0, 99], got 900",
    ),
    "tree-node-without-right": ("tree", ("root", "right"), _DELETE, "lacks 'right'"),
    "tree-7-deep-max-depth-5": ("tree", ("root",), _deep_tree(7), "split below its max_depth"),
    "tree-7-deep-right-spine-max-depth-5": (
        "tree", ("root",), _deep_right_tree(7), "split below its max_depth"
    ),
    "tree-3000-deep": ("tree", ("root",), _deep_tree(3000), "nested too deeply"),
    "tree-kind-forest": ("tree", ("kind",), "forest", "unknown model kind 'forest'"),
    "tree-leaf-label-true": (
        "tree", ("root",), {"label": True}, "tree leaf label must be +1 or -1, got True"
    ),
    "tree-leaf-label-1.0": (
        "tree", ("root",), {"label": 1.0}, "tree leaf label must be +1 or -1, got 1.0"
    ),
    "tree-leaf-label-0": ("tree", ("root",), {"label": 0}, "tree leaf label must be +1 or -1, got 0"),
    "tree-root-string-label": ("tree", ("root",), "label", "lacks 'feature_index'"),
    "no-kind": ("boosted", ("kind",), _DELETE, "lacks 'kind'"),
    "vote-lacks-knn": ("vote", ("knn",), _DELETE, "lacks 'knn'"),
    "packed-k-zero": ("knn", ("k",), 0, "model k must be an integer in [1, "),
    "packed-k-million": ("knn", ("k",), 10**6, "model k must be an integer in [1, "),
    "packed-rows-not-base64": (
        "knn", ("rows", "data"), lambda data: "*" + data[1:],
        "rows data is not base64",
    ),
    "packed-rows-base64-not-zlib": (
        "knn", ("rows", "data"), lambda data: base64.b64encode(_inflated(data)).decode("ascii"),
        "rows data is not a zlib stream",
    ),
    "packed-rows-trailing-bytes": (
        "knn", ("rows", "data"), _deflated_bytes(lambda stream: stream + b"\0"),
        "rows data has bytes after its zlib stream",
    ),
    "packed-rows-stream-cut-short": (
        "knn", ("rows", "data"), _deflated_bytes(lambda stream: stream[: len(stream) // 2]),
        "rows data is a zlib stream cut short",
    ),
    # 64 MiB of zeros deflate to about 64 KB; only 2 bytes are ever inflated.
    "packed-labels-deflate-bomb": (
        "knn", ("labels",), lambda p: {**p, "shape": [1], "data": _deflated(bytes(64 << 20))},
        "labels data holds more than the 1 bytes",
    ),
    "packed-rows-one-byte-short": (
        "knn", ("rows", "data"), _packed(lambda raw: raw[:-1]),
        "rows data holds",
    ),
    "packed-rows-one-byte-long": (
        "knn", ("rows", "data"), _packed(lambda raw: raw + b"\0"),
        "rows data holds",
    ),
    "packed-rows-shape-product-off": (
        "knn", ("rows", "shape"), lambda s: [s[0] - 1, s[1]],
        "rows data holds",
    ),
    "packed-rows-dimension-2-pow-70": (
        "knn", ("rows", "shape"), lambda s: [2**70, s[1]],
        "rows data holds",
    ),
    "packed-rows-dimension-0": (
        "knn", ("rows", "shape"), lambda s: [0, s[1]],
        "rows shape must be 2 positive integers",
    ),
    "packed-rows-dimension-negative": (
        "knn", ("rows", "shape"), lambda s: [-s[0], -s[1]],
        "rows shape must be 2 positive integers",
    ),
    "packed-rows-dimension-true": (
        "knn", ("rows", "shape"), lambda s: [s[0] * s[1], True],
        "rows shape must be 2 positive integers",
    ),
    "packed-rows-one-dimension": (
        "knn", ("rows", "shape"), lambda s: [s[0] * s[1]],
        "rows shape must be 2 positive integers",
    ),
    "packed-rows-width-50": (
        "knn", ("rows",), _first_50_columns,
        "rows must have 100 columns, got 50",
    ),
    "packed-rows-dtype-f4": (
        "knn", ("rows", "dtype"), "<f4",
        "rows dtype must be '<f8', got '<f4'",
    ),
    "packed-rows-nan": (
        "knn", ("rows", "data"), _set_first(struct.pack("<d", math.nan)),
        "rows must be finite",
    ),
    "packed-rows-inf": (
        "knn", ("rows", "data"), _set_first(struct.pack("<d", -math.inf)),
        "rows must be finite",
    ),
    "packed-label-byte-0": (
        "knn", ("labels", "data"), _set_first(b"\x00"),
        "labels must be +1 or -1",
    ),
    "packed-label-byte-2": (
        "knn", ("labels", "data"), _set_first(b"\x02"),
        "labels must be +1 or -1",
    ),
    "packed-labels-dtype-f8": (
        "knn", ("labels", "dtype"), "<f8",
        "labels dtype must be '<i1', got '<f8'",
    ),
    "packed-labels-shorter-than-rows": (
        "knn",
        ("labels",),
        lambda p: {**p, "shape": [p["shape"][0] - 1], "data": _packed(lambda r: r[:-1])(p["data"])},
        "rows and labels must have equal length",
    ),
    "vote-packed-labels-as-list": (
        "vote", ("knn", "labels"), lambda p: [1] * p["shape"][0],
        "lacks 'dtype'",
    ),
    "knn-labels-longer-than-rows": (
        "knn",
        ("labels",),
        lambda p: {**p, "shape": [p["shape"][0] + 1], "data": _packed(lambda r: r + b"\x01")(p["data"])},
        "rows and labels must have equal length",
    ),
    "knn-k-zero": ("vote", ("knn", "k"), 0, "model k must be an integer in [1, "),
    "knn-labels-seven": (
        "knn", ("labels", "data"), _packed(lambda raw: b"\x07" * len(raw)),
        "labels must be +1 or -1",
    ),
    "knn-labels-shorter-than-rows": (
        "vote",
        ("knn", "labels"),
        lambda p: {**p, "shape": [p["shape"][0] - 1], "data": _packed(lambda r: r[:-1])(p["data"])},
        "rows and labels must have equal length",
    ),
    # A label count that is not an integer.
    "knn-label-1e308": (
        "knn", ("labels", "shape", 0), 1e308,
        "labels shape must be 1 positive integers",
    ),
    "knn-label-1.5": (
        "knn", ("labels", "shape", 0), 1.5,
        "labels shape must be 1 positive integers",
    ),
    "knn-label-true": (
        "knn", ("labels", "shape", 0), True,
        "labels shape must be 1 positive integers",
    ),
    "columns-out-of-range": (
        "boosted", ("columns", 0), 100,
        "columns must be 100 distinct integers",
    ),
    "columns-negative": ("boosted", ("columns", 0), -1, "columns must be 100 distinct integers"),
    "columns-duplicate": ("boosted", ("columns", 1), 0, "columns must be 100 distinct integers"),
    "columns-fewer-than-n-features": (
        "knn", ("columns",), lambda c: c[:-1],
        "rows must have 99 columns, got 100",
    ),
    "columns-more-than-n-features": (
        "vote", ("columns",), lambda c: [*c, 99],
        "columns must be 101 distinct integers",
    ),
    "columns-missing": ("knn", ("columns",), _DELETE, "lacks 'columns'"),
    "columns-empty": ("boosted", ("columns",), [], "columns must be 1 distinct integers"),
    "schema-1": ("knn", ("schema",), "model/1", "unsupported model schema: 'model/1'"),
    "schema-2": ("knn", ("schema",), "model/2", "unsupported model schema: 'model/2'"),
    "schema-3": ("knn", ("schema",), "model/3", "unsupported model schema: 'model/3'"),
    "schema-5": ("knn", ("schema",), "model/5", "unsupported model schema: 'model/5'"),
    "feature-schema-1": (
        "boosted", ("feature_schema",), "packet-features/1",
        "unsupported feature schema: 'packet-features/1'",
    ),
    "feature-schema-missing": ("tree", ("feature_schema",), _DELETE, "lacks 'feature_schema'"),
}


@pytest.mark.parametrize("mutation", MODEL_MUTATIONS)
def test_identify_rejects_malformed_model(model_docs, tmp_path, capsys, mutation):
    doc, path, value, message = MODEL_MUTATIONS[mutation]
    model = tmp_path / "model.json"
    model.write_text(_mutated_text(model_docs[doc], path, value))
    code, _, err = _identify(model, "outlet", 90, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error: data: ") and err.count("\n") == 1
    assert message in err, err


# name -> (path to the mutated field, value and message fragment as in
# MODEL_MUTATIONS). Each document is one `save_profile` could not have written.
PROFILE_MUTATIONS = {
    "source-missing": (("source",), _DELETE, "lacks 'source'"),
    "document-is-a-list": ((), lambda doc: [doc], "lacks 'schema'"),
    "fingerprints-null": (("fingerprints",), None, "fingerprints must be a list"),
    "row-of-objects": (
        ("fingerprints", 0), lambda row: [{}] * len(row),
        "fingerprints must be a non-empty 2-D array of finite numbers",
    ),
    "nested-5000-deep": (("fingerprints",), _Raw("[" * 5000 + "]" * 5000), "nested too deeply"),
    "every-value-nan": (
        ("fingerprints",), lambda rows: [[math.nan] * len(r) for r in rows],
        "fingerprints must be a non-empty 2-D array of finite numbers",
    ),
    "values-as-strings": (
        ("fingerprints",), lambda rows: [[str(v) for v in r] for r in rows],
        "fingerprints must be a non-empty 2-D array of finite numbers",
    ),
    "values-1e400": (
        ("fingerprints",),
        lambda rows: _Raw(json.dumps([[0] * len(r) for r in rows]).replace("0", "1e400")),
        "fingerprints must be a non-empty 2-D array of finite numbers",
    ),
    "feature-schema-1": (
        ("source", "feature_schema"), "packet-features/1",
        "unsupported feature schema: 'packet-features/1'",
    ),
    "skipped-frames-negative": (
        ("source", "skipped_frames"), -4,
        "skipped_frames must be an integer in [0, inf], got -4",
    ),
    "device-label-number": (("device_label",), 7, "device_label must be a string"),
    "captures-not-strings": (("source", "captures"), [3], "captures must be strings"),
}


@pytest.mark.parametrize("mutation", PROFILE_MUTATIONS)
def test_evaluate_rejects_malformed_profile(three_profiles, tmp_path, capsys, mutation):
    path, value, message = PROFILE_MUTATIONS[mutation]
    doc = json.loads(Path(three_profiles[1]).read_text())
    profile = tmp_path / "mutated.profile.json"
    profile.write_text(_mutated_text(doc, path, value))
    capsys.readouterr()
    code = main(["evaluate", "--profiles", three_profiles[0], str(profile)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: data: ") and err.count("\n") == 1
    assert message in err, err


def test_identify_with_multiple_models_reports_positive_set(tmp_path, capsys):
    profiles = _make_profiles(tmp_path, ["outlet", "camera-streamer", "hub-conduit"])
    model_paths = []
    for positive in ("outlet", "camera-streamer"):
        model = tmp_path / f"{positive}.model.json"
        assert main(["train", "--profiles", *profiles, "--positive", positive, "--out", str(model)]) == 0
        model_paths.append(str(model))
    capsys.readouterr()

    cam = ARCHETYPES["camera-streamer"]
    frames, _ = generate_trace(cam, 150, seed=93)
    target = tmp_path / "target.pcap"
    write_capture(target, frames)
    code = main(["identify", *model_paths, "--pcap", str(target), "--mac", cam.mac.hex(":")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "camera-streamer"
    assert set(doc["positives_per_model"]) == {"outlet", "camera-streamer"}
    assert ["camera-streamer"] in doc["per_fingerprint"]


def test_identify_verdict_needs_more_than_half_of_the_fingerprints(tmp_path, capsys):
    """A model that claims exactly half the fingerprints gives the verdict
    `unknown`; one fingerprint more gives its label."""
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 150, seed=97)
    target = tmp_path / "outlet.pcap"
    write_capture(target, frames)
    prints = build_fingerprints(read_rows(target, DeviceSelector(mac=arch.mac))[0])
    n = len(prints)
    assert n % 2 == 0
    half = n // 2

    def splits(c):
        """Whether column c has thresholds with exactly half - 1 and half of its values below."""
        values = sorted(prints[:, c].tolist())
        return values[half - 2] < values[half - 1] < values[half]

    column = next(c for c in range(prints.shape[1]) if splits(c))
    values = sorted(prints[:, column].tolist())
    path = tmp_path / "half.model.json"
    for claimed, verdict in ((half, "unknown"), (half + 1, "outlet")):
        # Rows above the threshold go right, to +1.
        threshold = (values[n - claimed - 1] + values[n - claimed]) / 2
        stump = ml.Stump(0, threshold, -1.0, 1.0)
        ml.save_model(ml.BoostedModel(0.0, (stump,)), path, [column], "outlet")
        capsys.readouterr()
        assert main(["identify", str(path), "--pcap", str(target), "--mac", arch.mac.hex(":")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["positives_per_model"] == {"outlet": claimed}
        assert doc["verdict"] == verdict


def test_identify_rejects_two_models_with_one_positive_class(
    three_profiles, tmp_path, capsys, monkeypatch
):
    """In either order, before any scoring (the last model's count used to win)."""
    paths = []
    for classifier in ("boosted", "tree"):
        path = tmp_path / f"outlet-{classifier}.model.json"
        argv = ["train", "--profiles", *three_profiles, "--positive", "outlet"]
        assert main([*argv, "--classifier", classifier, "--out", str(path)]) == 0
        paths.append(str(path))
    scored = []
    monkeypatch.setattr(ml, "boosted_scores", lambda *a: scored.append("boosted"))
    monkeypatch.setattr(ml, "tree_labels", lambda *a: scored.append("tree"))
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 150, seed=94)
    target = tmp_path / "outlet.pcap"
    write_capture(target, frames)
    for models in (paths, paths[::-1]):
        capsys.readouterr()
        code = main(["identify", *models, "--pcap", str(target), "--mac", arch.mac.hex(":")])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and scored == []
        assert err == "error: data: 2 models have the positive class 'outlet'\n"


@pytest.mark.parametrize(
    "fault", ["missing", "malformed", "other-feature-schema", "two-outlet-models"]
)
def test_identify_checks_its_models_before_reading_the_capture(
    model_docs, tmp_path, capsys, monkeypatch, fault
):
    """A model that is missing, malformed or built for another packet
    layout, or two models with one positive class, fail with the one-line
    data error before the capture is read."""
    boosted, vote = tmp_path / "boosted.model.json", tmp_path / "vote.model.json"
    boosted.write_text(json.dumps(model_docs["boosted"]))
    vote.write_text(json.dumps(model_docs["vote"]))
    models = {
        "missing": [str(boosted), str(tmp_path / "absent.model.json")],
        "malformed": [str(vote)],
        "other-feature-schema": [str(boosted), str(vote)],
        "two-outlet-models": [str(vote), str(boosted)],
    }[fault]
    mutations = {
        "malformed": (("knn", "k"), 0),
        "other-feature-schema": (("feature_schema",), "packet-features/1"),
    }
    if fault in mutations:
        vote.write_text(_mutated_text(model_docs["vote"], *mutations[fault]))
    reads = []
    monkeypatch.setattr(fingerprint, "read_capture", lambda path: reads.append(path))
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 150, seed=94)
    target = tmp_path / "outlet.pcap"
    write_capture(target, frames)
    capsys.readouterr()
    code = main(["identify", *models, "--pcap", str(target), "--mac", arch.mac.hex(":")])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and reads == []
    assert err.startswith("error: data: ") and err.count("\n") == 1
    if fault == "other-feature-schema":
        assert err == "error: data: unsupported feature schema: 'packet-features/1'\n"


def test_identify_searches_only_each_vote_models_undecided_rows(
    three_profiles, tmp_path, capsys, monkeypatch
):
    """Each vote model searches kNN neighbours for the fingerprints its
    boosted and tree members leave undecided, and for no other. Each
    distinct packed array is decoded once per call, whether the models
    that hold it were trained from the same profiles or read other
    columns, and every call prints what scoring each model in its own
    call prints. The tree members' labels are negated, so that the
    boosted and tree members differ on most rows and every model has
    rows to search."""

    def train(positive, profiles, *flags):
        path = tmp_path / f"{positive}.model.json"
        argv = ["train", "--profiles", *profiles, "--positive", positive, "--classifier", "vote"]
        assert main([*argv, *flags, "--out", str(path)]) == 0
        return str(path)

    shared = [train(name, three_profiles) for name in ("outlet", "camera-streamer", "hub-conduit")]
    more = [*three_profiles, *_make_profiles(tmp_path, ["speaker", "hue-bulb"])]
    others = [train("speaker", more), train("hue-bulb", more, "--variant", "3")]
    # The outlet model as another class that reads its columns reversed:
    # its packed rows are the shared ones, but its columns are not.
    model, columns, _ = load_model(shared[0])
    others.append(str(tmp_path / "reversed.model.json"))
    ml.save_model(model, others[-1], columns[::-1], "reversed")

    searches, decodes = [], []
    knn_labels, b64decode = ml.knn_labels, documents.base64.b64decode

    def recording(model, X):
        searches.append(len(X))
        return knn_labels(model, X)

    def decoding(*args, **kwargs):
        decodes.append(args[0])
        return b64decode(*args, **kwargs)

    def packed(models, field):
        """The distinct packed `data` texts of the models' kNN `field`."""
        return {json.loads(Path(m).read_text())["knn"][field]["data"] for m in models}

    monkeypatch.setattr(ml, "knn_labels", recording)
    monkeypatch.setattr(documents.base64, "b64decode", decoding)
    tree_labels = ml.tree_labels
    monkeypatch.setattr(ml, "tree_labels", lambda model, X: -tree_labels(model, X))

    def undecided(models, target, arch):
        """The row count of each model's search: the fingerprints where its
        boosted label equals its unnegated tree label."""
        prints = build_fingerprints(read_rows(target, DeviceSelector(mac=arch.mac))[0])
        counts = []
        for model, columns, _ in map(load_model, models):
            X = prints[:, columns]
            counts.append(int((model.boosted.predict(X) == tree_labels(model.tree, X)).sum()))
        assert all(counts)
        return counts

    def identify(models, target, mac):
        searches.clear()
        decodes.clear()
        capsys.readouterr()
        assert main(["identify", *models, "--pcap", str(target), "--mac", mac]) == 0
        return json.loads(capsys.readouterr().out)

    for name, seed in (("outlet", 94), ("camera-streamer", 95), ("hub-conduit", 96)):
        arch = ARCHETYPES[name]
        frames, _ = generate_trace(arch, 150, seed=seed)
        target = tmp_path / f"{name}.pcap"
        write_capture(target, frames)
        mac = arch.mac.hex(":")
        alone = {m: identify([m], target, mac) for m in shared + others}

        def assert_scored_alone(doc, models):
            positives = {}
            for m in models:
                positives.update(alone[m]["positives_per_model"])
            assert doc["positives_per_model"] == positives
            found = zip(*(alone[m]["per_fingerprint"] for m in models))
            assert doc["per_fingerprint"] == [sum(classes, []) for classes in found]

        expected = undecided(shared, target, arch)
        doc = identify(shared, target, mac)
        # The shared rows are decoded once, and so is each label vector.
        assert searches == expected and len(packed(shared, "rows")) == 1
        assert sorted(decodes) == sorted(packed(shared, "rows") | packed(shared, "labels"))
        assert doc["verdict"] == name
        assert_scored_alone(doc, shared)
        expected = undecided(shared + others, target, arch)
        doc = identify(shared + others, target, mac)
        # The reversed model's packed rows and labels are the outlet model's.
        assert searches == expected and len(decodes) == 4 + 2 + 2
        everything = shared + others
        assert sorted(decodes) == sorted(packed(everything, "rows") | packed(everything, "labels"))
        assert_scored_alone(doc, shared + others)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_train_on_values_near_the_float_maximum(three_profiles, tmp_path, capsys, classifier):
    """Split midpoints between 1.6e308 and 1.7e308 do not overflow."""
    doc = json.loads(Path(three_profiles[0]).read_text())
    doc["fingerprints"][0][3] = 1.7e308
    doc["fingerprints"][1][3] = 1.6e308
    profile = tmp_path / "huge.profile.json"
    profile.write_text(json.dumps(doc))
    out = tmp_path / "huge.model.json"
    capsys.readouterr()
    argv = ["train", "--profiles", str(profile), *three_profiles[1:], "--positive", "outlet"]
    code = main([*argv, "--classifier", classifier, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert load_model(out)[2] == "outlet"


@pytest.fixture(scope="module")
def merged_capture(tmp_path_factory):
    """(path, frames) of an outlet and a camera interleaved, with three
    frames that do not parse: too short with the outlet MAC at 0, a VLAN
    tag cut short with it at 6, and too short with the camera's MAC."""
    outlet, cam = ARCHETYPES["outlet"], ARCHETYPES["camera-streamer"]
    pairs = zip(generate_trace(outlet, 150, seed=61)[0], generate_trace(cam, 150, seed=62)[0])
    frames = [frame for pair in pairs for frame in pair]
    junk = [outlet.mac * 2, b"\x02" * 6 + outlet.mac + b"\x81\x00\x00", cam.mac + b"\x00" * 6]
    for i, data in enumerate(junk):
        frames.insert(40 * (i + 1), RawFrame(0, 0, len(data), data))
    path = tmp_path_factory.mktemp("merged") / "merged.pcap"
    write_capture(path, frames)
    return path, frames


@pytest.fixture(scope="module")
def outlet_model(three_profiles, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "outlet.model.json"
    argv = ["train", "--profiles", *three_profiles, "--positive", "outlet", "--out", str(out)]
    assert main(argv) == 0
    return str(out)


def _record_parsed_frames(monkeypatch) -> list:
    """The bytes of every frame the pipeline parses from now on."""
    seen = []
    parse = fingerprint.parse_frame

    def recording(frame):
        seen.append(frame.data)
        return parse(frame)

    monkeypatch.setattr(fingerprint, "parse_frame", recording)
    return seen


_SELECTING = ("identify", "extract", "sessions")


@pytest.mark.parametrize(
    "command,with_ip",
    [(command, with_ip) for with_ip in (False, True) for command in _SELECTING] + [("ecdf", False)],
)
def test_a_mac_only_selector_parses_only_frames_holding_the_mac(
    merged_capture, outlet_model, monkeypatch, capsys, command, with_ip
):
    """`read_rows` decodes every frame in bulk, so the four commands that
    read through it call `parse_frame` on no frame: not on the junk frames
    that do not decode, whether or not they hold the MAC, nor on any frame
    when the selector has an IP (`ecdf` takes no selector)."""
    path, frames = merged_capture
    outlet = ARCHETYPES["outlet"]
    argv = [command, "--pcap", str(path), "--mac", outlet.mac.hex(":")]
    argv += ["--ip", outlet.ip] if with_ip else []
    argv[1:1] = [outlet_model] if command == "identify" else []
    argv = ["ecdf", "entropy", str(path)] if command == "ecdf" else argv
    seen = _record_parsed_frames(monkeypatch)
    assert main(argv) == 0
    assert seen == []


def test_profile_parses_every_frame_and_counts_skipped_over_all(
    merged_capture, tmp_path, monkeypatch
):
    path, frames = merged_capture
    outlet = ARCHETYPES["outlet"]
    out = tmp_path / "outlet.profile.json"
    argv = ["profile", "--pcap", str(path), "--mac", outlet.mac.hex(":")]
    seen = _record_parsed_frames(monkeypatch)
    assert main([*argv, "--label", "outlet", "--category", "power", "--out", str(out)]) == 0
    assert seen == [f.data for f in frames]

    packets, skipped = [], 0  # parse every frame, then select
    for frame in frames:
        try:
            packets.append(parse_frame(frame))
        except (FrameTooShort, TruncatedHeader):
            skipped += 1
    assert skipped == 3
    matching = filter_device(packets, DeviceSelector(mac=outlet.mac))
    prints = build_fingerprints(extract_features(matching))
    expected = tmp_path / "expected.profile.json"
    save_profile(BehavioralProfile("outlet", "power", prints, (path.name,), skipped), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_identify_insufficient_traffic(tmp_path, capsys):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 3, seed=92)
    pcap = tmp_path / "tiny.pcap"
    write_capture(pcap, frames)
    model = tmp_path / "m.json"
    profiles = _make_profiles(tmp_path, ["outlet", "hub-conduit"], packets=300, seed=70)
    assert main(["train", "--profiles", *profiles, "--positive", "outlet", "--out", str(model)]) == 0
    code = main(["identify", str(model), "--pcap", str(pcap)])
    assert code == 3
    assert "insufficient traffic" in capsys.readouterr().err


def test_evaluate_defaults_and_determinism(tmp_path, capsys):
    profiles = _make_profiles(tmp_path, ["outlet", "camera-streamer", "hub-conduit"])
    out_a = tmp_path / "report-a.json"
    out_b = tmp_path / "report-b.json"
    for out in (out_a, out_b):
        code = main(["evaluate", "--profiles", *profiles, "--seed", "6", "--out", str(out)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["folds"] == 5
    assert doc["classifier"] == "boosted"
    assert doc["variant"] == "20-features"
    stdout = capsys.readouterr().out
    assert "mean_tpr" in stdout


@pytest.mark.parametrize("level", LEVELS)
def test_evaluate_writes_and_prints_the_report_document(three_profiles, tmp_path, capsys, level):
    """The file `evaluate --out` writes is the document `run_experiment`
    returns, and stdout is `format_report` of that document."""
    profiles = [*three_profiles, *_make_profiles(tmp_path, ["outlet"], seed=70)]  # a twin
    out = tmp_path / "report.json"
    capsys.readouterr()
    argv = ["evaluate", "--profiles", *profiles, "--level", level, "--seed", "4"]
    assert main([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    expected = run_experiment([load_profile(p) for p in profiles], level, seed=4)
    assert expected["results"]
    assert json.loads(out.read_text()) == expected
    assert stdout == format_report(expected)


def test_evaluate_prints_nothing_when_the_report_cannot_be_written(three_profiles, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    capsys.readouterr()
    code = main(["evaluate", "--profiles", *three_profiles, "--classifier", "knn", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: data: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.parent.exists()


def test_evaluate_instance_level_without_a_twin_is_a_data_error(three_profiles, tmp_path, capsys):
    # No device label appears twice, so there is no instance to hold out.
    out = tmp_path / "instance.report.json"
    capsys.readouterr()
    code = main(["evaluate", "--profiles", *three_profiles, "--level", "instance", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: data: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_synth_reports_a_failed_capture_write_as_one_data_error(tmp_path, capsys):
    pcap = tmp_path / "outlet.pcap"
    pcap.mkdir()
    code = main(["synth", "--archetype", "outlet", "--packets", "20", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    expected = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(pcap))
    assert captured.err == f"error: data: {expected}\n"
    assert captured.out == ""
    assert not (tmp_path / "outlet.labels.json").exists()


def _fresh_run(argv, **env) -> tuple:
    """(exit code, stdout, stderr) of `argv` in a new interpreter, with `env` set."""
    src = str(Path(iotprint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    command = [sys.executable, "-m", "iotprint.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_main_calls_in_one_process_print_what_fresh_processes_print(
    outlet_model, tmp_path, capsys
):
    arch = ARCHETYPES["outlet"]
    target = tmp_path / "outlet.pcap"
    write_capture(target, generate_trace(arch, 200, seed=90)[0])
    runs = [
        ["evaluate", "--profiles", "p.json", "--folds", "1"],
        ["identify", outlet_model, "--pcap", str(target), "--mac", arch.mac.hex(":")],
        ["sessions", "--pcap", str(target)],
        ["sessions", "--pcap", str(target), "--bogus"],
        ["identify", outlet_model, "--pcap", str(target)],
    ]
    capsys.readouterr()
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, *capsys.readouterr()))
    assert cli._parser() is cli._parser()
    assert in_process == [_fresh_run(argv) for argv in runs]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 2, 0]
    for code, out, err in in_process:
        if code:
            assert out == "" and err.startswith("error: config:") and err.count("\n") == 1
        else:
            assert out and err == ""
    assert json.loads(in_process[1][1])["verdict"] == "outlet"


def test_vote_models_are_byte_identical_with_one_and_two_blas_threads(
    corpus_profiles, tmp_path
):
    """Every two-valued Gini score comes from a BLAS product of 0/1 labels,
    whose sums are exact integers in any order of adding: the thread count
    must not change one byte of a vote model."""
    profiles = []
    for profile in corpus_profiles:
        path = tmp_path / f"{len(profiles)}.profile.json"
        save_profile(profile, path)
        profiles.append(str(path))
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"speaker-{threads}.model.json"
        argv = ["train", "--profiles", *profiles, "--positive", "speaker", "--out", str(out)]
        code, _, err = _fresh_run([*argv, "--classifier", "vote"], OPENBLAS_NUM_THREADS=threads)
        assert (code, err) == (0, "")
        models.append(out.read_bytes())
    assert models[0] == models[1]
    assert "label" not in json.loads(models[0])["tree"]["root"]  # the tree splits


def test_unknown_flag_rejected(capsys):
    code = main(["sessions", "--pcap", "x.pcap", "--bogus"])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_missing_pcap_is_data_error(capsys):
    code = main(["sessions", "--pcap", "/nonexistent/file.pcap"])
    assert code == 3
    assert "error: data:" in capsys.readouterr().err


def _capture(data: bytes):
    """A case that runs `sessions` on a file holding `data`."""

    def argv(tmp_path, profiles, model):
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        return ["sessions", "--pcap", str(path)]

    return argv


def _three_outlet_frames(tmp_path) -> str:
    path = tmp_path / "three.pcap"
    write_capture(path, generate_trace(ARCHETYPES["outlet"], 3, seed=92)[0])
    return str(path)


_GLOBAL_HEADER = struct.pack("<IHHiII", 0xA1B2C3D4, 2, 4, 0, 0, 65535)  # up to the link type
_OUTLET_MAC = ARCHETYPES["outlet"].mac.hex(":")


@pytest.mark.parametrize(
    "argv, message",
    [
        (_capture(b"abc"), "file too short to hold a pcap magic number"),
        (_capture(b"not a capture at all"), "unrecognized magic 0x20746F6E"),
        (_capture(b"\x0a\x0d\x0d\x0a" + bytes(40)),
         "pcapng is not supported; convert to classic pcap first"),
        (_capture(_GLOBAL_HEADER[:12]), "global header cut short"),
        (_capture(_GLOBAL_HEADER + struct.pack("<I", 105)),
         "link type 105; only Ethernet (1) is supported"),
        (lambda tmp, profiles, model: [
            "profile", "--pcap", _three_outlet_frames(tmp), "--mac", _OUTLET_MAC,
            "--label", "outlet", "--category", "power", "--out", str(tmp / "p.json"),
        ], "3 matching packets; need at least 5"),
        (lambda tmp, profiles, model: ["identify", model, "--pcap", _three_outlet_frames(tmp)],
         "insufficient traffic: 3 packets yield no fingerprints"),
        (lambda tmp, profiles, model: [
            "train", "--profiles", *profiles, "--positive", "kettle", "--out", str(tmp / "m.json"),
        ], "no profile with device label 'kettle'"),
        (lambda tmp, profiles, model: [
            "train", "--profiles", profiles[0], "--positive", "outlet", "--out", str(tmp / "m.json"),
        ], "every profile carries label 'outlet'"),
        (lambda tmp, profiles, model: ["evaluate", "--profiles", *profiles, "--folds", "1000"],
         "one-vs-all set of 'outlet': class +1 has 90 members, fewer than the 1000 folds"),
    ],
    ids=[
        "file-too-short", "unrecognized-magic", "pcapng", "global-header-cut", "link-type-105",
        "profile-3-packets", "identify-no-fingerprint", "train-unknown-label",
        "train-no-negatives", "evaluate-folds-above-class-size",
    ],
)
def test_bad_magic_is_data_error(three_profiles, outlet_model, tmp_path, capsys, argv, message):
    """Each data error the CLI can reach prints its one exact line and exits 3."""
    args = argv(tmp_path, three_profiles, outlet_model)
    capsys.readouterr()
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: data: {message}\n")


def test_running_out_of_memory_is_one_data_error_line(outlet_pcap, monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(fingerprint, "read_capture", exhausted)
    _, pcap = outlet_pcap
    assert main(["extract", "--pcap", str(pcap)]) == 3
    assert capsys.readouterr() == ("", "error: data: out of memory\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--profiles", "p.json", "--folds", "1"],
        ["evaluate", "--profiles", "p.json", "--folds", "two"],
        ["evaluate", "--profiles", "p.json", "--seed", "-1"],
        ["synth", "--archetype", "outlet", "--packets", "-5"],
        ["synth", "--archetype", "outlet", "--seed", "-1"],
        ["profile", "--pcap", "x.pcap", "--label", "a", "--category", "b", "--ip", "999.1.1.1"],
        ["profile", "--pcap", "x.pcap", "--label", "a", "--category", "b",
         "--mac", "0x2:+0: 0:0_0:1:1"],
        ["extract", "--pcap", "x.pcap", "--ip", "fe80::1%eth0"],
    ],
    ids=[
        "folds-1", "folds-two", "evaluate-seed-minus-1", "packets-minus-5", "synth-seed-minus-1",
        "profile-ip-999", "profile-mac-0x2", "extract-ip-with-zone",
    ],
)
def test_bad_flag_value_is_config_error(argv, tmp_path, capsys):
    code = main([*argv, "--out-dir" if argv[0] == "synth" else "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unknown_variant_rejected(tmp_path, capsys):
    code = main(["evaluate", "--profiles", "p.json", "--variant", "7"])
    assert code == 2


# sha256 of the saved profiles, the evaluation reports, a vote model and
# the stdout of `identify` and of the other commands that read a capture;
# any change to these bytes is a change of the on-disk formats or of the
# results. The model pin also depends on deflate's output (packed kNN
# arrays are zlib level 6), pinned here under zlib 1.2.13: another zlib
# may deflate the same bytes differently, and the file would still load.
PINNED_DIGESTS = {
    "outlet.profile.json": "054bea235b71e52d66dfc6e0000c0235563b0e021a771522d027fdc051e430d6",
    "camera-streamer.profile.json": "a853695074b2793ba6cc7c779fdf86feb9e1d3b16ea8f49ba8461ec7b8559c60",
    "hub-conduit.profile.json": "5b9743b7dc4dc9418be5209b5d7ac5efde4e7691a14e79e041a824f4f50e4d5e",
    "outlet-b.profile.json": "9247583581e9e4c01c747d1d4b13bde04af38ef894e021ebb6de62dd408c6dcb",
    "report.json": "9f29fca2e1f942b6b54ae95eb6b3c8b422ea47b4970218e9239460d090d004df",
    "category.report.json": "8da4322615a7ab3cde379665e33793ef6ae208d8633a99f6565056edaf5c710a",
    "instance.report.json": "a30a56ed60c855a58180dade66d41ed6d34aa18578a854e51779bf9dfb11e436",
    "outlet.model.json": "67a0b304b568d13d0433fc29ffcbf200dac76b8463719ba55691379f8377f237",
    "identify-outlet.stdout": "b5b0c88c2ca5a4383fd7fee402eae82f5304db1d884ea6d7ee27c09416dd3631",
    "identify-camera-streamer.stdout": "2f9aaaa98202af864aaa88aad112773f03c73fefe143350b1fb5c45db050de5d",
    "identify-hub-conduit.stdout": "e0e8399657f04a96599da9a30d9d506555c4545158f698f8d069ce5e2b7f6e50",
    "extract-mac.stdout": "a9c2730ab6153e08aebc7319deaa4c96588defbe7bc35773f00e1831cdf2e846",
    "extract-ip.stdout": "5a7291f1d19f6afdae8bd54e2326b6697c7efb682fa81ae5c11d22b84786767a",
    "sessions-mac.stdout": "ee5628e0ad62aeb8dcdadff0590979cf6926b168c88ca28c97960b4141556303",
    "ecdf.stdout": "25c1c22902fab261bdbfe67e4542b12a65523457bcd69705228bd9e56dbd465f",
}


def test_profile_and_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    names = ["outlet", "camera-streamer", "hub-conduit"]
    paths = _make_profiles(tmp_path, names, packets=150, seed=80)
    report = tmp_path / "report.json"
    argv = ["evaluate", "--profiles", *paths, "--classifier", "vote", "--seed", "3"]
    assert main([*argv, "--out", str(report)]) == 0
    # A second outlet instance from another seed: "power" becomes a
    # two-profile category, and the instance report holds it out, which
    # pins the 0/0 path (its truth has no negatives, so tnr is degenerate).
    (tmp_path / "twin").mkdir()
    [twin] = _make_profiles(tmp_path / "twin", ["outlet"], packets=150, seed=90)
    twin = Path(twin).rename(tmp_path / "outlet-b.profile.json")
    level_reports = []
    for level in ("category", "instance"):
        level_reports.append(tmp_path / f"{level}.report.json")
        argv = ["evaluate", "--profiles", *paths, str(twin), "--classifier", "vote"]
        assert main([*argv, "--level", level, "--out", str(level_reports[-1])]) == 0
    # The vote model holds tree and boosted thresholds: its bytes pin both split searches.
    model = tmp_path / "outlet.model.json"
    argv = ["train", "--profiles", *paths, "--classifier", "vote", "--positive", "outlet"]
    assert main([*argv, "--out", str(model)]) == 0
    digests = {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in [*paths, twin, report, *level_reports, model]
    }
    # identify with the three vote models trained from one set of profiles.
    models = [str(model)]
    for name in names[1:]:
        models.append(str(tmp_path / f"{name}.model.json"))
        argv = ["train", "--profiles", *paths, "--classifier", "vote", "--positive", name]
        assert main([*argv, "--out", models[-1]]) == 0
    traces = []
    for name, seed in zip(names, (94, 95, 96)):
        arch = ARCHETYPES[name]
        target = tmp_path / f"{name}-target.pcap"
        traces.append(generate_trace(arch, 150, seed=seed)[0])
        write_capture(target, traces[-1])
        capsys.readouterr()
        assert main(["identify", *models, "--pcap", str(target), "--mac", arch.mac.hex(":")]) == 0
        stdout = capsys.readouterr().out.encode()
        digests[f"identify-{name}.stdout"] = hashlib.sha256(stdout).hexdigest()
    # The ingest commands on the three traces interleaved, with frames that
    # do not decode as ARP, EAPoL or IPv4/TCP/UDP/ICMP among them.
    merged = [frame for trio in zip(*traces) for frame in trio]
    for i, data in enumerate(_odd_outlet_frames()):
        merged.insert(7 * i + 3, RawFrame(0, i, len(data), data))
    monkeypatch.chdir(tmp_path)  # `ecdf` prints the capture path it was given
    write_capture("merged.pcap", merged)
    outlet, camera = ARCHETYPES["outlet"], ARCHETYPES["camera-streamer"]
    for key, argv in (
        ("extract-mac", ["extract", "--pcap", "merged.pcap", "--mac", outlet.mac.hex(":")]),
        ("extract-ip", ["extract", "--pcap", "merged.pcap", "--ip", camera.ip]),
        ("sessions-mac", ["sessions", "--pcap", "merged.pcap", "--mac", outlet.mac.hex(":")]),
        ("ecdf", ["ecdf", "entropy", "merged.pcap"]),
    ):
        capsys.readouterr()
        assert main(argv) == 0
        digests[f"{key}.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == PINNED_DIGESTS


def _odd_outlet_frames() -> list:
    """Frames from the outlet's MAC that take other decoding paths: IPv4
    with options, a non-first fragment, a cut TCP header, IPv6/UDP, a
    VLAN-tagged UDP datagram with link padding, an unknown EtherType and
    a frame under 14 bytes."""
    outlet = ARCHETYPES["outlet"]
    eth = b"\x02\xff\xee\x00\x00\x01" + outlet.mac
    src, dst = bytes([192, 168, 1, 16]), bytes([192, 168, 1, 1])
    udp = struct.pack("!HHHH", 40001, 123, 12, 0) + b"\x17\x00\x03\xe8"
    tcp = struct.pack("!HHIIBBHHH", 40002, 80, 1, 0, 0x50, 0x18, 512, 0, 0) + b"GET /"

    def ipv4(first: int, frag: int, proto: int, body: bytes, options: bytes = b"") -> bytes:
        total = 20 + len(options) + len(body)
        head = struct.pack("!BBHHHBBH", first, 0, total, 0, frag, 64, proto, 0)
        return b"\x08\x00" + head + src + dst + options + body

    ipv6 = struct.pack("!IHBB", 6 << 28, len(udp), 17, 64)
    ipv6 += bytes(15) + b"\x01" + bytes(15) + b"\x02"
    return [
        eth + ipv4(0x46, 0, 17, udp, b"\x94\x04\x00\x00"),
        eth + ipv4(0x45, 0x0010, 6, tcp),
        eth + ipv4(0x45, 0, 6, tcp[:12]),
        eth + b"\x86\xdd" + ipv6 + udp,
        eth + b"\x81\x00\x00\x05" + ipv4(0x45, 0, 17, udp) + bytes(6),
        eth + b"\x88\xb5" + b"local experimental",
        outlet.mac + b"\x00\x00",
    ]
