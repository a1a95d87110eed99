import base64
import copy
import hashlib
import json
import math
import struct
from pathlib import Path

import pytest

from iotprint import fingerprint, ml
from iotprint.cli import main
from iotprint.errors import FrameTooShort, TruncatedHeader
from iotprint.evaluation import CLASSIFIERS, VARIANT_TAGS
from iotprint.features import extract_features
from iotprint.fingerprint import (
    BehavioralProfile,
    ProfileSource,
    build_fingerprints,
    load_profile,
    save_profile,
)
from iotprint.ml import BoostedModel, KnnModel, TreeModel, VoteModel, load_model
from iotprint.packet_model import RawFrame, format_mac, parse_frame
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
                "--mac", format_mac(arch.mac),
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
    code = main(["extract", "--pcap", str(pcap), "--mac", format_mac(arch.mac), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# schema:")
    assert len(lines) == 2 + 600


def test_profile_and_sessions(outlet_pcap, tmp_path, capsys):
    arch, pcap = outlet_pcap
    out = tmp_path / "p.json"
    code = main(
        [
            "profile",
            "--pcap", str(pcap),
            "--mac", format_mac(arch.mac),
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
    code = main(["identify", str(model_path), "--pcap", str(target), "--mac", format_mac(arch.mac)])
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
    code = main(["identify", str(model_path), "--pcap", str(other), "--mac", format_mac(cam.mac)])
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
    code = main(["identify", str(model_path), "--pcap", str(target), "--mac", format_mac(arch.mac)])
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


def model_v1_doc(model) -> dict:
    """The `model/1` document of `model`: number lists and no recorded columns,
    as models were saved before `model/2`."""
    head = {"schema": "model/1"}
    if isinstance(model, BoostedModel):
        return {
            **head,
            "kind": "boosted",
            "positive_class": model.positive_class,
            "n_features": model.n_features,
            "learning_rate": model.learning_rate,
            "initial_score": model.initial_score,
            "stages": [
                [s.feature_index, s.threshold, s.left_value, s.right_value] for s in model.stages
            ],
        }
    if isinstance(model, KnnModel):
        return {
            **head,
            "kind": "knn",
            "positive_class": model.positive_class,
            "k": model.k,
            "rows": model.rows.tolist(),
            "labels": model.labels.tolist(),
        }
    if isinstance(model, TreeModel):
        return {
            **head,
            "kind": "tree",
            "positive_class": model.positive_class,
            "n_features": model.n_features,
            "max_depth": model.max_depth,
            "root": _node_v1_doc(model.root),
        }
    assert isinstance(model, VoteModel)
    return {
        **head,
        "kind": "vote",
        "positive_class": model.positive_class,
        "members": [model_v1_doc(m) for m in (model.boosted, model.knn, model.tree)],
    }


def _node_v1_doc(node) -> dict:
    if node.label is not None:
        return {"label": node.label}
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_v1_doc(node.left),
        "right": _node_v1_doc(node.right),
    }


def _save_model_v1(model_path, out) -> None:
    model, _ = load_model(model_path)
    out.write_text(json.dumps(model_v1_doc(model), indent=1, allow_nan=False) + "\n")


@pytest.fixture(scope="module")
def model_docs(three_profiles, tmp_path_factory):
    """`model/2` documents of every classifier, plus the kNN one as `model/1` ("knn-v1")."""
    out = tmp_path_factory.mktemp("models")
    docs = {}
    for kind in CLASSIFIERS:
        path = out / f"{kind}.json"
        argv = ["train", "--profiles", *three_profiles, "--positive", "outlet"]
        assert main([*argv, "--classifier", kind, "--out", str(path)]) == 0
        docs[kind] = json.loads(path.read_text())
    _save_model_v1(out / "knn.json", out / "knn-v1.json")
    docs["knn-v1"] = json.loads((out / "knn-v1.json").read_text())
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


def _packed(edit):
    """A mutation of a packed field's base64 `data`: `edit(bytes)`, encoded again."""
    return lambda data: base64.b64encode(edit(base64.b64decode(data))).decode("ascii")


def _set_first(value: bytes):
    return _packed(lambda raw: value + raw[len(value) :])


# name -> (model document, path to the mutated field, new value, _DELETE,
# or a function of the old value; a _Raw value is JSON text). Each
# document is one `save_model` could not have written; "knn-v1" is a
# `model/1` document, and its last case is valid but as wide as no
# feature variant.
MODEL_MUTATIONS = {
    "boosted-feature-index-500": ("boosted", ("stages", 0, 0), 500),
    "boosted-feature-index-negative": ("boosted", ("stages", 0, 0), -1),
    "boosted-n-features-95-under-wide-stages": ("boosted", ("n_features",), 95),
    "boosted-threshold-nan": ("boosted", ("stages", 0, 1), float("nan")),
    "boosted-training-deviance-nan": ("boosted", ("training_deviance", 3), float("nan")),
    "boosted-training-deviance-missing": ("boosted", ("training_deviance",), _DELETE),
    "tree-feature-index-900": ("tree", ("root", "feature_index"), 900),
    "tree-node-without-right": ("tree", ("root", "right"), _DELETE),
    "tree-7-deep-max-depth-5": ("tree", ("root",), _deep_tree(7)),
    "tree-3000-deep": ("tree", ("root",), _deep_tree(3000)),
    "no-kind": ("boosted", ("kind",), _DELETE),
    "knn-k-million": ("knn-v1", ("k",), 10**6),
    "knn-k-zero": ("knn-v1", ("k",), 0),
    "knn-labels-seven": ("knn-v1", ("labels",), lambda labels: [7] * len(labels)),
    "knn-labels-shorter-than-rows": ("knn-v1", ("labels",), lambda labels: labels[:-1]),
    "knn-label-1e308": ("knn-v1", ("labels", 0), 1e308),
    "knn-label-1.5": ("knn-v1", ("labels", 0), 1.5),
    "knn-label-true": ("knn-v1", ("labels", 0), True),
    "vote-members-out-of-order": ("vote", ("members",), lambda m: [m[1], m[0], m[2]]),
    "knn-unmappable-width-50": ("knn-v1", ("rows",), lambda rows: [row[:50] for row in rows]),
    "packed-k-zero": ("knn", ("k",), 0),
    "packed-rows-not-base64": ("knn", ("rows", "data"), lambda data: "*" + data[1:]),
    "packed-rows-one-byte-short": ("knn", ("rows", "data"), _packed(lambda raw: raw[:-1])),
    "packed-rows-one-byte-long": ("knn", ("rows", "data"), _packed(lambda raw: raw + b"\0")),
    "packed-rows-shape-product-off": ("knn", ("rows", "shape"), lambda s: [s[0] - 1, s[1]]),
    "packed-rows-dimension-0": ("knn", ("rows", "shape"), lambda s: [0, s[1]]),
    "packed-rows-dimension-negative": ("knn", ("rows", "shape"), lambda s: [-s[0], -s[1]]),
    "packed-rows-dimension-true": ("knn", ("rows", "shape"), lambda s: [s[0] * s[1], True]),
    "packed-rows-one-dimension": ("knn", ("rows", "shape"), lambda s: [s[0] * s[1]]),
    "packed-rows-dtype-f4": ("knn", ("rows", "dtype"), "<f4"),
    "packed-rows-nan": ("knn", ("rows", "data"), _set_first(struct.pack("<d", math.nan))),
    "packed-rows-inf": ("knn", ("rows", "data"), _set_first(struct.pack("<d", -math.inf))),
    "packed-label-byte-0": ("knn", ("labels", "data"), _set_first(b"\x00")),
    "packed-label-byte-2": ("knn", ("labels", "data"), _set_first(b"\x02")),
    "packed-labels-dtype-f8": ("knn", ("labels", "dtype"), "<f8"),
    "packed-labels-shorter-than-rows": (
        "knn",
        ("labels",),
        lambda p: {**p, "shape": [p["shape"][0] - 1], "data": _packed(lambda r: r[:-1])(p["data"])},
    ),
    "vote-packed-labels-as-list": ("vote", ("members", 1, "labels"), lambda p: [1] * p["shape"][0]),
    "columns-out-of-range": ("boosted", ("columns", 0), 100),
    "columns-negative": ("boosted", ("columns", 0), -1),
    "columns-duplicate": ("boosted", ("columns", 1), 0),
    "columns-fewer-than-n-features": ("boosted", ("columns",), lambda c: c[:-1]),
    "columns-more-than-n-features": ("vote", ("columns",), lambda c: [*c, 99]),
    "columns-missing": ("knn", ("columns",), _DELETE),
    "schema-3": ("knn", ("schema",), "model/3"),
}


@pytest.mark.parametrize("mutation", MODEL_MUTATIONS)
def test_identify_rejects_malformed_model(model_docs, tmp_path, capsys, mutation):
    doc, path, value = MODEL_MUTATIONS[mutation]
    model = tmp_path / "model.json"
    model.write_text(_mutated_text(model_docs[doc], path, value))
    code, _, err = _identify(model, "outlet", 90, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error: data: ") and err.count("\n") == 1


# name -> (path to the mutated field, value as in MODEL_MUTATIONS). Each
# document is one `save_profile` could not have written.
PROFILE_MUTATIONS = {
    "source-missing": (("source",), _DELETE),
    "document-is-a-list": ((), lambda doc: [doc]),
    "fingerprints-null": (("fingerprints",), None),
    "row-of-objects": (("fingerprints", 0), lambda row: [{}] * len(row)),
    "nested-5000-deep": (("fingerprints",), _Raw("[" * 5000 + "]" * 5000)),
    "every-value-nan": (("fingerprints",), lambda rows: [[math.nan] * len(r) for r in rows]),
    "values-as-strings": (("fingerprints",), lambda rows: [[str(v) for v in r] for r in rows]),
    "values-1e400": (
        ("fingerprints",),
        lambda rows: _Raw(json.dumps([[0] * len(r) for r in rows]).replace("0", "1e400")),
    ),
    "feature-schema-2": (("source", "feature_schema"), "packet-features/2"),
    "skipped-frames-negative": (("source", "skipped_frames"), -4),
    "device-label-number": (("device_label",), 7),
    "captures-not-strings": (("source", "captures"), [3]),
}


@pytest.mark.parametrize("mutation", PROFILE_MUTATIONS)
def test_evaluate_rejects_malformed_profile(three_profiles, tmp_path, capsys, mutation):
    path, value = PROFILE_MUTATIONS[mutation]
    doc = json.loads(Path(three_profiles[1]).read_text())
    profile = tmp_path / "mutated.profile.json"
    profile.write_text(_mutated_text(doc, path, value))
    capsys.readouterr()
    code = main(["evaluate", "--profiles", three_profiles[0], str(profile)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: data: ") and err.count("\n") == 1


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
    code = main(["identify", *model_paths, "--pcap", str(target), "--mac", format_mac(cam.mac)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "camera-streamer"
    assert set(doc["positives_per_model"]) == {"outlet", "camera-streamer"}
    assert ["camera-streamer"] in doc["per_fingerprint"]


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
        code = main(["identify", *models, "--pcap", str(target), "--mac", format_mac(arch.mac)])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and scored == []
        assert err == "error: data: 2 models have the positive class 'outlet'\n"


def test_identify_prints_the_same_for_model_v1_and_v2(
    three_profiles, tmp_path, capsys, monkeypatch
):
    """Vote models trained from the same profiles share one neighbour search,
    and their stdout is byte-identical whether they are `model/2` or `model/1`."""
    v2, v1 = [], []
    for positive in ("outlet", "camera-streamer", "hub-conduit"):
        path = tmp_path / f"{positive}.model.json"
        argv = ["train", "--profiles", *three_profiles, "--positive", positive]
        assert main([*argv, "--classifier", "vote", "--out", str(path)]) == 0
        _save_model_v1(path, tmp_path / f"{positive}.v1.model.json")
        v2.append(str(path))
        v1.append(str(tmp_path / f"{positive}.v1.model.json"))
    searches, decodes = [], []
    knn_labels, b64decode = ml.knn_labels, ml.base64.b64decode

    def recording(model, X, *args, **kwargs):
        searches.append(kwargs["labels"].shape[1])
        return knn_labels(model, X, *args, **kwargs)

    def decoding(*args, **kwargs):
        decodes.append(len(args[0]))
        return b64decode(*args, **kwargs)

    monkeypatch.setattr(ml, "knn_labels", recording)
    monkeypatch.setattr(ml.base64, "b64decode", decoding)
    for name, seed in (("outlet", 94), ("camera-streamer", 95), ("hub-conduit", 96)):
        arch = ARCHETYPES[name]
        frames, _ = generate_trace(arch, 150, seed=seed)
        target = tmp_path / f"{name}.pcap"
        write_capture(target, frames)
        outputs = []
        for models in (v2, v1):
            capsys.readouterr()
            argv = ["identify", *models, "--pcap", str(target), "--mac", format_mac(arch.mac)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["verdict"] == name
    assert searches == [3] * 6
    # Each model/2 call decodes the shared rows once and the three label vectors.
    assert len(decodes) == 3 * 4 and len(set(decodes)) == 2


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
    model, _ = load_model(out)
    assert model.positive_class == "outlet"


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


@pytest.mark.parametrize("with_ip", [False, True])
@pytest.mark.parametrize("command", ["identify", "extract", "sessions"])
def test_a_mac_only_selector_parses_only_frames_holding_the_mac(
    merged_capture, outlet_model, monkeypatch, capsys, command, with_ip
):
    path, frames = merged_capture
    outlet = ARCHETYPES["outlet"]
    argv = [command, "--pcap", str(path), "--mac", format_mac(outlet.mac)]
    argv += ["--ip", outlet.ip] if with_ip else []
    argv[1:1] = [outlet_model] if command == "identify" else []
    seen = _record_parsed_frames(monkeypatch)
    assert main(argv) == 0
    if with_ip:
        assert seen == [f.data for f in frames]
    else:
        assert seen == [f.data for f in frames if outlet.mac in (f.data[0:6], f.data[6:12])]
        assert len(seen) == 150 + 2  # the outlet's frames and two junk frames


def test_profile_parses_every_frame_and_counts_skipped_over_all(
    merged_capture, tmp_path, monkeypatch
):
    path, frames = merged_capture
    outlet = ARCHETYPES["outlet"]
    out = tmp_path / "outlet.profile.json"
    argv = ["profile", "--pcap", str(path), "--mac", format_mac(outlet.mac)]
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
    prints = build_fingerprints([extract_features(p) for p in matching])
    source = ProfileSource((path.name,), skipped_frames=skipped)
    expected = tmp_path / "expected.profile.json"
    save_profile(BehavioralProfile("outlet", "power", prints, source), expected)
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


def test_unknown_flag_rejected(capsys):
    code = main(["sessions", "--pcap", "x.pcap", "--bogus"])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_missing_pcap_is_data_error(capsys):
    code = main(["sessions", "--pcap", "/nonexistent/file.pcap"])
    assert code == 3
    assert "error: data:" in capsys.readouterr().err


def test_bad_magic_is_data_error(tmp_path, capsys):
    path = tmp_path / "garbage.pcap"
    path.write_bytes(b"not a capture at all")
    code = main(["sessions", "--pcap", str(path)])
    assert code == 3
    assert "error: data:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--profiles", "p.json", "--folds", "1"],
        ["evaluate", "--profiles", "p.json", "--folds", "two"],
        ["evaluate", "--profiles", "p.json", "--seed", "-1"],
        ["synth", "--archetype", "outlet", "--packets", "-5"],
        ["synth", "--archetype", "outlet", "--seed", "-1"],
        ["profile", "--pcap", "x.pcap", "--label", "a", "--category", "b", "--ip", "999.1.1.1"],
    ],
    ids=[
        "folds-1", "folds-two", "evaluate-seed-minus-1", "packets-minus-5", "synth-seed-minus-1",
        "profile-ip-999",
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


# sha256 of the saved profiles and the evaluation report; any change to
# these bytes is a change of the on-disk formats or of the results.
PINNED_DIGESTS = {
    "outlet.profile.json": "5779ba928463b66ddaca801bcf1cb30c48a9891fcedb21c3bbb962d0365b91c7",
    "camera-streamer.profile.json": "9444e5608bbfa7250e29907bf6414066e343bb42753925c018ec14b62d86840a",
    "hub-conduit.profile.json": "546a0e3eb86a6501f8aa0201ebe3a055d254bb92fa60bc6655b158afb4509e86",
    "report.json": "9f29fca2e1f942b6b54ae95eb6b3c8b422ea47b4970218e9239460d090d004df",
    "outlet.model.json": "9d06bde24c7fea43003c50156550a503dfaa7ac48aec8b85b3dbb7be6d7dd434",
}


def test_profile_and_report_bytes_are_pinned(tmp_path, capsys):
    names = ["outlet", "camera-streamer", "hub-conduit"]
    paths = _make_profiles(tmp_path, names, packets=150, seed=80)
    report = tmp_path / "report.json"
    argv = ["evaluate", "--profiles", *paths, "--classifier", "vote", "--seed", "3"]
    assert main([*argv, "--out", str(report)]) == 0
    # The vote model holds tree and boosted thresholds: its bytes pin both split searches.
    model = tmp_path / "outlet.model.json"
    argv = ["train", "--profiles", *paths, "--classifier", "vote", "--positive", "outlet"]
    assert main([*argv, "--out", str(model)]) == 0
    digests = {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in [*paths, report, model]
    }
    assert digests == PINNED_DIGESTS
