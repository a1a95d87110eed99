import copy
import hashlib
import json
import math
from pathlib import Path

import pytest

from iotprint.cli import main
from iotprint.evaluation import CLASSIFIERS, VARIANT_TAGS
from iotprint.fingerprint import load_profile
from iotprint.packet_model import format_mac
from iotprint.pcap_io import write_capture
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


@pytest.fixture(scope="module")
def model_docs(three_profiles, tmp_path_factory):
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


# name -> (model kind, path to the mutated field, new value, _DELETE, or a
# function of the old value; a _Raw value is JSON text). Each document is
# one `save_model` could not have written; the last one is valid but as
# wide as no feature variant.
MODEL_MUTATIONS = {
    "boosted-feature-index-500": ("boosted", ("stages", 0, 0), 500),
    "boosted-feature-index-negative": ("boosted", ("stages", 0, 0), -1),
    "boosted-n-features-95-under-wide-stages": ("boosted", ("n_features",), 95),
    "boosted-threshold-nan": ("boosted", ("stages", 0, 1), float("nan")),
    "tree-feature-index-900": ("tree", ("root", "feature_index"), 900),
    "tree-node-without-right": ("tree", ("root", "right"), _DELETE),
    "tree-7-deep-max-depth-5": ("tree", ("root",), _deep_tree(7)),
    "tree-3000-deep": ("tree", ("root",), _deep_tree(3000)),
    "no-kind": ("boosted", ("kind",), _DELETE),
    "knn-k-million": ("knn", ("k",), 10**6),
    "knn-k-zero": ("knn", ("k",), 0),
    "knn-labels-seven": ("knn", ("labels",), lambda labels: [7] * len(labels)),
    "knn-labels-shorter-than-rows": ("knn", ("labels",), lambda labels: labels[:-1]),
    "vote-members-out-of-order": ("vote", ("members",), lambda m: [m[1], m[0], m[2]]),
    "knn-unmappable-width-50": ("knn", ("rows",), lambda rows: [row[:50] for row in rows]),
}


@pytest.mark.parametrize("mutation", MODEL_MUTATIONS)
def test_identify_rejects_malformed_model(model_docs, tmp_path, capsys, mutation):
    kind, path, value = MODEL_MUTATIONS[mutation]
    model = tmp_path / "model.json"
    model.write_text(_mutated_text(model_docs[kind], path, value))
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
}


def test_profile_and_report_bytes_are_pinned(tmp_path, capsys):
    names = ["outlet", "camera-streamer", "hub-conduit"]
    paths = _make_profiles(tmp_path, names, packets=150, seed=80)
    report = tmp_path / "report.json"
    argv = ["evaluate", "--profiles", *paths, "--classifier", "vote", "--seed", "3"]
    assert main([*argv, "--out", str(report)]) == 0
    digests = {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in [*paths, report]
    }
    assert digests == PINNED_DIGESTS
