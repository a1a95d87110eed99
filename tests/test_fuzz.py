"""Boundary fuzzing of the command line with mutated pcaps and JSON documents.

Every run must return exit code 0, 2 or 3 with no exception escaping
`main`. A failing run writes exactly one `error: ` line to stderr; a
successful one writes nothing there. numpy's RuntimeWarnings are errors
under the suite's warning filter, so a run that overflows fails too.
The examples are derandomized: every run of the suite tries the same
inputs.
"""

import base64
import copy
import io
import json
import math
import struct
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotprint.cli import main
from iotprint.pcap_io import write_capture
from iotprint.synth import ARCHETYPES, generate_trace

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

DEVICES = ("outlet", "camera-streamer", "hub-conduit")
OUTLET_MAC = ARCHETYPES["outlet"].mac.hex(":")
REPLACEMENTS = (None, "", [], {}, 1.5, 1e308, -1, True, 2**70, float("nan"), float("inf"))
# Item values the checks behind the zlib layer refuse in some field or
# place: non-finite floats; a feature index that is negative, fractional
# or past the columns; a leaf value that overflows; a tree label other
# than 0, +1 and -1; and kNN labels other than +1 and -1.
SPECIAL_ITEMS = {
    "<f8": tuple(
        struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf, -1.0, 2.5, 100.0, 1e308)
    ),
    "<i1": (b"\x00", b"\x02", b"\x80"),
}
# Every packed field of a vote model, as (member, field).
PACKED_FIELDS = (
    ("knn", "rows"), ("knn", "labels"), ("boosted", "stages"),
    ("boosted", "training_deviance"), ("tree", "nodes"),
)  # fmt: skip
DELETE = object()


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 2, 3), argv
    lines = err.getvalue().splitlines(keepends=True)
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert lines[0].endswith("\n")
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Small pcaps, their profiles and a vote model trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    profiles = []
    for i, name in enumerate(DEVICES):
        arch = ARCHETYPES[name]
        pcap = root / f"{name}.pcap"
        write_capture(pcap, generate_trace(arch, 40, seed=60 + i)[0])
        profile = root / f"{name}.profile.json"
        argv = ["profile", "--pcap", pcap, "--mac", arch.mac.hex(":")]
        assert _run([*argv, "--label", name, "--category", arch.category, "--out", profile]) == 0
        profiles.append(profile)
    model = root / "outlet.model.json"
    argv = ["train", "--profiles", *profiles, "--positive", "outlet", "--classifier", "vote"]
    assert _run([*argv, "--out", model]) == 0
    return root, profiles, model


def _mutate_bytes(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op, pos, value in ops:
        pos = min(pos, len(buf))
        if op == "flip" and pos < len(buf):
            buf[pos] ^= value
        elif op == "insert":
            buf[pos:pos] = bytes([value]) * (1 + value % 8)
        elif op == "delete":
            del buf[pos : pos + 1 + value % 32]
        elif op == "truncate":
            del buf[pos:]
    return bytes(buf)


BYTE_OPS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "insert", "delete", "truncate")),
        st.one_of(st.integers(0, 64), st.integers(0, 4096)),  # headers, then anywhere
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=3,
)


@FUZZ
@given(ops=BYTE_OPS)
def test_mutated_pcap_fails_cleanly(work, ops):
    root, _, model = work
    pcap = root / "mutated.pcap"
    pcap.write_bytes(_mutate_bytes((root / "outlet.pcap").read_bytes(), ops))
    profile = ["profile", "--pcap", pcap, "--mac", OUTLET_MAC, "--label", "x", "--category", "y"]
    _run([*profile, "--out", root / "mutated.profile.json"])
    _run(["sessions", "--pcap", pcap])
    _run(["extract", "--pcap", pcap, "--mac", OUTLET_MAC])
    _run(["identify", model, "--pcap", pcap])


def _mutate_doc(data, doc):
    """Replace or delete one node below the root: a leaf or a whole subtree."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and data.draw(st.booleans()):
            break
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    replacement = data.draw(st.sampled_from((DELETE, *REPLACEMENTS)))
    if replacement is DELETE:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(replacement)
    return doc


@FUZZ
@given(data=st.data())
def test_mutated_profile_fails_cleanly(work, data):
    root, (outlet, *others), _ = work
    doc = _mutate_doc(data, json.loads(outlet.read_text()))
    mutated = root / "mutated.profile.json"
    mutated.write_text(json.dumps(doc))
    profiles = [mutated, *others]
    _run(["train", "--profiles", *profiles, "--positive", "hub-conduit", "--out", root / "m.json"])
    _run(["evaluate", "--profiles", *profiles, "--folds", "2"])


def _mutate_packed(data, doc):
    """Edit the array bytes of one packed field of a vote model, then
    deflate and encode them again. An edit of the base64 text itself
    stops at zlib's checksum; this one reaches the checks behind it."""
    doc = copy.deepcopy(doc)
    member, field = data.draw(st.sampled_from(PACKED_FIELDS))
    packed = doc[member][field]
    raw = zlib.decompress(base64.b64decode(packed["data"]))
    if data.draw(st.booleans()):
        raw = _mutate_bytes(raw, data.draw(BYTE_OPS))
    else:
        item = data.draw(st.sampled_from(SPECIAL_ITEMS[packed["dtype"]]))
        at = len(item) * data.draw(st.integers(0, len(raw) // len(item) - 1))
        raw = raw[:at] + item + raw[at + len(item) :]
    packed["data"] = base64.b64encode(zlib.compress(raw, 6)).decode("ascii")
    return doc


@FUZZ
@given(data=st.data())
def test_mutated_model_fails_cleanly(work, data):
    root, _, model = work
    mutate = data.draw(st.sampled_from((_mutate_doc, _mutate_packed)))
    doc = mutate(data, json.loads(model.read_text()))
    mutated = root / "mutated.model.json"
    mutated.write_text(json.dumps(doc))
    _run(["identify", mutated, "--pcap", root / "outlet.pcap"])
