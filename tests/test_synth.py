import hashlib
import json
import signal
import struct

import numpy as np
import pytest

import oracles
from iotprint.features import FEATURE_NAMES, extract_features, shannon_entropy
from iotprint.fingerprint import session_stats
from iotprint.packet_model import IPPROTO_TCP, IPPROTO_UDP, parse_frame
from iotprint.pcap_io import write_capture
from iotprint.synth import (
    ARCHETYPES,
    CORPUS_PACKETS,
    DeviceArchetype,
    PayloadProfile,
    Proto,
    WindowProfile,
    _SESSIONS,
    _TraceBuilder,
    generate_trace,
)

MDNS_ONLY = DeviceArchetype(
    name="beacon",
    category="test",
    mac=bytes.fromhex("02000000aaaa"),
    ip="192.168.9.9",
    protocol_mix={Proto.UDP_MDNS: 1.0},
    payload_profile={Proto.UDP_MDNS: PayloadProfile("low", (100,), 10)},
    window_profile=WindowProfile(0, 0),
    session_length_distribution={2: 0.5, 4: 0.5},
)


def regime_archetype(regime, lengths):
    return DeviceArchetype(
        name=f"{regime}gen",
        category="test",
        mac=bytes.fromhex("02000000bbbb"),
        ip="192.168.9.10",
        protocol_mix={Proto.UDP_DNS: 1.0},
        payload_profile={Proto.UDP_DNS: PayloadProfile(regime, lengths)},
        window_profile=WindowProfile(0, 0),
        session_length_distribution={4: 1.0},
    )


def test_zero_packets_empty_trace():
    frames, labels = generate_trace(MDNS_ONLY, 0, seed=1)
    assert frames == [] and labels == []


def test_generation_is_deterministic():
    one = generate_trace(ARCHETYPES["camera-streamer"], 400, seed=9)
    two = generate_trace(ARCHETYPES["camera-streamer"], 400, seed=9)
    assert one == two
    other = generate_trace(ARCHETYPES["camera-streamer"], 400, seed=10)
    assert one != other


def test_exact_packet_budget():
    frames, labels = generate_trace(ARCHETYPES["outlet"], 333, seed=2)
    assert len(frames) == 333 == len(labels)
    assert set(labels) == {"outlet"}


def test_mdns_only_archetype_sets_flag_everywhere():
    frames, _ = generate_trace(MDNS_ONLY, 200, seed=3)
    idx = FEATURE_NAMES.index("mdns")
    assert (extract_features([parse_frame(frame) for frame in frames])[:, idx] == 1).all()


def test_low_regime_entropy_bounded_by_half():
    frames, _ = generate_trace(regime_archetype("low", (24, 90, 300, 1200)), 1000, seed=4)
    entropies = shannon_entropy([parse_frame(f).payload for f in frames])
    assert entropies.max() <= 0.5


def test_high_regime_entropy_above_nine_tenths_for_long_payloads():
    frames, _ = generate_trace(regime_archetype("high", (512, 900, 1400)), 1000, seed=5)
    payloads = [parse_frame(f).payload for f in frames]
    assert all(len(p) >= 256 for p in payloads)
    assert shannon_entropy(payloads).min() >= 0.9


def test_every_generated_frame_parses(corpus):
    for entry in corpus:
        for frame in entry.frames:
            parse_frame(frame)  # must not raise


MIXED = DeviceArchetype(
    name="mixed",
    category="test",
    mac=bytes.fromhex("02000000cccc"),
    ip="192.168.9.11",
    protocol_mix={Proto.TCP_HTTP: 0.5, Proto.UDP_DNS: 0.3, Proto.UDP_MDNS: 0.2},
    payload_profile={
        Proto.TCP_HTTP: PayloadProfile("low", (64,)),
        Proto.UDP_DNS: PayloadProfile("low", (80,)),
        Proto.UDP_MDNS: PayloadProfile("low", (120,)),
    },
    window_profile=WindowProfile(2048, 0),
    session_length_distribution={2: 0.4, 4: 0.3, 6: 0.3},
)

EVERY_PROTOCOL = DeviceArchetype(
    name="every-protocol",
    category="test",
    mac=bytes.fromhex("02000000dddd"),
    ip="192.168.9.12",
    protocol_mix={proto: 0.1 for proto in Proto},
    payload_profile={proto: PayloadProfile("low", (40,), 8) for proto in Proto},
    window_profile=WindowProfile(2048, 512),
    session_length_distribution={2: 0.4, 3: 0.3, 6: 0.3},
)


def _record_sessions(monkeypatch) -> list:
    """The generator's truth: `(proto, frames)` of every session
    `_TraceBuilder.emit_session` emits from now on, in order."""
    sessions = []
    emit_session = _TraceBuilder.emit_session

    def recording(builder, proto, budget):
        start = len(builder.frames)
        count = emit_session(builder, proto, budget)
        sessions.append((proto, builder.frames[start:]))
        return count

    monkeypatch.setattr(_TraceBuilder, "emit_session", recording)
    return sessions


@pytest.mark.parametrize("arch", [MIXED, EVERY_PROTOCOL], ids=["three-protocols", "every-protocol"])
def test_session_recovery_against_generator_truth(arch, monkeypatch):
    sessions = _record_sessions(monkeypatch)
    frames, _ = generate_trace(arch, 900, seed=6)
    assert {proto for proto, _ in sessions} == set(arch.protocol_mix)
    assert [frame for _, emitted in sessions for frame in emitted] == frames
    expected = {}
    for proto, emitted in sessions:
        if _SESSIONS[proto].carrier not in (IPPROTO_TCP, IPPROTO_UDP):
            continue
        # Ethernet (14 bytes) and an IPv4 header without options (20): the ports follow.
        key = tuple(sorted(struct.unpack("!HH", emitted[0].data[34:38])))
        expected[key] = expected.get(key, 0) + len(emitted)
    total, sessions = session_stats(oracles.packet_ports([parse_frame(f) for f in frames]))
    assert (total, sessions) == (sum(expected.values()), len(expected))


def _port_within_seconds(builder, seconds=20):
    """`builder.ephemeral_port()`, failing the test if it has not returned in time."""

    def timed_out(signum, frame):
        raise TimeoutError(f"ephemeral_port did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        return builder.ephemeral_port()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ephemeral_ports_start_a_new_round_once_every_port_is_used():
    ports = range(20000, 60000)
    builder = _TraceBuilder(ARCHETYPES["constrained-bulb"], seed=8)
    builder.used_ports = set(ports) - {43210}
    assert _port_within_seconds(builder) == 43210
    assert len(builder.used_ports) == len(ports)
    port = _port_within_seconds(builder)
    assert port in ports
    assert builder.used_ports == {port}


def test_session_lengths_within_declared_range(monkeypatch):
    sessions = _record_sessions(monkeypatch)
    generate_trace(ARCHETYPES["speaker"], 600, seed=7)
    # all but the final (budget-truncated) session obey the distribution
    assert all(2 <= len(emitted) <= 10 for _, emitted in sessions[:-1])


def test_archetype_validation():
    with pytest.raises(ValueError):
        DeviceArchetype(
            name="bad",
            category="x",
            mac=b"\x02" * 6,
            ip="10.0.0.1",
            protocol_mix={Proto.ARP: 0.5},
            payload_profile={Proto.ARP: PayloadProfile("low", (0,))},
            window_profile=WindowProfile(0, 0),
            session_length_distribution={2: 1.0},
        )
    with pytest.raises(ValueError):
        PayloadProfile("medium", (10,))


def test_corpus_shape(corpus):
    assert len(corpus) == 7
    names = [entry.archetype.name for entry in corpus]
    assert len(set(names)) == 6
    categories = {entry.archetype.category for entry in corpus}
    assert len(categories) >= 4
    twins = [entry for entry in corpus if names.count(entry.archetype.name) == 2]
    assert len(twins) == 2
    assert twins[0].archetype.mac != twins[1].archetype.mac
    assert {t.instance for t in twins} == {"a", "b"}
    for entry in corpus:
        assert len(entry.frames) >= CORPUS_PACKETS
        assert set(entry.labels) == {entry.archetype.name}
    light = [e for e in corpus if e.archetype.category == "light"]
    assert len({e.archetype.name for e in light}) == 2


def test_corpus_profiles_have_enough_fingerprints(corpus_profiles):
    for profile in corpus_profiles:
        assert len(profile.fingerprints) >= 500


# sha256 of the seven corpus profiles' fingerprints, concatenated as <f8
# bytes: any change to decoding, feature extraction or grouping shows here.
CORPUS_PROFILES_SHA256 = "884779ee455a0608aa3dca53857e804f7fc031665dadaf36763cbe31b1cf6d67"


def test_profile_for_entry_uses_archetype_labels(corpus, corpus_profiles):
    for entry, profile in zip(corpus, corpus_profiles, strict=True):
        assert profile.device_label == entry.archetype.name
        assert profile.category_label == entry.archetype.category
    data = b"".join(p.fingerprints.astype("<f8").tobytes() for p in corpus_profiles)
    assert hashlib.sha256(data).hexdigest() == CORPUS_PROFILES_SHA256


def test_conduit_traffic_has_no_sessions_yet_fingerprints(corpus, corpus_profiles):
    hub_entry = next(e for e in corpus if e.archetype.name == "hub-conduit")
    assert session_stats(oracles.packet_ports([parse_frame(f) for f in hub_entry.frames])) == (0, 0)
    hub_profile = next(p for p in corpus_profiles if p.device_label == "hub-conduit")
    assert len(hub_profile.fingerprints) >= 500


def test_payload_feature_distributions_are_distinct(base_profiles):
    """Per-archetype (entropy, length, window) distributions must separate;
    compare medians of TCP-bearing packets across archetypes."""
    summaries = {}
    for profile in base_profiles:
        windows = profile.fingerprints[:, [19, 39, 59, 79, 99]].ravel()
        tcp_windows = windows[windows > 0]
        summaries[profile.device_label] = (
            float(np.median(tcp_windows)) if tcp_windows.size else 0.0
        )
    values = sorted(summaries.values())
    assert all(b - a > 500 for a, b in zip(values, values[1:]) if b > 0)


# sha256 of each (pcap, trace-labels/1 sidecar) that `iotprint synth --corpus
# --seed 7` writes. The generator's draw order is part of these bytes.
CORPUS_DIGESTS = {
    "camera-streamer-a": (
        "12e858e816be23a7615507a7e908c0b85cd0e6d3bb1e5e3d40b2490168036cac",
        "d9cdd9eb394df43fcca54c1966ec033805fca4af256c9c3dd8ea2aa00eda3a50",
    ),
    "constrained-bulb-a": (
        "a15c6cd61256d9db87b7e2d877a4fe351c89bcd3d1cfdf73b7fad6a7ecacba3a",
        "fac774cbc9504346e61f68d4158a228d7e8534eb4d3bfe96b4b10a5c55929087",
    ),
    "hub-conduit-a": (
        "096541f44d2dbf3dd89198104dacf25d21e86fa0e625f7a774d16c235da59849",
        "91d802557583007a4153738d37c06cb0bacbd19d39a369c50851d1588b133c84",
    ),
    "hue-bulb-a": (
        "c5cb04ba02ca8027276f1d7b8c9ea405f7c697307affd7ef76484e087c7db136",
        "846846afe289194c9c4bc3280791efdda38fd202311c9b95e02194ab93a57f24",
    ),
    "outlet-a": (
        "38196d6b37c36bf81cc84e0904cdcf669c7540f4435b9cfe74504b804e7da89c",
        "40ff814d47c430c16c4e10a6495e8e66ac9c30b31fc3955e3092209a6cdd799b",
    ),
    "outlet-b": (
        "a4245aac3c2409b61e5c20ea12e6ad0cc45f6ce1eabcf95be083a14b4e83767d",
        "40ff814d47c430c16c4e10a6495e8e66ac9c30b31fc3955e3092209a6cdd799b",
    ),
    "speaker-a": (
        "e4a78607f460356fb838a58003a4b0144fa3f64843cd80ef971ff09f3229ac09",
        "b51a86c6ff334d1ccdea731cfe831842871e0c3323c9621aa935efecc5dbf2ed",
    ),
}


def test_corpus_bytes_are_pinned(corpus, tmp_path):
    # Every protocol occurs in the corpus, so the pin covers every session kind.
    assert set().union(*(entry.archetype.protocol_mix for entry in corpus)) == set(Proto)
    digests = {}
    for entry in corpus:
        stem = f"{entry.archetype.name}-{entry.instance}"
        pcap, sidecar = tmp_path / f"{stem}.pcap", tmp_path / f"{stem}.labels.json"
        write_capture(pcap, entry.frames)
        doc = {"schema": "trace-labels/1", "labels": list(entry.labels)}
        sidecar.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
        digests[stem] = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (pcap, sidecar))
    assert digests == CORPUS_DIGESTS
