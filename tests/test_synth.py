import numpy as np
import pytest

from iotprint.features import FEATURE_NAMES, extract_features, shannon_entropy
from iotprint.fingerprint import session_stats
from iotprint.packet_model import parse_frame
from iotprint.synth import (
    ARCHETYPES,
    CORPUS_PACKETS,
    DeviceArchetype,
    PayloadProfile,
    Proto,
    WindowProfile,
    _generate,
    generate_trace,
    profile_for_entry,
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
    for frame in frames:
        assert extract_features(parse_frame(frame))[idx] == 1


def test_low_regime_entropy_bounded_by_half():
    frames, _ = generate_trace(regime_archetype("low", (24, 90, 300, 1200)), 1000, seed=4)
    entropies = [shannon_entropy(parse_frame(f).payload) for f in frames]
    assert max(entropies) <= 0.5


def test_high_regime_entropy_above_nine_tenths_for_long_payloads():
    frames, _ = generate_trace(regime_archetype("high", (512, 900, 1400)), 1000, seed=5)
    payloads = [parse_frame(f).payload for f in frames]
    assert all(len(p) >= 256 for p in payloads)
    assert min(shannon_entropy(p) for p in payloads) >= 0.9


def test_every_generated_frame_parses(corpus):
    for entry in corpus:
        for frame in entry.frames:
            parse_frame(frame)  # must not raise


def test_session_recovery_against_generator_truth():
    mixed = DeviceArchetype(
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
    frames, _, sessions = _generate(mixed, 900, seed=6)
    expected = {}
    for record in sessions:
        if record.ports is None:
            continue
        key = tuple(sorted(record.ports))
        expected[key] = expected.get(key, 0) + record.packets
    stats = session_stats([parse_frame(f) for f in frames])
    assert stats.per_session == expected
    assert stats.session_count == len(expected)
    assert stats.total_session_packets == sum(expected.values())


def test_session_lengths_within_declared_range():
    _, _, sessions = _generate(ARCHETYPES["speaker"], 600, seed=7)
    # all but the final (budget-truncated) session obey the distribution
    assert all(2 <= s.packets <= 10 for s in sessions[:-1])


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


def test_profile_for_entry_uses_archetype_labels(corpus):
    profile = profile_for_entry(corpus[0])
    assert profile.device_label == corpus[0].archetype.name
    assert profile.category_label == corpus[0].archetype.category


def test_conduit_traffic_has_no_sessions_yet_fingerprints(corpus, corpus_profiles):
    hub_entry = next(e for e in corpus if e.archetype.name == "hub-conduit")
    stats = session_stats([parse_frame(f) for f in hub_entry.frames])
    assert stats.session_count == 0
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
