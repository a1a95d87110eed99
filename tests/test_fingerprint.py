import json

import pytest

from iotprint.errors import InsufficientTraffic
from iotprint.features import extract_features
from iotprint.fingerprint import (
    FINGERPRINT_DIM,
    build_fingerprints,
    build_profile,
    format_session_average,
    load_profile,
    profile_from_packets,
    save_profile,
    session_stats,
)
from iotprint.packet_model import Network, ParsedPacket, Transport, parse_frame
from iotprint.pcap_io import DeviceSelector, write_capture
from iotprint.synth import ARCHETYPES, generate_trace


def marker_features(n):
    """tcp_payload_length acts as a monotone per-packet marker."""
    return [(0, 1, 0, 0, 0, 1, 0) + (0,) * 10 + (0.5, i, 1) for i in range(n)]


def test_below_window_size_yields_nothing():
    assert build_fingerprints(marker_features(4)).shape == (0, FINGERPRINT_DIM)


def test_two_groups_cover_first_ten_packets():
    prints = build_fingerprints(marker_features(12))
    assert len(prints) == 2
    assert all(len(fp) == FINGERPRINT_DIM for fp in prints)
    # marker sits at offset 18 of each 20-wide block
    assert [prints[0][20 * k + 18] for k in range(5)] == [0, 1, 2, 3, 4]
    assert [prints[1][20 * k + 18] for k in range(5)] == [5, 6, 7, 8, 9]


def test_large_stream_count():
    assert len(build_fingerprints(marker_features(5755))) == 1151


def udp_packet(src_port, dst_port):
    return ParsedPacket(
        ts_sec=0,
        ts_usec=0,
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\x04" + b"\x00" * 5,
        ether_type=0x0800,
        network=Network.IPV4,
        transport=Transport.UDP,
        src_port=src_port,
        dst_port=dst_port,
        payload=b"",
    )


def arp_packet():
    return ParsedPacket(
        ts_sec=0,
        ts_usec=0,
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\xff" * 6,
        ether_type=0x0806,
        network=Network.ARP,
    )


def stream_with(sessions, total):
    """`sessions` distinct port pairs whose packet counts sum to `total`."""
    packets = []
    base, extra = divmod(total, sessions)
    for i in range(sessions):
        count = base + (1 if i < extra else 0)
        for j in range(count):
            ports = (10000 + i, 20000 + i) if j % 2 == 0 else (20000 + i, 10000 + i)
            packets.append(udp_packet(*ports))
    return packets


# (total session packets, session count, expected two-decimal average)
SESSION_FIXTURES = [
    (12755, 3274, 3.89),
    (8600, 1390, 6.18),
    (1346, 305, 4.41),
    (8253, 1608, 5.13),
    (1660, 175, 9.48),
    (1994, 204, 9.77),
    (739, 84, 8.79),
]


def test_session_average_fixtures():
    for total, sessions, expected in SESSION_FIXTURES:
        stats = session_stats(stream_with(sessions, total))
        assert stats.session_count == sessions
        assert stats.total_session_packets == total
        assert abs(stats.avg_packets_per_session - expected) < 0.01


def test_session_fixture_mean():
    averages = [t / s for t, s, _ in SESSION_FIXTURES]
    assert abs(sum(averages) / len(averages) - 6.8) <= 0.05


def test_single_session():
    stats = session_stats(stream_with(1, 9))
    assert (stats.session_count, stats.avg_packets_per_session) == (1, 9.0)


def test_unordered_port_pair_grouping():
    stats = session_stats([udp_packet(5000, 80), udp_packet(80, 5000)])
    assert stats.session_count == 1
    assert stats.per_session[(80, 5000)] == 2


def test_portless_packets_excluded():
    packets = stream_with(2, 6) + [arp_packet()] * 5
    stats = session_stats(packets)
    assert stats.total_session_packets == 6
    assert sum(stats.per_session.values()) == 6


def test_no_sessions_average_is_zero():
    stats = session_stats([arp_packet()])
    assert stats.session_count == 0 and stats.avg_packets_per_session == 0.0


def test_display_truncates_not_rounds():
    assert format_session_average(739 / 84) == "8.79"
    assert format_session_average(12755 / 3274) == "3.89"
    assert format_session_average(9.0) == "9.00"


def test_build_profile_round_trip(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 500, seed=21)
    path = tmp_path / "outlet.pcap"
    write_capture(path, frames)
    profile = build_profile(path, DeviceSelector(mac=arch.mac), "outlet", "power")
    assert len(profile.fingerprints) == 100
    assert profile.source.captures == ("outlet.pcap",)

    saved = tmp_path / "outlet.profile.json"
    save_profile(profile, saved)
    back = load_profile(saved)
    assert back.device_label == "outlet" and back.category_label == "power"
    assert back.fingerprints.tolist() == profile.fingerprints.tolist()
    assert back.source == profile.source


def test_profile_requires_five_matching_packets(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 50, seed=22)
    path = tmp_path / "short.pcap"
    write_capture(path, frames)
    other = DeviceSelector(mac=b"\x0a" * 6)
    with pytest.raises(InsufficientTraffic):
        build_profile(path, other, "x", "y")


def test_interleaved_capture_matches_isolated(tmp_path):
    bulb = ARCHETYPES["constrained-bulb"]
    hue = ARCHETYPES["hue-bulb"]
    frames_a, _ = generate_trace(bulb, 200, seed=31)
    frames_b, _ = generate_trace(hue, 200, seed=32)
    merged = []
    for pair in zip(frames_a, frames_b):
        merged.extend(pair)
    mixed_path = tmp_path / "mixed.pcap"
    solo_path = tmp_path / "solo.pcap"
    write_capture(mixed_path, merged)
    write_capture(solo_path, frames_a)
    sel = DeviceSelector(mac=bulb.mac)
    from_mixed = build_profile(mixed_path, sel, "bulb", "light")
    from_solo = build_profile(solo_path, sel, "bulb", "light")
    assert from_mixed.fingerprints.tolist() == from_solo.fingerprints.tolist()


def test_load_rejects_wrong_dimension(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 100, seed=23)
    packets = [parse_frame(f) for f in frames]
    profile = profile_from_packets(packets, "outlet", "power")
    path = tmp_path / "p.json"
    save_profile(profile, path)
    doc = json.loads(path.read_text())
    doc["fingerprints"][0] = doc["fingerprints"][0][:99]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="99"):
        load_profile(path)


def test_profile_build_is_deterministic(tmp_path):
    arch = ARCHETYPES["speaker"]
    frames, _ = generate_trace(arch, 300, seed=24)
    path = tmp_path / "s.pcap"
    write_capture(path, frames)
    sel = DeviceSelector(mac=arch.mac)
    one = build_profile(path, sel, "s", "audio")
    two = build_profile(path, sel, "s", "audio")
    assert one.fingerprints.tolist() == two.fingerprints.tolist()
    assert one == two


def test_extracted_features_feed_fingerprints():
    arch = ARCHETYPES["camera-streamer"]
    frames, _ = generate_trace(arch, 25, seed=25)
    feats = [extract_features(parse_frame(f)) for f in frames]
    prints = build_fingerprints(feats)
    assert len(prints) == 5
    assert tuple(prints[0][:20]) == feats[0]
