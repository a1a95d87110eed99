import heapq
import ipaddress
import json
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iotprint import features
from iotprint.features import (
    FEATURE_NAMES,
    PACKET_FEATURE_COUNT,
    extract_features,
    frame_features,
)
from iotprint.fingerprint import (
    FINGERPRINT_DIM,
    build_fingerprints,
    build_profile,
    format_session_average,
    load_profile,
    packets_from_capture,
    read_rows,
    save_profile,
    session_stats,
)
from iotprint.packet_model import (
    FrameTooShort,
    ParsedPacket,
    RawFrame,
    TruncatedHeader,
    parse_frame,
)
from iotprint.pcap_io import DeviceSelector, filter_device, read_capture, write_capture
from iotprint.synth import ARCHETYPES, PEER_MAC, generate_trace


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
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\x04" + b"\x00" * 5,
        layers=frozenset({"ip", "udp"}),
        src_port=src_port,
        dst_port=dst_port,
        payload=b"",
    )


def arp_packet():
    return ParsedPacket(
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\xff" * 6,
        layers=frozenset({"arp"}),
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
        ports = oracles.packet_ports(stream_with(sessions, total))
        assert session_stats(ports) == (total, sessions)
        assert format_session_average(total, sessions) == f"{expected:.2f}"


def test_session_fixture_mean():
    averages = [t / s for t, s, _ in SESSION_FIXTURES]
    assert abs(sum(averages) / len(averages) - 6.8) <= 0.05


def test_single_session():
    assert session_stats(oracles.packet_ports(stream_with(1, 9))) == (9, 1)
    assert format_session_average(9, 1) == "9.00"


def test_unordered_port_pair_grouping():
    ports = oracles.packet_ports([udp_packet(5000, 80), udp_packet(80, 5000)])
    assert session_stats(ports) == (2, 1)


def test_portless_packets_excluded():
    packets = stream_with(2, 6) + [arp_packet()] * 5
    assert session_stats(oracles.packet_ports(packets)) == (6, 2)


def test_no_sessions_average_is_zero():
    assert session_stats(oracles.packet_ports([arp_packet()])) == (0, 0)
    assert format_session_average(0, 0) == "0.00"


def test_display_truncates_not_rounds():
    assert format_session_average(739, 84) == "8.79"
    assert format_session_average(12755, 3274) == "3.89"
    assert format_session_average(9, 1) == "9.00"
    assert format_session_average(0, 0) == "0.00"


def test_display_truncates_the_exact_quotient():
    """1-59 sessions at 1-40 packets per session, against exact fractions.
    A cut of avg * 100 in floating point printed 494 of these one
    hundredth low, 23 / 5 as 4.59."""
    assert format_session_average(23, 5) == "4.60"
    wrong = []
    for count in range(1, 60):
        for total in range(count, 40 * count + 1):
            cents = math.floor(Fraction(100 * total, count))
            if format_session_average(total, count) != f"{cents // 100}.{cents % 100:02d}":
                wrong.append((total, count))
    assert wrong == []


def test_build_profile_round_trip(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 500, seed=21)
    path = tmp_path / "outlet.pcap"
    write_capture(path, frames)
    profile = build_profile(path, DeviceSelector(mac=arch.mac), "outlet", "power")
    assert len(profile.fingerprints) == 100
    assert profile.captures == ("outlet.pcap",)

    saved = tmp_path / "outlet.profile.json"
    save_profile(profile, saved)
    back = load_profile(saved)
    assert back.device_label == "outlet" and back.category_label == "power"
    assert back.fingerprints.tolist() == profile.fingerprints.tolist()
    assert (back.captures, back.skipped_frames) == (profile.captures, profile.skipped_frames)


def test_profile_requires_five_matching_packets(tmp_path):
    arch = ARCHETYPES["outlet"]
    frames, _ = generate_trace(arch, 50, seed=22)
    path = tmp_path / "short.pcap"
    write_capture(path, frames)
    other = DeviceSelector(mac=b"\x0a" * 6)
    with pytest.raises(ValueError, match="^0 matching packets; need at least 5$"):
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
    pcap = tmp_path / "outlet.pcap"
    write_capture(pcap, frames)
    profile = build_profile(pcap, DeviceSelector(mac=arch.mac), "outlet", "power")
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
    fields = ("device_label", "category_label", "captures", "skipped_frames")
    assert [getattr(one, f) for f in fields] == [getattr(two, f) for f in fields]


def test_extracted_features_feed_fingerprints():
    arch = ARCHETYPES["camera-streamer"]
    frames, _ = generate_trace(arch, 25, seed=25)
    feats = extract_features([parse_frame(f) for f in frames])
    prints = build_fingerprints(feats)
    assert len(prints) == 5
    assert prints[0][:20].tolist() == feats[0].tolist()


_BULB, _SPEAKER = ARCHETYPES["constrained-bulb"], ARCHETYPES["speaker"]
_SYNTH_FRAMES = [
    f.data
    for pair in zip(generate_trace(_BULB, 40, seed=31)[0], generate_trace(_SPEAKER, 40, seed=32)[0])
    for f in pair
]  # ARP frames among them also hold a MAC at offsets 22 and 32
_SYNTH_FRAMES += [  # no bulb or speaker frame is ICMP; these are 4 camera echoes
    f.data
    for f in generate_trace(ARCHETYPES["camera-streamer"], 60, seed=31)[0]
    if "icmp" in parse_frame(f).layers
]
_SYNTH_FRAMES += [  # nor EAPoL; these are the first 4 of a hub's
    f.data
    for f in generate_trace(ARCHETYPES["hub-conduit"], 40, seed=33)[0]
    if "eapol" in parse_frame(f).layers
][:4]
_IPV6_HOST = "fd00::16"


def _put(data: bytes, at: int, fmt: str, value: int) -> bytes:
    frame = bytearray(data)
    struct.pack_into(fmt, frame, at, value)
    return bytes(frame)


def _ipv6_frame(next_header: int, body: bytes, to_host: bool = False) -> bytes:
    """An IPv6 frame from `_IPV6_HOST` (or to it), between foreign MACs."""
    head = struct.pack("!IHBB", 6 << 28, len(body), next_header, 64)
    host, peer = bytes.fromhex("fd000000000000000000000000000016"), bytes(15) + b"\x01"
    addresses = peer + host if to_host else host + peer
    return b"\x02\x0d" * 3 + b"\x02\x0c" * 3 + b"\x86\xdd" + head + addresses + body


def _ipv6_chain(chain: list, protocol: int, body: bytes) -> bytes:
    """An `_ipv6_frame` through the extension headers `chain`, each a
    (next-header value, the header's bytes after its next-header byte)
    pair, to `body` under the last one's next header `protocol`."""
    kinds = [kind for kind, _ in chain] + [protocol]
    headers = b"".join(bytes([after]) + rest for (_, rest), after in zip(chain, kinds[1:]))
    return _ipv6_frame(kinds[0], headers + body)


def _ipv4_frame(protocol: int, body: bytes, options: bytes = b"", source: str = "10.0.0.8"):
    """An IPv4 frame from `source` to 10.0.0.9 with these option bytes (a
    multiple of 4), between foreign MACs."""
    ihl = 5 + len(options) // 4
    header = struct.pack("!BBHHHBBH", 0x40 | ihl, 0, 4 * ihl + len(body), 0, 0, 64, protocol, 0)
    addresses = bytes(map(int, source.split("."))) + bytes([10, 0, 0, 9])
    return b"\x02\x0f" * 3 + b"\x02\x0e" * 3 + b"\x08\x00" + header + addresses + options + body


def _ip_only_frame(ip: str) -> bytes:
    """An IPv4/UDP frame from and to foreign MACs, sent from `ip`."""
    return _ipv4_frame(17, struct.pack("!HHHH", 40000, 53, 12, 0) + b"abcd", source=ip)


_UDP = struct.pack("!HHHH", 1, 2, 8, 0)
_TCP = struct.pack("!HHIIBBHHH", 40000, 443, 1, 0, 0x50, 0x18, 900, 0, 0)
_TCP_OPTIONS = struct.pack("!HHIIBBHHH", 40000, 443, 1, 0, 0x80, 0x18, 900, 0, 0) + bytes(12)
# An MLDv2 report of one record: joining ff02::fb (mDNS).
_MLD_REPORT = bytes.fromhex("8f000000" "00000001" "04000000" "ff02" + "00" * 13 + "fb")


def _fragment(field: int, reserved: int = 0) -> bytes:
    """An IPv6 fragment header after its next-header byte: offset and flags `field`."""
    return bytes([reserved]) + struct.pack("!HI", field, 7)


# IPv6 extension headers after their next-header byte. Hop-by-hop options with a
# router alert: after an empty PadN; after one Pad1; in the last two bytes, after
# options of types 4 and 6; first in 24 bytes. Without one: padding only (a PadN
# whose body holds 5s, then Pad1); options of types 4 and 6, then a 5 in the last
# byte, where no length follows it. Routing; destination options of 16 bytes; a
# first and a non-first fragment.
_HOP_ALERT, _HOP_PAD1_ALERT = b"\x00\x01\x00\x05\x02\x00\x00", b"\x00\x00\x05\x02\x00\x00\x00"
_HOP_LAST_ALERT = b"\x00\x04\x00\x06\x00\x05\x00"
_HOP_ALERT_24 = b"\x02\x05\x02\x00\x00\x01\x10" + bytes(16)
_HOP_PADDED, _HOP_LAST_5 = b"\x00\x01\x03\x05\x05\x05\x00", b"\x00\x04\x01\x00\x06\x00\x05"
_ROUTING = b"\x00\x00\x00\x00\x00\x00\x00"
_DESTINATION = b"\x01\x01\x0c" + bytes(12)
_FIRST_FRAGMENT, _LATER_FRAGMENT = _fragment(0x0001), _fragment(23 << 3)
# 40 IPv4 option bytes: NOP, router alert, two NOPs, a timestamp, a record route,
# two more options, NOP, and an option whose length under 2 ends the scan.
_IPV4_OPTIONS = bytes.fromhex(
    "01" "94040000" "0101" "440c0500" "00000000" "00000000" "070701" "00000000"
    "830301" "01" "88040001" "9901" "94040000"
)
# The IP kinds no synth trace holds: IPv6, IPv4 options or an invalid IHL, and
# each IP version's protocol numbers under the other.
_IP_KINDS = [
    _ipv6_frame(17, struct.pack("!HHHH", 5353, 5353, 13, 0) + b"abcde"),
    _ipv6_frame(6, _TCP + b"tls"),
    _ipv6_frame(58, b"\x80\x00\x00\x00" + b"ping"),
    _ipv6_frame(17, _UDP + b"to-host", to_host=True),
    _ipv6_chain([(0, _HOP_ALERT)], 17, _UDP),
    _ipv6_chain([(0, _HOP_ALERT)], 58, _MLD_REPORT),  # MLD, as sent, with a router alert
    _ipv6_chain([(0, _HOP_PADDED), (43, _ROUTING), (60, _DESTINATION)], 6, _TCP),
    _ipv6_chain([(0, _HOP_PAD1_ALERT), (44, _FIRST_FRAGMENT)], 17, _UDP + b"first"),
    _ipv6_chain([(60, _DESTINATION), (44, _LATER_FRAGMENT)], 17, _UDP + b"later"),
    _ipv6_chain([(0, _HOP_ALERT_24)], 17, _UDP),
    _ipv6_chain([(0, _HOP_LAST_5)], 17, _UDP),
    _ipv6_chain([(0, _HOP_LAST_ALERT)], 17, _UDP),
    _ipv6_chain([(60, _HOP_PADDED)], 59, b"no next header"),
    _ipv6_chain([(44, _fragment(0x0006, reserved=0xFF))], 17, _UDP),  # first, reserved bits set
    _ipv6_chain([(44, _fragment(1 << 3))], 17, _UDP),  # the least non-first offset
    # Datagrams ending one and two bytes into a header before TCP, captured to its end.
    _put(_ipv6_chain([(60, _HOP_PADDED)], 6, _TCP), 18, "!H", 1)[:62],
    _put(_ipv6_chain([(60, _HOP_PADDED)], 6, _TCP), 18, "!H", 2)[:62],
    _ipv6_chain([(60, _HOP_PADDED)] * 8, 17, _UDP),  # as many as the walk takes
    _ipv6_chain([(60, _HOP_PADDED)] * 9, 17, _UDP),  # and one more
    _ipv4_frame(2, b"\x16\x00\xfa\x04\xef\x01\x02\x03", b"\x94\x04\x00\x00"),  # IGMP
    # Options of 2 and 3 bytes (0x94 inside the second), NOP, then End of Option List.
    _ipv4_frame(17, _UDP + b"nop", b"\x02\x02\x02\x03\x94\x01\x00\x00"),
    # Option kind 2 (not padding), then a length under 2 that hides the alert after it.
    _ipv4_frame(6, _TCP, b"\x02\x02\x07\x01\x94\x04\x00\x00"),
    # TCP with 12 option bytes, in a datagram that ends 4 bytes into them.
    _put(_ipv4_frame(6, _TCP_OPTIONS + b"data"), 16, "!H", 44),
    _ipv4_frame(1, b"\x08\x00\x00\x00ping", _IPV4_OPTIONS),
    _ipv6_frame(1, b"\x08\x00\x00\x00ping"),
    _ipv4_frame(58, b"\x80\x00\x00\x00ping"),
    _ipv4_frame(0, bytes([17]) + _HOP_ALERT + _UDP),
    _ipv4_frame(44, bytes([17]) + _FIRST_FRAGMENT + _UDP),
    _ip_only_frame("10.0.0.8")[:14] + b"\x44" + _ip_only_frame("10.0.0.8")[15:],  # IHL 4
]  # fmt: skip
_SYNTH_FRAMES += _IP_KINDS
_SELECTOR_MACS = (_BULB.mac, _SPEAKER.mac, PEER_MAC, b"\xff" * 6)


@st.composite
def _edited_ipv4(draw, data: bytes) -> bytes:
    """An untagged IPv4 frame with one header field redrawn: the IHL, 0-15
    (with the option bytes it claims inserted); the fragment field; the
    total length, with 0-20 bytes of link padding; or the TCP data offset
    or UDP length."""
    frame = bytearray(data)
    field = draw(st.sampled_from(["ihl", "fragment", "total-length", "transport"]))
    if field == "ihl":
        ihl = draw(st.integers(0, 15))
        options = draw(st.binary(min_size=4 * max(ihl - 5, 0), max_size=4 * max(ihl - 5, 0)))
        frame[14] = 0x40 | ihl
        struct.pack_into("!H", frame, 16, (frame[16] << 8 | frame[17]) + len(options))
        return bytes(frame[:34]) + options + bytes(frame[34:])
    if field == "fragment":
        struct.pack_into("!H", frame, 20, draw(st.integers(0, 0xFFFF)))
    elif field == "total-length":
        struct.pack_into("!H", frame, 16, draw(st.integers(0, len(frame) + 8)))
        frame += draw(st.binary(max_size=20))
    elif frame[23] == 6:
        frame[46] = draw(st.integers(0, 15)) << 4 | frame[46] & 0x0F
    elif frame[23] == 17:
        struct.pack_into("!H", frame, 38, draw(st.integers(0, 0xFFFF)))
    return bytes(frame)


@st.composite
def _frame_bytes(draw, mac: bytes) -> bytes:
    """A pool frame: as it is, byte-mutated, with an IPv4 header field
    redrawn, under a random EtherType, or holding `mac` at an offset other
    than 0 and 6; then under 0-2 VLAN tags, and perhaps cut to any length."""
    data = draw(st.sampled_from(_SYNTH_FRAMES))
    kind = draw(st.sampled_from(["synth", "mutated", "ipv4-field", "ethertype", "mac-elsewhere"]))
    if kind == "mutated":
        edits = draw(st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))))
        edited = bytearray(data)
        for at, value in edits:
            edited[at] = value
        data = bytes(edited)
    elif kind == "ipv4-field" and data[12:14] == b"\x08\x00":
        data = draw(_edited_ipv4(data))
    elif kind == "ethertype":
        data = data[:12] + draw(st.binary(min_size=2, max_size=2)) + data[14:]
    elif kind == "mac-elsewhere":
        at = draw(st.integers(1, len(data) - 6).filter(lambda i: i != 6))
        data = data[:at] + mac + data[at + 6 :]
    tags = draw(st.integers(0, 2))
    tag = b"".join(b"\x81\x00" + draw(st.binary(min_size=2, max_size=2)) for _ in range(tags))
    data = data[:12] + tag + data[12:]
    cut = draw(st.none() | st.integers(0, len(data)))
    return data if cut is None else data[:cut]


def _selectors(mac: bytes) -> list:
    """Selectors by `mac`; by `mac` and the bulb's IP; and by IP alone, IPv4 or IPv6."""
    by_ip = [DeviceSelector(ip=_BULB.ip), DeviceSelector(ip=_IPV6_HOST)]
    return [DeviceSelector(mac=mac), DeviceSelector(mac=mac, ip=_BULB.ip), *by_ip]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_selecting_frames_before_parsing_matches_parse_then_filter(data):
    mac = data.draw(st.sampled_from(_SELECTOR_MACS))
    chunks = data.draw(st.lists(_frame_bytes(mac), max_size=30))
    chunks.insert(data.draw(st.integers(0, len(chunks))), _ip_only_frame(_BULB.ip))
    frames = [RawFrame(i, 0, len(chunk), chunk) for i, chunk in enumerate(chunks)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.pcap"
        write_capture(path, frames)
        everything, _ = packets_from_capture(path)
        for sel in _selectors(mac):
            kept = filter_device(everything, sel)
            rows, ports, _ = read_rows(path, sel)
            assert rows.tobytes() == extract_features(kept).tobytes()
            assert ports.tobytes() == oracles.packet_ports(kept).tobytes()

        # With an IP the selector keeps a frame from that IP between other MACs.
        kept = filter_device(everything, DeviceSelector(mac=mac, ip=_BULB.ip))
        assert any(p.src_ip == _BULB.ip and mac not in (p.src_mac, p.dst_mac) for p in kept)


@st.composite
def _capture_bytes(draw, mac: bytes) -> bytes:
    """A pcap of `_frame_bytes` records in either byte order, at µs or ns
    resolution, perhaps with one record whose fraction is out of range,
    perhaps cut within 20 bytes before the end of a record."""
    endian = draw(st.sampled_from("<>"))
    nano = draw(st.booleans())
    limit = 10**9 if nano else 10**6
    chunks = draw(st.lists(_frame_bytes(mac), max_size=30))
    chunks.insert(draw(st.integers(0, len(chunks))), _ip_only_frame(_BULB.ip))
    bad = draw(st.none() | st.integers(0, len(chunks) - 1))
    magic = 0xA1B23C4D if nano else 0xA1B2C3D4
    data = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    ends = []
    for i, chunk in enumerate(chunks):
        ts_sec = draw(st.integers(0, 2**32 - 1))
        frac = draw(st.integers(limit, 2**32 - 1) if i == bad else st.integers(0, limit - 1))
        original = draw(st.integers(0, len(chunk) + 3))
        data += struct.pack(endian + "IIII", ts_sec, frac, len(chunk), original) + chunk
        ends.append(len(data))
    if draw(st.booleans()):
        return data
    return data[: max(24, draw(st.sampled_from(ends)) - draw(st.integers(0, 20)))]


def _read_rows(path, sel):
    """`read_rows`' rows and ports (by their bytes), skipped count and
    session counts, or the error it raises."""
    try:
        rows, ports, skipped = read_rows(path, sel)
    except ValueError as exc:
        return type(exc), str(exc)
    return rows.tobytes(), ports.tobytes(), skipped, session_stats(ports)


def _scalar_rows(path, sel):
    """The same from the scalar path, or the error it raises: the reference
    reader, the frame-by-frame MAC filter when `sel` is MAC-only, then
    `parse_frame` on each frame, the `sel.matches` filter, and the
    reference rows, ports and session counts of one packet at a time."""
    try:
        _, frames = oracles.read_capture(path)
    except ValueError as exc:
        return type(exc), str(exc)
    if sel is not None and sel.ip is None:
        frames = oracles.filter_device(frames, sel)
    packets, skipped = [], 0
    for frame in frames:
        try:
            packets.append(parse_frame(frame))
        except (FrameTooShort, TruncatedHeader):
            skipped += 1
    if sel is not None:
        packets = oracles.filter_device(packets, sel)
    ports = oracles.packet_ports(packets).tobytes()
    return _oracle_rows(packets).tobytes(), ports, skipped, oracles.session_stats(packets)


def _oracle_rows(packets) -> np.ndarray:
    """The (n, 20) matrix of `oracles.extract_features` rows, one packet at a time."""
    rows = [oracles.extract_features(p) for p in packets]
    return np.array(rows, dtype=np.float64).reshape(-1, PACKET_FEATURE_COUNT)


def _parsed(frame: RawFrame) -> ParsedPacket | None:
    """`parse_frame`'s packet, or None where it rejects the frame."""
    try:
        return parse_frame(frame)
    except (FrameTooShort, TruncatedHeader):
        return None


def _bulk_matches_parsing(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Check `frame_features` against `parse_frame`, frame by frame: it skips
    exactly the frames `parse_frame` rejects, and gives every other frame the
    per-packet reference row and its parsed packet's ports and addresses, read
    as text from where it located them. Returns the rows of the kept frames."""
    skipped, rows, ports, ip_at, ip_width = frame_features(data, starts, lengths)
    bounds = zip(starts.tolist(), lengths.tolist())
    packets = [_parsed(RawFrame(0, 0, n, data[at : at + n])) for at, n in bounds]
    assert skipped.tolist() == [p is None for p in packets]
    kept = [p for p in packets if p is not None]
    assert rows[~skipped].tobytes() == _oracle_rows(kept).tobytes()
    assert ports[~skipped].tobytes() == oracles.packet_ports(kept).tobytes()
    located = [
        tuple(oracles.ip_text(data[at + k * n : at + k * n + n]) if n else None for k in (0, 1))
        for at, n in zip(ip_at[~skipped].tolist(), ip_width[~skipped].tolist())
    ]
    assert located == [(p.src_ip, p.dst_ip) for p in kept]
    assert not rows[skipped].any() and (ports[skipped] == -1).all()
    assert not ip_width[skipped].any()
    return rows[~skipped]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ingest_matches_the_scalar_reference_paths(data):
    mac = data.draw(st.sampled_from(_SELECTOR_MACS))
    capture = data.draw(_capture_bytes(mac))
    sel = data.draw(st.sampled_from([None, *_selectors(mac)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.pcap"
        path.write_bytes(capture)
        want = _scalar_rows(path, sel)
        assert _read_rows(path, sel) == want
        if len(want) == 2:  # both raised the same error
            return
        meta, frames = read_capture(path)
        want_meta, want_frames = oracles.read_capture(path)
        assert (meta, list(frames)) == (want_meta, want_frames)
        by_mac = DeviceSelector(mac=mac)
        assert list(filter_device(frames, by_mac)) == oracles.filter_device(want_frames, by_mac)
        _bulk_matches_parsing(frames.data, *frames.records[:, :2].T)
    for pkt in filter(None, map(_parsed, frames)):
        assert pkt.layers <= set(features._PACKET_FLAGS)
        has_ports = oracles.has_ports(pkt)
        assert (pkt.src_port is not None, pkt.dst_port is not None) == (has_ports, has_ports)
        assert (pkt.tcp_window_size is not None) == ("tcp" in pkt.layers)
        row = extract_features([pkt])[0]
        apps = {name for name in oracles.APP_FLAGS if row[FEATURE_NAMES.index(name)]}
        assert apps == oracles.classify_app_protocols(pkt.layers, pkt.src_port, pkt.dst_port)
        assert has_ports or not apps


def _first(kind) -> bytes:
    """The first pool frame whose parsed packet `kind` accepts."""
    return next(d for d in _SYNTH_FRAMES if kind(parse_frame(RawFrame(0, 0, len(d), d))))


def _header_sweep(data: bytes) -> list:
    """An untagged IPv4 frame with a 20-byte header at IHL 0-15, with the
    option bytes it claims all zero (End of Option List) or the first of
    `_IPV4_OPTIONS`; with each of a few fragment fields; and, for TCP, at
    every data offset."""
    frames = []
    for ihl in range(16):
        for source in (bytes(40), _IPV4_OPTIONS):
            options = source[: 4 * max(ihl - 5, 0)]
            frame = bytearray(_put(data, 16, "!H", len(data) - 14 + len(options)))
            frame[14] = 0x40 | ihl
            frames.append(bytes(frame[:34]) + options + bytes(frame[34:]))
    fragments = (1, 0x1FFF, 0x2000, 0x2001, 0x4000, 0x8000)
    frames += [_put(data, 20, "!H", frag) for frag in fragments]
    if data[23] == 6:
        frames += [_put(data, 46, "!B", offset << 4) for offset in range(16)]
    return frames


def _length_sweep(data: bytes) -> list:
    """An untagged frame with each length field the decoder reads swept
    across its boundaries: the IPv4 total length and UDP length, or the
    IPv6 payload length, each up to 8 past the frame."""
    if data[12:14] == b"\x86\xdd":
        return [_put(data, 18, "!H", length) for length in range(len(data) - 45)]
    frames = [_put(data, 16, "!H", total) + bytes(4) for total in range(len(data) + 8)]
    if data[23] == 17:
        frames += [_put(data, 38, "!H", length) for length in [*range(len(data) - 26), 0xFFFF]]
    return frames


def test_bulk_decoding_matches_parsing_at_every_header_boundary():
    """`frame_features` against `parse_frame` and the per-packet rows on one
    ARP, EAPoL, TCP, UDP and ICMP frame each and on `_IP_KINDS`: every
    cut of each under 0-2 VLAN tags; each length
    field of the untagged IPv4 frames with a 20-byte header and of the IPv6
    frames swept across its bounds; and every cut of the IPv4 frames at each
    IHL, fragment field and TCP data offset. A cut frame is a record shorter than the bytes
    laid out for it, so a read past its end sees the rest of the frame, and
    one past the buffer is clipped."""
    bases = [
        _first(lambda p: "arp" in p.layers),
        _first(lambda p: "eapol" in p.layers),
        _first(lambda p: "tcp" in p.layers),
        _first(lambda p: "udp" in p.layers),
        _first(lambda p: "icmp" in p.layers),
    ]
    bases += _IP_KINDS
    laid_out, records = [], []  # records: (index into laid_out, captured length)

    def lay(frame: bytes, cuts) -> None:
        records.extend((len(laid_out), cut) for cut in cuts)
        laid_out.append(frame)

    for base in bases:
        if base[12:14] == b"\x86\xdd" or base[12:15] == b"\x08\x00\x45":
            for frame in _length_sweep(base):
                lay(frame, [len(frame)])
        for frame in _header_sweep(base) if base[12:15] == b"\x08\x00\x45" else []:
            lay(frame, range(len(frame) + 1))
        for tags in range(3):
            lay(base[:12] + b"\x81\x00\x00\x05" * tags + base[12:], range(len(base) + 4 * tags + 1))
    offsets = np.cumsum([0] + [len(frame) for frame in laid_out])
    starts = np.array([offsets[i] for i, _ in records])
    lengths = np.array([n for _, n in records])
    rows = _bulk_matches_parsing(b"".join(laid_out), starts, lengths)
    flags = [FEATURE_NAMES.index(name) for name in features._PACKET_FLAGS]
    assert rows[:, flags].any(axis=0).all()  # the sweep reaches every layer flag
    assert len(rows) > len(records) / 3  # and decodes as many frames as it skips, or more
    # A hop-by-hop header that ends the buffer, as one in a capture's last record does.
    last = _ipv6_chain([(0, _HOP_PADDED)], 59, b"")
    _bulk_matches_parsing(last, np.array([0]), np.array([len(last)]))


def _pcap(frames, endian: str = "<", nano: bool = False) -> bytes:
    """A classic pcap of `frames` in either byte order, at µs or ns resolution."""
    magic = 0xA1B23C4D if nano else 0xA1B2C3D4
    data = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for f in frames:
        frac = f.ts_usec * 1000 if nano else f.ts_usec
        data += [struct.pack(endian + "IIII", f.ts_sec, frac, len(f.data), f.original_length), f.data]
    return b"".join(data)


def _tagged(f: RawFrame) -> RawFrame:
    data = f.data[:12] + b"\x81\x00\x00\x05" + f.data[12:]
    return RawFrame(f.ts_sec, f.ts_usec, f.original_length + 4, data)


def _padded(f: RawFrame) -> RawFrame:
    """The frame as a NIC sends it: zero-padded to Ethernet's 60-byte minimum."""
    data = f.data.ljust(60, b"\x00")
    return RawFrame(f.ts_sec, f.ts_usec, max(f.original_length, len(data)), data)


def _time(f: RawFrame) -> tuple:
    return f.ts_sec, f.ts_usec


# name -> the pcap bytes of a capture's frames taken another way, given another
# device's frames too, which only the interleaving takes.
_RETAKES = {
    "big-endian": lambda frames, other: _pcap(frames, ">"),
    "nanosecond": lambda frames, other: _pcap(frames, nano=True),
    "802.1q-tag": lambda frames, other: _pcap(map(_tagged, frames)),
    "padded-to-60": lambda frames, other: _pcap(map(_padded, frames)),
    "interleaved": lambda frames, other: _pcap(heapq.merge(frames, other, key=_time)),
}


@pytest.mark.parametrize("retake", _RETAKES)
def test_rows_do_not_depend_on_how_the_capture_was_taken(corpus, tmp_path, retake):
    """Each corpus capture, taken another way, gives the same rows, ports
    and skip counts: with no selector, by MAC and by IP, and, where another
    device's frames are interleaved, by MAC."""
    moved = []
    for entry, other in zip(corpus, corpus[1:] + corpus[:1]):
        arch = entry.archetype
        selectors = {"mac": DeviceSelector(mac=arch.mac)}
        if retake != "interleaved":
            selectors.update({"none": None, "ip": DeviceSelector(ip=arch.ip)})
        (tmp_path / "as-sent.pcap").write_bytes(_pcap(entry.frames))
        (tmp_path / "retaken.pcap").write_bytes(_RETAKES[retake](entry.frames, other.frames))
        for name, sel in selectors.items():
            if _read_rows(tmp_path / "retaken.pcap", sel) != _read_rows(tmp_path / "as-sent.pcap", sel):
                moved.append(f"{arch.name}-{entry.instance} by {name}")
    assert moved == []


def test_a_selector_with_an_ip_decodes_and_counts_every_frame(tmp_path):
    """With an IP, frames not holding the MAC are decoded and their skips
    counted too, and an IPv6 address matches as source or destination,
    not where other bytes of a frame hold it."""
    path = tmp_path / "one.pcap"
    frame = _ip_only_frame(_BULB.ip)
    write_capture(path, [RawFrame(0, 0, len(frame), frame), RawFrame(1, 0, 10, frame[:10])])
    rows, ports, skipped = read_rows(path, DeviceSelector(mac=_BULB.mac, ip=_BULB.ip))
    packet = parse_frame(RawFrame(0, 0, len(frame), frame))
    assert rows.tobytes() == extract_features([packet]).tobytes()
    assert ports.tolist() == [[40000, 53]]
    assert skipped == 1

    host = ipaddress.IPv6Address(_IPV6_HOST).packed
    frames = [
        _ipv6_frame(17, struct.pack("!HHHH", 1, 2, 8, 0)),
        _ipv6_frame(17, struct.pack("!HHHH", 3, 4, 8, 0), to_host=True),
        _ipv6_frame(17, struct.pack("!HHHH", 5, 6, 8, 0)).replace(host, host[:-1] + b"\x17"),
        _ipv6_frame(17, struct.pack("!HHHH", 7, 8, 24, 0) + host),
        _ipv4_frame(17, struct.pack("!HHHH", 9, 10, 24, 0) + host),
    ]
    frames[3] = frames[3].replace(host, bytes(15) + b"\x02", 1)  # the host in the payload only
    write_capture(path, [RawFrame(i, 0, len(f), f) for i, f in enumerate(frames)])
    rows, ports, skipped = read_rows(path, DeviceSelector(ip=_IPV6_HOST))
    assert (ports.tolist(), skipped) == ([[1, 2], [3, 4]], 0)
