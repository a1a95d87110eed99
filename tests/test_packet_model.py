import enum
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iotprint import features
from iotprint.features import FEATURE_NAMES, HEADER_FLAG_NAMES, extract_features, frame_features
from iotprint.fingerprint import read_rows
from iotprint.packet_model import (
    FrameTooShort,
    ParsedPacket,
    RawFrame,
    TruncatedHeader,
    parse_frame,
    parse_mac,
)
from iotprint.pcap_io import write_capture

DEV_MAC = bytes.fromhex("020000000a0a")
PEER_MAC = bytes.fromhex("02ffee000001")


def eth(ether_type, body, dst=PEER_MAC, src=DEV_MAC):
    return dst + src + struct.pack("!H", ether_type) + body


def ipv4(proto, body, src="10.0.0.2", dst="10.0.0.3", options=b"", frag=0):
    ihl = 20 + len(options)
    assert ihl % 4 == 0
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x40 | (ihl // 4),
        0,
        ihl + len(body),
        0,
        frag,
        64,
        proto,
        0,
        bytes(int(p) for p in src.split(".")),
        bytes(int(p) for p in dst.split(".")),
    )
    return header + options + body


def tcp(sport, dport, payload, window=8192):
    return struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4, 0x18, window, 0, 0) + payload


def udp(sport, dport, payload):
    return struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload


def frame(data):
    return RawFrame(0, 0, len(data), data)


def app_flags(pkt) -> set:
    """The names of the application flags set in the feature row of `pkt`."""
    row = extract_features([pkt])[0]
    return {name for name in oracles.APP_FLAGS if row[FEATURE_NAMES.index(name)]}


def test_eapol_frame_identified_by_ethertype():
    pkt = parse_frame(frame(eth(0x888E, b"\x01\x00\x00\x04abcd")))
    assert pkt.layers == {"eapol"}
    assert pkt.payload == b"\x01\x00\x00\x04abcd"
    assert pkt.src_port is None and pkt.tcp_window_size is None


def test_ipv4_tcp_port_80_sets_http():
    pkt = parse_frame(frame(eth(0x0800, ipv4(6, tcp(51000, 80, b"GET / HTTP/1.1")))))
    assert pkt.layers == {"ip", "tcp"}
    assert app_flags(pkt) == {"http"}
    assert (pkt.src_port, pkt.dst_port) == (51000, 80)
    assert pkt.tcp_window_size == 8192
    assert pkt.payload == b"GET / HTTP/1.1"
    assert pkt.src_ip == "10.0.0.2"


def test_udp_mdns_both_ports():
    pkt = parse_frame(frame(eth(0x0800, ipv4(17, udp(5353, 5353, b"q" * 30)))))
    assert pkt.layers == {"ip", "udp"}
    assert app_flags(pkt) == {"mdns"}
    assert pkt.payload == b"q" * 30


def test_arp_frame():
    pkt = parse_frame(frame(eth(0x0806, b"\x00" * 28)))
    assert pkt.layers == {"arp"}


def test_vlan_unwrapped_once():
    inner = ipv4(17, udp(5353, 5353, b"x"))
    tagged = PEER_MAC + DEV_MAC + struct.pack("!HHH", 0x8100, 100, 0x0800) + inner
    pkt = parse_frame(frame(tagged))
    assert pkt.layers == {"ip", "udp"}
    assert app_flags(pkt) == {"mdns"}
    # a second nested tag is not unwrapped
    double = PEER_MAC + DEV_MAC + struct.pack("!HHH", 0x8100, 1, 0x8100) + tagged[14:]
    assert parse_frame(frame(double)).layers == frozenset()


def test_ipv4_options_padding_and_router_alert():
    options = b"\x94\x04\x00\x00"  # router alert, length 4
    pkt = parse_frame(frame(eth(0x0800, ipv4(17, udp(1, 2, b""), options=options))))
    assert pkt.layers == {"ip", "ip_router_alert", "udp"}
    options = b"\x01\x01\x01\x00"  # NOPs then end-of-list
    pkt = parse_frame(frame(eth(0x0800, ipv4(6, tcp(1, 2, b""), options=options))))
    assert pkt.layers == {"ip", "ip_padding", "tcp"}


def test_ipv4_option_shorter_than_two_bytes_stops_the_scan():
    """An option length below 2 (here record route with length 1) ends
    the scan: the NOP byte after it is not read as an option."""
    options = b"\x07\x01\x00\x00"
    pkt = parse_frame(frame(eth(0x0800, ipv4(6, tcp(1, 2, b""), options=options))))
    assert pkt.layers == {"ip", "tcp"}
    assert extract_features([pkt])[0, FEATURE_NAMES.index("ip_padding")] == 0


def ipv6(next_header, body, ext=b""):
    header = struct.pack("!IHBB", 6 << 28, len(ext) + len(body), next_header, 64)
    return header + b"\x20" * 16 + b"\x30" * 16 + ext + body


def test_ipv6_tcp_and_hop_by_hop_router_alert():
    # hop-by-hop header: next=6 (TCP), len 0 (8 bytes), router alert option
    ext = bytes([6, 0, 5, 2, 0, 0, 1, 0])
    pkt = parse_frame(frame(eth(0x86DD, ipv6(0, tcp(49152, 443, b"tls"), ext=ext))))
    assert pkt.layers == {"ip", "ip_router_alert", "tcp"}
    assert app_flags(pkt) == {"https"}
    assert pkt.payload == b"tls"
    assert (pkt.src_ip, pkt.dst_ip) == ("2020:" * 7 + "2020", "3030:" * 7 + "3030")


def test_ipv6_icmpv6():
    pkt = parse_frame(frame(eth(0x86DD, ipv6(58, b"\x80\x00\x00\x00ping"))))
    assert pkt.layers == {"ip", "icmpv6"}
    assert pkt.payload == b"ping"


def test_ipv4_non_first_fragment_has_no_transport():
    body = udp(1, 2, b"zz")
    pkt = parse_frame(frame(eth(0x0800, ipv4(17, body, frag=0x0007))))
    assert pkt.layers == {"ip"}
    assert pkt.payload == body
    assert pkt.src_port is None


def test_icmp_payload_after_base_header():
    pkt = parse_frame(frame(eth(0x0800, ipv4(1, b"\x08\x00\x00\x00rest"))))
    assert pkt.layers == {"ip", "icmp"}
    assert pkt.payload == b"rest"


def test_frame_too_short():
    with pytest.raises(FrameTooShort):
        parse_frame(frame(b"\x00" * 13))


def test_truncated_ipv4_header():
    data = eth(0x0800, b"\x45\x00\x00")
    with pytest.raises(TruncatedHeader):
        parse_frame(frame(data))


def test_truncated_tcp_header():
    data = eth(0x0800, ipv4(6, tcp(1, 2, b""))[:-10])  # full IP header, cut TCP
    with pytest.raises(TruncatedHeader):
        parse_frame(frame(data))


def test_link_padding_trimmed_by_total_length():
    data = eth(0x0800, ipv4(17, udp(9, 9, b"ab")) + b"\x00" * 18)  # padded runt
    pkt = parse_frame(frame(data))
    assert pkt.payload == b"ab"


def _arp_body(hlen: int, plen: int) -> bytes:
    """An ARP request for `hlen`-byte hardware and `plen`-byte protocol
    addresses, with as many address bytes as those lengths claim."""
    addresses = bytes(range(0x20, 0x20 + 2 * (hlen + plen)))
    return struct.pack("!HHBBH", 1, 0x0800, hlen, plen, 1) + addresses


def _stated(body: bytes, kind: str) -> bytes:
    """The bytes of an ARP (RFC 826) or EAPoL packet by its own length
    fields, or all of `body` when it cuts those fields."""
    if kind == "arp":
        return body if len(body) < 6 else body[: 8 + 2 * body[4] + 2 * body[5]]
    return body if len(body) < 4 else body[: 4 + int.from_bytes(body[2:4], "big")]


# (EtherType, kind, packet); each is followed by 20 distinct trailer bytes.
_OPAQUE_PACKETS = [
    (0x0806, "arp", _arp_body(6, 4)),
    (0x0806, "arp", _arp_body(0, 0)),
    (0x0806, "arp", _arp_body(1, 2)),
    (0x0806, "arp", struct.pack("!HHBBH", 1, 0x0800, 255, 255, 1) + bytes(range(30))),
    (0x888E, "eapol", b"\x01\x00\x00\x04abcd"),
    (0x888E, "eapol", b"\x02\x01\x00\x00"),
    (0x888E, "eapol", b"\x01\x03\xff\xff" + bytes(range(40))),
]


@pytest.mark.parametrize("tags", [0, 1])
def test_arp_and_eapol_payloads_end_at_their_own_length(tags):
    """An ARP payload is its 8 + 2 * hlen + 2 * plen bytes and an EAPoL
    payload its 4-byte header plus body length, cut at the captured bytes;
    a frame that cuts the length fields keeps every byte after its header.
    Every cut of each frame, and both decoders."""
    frames, want = [], []
    for ether_type, kind, packet in _OPAQUE_PACKETS:
        tag = struct.pack("!HH", 0x8100, 5) * tags
        data = PEER_MAC + DEV_MAC + tag + struct.pack("!H", ether_type)
        data += packet + bytes(range(0xA0, 0xB4))
        for cut in range(len(data) - len(packet) - 20, len(data) + 1):
            frames.append(frame(data[:cut]))
            want.append(_stated(data[14 + 4 * tags : cut], kind))
    assert [parse_frame(f).payload for f in frames] == want
    starts = np.cumsum([0] + [len(f.data) for f in frames])[:-1]
    lengths = np.array([len(f.data) for f in frames])
    decoded, rows, _, _ = frame_features(b"".join(f.data for f in frames), starts, lengths)
    assert decoded.all()
    entropy = rows[:, FEATURE_NAMES.index("entropy")]
    assert entropy.tolist() == [oracles.shannon_entropy(payload) for payload in want]


def test_unknown_ethertype_degrades_to_other():
    pkt = parse_frame(frame(eth(0x1234, b"opaque-bytes")))
    assert pkt.layers == frozenset()
    assert pkt.payload == b"opaque-bytes"


def test_parse_is_deterministic():
    data = eth(0x0800, ipv4(6, tcp(51000, 80, b"abc")))
    assert parse_frame(frame(data)) == parse_frame(frame(data))


class Transport(enum.Enum):
    """The two transports with ports, by their IP protocol numbers."""

    TCP = 6
    UDP = 17


@pytest.mark.parametrize(
    "transport,a,b,expected",
    [
        (Transport.UDP, 67, 68, {"dhcp", "bootp"}),
        (Transport.UDP, 40000, 123, {"ntp"}),
        (Transport.TCP, 50000, 50001, set()),
        (Transport.TCP, 443, 49000, {"https"}),
        (Transport.TCP, 53, 31000, {"dns"}),
        (Transport.UDP, 53, 31000, {"dns"}),
        (Transport.UDP, 1900, 40001, {"ssdp"}),
        (Transport.TCP, 123, 50, set()),  # NTP is UDP-only
    ],
)
def test_classify_app_protocols_port_map(transport, a, b, expected):
    """The application columns of a parsed TCP or UDP packet's row."""
    segment = tcp(a, b, b"x") if transport is Transport.TCP else udp(a, b, b"x")
    assert app_flags(parse_frame(frame(eth(0x0800, ipv4(transport.value, segment))))) == expected


_PORTS = st.sampled_from(oracles.APP_PORTS) | st.integers(0, 65535)


@given(transport=st.sampled_from(["tcp", "udp", "icmp", "icmpv6", None]), a=_PORTS, b=_PORTS)
def test_classify_direction_symmetry(transport, a, b):
    """A row's application columns do not depend on which end holds a port,
    and a transport other than TCP or UDP sets none, whatever its ports."""

    def packet(src_port, dst_port):
        return ParsedPacket(PEER_MAC, DEV_MAC, layers, src_port=src_port, dst_port=dst_port)

    layers = frozenset({"ip", transport} - {None})
    found = app_flags(packet(a, b))
    assert found == app_flags(packet(b, a))
    assert found == oracles.classify_app_protocols(layers, a, b)


@settings(max_examples=400, deadline=None)
@given(data=st.binary(min_size=14, max_size=300))
def test_parse_total_over_frames(data):
    # Any frame either parses (invariants enforced by the dataclass) or
    # raises one of the two declared skip-and-count errors.
    try:
        pkt = parse_frame(frame(data))
    except (FrameTooShort, TruncatedHeader):
        return
    assert pkt.layers <= set(features._PACKET_FLAGS)
    has_ports = oracles.has_ports(pkt)
    assert (pkt.src_port is not None) == has_ports
    assert (pkt.tcp_window_size is not None) == ("tcp" in pkt.layers)
    if not has_ports:
        assert app_flags(pkt) == set()


def test_mac_helpers_round_trip():
    assert parse_mac(DEV_MAC.hex(":")) == DEV_MAC
    assert parse_mac("2-0-0-A-a-1") == bytes([2, 0, 0, 10, 10, 1])
    # int(text, 16) alone would accept a 0x prefix, a sign, spaces,
    # underscores and non-ASCII digits
    for text in [
        "02:00:00",
        "02:00:00:00:01:01:07",
        "0x2:+0: 0:0_0:1:1",
        "0x2:00:00:00:01:01",
        "+2:00:00:00:01:01",
        " 02:00:00:00:01:01",
        "02:00:00:00:01:01\n",
        "02:0_0:00:00:01:01",
        "002:00:00:00:01:01",
        "02::00:00:01:01",
        "02.00.00.00.01.01",
        "02:00:00:00:01:0g",
        "\u0660\u0662:00:00:00:01:01",  # Arabic-Indic digits
        "\uff10\uff12:00:00:00:01:01",  # fullwidth digits
    ]:
        with pytest.raises(ValueError):
            parse_mac(text)


def _with_ihl(data: bytes, words: int) -> bytes:
    """An untagged IPv4 frame with its header length field set to `words`."""
    return data[:14] + bytes([0x40 | words]) + data[15:]


# One frame per layer flag, with what its row holds: the header flags it sets, its
# entropy, TCP payload length and TCP window, and its (src_port, dst_port).
_LAYER_ROWS = {
    "arp": (eth(0x0806, _arp_body(6, 4)), {"arp"}, 0.570763617479685, 0, 0, (-1, -1)),
    "eapol": (eth(0x888E, b"\x01\x00\x00\x04abcd"), {"eapol"}, 0.34375, 0, 0, (-1, -1)),
    "ipv4-tcp": (
        eth(0x0800, ipv4(6, tcp(51000, 80, b"GET / HTTP/1.1"))),
        {"ip", "tcp", "http"}, 0.37989358398788386, 14, 8192, (51000, 80),
    ),
    "ipv4-udp": (
        eth(0x0800, ipv4(17, udp(5353, 5353, b"q" * 30))),
        {"ip", "udp", "mdns"}, 0.0, 0, 0, (5353, 5353),
    ),
    "ipv4-icmp": (eth(0x0800, ipv4(1, b"\x08\x00\x00\x00rest")), {"ip", "icmp"}, 0.25, 0, 0, (-1, -1)),
    "ipv4-padding": (
        eth(0x0800, ipv4(6, tcp(40000, 443, b"xy", window=512), options=b"\x01\x01\x01\x00")),
        {"ip", "tcp", "https", "ip_padding"}, 0.125, 2, 512, (40000, 443),
    ),
    "ipv4-router-alert": (
        eth(0x0800, ipv4(17, udp(68, 67, b"abcd"), options=b"\x94\x04\x00\x00")),
        {"ip", "udp", "dhcp", "bootp", "ip_router_alert"}, 0.25, 0, 0, (68, 67),
    ),
    "ipv4-ihl-4": (
        _with_ihl(eth(0x0800, ipv4(6, tcp(51000, 80, b"abcd"))), 4), {"ip"}, 0.0, 0, 0, (-1, -1),
    ),
    "ipv6-icmpv6": (
        eth(0x86DD, ipv6(58, b"\x80\x00\x00\x00ping")), {"ip", "icmpv6"}, 0.25, 0, 0, (-1, -1),
    ),
    "ipv6-router-alert": (
        eth(0x86DD, ipv6(0, tcp(49152, 443, b"tls"), ext=bytes([6, 0, 5, 2, 0, 0, 1, 0]))),
        {"ip", "tcp", "https", "ip_router_alert"}, 0.1981203125901445, 3, 8192, (49152, 443),
    ),
    "unknown-ethertype": (eth(0x1234, b"opaque-bytes"), set(), 0.4272869792568112, 0, 0, (-1, -1)),
}  # fmt: skip


def test_one_frame_per_layer_gives_its_pinned_row(tmp_path):
    """Each frame's exact 20-value row and port pair, both through
    `read_rows` and through `extract_features` of `parse_frame`; between
    them the frames set every layer flag."""
    table = list(_LAYER_ROWS.values())
    want = np.array(
        [[float(n in on) for n in HEADER_FLAG_NAMES] + [e, n, w] for _, on, e, n, w, _ in table]
    )
    want_ports = [list(ports) for *_, ports in table]
    path = tmp_path / "layers.pcap"
    write_capture(path, [frame(data) for data, *_ in table])
    rows, ports, skipped = read_rows(path)
    assert (rows.tobytes(), ports.tolist(), skipped) == (want.tobytes(), want_ports, 0)
    packets = [parse_frame(frame(data)) for data, *_ in table]
    assert extract_features(packets).tobytes() == want.tobytes()
    pairs = [[-1, -1] if p.src_port is None else [p.src_port, p.dst_port] for p in packets]
    assert pairs == want_ports
    assert set(features._PACKET_FLAGS) <= set().union(*(on for _, on, *_ in table))
