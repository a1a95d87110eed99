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


SRC_IP, DST_IP = bytes([10, 0, 0, 2]), bytes([10, 0, 0, 3])


def ipv4(proto, body, src=SRC_IP, dst=DST_IP, options=b"", frag=0):
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
        src,
        dst,
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
    assert pkt.src_ip == SRC_IP
    assert (pkt.src_mac, pkt.dst_mac) == (DEV_MAC, PEER_MAC)


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
    assert (pkt.src_ip, pkt.dst_ip) == (b"\x20" * 16, b"\x30" * 16)


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
    pkt = parse_frame(frame(eth(0x0800, ipv4(1, b"\x08\x00\x00\x00rest") + bytes(18))))
    assert pkt.layers == {"ip", "icmp"}
    assert pkt.payload == b"rest"


@pytest.mark.parametrize(
    "data,cut",
    [
        (eth(0x0800, ipv4(58, b"\x80\x00\x00\x00ping")), 0),
        (eth(0x0800, ipv4(58, b"\x80\x00\x00\x00")), 2),
        (eth(0x86DD, ipv6(1, b"\x08\x00\x00\x00ping")), 0),
        (eth(0x86DD, ipv6(1, b"\x08\x00\x00\x00")), 2),
    ],
    ids=["ipv4-protocol-58", "ipv4-protocol-58-cut", "ipv6-next-header-1", "ipv6-next-header-1-cut"],
)
def test_icmp_is_read_per_ip_version(data, cut):
    """RFC 792 and RFC 4443 define ICMP per IP version, so IPv4 protocol 58
    and IPv6 next header 1 are unknown transports: no ICMP flag, no ports,
    and every captured byte after the IP header as the payload, even where
    the capture cuts what would be an ICMP header."""
    data = data[: len(data) - cut]
    pkt = parse_frame(frame(data))
    header = 20 if data[12:14] == b"\x08\x00" else 40
    assert (pkt.layers, pkt.src_port, pkt.dst_port) == ({"ip"}, None, None)
    assert pkt.payload == data[14 + header :]
    row = extract_features([pkt])[0]
    assert row[[FEATURE_NAMES.index("icmp"), FEATURE_NAMES.index("icmpv6")]].tolist() == [0, 0]


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
    (0x0806, "arp", _arp_body(2, 3)),  # odd lengths, each in its own byte
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
    skipped, rows, _, _, _ = frame_features(b"".join(f.data for f in frames), starts, lengths)
    assert not skipped.any()
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


_PROTOCOLS = st.sampled_from([0, 1, 6, 17, 43, 44, 58, 60]) | st.integers(0, 255)


@st.composite
def _ip_frames(draw):
    """A frame under the IPv4 or IPv6 EtherType, with or without one 802.1Q
    tag: an IP header of random fields and drawn protocol (its length field
    true or random), random bytes after it, and maybe a cut at the end."""
    tag = draw(st.sampled_from([b"", struct.pack("!HH", 0x8100, 5)]))
    rest = draw(st.binary(min_size=24, max_size=120) | st.binary(max_size=24))
    length = draw(st.none() | st.integers(0, 0xFFFF))
    if draw(st.booleans()):
        ether_type, words = 0x0800, draw(st.integers(5, 15) | st.integers(0, 4))
        size = max(0, 4 * words - 20)
        options = draw(st.binary(min_size=size, max_size=size))
        fragment = draw(st.sampled_from([0, 0x2000, 0x4000]) | st.integers(0, 0xFFFF))
        total = 20 + len(options) + len(rest) if length is None else length
        fields = (0x40 | words, 0, total, 0, fragment, 64, draw(_PROTOCOLS), 0)
        header = struct.pack("!BBHHHBBH", *fields) + bytes(8) + options
    else:
        ether_type, total = 0x86DD, len(rest) if length is None else length
        header = struct.pack("!IHBB", 6 << 28, total, draw(_PROTOCOLS), 64) + bytes(32)
    data = PEER_MAC + DEV_MAC + tag + struct.pack("!H", ether_type) + header + rest
    return data[: len(data) - draw(st.just(0) | st.integers(0, len(data) - 14))]


@settings(max_examples=400, deadline=None)
@given(data=st.binary(min_size=14, max_size=300) | _ip_frames())
def test_parse_total_over_frames(data):
    # Any frame either parses (invariants enforced by the dataclass) or
    # raises one of the two declared skip-and-count errors.
    try:
        pkt = parse_frame(frame(data))
    except (FrameTooShort, TruncatedHeader):
        return
    assert pkt.layers <= set(features._PACKET_FLAGS)
    ether_type = data[16:18] if data[12:14] == b"\x81\x00" else data[12:14]
    assert "icmp" not in pkt.layers or ether_type == b"\x08\x00"
    assert "icmpv6" not in pkt.layers or ether_type == b"\x86\xdd"
    assert pkt.payload in data  # a contiguous slice of the frame
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


def _outcome(data: bytes) -> tuple:
    """`parse_frame`'s (layers, ports, window, payload) of a frame, or the
    (type, message) of the skip signal it raises."""
    try:
        pkt = parse_frame(frame(data))
    except (FrameTooShort, TruncatedHeader) as exc:
        return type(exc), str(exc)
    return pkt.layers, (pkt.src_port, pkt.dst_port), pkt.tcp_window_size, pkt.payload


def _cut_short(message: str) -> tuple:
    return TruncatedHeader, f"{message} cut short"


def _with_length(data: bytes, at: int, length: int) -> bytes:
    """`data` with the 16-bit length field at byte `at` set to `length`."""
    return data[:at] + struct.pack("!H", length) + data[at + 2 :]


# Hop-by-hop router alert (bytes 54-62), a first fragment with more to come
# (62-70), and a TCP header with 4 option bytes (70-94) before 6 payload bytes.
_IPV6_CHAIN = eth(
    0x86DD,
    ipv6(
        0,
        struct.pack("!HHIIBBHHH", 40000, 443, 0, 0, 6 << 4, 0x18, 512, 0, 0) + bytes(4) + b"abcdef",
        ext=bytes([44, 0, 5, 2, 0, 0, 1, 0]) + struct.pack("!BBHI", 6, 0, 1, 77),
    ),
)
_CHAIN_TCP = {"ip", "ip_router_alert", "tcp"}


def test_every_cut_of_an_ipv6_extension_chain():
    """A capture cut inside a header raises for that header; a datagram
    whose payload length ends inside a header leaves it opaque: an
    extension header with no payload, a TCP header with its bytes."""
    for cut in range(len(_IPV6_CHAIN) + 1):
        if cut < 14:
            want = (FrameTooShort, f"{cut} bytes; need 14 for an Ethernet header")
        elif cut < 94:
            bounds = [(54, "IPv6 header"), (62, "IPv6 extension header"), (70, "IPv6 fragment header")]
            bounds += [(90, "TCP header"), (94, "TCP options")]
            want = _cut_short(next(name for bound, name in bounds if cut < bound))
        else:
            want = (_CHAIN_TCP, (40000, 443), 512, _IPV6_CHAIN[94:cut])
        assert _outcome(_IPV6_CHAIN[:cut]) == want, cut
    padded = _IPV6_CHAIN + bytes(range(1, 21))
    for length in range(len(_IPV6_CHAIN) - 54 + 1):
        end = 54 + length
        if length < 8:
            want = ({"ip"}, (None, None), None, b"")
        elif length < 16:
            want = ({"ip", "ip_router_alert"}, (None, None), None, b"")
        elif length < 40:
            want = ({"ip", "ip_router_alert"}, (None, None), None, padded[70:end])
        else:
            want = (_CHAIN_TCP, (40000, 443), 512, padded[94:end])
        assert _outcome(_with_length(padded, 18, length)) == want, length
    # A datagram that ends before the hop-by-hop length byte, in a capture that holds it.
    for length in (0, 1):
        want = ({"ip"}, (None, None), None, b"")
        assert _outcome(_with_length(_IPV6_CHAIN, 18, length)[:56]) == want, length


# An 802.1Q-tagged IPv4 frame: Ethernet and tag (bytes 0-18), an IPv4 header
# with a router alert option (18-42), a UDP header (42-50) and 6 payload bytes.
_TAGGED_IPV4 = eth(
    0x8100,
    struct.pack("!HH", 9, 0x0800) + ipv4(17, udp(68, 67, b"abcdef"), options=b"\x94\x04\x00\x00"),
)


def test_every_cut_of_a_tagged_ipv4_frame():
    """As for IPv6: a cut capture raises for the header it cuts, and a total
    length that ends the datagram inside the UDP header leaves it opaque."""
    alert = {"ip", "ip_router_alert"}
    for cut in range(len(_TAGGED_IPV4) + 1):
        if cut < 14:
            want = (FrameTooShort, f"{cut} bytes; need 14 for an Ethernet header")
        elif cut < 50:
            bounds = [(18, "802.1Q tag"), (38, "IPv4 header"), (42, "IPv4 options"), (50, "UDP header")]
            want = _cut_short(next(name for bound, name in bounds if cut < bound))
        else:
            want = (alert | {"udp"}, (68, 67), None, _TAGGED_IPV4[50:cut])
        assert _outcome(_TAGGED_IPV4[:cut]) == want, cut
    padded = _TAGGED_IPV4 + bytes(range(1, 21))
    for total in range(len(_TAGGED_IPV4) - 18 + 1):
        end = 18 + max(total, 24)  # a total length under the header's does not cut it
        if total < 32:
            want = (alert, (None, None), None, padded[42:end])
        else:
            want = (alert | {"udp"}, (68, 67), None, padded[50:end])
        assert _outcome(_with_length(padded, 20, total)) == want, total


@pytest.mark.parametrize("udp_length", [0, 7, 8, 9, 13, 14, 15, 300])
def test_udp_length_bounds_the_payload(udp_length):
    """The UDP length cuts the payload short, never under the 8-byte header
    and never past the datagram."""
    data = _with_length(eth(0x0800, ipv4(17, udp(5000, 5001, b"abcdef"))), 38, udp_length)
    assert _outcome(data)[3] == b"abcdef"[: max(0, min(6, udp_length - 8))]


@pytest.mark.parametrize(
    "fragment,decoded",
    [(0x0000, True), (0x4000, True), (0x2000, True), (0x0001, False), (0x1000, False), (0x3FFF, False)],
    ids=["whole", "dont-fragment", "first-of-more", "offset-1", "offset-4096", "offset-max"],
)
def test_only_a_first_ipv4_fragment_carries_a_transport(fragment, decoded):
    segment = udp(1, 2, b"zz")
    layers, ports, _, payload = _outcome(eth(0x0800, ipv4(17, segment, frag=fragment)))
    assert (layers, ports, payload) == (
        ({"ip", "udp"}, (1, 2), b"zz") if decoded else ({"ip"}, (None, None), segment)
    )


@pytest.mark.parametrize(
    "field,decoded",
    [(0, True), (1, True), (6, True), (7, True), (8, False), (1 << 15, False), (0xFFF9, False)],
    ids=["whole", "more", "reserved", "more-and-reserved", "offset-1", "offset-4096", "offset-max"],
)
def test_only_a_first_ipv6_fragment_carries_a_transport(field, decoded):
    segment = udp(1, 2, b"zz")
    ext = struct.pack("!BBHI", 17, 0, field, 5)
    layers, ports, _, payload = _outcome(eth(0x86DD, ipv6(44, segment, ext=ext)))
    assert (layers, ports, payload) == (
        ({"ip", "udp"}, (1, 2), b"zz") if decoded else ({"ip"}, (None, None), segment)
    )


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9])
def test_ipv6_walks_at_most_eight_extension_headers(count):
    """Routing and destination-options headers are walked like hop-by-hop
    ones, at their stated length (the first here is 16 bytes); after eight
    the walk stops, and the rest of the datagram is opaque."""
    kinds = [43, 60, 0, 43, 60, 0, 43, 60, 0][:count]
    chain = [bytes([kind, 1]) + bytes(14) if i == 0 else bytes([kind, 0]) + bytes(6)
             for i, kind in enumerate(kinds[1:] + [17])]  # fmt: skip
    segment = udp(7, 8, b"payload")
    data = eth(0x86DD, ipv6(kinds[0], segment, ext=b"".join(chain)))
    layers, ports, _, payload = _outcome(data)
    if count <= 8:
        assert (layers, ports, payload) == ({"ip", "udp"}, (7, 8), b"payload")
    else:
        assert (layers, ports, payload) == ({"ip"}, (None, None), chain[-1] + segment)


@pytest.mark.parametrize(
    "options,alert",
    [
        (bytes([5, 2, 0, 0, 1, 0]), True),
        (bytes([0, 0, 5, 2, 0, 0]), True),  # two Pad1 first
        (bytes([1, 2, 5, 2, 1, 0]), False),  # a PadN whose data holds a 5
        (bytes([0xC2, 2, 5, 2, 1, 0]), False),  # another option holding a 5
        (bytes([0xC2, 0, 5, 2, 0, 0]), True),  # the alert after an empty option
        (bytes([1, 1, 0, 0, 0, 5]), False),  # a 5 with no length byte after it
        (bytes([1, 3, 0, 0, 0, 5]), False),  # an option past the header's end
        (bytes([0, 5, 2, 0, 0, 0]), True),  # one Pad1 first
        (bytes([1, 2, 0, 0, 5, 0]), True),  # the alert in the last two bytes
        (bytes([0xC2, 1, 5, 1, 0, 0]), False),
        (bytes([1, 4, 0, 5, 2, 0, 1, 6]) + bytes(6), False),  # a 16-byte header
    ],
)
def test_hop_by_hop_router_alert_is_found_between_options(options, alert):
    ext = bytes([17, len(options) // 8]) + options
    data = eth(0x86DD, ipv6(0, udp(1, 2, b""), ext=ext))
    assert _outcome(data)[0] == {"ip", "udp"} | ({"ip_router_alert"} if alert else set())


@pytest.mark.parametrize(
    "options,flags",
    [
        (b"\x01\x94\x04\x00", {"ip_padding", "ip_router_alert"}),
        (b"\x00\x94\x04\x00", {"ip_padding"}),  # nothing after End of Option List is read
        (b"\x07\x03\x94\x00", {"ip_padding"}),  # a 148 inside another option
        (b"\x07\x04\x00\x94", set()),
        (b"\x01\x01\x01\x94", {"ip_padding", "ip_router_alert"}),  # an alert with no length byte
        (b"\x02\x04\x00\x00", set()),
        (b"\x07\x00\x01\x00", set()),  # a length of 0 ends the scan
        (b"\x19\x02\x01\x00", {"ip_padding"}),  # an option of length 2 is skipped
        (b"\x83\x03\x00\x94\x04\x00\x00\x00", {"ip_router_alert", "ip_padding"}),
    ],
)
def test_ipv4_options_are_scanned_at_their_lengths(options, flags):
    data = eth(0x0800, ipv4(6, tcp(1, 2, b""), options=options))
    assert _outcome(data)[0] == {"ip", "tcp"} | flags


def test_a_bogus_ihl_or_tcp_data_offset_leaves_the_packet_opaque():
    """An IPv4 header length under 20 bytes locates nothing, not even the
    addresses; a TCP data offset under 20 bytes leaves the segment opaque."""
    pkt = parse_frame(frame(_with_ihl(eth(0x0800, ipv4(6, tcp(1, 2, b"ab"))), 4)))
    assert (pkt.layers, pkt.src_port, pkt.payload, pkt.src_ip, pkt.dst_ip) == ({"ip"}, None, b"", None, None)
    segment = tcp(1, 2, b"ab")
    segment = segment[:12] + bytes([4 << 4]) + segment[13:]
    pkt = parse_frame(frame(eth(0x0800, ipv4(6, segment))))
    assert (pkt.layers, pkt.src_port, pkt.tcp_window_size, pkt.payload) == ({"ip"}, None, None, segment)
    assert (pkt.src_ip, pkt.dst_ip) == (SRC_IP, DST_IP)


@pytest.mark.parametrize(
    "data", [eth(0x0800, ipv4(1, b"\x08\x00")), eth(0x86DD, ipv6(58, b"\x80\x00"))], ids=["icmp", "icmpv6"]
)
def test_a_capture_that_cuts_an_icmp_header_names_it(data):
    assert _outcome(data) == _cut_short("ICMP header")
