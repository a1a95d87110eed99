"""Per-packet feature vectors and the fingerprint layout built from them.

A packet maps to 17 binary header flags + 3 payload values. The flag
order below is frozen; fingerprints concatenate these vectors, so the
order is part of the on-disk data contract (FEATURE_SCHEMA). A
fingerprint is 5 consecutive packets' vectors (100 values), and a
feature variant is the subset of those columns a model reads.

Rows come two ways with identical bits: `extract_features` from parsed
packets, and `frame_features` straight from a capture's bytes, frame
kind for frame kind as `packet_model.parse_frame` decodes them, within
its bounds on IPv6 extension headers and hop-by-hop options (so each
masked loop runs a constant number of rounds at most), and skipping the
frames it rejects. Both gather each packet's layer flags, ports, TCP
window and payload, and one builder, `_rows`, fills the 20 columns from
them: this module alone decides which column a layer sets, including
the application flags that well-known ports stand for (`_APP_PORTS`).
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .packet_model import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    IPPROTO_ICMP,
    IPPROTO_ICMPV6,
    IPPROTO_TCP,
    IPPROTO_UDP,
    MAX_EXTENSION_HEADERS,
    MAX_HOP_BY_HOP_OPTIONS,
    ParsedPacket,
)

FEATURE_SCHEMA = "packet-features/4"

HEADER_FLAG_NAMES = (
    "arp",
    "ip",
    "icmp",
    "icmpv6",
    "eapol",
    "tcp",
    "udp",
    "http",
    "https",
    "dhcp",
    "bootp",
    "ssdp",
    "dns",
    "mdns",
    "ntp",
    "ip_padding",
    "ip_router_alert",
)
FEATURE_NAMES = HEADER_FLAG_NAMES + ("entropy", "tcp_payload_length", "tcp_window_size")

HEADER_FLAG_COUNT = len(HEADER_FLAG_NAMES)  # 17
PACKET_FEATURE_COUNT = len(FEATURE_NAMES)  # 20
ENTROPY_INDEX = FEATURE_NAMES.index("entropy")
PAYLOAD_FEATURE_INDICES = (17, 18, 19)

FINGERPRINT_PACKETS = 5
FINGERPRINT_DIM = FINGERPRINT_PACKETS * PACKET_FEATURE_COUNT  # 100
VARIANT_TAGS = {20: "20-features", 19: "19-no-entropy", 3: "3-payload-only"}

_DHCP = ("dhcp", "bootp")  # DHCP is carried in BOOTP framing, so its ports set both flags
# transport flag -> well-known port -> the application flags a packet to or from it sets
_APP_PORTS = {
    "tcp": {80: ("http",), 443: ("https",), 53: ("dns",)},
    "udp": {67: _DHCP, 68: _DHCP, 53: ("dns",), 123: ("ntp",), 1900: ("ssdp",), 5353: ("mdns",)},
}


def variant_columns(variant: int) -> list:
    """Column indices of the 100-wide fingerprint for a feature variant.

    20 keeps everything; 19 drops the five per-packet entropy positions;
    3 keeps only entropy, TCP payload length, and TCP window size.
    """
    if variant == 20:
        per_packet = range(PACKET_FEATURE_COUNT)
    elif variant == 19:
        per_packet = [i for i in range(PACKET_FEATURE_COUNT) if i != ENTROPY_INDEX]
    elif variant == 3:
        per_packet = list(PAYLOAD_FEATURE_INDICES)
    else:
        raise ValueError(f"unknown feature variant {variant}; pick 20, 19 or 3")
    return [
        packet * PACKET_FEATURE_COUNT + i
        for packet in range(FINGERPRINT_PACKETS)
        for i in per_packet
    ]


# Payloads per entropy block. A block also holds at most ENTROPY_CHUNK * 256 payload
# bytes (or one longer payload), so its temporaries stay the size of its count matrix.
ENTROPY_CHUNK = 512


def shannon_entropy(payloads: Sequence[bytes]) -> np.ndarray:
    """Byte-value Shannon entropy of each payload, normalized to [0, 1].

    Computes -sum(p_i * log_256(p_i)), p_i = count(i) / m, as (log2(m) - S / m) / 8
    with S the sum of t * log2(t) over all 256 byte counts t (0 at t = 0), added in
    one fixed order as a row of a row-wise sum. The constant-payload (0.0) and
    uniform-256 (1.0) cases come out exact; an empty payload gives 0.
    """
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    ends = np.cumsum(lengths)
    sums = np.zeros(len(payloads))
    start = 0
    while start < len(payloads):
        fits = np.searchsorted(ends, ends[start] - lengths[start] + ENTROPY_CHUNK * 256, "right")
        stop = min(start + ENTROPY_CHUNK, max(start + 1, int(fits)))
        data = np.frombuffer(b"".join(payloads[start:stop]), dtype=np.uint8)
        keys = np.repeat(np.arange(stop - start) * 256, lengths[start:stop]) + data
        counts = np.bincount(keys, minlength=(stop - start) * 256).reshape(-1, 256)
        t = np.arange(counts.max() + 1.0)  # a table of t * log2(t), no longer than `keys`
        sums[start:stop] = (t * np.log2(np.maximum(t, 1.0)))[counts].sum(axis=1)
        start = stop
    m = np.maximum(lengths, 1)  # an empty payload's sum is 0, so it scores log2(1) - 0
    log2 = {k: float(np.log2(float(k))) for k in set(m.tolist())}
    return (np.array([log2[k] for k in m.tolist()]) - sums / m) / 8.0


def _rows(flags: dict, ports: np.ndarray, window, payloads: Sequence[bytes]) -> np.ndarray:
    """The (n, 20) rows of n packets from their layers: `flags` maps layer flag
    names (with "tcp" and "udp") to n booleans, and a name it leaves out is 0.
    The (n, 2) ports are read on TCP and UDP rows, the window on TCP rows."""
    rows = np.zeros((len(payloads), PACKET_FEATURE_COUNT))
    column = FEATURE_NAMES.index
    for name, on in flags.items():
        rows[:, column(name)] = on
    for transport, apps_at in _APP_PORTS.items():
        for port, apps in apps_at.items():
            on = flags[transport] & (ports == port).any(axis=1)
            for app in apps:
                rows[on, column(app)] = 1.0
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    rows[:, column("tcp_payload_length")] = np.where(flags["tcp"], lengths, 0)
    rows[:, column("tcp_window_size")] = np.where(flags["tcp"], window, 0)
    rows[:, ENTROPY_INDEX] = shannon_entropy(payloads)
    return rows


# The layer flags, named as `ParsedPacket.layers` names them: all but the application
# flags, which `_rows` sets from the ports.
_PACKET_FLAGS = HEADER_FLAG_NAMES[:7] + HEADER_FLAG_NAMES[-2:]


def extract_features(packets: Sequence[ParsedPacket]) -> np.ndarray:
    """The (n, 20) float64 matrix of n parsed packets, rows in FEATURE_NAMES order.

    TCP payload length and window are 0 off TCP."""
    flags = {name: np.array([name in p.layers for p in packets], bool) for name in _PACKET_FLAGS}
    # A port is None off TCP and UDP, where `_rows` reads no port.
    ports = np.array([(p.src_port or 0, p.dst_port or 0) for p in packets], np.int64)
    window = np.array([p.tcp_window_size or 0 for p in packets], np.int64)
    return _rows(flags, ports.reshape(-1, 2), window, [p.payload for p in packets])


def frame_features(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Feature rows read straight from the bytes of n Ethernet frames, each
    decoded as `parse_frame` decodes it.

    Frame i is `data[starts[i] : starts[i] + lengths[i]]`. Past the Ethernet
    header and at most one 802.1Q tag, an IPv4 header and its options, or an
    IPv6 header and up to 8 extension headers, is walked to where the
    transport header starts and the datagram ends, and TCP, UDP or the ICMP
    of that IP version is decoded there; any other bytes stay opaque.
    Returns (skipped, rows, ports, ip_at, ip_width): the mask of the frames
    `parse_frame` rejects; an (n, 20) matrix whose other rows are the rows
    `extract_features` gives `parse_frame`'s packets, and whose skipped rows
    are 0; each frame's (src_port, dst_port), -1 where it has none; and where
    in `data` a frame's source IP address starts, with its destination
    address right after it, and their width: 4 or 16 bytes, 0 where it has none.
    """
    raw = np.frombuffer(data, dtype=np.uint8)

    def u8(at):
        # A read past the frame only feeds a masked-out value; one past `data` is clipped.
        return raw.take(starts + at, mode="clip").astype(np.int64)

    def u16(at):
        return u8(at) << 8 | u8(at + 1)

    outer = u16(12)
    vlan = outer == ETHERTYPE_VLAN
    off = np.where(vlan, 18, 14)  # Ethernet header, and the tag if there is one
    ether_type = np.where(vlan, u16(16), outer)
    arp, eapol = ether_type == ETHERTYPE_ARP, ether_type == ETHERTYPE_EAPOL
    ipv4, ipv6 = ether_type == ETHERTYPE_IPV4, ether_type == ETHERTYPE_IPV6
    ihl = (u8(off) & 0x0F) * 4
    ihl *= ihl >= 20  # an invalid header length locates no payload
    start = off + np.where(ipv4, ihl, 40 * ipv6)  # past the IP header; IPv6 walks on below
    skipped = np.maximum(start, (off + 20) * ipv4) > lengths  # IPv4 reads 20 bytes at least
    # Link padding is dropped: a packet ends at its ARP 8 + 2 * hlen + 2 * plen (RFC 826),
    # EAPoL 4 + body length, IPv4 total length or IPv6 40 + payload length, other kinds at
    # the frame's end. ARP and EAPoL pass the end of a frame that cuts their length fields.
    word2, word4 = u16(off + 2), u16(off + 4)
    stated = np.where(ipv6, 40 + word4, np.where(eapol, 4 + word2, lengths))
    stated = np.where(arp, 8 + 2 * ((word4 >> 8) + (word4 & 0xFF)), stated)
    end = np.minimum(lengths, off + np.where(ipv4, np.maximum(word2, ihl) * (ihl > 0), stated))
    # The protocol (IPv6: next header) at `start`, or -1 in a non-first IPv4 fragment.
    # No transport header fits past an invalid IPv4 header length, as `end == start`.
    carries = ipv4 & ((u16(off + 6) & 0x1FFF) == 0)
    proto = np.where(carries, u8(off + 9), np.where(ipv6, u8(off + 6), -1))
    padding, alert = np.zeros(len(starts), bool), np.zeros(len(starts), bool)
    (opt,) = (ipv4 & (ihl > 20) & ~skipped).nonzero()
    _mark_ipv4_options(raw, opt, (starts + off + 20)[opt], (starts + start)[opt], padding, alert)
    for _ in range(MAX_EXTENSION_HEADERS):
        # Hop-by-hop options (0), routing (43), destination options (60) or a fragment (44).
        ext = ipv6 & ~skipped & ((proto == 0) | (proto == 43) | (proto == 60) | (proto == 44))
        if not ext.any():
            break
        # Its stated length, or 2 bytes where the datagram ends before the length byte.
        size = np.where(proto == 44, 8, np.where(start + 2 <= end, (u8(start + 1) + 1) * 8, 2))
        skipped |= ext & (start + size > lengths)
        whole = ext & ~skipped & (start + size <= end)  # else the datagram ends inside it
        (hop,) = (whole & (proto == 0)).nonzero()
        pos = starts + start
        _mark_router_alerts(raw, hop, pos[hop] + 2, (pos + size)[hop], alert)
        later = whole & (proto == 44) & (u16(start + 2) >> 3 > 0)  # a non-first fragment
        proto = np.where(whole & ~later, u8(start), np.where(ext & ~skipped, -1, proto))
        start = np.where(whole, start + size, np.where(ext, end, start))
    tcp, udp = proto == IPPROTO_TCP, proto == IPPROTO_UDP
    icmp, icmpv6 = ipv4 & (proto == IPPROTO_ICMP), ipv6 & (proto == IPPROTO_ICMPV6)
    size = 20 * tcp + 8 * udp + 4 * (icmp | icmpv6)  # the minimal header, 0 for none
    skipped |= start + size > lengths
    fits = start + size <= end  # else the transport stays opaque
    data_offset = (u8(start + 12) >> 4) * 4
    tcp &= fits & (data_offset >= 20)  # a bogus data offset leaves the segment opaque
    skipped |= tcp & (start + data_offset > lengths)
    tcp &= start + data_offset <= end
    udp, icmp, icmpv6 = udp & fits, icmp & fits, icmpv6 & fits

    first = start + np.where(tcp, data_offset, size * (udp | icmp | icmpv6))
    last = np.where(udp, np.minimum(end, start + np.maximum(u16(start + 4), 8)), end)
    (at,) = (~skipped).nonzero()
    bounds = zip((starts + first)[at].tolist(), (starts + last)[at].tolist())
    payloads = [data[a:b] for a, b in bounds]
    ports = np.where((tcp | udp)[:, None], np.column_stack([u16(start), u16(start + 2)]), -1)
    flags = {"arp": arp, "ip": ipv4 | ipv6, "icmp": icmp, "icmpv6": icmpv6, "eapol": eapol}
    flags |= {"tcp": tcp, "udp": udp, "ip_padding": padding, "ip_router_alert": alert}
    rows = np.zeros((len(starts), PACKET_FEATURE_COUNT))
    window = u16(start + 14)
    rows[at] = _rows({k: on[at] for k, on in flags.items()}, ports[at], window[at], payloads)
    ip_width = np.where(skipped, 0, 4 * (ipv4 & (ihl > 0)) + 16 * ipv6)
    return skipped, rows, ports, starts + off + np.where(ipv6, 8, 12), ip_width


def _mark_ipv4_options(raw, which, at, stop, padding, alert) -> None:
    """Mark the frames `which` whose IPv4 option bytes `raw[at:stop]` hold
    an End of Option List or No Operation in `padding` and a router alert
    in `alert`, one option per step as `parse_frame` reads them."""
    while len(which):
        kind, size = raw[at], raw.take(at + 1, mode="clip")
        padding[which[kind <= 1]] = True
        alert[which[kind == 148]] = True
        # End of Option List ends the scan, and so does a length under 2. A length read
        # past `stop` ends it too, as `at + size` passes `stop`.
        go = (kind == 1) | (kind > 1) & (size >= 2)
        at = np.where(kind <= 1, at + 1, at + size)
        go &= at < stop
        which, at, stop = which[go], at[go], stop[go]


def _mark_router_alerts(raw, which, at, stop, alert) -> None:
    """Mark in `alert` the frames `which` whose IPv6 hop-by-hop option bytes
    `raw[at:stop]` hold a router alert in their first 8 options, one per step."""
    for _ in range(MAX_HOP_BY_HOP_OPTIONS):
        if not len(which):
            break
        kind, size = raw[at], raw.take(at + 1, mode="clip")
        alert[which[(kind == 5) & (at + 1 < stop)]] = True  # with its length byte
        # An option in the last byte, with no length, steps past `stop`.
        at = np.where(kind == 0, at + 1, at + 2 + size)
        go = (kind != 5) & (at < stop)
        which, at, stop = which[go], at[go], stop[go]


def ecdf(values: Sequence[float]) -> list:
    """Empirical CDF as sorted (value, P(X <= value)) pairs."""
    if len(values) == 0:
        raise ValueError("ecdf needs at least one value")
    arr = np.asarray(values, dtype=np.float64)
    distinct, counts = np.unique(arr, return_counts=True)
    probs = np.cumsum(counts) / arr.size
    return list(zip(distinct.tolist(), probs.tolist()))


# One CSV row: the flags and the two counts as integers, the entropy at repr precision.
_CSV_ROW = ",".join(["%d"] * HEADER_FLAG_COUNT + ["%r", "%d", "%d"]) + "\n"
CSV_BLOCK_ROWS = 1024  # rows per write; `write_features_csv` holds one block's text


def write_features_csv(features: np.ndarray, out: TextIO) -> None:
    """Write a CSV with a schema header line, one row per packet, repr-precision floats."""
    out.write(f"# schema: {FEATURE_SCHEMA}\n")
    out.write(",".join(FEATURE_NAMES) + "\n")
    for start in range(0, len(features), CSV_BLOCK_ROWS):
        block = features[start : start + CSV_BLOCK_ROWS]
        values = block.astype(np.int64).astype(object)  # small ints are shared, not allocated
        values[:, ENTROPY_INDEX] = block[:, ENTROPY_INDEX].tolist()
        out.write((_CSV_ROW * len(block)) % tuple(values.ravel()))
