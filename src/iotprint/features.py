"""Per-packet feature vectors and the fingerprint layout built from them.

A packet maps to 17 binary header flags + 3 payload values. The flag
order below is frozen; fingerprints concatenate these vectors, so the
order is part of the on-disk data contract (FEATURE_SCHEMA). A
fingerprint is 5 consecutive packets' vectors (100 values), and a
feature variant is the subset of those columns a model reads.

Rows come two ways with identical bits: `extract_features` from parsed
packets, and `frame_features` straight from a capture's bytes for the
frame kinds that make up nearly all device traffic (ARP, EAPoL, and
IPv4 without options carrying TCP, UDP or ICMP). Both gather each
packet's layer flags, ports, TCP window and payload, and one builder,
`_rows`, fills the 20 columns from them: this module alone decides
which column a layer sets, including the application flags that
well-known TCP and UDP ports stand for (`_APP_PORTS`).
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .packet_model import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    ParsedPacket,
)

FEATURE_SCHEMA = "packet-features/3"

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
    """Feature rows read straight from the bytes of n Ethernet frames, for
    the frames whose layers `parse_frame` decodes without a special case.

    Frame i is `data[starts[i] : starts[i] + lengths[i]]`. Under at most
    one 802.1Q tag, a frame is decoded here when it is ARP, EAPoL, or IPv4
    with a 20-byte header, not a non-first fragment, whose TCP, UDP or
    ICMP header lies within the datagram. Returns (decoded, rows, ports,
    hosts): the mask of those frames; an (n, 20) matrix whose decoded rows
    are the rows `extract_features` gives `parse_frame`'s packets, and
    whose other rows are 0; and each frame's (src_port, dst_port) and IPv4
    (src, dst) addresses as integers, -1 where it has none or was not
    decoded.
    """
    raw = np.frombuffer(data, dtype=np.uint8)

    def u8(at):
        # A read past the frame only feeds a masked-out row; one past `data` is clipped.
        return raw.take(starts + at, mode="clip").astype(np.int64)

    def u16(at):
        return u8(at) << 8 | u8(at + 1)

    outer = u16(12)
    vlan = (lengths >= 18) & (outer == ETHERTYPE_VLAN)
    off = np.where(vlan, 18, 14)  # Ethernet header, and the tag if there is one
    ether_type = np.where(vlan, u16(16), outer)
    arp = (lengths >= 14) & (ether_type == ETHERTYPE_ARP)
    eapol = (lengths >= 14) & (ether_type == ETHERTYPE_EAPOL)
    ihl, fragment = u8(off) & 0x0F, u16(off + 6) & 0x1FFF
    ipv4 = (ether_type == ETHERTYPE_IPV4) & (ihl == 5) & (fragment == 0)
    # Link padding is dropped: a packet ends at its ARP 8 + 2 * hlen + 2 * plen (RFC 826),
    # EAPoL 4 + body length or IPv4 total length. The first two pass the end of a frame
    # that cuts their fields, and a total length under 20 leaves no transport here.
    length = np.where(arp, 8 + 2 * (u8(off + 4) + u8(off + 5)), u16(off + 2) + 4 * eapol)
    end = np.minimum(lengths, off + length)
    protocol = u8(off + 9)
    start = off + 20  # the transport header; each kind below ends at or before `end`
    data_offset = (u8(start + 12) >> 4) * 4
    tcp = ipv4 & (protocol == IPPROTO_TCP) & (data_offset >= 20) & (start + data_offset <= end)
    udp = ipv4 & (protocol == IPPROTO_UDP) & (start + 8 <= end)
    icmp = ipv4 & (protocol == IPPROTO_ICMP) & (start + 4 <= end)
    ip, ported = tcp | udp | icmp, tcp | udp
    decoded = arp | eapol | ip

    udp_end = np.minimum(end, start + np.maximum(u16(start + 4), 8))
    first = np.select([tcp, udp, icmp], [start + data_offset, start + 8, start + 4], off)
    last = np.where(udp, udp_end, end)
    at = np.flatnonzero(decoded)
    bounds = zip((starts + first)[at].tolist(), (starts + last)[at].tolist())
    payloads = [data[a:b] for a, b in bounds]
    ports = np.where(ported[:, None], np.column_stack([u16(start), u16(start + 2)]), -1)
    flags = {"arp": arp, "ip": ip, "icmp": icmp, "eapol": eapol, "tcp": tcp, "udp": udp}
    rows = np.zeros((len(starts), PACKET_FEATURE_COUNT))
    window = u16(start + 14)
    rows[at] = _rows({k: on[at] for k, on in flags.items()}, ports[at], window[at], payloads)
    addresses = [u16(off + k) << 16 | u16(off + k + 2) for k in (12, 16)]
    hosts = np.where(ip[:, None], np.column_stack(addresses), -1)
    return decoded, rows, ports, hosts


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
