"""Per-packet feature vectors and the fingerprint layout built from them.

A packet maps to 17 binary header flags + 3 payload values. The flag
order below is frozen; fingerprints concatenate these vectors, so the
order is part of the on-disk data contract (FEATURE_SCHEMA). A
fingerprint is 5 consecutive packets' vectors (100 values), and a
feature variant is the subset of those columns a model reads.
"""

from __future__ import annotations

import functools
import io
from typing import Sequence

import numpy as np

from .errors import EmptyInput
from .packet_model import AppProtocol, IpOption, Network, ParsedPacket, Transport

FEATURE_SCHEMA = "packet-features/1"

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

_APP_FLAGS = (
    AppProtocol.HTTP,
    AppProtocol.HTTPS,
    AppProtocol.DHCP,
    AppProtocol.BOOTP,
    AppProtocol.SSDP,
    AppProtocol.DNS,
    AppProtocol.MDNS,
    AppProtocol.NTP,
)


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


def shannon_entropy(payload: bytes) -> float:
    """Byte-value Shannon entropy normalized to [0, 1].

    Computes -sum(p_i * log_256(p_i)) over the 256 byte values with
    p_i = count(i) / len(payload); zero-count terms contribute nothing.
    Evaluated via counts in log2 so that the constant-payload (0.0) and
    uniform-256 (1.0) cases come out exact. Empty payload returns 0.
    """
    m = len(payload)
    if m == 0:
        return 0.0
    counts = np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256)
    nonzero = counts[counts > 0].astype(np.float64)
    bits = float(np.log2(float(m))) - float((nonzero * np.log2(nonzero)).sum()) / m
    return bits / 8.0


def extract_features(pkt: ParsedPacket) -> tuple:
    """Map one parsed packet to its 20 floats in FEATURE_NAMES order.

    The IP flag covers IPv4 and IPv6; the TCP payload length and window
    size are 0 for non-TCP packets so rows stay fixed-width.
    """
    is_tcp = pkt.transport is Transport.TCP
    return (
        *_header_flags(pkt.network, pkt.transport, pkt.app_protocols, pkt.ip_options),
        shannon_entropy(pkt.payload),
        float(len(pkt.payload)) if is_tcp else 0.0,
        float(pkt.tcp_window_size) if is_tcp else 0.0,
    )


@functools.cache
def _header_flags(
    network: Network, transport: Transport, app_protocols: frozenset, ip_options: frozenset
) -> tuple:
    """The 17 header flags, in HEADER_FLAG_NAMES order.

    Cached: the keys are a finite set (5 networks x 5 transports x 2^8
    application sets x 2^2 option sets), and the values are tuples.
    """
    return (
        float(network is Network.ARP),
        float(network in (Network.IPV4, Network.IPV6)),
        float(transport is Transport.ICMP),
        float(transport is Transport.ICMPV6),
        float(network is Network.EAPOL),
        float(transport is Transport.TCP),
        float(transport is Transport.UDP),
        *(float(app in app_protocols) for app in _APP_FLAGS),
        float(IpOption.PADDING in ip_options),
        float(IpOption.ROUTER_ALERT in ip_options),
    )


def ecdf(values: Sequence[float]) -> list:
    """Empirical CDF as sorted (value, P(X <= value)) pairs."""
    if len(values) == 0:
        raise EmptyInput("ecdf needs at least one value")
    arr = np.asarray(values, dtype=np.float64)
    distinct, counts = np.unique(arr, return_counts=True)
    probs = np.cumsum(counts) / arr.size
    return list(zip(distinct.tolist(), probs.tolist()))


def render_features_csv(features: Sequence[tuple]) -> str:
    """CSV with a schema header line, one row per packet, repr-precision floats."""
    out = io.StringIO()
    out.write(f"# schema: {FEATURE_SCHEMA}\n")
    out.write(",".join(FEATURE_NAMES) + "\n")
    for row in features:
        fields = [str(int(v)) for v in row[:HEADER_FLAG_COUNT]]
        fields.append(repr(row[ENTROPY_INDEX]))
        fields.append(str(int(row[18])))
        fields.append(str(int(row[19])))
        out.write(",".join(fields) + "\n")
    return out.getvalue()
