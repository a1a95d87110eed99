"""Parsed-packet model and Ethernet II frame decoding.

Decoding is deliberately shallow: it recovers exactly the layer metadata
needed for feature extraction (protocol presence, ports, TCP window,
IP options, transport payload) and degrades gracefully on anything it
does not understand. No checksum validation, no reassembly. `_ipv4`
and `_ipv6` walk an IP header (and IPv6's extension headers) to where
the transport header starts, where the datagram ends and which
transport lies there, and `_transport` decodes it: TCP, UDP and the
ICMP of that IP version; any other bytes stay opaque. Profiles parse
here; `features.frame_features` takes the same steps in bulk for
`read_rows`. Which feature columns the layers set, including what a
well-known port means, is decided in `features`.
"""

from __future__ import annotations

import ipaddress
import re
import socket
import struct
from dataclasses import dataclass
from typing import NamedTuple

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_EAPOL = 0x888E

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ICMPV6 = 58

# IPv6 extension headers we walk through to find the transport header.
_IPV6_EXT_HEADERS = frozenset({0, 43, 60})
_IPV6_FRAGMENT = 44


class FrameTooShort(ValueError):
    """Frame smaller than a minimal Ethernet II header (14 bytes)."""


class TruncatedHeader(ValueError):
    """A claimed protocol header extends past the captured bytes."""


_MAC_TEXT = re.compile(r"[0-9A-Fa-f]{1,2}(?:[:-][0-9A-Fa-f]{1,2}){5}")


def parse_mac(text: str) -> bytes:
    """Six groups of one or two ASCII hex digits, separated by ':' or '-'."""
    if not _MAC_TEXT.fullmatch(text):
        raise ValueError(f"not a MAC address: {text!r}")
    return bytes(int(p, 16) for p in re.split("[:-]", text))


@dataclass(frozen=True, slots=True)
class RawFrame:
    """One captured link-layer frame. Timestamps are µs resolution."""

    ts_sec: int
    ts_usec: int
    original_length: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.ts_usec < 1_000_000:
            raise ValueError("ts_usec out of range")
        if self.original_length < len(self.data):
            raise ValueError("original_length below capture_length")

    @property
    def capture_length(self) -> int:
        return len(self.data)


class ParsedPacket(NamedTuple):
    """Layer metadata and transport payload for one frame.

    `layers` holds the names of the layer flags the frame sets, as
    `features` names its columns: arp, ip (IPv4 or IPv6), icmp, icmpv6,
    eapol, tcp, udp, ip_padding and ip_router_alert. `parse_frame` is the
    one producer: ports are present exactly for TCP/UDP, and
    `tcp_window_size` exactly for TCP.
    """

    src_mac: bytes
    dst_mac: bytes
    layers: frozenset = frozenset()
    src_port: int | None = None
    dst_port: int | None = None
    tcp_window_size: int | None = None
    payload: bytes = b""
    src_ip: str | None = None
    dst_ip: str | None = None


_IP = frozenset({"ip"})
_OPAQUE_LAYERS = {ETHERTYPE_ARP: frozenset({"arp"}), ETHERTYPE_EAPOL: frozenset({"eapol"})}

# The transports `_transport` decodes, by IP protocol number: (layer flag, minimal
# header bytes, the message when the capture cuts that header). ICMP is defined per
# IP version (RFC 792, RFC 4443), so each version reads only its own.
_TCP, _UDP = ("tcp", 20, "TCP header cut short"), ("udp", 8, "UDP header cut short")
_ICMP, _ICMPV6 = ("icmp", 4, "ICMP header cut short"), ("icmpv6", 4, "ICMP header cut short")
_IPV4_TRANSPORTS = {IPPROTO_TCP: _TCP, IPPROTO_UDP: _UDP, IPPROTO_ICMP: _ICMP}
_IPV6_TRANSPORTS = {IPPROTO_TCP: _TCP, IPPROTO_UDP: _UDP, IPPROTO_ICMPV6: _ICMPV6}


def parse_frame(frame: RawFrame) -> ParsedPacket:
    """Decode an Ethernet II frame into a ParsedPacket.

    Raises FrameTooShort below 14 bytes and TruncatedHeader when a claimed
    header runs past the captured bytes; both are skip-and-count signals.
    Unrecognized or malformed inner layers degrade to fewer layers instead
    of failing, so the function is total over frames of >= 14 bytes.
    """
    data = frame.data
    if len(data) < 14:
        raise FrameTooShort(f"{len(data)} bytes; need 14 for an Ethernet header")
    offset, ether_type = 14, struct.unpack_from("!H", data, 12)[0]
    if ether_type == ETHERTYPE_VLAN:
        # Unwrap a single 802.1Q tag; a second tag falls through to no layer.
        if len(data) < 18:
            raise TruncatedHeader("802.1Q tag cut short")
        offset, ether_type = 18, struct.unpack_from("!H", data, 16)[0]
    if ether_type == ETHERTYPE_IPV4:
        layers, start, end, transport, src_ip, dst_ip = _ipv4(data, offset)
    elif ether_type == ETHERTYPE_IPV6:
        layers, start, end, transport, src_ip, dst_ip = _ipv6(data, offset)
    else:
        layers, start, end = _OPAQUE_LAYERS.get(ether_type, frozenset()), offset, len(data)
        transport = src_ip = dst_ip = None
        # Trailing link padding is dropped where a length field is captured.
        if ether_type == ETHERTYPE_ARP and end - start >= 6:  # RFC 826: 8 + 2 * hlen + 2 * plen
            end = min(end, start + 8 + 2 * (data[start + 4] + data[start + 5]))
        elif ether_type == ETHERTYPE_EAPOL and end - start >= 4:  # the 4-byte header + body length
            end = min(end, start + 4 + struct.unpack_from("!H", data, start + 2)[0])
    fields = _transport(data, start, end, transport, layers)
    return ParsedPacket(data[6:12], data[0:6], *fields, src_ip, dst_ip)


def _ipv4(data: bytes, off: int) -> tuple:
    """(layers, start, end, transport, src_ip, dst_ip) of the IPv4 packet at
    `off`: where its transport header starts, where the datagram ends, and
    that header's `_IPV4_TRANSPORTS` entry (None where there is none to decode)."""
    if off + 20 > len(data):
        raise TruncatedHeader("IPv4 header cut short")
    ihl = (data[off] & 0x0F) * 4
    if ihl < 20:  # an invalid header length: the payload cannot be located reliably
        return _IP, off, off, None, None, None
    if off + ihl > len(data):
        raise TruncatedHeader("IPv4 options cut short")
    total_length, frag, protocol = struct.unpack_from("!2xH2xHxB", data, off)
    src_ip = socket.inet_ntoa(data[off + 12 : off + 16])
    dst_ip = socket.inet_ntoa(data[off + 16 : off + 20])
    layers = _scan_ipv4_options(data[off + 20 : off + ihl]) if ihl > 20 else _IP
    # total_length bounds the datagram; trailing link padding is dropped.
    end = min(len(data), off + max(total_length, ihl))
    # A non-first fragment carries no transport header.
    transport = None if frag & 0x1FFF else _IPV4_TRANSPORTS.get(protocol)
    return layers, off + ihl, end, transport, src_ip, dst_ip


def _scan_ipv4_options(opts: bytes) -> frozenset:
    """The layers of an IPv4 header with these option bytes."""
    found, i = {"ip"}, 0
    while i < len(opts):
        kind = opts[i]
        if kind <= 1:  # End of Option List (the remainder is padding) or No Operation
            found.add("ip_padding")
            if kind == 0:
                break
            i += 1
            continue
        if kind == 148:
            found.add("ip_router_alert")
        if i + 1 >= len(opts) or opts[i + 1] < 2:
            break
        i += opts[i + 1]
    return frozenset(found)


def _ipv6(data: bytes, off: int) -> tuple:
    """As `_ipv4`, for the IPv6 packet at `off`, the extension headers before
    its transport header and `_IPV6_TRANSPORTS`."""
    if off + 40 > len(data):
        raise TruncatedHeader("IPv6 header cut short")
    payload_length, next_header = struct.unpack_from("!4xHB", data, off)
    src_ip = str(ipaddress.IPv6Address(data[off + 8 : off + 24]))
    dst_ip = str(ipaddress.IPv6Address(data[off + 24 : off + 40]))
    end = min(len(data), off + 40 + payload_length)
    layers, pos = _IP, off + 40
    for _ in range(8):  # extension chains longer than this are hostile
        if next_header in _IPV6_EXT_HEADERS:
            message = "IPv6 extension header cut short"
            # Its stated length, or 2 bytes where the datagram ends before the length byte.
            ext_len = (data[pos + 1] + 1) * 8 if pos + 2 <= end else 2
        elif next_header == _IPV6_FRAGMENT:
            message, ext_len = "IPv6 fragment header cut short", 8
        else:
            break
        if pos + ext_len > len(data):
            raise TruncatedHeader(message)
        if pos + ext_len > end:  # the datagram ends inside the header
            return layers, end, end, None, src_ip, dst_ip
        if next_header == 0 and _hop_by_hop_has_router_alert(data[pos + 2 : pos + ext_len]):
            layers = _IP | {"ip_router_alert"}
        elif next_header == _IPV6_FRAGMENT and struct.unpack_from("!H", data, pos + 2)[0] >> 3:
            return layers, pos + 8, end, None, src_ip, dst_ip  # a non-first fragment
        next_header = data[pos]
        pos += ext_len
    return layers, pos, end, _IPV6_TRANSPORTS.get(next_header), src_ip, dst_ip


def _hop_by_hop_has_router_alert(opts: bytes) -> bool:
    i = 0
    while i < len(opts):
        if opts[i] == 0:  # Pad1
            i += 1
        elif i + 1 >= len(opts):
            return False
        elif opts[i] == 5:
            return True
        else:
            i += 2 + opts[i + 1]
    return False


def _transport(data: bytes, start: int, end: int, transport, layers: frozenset) -> tuple:
    """The `ParsedPacket` fields `layers` to `payload` of the transport at
    `start`, in a datagram ending at `end`: without a transport entry, or
    where its header does not fit, the payload is `data[start:end]`."""
    if transport is not None:
        flag, size, message = transport
        if start + size > len(data):
            raise TruncatedHeader(message)
        if start + size <= end:
            if flag == "udp":
                src_port, dst_port, udp_len = struct.unpack_from("!HHH", data, start)
                payload = data[start + 8 : min(end, start + max(udp_len, 8))]
                return layers | {"udp"}, src_port, dst_port, None, payload
            if flag != "tcp":
                return layers | {flag}, None, None, None, data[start + size : end]
            src_port, dst_port, offset_byte, window = struct.unpack_from("!HH8xBxH", data, start)
            data_offset = (offset_byte >> 4) * 4
            if data_offset >= 20:  # a bogus data offset leaves the segment opaque
                if start + data_offset > len(data):
                    raise TruncatedHeader("TCP options cut short")
                if start + data_offset <= end:
                    payload = data[start + data_offset : end]
                    return layers | {"tcp"}, src_port, dst_port, window, payload
    return layers, None, None, None, data[start:end]
