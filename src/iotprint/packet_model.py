"""Parsed-packet model and Ethernet II frame decoding.

Decoding is deliberately shallow: it recovers exactly the layer metadata
needed for feature extraction (protocol presence, ports, TCP window,
IP options, transport payload) and degrades gracefully on anything it
does not understand. No checksum validation, no reassembly. This module
only decodes layers; which feature columns they set, including what a
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


def _opaque(layers: frozenset, payload: bytes = b"", src_ip=None, dst_ip=None) -> tuple:
    """The fields of a packet with no decoded transport header.

    `_parse_ipv4`, `_parse_ipv6` and `_parse_transport` return the
    `ParsedPacket` fields from `layers` to `dst_ip`, in field order.
    """
    return layers, None, None, None, payload, src_ip, dst_ip


_OPAQUE_LAYERS = {ETHERTYPE_ARP: frozenset({"arp"}), ETHERTYPE_EAPOL: frozenset({"eapol"})}


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
    ether_type = struct.unpack_from("!H", data, 12)[0]
    offset = 14
    if ether_type == ETHERTYPE_VLAN:
        # Unwrap a single 802.1Q tag; a second tag falls through to no layer.
        if len(data) < 18:
            raise TruncatedHeader("802.1Q tag cut short")
        ether_type = struct.unpack_from("!H", data, 16)[0]
        offset = 18

    if ether_type == ETHERTYPE_IPV4:
        fields = _parse_ipv4(data, offset)
    elif ether_type == ETHERTYPE_IPV6:
        fields = _parse_ipv6(data, offset)
    else:
        layers = _OPAQUE_LAYERS.get(ether_type, frozenset())
        body = data[offset:]  # trailing link padding is dropped where a length field is captured
        if ether_type == ETHERTYPE_ARP and len(body) >= 6:  # RFC 826: 8 + 2 * hlen + 2 * plen
            body = body[: 8 + 2 * (body[4] + body[5])]
        elif ether_type == ETHERTYPE_EAPOL and len(body) >= 4:  # the 4-byte header + body length
            body = body[: 4 + struct.unpack_from("!H", body, 2)[0]]
        fields = _opaque(layers, body)
    return ParsedPacket(data[6:12], data[0:6], *fields)


def _parse_ipv4(data: bytes, off: int) -> tuple:
    if off + 20 > len(data):
        raise TruncatedHeader("IPv4 header cut short")
    ihl = (data[off] & 0x0F) * 4
    if ihl < 20:
        # Invalid header length; the payload cannot be located reliably.
        return _opaque(_IP)
    if off + ihl > len(data):
        raise TruncatedHeader("IPv4 options cut short")
    total_length = struct.unpack_from("!H", data, off + 2)[0]
    frag = struct.unpack_from("!H", data, off + 6)[0]
    protocol = data[off + 9]
    src_ip = socket.inet_ntoa(data[off + 12 : off + 16])
    dst_ip = socket.inet_ntoa(data[off + 16 : off + 20])
    layers = _scan_ipv4_options(data[off + 20 : off + ihl]) if ihl > 20 else _IP
    # total_length bounds the datagram; trailing link padding is dropped.
    end = min(len(data), off + max(total_length, ihl))
    if frag & 0x1FFF:
        # Non-first fragment: no transport header present.
        return _opaque(layers, data[off + ihl : end], src_ip, dst_ip)
    return _parse_transport(data, off + ihl, end, protocol, layers, src_ip, dst_ip)


def _scan_ipv4_options(opts: bytes) -> frozenset:
    """The layers of an IPv4 header with these option bytes."""
    found = {"ip"}
    i = 0
    while i < len(opts):
        kind = opts[i]
        if kind == 0:  # End of Option List; the remainder is padding
            found.add("ip_padding")
            break
        if kind == 1:  # No Operation
            found.add("ip_padding")
            i += 1
            continue
        if kind == 148:
            found.add("ip_router_alert")
        if i + 1 >= len(opts):
            break
        length = opts[i + 1]
        if length < 2:
            break
        i += length
    return frozenset(found)


def _parse_ipv6(data: bytes, off: int) -> tuple:
    if off + 40 > len(data):
        raise TruncatedHeader("IPv6 header cut short")
    payload_length = struct.unpack_from("!H", data, off + 4)[0]
    next_header = data[off + 6]
    src_ip = str(ipaddress.IPv6Address(data[off + 8 : off + 24]))
    dst_ip = str(ipaddress.IPv6Address(data[off + 24 : off + 40]))
    end = min(len(data), off + 40 + payload_length)
    layers = _IP
    pos = off + 40
    for _ in range(8):  # extension chains longer than this are hostile
        if next_header in _IPV6_EXT_HEADERS:
            if pos + 2 > len(data):
                raise TruncatedHeader("IPv6 extension header cut short")
            if pos + 2 > end:
                return _opaque(layers, b"", src_ip, dst_ip)
            ext_next = data[pos]
            ext_len = (data[pos + 1] + 1) * 8
            if pos + ext_len > len(data):
                raise TruncatedHeader("IPv6 extension header cut short")
            if pos + ext_len > end:
                return _opaque(layers, b"", src_ip, dst_ip)
            if next_header == 0 and _hop_by_hop_has_router_alert(data[pos + 2 : pos + ext_len]):
                layers = _IP | {"ip_router_alert"}
            pos += ext_len
            next_header = ext_next
        elif next_header == _IPV6_FRAGMENT:
            if pos + 8 > len(data):
                raise TruncatedHeader("IPv6 fragment header cut short")
            if pos + 8 > end:
                return _opaque(layers, b"", src_ip, dst_ip)
            frag_field = struct.unpack_from("!H", data, pos + 2)[0]
            if frag_field >> 3:
                # Non-first fragment carries no transport header.
                return _opaque(layers, data[pos + 8 : end], src_ip, dst_ip)
            ext_next = data[pos]
            pos += 8
            next_header = ext_next
        else:
            break
    return _parse_transport(data, pos, end, next_header, layers, src_ip, dst_ip)


def _hop_by_hop_has_router_alert(opts: bytes) -> bool:
    i = 0
    while i < len(opts):
        opt_type = opts[i]
        if opt_type == 0:  # Pad1
            i += 1
            continue
        if i + 1 >= len(opts):
            return False
        if opt_type == 5:
            return True
        i += 2 + opts[i + 1]
    return False


def _parse_transport(
    data: bytes, start: int, end: int, protocol: int, layers: frozenset, src_ip, dst_ip
) -> tuple:
    if protocol == IPPROTO_TCP:
        if start + 20 > len(data):
            raise TruncatedHeader("TCP header cut short")
        if start + 20 > end:
            return _opaque(layers, data[start:end], src_ip, dst_ip)
        src_port, dst_port = struct.unpack_from("!HH", data, start)
        data_offset = (data[start + 12] >> 4) * 4
        window = struct.unpack_from("!H", data, start + 14)[0]
        if data_offset < 20:
            # Bogus data offset; the segment cannot be trusted.
            return _opaque(layers, data[start:end], src_ip, dst_ip)
        if start + data_offset > len(data):
            raise TruncatedHeader("TCP options cut short")
        if start + data_offset > end:
            return _opaque(layers, data[start:end], src_ip, dst_ip)
        payload = data[start + data_offset : end]
        return layers | {"tcp"}, src_port, dst_port, window, payload, src_ip, dst_ip
    if protocol == IPPROTO_UDP:
        if start + 8 > len(data):
            raise TruncatedHeader("UDP header cut short")
        if start + 8 > end:
            return _opaque(layers, data[start:end], src_ip, dst_ip)
        src_port, dst_port, udp_len, _ = struct.unpack_from("!HHHH", data, start)
        payload = data[start + 8 : min(end, start + max(udp_len, 8))]
        return layers | {"udp"}, src_port, dst_port, None, payload, src_ip, dst_ip
    if protocol in (IPPROTO_ICMP, IPPROTO_ICMPV6):
        if start + 4 > len(data):
            raise TruncatedHeader("ICMP header cut short")
        if start + 4 > end:
            return _opaque(layers, data[start:end], src_ip, dst_ip)
        kind = "icmp" if protocol == IPPROTO_ICMP else "icmpv6"
        return _opaque(layers | {kind}, data[start + 4 : end], src_ip, dst_ip)
    return _opaque(layers, data[start:end], src_ip, dst_ip)
