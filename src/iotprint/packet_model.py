"""Parsed-packet model and Ethernet II frame decoding.

Decoding is deliberately shallow: it recovers exactly the layer metadata
needed for feature extraction (protocol presence, ports, TCP window,
IP options, transport payload) and degrades gracefully on anything it
does not understand. No checksum validation, no reassembly.
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from dataclasses import dataclass

from .errors import FrameTooShort, TruncatedHeader

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


class Network(enum.Enum):
    IPV4 = "ipv4"
    IPV6 = "ipv6"
    ARP = "arp"
    EAPOL = "eapol"
    OTHER = "other"


class Transport(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"
    ICMPV6 = "icmpv6"
    NONE = "none"


class AppProtocol(enum.Enum):
    HTTP = "http"
    HTTPS = "https"
    DHCP = "dhcp"
    BOOTP = "bootp"
    SSDP = "ssdp"
    DNS = "dns"
    MDNS = "mdns"
    NTP = "ntp"


class IpOption(enum.Enum):
    PADDING = "padding"
    ROUTER_ALERT = "router_alert"


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


def parse_mac(text: str) -> bytes:
    parts = text.replace("-", ":").split(":")
    if len(parts) != 6:
        raise ValueError(f"not a MAC address: {text!r}")
    return bytes(int(p, 16) for p in parts)


@dataclass(frozen=True)
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

    @property
    def dst_mac(self) -> bytes:
        """Bytes 0-6, which `parse_frame` reads as the destination address."""
        return self.data[0:6]

    @property
    def src_mac(self) -> bytes:
        """Bytes 6-12, which `parse_frame` reads as the source address."""
        return self.data[6:12]


@dataclass(frozen=True)
class ParsedPacket:
    """Layer metadata and transport payload for one frame."""

    ts_sec: int
    ts_usec: int
    src_mac: bytes
    dst_mac: bytes
    ether_type: int
    network: Network
    ip_options: frozenset = frozenset()
    transport: Transport = Transport.NONE
    src_port: int | None = None
    dst_port: int | None = None
    tcp_window_size: int | None = None
    app_protocols: frozenset = frozenset()
    payload: bytes = b""
    src_ip: str | None = None
    dst_ip: str | None = None

    def __post_init__(self) -> None:
        has_ports = self.transport in (Transport.TCP, Transport.UDP)
        if (self.src_port is None) == has_ports or (self.dst_port is None) == has_ports:
            raise ValueError("ports must be present exactly for TCP/UDP")
        if (self.tcp_window_size is None) == (self.transport is Transport.TCP):
            raise ValueError("tcp_window_size must be present exactly for TCP")
        if not has_ports and self.app_protocols:
            raise ValueError("app_protocols require TCP or UDP")


def classify_app_protocols(
    transport: Transport, src_port: int, dst_port: int
) -> frozenset:
    """Map well-known ports (either endpoint) to application protocols.

    DHCP is carried in BOOTP framing, so both flags are set together on
    ports 67/68. Unknown ports yield an empty set.
    """
    found: set[AppProtocol] = set()
    ports = (src_port, dst_port)
    if transport is Transport.TCP:
        if 80 in ports:
            found.add(AppProtocol.HTTP)
        if 443 in ports:
            found.add(AppProtocol.HTTPS)
        if 53 in ports:
            found.add(AppProtocol.DNS)
    elif transport is Transport.UDP:
        if 67 in ports or 68 in ports:
            found.add(AppProtocol.DHCP)
            found.add(AppProtocol.BOOTP)
        if 53 in ports:
            found.add(AppProtocol.DNS)
        if 123 in ports:
            found.add(AppProtocol.NTP)
        if 1900 in ports:
            found.add(AppProtocol.SSDP)
        if 5353 in ports:
            found.add(AppProtocol.MDNS)
    return frozenset(found)


def parse_frame(frame: RawFrame) -> ParsedPacket:
    """Decode an Ethernet II frame into a ParsedPacket.

    Raises FrameTooShort below 14 bytes and TruncatedHeader when a claimed
    header runs past the captured bytes; both are skip-and-count signals.
    Unrecognized or malformed inner layers degrade to Other/NONE instead
    of failing, so the function is total over frames of >= 14 bytes.
    """
    data = frame.data
    if len(data) < 14:
        raise FrameTooShort(f"{len(data)} bytes; need 14 for an Ethernet header")
    dst_mac = data[0:6]
    src_mac = data[6:12]
    ether_type = struct.unpack_from("!H", data, 12)[0]
    offset = 14
    if ether_type == ETHERTYPE_VLAN:
        # Unwrap a single 802.1Q tag; a second tag falls through to OTHER.
        if len(data) < 18:
            raise TruncatedHeader("802.1Q tag cut short")
        ether_type = struct.unpack_from("!H", data, 16)[0]
        offset = 18

    common = dict(
        ts_sec=frame.ts_sec,
        ts_usec=frame.ts_usec,
        src_mac=src_mac,
        dst_mac=dst_mac,
        ether_type=ether_type,
    )

    if ether_type == ETHERTYPE_IPV4:
        return _parse_ipv4(data, offset, common)
    if ether_type == ETHERTYPE_IPV6:
        return _parse_ipv6(data, offset, common)
    if ether_type == ETHERTYPE_ARP:
        return ParsedPacket(network=Network.ARP, payload=data[offset:], **common)
    if ether_type == ETHERTYPE_EAPOL:
        return ParsedPacket(network=Network.EAPOL, payload=data[offset:], **common)
    return ParsedPacket(network=Network.OTHER, payload=data[offset:], **common)


def _parse_ipv4(data: bytes, off: int, common: dict) -> ParsedPacket:
    if off + 20 > len(data):
        raise TruncatedHeader("IPv4 header cut short")
    ihl = (data[off] & 0x0F) * 4
    if ihl < 20:
        # Invalid header length; the payload cannot be located reliably.
        return ParsedPacket(network=Network.IPV4, **common)
    if off + ihl > len(data):
        raise TruncatedHeader("IPv4 options cut short")
    total_length = struct.unpack_from("!H", data, off + 2)[0]
    frag = struct.unpack_from("!H", data, off + 6)[0]
    protocol = data[off + 9]
    src_ip = str(ipaddress.IPv4Address(data[off + 12 : off + 16]))
    dst_ip = str(ipaddress.IPv4Address(data[off + 16 : off + 20]))
    options = _scan_ipv4_options(data[off + 20 : off + ihl]) if ihl > 20 else frozenset()
    # total_length bounds the datagram; trailing link padding is dropped.
    end = min(len(data), off + max(total_length, ihl))
    common = dict(common, network=Network.IPV4, ip_options=options, src_ip=src_ip, dst_ip=dst_ip)
    if frag & 0x1FFF:
        # Non-first fragment: no transport header present.
        return ParsedPacket(payload=data[off + ihl : end], **common)
    return _parse_transport(data, off + ihl, end, protocol, common)


def _scan_ipv4_options(opts: bytes) -> frozenset:
    found: set[IpOption] = set()
    i = 0
    while i < len(opts):
        kind = opts[i]
        if kind == 0:  # End of Option List; the remainder is padding
            found.add(IpOption.PADDING)
            break
        if kind == 1:  # No Operation
            found.add(IpOption.PADDING)
            i += 1
            continue
        if kind == 148:
            found.add(IpOption.ROUTER_ALERT)
        if i + 1 >= len(opts):
            break
        length = opts[i + 1]
        if length < 2:
            break
        i += length
    return frozenset(found)


def _parse_ipv6(data: bytes, off: int, common: dict) -> ParsedPacket:
    if off + 40 > len(data):
        raise TruncatedHeader("IPv6 header cut short")
    payload_length = struct.unpack_from("!H", data, off + 4)[0]
    next_header = data[off + 6]
    src_ip = str(ipaddress.IPv6Address(data[off + 8 : off + 24]))
    dst_ip = str(ipaddress.IPv6Address(data[off + 24 : off + 40]))
    end = min(len(data), off + 40 + payload_length)
    options: set[IpOption] = set()
    common = dict(common, network=Network.IPV6, src_ip=src_ip, dst_ip=dst_ip)

    pos = off + 40
    for _ in range(8):  # extension chains longer than this are hostile
        if next_header in _IPV6_EXT_HEADERS:
            if pos + 2 > len(data):
                raise TruncatedHeader("IPv6 extension header cut short")
            if pos + 2 > end:
                return ParsedPacket(ip_options=frozenset(options), **common)
            ext_next = data[pos]
            ext_len = (data[pos + 1] + 1) * 8
            if pos + ext_len > len(data):
                raise TruncatedHeader("IPv6 extension header cut short")
            if pos + ext_len > end:
                return ParsedPacket(ip_options=frozenset(options), **common)
            if next_header == 0 and _hop_by_hop_has_router_alert(data[pos + 2 : pos + ext_len]):
                options.add(IpOption.ROUTER_ALERT)
            pos += ext_len
            next_header = ext_next
        elif next_header == _IPV6_FRAGMENT:
            if pos + 8 > len(data):
                raise TruncatedHeader("IPv6 fragment header cut short")
            if pos + 8 > end:
                return ParsedPacket(ip_options=frozenset(options), **common)
            frag_field = struct.unpack_from("!H", data, pos + 2)[0]
            if frag_field >> 3:
                # Non-first fragment carries no transport header.
                return ParsedPacket(
                    ip_options=frozenset(options), payload=data[pos + 8 : end], **common
                )
            ext_next = data[pos]
            pos += 8
            next_header = ext_next
        else:
            break
    common["ip_options"] = frozenset(options)
    return _parse_transport(data, pos, end, next_header, common)


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


def _parse_transport(data: bytes, start: int, end: int, protocol: int, common: dict) -> ParsedPacket:
    if protocol == IPPROTO_TCP:
        if start + 20 > len(data):
            raise TruncatedHeader("TCP header cut short")
        if start + 20 > end:
            return ParsedPacket(payload=data[start:end], **common)
        src_port, dst_port = struct.unpack_from("!HH", data, start)
        data_offset = (data[start + 12] >> 4) * 4
        window = struct.unpack_from("!H", data, start + 14)[0]
        if data_offset < 20:
            # Bogus data offset; the segment cannot be trusted.
            return ParsedPacket(payload=data[start:end], **common)
        if start + data_offset > len(data):
            raise TruncatedHeader("TCP options cut short")
        if start + data_offset > end:
            return ParsedPacket(payload=data[start:end], **common)
        return ParsedPacket(
            transport=Transport.TCP,
            src_port=src_port,
            dst_port=dst_port,
            tcp_window_size=window,
            app_protocols=classify_app_protocols(Transport.TCP, src_port, dst_port),
            payload=data[start + data_offset : end],
            **common,
        )
    if protocol == IPPROTO_UDP:
        if start + 8 > len(data):
            raise TruncatedHeader("UDP header cut short")
        if start + 8 > end:
            return ParsedPacket(payload=data[start:end], **common)
        src_port, dst_port, udp_len, _ = struct.unpack_from("!HHHH", data, start)
        body_end = min(end, start + max(udp_len, 8))
        return ParsedPacket(
            transport=Transport.UDP,
            src_port=src_port,
            dst_port=dst_port,
            app_protocols=classify_app_protocols(Transport.UDP, src_port, dst_port),
            payload=data[start + 8 : body_end],
            **common,
        )
    if protocol in (IPPROTO_ICMP, IPPROTO_ICMPV6):
        if start + 4 > len(data):
            raise TruncatedHeader("ICMP header cut short")
        if start + 4 > end:
            return ParsedPacket(payload=data[start:end], **common)
        kind = Transport.ICMP if protocol == IPPROTO_ICMP else Transport.ICMPV6
        return ParsedPacket(transport=kind, payload=data[start + 4 : end], **common)
    return ParsedPacket(payload=data[start:end], **common)
