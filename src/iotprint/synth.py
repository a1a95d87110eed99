"""Synthetic device-archetype traffic with per-frame ground truth.

Each archetype emits short port-pair-consistent sessions drawn from its
protocol mix. One table, `_SESSIONS`, says how each `Proto` frames its
sessions, and one loop, `_TraceBuilder.emit_session`, reads it. Payload
bytes follow one of two entropy regimes: "low" draws from a 16-symbol
alphabet (entropy ceiling 0.5), "high" draws uniformly over all 256
byte values. Archetype parameters are chosen so the three payload
features have visibly distinct distributions; the test suite asserts
that separation rather than assuming it.

The order of the random draws is part of the corpus bytes, which the
tests pin by sha256: per session the length, then the ephemeral port
or ICMP ident, then per frame the TCP window before the payload and
last the clock step. Ephemeral ports are not reused within a trace
until all of `EPHEMERAL_PORTS` are used; then a new round starts.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace

import numpy as np

from .packet_model import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    RawFrame,
)

TRACE_EPOCH = 1_700_000_000
EPHEMERAL_PORTS = range(20000, 60000)

PEER_MAC = bytes.fromhex("02ffee000001")
BROADCAST_MAC = b"\xff" * 6
MDNS_MAC = bytes.fromhex("01005e0000fb")
SSDP_MAC = bytes.fromhex("01005e7ffffa")
PAE_GROUP_MAC = bytes.fromhex("0180c2000003")

PEER_IP = "192.168.1.1"
MDNS_IP = "224.0.0.251"
SSDP_IP = "239.255.255.250"
BROADCAST_IP = "255.255.255.255"


class Proto(enum.Enum):
    TCP_HTTP = "tcp-http"
    TCP_HTTPS = "tcp-https"
    UDP_DNS = "udp-dns"
    UDP_MDNS = "udp-mdns"
    UDP_SSDP = "udp-ssdp"
    UDP_NTP = "udp-ntp"
    UDP_DHCP = "udp-dhcp"
    EAPOL = "eapol"
    ARP = "arp"
    ICMP = "icmp"


@dataclass(frozen=True)
class _Session:
    """How one `Proto` frames its sessions; TCP and UDP run device_port <-> server_port."""

    carrier: int  # IP protocol number, or the EtherType of a frame without IPv4 (ARP, EAPoL)
    server_port: int | None
    device_port: int | None  # None: an ephemeral port drawn once per session
    sends_to: tuple  # the (MAC, IP) the device's frames go to
    answered: bool = True  # the peer answers every other frame


_PEER = (PEER_MAC, PEER_IP)

_SESSIONS = {
    Proto.TCP_HTTP: _Session(IPPROTO_TCP, 80, None, _PEER),
    Proto.TCP_HTTPS: _Session(IPPROTO_TCP, 443, None, _PEER),
    Proto.UDP_DNS: _Session(IPPROTO_UDP, 53, None, _PEER),
    Proto.UDP_MDNS: _Session(IPPROTO_UDP, 5353, 5353, (MDNS_MAC, MDNS_IP), answered=False),
    Proto.UDP_SSDP: _Session(IPPROTO_UDP, 1900, None, (SSDP_MAC, SSDP_IP), answered=False),
    Proto.UDP_NTP: _Session(IPPROTO_UDP, 123, None, _PEER),
    Proto.UDP_DHCP: _Session(IPPROTO_UDP, 67, 68, (BROADCAST_MAC, BROADCAST_IP)),
    Proto.EAPOL: _Session(ETHERTYPE_EAPOL, None, None, (PAE_GROUP_MAC, None)),
    Proto.ARP: _Session(ETHERTYPE_ARP, None, None, (BROADCAST_MAC, PEER_IP)),
    Proto.ICMP: _Session(IPPROTO_ICMP, None, None, _PEER),
}


@dataclass(frozen=True)
class PayloadProfile:
    regime: str  # "low" | "high"
    lengths: tuple
    jitter: int = 0

    def __post_init__(self) -> None:
        if self.regime not in ("low", "high"):
            raise ValueError("regime must be 'low' or 'high'")


@dataclass(frozen=True)
class WindowProfile:
    base: int
    spread: int = 0


@dataclass(frozen=True)
class DeviceArchetype:
    name: str
    category: str
    mac: bytes
    ip: str
    protocol_mix: dict
    payload_profile: dict
    window_profile: WindowProfile
    session_length_distribution: dict

    def __post_init__(self) -> None:
        total = sum(self.protocol_mix.values())
        if abs(total - 1.0) > 1e-9 or any(w < 0 for w in self.protocol_mix.values()):
            raise ValueError("protocol mix weights must be non-negative and sum to 1")
        if any(not 2 <= n <= 10 for n in self.session_length_distribution):
            raise ValueError("session lengths must lie in 2..10")


@dataclass(frozen=True)
class CorpusEntry:
    archetype: DeviceArchetype
    instance: str
    frames: tuple
    labels: tuple


def _ip_bytes(ip: str) -> bytes:
    return bytes(int(p) for p in ip.split("."))


def _ethernet(dst: bytes, src: bytes, ether_type: int, body: bytes) -> bytes:
    return dst + src + struct.pack("!H", ether_type) + body


def _ipv4(src_ip: str, dst_ip: str, proto: int, body: bytes) -> bytes:
    header = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(body), 0, 0, 64, proto, 0)
    return header + _ip_bytes(src_ip) + _ip_bytes(dst_ip) + body


def _tcp(src_port: int, dst_port: int, window: int, payload: bytes) -> bytes:
    header = struct.pack("!HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, 0x18, window, 0, 0)
    return header + payload


def _udp(src_port: int, dst_port: int, payload: bytes) -> bytes:
    return struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0) + payload


def _icmp_echo(request: bool, ident: int, payload: bytes) -> bytes:
    return struct.pack("!BBHHH", 8 if request else 0, 0, 0, ident & 0xFFFF, 1) + payload


def _arp_body(request: bool, sender_mac: bytes, sender_ip: str, target_mac: bytes, target_ip: str) -> bytes:
    """A request does not know the target's MAC yet, so it carries zeros."""
    header = struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, 1 if request else 2)
    target_mac = b"\x00" * 6 if request else target_mac
    return header + sender_mac + _ip_bytes(sender_ip) + target_mac + _ip_bytes(target_ip)


def _eapol_body(payload: bytes) -> bytes:
    return struct.pack("!BBH", 1, 3, len(payload)) + payload


class _TraceBuilder:
    def __init__(self, arch: DeviceArchetype, seed: int):
        self.arch = arch
        self.rng = np.random.default_rng(seed)
        self.clock_us = 0
        self.used_ports: set = set()
        self.frames: list = []
        self.labels: list = []

    def payload(self, proto: Proto) -> bytes:
        profile = self.arch.payload_profile[proto]
        length = profile.lengths[int(self.rng.integers(0, len(profile.lengths)))]
        if profile.jitter:
            length += int(self.rng.integers(-profile.jitter, profile.jitter + 1))
        length = max(length, 0)
        if length == 0:
            return b""
        if profile.regime == "low":
            return bytes((97 + self.rng.integers(0, 16, size=length)).astype(np.uint8))
        return bytes(self.rng.integers(0, 256, size=length, dtype=np.uint8))

    def window(self) -> int:
        profile = self.arch.window_profile
        if profile.spread == 0:
            return profile.base
        return int(profile.base + self.rng.integers(0, profile.spread + 1))

    def ephemeral_port(self) -> int:
        """A port no session of this round has used; a round ends when all are used."""
        if len(self.used_ports) == len(EPHEMERAL_PORTS):
            self.used_ports.clear()
        while True:
            port = int(self.rng.integers(EPHEMERAL_PORTS.start, EPHEMERAL_PORTS.stop))
            if port not in self.used_ports:
                self.used_ports.add(port)
                return port

    def emit(self, data: bytes) -> None:
        self.clock_us += int(self.rng.integers(300, 3000))
        ts_sec = TRACE_EPOCH + self.clock_us // 1_000_000
        self.frames.append(RawFrame(ts_sec, self.clock_us % 1_000_000, len(data), data))
        self.labels.append(self.arch.name)

    def emit_session(self, proto: Proto, budget: int) -> int:
        lengths = list(self.arch.session_length_distribution)
        weights = np.asarray([self.arch.session_length_distribution[n] for n in lengths])
        length = int(self.rng.choice(np.asarray(lengths), p=weights / weights.sum()))
        count = min(length, budget)
        row = _SESSIONS[proto]
        device = (self.arch.mac, self.arch.ip)
        ports = None
        if row.carrier in (IPPROTO_TCP, IPPROTO_UDP):
            device_port = self.ephemeral_port() if row.device_port is None else row.device_port
            ports = (device_port, row.server_port)
        elif row.carrier == IPPROTO_ICMP:
            ident = int(self.rng.integers(0, 65536))
        for i in range(count):
            outbound = i % 2 == 0 or not row.answered
            (src_mac, src_ip), (dst_mac, dst_ip) = (
                (device, row.sends_to) if outbound else (_PEER, device)
            )
            pair = ports if outbound or ports is None else ports[::-1]
            if row.carrier == IPPROTO_TCP:
                body = _tcp(*pair, self.window(), self.payload(proto))
            elif row.carrier == IPPROTO_UDP:
                body = _udp(*pair, self.payload(proto))
            elif row.carrier == IPPROTO_ICMP:
                body = _icmp_echo(outbound, ident, self.payload(proto))
            elif row.carrier == ETHERTYPE_EAPOL:
                body = _eapol_body(self.payload(proto))
            else:
                body = _arp_body(outbound, src_mac, src_ip, dst_mac, dst_ip)
            if row.carrier in (ETHERTYPE_EAPOL, ETHERTYPE_ARP):
                self.emit(_ethernet(dst_mac, src_mac, row.carrier, body))
            else:
                packet = _ipv4(src_ip, dst_ip, row.carrier, body)
                self.emit(_ethernet(dst_mac, src_mac, ETHERTYPE_IPV4, packet))
        return count


def generate_trace(arch: DeviceArchetype, n_packets: int, seed: int) -> tuple:
    """Deterministic labeled trace: (frames, per-frame ground-truth labels)."""
    if n_packets < 0:
        raise ValueError("n_packets must be non-negative")
    builder = _TraceBuilder(arch, seed)
    protos = list(arch.protocol_mix)
    weights = np.asarray([arch.protocol_mix[p] for p in protos])
    weights = weights / weights.sum()
    emitted = 0
    while emitted < n_packets:
        proto = protos[int(builder.rng.choice(len(protos), p=weights))]
        emitted += builder.emit_session(proto, n_packets - emitted)
    return builder.frames, builder.labels


def _archetype_roster() -> tuple:
    # Separability by design: every archetype keeps a unique "beacon"
    # among its portless/UDP protocols (DNS regimes, MDNS, SSDP, NTP,
    # DHCP, EAPoL) so that 5-packet windows without TCP content remain
    # attributable, and TCP window-size ranges are pairwise disjoint.
    # The twin archetype (outlet) avoids ARP because ARP bodies embed
    # the MAC, which must not become an instance-identifying constant.
    return (
        DeviceArchetype(
            name="constrained-bulb",
            category="light",
            mac=bytes.fromhex("020000000101"),
            ip="192.168.1.11",
            protocol_mix={
                Proto.TCP_HTTP: 0.75,
                Proto.UDP_DNS: 0.15,
                Proto.ARP: 0.10,
            },
            payload_profile={
                Proto.TCP_HTTP: PayloadProfile("low", (32, 48), 8),
                Proto.UDP_DNS: PayloadProfile("low", (90,), 12),
            },
            window_profile=WindowProfile(1024, 0),
            session_length_distribution={2: 0.3, 4: 0.4, 6: 0.3},
        ),
        DeviceArchetype(
            name="hue-bulb",
            category="light",
            mac=bytes.fromhex("020000000202"),
            ip="192.168.1.12",
            protocol_mix={
                Proto.TCP_HTTPS: 0.60,
                Proto.UDP_MDNS: 0.28,
                Proto.ARP: 0.12,
            },
            payload_profile={
                Proto.TCP_HTTPS: PayloadProfile("high", (544, 640), 16),
                Proto.UDP_MDNS: PayloadProfile("low", (140,), 16),
            },
            window_profile=WindowProfile(4096, 256),
            session_length_distribution={2: 0.2, 4: 0.3, 6: 0.3, 8: 0.2},
        ),
        DeviceArchetype(
            name="camera-streamer",
            category="camera",
            mac=bytes.fromhex("020000000303"),
            ip="192.168.1.13",
            protocol_mix={
                Proto.TCP_HTTPS: 0.80,
                Proto.TCP_HTTP: 0.12,
                Proto.ICMP: 0.08,
            },
            payload_profile={
                Proto.TCP_HTTPS: PayloadProfile("high", (1200, 1380), 64),
                Proto.TCP_HTTP: PayloadProfile("low", (256, 300), 20),
                Proto.ICMP: PayloadProfile("high", (128,)),
            },
            window_profile=WindowProfile(28000, 20000),
            session_length_distribution={4: 0.2, 6: 0.3, 8: 0.3, 10: 0.2},
        ),
        DeviceArchetype(
            name="hub-conduit",
            category="hub",
            mac=bytes.fromhex("020000000404"),
            ip="192.168.1.14",
            protocol_mix={Proto.ARP: 0.30, Proto.EAPOL: 0.40, Proto.ICMP: 0.30},
            payload_profile={
                Proto.EAPOL: PayloadProfile("high", (64, 80), 8),
                Proto.ICMP: PayloadProfile("high", (56,)),
            },
            window_profile=WindowProfile(0, 0),
            session_length_distribution={2: 0.5, 4: 0.5},
        ),
        DeviceArchetype(
            name="speaker",
            category="audio",
            mac=bytes.fromhex("020000000505"),
            ip="192.168.1.15",
            protocol_mix={
                Proto.TCP_HTTP: 0.50,
                Proto.TCP_HTTPS: 0.25,
                Proto.UDP_SSDP: 0.25,
            },
            payload_profile={
                Proto.TCP_HTTP: PayloadProfile("high", (520, 700), 32),
                Proto.TCP_HTTPS: PayloadProfile("high", (800,), 32),
                Proto.UDP_SSDP: PayloadProfile("low", (240,), 20),
            },
            window_profile=WindowProfile(16384, 4096),
            session_length_distribution={2: 0.2, 4: 0.2, 6: 0.3, 8: 0.3},
        ),
        DeviceArchetype(
            name="outlet",
            category="power",
            mac=bytes.fromhex("020000000606"),
            ip="192.168.1.16",
            protocol_mix={
                Proto.TCP_HTTP: 0.65,
                Proto.UDP_NTP: 0.20,
                Proto.UDP_DHCP: 0.15,
            },
            payload_profile={
                Proto.TCP_HTTP: PayloadProfile("low", (160, 200), 16),
                Proto.UDP_NTP: PayloadProfile("low", (48,)),
                Proto.UDP_DHCP: PayloadProfile("low", (300,), 8),
            },
            window_profile=WindowProfile(8192, 0),
            session_length_distribution={2: 0.3, 4: 0.3, 6: 0.2, 8: 0.2},
        ),
    )


ARCHETYPES = {arch.name: arch for arch in _archetype_roster()}

TWIN_ARCHETYPE = "outlet"
CORPUS_PACKETS = 2500


def standard_corpus(seed: int) -> tuple:
    """Six archetypes plus an instance twin of one of them.

    Five categories, two archetypes sharing "light", and two "outlet"
    instances that differ only in MAC and generation seed.
    """
    entries = []
    for index, arch in enumerate(_archetype_roster()):
        frames, labels = generate_trace(arch, CORPUS_PACKETS, seed * 101 + index)
        entries.append(CorpusEntry(arch, "a", tuple(frames), tuple(labels)))
    twin = replace(ARCHETYPES[TWIN_ARCHETYPE], mac=bytes.fromhex("020000000607"))
    frames, labels = generate_trace(twin, CORPUS_PACKETS, seed * 101 + 999)
    entries.append(CorpusEntry(twin, "b", tuple(frames), tuple(labels)))
    return tuple(entries)
