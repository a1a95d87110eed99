"""Classic pcap reading/writing and per-device packet filtering.

Only classic pcap (wireshark's "libpcap" format) with Ethernet link type
is supported. Layout: 24-byte global header, then per record a 16-byte
header (ts_sec, ts_frac, incl_len, orig_len) followed by incl_len frame
bytes, all in the byte order announced by the magic number.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .packet_model import ParsedPacket, RawFrame

LINKTYPE_ETHERNET = 1
MAX_FRAME_BYTES = 65535

_MAGIC_MICRO = 0xA1B2C3D4
_PCAPNG_BLOCK = 0x0A0D0D0A

# magic as read little-endian -> (byte order, timestamp resolution)
_MAGIC_TABLE = {
    0xA1B2C3D4: ("little", "micro"),
    0xD4C3B2A1: ("big", "micro"),
    0xA1B23C4D: ("little", "nano"),
    0x4D3CB2A1: ("big", "nano"),
}


@dataclass(frozen=True)
class CaptureMeta:
    """What reading a capture found beyond its frames.

    truncated_records is 1 if a record's header or body was cut short at
    end of file, else 0: reading stops at the first cut record, and the
    frames before it are still returned.
    """

    truncated_records: int = 0


@dataclass(frozen=True)
class DeviceSelector:
    """Identifies one device by MAC and/or IP bytes (6; 4 or 16); either side may match."""

    mac: bytes | None = None
    ip: bytes | None = None

    def __post_init__(self) -> None:
        if self.mac is None and self.ip is None:
            raise ValueError("selector needs a MAC or an IP")
        if self.mac is not None and (not isinstance(self.mac, bytes) or len(self.mac) != 6):
            raise ValueError("MAC must be 6 bytes")
        if self.ip is not None and (not isinstance(self.ip, bytes) or len(self.ip) not in (4, 16)):
            raise ValueError("IP must be 4 or 16 bytes")

    def matches(self, pkt: ParsedPacket) -> bool:
        """A packet always has MACs, and has no IPs (None) without an IP header."""
        if self.mac in (pkt.src_mac, pkt.dst_mac):
            return True
        return self.ip is not None and self.ip in (pkt.src_ip, pkt.dst_ip)


class Frames:
    """The records of one capture, held as an int array over the file's bytes.

    An iterable with `len`: each `RawFrame` is built as iteration reaches
    it, so a caller that keeps a few frames pays only for those. `data` is
    the file's bytes and `records` has one row per record: body offset in
    `data`, captured length, ts_sec, ts_usec, original length.
    """

    __slots__ = ("data", "records")

    def __init__(self, data: bytes, records: np.ndarray) -> None:
        self.data = data
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def holding(self, mac: bytes) -> np.ndarray:
        """Indices of the records whose bytes 0-6 or 6-12 are `mac`.

        A record under 6 (or 12) bytes cannot hold the MAC there, so it is
        not compared.
        """
        raw = np.frombuffer(self.data, dtype=np.uint8)
        starts, lengths = self.records[:, 0], self.records[:, 1]
        hit = np.zeros(len(self), dtype=bool)
        for at in (0, 6):
            whole = np.flatnonzero(lengths >= at + 6)
            first = starts[whole] + at
            same = np.ones(len(whole), dtype=bool)
            for k, byte in enumerate(mac):
                same &= raw[first + k] == byte
            hit[whole[same]] = True
        return np.flatnonzero(hit)

    def addressed(
        self, sel: DeviceSelector, ip_at: np.ndarray, ip_width: np.ndarray
    ) -> np.ndarray:
        """Which records `sel.matches`: `holding` its MAC, or its IP as the source address
        at `ip_at` or the destination after it, of `ip_width` bytes (0 without them)."""
        packed = np.frombuffer(sel.ip, dtype=np.uint8)
        raw, span = np.frombuffer(self.data, dtype=np.uint8), np.arange(len(packed))
        hit = np.zeros(len(self), dtype=bool)
        for at in (ip_at, ip_at + len(packed)):
            hit |= (raw.take(at[:, None] + span, mode="clip") == packed).all(axis=1)
        hit &= ip_width == len(packed)
        if sel.mac is not None:
            hit[self.holding(sel.mac)] = True
        return hit

    def __iter__(self) -> Iterator[RawFrame]:
        data = self.data
        for start, length, ts_sec, ts_usec, original in self.records.tolist():
            yield RawFrame(ts_sec, ts_usec, original, data[start : start + length])


def read_capture(path: str | Path) -> tuple[CaptureMeta, Frames]:
    """Read a classic pcap file; timestamps normalized to microseconds.

    One pass over the 16-byte record headers finds every record; the
    frames come back as a `Frames` view over the file's bytes. Nanosecond
    captures are truncated (not rounded) to µs, and a record whose µs
    field is out of range raises ValueError. A record cut short by end of
    file stops reading and is counted in the returned meta rather than
    raising.
    """
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ValueError("file too short to hold a pcap magic number")
    magic = int.from_bytes(data[:4], "little")
    if magic == _PCAPNG_BLOCK:  # the pcapng section header is a palindrome
        raise ValueError("pcapng is not supported; convert to classic pcap first")
    if magic not in _MAGIC_TABLE:
        raise ValueError(f"unrecognized magic 0x{magic:08X}")
    byte_order, resolution = _MAGIC_TABLE[magic]
    endian = "<" if byte_order == "little" else ">"
    if len(data) < 24:
        raise ValueError("global header cut short")
    _, _, _, _, _, network = struct.unpack(endian + "HHiIII", data[4:24])
    if network != LINKTYPE_ETHERNET:
        raise ValueError(f"link type {network}; only Ethernet (1) is supported")

    heads: list[int] = []  # offset of each whole record's header
    pos, end = 24, len(data)
    incl_len_at = struct.Struct(endian + "I").unpack_from
    while pos + 16 <= end:
        body_end = pos + 16 + incl_len_at(data, pos + 8)[0]
        if body_end > end:
            break
        heads.append(pos)
        pos = body_end
    truncated = int(pos < end)  # reading stopped inside a record's header or body
    starts = np.array(heads, dtype=np.int64)
    header_bytes = np.frombuffer(data, dtype=np.uint8)[starts[:, None] + np.arange(16)]
    ts_sec, ts_frac, incl_len, orig_len = header_bytes.view(endian + "u4").astype(np.int64).T
    ts_usec = ts_frac // 1000 if resolution == "nano" else ts_frac
    if (ts_usec >= 1_000_000).any():
        raise ValueError("ts_usec out of range")
    records = np.column_stack(
        [starts + 16, incl_len, ts_sec, ts_usec, np.maximum(orig_len, incl_len)]
    )
    return CaptureMeta(truncated), Frames(data, records)


def write_capture(path: str | Path, frames: Iterable[RawFrame]) -> int:
    """Write frames as a little-endian microsecond pcap; returns the count."""
    chunks = [struct.pack("<IHHiIII", _MAGIC_MICRO, 2, 4, 0, 0, MAX_FRAME_BYTES, LINKTYPE_ETHERNET)]
    count = 0
    for frame in frames:
        if frame.capture_length > MAX_FRAME_BYTES:
            raise ValueError(f"frame of {frame.capture_length} bytes exceeds {MAX_FRAME_BYTES}")
        chunks.append(
            struct.pack(
                "<IIII", frame.ts_sec, frame.ts_usec, frame.capture_length, frame.original_length
            )
        )
        chunks.append(frame.data)
        count += 1
    Path(path).write_bytes(b"".join(chunks))
    return count


def filter_device(
    packets: Frames | Iterable[ParsedPacket], sel: DeviceSelector
) -> Frames | list:
    """Keep packets flowing into or out of the selected device, in order.

    `packets` are parsed packets, kept in a list, or the `Frames` of a
    capture when `sel` is MAC-only: then the addresses of all records are
    compared at once, by the bytes `parse_frame` reads them from, and the
    matching records come back as a `Frames`.
    """
    if isinstance(packets, Frames):
        return Frames(packets.data, packets.records[packets.holding(sel.mac)])
    return [pkt for pkt in packets if sel.matches(pkt)]
