import struct

import numpy as np
import pytest

from iotprint.packet_model import RawFrame, parse_frame
from iotprint.pcap_io import CaptureMeta, DeviceSelector, filter_device, read_capture, write_capture
from iotprint.synth import ARCHETYPES, generate_trace


def random_frames(n, seed=0, max_len=400):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        size = int(rng.integers(14, max_len))
        data = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        frames.append(RawFrame(int(rng.integers(0, 2**31)), int(rng.integers(0, 1_000_000)), size, data))
    return frames


def test_round_trip_preserves_bytes_and_timestamps(tmp_path):
    frames = random_frames(7, seed=1)
    path = tmp_path / "seven.pcap"
    assert write_capture(path, frames) == 7
    meta, back = read_capture(path)
    assert len(back) == 7
    assert meta.truncated_records == 0
    assert [(f.ts_sec, f.ts_usec, f.data) for f in back] == [
        (f.ts_sec, f.ts_usec, f.data) for f in frames
    ]


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    assert write_capture(path, []) == 0
    assert path.stat().st_size == 24
    meta, frames = read_capture(path)
    assert meta.truncated_records == 0 and list(frames) == []


def _encode(frames, endian, nano=False):
    magic = 0xA1B23C4D if nano else 0xA1B2C3D4
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for f in frames:
        frac = f.ts_usec * 1000 if nano else f.ts_usec
        out.append(struct.pack(endian + "IIII", f.ts_sec, frac, len(f.data), f.original_length))
        out.append(f.data)
    return b"".join(out)


def test_little_and_big_endian_read_identically(tmp_path):
    frames = random_frames(5, seed=2)
    le = tmp_path / "le.pcap"
    be = tmp_path / "be.pcap"
    le.write_bytes(_encode(frames, "<"))
    be.write_bytes(_encode(frames, ">"))
    meta_le, from_le = read_capture(le)
    meta_be, from_be = read_capture(be)
    assert meta_le == meta_be
    assert list(from_le) == list(from_be) == frames


def test_nanosecond_timestamps_truncate(tmp_path):
    frame = RawFrame(100, 1, 14, b"\x00" * 14)
    path = tmp_path / "nano.pcap"
    raw = bytearray(_encode([frame], "<", nano=True))
    # overwrite the fractional field with 1999 ns -> expect 1 µs
    struct.pack_into("<I", raw, 24 + 4, 1999)
    path.write_bytes(bytes(raw))
    _, frames = read_capture(path)
    assert list(frames) == [frame]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x01\x02\x03" + b"\x00" * 30)
    with pytest.raises(ValueError, match="^unrecognized magic 0x03020100$"):
        read_capture(path)


def test_pcapng_rejected_by_name(tmp_path):
    path = tmp_path / "ng.pcapng"
    path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 40)
    with pytest.raises(
        ValueError, match=r"^pcapng is not supported; convert to classic pcap first$"
    ):
        read_capture(path)


def test_unsupported_link_type(tmp_path):
    path = tmp_path / "wifi.pcap"
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 105)
    path.write_bytes(header)
    with pytest.raises(ValueError, match=r"^link type 105; only Ethernet \(1\) is supported$"):
        read_capture(path)


def test_global_header_cut_short(tmp_path):
    path = tmp_path / "cut.pcap"
    path.write_bytes(struct.pack("<I", 0xA1B2C3D4) + b"\x00" * 8)
    with pytest.raises(ValueError, match="^global header cut short$"):
        read_capture(path)


def test_truncated_record_returns_earlier_frames(tmp_path):
    frames = random_frames(3, seed=3)
    path = tmp_path / "trunc.pcap"
    data = _encode(frames, "<")
    path.write_bytes(data[:-5])  # cut the last record body 5 bytes short
    meta, back = read_capture(path)
    assert len(back) == 2
    assert meta.truncated_records == 1
    assert [f.data for f in back] == [f.data for f in frames[:2]]


def test_empty_last_record_at_end_of_file_is_read(tmp_path):
    # The last record is a bare 16-byte header (incl_len 0) that ends
    # exactly at end of file: it is a whole record, not a cut one.
    frames = random_frames(2, seed=4) + [RawFrame(5, 6, 0, b"")]
    path = tmp_path / "empty-last.pcap"
    path.write_bytes(_encode(frames, "<"))
    assert path.read_bytes().endswith(struct.pack("<IIII", 5, 6, 0, 0))
    meta, back = read_capture(path)
    assert meta.truncated_records == 0
    assert list(back) == frames


@pytest.mark.parametrize("endian", ["<", ">"], ids=["little-endian", "big-endian"])
def test_every_cut_of_a_capture_reads_its_whole_records_or_names_what_is_missing(
    tmp_path, endian
):
    """A file cut at each byte: under 4 bytes there is no magic, under 24
    no whole global header; past that the whole records are read, and a
    cut inside a record's header or body counts as the integer 1."""
    frames = [RawFrame(1, 2, 3, b"abc"), RawFrame(4, 5, 0, b""), RawFrame(6, 7, 20, bytes(14))]
    data = _encode(frames, endian)
    ends = [24, 24 + 19, 24 + 19 + 16, len(data)]  # where each whole record ends
    path = tmp_path / "cut.pcap"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        if cut < 24:
            message = "global header cut short"
            if cut < 4:
                message = "file too short to hold a pcap magic number"
            with pytest.raises(ValueError, match=f"^{message}$"):
                read_capture(path)
            continue
        meta, back = read_capture(path)
        whole = sum(end <= cut for end in ends) - 1
        assert repr(meta) == f"CaptureMeta(truncated_records={int(cut not in ends)})"
        assert list(back) == frames[:whole]


def test_holding_gives_the_indices_of_the_records_with_the_mac_at_0_or_6(tmp_path):
    """Records shorter than 6 (or 12) bytes hold no MAC at 0 (or 6), even
    when the bytes after them in the file (the next record's ts_sec) end it."""
    mac, other = bytes.fromhex("02000000a0a0"), bytes.fromhex("02ffee000001")
    bodies = [
        mac + other + b"\x08\x00",  # at 0
        other + mac,  # at 6, exactly 12 bytes
        other + other,
        mac[:5],  # cut inside the MAC at 0
        other + mac[:5],  # cut inside the MAC at 6
        mac,  # exactly 6 bytes: the MAC at 0
        b"",
        other + mac + b"\x00",
    ]
    path = tmp_path / "holding.pcap"
    write_capture(path, [RawFrame(mac[5], 0, len(body), body) for body in bodies])
    _, frames = read_capture(path)
    assert frames.holding(mac).tolist() == [0, 1, 5, 7]
    assert frames.holding(other).tolist() == [0, 1, 2, 4, 7]


def test_oversized_frame_rejected(tmp_path):
    frame = RawFrame(0, 0, 70000, b"\x00" * 70000)
    with pytest.raises(ValueError, match="65535"):
        write_capture(tmp_path / "big.pcap", [frame])


def _merged_two_device_packets():
    a = ARCHETYPES["constrained-bulb"]
    b = ARCHETYPES["speaker"]
    frames_a, labels_a = generate_trace(a, 120, seed=11)
    frames_b, labels_b = generate_trace(b, 120, seed=12)
    merged = []
    for pair in zip(frames_a, frames_b):
        merged.extend(pair)
    labels = []
    for pair in zip(labels_a, labels_b):
        labels.extend(pair)
    return a, [parse_frame(f) for f in merged], labels


def test_filter_device_recovers_ground_truth():
    arch, packets, labels = _merged_two_device_packets()
    kept = filter_device(packets, DeviceSelector(mac=arch.mac))
    expected = [p for p, lab in zip(packets, labels) if lab == arch.name]
    assert kept == expected


def test_filter_by_ip():
    arch, packets, labels = _merged_two_device_packets()
    kept = filter_device(packets, DeviceSelector(ip=arch.ip))
    # ARP frames carry no IP layer, so the IP selector sees a subset
    assert set(id(p) for p in kept) <= set(
        id(p) for p, lab in zip(packets, labels) if lab == arch.name
    )
    assert all(arch.ip in (p.src_ip, p.dst_ip) for p in kept)


def test_filter_output_is_subsequence():
    _, packets, _ = _merged_two_device_packets()
    kept = filter_device(packets, DeviceSelector(mac=ARCHETYPES["speaker"].mac))
    it = iter(packets)
    assert all(p in it for p in kept)


def test_disjoint_exhaustive_selectors_partition():
    _, packets, _ = _merged_two_device_packets()
    kept_a = filter_device(packets, DeviceSelector(mac=ARCHETYPES["constrained-bulb"].mac))
    kept_b = filter_device(packets, DeviceSelector(mac=ARCHETYPES["speaker"].mac))
    assert len(kept_a) + len(kept_b) == len(packets)
    ids_a = {id(p) for p in kept_a}
    assert all(id(p) not in ids_a for p in kept_b)


def test_writer_emits_exact_global_header(tmp_path):
    path = tmp_path / "hdr.pcap"
    write_capture(path, [])
    expected = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    assert path.read_bytes() == expected


def test_selector_requires_mac_or_ip():
    with pytest.raises(ValueError):
        DeviceSelector()
    with pytest.raises(ValueError):
        DeviceSelector(mac=b"\x00\x01")


def test_selector_refuses_an_ip_with_a_zone():
    """No captured address has a zone, so a zoned selector could never match."""
    for text in ("fe80::1%eth0", "fe80::1%1", "::ffff:1.2.3.4%x"):
        with pytest.raises(ValueError, match="has a zone"):
            DeviceSelector(ip=text)
    assert DeviceSelector(ip="FE80:0::1").ip == "fe80::1"


def test_capture_meta_is_plain_data():
    assert CaptureMeta().truncated_records == 0
    assert CaptureMeta(1) == CaptureMeta(truncated_records=1)
