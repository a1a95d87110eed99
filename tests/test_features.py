import io
import itertools
import math
import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iotprint import features
from iotprint.features import (
    ENTROPY_CHUNK,
    FEATURE_NAMES,
    HEADER_FLAG_COUNT,
    PACKET_FEATURE_COUNT,
    ecdf,
    extract_features,
    frame_features,
    shannon_entropy,
    write_features_csv,
)
from iotprint.packet_model import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    ParsedPacket,
    RawFrame,
    parse_frame,
)
from iotprint.synth import ARCHETYPES, generate_trace


def tally_entropy_oracle(payload):
    """Direct frequency tally with the natural-log / ln(256) formula."""
    if not payload:
        return 0.0
    counts = {}
    for byte in payload:
        counts[byte] = counts.get(byte, 0) + 1
    m = len(payload)
    total = 0.0
    for c in counts.values():
        p = c / m
        total -= p * (math.log(p) / math.log(256))
    return total


def test_entropy_exact_values():
    values = shannon_entropy([b"\x41" * 64, bytes(range(256)), b"\x00\xff", b""])
    assert values.dtype == np.float64
    assert values.tolist() == [0.0, 1.0, 0.125, 0.0]


def test_entropy_matches_tally_oracle():
    rng = np.random.default_rng(42)
    payloads = [
        bytes(rng.integers(0, 256, size=int(rng.integers(0, 801)), dtype=np.uint8))
        for _ in range(200)
    ]
    for value, payload in zip(shannon_entropy(payloads).tolist(), payloads):
        assert abs(value - tally_entropy_oracle(payload)) <= 1e-12


@given(data=st.binary(max_size=400), seed=st.integers(0, 2**31))
def test_entropy_permutation_invariant(data, seed):
    shuffled = bytes(
        np.random.default_rng(seed).permutation(np.frombuffer(data, dtype=np.uint8).copy())
    )
    one, other = shannon_entropy([shuffled, data]).tolist()
    assert one == other


@settings(deadline=None)
@given(data=st.binary(min_size=1, max_size=300))
def test_entropy_doubling_invariant(data):
    doubled, single = shannon_entropy([data + data, data]).tolist()
    assert doubled == pytest.approx(single, abs=1e-12)


def test_empty_inputs_give_empty_results():
    assert shannon_entropy([]).shape == (0,)
    rows = extract_features([])
    assert rows.shape == (0, PACKET_FEATURE_COUNT) and rows.dtype == np.float64


# Distinct-byte counts on both sides of numpy's pairwise-sum thresholds
# (unrolled by 8, blocks of 128), where a changed summation order shows.
_DISTINCT_COUNTS = (0, 1, 7, 8, 9, 127, 128, 129, 255, 256)


def _payload_with(rng, distinct: int, length: int) -> bytes:
    """`distinct` different byte values, each at least once, `length` bytes or more."""
    alphabet = rng.permutation(256)[:distinct].astype(np.uint8)
    extra = rng.choice(alphabet, max(length - distinct, 0)) if distinct else alphabet
    return bytes(rng.permutation(np.concatenate([alphabet, extra])))


@st.composite
def _payloads(draw):
    distinct = draw(st.sampled_from(_DISTINCT_COUNTS) | st.integers(0, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _payload_with(rng, distinct, draw(st.integers(0, 1500)))


def _bit_identical_to_oracle(payloads) -> bool:
    want = np.array([oracles.shannon_entropy(p) for p in payloads], dtype=np.float64)
    return shannon_entropy(payloads).tobytes() == want.tobytes()


@settings(deadline=None)
@given(payloads=st.lists(_payloads(), max_size=40), chunk=st.sampled_from([1, 3, ENTROPY_CHUNK]))
def test_batch_entropy_is_bit_identical_to_the_scalar_oracle(payloads, chunk):
    with mock.patch.object(features, "ENTROPY_CHUNK", chunk):
        assert _bit_identical_to_oracle(payloads)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(ENTROPY_CHUNK + 1, 3 * ENTROPY_CHUNK))
def test_batch_entropy_is_bit_identical_across_blocks_of_mixed_lengths(seed, n):
    rng = np.random.default_rng(seed)
    distinct = rng.choice(_DISTINCT_COUNTS, n)
    lengths = rng.integers(0, 1500, n) * (rng.random(n) > 0.1)  # about one in ten empty
    payloads = [_payload_with(rng, int(d), int(m)) if m else b"" for d, m in zip(distinct, lengths)]
    assert _bit_identical_to_oracle(payloads)


def test_entropy_working_memory_does_not_grow_with_payload_bytes():
    """A block holds at most ENTROPY_CHUNK * 256 payload bytes, so 2 MiB of
    payloads are counted in blocks of 32 here, not in one block of 16 MiB of keys."""
    rng = np.random.default_rng(9)
    payloads = [bytes(rng.integers(0, 256, 4096, dtype=np.uint8)) for _ in range(ENTROPY_CHUNK)]
    tracemalloc.start()
    try:
        shannon_entropy(payloads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_entropy_working_memory_does_not_grow_with_payload_count():
    """A block also holds at most ENTROPY_CHUNK payloads, so 8192 one-byte
    payloads are counted in 16 blocks, not in one (8192, 256) count matrix."""
    payloads = [bytes([i % 256]) for i in range(16 * ENTROPY_CHUNK)]
    tracemalloc.start()
    try:
        shannon_entropy(payloads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _blocks(lengths) -> list:
    """(payloads, bytes) of each entropy block, filled greedily: a block takes
    the next payload while it holds fewer than ENTROPY_CHUNK payloads and the
    payload's bytes fit in ENTROPY_CHUNK * 256, and always takes one."""
    blocks, bound = [], features.ENTROPY_CHUNK * 256
    for m in lengths:
        count, size = blocks[-1] if blocks else (features.ENTROPY_CHUNK, 0)
        if count < features.ENTROPY_CHUNK and size + m <= bound:
            blocks[-1] = (count + 1, size + m)
        else:
            blocks.append((1, m))
    return blocks


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(0, 2000), max_size=40), chunk=st.sampled_from([1, 3, 5]))
def test_entropy_blocks_are_as_large_as_their_bounds_allow(lengths, chunk):
    """Each block is counted by one `bincount` of its payloads' bytes."""
    payloads = [bytes(m) for m in lengths]
    with mock.patch.object(features, "ENTROPY_CHUNK", chunk):
        with mock.patch.object(np, "bincount", wraps=np.bincount) as counted:
            shannon_entropy(payloads)
        want = _blocks(lengths)
    seen = [(call.kwargs["minlength"] // 256, len(call.args[0])) for call in counted.call_args_list]
    assert seen == want


def test_entropy_at_its_count_and_block_boundaries():
    """A deterministic sweep: empty payloads; 1 and 256 distinct values at
    counts around 256; a block of exactly ENTROPY_CHUNK payloads and one of
    exactly ENTROPY_CHUNK * 256 bytes, each with one payload more; and one
    payload longer than ENTROPY_CHUNK * 256 bytes between short ones."""
    rng = np.random.default_rng(11)
    constant = [b"\x07" * m for m in (1, 2, 255, 256, 257)]
    uniform = [bytes(range(256)) * r for r in (1, 2, 3)]
    mixed = [bytes(range(256)) + b"\x00", bytes(range(256))[::-1] * 2 + b"\xff\xfe"]
    cases = {
        "empty": [b"", b"", b"\x01", b""],
        "one and 256 values": constant + uniform + mixed,
        "chunk of payloads": [_payload_with(rng, 9, 8) for _ in range(ENTROPY_CHUNK + 1)],
        "chunk of bytes": [_payload_with(rng, 200, 256 * 64)[: 256 * 64] for _ in range(9)],
        "one long payload": [b"ab", _payload_with(rng, 256, ENTROPY_CHUNK * 256 + 1), b"\x00"],
    }
    for name, payloads in cases.items():
        assert _bit_identical_to_oracle(payloads), name
        with mock.patch.object(np, "bincount", wraps=np.bincount) as counted:
            shannon_entropy(payloads)
        seen = [(c.kwargs["minlength"] // 256, len(c.args[0])) for c in counted.call_args_list]
        assert seen == _blocks(map(len, payloads)), name
    values = shannon_entropy(constant + uniform + [b""]).tolist()
    assert values == [0.0] * len(constant) + [1.0] * len(uniform) + [0.0]


def test_batch_entropy_is_bit_identical_on_every_corpus_payload(corpus):
    for entry in corpus:
        assert _bit_identical_to_oracle([parse_frame(frame).payload for frame in entry.frames])


def _packet(**overrides):
    base = dict(
        src_mac=b"\x02" + b"\x00" * 5,
        dst_mac=b"\x04" + b"\x00" * 5,
        layers=frozenset({"ip"}),
        payload=b"",
    )
    base.update(overrides)
    return ParsedPacket(**base)


def test_extract_eapol_only_flag():
    pkt = _packet(layers=frozenset({"eapol"}), payload=b"\x01\x02\x03\x04")
    (feat,) = extract_features([pkt]).tolist()
    assert feat[:HEADER_FLAG_COUNT] == [0, 0, 0, 0, 1] + [0] * 12
    assert feat[17] == shannon_entropy([b"\x01\x02\x03\x04"])[0]
    assert feat[18] == 0 and feat[19] == 0


def test_extract_tcp_http_packet():
    pkt = _packet(
        layers=frozenset({"ip", "tcp"}),
        src_port=50000,
        dst_port=80,
        tcp_window_size=8192,
        payload=b"z" * 100,
    )
    (feat,) = extract_features([pkt]).tolist()
    names_on = {FEATURE_NAMES[i] for i, v in enumerate(feat[:HEADER_FLAG_COUNT]) if v}
    assert names_on == {"ip", "tcp", "http"}
    assert feat[18] == 100
    assert feat[19] == 8192


def test_extract_udp_mdns_zeroes_tcp_fields():
    pkt = _packet(
        layers=frozenset({"ip", "udp"}),
        src_port=5353,
        dst_port=5353,
        payload=b"m" * 40,
    )
    (feat,) = extract_features([pkt]).tolist()
    names_on = {FEATURE_NAMES[i] for i, v in enumerate(feat[:HEADER_FLAG_COUNT]) if v}
    assert names_on == {"ip", "udp", "mdns"}
    assert feat[18] == 0 and feat[19] == 0


def test_flag_exclusivity_on_generated_traffic():
    idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
    for arch in (ARCHETYPES["hub-conduit"], ARCHETYPES["outlet"]):
        frames, _ = generate_trace(arch, 300, seed=5)
        for flags in extract_features([parse_frame(frame) for frame in frames]):
            assert flags[idx["tcp"]] + flags[idx["udp"]] <= 1
            assert flags[idx["arp"]] + flags[idx["eapol"]] + flags[idx["ip"]] <= 1


def test_rows_match_the_per_packet_expressions_on_every_layer_combination():
    """Every network x transport x IP option subset of the layer names; TCP
    and UDP packets with each well-known port against an unlisted one, on
    either side. The TCP window is a well-known port too, which no
    application flag reads."""
    options = [set(), {"ip_padding"}, {"ip_router_alert"}, {"ip_padding", "ip_router_alert"}]
    unlisted = 40000
    pairs = [(unlisted, unlisted)]
    pairs += [pair for port in oracles.APP_PORTS for pair in ((port, unlisted), (unlisted, port))]
    packets = []
    networks, transports = ["arp", "ip", "eapol", None], ["tcp", "udp", "icmp", "icmpv6", None]
    for network, transport, ip_options in itertools.product(networks, transports, options):
        layers = frozenset({network, transport} - {None} | ip_options)
        for src_port, dst_port in pairs if transport in ("tcp", "udp") else [(None, None)]:
            packets.append(
                _packet(
                    layers=layers,
                    src_port=src_port,
                    dst_port=dst_port,
                    tcp_window_size=443 if transport == "tcp" else None,
                    payload=b"ab",
                )
            )
    want = np.array([oracles.extract_features(pkt) for pkt in packets], dtype=np.float64)
    assert extract_features(packets).tobytes() == want.tobytes()
    assert want[:, 7:HEADER_FLAG_COUNT - 2].sum() > 0  # the sweep sets application flags


def _ported_frame(proto: int, src_port: int, dst_port: int, window: int) -> bytes:
    """An untagged IPv4 frame carrying a TCP (with `window`) or UDP header with these ports."""
    payload = b"payload"
    if proto == IPPROTO_TCP:
        header = struct.pack("!HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, 0x18, window, 0, 0)
    else:
        header = struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0)
    segment = header + payload
    ip = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(segment), 0, 0, 64, proto, 0)
    addresses = bytes([10, 0, 0, 2, 10, 0, 0, 3])
    return bytes(range(6)) + bytes(range(6, 12)) + b"\x08\x00" + ip + addresses + segment


def test_bulk_rows_of_every_well_known_port_match_the_parsed_rows():
    """TCP and UDP frames with each well-known port at either end decode in
    bulk to the rows `extract_features` gives their parsed packets; a TCP
    window of 0 stays 0."""
    frames = [
        _ported_frame(proto, *pair, window)
        for proto in (IPPROTO_TCP, IPPROTO_UDP)
        for port in oracles.APP_PORTS
        for pair, window in (((port, 40000), 0), ((40000, port), 8192))
    ]
    starts = np.cumsum([0] + [len(f) for f in frames])[:-1]
    lengths = np.array([len(f) for f in frames])
    skipped, rows, _, _, _ = frame_features(b"".join(frames), starts, lengths)
    packets = [parse_frame(RawFrame(0, 0, len(f), f)) for f in frames]
    assert not skipped.any()
    assert rows.tobytes() == extract_features(packets).tobytes()
    want = np.array([oracles.extract_features(pkt) for pkt in packets], dtype=np.float64)
    assert rows.tobytes() == want.tobytes()


def test_vector_layout():
    tcp = frozenset({"ip", "tcp"})
    pkt = _packet(layers=tcp, src_port=1, dst_port=2, tcp_window_size=7, payload=b"ab")
    rows = extract_features([pkt])
    assert rows.shape == (1, PACKET_FEATURE_COUNT)
    vec = rows[0]
    assert vec[HEADER_FLAG_COUNT] == shannon_entropy([b"ab"])[0]
    assert vec[18] == 2.0 and vec[19] == 7.0


def test_ecdf_single_value():
    assert ecdf([5]) == [(5.0, 1.0)]


def test_ecdf_counts_duplicates():
    assert ecdf([1, 2, 2, 4]) == [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]


def test_ecdf_uniform_close_to_identity():
    values = np.random.default_rng(3).uniform(0, 1, size=10000)
    pairs = ecdf(values)
    deviation = max(abs(p - v) for v, p in pairs)
    assert deviation < 0.05


def test_ecdf_monotone_and_bounded():
    values = np.random.default_rng(4).normal(size=500)
    pairs = ecdf(values)
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pairs, pairs[1:]))
    assert all(0 < p <= 1 for _, p in pairs)
    assert pairs[-1][1] == 1.0


def test_ecdf_empty_input():
    with pytest.raises(ValueError, match="^ecdf needs at least one value$"):
        ecdf([])


def test_features_invariants_hold():
    for arch in ARCHETYPES.values():
        frames, _ = generate_trace(arch, 200, seed=6)
        rows = extract_features([parse_frame(frame) for frame in frames])
        assert rows.shape == (len(frames), PACKET_FEATURE_COUNT) and rows.dtype == np.float64
        for row in rows.tolist():
            assert set(row[:HEADER_FLAG_COUNT]) <= {0.0, 1.0}
            assert 0.0 <= row[17] <= 1.0
            assert row[18] >= 0 and row[19] >= 0


def test_csv_rendering_round_trips_floats():
    pkt = _packet(
        layers=frozenset({"ip", "tcp"}),
        src_port=1,
        dst_port=2,
        tcp_window_size=3,
        payload=b"\x00\x01\x02",
    )
    rows = extract_features([pkt, pkt])
    feat = rows[0]
    out = io.StringIO()
    write_features_csv(rows, out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0].startswith("# schema: packet-features/")
    assert lines[1] == ",".join(FEATURE_NAMES)
    assert len(lines) == 4
    entropy_field = lines[2].split(",")[17]
    assert float(entropy_field) == feat[17]


def test_csv_of_200k_rows_is_written_in_bounded_memory():
    """The CSV is formatted a block of rows at a time, not built whole:
    the text of 200,000 rows is about 9 MB, and their 4 million values as
    Python floats take over 100 MB."""
    rows = np.zeros((200_000, PACKET_FEATURE_COUNT))
    rows[:, 17] = np.random.default_rng(5).random(len(rows))
    with open(os.devnull, "w", encoding="ascii") as out:
        tracemalloc.start()
        try:
            write_features_csv(rows, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 << 20
