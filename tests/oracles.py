"""Scalar and dense reference paths that the library's batch code replaced.

Each reads, labels or splits one thing at a time, the plain way, so the
tests can hold `pcap_io.read_capture`, `pcap_io.filter_device`,
`packet_model.parse_frame`, `features.shannon_entropy`,
`features.extract_features` (with its port table, here an if-ladder),
`features.frame_features`, `fingerprint.read_rows`,
`fingerprint.session_stats`, `model.predict(X)` and `ml._SplitSearch`
against them. `frame_features` is held frame by frame against
`parse_frame` and these per-packet rows: its skip mask, rows, ports and
located addresses.
"""

import struct
from pathlib import Path

import numpy as np

from iotprint import ml, pcap_io
from iotprint.packet_model import RawFrame


def read_capture(path) -> tuple:
    """(meta, list of `RawFrame`s), one frame built per record as it is read."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ValueError("file too short to hold a pcap magic number")
    magic = int.from_bytes(data[:4], "little")
    if magic == pcap_io._PCAPNG_BLOCK:
        raise ValueError("pcapng is not supported; convert to classic pcap first")
    if magic not in pcap_io._MAGIC_TABLE:
        raise ValueError(f"unrecognized magic 0x{magic:08X}")
    byte_order, resolution = pcap_io._MAGIC_TABLE[magic]
    endian = "<" if byte_order == "little" else ">"
    if len(data) < 24:
        raise ValueError("global header cut short")
    _, _, _, _, _, network = struct.unpack(endian + "HHiIII", data[4:24])
    if network != pcap_io.LINKTYPE_ETHERNET:
        raise ValueError(f"link type {network}; only Ethernet (1) is supported")

    frames = []
    truncated = 0
    pos = 24
    record = struct.Struct(endian + "IIII")
    while pos < len(data):
        if pos + 16 > len(data):
            truncated = 1
            break
        ts_sec, ts_frac, incl_len, orig_len = record.unpack_from(data, pos)
        pos += 16
        if pos + incl_len > len(data):
            truncated = 1
            break
        body = data[pos : pos + incl_len]
        pos += incl_len
        ts_usec = ts_frac // 1000 if resolution == "nano" else ts_frac
        frames.append(RawFrame(ts_sec, ts_usec, max(orig_len, incl_len), body))
    return pcap_io.CaptureMeta(truncated), frames


def filter_device(packets, sel) -> list:
    """The packets `sel.matches`, in order. A `RawFrame` (the selector is
    then MAC-only) matches when its bytes 0-6 or 6-12, where `parse_frame`
    reads the addresses, are the MAC."""

    def matches(pkt) -> bool:
        if isinstance(pkt, RawFrame):
            return sel.mac in (pkt.data[0:6], pkt.data[6:12])
        return sel.matches(pkt)

    return [pkt for pkt in packets if matches(pkt)]


def classify_app_protocols(layers, src_port, dst_port) -> frozenset:
    """The names of the application flags a packet's well-known ports set,
    for a packet with these `layers` names."""
    found = set()
    ports = (src_port, dst_port)
    if "tcp" in layers:
        if 80 in ports:
            found.add("http")
        if 443 in ports:
            found.add("https")
        if 53 in ports:
            found.add("dns")
    elif "udp" in layers:
        if 67 in ports or 68 in ports:
            found.add("dhcp")
            found.add("bootp")
        if 53 in ports:
            found.add("dns")
        if 123 in ports:
            found.add("ntp")
        if 1900 in ports:
            found.add("ssdp")
        if 5353 in ports:
            found.add("mdns")
    return frozenset(found)


# The application flags in row order, and every port `classify_app_protocols` names.
APP_FLAGS = ("http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp")
APP_PORTS = (53, 67, 68, 80, 123, 443, 1900, 5353)


def shannon_entropy(payload: bytes) -> float:
    """Byte-value Shannon entropy normalized to [0, 1].

    Computes -sum(p_i * log_256(p_i)) over the 256 byte values with
    p_i = count(i) / len(payload), as log2(m) - S / m, where S is the 1-D
    `.sum()` of the 256 terms t * log2(t) of the payload's byte counts t,
    a zero count giving the term 0. Evaluated in log2 so that the
    constant-payload (0.0) and uniform-256 (1.0) cases come out exact.
    Empty payload returns 0.
    """
    m = len(payload)
    if m == 0:
        return 0.0
    counts = np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256)
    nonzero = counts > 0
    t = counts[nonzero].astype(np.float64)
    terms = np.zeros(256)
    terms[nonzero] = t * np.log2(t)
    bits = float(np.log2(float(m))) - float(terms.sum()) / m
    return bits / 8.0


def extract_features(pkt) -> tuple:
    """One packet's 20 floats, every flag evaluated per packet."""
    layers = pkt.layers
    is_tcp = "tcp" in layers
    apps = classify_app_protocols(layers, pkt.src_port, pkt.dst_port)
    return (
        float("arp" in layers),
        float("ip" in layers),
        float("icmp" in layers),
        float("icmpv6" in layers),
        float("eapol" in layers),
        float(is_tcp),
        float("udp" in layers),
        *(float(app in apps) for app in APP_FLAGS),
        float("ip_padding" in layers),
        float("ip_router_alert" in layers),
        shannon_entropy(pkt.payload),
        float(len(pkt.payload)) if is_tcp else 0.0,
        float(pkt.tcp_window_size) if is_tcp else 0.0,
    )


def has_ports(pkt) -> bool:
    """Whether a parsed packet is TCP or UDP, the layers that carry ports."""
    return "tcp" in pkt.layers or "udp" in pkt.layers


def packet_ports(packets) -> np.ndarray:
    """The (n, 2) int64 ports matrix of parsed packets, one packet at a
    time: (src_port, dst_port) for TCP and UDP, (-1, -1) for the rest."""
    pairs = [(pkt.src_port, pkt.dst_port) if has_ports(pkt) else (-1, -1) for pkt in packets]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def session_stats(packets) -> tuple:
    """(total, sessions): the TCP and UDP packets, and the set of their
    unordered port pairs, counted one packet at a time."""
    pairs = [
        (min(pkt.src_port, pkt.dst_port), max(pkt.src_port, pkt.dst_port))
        for pkt in packets
        if has_ports(pkt)
    ]
    return len(pairs), len(set(pairs))


def predict_boosted(model, x) -> tuple:
    """(label, score) of one row, stage by stage; a score >= 0 maps to +1."""
    score = model.initial_score
    for feature, threshold, left, right in model.stages.tolist():
        leaf = left if x[int(feature)] <= threshold else right
        score += leaf
    return (1 if score >= 0 else -1), score


def predict_knn(model, x) -> int:
    """Label of one row by a stable sort of its summed squared differences.

    The kNN tie rule holds for the distances each path computes. The
    batch `ml.knn_labels` uses the expanded form |q|^2 + |r|^2 - 2 q.r,
    this oracle sums squared differences. Distances that are equal in
    exact arithmetic can round apart in one form and not the other, so
    on non-integer data with such ties the two can disagree; on small
    integer data both are exact and agree.
    """
    dist2 = ((model.rows - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=1)
    nearest = np.argsort(dist2, kind="stable")[: model.k]
    return 1 if int(model.labels[nearest].sum()) > 0 else -1


def predict_tree(model, x) -> int:
    """Label of one row, walked down the heap rows one split at a time."""
    node = 0
    while model.nodes[node, 0] >= 0:
        feature, threshold, _ = model.nodes[node]
        node = 2 * node + 1 if x[int(feature)] <= threshold else 2 * node + 2
    return int(model.nodes[node, 2])


def nested_tree(nodes, at=0):
    """A tree's heap rows from row `at` in the nested form of
    `grow_tree_with_dense_gini`: a leaf's label, or (feature, threshold,
    left, right)."""
    feature, threshold, label = nodes[at].tolist()
    if feature < 0:
        return int(label)
    return int(feature), threshold, nested_tree(nodes, 2 * at + 1), nested_tree(nodes, 2 * at + 2)


def predict_vote(model, x) -> int:
    """Majority label of a `VoteModel`'s three members for one row."""
    votes = predict_boosted(model.boosted, x)[0] + predict_knn(model.knn, x)
    return 1 if votes + predict_tree(model.tree, x) > 0 else -1


def dense_gini_split(X: np.ndarray, y: np.ndarray) -> tuple | None:
    """Best (feature, threshold) by weighted Gini impurity, or None.

    Scores every boundary of every column and masks the boundaries
    between equal values to -inf. Minimizing weighted impurity is
    equivalent to maximizing sum_side (pos^2 + neg^2) / n_side; ties
    resolve feature-major.
    """
    n = X.shape[0]
    if n < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    valid = xs[1:] > xs[:-1]
    if not valid.any():
        return None
    pos_sorted = (y[order] > 0).astype(np.float64)
    pos_left = np.cumsum(pos_sorted, axis=0)[:-1]
    total_pos = float((y > 0).sum())
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    neg_left = left_n - pos_left
    pos_right = total_pos - pos_left
    neg_right = right_n - pos_right
    score = (pos_left**2 + neg_left**2) / left_n + (pos_right**2 + neg_right**2) / right_n
    score[~valid] = -np.inf
    flat = int(np.argmax(score.T))
    feature, boundary = divmod(flat, score.shape[0])
    return feature, float(ml._midpoint(xs[boundary, feature], xs[boundary + 1, feature]))


def grow_tree_with_dense_gini(X: np.ndarray, y: np.ndarray, depth_left: int):
    """The tree `ml.train_tree` grows, with every split found by
    `dense_gini_split`, in the nested form of `nested_tree`."""
    majority = 1 if int(y.sum()) > 0 else -1
    if np.all(y == y[0]):
        return int(y[0])
    if depth_left == 0:
        return majority
    split = dense_gini_split(X, y)
    if split is None:
        return majority
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return (
        feature,
        threshold,
        grow_tree_with_dense_gini(X[mask], y[mask], depth_left - 1),
        grow_tree_with_dense_gini(X[~mask], y[~mask], depth_left - 1),
    )
