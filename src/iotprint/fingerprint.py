"""Capture ingest, fingerprints, behavioral profiles, and session statistics.

`read_rows` turns a capture (or one device's share of it) into feature
rows and port pairs, every frame decoded in bulk by `frame_features`.
Profiles are built from `packets_from_capture`, which parses every frame
one at a time with `parse_frame`.

A fingerprint is the concatenation of 5 consecutive packets' feature
vectors (100 values, packet order preserved). A behavioral profile is
the labeled set of all fingerprints observed for one device.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .documents import int_in, load_doc, require, require_array, require_list, require_str, save_doc
from .features import (
    FEATURE_SCHEMA,
    FINGERPRINT_DIM,
    FINGERPRINT_PACKETS,
    PACKET_FEATURE_COUNT,
    extract_features,
    frame_features,
)
from .packet_model import FrameTooShort, TruncatedHeader, parse_frame
from .pcap_io import DeviceSelector, filter_device, read_capture

PROFILE_SCHEMA = "behavioral-profile/1"


@dataclass(frozen=True, eq=False)
class BehavioralProfile:
    """One device's fingerprints, an (n, FINGERPRINT_DIM) float64 matrix,
    with the names of the captures they came from and how many of those
    captures' frames did not decode."""

    device_label: str
    category_label: str
    fingerprints: np.ndarray
    captures: tuple
    skipped_frames: int = 0


def build_fingerprints(features: np.ndarray) -> np.ndarray:
    """Join consecutive fives of 20-value rows into 100-value rows.

    Returns an (n // 5, FINGERPRINT_DIM) matrix; the trailing remainder
    is dropped.
    """
    rows = np.asarray(features, dtype=np.float64).reshape(-1, PACKET_FEATURE_COUNT)
    whole = len(rows) - len(rows) % FINGERPRINT_PACKETS
    return rows[:whole].reshape(-1, FINGERPRINT_DIM)


def session_stats(ports: np.ndarray) -> tuple:
    """(total, sessions): the packets with ports, and how many unordered
    (src_port, dst_port) pairs they fall into.

    `ports` is `read_rows`' (n, 2) matrix, -1 in the rows of packets
    without ports."""
    pairs = np.sort(ports[ports[:, 0] >= 0], axis=1)
    return len(pairs), len(np.unique(pairs, axis=0))


def format_session_average(total: int, count: int) -> str:
    """`total / count` to two decimals, truncated rather than rounded
    (739 / 84 = 8.7976 -> 8.79); 0 sessions show 0.00.

    The cut is made in integers, so an exact quotient such as 23 / 5
    shows 4.60 (in floating point, 4.6 * 100 is 459.99...).
    """
    hundredths = total * 100 // count if count else 0
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def packets_from_capture(path: str | Path) -> tuple:
    """Read a capture and parse every frame, skipping undecodable ones.

    Returns (packets, skipped_count).
    """
    _, frames = read_capture(path)
    packets = []
    for frame in frames:
        try:
            packets.append(parse_frame(frame))
        except (FrameTooShort, TruncatedHeader):
            pass
    return packets, len(frames) - len(packets)


def read_rows(path: str | Path, sel: DeviceSelector | None = None) -> tuple:
    """The feature rows of a capture's packets, or of `sel`'s packets.

    Returns (features, ports, skipped): the (n, 20) matrix that
    `extract_features` gives for the packets `filter_device` keeps from
    parsing every frame, each packet's (src_port, dst_port) as an (n, 2)
    matrix (-1 for a packet without ports), and how many frames did not
    decode. `frame_features` decodes every frame in bulk. A MAC-only
    selector picks frames by their Ethernet addresses first, so only those
    are decoded and counted; a selector with an IP decodes every frame and
    matches its addresses where `parse_frame` reads them.
    """
    _, frames = read_capture(path)
    if sel is not None and sel.ip is None:
        frames = filter_device(frames, sel)
    skipped, rows, ports, ip_at, ip_width = frame_features(frames.data, *frames.records[:, :2].T)
    keep = ~skipped
    if sel is not None and sel.ip is not None:
        keep &= frames.addressed(sel, ip_at, ip_width)
    return rows[keep], ports[keep], int(skipped.sum())


def build_profile(
    capture: str | Path,
    sel: DeviceSelector,
    device_label: str,
    category_label: str,
) -> BehavioralProfile:
    """Full pipeline: read, parse, filter, extract, group into fingerprints."""
    packets, skipped = packets_from_capture(capture)
    matching = filter_device(packets, sel)
    if len(matching) < FINGERPRINT_PACKETS:
        raise ValueError(f"{len(matching)} matching packets; need at least {FINGERPRINT_PACKETS}")
    prints = build_fingerprints(extract_features(matching))
    return BehavioralProfile(device_label, category_label, prints, (Path(capture).name,), skipped)


def save_profile(profile: BehavioralProfile, path: str | Path) -> None:
    doc = {
        "schema": PROFILE_SCHEMA,
        "device_label": profile.device_label,
        "category_label": profile.category_label,
        "source": {
            "captures": list(profile.captures),
            "feature_schema": FEATURE_SCHEMA,
            "skipped_frames": profile.skipped_frames,
        },
        "fingerprints": profile.fingerprints.tolist(),
    }
    save_doc(path, doc)


def load_profile(path: str | Path) -> BehavioralProfile:
    return load_doc(path, _profile_from_doc, "profile")


def _profile_from_doc(doc) -> BehavioralProfile:
    """Rebuild a profile, rejecting any document `save_profile` could not have written."""
    if require(doc, "schema", "profile") != PROFILE_SCHEMA:
        raise ValueError(f"unsupported profile schema: {doc['schema']!r}")
    source = require(doc, "source", "profile")
    captures = require_list(source, "captures", "profile")
    if not all(isinstance(name, str) for name in captures):
        raise ValueError("profile captures must be strings")
    if require(source, "feature_schema", "profile") != FEATURE_SCHEMA:
        raise ValueError(f"unsupported feature schema: {source['feature_schema']!r}")
    skipped = int_in(require(source, "skipped_frames", "profile"), "skipped_frames", "profile", 0)
    for row in require_list(doc, "fingerprints", "profile"):
        if isinstance(row, list) and len(row) != FINGERPRINT_DIM:
            raise ValueError(f"fingerprint of {len(row)} values; expected {FINGERPRINT_DIM}")
    return BehavioralProfile(
        require_str(doc, "device_label", "profile"),
        require_str(doc, "category_label", "profile"),
        require_array(doc, "fingerprints", "profile", 2),
        tuple(captures),
        skipped,
    )
