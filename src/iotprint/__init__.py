"""iotprint: IoT device-type fingerprinting from network captures.

Pipeline: read pcap -> parse frames -> extract 20-value per-packet
feature vectors -> group 5 consecutive packets into 100-value
fingerprints -> train one-vs-all classifiers over behavioral profiles.
"""

from .errors import IotprintError
from .evaluation import (
    ConfusionCounts,
    EvaluationReport,
    FoldPlan,
    Metrics,
    assemble_one_vs_all,
    metrics,
    run_experiment,
    stratified_folds,
    variant_columns,
)
from .features import (
    FEATURE_NAMES,
    PACKET_FEATURE_COUNT,
    ecdf,
    extract_features,
    shannon_entropy,
)
from .fingerprint import (
    FINGERPRINT_DIM,
    BehavioralProfile,
    SessionStats,
    build_fingerprints,
    build_profile,
    load_profile,
    save_profile,
    session_stats,
)
from .ml import (
    BoostedModel,
    KnnModel,
    LabeledDataset,
    Stump,
    TreeModel,
    VoteModel,
    load_model,
    save_model,
    train_boosted,
    train_knn,
    train_tree,
)
from .packet_model import (
    AppProtocol,
    IpOption,
    Network,
    ParsedPacket,
    RawFrame,
    Transport,
    classify_app_protocols,
    parse_frame,
)
from .pcap_io import CaptureMeta, DeviceSelector, filter_device, read_capture, write_capture
from .synth import ARCHETYPES, DeviceArchetype, generate_trace, standard_corpus

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES",
    "AppProtocol",
    "BehavioralProfile",
    "BoostedModel",
    "CaptureMeta",
    "ConfusionCounts",
    "DeviceArchetype",
    "DeviceSelector",
    "EvaluationReport",
    "FEATURE_NAMES",
    "FINGERPRINT_DIM",
    "FoldPlan",
    "IotprintError",
    "IpOption",
    "KnnModel",
    "LabeledDataset",
    "Metrics",
    "Network",
    "PACKET_FEATURE_COUNT",
    "ParsedPacket",
    "RawFrame",
    "SessionStats",
    "Stump",
    "Transport",
    "TreeModel",
    "VoteModel",
    "assemble_one_vs_all",
    "build_fingerprints",
    "build_profile",
    "classify_app_protocols",
    "ecdf",
    "extract_features",
    "filter_device",
    "generate_trace",
    "load_model",
    "load_profile",
    "metrics",
    "parse_frame",
    "read_capture",
    "run_experiment",
    "save_model",
    "save_profile",
    "session_stats",
    "shannon_entropy",
    "standard_corpus",
    "stratified_folds",
    "train_boosted",
    "train_knn",
    "train_tree",
    "variant_columns",
    "write_capture",
]
