"""iotprint: IoT device-type fingerprinting from network captures.

Pipeline: read pcap -> parse frames -> extract 20-value per-packet
feature vectors -> group 5 consecutive packets into 100-value
fingerprints -> train one-vs-all classifiers over behavioral profiles.
"""

__version__ = "0.1.0"
