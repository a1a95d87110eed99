import pytest

from iotprint import synth
from iotprint.fingerprint import build_profile
from iotprint.pcap_io import DeviceSelector, write_capture

CORPUS_SEED = 7
EVAL_SEED = 3


@pytest.fixture(scope="session")
def corpus():
    return synth.standard_corpus(CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_profiles(corpus, tmp_path_factory):
    """Each entry written as a pcap and profiled by its MAC, as `iotprint profile` does."""
    out = tmp_path_factory.mktemp("corpus")
    profiles = []
    for entry in corpus:
        arch = entry.archetype
        pcap = out / f"{arch.name}-{entry.instance}.pcap"
        write_capture(pcap, entry.frames)
        profiles.append(build_profile(pcap, DeviceSelector(mac=arch.mac), arch.name, arch.category))
    return profiles


@pytest.fixture(scope="session")
def base_profiles(corpus_profiles):
    """One profile per archetype, instance twins excluded."""
    return corpus_profiles[:6]
