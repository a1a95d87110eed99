import iotprint


def test_every_exported_name_resolves():
    missing = [name for name in iotprint.__all__ if not hasattr(iotprint, name)]
    assert missing == []
    assert len(set(iotprint.__all__)) == len(iotprint.__all__)
