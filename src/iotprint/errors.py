"""Exception types shared across the toolkit.

Everything here derives from IotprintError. The CLI reports these, and
`ValueError`, `OSError` and `MemoryError`, as data errors (exit 3).
"""


class IotprintError(Exception):
    """Base class for data-path errors raised by this package."""


class FrameTooShort(IotprintError):
    """Frame smaller than a minimal Ethernet II header (14 bytes)."""


class TruncatedHeader(IotprintError):
    """A claimed protocol header extends past the captured bytes."""


class BadMagic(IotprintError):
    """File does not start with a classic pcap magic number."""


class UnsupportedLinkType(IotprintError):
    """Capture link type is not Ethernet (LINKTYPE 1)."""


class TruncatedFile(IotprintError):
    """Capture global header is cut short."""


class EmptyInput(IotprintError):
    """An operation requiring at least one value received none."""


class InsufficientTraffic(IotprintError):
    """Fewer than five packets matched the device selector."""


class EmptyData(IotprintError):
    """Training dataset contains no rows."""


class SingleClassData(IotprintError):
    """Training dataset contains only one class label."""


class KTooLarge(IotprintError):
    """Requested neighbor count exceeds the training set size."""


class UnknownLabel(IotprintError):
    """Requested positive label not present among the profiles."""


class NoNegatives(IotprintError):
    """One-vs-all assembly found no negative instances."""


class ClassTooSmall(IotprintError):
    """A class has fewer members than the requested fold count."""
