"""Exception hierarchy shared by every module.

All package errors derive from SharingError so callers can catch broadly;
the CLI maps subclasses onto its exit-code contract (configuration errors
exit 2, unreadable state files and plain OSError exit 3, everything else
protocol/math exits 4).
"""


class SharingError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SharingError, ValueError):
    """Mathematically invalid input (zero inverse, duplicate x, bad range)."""


class ConfigurationError(DomainError):
    """Invalid system parameters (thresholds, group counts, divisibility)."""


class StateFileError(SharingError):
    """A state file is not valid JSON, lacks a required entry, or holds a
    value outside its fixed set (such as an unknown placement mode)."""


class InsufficientSharesError(SharingError):
    """Fewer shares supplied than the recovery threshold requires."""


class InsufficientPointsError(SharingError):
    """Not enough points to pin down a repairing or sub-sharing polynomial."""


class CorruptShareError(SharingError):
    """A supplied share is inconsistent with the polynomial the others define."""


class AuthorizationError(SharingError):
    """A repair request failed identity or group-member authorization."""


class PlacementError(SharingError):
    """The placement rounds ran out before an admissible holder map was drawn."""


class HolderLostError(SharingError):
    """No node answered a digest broadcast (external sub-share lost)."""


class IntegrityError(SharingError):
    """A group's external sub-share has more than one holder."""


class EnumerationLimitError(SharingError):
    """System too large for exhaustive compromise-set enumeration."""
