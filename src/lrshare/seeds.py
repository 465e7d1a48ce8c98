"""Named deterministic randomness streams.

Every random choice in the package flows from one master seed through a
labeled sub-stream, so components draw independently and reordering one
component cannot perturb another.  No ambient entropy is used anywhere.
"""

from __future__ import annotations

import hashlib
import random

from .errors import ConfigurationError


def derive_seed(master_seed: int, label: str) -> int:
    """64-bit child seed for the given stream label.  A master seed that is
    not an int (None, a bool, 7.5 or "7") raises ConfigurationError."""
    if type(master_seed) is not int:
        raise ConfigurationError(f"seed {master_seed!r} is not an int")
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master_seed: int, label: str) -> random.Random:
    """Independent Random instance for the given stream label."""
    return random.Random(derive_seed(master_seed, label))
