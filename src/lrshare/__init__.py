"""Grouped threshold secret sharing with local share repair.

A (k, n) Shamir sharing whose participants are split into disjoint groups;
each group maintains a repairing polynomial through its share points so one
lost share is rebuilt by contacting only the group plus a single blindly
placed external sub-share, never k nodes and never the secret.  Includes a
deterministic simulated node network for the placement and repair protocol
and an analyzer that measures what compromised server sets can derive.
"""

from .errors import (
    AuthorizationError,
    ConfigurationError,
    CorruptShareError,
    DomainError,
    EnumerationLimitError,
    HolderLostError,
    InsufficientPointsError,
    InsufficientSharesError,
    IntegrityError,
    PlacementError,
    SharingError,
    StateFileError,
)
from .field import DEFAULT_MODULUS, PrimeField, is_probable_prime
from .groups import (
    make_weak_redundancy,
    members,
    repair_share,
    restore_subshare,
    setup_sss,
)
from .protocol import (
    NodeStore,
    SystemState,
    hash_identity,
    load_state,
    lookup_holder,
    mark_failed,
    recover_secret,
    request_repair,
    save_state,
    system_setup,
)
from .shamir import Share, recover, split
from .threat import (
    AttackerKnowledge,
    CompromiseModel,
    attacker_closure,
    mc_group_compromise,
    min_compromise_over_placements,
    min_compromise_search,
    p1_exact,
    p2_exact,
)

__version__ = "0.1.0"
