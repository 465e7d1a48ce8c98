"""Share groups, repairing polynomials, and redundancy generation.

Participants are split into disjoint equal-size groups.  Each group's
repairing polynomial is the unique degree-(gamma-1) polynomial through its
gamma member share points; it exists only to repair shares and is a random
object with respect to the global secret.  Two redundancy flavors exist:

* strong redundancy: the full coefficient list, which alone determines
  every member share (kept for analysis and tests; never placed anywhere
  by the protocol, since it is as significant as all gamma shares);
* weak redundancy: one extra point on the polynomial at a fresh public
  abscissa, worth exactly one share.

The weak redundancy's value is the group sub-secret and is itself shared
with a (gamma, gamma+1) Shamir instance; gamma sub-shares stay with the
members and the last one is placed outside the group by the protocol
layer.  Repairing one lost member share takes the gamma-1 surviving member
points plus the weak-redundancy point, so repair never leaves the group
except for that single external sub-share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, InsufficientPointsError
from .field import PrimeField
from .shamir import Share, SharingParams, reconstruct_polynomial, split


@dataclass(frozen=True)
class GroupSpec:
    """A group's id and its member participant ids (ascending)."""

    group_id: int
    member_ids: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class StrongRedundancy:
    """Full repairing-polynomial coefficient list (constant term first)."""

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class WeakRedundancy:
    """One extra point (x, y) on the repairing polynomial; y is the sub-secret."""

    x: int
    y: int


def partition(n: int, m: int) -> list[GroupSpec]:
    """Split participants 1..n into m equal groups of consecutive ids.

    Equal group sizes are required (n = m * gamma); anything else is a
    configuration error rather than a silently uneven split.
    """
    if m < 1:
        raise ConfigurationError(f"need at least one group, got m={m}")
    if n % m != 0:
        raise ConfigurationError(f"m={m} does not divide n={n}")
    gamma = n // m
    if gamma < 2:
        raise ConfigurationError(f"group size must be >= 2, got {gamma}")
    return [
        GroupSpec(group_id=g, member_ids=tuple(range((g - 1) * gamma + 1, g * gamma + 1)))
        for g in range(1, m + 1)
    ]


def build_repair_function(field: PrimeField, member_shares: list[Share]) -> StrongRedundancy:
    """Interpolate the group's member points into the repairing polynomial."""
    coeffs = field.poly_interpolate([(s.x, s.y) for s in member_shares])
    return StrongRedundancy(coefficients=tuple(coeffs))


def make_weak_redundancy(
    field: PrimeField,
    repair_function: StrongRedundancy,
    excluded_x: set[int],
    rng: random.Random,
) -> WeakRedundancy:
    """Draw a fresh point on the repairing polynomial.

    The abscissa is uniform over the field minus zero and the excluded set
    (the group's own member x values; uniqueness is per group).  The value
    is just the polynomial evaluated there.
    """
    forbidden = {0} | {x % field.modulus for x in excluded_x}
    if len(forbidden) >= field.modulus:
        raise DomainError("no admissible x left for the weak redundancy")
    while True:
        x = rng.randrange(field.modulus)
        if x not in forbidden:
            break
    return WeakRedundancy(x=x, y=field.poly_eval(list(repair_function.coefficients), x))


def setup_sss(
    field: PrimeField,
    sub_secret: int,
    gamma: int,
    rng: random.Random,
) -> list[Share]:
    """(gamma, gamma+1) second sharing of a group sub-secret.

    Sub-shares use x = 1..gamma+1 in the group's own namespace; the first
    gamma go to the members in order and the last is the external one.  The
    threshold equals the group size, so the members alone cannot rebuild
    the sub-secret: every recovery needs the external sub-share or all
    gamma members including the one being repaired.
    """
    if gamma < 2:
        raise ConfigurationError(f"group size must be >= 2, got {gamma}")
    params = SharingParams.with_default_assignment(k=gamma, n=gamma + 1)
    return split(field, sub_secret, params, rng)


def repair_share(
    field: PrimeField,
    surviving: list[Share],
    redundancy: WeakRedundancy,
    failed_x: int,
    gamma: int,
) -> int:
    """Recompute the exact y of a failed member share.

    Interpolates gamma points (the surviving member shares plus the weak
    redundancy) and evaluates at the failed x.  Repair must return the
    original point exactly; a fresh substitute share would break the global
    sharing, whose polynomial the group cannot see.

    Raises InsufficientPointsError when fewer than gamma points are
    available, i.e. more than one member of the group is missing at once.
    """
    points = [*surviving, Share(redundancy.x, redundancy.y)]
    if len(points) < gamma:
        raise InsufficientPointsError(
            f"repair needs {gamma} points, got {len(points)}"
            " (more than one failure in this group)"
        )
    poly = reconstruct_polynomial(field, points, gamma)
    return field.poly_eval(poly, failed_x)


def restore_subshare(
    field: PrimeField,
    subshares: list[Share],
    failed_sss_x: int,
    gamma: int,
) -> Share:
    """Rebuild a lost sub-share of the group's second sharing.

    With threshold gamma the sub-sharing polynomial has degree gamma-1, so
    any gamma sub-shares determine it; the failed position is re-evaluated
    on it.  Without this step a repaired node would come back without its
    sub-share and the group could not survive the next failure.
    """
    if len(subshares) < gamma:
        raise InsufficientPointsError(
            f"restore needs {gamma} sub-shares, got {len(subshares)}"
        )
    poly = reconstruct_polynomial(field, subshares, gamma)
    return Share(failed_sss_x, field.poly_eval(poly, failed_sss_x))
