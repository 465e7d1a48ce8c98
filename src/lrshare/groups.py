"""Share groups, repairing polynomials, and redundancy generation.

Participants are split into disjoint equal-size groups.  Each group's
repairing polynomial is the unique degree-(gamma-1) polynomial through its
gamma member share points; it exists only to repair shares and is a random
object with respect to the global secret.  Two redundancy flavors exist:

* strong redundancy: the full coefficient list, which alone determines
  every member share (built during setup only to draw the weak point;
  never placed anywhere, since it is as significant as all gamma shares);
* weak redundancy: one extra point on the polynomial at a fresh public
  abscissa, worth exactly one share.

The weak redundancy's value is the group sub-secret and is itself shared
with a (gamma, gamma+1) Shamir instance; gamma sub-shares stay with the
members and the last one is placed outside the group by the protocol
layer.  Repairing one lost member share takes the gamma-1 surviving member
points plus the weak-redundancy point, so repair never leaves the group
except for that single external sub-share.

Only setup builds a coefficient list (build_repair_function, for the weak
point's value).  Repair and sub-share restore need one value each, which
PrimeField.interpolate_at computes straight from the points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, InsufficientPointsError
from .field import PrimeField
# reconstruct_polynomial is unused here but bound on purpose: the
# benchmark's tracer (bench/tracer.py) wraps groups.reconstruct_polynomial.
from .shamir import Share, _checked_sorted, reconstruct_polynomial, split  # noqa: F401


@dataclass(frozen=True)
class GroupSpec:
    """A group's id and its member participant ids (ascending)."""

    group_id: int
    member_ids: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return len(self.member_ids)


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


def build_repair_function(field: PrimeField, member_shares: list[Share]) -> list[int]:
    """The group's repairing polynomial (constant term first): its strong
    redundancy, interpolated from the member points."""
    return field.poly_interpolate([(s.x, s.y) for s in member_shares])


def make_weak_redundancy(
    field: PrimeField,
    repair_function: list[int],
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
    return WeakRedundancy(x=x, y=field.poly_eval(repair_function, x))


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
    return split(field, sub_secret, gamma, gamma + 1, rng)


def _value_at(field: PrimeField, points: list[Share], gamma: int, x: int) -> int:
    """Value at x of the polynomial through the first gamma points in x order."""
    first = _checked_sorted(points)[:gamma]
    return field.interpolate_at([(s.x, s.y) for s in first], [x])[0]


def repair_share(
    field: PrimeField,
    surviving: list[Share],
    redundancy: WeakRedundancy,
    failed_x: int,
    gamma: int,
) -> int:
    """Recompute the exact y of a failed member share.

    Evaluates, at the failed x, the polynomial through gamma points (the
    surviving member shares plus the weak redundancy, the first gamma in x
    order) with PrimeField.interpolate_at: O(gamma^2) products and no
    coefficient list.  Repair must return the original point exactly; a
    fresh substitute share would break the global sharing, whose
    polynomial the group cannot see.

    Raises InsufficientPointsError when fewer than gamma points are
    available, i.e. more than one member of the group is missing at once.
    """
    points = [*surviving, Share(redundancy.x, redundancy.y)]
    if len(points) < gamma:
        raise InsufficientPointsError(
            f"repair needs {gamma} points, got {len(points)}"
            " (more than one failure in this group)"
        )
    return _value_at(field, points, gamma, failed_x)


def restore_subshare(
    field: PrimeField,
    subshares: list[Share],
    failed_sss_x: int,
    gamma: int,
) -> Share:
    """Rebuild a lost sub-share of the group's second sharing.

    With threshold gamma the sub-sharing polynomial has degree gamma-1, so
    any gamma sub-shares determine it; its value at the failed position is
    computed from the first gamma in x order with PrimeField.interpolate_at.
    Without this step a repaired node would come back without its sub-share
    and the group could not survive the next failure.
    """
    if len(subshares) < gamma:
        raise InsufficientPointsError(
            f"restore needs {gamma} sub-shares, got {len(subshares)}"
        )
    return Share(failed_sss_x, _value_at(field, subshares, gamma, failed_sss_x))
