"""Share groups, repairing polynomials, and redundancy generation.

Participants 1..n are split into m disjoint groups of gamma = n/m
consecutive ids: group g's members are members(g, gamma), and
group_of(i, gamma) is the group of participant i.  Each group's repairing
polynomial is the unique degree-(gamma-1) polynomial through its gamma
member share points; it exists only to repair shares and is a random object
with respect to the global secret.  Two redundancy flavors exist:

* strong redundancy: the polynomial's coefficient list, which alone
  determines every member share; no command builds it (build_repair_function
  stays only as the tests' reference), let alone places it anywhere;
* weak redundancy: one extra point on the polynomial at a fresh public
  abscissa, a Share worth exactly one share.

The weak redundancy's value is the group sub-secret and is itself shared
with a (gamma, gamma+1) Shamir instance; gamma sub-shares stay with the
members and the last one is placed outside the group by the protocol
layer.  Repairing one lost member share takes the gamma-1 surviving member
points plus the weak-redundancy point, so repair never leaves the group
except for that single external sub-share.

Setup, repair and sub-share restore each need values at a few points,
which PrimeField.interpolate_at computes straight from the known points.
"""

from __future__ import annotations

import random

from .errors import ConfigurationError, DomainError, InsufficientPointsError
from .field import PrimeField
# reconstruct_polynomial is unused here but bound on purpose: the
# benchmark's tracer (bench/tracer.py) wraps groups.reconstruct_polynomial.
from .shamir import Share, _checked_sorted, reconstruct_polynomial, split  # noqa: F401


def members(group_id: int, gamma: int) -> range:
    """The ids of group group_id's members, in the order that gives the
    member at 1-based position i the sub-share at x = i."""
    return range((group_id - 1) * gamma + 1, group_id * gamma + 1)


def group_of(node_id: int, gamma: int) -> int:
    """The id of the group whose members() holds participant node_id."""
    return (node_id - 1) // gamma + 1


def build_repair_function(field: PrimeField, member_shares: list[Share]) -> list[int]:
    """The group's repairing polynomial (constant term first): its strong
    redundancy, interpolated from the member points.  No command calls it;
    it is the tests' reference for make_weak_redundancy."""
    return field.poly_interpolate([(s.x, s.y) for s in member_shares])


def make_weak_redundancy(
    field: PrimeField, member_shares: list[Share], rng: random.Random
) -> Share:
    """Draw the weak redundancy: a fresh point on the repairing polynomial
    through the member shares, returned as a Share whose y is the group
    sub-secret.

    The abscissa is uniform over the field minus zero and the members' own
    x values (uniqueness is per group).  The value there comes from
    PrimeField.interpolate_at over the member points.
    """
    points = [(s.x, s.y) for s in member_shares]
    forbidden = {0} | {x % field.modulus for x, _ in points}
    if len(forbidden) >= field.modulus:
        raise DomainError("no admissible x left for the weak redundancy")
    while True:
        x = rng.randrange(field.modulus)
        if x not in forbidden:
            break
    return Share(x, field.interpolate_at(points, [x])[0])


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


def _values_at(
    field: PrimeField, points: list[Share], gamma: int, targets: list[int]
) -> list[int]:
    """Values at the targets of the polynomial through the first gamma
    points in x order: one interpolate_at, so one set of weights."""
    first = _checked_sorted(points)[:gamma]
    return field.interpolate_at([(s.x, s.y) for s in first], targets)


def repair_share(
    field: PrimeField,
    surviving: list[Share],
    redundancy: Share,
    failed_x: int,
    gamma: int,
) -> int:
    """Recompute the exact y of a failed member share.

    Evaluates, at the failed x, the polynomial through gamma points (the
    surviving member shares plus the weak-redundancy point, the first gamma
    in x order) with PrimeField.interpolate_at: O(gamma^2) products and no
    coefficient list.  Repair must return the original point exactly; a
    fresh substitute share would break the global sharing, whose
    polynomial the group cannot see.

    Raises InsufficientPointsError when fewer than gamma points are
    available, i.e. more than one member of the group is missing at once.
    """
    points = [*surviving, redundancy]
    if len(points) < gamma:
        raise InsufficientPointsError(
            f"repair needs {gamma} points, got {len(points)}"
            " (more than one failure in this group)"
        )
    return _values_at(field, points, gamma, [failed_x])[0]


def restore_subshare(
    field: PrimeField,
    subshares: list[Share],
    failed_sss_x: int,
    gamma: int,
) -> tuple[int, Share]:
    """Rebuild a lost sub-share of the group's second sharing; returns the
    group sub-secret and the restored sub-share.

    With threshold gamma the sub-sharing polynomial has degree gamma-1, so
    any gamma sub-shares determine it.  Its values at zero (the sub-secret)
    and at the failed position come from the first gamma in x order, by
    one PrimeField.interpolate_at call, so a repair builds these weights
    once for both.  Without this step a repaired node would come back
    without its sub-share and the group could not survive the next failure.
    """
    if len(subshares) < gamma:
        raise InsufficientPointsError(
            f"restore needs {gamma} sub-shares, got {len(subshares)}"
        )
    sub_secret, y = _values_at(field, subshares, gamma, [0, failed_sss_x])
    return sub_secret, Share(failed_sss_x, y)
