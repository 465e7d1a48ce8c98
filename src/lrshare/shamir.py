"""Shamir (k, n) threshold secret sharing over a prime field.

Used twice by the wider system: once for the global secret, and once per
group as the second sharing that distributes the group's sub-secret.  The
secret is a single field element; a share is a public nonzero x paired
with a private y on a random degree-(k-1) polynomial f with f(0) = secret.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    ConfigurationError,
    CorruptShareError,
    DomainError,
    InsufficientSharesError,
)
from .field import PrimeField

@dataclass(frozen=True, order=True)
class Share:
    """One share: public abscissa x (nonzero), private value y."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0:
            raise DomainError("x = 0 is reserved for the secret position")


@dataclass(frozen=True)
class SharingParams:
    """Threshold k, share count n, and the public x for each participant.

    x_assignment lists the share abscissas in participant order; they must
    be distinct and nonzero (x = 0 is reserved for the secret position).
    """

    k: int
    n: int
    x_assignment: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ConfigurationError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.x_assignment) != self.n:
            raise ConfigurationError(
                f"x_assignment has {len(self.x_assignment)} entries, expected {self.n}"
            )
        if 0 in self.x_assignment:
            raise ConfigurationError("x = 0 is reserved for the secret")
        if len(set(self.x_assignment)) != self.n:
            raise ConfigurationError("x_assignment values must be distinct")

    @classmethod
    def with_default_assignment(cls, k: int, n: int) -> "SharingParams":
        """Participant P_i gets x_i = i (1-based)."""
        return cls(k=k, n=n, x_assignment=tuple(range(1, n + 1)))


def split(
    field: PrimeField,
    secret: int,
    params: SharingParams,
    rng: random.Random,
) -> list[Share]:
    """Split a secret into n shares with threshold k.

    A random degree-(k-1) polynomial f with f(0) = secret is drawn from the
    given rng (deterministic per seed); share i is (x_i, f(x_i)) in
    x_assignment order.
    """
    for x in params.x_assignment:
        if not 0 < x < field.modulus:
            raise ConfigurationError(f"x assignment {x} outside field range")
    secret %= field.modulus
    poly = field.poly_random(params.k - 1, [(0, secret)], rng)
    return [Share(x, field.poly_eval(poly, x)) for x in params.x_assignment]


def _checked_sorted(shares: list[Share]) -> list[Share]:
    ordered = sorted(shares)
    xs = [s.x for s in ordered]
    if len(set(xs)) != len(xs):
        raise DomainError("shares must have distinct x values")
    return ordered


def _lagrange_zero_weights(field: PrimeField, xs: list[int]) -> list[int]:
    """Lagrange basis values at zero, L_i(0) = w_i * prod_{j != i} (-x_j).

    w_i are the barycentric weights; the products over j != i come from
    prefix and suffix products in O(k).
    """
    p = field.modulus
    weights = field.barycentric_weights(xs)
    suffix = [1] * (len(xs) + 1)
    for i in reversed(range(len(xs))):
        suffix[i] = suffix[i + 1] * -xs[i] % p
    result = []
    prefix = 1
    for xi, w, after in zip(xs, weights, suffix[1:]):
        result.append(w * prefix % p * after % p)
        prefix = prefix * -xi % p
    return result


def recover(field: PrimeField, shares: list[Share], k: int) -> int:
    """Recover the secret f(0) from at least k shares.

    Uses the k shares that come first in x order; any surplus shares are
    cross-checked against the polynomial those k define and a mismatch
    raises CorruptShareError.  The result equals evaluating
    poly_interpolate over the first k shares at zero: with exactly k
    shares it is summed from the Lagrange weights at zero, with surplus
    shares it is the constant term of the interpolated polynomial.
    """
    if len(shares) < k:
        raise InsufficientSharesError(
            f"need at least {k} shares, got {len(shares)}"
        )
    ordered = _checked_sorted(shares)
    first = ordered[:k]
    if len(ordered) == k:
        weights = _lagrange_zero_weights(field, [s.x for s in first])
        return sum(s.y * w for s, w in zip(first, weights)) % field.modulus
    poly = field.poly_interpolate([(s.x, s.y) for s in first])
    for extra in ordered[k:]:
        if field.poly_eval(poly, extra.x) != extra.y:
            raise CorruptShareError(
                f"share at x={extra.x} is inconsistent with the first {k}"
            )
    return poly[0]


def reconstruct_polynomial(field: PrimeField, shares: list[Share], k: int) -> list[int]:
    """The unique degree-<=(k-1) polynomial through the first k shares (x order)."""
    if len(shares) < k:
        raise InsufficientSharesError(
            f"need at least {k} shares, got {len(shares)}"
        )
    ordered = _checked_sorted(shares)
    return field.poly_interpolate([(s.x, s.y) for s in ordered[:k]])
