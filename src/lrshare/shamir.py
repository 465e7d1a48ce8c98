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


def split(
    field: PrimeField,
    secret: int,
    k: int,
    n: int,
    rng: random.Random,
) -> list[Share]:
    """Split a secret into n shares with threshold k, at x = 1..n.

    A random degree-(k-1) polynomial f with f(0) = secret is drawn from the
    given rng (deterministic per seed); share i is (i, f(i)).
    """
    if not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n >= field.modulus:
        raise ConfigurationError(f"n={n} shares need n < p={field.modulus}")
    secret %= field.modulus
    poly = field.poly_random(k - 1, [(0, secret)], rng)
    return [Share(x, field.poly_eval(poly, x)) for x in range(1, n + 1)]


def _checked_sorted(shares: list[Share]) -> list[Share]:
    ordered = sorted(shares)
    xs = [s.x for s in ordered]
    if len(set(xs)) != len(xs):
        raise DomainError("shares must have distinct x values")
    return ordered


def recover(field: PrimeField, shares: list[Share], k: int) -> int:
    """Recover the secret f(0) from at least k shares.

    Uses the k shares that come first in x order; any surplus shares are
    cross-checked against the polynomial those k define and a mismatch
    raises CorruptShareError.  The secret and every surplus share's
    expected value come from one interpolate_at call over the first k
    shares, at zero and at the surplus x values; no coefficient list is
    built.
    """
    if len(shares) < k:
        raise InsufficientSharesError(
            f"need at least {k} shares, got {len(shares)}"
        )
    ordered = _checked_sorted(shares)
    first, extras = ordered[:k], ordered[k:]
    secret, *expected = field.interpolate_at(
        [(s.x, s.y) for s in first], [0, *(s.x for s in extras)]
    )
    for extra, value in zip(extras, expected):
        if value != extra.y:
            raise CorruptShareError(
                f"share at x={extra.x} is inconsistent with the first {k}"
            )
    return secret


def reconstruct_polynomial(field: PrimeField, shares: list[Share], k: int) -> list[int]:
    """The unique degree-<=(k-1) polynomial through the first k shares (x order)."""
    if len(shares) < k:
        raise InsufficientSharesError(
            f"need at least {k} shares, got {len(shares)}"
        )
    ordered = _checked_sorted(shares)
    return field.poly_interpolate([(s.x, s.y) for s in ordered[:k]])
