"""Prime-field arithmetic and polynomial helpers.

Everything in this package works over GF(p) for a public prime modulus p.
Field elements are plain ints in [0, p).  Polynomials are coefficient lists
with the constant term first and trailing zeros trimmed, so list equality is
polynomial equality; the canonical zero polynomial is [0].

Only prime fields are supported.  The default production modulus is the
Mersenne prime 2^31 - 1, so products of two elements fit comfortably in
64-bit intermediates; tests use GF(13) where exhaustive enumeration is
feasible.
"""

from __future__ import annotations

import math
import operator
import random

from .errors import DomainError

DEFAULT_MODULUS = (1 << 31) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, count): the first `count` bases of _MR_BASES decide every n below
# bound exactly; each bound is the least strong pseudoprime to those bases.
_MR_PREFIXES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test over a prefix of the first twelve primes.

    Each n is tested with the shortest prefix of _MR_BASES that is known
    to be deterministic at its size: bases 2, 3, 5 and 7 for n below
    3,215,031,751, which covers the default modulus, and all twelve above
    3.8 * 10^18.  Twelve bases are deterministic for n < 3.18 * 10^23, far
    beyond the 64-bit moduli this package targets.  Anything but an int (a
    float or a bool) is not prime.
    """
    if type(n) is not int or n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    bases = _MR_BASES
    for bound, count in _MR_PREFIXES:
        if n < bound:
            bases = _MR_BASES[:count]
            break
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trim_poly(coeffs: list[int]) -> list[int]:
    """Drop trailing zero coefficients; the zero polynomial stays [0]."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    return list(coeffs[:end])


class PrimeField:
    """Arithmetic over GF(modulus) for a prime modulus.

    The modulus is validated (probabilistic primality) at construction and
    is a runtime parameter everywhere; it is never baked into share data
    implicitly.  All methods are pure, so instances are safe to share
    between threads.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if not is_probable_prime(modulus):
            raise DomainError(f"modulus must be prime, got {modulus}")
        self.modulus = modulus

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    # -- element arithmetic -------------------------------------------------

    def inv(self, a: int) -> int:
        """Multiplicative inverse (built-in modular pow with exponent -1)."""
        a %= self.modulus
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        return pow(a, -1, self.modulus)

    # -- polynomials ---------------------------------------------------------

    def poly_eval(self, coeffs: list[int], x: int) -> int:
        """Evaluate a coefficient list (constant first) at x, Horner order."""
        x %= self.modulus
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def barycentric_weights(self, xs: list[int]) -> list[int]:
        """Barycentric weights w_i = 1 / prod_{j != i} (x_i - x_j).

        O(d^2) products and one call to inv: the d denominators are
        inverted together by prefix products (Montgomery's trick).  The
        x values must be distinct integers; two that agree modulo p make
        a zero denominator, and inv raises DomainError.
        """
        p = self.modulus
        dens = [math.prod(xi - xj for xj in xs if xj != xi) % p for xi in xs]
        prefix = []
        acc = 1
        for den in dens:
            prefix.append(acc)
            acc = acc * den % p
        inv = self.inv(acc)
        weights = [0] * len(dens)
        for i in reversed(range(len(dens))):
            weights[i] = inv * prefix[i] % p
            inv = inv * dens[i] % p
        return weights

    def _scaled_weights(
        self, points: list[tuple[int, int]]
    ) -> tuple[list[int], list[int]]:
        """The x values mod p and s_i = y_i * w_i, for both interpolators.

        Raises DomainError for an empty point list or duplicate x values.
        """
        if not points:
            raise DomainError("interpolation needs at least one point")
        p = self.modulus
        xs = [x % p for x, _ in points]
        if len(set(xs)) != len(xs):
            raise DomainError("interpolation points must have distinct x values")
        weights = self.barycentric_weights(xs)
        return xs, [y % p * w % p for (_, y), w in zip(points, weights)]

    def poly_interpolate(self, points: list[tuple[int, int]]) -> list[int]:
        """Unique polynomial of degree <= len(points)-1 through all points.

        Barycentric Lagrange interpolation in O(d^2) total: the master
        product M(x) = prod_j (x - x_j) is built once, and each point adds
        M(x) / (x - x_i), found by synthetic division, scaled by y_i times
        its barycentric weight.  The divisions run for all points at once,
        one coefficient at a time from the top.  Returns the trimmed
        coefficient list.

        Raises DomainError for an empty point list or duplicate x values.
        """
        p = self.modulus
        xs, scales = self._scaled_weights(points)
        master = [1]
        for xj in xs:
            # (x - x_j) * M: shift up one degree, subtract x_j * M
            master = [(lo - xj * hi) % p for lo, hi in zip([0] + master, master + [0])]
        # quotients[i] walks down the coefficients of M(x) / (x - x_i),
        # starting from the leading 1 of the monic master.
        quotients = [1] * len(xs)
        result = [0] * len(xs)
        for t in reversed(range(len(xs))):
            result[t] = sum(map(operator.mul, scales, quotients)) % p
            mt = master[t]
            quotients = [(mt + xi * q) % p for xi, q in zip(xs, quotients)]
        return trim_poly(result)

    def interpolate_at(
        self, points: list[tuple[int, int]], targets: list[int]
    ) -> list[int]:
        """Value at each target of the polynomial poly_interpolate(points) returns.

        No coefficient list is built: with s_i = y_i * w_i (w_i the
        barycentric weights), one pass over the points per target sums
        s_i * prod_{j != i} (t - x_j), which is the Lagrange form at t.
        That is O(d^2) for the weights plus 3d products per target.  Nothing
        is divided by t - x_i, so any integer target works, including one
        of the x values, where the result is its y.

        Raises DomainError for an empty point list or duplicate x values.
        """
        p = self.modulus
        xs, scales = self._scaled_weights(points)
        values = []
        for t in targets:
            t %= p
            # num = sum of s_i * prod (t - x_j) over the points so far, j != i;
            # den = prod (t - x_j) over the points so far
            num, den = 0, 1
            for xi, s in zip(xs, scales):
                d = t - xi
                num = (num * d + s * den) % p
                den = den * d % p
            values.append(num)
        return values

    def poly_random(
        self,
        degree: int,
        constraints: list[tuple[int, int]],
        rng: random.Random,
    ) -> list[int]:
        """Random polynomial of degree <= degree through all constraint points.

        The remaining degrees of freedom are uniform over the field: the
        free slots are parameterized by uniformly drawn values at auxiliary
        abscissas, which is a bijection onto the set of polynomials through
        the constraints.  Fully constrained inputs never touch the rng, so
        the result is then deterministic regardless of seed.

        Raises DomainError for a negative degree, duplicate constraint x
        values, or more constraints than degree+1 allows.
        """
        if degree < 0:
            raise DomainError(f"degree must be >= 0, got {degree}")
        xs = [x % self.modulus for x, _ in constraints]
        if len(set(xs)) != len(xs):
            raise DomainError("constraint x values must be distinct")
        free = degree + 1 - len(constraints)
        if free < 0:
            raise DomainError(
                f"{len(constraints)} constraints over-determine degree {degree}"
            )
        points = [(x % self.modulus, y % self.modulus) for x, y in constraints]
        taken = set(xs)
        x = 0
        while free > 0:
            if x not in taken:
                points.append((x, rng.randrange(self.modulus)))
                free -= 1
            x += 1
        return self.poly_interpolate(points)
