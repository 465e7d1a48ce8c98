"""Threshold sharing: split, recover, polynomial reconstruction, secrecy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrshare.errors import (
    ConfigurationError,
    CorruptShareError,
    DomainError,
    InsufficientSharesError,
)
from lrshare.field import PrimeField, is_probable_prime
from lrshare.shamir import (
    Share,
    recover,
    reconstruct_polynomial,
    split,
)

# random.Random(17) makes poly_random pick f = 5 + 3x for secret 5, k=2
FIXTURE_SEED_LINE = 17


class TestParams:
    def test_threshold_bounds(self, gf13, rng):
        with pytest.raises(ConfigurationError):
            split(gf13, 5, 0, 3, rng)
        with pytest.raises(ConfigurationError):
            split(gf13, 5, 4, 3, rng)

    def test_share_count_below_modulus(self, gf13, rng):
        assert [s.x for s in split(gf13, 5, 2, 12, rng)] == list(range(1, 13))
        with pytest.raises(ConfigurationError):
            split(gf13, 5, 2, 13, rng)


class TestSplit:
    def test_threshold_one_is_replication(self, gf13, rng):
        shares = split(gf13, 9, 1, 4, rng)
        assert all(s.y == 9 for s in shares)

    def test_known_line_fixture(self, gf13):
        """Seeded so the sharing polynomial is 5 + 3x over GF(13)."""
        shares = split(gf13, 5, 2, 3, random.Random(FIXTURE_SEED_LINE))
        assert [(s.x, s.y) for s in shares] == [(1, 8), (2, 11), (3, 1)]

    def test_deterministic_per_seed(self, big_field):
        a = split(big_field, 55, 4, 6, random.Random(3))
        b = split(big_field, 55, 4, 6, random.Random(3))
        assert a == b


class TestRecover:
    def test_line_through_two_points(self, gf13):
        assert recover(gf13, [Share(1, 8), Share(2, 11)], 2) == 5

    def test_single_share_threshold_one(self, gf13):
        assert recover(gf13, [Share(7, 4)], 1) == 4

    def test_roundtrip_many_secrets(self, big_field):
        rng = random.Random(2024)
        for _ in range(200):
            secret = rng.randrange(big_field.modulus)
            shares = split(big_field, secret, 8, 12, rng)
            for _ in range(3):
                subset = rng.sample(shares, 8)
                assert recover(big_field, subset, 8) == secret

    def test_matches_interpolation_route(self, big_field, rng):
        """recover must equal interpolating the same shares and evaluating at 0."""
        for _ in range(20):
            secret = rng.randrange(big_field.modulus)
            shares = split(big_field, secret, 5, 9, rng)
            subset = rng.sample(shares, 5)
            poly = big_field.poly_interpolate([(s.x, s.y) for s in subset])
            assert recover(big_field, subset, 5) == big_field.poly_eval(poly, 0)

    def test_too_few_shares(self, gf13):
        with pytest.raises(InsufficientSharesError):
            recover(gf13, [Share(1, 8)], 2)

    def test_duplicate_x_rejected(self, gf13):
        with pytest.raises(DomainError):
            recover(gf13, [Share(1, 8), Share(1, 9)], 2)

    def test_surplus_consistent_shares_accepted(self, gf13):
        # all on 5 + 3x
        shares = [Share(1, 8), Share(2, 11), Share(3, 1)]
        assert recover(gf13, shares, 2) == 5

    def test_surplus_corrupt_share_detected(self, gf13):
        shares = [Share(1, 8), Share(2, 11), Share(3, 2)]
        with pytest.raises(CorruptShareError):
            recover(gf13, shares, 2)

    def test_k128_with_sixteen_surplus_shares(self, big_field):
        """The size the surplus cross-check runs at in a k=128 deployment."""
        rng = random.Random(128)
        secret = rng.randrange(big_field.modulus)
        shares = split(big_field, secret, 128, 256, rng)
        subset = rng.sample(shares, 128 + 16)
        assert recover(big_field, subset, 128) == secret
        assert recover(big_field, subset[:128], 128) == secret
        # the 16 shares with the largest x are the surplus ones
        surplus = max(subset)
        altered = Share(surplus.x, (surplus.y + 1) % big_field.modulus)
        tampered = [altered if s == surplus else s for s in subset]
        with pytest.raises(CorruptShareError):
            recover(big_field, tampered, 128)


class TestReconstructPolynomial:
    def test_line(self, gf13):
        assert reconstruct_polynomial(gf13, [Share(1, 8), Share(2, 11)], 2) == [5, 3]

    def test_degenerate_constant(self, gf13):
        assert reconstruct_polynomial(gf13, [Share(3, 6)], 1) == [6]

    def test_too_few_shares(self, gf13):
        with pytest.raises(InsufficientSharesError, match="need at least 2 shares, got 1"):
            reconstruct_polynomial(gf13, [Share(1, 8)], 2)

    def test_holdout_share_reproduced(self, big_field, rng):
        for _ in range(20):
            shares = split(big_field, rng.randrange(big_field.modulus), 4, 7, rng)
            withheld = shares[5]
            rest = [s for s in shares if s != withheld]
            poly = reconstruct_polynomial(big_field, rest, 4)
            assert big_field.poly_eval(poly, withheld.x) == withheld.y


class TestPerfectSecrecy:
    def test_single_share_uniform_exhaustive(self, gf13):
        """(2, 3) over GF(13): one observed share is uniform for every secret.

        Exhaustive over all 13 coefficient choices per secret; the
        distribution of y at each x must be identical across secrets.
        """
        distributions = {}
        for secret in range(13):
            for x in (1, 2, 3):
                counts = [0] * 13
                for a1 in range(13):
                    counts[gf13.poly_eval([secret, a1], x)] += 1
                distributions.setdefault(x, []).append(tuple(counts))
        for x, per_secret in distributions.items():
            assert len(set(per_secret)) == 1
            assert all(c == 1 for c in per_secret[0])


class TestShareInvariant:
    def test_zero_x_rejected(self):
        with pytest.raises(DomainError):
            Share(0, 5)


def next_prime(value):
    while not is_probable_prime(value):
        value += 1
    return value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_split_recover_round_trip_over_random_primes(data):
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, n), label="k")
    modulus = next_prime(data.draw(st.integers(n + 1, 2**64), label="modulus floor"))
    field = PrimeField(modulus)
    secret = data.draw(st.integers(0, modulus - 1), label="secret")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shares = split(field, secret, k, n, rng)
    count = data.draw(st.integers(k, n), label="shares used")
    subset = data.draw(st.permutations(shares), label="order")[:count]
    assert recover(field, subset, k) == secret
    assert reconstruct_polynomial(field, subset, k)[0] == secret
