"""Grouping, repairing polynomials, redundancy generation, local repair."""

import random
from collections import Counter
from itertools import combinations

import pytest

from lrshare.errors import ConfigurationError, DomainError, InsufficientPointsError
from lrshare.groups import (
    WeakRedundancy,
    build_repair_function,
    make_weak_redundancy,
    partition,
    repair_share,
    restore_subshare,
    setup_sss,
)
from lrshare.shamir import Share, recover

# random.Random(2) draws x=5 first for GF(13) with {0,1,2,3,4} excluded
FIXTURE_SEED_XLAMBDA = 2

# f(x) = 1 + 2x + 3x^2 + 4x^3 over GF(13), evaluated at x = 1..4
CUBIC = [1, 2, 3, 4]
CUBIC_POINTS = [Share(1, 10), Share(2, 10), Share(3, 12), Share(4, 1)]


class TestPartition:
    def test_toy_layout(self):
        specs = partition(12, 3)
        assert [s.member_ids for s in specs] == [
            (1, 2, 3, 4),
            (5, 6, 7, 8),
            (9, 10, 11, 12),
        ]
        assert all(s.gamma == 4 for s in specs)

    def test_single_group(self):
        (spec,) = partition(4, 1)
        assert spec.member_ids == (1, 2, 3, 4)

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigurationError):
            partition(10, 3)

    def test_tiny_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            partition(6, 6)

    def test_groups_are_disjoint_and_cover(self):
        specs = partition(20, 5)
        seen = [m for s in specs for m in s.member_ids]
        assert sorted(seen) == list(range(1, 21))
        assert len(set(seen)) == 20


class TestRepairFunction:
    def test_known_cubic(self, gf13):
        assert build_repair_function(gf13, CUBIC_POINTS) == CUBIC

    def test_two_point_roundtrip(self, gf13):
        coeffs = build_repair_function(gf13, [Share(1, 6), Share(2, 6)])
        assert gf13.poly_eval(coeffs, 1) == 6
        assert gf13.poly_eval(coeffs, 2) == 6

    def test_random_polynomial_recovered(self, gf13, rng):
        for _ in range(100):
            gamma = rng.randrange(2, 7)
            coeffs = [rng.randrange(13) for _ in range(gamma)]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            xs = rng.sample(range(1, 13), len(coeffs))
            points = [Share(x, gf13.poly_eval(coeffs, x)) for x in xs]
            assert build_repair_function(gf13, points) == coeffs

    def test_duplicate_x_rejected(self, gf13):
        with pytest.raises(DomainError):
            build_repair_function(gf13, [Share(1, 2), Share(1, 3)])


class TestWeakRedundancy:
    def test_seeded_fixture(self, gf13):
        weak = make_weak_redundancy(
            gf13, CUBIC, {1, 2, 3, 4}, random.Random(FIXTURE_SEED_XLAMBDA)
        )
        # 1 + 2*5 + 3*25 + 4*125 = 586 = 45*13 + 1
        assert (weak.x, weak.y) == (5, 1)

    def test_point_lies_on_polynomial(self, gf13, rng):
        for _ in range(200):
            weak = make_weak_redundancy(gf13, CUBIC, {1, 2, 3, 4}, rng)
            assert gf13.poly_eval(CUBIC, weak.x) == weak.y

    def test_never_collides_with_excluded(self, gf13):
        excluded = {1, 2, 3, 4}
        for seed in range(10_000):
            weak = make_weak_redundancy(gf13, CUBIC, excluded, random.Random(seed))
            assert weak.x not in excluded
            assert weak.x != 0

    def test_no_admissible_x_rejected(self, gf13, rng):
        with pytest.raises(DomainError):
            make_weak_redundancy(gf13, CUBIC, set(range(13)), rng)


class TestSecondSharing:
    def test_shape_and_threshold(self, gf13, rng):
        subshares = setup_sss(gf13, 7, 4, rng)
        assert len(subshares) == 5
        assert [s.x for s in subshares] == [1, 2, 3, 4, 5]
        for subset in combinations(subshares, 4):
            assert recover(gf13, list(subset), 4) == 7

    def test_any_gamma_of_gamma_plus_one(self, big_field, rng):
        for _ in range(20):
            sub_secret = rng.randrange(big_field.modulus)
            subshares = setup_sss(big_field, sub_secret, 4, rng)
            for subset in combinations(subshares, 4):
                assert recover(big_field, list(subset), 4) == sub_secret

    def test_three_subshares_reveal_nothing(self, gf13):
        """(4, 5) sub-sharing: any 3 sub-shares are uniform, exhaustively.

        For each sub-secret, enumerate all 13^3 sharing polynomials and
        tally the observed triple for every 3-subset of positions; the
        distributions must be identical (and flat) across sub-secrets.
        """
        xs = (1, 2, 3, 4, 5)
        subsets = list(combinations(range(5), 3))
        per_secret = []
        for sub_secret in range(13):
            tallies = {subset: Counter() for subset in subsets}
            for a1 in range(13):
                for a2 in range(13):
                    for a3 in range(13):
                        poly = [sub_secret, a1, a2, a3]
                        ys = [gf13.poly_eval(poly, x) for x in xs]
                        for subset in subsets:
                            tallies[subset][tuple(ys[i] for i in subset)] += 1
            per_secret.append(tallies)
        reference = per_secret[0]
        for subset in subsets:
            assert all(count == 1 for count in reference[subset].values())
            for other in per_secret[1:]:
                assert other[subset] == reference[subset]

    def test_gamma_two_edge(self, gf13):
        """(2, 3) sub-sharing: a single sub-share is uniform, exhaustively."""
        for x in (1, 2, 3):
            per_secret = []
            for sub_secret in range(13):
                counts = [0] * 13
                for a1 in range(13):
                    counts[gf13.poly_eval([sub_secret, a1], x)] += 1
                per_secret.append(tuple(counts))
            assert len(set(per_secret)) == 1
            assert all(c == 1 for c in per_secret[0])

    def test_tiny_gamma_rejected(self, gf13, rng):
        with pytest.raises(ConfigurationError):
            setup_sss(gf13, 5, 1, rng)


class TestRepairShare:
    def test_known_cubic_repair(self, gf13):
        surviving = [Share(1, 10), Share(2, 10), Share(3, 12)]
        got = repair_share(gf13, surviving, WeakRedundancy(5, 1), failed_x=4, gamma=4)
        assert got == 1  # f(4) = 313 = 24*13 + 1

    def test_two_missing_members_rejected(self, gf13):
        surviving = [Share(1, 10), Share(2, 10)]
        with pytest.raises(InsufficientPointsError):
            repair_share(gf13, surviving, WeakRedundancy(5, 1), failed_x=4, gamma=4)

    def test_repair_of_present_share_is_identity(self, gf13):
        got = repair_share(gf13, CUBIC_POINTS, WeakRedundancy(5, 1), failed_x=2, gamma=4)
        assert got == 10

    def test_every_member_repairable(self, big_field, rng):
        coeffs = [rng.randrange(big_field.modulus) for _ in range(4)]
        points = [Share(x, big_field.poly_eval(coeffs, x)) for x in range(1, 5)]
        weak = make_weak_redundancy(big_field, coeffs, {1, 2, 3, 4}, rng)
        for failed in points:
            surviving = [p for p in points if p != failed]
            got = repair_share(big_field, surviving, weak, failed.x, gamma=4)
            assert got == failed.y


class TestRestoreSubshare:
    def test_holdout_oracle(self, big_field):
        rng = random.Random(5150)
        for _ in range(100):
            subshares = setup_sss(big_field, rng.randrange(big_field.modulus), 4, rng)
            withheld = subshares[rng.randrange(5)]
            rest = [s for s in subshares if s != withheld]
            assert restore_subshare(big_field, rest, withheld.x, gamma=4) == withheld

    def test_line_midpoint(self, gf13):
        # 4 + 2x: sub-shares at x=1 and x=3 restore x=2
        restored = restore_subshare(gf13, [Share(1, 6), Share(3, 10)], 2, gamma=2)
        assert restored == Share(2, 8)

    def test_existing_x_restored_identically(self, gf13, rng):
        subshares = setup_sss(gf13, 9, 4, rng)
        restored = restore_subshare(gf13, subshares[:4], subshares[1].x, gamma=4)
        assert restored == subshares[1]

    def test_too_few_subshares(self, gf13):
        with pytest.raises(InsufficientPointsError):
            restore_subshare(gf13, [Share(1, 6), Share(3, 10)], 2, gamma=4)

    def test_uses_the_first_gamma_in_x_order(self, gf13):
        # 4 + 2x through x=1 and x=3; the point at x=5 is off the line
        subshares = [Share(5, 0), Share(3, 10), Share(1, 6)]
        assert restore_subshare(gf13, subshares, 2, gamma=2) == Share(2, 8)
        assert repair_share(gf13, subshares[:2], WeakRedundancy(1, 6), 2, 2) == 8

    def test_duplicate_x_beyond_the_first_gamma_rejected(self, gf13):
        subshares = [Share(1, 6), Share(3, 10), Share(5, 1), Share(5, 1)]
        with pytest.raises(DomainError):
            restore_subshare(gf13, subshares, 2, gamma=2)
        with pytest.raises(DomainError):
            repair_share(gf13, subshares[1:], WeakRedundancy(1, 6), 2, 2)


class TestRedundancySignificance:
    def test_strong_alone_determines_all_members(self, gf13):
        for point in CUBIC_POINTS:
            assert gf13.poly_eval(CUBIC, point.x) == point.y

    def test_partial_views_leave_members_uniform(self, gf13):
        """Up to gamma-1 points on a cubic leave any other member uniform.

        Exhaustive over all 13^4 cubics for member positions 1..4 and a
        weak-redundancy position at 6: condition on any 3 observed points
        (lambda point included); every missing member value stays equally
        likely.  The weak point alone therefore determines nothing.
        """
        xs = (1, 2, 3, 4, 6)  # members and the lambda position
        member_idx = range(4)
        subsets = list(combinations(range(5), 3))
        tallies = {}
        for a0 in range(13):
            for a1 in range(13):
                for a2 in range(13):
                    for a3 in range(13):
                        poly = [a0, a1, a2, a3]
                        ys = tuple(gf13.poly_eval(poly, x) for x in xs)
                        for subset in subsets:
                            observed = tuple(ys[i] for i in subset)
                            for target in member_idx:
                                if target in subset:
                                    continue
                                key = (subset, observed, target)
                                counter = tallies.get(key)
                                if counter is None:
                                    counter = tallies[key] = [0] * 13
                                counter[ys[target]] += 1
        for counter in tallies.values():
            assert counter == [1] * 13

    def test_weak_point_alone_determines_nothing(self, gf13):
        """Conditioned on the lambda point only, each member is uniform."""
        counts = {}
        for a0 in range(13):
            for a1 in range(13):
                for a2 in range(13):
                    for a3 in range(13):
                        poly = [a0, a1, a2, a3]
                        y_lambda = gf13.poly_eval(poly, 6)
                        y1 = gf13.poly_eval(poly, 1)
                        counter = counts.setdefault(y_lambda, [0] * 13)
                        counter[y1] += 1
        # 13^3 cubics share each lambda value; the member is uniform among them
        for counter in counts.values():
            assert counter == [169] * 13


class TestDecoupling:
    def test_repairing_polynomial_independent_of_secret(self, gf13):
        """(3, 4) sharing, groups of two: for every secret, the group-1
        repairing line sweeps the full coefficient grid uniformly, so the
        repairing data carries nothing about the secret.
        """
        per_secret = []
        for secret in range(13):
            seen = Counter()
            for a1 in range(13):
                for a2 in range(13):
                    poly = [secret, a1, a2]
                    points = [Share(x, gf13.poly_eval(poly, x)) for x in (1, 2)]
                    coeffs = build_repair_function(gf13, points)
                    while len(coeffs) < 2:
                        coeffs.append(0)
                    seen[tuple(coeffs)] += 1
            per_secret.append(seen)
        for seen in per_secret:
            assert len(seen) == 169
            assert all(count == 1 for count in seen.values())
        assert all(seen == per_secret[0] for seen in per_secret[1:])
