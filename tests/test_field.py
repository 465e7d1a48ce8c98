"""Prime-field arithmetic and polynomial operations."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrshare.errors import DomainError
from lrshare.field import (
    _MR_BASES,
    DEFAULT_MODULUS,
    PrimeField,
    is_probable_prime,
    trim_poly,
)

# GF(13), the production Mersenne prime, and the 61-bit Mersenne prime.
REFERENCE_PRIMES = (13, 2**31 - 1, 2**61 - 1)
MAX_POINTS = 130


def reference_interpolate(field, points):
    """Textbook Lagrange interpolation, O(d^3): each basis polynomial
    prod_{j != i} (x - x_j) / (x_i - x_j) is built one factor at a time.
    The cross-check reference for PrimeField.poly_interpolate.
    """
    p = field.modulus
    xs = [x % p for x, _ in points]
    result = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        xi %= p
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            shifted = [0] + basis
            for t in range(len(basis)):
                shifted[t] = (shifted[t] - basis[t] * xj) % p
            basis = shifted
            denom = denom * (xi - xj) % p
        scale = yi % p * field.inv(denom) % p
        for t, c in enumerate(basis):
            result[t] = (result[t] + c * scale) % p
    return trim_poly(result)


@st.composite
def point_sets(draw):
    """(prime, points): 1..MAX_POINTS points with distinct x in GF(prime)."""
    p = draw(st.sampled_from(REFERENCE_PRIMES))
    size = draw(st.integers(1, min(MAX_POINTS, p)))
    if p <= MAX_POINTS:
        xs = draw(st.permutations(range(p)))[:size]
    else:
        xs = draw(
            st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True)
        )
    ys = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return p, list(zip(xs, ys))


def _largest_point_set(p):
    rng = random.Random(p)
    return p, [(x, rng.randrange(p)) for x in rng.sample(range(p), MAX_POINTS)]


def strong_probable_prime(n, bases):
    """Miller-Rabin rounds alone: n odd, above every base, passes each one."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
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


def twelve_base_prime(n):
    """The reference: trial division by the twelve bases, then all twelve rounds."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % p == 0 for p in _MR_BASES):
        return False
    return strong_probable_prime(n, _MR_BASES)


# The least strong pseudoprime to each prefix of the bases, the length of
# the longest prefix it passes, and its factors.
STRONG_PSEUDOPRIMES = (
    (2047, 1, (23, 89)),
    (1373653, 2, (829, 1657)),
    (25326001, 3, (2251, 11251)),
    (3215031751, 4, (151, 751, 28351)),
    (2152302898747, 5, (6763, 10627, 29947)),
    (3474749660383, 6, (1303, 16927, 157543)),
    (341550071728321, 8, (10670053, 32010157)),
    (3825123056546413051, 9, (149491, 747451, 34233211)),
)


class TestPrimality:
    @pytest.mark.parametrize("n, bases, factors", STRONG_PSEUDOPRIMES)
    def test_rejects_least_strong_pseudoprime_of_each_prefix(self, n, bases, factors):
        product = 1
        for factor in factors:
            product *= factor
        assert product == n
        # n passes every round of the prefix below it, so only a longer
        # prefix can reject it
        assert strong_probable_prime(n, _MR_BASES[:bases])
        assert not is_probable_prime(n)

    def test_agrees_with_twelve_bases(self):
        rng = random.Random(2024)
        cases = set(range(-2, 20_000))
        for n, _, _ in STRONG_PSEUDOPRIMES:
            cases.update(range(n - 300, n + 301))
        for bits in (31, 32, 42, 48, 61, 64, 70):
            cases.update(rng.getrandbits(bits) | 1 for _ in range(300))
        for bits in (16, 24, 31):
            primes = [q for q in (rng.getrandbits(bits) | 1 for _ in range(400))
                      if twelve_base_prime(q)]  # fmt: skip
            cases.update(a * b for a, b in zip(primes, primes[1:]))
        primes_seen = 0
        for n in sorted(cases):
            expected = twelve_base_prime(n)
            assert is_probable_prime(n) == expected, n
            primes_seen += expected
        assert primes_seen > 2_000

    def test_small_primes(self):
        for p in (2, 3, 5, 13, 31, 2**31 - 1):
            assert is_probable_prime(p)

    def test_composites(self):
        for c in (0, 1, 4, 9, 15, 2**31, 561, 341550071728321):
            assert not is_probable_prime(c)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            PrimeField(15)

    def test_default_modulus_is_prime(self):
        assert is_probable_prime(DEFAULT_MODULUS)


class TestElementOps:
    def test_inverse_of_one(self, gf13):
        assert gf13.inv(1) == 1

    def test_inverse_of_five(self, gf13):
        # 5 * 8 = 40 = 3*13 + 1
        assert gf13.inv(5) == 8

    def test_inverse_of_twelve(self, gf13):
        # 12 * 12 = 144 = 11*13 + 1
        assert gf13.inv(12) == 12

    def test_inverse_of_zero_rejected(self, gf13):
        with pytest.raises(DomainError):
            gf13.inv(0)

    def test_inverse_exhaustive_gf13(self, gf13):
        for a in range(1, 13):
            assert a * gf13.inv(a) % 13 == 1

    def test_inverse_random_big_field(self, big_field, rng):
        for _ in range(50):
            a = rng.randrange(1, big_field.modulus)
            assert a * big_field.inv(a) % big_field.modulus == 1


class TestPolyEval:
    def test_constant_term_at_zero(self, gf13):
        assert gf13.poly_eval([2, 3], 0) == 2

    def test_linear(self, gf13):
        # 2 + 3*2 = 8
        assert gf13.poly_eval([2, 3], 2) == 8

    def test_cubic_reduces(self, gf13):
        # 1 + 2*4 + 3*16 + 4*64 = 313 = 24*13 + 1
        assert gf13.poly_eval([1, 2, 3, 4], 4) == 1

    def test_zero_polynomial(self, gf13):
        assert gf13.poly_eval([0], 7) == 0


class TestTrim:
    def test_trailing_zeros_dropped(self):
        assert trim_poly([3, 2, 0, 0]) == [3, 2]

    def test_zero_polynomial_canonical(self):
        assert trim_poly([0, 0, 0]) == [0]
        assert trim_poly([0]) == [0]


class TestInterpolate:
    def test_line_through_two_points(self, gf13):
        assert gf13.poly_interpolate([(1, 5), (2, 7)]) == [3, 2]

    def test_single_point_constant(self, gf13):
        assert gf13.poly_interpolate([(4, 9)]) == [9]

    def test_duplicate_x_rejected(self, gf13):
        with pytest.raises(DomainError):
            gf13.poly_interpolate([(1, 5), (1, 7)])

    def test_empty_rejected(self, gf13):
        with pytest.raises(DomainError):
            gf13.poly_interpolate([])

    def test_roundtrip_exhaustive_low_degree(self, gf13):
        """Every polynomial of degree <= 2 over GF(13) survives the roundtrip."""
        for a0 in range(13):
            for a1 in range(13):
                for a2 in range(13):
                    poly = trim_poly([a0, a1, a2])
                    points = [(x, gf13.poly_eval(poly, x)) for x in range(len(poly))]
                    assert gf13.poly_interpolate(points) == poly

    def test_roundtrip_random_degree_six(self, gf13, rng):
        for _ in range(300):
            degree = rng.randrange(7)
            poly = trim_poly([rng.randrange(13) for _ in range(degree + 1)])
            xs = rng.sample(range(13), len(poly))
            points = [(x, gf13.poly_eval(poly, x)) for x in xs]
            assert gf13.poly_interpolate(points) == poly

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(point_sets())
    @example(_largest_point_set(2**31 - 1))
    @example(_largest_point_set(2**61 - 1))
    def test_matches_cubic_reference(self, case):
        p, points = case
        field = PrimeField(p)
        assert field.poly_interpolate(points) == reference_interpolate(field, points)

    def test_one_inversion_per_interpolation(self, big_field, rng, monkeypatch):
        calls = []
        inv = PrimeField.inv

        def counted(self, a):
            calls.append(a)
            return inv(self, a)

        monkeypatch.setattr(PrimeField, "inv", counted)
        big_field.poly_interpolate([(x, x) for x in rng.sample(range(1, 1000), 64)])
        assert len(calls) == 1


# Primes for the point-evaluation cross-check; the last is 2^61 - 1.
EVAL_PRIMES = (13, 101, 2**31 - 1, 2**61 - 1)
EVAL_MAX_POINTS = 40


@st.composite
def evaluation_cases(draw):
    """(prime, points, targets): up to EVAL_MAX_POINTS points with distinct x
    mod the prime, each x and y shifted by a random multiple of it, and
    targets that include 0, every x, values >= p and negative values."""
    p = draw(st.sampled_from(EVAL_PRIMES))
    size = draw(st.integers(1, min(EVAL_MAX_POINTS, p)))
    residues = draw(
        st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True)
    )
    shift = st.integers(-2, 2).map(lambda c: c * p)
    xs = [x + draw(shift) for x in residues]
    ys = [draw(st.integers(0, p - 1)) + draw(shift) for _ in xs]
    anywhere = st.integers(-3 * p, 3 * p)
    extra = draw(st.lists(anywhere, max_size=6))
    targets = [0, p, -1, -p - 1, *xs, *(x + p for x in xs), *extra]
    return p, list(zip(xs, ys)), targets


class TestInterpolateAt:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(evaluation_cases())
    def test_matches_reference_polynomial(self, case):
        p, points, targets = case
        field = PrimeField(p)
        poly = reference_interpolate(field, points)
        assert field.interpolate_at(points, targets) == [
            field.poly_eval(poly, t) for t in targets
        ]

    def test_value_at_a_point_is_its_y(self, big_field, rng):
        xs = rng.sample(range(1, 10**6), 40)
        ys = [rng.randrange(big_field.modulus) for _ in xs]
        assert big_field.interpolate_at(list(zip(xs, ys)), xs) == ys

    def test_no_targets(self, gf13):
        assert gf13.interpolate_at([(1, 5), (2, 7)], []) == []

    def test_empty_rejected(self, gf13):
        with pytest.raises(DomainError):
            gf13.interpolate_at([], [0])

    @pytest.mark.parametrize("p", EVAL_PRIMES)
    def test_x_colliding_mod_p_rejected(self, p):
        with pytest.raises(DomainError):
            PrimeField(p).interpolate_at([(1, 5), (3, 4), (1 + p, 7)], [0])

    def test_one_inversion_for_any_number_of_targets(self, big_field, rng, monkeypatch):
        calls = []
        inv = PrimeField.inv

        def counted(self, a):
            calls.append(a)
            return inv(self, a)

        monkeypatch.setattr(PrimeField, "inv", counted)
        points = [(x, x) for x in rng.sample(range(1, 1000), 64)]
        big_field.interpolate_at(points, list(range(-5, 70)))
        assert len(calls) == 1


class TestPolyRandom:
    def test_fully_constrained_degree_zero(self, gf13, rng):
        assert gf13.poly_random(0, [(0, 5)], rng) == [5]

    def test_deterministic_per_seed(self, gf13):
        a = gf13.poly_random(2, [(0, 5)], random.Random(99))
        b = gf13.poly_random(2, [(0, 5)], random.Random(99))
        assert a == b

    def test_full_constraints_ignore_seed(self, gf13):
        constraints = [(1, 4), (2, 11)]
        a = gf13.poly_random(1, constraints, random.Random(1))
        b = gf13.poly_random(1, constraints, random.Random(2))
        assert a == b

    def test_passes_through_constraints(self, gf13, rng):
        for _ in range(50):
            poly = gf13.poly_random(3, [(0, 7), (5, 2)], rng)
            assert len(poly) <= 4
            assert gf13.poly_eval(poly, 0) == 7
            assert gf13.poly_eval(poly, 5) == 2

    def test_over_constrained_rejected(self, gf13, rng):
        with pytest.raises(DomainError):
            gf13.poly_random(1, [(0, 1), (1, 2), (2, 3)], rng)

    def test_duplicate_constraint_x_rejected(self, gf13, rng):
        with pytest.raises(DomainError):
            gf13.poly_random(2, [(0, 1), (0, 2)], rng)

    def test_negative_degree_rejected(self, gf13, rng):
        with pytest.raises(DomainError):
            gf13.poly_random(-1, [], rng)

    def test_free_values_uniform(self, gf13):
        """f(1) over many seeds is uniform on GF(13) (chi-square, df=12)."""
        counts = [0] * 13
        for seed in range(10_000):
            poly = gf13.poly_random(2, [(0, 5)], random.Random(seed))
            counts[gf13.poly_eval(poly, 1)] += 1
        expected = 10_000 / 13
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 32.909  # 99.9th percentile of chi-square with 12 dof
