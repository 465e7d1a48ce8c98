"""Compromise probabilities, attacker closure, minimum-compromise search."""

import dataclasses
import hashlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrshare import protocol
from lrshare.errors import ConfigurationError, DomainError, EnumerationLimitError
from lrshare.groups import group_of, members
from lrshare.threat import (
    SCHEME_BASELINE4,
    SCHEME_SSS5,
    CompromiseModel,
    _min_under,
    admissible_placements,
    attacker_closure,
    mc_group_compromise,
    min_compromise_over_placements,
    min_compromise_search,
    p1_exact,
    p2_exact,
)
from tests.conftest import TOY, system_shapes


def holder_of(state, group_id):
    digest = state.digest(group_id)
    for node_id, node in state.nodes.items():
        if any(d == digest for d, _ in node.hosted):
            return node_id
    return None


def state_holders(state):
    groups = range(1, state.m + 1)
    return {g: h for g in groups if (h := holder_of(state, g)) is not None}


# -- brute-force reference ----------------------------------------------------
#
# The node-subset search the group-level solver replaced: the counting rule
# on bitmasks, over every subset in ascending size.  It is exponential in n
# and serves only as the cross-check reference for n <= 20.


class ReferenceCounter:
    """Counting rule: a captured set reaches the secret iff |S| + B(S) >= k,
    B(S) being the groups with redundancy that have exactly gamma-1 captured
    members and their external holder captured."""

    def __init__(self, state):
        self.k, self.gamma = state.k, state.gamma
        self.node_ids = sorted(state.nodes)
        self.bit = {node_id: 1 << idx for idx, node_id in enumerate(self.node_ids)}
        self.groups = [
            (g, self.mask_of(members(g, self.gamma)), x_lambda is not None)
            for g, x_lambda in enumerate(state.x_lambda, 1)
        ]

    def mask_of(self, node_ids):
        mask = 0
        for node_id in node_ids:
            mask |= self.bit[node_id]
        return mask

    def holder_bits(self, holders):
        return [self.bit[holders[g]] if g in holders else 0 for g, _, _ in self.groups]

    def recovers_mask(self, mask, holder_bits):
        total = 0
        for (_, members, redundant), holder_bit in zip(self.groups, holder_bits):
            direct = (members & mask).bit_count()
            if redundant and direct == self.gamma - 1 and holder_bit & mask:
                direct = self.gamma
            total += direct
        return total >= self.k

    def recovers(self, node_ids, holders):
        return self.recovers_mask(self.mask_of(node_ids), self.holder_bits(holders))

    def min_size(self, holders):
        """Smallest recovering subset size, ascending with early exit."""
        bits = self.holder_bits(holders)
        count = len(self.node_ids)
        for size in range(1, count + 1):
            mask = (1 << size) - 1
            while mask < 1 << count:  # every size-bit mask, by Gosper's hack
                if self.recovers_mask(mask, bits):
                    return size
                low = mask & -mask
                ripple = mask + low
                mask = ripple | ((ripple ^ mask) >> 2) // low
        raise AssertionError("the full node set always recovers")


def reference_sweep(state, placements):
    """The placement sweep the closed form replaced: the least exact minimum
    over the given placements, all admissible ones in the tests."""
    return min(_min_under(state, holders).size for holders in placements)


def sweep_grid(max_n, max_placements):
    """Every (k, n, m) with n <= max_n, at least two groups and at most
    max_placements candidate placements, (n - gamma)^m."""
    for n in range(4, max_n + 1):
        for m in range(2, n // 2 + 1):
            if n % m == 0 and (n - n // m) ** m <= max_placements:
                yield from ((k, n, m) for k in range(1, n + 1))


def check_against_reference(state, result, holders, ref=None):
    """Size equals the brute force; the witness has that size and recovers."""
    ref = ref or ReferenceCounter(state)
    assert result.size == ref.min_size(holders)
    assert len(result.witness) == result.size
    assert ref.recovers(result.witness, holders)


class TestExactFormulas:
    def test_boundaries(self):
        assert p1_exact(0.0) == 0.0
        assert p1_exact(1.0) == 1.0
        assert p2_exact(0.0) == 0.0
        assert p2_exact(1.0) == 1.0

    def test_half(self):
        assert p1_exact(0.5) == 0.0625
        assert p2_exact(0.5) == 0.1875

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                p1_exact(bad)
            with pytest.raises(DomainError):
                p2_exact(bad)

    def test_extra_server_never_helps_defense(self):
        """p2 - p1 = 4 q^4 (1-q): nonnegative, zero only at the endpoints."""
        for i in range(101):
            q = i / 100
            diff = p2_exact(q) - p1_exact(q)
            assert diff >= 0
            assert math.isclose(diff, 4 * q**4 * (1 - q), rel_tol=0, abs_tol=1e-12)
            if q in (0.0, 1.0):
                assert diff == 0
            else:
                assert diff > 0


# -- Monte Carlo reference -----------------------------------------------------
#
# The trial loop the byte-order kernel replaced: each 6-byte chunk read as an
# integer and the fallen servers counted.


def reference_mc(model, scheme):
    servers = {SCHEME_BASELINE4: 4, SCHEME_SSS5: 5}[scheme]
    threshold = round(model.q * (1 << 48))
    prefix = f"{model.seed}:{scheme}:".encode()
    hits = 0
    for trial in range(model.trials):
        digest = hashlib.sha256(prefix + str(trial).encode()).digest()
        fallen = 0
        for j in range(servers):
            chunk = int.from_bytes(digest[6 * j : 6 * j + 6], "big")
            if chunk < threshold:
                fallen += 1
        if fallen >= 4:
            hits += 1
    return hits / model.trials


# Hits per (scheme, q) for seeds 0, 9, -3 and 2**40 at 1, 7 and 3000 trials,
# recorded from the reference loop.  0.9999999999999999 rounds to a
# threshold of 2**48, which needs a seventh byte.
MC_SEEDS = (0, 9, -3, 2**40)
MC_TRIALS = (1, 7, 3000)
NO_HITS, ALL_HITS = (0, 0, 0), MC_TRIALS
MC_HITS = {
    SCHEME_BASELINE4: {
        0.0: (NO_HITS,) * 4,
        1e-9: (NO_HITS,) * 4,
        0.1: ((0, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 1)),
        0.5: ((0, 0, 190), (0, 0, 180), (0, 0, 201), (0, 0, 165)),
        0.9: ((0, 5, 2004), (1, 5, 2021), (1, 6, 2010), (0, 6, 1948)),
        0.9999999999999999: (ALL_HITS,) * 4,
        1.0: (ALL_HITS,) * 4,
    },
    SCHEME_SSS5: {
        0.0: (NO_HITS,) * 4,
        1e-9: (NO_HITS,) * 4,
        0.1: ((0, 0, 1), (0, 0, 2), (0, 0, 0), (0, 0, 2)),
        0.5: ((0, 1, 561), (0, 1, 574), (0, 2, 561), (0, 1, 537)),
        0.9: ((1, 7, 2776), (1, 7, 2780), (0, 4, 2765), (1, 7, 2749)),
        0.9999999999999999: (ALL_HITS,) * 4,
        1.0: (ALL_HITS,) * 4,
    },
}


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "scheme, q", [(scheme, q) for scheme in MC_HITS for q in MC_HITS[scheme]]
    )
    def test_pinned_estimates(self, scheme, q):
        for seed, row in zip(MC_SEEDS, MC_HITS[scheme][q]):
            for trials, hits in zip(MC_TRIALS, row):
                model = CompromiseModel(q=q, trials=trials, seed=seed)
                assert mc_group_compromise(model, scheme) == hits / trials
                assert reference_mc(model, scheme) == hits / trials

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        q=st.floats(0, 1) | st.sampled_from((0.0, 0.9999999999999999, 1.0)),
        seed=st.integers(),
        trials=st.integers(1, 300),
        scheme=st.sampled_from((SCHEME_BASELINE4, SCHEME_SSS5)),
    )
    def test_matches_the_reference_loop(self, q, seed, trials, scheme):
        model = CompromiseModel(q=q, trials=trials, seed=seed)
        assert mc_group_compromise(model, scheme) == reference_mc(model, scheme)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        chunks=st.lists(
            st.sampled_from((0, 1, 2**47 - 1, 2**47, 2**47 + 1, 2**48 - 1)),
            min_size=5,
            max_size=5,
        ),
        q=st.sampled_from((0.0, 0.5, 0.9999999999999999, 1.0)),
        scheme=st.sampled_from((SCHEME_BASELINE4, SCHEME_SSS5)),
    )
    def test_chunks_at_the_threshold(self, chunks, q, scheme):
        """Digests no seed reaches: chunks equal to, or one off, the threshold
        of q = 0.5, and the all-0xff chunk below the threshold 2**48."""
        digest = b"".join(c.to_bytes(6, "big") for c in chunks) + b"\0\0"

        class Fixed:
            def __init__(self, data):
                pass

            def digest(self):
                return digest

        model = CompromiseModel(q=q, trials=1, seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hashlib, "sha256", Fixed)
            assert mc_group_compromise(model, scheme) == reference_mc(model, scheme)

    @pytest.mark.parametrize("scheme", [SCHEME_BASELINE4, SCHEME_SSS5])
    def test_one_digest_per_trial(self, monkeypatch, scheme):
        calls = []
        sha256 = hashlib.sha256

        def counting(data):
            calls.append(data)
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        mc_group_compromise(CompromiseModel(q=0.5, trials=1000, seed=9), scheme)
        assert len(calls) == 1000

    def test_streams_in_bounded_memory(self):
        """A list of 1e5 digests would take megabytes; the loop keeps one."""
        model = CompromiseModel(q=0.5, trials=100_000, seed=9)
        tracemalloc.start()
        try:
            mc_group_compromise(model, SCHEME_SSS5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_degenerate_q(self):
        model = CompromiseModel(q=0.0, trials=1000, seed=1)
        assert mc_group_compromise(model, SCHEME_BASELINE4) == 0.0
        model = CompromiseModel(q=1.0, trials=1000, seed=1)
        assert mc_group_compromise(model, SCHEME_BASELINE4) == 1.0
        assert mc_group_compromise(model, SCHEME_SSS5) == 1.0

    def test_deterministic_per_seed(self):
        model = CompromiseModel(q=0.5, trials=5000, seed=77)
        a = mc_group_compromise(model, SCHEME_SSS5)
        b = mc_group_compromise(model, SCHEME_SSS5)
        assert a == b

    def test_within_three_sigma_of_exact(self):
        trials = 20_000
        for q, scheme, exact in (
            (0.5, SCHEME_BASELINE4, p1_exact(0.5)),
            (0.5, SCHEME_SSS5, p2_exact(0.5)),
        ):
            model = CompromiseModel(q=q, trials=trials, seed=11)
            estimate = mc_group_compromise(model, scheme)
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(estimate - exact) < 3 * sigma

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            CompromiseModel(q=1.5, trials=10, seed=1)
        with pytest.raises(DomainError):
            CompromiseModel(q=0.5, trials=0, seed=1)
        with pytest.raises(DomainError):
            mc_group_compromise(CompromiseModel(q=0.5, trials=10, seed=1), "bogus")

    @pytest.mark.parametrize(
        "trials, seed",
        [(10, 9.0), (10.0, 9), (True, 9), (10, True), (10, "9")],
        ids=["float-seed", "float-trials", "bool-trials", "bool-seed", "str-seed"],
    )
    def test_non_int_trials_or_seed_refused(self, trials, seed):
        with pytest.raises(ConfigurationError, match="must be ints"):
            CompromiseModel(q=0.5, trials=trials, seed=seed)

    @pytest.mark.parametrize("q", ["0.5", None, True], ids=["str", "none", "bool"])
    def test_non_number_q_refused(self, q):
        with pytest.raises(ConfigurationError, match="must be a number"):
            CompromiseModel(q=q, trials=10, seed=1)
        with pytest.raises(ConfigurationError, match="must be a number"):
            p1_exact(q)
        with pytest.raises(ConfigurationError, match="must be a number"):
            p2_exact(q)


class TestClosure:
    def test_empty_set_knows_nothing(self, toy_system):
        knowledge = attacker_closure(toy_system, [])
        assert not knowledge.secret_recovered
        assert knowledge.known_primary == {}
        assert knowledge.derived_subsecrets == {}

    def test_one_full_group(self, toy_system):
        """All four members of one group: four shares and the group's own
        sub-secret, but nothing beyond the group (4 < 8)."""
        knowledge = attacker_closure(toy_system, [1, 2, 3, 4])
        assert sorted(knowledge.known_primary) == [1, 2, 3, 4]
        assert sorted(knowledge.derived_subsecrets) == [1]
        assert not knowledge.secret_recovered
        for node_id in (1, 2, 3, 4):
            assert knowledge.known_primary[node_id] == toy_system.nodes[node_id].primary.y

    def test_derived_values_are_exact(self, toy_system):
        """Three members plus the group's external holder derive the fourth
        member's share exactly."""
        holder = holder_of(toy_system, 1)
        knowledge = attacker_closure(toy_system, [1, 2, 3, holder])
        assert knowledge.known_primary[4] == toy_system.nodes[4].primary.y
        assert 1 in knowledge.derived_subsecrets

    def test_worst_case_six_servers(self, reciprocal_system):
        """Three members of each mutual group, holders included: two repairs
        give eight shares and the secret from only six servers."""
        state = reciprocal_system
        h1, h2 = holder_of(state, 1), holder_of(state, 2)
        members_1 = [m for m in members(1, state.gamma) if m != h2][:2] + [h2]
        members_2 = [m for m in members(2, state.gamma) if m != h1][:2] + [h1]
        compromised = set(members_1) | set(members_2)
        assert len(compromised) == 6
        knowledge = attacker_closure(state, compromised)
        assert sorted(knowledge.derived_subsecrets) == [1, 2]
        assert len(knowledge.known_primary) == 8
        assert knowledge.secret_recovered

    def test_monotone(self, toy_system, rng):
        ids = sorted(toy_system.nodes)
        for _ in range(200):
            small = set(rng.sample(ids, rng.randrange(0, 10)))
            big = small | set(rng.sample(ids, rng.randrange(0, 10)))
            a = attacker_closure(toy_system, small)
            b = attacker_closure(toy_system, big)
            assert set(a.known_primary) <= set(b.known_primary)
            assert set(a.derived_subsecrets) <= set(b.derived_subsecrets)
            for g in a.known_subshares:
                assert a.known_subshares[g] <= b.known_subshares[g]
            assert b.secret_recovered or not a.secret_recovered

    def test_closure_is_a_fixpoint(self, toy_system, rng):
        """Re-applying the derivation rules to a closure changes nothing."""
        gamma = toy_system.gamma
        for _ in range(200):
            comp = rng.sample(sorted(toy_system.nodes), rng.randrange(0, 13))
            knowledge = attacker_closure(toy_system, comp)
            for group_id in (1, 2, 3):
                subs = knowledge.known_subshares[group_id]
                if len(subs) >= gamma:
                    assert group_id in knowledge.derived_subsecrets
                known_members = [
                    m for m in members(group_id, gamma) if m in knowledge.known_primary
                ]
                points = len(known_members) + (
                    1 if group_id in knowledge.derived_subsecrets else 0
                )
                if points >= gamma:
                    assert len(known_members) == gamma
            assert knowledge.secret_recovered == (
                len(knowledge.known_primary) >= toy_system.k
            )

    def test_counting_path_matches_closure(self, toy_system, rng):
        ref = ReferenceCounter(toy_system)
        holders = state_holders(toy_system)
        ids = sorted(toy_system.nodes)
        for _ in range(2000):
            comp = frozenset(rng.sample(ids, rng.randrange(0, 13)))
            assert ref.recovers(comp, holders) == attacker_closure(
                toy_system, comp
            ).secret_recovered

    def test_unknown_node_rejected(self, toy_system):
        with pytest.raises(DomainError):
            attacker_closure(toy_system, [99])

    def test_conditional_threshold(self, toy_system, rng):
        """No derivable sub-secret means the plain threshold stands."""
        ids = sorted(toy_system.nodes)
        seen_condition = 0
        for _ in range(1000):
            comp = frozenset(rng.sample(ids, rng.randrange(0, 13)))
            knowledge = attacker_closure(toy_system, comp)
            if not knowledge.derived_subsecrets:
                seen_condition += 1
                assert knowledge.secret_recovered == (len(comp) >= toy_system.k)
        assert seen_condition > 100


class TestMinCompromise:
    def test_reciprocal_fixture_needs_six(self, reciprocal_system):
        result = min_compromise_search(reciprocal_system)
        assert result.size == 6
        by_group = {}
        for node_id in result.witness:
            by_group.setdefault(
                group_of(node_id, reciprocal_system.gamma), []
            ).append(node_id)
        assert sorted(len(v) for v in by_group.values()) == [3, 3]

    def test_bare_threshold_needs_eight(self, bare_system):
        assert min_compromise_search(bare_system).size == 8

    def test_anti_reciprocal_placements_need_seven(self, toy_system):
        result = min_compromise_over_placements(toy_system, anti_reciprocal=True)
        assert result.size == 7

    def test_unconstrained_placements_need_six(self, toy_system):
        result = min_compromise_over_placements(toy_system, anti_reciprocal=False)
        assert result.size == 6

    def test_anti_reciprocal_state_needs_seven(self):
        state = protocol.system_setup(**TOY, placement=protocol.PLACEMENT_ANTI_RECIPROCAL)
        assert min_compromise_search(state).size == 7

    def test_enumeration_refused_for_large_systems(self):
        state = protocol.system_setup(8, 34, 17, secret=1, seed=1)
        with pytest.raises(EnumerationLimitError):
            min_compromise_search(state)

    def test_sweep_answers_wide_groups(self):
        """(128, 256, 4): over 10^9 candidate placements, which the sweep
        never lists; the paper's k-1 and k-2."""
        state = protocol.system_setup(128, 256, 4, secret=1, seed=1)
        ref = ReferenceCounter(state)
        for anti_reciprocal, size in ((True, 127), (False, 126)):
            result = min_compromise_over_placements(state, anti_reciprocal)
            assert result.size == size
            assert len(result.witness) == size
            assert ref.recovers(result.witness, result.holders)
            assert not ref.recovers(sorted(result.witness)[1:], result.holders)

    @pytest.mark.parametrize("anti_reciprocal", [True, False])
    def test_sweep_answers_seventeen_groups(self, anti_reciprocal):
        """Above the search's group limit, the exact search under the
        sweep's own placement agrees: size, witness and holders."""
        state = protocol.system_setup(8, 34, 17, secret=1, seed=1)
        result = min_compromise_over_placements(state, anti_reciprocal)
        assert result == _min_under(state, result.holders)

    def test_sweep_answers_churn_narrow(self):
        """(128, 1024, 256): an admissible placement whose witness of 96
        recovers, and stops recovering without any one of its nodes."""
        state = protocol.system_setup(128, 1024, 256, secret=1, seed=1)
        result = min_compromise_over_placements(state, anti_reciprocal=True)
        assert result.size == len(result.witness) == 96
        gamma, holders = state.gamma, result.holders
        assert sorted(holders) == list(range(1, 257))
        for g, holder in holders.items():
            host = group_of(holder, gamma)
            assert host != g
            assert holders[host] not in members(g, gamma)
        ref = ReferenceCounter(state)
        assert ref.recovers(result.witness, holders)
        for node_id in result.witness:
            assert not ref.recovers(result.witness - {node_id}, holders)

    def test_sweep_reads_no_node_store(self, toy_system):
        bare = dataclasses.replace(toy_system, nodes={})
        for anti_reciprocal in (True, False):
            assert min_compromise_over_placements(
                bare, anti_reciprocal
            ) == min_compromise_over_placements(toy_system, anti_reciprocal)

    def test_sweep_needs_redundancy(self, bare_system):
        with pytest.raises(ConfigurationError):
            min_compromise_over_placements(bare_system)

    def test_search_refuses_a_partial_state(self, tmp_path, reciprocal_system):
        """Without the stores of nodes 4, 5 and 7 the holder map lacks
        groups, and the search would answer 8 for this state's 6."""
        protocol.save_state(reciprocal_system, tmp_path)
        partial = protocol.load_state(tmp_path, [1, 2, 3, 6, 8, 9, 10, 11, 12])
        with pytest.raises(ConfigurationError, match="all 12 node stores"):
            min_compromise_search(partial)
        assert min_compromise_search(protocol.load_state(tmp_path)).size == 6

    def test_analyzer_requires_healthy_system(self, toy_system):
        protocol.mark_failed(toy_system, 1)
        with pytest.raises(ConfigurationError):
            min_compromise_search(toy_system)


class TestGroupSolverExactness:
    """The group-level solver against the node-subset brute force."""

    def test_every_unconstrained_placement_of_the_toy(self, toy_system):
        ref = ReferenceCounter(toy_system)
        placements = admissible_placements(toy_system, anti_reciprocal=False)
        assert len(placements) == 512
        sizes = set()
        for holders in placements:
            result = _min_under(toy_system, holders)
            check_against_reference(toy_system, result, holders, ref)
            sizes.add(result.size)
        assert min(sizes) == 6

    @pytest.mark.parametrize("anti_reciprocal", [True, False])
    def test_sweep_witness_under_its_placement(self, toy_system, anti_reciprocal):
        result = min_compromise_over_placements(toy_system, anti_reciprocal)
        assert result.holders in admissible_placements(toy_system, anti_reciprocal)
        check_against_reference(toy_system, result, result.holders)

    @pytest.mark.parametrize("anti_reciprocal", [True, False])
    def test_closed_form_sweep_matches_every_placement(self, anti_reciprocal):
        """The closed form against the exhaustive sweep on 120 shapes: equal
        sizes, the same refusals, an admissible canonical placement, and a
        witness that recovers under it."""
        cases = list(sweep_grid(max_n=16, max_placements=5000))
        assert len(cases) == 120
        for k, n, m in cases:
            state = protocol.system_setup(k, n, m, secret=1, seed=k)
            placements = admissible_placements(state, anti_reciprocal)
            if not placements:
                with pytest.raises(ConfigurationError):
                    min_compromise_over_placements(state, anti_reciprocal)
                continue
            result = min_compromise_over_placements(state, anti_reciprocal)
            assert result.size == reference_sweep(state, placements), (k, n, m)
            assert result.holders in placements
            assert len(result.witness) == result.size
            assert ReferenceCounter(state).recovers(result.witness, result.holders)
            assert result == _min_under(state, result.holders), (k, n, m)

    @pytest.mark.parametrize("placement", protocol.PLACEMENT_MODES)
    def test_sixteen_node_states(self, placement):
        for seed in range(1, 11):
            state = protocol.system_setup(12, 16, 4, secret=5, seed=seed, placement=placement)
            result = min_compromise_search(state)
            assert result.holders == state_holders(state)
            check_against_reference(state, result, result.holders)
            assert attacker_closure(state, result.witness).secret_recovered

    def test_twenty_nodes_beyond_the_old_node_limit(self):
        state = protocol.system_setup(8, 20, 5, secret=1, seed=1)
        result = min_compromise_search(state)
        check_against_reference(state, result, state_holders(state))
        assert attacker_closure(state, result.witness).secret_recovered

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(system_shapes(max_n=16))
    def test_random_systems(self, shape):
        k, n, m, placement, seed = shape
        state = protocol.system_setup(k, n, m, secret=3, seed=seed, placement=placement)
        result = min_compromise_search(state)
        check_against_reference(state, result, state_holders(state))
        assert attacker_closure(state, result.witness).secret_recovered
