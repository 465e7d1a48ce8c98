"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured numbers (run pytest with -s
or -rA to see them) and pins the stated tolerance and time budget.  The
locality benchmark is timing-based and intentionally non-gating (xfail).
"""

import copy
import math
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from lrshare.field import DEFAULT_MODULUS, PrimeField
from lrshare.protocol import (
    PLACEMENT_NONE,
    PLACEMENT_RECIPROCAL,
    mark_failed,
    registry_dict,
    request_repair,
    save_state,
    storage_accounting,
    system_setup,
)
from lrshare.shamir import recover, split
from lrshare.threat import (
    SCHEME_BASELINE4,
    SCHEME_SSS5,
    CompromiseModel,
    attacker_closure,
    mc_group_compromise,
    min_compromise_over_placements,
    min_compromise_search,
    p1_exact,
    p2_exact,
)

TOY = dict(k=8, n=12, m=3, secret=42, seed=7)


def test_c1_shamir_roundtrip_exhaustive_subsets():
    """(8,12) over GF(2^31-1): 100 random secrets, all 495 8-subsets recover."""
    started = time.perf_counter()
    field = PrimeField(DEFAULT_MODULUS)
    rng = random.Random(1001)
    for _ in range(100):
        secret = rng.randrange(field.modulus)
        shares = split(field, secret, 8, 12, rng)
        for subset in combinations(shares, 8):
            assert recover(field, list(subset), 8) == secret
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: 100 secrets x 495 subsets in {elapsed:.2f}s (< 10s)")


def test_c2_perfect_secrecy_exhaustive():
    """(3,5) over GF(13): every 2-subset view is identically distributed
    for every secret, enumerating all 13^3 polynomials exactly."""
    started = time.perf_counter()
    field = PrimeField(13)
    xs = (1, 2, 3, 4, 5)
    position_pairs = list(combinations(range(5), 2))
    per_secret = []
    for secret in range(13):
        tallies = {pair: Counter() for pair in position_pairs}
        for a1 in range(13):
            for a2 in range(13):
                poly = [secret, a1, a2]
                ys = [field.poly_eval(poly, x) for x in xs]
                for pair in position_pairs:
                    tallies[pair][(ys[pair[0]], ys[pair[1]])] += 1
        per_secret.append(tallies)
    for pair in position_pairs:
        reference = per_secret[0][pair]
        assert all(count == 1 for count in reference.values())
        assert len(reference) == 169
        for other in per_secret[1:]:
            assert other[pair] == reference
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 2: 13^3 polynomials x 10 position pairs uniform "
        f"in {elapsed:.2f}s (< 5s)"
    )


def test_c3_repair_exactness_all_single_failures():
    """Toy system: each of the 12 single failures repairs to the exact
    original share and sub-share, and any 8 shares still recover 42."""
    started = time.perf_counter()
    pristine = system_setup(**TOY)
    shadow_primary = {i: node.primary for i, node in pristine.nodes.items()}
    shadow_subshare = {i: node.subshare for i, node in pristine.nodes.items()}
    for failed_id in range(1, 13):
        state = copy.deepcopy(pristine)
        mark_failed(state, failed_id)
        repaired, restored, _ = request_repair(
            state, state.nodes[failed_id].identity, failed_id
        )
        assert repaired == shadow_primary[failed_id]
        assert restored == shadow_subshare[failed_id]
        shares = [state.nodes[i].primary for i in range(1, 13)]
        for subset in combinations(shares, 8):
            assert recover(state.field, list(subset), 8) == 42
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 3: 12 exact repairs, 495 subsets each, "
        f"in {elapsed:.2f}s (< 5s)"
    )


def test_c4_group_compromise_formulas_and_monte_carlo():
    """p1(0.5)=0.0625 and p2(0.5)=0.1875 exactly; 1e5-trial Monte Carlo
    matches both within 0.005 at q in {0.3, 0.5, 0.7}; the sss5-minus-
    baseline gap is nonnegative on a 101-point grid."""
    started = time.perf_counter()
    assert p1_exact(0.5) == 0.0625
    assert p2_exact(0.5) == 0.1875
    report = []
    for q in (0.3, 0.5, 0.7):
        model = CompromiseModel(q=q, trials=100_000, seed=404)
        est1 = mc_group_compromise(model, SCHEME_BASELINE4)
        est2 = mc_group_compromise(model, SCHEME_SSS5)
        assert abs(est1 - p1_exact(q)) < 0.005
        assert abs(est2 - p2_exact(q)) < 0.005
        report.append(f"q={q}: |d1|={abs(est1 - p1_exact(q)):.4f} "
                      f"|d2|={abs(est2 - p2_exact(q)):.4f}")
    for i in range(101):
        q = i / 100
        diff = p2_exact(q) - p1_exact(q)
        assert diff >= 0
        assert math.isclose(diff, 4 * q**4 * (1 - q), rel_tol=0, abs_tol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"PASS criterion 4: exact values reproduced; {'; '.join(report)} "
        f"(tol 0.005) in {elapsed:.2f}s (< 30s)"
    )


def test_c5_worst_case_enumeration():
    """Reciprocal placement falls to 6 compromised servers with a 3+3
    two-group witness; over every anti-reciprocal placement the minimum is
    7; with no redundancy at all it is the bare threshold 8."""
    started = time.perf_counter()

    reciprocal = system_setup(**TOY, placement=PLACEMENT_RECIPROCAL)
    found = min_compromise_search(reciprocal)
    assert found.size == 6
    by_group = Counter(reciprocal.group_of[i] for i in found.witness)
    assert sorted(by_group.values()) == [3, 3]

    toy = system_setup(**TOY)
    sweep = min_compromise_over_placements(toy, anti_reciprocal=True)
    assert sweep.size == 7

    bare = system_setup(**TOY, placement=PLACEMENT_NONE)
    assert min_compromise_search(bare).size == 8

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 5: reciprocal=6 (witness 3+3), anti-reciprocal "
        f"placements=7, bare threshold=8, in {elapsed:.2f}s (< 60s)"
    )


def test_c6_storage_accounting():
    """Toy system stores exactly 2n + m = 27 private field elements and
    every in-group node stores exactly 2 of its own role."""
    state = system_setup(**TOY)
    accounting = storage_accounting(state)
    assert accounting["total_private_elements"] == 2 * 12 + 3 == 27
    assert all(v["own_role"] == 2 for v in accounting["per_node"].values())
    print("PASS criterion 6: 2n + m = 27 private elements, 2 per node")


def test_c7_protocol_confidentiality(tmp_path):
    """Across all 12 repair traces the repaired value appears in exactly
    one delivery event addressed to the proposer; the serialized registry
    carries no y values and no holder locations."""
    pristine = system_setup(**TOY)
    for failed_id in range(1, 13):
        state = copy.deepcopy(pristine)
        repaired_y = state.nodes[failed_id].primary.y
        mark_failed(state, failed_id)
        _, _, trace = request_repair(
            state, state.nodes[failed_id].identity, failed_id
        )
        carrying = [e for e in trace if repaired_y in e.payload.values()]
        assert len(carrying) == 1
        assert carrying[0].kind == "delivery"
        assert carrying[0].recipients == (failed_id,)
        for event in trace:
            if "sub_y" in event.payload:
                assert event.kind in ("holder-response", "contribution")
                assert event.recipients == (failed_id,)

    save_state(pristine, tmp_path)
    registry_text = (tmp_path / "registry.json").read_text()
    for node in pristine.nodes.values():
        assert f'"{node.primary.y}"' not in registry_text
        assert f'"{node.subshare.y}"' not in registry_text
        for _, sub in node.hosted:
            assert f'"{sub.y}"' not in registry_text
    assert "holder" not in registry_text.lower()
    assert "hosted" not in registry_text.lower()
    assert set(registry_dict(pristine)) == {
        "modulus", "k", "n", "m", "placement_mode", "participants", "groups",
    }
    print("PASS criterion 7: delivery-only exposure in 12 traces; registry clean")


def test_c8_conditional_threshold_property():
    """Whenever a compromised set derives no sub-secret, the secret is
    recovered iff it directly holds at least k = 8 primary shares."""
    state = system_setup(**TOY)
    rng = random.Random(808)
    ids = sorted(state.nodes)
    applicable = 0
    for _ in range(10_000):
        compromised = frozenset(rng.sample(ids, rng.randrange(0, 13)))
        knowledge = attacker_closure(state, compromised)
        if knowledge.derived_subsecrets:
            continue
        applicable += 1
        directly_held = len(compromised)
        assert knowledge.secret_recovered == (directly_held >= 8)
    assert applicable > 1000
    print(
        f"PASS criterion 8: threshold retained in {applicable} no-repair "
        f"subsets of 10000"
    )


@pytest.mark.xfail(
    reason="soft locality benchmark: wall-clock timing, non-gating",
    strict=False,
)
def test_c9_repair_cost_independent_of_system_size():
    """Mean single-repair time with gamma=4 fixed differs by < 2x between
    n=12 and n=120 (repair touches the group, not the system)."""

    def mean_repair_seconds(n, m, repairs):
        base = system_setup(8, n, m, secret=42, seed=7)
        target_nodes = [base.groups[g].spec.member_ids[0] for g in
                        sorted(base.groups)][:repairs]
        while len(target_nodes) < repairs:
            target_nodes += target_nodes
        timings = []
        for node_id in target_nodes[:repairs]:
            state = copy.deepcopy(base)
            mark_failed(state, node_id)
            proposer = state.nodes[node_id].identity
            t0 = time.perf_counter()
            request_repair(state, proposer, node_id)
            timings.append(time.perf_counter() - t0)
        return sum(timings) / len(timings)

    small = mean_repair_seconds(12, 3, repairs=30)
    large = mean_repair_seconds(120, 30, repairs=30)
    ratio = large / small
    assert ratio < 2.0
    print(
        f"PASS criterion 9 (soft): repair {small*1e6:.0f}us at n=12 vs "
        f"{large*1e6:.0f}us at n=120, ratio {ratio:.2f} (< 2x)"
    )
