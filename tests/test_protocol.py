"""Simulated network: setup, placement, digest lookup, repair, persistence."""

import copy
import hashlib
import json
import os
import tempfile
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrshare import protocol
from lrshare.cli import main
from lrshare.errors import (
    AuthorizationError,
    ConfigurationError,
    DomainError,
    HolderLostError,
    InsufficientPointsError,
    InsufficientSharesError,
    IntegrityError,
    PlacementError,
    StateFileError,
)
from lrshare.protocol import (
    PLACEMENT_ANTI_RECIPROCAL,
    PLACEMENT_MODES,
    PLACEMENT_RANDOM,
    PLACEMENT_RECIPROCAL,
    hash_identity,
    load_state,
    lookup_holder,
    mark_failed,
    recover_secret,
    node_store_dict,
    registry_dict,
    request_repair,
    save_state,
    storage_accounting,
    system_setup,
)
from tests.conftest import TOY, system_shapes


def holder_of(state, group_id):
    digest = state.groups[group_id].digest_hex
    for node_id, node in state.nodes.items():
        if any(d == digest for d, _ in node.hosted):
            return node_id
    return None


# SHA-256 over every file save_state writes (relative path, NUL, bytes; in
# path order) for seed 7 and secret 42.  Existing seeds must keep their
# bytes, so a change to the rng streams, the placement order or the file
# format fails here.
GOLDEN_STATE_DIGESTS = {
    ((8, 12, 3), "random"): "c01bd97bb7a362420cc9656783d0a67972d02bd5e27b60a3811ce8b6dec8f624",
    ((8, 12, 3), "anti-reciprocal"): "a90814f019be43b55616547232d8ad60d557a2cff53dcaf93dd6257f30d2a4d6",
    ((8, 12, 3), "reciprocal"): "9cfce29fa0e9a3e2ed8abcad0ab3a577f6b3fa5dfe0bd1679d14caa4d16cba1c",
    ((8, 12, 3), "none"): "56f170730cd0a545d3e4fc1feb2eff5beeb7c6f3e2a6b2028df2fc233d8e3286",
    ((12, 16, 4), "random"): "160b4a1b0af954fc7a38812d30f0163ceb983b9ee6babea7628adcd0cf6c869a",
    ((12, 16, 4), "anti-reciprocal"): "2f9d172bee7357baad5d08aca6300d281d7ca0976bd00c7bad097340fafd19f2",
    ((12, 16, 4), "reciprocal"): "fef1c6b7381149546d3a0697a06a8afc72991089aebf39b691f1ff902f4ecf30",
    ((12, 16, 4), "none"): "0a9ab8a74ffa1887787a306f6e27a9b0bbabfd011869c3230359eebe48b79181",
}


def state_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.json")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestHashIdentity:
    def test_order_insensitive(self):
        ids = [0xAABBCCDDEEFF, 0x112233445566, 0x0F0F0F0F0F0F]
        assert hash_identity(ids) == hash_identity(reversed(ids))

    def test_deterministic(self):
        assert hash_identity([1, 2, 3]) == hash_identity([1, 2, 3])

    def test_distinct_groups_distinct_digests(self, toy_system):
        digests = {rec.digest_hex for rec in toy_system.groups.values()}
        assert len(digests) == 3

    def test_lowercase_hex_256_bits(self):
        digest = hash_identity([42])
        assert len(digest) == 64
        assert digest == digest.lower()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            hash_identity([])

    def test_oversized_id_rejected(self):
        with pytest.raises(DomainError):
            hash_identity([1 << 48])


class TestSetup:
    def test_toy_layout(self, toy_system):
        assert len(toy_system.nodes) == 12
        assert len(toy_system.groups) == 3
        assert toy_system.gamma == 4
        assert [rec.spec.member_ids for rec in toy_system.groups.values()] == [
            (1, 2, 3, 4),
            (5, 6, 7, 8),
            (9, 10, 11, 12),
        ]

    def test_storage_accounting(self, toy_system):
        accounting = storage_accounting(toy_system)
        assert accounting["total_private_elements"] == 2 * 12 + 3
        assert all(v["own_role"] == 2 for v in accounting["per_node"].values())

    def test_hw_ids_unique(self, toy_system):
        hw = [node.identity.hw_id for node in toy_system.nodes.values()]
        assert len(set(hw)) == 12

    def test_x_lambda_avoids_member_xs_and_zero(self, toy_system):
        for rec in toy_system.groups.values():
            member_xs = {toy_system.nodes[m].primary.x for m in rec.spec.member_ids}
            assert member_xs == set(rec.spec.member_ids)
            assert rec.x_lambda != 0
            assert rec.x_lambda not in member_xs

    def test_member_subshares_use_group_namespace(self, toy_system):
        for rec in toy_system.groups.values():
            xs = [toy_system.nodes[m].subshare.x for m in rec.spec.member_ids]
            assert xs == [1, 2, 3, 4]
        hosted_xs = [sub.x for node in toy_system.nodes.values() for _, sub in node.hosted]
        assert hosted_xs == [5, 5, 5]
        for entry in registry_dict(toy_system)["groups"]:
            assert entry["sss_x"] == ["1", "2", "3", "4", "5"]

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            save_state(system_setup(**TOY), tmp_path / name)
        files_a = sorted((tmp_path / "a").rglob("*.json"))
        files_b = sorted((tmp_path / "b").rglob("*.json"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_saved_bytes_match_golden_digests(self, tmp_path):
        for (k, n, m), placement in product(((8, 12, 3), (12, 16, 4)), PLACEMENT_MODES):
            directory = tmp_path / f"{n}-{placement}"
            state = system_setup(k, n, m, secret=42, seed=7, placement=placement)
            save_state(state, directory)
            digest = GOLDEN_STATE_DIGESTS[(k, n, m), placement]
            assert state_digest(directory) == digest, (k, n, m, placement)

    def test_fail_repair_restores_golden_bytes(self, tmp_path):
        for (k, n, m), placement in product(((8, 12, 3), (12, 16, 4)), PLACEMENT_MODES):
            directory = tmp_path / f"{n}-{placement}"
            sd = ["--state-dir", str(directory)]
            flags = ["--k", str(k), "--n", str(n), "--m", str(m), "--secret", "42"]
            assert main([*sd, "setup", *flags, "--seed", "7", "--placement", placement]) == 0
            golden = GOLDEN_STATE_DIGESTS[(k, n, m), placement]
            # a failed holder loses the sub-share it hosts, so only plain nodes
            nodes = load_state(directory).nodes
            plain = [i for i in sorted(nodes) if not nodes[i].hosted]
            for node in (plain[0], plain[-1]):
                assert main([*sd, "fail", "--node", str(node)]) == 0
                failed = state_digest(directory)
                if placement == "none":
                    # a refused repair writes nothing
                    assert main([*sd, "repair", "--node", str(node)]) == 2
                    assert state_digest(directory) == failed
                    continue
                assert main([*sd, "repair", "--node", str(node)]) == 0
                assert state_digest(directory) == golden, (k, n, m, placement, node)
            assert not list(directory.rglob("*.tmp"))

    def test_different_seed_differs(self):
        a = system_setup(8, 12, 3, secret=42, seed=7)
        b = system_setup(8, 12, 3, secret=42, seed=8)
        assert a.nodes[1].primary != b.nodes[1].primary

    def test_modulus_too_small(self):
        with pytest.raises(ConfigurationError):
            system_setup(8, 12, 3, secret=1, seed=1, modulus=13)

    def test_non_divisible_groups(self):
        with pytest.raises(ConfigurationError):
            system_setup(8, 12, 5, secret=1, seed=1)

    def test_seed_required(self):
        with pytest.raises(ConfigurationError):
            system_setup(8, 12, 3, secret=1, seed=None)

    def test_bare_system_has_no_redundancy(self, bare_system):
        assert all(rec.x_lambda is None for rec in bare_system.groups.values())
        assert all(node.subshare is None for node in bare_system.nodes.values())
        assert all(not node.hosted for node in bare_system.nodes.values())
        total = storage_accounting(bare_system)["total_private_elements"]
        assert total == 12


class TestPlacement:
    def test_holder_always_outside_group(self):
        placements = (
            PLACEMENT_RANDOM, PLACEMENT_ANTI_RECIPROCAL, PLACEMENT_RECIPROCAL
        )
        for placement, seed in product(placements, range(50)):
            state = system_setup(8, 12, 3, secret=1, seed=seed, placement=placement)
            for group_id, rec in state.groups.items():
                holder = holder_of(state, group_id)
                assert holder is not None
                assert holder not in rec.spec.member_ids

    def test_anti_reciprocal_never_mutual(self):
        for seed in range(1000):
            state = system_setup(
                8, 12, 3, secret=1, seed=seed, placement=PLACEMENT_ANTI_RECIPROCAL
            )
            holders = {g: holder_of(state, g) for g in state.groups}
            for g, h in combinations(state.groups, 2):
                mutual = (
                    holders[g] in state.groups[h].spec.member_ids
                    and holders[h] in state.groups[g].spec.member_ids
                )
                assert not mutual, f"seed {seed}: groups {g},{h} host each other"

    def test_random_placement_produces_mutual_pairs_sometimes(self):
        found = False
        for seed in range(50):
            state = system_setup(8, 12, 3, secret=1, seed=seed)
            holders = {g: holder_of(state, g) for g in state.groups}
            for g, h in combinations(state.groups, 2):
                if (
                    holders[g] in state.groups[h].spec.member_ids
                    and holders[h] in state.groups[g].spec.member_ids
                ):
                    found = True
        assert found

    def test_reciprocal_fixture_forces_mutual_pair(self, reciprocal_system):
        state = reciprocal_system
        h1, h2 = holder_of(state, 1), holder_of(state, 2)
        assert h1 in state.groups[2].spec.member_ids
        assert h2 in state.groups[1].spec.member_ids

    def test_group_records_nothing_about_holder(self, toy_system):
        registry = registry_dict(toy_system)
        assert "holder" not in json.dumps(registry).lower()
        for entry in registry["groups"]:
            assert set(entry) == {"id", "members", "x_lambda", "sss_x", "digest_hex"}

    def test_two_group_anti_reciprocal_impossible(self):
        # with m=2 every cross-group placement is mutual by construction
        with pytest.raises(PlacementError):
            system_setup(3, 4, 2, secret=1, seed=1, placement=PLACEMENT_ANTI_RECIPROCAL)


class TestLookupHolder:
    def test_exactly_one_responder(self, toy_system):
        for rec in toy_system.groups.values():
            node_id, sub = lookup_holder(toy_system, rec.digest_hex)
            assert node_id not in rec.spec.member_ids
            assert sub.x == 5

    def test_unknown_digest(self, toy_system):
        with pytest.raises(HolderLostError):
            lookup_holder(toy_system, "ff" * 32)

    def test_crashed_holder_surfaces_loss(self, toy_system):
        digest = toy_system.groups[1].digest_hex
        holder, _ = lookup_holder(toy_system, digest)
        mark_failed(toy_system, holder)
        with pytest.raises(HolderLostError):
            lookup_holder(toy_system, digest)

    def test_double_host_is_integrity_error(self, toy_system):
        digest = toy_system.groups[1].digest_hex
        _, sub = lookup_holder(toy_system, digest)
        toy_system.nodes[12].hosted.append((digest, sub))
        with pytest.raises(IntegrityError):
            lookup_holder(toy_system, digest)


class TestRepair:
    def test_every_single_failure_repairs_exactly(self, toy_system):
        for failed_id in range(1, 13):
            state = copy.deepcopy(toy_system)
            original = state.nodes[failed_id].primary
            original_sub = state.nodes[failed_id].subshare
            mark_failed(state, failed_id)
            proposer = state.nodes[failed_id].identity
            repaired, restored, _ = request_repair(state, proposer, failed_id)
            assert repaired == original
            assert restored == original_sub
            assert recover_secret(state, range(1, 9)) == 42

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        system_shapes(max_n=48).filter(lambda s: s[3] != protocol.PLACEMENT_NONE),
        st.data(),
    )
    def test_one_failure_per_group_repairs_exactly(self, shape, data):
        """One member of every group fails at once, and every repair brings
        each node file back byte for byte.  A failed holder's hosted
        sub-shares stay lost (there is no re-placement), so each failed
        member is drawn among the group's members that host nothing."""
        k, n, m, placement, seed = shape
        state = system_setup(k, n, m, secret=seed, seed=seed, placement=placement)
        before = {i: node_store_dict(node) for i, node in state.nodes.items()}
        failed = []
        for rec in state.groups.values():
            idle = [i for i in rec.spec.member_ids if not state.nodes[i].hosted]
            if idle:
                failed.append(data.draw(st.sampled_from(idle)))
        assert failed  # m holders cannot cover every member of m groups
        for node_id in failed:
            mark_failed(state, node_id)
        for node_id in failed:
            request_repair(state, state.nodes[node_id].identity, node_id)
        assert {i: node_store_dict(node) for i, node in state.nodes.items()} == before

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        gamma=st.integers(2, 8),
        placement=st.sampled_from(
            [PLACEMENT_RANDOM, PLACEMENT_RECIPROCAL, PLACEMENT_ANTI_RECIPROCAL]
        ),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_any_single_failure_restores_its_share_and_subshare(
        self, gamma, placement, seed, data
    ):
        """Any node, holders included, gets back exactly its primary share
        and its own sub-share (a holder's hosted sub-shares stay lost)."""
        least = 3 if placement == PLACEMENT_ANTI_RECIPROCAL else 2
        m = data.draw(st.integers(least, 6), label="m")
        n = gamma * m
        k = data.draw(st.integers(1, n), label="k")
        node_id = data.draw(st.integers(1, n), label="node")
        state = system_setup(k, n, m, secret=42, seed=seed, placement=placement)
        node = state.nodes[node_id]
        original, original_sub = node.primary, node.subshare
        mark_failed(state, node_id)
        assert node.primary is None and node.subshare is None
        repaired, restored, _ = request_repair(state, node.identity, node_id)
        assert (repaired, restored) == (original, original_sub)
        assert (node.primary, node.subshare) == (original, original_sub)
        assert recover_secret(state, range(n - k + 1, n + 1)) == 42

    def test_trace_shape(self, toy_system):
        mark_failed(toy_system, 3)
        _, _, trace = request_repair(toy_system, toy_system.nodes[3].identity, 3)
        kinds = [e.kind for e in trace]
        assert kinds == [
            "request", "ack", "ack", "ack", "digest-broadcast", "holder-response",
            "contribution", "contribution", "contribution", "interpolation",
            "delivery", "subshare-restore",
        ]
        broadcast = trace.events[4]
        assert set(broadcast.recipients) == set(range(1, 13)) - {3}

    def test_repaired_value_only_in_delivery_to_proposer(self, toy_system):
        state = toy_system
        repaired_y = state.nodes[5].primary.y
        mark_failed(state, 5)
        _, _, trace = request_repair(state, state.nodes[5].identity, 5)
        carrying = [e for e in trace if repaired_y in e.payload.values()]
        assert len(carrying) == 1
        assert carrying[0].kind == "delivery"
        assert carrying[0].recipients == (5,)

    def test_subshares_travel_only_to_proposer(self, toy_system):
        mark_failed(toy_system, 9)
        _, _, trace = request_repair(toy_system, toy_system.nodes[9].identity, 9)
        for event in trace:
            if "sub_y" in event.payload:
                assert event.kind in ("holder-response", "contribution")
                assert event.recipients == (9,)

    def test_trace_lines_redact_y_values(self, toy_system):
        survivors_y = [toy_system.nodes[i].primary.y for i in (1, 2, 4)]
        mark_failed(toy_system, 3)
        _, _, trace = request_repair(toy_system, toy_system.nodes[3].identity, 3)
        for line in trace.lines():
            if "| delivery |" in line:
                continue
            for y in survivors_y:
                assert str(y) not in line

    def test_trace_deterministic(self):
        traces = []
        for _ in range(2):
            state = system_setup(**TOY)
            mark_failed(state, 7)
            _, _, trace = request_repair(state, state.nodes[7].identity, 7)
            traces.append(trace.lines())
        assert traces[0] == traces[1]

    def test_second_group_failure_rejected(self, toy_system):
        mark_failed(toy_system, 1)
        mark_failed(toy_system, 2)
        with pytest.raises(InsufficientPointsError):
            request_repair(toy_system, toy_system.nodes[1].identity, 1)

    def test_failures_in_distinct_groups_are_fine(self, toy_system):
        mark_failed(toy_system, 1)
        mark_failed(toy_system, 5)
        repaired, _, _ = request_repair(toy_system, toy_system.nodes[1].identity, 1)
        assert repaired.x == 1

    def test_wrong_hw_id_rejected(self, toy_system):
        mark_failed(toy_system, 3)
        impostor = protocol.NodeIdentity(3, toy_system.nodes[4].identity.hw_id)
        with pytest.raises(AuthorizationError):
            request_repair(toy_system, impostor, 3)

    def test_wrong_node_id_rejected(self, toy_system):
        mark_failed(toy_system, 3)
        with pytest.raises(AuthorizationError):
            request_repair(toy_system, toy_system.nodes[4].identity, 3)

    def test_withheld_ack_rejected(self, toy_system):
        mark_failed(toy_system, 3)
        with pytest.raises(AuthorizationError):
            request_repair(
                toy_system, toy_system.nodes[3].identity, 3, withhold_acks=[2]
            )

    def test_healthy_node_rejected(self, toy_system):
        with pytest.raises(ConfigurationError):
            request_repair(toy_system, toy_system.nodes[3].identity, 3)

    def test_bare_system_cannot_repair(self, bare_system):
        mark_failed(bare_system, 3)
        with pytest.raises(ConfigurationError):
            request_repair(bare_system, bare_system.nodes[3].identity, 3)

    def test_lost_holder_surfaces_during_repair(self, toy_system):
        holder = holder_of(toy_system, 1)
        mark_failed(toy_system, holder)
        mark_failed(toy_system, 1)
        with pytest.raises(HolderLostError):
            request_repair(toy_system, toy_system.nodes[1].identity, 1)

    def test_fail_repair_fail_cycle(self, toy_system):
        for _ in range(2):
            mark_failed(toy_system, 6)
            request_repair(toy_system, toy_system.nodes[6].identity, 6)
        assert recover_secret(toy_system, range(1, 9)) == 42


class TestRecoverSecret:
    def test_random_eight_subsets(self, toy_system, rng):
        for _ in range(30):
            subset = rng.sample(range(1, 13), 8)
            assert recover_secret(toy_system, subset) == 42

    def test_seven_is_insufficient(self, toy_system):
        with pytest.raises(InsufficientSharesError):
            recover_secret(toy_system, range(1, 8))

    def test_failed_participant_rejected(self, toy_system):
        mark_failed(toy_system, 2)
        with pytest.raises(ConfigurationError):
            recover_secret(toy_system, range(1, 9))

    def test_after_one_repair_per_group(self, toy_system):
        for failed_id in (1, 5, 9):
            mark_failed(toy_system, failed_id)
            request_repair(toy_system, toy_system.nodes[failed_id].identity, failed_id)
        for start in range(1, 5):
            subset = [(start + i - 1) % 12 + 1 for i in range(8)]
            assert recover_secret(toy_system, subset) == 42


class TestPersistence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(system_shapes(max_n=48), st.booleans())
    def test_roundtrip_random_systems(self, shape, fail_one):
        k, n, m, placement, seed = shape
        state = system_setup(k, n, m, secret=seed, seed=seed, placement=placement)
        if fail_one:
            mark_failed(state, seed % n + 1)
        with tempfile.TemporaryDirectory() as directory:
            save_state(state, directory)
            loaded = load_state(directory)
        assert registry_dict(loaded) == registry_dict(state)
        assert loaded.nodes.keys() == state.nodes.keys()
        for node_id, node in state.nodes.items():
            assert node_store_dict(loaded.nodes[node_id]) == node_store_dict(node)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(system_shapes(max_n=48), st.booleans(), st.data())
    def test_partial_load_is_full_load_restricted(self, shape, fail_one, data):
        k, n, m, placement, seed = shape
        state = system_setup(k, n, m, secret=seed, seed=seed, placement=placement)
        if fail_one:
            mark_failed(state, seed % n + 1)
        ids = data.draw(st.sets(st.integers(1, n), min_size=1), label="ids")
        with tempfile.TemporaryDirectory() as directory:
            save_state(state, directory)
            full = load_state(directory)
            partial = load_state(directory, ids)
        assert partial.nodes.keys() == ids
        for node_id in ids:
            assert node_store_dict(partial.nodes[node_id]) == node_store_dict(
                full.nodes[node_id]
            )
        for name in ("k", "n", "m", "placement_mode", "groups", "group_of"):
            assert getattr(partial, name) == getattr(full, name), name
        assert partial.field.modulus == full.field.modulus

    def test_partial_load_refuses_unknown_id_before_reading_nodes(
        self, toy_system, tmp_path
    ):
        save_state(toy_system, tmp_path)
        (tmp_path / "nodes" / "node_01.json").unlink()
        with pytest.raises(ConfigurationError, match="unknown node 99"):
            load_state(tmp_path, [1, 2, 99])

    def test_partial_state_is_read_only(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        before = state_digest(tmp_path)
        partial = load_state(tmp_path, range(1, 9))
        assert recover_secret(partial, range(1, 9)) == 42
        with pytest.raises(ConfigurationError, match="partial load is read-only"):
            save_state(partial, tmp_path)
        assert state_digest(tmp_path) == before

    def test_roundtrip(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        loaded = load_state(tmp_path)
        assert registry_dict(loaded) == registry_dict(toy_system)
        for node_id in toy_system.nodes:
            assert loaded.nodes[node_id] == toy_system.nodes[node_id]

    def test_roundtrip_with_failed_node(self, toy_system, tmp_path):
        mark_failed(toy_system, 4)
        save_state(toy_system, tmp_path)
        loaded = load_state(tmp_path)
        assert loaded.nodes[4].failed
        assert loaded.nodes[4].primary is None

    def test_registry_contains_no_private_values(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        registry_text = (tmp_path / "registry.json").read_text()
        for node in toy_system.nodes.values():
            assert f'"{node.primary.y}"' not in registry_text
            assert f'"{node.subshare.y}"' not in registry_text
            for _, sub in node.hosted:
                assert f'"{sub.y}"' not in registry_text
        assert "holder" not in registry_text.lower()
        assert "hosted" not in registry_text.lower()

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_state(tmp_path / "nope")

    def test_repaired_state_persists(self, toy_system, tmp_path):
        mark_failed(toy_system, 8)
        request_repair(toy_system, toy_system.nodes[8].identity, 8)
        save_state(toy_system, tmp_path)
        loaded = load_state(tmp_path)
        assert loaded.nodes[8].primary == toy_system.nodes[8].primary

    def test_node_file_over_64_kib_loads(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        path = tmp_path / "nodes" / "node_02.json"
        text = path.read_text()
        path.write_text(text[:1] + " " * (1 << 17) + text[1:] + "\n" * 1000)
        assert path.stat().st_size > 1 << 17
        loaded = load_state(tmp_path)
        assert loaded.nodes[2] == toy_system.nodes[2]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDescriptors:
    """Every descriptor load_state and save_state open is closed, on error too."""

    def test_full_load_and_save(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        before = open_fds()
        load_state(tmp_path)
        save_state(toy_system, tmp_path)
        save_state(toy_system, tmp_path, [3])
        assert open_fds() == before

    def test_load_failing_on_node_five(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        path = tmp_path / "nodes" / "node_05.json"
        before = open_fds()
        path.write_text('{"id": 5, "y": ')
        with pytest.raises(StateFileError, match="node_05.json"):
            load_state(tmp_path)
        assert open_fds() == before
        path.unlink()
        with pytest.raises(FileNotFoundError) as caught:
            load_state(tmp_path)
        # the file is opened by name in the nodes directory; the error names it in full
        assert caught.value.filename == str(path)
        assert str(path) in str(caught.value)
        assert open_fds() == before

    def test_save_failing_midway(self, toy_system, tmp_path, monkeypatch):
        real = protocol.node_store_dict

        def crash_on_six(node):
            if node.identity.node_id == 6:
                raise OSError("disk gone")
            return real(node)

        monkeypatch.setattr(protocol, "node_store_dict", crash_on_six)
        before = open_fds()
        with pytest.raises(OSError, match="disk gone"):
            save_state(toy_system, tmp_path)
        assert open_fds() == before
        assert not (tmp_path / "registry.json").exists()
