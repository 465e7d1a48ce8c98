"""Simulated network: setup, placement, digest lookup, repair, persistence."""

import copy
import hashlib
import json
import os
import random
import tempfile
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
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
    SharingError,
    StateFileError,
)
from lrshare.field import DEFAULT_MODULUS, PrimeField
from lrshare.groups import members
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
    system_setup,
)
from lrshare.seeds import derive_rng
from lrshare.threat import admissible_placements, min_compromise_search
from tests.conftest import TOY, storage_accounting, system_shapes


def reference_placement(n, m, placement, rng):
    """{group id: holder id} by a list-based draw of the rule
    protocol._place_all states: in id order, each group picks uniformly
    from the list of nodes outside it (under 'reciprocal', groups 1 and 2
    from each other's members), and under 'anti-reciprocal' whole rounds
    are drawn until no two groups host each other's sub-share."""
    gamma = n // m
    for _ in range(protocol._PLACEMENT_ATTEMPTS):
        staged = {}
        for group_id in range(1, m + 1):
            if placement == PLACEMENT_RECIPROCAL and group_id <= 2:
                candidates = list(members(3 - group_id, gamma))
            else:
                own = members(group_id, gamma)
                candidates = [i for i in range(1, n + 1) if i not in own]
            if not candidates:
                raise PlacementError(f"no admissible holder for group {group_id}")
            staged[group_id] = candidates[rng.randrange(len(candidates))]
        mutual = any(
            staged[g] in members(h, gamma) and staged[h] in members(g, gamma)
            for g, h in combinations(staged, 2)
        )
        if placement != PLACEMENT_ANTI_RECIPROCAL or not mutual:
            return staged
    raise PlacementError(
        f"no admissible placement found in {protocol._PLACEMENT_ATTEMPTS} rounds"
    )


class ZeroDraws:
    """An rng stub whose every randrange returns 0.  At n=12, m=3 it puts
    group 1's sub-share on node 5 and group 2's on node 1, so every
    anti-reciprocal round holds a mutual pair."""

    def __init__(self):
        self.stops = []

    def randrange(self, stop):
        self.stops.append(stop)
        return 0


def holder_of(state, group_id):
    digest = state.digest(group_id)
    for node_id, node in state.nodes.items():
        if any(d == digest for d, _ in node.hosted):
            return node_id
    return None


# SHA-256 over every file save_state writes (relative path, NUL, bytes; in
# path order) for seed 7 and secret 42.  Existing seeds must keep their
# bytes, so a change to the rng streams, the placement order or the file
# format fails here.
GOLDEN_STATE_DIGESTS = {
    ((8, 12, 3), "random"): "b8c4d8ebf2b154435a8bcfce5df6e72b70fba76937d78b27b39982b9888ffdaf",
    ((8, 12, 3), "anti-reciprocal"): "4af7deb15925e763c19e59bc39ebbfc8e4273808355dd9e94c79891fdc0389da",
    ((8, 12, 3), "reciprocal"): "1cafcacb9754f6976fc9997c158cff704df80bc0ddd3be4e53c71dca18ecddbb",
    ((8, 12, 3), "none"): "40dd8faeb94770b8d0da7415eae89e2891e76011a08b3aa28e7fa9a6f80a9805",
    ((12, 16, 4), "random"): "df2b462de19ca2b41c30ac20625320b1e8d2cb346c7147f4b0f2b4a53758265c",
    ((12, 16, 4), "anti-reciprocal"): "733ec70aeee9330036c5d1fbf05f3ffb0a47bfc7520f00fae37167c5ceaf1154",
    ((12, 16, 4), "reciprocal"): "28b0f5b4ac0462eda318684f0526a8d2e1d3ed48d73ddc647bbc5946e2d7364d",
    ((12, 16, 4), "none"): "5c85fc8ba3c884dcb881b4de4da2a66adb4c0e576fb39f72ba6ec70bcb4e0cc3",
}


# The same digest over the node files alone, for the same systems: the
# node-file format is kept apart from the registry's, so a registry format
# change leaves these as they are.
GOLDEN_NODE_DIGESTS = {
    ((8, 12, 3), "random"): "2b0112fe5e35453208bc3a7bcf553603ac2378830e73c9d0ead58aacd0680686",
    ((8, 12, 3), "anti-reciprocal"): "8eb53b8ffc8d5b9400c2609a0c8cdfe4e54e19cf97d1a17b8d4e2c4d083da8b9",
    ((8, 12, 3), "reciprocal"): "ee907193a0134024154f25fdd7ba9f5d4ffb06326f2a34ffcd9b7aae35fcb99c",
    ((8, 12, 3), "none"): "69cb3e941d272c5c9bde265d70b8f357d930ea48d25e855b4c4377ae5e072f4f",
    ((12, 16, 4), "random"): "bb80981f5f34f4a9d63de9f69731241fd7b3587bae0ea17efb1266352daf07d9",
    ((12, 16, 4), "anti-reciprocal"): "bb80981f5f34f4a9d63de9f69731241fd7b3587bae0ea17efb1266352daf07d9",
    ((12, 16, 4), "reciprocal"): "3ace1f123fbbe6d03b4658e477529be9b0ed427f89fc43195dd7f2f655d165e6",
    ((12, 16, 4), "none"): "91ecf78b5ebe2cba6712289cc11ebd2a7a05a3b7349fca1c40839176c1ac3c47",
}

# SHA-256 of the stdout of setup (--state-dir <n>-<placement>, relative),
# fail and repair of node 6 (not under 'none', which cannot repair), then
# attack --mode enum, for the same systems.
GOLDEN_STDOUT_DIGESTS = {
    ((8, 12, 3), "random"): "b7d3c7cce662d6b09310638ca01d2ab93457aade694600b090705b770b75cb9f",
    ((8, 12, 3), "anti-reciprocal"): "61ea84eb4f3047006b7bdf6afe5586e8d5b549f407e30b655bf76c8eec1b9b4a",
    ((8, 12, 3), "reciprocal"): "2e604ed981a0e9539de3648f23762423a372b317890a6933e087076a447db962",
    ((8, 12, 3), "none"): "4886826e9afec452388e2a58675bd7cac1e06f652383be36d640ff39672bb6ac",
    ((12, 16, 4), "random"): "8b1212770059adfc590a218561d2115b385e999211092b85ebcd9702d26ee3e6",
    ((12, 16, 4), "anti-reciprocal"): "d732b5d4c527761a6082af4864a3a482f6da876744affac5ab33f4c48dfe19a0",
    ((12, 16, 4), "reciprocal"): "66e03b165a956abf64a704a654e27fdbd71f47d85dd4385e8342a517873fe49c",
    ((12, 16, 4), "none"): "1a490513b0aac06d080ef47898437f24206a6184908945577ae8163f32e689e6",
}


# The same stdout under --format json, whose repair record lists every
# trace event.
GOLDEN_JSON_STDOUT_DIGESTS = {
    ((8, 12, 3), "random"): "2c17c8557d70ebf0d50de4a71d21a73e39750358702b1b4083f5fcd85e768878",
    ((8, 12, 3), "anti-reciprocal"): "d58eb4c7bff92d8e1398f01663658b5b95af6c33ae42a93a51cb70ccaa19036d",
    ((8, 12, 3), "reciprocal"): "bf08aa0f2d04a98e96c537a1fca4941cbad7544767c5f2e5d16abea067eb4f59",
    ((8, 12, 3), "none"): "67693250aaee11d205e55f44b3504a6d54905699fe0fea910794a432dce74452",
    ((12, 16, 4), "random"): "69a2219efa8213d38160f5d6a5467a1489cca6fac69d8b8d23db9376b355c8d1",
    ((12, 16, 4), "anti-reciprocal"): "5ccfcdddba10334ef38311faa08726741cf77843f3d26bd1991871f98903a402",
    ((12, 16, 4), "reciprocal"): "256f5dee3ee5c2be2647d74d95c0538a176dba0dbc4f376b7759b00b6c1a9f80",
    ((12, 16, 4), "none"): "7e088921ee8b233a12b5419f8c43b6716fcaf4f5cb195f05038dacfa89800b68",
}


# state_digest of the files save_state writes for k=128, n=1024, m=256,
# random placement, seed 7 and secret 42 (the benchmark's churn-narrow size).
GOLDEN_CHURN_NARROW_DIGEST = "168bf38a83a5b09132bcd334d71c81c49936652e982c282d75b8294956736df9"


def assert_console_digests(capsys, options, golden):
    """Run each golden system's commands with options in the working
    directory and compare the SHA-256 of their stdout with golden's."""
    for (k, n, m), placement in product(((8, 12, 3), (12, 16, 4)), PLACEMENT_MODES):
        sd = [*options, "--state-dir", f"{n}-{placement}"]
        flags = ["--k", str(k), "--n", str(n), "--m", str(m), "--secret", "42"]
        assert main([*sd, "setup", *flags, "--seed", "7", "--placement", placement]) == 0
        if placement != "none":
            assert main([*sd, "fail", "--node", "6"]) == 0
            assert main([*sd, "repair", "--node", "6"]) == 0
        assert main([*sd, "attack", "--mode", "enum"]) == 0
        out = capsys.readouterr().out.encode()
        digest = golden[(k, n, m), placement]
        assert hashlib.sha256(out).hexdigest() == digest, (k, n, m, placement)


def state_digest(directory, pattern="*.json"):
    h = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
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
        digests = {toy_system.digest(g) for g in (1, 2, 3)}
        assert len(digests) == 3

    def test_lowercase_hex_256_bits(self):
        digest = hash_identity([42])
        assert len(digest) == 64
        assert digest == digest.lower()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            hash_identity([])

    def test_oversized_id_rejected(self):
        # 2^64 and -1 fit no struct slot; 2^48 fits one but not 6 bytes
        for hw in (1 << 48, -1, 1 << 64):
            with pytest.raises(DomainError, match=f"hardware id {hw} does not fit"):
                hash_identity([3, hw])


# The encoders the packing helpers replaced, kept as the reference: the
# registry's per-id hex join, the loader's per-id slices and the hash's
# per-id byte join.
def reference_registry_text(hw_ids):
    return "".join("%012x" % hw for hw in hw_ids)


def reference_read(data, n):
    return [int.from_bytes(data[i : i + 6], "big") for i in range(0, n * 6, 6)]


def reference_hash_bytes(hw_ids):
    return b"".join([hw.to_bytes(6, "big") for hw in sorted(hw_ids)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, (1 << 48) - 1), min_size=1, max_size=80))
@example([0])
@example([(1 << 48) - 1])
@example([0, (1 << 48) - 1, 1 << 47, 0xFF, 0xFF00])
def test_packing_matches_the_reference_encoders(hw_ids):
    packed = protocol._pack_hw_ids(hw_ids)
    text = reference_registry_text(hw_ids)
    assert packed.hex() == text
    data = bytes.fromhex(text)
    assert protocol._unpack_hw_ids(data) == reference_read(data, len(hw_ids)) == hw_ids
    expected = hashlib.sha256(reference_hash_bytes(hw_ids)).hexdigest()
    assert hash_identity(hw_ids) == expected


class TestSetup:
    def test_toy_layout(self, toy_system):
        assert len(toy_system.nodes) == 12
        assert len(toy_system.x_lambda) == 3
        assert toy_system.gamma == 4
        assert [tuple(members(g, toy_system.gamma)) for g in (1, 2, 3)] == [
            (1, 2, 3, 4),
            (5, 6, 7, 8),
            (9, 10, 11, 12),
        ]

    def test_storage_accounting(self, toy_system):
        accounting = storage_accounting(toy_system)
        assert accounting["total_private_elements"] == 2 * 12 + 3
        assert all(v["own_role"] == 2 for v in accounting["per_node"].values())

    def test_hw_ids_unique(self, toy_system):
        assert len(set(toy_system.hw_ids)) == 12

    def test_x_lambda_avoids_member_xs_and_zero(self, toy_system):
        for g, x_lambda in enumerate(toy_system.x_lambda, 1):
            block = members(g, toy_system.gamma)
            member_xs = {toy_system.nodes[m].primary.x for m in block}
            assert member_xs == set(block)
            assert x_lambda != 0
            assert x_lambda not in member_xs

    def test_member_subshares_use_group_namespace(self, toy_system):
        for g in (1, 2, 3):
            xs = [toy_system.nodes[m].subshare.x for m in members(g, toy_system.gamma)]
            assert xs == [1, 2, 3, 4]
        hosted_xs = [sub.x for node in toy_system.nodes.values() for _, sub in node.hosted]
        assert hosted_xs == [5, 5, 5]

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

    def test_saved_node_files_match_golden_digests(self, tmp_path):
        for (k, n, m), placement in product(((8, 12, 3), (12, 16, 4)), PLACEMENT_MODES):
            directory = tmp_path / f"{n}-{placement}"
            state = system_setup(k, n, m, secret=42, seed=7, placement=placement)
            save_state(state, directory)
            digest = GOLDEN_NODE_DIGESTS[(k, n, m), placement]
            assert state_digest(directory, "nodes/*.json") == digest, (k, n, m, placement)

    def test_saved_bytes_match_golden_digest_at_churn_narrow_size(self, tmp_path):
        # the benchmark's k=128, n=1024, m=256: 1024 hardware ids, 256 groups
        state = system_setup(128, 1024, 256, secret=42, seed=7, placement="random")
        save_state(state, tmp_path)
        assert state_digest(tmp_path) == GOLDEN_CHURN_NARROW_DIGEST

    def test_console_output_matches_golden_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert_console_digests(capsys, [], GOLDEN_STDOUT_DIGESTS)

    def test_json_console_output_matches_golden_digests(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert_console_digests(capsys, ["--format", "json"], GOLDEN_JSON_STDOUT_DIGESTS)

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

    @pytest.mark.parametrize(
        "change",
        [
            {"k": True},
            {"k": 8.0},
            {"secret": DEFAULT_MODULUS},
            {"secret": -1},
            {"secret": 42.0},
            {"seed": 7.5},
            {"seed": "7"},
            {"placement": "sideways"},
        ],
        ids=lambda change: "-".join(f"{key}={value!r}" for key, value in change.items()),
    )
    def test_malformed_arguments_rejected(self, change):
        # k=True saved "k": true, a secret of p or -1 was reduced mod p, k=8.0
        # raised a bare TypeError, and seeds 7.5 and "7" drew streams of their own
        with pytest.raises(ConfigurationError):
            system_setup(**{**TOY, **change})

    def test_bare_system_has_no_redundancy(self, bare_system):
        assert bare_system.x_lambda == [None] * 3
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
            for group_id in (1, 2, 3):
                holder = holder_of(state, group_id)
                assert holder is not None
                assert holder not in members(group_id, state.gamma)

    def test_anti_reciprocal_never_mutual(self):
        for seed in range(1000):
            state = system_setup(
                8, 12, 3, secret=1, seed=seed, placement=PLACEMENT_ANTI_RECIPROCAL
            )
            holders = {g: holder_of(state, g) for g in (1, 2, 3)}
            for g, h in combinations(holders, 2):
                mutual = (
                    holders[g] in members(h, state.gamma)
                    and holders[h] in members(g, state.gamma)
                )
                assert not mutual, f"seed {seed}: groups {g},{h} host each other"

    def test_random_placement_produces_mutual_pairs_sometimes(self):
        found = False
        for seed in range(50):
            state = system_setup(8, 12, 3, secret=1, seed=seed)
            holders = {g: holder_of(state, g) for g in (1, 2, 3)}
            for g, h in combinations(holders, 2):
                if (
                    holders[g] in members(h, state.gamma)
                    and holders[h] in members(g, state.gamma)
                ):
                    found = True
        assert found

    def test_reciprocal_fixture_forces_mutual_pair(self, reciprocal_system):
        state = reciprocal_system
        h1, h2 = holder_of(state, 1), holder_of(state, 2)
        assert h1 in members(2, state.gamma)
        assert h2 in members(1, state.gamma)

    def test_group_records_nothing_about_holder(self, toy_system):
        registry = registry_dict(toy_system)
        assert "holder" not in json.dumps(registry).lower()
        assert set(registry) == {
            "modulus", "k", "n", "m", "placement_mode", "hw_ids", "x_lambda",
        }

    @pytest.mark.parametrize("shape", [(8, 12, 3), (12, 16, 4), (24, 48, 12)])
    @pytest.mark.parametrize(
        "placement", [PLACEMENT_RANDOM, PLACEMENT_ANTI_RECIPROCAL, PLACEMENT_RECIPROCAL]
    )
    def test_holders_match_the_list_based_reference(self, shape, placement):
        k, n, m = shape
        for seed in range(1, 31):
            state = system_setup(k, n, m, secret=1, seed=seed, placement=placement)
            expected = reference_placement(
                n, m, placement, derive_rng(seed, "placement")
            )
            assert {g: holder_of(state, g) for g in range(1, m + 1)} == expected
            drawn = protocol._place_all(n, m, placement, derive_rng(seed, "placement"))
            assert drawn == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system_shapes(max_n=24).filter(lambda s: s[3] != protocol.PLACEMENT_NONE))
    def test_the_draw_is_the_holder_map_of_the_analyses(self, shape):
        """_place_all, with no setup run, is the reference's map; under
        anti-reciprocal it is one of the admissible placements; and it is
        the holder map the search finds by scanning a saved and reloaded
        state's stores."""
        k, n, m, placement, seed = shape
        holders = protocol._place_all(n, m, placement, derive_rng(seed, "placement"))
        assert holders == reference_placement(
            n, m, placement, derive_rng(seed, "placement")
        )
        state = system_setup(k, n, m, secret=1, seed=seed, placement=placement)
        if placement == PLACEMENT_ANTI_RECIPROCAL and (n - n // m) ** m <= 5000:
            assert holders in admissible_placements(state, anti_reciprocal=True)
        with tempfile.TemporaryDirectory() as directory:
            save_state(state, directory)
            assert min_compromise_search(load_state(directory)).holders == holders

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("placement", [PLACEMENT_RANDOM, PLACEMENT_ANTI_RECIPROCAL])
    def test_the_draw_is_uniform_over_the_admissible_maps(self, placement, n):
        # 3 groups; 20 000 draws from one fixed stream, 39 or more per map
        state = system_setup(2, n, 3, secret=1, seed=1, placement=placement)
        anti_reciprocal = placement == PLACEMENT_ANTI_RECIPROCAL
        maps = admissible_placements(state, anti_reciprocal=anti_reciprocal)
        counts = {tuple(holders.values()): 0 for holders in maps}
        draws, rng = 20_000, random.Random(n)
        for _ in range(draws):
            drawn = tuple(protocol._place_all(n, 3, placement, rng).values())
            assert drawn in counts, drawn
            counts[drawn] += 1
        expected, dof = draws / len(counts), len(counts) - 1
        chi2 = sum((c - expected) ** 2 for c in counts.values()) / expected
        assert chi2 < dof + 6 * (2 * dof) ** 0.5, (chi2, dof)

    def test_placement_gives_up_after_its_rounds(self):
        # random and reciprocal take the first round, so only anti-reciprocal
        # can run out; three draws per round, each over the 8 outside nodes
        rng = ZeroDraws()
        with pytest.raises(PlacementError, match="no admissible placement found in 100"):
            protocol._place_all(12, 3, PLACEMENT_ANTI_RECIPROCAL, rng)
        assert rng.stops == [8, 8, 8] * protocol._PLACEMENT_ATTEMPTS

    def test_setup_without_a_placement_exits_four_and_writes_nothing(
        self, monkeypatch, tmp_path, capsys
    ):
        rng = ZeroDraws()

        def placement_stub(seed, label):
            return rng if label == "placement" else derive_rng(seed, label)

        monkeypatch.setattr(protocol, "derive_rng", placement_stub)
        flags = ["--k", "8", "--n", "12", "--m", "3", "--secret", "42", "--seed", "7"]
        command = ["setup", *flags, "--placement", "anti-reciprocal"]
        assert main(["--state-dir", str(tmp_path / "s"), *command]) == 4
        out, err = capsys.readouterr()
        assert out == "placement: no admissible placement found in 100 rounds\n"
        assert err == ""
        assert len(rng.stops) == 3 * protocol._PLACEMENT_ATTEMPTS
        assert not (tmp_path / "s" / "registry.json").exists()

    @pytest.mark.parametrize(
        "shape, placement",
        [
            ((2, 4, 1), PLACEMENT_RANDOM),
            ((2, 4, 1), PLACEMENT_ANTI_RECIPROCAL),
            ((2, 4, 2), PLACEMENT_ANTI_RECIPROCAL),
        ],
    )
    def test_placement_errors_match_the_reference(self, shape, placement):
        # setup refuses each shape the reference cannot place
        k, n, m = shape
        with pytest.raises(PlacementError):
            reference_placement(n, m, placement, derive_rng(1, "placement"))
        least = protocol.LEAST_GROUPS[placement]
        with pytest.raises(ConfigurationError, match=f"needs m >= {least}, got m={m}"):
            system_setup(k, n, m, secret=1, seed=1, placement=placement)

    def test_two_group_anti_reciprocal_impossible(self):
        # with m=2 every cross-group placement is mutual by construction
        with pytest.raises(ConfigurationError):
            system_setup(3, 4, 2, secret=1, seed=1, placement=PLACEMENT_ANTI_RECIPROCAL)


class TestLookupHolder:
    def test_exactly_one_responder(self, toy_system):
        for g in (1, 2, 3):
            node_id, sub = lookup_holder(toy_system, toy_system.digest(g))
            assert node_id not in members(g, toy_system.gamma)
            assert sub.x == 5

    def test_unknown_digest(self, toy_system):
        with pytest.raises(HolderLostError):
            lookup_holder(toy_system, "ff" * 32)

    def test_crashed_holder_surfaces_loss(self, toy_system):
        digest = toy_system.digest(1)
        holder, _ = lookup_holder(toy_system, digest)
        mark_failed(toy_system, holder)
        with pytest.raises(HolderLostError):
            lookup_holder(toy_system, digest)

    def test_double_host_is_integrity_error(self, toy_system):
        digest = toy_system.digest(1)
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
            proposer = state.hw_ids[failed_id - 1]
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
        secret = seed % DEFAULT_MODULUS
        state = system_setup(k, n, m, secret=secret, seed=seed, placement=placement)
        before = {i: node_store_dict(i, node) for i, node in state.nodes.items()}
        failed = []
        for g in range(1, m + 1):
            idle = [i for i in members(g, state.gamma) if not state.nodes[i].hosted]
            if idle:
                failed.append(data.draw(st.sampled_from(idle)))
        assert failed  # m holders cannot cover every member of m groups
        for node_id in failed:
            mark_failed(state, node_id)
        for node_id in failed:
            request_repair(state, state.hw_ids[node_id - 1], node_id)
        after = {i: node_store_dict(i, node) for i, node in state.nodes.items()}
        assert after == before

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
        hw_id = state.hw_ids[node_id - 1]
        repaired, restored, _ = request_repair(state, hw_id, node_id)
        assert (repaired, restored) == (original, original_sub)
        assert (node.primary, node.subshare) == (original, original_sub)
        assert recover_secret(state, range(n - k + 1, n + 1)) == 42

    def test_builds_two_weight_sets(self, toy_system, monkeypatch):
        # one set over the gamma sub-shares gives the sub-secret and the
        # restored sub-share, the other gives the lost share
        built = []
        weights = PrimeField.barycentric_weights

        def counting(field, xs):
            built.append(len(xs))
            return weights(field, xs)

        monkeypatch.setattr(PrimeField, "barycentric_weights", counting)
        mark_failed(toy_system, 3)
        request_repair(toy_system, toy_system.hw_ids[2], 3)
        assert built == [toy_system.gamma] * 2

    def test_trace_shape(self, toy_system):
        mark_failed(toy_system, 3)
        _, _, trace = request_repair(toy_system, toy_system.hw_ids[2], 3)
        kinds = [e.kind for e in trace]
        assert kinds == [
            "request", "ack", "ack", "ack", "digest-broadcast", "holder-response",
            "contribution", "contribution", "contribution", "interpolation",
            "delivery", "subshare-restore",
        ]
        broadcast = trace[4]
        assert set(broadcast.recipients) == set(range(1, 13)) - {3}

    def test_repaired_value_only_in_delivery_to_proposer(self, toy_system):
        state = toy_system
        repaired_y = state.nodes[5].primary.y
        mark_failed(state, 5)
        _, _, trace = request_repair(state, state.hw_ids[4], 5)
        carrying = [e for e in trace if repaired_y in e.payload.values()]
        assert len(carrying) == 1
        assert carrying[0].kind == "delivery"
        assert carrying[0].recipients == (5,)

    def test_subshares_travel_only_to_proposer(self, toy_system):
        mark_failed(toy_system, 9)
        _, _, trace = request_repair(toy_system, toy_system.hw_ids[8], 9)
        for event in trace:
            if "sub_y" in event.payload:
                assert event.kind in ("holder-response", "contribution")
                assert event.recipients == (9,)

    def test_trace_lines_redact_y_values(self, toy_system):
        survivors_y = [toy_system.nodes[i].primary.y for i in (1, 2, 4)]
        mark_failed(toy_system, 3)
        _, _, trace = request_repair(toy_system, toy_system.hw_ids[2], 3)
        for line in [e.line() for e in trace]:
            if "| delivery |" in line:
                continue
            for y in survivors_y:
                assert str(y) not in line

    def test_trace_deterministic(self):
        traces = []
        for _ in range(2):
            state = system_setup(**TOY)
            mark_failed(state, 7)
            _, _, trace = request_repair(state, state.hw_ids[6], 7)
            traces.append([e.line() for e in trace])
        assert traces[0] == traces[1]

    def test_second_group_failure_rejected(self, toy_system):
        mark_failed(toy_system, 1)
        mark_failed(toy_system, 2)
        with pytest.raises(InsufficientPointsError):
            request_repair(toy_system, toy_system.hw_ids[0], 1)

    def test_failures_in_distinct_groups_are_fine(self, toy_system):
        mark_failed(toy_system, 1)
        mark_failed(toy_system, 5)
        repaired, _, _ = request_repair(toy_system, toy_system.hw_ids[0], 1)
        assert repaired.x == 1

    def test_wrong_hw_id_rejected(self, toy_system):
        mark_failed(toy_system, 3)
        with pytest.raises(AuthorizationError):
            request_repair(toy_system, toy_system.hw_ids[4 - 1], 3)

    def test_withheld_ack_rejected(self, toy_system):
        mark_failed(toy_system, 3)
        with pytest.raises(AuthorizationError):
            request_repair(
                toy_system, toy_system.hw_ids[2], 3, withhold_acks=[2]
            )

    def test_healthy_node_rejected(self, toy_system):
        with pytest.raises(ConfigurationError):
            request_repair(toy_system, toy_system.hw_ids[2], 3)

    def test_bare_system_cannot_repair(self, bare_system):
        mark_failed(bare_system, 3)
        with pytest.raises(ConfigurationError):
            request_repair(bare_system, bare_system.hw_ids[2], 3)

    def test_lost_holder_surfaces_during_repair(self, toy_system):
        holder = holder_of(toy_system, 1)
        mark_failed(toy_system, holder)
        mark_failed(toy_system, 1)
        with pytest.raises(HolderLostError):
            request_repair(toy_system, toy_system.hw_ids[0], 1)

    def test_fail_repair_fail_cycle(self, toy_system):
        for _ in range(2):
            mark_failed(toy_system, 6)
            request_repair(toy_system, toy_system.hw_ids[5], 6)
        assert recover_secret(toy_system, range(1, 9)) == 42


class TestPartialState:
    def test_repair_and_broadcast_refuse_a_partial_state(self, toy_system, tmp_path):
        """A partial load of the failed node alone used to raise a bare
        KeyError from repair, and the broadcast answered HolderLostError
        for a holder that was only not loaded."""
        mark_failed(toy_system, 3)
        save_state(toy_system, tmp_path)
        partial = load_state(tmp_path, [3])
        with pytest.raises(ConfigurationError, match="all 12 node stores"):
            request_repair(partial, partial.hw_ids[2], 3)
        with pytest.raises(ConfigurationError, match="all 12 node stores"):
            lookup_holder(partial, partial.digest(1))
        full = load_state(tmp_path)
        assert request_repair(full, full.hw_ids[2], 3)[0].x == 3


class TestRecoverSecret:
    def test_random_eight_subsets(self, toy_system, rng):
        for _ in range(30):
            subset = rng.sample(range(1, 13), 8)
            assert recover_secret(toy_system, subset) == 42

    def test_seven_is_insufficient(self, toy_system):
        with pytest.raises(InsufficientSharesError):
            recover_secret(toy_system, range(1, 8))

    def test_unknown_participant_rejected(self, toy_system):
        with pytest.raises(ConfigurationError, match="unknown node 99"):
            recover_secret(toy_system, [*range(1, 8), 99])
        with pytest.raises(ConfigurationError, match="unknown node 99"):
            mark_failed(toy_system, 99)

    def test_failed_participant_rejected(self, toy_system):
        mark_failed(toy_system, 2)
        with pytest.raises(ConfigurationError):
            recover_secret(toy_system, range(1, 9))

    def test_after_one_repair_per_group(self, toy_system):
        for failed_id in (1, 5, 9):
            mark_failed(toy_system, failed_id)
            request_repair(toy_system, toy_system.hw_ids[failed_id - 1], failed_id)
        for start in range(1, 5):
            subset = [(start + i - 1) % 12 + 1 for i in range(8)]
            assert recover_secret(toy_system, subset) == 42


def json_leaves(value, where=()):
    """(key path, value) of every string, number and null in parsed JSON."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from json_leaves(item, (*where, key))
    else:
        yield where, value


@st.composite
def leaf_edits(draw, leaf):
    """Another value for one JSON leaf: a digit edit, a respelling, a JSON
    number, null or a list."""
    text = leaf if isinstance(leaf, str) else json.dumps(leaf)
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    kind = draw(st.sampled_from(["digit", "respelling", "number", "null", "list"]))
    if kind == "digit" and digits:
        i = draw(st.sampled_from(digits))
        digit = draw(st.sampled_from("0123456789".replace(text[i], "")))
        edited = text[:i] + digit + text[i + 1 :]
        return edited if isinstance(leaf, str) else int(edited)
    if kind == "respelling":
        forms = [" " + text, "+" + text, "-" + text, "0" + text, text + "0", text.upper()]
        if type(leaf) is int:
            forms.append(float(leaf))
        return draw(st.sampled_from(forms))
    if kind == "number":
        if text.lstrip("-").isdigit():
            return int(text)
        return draw(st.integers(-(2**64), 2**64))
    if kind == "null":
        return None
    return [leaf]


class TestPersistence:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(system_shapes(max_n=24), st.booleans(), st.data())
    def test_loads_only_what_save_state_writes_back(self, shape, fail_one, data):
        """One leaf of one saved file replaced: either load_state refuses the
        state, or the writer gives every file back as it now reads."""
        k, n, m, placement, seed = shape
        secret = seed % DEFAULT_MODULUS
        state = system_setup(k, n, m, secret=secret, seed=seed, placement=placement)
        if fail_one:
            mark_failed(state, seed % n + 1)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            save_state(state, directory)
            nodes = sorted((directory / "nodes").iterdir())
            path = data.draw(
                st.just(directory / "registry.json") | st.sampled_from(nodes), label="file"
            )
            raw = json.loads(path.read_text())
            where, leaf = data.draw(st.sampled_from(list(json_leaves(raw))), label="leaf")
            edited = data.draw(leaf_edits(leaf), label="edited")
            assume(json.dumps(edited) != json.dumps(leaf))
            owner = raw
            for key in where[:-1]:
                owner = owner[key]
            owner[where[-1]] = edited
            path.write_text(json.dumps(raw))
            try:
                loaded = load_state(directory)
            except SharingError:
                return
            registry = json.loads((directory / "registry.json").read_text())
            assert registry_dict(loaded) == registry
            for node_id, node in loaded.nodes.items():
                name = f"node_{node_id:0{len(str(n))}d}.json"
                assert node_store_dict(node_id, node) == json.loads(
                    (directory / "nodes" / name).read_text()
                )

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
            assert node_store_dict(node_id, loaded.nodes[node_id]) == node_store_dict(
                node_id, node
            )

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
            assert node_store_dict(node_id, partial.nodes[node_id]) == node_store_dict(
                node_id, full.nodes[node_id]
            )
        for name in ("k", "n", "m", "placement_mode", "hw_ids", "x_lambda"):
            assert getattr(partial, name) == getattr(full, name), name
        assert partial.field.modulus == full.field.modulus

    def test_partial_load_gives_the_full_registry(self, toy_system, tmp_path):
        # the state holds the registry as saved, not rebuilt from the
        # node stores loaded
        save_state(toy_system, tmp_path)
        registry = json.loads((tmp_path / "registry.json").read_text())
        for ids in ([1], [5, 12], range(1, 9)):
            assert registry_dict(load_state(tmp_path, ids)) == registry

    def test_partial_load_refuses_unknown_id_before_reading_nodes(
        self, toy_system, tmp_path
    ):
        save_state(toy_system, tmp_path)
        (tmp_path / "nodes" / "node_01.json").unlink()
        with pytest.raises(ConfigurationError, match="unknown node 99"):
            load_state(tmp_path, [1, 2, 99])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(system_shapes(max_n=48), st.booleans())
    def test_saved_strings_never_spell_a_boolean(self, shape, fail_one):
        """load_state refuses the text true anywhere in a file, so save_state
        must write it nowhere: it writes no boolean, and every string it
        writes is a fixed key, a placement mode, or hex or decimal digits."""
        k, n, m, placement, seed = shape
        secret = seed % DEFAULT_MODULUS
        state = system_setup(k, n, m, secret=secret, seed=seed, placement=placement)
        if fail_one:
            mark_failed(state, seed % n + 1)
        files = [registry_dict(state)]
        files += [node_store_dict(i, node) for i, node in state.nodes.items()]
        strings = set()
        for raw in files:
            for where, leaf in json_leaves(raw):
                strings.update(key for key in where if isinstance(key, str))
                assert not isinstance(leaf, bool)
                if isinstance(leaf, str):
                    strings.add(leaf)
        words = {s for s in strings if s.strip("0123456789abcdef")}
        assert words <= set(PLACEMENT_MODES) | {
            "modulus", "k", "n", "m", "placement_mode", "hw_ids", "x_lambda",
            "id", "y", "sss_subshare", "x", "hosted", "digest_hex", "subshare",
        }
        assert not [s for s in words if "true" in s]

    def test_partial_state_is_read_only(self, toy_system, tmp_path):
        save_state(toy_system, tmp_path)
        before = state_digest(tmp_path)
        partial = load_state(tmp_path, range(1, 9))
        assert recover_secret(partial, range(1, 9)) == 42
        with pytest.raises(ConfigurationError, match="partial load is read-only"):
            save_state(partial, tmp_path)
        assert state_digest(tmp_path) == before

    @pytest.mark.parametrize("hw", [1 << 48, -5, 1 << 64])
    def test_unwritable_hw_id_refused_before_any_write(self, toy_system, tmp_path, hw):
        # written as 13 hex digits or with a sign, such an id would give a
        # registry that load_state refuses
        save_state(toy_system, tmp_path)
        before = state_digest(tmp_path)
        toy_system.hw_ids[4] = hw
        for directory in (tmp_path, tmp_path / "new"):
            with pytest.raises(DomainError, match=f"hardware id {hw} does not fit"):
                save_state(toy_system, directory)
        assert state_digest(tmp_path) == before
        assert not (tmp_path / "new").exists()
        assert recover_secret(load_state(tmp_path), range(1, 9)) == 42

    def test_unwritable_node_file_is_named_in_full(self, toy_system, tmp_path):
        # the node files are opened by name under the directory's descriptor
        path = tmp_path / "nodes" / "node_05.json"
        path.mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as raised:
            save_state(toy_system, tmp_path)
        assert raised.value.filename == str(path)
        assert not (tmp_path / "registry.json").exists()

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
        request_repair(toy_system, toy_system.hw_ids[7], 8)
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

        def crash_on_six(node_id, node):
            if node_id == 6:
                raise OSError("disk gone")
            return real(node_id, node)

        monkeypatch.setattr(protocol, "node_store_dict", crash_on_six)
        before = open_fds()
        with pytest.raises(OSError, match="disk gone"):
            save_state(toy_system, tmp_path)
        assert open_fds() == before
        assert not (tmp_path / "registry.json").exists()
