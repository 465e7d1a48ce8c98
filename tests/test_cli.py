"""Command-line interface: flows, output formats, exit-code contract."""

import argparse
import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrshare import cli, groups, protocol, shamir
from lrshare.cli import main
from lrshare.field import DEFAULT_MODULUS as P, PrimeField
from tests.test_threat import ReferenceCounter, state_holders

TOY_FLAGS = ["--k", "8", "--n", "12", "--m", "3", "--secret", "42", "--seed", "7"]
# 399165290221 * 798330580441 passes all twelve Miller-Rabin bases
TWELVE_BASE_PSEUDOPRIME = 318665857834031151167461


def run(capsys, *args, state_dir=None):
    argv = []
    if state_dir is not None:
        argv += ["--state-dir", str(state_dir)]
    argv += list(args)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def state_dir(tmp_path, capsys):
    directory = tmp_path / "state"
    code, _, _ = run(capsys, "setup", *TOY_FLAGS, state_dir=directory)
    assert code == 0
    return directory


class TestSetup:
    def test_writes_registry_and_node_files(self, state_dir):
        assert (state_dir / "registry.json").exists()
        assert len(list((state_dir / "nodes").glob("node_*.json"))) == 12

    def test_summary_lists_groups_and_digests(self, tmp_path, capsys):
        code, out, _ = run(capsys, "setup", *TOY_FLAGS, state_dir=tmp_path / "s")
        assert code == 0
        assert "system ready: k=8 n=12 m=3 gamma=4" in out
        assert out.count("digest") == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for name in ("one", "two"):
            code, _, _ = run(capsys, "setup", *TOY_FLAGS, state_dir=tmp_path / name)
            assert code == 0
        a = (tmp_path / "one" / "registry.json").read_bytes()
        b = (tmp_path / "two" / "registry.json").read_bytes()
        assert a == b
        for node_file in sorted((tmp_path / "one" / "nodes").iterdir()):
            twin = tmp_path / "two" / "nodes" / node_file.name
            assert node_file.read_bytes() == twin.read_bytes()

    def test_missing_seed_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--state-dir", str(tmp_path), "setup", "--k", "8", "--n", "12",
                  "--m", "3", "--secret", "42"])
        assert exc.value.code == 2

    def test_bad_params_exit_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "setup", "--k", "8", "--n", "12", "--m", "5",
            "--secret", "42", "--seed", "7", state_dir=tmp_path / "s",
        )
        assert code == 2
        assert "configuration" in err

    @pytest.mark.parametrize("secret", [str(P), "3000000000", "-5", "-1"])
    def test_secret_outside_the_field_exits_two(self, tmp_path, capsys, secret):
        # split reduces mod p, so such a secret used to come back from
        # recover as another number (3000000000 as 852516353) with exit 0
        flags = [*TOY_FLAGS[:-4], "--secret", secret, "--seed", "7"]
        code, out, err = run(capsys, "setup", *flags, state_dir=tmp_path / "s")
        assert code == 2
        assert out == ""
        assert err.startswith("configuration:")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("secret", ["0", str(P - 1)])
    def test_secret_at_the_field_ends_round_trips(self, tmp_path, capsys, secret):
        flags = [*TOY_FLAGS[:-4], "--secret", secret, "--seed", "7"]
        assert run(capsys, "setup", *flags, state_dir=tmp_path / "s")[0] == 0
        code, out, _ = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=tmp_path / "s",
        )
        assert (code, out) == (0, secret + "\n")

    @pytest.mark.parametrize(
        "modulus", ["4", "1000000", str(2**31), str(TWELVE_BASE_PSEUDOPRIME)]
    )
    def test_non_prime_modulus_exits_two(self, state_dir, capsys, modulus):
        # the secret is below every modulus, so the modulus itself is refused
        before = read_tree(state_dir)
        flags = [*TOY_FLAGS[:-4], "--secret", "1", "--seed", "7"]
        code, out, err = run(
            capsys, "setup", *flags, "--modulus", modulus, state_dir=state_dir
        )
        assert code == 2
        assert out == ""
        assert err.startswith("configuration:")
        assert "modulus must be prime" in err
        assert read_tree(state_dir) == before
        assert rewritten(state_dir) == set()

    @pytest.mark.parametrize("secret", ["42", "1"])
    def test_non_prime_modulus_is_named_before_the_secret(self, tmp_path, capsys, secret):
        # 42 is outside [0, 4) as well, but the option at fault is the modulus
        flags = [*TOY_FLAGS[:-4], "--secret", secret, "--seed", "7", "--modulus", "4"]
        code, out, err = run(capsys, "setup", *flags, state_dir=tmp_path / "s")
        assert (code, out) == (2, "")
        assert err.startswith("configuration:")
        assert "modulus must be prime" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "2", "--n", "4", "--m", "1"],
            ["--k", "3", "--n", "4", "--m", "2", "--placement", "anti-reciprocal"],
        ],
        ids=["random-one-group", "anti-reciprocal-two-groups"],
    )
    def test_unplaceable_shape_exits_two_before_sharing(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("setup computed shares")

        monkeypatch.setattr(shamir, "split", refuse)
        flags = [*flags, "--secret", "1", "--seed", "1"]
        code, out, err = run(capsys, "setup", *flags, state_dir=tmp_path / "s")
        assert (code, out) == (2, "")
        assert err.startswith("configuration:")
        assert "placement needs m >= " in err
        assert not (tmp_path / "s" / "registry.json").exists()

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "setup", *TOY_FLAGS, state_dir=tmp_path / "s"
        )
        assert code == 0
        record = json.loads(out)
        assert record["record"] == "setup"
        assert record["gamma"] == 4
        assert len(record["groups"]) == 3

    def test_env_var_state_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "via-env"
        monkeypatch.setenv("LRSHARE_STATE_DIR", str(target))
        code, _, _ = run(capsys, "setup", *TOY_FLAGS)
        assert code == 0
        assert (target / "registry.json").exists()


class TestFailAndRecover:
    def test_recover_prints_secret(self, state_dir, capsys):
        code, out, _ = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=state_dir,
        )
        assert code == 0
        assert out.strip() == "42"

    def test_recover_after_failure_with_remaining_eleven(self, state_dir, capsys):
        code, _, _ = run(capsys, "fail", "--node", "3", state_dir=state_dir)
        assert code == 0
        remaining = [str(i) for i in range(1, 13) if i != 3]
        code, out, _ = run(
            capsys, "recover", "--participants", *remaining, state_dir=state_dir
        )
        assert code == 0
        assert out.strip() == "42"

    def test_recover_below_threshold_exits_four(self, state_dir, capsys):
        code, out, _ = run(
            capsys, "recover", "--participants", *map(str, range(1, 8)),
            state_dir=state_dir,
        )
        assert code == 4
        assert out.startswith("insufficient-shares")

    def test_recover_reads_only_its_participants(self, state_dir, capsys):
        (state_dir / "nodes" / "node_12.json").write_text('{"id": 12, "y": ')
        code, out, _ = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=state_dir,
        )
        assert code == 0
        assert out.strip() == "42"

    def test_fail_reads_only_its_node(self, state_dir, capsys):
        # failing is local; the repair's digest broadcast reads every file
        path = state_dir / "nodes" / "node_12.json"
        path.write_text(path.read_text()[:20])
        before = read_tree(state_dir)
        code, out, err = run(capsys, "fail", "--node", "3", state_dir=state_dir)
        assert (code, out, err) == (0, "node 3 failed: private data erased\n", "")
        assert rewritten(state_dir) == {"nodes/node_03.json"}
        assert read_tree(state_dir)["nodes/node_12.json"] == before["nodes/node_12.json"]
        code, out, err = run(capsys, "repair", "--node", "3", state_dir=state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(path) in err

    def test_recover_unknown_participant_exits_two(self, state_dir, capsys):
        code, out, err = run(
            capsys, "recover", "--participants", *map(str, range(1, 8)), "99",
            state_dir=state_dir,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("configuration:")
        assert "99" in err

    def test_fail_unknown_node_exits_two(self, state_dir, capsys):
        code, _, err = run(capsys, "fail", "--node", "99", state_dir=state_dir)
        assert code == 2
        assert err.startswith("configuration:")
        assert "99" in err

    @pytest.mark.parametrize("node", ["0", "-1", "13"])
    def test_repair_unknown_node_exits_two(self, state_dir, capsys, node):
        code, out, err = run(capsys, "repair", "--node", node, state_dir=state_dir)
        assert (code, out, err) == (2, "", f"configuration: unknown node {node}\n")

    def test_double_fail_exits_two(self, state_dir, capsys):
        assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 0
        assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 2

    def test_missing_state_dir_exits_three(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "recover", "--participants", "1", "2",
            state_dir=tmp_path / "absent",
        )
        assert code == 3
        assert "io-error" in err


ALL_NODES = [str(i) for i in range(1, 13)]


def edit_node(state_dir, node_id, change):
    path = state_dir / "nodes" / f"node_{node_id:02d}.json"
    raw = json.loads(path.read_text())
    change(raw)
    path.write_text(json.dumps(raw))
    return path


def edit_registry(state_dir, change):
    path = state_dir / "registry.json"
    raw = json.loads(path.read_text())
    change(raw)
    path.write_text(json.dumps(raw))


def hosting_node(state_dir):
    for path in sorted((state_dir / "nodes").iterdir()):
        raw = json.loads(path.read_text())
        if raw["hosted"]:
            return raw["id"]
    raise AssertionError("no node hosts a foreign sub-share")


class TestCorruptState:
    """Bad state exits 3 (unreadable) or 4 (out of range), never 0 or a traceback."""

    def recover_all(self, capsys, state_dir):
        return run(capsys, "recover", "--participants", *ALL_NODES, state_dir=state_dir)

    def assert_out_of_range(self, capsys, state_dir, path):
        code, out, _ = self.recover_all(capsys, state_dir)
        assert code == 4
        assert out.startswith("domain:")
        assert path.name in out

    def test_primary_y_above_modulus_exits_four(self, state_dir, capsys):
        path = edit_node(state_dir, 2, lambda raw: raw.update(y=str(int(raw["y"]) + P + 7)))
        self.assert_out_of_range(capsys, state_dir, path)

    def test_negative_primary_y_exits_four(self, state_dir, capsys):
        path = edit_node(state_dir, 2, lambda raw: raw.update(y="-5"))
        self.assert_out_of_range(capsys, state_dir, path)

    def test_own_subshare_y_out_of_range_exits_four(self, state_dir, capsys):
        path = edit_node(
            state_dir, 2, lambda raw: raw["sss_subshare"].update(y=str(P))
        )
        self.assert_out_of_range(capsys, state_dir, path)

    def test_hosted_subshare_y_out_of_range_exits_four(self, state_dir, capsys):
        holder = hosting_node(state_dir)
        path = edit_node(
            state_dir, holder, lambda raw: raw["hosted"][0]["subshare"].update(y="-1")
        )
        self.assert_out_of_range(capsys, state_dir, path)

    @pytest.mark.parametrize("x", [None, "1"])
    def test_subshare_without_a_slot_exits_three(self, tmp_path, capsys, x):
        # a bare threshold system has no sub-share positions, so any stored
        # sub-share disagrees with the registry, even one with no x at all
        directory = tmp_path / "state"
        flags = [*TOY_FLAGS, "--placement", "none"]
        assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0
        path = edit_node(
            directory, 2, lambda raw: raw.update(sss_subshare={"x": x, "y": "5"})
        )
        code, out, err = self.recover_all(capsys, directory)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert str(path) in err

    @pytest.mark.parametrize(
        "digest", [["x"], None, "f" * 63, "F" * 64, "g" * 64, "f" * 64 + "\n"]
    )
    def test_digest_hex_must_be_64_lowercase_hex_digits(self, state_dir, capsys, digest):
        # the registry stores no digest; the one stored digest left, a
        # hosted one, must be a group's digest as hash_identity derives it
        holder = hosting_node(state_dir)
        path = edit_node(
            state_dir, holder, lambda raw: raw["hosted"][0].update(digest_hex=digest)
        )
        for command in (["attack", "--mode", "enum"], ["fail", "--node", str(holder)]):
            code, out, err = run(capsys, *command, state_dir=state_dir)
            assert (code, out) == (3, "")
            assert err.startswith("io-error:")
            assert str(path) in err

    @pytest.mark.parametrize("number", [1.0, float("nan")], ids=["1.0", "NaN"])
    def test_float_exits_three(self, state_dir, capsys, number):
        # save_state writes no float; node 1's id as 1.0 used to recover 42
        path = edit_node(state_dir, 1, lambda raw: raw.update(id=number))
        code, out, err = self.recover_all(capsys, state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(path) in err

        def first_x_lambda(raw):
            raw["x_lambda"][0] = number

        edit_node(state_dir, 1, lambda raw: raw.update(id=1))
        assert self.recover_all(capsys, state_dir)[0] == 0
        edit_registry(state_dir, first_x_lambda)
        code, out, err = self.recover_all(capsys, state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(state_dir / "registry.json") in err

    @pytest.mark.parametrize("boolean", [True, False])
    def test_boolean_exits_three(self, state_dir, capsys, boolean):
        # save_state writes no JSON boolean; true where it writes the id 1
        # used to recover 42 and pass attack --mode enum, since True == 1;
        # false, which equals 0, was and is refused as an id save_state
        # never writes
        registry = json.loads((state_dir / "registry.json").read_text())
        x_lambda = registry["x_lambda"][0]

        def set_x_lambda(value):
            def change(raw):
                raw["x_lambda"][0] = value

            return change

        path = edit_node(state_dir, 1, lambda raw: raw.update(id=boolean))
        edit_registry(state_dir, set_x_lambda(boolean))
        for edited in (state_dir / "registry.json", path):
            for command in (
                ["recover", "--participants", *ALL_NODES],
                ["attack", "--mode", "enum"],
            ):
                code, out, err = run(capsys, *command, state_dir=state_dir)
                assert (code, out) == (3, "")
                assert err.startswith("io-error:")
                assert str(edited) in err
            edit_registry(state_dir, set_x_lambda(x_lambda))
        edit_node(state_dir, 1, lambda raw: raw.update(id=1))
        assert self.recover_all(capsys, state_dir)[:2] == (0, "42\n")

    def test_truncated_node_file_exits_three(self, state_dir, capsys):
        path = state_dir / "nodes" / "node_02.json"
        path.write_text('{"id": 2, "y": ')
        code, out, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "node_02.json" in err

    def test_invalid_utf8_node_file_exits_three(self, state_dir, capsys):
        path = state_dir / "nodes" / "node_07.json"
        path.write_bytes(path.read_bytes().replace(b'"y": "', b'"y": "\xff', 1))
        code, out, err = run(capsys, "fail", "--node", "7", state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert str(path) in err
        assert "UnicodeDecodeError" in err

    def test_partial_recover_checks_its_participants(self, state_dir, capsys):
        eight = [str(i) for i in range(1, 9)]
        path = edit_node(state_dir, 3, lambda raw: raw.update(y=str(P)))
        code, out, _ = run(capsys, "recover", "--participants", *eight, state_dir=state_dir)
        assert code == 4
        assert out.startswith("domain:")
        assert path.name in out
        path.write_text('{"id": 3, "y": ')
        code, out, err = run(capsys, "recover", "--participants", *eight, state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert path.name in err

    def test_truncated_registry_exits_three(self, state_dir, capsys):
        path = state_dir / "registry.json"
        path.write_text(path.read_text()[:100])
        code, _, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert err.startswith("io-error:")
        assert "registry.json" in err

    def test_missing_key_exits_three(self, state_dir, capsys):
        edit_node(state_dir, 5, lambda raw: raw.pop("sss_subshare"))
        code, _, err = run(capsys, "fail", "--node", "5", state_dir=state_dir)
        assert code == 3
        assert err.startswith("io-error:")
        assert "node_05.json" in err
        assert "sss_subshare" in err

    def test_subshare_x_off_registry_exits_three(self, state_dir, capsys):
        # a peer's sub-share moved to x=9 would make the repair write a wrong share
        assert run(capsys, "fail", "--node", "1", state_dir=state_dir)[0] == 0
        before = (state_dir / "nodes" / "node_01.json").read_bytes()
        edit_node(state_dir, 2, lambda raw: raw["sss_subshare"].update(x="9"))
        code, out, err = run(capsys, "repair", "--node", "1", state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "node_02.json" in err
        assert (state_dir / "nodes" / "node_01.json").read_bytes() == before
        assert self.recover_all(capsys, state_dir)[0] == 3

    def test_unknown_hosted_digest_exits_three(self, state_dir, capsys):
        # a partial load derives the group digests on the first hosted
        # record it reads, so fail and recover check the holder's file too
        holder = hosting_node(state_dir)
        path = edit_node(
            state_dir, holder, lambda raw: raw["hosted"][0].update(digest_hex="f" * 64)
        )
        for command in (
            ["attack", "--mode", "enum"],
            ["fail", "--node", str(holder)],
            ["recover", "--participants", *ALL_NODES],
        ):
            code, out, err = run(capsys, *command, state_dir=state_dir)
            assert code == 3, command
            assert out == ""
            assert err.startswith("io-error:")
            assert path.name in err

    def test_hosted_entry_in_a_bare_state_exits_three(self, tmp_path, capsys):
        # the same seed draws the same hardware ids, so the copied digest is
        # a group's; but a bare threshold state hosts nothing
        placed, bare = tmp_path / "placed", tmp_path / "bare"
        assert run(capsys, "setup", *TOY_FLAGS, state_dir=placed)[0] == 0
        flags = [*TOY_FLAGS, "--placement", "none"]
        assert run(capsys, "setup", *flags, state_dir=bare)[0] == 0
        holder = hosting_node(placed)
        hosted = json.loads(
            (placed / "nodes" / f"node_{holder:02d}.json").read_text()
        )["hosted"]
        path = edit_node(bare, holder, lambda raw: raw.update(hosted=hosted))
        for command in (["fail", "--node", str(holder)], ["attack", "--mode", "enum"]):
            code, out, err = run(capsys, *command, state_dir=bare)
            assert (code, out) == (3, ""), command
            assert err.startswith("io-error:")
            assert str(path) in err
            assert "names no group with redundancy" in err

    def test_doubly_hosted_subshare_exits_four(self, state_dir, capsys):
        # each file alone loads; the search and the repair's digest
        # broadcast both find two holders of group 1's external sub-share
        digest = protocol.load_state(state_dir).digest(1)
        entries = {
            i: [e for e in json.loads(path.read_text())["hosted"] if e["digest_hex"] == digest]
            for i, path in enumerate(sorted((state_dir / "nodes").iterdir()), 1)
        }
        [(holder, [entry])] = [(i, found) for i, found in entries.items() if found]
        other = next(i for i in range(5, 13) if i != holder)
        edit_node(state_dir, other, lambda raw: raw["hosted"].append(entry))
        code, out, err = run(capsys, "attack", "--mode", "enum", state_dir=state_dir)
        assert (code, err) == (4, "")
        assert out == "integrity: group 1 has multiple hosted sub-shares\n"
        assert run(capsys, "fail", "--node", "1", state_dir=state_dir)[0] == 0
        code, out, err = run(capsys, "repair", "--node", "1", state_dir=state_dir)
        assert (code, err) == (4, "")
        assert out.startswith("integrity: 2 holders responded")

    def test_node_file_of_another_node_exits_three(self, state_dir, capsys):
        nodes = state_dir / "nodes"
        (nodes / "node_04.json").write_bytes((nodes / "node_03.json").read_bytes())
        code, _, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert err.startswith("io-error:")
        assert "node_04.json" in err

    def test_missing_placement_mode_exits_three(self, state_dir, capsys):
        edit_registry(state_dir, lambda raw: raw.pop("placement_mode"))
        code, _, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert err.startswith("io-error:")
        assert "registry.json" in err
        assert "placement_mode" in err

    def test_unknown_placement_mode_exits_three(self, state_dir, capsys):
        edit_registry(state_dir, lambda raw: raw.update(placement_mode="sideways"))
        code, out, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err
        assert "sideways" in err


    @pytest.mark.parametrize("x", ["1000", "0"])
    def test_participant_x_other_than_its_id_exits_three(self, state_dir, capsys, x):
        # setup assigns x = id, and the registry no longer spells either: a
        # participant's x is its position, which its node file's id must
        # name, or recover would interpolate through a wrong point
        path = edit_node(state_dir, 1, lambda raw: raw.update(id=int(x)))
        code, out, err = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=state_dir,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert str(path) in err

    @pytest.mark.parametrize("modulus", [4, 2**31, 13.0, TWELVE_BASE_PSEUDOPRIME])
    def test_modulus_not_prime_exits_three(self, state_dir, capsys, modulus):
        edit_registry(state_dir, lambda raw: raw.update(modulus=modulus))
        code, out, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err

    def test_modulus_too_small_for_the_shape_exits_three(self, tmp_path, capsys):
        # with k = 1 every share is the secret, so at modulus 7 the shares
        # still lie in the field; but setup refuses 7 for n + m + 2 = 8
        directory = tmp_path / "state"
        flags = ["--k", "1", "--n", "4", "--m", "2", "--secret", "3", "--seed", "7"]
        flags += ["--modulus", "11", "--placement", "none"]
        assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0
        edit_registry(directory, lambda raw: raw.update(modulus=7))
        code, out, err = run(capsys, "recover", "--participants", "1", state_dir=directory)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(directory / "registry.json") in err
        assert "need modulus > n + m + 2" in err

    @pytest.mark.parametrize(
        "command",
        [["recover", "--participants", *ALL_NODES], ["attack", "--mode", "enum"]],
        ids=["recover", "enum"],
    )
    @pytest.mark.parametrize(
        "change",
        [
            {"k": "8"},
            {"k": 0},
            {"k": 13},
            {"k": 8.0},
            {"n": 16},
            {"n": True},
            {"m": 4},
            {"m": 0},
            {"m": None},
        ],
        ids=lambda change: "-".join(f"{key}={value!r}" for key, value in change.items()),
    )
    def test_bad_parameters_exit_three(self, state_dir, capsys, command, change):
        edit_registry(state_dir, lambda raw: raw.update(change))
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err

    @pytest.mark.parametrize("placement, x_lambda", [("random", None), ("none", "5")])
    def test_x_lambda_must_match_the_placement(self, tmp_path, capsys, placement, x_lambda):
        # m decimal strings, or m nulls under 'none'; node 5's file holds
        # nothing of group 1, so only the registry can refuse this fail
        directory = tmp_path / "state"
        flags = [*TOY_FLAGS, "--placement", placement]
        assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0

        def first_x_lambda(raw):
            raw["x_lambda"][0] = x_lambda

        edit_registry(directory, first_x_lambda)
        code, out, err = run(capsys, "fail", "--node", "5", state_dir=directory)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(directory / "registry.json") in err

    def test_uneven_groups_exit_three(self, state_dir, capsys):
        # groups are partition(n, m)'s equal blocks, so m must divide n
        def five_groups(raw):
            raw["m"] = 5
            raw["x_lambda"] += raw["x_lambda"][:2]

        edit_registry(state_dir, five_groups)
        code, out, err = run(capsys, "attack", "--mode", "enum", state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert "registry.json" in err


# Spellings int() reads as the same number but save_state never writes.
NON_CANONICAL = {
    "leading-space": lambda text: " " + text,
    "trailing-newline": lambda text: text + "\n",
    "plus-sign": lambda text: "+" + text,
    "underscore": lambda text: text[0] + "_" + text[1:] if len(text) > 1 else "0_" + text,
    "leading-zero": lambda text: "0" + text,
    "fullwidth": lambda text: text.translate({ord("0") + d: 0xFF10 + d for d in range(10)}),
    "json-number": int,
}


def _hosted_subshare(raw):
    return raw["hosted"][0]["subshare"]


# (file, where the element sits in it), for each decimal field element saved
ELEMENT_FIELDS = {
    "y": (2, lambda raw: (raw, "y")),
    "sss_subshare-x": (2, lambda raw: (raw["sss_subshare"], "x")),
    "sss_subshare-y": (2, lambda raw: (raw["sss_subshare"], "y")),
    "hosted-x": ("holder", lambda raw: (_hosted_subshare(raw), "x")),
    "hosted-y": ("holder", lambda raw: (_hosted_subshare(raw), "y")),
    "x_lambda": ("registry", lambda raw: (raw["x_lambda"], 1)),
    # group 2's third sub-share x, which only node 7's file spells
    "sss_x": (7, lambda raw: (raw["sss_subshare"], "x")),
}


class TestNonCanonicalElements:
    """Every decimal field element must be spelled exactly as str() writes it;
    any other spelling int() accepts exits 3 naming the file."""

    @pytest.mark.parametrize("form", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
    @pytest.mark.parametrize("field", ELEMENT_FIELDS.values(), ids=ELEMENT_FIELDS.keys())
    def test_rejected(self, state_dir, capsys, field, form):
        where, locate = field
        if where == "registry":
            path = state_dir / "registry.json"
        else:
            node = hosting_node(state_dir) if where == "holder" else where
            path = state_dir / "nodes" / f"node_{node:02d}.json"
        raw = json.loads(path.read_text())
        owner, key = locate(raw)
        text = owner[key]
        owner[key] = form(text)
        assert int(owner[key]) == int(text)  # the same number, spelled otherwise
        path.write_text(json.dumps(raw))
        code, out, err = run(
            capsys, "recover", "--participants", *ALL_NODES, state_dir=state_dir
        )
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert str(path) in err

    def test_space_for_a_digit_no_longer_recovers_a_wrong_secret(self, state_dir, capsys):
        # int(" 100137404") parses, so this one-character edit used to make
        # recover print 82712631 with exit 0
        eight = [str(i) for i in range(1, 9)]
        code, out, _ = run(capsys, "recover", "--participants", *eight, state_dir=state_dir)
        assert (code, out) == (0, "42\n")

        def blank_first_digit(raw):
            assert raw["y"] == "1100137404"
            raw["y"] = " 100137404"

        path = edit_node(state_dir, 2, blank_first_digit)
        code, out, err = run(capsys, "recover", "--participants", *eight, state_dir=state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(path) in err


# (file, the dict in it that gets a key save_state never writes)
EXTRA_KEY_PLACES = {
    "registry": ("registry", lambda raw: raw),
    # participant 5's one record left beside its hardware id
    "participant": (5, lambda raw: raw),
    "node": (2, lambda raw: raw),
    "sss_subshare": (2, lambda raw: raw["sss_subshare"]),
    "hosted": ("holder", lambda raw: raw["hosted"][0]),
    "hosted-subshare": ("holder", _hosted_subshare),
}


@pytest.mark.parametrize("place", EXTRA_KEY_PLACES.values(), ids=EXTRA_KEY_PLACES.keys())
def test_key_save_state_never_writes_exits_three(state_dir, capsys, place):
    # a file is accepted only as save_state writes it, so an added key used
    # to load with exit 0 and now names the file
    where, locate = place
    if where == "registry":
        node, path = 1, state_dir / "registry.json"
    else:
        node = hosting_node(state_dir) if where == "holder" else where
        path = state_dir / "nodes" / f"node_{node:02d}.json"
    raw = json.loads(path.read_text())
    locate(raw)["note"] = "1"
    path.write_text(json.dumps(raw))
    # fail reads the registry and the failing node's file only
    fail = ["fail", "--node", str(node)]
    for command in (fail, ["recover", "--participants", *ALL_NODES]):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert str(path) in err
        assert "note" in err


def hw_id_text(raw, node):
    """Participant node's 12 hex digits in the registry's hw_ids."""
    return raw["hw_ids"][12 * (node - 1) : 12 * node]


def set_hw_id_text(raw, node, text):
    hw_ids = raw["hw_ids"]
    raw["hw_ids"] = hw_ids[: 12 * (node - 1)] + text + hw_ids[12 * node :]


@pytest.mark.parametrize("placement", ["none", "random"])
@pytest.mark.parametrize("member", ["unknown", "twice"])
def test_group_members_must_be_the_participants(tmp_path, capsys, placement, member):
    # membership is positional, so the participants are the n hardware ids:
    # a 13th id (of no participant) or one id listed twice is refused
    directory = tmp_path / "state"
    flags = [*TOY_FLAGS, "--placement", placement]
    assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0

    def change_ids(raw):
        if member == "unknown":
            raw["hw_ids"] += "0" * 12
        else:
            set_hw_id_text(raw, 12, hw_id_text(raw, 1))

    edit_registry(directory, change_ids)
    for command in (["fail", "--node", "12"], ["repair", "--node", "12"]):
        code, out, err = run(capsys, *command, state_dir=directory)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err


def test_repeated_hw_id_exits_three(state_dir, capsys):
    # setup draws n distinct ids, and distinct ids keep the derived group
    # digests distinct; node 2's id copied over node 6's formats back as
    # written, so load_state checks it on its own
    edit_registry(state_dir, lambda raw: set_hw_id_text(raw, 6, hw_id_text(raw, 2)))
    for command in (
        ["fail", "--node", "1"],
        ["repair", "--node", "1"],
        ["recover", "--participants", *ALL_NODES],
        ["attack", "--mode", "enum"],
    ):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert (code, out) == (3, ""), command
        assert err.startswith("io-error:")
        assert str(state_dir / "registry.json") in err
        assert "hardware id twice" in err


def test_edited_hw_id_no_longer_repairs(state_dir, capsys):
    # one hex digit of node 2's id: the registry used to keep group 1's
    # digest beside the ids, unchecked, so this loaded and repaired node 1
    # with exit 0.  The digest is now derived from the ids, so group 1's
    # hosted digest names no group and every full load exits 3.
    def edit_digit(raw):
        text = hw_id_text(raw, 2)
        set_hw_id_text(raw, 2, ("1" if text[0] != "1" else "2") + text[1:])

    edit_registry(state_dir, edit_digit)
    assert run(capsys, "fail", "--node", "1", state_dir=state_dir)[0] == 0
    for command in (["repair", "--node", "1"], ["attack", "--mode", "enum"]):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert (code, out) == (3, ""), command
        assert err.startswith("io-error:")
        assert "names no group with redundancy" in err


def old_format_registry(raw):
    """The registry as it was written before it held only what position
    cannot give: per-participant and per-group entries, with digests."""
    n, m = raw["n"], raw["m"]
    gamma = n // m
    hw_ids = [int(raw["hw_ids"][i : i + 12], 16) for i in range(0, 12 * n, 12)]
    groups = []
    for g, x_lambda in enumerate(raw["x_lambda"], 1):
        ids = list(range((g - 1) * gamma + 1, g * gamma + 1))
        groups.append(
            {
                "id": g,
                "members": ids,
                "x_lambda": x_lambda,
                "sss_x": [] if x_lambda is None else [str(x) for x in range(1, gamma + 2)],
                "digest_hex": protocol.hash_identity(hw_ids[i - 1] for i in ids),
            }
        )
    participants = [
        {"id": i, "x": str(i), "hw_id": "%012x" % hw} for i, hw in enumerate(hw_ids, 1)
    ]
    return {
        key: raw[key] for key in ("modulus", "k", "n", "m", "placement_mode")
    } | {"participants": participants, "groups": groups}


def test_old_format_registry_exits_three(state_dir, capsys):
    # there is no reader for the old format: such a state is set up again
    path = state_dir / "registry.json"
    old = old_format_registry(json.loads(path.read_text()))
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    for command in (
        ["fail", "--node", "1"],
        ["repair", "--node", "1"],
        ["recover", "--participants", *ALL_NODES],
        ["attack", "--mode", "enum"],
    ):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert (code, out) == (3, ""), command
        assert err.startswith("io-error:")
        assert str(path) in err
        assert "Traceback" not in err


class TestRelabelledSubShares:
    """Sub-share x values follow from position: member i of a group at x = i,
    the external one at gamma + 1, and no file lists them but the node
    files.  A state relabelled consistently there would make repair write a
    wrong y with exit 0, so every command that loads a relabelled file exits
    3 naming it."""

    EIGHT = [str(i) for i in range(1, 9)]

    def assert_refused(self, capsys, state_dir, command, path):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert str(path) in err

    def test_external_relabel_exits_three(self, state_dir, capsys):
        def relabel_hosted(raw):
            entry = raw["hosted"][0]
            assert entry["subshare"]["x"] == "5"
            entry["subshare"]["x"] = "6"

        holder = hosting_node(state_dir)
        path = edit_node(state_dir, holder, relabel_hosted)
        self.assert_refused(capsys, state_dir, ["fail", "--node", str(holder)], path)
        self.assert_refused(capsys, state_dir, ["attack", "--mode", "enum"], path)

    def test_member_relabel_exits_three(self, state_dir, capsys):
        def set_subshare_x(x):
            return lambda raw: raw["sss_subshare"].update(x=x)

        path = edit_node(state_dir, 1, set_subshare_x("2"))
        edit_node(state_dir, 2, set_subshare_x("1"))
        self.assert_refused(capsys, state_dir, ["fail", "--node", "1"], path)
        self.assert_refused(
            capsys, state_dir, ["recover", "--participants", *self.EIGHT], path
        )


class TestLayoutFromPosition:
    """The groups are partition(n, m)'s blocks of consecutive ids: the
    registry lists no members, so a member moved in it is a hardware id or
    a sub-share x moved.  Member lists moved consistently with the hardware
    ids or the sub-share x used to make repair write a wrong y and recover
    print a wrong secret with exit 0; every command that loads such a state
    exits 3, or gives the right answer."""

    COMMANDS = {
        "fail": ["fail", "--node", "{node}"],
        "repair": ["repair", "--node", "{node}"],
        "recover": ["recover", "--participants", *map(str, range(1, 9))],
    }

    def assert_refused(self, capsys, state_dir, node, name="registry.json"):
        for command_name, command in self.COMMANDS.items():
            argv = [arg.format(node=node) for arg in command]
            code, out, err = run(capsys, *argv, state_dir=state_dir)
            assert (code, out) == (3, ""), command_name
            assert err.startswith("io-error:"), command_name
            assert name in err, command_name

    def test_members_swapped_across_groups_exit_three(self, state_dir, capsys):
        # swapping 4's and 8's hardware ids moves them across groups: both
        # groups' derived digests change, so their hosted digests name no
        # group, and every full load exits 3; a recover that reads no such
        # digest still recovers the secret, since each share stays at its x
        def swap_4_and_8(raw):
            four, eight = hw_id_text(raw, 4), hw_id_text(raw, 8)
            set_hw_id_text(raw, 4, eight)
            set_hw_id_text(raw, 8, four)

        edit_registry(state_dir, swap_4_and_8)
        assert run(capsys, "fail", "--node", "4", state_dir=state_dir)[0] == 0
        for command in (["repair", "--node", "4"], ["attack", "--mode", "enum"]):
            code, out, err = run(capsys, *command, state_dir=state_dir)
            assert (code, out) == (3, ""), command
            assert "names no group with redundancy" in err
        nodes = state_dir / "nodes"
        plain = [
            str(i)
            for i in range(1, 13)
            if i != 4 and not json.loads((nodes / f"node_{i:02d}.json").read_text())["hosted"]
        ]
        recover = ["recover", "--participants", *plain[:8]]
        assert run(capsys, *recover, state_dir=state_dir)[:2] == (0, "42\n")

    def test_members_reordered_within_a_group_exit_three(self, state_dir, capsys):
        # members 1 and 2 reordered: their sub-share x values swapped
        def set_subshare_x(x):
            return lambda raw: raw["sss_subshare"].update(x=x)

        edit_node(state_dir, 1, set_subshare_x("2"))
        edit_node(state_dir, 2, set_subshare_x("1"))
        self.assert_refused(capsys, state_dir, 1, "node_01.json")

    def test_one_member_groups_exit_three(self, tmp_path, capsys):
        # n = m is consistent in every file but has gamma = 1, which setup
        # refuses
        directory = tmp_path / "state"
        flags = [*TOY_FLAGS, "--placement", "none"]
        assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0
        edit_registry(directory, lambda raw: raw.update(m=12, x_lambda=[None] * 12))
        self.assert_refused(capsys, directory, 3)


# Spellings int(text, 16) reads but registry_dict never writes; the last
# three are other numbers: a sign, too few digits and too many.
NON_CANONICAL_HW_ID = {
    "leading-space": lambda text: " " + text,
    "plus-sign": lambda text: "+" + text,
    "underscore": lambda text: text[0] + "_" + text[1:],
    "0x-prefix": lambda text: "0x" + text,
    "uppercase": lambda text: text.upper(),
    "13-digits-same-number": lambda text: "0" + text,
    "minus-sign": lambda text: "-" + text[1:],
    "11-digits": lambda text: text[1:],
    "13-digits": lambda text: text + "0",
}


@pytest.mark.parametrize("form", NON_CANONICAL_HW_ID.values(), ids=NON_CANONICAL_HW_ID.keys())
def test_non_canonical_hw_id_exits_three(state_dir, capsys, form):
    def respell(raw):
        text = hw_id_text(raw, 2)
        assert text != text.upper()  # holds for this seed, so uppercase differs
        set_hw_id_text(raw, 2, form(text))

    edit_registry(state_dir, respell)
    for command in (["fail", "--node", "2"], ["recover", "--participants", *ALL_NODES]):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert (code, out) == (3, "")
        assert err.startswith("io-error:")
        assert "registry.json" in err


@pytest.fixture(scope="module")
def toy_state_files(tmp_path_factory):
    """Every file of a fresh TOY state, by path relative to the state directory."""
    directory = tmp_path_factory.mktemp("toy") / "state"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--state-dir", str(directory), "setup", *TOY_FLAGS]) == 0
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*.json")}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    corrupt=st.integers(1, 12),
    offset=st.integers(1, 11),
    truncate=st.booleans(),
    data=st.data(),
)
def test_corrupt_node_file_keeps_exit_contract(
    toy_state_files, corrupt, offset, truncate, data
):
    """One node file truncated or one byte flipped: fail of another node
    exits 0 without reading it, and the repair that follows, which reads
    every file, exits 0, 3 or 4 and never raises; bytes that no longer
    parse as JSON make it exit 3 naming the file."""
    node = (corrupt + offset - 1) % 12 + 1  # never the corrupted node
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for relative, content in toy_state_files.items():
            (directory / relative).parent.mkdir(exist_ok=True)
            (directory / relative).write_bytes(content)
        path = directory / "nodes" / f"node_{corrupt:02d}.json"
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        if truncate:
            bad = raw[:at]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            bad = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
        path.write_bytes(bad)
        try:
            json.loads(bad.decode())
            parses = True
        except ValueError:
            parses = False
        results = {}
        for command in ("fail", "repair"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--state-dir", tmp, command, "--node", str(node)])
            results[command] = (code, out.getvalue(), err.getvalue())
        assert results["fail"][0] == 0, results
        assert path.read_bytes() == bad
        code, out, err = results["repair"]
        assert code in (0, 3, 4), results
        if not parses:
            assert code == 3
            assert err.startswith("io-error:")
            assert str(path) in err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(node=st.integers(1, 12), truncate=st.booleans(), data=st.data())
def test_corrupt_registry_keeps_exit_contract(toy_state_files, node, truncate, data):
    """registry.json truncated or one byte flipped: fail, repair and recover
    exit 0, 3 or 4 and never raise; bytes that no longer parse as JSON exit
    3 naming the registry.  The recover leaves out the failed node, whose
    repair an edited hardware id refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for relative, content in toy_state_files.items():
            (directory / relative).parent.mkdir(exist_ok=True)
            (directory / relative).write_bytes(content)
        path = directory / "registry.json"
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        if truncate:
            bad = raw[:at]
        else:
            mask = data.draw(st.integers(1, 255), label="mask")
            bad = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
        path.write_bytes(bad)
        try:
            json.loads(bad.decode())
            parses = True
        except ValueError:
            parses = False
        commands = (
            ["fail", "--node", str(node)],
            ["repair", "--node", str(node)],
            ["recover", "--participants", *[str(i) for i in range(1, 10) if i != node][:8]],
        )
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--state-dir", tmp, *command])
            assert code in (0, 3, 4), (command, code, out.getvalue(), err.getvalue())
            if not parses:
                assert code == 3
                assert err.getvalue().startswith("io-error:")
                assert str(path) in err.getvalue()


def read_tree(state_dir):
    """Every file's bytes; each mtime is then set to 0, so a rewrite shows."""
    tree = {}
    for path in state_dir.rglob("*"):
        if path.is_file():
            tree[path.relative_to(state_dir).as_posix()] = path.read_bytes()
            os.utime(path, ns=(0, 0))
    return tree


def rewritten(state_dir):
    return {
        path.relative_to(state_dir).as_posix()
        for path in state_dir.rglob("*")
        if path.is_file() and path.stat().st_mtime_ns != 0
    }


class TestStateWrites:
    """fail and repair rewrite one node file, atomically; setup writes the registry last."""

    def test_fail_and_repair_touch_only_their_node(self, state_dir, capsys):
        # the holder last: failing it loses the sub-share it hosts for good
        for node in (2, hosting_node(state_dir)):
            name = f"nodes/node_{node:02d}.json"
            for command in ("fail", "repair"):
                before = read_tree(state_dir)
                code, _, _ = run(capsys, command, "--node", str(node), state_dir=state_dir)
                assert code == 0
                assert rewritten(state_dir) == {name}
                after = read_tree(state_dir)
                assert after.keys() == before.keys()
                assert after[name] != before[name]
                assert {f: b for f, b in after.items() if f != name} == {
                    f: b for f, b in before.items() if f != name
                }

    def test_failed_rename_keeps_old_bytes(self, state_dir, capsys, monkeypatch):
        path = state_dir / "nodes" / "node_03.json"
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(protocol.os, "replace", refuse)
        code, _, err = run(capsys, "fail", "--node", "3", state_dir=state_dir)
        assert code == 3
        assert err.startswith("io-error:")
        assert path.read_bytes() == before
        leftover = path.with_name("node_03.json.tmp")
        assert leftover.exists()

        monkeypatch.undo()
        assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 0
        assert json.loads(path.read_text())["y"] is None
        assert not leftover.exists()

    def test_setup_removes_leftover_temp_files(self, state_dir, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(protocol.os, "replace", refuse)
        assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 3
        monkeypatch.undo()
        assert [p.name for p in state_dir.rglob("*.tmp")] == ["node_03.json.tmp"]
        assert run(capsys, "setup", *TOY_FLAGS, state_dir=state_dir)[0] == 0
        assert not list(state_dir.rglob("*.tmp"))
        code, out, _ = run(capsys, "recover", "--participants", *ALL_NODES, state_dir=state_dir)
        assert (code, out.strip()) == (0, "42")

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "over-old-state"])
    def test_setup_cut_short_leaves_no_registry(
        self, tmp_path, capsys, monkeypatch, existing
    ):
        directory = tmp_path / "state"
        if existing:
            assert run(capsys, "setup", *TOY_FLAGS, state_dir=directory)[0] == 0
        real = protocol.node_store_dict
        calls = []

        def crash_midway(node_id, node):
            calls.append(node_id)
            if len(calls) == 6:
                raise OSError("disk gone")
            return real(node_id, node)

        monkeypatch.setattr(protocol, "node_store_dict", crash_midway)
        flags = [*TOY_FLAGS[:-1], "8"]  # another seed, so every file would change
        assert run(capsys, "setup", *flags, state_dir=directory)[0] == 3
        monkeypatch.undo()
        assert not (directory / "registry.json").exists()
        code, out, err = run(
            capsys, "recover", "--participants", *ALL_NODES, state_dir=directory
        )
        assert code == 3
        assert out == ""
        assert "registry.json" in err


class TestRepair:
    def test_repaired_value_matches_shadow_copy(self, state_dir, capsys):
        shadow = json.loads((state_dir / "nodes" / "node_03.json").read_text())
        assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 0
        after_fail = json.loads((state_dir / "nodes" / "node_03.json").read_text())
        assert after_fail["y"] is None
        code, out, _ = run(capsys, "repair", "--node", "3", state_dir=state_dir)
        assert code == 0
        assert "node 3 repaired" in out
        restored = json.loads((state_dir / "nodes" / "node_03.json").read_text())
        assert restored == shadow

    def test_trace_printed_with_protocol_shape(self, state_dir, capsys):
        run(capsys, "fail", "--node", "5", state_dir=state_dir)
        code, out, _ = run(capsys, "repair", "--node", "5", state_dir=state_dir)
        assert code == 0
        lines = [l for l in out.splitlines() if " | " in l]
        assert len(lines) == 12
        assert sum("| delivery |" in l for l in lines) == 1
        assert sum("| ack |" in l for l in lines) == 3

    def test_repair_healthy_node_exits_two(self, state_dir, capsys):
        code, _, err = run(capsys, "repair", "--node", "3", state_dir=state_dir)
        assert code == 2

    def test_second_group_failure_exits_four_with_error_name(self, state_dir, capsys):
        run(capsys, "fail", "--node", "1", state_dir=state_dir)
        run(capsys, "fail", "--node", "2", state_dir=state_dir)
        code, out, _ = run(capsys, "repair", "--node", "1", state_dir=state_dir)
        assert code == 4
        assert out.splitlines()[0].startswith("insufficient-points")

    def test_fail_repair_fail_sequence(self, state_dir, capsys):
        assert run(capsys, "fail", "--node", "6", state_dir=state_dir)[0] == 0
        assert run(capsys, "repair", "--node", "6", state_dir=state_dir)[0] == 0
        assert run(capsys, "fail", "--node", "6", state_dir=state_dir)[0] == 0
        assert run(capsys, "repair", "--node", "6", state_dir=state_dir)[0] == 0

    def test_recover_after_repair_in_every_group(self, state_dir, capsys):
        for node in ("1", "5", "9"):
            assert run(capsys, "fail", "--node", node, state_dir=state_dir)[0] == 0
            assert run(capsys, "repair", "--node", node, state_dir=state_dir)[0] == 0
        code, out, _ = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=state_dir,
        )
        assert code == 0
        assert out.strip() == "42"


class TestAttack:
    def test_analytic_half(self, capsys):
        code, out, _ = run(capsys, "attack", "--mode", "analytic", "--q", "0.5")
        assert code == 0
        assert out.strip() == "q=0.5 p1=0.0625 p2=0.1875"

    def test_analytic_json_records(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "analytic",
            "--q", "0.3", "0.5",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["q"] for r in records] == [0.3, 0.5]
        assert records[1]["p1_exact"] == 0.0625

    def test_analytic_default_q_after_an_explicit_q(self, capsys):
        # one parser serves every call, so the default must not keep an
        # earlier call's --q
        for fmt, line in [
            ("text", "q=0.5 p1=0.0625 p2=0.1875"),
            ("json", '{"p1_exact": 0.0625, "p2_exact": 0.1875, "q": 0.5, "record": "analytic"}'),
        ]:
            code, _, _ = run(
                capsys, "--format", fmt, "attack", "--mode", "analytic", "--q", "0.1", "0.3"
            )
            assert code == 0
            got = run(capsys, "--format", fmt, "attack", "--mode", "analytic")
            assert got == (0, line + "\n", "")

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(capsys, "attack", "--mode", "mc", "--q", "0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "analytic", "--q", "1.5"],
            ["--mode", "mc", "--seed", "1", "--trials", "0"],
        ],
        ids=["q", "trials"],
    )
    def test_out_of_range_option_exits_two(self, capsys, flags):
        code, out, err = run(capsys, "attack", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration:")

    def test_mc_readme_line(self, capsys):
        code, out, err = run(
            capsys, "attack", "--mode", "mc",
            "--q", "0.5", "--trials", "100000", "--seed", "9",
        )
        assert (code, err) == (0, "")
        assert out == (
            "q=0.5 p1_exact=0.0625 p1_mc=0.0623 p2_exact=0.1875 p2_mc=0.18848 "
            "trials=100000 seed=9\n"
        )

    def test_mc_record_contents(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "mc",
            "--q", "0.5", "--trials", "2000", "--seed", "9",
        )
        assert code == 0
        record = json.loads(out)
        assert record["trials"] == 2000
        assert abs(record["p1_empirical"] - 0.0625) < 0.03
        assert abs(record["p2_empirical"] - 0.1875) < 0.03

    def test_enum_on_reciprocal_fixture(self, tmp_path, capsys):
        directory = tmp_path / "rec"
        run(capsys, "setup", *TOY_FLAGS, "--placement", "reciprocal",
            state_dir=directory)
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "enum",
            state_dir=directory,
        )
        assert code == 0
        record = json.loads(out)
        assert record["min_compromise_size"] == 6
        assert len(record["witness_subset"]) == 6

    def test_enum_anti_reciprocal_sweep(self, state_dir, capsys):
        code, out, _ = run(
            capsys, "attack", "--mode", "enum", "--anti-reciprocal",
            state_dir=state_dir,
        )
        assert code == 0
        assert "min_compromise_size=7" in out

    def test_enum_anti_reciprocal_sweep_on_wide_groups(self, tmp_path, capsys):
        directory = tmp_path / "wide"
        run(capsys, "setup", "--k", "128", "--n", "256", "--m", "4",
            "--secret", "1", "--seed", "1", state_dir=directory)
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "enum",
            "--anti-reciprocal", state_dir=directory,
        )
        assert code == 0
        record = json.loads(out)
        assert record["min_compromise_size"] == 127
        assert len(record["witness_subset"]) == 127

    @pytest.mark.parametrize("damage", ["failed", "truncated"])
    def test_sweep_reads_only_the_registry(self, state_dir, capsys, damage):
        # the plain search reads every node store, so it still refuses both
        if damage == "failed":
            assert run(capsys, "fail", "--node", "3", state_dir=state_dir)[0] == 0
        else:
            (state_dir / "nodes" / "node_12.json").write_text('{"id": 12, "y": ')
        code, out, err = run(
            capsys, "attack", "--mode", "enum", "--anti-reciprocal",
            state_dir=state_dir,
        )
        assert (code, err) == (0, "")
        assert out == "placement=anti-reciprocal min_compromise_size=7 witness=1,2,3,5,6,7,8\n"
        code, _, _ = run(capsys, "attack", "--mode", "enum", state_dir=state_dir)
        assert code == (2 if damage == "failed" else 3)

    def test_sweep_needs_no_nodes_directory(self, state_dir, capsys):
        (state_dir / "nodes").rename(state_dir / "away")
        code, out, err = run(
            capsys, "attack", "--mode", "enum", "--anti-reciprocal",
            state_dir=state_dir,
        )
        assert (code, err) == (0, "")
        assert out == "placement=anti-reciprocal min_compromise_size=7 witness=1,2,3,5,6,7,8\n"
        code, _, err = run(capsys, "attack", "--mode", "enum", state_dir=state_dir)
        assert code == 3
        assert "nodes" in err

    def test_enum_bare_threshold(self, tmp_path, capsys):
        directory = tmp_path / "bare"
        run(capsys, "setup", *TOY_FLAGS, "--placement", "none", state_dir=directory)
        code, out, _ = run(capsys, "attack", "--mode", "enum", state_dir=directory)
        assert code == 0
        assert "min_compromise_size=8" in out

    def test_enum_refused_for_large_system(self, tmp_path, capsys):
        directory = tmp_path / "big"
        run(capsys, "setup", "--k", "8", "--n", "34", "--m", "17",
            "--secret", "1", "--seed", "1", state_dir=directory)
        code, _, err = run(capsys, "attack", "--mode", "enum", state_dir=directory)
        assert code == 2
        assert "enumeration-limit" in err

    def test_sweep_answers_above_the_search_limit(self, tmp_path, capsys):
        directory = tmp_path / "big"
        run(capsys, "setup", "--k", "8", "--n", "34", "--m", "17",
            "--secret", "1", "--seed", "1", state_dir=directory)
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "enum",
            "--anti-reciprocal", state_dir=directory,
        )
        assert code == 0
        record = json.loads(out)
        assert record["min_compromise_size"] == len(record["witness_subset"]) == 4

    def test_enum_on_twenty_nodes(self, tmp_path, capsys):
        directory = tmp_path / "wide"
        run(capsys, "setup", "--k", "8", "--n", "20", "--m", "5",
            "--secret", "1", "--seed", "1", state_dir=directory)
        code, out, _ = run(
            capsys, "--format", "json", "attack", "--mode", "enum",
            state_dir=directory,
        )
        assert code == 0
        record = json.loads(out)
        state = protocol.load_state(directory)
        holders = state_holders(state)
        ref = ReferenceCounter(state)
        assert record["min_compromise_size"] == ref.min_size(holders)
        assert len(record["witness_subset"]) == record["min_compromise_size"]
        assert ref.recovers(record["witness_subset"], holders)


# The coefficient-list helpers; each command works from points alone.
COEFFICIENT_HELPERS = [
    (PrimeField, "poly_interpolate"),
    (PrimeField, "poly_eval"),
    (PrimeField, "poly_random"),
    (groups, "build_repair_function"),
    (shamir, "reconstruct_polynomial"),
    (groups, "reconstruct_polynomial"),
]


def run_every_command(capsys, directory, placement):
    """(exit code, stdout, stderr) of each command on a fresh TOY state."""
    shutil.rmtree(directory, ignore_errors=True)
    commands = [["setup", *TOY_FLAGS, "--placement", placement]]
    if placement != "none":  # a bare threshold state neither repairs nor sweeps
        commands += [
            ["fail", "--node", "6"],
            ["repair", "--node", "6"],
            ["attack", "--mode", "enum", "--anti-reciprocal"],
        ]
    commands += [
        ["recover", "--participants", *map(str, range(1, 13))],  # 4 surplus
        ["attack", "--mode", "enum"],
        ["attack", "--mode", "mc", "--q", "0.3", "--trials", "1000", "--seed", "9"],
        ["attack", "--mode", "analytic", "--q", "0.3", "0.5"],
    ]
    return [run(capsys, *argv, state_dir=directory) for argv in commands]


@pytest.mark.parametrize("placement", protocol.PLACEMENT_MODES)
def test_no_command_builds_a_coefficient_list(tmp_path, capsys, monkeypatch, placement):
    directory = tmp_path / "state"  # setup prints it, so both runs share it
    expected = run_every_command(capsys, directory, placement)
    assert [code for code, _, _ in expected] == [0] * len(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a command built a coefficient list")

    for owner, name in COEFFICIENT_HELPERS:
        monkeypatch.setattr(owner, name, refuse)
    assert run_every_command(capsys, directory, placement) == expected


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call; a usage error and
    --help leave argparse by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def interleaved_commands(directory):
    """Every command under both formats, with usage errors, --help and
    refused commands between them, on one TOY state."""
    state = ["--state-dir", str(directory)]
    commands = []
    for fmt in ("text", "json"):
        form = ["--format", fmt]
        commands += [
            [*state, *form, "setup", *TOY_FLAGS],
            [*state, *form, "fail", "--node", "6"],
            [*state, "--format", "xml", "repair", "--node", "6"],
            [*state, *form, "repair", "--node", "6"],
            [*form, "attack", "--mode", "analytic", "--q", "0.3", "0.5"],
            [*state, *form, "recover", "--participants", *map(str, range(1, 13))],
            ["--help"],
            [*state, *form, "attack", "--mode", "enum"],
            [*form, "attack", "--mode", "mc", "--q", "0.3", "--trials", "1000", "--seed", "9"],
            [*state, *form, "attack", "--mode", "enum", "--anti-reciprocal"],
            [*form, "attack", "--mode", "analytic"],
            [*form, "attack", "--help"],
            [*state, *form, "recover", "--participants", "1", "2"],
            [*state, *form, "fail", "--node", "99"],
        ]
    return commands


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    directory = tmp_path / "state"  # setup prints it, so both runs share it
    outcome(capsys, ["attack", "--mode", "analytic"])  # the parser exists
    reused = [outcome(capsys, argv) for argv in interleaved_commands(directory)]
    assert {code for code, _, _ in reused} == {0, 2, 4}

    shutil.rmtree(directory)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [outcome(capsys, argv) for argv in interleaved_commands(directory)]
    assert fresh == reused


def test_no_parser_is_built_after_the_first_command(tmp_path, capsys, monkeypatch):
    outcome(capsys, ["attack", "--mode", "analytic"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in interleaved_commands(tmp_path / "state"):
        outcome(capsys, argv)
    assert built == []
    cli.build_parser.__wrapped__()  # the count does see a build
    assert built[0] == "lrshare"
