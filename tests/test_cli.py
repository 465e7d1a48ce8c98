"""Command-line interface: flows, output formats, exit-code contract."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrshare import protocol
from lrshare.cli import main
from lrshare.field import DEFAULT_MODULUS as P
from tests.test_threat import ReferenceCounter, state_holders

TOY_FLAGS = ["--k", "8", "--n", "12", "--m", "3", "--secret", "42", "--seed", "7"]


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
        code, out, err = run(capsys, "fail", "--node", "1", state_dir=state_dir)
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
        code, _, err = run(capsys, "fail", "--node", "1", state_dir=state_dir)
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
        holder = hosting_node(state_dir)
        path = edit_node(
            state_dir, holder, lambda raw: raw["hosted"][0].update(digest_hex="f" * 64)
        )
        code, out, err = run(capsys, "attack", "--mode", "enum", state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert path.name in err

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
        # setup assigns x = id; with any other x, recover would interpolate
        # through a wrong point and print a wrong secret
        edit_registry(state_dir, lambda raw: raw["participants"][0].update(x=x))
        code, out, err = run(
            capsys, "recover", "--participants", *map(str, range(1, 9)),
            state_dir=state_dir,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err

    @pytest.mark.parametrize("modulus", [4, 2**31, 13.0])
    def test_modulus_not_prime_exits_three(self, state_dir, capsys, modulus):
        edit_registry(state_dir, lambda raw: raw.update(modulus=modulus))
        code, out, err = self.recover_all(capsys, state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err

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

    def test_uneven_groups_exit_three(self, state_dir, capsys):
        def move_member(raw):
            raw["groups"][1]["members"].append(raw["groups"][0]["members"].pop())

        edit_registry(state_dir, move_member)
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
    "participant-x": ("registry", lambda raw: (raw["participants"][11], "x")),
    "x_lambda": ("registry", lambda raw: (raw["groups"][1], "x_lambda")),
    "sss_x": ("registry", lambda raw: (raw["groups"][1]["sss_x"], 2)),
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


@pytest.mark.parametrize("placement", ["none", "random"])
@pytest.mark.parametrize("member", [99, 1], ids=["unknown", "twice"])
def test_group_members_must_be_the_participants(tmp_path, capsys, placement, member):
    directory = tmp_path / "state"
    flags = [*TOY_FLAGS, "--placement", placement]
    assert run(capsys, "setup", *flags, state_dir=directory)[0] == 0

    def replace_last_member(raw):
        assert raw["groups"][2]["members"][-1] == 12
        raw["groups"][2]["members"][-1] = member

    edit_registry(directory, replace_last_member)
    for command in (["fail", "--node", "12"], ["repair", "--node", "12"]):
        code, out, err = run(capsys, *command, state_dir=directory)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err


class TestRelabelledSubShares:
    """Sub-share x values follow from position: member i of a group at x = i,
    the external one at gamma + 1.  A state relabelled consistently in the
    registry and the node files would make repair write a wrong y with
    exit 0, so every command that loads it exits 3."""

    EIGHT = [str(i) for i in range(1, 9)]

    def assert_refused(self, capsys, state_dir, command):
        code, out, err = run(capsys, *command, state_dir=state_dir)
        assert code == 3
        assert out == ""
        assert err.startswith("io-error:")
        assert "registry.json" in err

    def test_external_relabel_exits_three(self, state_dir, capsys):
        registry = json.loads((state_dir / "registry.json").read_text())
        digest = registry["groups"][0]["digest_hex"]

        def relabel_registry(raw):
            assert raw["groups"][0]["sss_x"] == ["1", "2", "3", "4", "5"]
            raw["groups"][0]["sss_x"][-1] = "6"

        def relabel_hosted(raw):
            (entry,) = [h for h in raw["hosted"] if h["digest_hex"] == digest]
            assert entry["subshare"]["x"] == "5"
            entry["subshare"]["x"] = "6"

        holder = next(
            int(path.stem[len("node_") :])
            for path in sorted((state_dir / "nodes").iterdir())
            if digest in path.read_text()
        )
        edit_registry(state_dir, relabel_registry)
        edit_node(state_dir, holder, relabel_hosted)
        self.assert_refused(capsys, state_dir, ["fail", "--node", "2"])
        self.assert_refused(capsys, state_dir, ["recover", "--participants", *self.EIGHT])

    def test_member_relabel_exits_three(self, state_dir, capsys):
        def swap_registry(raw):
            sss_x = raw["groups"][0]["sss_x"]
            sss_x[0], sss_x[1] = sss_x[1], sss_x[0]
            assert sss_x[:2] == ["2", "1"]

        def set_subshare_x(x):
            return lambda raw: raw["sss_subshare"].update(x=x)

        edit_registry(state_dir, swap_registry)
        edit_node(state_dir, 1, set_subshare_x("2"))
        edit_node(state_dir, 2, set_subshare_x("1"))
        self.assert_refused(capsys, state_dir, ["fail", "--node", "3"])
        self.assert_refused(capsys, state_dir, ["recover", "--participants", *self.EIGHT])


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
    """One node file truncated or one byte flipped: fail and repair of another
    node exit 0, 3 or 4 and never raise; bytes that no longer parse as JSON
    exit 3 naming the file."""
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
        for command in ("fail", "repair"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--state-dir", tmp, command, "--node", str(node)])
            assert code in (0, 3, 4), (command, code, out.getvalue(), err.getvalue())
            if not parses:
                assert code == 3
                assert err.getvalue().startswith("io-error:")
                assert str(path) in err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(node=st.integers(1, 12), truncate=st.booleans(), data=st.data())
def test_corrupt_registry_keeps_exit_contract(toy_state_files, node, truncate, data):
    """registry.json truncated or one byte flipped: fail, repair and recover
    exit 0, 3 or 4 and never raise; bytes that no longer parse as JSON exit
    3 naming the registry."""
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
            ["recover", "--participants", *map(str, range(1, 9))],
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

        def crash_midway(node):
            calls.append(node)
            if len(calls) == 6:
                raise OSError("disk gone")
            return real(node)

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
