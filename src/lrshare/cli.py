"""Operator command line: build systems, inject failures, repair, recover,
and run the compromise analyses.

Exit codes are stable for scripting: 0 success, 2 usage or configuration
error, 3 I/O failure, 4 protocol or math error.  Every randomized
subcommand requires an explicit --seed; nothing draws ambient entropy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import protocol, threat
from .errors import (
    ConfigurationError,
    EnumerationLimitError,
    SharingError,
    StateFileError,
)
from .field import DEFAULT_MODULUS
from .groups import members

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4

STATE_DIR_ENV = "LRSHARE_STATE_DIR"
DEFAULT_STATE_DIR = "./lrshare-state"


def error_name(exc: Exception) -> str:
    """Stable kebab-case error name, e.g. InsufficientPointsError -> insufficient-points."""
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _emit(args, record: dict, text: str):
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _state_dir(args) -> str:
    return args.state_dir or os.environ.get(STATE_DIR_ENV) or DEFAULT_STATE_DIR


def cmd_setup(args) -> int:
    state = protocol.system_setup(
        k=args.k,
        n=args.n,
        m=args.m,
        secret=args.secret,
        seed=args.seed,
        modulus=args.modulus,
        placement=args.placement,
    )
    directory = _state_dir(args)
    protocol.save_state(state, directory)
    groups = [
        {
            "id": g,
            "members": list(members(g, state.gamma)),
            "digest_hex": state.digest(g),
        }
        for g in range(1, state.m + 1)
    ]
    record = {
        "record": "setup",
        "k": state.k,
        "n": state.n,
        "m": state.m,
        "gamma": state.gamma,
        "modulus": state.field.modulus,
        "placement_mode": state.placement_mode,
        "state_dir": directory,
        "groups": groups,
    }
    lines = [
        f"system ready: k={state.k} n={state.n} m={state.m} gamma={state.gamma} "
        f"modulus={state.field.modulus} placement={state.placement_mode} "
        f"state={directory}"
    ]
    for g in groups:
        ids = ",".join(str(i) for i in g["members"])
        lines.append(f"group {g['id']}: members {ids} digest {g['digest_hex']}")
    _emit(args, record, "\n".join(lines))
    return EXIT_OK


def cmd_fail(args) -> int:
    directory = _state_dir(args)
    # failing is local: the registry and the node's own file are all it reads
    state = protocol.load_state(directory, [args.node])
    protocol.mark_failed(state, args.node)
    protocol.save_state(state, directory, [args.node])
    _emit(
        args,
        {"record": "fail", "node": args.node},
        f"node {args.node} failed: private data erased",
    )
    return EXIT_OK


def cmd_repair(args) -> int:
    directory = _state_dir(args)
    state = protocol.load_state(directory)
    # an unknown node has no registered id, and request_repair refuses it
    hw_id = state.hw_ids[args.node - 1] if args.node in state.nodes else None
    repaired, restored, trace = protocol.request_repair(state, hw_id, args.node)
    protocol.save_state(state, directory, [args.node])
    record = {
        "record": "repair",
        "node": args.node,
        "x": str(repaired.x),
        "restored_subshare_x": str(restored.x),
        "events": [
            {
                "seq": e.seq,
                "kind": e.kind,
                "from": e.sender,
                "to": list(e.recipients),
                "summary": e.summary(),
            }
            for e in trace
        ],
    }
    text = "\n".join([e.line() for e in trace] + [f"node {args.node} repaired"])
    _emit(args, record, text)
    return EXIT_OK


def cmd_recover(args) -> int:
    state = protocol.load_state(_state_dir(args), args.participants)
    secret = protocol.recover_secret(state, args.participants)
    _emit(args, {"record": "recover", "secret": str(secret)}, str(secret))
    return EXIT_OK


def _attack_analytic(args) -> int:
    for q in args.q:
        p1 = threat.p1_exact(q)
        p2 = threat.p2_exact(q)
        _emit(
            args,
            {"record": "analytic", "q": q, "p1_exact": p1, "p2_exact": p2},
            f"q={q:g} p1={p1:g} p2={p2:g}",
        )
    return EXIT_OK


def _attack_mc(args) -> int:
    if args.seed is None:
        raise ConfigurationError("attack --mode mc requires --seed")
    for q in args.q:
        model = threat.CompromiseModel(q=q, trials=args.trials, seed=args.seed)
        p1 = threat.p1_exact(q)
        p2 = threat.p2_exact(q)
        emp1 = threat.mc_group_compromise(model, threat.SCHEME_BASELINE4)
        emp2 = threat.mc_group_compromise(model, threat.SCHEME_SSS5)
        _emit(
            args,
            {
                "record": "mc",
                "q": q,
                "p1_exact": p1,
                "p2_exact": p2,
                "p1_empirical": emp1,
                "p2_empirical": emp2,
                "trials": args.trials,
                "seed": args.seed,
            },
            f"q={q:g} p1_exact={p1:g} p1_mc={emp1:g} "
            f"p2_exact={p2:g} p2_mc={emp2:g} trials={args.trials} seed={args.seed}",
        )
    return EXIT_OK


def _attack_enum(args) -> int:
    if args.anti_reciprocal:
        # the sweep's closed form reads the registry alone
        state = protocol.load_state(_state_dir(args), [])
        result = threat.min_compromise_over_placements(state, anti_reciprocal=True)
        mode = "anti-reciprocal"
    else:
        state = protocol.load_state(_state_dir(args))
        result = threat.min_compromise_search(state)
        mode = state.placement_mode
    size, witness_list = result.size, sorted(result.witness)
    _emit(
        args,
        {
            "record": "enum",
            "placement_mode": mode,
            "min_compromise_size": size,
            "witness_subset": witness_list,
        },
        f"placement={mode} min_compromise_size={size} "
        f"witness={','.join(str(i) for i in witness_list)}",
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.mode == "analytic":
        return _attack_analytic(args)
    if args.mode == "mc":
        return _attack_mc(args)
    return _attack_enum(args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at the first call.

    parse_args keeps no state between calls, so every main call reuses it;
    each default must therefore be immutable, and the func defaults bind
    the cmd_* functions as they are at the first call.
    """
    parser = argparse.ArgumentParser(
        prog="lrshare",
        description=(
            "Grouped threshold secret sharing with local share repair and "
            "compromise analysis."
        ),
    )
    parser.add_argument(
        "--state-dir",
        help=f"state directory (default ${STATE_DIR_ENV} or {DEFAULT_STATE_DIR})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="build a system and write its state")
    p_setup.add_argument("--k", type=int, required=True, help="recovery threshold")
    p_setup.add_argument("--n", type=int, required=True, help="participant count")
    p_setup.add_argument("--m", type=int, required=True, help="group count")
    p_setup.add_argument(
        "--secret", type=int, required=True, help="secret as a decimal field element"
    )
    p_setup.add_argument("--seed", type=int, required=True, help="master seed")
    p_setup.add_argument(
        "--modulus", type=int, default=DEFAULT_MODULUS, help="prime field modulus"
    )
    p_setup.add_argument(
        "--placement",
        choices=protocol.PLACEMENT_MODES,
        default=protocol.PLACEMENT_RANDOM,
        help="external sub-share placement policy",
    )
    p_setup.set_defaults(func=cmd_setup)

    p_fail = sub.add_parser("fail", help="erase one node's private data")
    p_fail.add_argument("--node", type=int, required=True)
    p_fail.set_defaults(func=cmd_fail)

    p_repair = sub.add_parser("repair", help="run the repair protocol for a failed node")
    p_repair.add_argument("--node", type=int, required=True)
    p_repair.set_defaults(func=cmd_repair)

    p_recover = sub.add_parser("recover", help="recover the secret from live nodes")
    p_recover.add_argument(
        "--participants", type=int, nargs="+", required=True, help="node ids"
    )
    p_recover.set_defaults(func=cmd_recover)

    p_attack = sub.add_parser("attack", help="compromise analyses")
    p_attack.add_argument("--mode", choices=("analytic", "mc", "enum"), required=True)
    p_attack.add_argument(
        "--q", type=float, nargs="+", default=(0.5,), help="per-server compromise probability"
    )
    p_attack.add_argument("--trials", type=int, default=100_000)
    p_attack.add_argument("--seed", type=int, help="seed for mc mode")
    p_attack.add_argument(
        "--anti-reciprocal",
        action="store_true",
        help="enum: minimize over all anti-reciprocal placements",
    )
    p_attack.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, EnumerationLimitError) as exc:
        print(f"{error_name(exc)}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, StateFileError) as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SharingError as exc:
        print(f"{error_name(exc)}: {exc}")
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
