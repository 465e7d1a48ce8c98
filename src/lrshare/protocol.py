"""Deterministic simulated node network running the sharing system.

Nodes are plain records mutated by single-threaded functions; a broadcast
is an iteration over the node table.  There is no wire transport on
purpose: the point of the simulation is exhaustive, reproducible checks of
what travels where, which sockets would only obscure.

Public data lives in the registry (modulus, thresholds, every x, group
membership, the groups' hash identities).  Private data lives only in node
stores: each node's primary share value, its own group sub-share, and any
foreign sub-shares it happens to host.  A group never records who holds
its external sub-share; the holder is found again at repair time by
broadcasting the group's hash identity, and the holder itself knows the
digest but not the group behind it.

All randomness flows from one master seed through named sub-streams
(identity, sharing, per-group lambda and sub-sharing, placement), so the
same seed reproduces byte-identical registries, stores, and traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import groups as grouping
from . import shamir
from .errors import (
    AuthorizationError,
    ConfigurationError,
    DomainError,
    HolderLostError,
    InsufficientPointsError,
    IntegrityError,
    PlacementError,
    SharingError,
    StateFileError,
)
from .field import DEFAULT_MODULUS, PrimeField
from .groups import GroupSpec, WeakRedundancy
from .seeds import derive_rng
from .shamir import Share

PLACEMENT_RANDOM = "random"
PLACEMENT_ANTI_RECIPROCAL = "anti-reciprocal"
PLACEMENT_RECIPROCAL = "reciprocal"
PLACEMENT_NONE = "none"

PLACEMENT_MODES = (
    PLACEMENT_RANDOM,
    PLACEMENT_ANTI_RECIPROCAL,
    PLACEMENT_RECIPROCAL,
    PLACEMENT_NONE,
)

_HW_BITS = 48

REGISTRY_FILE = "registry.json"
NODE_DIR = "nodes"


@dataclass(frozen=True)
class NodeIdentity:
    """Participant index plus a unique 48-bit hardware-style identifier."""

    node_id: int
    hw_id: int


@dataclass
class NodeStore:
    """Private store of one node.

    A healthy in-group node holds exactly two private field elements of its
    own system role: the primary share value and its group sub-share.
    Hosted foreign sub-shares carry only a digest, no group attribution.
    Failure erases all three collections; the hardware id survives.
    """

    identity: NodeIdentity
    primary: Share | None
    subshare: Share | None
    hosted: list[tuple[str, Share]]

    @property
    def failed(self) -> bool:
        return self.primary is None


@dataclass
class GroupRecord:
    """Public per-group registry entry.

    x_lambda is None when the system was built without repair redundancy
    (bare threshold sharing).  The sub-share x values are not stored: the
    member at 1-based position i of spec.member_ids holds x = i, and the
    external sub-share sits at x = gamma + 1.
    """

    spec: GroupSpec
    x_lambda: int | None
    digest_hex: str


@dataclass
class SystemState:
    """One complete simulated system: public registry plus all node stores.
    Participant i's share sits at x = i."""

    field: PrimeField
    k: int
    n: int
    m: int
    placement_mode: str
    groups: dict[int, GroupRecord]
    nodes: dict[int, NodeStore]
    group_of: dict[int, int]

    @property
    def gamma(self) -> int:
        return self.n // self.m

    def group_digests(self) -> dict[str, int]:
        return {rec.digest_hex: g for g, rec in self.groups.items()}


_REDACTED_KEYS = frozenset({"y", "sub_y", "point_y"})


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    sender: int
    recipients: tuple[int, ...]
    payload: dict

    def summary(self) -> str:
        """Payload rendering; y values are redacted outside delivery lines."""
        parts = []
        for key, value in self.payload.items():
            if key in _REDACTED_KEYS and self.kind != "delivery":
                parts.append(f"{key}=[redacted]")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)

    def line(self) -> str:
        if len(self.recipients) > 8:
            to = f"all:{len(self.recipients)}"
        else:
            to = ",".join(str(r) for r in self.recipients)
        return f"{self.seq:03d} | {self.kind} | {self.sender} | {to} | {self.summary()}"


class RepairTrace:
    """Ordered message record of one repair run."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def add(self, kind: str, sender: int, recipients: tuple[int, ...], **payload):
        self.events.append(
            TraceEvent(len(self.events), kind, sender, tuple(recipients), payload)
        )

    def lines(self) -> list[str]:
        return [event.line() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def hash_identity(hw_ids: Iterable[int]) -> str:
    """256-bit group identity from its members' hardware ids.

    Canonical encoding: ids sorted ascending, each as 6 bytes big-endian,
    concatenated, SHA-256.  Order-insensitive by construction; lowercase
    hex so registries compare bytewise.
    """
    ids = sorted(hw_ids)
    if not ids:
        raise DomainError("at least one hardware id required")
    for hw in ids:
        if not 0 <= hw < (1 << _HW_BITS):
            raise DomainError(f"hardware id {hw} does not fit in {_HW_BITS} bits")
    data = b"".join(hw.to_bytes(_HW_BITS // 8, "big") for hw in ids)
    return hashlib.sha256(data).hexdigest()


def _pick_holder(
    state: SystemState,
    group_id: int,
    rng: random.Random,
    placed: dict[int, int],
    anti_reciprocal: bool,
) -> int:
    """Uniform draw from the admissible holders for one group.

    placed maps already-decided groups to their holders; with
    anti_reciprocal set, members of any group whose sub-share sits on one
    of this group's members are excluded (a mutual pair would arise).
    """
    members = set(state.groups[group_id].spec.member_ids)
    candidates = [i for i in sorted(state.nodes) if i not in members]
    if anti_reciprocal:
        barred: set[int] = set()
        for other_id, holder in placed.items():
            if other_id != group_id and holder in members:
                barred |= set(state.groups[other_id].spec.member_ids)
        candidates = [c for c in candidates if c not in barred]
    if not candidates:
        raise PlacementError(f"no admissible holder for group {group_id}")
    return candidates[rng.randrange(len(candidates))]


_PLACEMENT_ATTEMPTS = 100


def _place_all(
    state: SystemState,
    external: dict[int, Share],
    rng: random.Random,
    placement: str,
):
    """Assign every group's external sub-share in one placement round.

    Under 'reciprocal' the round starts from a pre-staged pair: group 1's
    sub-share on a member of group 2 and group 2's on a member of group 1,
    drawn first; the other groups are placed as under 'random'.

    A sequential anti-reciprocal round can dead-end (earlier groups may bar
    every candidate of a later one), so the round is staged and redrawn
    until consistent; the rng stream continues across attempts, keeping the
    result a pure function of the seed.
    """
    anti_reciprocal = placement == PLACEMENT_ANTI_RECIPROCAL
    for _ in range(_PLACEMENT_ATTEMPTS):
        staged: dict[int, int] = {}
        if placement == PLACEMENT_RECIPROCAL:
            for group_id, other_id in ((1, 2), (2, 1)):
                others = state.groups[other_id].spec.member_ids
                staged[group_id] = others[rng.randrange(len(others))]
        try:
            for group_id in sorted(state.groups.keys() - staged.keys()):
                staged[group_id] = _pick_holder(
                    state, group_id, rng, staged, anti_reciprocal
                )
        except PlacementError:
            if anti_reciprocal:
                continue
            raise
        for group_id, holder_id in staged.items():
            state.nodes[holder_id].hosted.append(
                (state.groups[group_id].digest_hex, external[group_id])
            )
        return
    raise PlacementError(
        f"no admissible placement found in {_PLACEMENT_ATTEMPTS} rounds"
    )


def system_setup(
    k: int,
    n: int,
    m: int,
    secret: int,
    seed: int,
    *,
    modulus: int = DEFAULT_MODULUS,
    placement: str = PLACEMENT_RANDOM,
) -> SystemState:
    """Build a complete system: global split, per-group redundancy, placement.

    Per group the repairing polynomial is interpolated from the member
    shares, one fresh point on it is drawn as the weak redundancy, the
    point's value is second-shared (gamma, gamma+1), the member sub-shares
    are handed out, and the external one is placed per the placement mode.
    The polynomial itself and its coefficient list are then discarded.

    placement='none' skips all redundancy (bare threshold fixture);
    'reciprocal' forces groups 1 and 2 to host each other's sub-share, the
    worst-case fixture of the compromise analysis.  Deterministic per seed.
    """
    if placement not in PLACEMENT_MODES:
        raise ConfigurationError(f"unknown placement mode {placement!r}")
    if seed is None:
        raise ConfigurationError("a seed is required; no ambient entropy is used")

    field = PrimeField(modulus)
    if modulus <= n + m + 2:
        raise ConfigurationError(
            f"modulus {modulus} too small for n={n}, m={m}: need modulus > n + m + 2"
        )
    specs = grouping.partition(n, m)
    gamma = n // m
    if placement == PLACEMENT_RECIPROCAL and m < 2:
        raise ConfigurationError("reciprocal placement needs at least two groups")

    id_rng = derive_rng(seed, "identity")
    hw_ids: dict[int, int] = {}
    seen: set[int] = set()
    for node_id in range(1, n + 1):
        while True:
            hw = id_rng.getrandbits(_HW_BITS)
            if hw not in seen:
                break
        seen.add(hw)
        hw_ids[node_id] = hw

    shares = shamir.split(field, secret, k, n, derive_rng(seed, "sharing"))
    nodes = {
        i: NodeStore(
            identity=NodeIdentity(i, hw_ids[i]),
            primary=shares[i - 1],
            subshare=None,
            hosted=[],
        )
        for i in range(1, n + 1)
    }

    group_records: dict[int, GroupRecord] = {}
    group_of: dict[int, int] = {}
    external: dict[int, Share] = {}
    for spec in specs:
        for member in spec.member_ids:
            group_of[member] = spec.group_id
        digest = hash_identity(hw_ids[mid] for mid in spec.member_ids)
        if placement == PLACEMENT_NONE:
            group_records[spec.group_id] = GroupRecord(spec, None, digest)
            continue
        member_shares = [shares[mid - 1] for mid in spec.member_ids]
        repair_fn = grouping.build_repair_function(field, member_shares)
        weak = grouping.make_weak_redundancy(
            field,
            repair_fn,
            {s.x for s in member_shares},
            derive_rng(seed, f"lambda:{spec.group_id}"),
        )
        sss = grouping.setup_sss(
            field, weak.y, gamma, derive_rng(seed, f"sss:{spec.group_id}")
        )
        for idx, member in enumerate(spec.member_ids):
            nodes[member].subshare = sss[idx]
        external[spec.group_id] = sss[-1]
        group_records[spec.group_id] = GroupRecord(spec, weak.x, digest)

    state = SystemState(
        field=field,
        k=k,
        n=n,
        m=m,
        placement_mode=placement,
        groups=group_records,
        nodes=nodes,
        group_of=group_of,
    )

    if placement != PLACEMENT_NONE:
        _place_all(state, external, derive_rng(seed, "placement"), placement)
    return state


def mark_failed(state: SystemState, node_id: int):
    """Erase a node's private data (hardware id is retained)."""
    node = state.nodes.get(node_id)
    if node is None:
        raise ConfigurationError(f"unknown node {node_id}")
    if node.failed:
        raise ConfigurationError(f"node {node_id} has already failed")
    node.primary = None
    node.subshare = None
    node.hosted = []


def lookup_holder(state: SystemState, digest_hex: str) -> tuple[int, Share]:
    """Broadcast a digest: every node checks its hosted records.

    Exactly one node must respond in a well-formed system; zero responders
    means the external sub-share is lost with its holder, more than one is
    a placement integrity violation.
    """
    responders = []
    for node_id in sorted(state.nodes):
        for hosted_digest, sub in state.nodes[node_id].hosted:
            if hosted_digest == digest_hex:
                responders.append((node_id, sub))
    if not responders:
        raise HolderLostError(f"no holder responded to digest {digest_hex[:16]}...")
    if len(responders) > 1:
        raise IntegrityError(
            f"{len(responders)} holders responded to digest {digest_hex[:16]}..."
        )
    return responders[0]


def request_repair(
    state: SystemState,
    proposer: NodeIdentity,
    failed_id: int,
    withhold_acks: Iterable[int] = (),
) -> tuple[Share, Share, RepairTrace]:
    """Run the full repair protocol for one failed participant.

    The proposer (the failed node's replacement, same hardware id) asks its
    group peers for authorization, broadcasts the group digest to find the
    external sub-share, recovers the weak redundancy from gamma sub-shares,
    interpolates the repairing polynomial from the surviving member points
    plus the weak point, and computes the lost share value, which is
    revealed to the proposer alone.  The failed node's own sub-share is
    restored from the same gamma sub-shares.  The state is updated in place
    and the full message trace returned.
    """
    node = state.nodes.get(failed_id)
    if node is None:
        raise ConfigurationError(f"unknown node {failed_id}")
    if not node.failed:
        raise ConfigurationError(f"node {failed_id} is healthy; nothing to repair")
    if proposer.node_id != failed_id or proposer.hw_id != node.identity.hw_id:
        raise AuthorizationError(
            f"proposer identity does not match registered node {failed_id}"
        )
    group = state.groups[state.group_of[failed_id]]
    if group.x_lambda is None:
        raise ConfigurationError(
            f"group {group.spec.group_id} carries no repair redundancy"
        )
    gamma = state.gamma
    survivors = [mid for mid in group.spec.member_ids if mid != failed_id]
    dead = [mid for mid in survivors if state.nodes[mid].failed]
    if dead:
        raise InsufficientPointsError(
            f"group {group.spec.group_id} has additional failures {dead}; "
            "local repair supports one failure at a time"
        )
    withheld = set(withhold_acks) & set(survivors)
    if withheld:
        raise AuthorizationError(
            f"members {sorted(withheld)} did not authorize the repair"
        )

    failed_x = failed_id
    trace = RepairTrace()
    trace.add("request", failed_id, tuple(survivors), failed=failed_id, x=failed_x)
    for mid in survivors:
        trace.add("ack", mid, (failed_id,), failed=failed_id)

    everyone_else = tuple(i for i in sorted(state.nodes) if i != failed_id)
    trace.add("digest-broadcast", failed_id, everyone_else, digest=group.digest_hex)
    holder_id, external_sub = lookup_holder(state, group.digest_hex)
    trace.add(
        "holder-response",
        holder_id,
        (failed_id,),
        sub_x=external_sub.x,
        sub_y=external_sub.y,
    )

    for mid in survivors:
        peer = state.nodes[mid]
        trace.add(
            "contribution",
            mid,
            (failed_id,),
            sub_x=peer.subshare.x,
            sub_y=peer.subshare.y,
            point_x=peer.primary.x,
            point_y=peer.primary.y,
        )

    subshares = [state.nodes[mid].subshare for mid in survivors] + [external_sub]
    sub_secret = shamir.recover(state.field, subshares, gamma)
    trace.add(
        "interpolation",
        failed_id,
        (failed_id,),
        points=gamma,
        x_lambda=group.x_lambda,
    )
    surviving_points = [state.nodes[mid].primary for mid in survivors]
    repaired_y = grouping.repair_share(
        state.field,
        surviving_points,
        WeakRedundancy(group.x_lambda, sub_secret),
        failed_x,
        gamma,
    )
    trace.add("delivery", failed_id, (failed_id,), x=failed_x, y=repaired_y)

    failed_sss_x = group.spec.member_ids.index(failed_id) + 1
    restored_sub = grouping.restore_subshare(state.field, subshares, failed_sss_x, gamma)
    trace.add("subshare-restore", failed_id, (failed_id,), sub_x=failed_sss_x)

    repaired = Share(failed_x, repaired_y)
    node.primary = repaired
    node.subshare = restored_sub
    return repaired, restored_sub, trace


def recover_secret(state: SystemState, participant_ids: Iterable[int]) -> int:
    """Recover the global secret from the listed live participants' shares."""
    ids = sorted(set(participant_ids))
    shares = []
    for node_id in ids:
        node = state.nodes.get(node_id)
        if node is None:
            raise ConfigurationError(f"unknown node {node_id}")
        if node.failed:
            raise ConfigurationError(f"node {node_id} has failed and holds no share")
        shares.append(node.primary)
    return shamir.recover(state.field, shares, state.k)


def storage_accounting(state: SystemState) -> dict:
    """Count private field elements per node and system-wide.

    Own-role elements are the primary share value and the node's group
    sub-share; hosted foreign sub-shares are counted separately.  A full
    system with redundancy stores 2n + m private elements in total.
    """
    per_node = {}
    for node_id in sorted(state.nodes):
        node = state.nodes[node_id]
        own = int(node.primary is not None) + int(node.subshare is not None)
        per_node[node_id] = {"own_role": own, "hosted": len(node.hosted)}
    total = sum(v["own_role"] + v["hosted"] for v in per_node.values())
    return {"per_node": per_node, "total_private_elements": total}


# -- flat-file persistence ----------------------------------------------------


def _fe(value: int) -> str:
    return str(value)


def _sss_layout(x_lambda: int | None, gamma: int) -> list[str]:
    """A group's registry "sss_x": the members' sub-shares at x = 1..gamma
    and the external one at gamma + 1, or none without repair redundancy."""
    return [] if x_lambda is None else [_fe(x) for x in range(1, gamma + 2)]


def registry_dict(state: SystemState) -> dict:
    """The public registry: no y values, no sub-shares, no holder locations."""
    return {
        "modulus": state.field.modulus,
        "k": state.k,
        "n": state.n,
        "m": state.m,
        "placement_mode": state.placement_mode,
        "participants": [
            {
                "id": node_id,
                "x": _fe(node_id),
                "hw_id": f"{state.nodes[node_id].identity.hw_id:012x}",
            }
            for node_id in sorted(state.nodes)
        ],
        "groups": [
            {
                "id": group_id,
                "members": list(rec.spec.member_ids),
                "x_lambda": None if rec.x_lambda is None else _fe(rec.x_lambda),
                "sss_x": _sss_layout(rec.x_lambda, rec.spec.gamma),
                "digest_hex": rec.digest_hex,
            }
            for group_id, rec in sorted(state.groups.items())
        ],
    }


def node_store_dict(node: NodeStore) -> dict:
    def share_dict(share: Share | None):
        if share is None:
            return None
        return {"x": _fe(share.x), "y": _fe(share.y)}

    return {
        "id": node.identity.node_id,
        "y": None if node.primary is None else _fe(node.primary.y),
        "sss_subshare": share_dict(node.subshare),
        "hosted": [
            {"digest_hex": digest, "subshare": share_dict(sub)}
            for digest, sub in node.hosted
        ],
    }


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _node_name(node_id: int, width: int) -> str:
    """File name of a node's store; width is len(str(n)), the zero padding."""
    return f"node_{node_id:0{width}d}.json"


# Node files are a few hundred bytes, and each os.read allocates its whole
# buffer first: 64 KiB buffers raised the peak RSS of a loop of n=1024 loads
# by about 0.25 MB, 8 KiB buffers left it where Python's open had it.
_READ_CHUNK = 1 << 13


def _read_json(name: str, path: str, dir_fd: int | None = None):
    """Parse one state file with bare os.open, os.read to EOF and json.loads.

    name is opened relative to dir_fd (an open directory) when given, so
    the kernel does not walk the directory path again for each file; path
    is the file's full path, which an OSError names.  Bytes that are not
    UTF-8 raise UnicodeDecodeError, a ValueError like a JSON syntax error.
    """
    try:
        fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = path
        raise
    return json.loads(b"".join(chunks).decode())


def _write_file(name: str, path: str, data: bytes, dir_fd: int | None = None):
    """Create or truncate one state file and write all of data to it.

    name, path and dir_fd are as for _read_json.  os.write may write fewer
    bytes than asked, so it is called until every byte is written.
    """
    try:
        fd = os.open(
            name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd
        )
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = path
        raise


def save_state(
    state: SystemState, directory: str | Path, node_ids: Iterable[int] | None = None
):
    """Write the state as registry.json plus one store file per node.

    With node_ids omitted (setup) every node file is written in place and
    registry.json last, after the stale one, if any, and any leftover
    '*.json.tmp' are removed: a save cut short leaves no registry, so
    load_state refuses the directory.  The state must then hold every
    participant's store; a partial load_state result raises
    ConfigurationError, since its registry would list only the loaded nodes.
    The node files are opened by name under one descriptor of the nodes
    directory, in sorted node order, and written with os.write until every
    byte is out; an OSError names the file's full path.

    With node_ids given only those nodes' files are written, and the
    registry is not, since failing or repairing a node never changes it.
    Each file goes to '<name>.json.tmp' in the same directory and is then
    renamed over the old one with os.replace, so a process killed mid-save
    leaves every file with either its old or its new bytes.  Nothing is
    fsynced: the guarantee covers a crash of the process, not power loss.

    The directory descriptor and the dir_fd opens need POSIX.
    """
    root = os.fspath(directory)
    node_dir = os.path.join(root, NODE_DIR)
    width = len(str(state.n))
    if node_ids is not None:
        for node_id in node_ids:
            path = os.path.join(node_dir, _node_name(node_id, width))
            tmp = path + ".tmp"
            _write_file(tmp, tmp, _dump(node_store_dict(state.nodes[node_id])).encode())
            os.replace(tmp, path)
        return
    if len(state.nodes) != state.n:
        raise ConfigurationError(
            f"state holds {len(state.nodes)} of {state.n} node "
            "stores; a partial load is read-only"
        )
    os.makedirs(node_dir, exist_ok=True)
    registry = os.path.join(root, REGISTRY_FILE)
    try:
        os.unlink(registry)
    except FileNotFoundError:
        pass
    dir_fd = os.open(node_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for name in os.listdir(dir_fd):
            if name.endswith(".json.tmp"):
                os.unlink(f"{node_dir}/{name}")
        for node_id in sorted(state.nodes):
            name = _node_name(node_id, width)
            data = _dump(node_store_dict(state.nodes[node_id])).encode()
            _write_file(name, f"{node_dir}/{name}", data, dir_fd)
    finally:
        os.close(dir_fd)
    _write_file(registry, registry, _dump(registry_dict(state)).encode())


def _element(text: str) -> int:
    """Parse a field element written by _fe; only its exact str() form passes.

    int() alone also takes " 12", "+12", "1_2", "012" and non-ASCII digits,
    so an edited value could still parse to a different number.
    """
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a canonical decimal field element")
    return value


def load_state(
    directory: str | Path, node_ids: Iterable[int] | None = None
) -> SystemState:
    """Rebuild a SystemState from a directory written by save_state.

    The registry is always read and checked in full.  With node_ids
    omitted every node file is read; with node_ids given only those nodes'
    files are, and state.nodes holds just those stores.  Such a partial
    state is read-only: it serves recover_secret over the loaded nodes,
    and save_state refuses to write it back as a whole.  An id that is
    not a registry participant raises ConfigurationError before any node
    file is opened.

    The nodes directory is opened once, and each node file is opened by
    name under that descriptor, read with os.read to its end, decoded as
    UTF-8 and parsed; every descriptor is closed on every path out.  An
    OSError names the file's full path.  This needs POSIX dir_fd support.

    Every x follows from position (participant i at x = i; in a group with
    redundancy its i-th member's sub-share at x = i, the external one at
    gamma + 1, and sss_x "1" .. str(gamma + 1), else empty), so each stored
    x is compared as text and only the y values and x_lambda are parsed.

    A file that is not UTF-8 or not valid JSON, lacks an entry, spells a
    free field element other than as the decimal str() that save_state
    writes, names an unknown placement mode or disagrees with the registry
    raises StateFileError, as does a registry whose modulus is not a
    prime, whose participants' x are not their ids, whose group sss_x is
    not that layout, whose k, n and m are not integers with 1 <= k <= n
    describing its n participants in m groups of n/m members, or whose
    groups together do not list every participant exactly once; a stored
    share value outside [0, p) raises DomainError.  Both name the file.
    A node file agrees with the registry when its id is the node it is
    loaded as, its own sub-share (held exactly while the node is alive in
    a system with redundancy) sits at its position's x, and every hosted
    digest names a group with redundancy and its sub-share sits at that
    group's external x.  Every node file that is read gets every one of
    these checks.
    """
    root = os.fspath(directory)
    path = os.path.join(root, REGISTRY_FILE)  # the file being parsed, for errors
    dir_fd = None
    try:
        registry = _read_json(path, path)
        try:
            field = PrimeField(registry["modulus"])
        except DomainError as exc:
            raise StateFileError(f"{path}: {exc}") from exc
        k, n, m = registry["k"], registry["n"], registry["m"]
        if any(type(v) is not int for v in (k, n, m)) or not (1 <= k <= n and m >= 1):
            raise StateFileError(
                f"{path}: need integers 1 <= k <= n and m >= 1, "
                f"got k={k!r}, n={n!r}, m={m!r}"
            )
        placement_mode = registry["placement_mode"]
        if placement_mode not in PLACEMENT_MODES:
            raise StateFileError(f"{path}: unknown placement_mode {placement_mode!r}")

        hw_ids = {}  # participant id -> hardware id
        for entry in registry["participants"]:
            node_id, x = entry["id"], entry["x"]
            if type(node_id) is not int or x != _fe(node_id):
                raise StateFileError(f"{path}: participant {node_id!r} has x={x}")
            hw_ids[node_id] = int(entry["hw_id"], 16)

        group_records = {}
        group_of = {}
        own_sub_x = {}  # node id -> the x of its own sub-share
        external_x = {}  # group digest -> the x of its external sub-share
        for entry in registry["groups"]:
            spec = GroupSpec(group_id=entry["id"], member_ids=tuple(entry["members"]))
            x_lambda = (
                None if entry["x_lambda"] is None else _element(entry["x_lambda"])
            )
            layout = _sss_layout(x_lambda, spec.gamma)
            if entry["sss_x"] != layout:
                raise StateFileError(
                    f"{path}: group {spec.group_id!r} has sss_x {entry['sss_x']!r}, "
                    f"expected {layout!r}"
                )
            for member in spec.member_ids:
                group_of[member] = spec.group_id
            if x_lambda is not None:
                own_sub_x.update(zip(spec.member_ids, range(1, spec.gamma + 1)))
                external_x[entry["digest_hex"]] = spec.gamma + 1
            group_records[spec.group_id] = GroupRecord(
                spec, x_lambda, entry["digest_hex"]
            )

        if (len(hw_ids), len(group_records)) != (n, m) or any(
            len(rec.spec.member_ids) * m != n for rec in group_records.values()
        ):
            raise StateFileError(
                f"{path}: n={n}, m={m} disagree with the {len(hw_ids)} "
                f"participants in {len(group_records)} groups (n/m members each)"
            )
        if group_of.keys() != hw_ids.keys():
            raise StateFileError(
                f"{path}: the groups' members are not the participants, each once"
            )

        wanted = sorted(hw_ids if node_ids is None else set(node_ids))
        unknown = [node_id for node_id in wanted if node_id not in hw_ids]
        if unknown:
            raise ConfigurationError(f"unknown node {', '.join(map(str, unknown))}")

        p = field.modulus
        node_dir = os.path.join(root, NODE_DIR)
        width = len(str(n))
        nodes = {}
        dir_fd = os.open(node_dir, os.O_RDONLY | os.O_DIRECTORY)
        for node_id in wanted:
            name = _node_name(node_id, width)
            path = f"{node_dir}/{name}"
            raw = _read_json(name, path, dir_fd)
            if raw["id"] != node_id:
                raise StateFileError(f"{path}: id {raw['id']!r} is not node {node_id}")
            primary = None if raw["y"] is None else Share(node_id, _element(raw["y"]))
            sub = raw["sss_subshare"]
            sub_x = None if sub is None else sub["x"]
            sub_y = None if sub is None else _element(sub["y"])
            hosted_raw = [
                (h["digest_hex"], h["subshare"]["x"], _element(h["subshare"]["y"]))
                for h in raw["hosted"]
            ]
            expected_x = None if primary is None else own_sub_x.get(node_id)
            if (sub is None) != (expected_x is None) or (
                sub is not None and sub_x != _fe(expected_x)
            ):
                raise StateFileError(
                    f"{path}: sss_subshare x={sub_x} disagrees with the registry "
                    f"(expected {expected_x})"
                )
            subshare = None if sub is None else Share(expected_x, sub_y)
            for share in (primary, subshare):
                if share is not None and not 0 <= share.y < p:
                    raise DomainError(f"{path}: y={share.y} outside [0, {p})")
            hosted = []
            for digest, x, y in hosted_raw:
                external = external_x.get(digest)
                if external is None or x != _fe(external):
                    raise StateFileError(
                        f"{path}: hosted sub-share x={x} under digest "
                        f"{digest[:16]}... is no registry group's external point"
                    )
                if not 0 <= y < p:
                    raise DomainError(f"{path}: hosted y={y} outside [0, {p})")
                hosted.append((digest, Share(external, y)))
            nodes[node_id] = NodeStore(
                identity=NodeIdentity(node_id, hw_ids[node_id]),
                primary=primary,
                subshare=subshare,
                hosted=hosted,
            )
    except SharingError:
        # DomainError is a ValueError too; it must keep its own exit code
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise StateFileError(f"{path}: {type(exc).__name__}: {exc}") from exc
    finally:
        if dir_fd is not None:
            os.close(dir_fd)

    return SystemState(
        field=field,
        k=k,
        n=n,
        m=m,
        placement_mode=placement_mode,
        groups=group_records,
        nodes=nodes,
        group_of=group_of,
    )
