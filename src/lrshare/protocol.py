"""Deterministic simulated node network running the sharing system.

Nodes are plain records mutated by single-threaded functions; a broadcast
is an iteration over the node table.  There is no wire transport on
purpose: the point of the simulation is exhaustive, reproducible checks of
what travels where, which sockets would only obscure.

Public data lives in the registry (modulus, thresholds, the hardware ids,
each group's x_lambda), and SystemState holds it as the registry stores
it; every other x and group membership follow from position, and a
group's hash identity is derived from its members' hardware ids where it
is used (SystemState.digest).  Private data lives only in node stores:
each node's primary share value, its own group sub-share, and any foreign
sub-shares it happens to host.  A group never records who holds its
external sub-share; the holder is found again at repair time by
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
import struct
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
from .seeds import derive_rng
from .shamir import Share

PLACEMENT_RANDOM = "random"
PLACEMENT_ANTI_RECIPROCAL = "anti-reciprocal"
PLACEMENT_RECIPROCAL = "reciprocal"
PLACEMENT_NONE = "none"

# Each placement mode and its fewest groups: an external sub-share sits outside
# its group, and anti-reciprocal holders must close a cycle of three or more.
LEAST_GROUPS = {
    PLACEMENT_RANDOM: 2,
    PLACEMENT_ANTI_RECIPROCAL: 3,
    PLACEMENT_RECIPROCAL: 2,
    PLACEMENT_NONE: 1,
}
PLACEMENT_MODES = tuple(LEAST_GROUPS)

_HW_BITS = 48
_HW_BYTES = _HW_BITS // 8

REGISTRY_FILE = "registry.json"
NODE_DIR = "nodes"


@dataclass
class NodeStore:
    """Private store of one node.

    A healthy in-group node holds exactly two private field elements of its
    own system role: the primary share value and its group sub-share.
    Hosted foreign sub-shares carry only a digest, no group attribution.
    Failure erases all three collections; the node's id (its key in
    SystemState.nodes) and hardware id (SystemState.hw_ids) are public.
    """

    primary: Share | None
    subshare: Share | None
    hosted: list[tuple[str, Share]]

    @property
    def failed(self) -> bool:
        return self.primary is None


@dataclass
class SystemState:
    """One simulated system: the public registry, held as registry.json
    stores it, plus the node stores loaded (all of them but after a
    partial load_state).

    Participant i's share sits at x = i, in group groups.group_of(i, gamma),
    and hw_ids[i - 1] is its hardware id; group g's members are
    groups.members(g, gamma), and the member at 1-based position i holds the
    sub-share at x = i, the external one sitting at x = gamma + 1.
    x_lambda[g - 1] is group g's weak-redundancy point's x, or None when
    the system was built without repair redundancy (bare threshold sharing).
    """

    field: PrimeField
    k: int
    n: int
    m: int
    placement_mode: str
    hw_ids: list[int]
    x_lambda: list[int | None]
    nodes: dict[int, NodeStore]

    @property
    def gamma(self) -> int:
        return self.n // self.m

    def digest(self, g: int) -> str:
        """Group g's hash identity, from its members' hardware ids."""
        gamma = self.gamma
        return hash_identity(self.hw_ids[(g - 1) * gamma : g * gamma])

    def group_digests(self) -> dict[str, int]:
        return {self.digest(g): g for g in range(1, self.m + 1)}

    def require_every_store(self, action: str):
        """Refuse a partial load_state result: action needs every store."""
        if len(self.nodes) != self.n:
            raise ConfigurationError(
                f"{action} needs all {self.n} node stores, the state holds "
                f"{len(self.nodes)}; a partial load is read-only"
            )


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


def _pack_hw_ids(hw_ids: list[int]) -> bytearray:
    """The one encoding of hardware ids: each as 6 bytes big-endian,
    concatenated, as the registry stores them (in hex) and hash_identity
    hashes them.

    One struct call packs every id into an 8-byte slot, and two strided
    deletions drop each slot's two high bytes, which must be zero.  An id
    below 0 or of 2^48 or more raises DomainError naming it.
    """
    try:
        slots = bytearray(struct.pack(f">{len(hw_ids)}Q", *hw_ids))
    except struct.error:  # below 0, 2^64 or above, or not an integer
        pass
    else:
        high = slots[0::8] + slots[1::8]
        if high.count(0) == len(high):
            del slots[0::8]
            del slots[0::7]
            return slots
    bad = next(
        hw for hw in hw_ids if not (isinstance(hw, int) and 0 <= hw < 1 << _HW_BITS)
    )
    raise DomainError(f"hardware id {bad!r} does not fit in {_HW_BITS} bits")


def _unpack_hw_ids(data: bytes) -> list[int]:
    """The ids _pack_hw_ids encoded as data: six strided copies place the
    6-byte ids in zeroed 8-byte slots, and one struct call reads them.
    A length that is no multiple of 6 raises ValueError."""
    count, rest = divmod(len(data), _HW_BYTES)
    if rest:
        raise ValueError(f"{len(data)} bytes hold no whole number of hardware ids")
    slots = bytearray(8 * count)
    for j in range(_HW_BYTES):
        slots[8 - _HW_BYTES + j :: 8] = data[j::_HW_BYTES]
    return list(struct.unpack(f">{count}Q", slots))


def hash_identity(hw_ids: Iterable[int]) -> str:
    """256-bit group identity from its members' hardware ids.

    Canonical encoding: ids sorted ascending, packed by _pack_hw_ids (6
    bytes big-endian each, the registry's encoding), SHA-256.
    Order-insensitive by construction; lowercase hex so registries
    compare bytewise.
    """
    ids = sorted(hw_ids)
    if not ids:
        raise DomainError("at least one hardware id required")
    return hashlib.sha256(_pack_hw_ids(ids)).hexdigest()


_PLACEMENT_ATTEMPTS = 100


def _place_all(n: int, m: int, placement: str, rng: random.Random) -> dict[int, int]:
    """{group id: holder id}: the node drawn to host each group's external
    sub-share, the same map the compromise analyses return as holders.

    In group id order, each group's holder is drawn uniformly from the
    nodes outside the group; under 'reciprocal', groups 1 and 2 draw from
    each other's members instead, and under 'anti-reciprocal' the whole
    map is drawn again while two groups host each other's sub-share, which
    keeps it uniform over the admissible maps.  The rng stream continues
    across rounds, keeping the result a pure function of the seed.
    """
    gamma = n // m
    for _ in range(_PLACEMENT_ATTEMPTS):
        holders = {}
        for g in range(1, m + 1):
            if g <= 2 and placement == PLACEMENT_RECIPROCAL:
                holders[g] = grouping.members(3 - g, gamma)[rng.randrange(gamma)]
            else:
                node_id = rng.randrange(n - gamma) + 1
                # past the group's own block, skip its gamma members
                holders[g] = node_id + gamma if node_id > (g - 1) * gamma else node_id
        if placement != PLACEMENT_ANTI_RECIPROCAL or not any(
            grouping.group_of(holders[grouping.group_of(h, gamma)], gamma) == g
            for g, h in holders.items()
        ):
            return holders
    raise PlacementError(
        f"no admissible placement found in {_PLACEMENT_ATTEMPTS} rounds"
    )


def check_parameters(k, n, m, modulus, placement: str) -> PrimeField:
    """The field of a buildable system, by the one rule setup and load_state
    apply: integers (not booleans) 1 <= k <= n, a known placement, a prime
    modulus above n + m + 2, m >= 1 groups that split n into equal blocks
    of gamma = n/m >= 2 consecutive ids, and at least LEAST_GROUPS[placement]
    groups.  Else ConfigurationError."""
    if any(type(v) is not int for v in (k, n, m)) or not 1 <= k <= n:
        raise ConfigurationError(
            f"need integers k, n, m with 1 <= k <= n, got k={k!r}, n={n!r}, m={m!r}"
        )
    if placement not in PLACEMENT_MODES:
        raise ConfigurationError(f"unknown placement mode {placement!r}")
    try:
        field = PrimeField(modulus)
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    if modulus <= n + m + 2:
        raise ConfigurationError(
            f"modulus {modulus} too small for n={n}, m={m}: need modulus > n + m + 2"
        )
    if m < 1:
        raise ConfigurationError(f"need at least one group, got m={m}")
    if n % m != 0:
        raise ConfigurationError(f"m={m} does not divide n={n}")
    if n // m < 2:
        raise ConfigurationError(f"group size must be >= 2, got {n // m}")
    least = LEAST_GROUPS[placement]
    if m < least:
        raise ConfigurationError(f"{placement} placement needs m >= {least}, got m={m}")
    return field


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
    """Build a complete system: global split, placement, per-group redundancy.

    The {group: holder} placement is drawn first.  Then one loop over the
    groups draws each weak redundancy, a fresh point on the repairing
    polynomial evaluated from the member shares, second-shares its value
    (gamma, gamma+1), hands out the member sub-shares and appends the
    external one to its holder.  No coefficient list is built, so the
    strong redundancy never exists.

    placement='none' skips all redundancy (bare threshold fixture);
    'reciprocal' forces groups 1 and 2 to host each other's sub-share, the
    worst-case fixture of the compromise analysis.  Deterministic per seed.
    What check_parameters refuses, a secret not an integer in [0, modulus)
    and a seed not an int raise ConfigurationError before any draw.
    """
    field = check_parameters(k, n, m, modulus, placement)
    if type(secret) is not int or not 0 <= secret < modulus:
        raise ConfigurationError(f"secret {secret!r} is not an integer in [0, {modulus})")
    gamma = n // m
    id_rng = derive_rng(seed, "identity")
    hw_ids: list[int] = []  # participant i's at index i - 1
    seen: set[int] = set()
    while len(hw_ids) < n:
        hw = id_rng.getrandbits(_HW_BITS)
        if hw not in seen:
            seen.add(hw)
            hw_ids.append(hw)

    shares = shamir.split(field, secret, k, n, derive_rng(seed, "sharing"))
    nodes = {
        i: NodeStore(primary=shares[i - 1], subshare=None, hosted=[])
        for i in range(1, n + 1)
    }
    state = SystemState(field, k, n, m, placement, hw_ids, [None] * m, nodes)

    if placement != PLACEMENT_NONE:
        holders = _place_all(n, m, placement, derive_rng(seed, "placement"))
        for g, holder_id in holders.items():
            block = grouping.members(g, gamma)
            member_shares = [shares[mid - 1] for mid in block]
            weak = grouping.make_weak_redundancy(
                field, member_shares, derive_rng(seed, f"lambda:{g}")
            )
            sss = grouping.setup_sss(field, weak.y, gamma, derive_rng(seed, f"sss:{g}"))
            for member, sub in zip(block, sss):
                nodes[member].subshare = sub
            nodes[holder_id].hosted.append((state.digest(g), sss[-1]))
            state.x_lambda[g - 1] = weak.x
    return state


def mark_failed(state: SystemState, node_id: int):
    """Erase a node's private data; its hardware id is public and stays."""
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
    a placement integrity violation.  A partial load is refused.
    """
    state.require_every_store("a digest broadcast")
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
    proposer_hw_id: int | None,
    failed_id: int,
    withhold_acks: Iterable[int] = (),
) -> tuple[Share, Share, list[TraceEvent]]:
    """Run the full repair protocol for one failed participant.

    The proposer, the failed node's replacement, is authorised only by
    presenting the hardware id the registry holds for failed_id
    (proposer_hw_id; an unknown or healthy failed_id is refused before
    that).  It asks its group peers for authorization, broadcasts the
    group digest to find the external sub-share, recovers the weak
    redundancy from gamma sub-shares, interpolates the repairing
    polynomial from the surviving member points plus the weak point, and
    computes the lost share value, which is revealed to the proposer
    alone.  The failed node's own sub-share is restored by the same
    interpolation of the gamma sub-shares that gives the weak redundancy.
    The state is updated in place and the message trace returned, its
    events in send order.  A partial load raises ConfigurationError.
    """
    state.require_every_store("repair")
    node = state.nodes.get(failed_id)
    if node is None:
        raise ConfigurationError(f"unknown node {failed_id}")
    if not node.failed:
        raise ConfigurationError(f"node {failed_id} is healthy; nothing to repair")
    if proposer_hw_id != state.hw_ids[failed_id - 1]:
        raise AuthorizationError(
            f"proposer identity does not match registered node {failed_id}"
        )
    gamma = state.gamma
    group_id = grouping.group_of(failed_id, gamma)
    x_lambda = state.x_lambda[group_id - 1]
    if x_lambda is None:
        raise ConfigurationError(f"group {group_id} carries no repair redundancy")
    block = grouping.members(group_id, gamma)
    survivors = [mid for mid in block if mid != failed_id]
    dead = [mid for mid in survivors if state.nodes[mid].failed]
    if dead:
        raise InsufficientPointsError(
            f"group {group_id} has additional failures {dead}; "
            "local repair supports one failure at a time"
        )
    withheld = set(withhold_acks) & set(survivors)
    if withheld:
        raise AuthorizationError(
            f"members {sorted(withheld)} did not authorize the repair"
        )

    failed_x = failed_id
    trace: list[TraceEvent] = []
    def add(kind: str, sender: int, recipients: tuple[int, ...], **payload):
        trace.append(TraceEvent(len(trace), kind, sender, recipients, payload))

    add("request", failed_id, tuple(survivors), failed=failed_id, x=failed_x)
    for mid in survivors:
        add("ack", mid, (failed_id,), failed=failed_id)

    everyone_else = tuple(i for i in sorted(state.nodes) if i != failed_id)
    digest = state.digest(group_id)
    add("digest-broadcast", failed_id, everyone_else, digest=digest)
    holder_id, external_sub = lookup_holder(state, digest)
    add(
        "holder-response",
        holder_id,
        (failed_id,),
        sub_x=external_sub.x,
        sub_y=external_sub.y,
    )

    for mid in survivors:
        peer = state.nodes[mid]
        add(
            "contribution",
            mid,
            (failed_id,),
            sub_x=peer.subshare.x,
            sub_y=peer.subshare.y,
            point_x=peer.primary.x,
            point_y=peer.primary.y,
        )

    subshares = [state.nodes[mid].subshare for mid in survivors] + [external_sub]
    failed_sss_x = block.index(failed_id) + 1
    sub_secret, restored_sub = grouping.restore_subshare(
        state.field, subshares, failed_sss_x, gamma
    )
    add("interpolation", failed_id, (failed_id,), points=gamma, x_lambda=x_lambda)
    surviving_points = [state.nodes[mid].primary for mid in survivors]
    repaired_y = grouping.repair_share(
        state.field,
        surviving_points,
        Share(x_lambda, sub_secret),
        failed_x,
        gamma,
    )
    add("delivery", failed_id, (failed_id,), x=failed_x, y=repaired_y)

    add("subshare-restore", failed_id, (failed_id,), sub_x=failed_sss_x)

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


# -- flat-file persistence ----------------------------------------------------


def registry_dict(state: SystemState) -> dict:
    """The one statement of the registry format: the public data, which
    is only what position cannot give, and no y values, sub-shares or
    holder locations.  The hardware ids are one string of 12 lowercase
    hex digits per participant: _pack_hw_ids' bytes, which hash_identity
    also hashes, in hex.  Each x_lambda is a decimal string or None.  An id
    outside [0, 2^48) raises DomainError."""
    return {
        "modulus": state.field.modulus,
        "k": state.k,
        "n": state.n,
        "m": state.m,
        "placement_mode": state.placement_mode,
        "hw_ids": _pack_hw_ids(state.hw_ids).hex(),
        "x_lambda": [None if x is None else str(x) for x in state.x_lambda],
    }


def _share_dict(share: Share | None) -> dict | None:
    return None if share is None else {"x": str(share.x), "y": str(share.y)}


def node_store_dict(node_id: int, node: NodeStore) -> dict:
    """The one statement of a node file's format.  The file names its node,
    so a node file copied under another node's name is refused on load."""
    return {
        "id": node_id,
        "y": None if node.primary is None else str(node.primary.y),
        "sss_subshare": _share_dict(node.subshare),
        "hosted": [
            {"digest_hex": digest, "subshare": _share_dict(sub)}
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


def _refuse_float(text: str):
    raise ValueError(f"number {text} is not an integer")


# save_state writes no float, so 1.0 where it writes 1 is refused, as are
# NaN and Infinity.  One decoder serves every file: json.loads with a
# keyword builds a new decoder per call, about 2 us per file.
_DECODER = json.JSONDecoder(parse_float=_refuse_float, parse_constant=_refuse_float)


def _read_json(name: str, path: str, dir_fd: int | None = None):
    """Parse one state file with bare os.open, os.read and _DECODER.

    name is opened relative to dir_fd (an open directory) when given, so
    the kernel does not walk the directory path again for each file; path
    is the file's full path, which an OSError names.  Reading stops at the
    first chunk shorter than _READ_CHUNK, sparing a read that only finds
    the end; a short read before the end could only cut the JSON short.
    Bytes that are not UTF-8, a float and the text true raise ValueError:
    True == 1, but save_state writes no boolean (nor 0, which False equals).
    """
    try:
        fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
        try:
            chunks = [os.read(fd, _READ_CHUNK)]
            while len(chunks[-1]) == _READ_CHUNK:
                chunks.append(os.read(fd, _READ_CHUNK))
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = path
        raise
    text = b"".join(chunks).decode()
    if "true" in text:  # on a node file, a third of a bytes search's time
        raise ValueError("JSON true, which save_state never writes")
    return _DECODER.decode(text)


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
    ConfigurationError, since it has no store to write for the nodes it
    did not load.
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
            data = _dump(node_store_dict(node_id, state.nodes[node_id])).encode()
            _write_file(tmp, tmp, data)
            os.replace(tmp, path)
        return
    state.require_every_store("a full save")
    # rendered first: a registry_dict that raises leaves the directory as it was
    registry_data = _dump(registry_dict(state)).encode()
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
            data = _dump(node_store_dict(node_id, state.nodes[node_id])).encode()
            _write_file(name, f"{node_dir}/{name}", data, dir_fd)
    finally:
        os.close(dir_fd)
    _write_file(registry, registry, registry_data)


_ABSENT = object()


def _first_difference(read, written, where: str = "") -> str:
    """The JSON pointer, such as '/hosted/0/subshare/y', of the first
    value in the parsed file read that differs from written."""
    if type(read) is type(written) is dict:
        keys = sorted(read.keys() | written.keys())
        pairs = [(k, read.get(k, _ABSENT), written.get(k, _ABSENT)) for k in keys]
    elif type(read) is type(written) is list and len(read) == len(written):
        pairs = list(zip(range(len(read)), read, written))
    else:
        return where
    return next(
        _first_difference(a, b, f"{where}/{key}") for key, a, b in pairs if a != b
    )


def _check_written(path: str, read: dict, written: dict):
    """Refuse a parsed file unless save_state would write it back unchanged."""
    if read != written:
        where = _first_difference(read, written)
        raise StateFileError(f"{path}: {where} differs from what save_state writes")


def load_state(
    directory: str | Path, node_ids: Iterable[int] | None = None
) -> SystemState:
    """Rebuild a SystemState from a directory written by save_state.

    The registry is always read in full; node_ids, if given, limits the
    node files read to those nodes', and an id that is no participant
    raises ConfigurationError before any node file is opened.  A partial
    state serves recover_secret, and mark_failed of a loaded node, whose
    file alone save_state(state, directory, node_ids) then writes back; a
    full save refuses it.  A file left unread is left unchecked, so repair
    and the threat analysis, which need every node's hosted list, load in
    full.  Node files are opened under one descriptor of the nodes
    directory (POSIX dir_fd); a registry-only load (node_ids empty) opens
    neither, so it needs no nodes directory.

    The state holds the registry's values as read; every x and the group
    layout follow from position, and nothing else is read for them.  The
    group digests are derived only on the first hosted record read, to
    check it, so a load whose nodes host nothing derives none.  A file is
    accepted only if the writer gives its parsed JSON back: registry_dict
    of the state built, or node_store_dict of the store read.
    Otherwise, or when a file is not UTF-8 JSON or lacks an entry (a
    registry in an older format among them), StateFileError names the file
    and the first key that differs.  So do the checks a rewrite cannot
    make: n hardware ids and m x_lambda values, then setup's rule
    (check_parameters), n distinct hardware ids, no float or boolean
    anywhere, a sub-share held exactly while the node is alive and its
    group has redundancy, and hosted digests that name a group with
    redundancy.  A share value outside [0, p) raises DomainError; it and
    an OSError name the file.
    """
    root = os.fspath(directory)
    path = os.path.join(root, REGISTRY_FILE)  # the file being parsed, for errors
    dir_fd = None
    try:
        registry = _read_json(path, path)
        k, n, m = registry["k"], registry["n"], registry["m"]
        hw_text, x_text = registry["hw_ids"], registry["x_lambda"]
        mode = registry["placement_mode"]
        # the list lengths go first; check_parameters builds nothing per group
        if len(hw_text) != n * _HW_BITS // 4 or len(x_text) != m:
            raise StateFileError(f"{path}: need {n} hw_ids and {m} x_lambda values")
        try:
            field = check_parameters(k, n, m, registry["modulus"], mode)
        except ConfigurationError as exc:
            raise StateFileError(f"{path}: {exc}") from exc
        # bytes carry no sign, so every id fits in _HW_BITS; the rewrite
        # refuses any spelling but 12 lowercase hex digits per id
        hw_ids = _unpack_hw_ids(bytes.fromhex(hw_text))
        # m nulls under 'none', m decimal strings otherwise: int(None) raises,
        # and a string under 'none' is written back as null
        x_lambda = [None] * m if mode == PLACEMENT_NONE else [int(x) for x in x_text]
        state = SystemState(field, k, n, m, mode, hw_ids, x_lambda, {})
        _check_written(path, registry, registry_dict(state))
        # distinct ids keep the derived digests distinct, as setup draws them
        if len(set(hw_ids)) != n:
            raise StateFileError(f"{path}: hw_ids holds a hardware id twice")
        p, gamma = field.modulus, state.gamma

        wanted = sorted(range(1, n + 1) if node_ids is None else set(node_ids))
        unknown = [node_id for node_id in wanted if not 1 <= node_id <= n]
        if unknown:
            raise ConfigurationError(f"unknown node {', '.join(map(str, unknown))}")

        hosts = None  # the digests a node may host, derived on first use
        node_dir = os.path.join(root, NODE_DIR)
        width = len(str(n))
        if wanted:
            dir_fd = os.open(node_dir, os.O_RDONLY | os.O_DIRECTORY)
        for node_id in wanted:
            name = _node_name(node_id, width)
            path = f"{node_dir}/{name}"
            raw = _read_json(name, path, dir_fd)
            y, sub, hosted_raw = raw["y"], raw["sss_subshare"], raw["hosted"]
            g = grouping.group_of(node_id, gamma)
            held = y is not None and x_lambda[g - 1] is not None
            if (sub is not None) != held:
                raise StateFileError(
                    f"{path}: sss_subshare must be {'set' if held else 'null'}"
                )
            primary = None if y is None else Share(node_id, int(y))
            x = node_id - (g - 1) * gamma  # the node's position in its group
            subshare = None if sub is None else Share(x, int(sub["y"]))
            hosted = []
            for entry in hosted_raw:
                digest = entry["digest_hex"]
                if hosts is None:  # a bare threshold state hosts nothing
                    hosts = {} if mode == PLACEMENT_NONE else state.group_digests()
                if digest not in hosts:
                    raise StateFileError(
                        f"{path}: hosted {digest!r} names no group with redundancy"
                    )
                hosted.append((digest, Share(gamma + 1, int(entry["subshare"]["y"]))))
            node = NodeStore(primary, subshare, hosted)
            _check_written(path, raw, node_store_dict(node_id, node))
            for share in (primary, subshare):
                if share is not None and not 0 <= share.y < p:
                    raise DomainError(f"{path}: y={share.y} outside [0, {p})")
            for _, share in hosted:
                if not 0 <= share.y < p:
                    raise DomainError(f"{path}: hosted y={share.y} outside [0, {p})")
            state.nodes[node_id] = node
    except SharingError:
        # DomainError is a ValueError too; it must keep its own exit code
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise StateFileError(f"{path}: {type(exc).__name__}: {exc}") from exc
    finally:
        if dir_fd is not None:
            os.close(dir_fd)

    return state
