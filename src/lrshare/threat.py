"""Compromise analysis for the grouped sharing system.

Three layers:

* closed-form single-group compromise probabilities for a 4-member group,
  with and without a fifth dedicated redundancy server, plus seeded Monte
  Carlo estimates of both;
* the attacker-knowledge closure: everything derivable from a compromised
  server set plus the public registry, iterating sub-secret recovery and
  repairing-polynomial interpolation to a fixpoint;
* the exact smallest compromised set that recovers the global secret,
  found by a search over sets of groups (not of nodes) under the state's
  placement, or under the canonical one that reaches the closed-form minimum
  over all admissible placements; refused above ENUMERATION_GROUP_LIMIT groups.

The attacker model is conservative: the full public registry (every x,
every group's weak-redundancy abscissa, every digest) is free, so hosted
sub-shares found on compromised nodes are attributable to their group by
digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations, product

from . import shamir
from .errors import ConfigurationError, DomainError, EnumerationLimitError
from .protocol import SystemState
from .shamir import Share

SCHEME_BASELINE4 = "baseline4"
SCHEME_SSS5 = "sss5"

ENUMERATION_GROUP_LIMIT = 16

_GROUP_SIZE = 4  # the closed-form expressions below are for 4-member groups


def _check_q(q: float):
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"compromise probability must be in [0, 1], got {q}")


def p1_exact(q: float) -> float:
    """Probability an attacker gets all 4 shares of a group with no redundancy.

    Each of the 4 servers falls independently with probability q, so the
    group falls with probability q**4.
    """
    _check_q(q)
    return q**4


def p2_exact(q: float) -> float:
    """Same, with a fifth dedicated server holding the group's weak redundancy.

    Any 4 of the 5 servers then yield all 4 shares (4 members directly, or
    3 members plus the redundancy point pin down the repairing polynomial):
    C(5,4) * q^4 * (1-q) + q^5 = q^4 * (5 - 4q).  The extra server strictly
    increases the attacker's success rate for 0 < q < 1, which is why the
    redundancy is second-shared instead of parked on one machine.
    """
    _check_q(q)
    return q**4 * (5 - 4 * q)


@dataclass(frozen=True)
class CompromiseModel:
    """Per-server compromise probability q, trial count, and master seed."""

    q: float
    trials: int
    seed: int

    def __post_init__(self):
        _check_q(self.q)
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")


def mc_group_compromise(model: CompromiseModel, scheme: str) -> float:
    """Monte Carlo estimate of the single-group compromise probability.

    scheme 'baseline4' draws 4 servers and succeeds when all fall;
    'sss5' draws 5 and succeeds when at least 4 fall.  Every trial derives
    its own randomness from (seed, scheme, trial index), so the estimate is
    identical under any execution order or partitioning of the trials.
    """
    if scheme == SCHEME_BASELINE4:
        servers = _GROUP_SIZE
    elif scheme == SCHEME_SSS5:
        servers = _GROUP_SIZE + 1
    else:
        raise DomainError(f"unknown scheme {scheme!r}")
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
        if fallen >= _GROUP_SIZE:
            hits += 1
    return hits / model.trials


@dataclass(frozen=True)
class AttackerKnowledge:
    """Fixpoint of what a compromised server set can derive.

    known_primary maps participant id to its share value, whether held
    directly or derived through a repairing polynomial; known_subshares
    holds the directly captured sub-shares per group; derived_subsecrets
    the weak-redundancy values recovered from them.
    """

    compromised: frozenset[int]
    known_primary: dict[int, int]
    known_subshares: dict[int, frozenset[Share]]
    derived_subsecrets: dict[int, int]
    secret_recovered: bool


def attacker_closure(state: SystemState, compromised) -> AttackerKnowledge:
    """Close a compromised set under the derivation rules.

    Starting from all private data on the compromised nodes plus the public
    registry, repeat until nothing changes:

    R1: gamma or more sub-shares of one group recover that group's
        weak-redundancy value (the sub-sharing threshold is gamma);
    R2: gamma or more known points on a group's repairing polynomial
        (member shares plus the derived weak point) determine it, and with
        it every member share of the group;
    R3: k or more known primary shares recover the global secret.

    All derived values are computed from the captured data itself, exactly
    as an attacker would.
    """
    comp = frozenset(compromised)
    unknown = comp - set(state.nodes)
    if unknown:
        raise DomainError(f"unknown nodes in compromised set: {sorted(unknown)}")
    field = state.field
    gamma = state.gamma
    digest_to_group = state.group_digests()

    known_primary: dict[int, int] = {}
    known_subshares: dict[int, set[Share]] = {g: set() for g in state.groups}
    for node_id in comp:
        node = state.nodes[node_id]
        if node.primary is not None:
            known_primary[node_id] = node.primary.y
        if node.subshare is not None:
            known_subshares[state.group_of[node_id]].add(node.subshare)
        for digest, sub in node.hosted:
            known_subshares[digest_to_group[digest]].add(sub)

    derived: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for group_id, rec in state.groups.items():
            if rec.x_lambda is None:
                continue
            subs = known_subshares[group_id]
            if group_id not in derived and len(subs) >= gamma:
                derived[group_id] = shamir.recover(field, sorted(subs), gamma)
                changed = True
            # node i's share sits at x = i
            member_points = [
                (mid, known_primary[mid])
                for mid in rec.spec.member_ids
                if mid in known_primary
            ]
            if group_id in derived and gamma - 1 <= len(member_points) < gamma:
                missing = [
                    mid for mid in rec.spec.member_ids if mid not in known_primary
                ]
                values = field.interpolate_at(
                    member_points + [(rec.x_lambda, derived[group_id])],
                    missing,
                )
                known_primary.update(zip(missing, values))
                changed = True

    return AttackerKnowledge(
        compromised=comp,
        known_primary=known_primary,
        known_subshares={g: frozenset(s) for g, s in known_subshares.items()},
        derived_subsecrets=derived,
        secret_recovered=len(known_primary) >= state.k,
    )


@dataclass(frozen=True)
class CompromiseResult:
    """Smallest secret-recovering compromised set under one placement.

    holders maps each group with an external sub-share to the node that
    hosts it: the state's own placement, or the canonical one of a sweep.
    """

    size: int
    witness: frozenset[int]
    holders: dict[int, int]


def _holders(state: SystemState) -> dict[int, int]:
    """The state's holder map, for a healthy system of at most
    ENUMERATION_GROUP_LIMIT groups with at most one hosted sub-share each."""
    failed = [i for i, node in state.nodes.items() if node.failed]
    if failed:
        raise ConfigurationError(
            f"threat enumeration needs a healthy system; failed: {failed}"
        )
    digest_to_group = state.group_digests()
    holders: dict[int, int] = {}
    for node_id, node in state.nodes.items():
        for digest, _ in node.hosted:
            group_id = digest_to_group[digest]
            if group_id in holders:
                raise ConfigurationError(
                    f"group {group_id} has multiple hosted sub-shares"
                )
            holders[group_id] = node_id
    if state.m > ENUMERATION_GROUP_LIMIT:
        raise EnumerationLimitError(
            f"compromise search refused for {state.m} groups "
            f"(limit {ENUMERATION_GROUP_LIMIT})"
        )
    return holders


def _min_under(state: SystemState, holders: dict[int, int]) -> CompromiseResult:
    """Exact minimum over the sets T of "bonus" groups.

    A captured set S reaches the secret iff |S| + B(S) >= k, where B(S)
    counts the groups with redundancy that have exactly gamma-1 captured
    members and their external holder in S (the holder's sub-share lifts
    the group to gamma points).  Realising a bonus set T takes gamma-1
    members of each T group, which must include every T holder inside T's
    groups, plus each distinct holder outside them; so the minimum is
    min over T of max(cost(T), k - |T|).  Since cost(T) >= (gamma-1)|T|,
    the search stops at the first |T| whose bound reaches the best size.
    """
    gamma, k = state.gamma, state.k
    bonus_groups = sorted(g for g in holders if state.groups[g].x_lambda is not None)
    best = None
    for count in range(len(bonus_groups) + 1):
        if best is not None and (gamma - 1) * count >= best[0]:
            break
        for bonus in combinations(bonus_groups, count):
            inside: dict[int, set[int]] = {g: set() for g in bonus}
            outside: set[int] = set()
            for g in bonus:
                holder = holders[g]
                host = state.group_of[holder]
                (inside[host] if host in inside else outside).add(holder)
            if any(len(needed) >= gamma for needed in inside.values()):
                continue
            size = max((gamma - 1) * count + len(outside), k - count)
            if best is None or size < best[0]:
                best = (size, inside, outside)
    size, inside, outside = best
    witness = set(outside)
    for g, needed in inside.items():
        rest = [i for i in state.groups[g].spec.member_ids if i not in needed]
        witness.update(sorted(needed) + rest[: gamma - 1 - len(needed)])
    spare = (i for i in sorted(state.nodes) if state.group_of[i] not in inside)
    for node_id in spare:
        if len(witness) >= size:
            break
        witness.add(node_id)
    return CompromiseResult(size=size, witness=frozenset(witness), holders=holders)


def min_compromise_search(state: SystemState) -> CompromiseResult:
    """Smallest compromised set that recovers the secret, with a witness.

    Exact, and exhaustive over sets of groups rather than of nodes;
    refused above ENUMERATION_GROUP_LIMIT groups.
    """
    return _min_under(state, _holders(state))


def admissible_placements(
    state: SystemState, anti_reciprocal: bool
) -> list[dict[int, int]]:
    """Every assignment of external-sub-share holders outside their group.

    With anti_reciprocal set, assignments where two groups host each
    other's sub-share are dropped.  Exponential in m and called by no
    command: it is the exhaustive reference for the closed-form sweep.
    """
    members = {g: set(rec.spec.member_ids) for g, rec in state.groups.items()}
    group_ids = sorted(state.groups)
    candidates = [
        [i for i in sorted(state.nodes) if i not in members[g]] for g in group_ids
    ]
    placements = []
    for choice in product(*candidates):
        holders = dict(zip(group_ids, choice))
        if anti_reciprocal and any(
            holders[state.group_of[holders[g]]] in members[g] for g in group_ids
        ):
            continue
        placements.append(holders)
    return placements


def min_compromise_over_placements(
    state: SystemState, anti_reciprocal: bool = True
) -> CompromiseResult:
    """Minimum compromise size over every admissible placement, in closed form.

    t bonus groups cost (gamma-1)*t members, plus one outside holder unless
    their holders close a cycle among them, which needs c = 3 groups under
    anti_reciprocal (no mutual pair), else 2.  So the minimum is min over
    t <= m of max((gamma-1)*t + out(t), k - t), out(t) = 1 for 0 < t < c,
    else 0.  One canonical placement reaches it at the least such t: each
    group's sub-share on the first member of the next group round all m,
    except that group t points back to group 1 when t >= c.  The exact
    search under that placement gives the witness.
    """
    if any(rec.x_lambda is None for rec in state.groups.values()):
        raise ConfigurationError(
            "placement sweep needs a system with repair redundancy"
        )
    _holders(state)  # the same state checks as min_compromise_search
    gamma, k, m = state.gamma, state.k, state.m
    c = 3 if anti_reciprocal else 2
    if m < c:
        raise ConfigurationError("no admissible placement to sweep")
    best = min(range(m + 1), key=lambda t: max((gamma - 1) * t + (0 < t < c), k - t))
    group_ids = sorted(state.groups)
    holders = {}
    for i, g in enumerate(group_ids):
        host = 0 if i + 1 == best >= c else (i + 1) % m
        holders[g] = state.groups[group_ids[host]].spec.member_ids[0]
    return _min_under(state, holders)
