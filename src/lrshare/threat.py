"""Compromise analysis for the grouped sharing system.

Three layers:

* closed-form single-group compromise probabilities for a 4-member group,
  with and without a fifth dedicated redundancy server, plus seeded Monte
  Carlo estimates of both;
* the attacker-knowledge closure: everything derivable from a compromised
  server set plus the public registry, iterating sub-secret recovery and
  repairing-polynomial interpolation to a fixpoint;
* exhaustive search for the smallest compromised set that recovers the
  global secret, per placement or minimized over every admissible
  placement of the external sub-shares.

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

ENUMERATION_NODE_LIMIT = 16
PLACEMENT_SWEEP_LIMIT = 1_000_000

_GROUP_SIZE = 4  # the closed-form expressions below are for 4-member groups


def _check_q(q: float):
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"compromise probability must be in [0, 1], got {q}")


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
            raise DomainError(f"trials must be >= 1, got {self.trials}")


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
            member_points = [
                (state.participants[mid], known_primary[mid])
                for mid in rec.spec.member_ids
                if mid in known_primary
            ]
            if group_id in derived and gamma - 1 <= len(member_points) < gamma:
                poly = field.poly_interpolate(
                    member_points + [(rec.x_lambda, derived[group_id])]
                )
                for mid in rec.spec.member_ids:
                    if mid not in known_primary:
                        known_primary[mid] = field.poly_eval(
                            poly, state.participants[mid]
                        )
                        changed = True

    return AttackerKnowledge(
        compromised=comp,
        known_primary=known_primary,
        known_subshares={g: frozenset(s) for g, s in known_subshares.items()},
        derived_subsecrets=derived,
        secret_recovered=len(known_primary) >= state.k,
    )


class ThreatAnalyzer:
    """Counting view of a healthy system for bulk closure queries.

    Whether a compromised set recovers the secret depends only on how many
    sub-shares and polynomial points per group it reaches, so enumeration
    runs on bitmask cardinalities; attacker_closure stays the value-level
    reference and the two are cross-checked in tests.
    """

    def __init__(self, state: SystemState):
        failed = [i for i, node in state.nodes.items() if node.failed]
        if failed:
            raise ConfigurationError(
                f"threat enumeration needs a healthy system; failed: {failed}"
            )
        self.k = state.k
        self.gamma = state.gamma
        self.node_ids = sorted(state.nodes)
        self.bit = {node_id: 1 << idx for idx, node_id in enumerate(self.node_ids)}
        digest_to_group = state.group_digests()
        holder: dict[int, int] = {}
        for node_id, node in state.nodes.items():
            for digest, _ in node.hosted:
                group_id = digest_to_group[digest]
                if group_id in holder:
                    raise ConfigurationError(
                        f"group {group_id} has multiple hosted sub-shares"
                    )
                holder[group_id] = node_id
        self.holders = holder
        self.group_ids = sorted(state.groups)
        self._group_info = []
        for group_id in self.group_ids:
            rec = state.groups[group_id]
            members_mask = 0
            for mid in rec.spec.member_ids:
                members_mask |= self.bit[mid]
            holder_bit = self.bit[holder[group_id]] if group_id in holder else 0
            self._group_info.append(
                (members_mask, holder_bit, rec.x_lambda is not None)
            )

    def mask_of(self, node_ids) -> int:
        mask = 0
        for node_id in node_ids:
            mask |= self.bit[node_id]
        return mask

    def recovers(self, node_ids, holders: dict[int, int] | None = None) -> bool:
        """Does this compromised set reach the global secret?"""
        if holders is None:
            return self._recovers_mask(self.mask_of(node_ids))
        holder_bits = self._holder_bits(holders)
        return self._recovers_mask(self.mask_of(node_ids), holder_bits)

    def _holder_bits(self, holders: dict[int, int]) -> tuple[int, ...]:
        return tuple(
            self.bit[holders[g]] if g in holders else 0 for g in self.group_ids
        )

    def _recovers_mask(
        self, comp_mask: int, holder_bits: tuple[int, ...] | None = None
    ) -> bool:
        gamma = self.gamma
        total = 0
        for idx, (members_mask, holder_bit, has_redundancy) in enumerate(
            self._group_info
        ):
            direct = (members_mask & comp_mask).bit_count()
            if has_redundancy and direct == gamma - 1:
                hb = holder_bit if holder_bits is None else holder_bits[idx]
                # direct member sub-shares + the external one reach the
                # sub-sharing threshold, and gamma-1 points + the weak point
                # pin the repairing polynomial
                if hb & comp_mask:
                    direct = gamma
            total += direct
        return total >= self.k


@dataclass(frozen=True)
class CompromiseSearchResult:
    size: int
    witness: frozenset[int]


@dataclass(frozen=True)
class PlacementSweepResult:
    size: int
    witness: frozenset[int]
    holders: dict[int, int]


def _check_enumeration_size(count: int):
    if count > ENUMERATION_NODE_LIMIT:
        raise EnumerationLimitError(
            f"exhaustive enumeration refused for {count} nodes "
            f"(limit {ENUMERATION_NODE_LIMIT})"
        )


def min_compromise_search(state: SystemState) -> CompromiseSearchResult:
    """Smallest compromised set that recovers the secret, with a witness.

    Exhaustive over subsets of the in-group servers, ascending by size with
    early exit; refused above ENUMERATION_NODE_LIMIT nodes.
    """
    analyzer = ThreatAnalyzer(state)
    ids = analyzer.node_ids
    _check_enumeration_size(len(ids))
    bits = [analyzer.bit[i] for i in ids]
    for size in range(1, len(ids) + 1):
        for combo in combinations(range(len(ids)), size):
            mask = 0
            for idx in combo:
                mask |= bits[idx]
            if analyzer._recovers_mask(mask):
                return CompromiseSearchResult(
                    size=size, witness=frozenset(ids[idx] for idx in combo)
                )
    raise ConfigurationError("system cannot be compromised even in full")


def min_compromise_size(state: SystemState) -> int:
    """Size of the smallest secret-recovering compromised set."""
    return min_compromise_search(state).size


def admissible_placements(
    state: SystemState, anti_reciprocal: bool
) -> list[dict[int, int]]:
    """Every assignment of external-sub-share holders outside their group.

    With anti_reciprocal set, assignments where two groups host each
    other's sub-share are dropped.
    """
    members = {g: set(rec.spec.member_ids) for g, rec in state.groups.items()}
    group_ids = sorted(state.groups)
    candidates = [
        [i for i in sorted(state.nodes) if i not in members[g]] for g in group_ids
    ]
    count = 1
    for c in candidates:
        count *= len(c)
    if count > PLACEMENT_SWEEP_LIMIT:
        raise EnumerationLimitError(
            f"placement sweep refused: {count} placements exceed "
            f"{PLACEMENT_SWEEP_LIMIT}"
        )
    placements = []
    for choice in product(*candidates):
        holders = dict(zip(group_ids, choice))
        if anti_reciprocal:
            mutual = False
            for g in group_ids:
                h = state.group_of[holders[g]]
                if holders[h] in members[g]:
                    mutual = True
                    break
            if mutual:
                continue
        placements.append(holders)
    return placements


def min_compromise_over_placements(
    state: SystemState, anti_reciprocal: bool = True
) -> PlacementSweepResult:
    """Minimum compromise size over every admissible placement.

    Answers how well the placement policy can possibly do: the smallest
    compromised set that recovers the secret under any placement the policy
    allows.  Ascending by subset size with early exit, exhaustive in both
    the subset and the placement dimension.
    """
    for rec in state.groups.values():
        if rec.x_lambda is None:
            raise ConfigurationError(
                "placement sweep needs a system with repair redundancy"
            )
    analyzer = ThreatAnalyzer(state)
    ids = analyzer.node_ids
    _check_enumeration_size(len(ids))
    placements = admissible_placements(state, anti_reciprocal)
    holder_bits = [analyzer._holder_bits(p) for p in placements]
    bits = [analyzer.bit[i] for i in ids]
    for size in range(1, len(ids) + 1):
        masks = []
        for combo in combinations(range(len(ids)), size):
            mask = 0
            for idx in combo:
                mask |= bits[idx]
            masks.append((mask, combo))
        for placement, hb in zip(placements, holder_bits):
            for mask, combo in masks:
                if analyzer._recovers_mask(mask, hb):
                    return PlacementSweepResult(
                        size=size,
                        witness=frozenset(ids[idx] for idx in combo),
                        holders=placement,
                    )
    raise ConfigurationError("system cannot be compromised even in full")
