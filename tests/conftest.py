import random

import pytest
from hypothesis import strategies as st

from lrshare import protocol
from lrshare.field import DEFAULT_MODULUS, PrimeField

# The 12-node toy deployment used throughout: (8, 12) sharing, 3 groups of 4.
TOY = dict(k=8, n=12, m=3, secret=42, seed=7)


def storage_accounting(state) -> dict:
    """Private field elements per node and system-wide, the paper's count.

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


@st.composite
def system_shapes(draw, max_n):
    """(k, n, m, placement, seed) of a buildable system with at most max_n nodes."""
    placement = draw(st.sampled_from(protocol.PLACEMENT_MODES))
    least = protocol.LEAST_GROUPS[placement]
    gamma = draw(st.integers(2, max_n // least))
    m = draw(st.integers(least, max_n // gamma))
    k = draw(st.integers(1, gamma * m))
    return k, gamma * m, m, placement, draw(st.integers(0, 2**32 - 1))


@pytest.fixture(scope="session")
def gf13():
    return PrimeField(13)


@pytest.fixture(scope="session")
def big_field():
    return PrimeField(DEFAULT_MODULUS)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def toy_system():
    return protocol.system_setup(**TOY)


@pytest.fixture
def reciprocal_system():
    return protocol.system_setup(**TOY, placement=protocol.PLACEMENT_RECIPROCAL)


@pytest.fixture
def bare_system():
    return protocol.system_setup(**TOY, placement=protocol.PLACEMENT_NONE)
