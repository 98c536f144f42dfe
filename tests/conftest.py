import os

import numpy as np
import pytest

from kronred import Edge, Network, build_incidence, validate
from kronred.linalg import nullspace_basis


def make_net_a(r=1.0, l=1.0):
    """Two nodes, one edge, no interior."""
    return validate(
        Network(("1", "2"), (Edge("e1", "1", "2", r, l),), ("1", "2"))
    )


def make_net_b(r1=1.0, l1=1.0, r2=1.0, l2=1.0):
    """Path 1 - 3 - 2 with interior node 3."""
    return validate(
        Network(
            ("1", "2", "3"),
            (Edge("e1", "1", "3", r1, l1), Edge("e2", "3", "2", r2, l2)),
            ("1", "2"),
        )
    )


def make_wye(r=(0.98, 0.99, 0.58), l=(0.55, 0.64, 0.77)):
    """Three-branch wye with interior center node 4."""
    edges = tuple(Edge(f"e{k + 1}", str(k + 1), "4", r[k], l[k]) for k in range(3))
    return validate(Network(("1", "2", "3", "4"), edges, ("1", "2", "3")))


def make_balanced_wye(r=1.0, l=1.0):
    return make_wye(r=(r, r, r), l=(l, l, l))


def random_connected_network(
    rng,
    n_max=10,
    e_max=20,
    r_range=(0.5, 1.0),
    l_range=(0.5, 1.0),
    min_interior=1,
):
    """Random spanning tree plus extra edges; random strict boundary set."""
    n = int(rng.integers(max(3, min_interior + 2), n_max + 1))
    nodes = tuple(str(i) for i in range(1, n + 1))
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = nodes[i], nodes[j]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b))
    n_extra = int(rng.integers(0, max(1, e_max - (n - 1) + 1)))
    for _ in range(n_extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((nodes[i], nodes[j]))
    r = rng.uniform(*r_range, size=len(edges))
    l = rng.uniform(*l_range, size=len(edges))
    edge_objs = tuple(
        Edge(f"e{k + 1}", a, b, float(r[k]), float(l[k])) for k, (a, b) in enumerate(edges)
    )
    # keep >= 2 boundary nodes so the reduced order E - N0 is >= 1
    n_interior = int(rng.integers(min_interior, max(min_interior + 1, n - 1)))
    interior = set(rng.choice(n, size=n_interior, replace=False))
    boundary = tuple(nodes[i] for i in range(n) if i not in interior)
    return validate(Network(nodes, edge_objs, boundary))


def random_consistent_flow(network, rng):
    """Random edge flows satisfying the interior current balance."""
    basis = nullspace_basis(build_incidence(network).b0.astype(float))
    return basis @ rng.normal(size=basis.shape[1])


@pytest.fixture
def net_a():
    return make_net_a()


@pytest.fixture
def net_b():
    return make_net_b()


@pytest.fixture
def wye():
    return make_wye()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else f'pid {pid}, unreaped'})")
