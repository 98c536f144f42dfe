"""The sparse graph core against dense references.

Kron reduction factors the interior block of Y by sparse LU, and reduce
forms every strategy's pencil from the sparse tree basis. Both must
agree with plain dense algebra, built here from the edge list alone, to
1e-13 relative on random networks whose interior blocks range from a
few percent nonzero (grid-like) to mostly nonzero (small and dense),
since one sparse path serves them all.
"""

import numpy as np
import pytest
from scipy import sparse

from kronred import PStrategy, admittance, kron_reduce, reduce
from kronred.linalg import dense

from conftest import random_connected_network

REL_TOL = 1e-13
OMEGA = 2.0 * np.pi * 1.5


def _networks(count=50):
    """Alternately small networks (dense interior blocks) and networks
    with 60 to 120 nodes, at least 60 of them interior (blocks a few
    percent nonzero)."""
    rng = np.random.default_rng(2026)
    return [
        random_connected_network(rng, n_max=120, e_max=200, min_interior=60)
        if i % 2 else random_connected_network(rng)
        for i in range(count)
    ]


NETWORKS = _networks()


def _dense_incidence(net):
    """Boundary-first dense incidence, +1 at the tail and -1 at the head."""
    bset = set(net.boundary)
    order = [n for n in net.nodes if n in bset] + [n for n in net.nodes if n not in bset]
    row = {n: i for i, n in enumerate(order)}
    B = np.zeros((len(order), len(net.edges)))
    for j, e in enumerate(net.edges):
        B[row[e.tail], j] = 1.0
        B[row[e.head], j] = -1.0
    return B, len(bset)


def _rel(a, ref):
    return np.max(np.abs(a - ref), initial=0.0) / max(np.max(np.abs(ref), initial=0.0), 1e-300)


def test_networks_cover_sparse_and_dense_blocks():
    fills = []
    for net in NETWORKS:
        B, nb = _dense_incidence(net)
        Y00 = (B[nb:] * net.l_vector()) @ B[nb:].T
        fills.append(np.count_nonzero(Y00) / Y00.size)
    assert min(fills) < 0.05 and max(fills) > 0.2


@pytest.mark.parametrize("i", range(len(NETWORKS)))
def test_kron_reduce_matches_dense_solve(i):
    net = NETWORKS[i]
    B, nb = _dense_incidence(net)
    y = 1.0 / (net.r_vector() + 1j * OMEGA * net.l_vector())
    Y = (B * y) @ B.T
    X = np.linalg.solve(Y[nb:, nb:], Y[nb:, :nb])
    adm = admittance(net, OMEGA)
    assert sparse.issparse(adm.Y) and _rel(dense(adm.Y), Y) <= REL_TOL
    reduced = kron_reduce(adm)
    assert _rel(reduced.Yr, Y[:nb, :nb] - Y[:nb, nb:] @ X) <= REL_TOL
    assert _rel(reduced.recovery_map, -X) <= REL_TOL


# Tree cases keep the plain network index as their id, the id this test
# had when it covered the tree basis alone.
@pytest.mark.parametrize(
    "strategy, i",
    [
        pytest.param(s, i, id=str(i) if s is PStrategy.TREE_ELIMINATION else f"{s.value}-{i}")
        for s in PStrategy for i in range(len(NETWORKS))
    ],
)
def test_tree_reduce_matches_dense_products(strategy, i):
    # build_P forms every pencil in the tree basis and turns it by its own
    # change of basis; checked here against P^T L P, P^T R P and B1 P of
    # the stored P. Largest deviations measured on these networks:
    # nullbasis 1.1e-15, modal 3.2e-15 (modal's I and diag(d) are not
    # computed from P at all).
    net = NETWORKS[i]
    B, nb = _dense_incidence(net)
    model = reduce(net, strategy)
    assert sparse.issparse(model.P) == (strategy is PStrategy.TREE_ELIMINATION)
    P = dense(model.P)
    assert _rel(model.Lhat, P.T @ (net.l_vector()[:, None] * P)) <= REL_TOL
    assert _rel(model.Rhat, P.T @ (net.r_vector()[:, None] * P)) <= REL_TOL
    if strategy is PStrategy.TREE_ELIMINATION:
        assert np.array_equal(model.Bhat, B[:nb] @ P)
    else:
        assert _rel(model.Bhat, B[:nb] @ P) <= REL_TOL
