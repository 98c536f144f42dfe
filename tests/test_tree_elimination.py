"""The tree-elimination basis: a pinned golden P and its invariants,
and the invariants every other strategy shares.

The tree invariants hold for any network: entries in {0, +-1}, B0 P = 0,
unit rows on the co-tree edges (so full column rank E - N0), |P|
unchanged by edge flips, and the same boundary transfer Bhat Lhat^-1
Bhat^T as every other strategy. The nullbasis and modal bases, turned
from the tree basis, annihilate B0 to rounding, have rank E - N0 and
give that same transfer; the modal Lhat and Rhat are diagonal. Against
the SVD reference bases, nullbasis is orthonormal, both span the same
space, and modal has the same columns up to sign. Simulated from a
consistent initial flow, every strategy's reduced model gives the
boundary injections of the DAE oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from kronred import (
    Edge,
    Excitation,
    Network,
    PStrategy,
    Sinusoid,
    SolverConfig,
    build_incidence,
    reduce,
    simulate_dae_oracle,
    simulate_reduced,
    validate,
)
from kronred.linalg import dense
from kronred.reduction import build_P

from conftest import random_consistent_flow
from reference import interior, n_interior, svd_bases, with_flipped_edge

TREE = PStrategy.TREE_ELIMINATION
NULLBASIS = PStrategy.ORTHONORMAL_NULL_BASIS
MODAL = PStrategy.MODAL_DIAGONALIZING


def _grid(k, rng, boundary=None, shuffle=False):
    """k x k grid with seeded orientations (and edge order when
    `shuffle`); the boundary defaults to row 0."""
    name = lambda r, c: f"n{r}_{c}"  # noqa: E731
    ends = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                ends.append((name(r, c), name(r, c + 1)))
            if r + 1 < k:
                ends.append((name(r, c), name(r + 1, c)))
    order = rng.permutation(len(ends)) if shuffle else range(len(ends))
    flip = rng.random(len(ends)) < 0.5
    r = rng.uniform(0.5, 1.0, size=len(ends))
    l = rng.uniform(0.5, 1.0, size=len(ends))
    edges = []
    for j, i in enumerate(order):
        a, b = ends[i]
        if flip[j]:
            a, b = b, a
        edges.append(Edge(f"e{j}", a, b, float(r[j]), float(l[j])))
    nodes = tuple(name(r, c) for r in range(k) for c in range(k))
    if boundary is None:
        boundary = tuple(name(0, c) for c in range(k))
    return validate(Network(nodes, tuple(edges), boundary))


def _golden_grid():
    rng = np.random.default_rng(2024)
    return _grid(4, rng, boundary=("n0_0", "n0_3", "n2_1", "n3_3"), shuffle=True)


# Tree P of _golden_grid() as built by the earlier per-node KCL
# elimination (dense solve of the omitted block, rounded to integers);
# one string per edge, columns in co-tree edge order.
GOLDEN_P = (
    "+....+......",
    "+...........",
    ".+..........",
    "......-....+",
    "..+.....--..",
    "..+.........",
    "...+.....+..",
    "...+........",
    "....+.......",
    ".++.-.......",
    ".....+......",
    "++..........",
    "......+.....",
    ".......+....",
    "......+...+.",
    ".......+..+.",
    "........+...",
    ".........+..",
    "......+.....",
    "....-+.+....",
    "........-..+",
    ".+++-.......",
    "..........+.",
    "...........+",
)


def _tree_edges(network):
    """Parent edge of each interior node: its highest-indexed edge to a
    node one BFS level closer to the boundary."""
    adjacency = {n: [] for n in network.nodes}
    for j, e in enumerate(network.edges):
        adjacency[e.tail].append((j, e.head))
        adjacency[e.head].append((j, e.tail))
    depth = {n: 0 for n in network.boundary}
    frontier = list(depth)
    while frontier:
        nxt = []
        for u in frontier:
            for _, v in adjacency[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return {
        max(j for j, v in adjacency[n] if depth[v] == depth[n] - 1) for n in interior(network)
    }


def _tree_P(network):
    inc = build_incidence(network)
    return build_P(inc, network, TREE)[0].toarray(), inc


def _transfer(model):
    return model.Bhat @ np.linalg.solve(model.Lhat, model.Bhat.T)


def _assert_rel_close(a, b, tol):
    assert np.max(np.abs(a - b)) <= tol * max(np.max(np.abs(b)), 1e-300)


def test_golden_grid_matches_pinned_basis():
    P, _ = _tree_P(_golden_grid())
    symbol = {1.0: "+", -1.0: "-", 0.0: "."}
    assert P.dtype == np.float64
    assert tuple("".join(symbol[v] for v in row) for row in P) == GOLDEN_P


@st.composite
def _networks(draw):
    """Connected networks with parallel edges, any boundary subset (all
    nodes included), shuffled node and edge order and orientations."""
    n = draw(st.integers(2, 9))
    ends = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    ends = draw(st.permutations(ends + draw(st.lists(pair, max_size=2 * n))))
    value = st.floats(0.5, 1.0)
    edges = []
    for j, (a, b) in enumerate(ends):
        if draw(st.booleans()):
            a, b = b, a
        edges.append(Edge(f"e{j}", str(a), str(b), draw(value), draw(value)))
    nodes = tuple(draw(st.permutations([str(i) for i in range(n)])))
    boundary = draw(st.sets(st.sampled_from(nodes), min_size=1))
    return validate(Network(nodes, tuple(edges), tuple(sorted(boundary))))


def _check_invariants(net, P, B0, dtype):
    E, n0 = len(net.edges), n_interior(net)
    assert P.shape == (E, E - n0)
    assert set(np.unique(P)) <= {-1.0, 0.0, 1.0}
    assert not np.any(B0.astype(dtype) @ P.astype(dtype))
    # Unit rows on the co-tree edges, in edge order: an identity block,
    # which also gives P full column rank E - N0.
    tree = _tree_edges(net)
    cotree = [j for j in range(E) if j not in tree]
    assert np.array_equal(P[cotree], np.eye(E - n0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(net=_networks(), data=st.data())
def test_tree_basis_invariants(net, data):
    P, inc = _tree_P(net)
    _check_invariants(net, P, inc.b0, int)
    if P.size:
        assert np.linalg.matrix_rank(P) == P.shape[1]
    flipped = with_flipped_edge(net, data.draw(st.sampled_from(net.edges)).id)
    assert np.array_equal(np.abs(_tree_P(flipped)[0]), np.abs(P))
    if len(net.boundary) > 1:  # one boundary node: the transfer is exactly 0
        _assert_rel_close(_transfer(reduce(net, TREE)), _transfer(reduce(net)), 1e-8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(net=_networks())
def test_derived_basis_invariants(net):
    inc = build_incidence(net)
    E, n0 = len(net.edges), n_interior(net)
    tree = reduce(net, TREE)
    for strategy in (NULLBASIS, MODAL):
        P = build_P(inc, net, strategy)[0]
        assert P.shape == (E, E - n0)
        assert np.max(np.abs(inc.b0 @ P), initial=0.0) <= 1e-12
        if P.size:
            assert np.linalg.matrix_rank(P) == P.shape[1]
        model = reduce(net, strategy)
        assert np.array_equal(model.P, P)
        if len(net.boundary) > 1:
            _assert_rel_close(_transfer(model), _transfer(tree), 1e-8)
        else:  # the one boundary node carries no current
            assert np.max(np.abs(model.Bhat), initial=0.0) <= 1e-12
        if strategy is MODAL:
            off = ~np.eye(model.order, dtype=bool)
            for M in (model.Lhat, model.Rhat):
                scale = np.max(np.diag(M), initial=1.0)
                assert np.max(np.abs(M[off]), initial=0.0) <= 1e-10 * scale
            assert np.all(np.diag(model.Lhat) > 0)


# A triangle with a parallel edge and no interior nodes (N0 = 0), and a
# network whose only boundary node carries no current, with an edge that
# dead-ends in an interior node.
_NO_INTERIOR = validate(Network(("a", "b", "c"), (
    Edge("e0", "a", "b", 0.6, 0.9), Edge("e1", "b", "c", 1.0, 0.5),
    Edge("e2", "c", "a", 0.7, 0.7), Edge("e3", "b", "a", 0.5, 1.0),
), ("a", "b", "c")))
_ONE_BOUNDARY = validate(Network(("0", "1", "2", "3"), (
    Edge("e0", "0", "1", 0.6, 0.9), Edge("e1", "1", "2", 1.0, 0.5),
    Edge("e2", "2", "0", 0.7, 0.7), Edge("e3", "3", "1", 0.5, 1.0),
), ("0",)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(net=_networks(), seed=st.integers(0, 2**32 - 1))
@example(net=_NO_INTERIOR, seed=1)
@example(net=_ONE_BOUNDARY, seed=2)
def test_reduced_injections_match_oracle(net, seed):
    # Short horizon, seeded sinusoids on every boundary node. Errors are
    # relative to the current scale: the oracle's largest edge flow or
    # injection, or the largest the inputs can drive (|f0| plus the ramp
    # max|v| t_end / min(l)), since a lone boundary node or an edge that
    # dead-ends carries no current.
    rng = np.random.default_rng(seed)
    f0 = random_consistent_flow(net, rng)
    amplitudes = rng.uniform(1, 100, size=len(net.boundary))
    excitation = Excitation({
        n: Sinusoid(float(a), float(rng.uniform(0.5, 5)), float(rng.uniform(-3, 3)))
        for n, a in zip(net.boundary, amplitudes)
    })
    cfg = SolverConfig(dt=1e-3, t_end=0.05)
    oracle = simulate_dae_oracle(net, excitation, f0, cfg)
    channels = oracle.channels_with_prefix("i_")
    currents = oracle.select(oracle.channels_with_prefix("f_") + channels).data
    ramp = np.max(amplitudes) * cfg.t_end / np.min(net.l_vector())
    scale = max(np.max(np.abs(currents)), np.max(np.abs(f0)), ramp)
    for strategy in PStrategy:
        reduced = simulate_reduced(reduce(net, strategy), excitation, f0, cfg)
        deviation = np.max(np.abs(reduced.select(channels).data - oracle.select(channels).data))
        assert deviation <= 1e-9 * scale


def test_k40_grid_invariants():
    net = _grid(40, np.random.default_rng(40))
    model = reduce(net, TREE)
    assert sparse.issparse(model.P)
    P = dense(model.P)
    inc = build_incidence(net)
    # float64 B0 P is exact for these small integers and runs through
    # BLAS; an integer matmul of this size takes seconds.
    _check_invariants(net, P, inc.b0, float)
    tree = _tree_edges(net)
    cotree = [j for j in range(len(net.edges)) if j not in tree]
    for j in (min(tree), max(tree), cotree[0], cotree[-1]):
        flipped = with_flipped_edge(net, net.edges[j].id)
        assert np.array_equal(np.abs(_tree_P(flipped)[0]), np.abs(P))
    # Reference transfer: the boundary Schur complement of the 1/l
    # weighted Laplacian, which is what every strategy reproduces (the
    # nullbasis SVD takes seconds at this size).
    B = inc.matrix.toarray().astype(float)
    lap = (B / net.l_vector()) @ B.T
    nb = len(inc.boundary_nodes)
    ref = lap[:nb, :nb] - lap[:nb, nb:] @ np.linalg.solve(lap[nb:, nb:], lap[nb:, :nb])
    _assert_rel_close(_transfer(model), ref, 1e-8)


@pytest.fixture(scope="module")
def corner_grid():
    """A k=30 grid whose only boundary nodes are two opposite corners:
    the deepest spanning forest the tests build, so the worst-conditioned
    tree basis (cond(P) about 37), with its SVD reference bases."""
    net = _grid(30, np.random.default_rng(30), boundary=("n0_0", "n29_29"))
    inc = build_incidence(net)
    return net, inc, svd_bases(inc, net)


def test_nullbasis_is_orthonormal(corner_grid):
    net, inc, _ = corner_grid
    P = build_P(inc, net, NULLBASIS)[0]
    assert np.max(np.abs(P.T @ P - np.eye(P.shape[1]))) <= 1e-12


def test_bases_span_reference_space(corner_grid):
    net, inc, (Q, _) = corner_grid
    reference = Q @ Q.T
    for strategy in (NULLBASIS, MODAL):
        P = build_P(inc, net, strategy)[0]
        projector = P @ np.linalg.solve(P.T @ P, P.T)
        assert np.max(np.abs(projector - reference)) <= 1e-10


def test_modal_matches_reference_up_to_sign(corner_grid):
    # The pencil's eigenvalues are distinct, so each column is unique up
    # to its sign.
    net, inc, (_, M) = corner_grid
    P = build_P(inc, net, MODAL)[0]
    sign = np.sign(np.sum(P * M, axis=0))
    assert np.max(np.abs(P - sign * M)) <= 1e-9 * np.max(np.abs(M))


def test_transfer_agrees_across_strategies():
    net = _grid(20, np.random.default_rng(20))
    tree, *others = (_transfer(reduce(net, strategy)) for strategy in (TREE, NULLBASIS, MODAL))
    for K in others:
        _assert_rel_close(K, tree, 1e-12)
