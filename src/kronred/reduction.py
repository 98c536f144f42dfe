"""Exact time-domain reduction of voltage-actuated RL networks.

Eliminates zero-injection interior nodes by projecting the edge-flow
dynamics L f' = -R f + B^T v onto a basis P of null(B0), yielding the
reduced ODE  Lhat fhat' = -Rhat fhat + Bhat^T v1  with

    Lhat = P^T L P,   Rhat = P^T R P,   Bhat = B1 P,

which reproduces the full model's boundary injections i1 = Bhat fhat
exactly for any consistent initial flow. Also provides the classical
injection-space reduction for homogeneous networks (R = alpha L).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentInitialConditionError,
    InputFormatError,
    NotHomogeneousError,
)
from .linalg import NULL_TOL, nullspace_basis, schur_complement, simultaneous_diagonalization
from .network import IncidenceMatrix, Network, PartitionedMatrices, build_incidence, partition


class PStrategy(enum.Enum):
    """How the null-space basis P is constructed."""

    TREE_ELIMINATION = "tree"
    ORTHONORMAL_NULL_BASIS = "nullbasis"
    MODAL_DIAGONALIZING = "modal"


@dataclass(frozen=True)
class ReducedModel:
    """Reduced ODE matrices together with the lifting basis P.

    Lhat is SPD, Rhat PSD; the model order is E - N0. For the modal
    strategy Lhat and Rhat are stored exactly diagonal.
    """

    P: np.ndarray
    Lhat: np.ndarray
    Rhat: np.ndarray
    Bhat: np.ndarray
    strategy: PStrategy
    boundary_nodes: tuple
    edge_ids: tuple

    @property
    def order(self):
        return self.P.shape[1]


@dataclass(frozen=True)
class HomogeneousReducedModel:
    """Injection-space model di1/dt = -alpha i1 + Lred v1 for R = alpha L."""

    alpha: float
    Lred: np.ndarray
    boundary_nodes: tuple


def _bfs_depths(network: Network):
    adjacency = {n: [] for n in network.nodes}
    for e in network.edges:
        adjacency[e.tail].append(e.head)
        adjacency[e.head].append(e.tail)
    depth = {n: 0 for n in network.boundary}
    frontier = [n for n in network.nodes if n in set(network.boundary)]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = d
                    nxt.append(v)
        frontier = nxt
    return depth


def _tree_elimination_basis(network: Network, incidence: IncidenceMatrix) -> np.ndarray:
    """Integer basis of null(B0) from per-interior-node KCL elimination.

    Each interior node is matched to one incident edge leading toward the
    boundary (its BFS parent side, highest edge index on ties); those
    matched flows are omitted from the state and recovered from KCL,
    giving a {0,+-1}-structured unimodular elimination. Retained edges
    keep canonical unit rows in P.
    """
    B0 = incidence.b0
    n0 = len(incidence.interior_nodes)
    E = len(incidence.edge_ids)
    if n0 == 0:
        return np.eye(E, dtype=int)
    depth = _bfs_depths(network)
    edge_ends = [(e.tail, e.head) for e in network.edges]
    # Order interior nodes by increasing BFS depth so the elimination is
    # triangular; match each to its highest-indexed parent-side edge.
    interior_sorted = sorted(incidence.interior_nodes, key=lambda n: depth[n])
    omitted = {}
    used = set()
    for node in interior_sorted:
        candidates = [
            j
            for j, (a, b) in enumerate(edge_ends)
            if j not in used
            and (
                (a == node and depth[b] < depth[node])
                or (b == node and depth[a] < depth[node])
            )
        ]
        if not candidates:
            raise RuntimeError(f"no eliminable edge at interior node {node!r}")
        j = max(candidates)
        omitted[node] = j
        used.add(j)
    omitted_cols = [omitted[n] for n in interior_sorted]
    retained_cols = [j for j in range(E) if j not in used]
    row_of = {n: i for i, n in enumerate(incidence.interior_nodes)}
    rows = [row_of[n] for n in interior_sorted]
    B0_om = B0[np.ix_(rows, omitted_cols)].astype(float)
    B0_ret = B0[np.ix_(rows, retained_cols)].astype(float)
    # Unimodular by construction; solve and snap back to integers.
    coeffs = np.rint(-np.linalg.solve(B0_om, B0_ret)).astype(int)
    P = np.zeros((E, E - n0), dtype=int)
    for k, j in enumerate(retained_cols):
        P[j, k] = 1
    for i, j in enumerate(omitted_cols):
        P[j, :] = coeffs[i, :]
    assert not np.any(B0 @ P), "KCL elimination failed to annihilate B0"
    return P


def build_P(
    B0: np.ndarray,
    incidence: IncidenceMatrix,
    strategy: PStrategy,
    matrices: PartitionedMatrices,
    network: Network = None,
) -> np.ndarray:
    """Basis P with range(P) = null(B0), per the chosen strategy."""
    if strategy is PStrategy.TREE_ELIMINATION:
        if network is None:
            raise ValueError("tree elimination requires the network")
        return _tree_elimination_basis(network, incidence).astype(float)
    if strategy is PStrategy.ORTHONORMAL_NULL_BASIS:
        return nullspace_basis(B0)
    if strategy is PStrategy.MODAL_DIAGONALIZING:
        Pp = nullspace_basis(B0)
        Lp = Pp.T @ (matrices.l[:, None] * Pp)
        Rp = Pp.T @ (matrices.r[:, None] * Pp)
        V, _ = simultaneous_diagonalization(Lp, Rp)
        return Pp @ V
    raise ValueError(f"unknown strategy {strategy!r}")


# Off-diagonal entries below this relative level are stored as exact
# zeros for the modal strategy, so the independent-circuit form holds in
# the serialized model too.
_MODAL_ZERO_TOL = 1e-12


def reduce(network: Network, strategy: PStrategy = PStrategy.ORTHONORMAL_NULL_BASIS) -> ReducedModel:
    """Assemble the exact reduced model of order E - N0."""
    incidence = build_incidence(network)
    matrices = partition(incidence, network)
    P = build_P(matrices.B0, incidence, strategy, matrices, network)
    Lhat = P.T @ (matrices.l[:, None] * P)
    Rhat = P.T @ (matrices.r[:, None] * P)
    Lhat = 0.5 * (Lhat + Lhat.T)
    Rhat = 0.5 * (Rhat + Rhat.T)
    if strategy is PStrategy.MODAL_DIAGONALIZING:
        for M in (Lhat, Rhat):
            scale = max(np.max(np.abs(np.diag(M))), 1e-300)
            off = ~np.eye(M.shape[0], dtype=bool)
            M[off & (np.abs(M) < _MODAL_ZERO_TOL * scale)] = 0.0
    Bhat = matrices.B1.astype(float) @ P
    return ReducedModel(
        P=P,
        Lhat=Lhat,
        Rhat=Rhat,
        Bhat=Bhat,
        strategy=strategy,
        boundary_nodes=incidence.boundary_nodes,
        edge_ids=incidence.edge_ids,
    )


def embed_initial(P: np.ndarray, f0: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Coordinates fhat0 with P fhat0 = f0, for f0 in range(P).

    The caller's f0 must satisfy the interior current balance (it lies in
    null(B0) = range(P)); otherwise the least-squares residual exceeds
    tol * ||f0|| and InconsistentInitialConditionError is raised.
    """
    f0 = np.asarray(f0, dtype=float)
    fhat0, _, _, _ = np.linalg.lstsq(P, f0, rcond=None)
    residual = np.linalg.norm(P @ fhat0 - f0)
    if residual > tol * max(np.linalg.norm(f0), 1e-300):
        raise InconsistentInitialConditionError(residual)
    return fhat0


def lift(P: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Edge flows f = P fhat."""
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape[-1] != P.shape[1]:
        raise DimensionMismatchError(
            f"pseudoflow length {fhat.shape[-1]} != basis columns {P.shape[1]}"
        )
    return fhat @ P.T


def output_injections(B1: np.ndarray, P: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Boundary injections i1 = B1 P fhat."""
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape[-1] != P.shape[1]:
        raise DimensionMismatchError(
            f"pseudoflow length {fhat.shape[-1]} != basis columns {P.shape[1]}"
        )
    return fhat @ (B1.astype(float) @ P).T


def homogeneous_reduce(network: Network, tol: float = 1e-9) -> HomogeneousReducedModel:
    """Injection-space reduction, valid only when R = alpha L.

    Raises NotHomogeneousError if any edge ratio r/l deviates from the
    mean ratio by more than tol (relative).
    """
    r = network.r_vector()
    l = network.l_vector()
    ratios = r / l
    alpha = float(np.mean(ratios))
    deviation = float(np.max(np.abs(ratios - alpha))) / max(abs(alpha), 1e-300)
    if deviation > tol:
        raise NotHomogeneousError(deviation)
    incidence = build_incidence(network)
    B = incidence.matrix.astype(float)
    Ltilde = (B / l[None, :]) @ B.T
    n0 = len(incidence.interior_nodes)
    nb = B.shape[0] - n0
    Lred = schur_complement(Ltilde, range(nb, B.shape[0]))
    Lred = 0.5 * (Lred + Lred.T)
    return HomogeneousReducedModel(alpha=alpha, Lred=Lred, boundary_nodes=incidence.boundary_nodes)


def model_to_dict(model: ReducedModel) -> dict:
    """JSON-ready dict; matrices row-major at full double precision."""
    return {
        "strategy": model.strategy.value,
        "P": model.P.tolist(),
        "Lhat": model.Lhat.tolist(),
        "Rhat": model.Rhat.tolist(),
        "Bhat": model.Bhat.tolist(),
        "boundary_nodes": list(model.boundary_nodes),
        "edge_ids": list(model.edge_ids),
    }


def model_from_dict(obj) -> ReducedModel:
    try:
        return ReducedModel(
            P=np.asarray(obj["P"], dtype=float),
            Lhat=np.asarray(obj["Lhat"], dtype=float),
            Rhat=np.asarray(obj["Rhat"], dtype=float),
            Bhat=np.asarray(obj["Bhat"], dtype=float),
            strategy=PStrategy(obj["strategy"]),
            boundary_nodes=tuple(obj["boundary_nodes"]),
            edge_ids=tuple(obj["edge_ids"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise InputFormatError(f"malformed reduced-model JSON: {exc}") from exc


def save_model(model: ReducedModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)


def load_model(path) -> ReducedModel:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(
                f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno})"
            ) from exc
    return model_from_dict(obj)
