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
import functools
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse

from .errors import (
    InconsistentInitialConditionError,
    InputFormatError,
    LostPrecisionError,
    NotHomogeneousError,
    NotPositiveDefiniteError,
    RankDeficientInputError,
    SingularBlockError,
)
from .linalg import dense, psd_modes, schur_complement, simultaneous_diagonalization
from .network import IncidenceMatrix, Network, build_incidence, json_number, json_object, load_json


# Largest relative residual of a model against its network (check_model).
# The models reduce writes reach at most 1.4e-14 (every strategy on the
# wye and on grids of k = 6 to 40, tree and nullbasis at k = 60); a
# relative edit of 1e-8 to the largest entry of any one of P, Lhat, Rhat
# or Bhat reaches at least 2e-10.
MODEL_RTOL = 1e-11

# Largest row sum of the homogeneous Lred, relative to the row's entries
# (homogeneous_reduce). See the README's homogeneous section for its margin.
LRED_RTOL = 1e-8


class PStrategy(enum.Enum):
    """How the null-space basis P is constructed."""

    TREE_ELIMINATION = "tree"
    ORTHONORMAL_NULL_BASIS = "nullbasis"
    MODAL_DIAGONALIZING = "modal"


@dataclass(frozen=True)
class ReducedModel:
    """Reduced ODE matrices with the lifting basis P as build_P returns it
    (the tree basis's CSR array, else dense). Lhat is SPD, Rhat PSD; the
    order is E - N0. For the modal strategy Lhat is exactly I and Rhat
    exactly diagonal.
    """

    P: np.ndarray | sparse.csr_array
    Lhat: np.ndarray
    Rhat: np.ndarray
    Bhat: np.ndarray
    strategy: PStrategy
    boundary_nodes: tuple
    edge_ids: tuple

    @property
    def order(self):
        return self.P.shape[1]

    @functools.cached_property
    def modal(self):
        """(V, W, d) turning Lhat fhat' = -Rhat fhat + b, with fhat = V z, into
        z' = -d z + W b; computed at most once and kept as long as the model
        (V is n x n dense, as large as Lhat). An exactly diagonal pencil (modal
        models, models without interior nodes, allow_unphysical networks with
        r or l < 0) takes V = I and d = r / l, a zero l being singular; any
        other is split by simultaneous_diagonalization's V, and W = V^T."""
        l, r = np.diag(self.Lhat), np.diag(self.Rhat)
        if np.array_equal(self.Lhat, np.diag(l)) and np.array_equal(self.Rhat, np.diag(r)):
            if np.any(l == 0):
                raise SingularBlockError(np.inf)
            return np.eye(l.size), np.diag(1.0 / l), r / l
        V, d = simultaneous_diagonalization(self.Lhat, self.Rhat)
        return V, V.T, d


@dataclass(frozen=True)
class HomogeneousReducedModel:
    """Injection-space model di1/dt = -alpha i1 + Lred v1 for R = alpha L."""

    alpha: float
    Lred: np.ndarray
    boundary_nodes: tuple


def _tree_elimination_basis(incidence: IncidenceMatrix) -> sparse.csr_array:
    """Integer basis of null(B0) from a BFS spanning forest (loop analysis).

    The boundary nodes are contracted into one root, and a multi-source
    BFS from it gives every interior node a depth. Each interior node's
    parent edge is its highest-indexed incident edge to a node one level
    shallower. These N0 tree edges are omitted from the state and
    recovered from KCL, and every other (co-tree) edge keeps a unit row
    in P, in edge order. A co-tree edge's column is its fundamental
    cycle, or its boundary-to-boundary path when the cycle closes
    through the root: both of its ends walk up the parent pointers until
    the walks meet or reach the root, and each tree edge on the way gets
    -1 on the tail's walk and +1 on the head's walk, times the sign of
    the edge's orientation toward the parent. The entries are therefore
    in {0, +-1} by construction. An interior node that the BFS leaves
    unreached (no boundary, or an interior island; only an unvalidated
    Network has one) raises RankDeficientInputError.

    The BFS and the walks cost O(E * depth) in vectorized steps, one per
    level, and P is written as (row, column, value) triplets and
    returned as a CSR array. B0 P = 0 is then checked on every call by
    scattering the triplets onto their edge ends, in O(nnz(P)), and
    raises if it fails.
    """
    nb = len(incidence.boundary_nodes)
    n0 = len(incidence.interior_nodes)
    E = len(incidence.edge_ids)
    # Node 0 is the contracted boundary; interior row i is node i + 1.
    tail = np.maximum(incidence.tail - nb + 1, 0)
    head = np.maximum(incidence.head - nb + 1, 0)
    depth = np.full(n0 + 1, -1)
    depth[0] = 0
    level = 0
    while True:
        dt, dh = depth[tail], depth[head]
        reached = np.concatenate(
            [head[(dt == level) & (dh < 0)], tail[(dh == level) & (dt < 0)]]
        )
        if not reached.size:
            break
        level += 1
        depth[reached] = level
    unreached = int(np.count_nonzero(depth < 0))
    if unreached:
        raise RankDeficientInputError(
            f"{unreached} interior node(s) have no path to a boundary node, so "
            f"null(B0) has more than E - N0 = {E - n0} dimensions"
        )
    edges = np.arange(E)
    parent_edge = np.full(n0 + 1, -1)
    for child, other in ((tail, head), (head, tail)):
        down = depth[child] == depth[other] + 1
        np.maximum.at(parent_edge, child[down], edges[down])
    is_tree = np.zeros(E, dtype=bool)
    is_tree[parent_edge[1:]] = True
    retained = np.flatnonzero(~is_tree)
    n = len(retained)
    cols = np.arange(n)
    triplets = [(retained, cols, np.ones(n))]
    a, b = tail[retained], head[retained]
    while True:
        open_ = a != b
        if not open_.any():
            break
        cols, a, b = cols[open_], a[open_], b[open_]
        da, db = depth[a], depth[b]
        for ends, step, s in ((a, da >= db, -1.0), (b, db >= da, 1.0)):
            moving = ends[step]
            e = parent_edge[moving]
            triplets.append((e, cols[step], np.where(tail[e] == moving, s, -s)))
            ends[step] = tail[e] + head[e] - moving
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    # B0 P = 0, summed over the edge ends of P's nonzeros (node 0 is the
    # boundary and is skipped); exact, since the sums are small integers.
    kcl = np.bincount(
        np.concatenate([tail[rows], head[rows]]) * n + np.tile(cols, 2),
        weights=np.concatenate([vals, -vals]),
    )
    if np.any(kcl[n:]):
        raise AssertionError("KCL elimination failed to annihilate B0")
    return sparse.csr_array((vals, (rows, cols)), shape=(E, n))


def build_P(incidence: IncidenceMatrix, network: Network, strategy: PStrategy):
    """Basis P of null(B0), per the chosen strategy, and its pencil.

    The pencil is formed once, sparse, in the tree basis T: Lt = T^T L T,
    Rt = T^T R T. Each strategy turns T by an n x n change of basis S into
    P = T S, with E - N0 columns and the pencil (S^T Lt S, S^T Rt S):

    - tree: S = I; P is T's CSR array and the pencil stays sparse.
    - nullbasis: S = C^-1 from the Cholesky QR of T, T^T T = C^T C (C
      upper triangular, so S turns the pencil by two BLAS trmm): the
      Gram-Schmidt orthonormalization of T's columns in edge order. T's
      co-tree rows form an identity block, so T^T T is SPD.
    - modal: S = V from simultaneous_diagonalization(Lt, Rt); the pencil
      is exactly (I, diag(d)), with d as that returns it (>= 0).

    Returns (P, Lhat, Rhat). RankDeficientInputError, from the tree
    basis, when an interior node has no path to a boundary node.
    """
    if not isinstance(strategy, PStrategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    T = _tree_elimination_basis(incidence)
    Lt, Rt = (T.T @ (sparse.diags_array(w) @ T) for w in (network.l_vector(), network.r_vector()))
    if strategy is PStrategy.ORTHONORMAL_NULL_BASIS:
        C = scipy.linalg.cholesky(dense(T.T @ T))
        S = scipy.linalg.solve_triangular(C, np.eye(C.shape[0]))
        trmm = scipy.linalg.blas.dtrmm
        return T @ S, *(trmm(1.0, S, trmm(1.0, S, dense(M), side=1), trans_a=1) for M in (Lt, Rt))
    if strategy is PStrategy.MODAL_DIAGONALIZING:
        V, d = simultaneous_diagonalization(dense(Lt), dense(Rt))
        return T @ V, np.eye(d.size), np.diag(d)
    return T, Lt, Rt


def _symmetrized(M):
    """0.5 M^T + 0.5 M as a dense array, C-ordered for either layout of a
    dense M; M is halved in place. Halving first keeps entries above half
    the largest float finite. The sum is the one n x n allocation, as
    0.5 * (M^T + M) made it: a second one, freed again, raises glibc's
    dynamic mmap threshold, and later arrays below it then grow the heap."""
    M *= 0.5
    return dense(M.T + M)


def reduce(network: Network, strategy: PStrategy = PStrategy.ORTHONORMAL_NULL_BASIS) -> ReducedModel:
    """Assemble the exact reduced model of order E - N0.

    build_P gives P, kept as it comes, and the pencil (Lhat, Rhat); Bhat
    = B1 P. Lhat, Rhat (symmetrized) and Bhat are dense and C-ordered, as
    model_from_dict returns them: BLAS and LAPACK round the two layouts of
    the same values differently, and a model written and loaded must run
    as the one in memory. The transpose leads each
    symmetrizing sum, so the tree pencil (CSC) sums to CSR and densifies
    C-ordered without a transposing copy.
    """
    incidence = build_incidence(network)
    P, Lhat, Rhat = build_P(incidence, network, strategy)
    return ReducedModel(
        P=P,
        Lhat=_symmetrized(Lhat),
        Rhat=_symmetrized(Rhat),
        Bhat=dense(incidence.b1 @ P),
        strategy=strategy,
        boundary_nodes=incidence.boundary_nodes,
        edge_ids=incidence.edge_ids,
    )


def embed_initial(P, f0: np.ndarray) -> np.ndarray:
    """Minimum-norm fhat0 with P fhat0 = f0, for f0 in range(P), by lstsq on dense(P).

    For a reduced model's P, f0 must satisfy the interior current balance
    (it lies in null(B0) = range(P)). InconsistentInitialConditionError
    when the least-squares residual is not within 1e-9 * ||f0||, which
    includes a non-finite f0. Both 2-norms are taken of vectors divided
    by max|f0|, so that their sums of squares cannot overflow.
    """
    f0 = np.asarray(f0, dtype=float)
    fhat0, _, _, _ = np.linalg.lstsq(dense(P), f0, rcond=None)
    scale = float(np.max(np.abs(f0), initial=0.0))
    scale = scale if 0.0 < scale < np.inf else 1.0
    residual = float(np.linalg.norm((P @ fhat0 - f0) / scale))
    if not residual <= 1e-9 * max(np.linalg.norm(f0 / scale), 1e-300):
        raise InconsistentInitialConditionError(residual * scale)  # Python floats: inf, not a warning
    return fhat0


def check_model(model: ReducedModel, incidence: IncidenceMatrix, network: Network) -> None:
    """InputFormatError, naming the matrix and its relative residual,
    unless model is network's reduction: the network's edge ids and
    boundary nodes in its order, P has E - N0 columns, B0 P = 0 (over
    max|P|) and B1 P = Bhat, and P^T L P X = Lhat X and P^T R P X =
    Rhat X for a fixed-seed Gaussian probe X of two columns (Freivalds'
    check, O(E n) where the congruence is O(E n^2)), each within
    MODEL_RTOL of the largest entry of its right-hand side. With Lhat
    SPD, B0 P = 0 then makes range(P) = null(B0), so every basis of it
    passes."""
    if (model.edge_ids, model.boundary_nodes) != (incidence.edge_ids, incidence.boundary_nodes):
        raise InputFormatError("the model is for other edges or boundary nodes than the network")
    expected = len(incidence.edge_ids) - len(incidence.interior_nodes)
    if model.order != expected:
        raise InputFormatError(f"model order is {model.order}, the network's null(B0) has dimension {expected}")
    P, X = model.P, np.random.default_rng(0).standard_normal((model.order, 2))
    l, r = network.l_vector()[:, None], network.r_vector()[:, None]
    with np.errstate(all="ignore"):  # an overflow is a NaN or inf residual, which fails
        PX, LX, RX = P @ X, model.Lhat @ X, model.Rhat @ X
        sides = {
            "P": (incidence.b0 @ P, P),
            "Bhat": (incidence.b1 @ P - model.Bhat, model.Bhat),
            "Lhat": (P.T @ (l * PX) - LX, LX),
            "Rhat": (P.T @ (r * PX) - RX, RX),
        }
        for key, (deviation, scale) in sides.items():
            residual = _largest(deviation) / max(_largest(scale), 1e-300)
            if not residual <= MODEL_RTOL:
                raise InputFormatError(
                    f"model {key} does not match the network: relative residual {residual:.3g} > {MODEL_RTOL:g}"
                )


def _largest(M):
    """max|M| of a dense or sparse array, 0 for an empty one."""
    return float(abs(M).max()) if M.size else 0.0


def homogeneous_reduce(network: Network) -> HomogeneousReducedModel:
    """Injection-space reduction, valid only when R = alpha L.

    Raises NotHomogeneousError unless every edge ratio r/l is within
    1e-9 (relative) of the mean ratio, and LostPrecisionError when a row
    of Lred sums to more than LRED_RTOL of its entries' magnitudes.
    """
    r = network.r_vector()
    l = network.l_vector()
    ratios = r / l
    alpha = float(np.mean(ratios))
    deviation = float(np.max(np.abs(ratios - alpha))) / max(abs(alpha), 1e-300)
    if not deviation <= 1e-9:
        raise NotHomogeneousError(
            f"network is not homogeneous (max relative ratio deviation {deviation:.3e})"
        )
    incidence = build_incidence(network)
    Lred, _ = schur_complement(incidence.laplacian(1.0 / l), len(incidence.interior_nodes))
    Lred = 0.5 * (Lred + Lred.T)
    # The Schur complement of a Laplacian is one: its rows sum to 0.
    residual = np.abs(Lred.sum(axis=1))
    lost = ~(residual <= LRED_RTOL * np.abs(Lred).sum(axis=1))
    if lost.any():
        i = int(np.argmax(lost))
        raise LostPrecisionError(
            f"the Schur complement of the 1/l Laplacian lost boundary node {incidence.boundary_nodes[i]!r} "
            f"to rounding: its row sums to {residual[i]:.3e} (inductances span a factor of "
            f"{np.max(l) / np.min(l):.3g})"
        )
    return HomogeneousReducedModel(alpha=alpha, Lred=Lred, boundary_nodes=incidence.boundary_nodes)


def model_to_dict(model: ReducedModel) -> dict:
    """JSON-ready dict; matrices (P densified) row-major at full double precision."""
    return {
        "strategy": model.strategy.value,
        "P": dense(model.P).tolist(),
        "Lhat": model.Lhat.tolist(),
        "Rhat": model.Rhat.tolist(),
        "Bhat": model.Bhat.tolist(),
        "boundary_nodes": list(model.boundary_nodes),
        "edge_ids": list(model.edge_ids),
    }


_MODEL_KEYS = {"strategy", "P", "Lhat", "Rhat", "Bhat", "boundary_nodes", "edge_ids"}


def model_from_dict(obj) -> ReducedModel:
    """Parse a reduced-model JSON object; unknown keys are rejected, every
    matrix entry must be a finite number, the matrix shapes must agree
    with edge_ids, boundary_nodes and the order (P's column count),
    Lhat and Rhat must be exactly symmetric, and the pencil definite, as
    decided on the model's modal form: NotPositiveDefiniteError otherwise."""
    obj = json_object(obj, "reduced-model", _MODEL_KEYS)
    mats = {k: json_number(obj[k], f"reduced-model {k}", scalar=False) for k in ("P", "Lhat", "Rhat", "Bhat")}
    for key in ("boundary_nodes", "edge_ids"):
        if not (isinstance(obj[key], list) and all(isinstance(v, str) for v in obj[key])):
            raise InputFormatError(f"reduced-model {key} must be a list of strings")
    try:
        strategy = PStrategy(obj["strategy"])
    except ValueError as exc:
        raise InputFormatError(f"malformed reduced-model JSON: {exc}") from exc
    boundary_nodes, edge_ids = tuple(obj["boundary_nodes"]), tuple(obj["edge_ids"])
    n = mats["P"].shape[1] if mats["P"].ndim == 2 else 0
    nb, E = len(boundary_nodes), len(edge_ids)
    expected = {"P": (E, n), "Lhat": (n, n), "Rhat": (n, n), "Bhat": (nb, n)}
    for key, shape in expected.items():  # an empty Lhat's [] parses as shape (0,)
        if mats[key].shape != shape and not (mats[key].size == 0 and 0 in shape):
            raise InputFormatError(
                f"reduced-model {key} has shape {mats[key].shape}, expected {shape}"
            )
        mats[key] = mats[key].reshape(shape)
    for key in ("Lhat", "Rhat"):
        if not np.array_equal(mats[key], mats[key].T):
            raise InputFormatError(f"reduced-model {key} is not symmetric")
    model = ReducedModel(**mats, strategy=strategy, boundary_nodes=boundary_nodes, edge_ids=edge_ids)
    if not np.all(np.diag(model.Lhat) > 0):  # every SPD matrix has a positive diagonal
        raise NotPositiveDefiniteError("first pencil matrix is not SPD")
    psd_modes(model.modal[2])
    return model


def save_model(model: ReducedModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)


def load_model(path) -> ReducedModel:
    return model_from_dict(load_json(path))
