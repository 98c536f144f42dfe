"""Frequency-domain baseline: Kron-reduce at a chosen omega0 and
re-synthesize an RL network from the reduced branch impedances.

The heuristic carries two ambiguities it cannot resolve itself: the
choice of omega0 (taken as an explicit input) and the null-space degree
of freedom when mapping initial branch currents onto the synthesized
topology (exposed as the gamma parameter). It is exact only in special
cases; the point of carrying it here is to quantify where it fails.
"""

from __future__ import annotations

import numpy as np

from .compare import compare_trajectories
from .errors import DisconnectedNetworkError, NegativeSynthesizedElementError
from .linalg import dense, nullspace_basis
from .network import Edge, Network, build_incidence, validate
from .phasor import admittance, kron_reduce
from .reduction import PStrategy, embed_initial, reduce
from .signals import Excitation
from .simulate import SolverConfig, initial_injections, simulate_reduced_batch

# Off-diagonal admittance entries below this relative level are treated
# as absent branches of the reduced graph.
_BRANCH_TOL = 1e-12


def heuristic_reduce(
    network: Network, omega0: float, allow_unphysical: bool = False
) -> Network:
    """RL network over the boundary nodes, recovered from Yr at omega0.

    Steps: admittance at omega0 -> Schur reduction -> per reduced
    branch, impedance z = -1/Yr[m,n] split as r = Re(z), l = Im(z)/omega0.

    For the 3-node reduced triangle edges are oriented cyclically (so the
    ones vector spans the incidence null space, matching the classical
    delta convention); otherwise orientation is lexicographic. Synthesis
    can produce r < 0 or l <= 0; that raises unless allow_unphysical.
    """
    reduced = kron_reduce(admittance(network, omega0))
    nodes = list(reduced.boundary_nodes)
    nb = len(nodes)
    Yr = reduced.Yr
    scale = np.max(np.abs(Yr))
    pairs = [
        (m, n)
        for m in range(nb)
        for n in range(m + 1, nb)
        if abs(Yr[m, n]) > _BRANCH_TOL * scale
    ]
    cyclic = nb == 3 and len(pairs) == 3
    if cyclic:
        oriented = [(0, 1), (1, 2), (2, 0)]
    else:
        oriented = pairs
    edges = []
    for m, n in oriented:
        z = -1.0 / Yr[m, n]
        r = float(z.real)
        l = float(z.imag) / omega0
        edge_id = f"d_{nodes[m]}_{nodes[n]}"
        if (r < 0 or l <= 0) and not allow_unphysical:
            raise NegativeSynthesizedElementError(
                f"synthesized edge {edge_id!r} is unphysical (r={r:.6g} ohm, l={l:.6g} H)"
            )
        edges.append(Edge(edge_id, nodes[m], nodes[n], r, l))
    synth = Network(nodes=tuple(nodes), edges=tuple(edges), boundary=tuple(nodes))
    # validate() enforces r >= 0 and l > 0, so it can only run when the
    # synthesized elements are physical
    if all(e.r >= 0 and e.l > 0 for e in edges):
        try:
            synth = validate(synth)
        except DisconnectedNetworkError as exc:
            raise DisconnectedNetworkError(
                exc.component_count,
                f"network synthesized at omega0 = {omega0!r} rad/s, whose branches are the "
                f"reduced admittances above {_BRANCH_TOL:g} of the largest,",
            ) from None
    return synth


def map_initial_condition(Br: np.ndarray, i1_0, gamma: float = 0.0):
    """Branch currents of the synthesized network matching the boundary
    injections i1(0), plus the gamma-scaled null-space component.

    The minimum-norm solve pins the component in range(Br^T); gamma fills
    the null(Br) ambiguity. When null(Br) is spanned by the ones vector
    (a single cycle), gamma multiplies the plain ones vector; otherwise
    it scales the first orthonormal null-basis vector.
    """
    Br = dense(Br).astype(float)
    base = embed_initial(Br, i1_0)
    E = Br.shape[1]
    basis = nullspace_basis(Br)
    if basis.shape[1] == 0:
        return base
    if basis.shape[1] == 1 and np.allclose(basis[:, 0], np.mean(basis[:, 0])):
        # single cycle: the null space is the constant vector, use gamma * 1
        return base + gamma * np.ones(E)
    return base + gamma * basis[:, 0]


def draw_gammas(seed):
    """Five seeded uniform gamma draws on [-5, 5], as in the reference
    experiment."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-5.0, 5.0, size=5)


def run_baseline_sweep(
    network: Network,
    omega0: float,
    excitation: Excitation,
    f0_full,
    gammas,
    cfg: SolverConfig,
    allow_unphysical: bool = False,
):
    """One synthesized-network simulation per gamma.

    The synthesized network has no interior nodes, so its exact reduced
    model is just its own edge dynamics. The gammas differ only in the
    initial flows, so all runs share one excitation evaluation and one
    modal solve. Returns (synthesized network, list of (gamma, Trajectory)).
    """
    synth = heuristic_reduce(network, omega0, allow_unphysical=allow_unphysical)
    i1_0 = initial_injections(build_incidence(network), f0_full)
    Br = build_incidence(synth).matrix
    model = reduce(synth, PStrategy.TREE_ELIMINATION)
    gammas = [float(gamma) for gamma in gammas]
    f0s = [map_initial_condition(Br, i1_0, gamma) for gamma in gammas]
    return synth, list(zip(gammas, simulate_reduced_batch(model, excitation, f0s, cfg)))


def baseline_errors(runs, oracle) -> list:
    """Per-gamma error of each baseline run against the oracle, over the
    boundary injections they share. Other channels, such as pseudoflows,
    are coordinates of different models and are not compared."""
    errors = []
    for gamma, traj in runs:
        channels = [c for c in traj.channels_with_prefix("i_") if c in oracle.channels]
        cmp = compare_trajectories(traj, oracle, channels=channels)
        errors.append(
            {
                "gamma": gamma,
                "steady_state_error_rel": cmp["steady_rel"],
                "transient_max_error_rel": cmp["max_rel"],
            }
        )
    return errors
