"""Reference helpers that only the tests use: network queries and an
edge flip, the zero excitation, serializers for networks and
excitations, the weighted-projector identity, SVD-based null-space
bases, a step-by-step RK4 loop, a one-process row-by-row CSV writer,
and a steady-state phasor fit of a trajectory."""

import math

import numpy as np
import scipy.linalg
from scipy import sparse

from kronred import Constant, Edge, Excitation, Network, Phasor, Piecewise, Sinusoid, Step
from kronred.errors import KronredError
from kronred.linalg import nullspace_basis


class InsufficientWindowError(KronredError):
    """Trajectory is too short for the requested steady-state window."""


def interior(network) -> tuple:
    bset = set(network.boundary)
    return tuple(n for n in network.nodes if n not in bset)


def n_interior(network) -> int:
    return len(network.nodes) - len(set(network.boundary))


def with_flipped_edge(network, edge_id):
    """Copy with one edge's direction reversed (for invariance tests)."""
    flipped = tuple(
        Edge(e.id, e.head, e.tail, e.r, e.l) if e.id == edge_id else e
        for e in network.edges
    )
    return Network(network.nodes, flipped, network.boundary)


def zero_excitation() -> Excitation:
    return Excitation(signals={})


def network_to_dict(network) -> dict:
    return {
        "nodes": list(network.nodes),
        "boundary": list(network.boundary),
        "edges": [
            {"id": e.id, "from": e.tail, "to": e.head, "r_ohm": e.r, "l_henry": e.l}
            for e in network.edges
        ],
    }


def excitation_to_dict(exc) -> dict:
    signals = {}
    for node, sig in exc.signals.items():
        if isinstance(sig, Sinusoid):
            signals[node] = {
                "type": "sinusoid",
                "amplitude_v": sig.amplitude,
                "freq_hz": sig.freq,
                "phase_deg": math.degrees(sig.phase),
            }
        elif isinstance(sig, Step):
            signals[node] = {"type": "step", "value_v": sig.value, "t_step_s": sig.t_step}
        elif isinstance(sig, Constant):
            signals[node] = {"type": "constant", "value_v": sig.value}
        elif isinstance(sig, Piecewise):
            signals[node] = {"type": "piecewise", "breakpoints": [list(bp) for bp in sig.breakpoints]}
        else:
            raise TypeError(f"cannot serialize signal {sig!r}")
    return {"signals": signals}


def projection_identity_residual(w, P, B0) -> float:
    """Max-abs residual between the two weighted-projector expressions.

    Left side: P (P^T W P)^-1 P^T with W = diag(w).
    Right side: W^-1 - W^-1 B0^T (B0 W^-1 B0^T)^-1 B0 W^-1.
    A near-zero residual certifies that the two coincide for any basis P
    of null(B0) and any nonzero complex edge weights w. B0 may be sparse.
    """
    w = np.asarray(w)
    P = np.asarray(P)
    B0 = np.atleast_2d(B0.toarray() if sparse.issparse(B0) else np.asarray(B0, dtype=float))
    PWP = P.T @ (w[:, None] * P)
    lhs = P @ np.linalg.solve(PWP, P.T.astype(PWP.dtype))
    winv = 1.0 / w
    B0W = B0 * winv[None, :]
    rhs = np.diag(winv) - B0W.T @ np.linalg.solve(B0W @ B0.T, B0W)
    return float(np.max(np.abs(lhs - rhs)))


def svd_bases(incidence, network):
    """Reference bases of null(B0), built without the tree basis: the
    orthonormal SVD basis Q, and the modal basis Q V, where V from the
    generalized eigensolve of (Q^T R Q, Q^T L Q) has V^T Q^T L Q V = I.
    Returns (Q, Q V)."""
    Q = nullspace_basis(incidence.b0)
    Lp, Rp = (Q.T @ (w[:, None] * Q) for w in (network.l_vector(), network.r_vector()))
    _, V = scipy.linalg.eigh(Rp, Lp)
    return Q, Q @ V


def rk4_lti_steps(A, forcing_stages, y0, dt, n_steps, record_stride):
    """y' = A y + b(t) stepped one RK4 step at a time, recording y at steps
    0, stride, 2*stride, ... and n_steps.

    forcing_stages holds b on the half-step grid t_k = k*dt/2, shape
    (2*n_steps + 1, dim). One step is y <- M y + g_n, with g_n formed for
    every step from the stage forcing. Returns (record_steps, states).
    """
    record_steps = list(range(0, n_steps + 1, record_stride))
    if record_steps[-1] != n_steps:
        record_steps.append(n_steps)
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((len(record_steps), y.size))
    out[0] = y
    I = np.eye(y.size)
    h6 = dt / 6.0
    A1 = dt * A
    A2 = A1 @ A1
    M = I + A1 + A2 / 2.0 + (A2 @ A1) / 6.0 + (A2 @ A2) / 24.0
    F0 = h6 * (I + A1 + A2 / 2.0 + (A1 @ A2) / 4.0)
    Fm = h6 * (4.0 * I + 2.0 * A1 + A2 / 2.0)
    g = (
        forcing_stages[0:-1:2] @ F0.T
        + forcing_stages[1::2] @ Fm.T
        + forcing_stages[2::2] @ (h6 * I).T
    )
    next_rec = 1
    for i in range(n_steps):
        y = M @ y + g[i]
        if i + 1 == record_steps[next_rec]:
            out[next_rec] = y
            next_rec += 1
    return np.asarray(record_steps), out


def write_csv_rows(traj, path):
    """A trajectory file as the program writes it, one row at a time
    from this process: `t,<channels>`, then each row's values in
    Python's shortest round-trip repr."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(traj.channels) + "\n")
        for t, row in zip(traj.times.tolist(), traj.data.tolist()):
            fh.write(",".join(map(repr, [t, *row])) + "\n")


def extract_steady_phasors(traj, freq: float, periods: int = 4, channels=None):
    """Single-frequency fit over the trailing `periods` periods.

    Least-squares fit of a*cos(wt) + b*sin(wt) + c per channel, exact for
    a settled pure tone regardless of sample/period commensurability.
    Returns (phasors, residuals): one Phasor per channel and the relative
    non-fundamental energy left after removing the fitted tone, a small
    value indicating the window is genuinely in steady state.
    """
    if channels is None:
        channels = traj.channels
    duration = traj.times[-1] - traj.times[0]
    window = periods / freq
    if duration < (periods + 2) / freq:
        raise InsufficientWindowError(
            f"trajectory covers {duration * freq:.2f} periods, need {periods + 2}"
        )
    mask = traj.times >= traj.times[-1] - window * (1 + 1e-12)
    t = traj.times[mask]
    w = 2.0 * math.pi * freq
    design = np.column_stack([np.cos(w * t), np.sin(w * t), np.ones_like(t)])
    phasors = []
    residuals = []
    for name in channels:
        x = traj.channel(name)[mask]
        coef, _, _, _ = np.linalg.lstsq(design, x, rcond=None)
        a, b, _ = coef
        mag = math.hypot(a, b)
        phase = math.atan2(-b, a) if mag > 0 else 0.0
        phasors.append(Phasor(mag, phase))
        fit = design[:, :2] @ coef[:2]
        norm = np.linalg.norm(x)
        residuals.append(float(np.linalg.norm(x - fit - coef[2]) / max(norm, 1e-300)))
    return phasors, residuals
