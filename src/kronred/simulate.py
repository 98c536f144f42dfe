"""Time integration and steady-state extraction.

Every run is fixed-step classical RK4 on a linear time-invariant system
y' = A y + B u(t), with the inputs pre-evaluated on the half-step stage
grid so runs are deterministic. Two cores carry out the recurrence:

* _rk4_modal — decoupled scalar modes z_k' = -d_k z_k + u_k(t), each
  integrated over the whole horizon by one banded LAPACK solve. A
  validated reduced pencil (Lhat, Rhat) is symmetric-definite, so one
  congruence brings simulate_reduced to this form; a modal model, a
  model without interior nodes (the baseline sweep's synthesized
  network) and simulate_homogeneous are diagonal already.
* _rk4_lti — the dense RK4 map, used only by simulate_dae_oracle: the
  full constrained model, converted to an ODE by solving for interior
  voltages at every stage (index-1 reduction). It steps from record to
  record: one power of the step map per record interval, with the
  forced parts of all intervals stepped together and the forcing taken
  through the boundary inputs. It shares neither the projection
  machinery nor the modal core (only the RK4 stability rule,
  _rk4_decay_factor), so it stays an independent reference.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtbtrs

from .errors import (
    ConstraintDriftError,
    InconsistentInitialConditionError,
    InputFormatError,
    SingularBlockError,
    SolverConfigError,
    UnstableTimeStepError,
)
from .linalg import simultaneous_diagonalization
from .network import IncidenceMatrix, Network, build_incidence
from .reduction import HomogeneousReducedModel, ReducedModel, embed_initial
from .signals import Excitation

# Interior current balance of initial flows and the DAE oracle's drift guard, relative to the flow scale.
DRIFT_TOL = 1e-7

# Relative tolerance on t_end / dt being a whole number of steps.
GRID_RTOL = 1e-9

# Most RK4 steps one run may take: 100 times the paper experiment's 1e5.
# The stage grid and the sampled excitation are sized 2 * n_steps + 1.
MAX_STEPS = 10_000_000

# Values per formatted CSV block; bigger blocks are no faster but hold more memory.
CSV_BLOCK_VALUES = 1024


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration; t_end must be a whole number of steps,
    and at most MAX_STEPS of them."""

    dt: float = 1e-4
    t_end: float = 10.0
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SolverConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end > self.dt):
            raise SolverConfigError(f"t_end must be finite and exceed dt, got {self.t_end!r}")
        stride = self.record_stride
        integral = isinstance(stride, numbers.Integral) or (
            isinstance(stride, float) and stride.is_integer()
        )
        if not (integral and stride >= 1):
            raise SolverConfigError(f"record_stride must be a positive integer, got {stride!r}")
        object.__setattr__(self, "record_stride", int(stride))
        steps = self.t_end / self.dt
        if not steps < MAX_STEPS + 0.5:
            raise SolverConfigError(
                f"t_end / dt = {steps:.3g} steps, above the limit of {MAX_STEPS}"
            )
        if abs(steps - round(steps)) > GRID_RTOL * steps:
            raise SolverConfigError(
                f"t_end={self.t_end!r} is not an integer multiple of dt={self.dt!r}"
            )

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled named channels over time."""

    times: np.ndarray
    data: np.ndarray      # (n_samples, n_channels)
    channels: tuple

    def channel(self, name):
        try:
            j = self.channels.index(name)
        except ValueError:
            raise InputFormatError(f"no channel {name!r}") from None
        return self.data[:, j]

    def channels_with_prefix(self, prefix):
        return tuple(c for c in self.channels if c.startswith(prefix))

    def select(self, names):
        idx = [self.channels.index(n) for n in names]
        return Trajectory(self.times, self.data[:, idx], tuple(names))


def _record_steps(n_steps, record_stride):
    """Steps 0, stride, 2*stride, ... plus the final step n_steps."""
    steps = list(range(0, n_steps + 1, record_stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _rk4_lti(A, B, u, y0, dt, n_steps, record_stride):
    """Integrate y' = A y + B u(t) with classical RK4.

    u holds the inputs on the half-step grid t_k = k*dt/2, shape
    (2*n_steps + 1, inputs). Returns (record_steps, states) where
    states[i] is y at step record_steps[i].

    The system is LTI, so one RK4 step is y <- M y + g_n, and the step
    forcing g_n = F0 B u_2n + Fm B u_2n+1 + F1 B u_2n+2 is taken through
    the input width. With s = record_stride, each of the R = n_steps // s
    full record intervals is y <- M^s y + z_r. The forced parts z_r of all
    intervals are stepped together, s - 1 products of (R x dim)(dim x dim),
    and only the chain over intervals is a loop. A last interval shorter
    than s is stepped one step at a time. This is the discrete map of
    stepping every step, up to rounding.

    M^s is I plus M^s - I powered from N = M - I (_step_power). M, rounded
    to the grid of I, is off by up to eps / (dt d) relative in 1 - m for a
    mode decaying at rate d, and powering M would keep that error in 1 - m^s:
    a steady-state bias. Rounding I + (M^s - I) once errs by eps / (s dt d).
    """
    y = np.asarray(y0, dtype=float).copy()
    record_steps = _record_steps(n_steps, record_stride)
    out = np.empty((len(record_steps), y.size))
    out[0] = y
    I = np.eye(y.size)
    h6 = dt / 6.0
    A1 = dt * A
    A2 = A1 @ A1
    N = A1 + A2 / 2.0 + (A2 @ A1) / 6.0 + (A2 @ A2) / 24.0   # M - I
    M = I + N
    F0 = h6 * (I + A1 + A2 / 2.0 + (A1 @ A2) / 4.0)
    Fm = h6 * (4.0 * I + 2.0 * A1 + A2 / 2.0)
    G = np.vstack([(F0 @ B).T, (Fm @ B).T, h6 * B.T])

    def forcing(n):
        """Rows g_n for the step indices n."""
        return np.hstack([u[2 * n], u[2 * n + 1], u[2 * n + 2]]) @ G

    s = record_stride
    R = n_steps // s
    if R:  # a stride past the horizon leaves no full interval
        first = s * np.arange(R)
        z = forcing(first)
        for j in range(1, s):
            z = z @ M.T
            z += forcing(first + j)
        Ms = (I + _step_power(N, s)).dot
        for r in range(R):
            y = Ms(y) + z[r]
            out[r + 1] = y
    if R * s < n_steps:
        for g in forcing(np.arange(R * s, n_steps)):
            y = M.dot(y) + g
        out[-1] = y
    return np.asarray(record_steps), out


def _step_power(N, s):
    """M^s - I for M = I + N and s >= 1, by binary powering kept in the
    N domain, (I + X)(I + Y) - I = X + Y + X Y, so it holds N's relative
    precision that forming I + N rounds away."""
    power, square = None, N
    while True:
        if s & 1:
            power = square if power is None else power + square + power @ square
        s >>= 1
        if not s:
            return power
        square = 2.0 * square + square @ square


def _rk4_modal(d, u, z0, dt, n_steps, record_stride):
    """Integrate decoupled modes z_k' = -d_k z_k + u_k(t) with classical RK4.

    u holds the modal forcing on the half-step grid, one row per mode:
    shape (order, 2*n_steps + 1). z0 has shape (order, runs), the runs
    sharing d and u. With A = -diag(d), one RK4 step of mode k is
    z <- m_k z + g_n, the diagonal of _rk4_lti's recurrence. Over the
    whole horizon that is the unit lower-bidiagonal system
    z_{n+1} - m_k z_n = g_n, solved per mode and run by LAPACK dtbtrs.
    Only the recorded steps are kept. Returns (record_steps, states) with
    states shaped (n_records, order, runs). Raises UnstableTimeStepError
    when a decaying mode is past RK4's real-axis stability bound.
    """
    d = np.asarray(d, dtype=float)
    a = -dt * d
    # m = 1 + p is rounded to the grid of 1, a relative error of up to
    # eps / (dt d) in 1 - m that the recurrence turns into a steady-state
    # bias. m_lo is that rounding error (TwoSum), fed back by a second
    # solve below.
    m, p = _rk4_decay_factor(d, dt)
    p_part = m - 1.0
    m_lo = (1.0 - (m - p_part)) + (p - p_part)
    h6 = dt / 6.0
    c0 = h6 * (1.0 + a + a**2 / 2.0 + a**3 / 4.0)
    cm = h6 * (4.0 + 2.0 * a + a**2 / 2.0)
    z0 = np.asarray(z0, dtype=float)
    record_steps = np.asarray(_record_steps(n_steps, record_stride))
    rows = record_steps[1:] - 1          # x[j] is z at step j + 1
    out = np.empty((len(record_steps),) + z0.shape)
    out[0] = z0
    ab = np.ones((2, n_steps))           # row 0, the unit diagonal, is not read
    x = np.empty((n_steps, 1), order="F")
    dx = np.empty((n_steps, 1), order="F")
    # Runs are solved one column at a time: dtbtrs treats its columns
    # one by one anyway, and single columns keep the buffers small.
    for k in range(d.size):
        ab[1] = -m[k]
        uk = u[k]
        gk = c0[k] * uk[0:-1:2] + cm[k] * uk[1::2] + h6 * uk[2::2]
        for r, zk0 in enumerate(z0[k]):
            x[:, 0] = gk
            x[0] += m[k] * zk0
            _unit_bidiagonal_solve(ab, x)
            # x + dx solves the recurrence with the unrounded m, up to m_lo * dx.
            dx[0] = m_lo[k] * zk0
            np.multiply(x[:-1], m_lo[k], out=dx[1:])
            _unit_bidiagonal_solve(ab, dx)
            x += dx
            out[1:, k, r] = x[rows, 0]
    return record_steps, out


def _rk4_decay_factor(d, dt):
    """RK4's one-step factor m = 1 + p for z' = -d z, as (m, p).

    RK4's real-axis amplification never drops below 0, so a decaying
    mode is unstable exactly when m > 1, i.e. dt d past about 2.785;
    that raises UnstableTimeStepError. Modes with d <= 0 (zero modes, or
    the growing modes of an unphysical synthesized network) do not decay
    in the continuous model either and pass.
    """
    a = -dt * d
    p = a * (1.0 + a * (0.5 + a * (1.0 / 6.0 + a / 24.0)))
    m = 1.0 + p
    if np.any((d > 0) & (m > 1.0)):
        raise UnstableTimeStepError(dt, float(np.max(dt * d)))
    return m, p


def _unit_bidiagonal_solve(ab, rhs):
    """Solve in place: rhs is a Fortran-ordered float64 (n, 1) array."""
    x, info = dtbtrs(ab, rhs, uplo="L", diag="U", overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"dtbtrs failed with info={info}")
    if x is not rhs:
        rhs[:] = x


def _stage_grid(cfg):
    return np.arange(2 * cfg.n_steps + 1) * (0.5 * cfg.dt)


def simulate_reduced(
    model: ReducedModel, excitation: Excitation, f0, cfg: SolverConfig
) -> Trajectory:
    """Integrate the reduced ODE from a consistent full-order initial flow.

    Channels: fhat_<k> for the pseudoflows and i_<node> for the boundary
    injections i1 = Bhat fhat.
    """
    return simulate_reduced_batch(model, excitation, [f0], cfg)[0]


def simulate_reduced_batch(
    model: ReducedModel, excitation: Excitation, f0s, cfg: SolverConfig
) -> list:
    """simulate_reduced for several initial flows under one excitation.

    The excitation, the modal basis and the modal forcing are computed
    once; each run only adds its own bidiagonal solves. The pseudoflows
    are fhat = V z, where z' = -d z + W Bhat^T v1 and z0 = W Lhat fhat0
    (see _modal_form).
    """
    if len(f0s) == 0:
        return []
    fhat0 = np.column_stack([embed_initial(model.P, np.asarray(f0, dtype=float)) for f0 in f0s])
    V, W, d = _modal_form(model.Lhat, model.Rhat)
    v1 = excitation.evaluate(model.boundary_nodes, _stage_grid(cfg))
    steps, z = _rk4_modal(
        d, (W @ model.Bhat.T) @ v1.T, W @ (model.Lhat @ fhat0),
        cfg.dt, cfg.n_steps, cfg.record_stride,
    )
    channels = tuple(f"fhat_{k}" for k in range(model.order)) + tuple(
        f"i_{n}" for n in model.boundary_nodes
    )
    runs = []
    for r in range(fhat0.shape[1]):
        fhat = z[:, :, r] @ V.T
        runs.append(Trajectory(steps * cfg.dt, np.hstack([fhat, fhat @ model.Bhat.T]), channels))
    return runs


def _modal_form(Lhat, Rhat):
    """(V, W, d) turning Lhat fhat' = -Rhat fhat + b into decoupled modes.

    With fhat = V z the model reads z' = -d z + W b, W = V^-1 Lhat^-1.
    An exactly diagonal pencil (no nonzero off-diagonal entry), as in
    every modal model and every model without interior nodes, is
    decoupled already and takes V = I, d = r / l; this also covers the
    unvalidated networks that allow_unphysical synthesis returns (r < 0
    or l < 0), for which no congruence exists. Otherwise the pencil of a
    validated network is symmetric-definite, and the congruence
    V^T Lhat V = I, V^T Rhat V = diag(d) gives W = V^T.
    """
    l, r = np.diag(Lhat), np.diag(Rhat)
    if np.array_equal(Lhat, np.diag(l)) and np.array_equal(Rhat, np.diag(r)):
        if np.any(l == 0):
            raise SingularBlockError(math.inf)
        return np.eye(l.size), np.diag(1.0 / l), r / l
    V, d = simultaneous_diagonalization(Lhat, Rhat)
    return V, V.T, d


def initial_injections(incidence: IncidenceMatrix, f0) -> np.ndarray:
    """Boundary injections B1 f0 of an initial flow that balances every
    interior node: f0 finite and max|B0 f0| <= DRIFT_TOL * max|f0|.
    InconsistentInitialConditionError otherwise."""
    f0 = np.asarray(f0, dtype=float)
    drift = np.max(np.abs(incidence.b0 @ f0), initial=0.0)
    scale = np.max(np.abs(f0), initial=0.0)
    if not (math.isfinite(scale) and drift <= DRIFT_TOL * max(scale, 1e-300)):
        raise InconsistentInitialConditionError(drift if math.isfinite(scale) else scale)
    return incidence.b1 @ f0


def simulate_dae_oracle(
    network: Network, excitation: Excitation, f0, cfg: SolverConfig
) -> Trajectory:
    """Integrate the full constrained model directly.

    At every RK4 stage the interior voltages solve
    (B0 L^-1 B0^T) v0 = B0 L^-1 (R f - B1^T v1(t)), which keeps
    B0 f' = 0; the SPD system matrix is Cholesky-factored once. The
    interior current balance is drift-checked at every recorded sample.
    Channels: f_<edge>, i_<node> (boundary), v0_<node> (interior).

    A step past RK4's stability bound raises UnstableTimeStepError. The
    nonzero spectrum of A is {-d_k} of the reduced pencil, since B0 A = 0,
    and max d_k <= max(r / l) by Courant-Fischer when l > 0 (with equality
    when there are no interior nodes). So A's eigenvalues are only
    computed when that bound fails the test.
    """
    incidence = build_incidence(network)
    initial_injections(incidence, f0)
    r, l = network.r_vector(), network.l_vector()
    f0 = np.asarray(f0, dtype=float)
    B0 = incidence.b0.toarray()  # the oracle keeps its own dense algebra
    B1 = incidence.b1.toarray()
    linv = 1.0 / l
    v1 = excitation.evaluate(incidence.boundary_nodes, _stage_grid(cfg))
    B0L = B0 * linv[None, :]
    chol = cho_factor(B0L @ B0.T)
    G = cho_solve(chol, B0 * (linv * r)[None, :])   # v0 = G f + H v1
    H = -cho_solve(chol, B0L @ B1.T)
    A = linv[:, None] * (B0.T @ G - np.diag(r))
    B = linv[:, None] * (B0.T @ H + B1.T)
    try:
        _rk4_decay_factor(r * linv, cfg.dt)
    except UnstableTimeStepError:
        _rk4_decay_factor(-np.linalg.eigvals(A).real, cfg.dt)
    steps, f = _rk4_lti(A, B, v1, f0, cfg.dt, cfg.n_steps, cfg.record_stride)
    # Drift check on the algebraic constraint at each recorded sample and
    # interior node. A flow that is zero in exact arithmetic (an edge that
    # dead-ends in interior nodes) is rounding noise of the cancelled
    # forcing, which resistance does not damp (B0 f is a neutral mode):
    # a few ulps of f0 plus of the current the drive can ramp up over
    # t_end in the edges at that node. Drift below that floor is not drift.
    drift = np.abs(f @ B0.T)
    scale = np.max(np.abs(f), axis=1)
    ramp = 2.0 * cfg.t_end * np.max(np.abs(v1), initial=0.0) * (np.abs(B0) @ linv)
    floor = 16.0 * np.finfo(float).eps * (np.max(np.abs(f0), initial=0.0) + ramp)
    bad = np.any((drift > DRIFT_TOL * scale[:, None]) & (drift > floor), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConstraintDriftError(
            f"constraint drift {np.max(drift[i]):.3e} at t={steps[i] * cfg.dt:.6g} s"
        )
    i1 = f @ B1.T
    v0 = f @ G.T + v1[2 * steps] @ H.T
    channels = (
        tuple(f"f_{e}" for e in incidence.edge_ids)
        + tuple(f"i_{n}" for n in incidence.boundary_nodes)
        + tuple(f"v0_{n}" for n in incidence.interior_nodes)
    )
    return Trajectory(steps * cfg.dt, np.hstack([f, i1, v0]), channels)


def simulate_homogeneous(
    model: HomogeneousReducedModel, excitation: Excitation, i1_0, cfg: SolverConfig
) -> Trajectory:
    """Integrate di1/dt = -alpha i1 + Lred v1 from the initial injections."""
    i1_0 = np.asarray(i1_0, dtype=float)
    v1 = excitation.evaluate(model.boundary_nodes, _stage_grid(cfg))
    steps, i1 = _rk4_modal(
        np.full(i1_0.size, model.alpha), model.Lred @ v1.T, i1_0[:, None],
        cfg.dt, cfg.n_steps, cfg.record_stride,
    )
    channels = tuple(f"i_{n}" for n in model.boundary_nodes)
    return Trajectory(steps * cfg.dt, i1[:, :, 0], channels)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,<channels>` rows with shortest round-trip float formatting."""
    rows = max(1, CSV_BLOCK_VALUES // (1 + traj.data.shape[1]))
    with open(path, "w") as fh:
        fh.write("t," + ",".join(traj.channels) + "\n")
        for s in range(0, len(traj.times), rows):
            block = np.column_stack([traj.times[s:s + rows], traj.data[s:s + rows]]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block)


def write_trajectories(trajectories: dict, out_dir) -> list:
    """Write each named trajectory to <out_dir>/<name>.csv; returns the
    paths in the dict's order.

    The files are written by up to one process per available CPU (POSIX
    fork; one process where fork is missing), each file by
    trajectory_to_csv, so the bytes are those of a one-process write.
    The calling process writes one group of files itself and reaps every
    child before returning or raising. Files whose writer failed are
    written again here, in dict order, so a failure raises what writing
    the files one by one raises.
    """
    jobs = [(traj, Path(out_dir) / f"{name}.csv") for name, traj in trajectories.items()]
    workers = min(_available_cpus(), len(jobs)) if hasattr(os, "fork") else 1
    groups = _balanced_groups([traj.times.size * (1 + traj.data.shape[1]) for traj, _ in jobs], workers)
    children = {}  # pid -> the group it writes
    failed = set()
    try:
        for group in groups[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process writes the group below
                failed.update(group)
                continue
            if pid == 0:
                _write_group_and_exit([jobs[i] for i in group])
            children[pid] = group
        for i in groups[0]:
            try:
                trajectory_to_csv(*jobs[i])
            except Exception:  # raised again below, once the children are reaped
                failed.add(i)
    finally:
        for pid, group in children.items():
            try:
                ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            except ChildProcessError:  # reaped by the system, as when SIGCHLD is ignored
                ok = False
            if not ok:
                failed.update(group)
    for i in sorted(failed):
        trajectory_to_csv(*jobs[i])
    return [path for _, path in jobs]


def _available_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _balanced_groups(sizes, n_groups):
    """Split the indices of sizes into max(1, n_groups) lists, largest
    size first, each onto the lightest list so far."""
    groups = [[] for _ in range(max(1, n_groups))]
    loads = [0] * len(groups)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += sizes[i]
    return groups


def _write_group_and_exit(jobs):
    """A forked writer's whole life: write its files and leave by
    os._exit, 0 on success and 1 on any exception. It never returns into
    the caller's code, prints nothing, and neither flushes inherited
    stdio buffers nor runs atexit handlers. It formats floats and writes
    files only, so it never enters a BLAS thread pool inherited through
    the fork."""
    try:
        for traj, path in jobs:
            trajectory_to_csv(traj, path)
    except BaseException:
        os._exit(1)
    os._exit(0)


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory_to_csv file; non-UTF-8 content or a bad header,
    row or cell is an InputFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_csv(fh, path)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _read_csv(fh, path) -> Trajectory:
    header = fh.readline().strip().split(",")
    if header[0] != "t":
        raise InputFormatError(f"{path}: first CSV column must be 't'")
    body = fh.tell()
    with warnings.catch_warnings():  # an empty body is reported as no samples
        warnings.simplefilter("ignore", UserWarning)
        try:
            arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if arr.size and arr.shape[1] == len(header):
                return Trajectory(arr[:, 0], arr[:, 1:], tuple(header[1:]))
        except ValueError:  # UnicodeDecodeError too: the scan below meets it again
            pass
    # Name the bad file line: loadtxt's row numbers, cut from its message, skip blank lines.
    fh.seek(body)
    for lineno, line in enumerate(fh, start=2):
        try:
            cells = np.loadtxt([line], delimiter=",", comments=None, ndmin=1) if line != "\n" else None
        except ValueError as exc:
            raise InputFormatError(f"{path}, line {lineno}: {str(exc).partition(' at row')[0]}") from None
        if cells is not None and cells.size != len(header):
            raise InputFormatError(f"{path}, line {lineno}: ragged CSV, {len(header)} columns expected")
    raise InputFormatError(f"{path}: no samples")
