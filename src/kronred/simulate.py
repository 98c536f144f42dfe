"""Time integration and steady-state extraction.

Every run is fixed-step classical RK4 on a linear time-invariant system
y' = A y + B u(t), with the inputs pre-evaluated on the half-step stage
grid so runs are deterministic. Two cores carry out the recurrence:

* _rk4_modal — decoupled scalar modes z_k' = -d_k z_k + u_k(t), each
  integrated over the whole horizon by one banded LAPACK solve. A
  validated reduced pencil is symmetric-definite, so one congruence, the
  model's own ReducedModel.modal, brings simulate_reduced to this form;
  a modal model, a model without interior nodes (the baseline sweep's
  synthesized network) and simulate_homogeneous are diagonal already.
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

import contextlib
import io
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
    SolverConfigError,
    UnstableTimeStepError,
)
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
    with np.errstate(over="ignore"):  # a past about -3e77 takes p to +inf, and m > 1 still decides
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
    (see ReducedModel.modal, which the model computes once and keeps).
    """
    if len(f0s) == 0:
        return []
    fhat0 = np.column_stack([embed_initial(model.P, np.asarray(f0, dtype=float)) for f0 in f0s])
    V, W, d = model.modal
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
    """Write `t,<channels>` rows with shortest round-trip float formatting
    (Python repr). The rows are formatted by up to one process per
    available CPU, over row ranges (_write_csv), and the bytes are those
    of a one-process write."""
    _write_csv([(traj, path)])


def write_trajectories(trajectories: dict, out_dir) -> list:
    """Write each named trajectory to <out_dir>/<name>.csv, as
    trajectory_to_csv writes it; returns the paths in the dict's order.
    One set of processes formats the rows of every file (_write_csv)."""
    jobs = [(traj, Path(out_dir) / f"{name}.csv") for name, traj in trajectories.items()]
    _write_csv(jobs)
    return [path for _, path in jobs]


def _write_csv(jobs):
    """Write each (trajectory, path) in order, from _workers(total values)
    processes.

    Every file's rows are cut into one contiguous range per process.
    Forked child w formats range w of every file, in file order, and
    sends each range's text here as one message (_forked). This process
    formats range 0 and is the only one that opens files: each gets its
    header, range 0, then the children's ranges in order. So the bytes
    are those of a one-process write, and a file that cannot be written
    raises what a one-process write raises. A range that does not arrive
    is formatted here, and so is the rest of that child's work.
    """
    n = _workers(sum(traj.times.size * (1 + traj.data.shape[1]) for traj, _ in jobs))
    blocks = [
        [_csv_blocks(traj, traj.times.size * w // n, traj.times.size * (w + 1) // n) for w in range(n)]
        for traj, _ in jobs
    ]

    def child_ranges(w):
        for (traj, _), ranges in zip(jobs, blocks):
            yield "".join([_csv_text(traj, s, e) for s, e in ranges[w]]).encode("ascii")

    with _forked(n, child_ranges) as pipes:
        for (traj, path), ranges in zip(jobs, blocks):
            with open(path, "w") as fh:
                fh.write("t," + ",".join(traj.channels) + "\n")
                for s, e in ranges[0]:
                    fh.write(_csv_text(traj, s, e))
                for pipe, child_range in zip(pipes, ranges[1:]):
                    text = _receive(pipe)
                    if text is None:
                        for s, e in child_range:
                            fh.write(_csv_text(traj, s, e))
                    else:
                        fh.write(text.decode("ascii"))


def _csv_blocks(traj, start, stop):
    """Rows start to stop - 1 as (first, end) blocks of about
    CSV_BLOCK_VALUES values."""
    rows = max(1, CSV_BLOCK_VALUES // (1 + traj.data.shape[1]))
    return [(s, min(s + rows, stop)) for s in range(start, stop, rows)]


def _csv_text(traj, first, end):
    """The CSV lines of rows first to end - 1."""
    block = np.column_stack([traj.times[first:end], traj.data[first:end]]).tolist()
    return "".join([",".join(map(repr, row)) + "\n" for row in block])


def _available_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(size):
    """Processes for CSV work of the given size (values to write, or
    bytes to read): one per available CPU, but none beyond one per
    CSV_BLOCK_VALUES of the size, and one where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_available_cpus(), size // CSV_BLOCK_VALUES))


@contextlib.contextmanager
def _forked(n, messages):
    """Fork children 1 to n - 1 of this process and yield, in order, the
    read end of each one's pipe (None where no child could be made).

    Child w sends each bytes object of messages(w) here over its own
    pipe, length-prefixed, and leaves by os._exit: 0 once all are sent,
    1 on any exception. It never returns into the caller's code, prints
    nothing, and neither flushes inherited stdio buffers nor runs atexit
    handlers. Children format and parse CSV only, so they never enter a
    BLAS thread pool inherited through the fork.

    _receive(pipe) returns the child's next message, or None from the
    first one that does not arrive whole: the fork failed, or the child
    raised (so exits 1) or was killed, and its pipe closed early. Leaving
    the block closes every pipe, so a child still sending stops, and
    reaps every child, also when SIGCHLD is ignored.
    """
    children = []  # (pid, pipe), or (None, None) where no child could be made
    try:
        for w in range(1, n):
            try:
                r, wfd = os.pipe()
            except OSError:  # no descriptor to spare: this process does child w's work
                children.append((None, None))
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to spare: likewise
                os.close(r)
                os.close(wfd)
                children.append((None, None))
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, pipe in children:  # a sibling's pipe must close when this process closes it
                        if pipe is not None:
                            pipe.close()
                    with open(wfd, "wb") as out:
                        for message in messages(w):
                            out.write(len(message).to_bytes(8, "little"))
                            out.write(message)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append((pid, open(r, "rb")))
        yield [pipe for _, pipe in children]
    finally:
        for _, pipe in children:
            if pipe is not None:
                pipe.close()
        for pid, _ in children:
            if pid is not None:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:  # reaped by the system, as when SIGCHLD is ignored
                    pass


def _receive(pipe):
    """The next length-prefixed message on pipe, or None where none
    arrives whole."""
    size = _message_size(pipe)
    message = b"" if size is None else pipe.read(size)
    return message if len(message) == size else None


def _message_size(pipe):
    """The length prefix of the next message on pipe, or None where none
    arrives."""
    head = b"" if pipe is None else pipe.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory_to_csv file; non-UTF-8 content or a bad header,
    row or cell is an InputFormatError.

    The body is parsed by up to one process per available CPU, over byte
    ranges (_read_csv_in_ranges), into the arrays the one-process reader,
    _read_csv, returns. Wherever that does not apply or any range fails,
    _read_csv reads the file, and gives every diagnostic.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            traj = _read_csv_in_ranges(fh.buffer)
            return _read_csv(fh, path) if traj is None else traj
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _read_csv_in_ranges(raw):
    """The trajectory in the binary file raw, read by _workers(body
    bytes) processes; None, with raw back at its start, where the file
    cannot be seeked (a FIFO), nothing would fork, or any range fails.

    The header line must end in LF or CRLF (a lone CR is left to
    _read_csv). The body is cut after LF bytes into one range per
    process: a UTF-8 multibyte sequence never holds the byte LF, so a cut
    never splits a character, and a CRLF ends before its cut. This
    process parses range 0 and forked child w range w, each as _read_csv
    parses a body (_parse_rows); a child sends its float64 bytes. Every
    range must hold rows of the header's width.

    Range 0's array is grown in place (realloc) and the children's rows
    are read into it, so no second copy of the rows is made and freed: a
    freed block of megabytes raises glibc's dynamic mmap threshold, and
    later numpy arrays of that size then grow the heap instead.
    """
    if not raw.seekable():
        return None
    try:
        line = raw.readline()
        head = line[:-2] if line.endswith(b"\r\n") else line.removesuffix(b"\n")
        header = head.decode("utf-8").strip().split(",")
        size = raw.seek(0, os.SEEK_END)
        body = len(line)
        n = _workers(size - body)
        if b"\r" in head or header[0] != "t" or n == 1:
            return None
        cuts = [body]
        for w in range(1, n):
            raw.seek(body + (size - body) * w // n)
            rest = raw.readline((size - body) // n)
            if not rest.endswith(b"\n"):  # no LF within a range's length
                return None
            cuts.append(raw.tell())
        cuts.append(size)
        width = len(header)

        def rows(w):
            return _parse_rows(_ByteRange(raw.fileno(), cuts[w], cuts[w + 1]), width)

        with _forked(n, lambda w: [rows(w).tobytes()]) as pipes:
            arr = rows(0)
            sizes = [_message_size(pipe) for pipe in pipes]
            if None in sizes:
                return None
            start = len(arr)
            arr.resize((start + sum(sizes) // (8 * width), width), refcheck=False)  # loadtxt's array owns its data
            for pipe, nbytes in zip(pipes, sizes):
                stop = start + nbytes // (8 * width)
                if pipe.readinto(memoryview(arr[start:stop]).cast("B")) != nbytes:
                    return None
                start = stop
        return Trajectory(arr[:, 0], arr[:, 1:], tuple(header[1:])) if arr.size else None
    except (OSError, ValueError):  # UnicodeDecodeError too: _read_csv meets the fault again
        return None
    finally:
        raw.seek(0)


class _ByteRange(io.RawIOBase):
    """Bytes start to stop - 1 of the file open as fd, read by pread, which
    neither reads nor moves the descriptor's offset."""

    def __init__(self, fd, start, stop):
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self.fd, min(len(buffer), self.stop - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _parse_rows(raw, width):
    """The rows of CSV body bytes in the binary stream raw, decoded and
    parsed as _read_csv parses a body; ValueError unless each row has
    width cells."""
    with warnings.catch_warnings():  # loadtxt warns of a range without rows
        warnings.simplefilter("ignore", UserWarning)
        arr = np.loadtxt(io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8"),
                         delimiter=",", comments=None, ndmin=2)
    if arr.shape[1] != width:
        raise ValueError(f"{arr.shape[1]} columns, {width} expected")
    return arr


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
