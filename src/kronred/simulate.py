"""Time integration and steady-state extraction.

Every run is fixed-step classical RK4 on a linear time-invariant system
y' = A y + B u(t), with the inputs pre-evaluated on the half-step stage
grid so runs are deterministic. Both cores step from record to record
by one rule: _pieces cuts every record interval, a last short one too,
into pieces of at most RECORD_BLOCK_STEPS steps. The chain carries w,
the state less the forcing of the stage point it stands on, so a piece
of l steps is w <- M^l w + z, and its forced part z is one kernel over
its first 2l stage inputs. The forced parts of all pieces of one length
are then one matrix product with a strided view of the stage inputs
(_stage_rows); only the chain over pieces is a loop. Two cores carry out
the recurrence:

* _rk4_modal — decoupled scalar modes z' = -diag(d) z + Bm v1(t), each
  chained over the pieces by one banded LAPACK solve. A validated
  reduced pencil is symmetric-definite, so one congruence, the model's
  own ReducedModel.modal (V, W, d), brings simulate_reduced to this form
  with Bm = W Bhat^T; a modal model, a model without interior nodes (the
  baseline sweep's synthesized network) and simulate_homogeneous
  (Bm = Lred) are diagonal already.
* _rk4_lti — the dense RK4 map, used only by simulate_dae_oracle: the
  full constrained model, converted to an ODE by solving for interior
  voltages at every stage (index-1 reduction). Its kernel is built by
  dense products with the step map, and its chain is one matrix-vector
  product per piece, with the step map's power for that piece's length,
  every length from one chain of squares. It shares neither the
  projection machinery nor the modal core (only the RK4 stability rule,
  _rk4_decay_factor, and the indexing of _record_steps, _pieces and
  _stage_rows), so it stays an independent reference.

simulate_reduced_batch and simulate_homogeneous run through one body,
_modal_runs, and differ only in (d, Bm, z0) and the map from modal states
to channels. Every run, the oracle's too, is checked against
MAX_RUN_BYTES before its excitation is sampled (_check_run_size), and
builds its Trajectory through one guard, _finite_trajectory: a state or
output that overflows ends the run in InputFormatError, never in a NaN
or inf sample.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtbtrs

# The CSV functions stay simulate attributes, as the same objects, for the
# callers that name them here (perfbench/spans.py times them by that name).
from .csvio import Trajectory, trajectory_from_csv, trajectory_to_csv  # noqa: F401
from .errors import (
    ConstraintDriftError,
    InconsistentInitialConditionError,
    InputFormatError,
    LostPrecisionError,
    SolverConfigError,
    UnstableTimeStepError,
)
from .network import IncidenceMatrix, Network, build_incidence
from .reduction import HomogeneousReducedModel, ReducedModel, embed_initial
from .signals import Excitation

# Interior current balance of initial flows and the DAE oracle's drift guard, relative to the flow scale.
DRIFT_TOL = 1e-7

# Largest span of l over the edges that meet an interior node that the DAE
# oracle runs. Past it, interior potentials follow the shortest edges so
# closely that the voltages across them cancel to rounding, and the flows
# drift off the interior current balance by more than the drift check can
# see. The error follows the span over the network, not at one node: on
# chains, wyes and 600 random networks, every run spanning at most 1e8 agreed
# with the reduced model to 1.5e-7, and the first to miss 1e-6 spans 1e9
# (README). The paper's wye spans 1.4, the benchmark grids 2.
ORACLE_SPAN_MAX = 1e8

# Relative tolerance on t_end / dt being a whole number of steps.
GRID_RTOL = 1e-9

# Most RK4 steps one run may take: 100 times the paper experiment's 1e5.
# The stage grid and the sampled excitation are sized 2 * n_steps + 1.
MAX_STEPS = 10_000_000

# Most bytes a run may hold in the arrays that grow with its horizon: the
# stage grid, the stage inputs, the forced parts of its pieces and its
# records (_check_run_size). A 1e6-step run of the 15 x 15 benchmark grid
# at record stride 1000 holds about 0.26 GiB.
MAX_RUN_BYTES = 2**30

# Most steps in one piece of a record interval (_pieces). Both RK4 cores
# hold a kernel of 2 * RECORD_BLOCK_STEPS stage points per input and state,
# and the oracle builds its kernel by that many dense products. On the
# 15 x 15 grid (one BLAS thread, 2-core VM), at 32, 64 and 128 the oracle
# took 0.057, 0.071 and 0.092 s for 1e4 steps at stride 1000, and the
# reduced model 0.084, 0.077 and 0.073 s for 1e5 steps at stride 1e5.
# Shorter pieces leave the oracle more steady-state bias, eps / (l dt d).
RECORD_BLOCK_STEPS = 64


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



def _record_steps(n_steps, record_stride):
    """Steps 0, stride, 2*stride, ... plus the final step n_steps, as int64."""
    steps = np.arange(0, n_steps + 1, record_stride, dtype=np.int64)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _pieces(n_steps, record_stride):
    """The horizon cut into the pieces both RK4 cores step at once.

    Every record interval, a last one shorter than record_stride too, is
    cut into blocks of RECORD_BLOCK_STEPS steps and one shorter block for
    what remains. Returns (lengths, runs, ends):
    * lengths[p], the steps of piece p, the pieces in time order;
    * runs, tuples (length, start, count, period, pieces): count pieces
      of that length, from steps start, start + period, ..., which are
      lengths[pieces] (a slice). Every piece is in exactly one run;
    * ends[i], the piece that ends at record i + 1 of _record_steps.
    """
    full = n_steps // record_stride
    block = RECORD_BLOCK_STEPS
    runs, ends, p = [], [], 0
    for start, reps, span in ((0, full, record_stride), (full * record_stride, 1, n_steps - full * record_stride)):
        if not (reps and span):
            continue
        blocks, rest = divmod(span, block)
        per = blocks + (rest > 0)
        if not rest:  # the blocks tile every interval: one run
            runs.append((block, start, reps * blocks, block, slice(p, p + reps * per)))
        elif blocks > reps:  # a run per interval, each of that interval's blocks
            runs += [(block, start + r * span, blocks, block, slice(p + r * per, p + r * per + blocks))
                     for r in range(reps)]
        else:  # a run per block position, across the intervals
            runs += [(block, start + i * block, reps, span, slice(p + i, p + reps * per, per))
                     for i in range(blocks)]
        if rest:
            runs.append((rest, start + blocks * block, reps, span, slice(p + blocks, p + reps * per, per)))
        ends.append(p + per * np.arange(1, reps + 1) - 1)
        p += reps * per
    lengths = np.empty(p, dtype=np.int64)
    for length, _, _, _, pieces in runs:
        lengths[pieces] = length
    return lengths, runs, np.concatenate(ends)


def _stage_rows(v1, start, count, period, points):
    """count rows of `points` consecutive stage points of the C-ordered v1,
    from stage points start, start + period, ...: a read-only
    (count, points * inputs) view, no copy."""
    return np.lib.stride_tricks.as_strided(
        v1[start:], (count, points * v1.shape[1]), (period * v1.strides[0], v1.strides[1]), writeable=False
    )


def _rk4_lti(A, B, u, y0, dt, n_steps, record_stride):
    """Integrate y' = A y + B u(t) with classical RK4.

    u holds the inputs on the half-step grid t_k = k*dt/2, shape
    (2*n_steps + 1, inputs). Returns (record_steps, states) where
    states[i] is y at step record_steps[i].

    The system is LTI, so one RK4 step is y <- M y + g_n, with the step
    forcing g_n = F0 B u_2n + Fm B u_2n+1 + F1 B u_2n+2 taken through the
    input width. The run steps from piece to piece (_pieces). It carries
    w = y - F1 B u(t), the state less the forcing of the stage point it
    stands on, so a piece of l steps is w <- M^l w + z, and its forced
    part z is one kernel over the piece's first 2l stage points: step j's
    blocks (F0 + F1 M) B and Fm B, times M^(l-1-j). The longest piece's
    kernel is built by l - 1 products of (2 inputs x dim)(dim x dim),
    and a shorter piece's is its tail. The forced parts of the pieces of
    one run are then one product of that kernel with a strided view of
    u, and only the chain over pieces is a loop. This is the discrete
    map of stepping every step, up to rounding.

    M^l is I plus M^l - I powered from N = M - I (_step_powers). M, rounded
    to the grid of I, is off by up to eps / (dt d) relative in 1 - m for a
    mode decaying at rate d, and powering M would keep that error in 1 - m^l:
    a steady-state bias. Rounding I + (M^l - I) once errs by eps / (l dt d).
    """
    record_steps = _record_steps(n_steps, record_stride)
    u = np.ascontiguousarray(u, dtype=float)
    N, G = _rk4_step_map(A, B, dt)
    F1B = G[2 * B.shape[1]:]
    lengths, runs, ends = _pieces(n_steps, record_stride)
    z = _lti_forced_parts(N, G, u, runs, lengths.size)
    I = np.eye(N.shape[0])
    maps = {length: (I + power).dot for length, power in _step_powers(N, {run[0] for run in runs}).items()}
    out = np.empty((record_steps.size, N.shape[0]))
    out[0] = y0
    w = out[0] - u[0] @ F1B
    p = 0
    for i, end in enumerate(ends, 1):
        for length in lengths[p:end + 1].tolist():
            w = maps[length](w) + z[p]
            p += 1
        out[i] = w
    out[1:] += u[2 * record_steps[1:]] @ F1B
    return record_steps, out


def _rk4_step_map(A, B, dt):
    """(N, G) of one RK4 step y <- (I + N) y + g_n of y' = A y + B u(t),
    with g_n = [u_2n, u_2n+1, u_2n+2] G and G = [F0 B | Fm B | F1 B]^T.
    A function of its own, so that its dim x dim temporaries are freed
    before _rk4_lti builds its kernel and powers."""
    h6 = dt / 6.0
    A1 = dt * A
    A2 = A1 @ A1
    N = A1 + A2 / 2.0 + (A2 @ A1) / 6.0 + (A2 @ A2) / 24.0
    B1, B2 = A1 @ B, A2 @ B
    G = np.vstack([(B + B1 + B2 / 2.0 + (A1 @ B2) / 4.0).T, (4.0 * B + 2.0 * B1 + B2 / 2.0).T, B.T])
    return N, h6 * G


def _lti_forced_parts(N, G, u, runs, n_pieces):
    """The forced parts z[p] of _rk4_lti's pieces, the runs of _pieces.

    kernel[i] holds the blocks of stage points 2i and 2i + 1 of a piece
    of the longest length: (F0 + F1 M) B and Fm B, transposed, times
    (M^T)^q for the q = longest - 1 - i steps after step i.
    """
    nb = G.shape[0] // 3
    longest = max(run[0] for run in runs)
    Mt = (N + np.eye(N.shape[0])).T
    kernel = np.empty((longest, 2 * nb, N.shape[0]))
    X = np.vstack([G[:nb] + G[2 * nb:] @ Mt, G[nb:2 * nb]])
    for q in range(longest):
        kernel[-1 - q] = X
        if q + 1 < longest:
            X = X @ Mt
    kernel = kernel.reshape(2 * longest * nb, N.shape[0])
    z = np.empty((n_pieces, N.shape[0]))
    for length, start, count, period, pieces in runs:
        np.matmul(_stage_rows(u, 2 * start, count, 2 * period, 2 * length), kernel[2 * nb * (longest - length):],
                  out=z[pieces])
    return z


def _step_powers(N, lengths):
    """{l: M^l - I} for M = I + N and each int l >= 1 of lengths, by binary
    powering kept in the N domain, (I + X)(I + Y) - I = X + Y + X Y, so it
    holds N's relative precision that forming I + N rounds away. Every
    length takes its bits of one shared chain of squares M^(2^k) - I."""
    powers, square, bit = {}, N, 1
    while True:
        for length in lengths:
            if length & bit:
                power = powers.get(length)
                powers[length] = square if power is None else power + square + power @ square
        bit <<= 1
        if bit > max(lengths):
            return powers
        square = 2.0 * square + square @ square


def _rk4_modal(d, Bm, v1, z0, dt, n_steps, record_stride):
    """Integrate decoupled modes z' = -diag(d) z + Bm v1(t) with classical RK4.

    v1 holds the inputs on the half-step grid, shape (2*n_steps + 1,
    inputs), and Bm maps them onto the modes, shape (order, inputs). z0 has
    shape (order, runs), the runs sharing d and the forcing. One RK4 step
    of mode k is z <- m_k z + g_n, the diagonal of _rk4_lti's recurrence,
    with g_n = [c0 Bm | cm Bm | h6 Bm] [v1_2n; v1_2n+1; v1_2n+2]. As in
    _rk4_lti the run steps from piece to piece (_pieces) and carries
    w = z - h6 Bm v1(t), so a piece of l steps is w <- m^l w + f, and its
    forced part f is one kernel, diag(m^(l-1-j)) applied to step j's
    [(c0 + h6 m) Bm | cm Bm], over the piece's first 2l stage points. The
    forced parts of the pieces of one run are one product of that kernel
    with a strided view of v1, so no array as long as the horizon is
    formed but v1. Over the pieces mode k is the unit lower-bidiagonal
    system x_p - m_k^(l_p) x_(p-1) = f_p, solved per mode and run by
    LAPACK dtbtrs, and the pieces that end a record are kept. Returns
    (record_steps, states) with states shaped (n_records, order, runs).
    Raises UnstableTimeStepError when a decaying mode is past RK4's
    real-axis stability bound.
    """
    d = np.asarray(d, dtype=float)
    a = -dt * d
    m, p = _rk4_decay_factor(d, dt)
    h6 = dt / 6.0
    c0 = h6 * (1.0 + a + a**2 / 2.0 + a**3 / 4.0)
    cm = h6 * (4.0 + 2.0 * a + a**2 / 2.0)
    v1 = np.ascontiguousarray(v1, dtype=float)
    record_steps = _record_steps(n_steps, record_stride)
    lengths, runs, ends = _pieces(n_steps, record_stride)
    longest = max(run[0] for run in runs)
    log_power = np.multiply.outer(np.log1p(p), np.arange(longest + 1))
    # kernel[:, i] weighs stage points 2i and 2i + 1 of a piece of the
    # longest length: (c0 + h6 m) m^q and cm m^q for the q = longest - 1 - i
    # steps after step i. A shorter piece's kernel is the tail.
    power = np.exp(log_power[:, longest - 1::-1])
    coef = np.stack([(c0 + h6 * m)[:, None] * power, cm[:, None] * power], axis=2)
    nb = Bm.shape[1]
    kernel = (coef[:, :, :, None] * Bm[:, None, None, :]).reshape(d.size, 2 * longest * nb)
    forced = np.empty((d.size, lengths.size))
    for length, start, count, period, pieces in runs:
        body = _stage_rows(v1, 2 * start, count, 2 * period, 2 * length)
        np.matmul(kernel[:, 2 * nb * (longest - length):], body.T, out=forced[:, pieces])
    # m^l = 1 + e, for l up to longest, is rounded to the grid of 1, a
    # relative error of up to eps / (l dt d) in 1 - m^l that the recurrence
    # turns into a steady-state bias. m_lo is that rounding error (TwoSum),
    # fed back by a second solve below.
    e = np.expm1(log_power)
    m_l = 1.0 + e
    e_part = m_l - 1.0
    m_lo = (1.0 - (m_l - e_part)) + (e - e_part)
    w0 = np.asarray(z0, dtype=float) - h6 * (Bm @ v1[0])[:, None]
    shift = (h6 * Bm) @ v1[2 * record_steps[1:]].T   # z - w at each record
    out = np.empty((record_steps.size,) + w0.shape)
    out[0] = z0
    # band[1, p] is -m^l of piece p and lo[p] its m_lo, for mode k. The
    # banded matrix is band's columns from 1 on: row 0, the unit diagonal,
    # is not read, and row 1 holds the subdiagonal. Fortran order, so
    # dtbtrs takes it without a copy.
    band = np.ones((2, lengths.size + 1), order="F")
    ab = band[:, 1:]
    lo = np.empty(lengths.size)
    x = np.empty((lengths.size, 1), order="F")
    dx = np.empty((lengths.size, 1), order="F")
    # Runs are solved one column at a time: dtbtrs treats its columns
    # one by one anyway, and single columns keep the buffers small.
    for k in range(d.size):
        band[1, :-1], lo[:] = -m_l[k].take(lengths), m_lo[k].take(lengths)
        for r, wk0 in enumerate(w0[k]):
            x[:, 0] = forced[k]
            x[0] -= band[1, 0] * wk0
            _unit_bidiagonal_solve(ab, x)
            # x + dx solves the recurrence with the unrounded m^l, up to m_lo * dx.
            dx[0] = lo[0] * wk0
            np.multiply(x[:-1, 0], lo[1:], out=dx[1:, 0])
            _unit_bidiagonal_solve(ab, dx)
            x += dx
            np.add(x[ends, 0], shift[k], out=out[1:, k, r])
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
    with np.errstate(over="ignore", invalid="ignore"):  # an inductance or a model file's Bhat near the largest float
        z0 = W @ (model.Lhat @ fhat0)
        Bm = W @ model.Bhat.T
    if not np.all(np.isfinite(z0)):
        raise InputFormatError("the initial flux Lhat fhat0 of the reduced model overflows")

    def outputs(z):
        fhat = z @ V.T
        return fhat, fhat @ model.Bhat.T

    channels = tuple(f"fhat_{k}" for k in range(model.order)) + tuple(f"i_{n}" for n in model.boundary_nodes)
    return _modal_runs(excitation, model.boundary_nodes, d, Bm, z0, outputs, channels, cfg)


def _modal_runs(excitation, nodes, d, Bm, z0, outputs, channels, cfg):
    """A Trajectory per column of z0 of z' = -diag(d) z + Bm v1(t), v1 the excitation
    at nodes: the channel blocks outputs(z) of the run's states z (n_records, order)."""
    _check_run_size(cfg, len(nodes), d.size, len(channels) * z0.shape[1])
    v1 = excitation.evaluate(nodes, _stage_grid(cfg))
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_trajectory rejects what overflows
        steps, z = _rk4_modal(d, Bm, v1, z0, cfg.dt, cfg.n_steps, cfg.record_stride)
        return [_finite_trajectory(steps * cfg.dt, outputs(z[:, :, r]), channels) for r in range(z.shape[2])]


def _check_run_size(cfg, inputs, dim, channels):
    """SolverConfigError where the arrays of a run that grow with its
    horizon would hold more than MAX_RUN_BYTES: the stage grid and the
    stage inputs, 2 n_steps + 1 rows of 1 + inputs values; the forced
    parts of the pieces (_pieces), dim values each; and the records,
    channels values each (all runs' together). Worked out from cfg
    alone, before any of them is built."""
    full, rest = divmod(cfg.n_steps, cfg.record_stride)
    pieces = full * -(-cfg.record_stride // RECORD_BLOCK_STEPS) + -(-rest // RECORD_BLOCK_STEPS)
    records = full + 1 + (rest > 0)
    size = 8 * ((2 * cfg.n_steps + 1) * (1 + inputs) + pieces * dim + records * channels)
    if size > MAX_RUN_BYTES:
        raise SolverConfigError(
            f"{cfg.n_steps} steps recorded every {cfg.record_stride} need {size / 2**30:.3g} GiB"
            f" of stage inputs, forced parts and records, above the limit of {MAX_RUN_BYTES / 2**30:g} GiB"
        )


def _finite_trajectory(times, blocks, channels):
    """The Trajectory of the channel blocks side by side, the one way out of
    every run: InputFormatError where a state or an output overflows."""
    data = np.hstack(blocks)
    if not np.all(np.isfinite(data)):
        raise InputFormatError("the run's states or outputs overflow")
    return Trajectory(times, data, channels)


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

    A network whose edges that meet an interior node span more than a
    factor of ORACLE_SPAN_MAX in l raises LostPrecisionError before the
    run.
    """
    incidence = build_incidence(network)
    initial_injections(incidence, f0)
    r, l = network.r_vector(), network.l_vector()
    f0 = np.asarray(f0, dtype=float)
    B0 = incidence.b0.toarray()  # the oracle keeps its own dense algebra
    B1 = incidence.b1.toarray()
    # the edges that meet an interior node: an end on a row past the boundary's
    inner = np.flatnonzero(np.maximum(incidence.tail, incidence.head) >= len(incidence.boundary_nodes))
    if inner.size:
        lo, hi = inner[np.argmin(l[inner])], inner[np.argmax(l[inner])]
        span = float(l[hi]) / float(l[lo])  # inf past the largest float, and refused
        if not span <= ORACLE_SPAN_MAX:
            raise LostPrecisionError(
                f"the DAE oracle cannot resolve the network: the inductances of the edges at its interior "
                f"nodes span a factor of {span:.3g}, from edge {incidence.edge_ids[lo]!r} to edge "
                f"{incidence.edge_ids[hi]!r}, more than {ORACLE_SPAN_MAX:g}"
            )
    linv = 1.0 / l
    channels = (
        tuple(f"f_{e}" for e in incidence.edge_ids)
        + tuple(f"i_{n}" for n in incidence.boundary_nodes)
        + tuple(f"v0_{n}" for n in incidence.interior_nodes)
    )
    _check_run_size(cfg, len(incidence.boundary_nodes), r.size, len(channels))
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
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_trajectory rejects what overflows
        steps, f = _rk4_lti(A, B, v1, f0, cfg.dt, cfg.n_steps, cfg.record_stride)
        # Drift check on the algebraic constraint at each recorded sample and
        # interior node. A flow that is zero in exact arithmetic (an edge that
        # dead-ends in interior nodes) is rounding noise of the cancelled
        # forcing, which resistance does not damp (B0 f is a neutral mode):
        # a few ulps of f0 plus of the current the drive can ramp up over
        # t_end in the edges at that node. Drift below that floor is not drift.
        drift = np.abs(f @ B0.T)
        scale = np.max(np.abs(f), axis=1)
        ulps = 16.0 * np.finfo(float).eps  # taken first, so a drive near the largest float leaves the floor finite
        ramp = 2.0 * ulps * cfg.t_end * np.max(np.abs(v1), initial=0.0) * (np.abs(B0) @ linv)
        floor = ulps * np.max(np.abs(f0), initial=0.0) + ramp
        bad = np.any((drift > DRIFT_TOL * scale[:, None]) & (drift > floor), axis=1)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ConstraintDriftError(
                f"constraint drift {np.max(drift[i]):.3e} at t={steps[i] * cfg.dt:.6g} s"
            )
        v0 = f @ G.T + v1[2 * steps] @ H.T
        return _finite_trajectory(steps * cfg.dt, (f, f @ B1.T, v0), channels)


def simulate_homogeneous(
    model: HomogeneousReducedModel, excitation: Excitation, i1_0, cfg: SolverConfig
) -> Trajectory:
    """Integrate di1/dt = -alpha i1 + Lred v1 from the initial injections."""
    i1_0 = np.asarray(i1_0, dtype=float)
    channels = tuple(f"i_{n}" for n in model.boundary_nodes)
    return _modal_runs(excitation, model.boundary_nodes, np.full(i1_0.size, model.alpha), model.Lred,
                       i1_0[:, None], lambda i1: (i1,), channels, cfg)[0]
