"""The benchmark's workloads and the checks on every operation.

Each workload is single-process and closed-loop: one operation at a
time, the next starting when the previous one has returned and been
checked. A workload is built from a seed (its set-up), warmed up once on
a smaller input, and then run pass after pass; a pass runs each of the
workload's operations once. Every operation's output is checked, and a
failed check counts against the operations attempted.

The program is called through attributes of the ``kronred`` package, so
the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import kronred
import kronred.cli

import inputs
import speed

PHASOR_OMEGA = 2.0 * math.pi * inputs.FREQ_HZ
EXACT_REL_TOL = 1e-6        # reduced vs oracle, relative to the oracle's peak
KCL_TOL = 1e-9              # |B0 P| relative to max |P|
TRANSFER_REL_TOL = 1e-8     # Bhat Lhat^-1 Bhat^T across strategies
PHASOR_TOL = 1e-9           # Yr asymmetry and row sums relative to max |Yr|


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class Recorder:
    """Operation timings and check outcomes of one phase of a run.

    With calibrate, the machine's speed is sampled (speed.sample) right
    before and after every operation, outside its timing, and each
    operation's time is also kept scaled to the reference speed by the
    mean of its two samples. A pass's scaled time is the sum of its
    operations' scaled times.
    """

    def __init__(self, calibrate=False):
        self.samples = defaultdict(list)         # wall seconds per operation
        self.pass_times = []                     # wall seconds per pass, checks included
        self.attempted = 0
        self.failed = 0
        self.calibrate = calibrate
        self.speed_samples = []
        self.scaled = defaultdict(list)          # seconds at the reference speed
        self.scaled_pass_times = []
        self._pass_scaled = 0.0

    def op(self, name, fn, check):
        """Time fn(), then check its result; a raise from either fails it.

        Returns the result, or None when the operation failed.
        """
        self.attempted += 1
        before = speed.sample() if self.calibrate else None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self._fail(name)
            return None
        elapsed = time.perf_counter() - t0
        self.samples[name].append(elapsed)
        if self.calibrate:
            after = speed.sample()
            self.speed_samples += (before, after)
            scaled = speed.scale(elapsed, before, after)
            self.scaled[name].append(scaled)
            self._pass_scaled += scaled
        try:
            check(result)
        except Exception:
            self._fail(name)
            return None
        return result

    def end_pass(self, wall):
        self.pass_times.append(wall)
        if self.calibrate:
            self.scaled_pass_times.append(self._pass_scaled)
            self._pass_scaled = 0.0

    def _fail(self, name):
        self.failed += 1
        print(f"perfbench: operation {name} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def check_model(grid, model):
    """Order E - N0, edge order kept, B0 P = 0 and Bhat = B1 P."""
    _require(model.order == grid.order, f"order {model.order} != E - N0 = {grid.order}")
    _require(model.P.shape == (grid.n_edges, grid.order), f"P has shape {model.P.shape}")
    _require(model.edge_ids == tuple(e.id for e in grid.network.edges), "edge order changed")
    scale = max(_max_abs(model.P), 1.0)
    _require(_max_abs(grid.B0 @ model.P) <= KCL_TOL * scale, "B0 P != 0")
    _require(_max_abs(model.Bhat - grid.B1 @ model.P) <= KCL_TOL * scale * _max_abs(model.Bhat),
             "Bhat != B1 P")


def transfer(model):
    """Bhat Lhat^-1 Bhat^T, the boundary map every valid P must agree on."""
    return model.Bhat @ np.linalg.solve(model.Lhat, model.Bhat.T)


def check_transfer(K, reference):
    rel = _max_abs(K - reference) / _max_abs(reference)
    _require(rel <= TRANSFER_REL_TOL, f"Bhat Lhat^-1 Bhat^T differs by {rel:.3g} relative")


def check_phasor(reduced):
    Yr = reduced.Yr
    scale = _max_abs(Yr)
    _require(_max_abs(Yr - Yr.T) <= PHASOR_TOL * scale, "Yr is not symmetric")
    _require(_max_abs(Yr.sum(axis=1)) <= PHASOR_TOL * scale, "Yr rows do not sum to zero")


def check_trajectory(traj, n_samples, n_channels):
    _require(traj.data.shape == (n_samples, n_channels), f"trajectory shape {traj.data.shape}")
    _require(bool(np.all(np.isfinite(traj.data))), "trajectory is not finite")


def check_exact(cmp):
    _require(cmp["max_rel"] <= EXACT_REL_TOL, f"reduced vs oracle max_rel {cmp['max_rel']:.3g}")


def check_same(a, b):
    _require(a.channels == b.channels, "CSV channels differ")
    _require(np.array_equal(a.times, b.times) and np.array_equal(a.data, b.data),
             "CSV read-back differs from the trajectory")


class WyePaper:
    """The paper's wye experiment through the CLI, in process, at its
    defaults: dt=1e-4, t_end=10, stride 10, so 7 simulations of 100k
    RK4 steps with E=3 and order 2 per call. The step loop and CSV
    formatting do nearly all the work."""

    name = "wye_paper"
    ops = ("paper_sinusoid_s", "paper_step_s")

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.facts = {"dt_s": 1e-4, "t_end_s": 10.0, "record_stride": 10, "E": 3, "N0": 1, "order": 2}

    def _call(self, which, extra=()):
        out = self.workdir / which
        summary_path = out / "summary.json"
        summary_path.unlink(missing_ok=True)
        argv = ["paper-experiment", "--which", which, "--out-dir", str(out),
                "--seed", str(int(self.rng.integers(2**31))), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = kronred.cli.main(argv)
        return code, summary_path

    @staticmethod
    def _check(result):
        code, summary_path = result
        _require(code == 0, f"exit code {code}")
        with open(summary_path) as fh:
            summary = json.load(fh)
        failed = [k for k, ok in summary["observations"].items() if ok is not True]
        _require(not failed, f"observations not met: {failed}")
        check_exact(summary["reduced_vs_oracle"])

    def warm_up(self):
        for which in ("sinusoid", "step"):
            self._call(which, ("--t-end", "0.2"))

    def run_pass(self, rec):
        for which in ("sinusoid", "step"):
            rec.op(f"paper_{which}_s", lambda: self._call(which), self._check)


class GridReduce:
    """Seeded k x k grids (boundary = one side) through every P strategy
    and through phasor Kron reduction. reduction, linalg and phasor do
    all the work; nothing is simulated."""

    ops = ("reduce_tree_s", "reduce_nullbasis_s", "reduce_modal_s", "kron_phasor_s")
    # The reference strategy goes first; the others are checked against it.
    strategies = ("nullbasis", "tree", "modal")

    def __init__(self, seed, workdir, sizes=(20, 30)):
        rng = np.random.default_rng(seed)
        self.grids = [inputs.grid_network(k, rng) for k in sizes]
        for grid in self.grids:
            kronred.validate(grid.network)
        self.largest = sizes[-1]
        self.facts = {
            "grids": [{"k": g.k, "E": g.n_edges, "N0": g.n_interior, "order": g.order} for g in self.grids],
            "phasor_omega_rad_s": PHASOR_OMEGA,
            "E": self.grids[-1].n_edges, "N0": self.grids[-1].n_interior, "order": self.grids[-1].order,
        }

    def _pass(self, rec, grids):
        for grid in grids:
            sfx = "" if grid.k == self.largest else f"_k{grid.k}"
            reference = None
            for strategy in self.strategies:
                def check(model, grid=grid):
                    check_model(grid, model)
                    if reference is not None:
                        check_transfer(transfer(model), reference)
                model = rec.op(f"reduce_{strategy}{sfx}_s",
                               lambda: kronred.reduce(grid.network, kronred.PStrategy(strategy)), check)
                if reference is None and model is not None:
                    reference = transfer(model)
            rec.op(f"kron_phasor{sfx}_s",
                   lambda: kronred.kron_reduce(kronred.admittance(grid.network, PHASOR_OMEGA)),
                   check_phasor)

    def warm_up(self):
        self._pass(Recorder(), self.grids[:1])

    def run_pass(self, rec):
        self._pass(rec, self.grids)


class GridSimulate:
    """A seeded 15 x 15 grid (E=420, N0=210, order 210) driven by one
    sinusoid per boundary node: reduce, simulate the reduced model and
    the DAE oracle for 10k steps, compare the injections, and write and
    read back both trajectories. The state is wide and the horizon
    short, so BLAS matvecs, the forcing precompute and wide CSV rows
    take the time."""

    ops = ("simulate_reduced_s", "simulate_oracle_s", "csv_roundtrip_s")

    def __init__(self, seed, workdir, k=15, t_end=1.0):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.grid = inputs.grid_network(k, rng)
        kronred.validate(self.grid.network)
        self.excitation = inputs.boundary_sinusoids(self.grid, rng)
        self.f0 = inputs.consistent_flows(self.grid, rng)
        self.cfg = kronred.SolverConfig(dt=1e-4, t_end=t_end, record_stride=10)
        self.n_steps = self.cfg.n_steps
        self.facts = {"k": k, "E": self.grid.n_edges, "N0": self.grid.n_interior, "order": self.grid.order,
                      "dt_s": self.cfg.dt, "t_end_s": self.cfg.t_end, "record_stride": self.cfg.record_stride}

    def _pass(self, rec, cfg):
        g = self.grid
        n_samples = -(-cfg.n_steps // cfg.record_stride) + 1
        nb = len(g.network.boundary)
        model = rec.op("reduce_s", lambda: kronred.reduce(g.network, kronred.PStrategy.ORTHONORMAL_NULL_BASIS),
                       lambda m: check_model(g, m))
        if model is None:
            return
        reduced = rec.op("simulate_reduced_s",
                         lambda: kronred.simulate_reduced(model, self.excitation, self.f0, cfg),
                         lambda t: check_trajectory(t, n_samples, g.order + nb))
        oracle = rec.op("simulate_oracle_s",
                        lambda: kronred.simulate_dae_oracle(g.network, self.excitation, self.f0, cfg),
                        lambda t: check_trajectory(t, n_samples, g.n_edges + nb + g.n_interior))
        if reduced is None or oracle is None:
            return
        channels = [f"i_{n}" for n in g.network.boundary]
        rec.op("compare_s", lambda: kronred.compare_trajectories(reduced, oracle, channels=channels), check_exact)
        paths = (self.workdir / "reduced.csv", self.workdir / "dae.csv")

        def roundtrip():
            for traj, path in zip((reduced, oracle), paths):
                kronred.trajectory_to_csv(traj, path)
            return [kronred.trajectory_from_csv(path) for path in paths]

        def check(back):
            check_same(back[0], reduced)
            check_same(back[1], oracle)

        rec.op("csv_roundtrip_s", roundtrip, check)

    def warm_up(self):
        self._pass(Recorder(), kronred.SolverConfig(dt=1e-4, t_end=0.05, record_stride=10))

    def run_pass(self, rec):
        self._pass(rec, self.cfg)


class Grid:
    """GridSimulate, then GridReduce, in one pass, each from its own
    stream of the seed. The two are one workload so that the benchmark
    has two, each with long runs: the machine's speed drifts over tens
    of seconds, and a run must span enough of it to give a steady
    median within the time allowed for all runs. Simulate goes first:
    the other way round, the oracle's arrays landed in a heap that the
    k=30 reductions had left fragmented by seed-dependent amounts, and
    the peak RSS differed by up to 12% between seeds."""

    name = "grid"
    ops = GridReduce.ops + GridSimulate.ops

    def __init__(self, seed, workdir):
        reduce_seed, simulate_seed = np.random.SeedSequence(seed).spawn(2)
        simulate_part = GridSimulate(simulate_seed, workdir)
        reduce_part = GridReduce(reduce_seed, workdir)
        self.parts = (simulate_part, reduce_part)
        self.n_steps = simulate_part.n_steps
        largest = reduce_part.facts
        self.facts = {"reduce": largest, "simulate": simulate_part.facts,
                      "E": largest["E"], "N0": largest["N0"], "order": largest["order"]}

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    def run_pass(self, rec):
        for part in self.parts:
            part.run_pass(rec)


WORKLOADS = {w.name: w for w in (WyePaper, Grid)}


def run_passes(work, rec, seconds, between=None):
    """Run whole passes while another one of median length still fits in
    `seconds` (at least one pass), so that a run ends on time however
    long a pass is. between(fraction of `seconds` done), if given, runs
    after each pass but the last, and its own time is not counted."""
    start = time.perf_counter()
    paused = 0.0
    while True:
        calibrating = sum(rec.speed_samples)
        t0 = time.perf_counter()
        work.run_pass(rec)
        end = time.perf_counter()
        rec.end_pass(end - t0 - (sum(rec.speed_samples) - calibrating))
        done = end - start - paused
        if done + statistics.median(rec.pass_times) > seconds:
            return
        if between is not None:
            between(done / seconds)
            paused += time.perf_counter() - end
