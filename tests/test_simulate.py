import contextlib
import dataclasses
import io
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronred
from kronred import csvio as csvio_module
from kronred import experiment as experiment_module
from kronred import reduction as reduction_module
from kronred import simulate as simulate_module
from kronred import (
    Constant,
    Edge,
    Excitation,
    Network,
    PStrategy,
    Piecewise,
    Sinusoid,
    SolverConfig,
    Step,
    Trajectory,
    build_incidence,
    compare_trajectories,
    embed_initial,
    reduce,
    simulate_dae_oracle,
    simulate_homogeneous,
    simulate_reduced,
    validate,
)
from kronred.cli import main
from kronred.errors import (
    ConstraintDriftError,
    DimensionMismatchError,
    InconsistentInitialConditionError,
    InputFormatError,
    KronredError,
    SingularBlockError,
    SolverConfigError,
    UnstableTimeStepError,
)
from kronred.linalg import simultaneous_diagonalization
from kronred.reduction import homogeneous_reduce
from kronred.signals import excitation_from_dict
from kronred.simulate import (
    MAX_STEPS,
    RECORD_BLOCK_STEPS,
    _record_steps,
    _rk4_lti,
    _rk4_modal,
    _rk4_step_map,
    _stage_grid,
    _step_powers,
    initial_injections,
    simulate_reduced_batch,
    trajectory_from_csv,
    trajectory_to_csv,
)

from conftest import (
    make_balanced_wye,
    make_net_a,
    make_net_b,
    make_wye,
    random_connected_network,
    random_consistent_flow,
)
from reference import (
    InsufficientWindowError,
    excitation_to_dict,
    extract_steady_phasors,
    n_interior,
    read_csv_rows,
    rk4_lti_steps,
    write_csv_rows,
    zero_excitation,
)

# Every character str.strip removes; str.isspace holds for none above U+3000.
WHITE_SPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


class TestSignals:
    def test_sinusoid_at_zero(self):
        assert np.isclose(Sinusoid(120.0, 1.5, 0.0)(0.0), 120.0)

    def test_sinusoid_with_phase(self):
        s = Sinusoid(120.0, 1.5, math.radians(30.0))
        assert np.isclose(s(0.0), 120.0 * math.cos(math.radians(30.0)))
        assert np.isclose(s(0.0), 103.92304845413263)

    def test_step_closed_on_left(self):
        s = Step(value=5.0, t_step=1.0)
        assert np.array_equal(s([0.0, 0.999, 1.0, 2.0]), [0.0, 0.0, 5.0, 5.0])

    def test_constant(self):
        assert np.array_equal(Constant(3.0)([0.0, 7.0]), [3.0, 3.0])

    def test_piecewise_hold(self):
        p = Piecewise(((1.0, 2.0), (3.0, -1.0)))
        assert np.array_equal(p([0.5, 1.0, 2.0, 3.0, 4.0]), [0.0, 2.0, 2.0, -1.0, -1.0])

    def test_piecewise_rejects_unordered(self):
        with pytest.raises(ValueError):
            Piecewise(((2.0, 1.0), (1.0, 0.0)))

    def test_excitation_stacks_in_node_order(self):
        exc = Excitation({"a": Constant(1.0), "b": Constant(2.0)})
        out = exc.evaluate(("b", "a", "c"), [0.0, 1.0])
        assert np.array_equal(out, [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])

    def test_json_round_trip(self):
        exc = Excitation(
            {
                "1": Sinusoid(120.0, 1.5, math.radians(30.0)),
                "2": Step(100.0, 0.0),
                "3": Constant(7.0),
                "4": Piecewise(((0.5, 1.0),)),
            }
        )
        clone = excitation_from_dict(excitation_to_dict(exc))
        t = np.linspace(0.0, 2.0, 50)
        assert np.allclose(
            clone.evaluate(("1", "2", "3", "4"), t), exc.evaluate(("1", "2", "3", "4"), t)
        )

    def test_unknown_signal_type_rejected(self):
        with pytest.raises(InputFormatError):
            excitation_from_dict({"signals": {"1": {"type": "ramp", "slope": 1.0}}})

    def test_unknown_key_rejected(self):
        with pytest.raises(InputFormatError):
            excitation_from_dict({"signals": {"1": {"type": "constant", "value_v": 1, "x": 2}}})

    @pytest.mark.parametrize("breakpoints", [[[0.0, 1.0, 2.0]], [0.0, 1.0]], ids=["triple", "flat"])
    def test_breakpoints_must_be_pairs(self, breakpoints):
        with pytest.raises(InputFormatError, match=r"\[t, value\] pairs"):
            excitation_from_dict({"signals": {"1": {"type": "piecewise", "breakpoints": breakpoints}}})


class TestReducedSimulation:
    def test_single_edge_exponential_decay(self):
        # one r = l = 1 edge shorted at both ends: f(t) = f0 exp(-t)
        net = make_net_a(r=1.0, l=1.0)
        model = reduce(net)
        cfg = SolverConfig(dt=1e-3, t_end=1.0)
        traj = simulate_reduced(model, zero_excitation(), [2.0], cfg)
        assert np.max(np.abs(traj.channel("fhat_0") - 2.0 * np.exp(-traj.times))) <= 1e-8

    def test_zero_equilibrium(self, wye):
        model = reduce(wye)
        traj = simulate_reduced(model, zero_excitation(), np.zeros(3), SolverConfig(dt=1e-3, t_end=0.5))
        assert np.max(np.abs(traj.data)) == 0.0

    def test_initial_injections(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        traj = simulate_reduced(
            model, zero_excitation(), [-5.0, -5.0, 10.0], SolverConfig(dt=1e-3, t_end=0.1)
        )
        i0 = [traj.channel(f"i_{n}")[0] for n in ("1", "2", "3")]
        assert np.allclose(i0, [-5.0, -5.0, 10.0])

    def test_inconsistent_initial_flow_rejected(self, wye):
        model = reduce(wye)
        with pytest.raises(InconsistentInitialConditionError):
            simulate_reduced(model, zero_excitation(), [1.0, 0.0, 0.0], SolverConfig(dt=1e-3, t_end=0.1))

    def test_injections_conserve_current(self, rng):
        for _ in range(5):
            net = random_connected_network(rng)
            model = reduce(net)
            f0 = random_consistent_flow(net, rng)
            exc = Excitation({n: Sinusoid(10.0, 2.0, 0.0) for n in net.boundary[:1]})
            traj = simulate_reduced(model, exc, f0, SolverConfig(dt=1e-3, t_end=0.5))
            inj = np.column_stack([traj.channel(c) for c in traj.channels_with_prefix("i_")])
            scale = max(np.max(np.abs(inj)), 1e-300)
            assert np.max(np.abs(inj.sum(axis=1))) <= 1e-9 * scale

    def test_modal_model_skips_congruence(self, wye, monkeypatch):
        # A modal pencil is exactly diagonal, so the modal core must
        # not pay for a second O(n^3) congruence on it, also at grid scale
        # (order 129, 61 interior nodes), where the O(n) decoupled path
        # matters most.
        def congruence(*args):
            raise AssertionError("congruence computed")

        rng = np.random.default_rng(69)
        grid = random_connected_network(rng, n_max=120, e_max=200, min_interior=60)
        assert len(grid.edges) - n_interior(grid) == 129
        cfg = SolverConfig(dt=1e-3, t_end=0.1)
        # build_P's modal branch takes the congruence: build before patching
        cases = [
            (net, f0, reduce(net, PStrategy.MODAL_DIAGONALIZING))
            for net, f0 in ((wye, np.array([-5.0, -5.0, 10.0])), (grid, random_consistent_flow(grid, rng)))
        ]
        monkeypatch.setattr(reduction_module, "simultaneous_diagonalization", congruence)
        for net, f0, model in cases:
            traj = simulate_reduced(model, zero_excitation(), f0, cfg)
            inc = build_incidence(net)
            i0 = [traj.channel(f"i_{n}")[0] for n in inc.boundary_nodes]
            assert np.allclose(i0, inc.b1 @ f0)
            with pytest.raises(AssertionError, match="congruence"):
                simulate_reduced(reduce(net), zero_excitation(), f0, cfg)

    def test_nearly_diagonal_pencil_takes_congruence(self, monkeypatch):
        # A modal model whose pencil is diagonal only to rounding, such as
        # one assembled as P^T L P from the modal P, is not taken as
        # decoupled: eigh splits it, and the run matches the exact pencil's.
        rng = np.random.default_rng(69)
        net = random_connected_network(rng, n_max=40, e_max=70, min_interior=20)
        exact = reduce(net, PStrategy.MODAL_DIAGONALIZING)
        P = exact.P
        Lhat, Rhat = (P.T @ (w[:, None] * P) for w in (net.l_vector(), net.r_vector()))
        rounded = dataclasses.replace(exact, Lhat=0.5 * (Lhat + Lhat.T), Rhat=0.5 * (Rhat + Rhat.T))
        off = ~np.eye(exact.order, dtype=bool)
        assert 0 < np.max(np.abs(rounded.Lhat[off])) <= 1e-14
        calls = []

        def congruence(*args):
            calls.append(args)
            return simultaneous_diagonalization(*args)

        monkeypatch.setattr(reduction_module, "simultaneous_diagonalization", congruence)
        exc = Excitation({n: Sinusoid(10.0, 2.0, 0.0) for n in net.boundary})
        f0 = random_consistent_flow(net, rng)
        cfg = SolverConfig(dt=1e-3, t_end=0.5)
        reference = simulate_reduced(exact, exc, f0, cfg)
        assert not calls
        traj = simulate_reduced(rounded, exc, f0, cfg)
        assert len(calls) == 1
        assert _rel_dev(traj.data, reference.data) <= 1e-12

    def test_unforced_energy_nonincreasing(self, rng):
        for _ in range(5):
            net = random_connected_network(rng)
            model = reduce(net)
            f0 = random_consistent_flow(net, rng)
            traj = simulate_reduced(model, zero_excitation(), f0, SolverConfig(dt=1e-3, t_end=0.5))
            fhat = np.column_stack([traj.channel(c) for c in traj.channels_with_prefix("fhat_")])
            energy = np.einsum("ij,jk,ik->i", fhat, model.Lhat, fhat)
            assert np.all(np.diff(energy) <= 1e-12 * max(energy[0], 1e-300))


class TestDaeOracle:
    def test_dc_steady_state_series(self):
        # unit source across two series branches: f -> 1/(r1+r2), interior
        # voltage -> the divider value r2/(r1+r2) of the source
        net = make_net_b(r1=1.0, l1=0.3, r2=3.0, l2=0.7)
        exc = Excitation({"1": Constant(1.0)})
        traj = simulate_dae_oracle(net, exc, [0.0, 0.0], SolverConfig(dt=1e-3, t_end=8.0))
        assert np.isclose(traj.channel("f_e1")[-1], 0.25, atol=1e-9)
        assert np.isclose(traj.channel("f_e2")[-1], 0.25, atol=1e-9)
        assert np.isclose(traj.channel("v0_3")[-1], 0.75, atol=1e-9)

    def test_initial_injections(self, wye):
        traj = simulate_dae_oracle(
            wye, zero_excitation(), [-5.0, -5.0, 10.0], SolverConfig(dt=1e-3, t_end=0.1)
        )
        i0 = [traj.channel(f"i_{n}")[0] for n in ("1", "2", "3")]
        assert np.allclose(i0, [-5.0, -5.0, 10.0])

    def test_inconsistent_initial_flow_rejected(self, wye):
        with pytest.raises(InconsistentInitialConditionError):
            simulate_dae_oracle(wye, zero_excitation(), [1.0, 0.0, 0.0], SolverConfig(dt=1e-3, t_end=0.1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_initial_flow_rejected(self, wye, bad):
        # both passed the balance check: an all-nan trajectory
        with pytest.raises(InconsistentInitialConditionError):
            simulate_dae_oracle(wye, zero_excitation(), [bad, 0.0, 0.0], SolverConfig(dt=1e-3, t_end=0.1))

    def test_initial_balance_rule(self, wye):
        # B1 f0 for a balanced flow; the rule is max|B0 f0| <= DRIFT_TOL max|f0|
        inc = build_incidence(wye)
        assert np.array_equal(initial_injections(inc, [-5.0, -5.0, 10.0]), [-5.0, -5.0, 10.0])
        initial_injections(inc, [1.0, -1.0, 0.5e-7])
        with pytest.raises(InconsistentInitialConditionError):
            initial_injections(inc, [1.0, -1.0, 2e-7])
        # an inf flow between two boundary nodes shows in no interior
        # balance, and inf <= DRIFT_TOL * inf
        net = make_net_a()
        with pytest.raises(InconsistentInitialConditionError):
            initial_injections(build_incidence(net), [float("inf")])

    def test_no_interior_network(self):
        net = make_net_a(r=1.0, l=1.0)
        traj = simulate_dae_oracle(net, zero_excitation(), [2.0], SolverConfig(dt=1e-3, t_end=1.0))
        assert np.max(np.abs(traj.channel("f_e1") - 2.0 * np.exp(-traj.times))) <= 1e-8

    def test_unstable_step_rejected(self, wye):
        # the fastest wye mode decays at about 1.66/s; dt * max(r / l) is
        # 3.2 at dt = 1.8 and 2.85 at dt = 1.6, so both take the
        # eigenvalue test, and only dt = 1.8 is past RK4's bound
        f0 = [-5.0, -5.0, 10.0]
        with pytest.raises(UnstableTimeStepError) as exc_info:
            simulate_dae_oracle(wye, zero_excitation(), f0, SolverConfig(dt=1.8, t_end=18.0))
        assert exc_info.value.rate == pytest.approx(1.8 * 1.66, rel=1e-2)
        traj = simulate_dae_oracle(wye, zero_excitation(), f0, SolverConfig(dt=1.6, t_end=16.0))
        assert np.all(np.isfinite(traj.data))

    def test_unphysical_network_without_interior_nodes(self):
        # A = -diag(r / l) here, so the bound is exact: the oracle and the
        # modal core agree on every dt. The r < 0 edge grows in the
        # continuous model too and is not an RK4 instability.
        net = Network(
            ("1", "2", "3"),
            (Edge("a", "1", "2", -2.0, 1.0), Edge("b", "2", "3", 1.0, 1.0)),
            ("1", "2", "3"),
        )
        exc = Excitation({"1": Sinusoid(5.0, 0.1, 0.0)})
        f0 = [1.0, -1.0]
        model = reduce(net)
        cfg = SolverConfig(dt=2.78, t_end=27.8)
        oracle = simulate_dae_oracle(net, exc, f0, cfg)
        reduced = simulate_reduced(model, exc, f0, cfg)
        assert compare_trajectories(reduced, oracle)["max_rel"] <= 1e-9
        cfg = SolverConfig(dt=2.79, t_end=27.9)
        for run in (simulate_dae_oracle, lambda *args: simulate_reduced(model, *args[1:])):
            with pytest.raises(UnstableTimeStepError) as exc_info:
                run(net, exc, f0, cfg)
            assert exc_info.value.rate == pytest.approx(2.79)

    @pytest.mark.parametrize("r, l, dt", [(1.0, 0.5, 1e-3), (1e3, 1e-3, 1e-6)])
    def test_dead_end_edge_is_not_drift(self, r, l, dt):
        # The edge's flow is zero in exact arithmetic, so every sample is
        # rounding noise and all of it is B0 f; this used to raise
        # ConstraintDriftError at the first step. The noise scales with
        # 1/l, and a large r does not damp it (about 3e-13 A for l = 1e-3
        # with r = 1 or r = 1e3).
        net = validate(Network(("0", "1"), (Edge("e0", "1", "0", r, l),), ("0",)))
        exc = Excitation({"0": Sinusoid(64.0, 1.7, -2.75)})
        traj = simulate_dae_oracle(net, exc, [0.0], SolverConfig(dt=dt, t_end=0.05))
        assert np.max(np.abs(traj.channel("f_e0"))) <= 5e-15 / l

    def test_drift_raises(self, wye, monkeypatch):
        # a KCL violation of 1e-6 of the flow scale on the last sample
        def drifting(*args):
            steps, f = _rk4_lti(*args)
            f[-1] += 1e-6 * np.max(np.abs(f[-1])) * np.array([1.0, 0.0, 0.0])
            return steps, f

        monkeypatch.setattr(simulate_module, "_rk4_lti", drifting)
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0)})
        with pytest.raises(ConstraintDriftError):
            simulate_dae_oracle(wye, exc, [-5.0, -5.0, 10.0], SolverConfig(dt=1e-3, t_end=0.1))

    def test_drift_raises_on_stiff_mixed_network(self, monkeypatch):
        # One edge with l = 1e-6, the rest with r = 1e3, so the flows are
        # resistance-limited (about 1e-3 A) over a 10 s run. The rounding
        # floor of node "m" grows with the small l; a 1e-6 KCL violation
        # at node "n", which that edge does not meet, must still raise.
        net = validate(Network(("a", "b", "c", "m", "n"), (
            Edge("e0", "a", "m", 1e-3, 1e-6), Edge("e1", "m", "n", 1e3, 1.0),
            Edge("e2", "n", "b", 1e3, 1.0), Edge("e3", "n", "c", 1e3, 1.0),
        ), ("a", "b", "c")))
        exc = Excitation({"a": Sinusoid(1.0, 1.0, 0.0)})
        cfg = SolverConfig(dt=1e-3, t_end=10.0, record_stride=100)
        traj = simulate_dae_oracle(net, exc, [0.0] * 4, cfg)
        assert 1e-4 < np.max(np.abs(traj.channel("f_e3"))) < 1e-2

        def drifting(*args):
            steps, f = _rk4_lti(*args)
            f[-1] += 1e-6 * np.max(np.abs(f[-1])) * np.array([0.0, 0.0, 0.0, 1.0])
            return steps, f

        monkeypatch.setattr(simulate_module, "_rk4_lti", drifting)
        with pytest.raises(ConstraintDriftError):
            simulate_dae_oracle(net, exc, [0.0] * 4, cfg)

    def test_matches_reduced_model(self, wye, rng):
        exc = Excitation(
            {
                "1": Sinusoid(120.0, 1.5, 0.0),
                "2": Sinusoid(120.0, 1.5, math.radians(30.0)),
                "3": Sinusoid(120.0, 1.5, math.radians(-30.0)),
            }
        )
        f0 = [-5.0, -5.0, 10.0]
        cfg = SolverConfig(dt=1e-3, t_end=1.0)
        oracle = simulate_dae_oracle(wye, exc, f0, cfg)
        for strategy in PStrategy:
            traj = simulate_reduced(reduce(wye, strategy), exc, f0, cfg)
            report = compare_trajectories(traj, oracle)
            assert set(report["channels"]) == {"i_1", "i_2", "i_3"}
            assert report["max_rel"] <= 1e-9


class TestHomogeneousSimulation:
    def test_matches_oracle(self):
        net = make_balanced_wye(r=2.0, l=1.0)
        hm = homogeneous_reduce(net)
        exc = Excitation({"1": Sinusoid(5.0, 1.0, 0.0), "2": Step(3.0, 0.2)})
        f0 = [1.0, 1.0, -2.0]
        cfg = SolverConfig(dt=1e-3, t_end=2.0)
        i1_0 = build_incidence(net).b1.astype(float) @ f0
        traj = simulate_homogeneous(hm, exc, i1_0, cfg)
        oracle = simulate_dae_oracle(net, exc, f0, cfg)
        report = compare_trajectories(traj, oracle)
        assert report["max_rel"] <= 1e-9

    def test_unforced_decay_rate(self):
        hm = homogeneous_reduce(make_balanced_wye(r=2.0, l=1.0))
        traj = simulate_homogeneous(hm, zero_excitation(), [1.0, 0.0, -1.0], SolverConfig(dt=1e-3, t_end=1.0))
        expected = np.exp(-2.0 * traj.times)
        assert np.max(np.abs(traj.channel("i_1") - expected)) <= 1e-8


class TestSteadyPhasors:
    def test_pure_tone_recovered(self):
        freq = 1.5
        t = np.arange(0, 8.0, 1e-3)
        x = 3.0 * np.cos(2 * math.pi * freq * t + 0.7) + 0.25
        traj = Trajectory(t, x[:, None], ("x",))
        (p,), (res,) = extract_steady_phasors(traj, freq)
        assert abs(p.magnitude - 3.0) <= 1e-9
        assert abs(p.phase - 0.7) <= 1e-9
        assert res <= 1e-9

    def test_incommensurate_sampling(self):
        freq = 1.5
        t = np.arange(0, 7.3, 9.7e-4)
        x = 2.0 * np.cos(2 * math.pi * freq * t - 1.2)
        (p,), _ = extract_steady_phasors(Trajectory(t, x[:, None], ("x",)), freq)
        assert abs(p.magnitude - 2.0) <= 1e-9
        assert abs(p.phase + 1.2) <= 1e-9

    def test_window_too_short(self):
        t = np.linspace(0, 1.0, 100)
        traj = Trajectory(t, np.zeros((100, 1)), ("x",))
        with pytest.raises(InsufficientWindowError):
            extract_steady_phasors(traj, freq=1.0, periods=4)

    def test_residual_flags_transient(self):
        freq = 2.0
        t = np.arange(0, 10.0, 1e-3)
        x = np.cos(2 * math.pi * freq * t) + np.exp(-0.05 * t)
        _, (res,) = extract_steady_phasors(Trajectory(t, x[:, None], ("x",)), freq)
        assert res > 1e-3


class TestCompare:
    def test_identical_trajectories(self, wye):
        model = reduce(wye)
        traj = simulate_reduced(model, zero_excitation(), [-5.0, -5.0, 10.0], SolverConfig(dt=1e-3, t_end=0.5))
        report = compare_trajectories(traj, traj)
        assert report["max_abs"] == 0.0
        assert report["max_rel"] == 0.0
        assert report["steady_rel"] == 0.0

    def test_known_offset(self):
        t = np.linspace(0, 1, 11)
        a = Trajectory(t, np.ones((11, 1)), ("x",))
        b = Trajectory(t, 1.5 * np.ones((11, 1)), ("x",))
        report = compare_trajectories(a, b)
        assert np.isclose(report["max_abs"], 0.5)
        assert np.isclose(report["max_rel"], 0.5 / 1.5)

    def test_time_grids_must_agree_to_rounding(self):
        # numpy's default rtol of 1e-5 let a grid scaled by 1 + 9e-6 pass
        # as the same grid: 9e-5 s at t = 10 s, almost one default RK4 step
        t = np.arange(1001) * 1e-2
        a = Trajectory(t, np.ones((t.size, 1)), ("x",))
        with pytest.raises(InputFormatError, match="different time grids"):
            compare_trajectories(Trajectory(t * (1 + 9e-6), a.data, a.channels), a)
        # summed step by step, the same grid is off by up to 1.7e-13 s
        summed = np.concatenate([[0.0], np.cumsum(np.full(1000, 1e-2))])
        report = compare_trajectories(Trajectory(summed, a.data, a.channels), a)
        assert report["max_rel"] == 0.0

    def test_restricts_to_common_channels(self):
        t = np.linspace(0, 1, 5)
        a = Trajectory(t, np.zeros((5, 2)), ("x", "y"))
        b = Trajectory(t, np.zeros((5, 2)), ("y", "z"))
        report = compare_trajectories(a, b)
        assert tuple(report["channels"]) == ("y",)

    def test_no_common_channels_raises(self):
        t = np.linspace(0, 1, 5)
        a = Trajectory(t, np.zeros((5, 1)), ("x",))
        with pytest.raises(DimensionMismatchError, match="no common channels"):
            compare_trajectories(a, Trajectory(t, np.zeros((5, 1)), ("y",)))

    def test_no_samples_after_from_time_raises(self):
        t = np.linspace(0, 1, 5)
        a = Trajectory(t, np.ones((5, 1)), ("x",))
        with pytest.raises(InputFormatError, match="no samples at or after"):
            compare_trajectories(a, a, from_time=1.5)

    # On these networks the oracle's injection at one boundary node is
    # exactly 0 and the reduced model's is off by rounding (6e-17 and
    # 8e-16 A on peaks of 19 and 40 A): the 1e-300 floor this rule
    # replaced reported max_rel 6.3e283 and 7.7e284.
    @pytest.mark.parametrize("seed, zero", [(3, "i_6"), (7, "i_4")])
    def test_channel_zero_in_the_reference_is_scaled_by_the_largest_peak(self, seed, zero):
        net = random_connected_network(np.random.default_rng(seed))
        excitation = Excitation({net.boundary[0]: Sinusoid(120.0, 1.5, 0.0)})
        cfg = SolverConfig(dt=1e-3, t_end=0.5, record_stride=10)
        f0 = np.zeros(len(net.edges))
        oracle = simulate_dae_oracle(net, excitation, f0, cfg)
        reduced = simulate_reduced(reduce(net, PStrategy.ORTHONORMAL_NULL_BASIS), excitation, f0, cfg)
        assert not np.any(oracle.channel(zero))
        report = compare_trajectories(reduced, oracle)
        assert zero in report["channels"]
        assert report["max_rel"] <= 1e-6
        assert report["steady_rel"] <= 1e-6

    def test_channel_zero_in_the_reference_still_reads_a_real_deviation(self):
        t = np.linspace(0, 1, 101)
        b = Trajectory(t, np.column_stack([5.0 * np.sin(3 * t) + 20.0, np.zeros(t.size)]), ("x", "y"))
        peak = np.max(np.abs(b.channel("x")))
        a = Trajectory(t, b.data + [0.0, 1e-3 * peak], b.channels)  # y off by 1e-3 of the largest peak
        report = compare_trajectories(a, b)
        assert report["max_rel"] == pytest.approx(1e-3)
        steady = np.max(np.abs(b.channel("x")[t >= 0.9]))
        assert report["steady_rel"] == pytest.approx(1e-3 * peak / steady)

    def test_channel_zero_only_in_the_steady_tail_takes_the_tails_largest_peak(self):
        t = np.linspace(0, 1, 101)
        y = np.where(t < 0.5, 1.0, 0.0)
        b = Trajectory(t, np.column_stack([np.full(t.size, 4.0), y]), ("x", "y"))
        a = Trajectory(t, b.data + [0.0, 4e-9], b.channels)
        report = compare_trajectories(a, b)
        assert report["max_rel"] == pytest.approx(4e-9)  # y's own peak, 1, over the window
        assert report["steady_rel"] == pytest.approx(1e-9)  # x's tail peak, 4

    def test_reference_zero_on_every_channel(self):
        # no reference scale: a's largest peak stands in, so the ratio is
        # 1 where a is not 0 and 0 where it is
        t = np.linspace(0, 1, 11)
        zero = Trajectory(t, np.zeros((11, 2)), ("x", "y"))
        report = compare_trajectories(zero, zero)
        assert report["max_rel"] == report["steady_rel"] == 0.0
        a = Trajectory(t, np.column_stack([np.zeros(11), 1e-20 * t]), ("x", "y"))
        report = compare_trajectories(a, zero)
        assert report["max_abs"] == 1e-20
        assert report["max_rel"] == report["steady_rel"] == 1.0


class TestCsvRoundTrip:
    def test_bit_exact(self, wye, tmp_path):
        model = reduce(wye)
        traj = simulate_reduced(
            model,
            Excitation({"1": Sinusoid(120.0, 1.5, 0.0)}),
            [-5.0, -5.0, 10.0],
            SolverConfig(dt=1e-3, t_end=0.2),
        )
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        clone = trajectory_from_csv(path)
        assert clone.channels == traj.channels
        assert np.array_equal(clone.times, traj.times)
        assert np.array_equal(clone.data, traj.data)

    def test_special_values_across_blocks(self, tmp_path):
        # 8 values a row: several blocks and a partial last one
        rows_per_block = csvio_module.CSV_BLOCK_VALUES // 8
        n = 3 * rows_per_block + 5
        special = [-0.0, 5e-324, 1e-5, 1e16, 0.1, np.inf, np.nan]
        rng = np.random.default_rng(3)
        data = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-300, 300, (n, 7))
        data[::9] = special
        data[n - 1] = special[::-1]
        traj = Trajectory(np.arange(n) * 1e-3, data, tuple(f"c{k}" for k in range(7)))
        path = tmp_path / "special.csv"
        trajectory_to_csv(traj, path)
        header, *lines = path.read_text().splitlines()
        assert header == "t," + ",".join(traj.channels)
        assert len(lines) == n
        for t, row, line in zip(traj.times, traj.data, lines):
            assert line.split(",") == [repr(float(v)) for v in (t, *row)]
        clone = trajectory_from_csv(path)
        assert clone.channels == traj.channels
        assert np.array_equal(clone.times.view(np.int64), traj.times.view(np.int64))
        assert np.array_equal(clone.data.view(np.int64), traj.data.view(np.int64))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x\n0.0,1.0\n")
        with pytest.raises(InputFormatError):
            trajectory_from_csv(path)

    # The writer wrote any channel name into the header, and the reader cut
    # the header at a CR or LF, stripped its ends and split it at commas: a
    # file could hold more or fewer channels than written, or the last one
    # renamed. Either a name reads back, or writing refuses it and leaves
    # no file, and then the header written by hand would not read back.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(channels=st.lists(st.builds(
        lambda head, body, tail: head + body + tail,
        st.text(st.sampled_from(WHITE_SPACE), max_size=2),
        # no lone surrogate: no UTF-8 header holds one, and no input file (load_json)
        st.text(st.sampled_from("i_,\r\n") | st.characters(exclude_categories=["Cs"]), max_size=4),
        st.text(st.sampled_from(WHITE_SPACE), max_size=2),
    ), max_size=3))
    def test_channels_read_back_or_are_refused(self, tmp_path_factory, channels):
        traj = Trajectory(np.array([0.0, 0.5]), np.ones((2, len(channels))), tuple(channels))
        path = tmp_path_factory.mktemp("header") / "h.csv"
        try:
            trajectory_to_csv(traj, path)
        except InputFormatError as exc:
            assert str(path) in str(exc) and not path.exists()
            path.write_bytes(("t," + ",".join(channels) + "\n0.0" + ",1.0" * len(channels) + "\n").encode("utf-8"))
            with contextlib.suppress(InputFormatError):
                assert trajectory_from_csv(path).channels != traj.channels
        else:
            assert trajectory_from_csv(path).channels == traj.channels


def csv_trajectories(rng):
    """Named trajectories of different widths and lengths, with special
    values: 19231 values in all, enough for 16 writers."""
    out = {}
    for name, (n, width) in zip("abcdef", [(300, 1), (40, 7), (4000, 3), (5, 40), (700, 2), (1, 5)]):
        data = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-30, 30, (n, width))
        data.flat[::11] = np.inf
        data.flat[5::13] = -0.0
        out[name] = Trajectory(np.arange(n) * 1e-3, data, tuple(f"c{k}" for k in range(width)))
    return out


def reference_bytes(trajectories, out_dir):
    """Each file's bytes from the one-process row-by-row writer, in dict order."""
    out_dir.mkdir()
    for name, traj in trajectories.items():
        write_csv_rows(traj, out_dir / f"{name}.csv")
    return [(out_dir / f"{name}.csv").read_bytes() for name in trajectories]


def write_both_ways(trajectories, out_dir):
    """The bytes of write_trajectories into out_dir/all and of one
    trajectory_to_csv call per file into out_dir/each."""
    (out_dir / "all").mkdir()
    paths = csvio_module.write_trajectories(trajectories, out_dir / "all")
    assert paths == [out_dir / "all" / f"{name}.csv" for name in trajectories]
    (out_dir / "each").mkdir()
    for name, traj in trajectories.items():
        trajectory_to_csv(traj, out_dir / "each" / f"{name}.csv")
    return [p.read_bytes() for p in paths], [(out_dir / "each" / f"{name}.csv").read_bytes() for name in trajectories]


# Values to write or body bytes to read per process that make even the
# small files here fork.
SMALL_WORK = 1024


def fork_for_small_files(monkeypatch, cpus):
    """cpus CPUs for CSV work, and a process per SMALL_WORK values to
    write or body bytes to read, so that the small files here fork."""
    monkeypatch.setattr(csvio_module, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(csvio_module, "CSV_WRITE_VALUES_PER_PROCESS", SMALL_WORK)
    monkeypatch.setattr(csvio_module, "CSV_READ_BYTES_PER_PROCESS", SMALL_WORK)


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork call of this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


class TestParallelCsvWrite:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_files_match_the_one_process_writer(self, tmp_path, rng, monkeypatch, cpus):
        trajectories = csv_trajectories(rng)
        expected = reference_bytes(trajectories, tmp_path / "ref")
        fork_for_small_files(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        paths = csvio_module.write_trajectories(trajectories, tmp_path)
        assert len(forks) == cpus - 1  # one set of children for every file
        assert paths == [tmp_path / f"{name}.csv" for name in trajectories]
        assert [p.read_bytes() for p in paths] == expected
        for (name, traj), p, want in zip(trajectories.items(), paths, expected):
            trajectory_to_csv(traj, p)
            assert p.read_bytes() == want

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 7, 646])
    def test_widths_match_the_one_process_writer(self, tmp_path, rng, monkeypatch, width, cpus):
        # two and a half blocks of rows: the last block is partial
        n = 5 * max(1, csvio_module.CSV_BLOCK_VALUES // (1 + width)) // 2
        data = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
        data.flat[::97] = 0.0  # rows that repr formats
        traj = Trajectory(np.arange(n) * 1e-4, data, tuple(f"c{k}" for k in range(width)))
        write_csv_rows(traj, tmp_path / "ref.csv")
        fork_for_small_files(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        trajectory_to_csv(traj, tmp_path / "w.csv")
        assert len(forks) == cpus - 1
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # Every value is off the fast path, so every row is formatted by repr.
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_values_off_the_fast_path(self, tmp_path, rng, monkeypatch, cpus):
        n = 3000
        data = np.column_stack([
            rng.integers(-10**6, 10**6, n).astype(float),
            np.zeros(n),
            -np.zeros(n),
            2.0 ** rng.integers(53, 1023, n) * (1.0 + rng.random(n)),
            rng.integers(1, 1 << 52, n, dtype=np.uint64).view(np.float64),
        ])
        traj = Trajectory(np.arange(n, dtype=float), data, ("int", "zero", "negzero", "big", "subnormal"))
        write_csv_rows(traj, tmp_path / "ref.csv")
        fork_for_small_files(monkeypatch, cpus)
        trajectory_to_csv(traj, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # t lands on a multiple of 0.125 every 125 rows: Ryu's trailing-zero
    # case, so about one row in 125 holds a value that repr writes, in
    # every file of both calls.
    @pytest.mark.parametrize("which", ["sinusoid", "step"])
    def test_paper_experiment_files_match_the_one_process_writer(self, tmp_path, monkeypatch, which):
        written, write = {}, experiment_module.write_trajectories
        monkeypatch.setattr(experiment_module, "write_trajectories",
                            lambda trajectories, out: written.update(trajectories) or write(trajectories, out))
        assert main(["paper-experiment", "--which", which, "--t-end", "0.5", "--out-dir", str(tmp_path / "exp")]) == 0
        assert len(written) == 7
        assert np.isin([0.125, 0.25, 0.375, 0.5], written["dae"].times).all()
        for name, traj in written.items():
            write_csv_rows(traj, tmp_path / "ref.csv")
            assert (tmp_path / "exp" / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

    @pytest.mark.parametrize("missing", [False, True], ids=["one-cpu", "no-fork"])
    def test_no_fork_for_one_writer(self, tmp_path, rng, monkeypatch, missing):
        def no_fork():
            raise AssertionError("forked")

        trajectories = csv_trajectories(rng)
        expected = reference_bytes(trajectories, tmp_path / "ref")
        if missing:
            monkeypatch.delattr(os, "fork")
        else:
            fork_for_small_files(monkeypatch, 1)
            monkeypatch.setattr(os, "fork", no_fork)
        assert write_both_ways(trajectories, tmp_path) == (expected, expected)

    # With 2 CPUs, at the sizes timed to set the least work per process:
    # one process wrote 40000 values as fast as two and read 1.9 MB faster;
    # two were faster from 50000 values, and read 3.8 MB as fast.
    @pytest.mark.parametrize("values, nbytes, children", [(40_000, 1_900_000, 0), (50_000, 4_300_000, 1)],
                             ids=["below", "above"])
    def test_forks_from_the_least_work_per_process(self, tmp_path, monkeypatch, values, nbytes, children):
        monkeypatch.setattr(csvio_module, "_available_cpus", lambda: 2)
        forks = count_forks(monkeypatch)
        rows = values // 5
        traj = Trajectory(np.arange(rows) * 1e-3, np.full((rows, 4), 0.1), ("a", "b", "c", "d"))
        trajectory_to_csv(traj, tmp_path / "w.csv")
        assert len(forks) == children
        write_csv_rows(traj, tmp_path / "ref.csv")
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        path = tmp_path / "r.csv"
        path.write_bytes(b"t,x\n" + b"1.5,2.5\n" * (nbytes // 8))
        assert parallel_read(path) == serial_read(path)
        assert len(forks) == 2 * children

    def test_failed_fork_is_written_here(self, tmp_path, rng, monkeypatch):
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        trajectories = csv_trajectories(rng)
        expected = reference_bytes(trajectories, tmp_path / "ref")
        fork_for_small_files(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert write_both_ways(trajectories, tmp_path) == (expected, expected)

    # A child that raises leaves by os._exit(1), its pipe closed before the
    # message of the failing file; this process formats the rest.
    @pytest.mark.parametrize("failing", ["a", "c", "f"])
    def test_failed_child_is_written_here(self, tmp_path, rng, monkeypatch, failing):
        trajectories = csv_trajectories(rng)
        expected = reference_bytes(trajectories, tmp_path / "ref")
        parent, text = os.getpid(), csvio_module._csv_text

        def child_fails(traj, first, end):
            if os.getpid() != parent and traj is trajectories[failing]:
                raise RuntimeError("child fails")
            return text(traj, first, end)

        fork_for_small_files(monkeypatch, 3)
        monkeypatch.setattr(csvio_module, "_csv_text", child_fails)
        written, each = write_both_ways(trajectories, tmp_path)
        assert written == expected
        assert each[list(trajectories).index(failing)] == expected[list(trajectories).index(failing)]

    @pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD")
    def test_children_reaped_by_the_system(self, tmp_path, rng, monkeypatch):
        # with SIGCHLD ignored the kernel reaps the children, and waitpid
        # waits for them and then raises ChildProcessError
        trajectories = csv_trajectories(rng)
        expected = reference_bytes(trajectories, tmp_path / "ref")
        fork_for_small_files(monkeypatch, 2)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            written = write_both_ways(trajectories, tmp_path)
            back = trajectory_from_csv(tmp_path / "all" / "c.csv")
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert written == (expected, expected)
        assert np.array_equal(back.data.view(np.int64), trajectories["c"].data.view(np.int64))


def serial_read(path):
    """The reference reader's (times, data, channels) of path, or the
    InputFormatError text it gives."""
    try:
        traj = read_csv_rows(path)
    except InputFormatError as exc:
        return str(exc)
    return traj.times.tobytes(), traj.data.tobytes(), traj.channels


def parallel_read(path):
    """As serial_read, through trajectory_from_csv."""
    try:
        traj = trajectory_from_csv(path)
    except InputFormatError as exc:
        return str(exc)
    return traj.times.tobytes(), traj.data.tobytes(), traj.channels


@st.composite
def csv_files(draw, fault, end):
    """The bytes of a trajectory CSV, about 8-14 kB, with line end `end`:
    blank lines, maybe no trailing newline, special values, non-ASCII
    channel names maybe, and `fault`: a line of spaces, a bad cell, a
    ragged row or a non-UTF-8 byte in one of three byte ranges, a header
    one channel longer than every row, or rows one cell short from the
    middle on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 4))
    n = draw(st.integers(300, 400)) // width
    data = rng.standard_normal((n, width + 1)) * 10.0 ** rng.integers(-300, 300, (n, width + 1))
    data.flat[rng.integers(0, data.size, 6)] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324], 6)
    name = draw(st.sampled_from(["c", "\u00e9"]))
    lines = ["t," + ",".join(f"{name}{k}" for k in range(width + (fault == "header")))]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    third = draw(st.integers(0, 2))  # the range, of three, the fault falls in
    row = 1 + (2 * third + 1) * n // 6
    cells = lines[row].split(",")
    if fault == "spaces":
        lines[row] = "   "
    elif fault == "cell":
        lines[row] = ",".join(cells[:-1] + ["abc"])
    elif fault == "ragged":
        lines[row] = ",".join(cells + ["1.5"] if draw(st.booleans()) else cells[:-1])
    elif fault == "tail":
        lines[n // 2:] = [line.rsplit(",", 1)[0] for line in lines[n // 2:]]
    for blank in draw(st.lists(st.integers(1, n), max_size=3)):
        lines.insert(blank, "")
    raw = (end.join(lines) + (end if draw(st.booleans()) else "")).encode("utf-8")
    if fault == "utf8":
        cut = raw.index(b",", len(raw) * (2 * third + 1) // 6)
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw


class TestParallelCsvRead:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("fault", [None, "spaces", "cell", "ragged", "utf8", "header", "tail"])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_ranges_read_as_the_serial_reader(self, tmp_path_factory, fault, end, data):
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        path.write_bytes(data.draw(csv_files(fault, end)))
        expected = serial_read(path)
        for cpus in (1, 2, 3):
            with mock.patch.multiple(csvio_module, _available_cpus=lambda: cpus,
                                     CSV_READ_BYTES_PER_PROCESS=SMALL_WORK), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert parallel_read(path) == expected
            # a lone-CR body has no LF to cut after, so it is one range
            assert fork.call_count == (0 if end == "\r" else cpus - 1)

    # The header is the first line by universal newlines: here it ends at
    # the lone CR, and a line of spaces follows.
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_header_ended_by_a_lone_cr(self, tmp_path, rng, monkeypatch, cpus):
        traj = csv_trajectories(rng)["c"]
        write_csv_rows(traj, tmp_path / "c.csv")
        path = tmp_path / "cr.csv"
        path.write_bytes((tmp_path / "c.csv").read_bytes().replace(b"\n", b"\r   \n", 1))
        fork_for_small_files(monkeypatch, cpus)
        expected = serial_read(path)
        assert expected.endswith("line 2: could not convert string '   ' to float64")
        assert parallel_read(path) == expected

    # The header is read from the file's start one read at a time, up to
    # its line end: readline stops only at LF, so it would give the header
    # rule a lone-CR file's whole body, on a good read and a fault's alike.
    def test_lone_cr_header_is_read_in_one_read(self, tmp_path, rng, monkeypatch):
        write_csv_rows(csv_trajectories(rng)["c"], tmp_path / "c.csv")
        lf = (tmp_path / "c.csv").read_bytes()
        good, bad = tmp_path / "cr.csv", tmp_path / "bad.csv"
        good.write_bytes(lf.replace(b"\n", b"\r"))
        bad.write_bytes(lf[:-1].replace(b"\n", b"\r") + b"x\r")
        assert len(lf) > 10 * io.DEFAULT_BUFFER_SIZE
        given, rule = [], csvio_module._csv_header
        monkeypatch.setattr(csvio_module, "_csv_header", lambda line: given.append(len(line)) or rule(line))
        assert parallel_read(good) == serial_read(good)
        assert parallel_read(bad) == serial_read(bad)
        assert "could not convert string" in serial_read(bad)
        assert len(given) == 3  # the good read, then the bad read and its diagnostic
        assert max(given) <= lf.index(b"\n") + 1 + io.DEFAULT_BUFFER_SIZE

    # A CRLF whose CR ends one read and whose LF starts the next is one
    # line end: the body starts after the LF, so no blank line comes first.
    def test_crlf_header_split_across_reads(self, tmp_path, rng):
        size = io.DEFAULT_BUFFER_SIZE
        name = "a" * (size - 1 - len("t,,c1"))  # "t,<name>,c1" fills the first read but its last byte
        traj = Trajectory(np.arange(50) * 1e-3, rng.standard_normal((50, 2)), (name, "c1"))
        write_csv_rows(traj, tmp_path / "lf.csv")
        crlf = (tmp_path / "lf.csv").read_bytes().replace(b"\n", b"\r\n")
        assert crlf.index(b"\r\n") == size - 1
        path = tmp_path / "crlf.csv"
        path.write_bytes(crlf)
        with open(path, "rb") as raw:
            assert csvio_module._csv_header(csvio_module._csv_head(raw)) == (["t", name, "c1"], size + 1)
        back = trajectory_from_csv(path)
        assert back.channels == traj.channels
        assert np.array_equal(back.times.view(np.int64), traj.times.view(np.int64))
        assert np.array_equal(back.data.view(np.int64), traj.data.view(np.int64))
        lines = crlf.split(b"\r\n")
        lines[1] = b"0.0,abc,1.5"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(InputFormatError, match=r"crlf\.csv, line 2: could not convert string 'abc'"):
            trajectory_from_csv(path)

    def test_width_is_checked_in_every_range(self, tmp_path, monkeypatch):
        # Two ranges. Past the cut, rows have 4 cells in the bytes of 2: each
        # range parses, and only the width test keeps the 4-cell rows from
        # passing as twice as many 2-cell rows.
        body = b"1.5,   2.5\n" * 2000
        cut = body.index(b"\n", len(body) // 2) + 1
        path = tmp_path / "wide.csv"
        path.write_bytes(b"t,x\n" + body[:cut] + body[cut:].replace(b"1.5,   2.5", b"1.5,2,3,45"))
        fork_for_small_files(monkeypatch, 2)
        expected = serial_read(path)
        assert "ragged CSV, 2 columns expected" in expected
        assert parallel_read(path) == expected

    # The middle one of three ranges holds only blank lines: no rows, and
    # no fault.
    def test_range_of_blank_lines(self, tmp_path, monkeypatch):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"t,x\n" + b"1.5,2.5\n" * 200 + b"\n" * 5000 + b"3.5,4.5\n" * 200)
        fork_for_small_files(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        assert parallel_read(path) == serial_read(path)
        assert len(forks) == 2

    def test_a_message_cut_short_is_not_received(self):
        r, w = os.pipe()
        os.write(w, (3).to_bytes(8, "little") + b"abc" + (10).to_bytes(8, "little") + b"12345")
        os.close(w)
        with open(r, "rb") as pipe:
            assert csvio_module._receive(pipe) == b"abc"
            assert csvio_module._receive(pipe) is None
            assert csvio_module._receive(pipe) is None
        assert csvio_module._receive(None) is None

    def test_special_values_in_every_range(self, tmp_path, rng, monkeypatch):
        traj = csv_trajectories(rng)["c"]
        path = tmp_path / "c.csv"
        write_csv_rows(traj, path)
        fork_for_small_files(monkeypatch, 16)
        forks = count_forks(monkeypatch)
        back = trajectory_from_csv(path)
        assert len(forks) == 15
        assert back.channels == traj.channels
        assert np.array_equal(back.times.view(np.int64), traj.times.view(np.int64))
        assert np.array_equal(back.data.view(np.int64), traj.data.view(np.int64))

    @pytest.mark.parametrize("case", ["one-cpu", "no-fork", "failed-fork", "failed-child", "child-dies-sending"])
    def test_serial_fallbacks(self, tmp_path, rng, monkeypatch, case):
        def no_fork():
            raise AssertionError("forked")

        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        traj = csv_trajectories(rng)["c"]
        path = tmp_path / "c.csv"
        write_csv_rows(traj, path)
        fork_for_small_files(monkeypatch, 1 if case == "one-cpu" else 3)
        if case == "one-cpu":
            monkeypatch.setattr(os, "fork", no_fork)
        elif case == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif case == "failed-fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        elif case == "child-dies-sending":  # after the length and half the rows
            parent = os.getpid()

            class Dying(io.FileIO):
                def write(self, data):
                    if len(data) > 8:
                        super().write(data[:len(data) // 2])
                        os.kill(os.getpid(), signal.SIGKILL)
                    return super().write(data)

            def child_open(file, mode):
                return (open if os.getpid() == parent else Dying)(file, mode)

            monkeypatch.setattr(csvio_module, "open", child_open, raising=False)
        else:
            parent, parse = os.getpid(), csvio_module._parse_rows

            def child_fails(data, width):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return parse(data, width)

            monkeypatch.setattr(csvio_module, "_parse_rows", child_fails)
        back = trajectory_from_csv(path)
        assert np.array_equal(back.times.view(np.int64), traj.times.view(np.int64))
        assert np.array_equal(back.data.view(np.int64), traj.data.view(np.int64))
        assert parallel_read(path) == serial_read(path)

    # A FIFO is copied to a temporary file, which is parsed in ranges.
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_is_read(self, tmp_path, rng, monkeypatch):
        traj = csv_trajectories(rng)["c"]
        write_csv_rows(traj, tmp_path / "c.csv")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        fork_for_small_files(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        feeder = threading.Thread(target=fifo.write_bytes, args=[(tmp_path / "c.csv").read_bytes()])
        feeder.start()
        try:
            back = parallel_read(fifo)
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert back == serial_read(tmp_path / "c.csv")
        assert len(forks) == 2


class TestRk4Accuracy:
    def test_fourth_order_convergence(self):
        # halving dt should shrink the error by about 2^4
        net = make_wye()
        model = reduce(net, PStrategy.TREE_ELIMINATION)
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0), "2": Constant(50.0)})
        f0 = [-5.0, -5.0, 10.0]

        def final_state(dt):
            traj = simulate_reduced(model, exc, f0, SolverConfig(dt=dt, t_end=1.0))
            return traj.data[-1, : model.order]

        ref = final_state(1.25e-4)
        e1 = np.linalg.norm(final_state(2e-3) - ref)
        e2 = np.linalg.norm(final_state(1e-3) - ref)
        assert 12.0 <= e1 / e2 <= 20.0


class TestSolverConfig:
    @pytest.mark.parametrize(
        "dt, t_end",
        [(1e-4, 10.0), (1e-4, 1.0), (1e-4, 0.05), (1e-3, 30.0 / 1.5), (2e-2, 1.0), (1.25e-4, 1.0)],
    )
    def test_whole_step_grids_accepted(self, dt, t_end):
        cfg = SolverConfig(dt=dt, t_end=t_end)
        assert math.isclose(cfg.n_steps * dt, t_end, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1e-3},
            {"dt": float("nan")},
            {"dt": 1e-3, "t_end": float("inf")},
            {"dt": 1e-3, "t_end": 1e-3},
            {"dt": 1e-3, "t_end": 1.0, "record_stride": 0},
            # not a whole number of steps: would end at t = 0.9
            {"dt": 0.3, "t_end": 1.0},
            {"dt": 1e-3, "t_end": 1.0005},
            {"dt": 1e-3, "t_end": 1.0, "record_stride": 2.7},
            {"dt": 1e-3, "t_end": 1.0, "record_stride": "10"},
        ],
    )
    def test_bad_settings_raise_typed_value_error(self, kwargs):
        with pytest.raises(KronredError) as exc_info:
            SolverConfig(**kwargs)
        assert isinstance(exc_info.value, ValueError)

    def test_integral_float_stride_accepted(self):
        cfg = SolverConfig(dt=1e-3, t_end=1.0, record_stride=10.0)
        assert cfg.record_stride == 10 and isinstance(cfg.record_stride, int)

    def test_step_limit(self):
        # Checked before any array is sized by n_steps. 1e300 / 1e-300
        # steps used to end in an OverflowError from round(inf).
        assert SolverConfig(dt=1.0, t_end=float(MAX_STEPS)).n_steps == MAX_STEPS
        for dt, t_end in ((1.0, MAX_STEPS + 1.0), (1e-9, 10.0), (1e-300, 1e300)):
            with pytest.raises(SolverConfigError, match="above the limit"):
                SolverConfig(dt=dt, t_end=t_end)


def _dense_reduced_states(model, exc, f0, cfg):
    """The reduced model integrated by the oracle's dense RK4 recurrence."""
    A = np.linalg.solve(model.Lhat, -model.Rhat)
    Bu = np.linalg.solve(model.Lhat, model.Bhat.T)
    v1 = exc.evaluate(model.boundary_nodes, _stage_grid(cfg))
    fhat0 = embed_initial(model.P, np.asarray(f0, dtype=float))
    return _rk4_lti(A, Bu, v1, fhat0, cfg.dt, cfg.n_steps, cfg.record_stride)


def _rel_dev(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


# (n_steps, record_stride) for the cores against the step loop. 200 steps
# at stride 7 leave a last interval of 4 steps, and a stride past the
# horizon none. Past RECORD_BLOCK_STEPS (Q) an interval is cut into blocks
# of Q and a shorter block: stride 2Q + 5 gives three intervals of two
# blocks and 5 steps each, and a last interval of a block and 9 steps;
# stride 3Q is three whole blocks, and its last interval 40 steps; and a
# stride equal to the horizon of 5Q + 3 steps makes one interval of five
# blocks and 3 steps.
Q = RECORD_BLOCK_STEPS
HORIZONS = [
    *(pytest.param(200, stride, id=str(stride)) for stride in (1, 7, 200, 213)),
    pytest.param(3 * (2 * Q + 5) + Q + 9, 2 * Q + 5, id="blocks"),
    pytest.param(2 * 3 * Q + 40, 3 * Q, id="whole-blocks"),
    pytest.param(5 * Q + 3, 5 * Q + 3, id="one-interval"),
]


def test_record_steps():
    steps = _record_steps(10, 3)
    assert steps.dtype == np.int64
    assert steps.tolist() == [0, 3, 6, 9, 10]
    assert _record_steps(9, 3).tolist() == [0, 3, 6, 9]
    assert _record_steps(9, 20).tolist() == [0, 9]


class TestOracleRecurrence:
    """_rk4_lti, one RK4 map per piece of a record interval, against the step loop."""

    @pytest.mark.parametrize("n_steps, stride", HORIZONS)
    def test_matches_step_loop(self, rng, n_steps, stride):
        # random stable systems: a negative definite symmetric part plus a
        # skew part, so the modes decay and oscillate, driven by sinusoids
        # with a phase, so that no input starts at 0
        for _ in range(5):
            dim, inputs = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            S = rng.standard_normal((dim, dim))
            K = rng.standard_normal((dim, dim))
            A = -(S @ S.T + 0.1 * np.eye(dim)) + (K - K.T)
            dt = 1.0 / np.max(np.abs(np.linalg.eigvals(A)))
            B = rng.standard_normal((dim, inputs))
            u = np.sin(np.outer(np.arange(2 * n_steps + 1) * dt / 2, rng.uniform(0.1, 3.0, inputs))
                       + rng.uniform(0.0, 6.0, inputs))
            y0 = rng.standard_normal(dim)
            steps, y = _rk4_lti(A, B, u, y0, dt, n_steps, stride)
            ref_steps, ref = rk4_lti_steps(A, u @ B.T, y0, dt, n_steps, stride)
            assert np.array_equal(steps, ref_steps)
            assert _rel_dev(y, ref) <= 1e-12

    @pytest.mark.parametrize("extra", [0, 1], ids=["horizon", "past-horizon"])
    def test_memory_at_stride_of_the_horizon(self, rng, extra):
        # One record interval of 20000 steps, a whole one or a last short
        # one. The kernel of its pieces is 2Q stage points wide, so the run
        # holds less than the stage inputs v1 besides its records; a kernel
        # over the whole interval would hold 2 * 20000 stage points for
        # each of the 8 states, 8 v1, and stepping it one step at a time
        # would hold 20000 forced parts of 8 states, 2 v1.
        n_steps, dim = 20_000, 8
        S = rng.standard_normal((dim, dim))
        A = -(S @ S.T + np.eye(dim))
        dt = 1.0 / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((dim, 2))
        u = np.sin(np.outer(np.arange(2 * n_steps + 1) * dt / 2, [0.5, 1.5]))
        tracemalloc.start()
        try:
            _, y = _rk4_lti(A, B, u, np.ones(dim), dt, n_steps, n_steps + extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + y.nbytes

    def test_steady_state_unbiased(self):
        # RK4 keeps the equilibrium y* = -A^-1 B u of a constant input. A
        # step map rounded to the grid of I misses it by about eps / (dt d)
        # of the slowest rate d, 1.7e-12 for the step loop here; powering
        # M^l - I from M - I holds it to a few eps / (l dt d), for pieces of
        # whole intervals (stride 100) and of a last short one alike.
        c, s = math.cos(0.3), math.sin(0.3)
        Q = np.array([[c, -s], [s, c]])
        A = -Q @ np.diag([1.0, 3.0]) @ Q.T
        B = np.array([[1.0], [0.5]])
        n_steps = 400_000   # t = 40 s, 40 time constants of the slowest mode
        u = np.ones((2 * n_steps + 1, 1))
        for stride in (100, n_steps + 1):
            _, y = _rk4_lti(A, B, u, np.zeros(2), 1e-4, n_steps, stride)
            assert _rel_dev(y[-1], -np.linalg.solve(A, B[:, 0])) <= 1e-13

    def test_step_powers(self, rng):
        # every length from one chain of squares is bit for bit its own
        # chain, and M^l - I is the iterated X <- X + N + X N
        dim = 6
        S = rng.standard_normal((dim, dim))
        A = -(S @ S.T + 0.1 * np.eye(dim))
        N, _ = _rk4_step_map(A, np.ones((dim, 1)), 1.0 / np.max(np.abs(np.linalg.eigvals(A))))
        powers = _step_powers(N, {64, 36, 50, 1})
        assert sorted(powers) == [1, 36, 50, 64]
        X = N
        for length in range(1, 65):
            if length in powers:
                assert np.array_equal(powers[length], _step_powers(N, {length})[length])
                assert _rel_dev(powers[length], X) <= 1e-13
            X = X + N + X @ N

    def test_stride_past_horizon_oracle(self, wye):
        # 10 steps recorded at steps 0 and 10 only: one last short
        # interval, cut like any other
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0), "3": Step(50.0, 0.004)})
        f0 = [-5.0, -5.0, 10.0]
        every = simulate_dae_oracle(wye, exc, f0, SolverConfig(dt=1e-3, t_end=0.01))
        ends = simulate_dae_oracle(wye, exc, f0, SolverConfig(dt=1e-3, t_end=0.01, record_stride=MAX_STEPS))
        assert np.array_equal(ends.times, every.times[[0, -1]])
        assert _rel_dev(ends.data, every.data[[0, -1]]) <= 1e-12


class TestModalCore:
    # 500 steps recorded every 7th, so the last sample is an extra row
    CFG = SolverConfig(dt=1e-3, t_end=0.5, record_stride=7)

    @pytest.mark.parametrize("n_steps, stride", HORIZONS)
    @pytest.mark.parametrize("order, inputs", [(3, 5), (6, 2)], ids=["wide-map", "narrow-map"])
    def test_core_matches_step_loop(self, rng, n_steps, stride, order, inputs):
        # z' = -diag(d) z + Bm v1(t) for two runs, with an input map wider
        # or narrower than the state, a zero mode, a growing mode (d < 0)
        # and decay rates up to near RK4's bound, and inputs that do not
        # start at 0; each mode to its own peak
        dt = 1e-2
        d = np.concatenate([[0.0, -rng.uniform(0.5, 2.0)], rng.uniform(0.0, 2.7 / dt, order - 2)])
        Bm = rng.standard_normal((order, inputs))
        v1 = np.sin(np.outer(np.arange(2 * n_steps + 1) * dt / 2, rng.uniform(0.1, 3.0, inputs))
                    + rng.uniform(0.0, 6.0, inputs))
        z0 = rng.standard_normal((order, 2))
        steps, z = _rk4_modal(d, Bm, v1, z0, dt, n_steps, stride)
        assert z.shape == (len(steps), order, 2)
        for r in range(2):
            ref_steps, ref = rk4_lti_steps(-np.diag(d), v1 @ Bm.T, z0[:, r], dt, n_steps, stride)
            assert np.array_equal(steps, ref_steps)
            for k in range(order):
                assert _rel_dev(z[:, k, r], ref[:, k]) <= 1e-12

    @pytest.mark.parametrize("extra", [0, 1], ids=["horizon", "past-horizon"])
    def test_memory_at_stride_of_the_horizon(self, rng, extra):
        # As TestOracleRecurrence's: one record interval of 20000 steps,
        # whole or short, whose kernel over the whole interval would hold
        # 8 v1 for 8 modes
        n_steps, order, dt = 20_000, 8, 1e-3
        d = rng.uniform(0.0, 100.0, order)
        Bm = rng.standard_normal((order, 2))
        v1 = np.sin(np.outer(np.arange(2 * n_steps + 1) * dt / 2, [0.5, 1.5]))
        tracemalloc.start()
        try:
            _, z = _rk4_modal(d, Bm, v1, np.ones((order, 2)), dt, n_steps, n_steps + extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= v1.nbytes + z.nbytes

    def test_matches_dense_recurrence(self, rng):
        for _ in range(10):
            net = random_connected_network(rng)
            f0 = random_consistent_flow(net, rng)
            exc = Excitation(
                {n: Sinusoid(float(rng.uniform(10, 50)), float(rng.uniform(0.5, 2.0)), 0.3)
                 for n in net.boundary}
            )
            for strategy in PStrategy:
                model = reduce(net, strategy)
                steps, fhat = _dense_reduced_states(model, exc, f0, self.CFG)
                traj = simulate_reduced(model, exc, f0, self.CFG)
                assert np.array_equal(traj.times, steps * self.CFG.dt)
                assert traj.times[-1] == pytest.approx(0.5)
                assert _rel_dev(traj.data[:, : model.order], fhat) <= 1e-12

    def test_homogeneous_matches_dense_recurrence(self):
        hm = homogeneous_reduce(make_balanced_wye(r=2.0, l=1.0))
        exc = Excitation({"1": Sinusoid(5.0, 1.0, 0.0), "2": Step(3.0, 0.2)})
        i1_0 = [1.0, 1.0, -2.0]
        cfg = self.CFG
        v1 = exc.evaluate(hm.boundary_nodes, _stage_grid(cfg))
        A = -hm.alpha * np.eye(3)
        _, dense = _rk4_lti(A, hm.Lred, v1, i1_0, cfg.dt, cfg.n_steps, cfg.record_stride)
        traj = simulate_homogeneous(hm, exc, i1_0, cfg)
        assert _rel_dev(traj.data, dense) <= 1e-12

    def test_order_zero_and_one_models(self):
        # a path with one boundary end has no independent flow (order 0);
        # one edge between two boundary nodes has one (order 1)
        path = Network(
            ("1", "2", "3"),
            (Edge("e1", "1", "2", 1.0, 1.0), Edge("e2", "2", "3", 1.0, 2.0)),
            ("1",),
        )
        exc = Excitation({"1": Sinusoid(3.0, 1.0, 0.0)})
        traj = simulate_reduced(reduce(validate(path)), exc, [0.0, 0.0], self.CFG)
        assert traj.channels == ("i_1",)
        assert np.array_equal(traj.data, np.zeros((len(traj.times), 1)))
        model = reduce(make_net_a(r=1.0, l=1.0))
        exc = Excitation({"1": Sinusoid(3.0, 1.0, 0.0), "2": Constant(1.0)})
        _, dense = _dense_reduced_states(model, exc, [2.0], self.CFG)
        traj = simulate_reduced(model, exc, [2.0], self.CFG)
        assert _rel_dev(traj.data[:, :1], dense) <= 1e-12

    def test_batch_equals_single_runs(self, wye, rng):
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0), "3": Step(50.0, 0.1)})
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        f0s = [random_consistent_flow(wye, rng) for _ in range(4)]
        batch = simulate_reduced_batch(model, exc, f0s, self.CFG)
        for f0, traj in zip(f0s, batch):
            single = simulate_reduced(model, exc, f0, self.CFG)
            assert traj.channels == single.channels
            assert np.array_equal(traj.times, single.times)
            assert _rel_dev(traj.data, single.data) <= 1e-14
        assert simulate_reduced_batch(model, exc, [], self.CFG) == []

    def test_unstable_step_rejected(self, wye):
        # the fastest wye mode decays at about 1.66/s: dt = 1.8 puts
        # dt * rate past RK4's real-axis bound of about 2.785
        model = reduce(wye)
        with pytest.raises(UnstableTimeStepError) as exc_info:
            simulate_reduced(model, zero_excitation(), [-5.0, -5.0, 10.0], SolverConfig(dt=1.8, t_end=18.0))
        assert exc_info.value.rate > 2.785
        hm = homogeneous_reduce(make_balanced_wye(r=2.0, l=1.0))
        with pytest.raises(UnstableTimeStepError):
            simulate_homogeneous(hm, zero_excitation(), [1.0, 0.0, -1.0], SolverConfig(dt=1.5, t_end=3.0))

    def test_unvalidated_diagonal_model_matches_dense_recurrence(self):
        # allow_unphysical synthesis hands over networks without interior
        # nodes whose r or l may be negative: Lhat is not SPD, and the
        # r < 0 mode grows in the continuous model, which is not an RK4
        # instability
        net = Network(
            ("1", "2", "3"),
            (
                Edge("a", "1", "2", -2.0, 1.0),
                Edge("b", "2", "3", 3.0, -0.5),
                Edge("c", "3", "1", -4.0, -2.0),
            ),
            ("1", "2", "3"),
        )
        model = reduce(net, PStrategy.TREE_ELIMINATION)
        exc = Excitation({"1": Sinusoid(5.0, 1.0, 0.0), "2": Step(3.0, 0.2)})
        f0 = [1.0, -2.0, 0.5]
        steps, dense = _dense_reduced_states(model, exc, f0, self.CFG)
        traj = simulate_reduced(model, exc, f0, self.CFG)
        assert np.array_equal(traj.times, steps * self.CFG.dt)
        assert _rel_dev(traj.data[:, : model.order], dense) <= 1e-12
        # a decaying mode (r, l < 0) past the bound is still rejected
        with pytest.raises(UnstableTimeStepError) as exc_info:
            simulate_reduced(model, exc, f0, SolverConfig(dt=1.5, t_end=3.0))
        assert exc_info.value.rate == pytest.approx(3.0)

    def test_zero_inductance_diagonal_model_rejected(self):
        net = Network(
            ("1", "2"), (Edge("a", "1", "2", 1.0, 0.0),), ("1", "2")
        )
        model = reduce(net, PStrategy.TREE_ELIMINATION)
        with pytest.raises(SingularBlockError):
            simulate_reduced(model, zero_excitation(), [1.0], self.CFG)

    def test_oracle_does_not_use_modal_core(self, wye, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the DAE oracle must not use the modal core")

        monkeypatch.setattr(simulate_module, "_rk4_modal", refuse)
        traj = simulate_dae_oracle(wye, zero_excitation(), [-5.0, -5.0, 10.0], self.CFG)
        assert np.all(np.isfinite(traj.data))
        with pytest.raises(AssertionError):
            simulate_reduced(reduce(wye), zero_excitation(), [-5.0, -5.0, 10.0], self.CFG)


class TestRunSize:
    # MAX_STEPS steps recorded at every step: on the wye about 1.2 GiB of
    # stage inputs, forced parts and records for each method
    CFG = SolverConfig(dt=1e-3, t_end=MAX_STEPS * 1e-3)

    def test_refused_before_any_array(self, wye, monkeypatch):
        def refuse(*args):
            raise AssertionError("a run past the size limit was sampled")

        monkeypatch.setattr(Excitation, "evaluate", refuse)
        monkeypatch.setattr(simulate_module, "_stage_grid", refuse)
        exc, f0 = Excitation({"1": Sinusoid(120.0, 1.5, 0.0)}), [-5.0, -5.0, 10.0]
        runs = [
            lambda: simulate_reduced(reduce(wye), exc, f0, self.CFG),
            lambda: simulate_dae_oracle(wye, exc, f0, self.CFG),
            lambda: simulate_homogeneous(homogeneous_reduce(make_balanced_wye()), exc, [0.0, 0.0, 0.0], self.CFG),
        ]
        for run in runs:
            with pytest.raises(SolverConfigError, match="above the limit of 1 GiB"):
                run()

    def test_counts_every_run_of_a_batch(self, wye, monkeypatch):
        # 10000 steps at stride 10 on the wye: 0.66 MB of stage inputs and
        # forced parts, and 0.04 MB of records per run, so under a 1 MiB
        # limit 2 runs fit and 10 do not
        monkeypatch.setattr(simulate_module, "MAX_RUN_BYTES", 2**20)
        cfg = SolverConfig(dt=1e-3, t_end=10.0, record_stride=10)
        model, exc = reduce(wye), Excitation({"1": Sinusoid(120.0, 1.5, 0.0)})
        assert len(simulate_reduced_batch(model, exc, [[-5.0, -5.0, 10.0]] * 2, cfg)) == 2
        with pytest.raises(SolverConfigError, match="above the limit"):
            simulate_reduced_batch(model, exc, [[-5.0, -5.0, 10.0]] * 10, cfg)


class TestRunGuard:
    # A lossless wye whose currents a constant 1e307 V overflows by t = 100 s.
    # simulate_homogeneous and simulate_dae_oracle returned NaN rows, with
    # RuntimeWarnings, which pytest turns into errors.
    LOSSLESS = make_wye(r=(0.0, 0.0, 0.0))
    HUGE = Excitation({"1": Constant(1e307)})
    CFG = SolverConfig(dt=0.01, t_end=100.0)

    def test_homogeneous_overflow_raises(self):
        with pytest.raises(InputFormatError, match="overflow"):
            simulate_homogeneous(homogeneous_reduce(self.LOSSLESS), self.HUGE, [0.0, 0.0, 0.0], self.CFG)

    def test_oracle_overflow_raises(self):
        with pytest.raises(InputFormatError, match="overflow"):
            simulate_dae_oracle(self.LOSSLESS, self.HUGE, [0.0, 0.0, 0.0], self.CFG)

    def test_every_run_leaves_by_the_guard(self, monkeypatch):
        guarded, guard = [], simulate_module._finite_trajectory

        def recording(*args):
            guarded.append(guard(*args))
            return guarded[-1]

        monkeypatch.setattr(simulate_module, "_finite_trajectory", recording)
        net, f0, cfg = make_balanced_wye(), [-5.0, -5.0, 10.0], SolverConfig(dt=1e-3, t_end=0.01)
        exc = Excitation({"1": Sinusoid(5.0, 1.0, 0.0)})
        runs = [
            simulate_reduced(reduce(net), exc, f0, cfg),
            *simulate_reduced_batch(reduce(net), exc, [f0, [1.0, -1.0, 0.0]], cfg),
            simulate_dae_oracle(net, exc, f0, cfg),
            simulate_homogeneous(homogeneous_reduce(net), exc, [-5.0, -5.0, 10.0], cfg),
        ]
        assert len(guarded) == len(runs) and all(a is b for a, b in zip(runs, guarded))


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes about as long to import as kronred itself
    src = str(Path(kronred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kronred; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
