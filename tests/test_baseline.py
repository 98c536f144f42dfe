import math

import numpy as np
import pytest

from kronred import (
    Edge,
    Excitation,
    Network,
    Sinusoid,
    SolverConfig,
    build_incidence,
    compare_trajectories,
    draw_gammas,
    heuristic_reduce,
    map_initial_condition,
    run_baseline_sweep,
    simulate_dae_oracle,
    validate,
)
from kronred.errors import NegativeSynthesizedElementError

from conftest import make_balanced_wye, make_wye
from reference import interior

DELTA_INCIDENCE = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)

# A parameter draw where the impedance synthesized at this omega0 has a
# negative real part, so the heuristic cannot return a physical network.
UNPHYSICAL_R = (5.12309803, 9.50513233, 1.45015453)
UNPHYSICAL_L = (9.48700798, 3.12519621, 4.23903123)
UNPHYSICAL_OMEGA0 = 82.78748912266214


class TestHeuristicReduce:
    def test_balanced_wye_gives_balanced_delta(self):
        net = heuristic_reduce(make_balanced_wye(r=1.0, l=1.0), omega0=2.0)
        assert len(net.edges) == 3
        assert interior(net) == ()
        for e in net.edges:
            assert np.isclose(e.r, 3.0)
            assert np.isclose(e.l, 3.0)

    def test_delta_orientation_is_cyclic(self):
        synth = heuristic_reduce(make_balanced_wye(), omega0=1.0)
        B = build_incidence(synth).matrix.toarray().astype(float)
        assert np.array_equal(B, DELTA_INCIDENCE)
        assert np.max(np.abs(B @ np.ones(3))) == 0.0

    def test_homogeneous_synthesis_is_frequency_independent(self):
        # R = alpha L makes every reduced impedance proportional to
        # (alpha + jw), so the synthesized r and l do not depend on omega0
        alpha = 1.7
        l = (0.55, 0.64, 0.77)
        net = make_wye(r=tuple(alpha * x for x in l), l=l)
        a = heuristic_reduce(net, omega0=0.8)
        b = heuristic_reduce(net, omega0=25.0)
        for ea, eb in zip(a.edges, b.edges):
            assert abs(ea.r - eb.r) <= 1e-10 * abs(ea.r)
            assert abs(ea.l - eb.l) <= 1e-10 * abs(ea.l)

    def test_inhomogeneous_synthesis_depends_on_frequency(self):
        net = make_wye()
        a = heuristic_reduce(net, omega0=1.0)
        b = heuristic_reduce(net, omega0=10.0)
        assert any(abs(ea.r - eb.r) > 1e-3 for ea, eb in zip(a.edges, b.edges))

    def test_unphysical_element_raises(self):
        net = make_wye(r=UNPHYSICAL_R, l=UNPHYSICAL_L)
        with pytest.raises(NegativeSynthesizedElementError):
            heuristic_reduce(net, UNPHYSICAL_OMEGA0)

    def test_allow_unphysical_proceeds(self):
        net = make_wye(r=UNPHYSICAL_R, l=UNPHYSICAL_L)
        synth = heuristic_reduce(net, UNPHYSICAL_OMEGA0, allow_unphysical=True)
        assert any(e.r < 0 for e in synth.edges)

    def test_rejects_nonpositive_omega0(self):
        with pytest.raises(ValueError):
            heuristic_reduce(make_balanced_wye(), omega0=0.0)


class TestMapInitialCondition:
    def test_min_norm_component(self):
        f0 = map_initial_condition(DELTA_INCIDENCE, [-5.0, -5.0, 10.0])
        assert np.allclose(f0, [0.0, -5.0, 5.0], atol=1e-12)

    def test_gamma_adds_circulation(self):
        f0 = map_initial_condition(DELTA_INCIDENCE, [-5.0, -5.0, 10.0], gamma=2.0)
        assert np.allclose(f0, [2.0, -3.0, 7.0], atol=1e-12)

    def test_zero_injections(self):
        assert np.allclose(map_initial_condition(DELTA_INCIDENCE, np.zeros(3)), 0.0)

    def test_injections_always_conform(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            i1 = rng.normal(size=3)
            i1 -= i1.mean()
            gamma = float(rng.uniform(-5, 5))
            f0 = map_initial_condition(DELTA_INCIDENCE, i1, gamma)
            assert np.allclose(DELTA_INCIDENCE @ f0, i1, atol=1e-10)

    def test_several_independent_cycles(self):
        # a four-arm star reduces to a K4 delta, whose null space has
        # dimension 3: the SVD's basis is not unique there, so check what
        # any basis must give
        star = validate(Network(
            ("1", "2", "3", "4", "c"),
            tuple(Edge(f"e{k}", str(k), "c", 1.0 + 0.1 * k, 0.5 + 0.2 * k) for k in range(1, 5)),
            ("1", "2", "3", "4"),
        ))
        Br = build_incidence(heuristic_reduce(star, omega0=2.0)).matrix.toarray().astype(float)
        assert Br.shape == (4, 6)
        i1 = np.array([3.0, -1.0, -4.5, 2.5])
        base = map_initial_condition(Br, i1)
        for gamma in (-2.5, 1.7):
            f = map_initial_condition(Br, i1, gamma)
            assert np.allclose(Br @ f, i1, atol=1e-12)
            assert np.allclose(Br @ (f - base), 0.0, atol=1e-12)
            assert np.linalg.norm(f - base) == pytest.approx(abs(gamma), rel=1e-12)
        assert np.allclose(Br @ base, i1, atol=1e-12)
        assert np.allclose(np.linalg.lstsq(Br, i1, rcond=None)[0], base, atol=1e-12)


class TestDrawGammas:
    def test_seeded_and_bounded(self):
        a = draw_gammas(seed=42)
        b = draw_gammas(seed=42)
        assert np.array_equal(a, b)
        assert a.shape == (5,)
        assert np.all((a >= -5.0) & (a <= 5.0))

    def test_different_seeds_differ(self):
        assert not np.array_equal(draw_gammas(0), draw_gammas(1))


class TestBaselineSweep:
    def test_exact_on_balanced_wye(self):
        # equal branch dynamics keep the circulating mode invisible at the
        # boundary, so every gamma reproduces the oracle injections
        net = make_balanced_wye(r=2.0, l=1.0)
        exc = Excitation({n: Sinusoid(10.0, 1.0, math.radians(p)) for n, p in zip("123", (0, 120, -120))})
        f0 = [1.0, 1.0, -2.0]
        cfg = SolverConfig(dt=1e-3, t_end=2.0)
        oracle = simulate_dae_oracle(net, exc, f0, cfg)
        _, runs = run_baseline_sweep(net, 2 * math.pi, exc, f0, [-3.0, 0.0, 4.0], cfg)
        for _, traj in runs:
            report = compare_trajectories(traj, oracle)
            assert report["max_rel"] <= 1e-9

    def test_initial_injections_conform(self, wye):
        cfg = SolverConfig(dt=1e-3, t_end=0.05)
        exc = Excitation({})
        f0 = [-5.0, -5.0, 10.0]
        _, runs = run_baseline_sweep(wye, 2 * math.pi * 1.5, exc, f0, draw_gammas(0), cfg)
        for _, traj in runs:
            i0 = [traj.channel(f"i_{n}")[0] for n in ("1", "2", "3")]
            assert np.allclose(i0, f0, atol=1e-9)

    def test_allow_unphysical_sweep_matches_oracle(self):
        # the synthesized network has r < 0 on one edge, so Lhat is
        # diagonal but the pencil has a growing mode
        net = make_wye(r=UNPHYSICAL_R, l=UNPHYSICAL_L)
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0), "2": Sinusoid(120.0, 1.5, 30.0)})
        cfg = SolverConfig(dt=1e-3, t_end=2.0)
        f0 = [-5.0, -5.0, 10.0]
        synth, runs = run_baseline_sweep(
            net, UNPHYSICAL_OMEGA0, exc, f0, [-1.0, 2.0], cfg, allow_unphysical=True
        )
        assert any(e.r < 0 for e in synth.edges)
        Br = build_incidence(synth).matrix
        for gamma, traj in runs:
            f0_delta = map_initial_condition(Br, f0, gamma)
            oracle = simulate_dae_oracle(synth, exc, f0_delta, cfg)
            assert compare_trajectories(traj, oracle)["max_rel"] <= 1e-9

    def test_transients_depend_on_gamma(self, wye):
        cfg = SolverConfig(dt=1e-3, t_end=1.0)
        exc = Excitation({"1": Sinusoid(120.0, 1.5, 0.0)})
        _, runs = run_baseline_sweep(wye, 2 * math.pi * 1.5, exc, [-5.0, -5.0, 10.0], [-4.0, 4.0], cfg)
        (_, a), (_, b) = runs
        report = compare_trajectories(a, b, channels=("i_1", "i_2", "i_3"))
        assert report["max_abs"] > 1e-2
