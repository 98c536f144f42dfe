"""End-to-end acceptance gate.

Each test covers one headline claim about the toolkit, prints a single
pass/fail line with the measured figure, and asserts the pinned
tolerance. Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time

import numpy as np
import pytest

from kronred import (
    Excitation,
    PStrategy,
    Phasor,
    Sinusoid,
    SolverConfig,
    admittance,
    build_incidence,
    compare_trajectories,
    kron_reduce,
    nullspace_basis,
    phasor_solve,
    reduce,
    simulate_dae_oracle,
    simulate_homogeneous,
    simulate_reduced,
)
from kronred.experiment import (
    WYE_F0,
    run_experiment,
    sinusoid_excitation,
    step_excitation,
    wye_network,
)
from kronred.linalg import dense
from kronred.network import Edge, Network, validate
from kronred.reduction import build_P, homogeneous_reduce

from conftest import make_net_a, random_connected_network, random_consistent_flow
from reference import (
    extract_steady_phasors,
    n_interior,
    projection_identity_residual,
    with_flipped_edge,
    zero_excitation,
)


def _report(capsys, number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def _random_triples(seed, count):
    """(network, B0, weights, omega) samples shared by the identity checks."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        net = random_connected_network(rng, n_max=8, e_max=14)
        B0 = build_incidence(net).b0.astype(float)
        mag = rng.uniform(0.1, 10.0, size=len(net.edges))
        phase = rng.uniform(-0.49 * math.pi, 0.49 * math.pi, size=len(net.edges))
        triples.append((net, B0, mag * np.exp(1j * phase), float(rng.uniform(0.5, 20.0))))
    return triples


@pytest.fixture(scope="module")
def identity_triples():
    return _random_triples(seed=2024, count=200)


def test_criterion_1_exactness_on_wye_benchmark(capsys):
    net = wye_network()
    cfg = SolverConfig(dt=1e-4, t_end=10.0)
    worst = 0.0
    start = time.perf_counter()
    for excitation in (sinusoid_excitation(), step_excitation()):
        oracle = simulate_dae_oracle(net, excitation, WYE_F0, cfg)
        reduced = simulate_reduced(reduce(net), excitation, WYE_F0, cfg)
        cmp = compare_trajectories(reduced, oracle, channels=("i_1", "i_2", "i_3"))
        worst = max(worst, cmp["max_rel"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        capsys, 1, "exactness, wye benchmark", ok,
        f"max relative injection deviation {worst:.3e} <= 1e-6, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_exactness_on_random_networks(capsys):
    rng = np.random.default_rng(77)
    cfg = SolverConfig(dt=1e-4, t_end=2.0)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        net = random_connected_network(rng)
        f0 = random_consistent_flow(net, rng)
        exc = Excitation(
            {n: Sinusoid(float(rng.uniform(10, 120)), float(rng.uniform(0.5, 3.0)),
                         float(rng.uniform(-math.pi, math.pi)))
             for n in net.boundary}
        )
        oracle = simulate_dae_oracle(net, exc, f0, cfg)
        reduced = simulate_reduced(reduce(net), exc, f0, cfg)
        channels = tuple(f"i_{n}" for n in net.boundary)
        cmp = compare_trajectories(reduced, oracle, channels=channels)
        worst = max(worst, cmp["max_rel"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        capsys, 2, "exactness, 50 random networks", ok,
        f"max relative injection deviation {worst:.3e} <= 1e-6, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_3_weighted_projector_identity(capsys, identity_triples):
    rng = np.random.default_rng(3)
    worst = 0.0
    for net, B0, w, _ in identity_triples:
        P = nullspace_basis(B0) if B0.shape[0] else np.eye(len(net.edges))
        mix = rng.normal(size=(P.shape[1], P.shape[1])) + 3.0 * np.eye(P.shape[1])
        for basis in (P, P @ mix):
            worst = max(worst, projection_identity_residual(w, basis, B0))
    ok = worst <= 1e-10
    _report(
        capsys, 3, "weighted projector identity", ok,
        f"max residual {worst:.3e} <= 1e-10 over 200 triples x 2 bases",
    )


def test_criterion_4_boundary_schur_equivalence(capsys, identity_triples):
    worst = 0.0
    for net, B0, _, omega in identity_triples:
        inc = build_incidence(net)
        r, l = net.r_vector(), net.l_vector()
        P = nullspace_basis(B0) if B0.shape[0] else np.eye(len(net.edges))
        B = inc.matrix.toarray().astype(float)
        nb = inc.b1.shape[0]
        for w in (l.astype(complex), r + 1j * omega * l):
            PWP = P.T @ (w[:, None] * P)
            lhs = inc.b1 @ P @ np.linalg.solve(PWP, P.T.astype(complex)) @ inc.b1.T
            Wt = (B / w[None, :]) @ B.T
            if n_interior(net):
                W00 = Wt[nb:, nb:]
                rhs = Wt[:nb, :nb] - Wt[:nb, nb:] @ np.linalg.solve(W00, Wt[nb:, :nb])
            else:
                rhs = Wt
            scale = max(np.max(np.abs(rhs)), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    ok = worst <= 1e-10
    _report(
        capsys, 4, "boundary Schur equivalence", ok,
        f"max scaled residual {worst:.3e} <= 1e-10 for W = L and W = R + jwL",
    )


def test_criterion_5_phasor_harmonization(capsys):
    net = wye_network()
    freq = 1.5
    omega = 2.0 * math.pi * freq
    # 30 periods: transients (slowest mode ~ 1/s) are below 1e-8 by then
    cfg = SolverConfig(dt=1e-3, t_end=30.0 / freq)
    traj = simulate_reduced(reduce(net), sinusoid_excitation(), WYE_F0, cfg)
    channels = ("i_1", "i_2", "i_3")
    measured, _ = extract_steady_phasors(traj, freq, periods=4, channels=channels)
    reduced_adm = kron_reduce(admittance(net, omega))
    v1 = [Phasor(120.0, math.radians(d)) for d in (0.0, 30.0, -30.0)]
    predicted = phasor_solve(reduced_adm, v1)
    mag_err = max(
        abs(m.magnitude - p.magnitude) / p.magnitude for m, p in zip(measured, predicted)
    )
    phase_err = max(
        abs(math.remainder(m.phase - p.phase, 2.0 * math.pi))
        for m, p in zip(measured, predicted)
    )
    ok = mag_err <= 1e-4 and phase_err <= 1e-4
    _report(
        capsys, 5, "time-domain vs phasor steady state", ok,
        f"relative magnitude error {mag_err:.3e} <= 1e-4, phase error {phase_err:.3e} rad <= 1e-4",
    )


def test_criterion_6_homogeneous_harmonization(capsys):
    rng = np.random.default_rng(6)
    cfg = SolverConfig(dt=1e-3, t_end=1.0)
    worst = 0.0
    for _ in range(20):
        base = random_connected_network(rng)
        alpha = float(rng.uniform(0.5, 3.0))
        edges = tuple(Edge(e.id, e.tail, e.head, alpha * e.l, e.l) for e in base.edges)
        net = validate(Network(base.nodes, edges, base.boundary))
        f0 = random_consistent_flow(net, rng)
        exc = Excitation(
            {n: Sinusoid(float(rng.uniform(10, 50)), float(rng.uniform(0.5, 2.0)), 0.0)
             for n in net.boundary}
        )
        reduced = simulate_reduced(reduce(net), exc, f0, cfg)
        hm = homogeneous_reduce(net)
        i1_0 = build_incidence(net).b1.astype(float) @ f0
        homog = simulate_homogeneous(hm, exc, i1_0, cfg)
        cmp = compare_trajectories(homog, reduced)
        worst = max(worst, cmp["max_rel"])
    ok = worst <= 1e-8
    _report(
        capsys, 6, "homogeneous-model harmonization", ok,
        f"max relative injection deviation {worst:.3e} <= 1e-8 on 20 networks with R = alpha L",
    )


def test_criterion_7a_baseline_sinusoid_behavior(capsys):
    summary = run_experiment("sinusoid", seed=0)
    steady = [b["steady_state_error_rel"] for b in summary["baseline"]]
    transient = [b["transient_max_error_rel"] for b in summary["baseline"]]
    initial_dev = summary["initial_injection_max_deviation"]
    aligned = all(e <= 1e-3 for e in steady)
    varies = any(t >= 10.0 * max(s, 1e-300) for t, s in zip(transient, steady))
    ok = aligned and varies and initial_dev <= 1e-9
    _report(
        capsys, "7a", "baseline under matched-frequency sinusoid", ok,
        f"steady errors max {max(steady):.3e} <= 1e-3 for all 5 gammas, "
        f"transient/steady ratio max {max(t / max(s, 1e-300) for t, s in zip(transient, steady)):.1f} >= 10, "
        f"initial injections coincide to {initial_dev:.1e}",
    )


def test_criterion_7b_baseline_step_behavior(capsys):
    summary = run_experiment("step", seed=0)
    steady = [b["steady_state_error_rel"] for b in summary["baseline"]]
    initial_dev = summary["initial_injection_max_deviation"]
    all_wrong = all(e >= 1e-2 for e in steady)
    ok = all_wrong and initial_dev <= 1e-9
    _report(
        capsys, "7b", "baseline under step excitation", ok,
        f"steady errors min {min(steady):.3e} >= 1e-2 for all 5 gammas, "
        f"initial injections coincide to {initial_dev:.1e}",
    )


def test_criterion_8_structural_invariants(capsys):
    rng = np.random.default_rng(8)
    checks = []

    # null-space dimension, reduced-inertia definiteness, modal shape,
    # current conservation, interior-block invertibility: 200 cases
    dim_ok = definite_ok = modal_ok = conserve_ok = invert_ok = True
    for _ in range(200):
        net = random_connected_network(rng)
        E, N0 = len(net.edges), n_interior(net)
        P = build_P(build_incidence(net), net, PStrategy.ORTHONORMAL_NULL_BASIS)[0]
        dim_ok &= P.shape == (E, E - N0)
        model = reduce(net, PStrategy.MODAL_DIAGONALIZING)
        definite_ok &= bool(np.all(np.linalg.eigvalsh(model.Lhat) > 0))
        scale = max(np.max(np.abs(model.Lhat)), np.max(np.abs(model.Rhat)))
        off = ~np.eye(model.order, dtype=bool)
        modal_ok &= float(np.max(np.abs(model.Lhat[off]), initial=0.0)) <= 1e-10 * scale
        modal_ok &= float(np.max(np.abs(model.Rhat[off]), initial=0.0)) <= 1e-10 * scale
        modal_ok &= bool(np.all(np.diag(model.Rhat) >= -1e-12 * scale))
        i1 = model.Bhat @ rng.normal(size=model.order)
        conserve_ok &= abs(i1.sum()) <= 1e-9 * max(np.max(np.abs(i1)), 1e-300)
        # every edge has l > 0 (validated), which suffices for Y00 to be invertible
        if N0:
            Y00 = dense(admittance(net, float(rng.uniform(0.5, 20.0))).Y)[-N0:, -N0:]
            invert_ok &= bool(np.linalg.cond(Y00) < 1e12)
    checks += [
        ("dim null(B0) = E - N0", dim_ok),
        ("Lhat positive definite", definite_ok),
        ("modal strategy diagonal and nonnegative", modal_ok),
        ("boundary currents sum to zero", conserve_ok),
        ("interior admittance block invertible (all l > 0)", invert_ok),
    ]

    # orientation and strategy invariance of the simulated injections
    cfg = SolverConfig(dt=1e-3, t_end=0.5)
    invariance_dev = 0.0
    for _ in range(5):
        net = random_connected_network(rng)
        f0 = random_consistent_flow(net, rng)
        exc = Excitation({net.boundary[0]: Sinusoid(20.0, 1.0, 0.0)})
        channels = tuple(f"i_{n}" for n in net.boundary)
        runs = [
            simulate_reduced(reduce(net, s), exc, f0, cfg) for s in PStrategy
        ]
        flip_id = net.edges[int(rng.integers(len(net.edges)))].id
        flipped = validate(with_flipped_edge(net, flip_id))
        f0_flip = np.array(
            [-x if e.id == flip_id else x for x, e in zip(f0, net.edges)]
        )
        runs.append(simulate_reduced(reduce(flipped), exc, f0_flip, cfg))
        ref = runs[0]
        for other in runs[1:]:
            cmp = compare_trajectories(other, ref, channels=channels)
            invariance_dev = max(invariance_dev, cmp["max_rel"])
    checks.append(("orientation/strategy invariance <= 1e-8", invariance_dev <= 1e-8))

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    _report(
        capsys, 8, "structural invariants", ok,
        "all invariants hold on 200 random cases "
        f"(invariance deviation {invariance_dev:.3e})"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_9_integrator_order(capsys):
    # analytic single-edge decay f(t) = f0 exp(-t); halving dt should cut
    # the global error by about 2^4
    net = make_net_a(r=1.0, l=1.0)
    model = reduce(net)

    def global_error(dt):
        traj = simulate_reduced(model, zero_excitation(), [1.0], SolverConfig(dt=dt, t_end=1.0))
        return float(np.max(np.abs(traj.channel("fhat_0") - np.exp(-traj.times))))

    ratio = global_error(2e-2) / global_error(1e-2)
    ok = 12.0 <= ratio <= 20.0
    _report(
        capsys, 9, "integrator convergence order", ok,
        f"error ratio per dt halving {ratio:.2f} in [12, 20]",
    )
