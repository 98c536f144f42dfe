"""Built-in wye-delta benchmark experiment.

A three-branch wye network (one interior center node) with fixed RL
parameters is driven by sinusoidal or step voltages and simulated with
the exact reduced model, the independent full-model solver, and the
frequency-domain baseline with randomized initial-current ambiguity.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .baseline import baseline_errors, draw_gammas, run_baseline_sweep
from .compare import compare_trajectories
from .csvio import write_trajectories
from .errors import InputFormatError
from .network import Edge, Network, validate
from .reduction import reduce
from .signals import Excitation, Sinusoid, Step
from .simulate import SolverConfig, simulate_dae_oracle, simulate_reduced

WYE_R = (0.98, 0.99, 0.58)          # ohms
WYE_L = (0.55, 0.64, 0.77)          # henries
WYE_F0 = (-5.0, -5.0, 10.0)         # amps, satisfies KCL at the center
SIN_FREQ_HZ = 1.5
SIN_AMPLITUDE_V = 120.0
SIN_PHASES_DEG = (0.0, 30.0, -30.0)
STEP_VALUES_V = (120.0, 100.0, 110.0)
OMEGA0 = 2.0 * math.pi * SIN_FREQ_HZ
# The paper's solver settings, and paper-experiment's defaults.
PAPER_SOLVER = SolverConfig(dt=1e-4, t_end=10.0, record_stride=10)


def wye_network() -> Network:
    edges = tuple(
        Edge(f"e{k + 1}", str(k + 1), "4", WYE_R[k], WYE_L[k]) for k in range(3)
    )
    return validate(Network(nodes=("1", "2", "3", "4"), edges=edges, boundary=("1", "2", "3")))


def sinusoid_excitation() -> Excitation:
    return Excitation(
        signals={
            str(k + 1): Sinusoid(SIN_AMPLITUDE_V, SIN_FREQ_HZ, math.radians(SIN_PHASES_DEG[k]))
            for k in range(3)
        }
    )


def step_excitation() -> Excitation:
    return Excitation(
        signals={str(k + 1): Step(STEP_VALUES_V[k], 0.0) for k in range(3)}
    )


def resolve_seed(flag_seed=None, manifest_seed=None):
    """Seed priority: CLI flag, then KRONRED_SEED, then manifest, then 0.

    A boolean seed, or one that is not a non-negative whole number, raises
    InputFormatError.
    """
    env = os.environ.get("KRONRED_SEED")
    sources = (("--seed", flag_seed), ("KRONRED_SEED", env), ("manifest seed", manifest_seed))
    for source, value in sources:
        if value is None:
            continue
        try:
            seed = int(value)
        except (TypeError, ValueError, OverflowError):
            seed = None
        if seed is None or isinstance(value, bool) or (isinstance(value, float) and seed != value):
            raise InputFormatError(f"{source} must be an integer, got {value!r}")
        if seed < 0:
            raise InputFormatError(f"{source} must be non-negative, got {value!r}")
        return seed
    return 0


def run_experiment(
    which: str,
    out_dir=None,
    seed: int = 0,
    cfg: SolverConfig = PAPER_SOLVER,
) -> dict:
    """Run one excitation variant end to end.

    Returns a summary dict; when out_dir is given also writes one CSV per
    run (dae, reduced, baseline_gamma_<k>) plus summary.json there.
    """
    if which == "sinusoid":
        excitation = sinusoid_excitation()
    elif which == "step":
        excitation = step_excitation()
    else:
        raise ValueError(f"unknown experiment {which!r}, expected 'sinusoid' or 'step'")
    network = wye_network()
    f0 = np.array(WYE_F0)
    oracle = simulate_dae_oracle(network, excitation, f0, cfg)
    reduced_traj = simulate_reduced(reduce(network), excitation, f0, cfg)
    gammas = draw_gammas(seed)
    synth, baseline_runs = run_baseline_sweep(network, OMEGA0, excitation, f0, gammas, cfg)

    i_channels = [f"i_{n}" for n in ("1", "2", "3")]
    exact_cmp = compare_trajectories(reduced_traj, oracle, channels=i_channels)
    baseline_summaries = baseline_errors(baseline_runs, oracle)
    initial_max_dev = max(
        float(np.max(np.abs(traj.select(i_channels).data[0] - oracle.select(i_channels).data[0])))
        for traj in [reduced_traj] + [run for _, run in baseline_runs]
    )
    steady_errors = [b["steady_state_error_rel"] for b in baseline_summaries]
    transient_errors = [b["transient_max_error_rel"] for b in baseline_summaries]
    observations = {
        "initial_injections_coincide": initial_max_dev <= 1e-9,
        "reduced_matches_oracle": exact_cmp["max_rel"] <= 1e-6,
    }
    if which == "sinusoid":
        observations["baselines_align_in_steady_state"] = all(e <= 1e-3 for e in steady_errors)
        observations["baseline_transients_vary"] = any(
            t >= 10.0 * max(s, 1e-300) for t, s in zip(transient_errors, steady_errors)
        )
    else:
        observations["baselines_differ_from_oracle_in_steady_state"] = all(
            e >= 1e-2 for e in steady_errors
        )
        pairwise = [
            compare_trajectories(traj, baseline_runs[0][1], channels=i_channels)["steady_rel"]
            for _, traj in baseline_runs[1:]
        ]
        observations["baselines_coincide_with_each_other_in_steady_state"] = max(pairwise) <= 1e-2
    summary = {
        "experiment": which,
        "seed": int(seed),
        "solver": {"dt_s": cfg.dt, "t_end_s": cfg.t_end, "record_stride": cfg.record_stride},
        "omega0_rad_s": OMEGA0,
        "reduced_vs_oracle": exact_cmp,
        "initial_injection_max_deviation": initial_max_dev,
        "baseline": baseline_summaries,
        "observations": observations,
        "synthesized_delta": {
            e.id: {"r_ohm": e.r, "l_henry": e.l} for e in synth.edges
        },
    }
    if out_dir is not None:
        out = Path(out_dir)
        trajectories = {"dae": oracle, "reduced": reduced_traj}
        for k, (_, traj) in enumerate(baseline_runs):
            trajectories[f"baseline_gamma_{k}"] = traj
        write_trajectories(trajectories, out)
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    return summary
