"""Exact time-domain Kron reduction of voltage-actuated RL networks.

Eliminates zero-injection interior nodes from RL edge dynamics by
projecting onto the null space of the interior incidence block, and
cross-validates the reduced model against classical phasor Kron
reduction, the homogeneous-network reduction, a full constrained-model
solver, and a frequency-domain synthesis baseline.
"""

from .network import Edge, IncidenceMatrix, Network, build_incidence, load_network, validate
from .linalg import nullspace_basis, schur_complement, simultaneous_diagonalization
from .phasor import (
    AdmittanceMatrix,
    KronReducedAdmittance,
    Phasor,
    admittance,
    kron_reduce,
    phasor_solve,
    recover_interior_phasors,
)
from .reduction import (
    HomogeneousReducedModel,
    PStrategy,
    ReducedModel,
    build_P,
    embed_initial,
    homogeneous_reduce,
    load_model,
    reduce,
    save_model,
)
from .signals import Constant, Excitation, Piecewise, Sinusoid, Step, load_excitation
from .simulate import (
    SolverConfig,
    Trajectory,
    simulate_dae_oracle,
    simulate_homogeneous,
    simulate_reduced,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .baseline import draw_gammas, heuristic_reduce, map_initial_condition, run_baseline_sweep
from .compare import compare_trajectories

__version__ = "0.1.0"
