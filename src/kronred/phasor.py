"""Classical sinusoidal-steady-state Kron reduction.

Admittance assembly Y = B (R + jwL)^-1 B^T, Schur reduction to the
boundary nodes, and recovery of the eliminated interior voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DimensionMismatchError, InvalidFrequencyError
from .linalg import schur_complement
from .network import Network, build_incidence


def _wrap_phase(phase: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = math.remainder(phase, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class Phasor:
    """Amplitude/phase pair for x(t) = magnitude * cos(w t + phase)."""

    magnitude: float
    phase: float

    def __post_init__(self):
        if self.magnitude < 0:
            object.__setattr__(self, "magnitude", -self.magnitude)
            object.__setattr__(self, "phase", self.phase + math.pi)
        object.__setattr__(self, "phase", _wrap_phase(self.phase))

    @classmethod
    def from_complex(cls, z: complex) -> "Phasor":
        return cls(abs(z), math.atan2(z.imag, z.real) if z != 0 else 0.0)

    def to_complex(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Complex nodal admittance, boundary-first, as a scipy.sparse CSC array."""

    Y: sparse.csc_array
    omega: float
    boundary_nodes: tuple
    interior_nodes: tuple


@dataclass(frozen=True)
class KronReducedAdmittance:
    """Boundary-only admittance plus the interior-voltage recovery map."""

    Yr: np.ndarray            # (Nb, Nb)
    recovery_map: np.ndarray  # (N0, Nb): v0 = recovery_map @ v1
    omega: float
    boundary_nodes: tuple
    interior_nodes: tuple


def admittance(network: Network, omega: float) -> AdmittanceMatrix:
    """Nodal admittance Y = B (R + jwL)^-1 B^T at frequency omega (rad/s)."""
    if not (math.isfinite(omega) and omega > 0):
        raise InvalidFrequencyError(f"frequency must be positive and finite, got {omega!r} rad/s")
    with np.errstate(over="ignore"):
        x = omega * network.l_vector()
    if not np.all(np.isfinite(x)):
        edge = network.edges[int(np.argmin(np.isfinite(x)))].id
        raise InvalidFrequencyError(f"omega * l of edge {edge!r} overflows at {omega!r} rad/s")
    # For finite r and omega l, |1 / (r + j omega l)| >= 5e-309: a zero or
    # non-finite quotient means the division overflowed (or r = omega l = 0).
    with np.errstate(all="ignore"):
        y_edge = 1.0 / (network.r_vector() + 1j * x)
    bad = (y_edge == 0) | ~np.isfinite(y_edge)
    if np.any(bad):
        edge = network.edges[int(np.argmax(bad))].id
        raise InvalidFrequencyError(
            f"admittance 1 / (r + j omega l) of edge {edge!r} is zero or not finite at {omega!r} rad/s"
        )
    inc = build_incidence(network)
    return AdmittanceMatrix(
        Y=inc.laplacian(y_edge).tocsc(),
        omega=omega,
        boundary_nodes=inc.boundary_nodes,
        interior_nodes=inc.interior_nodes,
    )


def kron_reduce(adm: AdmittanceMatrix) -> KronReducedAdmittance:
    """Schur-eliminate the interior block of Y (see schur_complement).

    Returns the boundary admittance Yr = Y11 - Y10 Y00^-1 Y01 and the
    recovery map -Y00^-1 Y01 reconstructing interior voltages from
    boundary voltages (the interior rows of Y v = [i1; 0]).
    """
    Yr, X = schur_complement(adm.Y, len(adm.interior_nodes))
    return KronReducedAdmittance(
        Yr=Yr,
        recovery_map=-X,
        omega=adm.omega,
        boundary_nodes=adm.boundary_nodes,
        interior_nodes=adm.interior_nodes,
    )


def phasor_solve(reduced: KronReducedAdmittance, v1):
    """Boundary current phasors i1 = Yr v1 for boundary voltage phasors v1."""
    v1 = list(v1)
    if len(v1) != reduced.Yr.shape[0]:
        raise DimensionMismatchError(
            f"expected {reduced.Yr.shape[0]} boundary phasors, got {len(v1)}"
        )
    v1bar = np.array([p.to_complex() for p in v1])
    i1bar = reduced.Yr @ v1bar
    return [Phasor.from_complex(z) for z in i1bar]


def recover_interior_phasors(reduced: KronReducedAdmittance, v1):
    """Interior voltage phasors v0 = recovery_map @ v1."""
    v1bar = np.array([p.to_complex() for p in v1])
    v0bar = reduced.recovery_map @ v1bar
    return [Phasor.from_complex(z) for z in v0bar]
