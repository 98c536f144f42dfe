import math

import numpy as np
import pytest
from scipy import sparse

from kronred import (
    Phasor,
    admittance,
    build_incidence,
    kron_reduce,
    phasor_solve,
)
from kronred.errors import DimensionMismatchError
from kronred.linalg import dense

from conftest import (
    make_balanced_wye,
    make_net_a,
    make_net_b,
    make_wye,
    random_connected_network,
)


class TestPhasorType:
    def test_phase_normalized(self):
        p = Phasor(1.0, 3.5 * math.pi)
        assert -math.pi < p.phase <= math.pi
        assert np.isclose(p.phase, -0.5 * math.pi)

    def test_phase_minus_pi_is_pi(self):
        assert Phasor(1.0, -math.pi).phase == math.pi

    def test_negative_magnitude_folded(self):
        p = Phasor(-2.0, 0.0)
        assert p.magnitude == 2.0
        assert np.isclose(p.phase, math.pi)

    def test_complex_round_trip(self):
        z = 3.0 - 4.0j
        assert np.isclose(Phasor.from_complex(z).to_complex(), z)


class TestAdmittance:
    def test_single_edge(self):
        adm = admittance(make_net_a(r=1.0, l=1.0), omega=1.0)
        expected = (0.5 - 0.5j) * np.array([[1, -1], [-1, 1]])
        assert sparse.issparse(adm.Y)
        assert np.allclose(dense(adm.Y), expected)

    def test_path_is_weighted_laplacian(self):
        net = make_net_b(r1=1.0, l1=2.0, r2=3.0, l2=0.5)
        omega = 2.0
        adm = admittance(net, omega)
        y1 = 1.0 / (1.0 + 1j * omega * 2.0)
        y2 = 1.0 / (3.0 + 1j * omega * 0.5)
        # rows: boundary 1, 2, then interior 3
        expected = np.array(
            [[y1, 0, -y1], [0, y2, -y2], [-y1, -y2, y1 + y2]]
        )
        assert np.allclose(dense(adm.Y), expected)

    def test_purely_inductive_scaling(self):
        net = make_balanced_wye(r=0.0, l=2.0)
        omega = 3.0
        adm = admittance(net, omega)
        B = build_incidence(net).matrix.toarray().astype(float)
        Ltilde = (B / 2.0) @ B.T
        assert np.allclose(dense(adm.Y), Ltilde / (1j * omega))

    def test_structure(self, rng):
        for _ in range(20):
            net = random_connected_network(rng)
            Y = dense(admittance(net, omega=float(rng.uniform(0.5, 20))).Y)
            assert np.allclose(Y, Y.T)
            scale = np.max(np.abs(Y))
            assert np.max(np.abs(Y.sum(axis=1))) <= 1e-12 * scale
            # edge weights 1/(r + jwl) have positive real and negative
            # imaginary parts, so Re(Y) is PSD and Im(Y) is NSD
            for part in (Y.real, -Y.imag):
                eigs = np.linalg.eigvalsh(0.5 * (part + part.T))
                assert eigs.min() >= -1e-10 * scale


class TestInteriorInvertibility:
    def test_random_interior_block_invertible(self, rng):
        for _ in range(50):
            net = random_connected_network(rng)
            adm = admittance(net, omega=float(rng.uniform(0.5, 20)))
            n0 = len(adm.interior_nodes)
            if n0:
                Y00 = dense(adm.Y)[-n0:, -n0:]
                assert np.isfinite(np.linalg.cond(Y00))
                assert np.linalg.cond(Y00) < 1e12


class TestKronReduce:
    def test_balanced_wye_gives_delta(self):
        omega = 2.0
        z = 1.0 + 1j * omega * 1.0
        reduced = kron_reduce(admittance(make_balanced_wye(), omega))
        off = reduced.Yr[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0 / (3.0 * z))
        assert np.max(np.abs(reduced.Yr.sum(axis=1))) <= 1e-12

    def test_series_rule(self):
        net = make_net_b(r1=1.0, l1=2.0, r2=3.0, l2=0.5)
        omega = 2.0
        z1 = 1.0 + 1j * omega * 2.0
        z2 = 3.0 + 1j * omega * 0.5
        reduced = kron_reduce(admittance(net, omega))
        expected = np.array([[1, -1], [-1, 1]]) / (z1 + z2)
        assert np.allclose(reduced.Yr, expected)

    def test_no_interior_is_identity(self):
        adm = admittance(make_net_a(), omega=1.0)
        reduced = kron_reduce(adm)
        assert np.allclose(reduced.Yr, dense(adm.Y))
        assert reduced.recovery_map.shape == (0, 2)

    def test_recovery_map_solves_interior_row(self, wye):
        adm = admittance(wye, omega=2 * math.pi * 1.5)
        reduced = kron_reduce(adm)
        v1 = np.array([1.0 + 0.5j, -0.3j, 0.7])
        v0 = reduced.recovery_map @ v1
        # interior KCL rows of the full model must vanish
        full_v = np.concatenate([v1, v0])
        assert np.max(np.abs((adm.Y @ full_v)[3:])) <= 1e-12


class TestPhasorSolve:
    def test_equal_voltages_give_zero_current(self, wye):
        reduced = kron_reduce(admittance(wye, omega=5.0))
        v1 = [Phasor(7.0, 0.3)] * 3
        i1 = phasor_solve(reduced, v1)
        assert all(p.magnitude <= 1e-12 for p in i1)

    def test_balanced_wye_single_source(self):
        omega = 2.0
        z = 1.0 + 1j * omega
        reduced = kron_reduce(admittance(make_balanced_wye(), omega))
        i1 = phasor_solve(reduced, [Phasor(1.0, 0.0), Phasor(0.0, 0.0), Phasor(0.0, 0.0)])
        expected = np.array([2.0, -1.0, -1.0]) / (3.0 * z)
        got = np.array([p.to_complex() for p in i1])
        assert np.allclose(got, expected)

    def test_dimension_mismatch(self, wye):
        reduced = kron_reduce(admittance(wye, omega=1.0))
        with pytest.raises(DimensionMismatchError):
            phasor_solve(reduced, [Phasor(1.0, 0.0)])
