import math

import numpy as np
import pytest

from kronred import build_incidence, embed_initial
from kronred.linalg import (
    nullspace_basis,
    schur_complement,
    simultaneous_diagonalization,
)
from kronred.errors import (
    InconsistentInitialConditionError,
    NotPositiveDefiniteError,
    SingularBlockError,
)

from conftest import make_net_b, make_wye, random_connected_network
from reference import projection_identity_residual

DELTA_INCIDENCE = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)


class TestNullspaceBasis:
    def test_row_of_ones(self):
        P = nullspace_basis(np.array([[1.0, 1.0, 1.0]]))
        assert P.shape == (3, 2)
        assert np.allclose(P.T @ P, np.eye(2))
        assert np.allclose(P.sum(axis=0), 0.0)

    def test_empty_constraint_is_identity(self):
        P = nullspace_basis(np.zeros((0, 4)))
        assert np.array_equal(P, np.eye(4))
        assert np.array_equal(nullspace_basis(np.zeros((2, 4))), np.eye(4))

    def test_path_interior_row(self):
        B0 = build_incidence(make_net_b()).b0.astype(float)
        P = nullspace_basis(B0)
        assert P.shape == (2, 1)
        assert np.allclose(np.abs(P[:, 0]), 1.0 / math.sqrt(2.0))
        assert np.allclose(P[0, 0], P[1, 0])

    def test_rank_deficient_uses_numerical_rank(self):
        M = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        P = nullspace_basis(M)
        assert P.shape == (3, 2)
        assert np.allclose(P.T @ P, np.eye(2))
        assert np.max(np.abs(M @ P)) <= 1e-12

    def test_annihilation_tolerance(self, rng):
        for _ in range(30):
            net = random_connected_network(rng)
            B0 = build_incidence(net).b0.astype(float)
            P = nullspace_basis(B0)
            if B0.shape[0]:
                assert np.max(np.abs(B0 @ P)) <= 1e-10 * np.max(np.abs(B0))


class TestSchurComplement:
    def test_block_diagonal(self):
        M = np.diag([2.0, 3.0, 5.0, 7.0])
        assert np.allclose(schur_complement(M, 2)[0], np.diag([2.0, 3.0]))

    def test_two_by_two(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        S, X = schur_complement(M, 1)
        assert np.allclose(S, [[1.5]])
        assert np.allclose(X, [[-0.5]])

    def test_balanced_wye_laplacian(self):
        z = 2.0 - 0.5j
        L = np.array(
            [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1], [-1, -1, -1, 3]],
            dtype=complex,
        ) / z
        reduced, _ = schur_complement(L, 1)
        expected = (np.eye(3) - np.ones((3, 3)) / 3.0) / z
        assert np.allclose(reduced, expected)

    def test_empty_interior_is_identity_op(self):
        M = np.arange(9.0).reshape(3, 3)
        S, X = schur_complement(M, 0)
        assert np.array_equal(S, M)
        assert X.shape == (0, 3)

    def test_singular_block_raises(self):
        with pytest.raises(SingularBlockError):
            schur_complement(np.diag([1.0, 0.0]), 1)

    @pytest.mark.parametrize("eps, singular", [(1e-14, True), (1e-12, False)])
    def test_near_singular_block_threshold(self, eps, singular):
        # The trailing block [[1, 1], [1, 1 + eps]] has kappa_2 about 4 / eps,
        # so 1 / kappa_2 is 2.5e-15 and 2.5e-13 against RCOND_SINGULAR = 1e-13.
        M = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0 + eps]])
        if singular:
            with pytest.raises(SingularBlockError):
                schur_complement(M, 2)
        else:
            S, X = schur_complement(M, 2)
            assert np.all(np.isfinite(S)) and np.all(np.isfinite(X))

    def test_near_singular_sparse_block_raises(self):
        # The same near-singular pair inside a 40 x 40 block that is 3%
        # nonzero, a block of the size and fill of a grid's interior.
        M = np.eye(41)
        M[0, 1] = M[1, 0] = 1.0
        M[39:, 39:] = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
        with pytest.raises(SingularBlockError):
            schur_complement(M, 40)

    def test_symmetry_preserved(self, rng):
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            M = A @ A.T + 6 * np.eye(6)
            S, _ = schur_complement(M, 3)
            assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))


class TestMinNormSolution:
    def test_identity(self, rng):
        b = rng.normal(size=5)
        assert np.allclose(embed_initial(np.eye(5), b), b)

    def test_delta_incidence(self):
        x = embed_initial(DELTA_INCIDENCE, np.array([-5.0, -5.0, 10.0]))
        assert np.allclose(x, [0.0, -5.0, 5.0], atol=1e-12)

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentInitialConditionError):
            embed_initial(DELTA_INCIDENCE, np.array([1.0, 1.0, 1.0]))

    def test_orthogonal_to_nullspace(self, rng):
        for _ in range(20):
            A = rng.normal(size=(3, 6))
            x = embed_initial(A, A @ rng.normal(size=6))
            N = nullspace_basis(A)
            assert np.max(np.abs(N.T @ x)) <= 1e-12 * max(np.linalg.norm(x), 1.0)


class TestSimultaneousDiagonalization:
    @staticmethod
    def assert_diagonalizes(Lp, Rp, V):
        VL = V.T @ Lp @ V
        VR = V.T @ Rp @ V
        scale_l = max(np.max(np.abs(np.diag(VL))), 1e-300)
        scale_r = max(np.max(np.abs(np.diag(VR))), scale_l)
        off = ~np.eye(VL.shape[0], dtype=bool)
        assert np.max(np.abs(VL[off])) <= 1e-10 * scale_l
        assert np.max(np.abs(VR[off]), initial=0.0) <= 1e-10 * scale_r
        assert np.all(np.diag(VL) > 0)
        assert np.all(np.diag(VR) >= -1e-12 * scale_r)

    def test_identity_pencil(self):
        V, d = simultaneous_diagonalization(np.eye(2), np.diag([3.0, 7.0]))
        self.assert_diagonalizes(np.eye(2), np.diag([3.0, 7.0]), V)
        assert np.allclose(sorted(d), [3.0, 7.0])

    def test_whitening_example(self):
        Lp = np.diag([4.0, 1.0])
        Rp = np.diag([4.0, 4.0])
        V, d = simultaneous_diagonalization(Lp, Rp)
        assert np.allclose(V.T @ Lp @ V, np.eye(2))
        assert np.allclose(sorted(np.diag(V.T @ Rp @ V)), [1.0, 4.0])
        assert np.allclose(sorted(d), [1.0, 4.0])

    def test_zero_second_matrix(self, rng):
        A = rng.normal(size=(4, 4))
        Lp = A @ A.T + 4 * np.eye(4)
        V, d = simultaneous_diagonalization(Lp, np.zeros((4, 4)))
        self.assert_diagonalizes(Lp, np.zeros((4, 4)), V)
        assert np.allclose(d, 0.0)

    def test_not_spd_raises(self):
        # negative definite, indefinite and singular first matrices
        for Lp in (-np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 0.0])):
            with pytest.raises(NotPositiveDefiniteError):
                simultaneous_diagonalization(Lp, np.eye(2))

    def test_rounding_negative_is_clamped(self):
        # a d within 1e-10 of max|d| below 0 is a zero mode, returned as 0
        V, d = simultaneous_diagonalization(np.eye(3), np.diag([2.0, -1e-12, 0.0]))
        assert np.array_equal(d, [0.0, 0.0, 2.0])
        assert not np.any(np.signbit(d))

    @pytest.mark.parametrize(
        "Rp",
        [np.diag([2.0, -3e-10]), np.diag([-5.0, 1.0]), np.array([[1.56, 100.0], [100.0, 1.57]])],
        ids=["just-below", "negative-diagonal", "indefinite"],
    )
    def test_indefinite_second_matrix_raises(self, Rp):
        with pytest.raises(NotPositiveDefiniteError, match="second"):
            simultaneous_diagonalization(np.eye(2), Rp)

    def test_random_pencils(self, rng):
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            Lp = A @ A.T + 5 * np.eye(5)
            C = rng.normal(size=(5, 3))
            Rp = C @ C.T  # rank-deficient PSD
            V, _ = simultaneous_diagonalization(Lp, Rp)
            self.assert_diagonalizes(Lp, Rp, V)


def random_interior_weights(rng, net):
    """Nonzero complex weights with positive real part (impedance-like)."""
    E = len(net.edges)
    mag = rng.uniform(0.1, 10.0, size=E)
    phase = rng.uniform(-0.49 * math.pi, 0.49 * math.pi, size=E)
    return mag * np.exp(1j * phase)


class TestProjectionIdentity:
    def test_unit_weights(self, wye):
        B0 = build_incidence(wye).b0.astype(float)
        P = nullspace_basis(B0)
        assert projection_identity_residual(np.ones(3), P, B0) <= 1e-10

    def test_wye_impedance_weights(self, wye):
        B0 = build_incidence(wye).b0.astype(float)
        P = nullspace_basis(B0)
        omega = 2 * math.pi * 1.5
        w = wye.r_vector() + 1j * omega * wye.l_vector()
        assert projection_identity_residual(w, P, B0) <= 1e-10

    def test_basis_independence(self, wye, rng):
        B0 = build_incidence(wye).b0.astype(float)
        P = nullspace_basis(B0)
        mix = rng.normal(size=(P.shape[1], P.shape[1])) + 3 * np.eye(P.shape[1])
        P2 = P @ mix
        w = random_interior_weights(rng, wye)

        def lhs(basis):
            return basis @ np.linalg.solve(basis.T @ (w[:, None] * basis), basis.T.astype(complex))

        assert np.max(np.abs(lhs(P) - lhs(P2))) <= 1e-10

    def test_random_triples(self, rng):
        for _ in range(40):
            net = random_connected_network(rng, n_max=8, e_max=14)
            B0 = build_incidence(net).b0.astype(float)
            P = nullspace_basis(B0)
            w = random_interior_weights(rng, net)
            assert projection_identity_residual(w, P, B0) <= 1e-10

    def test_projector_idempotent_symmetric(self, rng):
        for _ in range(20):
            net = random_connected_network(rng)
            B0 = build_incidence(net).b0.astype(float)
            P = nullspace_basis(B0)
            proj = P @ np.linalg.solve(P.T @ P, P.T)
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
            assert np.max(np.abs(proj - proj.T)) <= 1e-12
