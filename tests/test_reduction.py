import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from kronred import (
    Edge,
    Excitation,
    Network,
    PStrategy,
    Sinusoid,
    SolverConfig,
    build_incidence,
    embed_initial,
    homogeneous_reduce,
    reduce,
    simulate_reduced,
    validate,
)
from kronred.errors import (
    InconsistentInitialConditionError,
    InputFormatError,
    NotHomogeneousError,
    RankDeficientInputError,
)
from kronred.linalg import dense, schur_complement, simultaneous_diagonalization
from kronred.reduction import build_P, check_model, model_from_dict, model_to_dict

from conftest import (
    make_balanced_wye,
    make_net_a,
    make_net_b,
    make_wye,
    random_connected_network,
    random_consistent_flow,
)
from reference import n_interior

ALL_STRATEGIES = list(PStrategy)


def lossless_every_third_edge(net):
    """net with r = 0 on edges 0, 3, 6, ..., so Rt can be singular."""
    edges = tuple(
        Edge(e.id, e.tail, e.head, 0.0 if k % 3 == 0 else e.r, e.l) for k, e in enumerate(net.edges)
    )
    return validate(Network(net.nodes, edges, net.boundary))


class TestBuildP:
    def test_unknown_strategy_raises(self, wye):
        with pytest.raises(ValueError, match="unknown strategy 'tree'"):
            build_P(build_incidence(wye), wye, "tree")

    def test_wye_tree_elimination(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        assert sparse.issparse(model.P)
        assert dense(model.P).tolist() == [[1, 0], [0, 1], [-1, -1]]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_path_null_direction(self, net_b, strategy):
        model = reduce(net_b, strategy)
        P = model.P
        assert P.shape == (2, 1)
        assert np.allclose(P[0, 0], P[1, 0])  # spans [1, 1]

    def test_modal_diagonalizes(self, wye):
        model = reduce(wye, PStrategy.MODAL_DIAGONALIZING)
        for M in (model.Lhat, model.Rhat):
            off = ~np.eye(2, dtype=bool)
            assert np.max(np.abs(M[off])) <= 1e-10 * np.max(np.abs(np.diag(M)))
        assert np.all(np.diag(model.Lhat) > 0)
        assert np.all(np.diag(model.Rhat) >= 0)

    def test_modal_pencil_is_exact(self, rng):
        # reduce(modal) stores the tree pencil's congruence as
        # simultaneous_diagonalization defines it: P = T V, Lhat = I and
        # Rhat = diag(d), bit for bit. One edge in three has r = 0, so Rt
        # is singular and raw eigh returns rounding-level negatives in its
        # null directions for some of these networks; the congruence
        # returns d clamped at 0 there.
        negative = 0
        for _ in range(40):
            net = lossless_every_third_edge(random_connected_network(rng))
            T, Lt, Rt = build_P(build_incidence(net), net, PStrategy.TREE_ELIMINATION)
            V, d = simultaneous_diagonalization(dense(Lt), dense(Rt))
            negative += bool(np.any(scipy.linalg.eigh(dense(Rt), dense(Lt))[0] < 0))
            model = reduce(net, PStrategy.MODAL_DIAGONALIZING)
            assert np.array_equal(model.P, T @ V)
            assert np.array_equal(model.Lhat, np.eye(d.size))
            assert np.array_equal(model.Rhat, np.diag(np.maximum(d, 0.0)))
        assert negative

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_annihilates_interior_block(self, rng, strategy):
        for _ in range(15):
            net = random_connected_network(rng)
            inc = build_incidence(net)
            P = dense(build_P(inc, net, strategy)[0])
            assert P.shape == (len(net.edges), len(net.edges) - n_interior(net))
            assert np.linalg.matrix_rank(P) == P.shape[1]
            if inc.b0.shape[0]:
                assert np.max(np.abs(inc.b0 @ P)) <= 1e-9

    def test_tree_elimination_is_integer(self, rng):
        for _ in range(25):
            net = random_connected_network(rng)
            inc = build_incidence(net)
            P = build_P(inc, net, PStrategy.TREE_ELIMINATION)[0].toarray()
            assert np.array_equal(P, np.rint(P))
            if inc.b0.shape[0]:
                assert not np.any(inc.b0 @ P.astype(int))

    def test_rank_deficient_raises(self, wye):
        # Without boundary nodes B0 is the whole incidence matrix, whose
        # rank is N - 1, so null(B0) is one dimension too large.
        net = Network(wye.nodes, wye.edges, ())
        for strategy in (PStrategy.ORTHONORMAL_NULL_BASIS, PStrategy.MODAL_DIAGONALIZING):
            with pytest.raises(RankDeficientInputError):
                build_P(build_incidence(net), net, strategy)

    def test_unreached_interior_node_raises_in_tree_basis(self, wye):
        # No boundary, or an interior island: only an unvalidated Network
        # has either. The tree basis used to index past its depth array.
        island = Network(
            wye.nodes + ("5", "6"), wye.edges + (Edge("e4", "5", "6", 1.0, 1.0),), wye.boundary
        )
        for net in (Network(wye.nodes, wye.edges, ()), island):
            with pytest.raises(RankDeficientInputError, match="no path to a boundary node"):
                build_P(build_incidence(net), net, PStrategy.TREE_ELIMINATION)


class TestReduce:
    def test_series_combination(self):
        net = make_net_b(r1=1.5, l1=0.4, r2=2.5, l2=0.6)
        model = reduce(net, PStrategy.TREE_ELIMINATION)
        assert np.allclose(model.Lhat, [[1.0]])
        assert np.allclose(model.Rhat, [[4.0]])
        assert np.allclose(model.Bhat.T, [[1.0, -1.0]])

    def test_wye_reduced_matrices(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        assert np.allclose(model.Lhat, [[1.32, 0.77], [0.77, 1.41]])
        assert np.allclose(model.Rhat, [[1.56, 0.58], [0.58, 1.57]])

    def test_no_interior_is_identity(self, net_a):
        model = reduce(net_a, PStrategy.TREE_ELIMINATION)
        assert np.array_equal(dense(model.P), np.eye(1))
        assert np.allclose(model.Lhat, [[1.0]])
        assert np.allclose(model.Rhat, [[1.0]])
        assert np.array_equal(model.Bhat, [[1.0], [-1.0]])

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_order_zero_model(self, strategy):
        # an edge hanging from the only boundary node carries no flow
        net = validate(Network(("1", "2"), (Edge("e1", "2", "1", 1.0, 1.0),), ("1",)))
        model = reduce(net, strategy)
        assert model.P.shape == (1, 0)
        assert model.Lhat.shape == model.Rhat.shape == (0, 0)
        assert model.Bhat.shape == (1, 0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_order_and_definiteness(self, rng, strategy):
        for _ in range(10):
            net = random_connected_network(rng)
            model = reduce(net, strategy)
            assert model.order == len(net.edges) - n_interior(net)
            assert np.all(np.linalg.eigvalsh(model.Lhat) > 0)
            assert np.min(np.linalg.eigvalsh(model.Rhat)) >= -1e-10


class TestCheckModel:
    # Relabelled boundary nodes keep Bhat = B1 P in the network's order, so
    # only the labels tell the model apart: the wye tree model with
    # boundary nodes ("2", "1", "3") used to pass, and its run put i_1
    # 0.498 A off.
    @pytest.mark.parametrize("field, value", [("boundary_nodes", ("2", "1", "3")), ("edge_ids", ("e2", "e1", "e3"))])
    def test_labels_must_be_the_networks(self, wye, field, value):
        model, incidence = reduce(wye, PStrategy.TREE_ELIMINATION), build_incidence(wye)
        check_model(model, incidence, wye)
        with pytest.raises(InputFormatError, match="other edges or boundary nodes than the network"):
            check_model(dataclasses.replace(model, **{field: value}), incidence, wye)


class TestEmbedLift:
    def test_wye_embedding(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        fhat0 = embed_initial(model.P, [-5.0, -5.0, 10.0])
        assert np.allclose(fhat0, [-5.0, -5.0])

    def test_zero_flow(self, wye):
        model = reduce(wye)
        assert np.allclose(embed_initial(model.P, np.zeros(3)), 0.0)

    def test_inconsistent_flow_rejected(self, wye):
        model = reduce(wye)
        # a non-finite f0 used to pass: its NaN residual failed "residual > tol"
        for f0 in ([1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(InconsistentInitialConditionError):
                embed_initial(model.P, f0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_small_imbalance_rejected(self, wye, strategy):
        # A component along B0^T (the wye's all-ones direction), outside
        # range(P), of 3e-9 relative: the former 1e-8 tolerance let it pass.
        f0 = np.array([-5.0, -5.0, 10.0])
        f0 += 3e-9 * np.linalg.norm(f0) * np.ones(3) / np.sqrt(3)
        with pytest.raises(InconsistentInitialConditionError):
            embed_initial(reduce(wye, strategy).P, f0)

    # Above about 1.3e154 the 2-norms' sums of squares overflowed, so an
    # unbalanced f0 passed as inf <= inf.
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("big", [1e150, 1e160, 1e308])
    def test_huge_flows_keep_the_balance_rule(self, wye, strategy, big):
        P = reduce(wye, strategy).P
        with pytest.raises(InconsistentInitialConditionError):
            embed_initial(P, [big, -5.0, 10.0])
        with pytest.raises(InconsistentInitialConditionError):  # at 1e308 a residual of 1.73 * 1.7e308 reads inf
            embed_initial(P, [1.7 * big] * 3)
        balanced = np.array([-0.25, -0.25, 0.5]) * big
        assert np.allclose(P @ embed_initial(P, balanced) / big, balanced / big, rtol=0.0, atol=1e-12)

    def test_lift_example(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        assert np.allclose(model.P @ [-5.0, -5.0], [-5.0, -5.0, 10.0])

    def test_lift_zero(self, wye):
        model = reduce(wye)
        assert np.allclose(model.P @ np.zeros(model.order), 0.0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_round_trip(self, rng, strategy):
        for _ in range(10):
            net = random_connected_network(rng)
            model = reduce(net, strategy)
            f0 = random_consistent_flow(net, rng)
            assert np.allclose(model.P @ embed_initial(model.P, f0), f0, atol=1e-12)


class TestOutputInjections:
    def test_series_current(self, net_b):
        model = reduce(net_b, PStrategy.TREE_ELIMINATION)
        assert np.array_equal(dense(model.P), [[1.0], [1.0]])
        assert np.allclose(model.Bhat @ [3.0], [3.0, -3.0])

    def test_zero(self, wye):
        model = reduce(wye)
        assert np.allclose(model.Bhat @ np.zeros(model.order), 0.0)

    def test_wye_injections(self, wye):
        model = reduce(wye, PStrategy.TREE_ELIMINATION)
        i1 = model.Bhat @ [-5.0, -5.0]
        assert np.allclose(i1, [-5.0, -5.0, 10.0])

    def test_injections_sum_to_zero(self, rng):
        for _ in range(10):
            net = random_connected_network(rng)
            model = reduce(net)
            fhat = rng.normal(size=model.order)
            i1 = model.Bhat @ fhat
            assert abs(i1.sum()) <= 1e-9 * max(np.max(np.abs(i1)), 1e-300)


class TestHomogeneousReduce:
    def test_matched_ratios(self):
        net = make_net_b(r1=0.4, l1=0.4, r2=0.9, l2=0.9)
        hm = homogeneous_reduce(net)
        assert np.isclose(hm.alpha, 1.0)
        lred_series, _ = schur_complement(
            build_incidence(net).matrix.astype(float)
            @ np.diag(1.0 / net.l_vector())
            @ build_incidence(net).matrix.T.astype(float),
            1,
        )
        assert np.allclose(hm.Lred, lred_series)

    def test_wye_parameters_not_homogeneous(self, wye):
        with pytest.raises(NotHomogeneousError):
            homogeneous_reduce(wye)

    def test_balanced_wye(self):
        hm = homogeneous_reduce(make_balanced_wye(r=2.0, l=1.0))
        assert np.isclose(hm.alpha, 2.0)
        assert np.allclose(hm.Lred, np.eye(3) - np.ones((3, 3)) / 3.0)


class TestEquivalenceIdentities:
    def test_weighted_projection_matches_schur(self, rng):
        # Boundary-side form B1 P (P^T W P)^-1 P^T B1^T vs the Schur
        # complement of the weighted Laplacian, for W = L and W = R + jwL.
        for _ in range(20):
            net = random_connected_network(rng)
            inc = build_incidence(net)
            r, l = net.r_vector(), net.l_vector()
            model = reduce(net)
            omega = float(rng.uniform(0.5, 20.0))
            for w in (l.astype(complex), r + 1j * omega * l):
                PWP = model.P.T @ (w[:, None] * model.P)
                lhs = inc.b1 @ model.P @ np.linalg.solve(PWP, model.P.T.astype(complex)) @ inc.b1.T
                B = inc.matrix.astype(float)
                Wt = (B / w[None, :]) @ B.T
                nb = inc.b1.shape[0]
                rhs, _ = schur_complement(Wt, B.shape[0] - nb)
                scale = max(np.max(np.abs(rhs)), 1e-300)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


class TestModelSerialization:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_round_trip(self, wye, strategy):
        model = reduce(wye, strategy)
        clone = model_from_dict(model_to_dict(model))
        # one layout on both sides, which BLAS would round differently
        for m in (model, clone):
            assert all(a.flags.c_contiguous for a in (dense(m.P), m.Lhat, m.Rhat, m.Bhat))
        assert np.array_equal(clone.P, dense(model.P))
        assert np.array_equal(clone.Lhat, model.Lhat)
        assert np.array_equal(clone.Rhat, model.Rhat)
        assert np.array_equal(clone.Bhat, model.Bhat)
        assert clone.strategy == model.strategy
        assert clone.boundary_nodes == model.boundary_nodes
        assert clone.edge_ids == model.edge_ids

    def test_written_models_load_and_run_alike(self, rng):
        # model_from_dict's definiteness check never rejects what reduce
        # writes, also where eigh rounds a zero mode below 0 (one edge in
        # three has r = 0), and the loaded model runs bit for bit alike.
        cfg = SolverConfig(dt=1e-3, t_end=0.01)
        negative = 0
        for _ in range(200):
            net = lossless_every_third_edge(random_connected_network(rng))
            exc = Excitation({net.boundary[0]: Sinusoid(10.0, 2.0, 0.0)})
            f0 = random_consistent_flow(net, rng)
            for strategy in ALL_STRATEGIES:
                model = reduce(net, strategy)
                negative += bool(np.any(scipy.linalg.eigh(model.Rhat, model.Lhat)[0] < 0))
                clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
                expected = simulate_reduced(model, exc, f0, cfg)
                loaded = simulate_reduced(clone, exc, f0, cfg)
                assert np.array_equal(loaded.data, expected.data)
        assert negative

    def test_order_zero_round_trip(self):
        # JSON writes an empty Lhat as [], which used to load with shape (0,)
        net = validate(Network(("1", "2"), (Edge("e1", "2", "1", 1.0, 1.0),), ("1",)))
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(reduce(net)))))
        assert clone.Lhat.shape == clone.Rhat.shape == (0, 0)
        assert clone.P.shape == clone.Bhat.shape == (1, 0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("Lhat", np.eye(3).tolist()),
            ("Rhat", [1.0, 2.0]),
            ("Bhat", [[1.0, 0.0]]),
            ("P", [[1.0, 0.0], [0.0, 1.0]]),
            ("edge_ids", ["e1", "e2"]),
            ("boundary_nodes", ["1", "2"]),
        ],
    )
    def test_shapes_must_agree_with_ids(self, wye, key, value):
        obj = model_to_dict(reduce(wye))
        obj[key] = value
        with pytest.raises(InputFormatError, match="shape"):
            model_from_dict(obj)
