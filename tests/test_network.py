import json

import numpy as np
import pytest

from kronred import Edge, Network, build_incidence, validate
from kronred.errors import (
    DisconnectedNetworkError,
    EmptyBoundaryError,
    InputFormatError,
    NetworkValidationError,
    NonpositiveInductanceError,
    NegativeResistanceError,
    UnknownNodeRefError,
)
from kronred.network import load_network, network_from_dict

from conftest import make_net_a, make_net_b, make_wye, random_connected_network
from reference import network_to_dict


class TestValidate:
    def test_minimal_network_is_valid(self):
        make_net_a()

    def test_wye_is_valid(self):
        make_wye()

    def test_zero_inductance_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "2", 1.0, 0.0),), ("1", "2"))
        with pytest.raises(NonpositiveInductanceError):
            validate(net)

    def test_negative_resistance_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "2", -0.5, 1.0),), ("1", "2"))
        with pytest.raises(NegativeResistanceError):
            validate(net)

    @pytest.mark.parametrize(
        "r, l, quantity",
        [
            (float("nan"), 1.0, "resistance"),
            (float("inf"), 1.0, "resistance"),
            (1.0, float("nan"), "inductance"),
            (1.0, float("inf"), "inductance"),
        ],
    )
    def test_non_finite_parameter_rejected(self, r, l, quantity):
        net = Network(("1", "2"), (Edge("e1", "1", "2", r, l),), ("1", "2"))
        with pytest.raises(NetworkValidationError, match=f"non-finite {quantity}") as exc_info:
            validate(net)
        assert not isinstance(exc_info.value, NonpositiveInductanceError)

    def test_zero_resistance_allowed(self):
        validate(Network(("1", "2"), (Edge("e1", "1", "2", 0.0, 1.0),), ("1", "2")))

    def test_disconnected_rejected(self):
        net = Network(
            ("1", "2", "3", "4"),
            (Edge("e1", "1", "2", 1.0, 1.0), Edge("e2", "3", "4", 1.0, 1.0)),
            ("1", "3"),
        )
        with pytest.raises(DisconnectedNetworkError) as exc_info:
            validate(net)
        assert exc_info.value.component_count == 2

    def test_empty_boundary_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "2", 1.0, 1.0),), ())
        with pytest.raises(EmptyBoundaryError):
            validate(net)

    def test_unknown_node_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "9", 1.0, 1.0),), ("1", "2"))
        with pytest.raises(UnknownNodeRefError):
            validate(net)

    def test_duplicate_node_ids_rejected(self):
        net = Network(("1", "2", "1"), (Edge("e1", "1", "2", 1.0, 1.0),), ("1", "2"))
        with pytest.raises(NetworkValidationError, match="duplicate node ids"):
            validate(net)

    def test_duplicate_edge_ids_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "2", 1.0, 1.0), Edge("e1", "2", "1", 2.0, 2.0)), ("1", "2"))
        with pytest.raises(NetworkValidationError, match="duplicate edge ids"):
            validate(net)

    def test_unknown_boundary_node_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "2", 1.0, 1.0),), ("1", "9"))
        with pytest.raises(NetworkValidationError, match="boundary references unknown node '9'"):
            validate(net)

    def test_self_loop_rejected(self):
        net = Network(("1", "2"), (Edge("e1", "1", "1", 1.0, 1.0),), ("1", "2"))
        with pytest.raises(NetworkValidationError):
            validate(net)

    def test_parallel_edges_allowed(self):
        validate(
            Network(
                ("1", "2"),
                (Edge("e1", "1", "2", 1.0, 1.0), Edge("e2", "2", "1", 2.0, 2.0)),
                ("1", "2"),
            )
        )


class TestIncidence:
    def test_single_edge(self, net_a):
        B = build_incidence(net_a).matrix.toarray()
        assert B.tolist() == [[1], [-1]]

    def test_wye_interior_row(self, wye):
        inc = build_incidence(wye)
        assert inc.b0.toarray().tolist() == [[-1, -1, -1]]

    def test_path_graph(self, net_b):
        inc = build_incidence(net_b)
        assert inc.matrix.toarray().tolist() == [[1, 0], [0, -1], [-1, 1]]
        assert inc.b0.toarray().tolist() == [[-1, 1]]


class TestPartition:
    def test_wye_boundary_block_is_identity(self, wye):
        assert np.array_equal(build_incidence(wye).b1.toarray(), np.eye(3))
        assert np.allclose(wye.r_vector(), [0.98, 0.99, 0.58])
        assert np.allclose(wye.l_vector(), [0.55, 0.64, 0.77])

    def test_path_blocks(self, net_b):
        inc = build_incidence(net_b)
        assert inc.b1.toarray().tolist() == [[1, 0], [0, -1]]
        assert inc.b0.toarray().tolist() == [[-1, 1]]

    def test_no_interior_gives_empty_block(self, net_a):
        assert build_incidence(net_a).b0.shape == (0, 1)

    def test_stacking_reproduces_b(self, rng):
        for _ in range(20):
            inc = build_incidence(random_connected_network(rng))
            assert np.array_equal(np.vstack([inc.b1.toarray(), inc.b0.toarray()]), inc.matrix.toarray())


class TestIncidenceProperties:
    def test_columns_have_one_source_one_sink(self, rng):
        for _ in range(50):
            B = build_incidence(random_connected_network(rng)).matrix
            assert np.all(B.sum(axis=0) == 0)
            assert np.all((B == 1).sum(axis=0) == 1)
            assert np.all((B == -1).sum(axis=0) == 1)

    def test_rank_is_n_minus_1(self, rng):
        for _ in range(100):
            net = random_connected_network(rng, n_max=12)
            B = build_incidence(net).matrix.toarray().astype(float)
            assert np.linalg.matrix_rank(B) == len(net.nodes) - 1

    def test_interior_rows_independent(self, rng):
        for _ in range(100):
            net = random_connected_network(rng, n_max=12)
            B0 = build_incidence(net).b0.toarray().astype(float)
            assert np.linalg.matrix_rank(B0) == B0.shape[0]


class TestJson:
    def test_round_trip(self, wye):
        assert network_from_dict(network_to_dict(wye)) == wye

    def test_unknown_top_level_key_rejected(self, wye):
        obj = network_to_dict(wye)
        obj["comment"] = "nope"
        with pytest.raises(InputFormatError):
            network_from_dict(obj)

    def test_unknown_edge_key_rejected(self, wye):
        obj = network_to_dict(wye)
        obj["edges"][0]["x"] = 1
        with pytest.raises(InputFormatError):
            network_from_dict(obj)

    @pytest.mark.parametrize("obj", [[], "wye", 3.0, None])
    def test_non_object_rejected(self, obj):
        with pytest.raises(InputFormatError, match="network must be an object"):
            network_from_dict(obj)

    def test_non_object_edge_rejected(self, wye):
        obj = network_to_dict(wye)
        obj["edges"][1] = ["e2", "2", "4"]
        with pytest.raises(InputFormatError, match="edge must be an object"):
            network_from_dict(obj)

    def test_missing_key_rejected(self):
        with pytest.raises(InputFormatError):
            network_from_dict({"nodes": ["1"], "edges": []})

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match="line"):
            load_network(path)

    def test_load_valid_file(self, tmp_path, net_b):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_to_dict(net_b)))
        assert load_network(path) == net_b
