"""RL network definition, validation, and incidence-matrix construction.

Node rows of the incidence matrix are ordered boundary-first; inside each
group the order follows the network's node list. Columns follow the edge
list. Edge direction is taken from the (from, to) pair of each edge; all
downstream results are orientation-invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedNetworkError,
    EmptyBoundaryError,
    InputFormatError,
    NegativeResistanceError,
    NetworkValidationError,
    NonpositiveInductanceError,
    UnknownNodeRefError,
)


@dataclass(frozen=True)
class Edge:
    """Directed RL edge; r in ohms (>= 0), l in henries (> 0)."""

    id: str
    tail: str
    head: str
    r: float
    l: float


@dataclass(frozen=True)
class Network:
    """Connected RL network with a designated boundary node subset.

    Instances returned by :func:`validate` satisfy all structural
    requirements; functions downstream expect validated networks.
    """

    nodes: tuple
    edges: tuple
    boundary: tuple

    @property
    def interior(self):
        bset = set(self.boundary)
        return tuple(n for n in self.nodes if n not in bset)

    @property
    def n_interior(self):
        return len(self.nodes) - len(set(self.boundary))

    def r_vector(self):
        return np.array([e.r for e in self.edges], dtype=float)

    def l_vector(self):
        return np.array([e.l for e in self.edges], dtype=float)

    def with_flipped_edge(self, edge_id):
        """Copy with one edge's direction reversed (for invariance tests)."""
        flipped = tuple(
            Edge(e.id, e.head, e.tail, e.r, e.l) if e.id == edge_id else e
            for e in self.edges
        )
        return Network(self.nodes, flipped, self.boundary)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Node-by-edge {0, +-1} matrix with boundary rows first."""

    matrix: np.ndarray  # (N, E) int
    boundary_nodes: tuple
    interior_nodes: tuple
    edge_ids: tuple

    @property
    def b1(self):
        return self.matrix[: len(self.boundary_nodes), :]

    @property
    def b0(self):
        return self.matrix[len(self.boundary_nodes):, :]


def _connected_component_count(network):
    adjacency = {n: set() for n in network.nodes}
    for e in network.edges:
        adjacency[e.tail].add(e.head)
        adjacency[e.head].add(e.tail)
    seen = set()
    components = 0
    for start in network.nodes:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
    return components


def validate(network: Network) -> Network:
    """Check structural requirements and return the network unchanged.

    Raises a :class:`NetworkValidationError` subclass on the first failure:
    duplicate ids, dangling edge endpoints, self-loops, non-finite r or l,
    l <= 0, r < 0, empty boundary, or a disconnected graph. The boundary
    may equal the full node set (the reduction then degenerates to the
    identity).
    """
    if len(set(network.nodes)) != len(network.nodes):
        raise NetworkValidationError("duplicate node ids")
    if len(set(e.id for e in network.edges)) != len(network.edges):
        raise NetworkValidationError("duplicate edge ids")
    node_set = set(network.nodes)
    for e in network.edges:
        if e.tail not in node_set:
            raise UnknownNodeRefError(e.id, e.tail)
        if e.head not in node_set:
            raise UnknownNodeRefError(e.id, e.head)
        if e.tail == e.head:
            raise NetworkValidationError(f"edge {e.id!r} is a self-loop")
        if not math.isfinite(e.r):
            raise NetworkValidationError(f"edge {e.id!r} has non-finite resistance {e.r!r}")
        if not math.isfinite(e.l):
            raise NetworkValidationError(f"edge {e.id!r} has non-finite inductance {e.l!r}")
        if not e.l > 0:
            raise NonpositiveInductanceError(e.id)
        if e.r < 0:
            raise NegativeResistanceError(e.id)
    if not network.boundary:
        raise EmptyBoundaryError()
    for n in network.boundary:
        if n not in node_set:
            raise NetworkValidationError(f"boundary references unknown node {n!r}")
    if len(network.nodes) > 0:
        count = _connected_component_count(network)
        if count != 1:
            raise DisconnectedNetworkError(count)
    return network


def build_incidence(network: Network) -> IncidenceMatrix:
    """Incidence matrix B with +1 at the tail row, -1 at the head row."""
    bset = set(network.boundary)
    boundary_nodes = tuple(n for n in network.nodes if n in bset)
    interior_nodes = tuple(n for n in network.nodes if n not in bset)
    row_of = {n: i for i, n in enumerate(boundary_nodes + interior_nodes)}
    B = np.zeros((len(network.nodes), len(network.edges)), dtype=int)
    for j, e in enumerate(network.edges):
        B[row_of[e.tail], j] = 1
        B[row_of[e.head], j] = -1
    return IncidenceMatrix(B, boundary_nodes, interior_nodes, tuple(e.id for e in network.edges))


_EDGE_KEYS = {"id", "from", "to", "r_ohm", "l_henry"}
_NETWORK_KEYS = {"nodes", "boundary", "edges"}


def network_from_dict(obj) -> Network:
    """Parse the network JSON object; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise InputFormatError("network JSON root must be an object")
    unknown = set(obj) - _NETWORK_KEYS
    if unknown:
        raise InputFormatError(f"unknown network keys: {sorted(unknown)}")
    missing = _NETWORK_KEYS - set(obj)
    if missing:
        raise InputFormatError(f"missing network keys: {sorted(missing)}")
    for key in sorted(_NETWORK_KEYS):
        if not isinstance(obj[key], list):
            raise InputFormatError(f"network {key!r} must be a list, got {obj[key]!r}")
    if not all(isinstance(n, str) for n in obj["nodes"]):
        raise InputFormatError("node ids must be strings")
    edges = []
    for raw in obj["edges"]:
        if not isinstance(raw, dict):
            raise InputFormatError("each edge must be an object")
        unknown = set(raw) - _EDGE_KEYS
        if unknown:
            raise InputFormatError(f"unknown edge keys: {sorted(unknown)}")
        missing = _EDGE_KEYS - set(raw)
        if missing:
            raise InputFormatError(f"missing edge keys: {sorted(missing)}")
        edge_id = str(raw["id"])
        values = []
        for key in ("r_ohm", "l_henry"):
            try:
                values.append(float(raw[key]))
            except (TypeError, ValueError):
                raise InputFormatError(
                    f"edge {edge_id!r}: {key} must be a number, got {raw[key]!r}"
                ) from None
        edges.append(Edge(edge_id, str(raw["from"]), str(raw["to"]), *values))
    return Network(
        nodes=tuple(obj["nodes"]),
        edges=tuple(edges),
        boundary=tuple(obj["boundary"]),
    )


def network_to_dict(network: Network) -> dict:
    return {
        "nodes": list(network.nodes),
        "boundary": list(network.boundary),
        "edges": [
            {"id": e.id, "from": e.tail, "to": e.head, "r_ohm": e.r, "l_henry": e.l}
            for e in network.edges
        ],
    }


def load_json(path):
    """Parse a JSON input file; malformed or non-UTF-8 content raises
    InputFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_network(path) -> Network:
    """Load and validate a network JSON file."""
    return validate(network_from_dict(load_json(path)))
