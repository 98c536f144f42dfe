"""RL network definition, validation, and the sparse incidence matrix.

Node rows of the incidence matrix are ordered boundary-first; inside each
group the order follows the network's node list. Columns follow the edge
list. Edge direction is taken from the (from, to) pair of each edge; all
downstream results are orientation-invariant.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

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

    def r_vector(self):
        return np.array([e.r for e in self.edges], dtype=float)

    def l_vector(self):
        return np.array([e.l for e in self.edges], dtype=float)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Edge ends as node rows, boundary rows first: edge j runs from row
    tail[j] to row head[j]. B has +1 at the tail row and -1 at the head
    row of each column; it and its blocks B1 (boundary rows) and B0
    (interior rows) are scipy.sparse CSR arrays built from the ends."""

    tail: np.ndarray  # (E,) int
    head: np.ndarray  # (E,) int
    boundary_nodes: tuple
    interior_nodes: tuple
    edge_ids: tuple

    @property
    def matrix(self):
        E = len(self.edge_ids)
        rows = np.concatenate([self.tail, self.head])
        vals = np.repeat([1.0, -1.0], E)
        shape = (len(self.boundary_nodes) + len(self.interior_nodes), E)
        return sparse.csr_array((vals, (rows, np.tile(np.arange(E), 2))), shape=shape)

    def laplacian(self, w):
        """B diag(w) B^T as a COO array of each edge's four entries in
        edge order. Densifying it adds up each entry's terms in edge
        order, as a plain dense product of B, diag(w) and B^T does, so
        small networks give the same bits as that product."""
        t, h = self.tail, self.head
        rows = np.stack([t, h, t, h], axis=1).ravel()
        cols = np.stack([t, h, h, t], axis=1).ravel()
        vals = (np.asarray(w)[:, None] * np.array([1, 1, -1, -1])).ravel()
        n = len(self.boundary_nodes) + len(self.interior_nodes)
        return sparse.coo_array((vals, (rows, cols)), shape=(n, n))

    @property
    def b1(self):
        return self.matrix[: len(self.boundary_nodes)]

    @property
    def b0(self):
        return self.matrix[len(self.boundary_nodes):]


def validate(network: Network) -> Network:
    """Check structural requirements and return the network unchanged.

    Raises a :class:`NetworkValidationError` subclass on the first failure:
    duplicate ids, dangling edge endpoints, self-loops, non-finite r or l,
    l <= 0, r < 0, an r / l that overflows, empty boundary, or a
    disconnected graph. The boundary may equal the full node set (the
    reduction then degenerates to the identity).
    """
    if len(set(network.nodes)) != len(network.nodes):
        raise NetworkValidationError("duplicate node ids")
    if len(set(e.id for e in network.edges)) != len(network.edges):
        raise NetworkValidationError("duplicate edge ids")
    node_set = set(network.nodes)
    for e in network.edges:
        for node in (e.tail, e.head):
            if node not in node_set:
                raise UnknownNodeRefError(f"edge {e.id!r} references unknown node {node!r}")
        if e.tail == e.head:
            raise NetworkValidationError(f"edge {e.id!r} is a self-loop")
        if not math.isfinite(e.r):
            raise NetworkValidationError(f"edge {e.id!r} has non-finite resistance {e.r!r}")
        if not math.isfinite(e.l):
            raise NetworkValidationError(f"edge {e.id!r} has non-finite inductance {e.l!r}")
        if not e.l > 0:
            raise NonpositiveInductanceError(f"edge {e.id!r} has non-positive inductance")
        if e.r < 0:
            raise NegativeResistanceError(f"edge {e.id!r} has negative resistance")
        if not math.isfinite(e.r / e.l):
            raise NetworkValidationError(f"edge {e.id!r} has a non-finite rate r / l = {e.r / e.l!r}")
    if not network.boundary:
        raise EmptyBoundaryError("boundary node set is empty")
    for n in network.boundary:
        if n not in node_set:
            raise NetworkValidationError(f"boundary references unknown node {n!r}")
    inc = build_incidence(network)
    n = len(network.nodes)
    adjacency = sparse.csr_array((np.ones(inc.tail.size), (inc.tail, inc.head)), shape=(n, n))
    count = int(connected_components(adjacency, directed=False)[0])
    if count != 1:
        raise DisconnectedNetworkError(count)
    return network


def build_incidence(network: Network) -> IncidenceMatrix:
    """Incidence matrix B with +1 at the tail row, -1 at the head row."""
    bset = set(network.boundary)
    boundary_nodes = tuple(n for n in network.nodes if n in bset)
    interior_nodes = tuple(n for n in network.nodes if n not in bset)
    row_of = {n: i for i, n in enumerate(boundary_nodes + interior_nodes)}
    tail = np.array([row_of[e.tail] for e in network.edges], dtype=np.intp)
    head = np.array([row_of[e.head] for e in network.edges], dtype=np.intp)
    return IncidenceMatrix(tail, head, boundary_nodes, interior_nodes, tuple(e.id for e in network.edges))


_EDGE_KEYS = {"id", "from", "to", "r_ohm", "l_henry"}
_NETWORK_KEYS = {"nodes", "boundary", "edges"}


def network_from_dict(obj) -> Network:
    """Parse the network JSON object; unknown keys are rejected."""
    obj = json_object(obj, "network", _NETWORK_KEYS)
    for key in sorted(_NETWORK_KEYS):
        if not isinstance(obj[key], list):
            raise InputFormatError(f"network {key!r} must be a list, got {obj[key]!r}")
    for key in ("nodes", "boundary"):
        if not all(isinstance(n, str) for n in obj[key]):
            raise InputFormatError(f"network {key!r} must list node ids as strings")
    edges = []
    for raw in obj["edges"]:
        raw = json_object(raw, "edge", _EDGE_KEYS)
        if not all(isinstance(raw[k], str) for k in ("id", "from", "to")):
            raise InputFormatError(f"edge {raw['id']!r}: id, from and to must be strings")
        r, l = (json_number(raw[k], f"edge {raw['id']!r}: {k}", finite=False) for k in ("r_ohm", "l_henry"))
        edges.append(Edge(raw["id"], raw["from"], raw["to"], r, l))
    return Network(
        nodes=tuple(obj["nodes"]),
        edges=tuple(edges),
        boundary=tuple(obj["boundary"]),
    )


def json_object(obj, what, keys, required=None):
    """obj if it is a JSON object whose keys are all in keys and include
    every key in required (default: all of keys); InputFormatError
    naming what otherwise."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} must be an object, got {reprlib.repr(obj)}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise InputFormatError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(keys if required is None else required) - set(obj)
    if missing:
        raise InputFormatError(f"missing {what} keys: {sorted(missing)}")
    return obj


def json_number(value, what, scalar=True, finite=True):
    """A JSON number as a float or, unless scalar, nested lists of
    numbers as a float array whose shape the caller checks. A numeric
    string is read as its number. InputFormatError, naming what, for a
    boolean, null or other string anywhere in the value, and for NaN or
    +-inf when finite is set (float(True) is 1.0, and json reads NaN).
    An integer too large for a float is not a number here either."""
    entries = np.asarray(value, dtype=object)
    try:
        if (scalar and entries.ndim) or any(v is None or isinstance(v, bool) for v in entries.flat):
            raise TypeError
        numbers = entries.astype(float)
    except (TypeError, ValueError, OverflowError, RuntimeError):  # numpy allows 32 dimensions
        kind = "be a number" if scalar else "hold numbers only"
        raise InputFormatError(f"{what} must {kind}, got {reprlib.repr(value)}") from None
    if finite and not np.all(np.isfinite(numbers)):
        raise InputFormatError(f"{what} has a non-finite value: {reprlib.repr(value)}")
    return float(numbers) if scalar else numbers


def load_json(path):
    """Parse a JSON input file; malformed, too deeply nested or
    non-UTF-8 content raises InputFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InputFormatError(f"JSON in {path} is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_network(path) -> Network:
    """Load and validate a network JSON file."""
    return validate(network_from_dict(load_json(path)))
