"""Seeded input generation for the kronred benchmark.

Everything here is built from the seed and plain numpy, without the
program's linear algebra, so the checks in ``workloads.py`` compare the
program against an independent construction:

* k x k square grids whose first row is the boundary, with edge
  orientations and r, l ~ U[0.5, 1] drawn from the seed;
* one sinusoid per boundary node, distinct phases, one frequency;
* initial edge flows made of random grid-face circulations plus flows
  on boundary-to-boundary edges, so the interior current balance holds
  by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kronred import Edge, Excitation, Network, Sinusoid

FREQ_HZ = 1.5
R_RANGE = (0.5, 1.0)
L_RANGE = (0.5, 1.0)


@dataclass(frozen=True)
class Grid:
    """A generated grid network with its own incidence data."""

    k: int
    network: Network
    B0: np.ndarray  # interior rows of the incidence matrix, edge columns
    B1: np.ndarray  # boundary rows

    @property
    def n_edges(self):
        return len(self.network.edges)

    @property
    def n_interior(self):
        return self.B0.shape[0]

    @property
    def order(self):
        return self.n_edges - self.n_interior


def _node(r, c):
    return f"n{r}_{c}"


def grid_network(k: int, rng: np.random.Generator) -> Grid:
    """k x k grid, boundary = row 0; edges run right and down, then a
    seeded coin flip reverses each edge's direction."""
    nodes = [_node(r, c) for r in range(k) for c in range(k)]
    ends = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                ends.append((_node(r, c), _node(r, c + 1)))
            if r + 1 < k:
                ends.append((_node(r, c), _node(r + 1, c)))
    flip = rng.random(len(ends)) < 0.5
    rs = rng.uniform(*R_RANGE, size=len(ends))
    ls = rng.uniform(*L_RANGE, size=len(ends))
    edges = []
    for j, (a, b) in enumerate(ends):
        tail, head = (b, a) if flip[j] else (a, b)
        edges.append(Edge(f"e{j}", tail, head, float(rs[j]), float(ls[j])))
    boundary = tuple(_node(0, c) for c in range(k))
    network = Network(nodes=tuple(nodes), edges=tuple(edges), boundary=boundary)
    row = {n: i for i, n in enumerate(nodes)}
    B = np.zeros((len(nodes), len(edges)))
    for j, e in enumerate(edges):
        B[row[e.tail], j] = 1.0
        B[row[e.head], j] = -1.0
    return Grid(k=k, network=network, B0=B[k:], B1=B[:k])


def boundary_sinusoids(grid: Grid, rng: np.random.Generator) -> Excitation:
    """One cosine per boundary node at FREQ_HZ; phases are spread over a
    full turn with seeded jitter, amplitudes drawn from U[80, 120] V."""
    nb = len(grid.network.boundary)
    jitter = rng.uniform(-0.2, 0.2, size=nb)
    amplitude = rng.uniform(80.0, 120.0, size=nb)
    return Excitation(
        signals={
            node: Sinusoid(float(amplitude[j]), FREQ_HZ, 2.0 * math.pi * j / nb + float(jitter[j]))
            for j, node in enumerate(grid.network.boundary)
        }
    )


def consistent_flows(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Initial flows with zero net current at every interior node.

    Each unit face gets a circulation c ~ U[-5, 5] (clockwise: right
    along the top, down the right side, left along the bottom, up the
    left side); each boundary-to-boundary edge gets an extra U[-5, 5].
    Circulations add nothing to any node's balance, and the extra flows
    touch boundary nodes only.
    """
    k = grid.k
    col = {(e.tail, e.head): (j, 1.0) for j, e in enumerate(grid.network.edges)}
    col.update({(e.head, e.tail): (j, -1.0) for j, e in enumerate(grid.network.edges)})
    f = np.zeros(grid.n_edges)
    for r in range(k - 1):
        for c in range(k - 1):
            loop = [(r, c), (r, c + 1), (r + 1, c + 1), (r + 1, c), (r, c)]
            circ = rng.uniform(-5.0, 5.0)
            for (ra, ca), (rb, cb) in zip(loop, loop[1:]):
                j, sign = col[(_node(ra, ca), _node(rb, cb))]
                f[j] += sign * circ
    for c in range(k - 1):
        j, sign = col[(_node(0, c), _node(0, c + 1))]
        f[j] += sign * rng.uniform(-5.0, 5.0)
    balance = np.max(np.abs(grid.B0 @ f))
    if balance > 1e-9 * np.max(np.abs(f)):
        raise RuntimeError(f"generated flows violate the interior balance by {balance}")
    return f
