"""How fast the machine runs right now, from a fixed reference computation.

On a shared VM the CPU's speed swings by up to 2x, switching within
seconds and changing its mix over minutes, so the wall time of the same
operation differs from run to run far more than the program does. The
benchmark times this fixed computation, which uses no kronred code,
right before and after every timed operation and set-up, and the
untraced run reports each timing scaled to the reference speed, at
which the computation takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(sample() before, sample() after)

The computation mixes the kinds of work the program does: a
pure-Python loop of small numpy operations with float formatting (the
RK4 step loop and CSV rows), a dense LU solve (LAPACK on one BLAS
thread) and an int64 matrix product (numpy's own loops).
"""

from __future__ import annotations

import time

import numpy as np

# The computation's time at the reference speed: about its median on a
# shared 2-core x86_64 VM (Xeon, 2.0 GHz) when the VM runs fast.
REFERENCE_S = 0.010

_A = np.array([[-1.0, 0.2], [0.1, -2.0]])
_M = np.random.default_rng(0).standard_normal((240, 240)) + 240.0 * np.eye(240)
_K = np.arange(150 * 150, dtype=np.int64).reshape(150, 150) % 7


def sample():
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    y = np.ones(2)
    rows = []
    for _ in range(600):
        k1 = _A @ y
        y = y + 1e-4 * (k1 + _A @ (y + 5e-5 * k1))
        rows.append(",".join(repr(float(v)) for v in y))
    np.linalg.solve(_M, _M)
    _K @ _K.T
    return time.perf_counter() - t0


def scale(wall, before, after):
    """`wall` seconds, timed between speed samples `before` and `after`,
    scaled to the reference speed."""
    return wall * REFERENCE_S / ((before + after) / 2)
