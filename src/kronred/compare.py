"""Quantitative comparison of sampled trajectories."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InputFormatError
from .simulate import Trajectory

# Fraction of the compared window treated as "steady state" (its tail).
STEADY_FRACTION = 0.1


def compare_trajectories(
    a: Trajectory,
    b: Trajectory,
    channels=None,
    from_time: float = 0.0,
) -> dict:
    """Error summary of `a` against reference `b` over t >= from_time.

    Channels default to the boundary injections i_<node> common to both
    trajectories, or to every common channel when they share none (in
    a's order): other channels, such as a reduced model's pseudoflows
    fhat_<k>, are coordinates that differ between P strategies. A missing
    channel, a non-finite value in a compared one, or sample times that
    differ by more than 1e-12 s + 1e-12 |t| raise InputFormatError. Per channel the deviation is normalized by the
    reference's peak magnitude over the window; the reported numbers are
    maxima over channels:

    * max_abs — largest absolute deviation;
    * max_rel — largest deviation / reference scale;
    * steady_rel — same ratio restricted to the trailing
      STEADY_FRACTION of the window.
    """
    if channels is None:
        common = [c for c in a.channels if c in b.channels]
        channels = [c for c in common if c.startswith("i_")] or common
    if not channels:
        raise DimensionMismatchError("no common channels to compare")
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, rtol=1e-12, atol=1e-12):
        raise InputFormatError("trajectories are sampled on different time grids")
    mask = a.times >= from_time
    if not np.any(mask):
        raise InputFormatError(f"no samples at or after t={from_time}")
    t = a.times[mask]
    steady_start = t[-1] - STEADY_FRACTION * (t[-1] - t[0])
    steady = t >= steady_start
    max_abs = 0.0
    max_rel = 0.0
    steady_rel = 0.0
    for name in channels:
        xa = a.channel(name)[mask]
        xb = b.channel(name)[mask]
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
            raise InputFormatError(f"channel {name!r} holds a non-finite value")
        diff = np.abs(xa - xb)
        scale = max(float(np.max(np.abs(xb))), 1e-300)
        max_abs = max(max_abs, float(np.max(diff)))
        max_rel = max(max_rel, float(np.max(diff)) / scale)
        steady_scale = max(float(np.max(np.abs(xb[steady]))), 1e-300)
        steady_rel = max(steady_rel, float(np.max(diff[steady])) / steady_scale)
    return {
        "channels": list(channels),
        "from_time": float(from_time),
        "max_abs": max_abs,
        "max_rel": max_rel,
        "steady_rel": steady_rel,
    }
