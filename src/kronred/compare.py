"""Quantitative comparison of sampled trajectories."""

from __future__ import annotations

import numpy as np

from .csvio import Trajectory
from .errors import DimensionMismatchError, InputFormatError

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
    differ by more than 1e-12 s + 1e-12 |t| raise InputFormatError. The
    reported numbers are maxima over channels:

    * max_abs — largest absolute deviation;
    * max_rel — largest deviation / the channel's reference scale;
    * steady_rel — same ratio restricted to the trailing
      STEADY_FRACTION of the window, with scales taken over that tail.

    A channel's scale is the reference's peak magnitude over the window.
    A channel that is identically 0 in the reference there takes the
    largest reference peak among the compared channels instead, so a
    rounding-level deviation on it reads as rounding. Where the reference
    is 0 on every compared channel, a's largest peak is the scale: the
    ratio reads 1 where a is not 0 too, and 0 where it is.
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
    steady = t >= t[-1] - STEADY_FRACTION * (t[-1] - t[0])
    xa, xb = np.empty((2, len(channels), t.size))
    for k, name in enumerate(channels):
        xa[k], xb[k] = a.channel(name)[mask], b.channel(name)[mask]
        if not (np.all(np.isfinite(xa[k])) and np.all(np.isfinite(xb[k]))):
            raise InputFormatError(f"channel {name!r} holds a non-finite value")
    diff = np.abs(xa - xb)
    return {
        "channels": list(channels),
        "from_time": float(from_time),
        "max_abs": float(diff.max()),
        "max_rel": _relative(diff, xa, xb),
        "steady_rel": _relative(diff[:, steady], xa[:, steady], xb[:, steady]),
    }


def _relative(diff, xa, xb):
    """The largest deviation over its channel's scale (compare_trajectories)."""
    peak = np.abs(xb).max(axis=1)
    scale = np.where(peak > 0, peak, peak.max() or np.abs(xa).max())
    return float(np.divide(diff.max(axis=1), scale, out=np.zeros(peak.size), where=scale > 0).max())
