"""Boundary-node voltage excitations.

Sinusoids follow the convention x(t) = A cos(2 pi f t + phi). Steps and
piecewise signals are closed on the left (the new value holds at the
switching instant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .network import json_number, json_object, load_json


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float  # volts
    freq: float       # Hz, > 0
    phase: float      # radians

    def __post_init__(self):
        if self.freq <= 0:
            raise ValueError("sinusoid frequency must be positive")

    def __call__(self, t):
        return self.amplitude * np.cos(2.0 * math.pi * self.freq * t + self.phase)


@dataclass(frozen=True)
class Step:
    value: float   # volts
    t_step: float  # seconds

    def __call__(self, t):
        return np.where(np.asarray(t) >= self.t_step, self.value, 0.0)


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)


@dataclass(frozen=True)
class Piecewise:
    """Zero-order hold over (t, value) breakpoints; 0 before the first."""

    breakpoints: tuple  # ((t0, v0), (t1, v1), ...), t strictly increasing

    def __post_init__(self):
        ts = [t for t, _ in self.breakpoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoint times must be strictly increasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ts = np.array([bp[0] for bp in self.breakpoints])
        vs = np.array([0.0] + [bp[1] for bp in self.breakpoints])
        idx = np.searchsorted(ts, t, side="right")
        return vs[idx]


@dataclass(frozen=True)
class Excitation:
    """One signal per boundary node, keyed by node id."""

    signals: dict

    def evaluate(self, boundary_nodes, t):
        """Stack signal values for the given node order; shape (len(t), nb).
        InputFormatError, naming the earliest time and its first node,
        where a value is not finite, as where a sinusoid's phase 2 pi f t
        overflows."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, len(boundary_nodes)))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, node in enumerate(boundary_nodes):
                sig = self.signals.get(node)
                if sig is not None:
                    out[:, j] = sig(t)
        finite = np.isfinite(out)
        if not finite.all():
            k, j = np.unravel_index(finite.argmin(), finite.shape)
            raise InputFormatError(f"node {boundary_nodes[j]!r} signal is non-finite at t={t[k]:.6g} s")
        return out


_SIGNAL_KEYS = {
    "sinusoid": {"type", "amplitude_v", "freq_hz", "phase_deg"},
    "step": {"type", "value_v", "t_step_s"},
    "constant": {"type", "value_v"},
    "piecewise": {"type", "breakpoints"},
}


def _signal_from_dict(node, raw):
    what = f"node {node!r} signal"
    kind = raw.get("type") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in _SIGNAL_KEYS:
        raise InputFormatError(f"{what} needs a 'type' in {sorted(_SIGNAL_KEYS)}, got {kind!r}")
    raw = json_object(raw, what, _SIGNAL_KEYS[kind])
    num = {key: json_number(raw[key], f"{what} {key}", scalar=key != "breakpoints")
           for key in raw if key != "type"}
    try:
        if kind == "sinusoid":
            return Sinusoid(num["amplitude_v"], num["freq_hz"], math.radians(num["phase_deg"]))
        if kind == "step":
            return Step(value=num["value_v"], t_step=num["t_step_s"])
        if kind == "constant":
            return Constant(value=num["value_v"])
        pairs = num["breakpoints"]
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError("breakpoints must be [t, value] pairs")
        return Piecewise(breakpoints=tuple(map(tuple, pairs.tolist())))
    except ValueError as exc:
        raise InputFormatError(f"bad {what}: {exc}") from exc


def excitation_from_dict(obj) -> Excitation:
    signals = json_object(obj, "excitation", {"signals"})["signals"]
    if not isinstance(signals, dict):
        raise InputFormatError(f"excitation 'signals' must be an object, got {signals!r}")
    return Excitation(signals={str(node): _signal_from_dict(node, raw) for node, raw in signals.items()})


def load_excitation(path) -> Excitation:
    return excitation_from_dict(load_json(path))
