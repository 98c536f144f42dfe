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
from .network import json_float, load_json


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
        """Stack signal values for the given node order; shape (len(t), nb)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, len(boundary_nodes)))
        for j, node in enumerate(boundary_nodes):
            sig = self.signals.get(node)
            if sig is not None:
                out[:, j] = sig(t)
        return out


_SIGNAL_KEYS = {
    "sinusoid": {"type", "amplitude_v", "freq_hz", "phase_deg"},
    "step": {"type", "value_v", "t_step_s"},
    "constant": {"type", "value_v"},
    "piecewise": {"type", "breakpoints"},
}


def _finite(value):
    x = json_float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {value!r}")
    return x


def _signal_from_dict(node, raw):
    if not isinstance(raw, dict) or "type" not in raw:
        raise InputFormatError(f"signal for node {node!r} must have a 'type'")
    kind = raw["type"]
    if not isinstance(kind, str) or kind not in _SIGNAL_KEYS:
        raise InputFormatError(f"unknown signal type {kind!r} for node {node!r}")
    unknown = set(raw) - _SIGNAL_KEYS[kind]
    if unknown:
        raise InputFormatError(f"unknown signal keys for node {node!r}: {sorted(unknown)}")
    missing = _SIGNAL_KEYS[kind] - set(raw)
    if missing:
        raise InputFormatError(f"missing signal keys for node {node!r}: {sorted(missing)}")
    try:
        if kind == "sinusoid":
            return Sinusoid(
                amplitude=_finite(raw["amplitude_v"]),
                freq=_finite(raw["freq_hz"]),
                phase=math.radians(_finite(raw["phase_deg"])),
            )
        if kind == "step":
            return Step(value=_finite(raw["value_v"]), t_step=_finite(raw["t_step_s"]))
        if kind == "constant":
            return Constant(value=_finite(raw["value_v"]))
        return Piecewise(breakpoints=tuple((_finite(t), _finite(v)) for t, v in raw["breakpoints"]))
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"bad signal for node {node!r}: {exc}") from exc


def excitation_from_dict(obj) -> Excitation:
    if not (
        isinstance(obj, dict) and set(obj) == {"signals"} and isinstance(obj["signals"], dict)
    ):
        raise InputFormatError('excitation JSON must be {"signals": {...}}')
    return Excitation(
        signals={str(node): _signal_from_dict(node, raw) for node, raw in obj["signals"].items()}
    )


def load_excitation(path) -> Excitation:
    return excitation_from_dict(load_json(path))
