"""Span recorder for the traced benchmark run.

The benchmark wraps the program's public functions from its own process:
every module attribute that is bound to a wrapped function is replaced,
including names that one kronred module re-binds from another through
``from .x import y``. Spans (name, start, end, parent) stay in memory
until the run writes them out. Counts (RK4 steps, CSV bytes, ...) are
recorded next to the spans, outside the timed interval.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from functools import partial

import numpy as np

MODULES = (
    "cli", "experiment", "network", "linalg", "reduction",
    "signals", "simulate", "baseline", "phasor", "compare",
)


def _strategy_label(args, kwargs):
    strategy = kwargs.get("strategy", args[2] if len(args) > 2 else None)
    return getattr(strategy, "value", str(strategy))


def _sim_counts(kind, counts, args, result):
    cfg = args[3]
    # State dimension: pseudoflows for the reduced model, edge flows for
    # the oracle (the oracle's extra channels are outputs, not state).
    dim = len(args[0].edges) if kind == "oracle" else args[0].order
    nb = len(args[0].boundary) if kind == "oracle" else len(args[0].boundary_nodes)
    n = cfg.n_steps
    counts[f"steps.{kind}"] += n
    counts["simulate.steps"] += n
    counts["simulate.state_dim"] = max(counts["simulate.state_dim"], dim)
    # RK4 as the program runs it: one d x d matvec and add per step, the
    # stage forcing (2n+1) x nb x d, and three (n x d) x (d x d) products
    # for the per-step forcing.
    counts["simulate.flops_computed"] += n * (2 * dim * dim + dim) + 2 * (2 * n + 1) * nb * dim + 6 * n * dim * dim


def _csv_write_counts(counts, args, result):
    counts["simulate.csv_rows"] += len(args[0].times)
    counts["simulate.csv_bytes"] += os.path.getsize(args[1])


def _evaluate_counts(counts, args, result):
    counts["signals.samples"] += result.size


def _sweep_counts(counts, args, result):
    counts["baseline.runs"] += len(result[1])


def rebind(original, replacement):
    """Point every kronred module attribute bound to `original` at
    `replacement`; returns the (owner, name, value) list that undoes it."""
    undo = []
    for mod in [importlib.import_module(f"kronred.{m}") for m in MODULES] + [importlib.import_module("kronred")]:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


def restore(undo):
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


# (module, attribute, span name, label function, count function). A span's
# name is the per-layer metric its self time is reported under; the label
# function, when given, appends a suffix taken from the call's arguments.
TARGETS = (
    ("cli", "main", "cli.self_s", None, None),
    ("experiment", "run_experiment", "experiment.self_s", None, None),
    ("network", "validate", "network.validate_s", None, None),
    ("network", "build_incidence", "network.build_incidence_s", None, None),
    ("linalg", "nullspace_basis", "linalg.nullspace_basis_s", None, None),
    ("linalg", "simultaneous_diagonalization", "linalg.simultaneous_diagonalization_s", None, None),
    ("reduction", "build_P", "reduction.build_P_s", _strategy_label, None),
    ("reduction", "reduce", "reduction.assemble_s", None, None),
    ("reduction", "embed_initial", "reduction.embed_initial_s", None, None),
    ("simulate", "simulate_reduced", "simulate.reduced_self_s", None, partial(_sim_counts, "reduced")),
    ("simulate", "simulate_dae_oracle", "simulate.oracle_self_s", None, partial(_sim_counts, "oracle")),
    ("simulate", "trajectory_to_csv", "simulate.csv_write_s", None, _csv_write_counts),
    ("simulate", "trajectory_from_csv", "simulate.csv_read_s", None, None),
    ("baseline", "heuristic_reduce", "baseline.heuristic_reduce_s", None, None),
    ("baseline", "run_baseline_sweep", "baseline.sweep_s", None, _sweep_counts),
    ("phasor", "admittance", "phasor.admittance_s", None, None),
    ("phasor", "kron_reduce", "phasor.kron_reduce_s", None, None),
    ("compare", "compare_trajectories", "compare.compare_s", None, None),
)


class Tracer:
    """Records nested spans around wrapped kronred functions.

    Use as a context manager: entering patches every binding of every
    target, leaving restores the originals.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, label, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            full = f"{name}.{label(args, kwargs)}" if label else name
            idx = len(spans)
            spans.append([full, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for mod_name, attr, name, label, count in TARGETS:
            original = getattr(importlib.import_module(f"kronred.{mod_name}"), attr)
            self._undo += rebind(original, self._wrap(original, name, label, count))
        excitation = importlib.import_module("kronred.signals").Excitation
        self._undo.append((excitation, "evaluate", excitation.evaluate))
        excitation.evaluate = self._wrap(excitation.evaluate, "signals.evaluate_s", None, _evaluate_counts)
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo.clear()
        return False

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        out = defaultdict(float)
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def root_time(self):
        """Summed duration of the spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
