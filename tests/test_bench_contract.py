"""What the benchmark in perfbench/ needs of the program.

perfbench wraps kronred's functions by (module, attribute) and checks
every operation's output with its own code. Both must keep working on
what the program returns: a tree P that is a CSR array and a nodal
admittance Y that is a CSC array. perfbench/selfcheck.py covers the same
ground end to end, but takes about 10 s; this is the fast guard.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import kronred

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def grid():
    return inputs.grid_network(6, np.random.default_rng(6))


@pytest.mark.parametrize("module, attribute", [target[:2] for target in spans.TARGETS])
def test_every_traced_target_is_a_kronred_callable(module, attribute):
    assert callable(getattr(importlib.import_module(f"kronred.{module}"), attribute))


@pytest.mark.parametrize("strategy", list(kronred.PStrategy))
def test_check_model_accepts_every_strategy(grid, strategy):
    model = kronred.reduce(grid.network, strategy)
    assert sparse.issparse(model.P) == (strategy is kronred.PStrategy.TREE_ELIMINATION)
    workloads.check_model(grid, model)


def test_check_phasor_accepts_a_sparse_admittance(grid):
    adm = kronred.admittance(grid.network, workloads.PHASOR_OMEGA)
    assert sparse.issparse(adm.Y)
    workloads.check_phasor(kronred.kron_reduce(adm))


@pytest.mark.parametrize("module, attribute, position, name", [
    ("simulate", "simulate_reduced", 0, "model"),
    ("simulate", "simulate_reduced", 3, "cfg"),
    ("simulate", "simulate_dae_oracle", 0, "network"),
    ("simulate", "simulate_dae_oracle", 3, "cfg"),
    ("reduction", "build_P", 2, "strategy"),
    ("simulate", "trajectory_to_csv", 0, "traj"),
    ("simulate", "trajectory_to_csv", 1, "path"),
])
def test_argument_positions_that_spans_reads(module, attribute, position, name):
    # spans._sim_counts reads the model or network as args[0] and cfg as
    # args[3], _strategy_label the strategy as args[2], and
    # _csv_write_counts the trajectory and path as args[0] and args[1]
    parameters = list(inspect.signature(getattr(importlib.import_module(f"kronred.{module}"), attribute)).parameters)
    assert parameters[position] == name


@pytest.mark.parametrize("attribute", ["trajectory_to_csv", "trajectory_from_csv"])
def test_traced_csv_functions_are_csvios(attribute):
    # spans.TARGETS wraps these as simulate attributes: they must be the
    # functions csvio defines and its callers run, for the spans to time them
    simulate, csvio = (importlib.import_module(f"kronred.{module}") for module in ("simulate", "csvio"))
    assert getattr(simulate, attribute) is getattr(csvio, attribute)
