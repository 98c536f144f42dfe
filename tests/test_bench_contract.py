"""What the benchmark in perfbench/ needs of the program.

perfbench wraps kronred's functions by (module, attribute) and checks
every operation's output with its own code. Both must keep working on
what the program returns: a tree P that is a CSR array and a nodal
admittance Y that is a CSC array. perfbench/selfcheck.py covers the same
ground end to end, but takes about 10 s; this is the fast guard.
"""

import importlib
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
