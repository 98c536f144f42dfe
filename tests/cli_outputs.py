"""Digests of the CLI's outputs on a fixed set of commands, as one JSON file.

    python3 tests/cli_outputs.py OUT.json [DIR]

Run from a checkout, this runs that checkout's CLI (`python -m
kronred.cli`, with its `src/` on PYTHONPATH) on each command below, one
fresh process each, with one BLAS thread and no KRONRED_SEED. It writes
OUT.json: for each command, its arguments, its exit code and the SHA-256
digests of its stdout, its stderr and every file it wrote. Run it at two
commits and compare the two files with `cmp`: they are equal exactly
when every command gave the same bytes. Digests compare only between
runs on one machine, since BLAS builds round differently. Given DIR, it
also keeps the files that command k wrote under DIR/k/, so that two
commits' CSVs can be compared by value where their digests differ.

The inputs are written to a temporary directory first, and every path
is relative to it: the paper's wye, a seeded k = 6 grid (the benchmark's
generator), and copies of both with r = 2 l, which are homogeneous. The
commands are `paper-experiment --which sinusoid|step` at its defaults
and at `--t-end 2` with `--record-stride` 1 and 7, and `simulate` on the
wye and the grid with `dae`, `baseline --seed 3 --omega0 3 pi`,
`homogeneous` (on the r = 2 l copies too) and `reduced` under each P
strategy.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from kronred import Edge, Network  # noqa: E402
from kronred.experiment import WYE_F0, sinusoid_excitation, wye_network  # noqa: E402
from perfbench.inputs import boundary_sinusoids, consistent_flows, grid_network  # noqa: E402
from reference import excitation_to_dict, network_to_dict  # noqa: E402

SOLVER = {"dt_s": 1e-3, "t_end_s": 2.05, "record_stride": 100}  # pieces of 64 and 36 steps, a last one of 50
OMEGA0 = "9.42477796076938"  # 2 pi 1.5 Hz, the paper's


def r_is_2l(network):
    return Network(network.nodes, tuple(Edge(e.id, e.tail, e.head, 2.0 * e.l, e.l) for e in network.edges),
                   network.boundary)


def write_inputs(d):
    """Each case's network, excitation and one manifest per P strategy in d."""
    rng = np.random.default_rng(1)
    grid = grid_network(6, rng)
    cases = {
        "wye": (wye_network(), sinusoid_excitation(), WYE_F0),
        "grid": (grid.network, boundary_sinusoids(grid, rng), consistent_flows(grid, rng)),
    }
    cases.update({f"{name}_r2l": (r_is_2l(net), exc, f0) for name, (net, exc, f0) in cases.items()})
    for name, (net, exc, f0) in cases.items():
        (d / f"{name}.network.json").write_text(json.dumps(network_to_dict(net)))
        (d / f"{name}.excitation.json").write_text(json.dumps(excitation_to_dict(exc)))
        for strategy in ("tree", "nullbasis", "modal"):
            manifest = {"network": f"{name}.network.json", "excitation": f"{name}.excitation.json",
                        "f0": [float(f) for f in f0], "solver": SOLVER, "strategy": strategy}
            (d / f"{name}.{strategy}.json").write_text(json.dumps(manifest))


def commands():
    for which in ("sinusoid", "step"):
        for extra in ([], ["--t-end", "2", "--record-stride", "1"], ["--t-end", "2", "--record-stride", "7"]):
            yield ["paper-experiment", "--which", which, *extra]
    for name in ("wye", "grid"):
        yield ["simulate", f"{name}.nullbasis.json", "--method", "dae"]
        yield ["simulate", f"{name}.nullbasis.json", "--method", "baseline", "--seed", "3", "--omega0", OMEGA0]
        for case in (name, f"{name}_r2l"):
            yield ["simulate", f"{case}.nullbasis.json", "--method", "homogeneous"]
        for strategy in ("tree", "nullbasis", "modal"):
            yield ["simulate", f"{name}.{strategy}.json", "--method", "reduced"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def main(out_path, keep=None):
    env = {k: v for k, v in os.environ.items() if k != "KRONRED_SEED"}
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for k, args in enumerate(commands()):
            out_dir = f"out/{k}"
            run = subprocess.run([sys.executable, "-m", "kronred.cli", *args, "--out-dir", out_dir],
                                 cwd=d, env=env, capture_output=True)
            files = sorted(p for p in (d / out_dir).rglob("*") if p.is_file())
            results.append({"args": args, "exit": run.returncode, "stdout": digest(run.stdout),
                            "stderr": digest(run.stderr),
                            "files": {str(p.relative_to(d / out_dir)): digest(p.read_bytes()) for p in files}})
            if keep is not None and files:
                shutil.copytree(d / out_dir, Path(keep) / str(k))
            print(f"{run.returncode} {len(files):2d} files  {' '.join(args)}", file=sys.stderr)
    Path(out_path).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(f"usage: {sys.argv[0]} OUT.json [DIR]")
    main(*sys.argv[1:])
