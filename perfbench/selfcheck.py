#!/usr/bin/env python3
"""The benchmark's own checks. From the root of a kronred checkout:

    python3 perfbench/selfcheck.py

1. A short run of each workload, untraced and traced, prints a result
   line with exactly the keys correct/attempted/failed/metrics, every
   metric BENCHMARK.json names for that mode with its unit, and no
   failed operation.
2. A run on a copy of the benchmark without the program exits non-zero
   and prints no result.
3. Corrupting one program output at a time makes the workload's checks
   fail, so failed / attempted (the error rate) rises above 0, while the
   same pass uncorrupted fails nothing.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SHORT_SECONDS = "1"


def short_runs(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", "7",
                 "--seconds", SHORT_SECONDS, "--trace", trace],
                capture_output=True, text=True, timeout=170,
            )
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{where}: {name} = {m['value']!r}")


def run_without_program(problems):
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "wye_paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"run without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def corrupted_passes(problems):
    import numpy as np

    import kronred
    from spans import rebind, restore
    from workloads import GridReduce, GridSimulate, Recorder, WyePaper

    def perturbed(traj):
        return kronred.Trajectory(traj.times, traj.data * (1.0 + 1e-3), traj.channels)

    def one_ulp(traj):
        data = traj.data.copy()
        data[-1, -1] = np.nextafter(data[-1, -1], np.inf)
        return kronred.Trajectory(traj.times, data, traj.channels)

    def skewed_basis(model):
        noise = np.random.default_rng(0).standard_normal(model.P.shape)
        return dataclasses.replace(model, P=model.P + 1e-6 * noise)

    def transform(fn, change):
        return lambda *args, **kwargs: change(fn(*args, **kwargs))

    cases = (
        ("wye_paper", lambda d: WyePaper(3, d), kronred.simulate_reduced, perturbed),
        ("grid (reduce)", lambda d: GridReduce(3, d, sizes=(4, 5)), kronred.reduce, skewed_basis),
        ("grid (simulate)", lambda d: GridSimulate(3, d, k=5, t_end=0.05), kronred.simulate_reduced, perturbed),
        ("grid (simulate)", lambda d: GridSimulate(3, d, k=5, t_end=0.05), kronred.trajectory_from_csv, one_ulp),
    )
    for name, make, target, change in cases:
        where = f"{name} with {target.__name__} -> {change.__name__}"
        workdir = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            work = make(workdir)
            clean = Recorder()
            work.run_pass(clean)
            undo = rebind(target, transform(target, change))
            corrupt = Recorder()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    work.run_pass(corrupt)
            finally:
                restore(undo)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if clean.failed:
            problems.append(f"{where}: the uncorrupted pass failed {clean.failed} operations")
        if not corrupt.failed / corrupt.attempted > 0:
            problems.append(f"{where}: error rate stayed 0 over {corrupt.attempted} operations")
        else:
            print(f"selfcheck: {where}: error rate {corrupt.failed}/{corrupt.attempted}")


def main():
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    problems = []
    corrupted_passes(problems)
    run_without_program(problems)
    short_runs(problems)
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
