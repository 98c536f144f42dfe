#!/usr/bin/env python3
"""Run one workload of the kronred benchmark and print its result.

From the root of a kronred checkout:

    python3 perfbench/run.py --workload wye_paper --seed 1 --seconds 50 --trace 0

Workloads: wye_paper, grid (see workloads.py).
Inputs are generated from --seed. The run sets up the workload, warms
up once, then runs whole passes for up to --seconds. With --trace 0 the
passes are untraced, the set-up is also timed in SETUP_PROBES fresh
processes started between passes, and the end-to-end metrics are
reported, scaled to a reference machine speed (speed.py); with --trace 1
the first half of the time is untraced and the second half traced, and
the per-layer metrics are reported. The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the details (every operation's median, tail
percentile and sample count, and the machine's facts). The details, the
result, every sample and the spans of a traced run are written to
.perfbench/<workload>-seed<seed>-trace<0|1>.json in the checkout. The
program is imported from the checkout's src/; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("wye_paper", "grid")
SETUP_PROBES = 5
# One BLAS thread: each workload is one closed-loop process, and on a
# small shared machine a single thread gives the steadiest timings.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"pass_s": "s", "op_geomean_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Operation medians from the untraced half of a traced run; 0 on a
# workload without that operation.
OP_UNITS = {
    "paper_sinusoid_s": "s", "paper_step_s": "s",
    "reduce_tree_s": "s", "reduce_nullbasis_s": "s", "reduce_modal_s": "s", "kron_phasor_s": "s",
    "reduced_steps_per_s": "1/s", "oracle_steps_per_s": "1/s", "csv_roundtrip_s": "s",
}
# Self times per pass from the traced half: a span's duration minus the
# spans it called.
SELF_UNITS = {name: "s" for name in (
    "cli.self_s", "experiment.self_s",
    "network.validate_s", "network.build_incidence_s",
    "linalg.nullspace_basis_s", "linalg.simultaneous_diagonalization_s",
    "reduction.build_P_s.tree", "reduction.build_P_s.nullbasis", "reduction.build_P_s.modal",
    "reduction.assemble_s", "reduction.embed_initial_s",
    "signals.evaluate_s",
    "simulate.reduced_self_s", "simulate.oracle_self_s", "simulate.csv_write_s", "simulate.csv_read_s",
    "baseline.heuristic_reduce_s", "baseline.sweep_s",
    "phasor.admittance_s", "phasor.kron_reduce_s",
    "compare.compare_s",
)}
# Counts per pass, computed from the calls' arguments and results.
COUNT_UNITS = {
    "signals.samples": "count", "baseline.runs": "count",
    "simulate.csv_bytes": "bytes", "simulate.csv_rows": "count",
    "simulate.steps": "count", "simulate.flops_computed": "flop",
}
PER_LAYER_UNITS = {
    **OP_UNITS, **SELF_UNITS, **COUNT_UNITS,
    "simulate.ns_per_step.reduced": "ns", "simulate.ns_per_step.oracle": "ns",
    "simulate.state_dim": "count", "grid.E": "count", "grid.N0": "count", "grid.order": "count",
    "error_rate": "ratio", "trace.wall_s": "s", "trace.overhead_s": "s", "bench.self_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one workload of the kronred benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: set up the workload in this fresh process, print the time
    # since the parent's monotonic clock read this value, and exit.
    p.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's src/ first on sys.path and import kronred from it."""
    if not (SRC / "kronred" / "__init__.py").is_file():
        print(f"perfbench: no kronred package under {SRC}; run from a kronred checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kronred

    if Path(kronred.__file__).resolve().parent != (SRC / "kronred").resolve():
        print(f"perfbench: imported kronred from {kronred.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def summarize(samples):
    """Median, the highest percentile with at least ten samples above it
    (when there are more than ten samples), and the sample count."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s) if s else None}
    if len(s) > 10:
        out[f"p{100 * (len(s) - 10) // len(s)}"] = s[len(s) - 11]
    return out


def probe_setup(args):
    """Set the workload up in a fresh process; returns the time from
    process start to ready (imports, input generation, validation)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe", repr(t0)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def machine_facts(args, work):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "machine": platform.machine(),
        **work.facts,
    }


def end_to_end_metrics(work, rec, setup):
    """The timings at the reference speed (speed.py) and the peak RSS;
    `setup` holds the scaled set-up times."""
    medians = [statistics.median(rec.scaled[op]) for op in work.ops if rec.scaled.get(op)]
    return {
        "pass_s": statistics.median(rec.scaled_pass_times),
        "op_geomean_s": math.exp(statistics.fmean(math.log(m) for m in medians)) if medians else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer_metrics(work, untraced, traced, tracer, traced_wall):
    passes = len(traced.pass_times)
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name, samples in untraced.samples.items():
        if name in m and samples:
            m[name] = statistics.median(samples)
    for kind in ("reduced", "oracle"):
        sim = untraced.samples.get(f"simulate_{kind}_s")
        if sim:
            m[f"{kind}_steps_per_s"] = work.n_steps / statistics.median(sim)
    self_times = tracer.self_times()
    for name, total in self_times.items():
        m[name] = total / passes
    for name in COUNT_UNITS:
        m[name] = tracer.counts[name] / passes
    m["simulate.state_dim"] = tracer.counts["simulate.state_dim"]
    for kind, span in (("reduced", "simulate.reduced_self_s"), ("oracle", "simulate.oracle_self_s")):
        steps = tracer.counts[f"steps.{kind}"]
        if steps:
            m[f"simulate.ns_per_step.{kind}"] = self_times[span] / steps * 1e9
    m["grid.E"], m["grid.N0"], m["grid.order"] = work.facts["E"], work.facts["N0"], work.facts["order"]
    attempted = untraced.attempted + traced.attempted
    m["error_rate"] = (untraced.failed + traced.failed) / attempted
    m["trace.wall_s"] = traced_wall / passes
    m["bench.self_s"] = (traced_wall - tracer.root_time()) / passes
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.fmean(untraced.pass_times)
    unknown = set(m) - set(PER_LAYER_UNITS)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    return m


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import speed
    from workloads import WORKLOADS, Recorder, run_passes

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe is not None:
            WORKLOADS[args.workload](args.seed, workdir)
            print(time.monotonic() - args.setup_probe)
            return 0
        work = WORKLOADS[args.workload](args.seed, workdir)
        work.warm_up()
        detail = {"facts": machine_facts(args, work)}
        raw = {}
        if args.trace == 0:
            setup_wall, setup_scaled = [], []

            def probe():
                before = speed.sample()
                wall = probe_setup(args)
                setup_wall.append(wall)
                setup_scaled.append(speed.scale(wall, before, speed.sample()))

            # The machine's speed drifts over tens of seconds, so the
            # set-ups are spread over the run rather than taken back to back.
            def between(fraction):
                if len(setup_wall) < 1 + int(fraction * (SETUP_PROBES - 1)):
                    probe()

            probe()
            rec = Recorder(calibrate=True)
            run_passes(work, rec, args.seconds, between)
            while len(setup_wall) < SETUP_PROBES:
                probe()
            metrics = end_to_end_metrics(work, rec, setup_scaled)
            detail["setup_s"] = {"wall": summarize(setup_wall), "scaled": summarize(setup_scaled)}
            detail["scaled"] = {
                "pass_s": summarize(rec.scaled_pass_times),
                "ops": {name: summarize(s) for name, s in sorted(rec.scaled.items())},
                "speed_sample_s": summarize(rec.speed_samples),
            }
            raw["setup_s"] = {"wall": setup_wall, "scaled": setup_scaled}
            raw["scaled"] = {"pass_s": rec.scaled_pass_times, **rec.scaled}
            raw["speed_samples"] = rec.speed_samples
            units = END_TO_END_UNITS
            phases = {"untraced": rec}
        else:
            from spans import Tracer

            untraced, traced = Recorder(), Recorder()
            run_passes(work, untraced, args.seconds / 2)
            with Tracer() as tracer:
                t0 = time.perf_counter()
                run_passes(work, traced, args.seconds / 2)
                traced_wall = time.perf_counter() - t0
            metrics = per_layer_metrics(work, untraced, traced, tracer, traced_wall)
            units = PER_LAYER_UNITS
            phases = {"untraced": untraced, "traced": traced}
            raw["spans"] = [[name, start - t0, end - t0, parent] for name, start, end, parent in tracer.spans]
        for phase, rec in phases.items():
            detail[phase] = {
                "pass_s": summarize(rec.pass_times),
                "ops": {name: summarize(s) for name, s in sorted(rec.samples.items())},
            }
            raw[phase] = {"pass_s": rec.pass_times, **rec.samples}
        attempted = sum(rec.attempted for rec in phases.values())
        failed = sum(rec.failed for rec in phases.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**detail, "result": result, "samples": raw}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
