"""Command-line front end.

Exit codes: 0 success, 2 input/validation error (including an
unreadable file, a path the file system encoding cannot hold and a
failed allocation), 3 model-applicability error
(non-homogeneous network, unphysical synthesized element), 64 usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .baseline import baseline_errors, draw_gammas, run_baseline_sweep
from .compare import compare_trajectories
from .csvio import trajectory_from_csv, write_trajectories
from .errors import InputFormatError, KronredError
from .experiment import PAPER_SOLVER, resolve_seed, run_experiment
from .network import build_incidence, json_number, json_object, load_json, load_network
from .phasor import Phasor, admittance, kron_reduce, phasor_solve, recover_interior_phasors
from .reduction import (
    PStrategy,
    check_model,
    homogeneous_reduce,
    load_model,
    model_to_dict,
    reduce,
    save_model,
)
from .signals import load_excitation
from .simulate import (
    SolverConfig,
    initial_injections,
    simulate_dae_oracle,
    simulate_homogeneous,
    simulate_reduced,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _diagnostic(exc):
    name = "Memory" if isinstance(exc, MemoryError) else type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    payload = {"error": name, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def cmd_validate(args):
    load_network(args.network)
    print(f"{args.network}: valid")
    return EXIT_OK


def cmd_reduce(args):
    network = load_network(args.network)
    model = reduce(network, PStrategy(args.p_strategy))
    if args.out:
        save_model(model, args.out)
        print(f"wrote {args.out}")
    else:
        json.dump(model_to_dict(model), sys.stdout, indent=2)
        print()
    return EXIT_OK


_MANIFEST_KEYS = {"network", "excitation", "f0", "solver", "strategy", "seed", "out_dir"}
_SOLVER_KEYS = {"dt_s": "dt", "t_end_s": "t_end", "record_stride": "record_stride"}


def _load_manifest(path):
    manifest_path = Path(path)
    obj = json_object(load_json(manifest_path), "manifest", _MANIFEST_KEYS, {"network", "excitation"})
    for key in ("network", "excitation", "out_dir"):
        if not isinstance(obj.get(key, "."), str):
            raise InputFormatError(f"manifest {key!r} must be a path string, got {obj[key]!r}")
    base = manifest_path.parent
    solver = json_object(obj.get("solver", {}), "solver", _SOLVER_KEYS, ())
    cfg = SolverConfig(**{
        _SOLVER_KEYS[key]: json_number(value, f"solver {key}", finite=False) for key, value in solver.items()
    })
    network = load_network(base / obj["network"])
    excitation = load_excitation(base / obj["excitation"])
    stray = sorted(set(excitation.signals) - set(network.boundary))
    if stray:
        raise InputFormatError(f"excitation drives nodes that are not boundary nodes: {stray}")
    try:
        strategy = PStrategy(obj.get("strategy", "nullbasis"))
    except ValueError as exc:
        raise InputFormatError(f"bad strategy in {path}: {exc}") from exc
    f0 = json_number(obj.get("f0", [0.0] * len(network.edges)), "manifest f0", scalar=False)
    if f0.shape != (len(network.edges),):
        raise InputFormatError(f"f0 must list {len(network.edges)} edge flows, got shape {f0.shape}")
    return {
        "network": network,
        "excitation": excitation,
        "f0": f0,
        "cfg": cfg,
        "strategy": strategy,
        "seed": obj.get("seed"),
        "out_dir": base / obj.get("out_dir", "."),
    }


def cmd_simulate(args):
    m = _load_manifest(args.manifest)
    out_dir = Path(args.out_dir) if args.out_dir else m["out_dir"]
    network, excitation, f0, cfg = m["network"], m["excitation"], m["f0"], m["cfg"]
    report = None
    if args.method == "reduced":
        if args.model:
            model = load_model(args.model)
            check_model(model, build_incidence(network), network)
        else:
            model = reduce(network, m["strategy"])
        trajectories = {"reduced": simulate_reduced(model, excitation, f0, cfg)}
    elif args.method == "dae":
        trajectories = {"dae": simulate_dae_oracle(network, excitation, f0, cfg)}
    elif args.method == "homogeneous":
        hmodel = homogeneous_reduce(network)
        i1_0 = initial_injections(build_incidence(network), f0)
        trajectories = {"homogeneous": simulate_homogeneous(hmodel, excitation, i1_0, cfg)}
    else:  # baseline
        if args.omega0 is None:
            raise InputFormatError("--omega0 is required for the baseline method")
        if args.gamma:
            gammas = args.gamma
        else:
            gammas = list(draw_gammas(resolve_seed(args.seed, m["seed"])))
        _, runs = run_baseline_sweep(
            network,
            args.omega0,
            excitation,
            f0,
            gammas,
            cfg,
            allow_unphysical=args.allow_unphysical,
        )
        if args.oracle:
            report = baseline_errors(runs, trajectory_from_csv(args.oracle))
        else:
            report = [{"gamma": gamma} for gamma, _ in runs]
        trajectories = {f"baseline_gamma_{k}": traj for k, (_, traj) in enumerate(runs)}
    written = write_trajectories(trajectories, out_dir)
    if report is not None:
        path = out_dir / "baseline_summary.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args):
    a = trajectory_from_csv(args.traj_a)
    b = trajectory_from_csv(args.traj_b)
    channels = args.channels.split(",") if args.channels else None
    summary = compare_trajectories(a, b, channels=channels, from_time=args.from_time)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _parse_phasor(text):
    mag, _, deg = text.partition("@")
    what = f"--v1 {text!r} (MAG@DEG)"
    return Phasor(json_number(mag, f"{what} magnitude"), math.radians(json_number(deg, f"{what} angle")))


def _finite_float(text):
    """argparse type for a finite float; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _complex_json(z):
    return {"re": float(z.real), "im": float(z.imag)}


def cmd_phasor(args):
    network = load_network(args.network)
    reduced = kron_reduce(admittance(network, args.omega))
    result = {
        "omega_rad_s": args.omega,
        "boundary_nodes": list(reduced.boundary_nodes),
        "Yr": [[_complex_json(z) for z in row] for row in reduced.Yr],
    }
    if args.v1:
        v1 = [_parse_phasor(s) for s in args.v1]
        i1 = phasor_solve(reduced, v1)
        v0 = recover_interior_phasors(reduced, v1)
        result["i1"] = [
            dict(_complex_json(p.to_complex()), magnitude=p.magnitude, phase_rad=p.phase)
            for p in i1
        ]
        result["v0"] = {
            node: dict(_complex_json(p.to_complex()), magnitude=p.magnitude, phase_rad=p.phase)
            for node, p in zip(reduced.interior_nodes, v0)
        }
    json.dump(result, sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_paper_experiment(args):
    cfg = SolverConfig(dt=args.dt, t_end=args.t_end, record_stride=args.record_stride)
    summary = run_experiment(
        args.which,
        out_dir=args.out_dir,
        seed=resolve_seed(args.seed),
        cfg=cfg,
    )
    json.dump(summary, sys.stdout, indent=2)
    print()
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="kronred",
        description="Exact time-domain Kron reduction of voltage-actuated RL networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network JSON file")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="build the exact reduced model")
    p.add_argument("network")
    p.add_argument("--p-strategy", choices=[s.value for s in PStrategy], default="nullbasis")
    p.add_argument("--out", help="output model JSON path (default: stdout)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="run one simulation method from a manifest")
    p.add_argument("manifest")
    p.add_argument("--method", choices=["reduced", "dae", "homogeneous", "baseline"], required=True)
    p.add_argument("--model", help="pre-built reduced-model JSON (method=reduced)")
    p.add_argument("--omega0", type=float, help="synthesis frequency rad/s (method=baseline)")
    p.add_argument("--gamma", type=_finite_float, action="append", help="explicit gamma value (repeatable)")
    p.add_argument("--allow-unphysical", action="store_true")
    p.add_argument("--seed", type=int, help="gamma-draw seed (overrides KRONRED_SEED)")
    p.add_argument("--oracle", help="reference trajectory CSV for the baseline summary")
    p.add_argument("--out-dir", help="override the manifest's output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="summarize deviations between two trajectory CSVs")
    p.add_argument("traj_a")
    p.add_argument("traj_b")
    p.add_argument("--channels", help="comma-separated channel names")
    p.add_argument("--from-time", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("phasor", help="steady-state Kron reduction at one frequency")
    p.add_argument("network")
    p.add_argument("--omega", type=float, required=True, help="rad/s")
    p.add_argument(
        "--v1",
        action="append",
        help="boundary voltage phasor MAG@DEG, repeat per boundary node in order",
    )
    p.set_defaults(func=cmd_phasor)

    p = sub.add_parser("paper-experiment", help="run the built-in wye-delta benchmark")
    p.add_argument("--which", choices=["sinusoid", "step"], required=True)
    p.add_argument("--out-dir", default="experiment_out")
    p.add_argument("--seed", type=int)
    p.add_argument("--dt", type=float, default=PAPER_SOLVER.dt)
    p.add_argument("--t-end", type=float, default=PAPER_SOLVER.t_end)
    p.add_argument("--record-stride", type=int, default=PAPER_SOLVER.record_stride)
    p.set_defaults(func=cmd_paper_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KronredError, OSError, MemoryError, UnicodeEncodeError) as exc:
        if isinstance(exc, UnicodeEncodeError):  # a path that the file system encoding cannot hold
            exc = InputFormatError(f"path {exc.object!r} is not {exc.encoding} text, the file system encoding")
        _diagnostic(exc)
        return getattr(exc, "exit_code", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
