import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kronred import cli, simulate
from kronred.cli import main
from kronred.reduction import load_model
from kronred.simulate import trajectory_from_csv


# Runs kronred.cli.main once per [cpus, argv] in argv[1] (JSON), with
# that many CPUs seen by the CSV writer, and prints [exit code, whether a
# child process was left, forks] per run.
WRITE_RUNS = """
import json, os, sys
from kronred import simulate
from kronred.cli import main

results = []
fork = os.fork
for cpus, argv in json.loads(sys.argv[1]):
    simulate._available_cpus = lambda: cpus
    forks = []
    os.fork = lambda: forks.append(1) or fork()
    code = main(argv)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    results.append([code, left, len(forks)])
print(json.dumps(results))
"""


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def wye_dict(r=(0.98, 0.99, 0.58), l=(0.55, 0.64, 0.77)):
    return {
        "nodes": ["1", "2", "3", "4"],
        "boundary": ["1", "2", "3"],
        "edges": [
            {"id": f"e{k + 1}", "from": str(k + 1), "to": "4", "r_ohm": r[k], "l_henry": l[k]}
            for k in range(3)
        ],
    }


def nested(depth, value=1.0):
    """value inside depth levels of JSON lists."""
    for _ in range(depth):
        value = [value]
    return value


def sinusoid_excitation_dict():
    return {
        "signals": {
            node: {"type": "sinusoid", "amplitude_v": 120.0, "freq_hz": 1.5, "phase_deg": deg}
            for node, deg in (("1", 0.0), ("2", 30.0), ("3", -30.0))
        }
    }


@pytest.fixture
def wye_file(tmp_path):
    return write_json(tmp_path / "wye.json", wye_dict())


@pytest.fixture
def manifest_file(tmp_path, wye_file):
    exc = write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
    return write_json(
        tmp_path / "manifest.json",
        {
            "network": "wye.json",
            "excitation": "exc.json",
            "f0": [-5.0, -5.0, 10.0],
            "solver": {"dt_s": 1e-3, "t_end_s": 1.0, "record_stride": 1},
            "strategy": "tree",
            "out_dir": "out",
        },
    )


class TestValidate:
    def test_valid_network(self, wye_file, capsys):
        assert main(["validate", wye_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_bad_network_exits_2(self, tmp_path, capsys):
        bad = wye_dict()
        bad["edges"][0]["l_henry"] = 0.0
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NonpositiveInductance"

    @pytest.mark.parametrize("key, value", [("r_ohm", float("nan")), ("l_henry", float("inf"))])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, key, value):
        bad = wye_dict()
        bad["edges"][1][key] = value
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NetworkValidation"
        assert "non-finite" in diag["message"]

    # 10**400 overflows float(): an OverflowError traceback with exit 1
    @pytest.mark.parametrize(
        "key, value",
        [
            ("r_ohm", "abc"),
            ("l_henry", None),
            ("r_ohm", [1.0]),
            pytest.param("l_henry", 10**400, id="l_henry-overflow"),
        ],
    )
    def test_non_numeric_parameter_exits_2(self, tmp_path, capsys, key, value):
        bad = wye_dict()
        bad["edges"][1][key] = value
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "InputFormat"
        assert "'e2'" in diag["message"] and key in diag["message"]

    @pytest.mark.parametrize("key", ["r_ohm", "l_henry"])
    def test_boolean_parameter_exits_2(self, tmp_path, capsys, key):
        # float(True) is 1.0: used to print "valid" and exit 0
        bad = wye_dict()
        bad["edges"][1][key] = True
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert "'e2'" in diag["message"] and key in diag["message"]

    @pytest.mark.parametrize("key, value", [("id", 1), ("from", 1), ("to", 4)])
    def test_non_string_edge_field_exits_2(self, tmp_path, capsys, key, value):
        # str() turned each into a string: "valid", exit 0
        bad = wye_dict()
        bad["edges"][0][key] = value
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert "id, from and to must be strings" in diag["message"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key, value", [("edges", 5), ("nodes", 5), ("boundary", 7)])
    def test_non_list_field_exits_2(self, tmp_path, capsys, key, value):
        # used to end in a TypeError traceback with exit 1
        bad = wye_dict()
        bad[key] = value
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["validate", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat" and key in diag["message"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputFormat"

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.load's RecursionError used to end in a traceback with exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["validate", str(path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputFormat"

    def test_non_utf8_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(wye_dict()).replace('"e1"', '"\u00e91"', 1).encode("latin-1"))
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputFormat"

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectory"


# Every command that reads a network, as argv built from the network and
# a manifest that names it.
NETWORK_COMMANDS = {
    "validate": lambda net, manifest: ["validate", net],
    "reduce-tree": lambda net, manifest: ["reduce", net, "--p-strategy", "tree"],
    "reduce-nullbasis": lambda net, manifest: ["reduce", net, "--p-strategy", "nullbasis"],
    "reduce-modal": lambda net, manifest: ["reduce", net, "--p-strategy", "modal"],
    "phasor": lambda net, manifest: ["phasor", net, "--omega", "9.42"],
    "simulate-reduced": lambda net, manifest: ["simulate", manifest, "--method", "reduced"],
    "simulate-dae": lambda net, manifest: ["simulate", manifest, "--method", "dae"],
    "simulate-homogeneous": lambda net, manifest: ["simulate", manifest, "--method", "homogeneous"],
    "simulate-baseline": lambda net, manifest: [
        "simulate", manifest, "--method", "baseline", "--omega0", "9.42", "--gamma", "1.0"
    ],
}


def run_one_diagnostic(argv, capsys):
    """main(argv)'s exit code and its stderr, which must be one JSON line."""
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    return code, json.loads(lines[0])


class TestNetworkRules:
    @pytest.mark.parametrize("command", sorted(NETWORK_COMMANDS))
    def test_non_string_boundary_id_exits_2(self, manifest_file, tmp_path, capsys, command):
        # used to end in a TypeError traceback with exit 1
        bad = wye_dict()
        bad["boundary"] = ["1", [], "3"]
        net = write_json(tmp_path / "wye.json", bad)
        code, diag = run_one_diagnostic(NETWORK_COMMANDS[command](net, manifest_file), capsys)
        assert code == 2
        assert diag["error"] == "InputFormat" and "boundary" in diag["message"]
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("command", sorted(NETWORK_COMMANDS))
    def test_overflowing_rate_exits_2(self, manifest_file, tmp_path, capsys, command):
        # r / l = 1e308 / 0.55 is inf: validate passed it, the DAE oracle
        # ended in a traceback, homogeneous reported deviation nan
        bad = wye_dict(r=(1e308, 0.99, 0.58))
        net = write_json(tmp_path / "wye.json", bad)
        code, diag = run_one_diagnostic(NETWORK_COMMANDS[command](net, manifest_file), capsys)
        assert code == 2
        assert diag["error"] == "NetworkValidation" and "'e1'" in diag["message"]
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("method", ["reduced", "dae"])
    def test_huge_finite_rate_is_one_stderr_line(self, manifest_file, tmp_path, method):
        # the RK4 stability test used to print an overflow RuntimeWarning first
        # (a separate process, so that warnings reach stderr as in a plain run)
        write_json(tmp_path / "wye.json", wye_dict(r=(1e300, 0.99, 0.58)))
        assert main(["validate", str(tmp_path / "wye.json")]) == 0
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kronred.cli", "simulate", manifest_file, "--method", method],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "UnstableTimeStep"


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_unknown_flag(self, wye_file):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", wye_file, "--bogus"])
        assert exc.value.code == 64

    def test_bad_experiment_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["paper-experiment", "--which", "triangle"])
        assert exc.value.code == 64

    def test_non_numeric_gamma(self, manifest_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", manifest_file, "--method", "baseline", "--omega0", "9.4", "--gamma", "abc"])
        assert exc.value.code == 64

    # each used to write all-nan CSVs and exit 0
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma(self, manifest_file, tmp_path, capsys, gamma):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", manifest_file, "--method", "baseline", "--omega0", "9.4", f"--gamma={gamma}"])
        assert exc.value.code == 64
        assert f"--gamma: not a finite number: {gamma!r}" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.csv"))


class TestReduce:
    def test_tree_strategy_output(self, wye_file, capsys):
        assert main(["reduce", wye_file, "--p-strategy", "tree"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["strategy"] == "tree"
        assert np.allclose(obj["P"], [[1, 0], [0, 1], [-1, -1]])
        assert np.allclose(obj["Lhat"], [[1.32, 0.77], [0.77, 1.41]])
        assert np.allclose(obj["Rhat"], [[1.56, 0.58], [0.58, 1.57]])

    def test_modal_strategy_is_diagonal(self, wye_file, capsys):
        assert main(["reduce", wye_file, "--p-strategy", "modal"]) == 0
        obj = json.loads(capsys.readouterr().out)
        for key in ("Lhat", "Rhat"):
            M = np.asarray(obj[key])
            assert np.max(np.abs(M - np.diag(np.diag(M)))) <= 1e-10 * np.max(np.abs(M))

    def test_out_file(self, wye_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert np.asarray(obj["P"]).shape == (3, 2)

    # The pencil was symmetrized as 0.5 * (Rhat.T + Rhat), which overflowed
    # to inf past about 9e307: exit 0 and a file that load_model rejected
    def test_huge_entry_reduces_to_a_loadable_file(self, tmp_path, capsys):
        net = write_json(tmp_path / "net.json", wye_dict(r=(1e308, 0.99, 0.58), l=(2.0, 0.64, 0.77)))
        out = tmp_path / "model.json"
        assert main(["reduce", net, "--p-strategy", "tree", "--out", str(out)]) == 0
        model = load_model(out)
        assert model.Rhat[0, 0] == 1e308  # r1 + r3, rounded
        assert np.array_equal(model.Rhat, model.Rhat.T)


class TestSimulate:
    def test_reduced_matches_dae(self, manifest_file, tmp_path, capsys):
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 0
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(
            ["compare", str(out / "reduced.csv"), str(out / "dae.csv")]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert tuple(sorted(report["channels"])) == ("i_1", "i_2", "i_3")
        assert report["max_rel"] <= 1e-6

    def test_prebuilt_model_round_trip(self, manifest_file, wye_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--p-strategy", "tree", "--out", str(model_path)]) == 0
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 0
        direct = (tmp_path / "out" / "reduced.csv").read_bytes()
        assert (
            main(
                [
                    "simulate",
                    manifest_file,
                    "--method",
                    "reduced",
                    "--model",
                    str(model_path),
                    "--out-dir",
                    str(tmp_path / "out2"),
                ]
            )
            == 0
        )
        assert (tmp_path / "out2" / "reduced.csv").read_bytes() == direct

    def test_homogeneous_rejected_for_mixed_ratios(self, manifest_file, capsys):
        assert main(["simulate", manifest_file, "--method", "homogeneous"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NotHomogeneous"

    def test_baseline_requires_omega0(self, manifest_file, capsys):
        assert main(["simulate", manifest_file, "--method", "baseline"]) == 2

    def test_baseline_writes_sweep(self, manifest_file, tmp_path, capsys):
        code = main(
            [
                "simulate",
                manifest_file,
                "--method",
                "baseline",
                "--omega0",
                str(2 * math.pi * 1.5),
                "--gamma",
                "1.0",
                "--gamma",
                "-2.0",
            ]
        )
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "baseline_summary.json").read_text())
        assert [e["gamma"] for e in summary] == [1.0, -2.0]
        traj = trajectory_from_csv(out / "baseline_gamma_0.csv")
        i0 = [traj.channel(f"i_{n}")[0] for n in ("1", "2", "3")]
        assert np.allclose(i0, [-5.0, -5.0, 10.0], atol=1e-9)

    def test_baseline_report_compares_injections_only(self, manifest_file, tmp_path, capsys):
        # With the reduced model's CSV as the reference, the baseline's
        # pseudoflows used to be compared with the reduced model's, which
        # are other coordinates: a transient error of 2.9 instead of 0.02.
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 0
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        reports = []
        for reference in ("reduced", "dae"):
            args = ["simulate", manifest_file, "--method", "baseline", "--omega0", "9.42",
                    "--gamma", "1.0", "--oracle", str(tmp_path / "out" / f"{reference}.csv"),
                    "--out-dir", str(tmp_path / reference)]
            assert main(args) == 0
            reports.append(json.loads((tmp_path / reference / "baseline_summary.json").read_text()))
        for key in ("steady_state_error_rel", "transient_max_error_rel"):
            assert reports[0][0][key] == pytest.approx(reports[1][0][key], rel=1e-6)

    def test_nan_resistance_exits_2_without_output(self, manifest_file, tmp_path, capsys):
        bad = wye_dict()
        bad["edges"][0]["r_ohm"] = float("nan")
        write_json(tmp_path / "wye.json", bad)
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NetworkValidation"
        assert not (tmp_path / "out" / "reduced.csv").exists()

    @pytest.mark.parametrize(
        "solver, error",
        [
            ({"dt_s": 0}, "SolverConfig"),
            ({"dt_s": -1e-3}, "SolverConfig"),
            ({"dt_s": 0.3, "t_end_s": 1.0}, "SolverConfig"),
            ({"dt_s": "abc"}, "InputFormat"),
            ({"dt_s": None}, "InputFormat"),
            ({"record_stride": "ten"}, "InputFormat"),
            # used to run with stride 2
            ({"record_stride": 2.7}, "SolverConfig"),
            # "dt" is not "dt_s": used to run at the default dt and exit 0
            ({"dt": 0.5, "t_end_s": 0.1}, "InputFormat"),
        ],
    )
    def test_bad_solver_settings_exit_2(self, tmp_path, wye_file, capsys, solver, error):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": solver},
        )
        assert main(["simulate", manifest, "--method", "reduced"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    # float(True) is 1.0, and each of these used to run and exit 0
    @pytest.mark.parametrize(
        "solver",
        [
            {"dt_s": True, "t_end_s": 2.0},
            {"dt_s": 1e-3, "t_end_s": True},
            {"dt_s": 1e-3, "t_end_s": 0.1, "record_stride": True},
        ],
        ids=["dt_s", "t_end_s", "record_stride"],
    )
    def test_boolean_solver_setting_exits_2(self, tmp_path, wye_file, capsys, solver):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": solver},
        )
        assert main(["simulate", manifest, "--method", "reduced"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputFormat"
        assert not list(tmp_path.glob("**/*.csv"))

    def test_boolean_f0_exits_2(self, tmp_path, wye_file, capsys):
        # [true, true, -2] used to be read as the balanced flows [1, 1, -2]
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [True, True, -2.0],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        assert main(["simulate", manifest, "--method", "reduced"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputFormat"
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("field", ["amplitude_v", "freq_hz", "phase_deg"])
    def test_boolean_signal_field_exits_2(self, tmp_path, wye_file, capsys, field):
        excitation = sinusoid_excitation_dict()
        excitation["signals"]["2"][field] = True
        write_json(tmp_path / "exc.json", excitation)
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        assert main(["simulate", manifest, "--method", "reduced"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert "'2'" in diag["message"]
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize(
        "entries, excitation, flags",
        [
            # the dae method never uses the strategy, but it is still checked
            ({"strategy": "bogus"}, None, ["--method", "dae"]),
            ({"seed": "abc"}, None, ["--method", "baseline", "--omega0", "9.4"]),
            ({"seed": 1.5}, None, ["--method", "baseline", "--omega0", "9.4"]),
            # used to run as seed 1 and exit 0
            ({"seed": True}, None, ["--method", "baseline", "--omega0", "9.4"]),
            # ended in a ValueError traceback from default_rng with exit 1
            ({"seed": -1}, None, ["--method", "baseline", "--omega0", "9.4"]),
            ({"f0": ["a", 1, 2]}, None, ["--method", "reduced"]),
            ({"f0": [[-5.0, -5.0, 10.0]]}, None, ["--method", "reduced"]),
            # used to write an all-nan CSV and exit 0
            ({"f0": [float("nan"), 0.0, 0.0]}, None, ["--method", "dae"]),
            ({}, {"signals": [1]}, ["--method", "reduced"]),
            # these ended in a TypeError traceback with exit 1
            ({"network": 5}, None, ["--method", "dae"]),
            ({"excitation": 5}, None, ["--method", "dae"]),
            ({"out_dir": 3}, None, ["--method", "dae"]),
            ({}, {"signals": {"1": {"type": []}}}, ["--method", "dae"]),
            # used to run with zero drive and exit 0
            ({}, {"signals": {"9": {"type": "constant", "value_v": 1.0}}}, ["--method", "reduced"]),
            # numpy's 32-dimension limit: a RuntimeError traceback with exit 1
            ({"f0": nested(33)}, None, ["--method", "reduced"]),
            ({}, {"signals": {"1": {"type": "piecewise", "breakpoints": nested(100)}}}, ["--method", "reduced"]),
        ],
        ids=[
            "strategy", "seed-text", "seed-fraction", "seed-boolean", "seed-negative",
            "f0-text", "f0-nested", "f0-nan",
            "signals-list", "network-int", "excitation-int", "out_dir-int", "type-list",
            "signal-not-boundary", "f0-deep", "breakpoints-deep",
        ],
    )
    def test_bad_manifest_exits_2(
        self, tmp_path, wye_file, capsys, monkeypatch, entries, excitation, flags
    ):
        monkeypatch.delenv("KRONRED_SEED", raising=False)
        write_json(tmp_path / "exc.json", excitation or sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {
                "network": "wye.json",
                "excitation": "exc.json",
                "solver": {"dt_s": 1e-3, "t_end_s": 0.1},
                **entries,
            },
        )
        assert main(["simulate", manifest, *flags]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputFormat"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("method", ["reduced", "dae"])
    @pytest.mark.parametrize(
        "signal",
        [
            {"type": "sinusoid", "amplitude_v": "nan", "freq_hz": 1.5, "phase_deg": 0.0},
            {"type": "sinusoid", "amplitude_v": 1.0, "freq_hz": "inf", "phase_deg": 0.0},
            {"type": "step", "value_v": "-inf", "t_step_s": 0.0},
            {"type": "piecewise", "breakpoints": [[0.0, 1.0], [0.5, float("nan")]]},
        ],
        ids=["amplitude-nan", "freq-inf", "step-value-inf", "breakpoint-nan"],
    )
    def test_non_finite_signal_exits_2(self, tmp_path, wye_file, capsys, method, signal):
        # used to write nan rows after t=0 and exit 0
        excitation = sinusoid_excitation_dict()
        excitation["signals"]["2"] = signal
        write_json(tmp_path / "exc.json", excitation)
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [-5.0, -5.0, 10.0],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        assert main(["simulate", manifest, "--method", method]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert "'2'" in diag["message"] and "non-finite" in diag["message"]
        assert not list(tmp_path.glob("*.csv"))

    def test_model_for_another_network_exits_2(self, manifest_file, tmp_path, capsys):
        # used to end in LinAlgError: Incompatible dimensions, exit 1
        one_edge = {
            "nodes": ["1", "2"],
            "boundary": ["1", "2"],
            "edges": [{"id": "e1", "from": "1", "to": "2", "r_ohm": 1.0, "l_henry": 1.0}],
        }
        network = write_json(tmp_path / "one.json", one_edge)
        model = tmp_path / "model.json"
        assert main(["reduce", network, "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["simulate", manifest_file, "--method", "reduced", "--model", str(model)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputFormat"
        assert not (tmp_path / "out" / "reduced.csv").exists()

    def test_model_with_inconsistent_shapes_exits_2(self, manifest_file, wye_file, tmp_path, capsys):
        # a 3 x 3 Lhat for an order-2 model used to end in a traceback
        model = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--p-strategy", "tree", "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        obj["Lhat"] = np.eye(3).tolist()
        write_json(model, obj)
        capsys.readouterr()
        assert main(["simulate", manifest_file, "--method", "reduced", "--model", str(model)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat" and "Lhat" in diag["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            # an all-nan reduced.csv with exit 0
            ("Lhat", [[float("nan"), 0.0], [0.0, 1.0]]),
            # a LinAlgError traceback with exit 1
            ("P", [[float("nan"), 0.0], [1.0, 0.0], [0.0, 1.0]]),
            # read as the identity, exit 0
            ("Lhat", [[True, False], [False, True]]),
            # an unknown key was ignored, exit 0
            ("Lhat_typo", [[1.0, 0.0], [0.0, 1.0]]),
            # split into ("1", "2", "3"), exit 0
            ("boundary_nodes", "123"),
            # split into ("e", "1"): a shape error that did not name the key
            ("edge_ids", "e1"),
            # eigh read the lower triangle and z0 both: i_1 -123.3 at 1 s, exit 0
            ("Lhat", [[1.32, 100.0], [0.77, 1.41]]),
            # NotPositiveDefinite, exit 2 only because the lower triangle is indefinite
            ("Lhat", [[1.32, 0.77], [100.0, 1.41]]),
            # i_1 1.6e71 at 1 s, exit 0
            ("Rhat", [[1.56, 0.58], [100.0, 1.57]]),
            # numpy's 32-dimension limit: a RuntimeError traceback with exit 1
            ("Lhat", nested(33)),
        ],
        ids=[
            "Lhat-nan", "P-nan", "Lhat-boolean", "unknown-key", "boundary-nodes-string", "edge-ids-string",
            "Lhat-asymmetric-upper", "Lhat-asymmetric-lower", "Rhat-asymmetric", "Lhat-deep",
        ],
    )
    def test_model_with_bad_entries_exits_2(self, manifest_file, wye_file, tmp_path, capsys, key, value):
        model = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--p-strategy", "tree", "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        obj[key] = value
        write_json(model, obj)
        capsys.readouterr()
        assert main(["simulate", manifest_file, "--method", "reduced", "--model", str(model)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat" and key in diag["message"]
        assert not (tmp_path / "out" / "reduced.csv").exists()

    @pytest.mark.parametrize(
        "strategy, key, entries",
        [
            # symmetric but indefinite: i_1 7.9e70 at 1 s, exit 0
            ("tree", "Rhat", {(0, 1): 100.0, (1, 0): 100.0}),
            # exactly diagonal, so the run skipped the congruence: exit 0
            ("modal", "Rhat", {(0, 0): -5.0}),
            ("modal", "Lhat", {(0, 0): -1.0}),
        ],
        ids=["tree-Rhat-indefinite", "modal-Rhat-negative", "modal-Lhat-negative"],
    )
    def test_model_with_indefinite_pencil_exits_2(
        self, manifest_file, wye_file, tmp_path, capsys, strategy, key, entries
    ):
        model = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--p-strategy", strategy, "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        for (i, j), value in entries.items():
            obj[key][i][j] = value
        write_json(model, obj)
        capsys.readouterr()
        assert main(["simulate", manifest_file, "--method", "reduced", "--model", str(model)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NotPositiveDefinite"
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("strategy, expected", [("tree", 1), ("nullbasis", 1), ("modal", 0)])
    def test_model_run_takes_one_eigensolve(
        self, manifest_file, wye_file, tmp_path, capsys, monkeypatch, strategy, expected
    ):
        # the load's definiteness check is the run's congruence; a modal
        # pencil is diagonal and takes none (each used to take one more)
        model = tmp_path / "model.json"
        assert main(["reduce", wye_file, "--p-strategy", strategy, "--out", str(model)]) == 0
        calls = []
        eigh = scipy.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        assert main(["simulate", manifest_file, "--method", "reduced", "--model", str(model)]) == 0
        assert len(calls) == expected

    # (network, unbalanced f0, balanced f0), with r = 2l so that every
    # method applies. The second network has two interior nodes, 3 and
    # 4, and its unbalanced f0 puts 1 A through e2 = 3 -> 4 alone.
    UNBALANCED = {
        "wye": (wye_dict(r=(1.1, 1.28, 1.54)), [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]),
        "two-interior": (
            {
                "nodes": ["1", "2", "3", "4"],
                "boundary": ["1", "2"],
                "edges": [
                    {"id": f"e{k + 1}", "from": a, "to": b, "r_ohm": 2 * l, "l_henry": l}
                    for k, (a, b, l) in enumerate(
                        [("1", "3", 0.5), ("3", "4", 0.6), ("4", "2", 0.7), ("3", "2", 0.8)]
                    )
                ],
            },
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
        ),
    }

    # homogeneous and baseline used to take B1 f0 unchecked and exit 0
    @pytest.mark.parametrize("method", ["reduced", "dae", "homogeneous", "baseline"])
    @pytest.mark.parametrize("case", sorted(UNBALANCED))
    def test_unbalanced_initial_flow_exits_2(self, tmp_path, capsys, case, method):
        network, f0, balanced = self.UNBALANCED[case]
        write_json(tmp_path / "net.json", network)
        write_json(tmp_path / "exc.json", {"signals": {"1": {"type": "constant", "value_v": 1.0}}})
        flags = ["--omega0", "9.42", "--gamma", "1.0"] if method == "baseline" else []

        def run(flows):
            manifest = write_json(
                tmp_path / "m.json",
                {"network": "net.json", "excitation": "exc.json", "f0": flows,
                 "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
            )
            return main(["simulate", manifest, "--method", method, *flags])

        assert run(f0) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InconsistentInitialCondition"
        assert not list(tmp_path.glob("**/*.csv"))
        assert run(balanced) == 0

    def test_homogeneity_is_checked_before_the_initial_flow(self, tmp_path, wye_file, capsys):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [1.0, 0.0, 0.0],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        assert main(["simulate", manifest, "--method", "homogeneous"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NotHomogeneous"

    # numpy's _ArrayMemoryError (a MemoryError) used to end in a traceback
    # with exit 1, for a manifest SolverConfig accepts: a k=15 grid at
    # dt_s 1e-4 and t_end_s 500
    @pytest.mark.parametrize("numpy_error", [False, True], ids=["builtin", "numpy"])
    def test_failed_allocation_exits_2(self, manifest_file, capsys, monkeypatch, numpy_error):
        from numpy._core._exceptions import _ArrayMemoryError

        error = _ArrayMemoryError((10**6, 10**6), np.dtype(float)) if numpy_error else MemoryError()

        def out_of_memory(*args):
            raise error

        monkeypatch.setattr(cli, "simulate_reduced", out_of_memory)
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "Memory", "message": str(error)}

    def test_dae_unstable_step_exits_2(self, tmp_path, wye_file, capsys):
        # used to write values up to 7.6e4 and exit 0
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": {"dt_s": 2.0, "t_end_s": 20.0}},
        )
        assert main(["simulate", manifest, "--method", "dae"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UnstableTimeStep"
        assert not (tmp_path / "dae.csv").exists()

    @pytest.mark.parametrize("omega0", ["0", "-1", "nan"])
    def test_bad_omega0_exits_2(self, manifest_file, capsys, omega0):
        args = ["simulate", manifest_file, "--method", "baseline", "--omega0", omega0, "--gamma", "1"]
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidFrequency"

    def test_stride_given_as_whole_float_runs(self, tmp_path, wye_file, capsys):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {
                "network": "wye.json",
                "excitation": "exc.json",
                "solver": {"dt_s": 1e-3, "t_end_s": 0.1, "record_stride": 10.0},
            },
        )
        assert main(["simulate", manifest, "--method", "reduced"]) == 0
        assert len(trajectory_from_csv(tmp_path / "reduced.csv").times) == 11

    @staticmethod
    def _unphysical_baseline_args(tmp_path):
        # omega0 at which the wye's synthesized delta has a negative resistance
        write_json(
            tmp_path / "hard.json",
            wye_dict(
                r=(5.12309803, 9.50513233, 1.45015453),
                l=(9.48700798, 3.12519621, 4.23903123),
            ),
        )
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {
                "network": "hard.json",
                "excitation": "exc.json",
                "solver": {"dt_s": 1e-3, "t_end_s": 0.1},
            },
        )
        return ["simulate", manifest, "--method", "baseline", "--omega0", "82.78748912266214"]

    def test_baseline_unphysical_exits_3(self, tmp_path, capsys):
        code = main(self._unphysical_baseline_args(tmp_path))
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NegativeSynthesizedElement"

    def test_baseline_allow_unphysical_runs(self, tmp_path, capsys):
        args = self._unphysical_baseline_args(tmp_path) + ["--gamma", "1.0", "--allow-unphysical"]
        assert main(args) == 0
        traj = trajectory_from_csv(tmp_path / "baseline_gamma_0.csv")
        assert np.all(np.isfinite(traj.data))
        i0 = [traj.channel(f"i_{n}")[0] for n in ("1", "2", "3")]
        assert np.allclose(i0, [0.0, 0.0, 0.0], atol=1e-12)


class TestCompare:
    def test_identical_is_zero(self, manifest_file, tmp_path, capsys):
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        capsys.readouterr()
        path = str(tmp_path / "out" / "dae.csv")
        assert main(["compare", path, path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_abs"] == 0.0
        assert report["max_rel"] == 0.0

    def test_default_channels_are_the_shared_injections(self, manifest_file, tmp_path, capsys):
        # The tree and modal pseudoflows fhat_<k> are different coordinates;
        # comparing them used to report max_rel 3.5 for equal injections.
        for strategy in ("tree", "modal"):
            out = tmp_path / strategy
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            manifest.update(strategy=strategy, out_dir=strategy)
            path = write_json(tmp_path / f"{strategy}.json", manifest)
            assert main(["simulate", path, "--method", "reduced"]) == 0
            assert (out / "reduced.csv").exists()
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "tree" / "reduced.csv"),
                     str(tmp_path / "modal" / "reduced.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["channels"] == ["i_1", "i_2", "i_3"]
        assert report["max_rel"] <= 1e-9

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0.0,1.0\n0.1,abc\n")
        assert main(["compare", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat"
        assert "bad.csv, line 3" in diag["message"]

    # A ragged row used to end in a numpy ValueError traceback with exit 1,
    # and float() read 1_0 as 10. Line numbers count blank lines.
    @pytest.mark.parametrize(
        "body, line",
        [("0.1,2.0,3.0\n", 3), ("0.1\n", 3), ("0.1,1_0\n", 3), ("\n\n0.1,2.0,3.0\n0.2,4.0\n", 5)],
        ids=["longer", "shorter", "underscore", "after-blank-lines"],
    )
    def test_bad_row_exits_2(self, tmp_path, capsys, body, line):
        good = tmp_path / "good.csv"
        good.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n0.0,1.0\n" + body)
        assert main(["compare", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert f"bad.csv, line {line}:" in diag["message"]

    # used to end in a UnicodeDecodeError traceback with exit 1
    @pytest.mark.parametrize("body", [b"t,x\n0.0,1.0\n0.1,\xff\n", b"t,\xff\n0.0,1.0\n"], ids=["body", "header"])
    def test_non_utf8_csv_exits_2(self, tmp_path, capsys, body):
        good = tmp_path / "good.csv"
        good.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        assert main(["compare", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat" and "bad.csv is not UTF-8 text" in diag["message"]

    def test_header_only_exits_2_without_warning(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("t,x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", str(path), str(path)]) == 2
        assert not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat" and "no samples" in diag["message"]

    def test_non_finite_value_exits_2(self, manifest_file, tmp_path, capsys):
        # max() skips nan, so an all-nan copy used to report max_rel 0.0
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        header, *rows = (tmp_path / "out" / "dae.csv").read_text().splitlines()
        rows = [row.split(",", 1)[0] + ",nan" * header.count(",") for row in rows]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["compare", str(bad), str(tmp_path / "out" / "dae.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat"
        assert "'i_1'" in diag["message"] and "non-finite" in diag["message"]

    # -inf used to print "from_time": -Infinity, which is not JSON, and exit 0
    @pytest.mark.parametrize("from_time", ["nan", "inf", "-inf"])
    def test_non_finite_from_time_is_usage_error(self, tmp_path, capsys, from_time):
        path = tmp_path / "a.csv"
        path.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(path), str(path), f"--from-time={from_time}"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--from-time: not a finite number: {from_time!r}" in captured.err

    def test_unknown_channel_exits_2(self, manifest_file, tmp_path, capsys):
        # used to end in a KeyError traceback with exit 1
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        capsys.readouterr()
        path = str(tmp_path / "out" / "dae.csv")
        assert main(["compare", path, path, "--channels", "i_9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat"
        assert "'i_9'" in diag["message"]


class TestPhasor:
    def test_reduced_admittance_and_solve(self, wye_file, capsys):
        code = main(
            [
                "phasor",
                wye_file,
                "--omega",
                str(2 * math.pi * 1.5),
                "--v1",
                "120@0",
                "--v1",
                "120@30",
                "--v1",
                "120@-30",
            ]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        Yr = np.array([[c["re"] + 1j * c["im"] for c in row] for row in obj["Yr"]])
        assert np.allclose(Yr, Yr.T)
        assert np.max(np.abs(Yr.sum(axis=1))) <= 1e-12 * np.max(np.abs(Yr))
        assert len(obj["i1"]) == 3
        assert set(obj["v0"]) == {"4"}

    def test_wrong_phasor_count_exits_2(self, wye_file, capsys):
        assert main(["phasor", wye_file, "--omega", "1.0", "--v1", "120@0"]) == 2

    # each used to exit 0 with NaN or Infinity, which are not JSON, in stdout
    @pytest.mark.parametrize("phasor", ["1@nan", "inf@0", "nan@0"])
    def test_non_finite_phasor_exits_2(self, wye_file, capsys, phasor):
        args = ["phasor", wye_file, "--omega", "9.42", "--v1", phasor, "--v1", "1@0", "--v1", "1@0"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat" and repr(phasor) in diag["message"]

    @pytest.mark.parametrize("omega", ["-1", "0", "nan"])
    def test_bad_omega_exits_2(self, wye_file, capsys, omega):
        assert main(["phasor", wye_file, "--omega", omega]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidFrequency"


class TestPaperExperiment:
    def test_sinusoid_summary(self, tmp_path, capsys):
        code = main(
            [
                "paper-experiment",
                "--which",
                "sinusoid",
                "--out-dir",
                str(tmp_path / "exp"),
                "--dt",
                "1e-3",
                "--t-end",
                "4.0",
                "--record-stride",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reduced_vs_oracle"]["max_rel"] <= 1e-6
        assert summary["observations"]["reduced_matches_oracle"]
        assert len(summary["baseline"]) == 5
        assert (tmp_path / "exp" / "summary.json").exists()
        assert (tmp_path / "exp" / "dae.csv").exists()

    @pytest.mark.parametrize(
        "flags, error",
        [
            # dt * max decay rate = 3.3, past RK4's real-axis bound
            (["--which", "step", "--dt", "2", "--t-end", "20"], "UnstableTimeStep"),
            (["--which", "sinusoid", "--dt", "0"], "SolverConfig"),
            (["--which", "sinusoid", "--dt", "nan"], "SolverConfig"),
            # would otherwise stop silently at t = 0.9
            (["--which", "sinusoid", "--dt", "0.3", "--t-end", "1"], "SolverConfig"),
        ],
    )
    def test_bad_solver_settings_exit_2(self, tmp_path, capsys, flags, error):
        code = main(["paper-experiment", *flags, "--out-dir", str(tmp_path / "exp")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_failed_write_exits_2_as_one_process_does(self, tmp_path):
        # With 2 CPUs a forked child formats half the rows of every file.
        # A file that cannot be written (a directory of its name), the
        # first, a middle or the last one, must end in the one diagnostic
        # line a one-process write gives, with no child output and no child
        # left. A subprocess, so that a child's writes to fd 2 would show.
        names = ["dae", "reduced"] + [f"baseline_gamma_{k}" for k in range(5)]
        run = ["paper-experiment", "--which", "step", "--dt", "1e-3", "--t-end", "0.2", "--record-stride", "1"]
        cases = {"first": names[0], "middle": names[3], "last": names[-1]}
        runs = []
        for case, blocked in cases.items():
            (tmp_path / case / f"{blocked}.csv").mkdir(parents=True)
            runs += [[cpus, [*run, "--out-dir", str(tmp_path / case)]] for cpus in (1, 2)]
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", WRITE_RUNS, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert json.loads(proc.stdout) == [[2, False, 0], [2, False, 1]] * len(cases)
        lines = proc.stderr.splitlines()
        assert len(lines) == len(runs)
        for (case, blocked), alone, forked in zip(cases.items(), lines[::2], lines[1::2]):
            assert forked == alone
            assert json.loads(forked) == {
                "error": "IsADirectory",
                "message": f"[Errno 21] Is a directory: '{tmp_path / case / blocked}.csv'",
            }
        for case, blocked in cases.items():  # the 2-CPU run wrote the files before the blocked one whole
            for name in names[:names.index(blocked)]:
                assert len(trajectory_from_csv(tmp_path / case / f"{name}.csv").times) == 201

    # 1e10 steps used to be sized unchecked: 2e10 + 1 stage times, and as
    # many excitation samples per boundary node
    def test_too_many_steps_exit_2_before_any_grid(self, tmp_path, capsys, monkeypatch):
        def no_grid(cfg):
            raise AssertionError("stage grid built")

        monkeypatch.setattr(simulate, "_stage_grid", no_grid)
        code = main(["paper-experiment", "--which", "sinusoid", "--dt", "1e-9",
                     "--out-dir", str(tmp_path / "exp")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "SolverConfig" and "above the limit" in diag["message"]
        assert not (tmp_path / "exp").exists()

    def test_non_integer_seed_variable_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KRONRED_SEED", "abc")
        code = main(["paper-experiment", "--which", "step", "--out-dir", str(tmp_path / "exp")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat"
        assert "KRONRED_SEED" in diag["message"]

    # each ended in a ValueError traceback from default_rng with exit 1
    @pytest.mark.parametrize(
        "variable, flags, source",
        [(None, ["--seed", "-1"], "--seed"), ("-2", [], "KRONRED_SEED")],
        ids=["flag", "variable"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, variable, flags, source):
        monkeypatch.delenv("KRONRED_SEED", raising=False)
        if variable is not None:
            monkeypatch.setenv("KRONRED_SEED", variable)
        code = main(["paper-experiment", "--which", "step", *flags, "--out-dir", str(tmp_path / "exp")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        diag = json.loads(captured.err)
        assert diag["error"] == "InputFormat"
        assert source in diag["message"]
        assert not (tmp_path / "exp").exists()
