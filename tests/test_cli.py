import contextlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronred import PStrategy, cli, experiment, reduce, simulate
from kronred.cli import main
from kronred.network import network_from_dict
from kronred.reduction import load_model, model_to_dict
from kronred.simulate import trajectory_from_csv


# Runs kronred.cli.main once per [cpus, argv] in argv[1] (JSON), with
# that many CPUs seen by the CSV writer and a process per 1024 values to
# write, and prints [exit code, whether a child process was left, forks]
# per run.
WRITE_RUNS = """
import json, os, sys
from kronred import simulate
from kronred.cli import main

results = []
fork = os.fork
simulate.CSV_WRITE_VALUES_PER_PROCESS = 1024
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


def chain_dict(l):
    """Nodes 1, n0, n1, ..., 2 in a row, boundary 1 and 2, r = l per edge."""
    nodes = ["1"] + [f"n{k}" for k in range(len(l) - 1)] + ["2"]
    return {
        "nodes": nodes,
        "boundary": ["1", "2"],
        "edges": [
            {"id": f"e{k + 1}", "from": nodes[k], "to": nodes[k + 1], "r_ohm": float(x), "l_henry": float(x)}
            for k, x in enumerate(l)
        ],
    }


def nested(depth, value=1.0):
    """value inside depth levels of JSON lists."""
    for _ in range(depth):
        value = [value]
    return value


def nested_object(depth, value=1.0):
    """value inside depth levels of JSON objects."""
    for _ in range(depth):
        value = {"a": value}
    return value


# What JSON's "\ud800" decodes to: a lone surrogate, which is not Unicode
# text, so no UTF-8 file and no file name can hold it.
LONE_SURROGATE = "\ud800"


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

    @pytest.mark.parametrize(
        "edit, error, words",
        [
            (lambda d: d["nodes"].append("2"), "NetworkValidation", "duplicate node ids"),
            (lambda d: d["edges"][2].update(id="e1"), "NetworkValidation", "duplicate edge ids"),
            (lambda d: d["boundary"].append("5"), "NetworkValidation", "boundary references unknown node '5'"),
            (lambda d: d["edges"].append(7), "InputFormat", "edge must be an object"),
            (lambda d: [d], "InputFormat", "network must be an object"),
        ],
        ids=["duplicate-node", "duplicate-edge", "unknown-boundary-node", "edge-not-object", "network-not-object"],
    )
    def test_structure_check_exits_2(self, tmp_path, capsys, edit, error, words):
        bad = wye_dict()
        path = write_json(tmp_path / "bad.json", edit(bad) or bad)
        code, diag = run_one_diagnostic(["validate", path], capsys)
        assert code == 2
        assert diag["error"] == error and words in diag["message"]

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


def text_case(tmp_path, node):
    """The wye, its excitation and a manifest with boundary node "1"
    renamed node; returns the manifest's path."""
    for name, doc in (("wye.json", wye_dict()), ("exc.json", sinusoid_excitation_dict())):
        (tmp_path / name).write_text(json.dumps(doc).replace('"1"', json.dumps(node)))
    return write_json(tmp_path / "m.json", {"network": "wye.json", "excitation": "exc.json",
                                            "solver": {"dt_s": 1e-3, "t_end_s": 0.01}})


class TestText:
    # validate passed the wye with a lone surrogate as a node id, and
    # simulate --method dae|reduced ended in a UnicodeEncodeError traceback
    # (exit 1) at the CSV header
    @pytest.mark.parametrize("command", sorted(NETWORK_COMMANDS))
    def test_lone_surrogate_node_id_exits_2(self, tmp_path, capsys, command):
        manifest = text_case(tmp_path, LONE_SURROGATE)
        code, diag = run_one_diagnostic(NETWORK_COMMANDS[command](str(tmp_path / "wye.json"), manifest), capsys)
        assert code == 2
        assert diag == {"error": "InputFormat",
                        "message": f"{tmp_path / 'wye.json'} holds a string that is not Unicode text: '\\ud800'"}
        assert not list(tmp_path.glob("**/*.csv"))

    # a lone surrogate as a manifest path ended in a UnicodeEncodeError
    # traceback (exit 1) when the file was opened
    @pytest.mark.parametrize("key", ["network", "excitation", "out_dir"])
    def test_lone_surrogate_path_exits_2(self, manifest_file, tmp_path, capsys, key):
        manifest = json.loads(Path(manifest_file).read_text())
        manifest[key] = LONE_SURROGATE + ".json"
        write_json(tmp_path / "manifest.json", manifest)
        code, diag = run_one_diagnostic(["simulate", manifest_file, "--method", "dae"], capsys)
        assert code == 2
        assert diag["error"] == "InputFormat" and "not Unicode text" in diag["message"]

    def test_escaped_surrogate_pair_is_text(self, tmp_path, capsys):
        # "\ud83d\ude00" is one character, U+1F600, and "\\ud800" a backslash
        # and five letters: neither is a lone surrogate
        manifest = text_case(tmp_path, "\U0001f600 \\ud800")
        assert main(["simulate", manifest, "--method", "dae", "--out-dir", str(tmp_path / "out")]) == 0
        assert "i_\U0001f600 \\ud800" in trajectory_from_csv(tmp_path / "out" / "dae.csv").channels

    # CSVs were written in the locale's encoding but are read as UTF-8: under
    # an ASCII locale a non-ASCII node id ended in a UnicodeEncodeError
    # traceback (exit 1) at the CSV header
    @pytest.mark.parametrize("method", ["reduced", "dae"])
    def test_non_ascii_node_id_under_an_ascii_locale(self, tmp_path, method):
        manifest = text_case(tmp_path, "\u03a9")
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   PYTHONUTF8="0", LC_ALL="C")
        proc = subprocess.run(
            [sys.executable, "-m", "kronred.cli", "simulate", manifest, "--method", method,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "i_\u03a9" in trajectory_from_csv(tmp_path / "out" / f"{method}.csv").channels

    # Under an ASCII locale a manifest path that is not ASCII ended in a
    # UnicodeEncodeError traceback (exit 1) where the file was opened
    @pytest.mark.parametrize("key, path", [("network", "\u03a9.json"), ("out_dir", "out\u03a9")])
    def test_non_ascii_manifest_path_under_an_ascii_locale(self, tmp_path, key, path):
        proc = run_ascii_locale(tmp_path, ["simulate", "m.json", "--method", "dae"], **{key: path})
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {
            "error": "InputFormat", "message": f"path {path!r} is not ascii text, the file system encoding",
        }
        assert not list(tmp_path.glob("**/*.csv"))

    # a command-line path is the bytes it was given, so it needs no encoding
    @pytest.mark.parametrize("argv, written", [
        (["simulate", "m.json", "--method", "dae", "--out-dir", "\u03a9"], "\u03a9/dae.csv"),
        (["reduce", "wye.json", "--out", "\u03a9.json"], "\u03a9.json"),
    ])
    def test_non_ascii_argument_path_under_an_ascii_locale(self, tmp_path, argv, written):
        proc = run_ascii_locale(tmp_path, argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / written).exists()


def run_ascii_locale(tmp_path, argv, **manifest):
    """Run the CLI with argv in tmp_path under an ASCII locale, after
    writing there the wye as wye.json and \u03a9.json, its excitation and
    a manifest m.json with the given keys."""
    for name in ("wye.json", "\u03a9.json"):
        (tmp_path / name).write_text(json.dumps(wye_dict()), encoding="utf-8")
    write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
    write_json(tmp_path / "m.json", {"network": "wye.json", "excitation": "exc.json",
                                     "solver": {"dt_s": 1e-3, "t_end_s": 0.01}, **manifest})
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONUTF8="0", LC_ALL="C")
    return subprocess.run([sys.executable, "-m", "kronred.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)

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

    # A wye with r = l = x on e1 and 1 on e2 and e3 (r/l = 1 throughout),
    # node 1 driven at 120 V and 1.5 Hz, node 2 at 100 V. At x = 1e-306 the
    # DAE oracle and the homogeneous model exited 0 with injections that
    # summed to -0.24 A; each now agrees with the reduced model or refuses.
    # The chains run from node 1 through three interior nodes to node 2.
    # The oracle's error follows the span of l over the network: the
    # 1e15 chain spans only 1e5 at each node, and its oracle exited 0
    # with compare's max_rel 2.1.
    @pytest.mark.parametrize("network, refused", [
        (wye_dict(r=(3.7e-7, 1.0, 1.0), l=(3.7e-7, 1.0, 1.0)), ()),
        (wye_dict(r=(1e-306, 1.0, 1.0), l=(1e-306, 1.0, 1.0)), ("dae", "homogeneous")),
        (chain_dict(10.0 ** np.linspace(-7.5, 7.5, 4)), ("dae", "homogeneous")),
        (chain_dict(10.0 ** np.linspace(-3.95, 3.95, 4)), ()),
    ], ids=["span-2.7e6", "span-1e306", "chain-span-1e15", "chain-span-10^7.9"])
    def test_references_agree_with_reduced_or_refuse(self, tmp_path, capsys, network, refused):
        write_json(tmp_path / "wye.json", network)
        write_json(tmp_path / "exc.json", {"signals": {
            "1": {"type": "sinusoid", "amplitude_v": 120.0, "freq_hz": 1.5, "phase_deg": 0.0},
            "2": {"type": "constant", "value_v": 100.0},
        }})
        manifest = write_json(tmp_path / "manifest.json", {
            "network": "wye.json", "excitation": "exc.json", "f0": [0.0] * len(network["edges"]),
            "solver": {"dt_s": 1e-3, "t_end_s": 0.01, "record_stride": 1}, "out_dir": "out",
        })
        assert main(["simulate", manifest, "--method", "reduced"]) == 0
        for method in ("dae", "homogeneous"):
            capsys.readouterr()
            if method in refused:
                code, diag = run_one_diagnostic(["simulate", manifest, "--method", method], capsys)
                assert (code, diag["error"]) == (2, "LostPrecision")
                assert not (tmp_path / "out" / f"{method}.csv").exists()
                continue
            assert main(["simulate", manifest, "--method", method]) == 0
            capsys.readouterr()
            out = tmp_path / "out"
            assert main(["compare", str(out / "reduced.csv"), str(out / f"{method}.csv")]) == 0
            assert json.loads(capsys.readouterr().out)["max_rel"] <= 1e-6

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

    @pytest.mark.parametrize("breakpoints", [[[0.0, 1.0, 2.0]], [0.0, 1.0]], ids=["triple", "flat"])
    def test_breakpoints_not_pairs_exit_2(self, tmp_path, wye_file, capsys, breakpoints):
        excitation = sinusoid_excitation_dict()
        excitation["signals"]["2"] = {"type": "piecewise", "breakpoints": breakpoints}
        write_json(tmp_path / "exc.json", excitation)
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        code, diag = run_one_diagnostic(["simulate", manifest, "--method", "reduced"], capsys)
        assert code == 2
        assert diag["error"] == "InputFormat" and "[t, value] pairs" in diag["message"]
        assert not list(tmp_path.glob("**/*.csv"))

    # 2 pi f overflows, so 2 pi f t is NaN or inf: the runs used to print
    # RuntimeWarnings, write NaN rows and exit 0
    @pytest.mark.parametrize("method", ["reduced", "dae", "homogeneous", "baseline"])
    def test_overflowing_phase_exits_2(self, tmp_path, capsys, method):
        write_json(tmp_path / "wye.json", wye_dict(r=(1.1, 1.28, 1.54)))  # r = 2 l: homogeneous
        excitation = sinusoid_excitation_dict()
        excitation["signals"]["2"]["freq_hz"] = 1e308
        write_json(tmp_path / "exc.json", excitation)
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [-5.0, -5.0, 10.0],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.02}},
        )
        flags = ["--omega0", "9.42", "--gamma", "1.0"] if method == "baseline" else []
        code, diag = run_one_diagnostic(["simulate", manifest, "--method", method, *flags], capsys)
        assert code == 2
        assert diag == {"error": "InputFormat", "message": "node '2' signal is non-finite at t=0 s"}
        assert not list(tmp_path.glob("**/*.csv"))

    # Lhat fhat0 = 1e308 * -5 overflowed: the run printed RuntimeWarnings
    # and wrote inf and NaN rows with exit 0 (the DAE oracle runs)
    def test_overflowing_flux_exits_2(self, manifest_file, tmp_path, capsys):
        write_json(tmp_path / "wye.json", wye_dict(l=(1e308, 0.64, 0.77)))
        code, diag = run_one_diagnostic(["simulate", manifest_file, "--method", "reduced"], capsys)
        assert code == 2
        assert diag == {"error": "InputFormat", "message": "the initial flux Lhat fhat0 of the reduced model overflows"}
        assert not list(tmp_path.glob("**/*.csv"))

    # A lossless wye under a constant 1e307 V overflows its currents by
    # t = 100 s. reduced and baseline exited 2, while homogeneous and dae
    # printed RuntimeWarnings and wrote NaN rows with exit 0.
    @pytest.mark.parametrize("method", ["reduced", "dae", "homogeneous", "baseline"])
    def test_overflowing_run_exits_2(self, tmp_path, capsys, method):
        write_json(tmp_path / "wye.json", wye_dict(r=(0.0, 0.0, 0.0)))
        write_json(tmp_path / "exc.json", {"signals": {"1": {"type": "constant", "value_v": 1e307}}})
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": {"dt_s": 0.01, "t_end_s": 100}},
        )
        flags = ["--omega0", "9.42", "--gamma", "1"] if method == "baseline" else []
        code, diag = run_one_diagnostic(["simulate", manifest, "--method", method, *flags], capsys)
        assert code == 2
        assert diag == {"error": "InputFormat", "message": "the run's states or outputs overflow"}
        assert not list(tmp_path.glob("**/*.csv"))

    # 2 t_end max|v1| overflowed in the oracle's drift floor: the run printed
    # RuntimeWarnings with exit 0, and the drift check was off
    def test_drive_near_the_largest_float_runs_quietly(self, tmp_path, capsys):
        write_json(tmp_path / "wye.json", wye_dict())
        write_json(tmp_path / "exc.json", {"signals": {"1": {"type": "constant", "value_v": 1e308}}})
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "solver": {"dt_s": 1e-3, "t_end_s": 10}},
        )
        assert main(["simulate", manifest, "--method", "dae", "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(trajectory_from_csv(tmp_path / "out" / "dae.csv").data))

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

    # f0 = (-5, -5, 10 + 1e-7) leaves 1e-7 at the center node, within
    # DRIFT_TOL of max|f0| but not in range(P) to 1e-9; its boundary
    # injections B1 f0 sum to 1e-7, not in range(Br) of the synthesized
    # network to 1e-9 either
    def test_initial_flow_rule_by_method(self, tmp_path, wye_file, capsys):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [-5.0, -5.0, 10.0 + 1e-7],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        assert main(["simulate", manifest, "--method", "dae", "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        for flags in (["reduced"], ["baseline", "--omega0", "9.42", "--gamma", "1.0"]):
            code, diag = run_one_diagnostic(["simulate", manifest, "--method", *flags], capsys)
            assert (code, diag["error"]) == (2, "InconsistentInitialCondition")

    # the output directory was made before the run, and a run that failed
    # left it behind, empty and as deeply nested as --out-dir
    @pytest.mark.parametrize("method", ["reduced", "dae", "homogeneous", "baseline"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, wye_file, capsys, method):
        write_json(tmp_path / "exc.json", sinusoid_excitation_dict())
        manifest = write_json(
            tmp_path / "m.json",
            {"network": "wye.json", "excitation": "exc.json", "f0": [1.0, 0.0, 0.0],
             "solver": {"dt_s": 1e-3, "t_end_s": 0.1}},
        )
        flags = ["--omega0", "9.42", "--gamma", "1.0"] if method == "baseline" else []
        out_dir = str(tmp_path / "a" / "b")
        code, _ = run_one_diagnostic(["simulate", manifest, "--method", method, *flags, "--out-dir", out_dir], capsys)
        assert code == (3 if method == "homogeneous" else 2)
        assert not (tmp_path / "a").exists()

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


def grid_dict(k, rng):
    """A k x k grid network, boundary row 0, r and l in [0.5, 1]."""
    nodes = [f"n{r}_{c}" for r in range(k) for c in range(k)]
    ends = [(f"n{r}_{c}", f"n{r}_{c + 1}") for r in range(k) for c in range(k - 1)]
    ends += [(f"n{r}_{c}", f"n{r + 1}_{c}") for r in range(k - 1) for c in range(k)]
    return {
        "nodes": nodes,
        "boundary": nodes[:k],
        "edges": [
            {"id": f"e{j}", "from": a, "to": b, "r_ohm": float(rng.uniform(0.5, 1)),
             "l_henry": float(rng.uniform(0.5, 1))}
            for j, (a, b) in enumerate(ends)
        ],
    }


class TestModelCheck:
    """A --model file must be the manifest's network's reduction."""

    def run_model(self, manifest_file, obj, tmp_path, capsys):
        """simulate --model on the model dict obj: (exit code, stderr lines)."""
        model = write_json(tmp_path / "edited.json", obj)
        capsys.readouterr()
        code = main(["simulate", manifest_file, "--method", "reduced", "--model", model,
                     "--out-dir", str(tmp_path / "edited")])
        return code, capsys.readouterr().err.strip().splitlines()

    def model_dict(self, wye_file, tmp_path, strategy="tree"):
        path = tmp_path / f"{strategy}.json"
        assert main(["reduce", wye_file, "--p-strategy", strategy, "--out", str(path)]) == 0
        return json.loads(path.read_text())

    def assert_rejected(self, code, lines, tmp_path, name):
        assert code == 2
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert diag["error"] == "InputFormat"
        assert f"model {name} does not match the network: relative residual" in diag["message"]
        assert not (tmp_path / "edited" / "reduced.csv").exists()

    def test_doubled_Rhat_exits_2(self, manifest_file, wye_file, tmp_path, capsys):
        # used to exit 0 with i_* up to 5.3 A away from dae.csv
        obj = self.model_dict(wye_file, tmp_path)
        obj["Rhat"] = (2.0 * np.array(obj["Rhat"])).tolist()
        code, lines = self.run_model(manifest_file, obj, tmp_path, capsys)
        self.assert_rejected(code, lines, tmp_path, "Rhat")

    @pytest.mark.parametrize("strategy", ["tree", "nullbasis", "modal"])
    @pytest.mark.parametrize("key", ["P", "Lhat", "Rhat", "Bhat"])
    def test_edit_of_one_entry_exits_2(self, manifest_file, wye_file, tmp_path, capsys, strategy, key):
        obj = self.model_dict(wye_file, tmp_path, strategy)
        A = np.array(obj[key])
        i, j = np.unravel_index(np.argmax(abs(A)), A.shape)
        A[i, j] *= 1.0 + 1e-6
        if key in ("Lhat", "Rhat"):  # kept exactly symmetric, as the loader requires
            A[j, i] = A[i, j]
        obj[key] = A.tolist()
        code, lines = self.run_model(manifest_file, obj, tmp_path, capsys)
        self.assert_rejected(code, lines, tmp_path, key)

    def test_change_of_basis_passes(self, manifest_file, wye_file, tmp_path, capsys):
        obj = self.model_dict(wye_file, tmp_path)
        S = np.array([[1.5, -0.25], [0.5, 0.75]])
        P, Lhat, Rhat, Bhat = (np.array(obj[key]) for key in ("P", "Lhat", "Rhat", "Bhat"))
        for key, M in (("Lhat", S.T @ Lhat @ S), ("Rhat", S.T @ Rhat @ S)):
            obj[key] = (0.5 * (M + M.T)).tolist()
        obj["P"], obj["Bhat"] = (P @ S).tolist(), (Bhat @ S).tolist()
        code, lines = self.run_model(manifest_file, obj, tmp_path, capsys)
        assert (code, lines) == (0, [])
        assert main(["simulate", manifest_file, "--method", "reduced"]) == 0
        direct = trajectory_from_csv(tmp_path / "out" / "reduced.csv")
        edited = trajectory_from_csv(tmp_path / "edited" / "reduced.csv")
        channels = [f"i_{n}" for n in ("1", "2", "3")]
        assert np.allclose(edited.select(channels).data, direct.select(channels).data, rtol=0, atol=1e-9)

    def test_model_of_lower_order_exits_2(self, manifest_file, wye_file, tmp_path, capsys):
        # one column of the tree basis spans part of null(B0) exactly
        obj = self.model_dict(wye_file, tmp_path)
        obj["P"] = [row[:1] for row in obj["P"]]
        obj["Lhat"], obj["Rhat"] = [obj["Lhat"][0][:1]], [obj["Rhat"][0][:1]]
        obj["Bhat"] = [row[:1] for row in obj["Bhat"]]
        code, lines = self.run_model(manifest_file, obj, tmp_path, capsys)
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "InputFormat", "message": "model order is 1, the network's null(B0) has dimension 2"}

    @pytest.mark.parametrize("strategy", ["tree", "nullbasis", "modal"])
    def test_every_reduce_out_file_passes(self, tmp_path, capsys, strategy):
        rng = np.random.default_rng(6)
        for name, network in (("wye", wye_dict()), ("grid", grid_dict(6, rng))):
            net_file = write_json(tmp_path / f"{name}.json", network)
            boundary = network["boundary"]
            write_json(tmp_path / "exc.json", {"signals": {boundary[0]: {"type": "constant", "value_v": 1.0}}})
            manifest = write_json(tmp_path / f"{name}_m.json", {
                "network": f"{name}.json", "excitation": "exc.json",
                "solver": {"dt_s": 1e-3, "t_end_s": 0.01}, "out_dir": "out"})
            model = tmp_path / f"{name}_model.json"
            assert main(["reduce", net_file, "--p-strategy", strategy, "--out", str(model)]) == 0
            assert main(["simulate", manifest, "--method", "reduced", "--model", str(model)]) == 0
        assert capsys.readouterr().err == ""


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

    # process substitution, <(cat a.csv): used to exit 2 with
    # UnsupportedOperation, "underlying stream is not seekable"
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read(self, manifest_file, tmp_path, capsys):
        assert main(["simulate", manifest_file, "--method", "dae"]) == 0
        path = tmp_path / "out" / "dae.csv"
        r, w = os.pipe()

        def feed():
            with open(w, "wb") as pipe:
                pipe.write(path.read_bytes())

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            capsys.readouterr()
            assert main(["compare", f"/dev/fd/{r}", str(path)]) == 0
        finally:
            feeder.join(timeout=10)
            os.close(r)
        assert not feeder.is_alive()
        summary = json.loads(capsys.readouterr().out)
        assert summary["max_abs"] == 0.0

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

    def test_no_common_channel_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        b.write_text("t,y\n0.0,1.0\n0.1,2.0\n")
        code, diag = run_one_diagnostic(["compare", str(a), str(b)], capsys)
        assert code == 2
        assert diag["error"] == "DimensionMismatch" and "no common channels" in diag["message"]

    def test_from_time_past_the_last_sample_exits_2(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("t,x\n0.0,1.0\n0.1,2.0\n")
        code, diag = run_one_diagnostic(["compare", str(path), str(path), "--from-time", "0.5"], capsys)
        assert code == 2
        assert diag["error"] == "InputFormat" and "no samples at or after t=0.5" in diag["message"]

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

    def test_wrong_phasor_count_prints_one_line(self, wye_file, capsys):
        code, diag = run_one_diagnostic(["phasor", wye_file, "--omega", "1.0", "--v1", "120@0"], capsys)
        assert code == 2
        assert diag == {"error": "DimensionMismatch", "message": "expected 3 boundary phasors, got 1"}
        assert capsys.readouterr().out == ""

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

    # omega * l = 9.42e308 overflowed in r + j omega l: both used to print
    # RuntimeWarnings and exit 0
    @pytest.mark.parametrize("command", ["phasor", "simulate-baseline"])
    def test_overflowing_reactance_exits_2(self, manifest_file, tmp_path, capsys, command):
        net = write_json(tmp_path / "wye.json", wye_dict(l=(1e308, 0.64, 0.77)))
        code, diag = run_one_diagnostic(NETWORK_COMMANDS[command](net, manifest_file), capsys)
        assert code == 2
        assert diag == {"error": "InvalidFrequency", "message": "omega * l of edge 'e1' overflows at 9.42 rad/s"}
        assert not list(tmp_path.glob("**/*.csv"))

    # 1 / (1e308 + 9.42e307 j) overflowed to 0 inside the complex division:
    # phasor used to exit 0 with a RuntimeWarning, the baseline printed it
    # before its exit-2 line
    @pytest.mark.parametrize("command", ["phasor", "simulate-baseline"])
    def test_overflowing_admittance_exits_2(self, manifest_file, tmp_path, capsys, command):
        net = write_json(tmp_path / "wye.json", wye_dict(r=(1e308, 0.99, 0.58), l=(1e307, 0.64, 0.77)))
        code, diag = run_one_diagnostic(NETWORK_COMMANDS[command](net, manifest_file), capsys)
        assert code == 2
        assert diag == {
            "error": "InvalidFrequency",
            "message": "admittance 1 / (r + j omega l) of edge 'e1' is zero or not finite at 9.42 rad/s",
        }
        assert not list(tmp_path.glob("**/*.csv"))

    def test_disconnected_synthesis_names_the_synthesized_network(self, manifest_file, tmp_path, capsys):
        # e1's admittance, about 1e-308, leaves Yr entries below the branch
        # tolerance; the message used to call the user's network disconnected
        net = write_json(tmp_path / "wye.json", wye_dict(l=(1e307, 0.64, 0.77)))
        assert main(["validate", net]) == 0
        capsys.readouterr()
        code, diag = run_one_diagnostic(NETWORK_COMMANDS["simulate-baseline"](net, manifest_file), capsys)
        assert code == 2
        assert diag == {
            "error": "DisconnectedNetwork",
            "message": "network synthesized at omega0 = 9.42 rad/s, whose branches are the reduced "
                       "admittances above 1e-12 of the largest, is disconnected (2 components)",
        }
        assert not list(tmp_path.glob("**/*.csv"))


class TestPaperExperiment:
    def test_defaults_are_the_papers_solver_settings(self):
        args = cli.build_parser().parse_args(["paper-experiment", "--which", "step"])
        cfg = simulate.SolverConfig(dt=args.dt, t_end=args.t_end, record_stride=args.record_stride)
        assert cfg == experiment.PAPER_SOLVER == simulate.SolverConfig(dt=1e-4, t_end=10.0, record_stride=10)
        assert inspect.signature(experiment.run_experiment).parameters["cfg"].default is experiment.PAPER_SOLVER

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment 'ramp'"):
            experiment.run_experiment("ramp")

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

    # 1e7 steps recorded at every step: within MAX_STEPS, but about 1.3 GiB
    # of stage inputs, forced parts and records for the reduced run alone
    def test_run_past_the_size_limit_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("excitation sampled")

        monkeypatch.setattr(simulate, "_stage_grid", refuse)
        monkeypatch.setattr(simulate.Excitation, "evaluate", refuse)
        code = main(["paper-experiment", "--which", "sinusoid", "--t-end", "1000", "--record-stride", "1",
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


# The CLI contract over single-leaf mutations of the wye's four input
# files: network, excitation, manifest and its tree model as reduce --out
# writes it. The wye is homogeneous (r = 2 l), so that every method runs.
def contract_files():
    wye = wye_dict(r=(1.1, 1.28, 1.54))
    model = reduce(network_from_dict(wye), PStrategy.TREE_ELIMINATION)
    return {
        "wye.json": wye,
        "exc.json": sinusoid_excitation_dict(),
        "m.json": {"network": "wye.json", "excitation": "exc.json", "f0": [-5.0, -5.0, 10.0],
                   "solver": {"dt_s": 1e-3, "t_end_s": 0.02, "record_stride": 1},
                   "strategy": "tree", "seed": 0, "out_dir": "out"},
        "model.json": json.loads(json.dumps(model_to_dict(model))),
    }


def leaves(doc, path=()):
    """The path of every non-container value in the JSON document doc."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaves(value, path + (key,))
    else:
        yield path


CONTRACT_LEAVES = [(name, path) for name, doc in contract_files().items() for path in leaves(doc)]
LEAF_VALUES = [0, -1, 0.5, 3, 1e-300, 5e-324, 1e150, 1e160, 1e300, 1e308, -1e308, float("nan"),
               float("inf"), float("-inf"), True, None, "", "x", "1", "\u03a9", LONE_SURROGATE, [], {}, [1.0],
               nested(40), nested_object(64)]


def contract_commands(root):
    """Every command that reads the files, writing into root/out."""
    net, manifest, out = str(root / "wye.json"), str(root / "m.json"), str(root / "out")
    model = str(root / "model.json")
    simulate = ["simulate", manifest, "--out-dir", out, "--method"]
    return [
        ["validate", net],
        ["reduce", net, "--p-strategy", "tree"],
        ["reduce", net, "--p-strategy", "modal"],
        ["phasor", net, "--omega", "9.42", "--v1", "120@0", "--v1", "120@30", "--v1", "120@-30"],
        [*simulate, "reduced"],
        [*simulate, "reduced", "--model", model],
        [*simulate, "dae"],
        [*simulate, "homogeneous"],
        [*simulate, "baseline", "--omega0", "9.42", "--gamma", "1.0"],
    ]


# A mutation value that deletes the key instead of replacing its value; a
# path whose last key is not in the file adds an unknown key.
MISSING = "<missing>"


def no_constant(name):
    raise AssertionError(f"{name} in JSON output")


class TestCliContract:
    # Exit 0, 2 or 3. On 2 or 3, stderr is one JSON line with the error and
    # its message; on 0 stderr is empty (no warning), and every CSV value
    # and JSON number written is finite. The first four examples each used
    # to exit 0 with numpy's overflow warnings on stderr (the model's Bhat
    # also with NaN in reduced.csv); the next two, a lone surrogate as an
    # edge id (a dae.csv header) and as a file name, ended in a
    # UnicodeEncodeError traceback; the others delete a key or add an
    # unknown one in each file.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutation=st.tuples(st.sampled_from(CONTRACT_LEAVES), st.sampled_from(LEAF_VALUES)))
    @example(mutation=(("exc.json", ("signals", "2", "freq_hz")), 1e308))
    @example(mutation=(("wye.json", ("edges", 0, "l_henry")), 1e308))
    @example(mutation=(("m.json", ("f0", 0)), 1e160))
    @example(mutation=(("model.json", ("Bhat", 0, 0)), 1e308))
    @example(mutation=(("wye.json", ("edges", 0, "id")), LONE_SURROGATE))
    @example(mutation=(("m.json", ("network",)), LONE_SURROGATE))
    @example(mutation=(("wye.json", ("edges", 1, "r_ohm")), MISSING))
    @example(mutation=(("wye.json", ("edges", 1, "c_farad")), 1.0))
    @example(mutation=(("exc.json", ("signals", "3", "amplitude_v")), MISSING))
    @example(mutation=(("exc.json", ("signals", "3", "offset_v")), 1.0))
    @example(mutation=(("m.json", ("solver", "dt_s")), MISSING))
    @example(mutation=(("m.json", ("solver", "method")), "rk4"))
    @example(mutation=(("model.json", ("Rhat",)), MISSING))
    @example(mutation=(("model.json", ("version",)), 1))
    def test_every_mutation_keeps_the_contract(self, tmp_path_factory, mutation):
        (name, path), value = mutation
        files = contract_files()
        parent = files[name]
        for key in path[:-1]:
            parent = parent[key]
        if value == MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        root = tmp_path_factory.mktemp("contract")
        for file, doc in files.items():
            (root / file).write_text(json.dumps(doc))
        for argv in contract_commands(root):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 2, 3), (argv, code)
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, (argv, err.getvalue())
                assert set(json.loads(lines[0])) == {"error", "message"}
            else:
                assert err.getvalue() == "", argv
                if argv[0] not in ("validate", "simulate"):
                    json.loads(out.getvalue(), parse_constant=no_constant)
                for csv in (root / "out").glob("*.csv"):
                    traj = trajectory_from_csv(csv)
                    assert np.all(np.isfinite(traj.times)) and np.all(np.isfinite(traj.data)), (argv, csv.name)
            shutil.rmtree(root / "out", ignore_errors=True)
