"""End-to-end command-line behavior: outputs, config handling, exit codes."""

import inspect
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import usctransfer.qoc as qoc

CLI = [sys.executable, "-m", "usctransfer"]
ASCEND = qoc._ascend


def crash_on_second_start(template, x0, *, config, **kwargs):
    """Ascent that kills its worker process on the first random start, the second restart."""
    if np.array_equal(x0, np.random.default_rng(config.seed).uniform(0.0, config.g0, size=2 * config.bins)):
        os._exit(1)
    return ASCEND(template, x0, config=config, **kwargs)


def main_timed(argv):
    """``cli.main(argv)`` with every warning an error: its exit code and its wall time."""
    from usctransfer.cli import main

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, time.perf_counter() - start


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600, **kwargs
    )


@pytest.fixture(scope="module")
def fast_sim_args():
    # t_inv = 0.2 keeps the window short; fine for exercising plumbing
    return ["simulate", "--t-inv", "0.2", "--g0", "0.25", "--nmax", "6"]


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported by the optimizer only when it runs; the exact gradient needs none
        runs = [
            "import usctransfer.cli",
            "from usctransfer import ModelParams, gradient_check; gradient_check(ModelParams(n_max=2), seeds=(0,))",
        ]
        for run in runs:
            code = f"import sys; {run}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", run

    def test_cli_import_loads_no_process_pool(self):
        # the process pool is imported by a parallel sweep only when it runs
        code = "import sys, usctransfer.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSimulate:
    def test_emits_run_record_json(self, fast_sim_args):
        proc = run_cli(*fast_sim_args)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert set(data) >= {"fidelity", "leakage", "peak_mean_photon", "params", "schedule"}
        assert 0.0 <= data["fidelity"] <= 1.0

    def test_out_and_trajectory_files(self, fast_sim_args, tmp_path):
        out = tmp_path / "record.json"
        traj = tmp_path / "traj.csv"
        proc = run_cli(*fast_sim_args, "--out", str(out), "--traj-out", str(traj))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["schedule"]["kind"] == "gaussian"
        header = traj.read_text().splitlines()[0]
        assert header == "time,p_source,p_target,p_cavity,mean_photon,norm2"

    def test_rerun_byte_identical(self, fast_sim_args, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*fast_sim_args, "--out", str(first)).returncode == 0
        assert run_cli(*fast_sim_args, "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_traj_out_propagates_once(self, fast_sim_args, tmp_path, monkeypatch):
        import usctransfer.cli as cli_mod
        import usctransfer.sweep as sweep_mod
        from usctransfer import (
            GaussianPair,
            ModelParams,
            PropagationOptions,
            integration_window,
            propagate,
            superposition_initial,
        )
        from usctransfer.formats import trajectory_csv

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        for module in (sweep_mod, cli_mod):
            monkeypatch.setattr(module, "propagate", counting, raising=False)
        traj = tmp_path / "traj.csv"
        argv = [*fast_sim_args, "--out", str(tmp_path / "record.json"), "--traj-out", str(traj)]
        assert cli_mod.main(argv) == 0
        assert len(calls) == 1

        params = ModelParams(n_max=6)
        width = 1.0 / 0.2
        pair = GaussianPair(g0=0.25, T=width, tau=0.6 * width)
        direct = propagate(
            superposition_initial(0.0, 1.0, params), pair, params,
            integration_window(pair), PropagationOptions(),
        )
        assert traj.read_text() == trajectory_csv(direct)

    @pytest.mark.parametrize("flag", ["--out", "--traj-out"])
    def test_unwritable_output_is_one_line_usage_error(self, fast_sim_args, tmp_path, flag):
        path = tmp_path / "missing" / "out.txt"
        proc = run_cli(*fast_sim_args, flag, str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"usctransfer: cannot write {flag} {path}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_unnormalized_input_is_usage_error(self, fast_sim_args):
        proc = run_cli(*fast_sim_args, "--alpha", "1", "--beta", "1")
        assert proc.returncode == 1
        assert "usctransfer" in proc.stderr

    def test_unknown_flag_exits_one(self):
        proc = run_cli("simulate", "--frequency", "2")
        assert proc.returncode == 1


class TestOptimizeCommand:
    def test_optimize_schedule_roundtrip(self, tmp_path):
        out = tmp_path / "result.json"
        sched_csv = tmp_path / "schedule.csv"
        proc = run_cli(
            "optimize", "--t-inv", "0.2", "--g0", "0.3", "--bins", "4",
            "--restarts", "1", "--max-iters", "40", "--nmax", "4", "--seed", "3",
            "--out", str(out), "--schedule-out", str(sched_csv),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())
        assert 0.0 <= result["best_fidelity"] <= 1.0
        assert result["schedule"]["values1"]

        resim = run_cli(
            "simulate", "--schedule", str(sched_csv), "--nmax", "4", "--kappa", "0.005"
        )
        assert resim.returncode == 0, resim.stderr
        record = json.loads(resim.stdout)
        assert record["schedule"]["kind"] == "piecewise"
        assert abs(record["fidelity"] - result["best_fidelity"]) < 1e-9

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "optimize", "--t-inv", "0.2", "--g0", "0.3", "--bins", "3",
            "--restarts", "2", "--max-iters", "30", "--nmax", "4", "--seed", "11",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*args, "--out", str(first)).returncode == 0
        assert run_cli(*args, "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_in_process_rerun_byte_identical(self, tmp_path):
        # one process, as the benchmark runs it: A, then B on another bins and
        # cutoff, then A again must reproduce A's files
        from usctransfer.cli import main

        common = ["optimize", "--t-inv", "0.2", "--g0", "0.3", "--restarts", "2", "--max-iters", "30", "--seed", "11"]
        configs = {"a": ["--bins", "3", "--nmax", "4"], "b": ["--bins", "5", "--nmax", "2"]}
        outputs = []
        for run, name in enumerate("aba"):
            out, schedule = tmp_path / f"{run}.json", tmp_path / f"{run}.csv"
            assert main([*common, *configs[name], "--out", str(out), "--schedule-out", str(schedule)]) == 0
            outputs.append((out.read_bytes(), schedule.read_bytes()))
        assert outputs[0] == outputs[2]
        assert outputs[0] != outputs[1]

    def test_restart_whose_worker_dies_twice_exits_3_naming_it(self, monkeypatch, capsys):
        from usctransfer.cli import WORKER_LOST, main

        monkeypatch.setattr(qoc, "_ascend", crash_on_second_start)  # fork-started workers inherit it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool also on one core
        code = main(["optimize", "--t-inv", "0.2", "--g0", "0.3", "--bins", "3", "--restarts", "3",
                     "--max-iters", "5", "--nmax", "2", "--seed", "11"])
        err = capsys.readouterr().err
        assert code == WORKER_LOST == 3
        assert err.startswith("usctransfer: optimize restart(s) 2 of 3 lost: ") and err.count("\n") == 1

    def test_resimulate_from_result_json(self, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli(
            "optimize", "--t-inv", "0.2", "--g0", "0.3", "--bins", "3",
            "--restarts", "1", "--max-iters", "30", "--nmax", "4",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        resim = run_cli("simulate", "--schedule", str(out), "--nmax", "4")
        assert resim.returncode == 0, resim.stderr
        record = json.loads(resim.stdout)
        assert abs(record["fidelity"] - json.loads(out.read_text())["best_fidelity"]) < 1e-9


class TestSweepCommand:
    def test_single_point_grid(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps({"t_inv_values": [0.2], "g0_values": [0.2], "nmax": 6})
        )
        proc = run_cli("sweep", "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "t_inv,g0,model,fidelity,leakage,peak_mean_photon"
        assert len(lines) == 2

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(
                {"t_inv_values": [0.2], "g0_values": [0.2], "nmax": 6, "model": "rabi"}
            )
        )
        proc = run_cli("sweep", "--config", str(config), "--model", "rwa")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split(",")[2] == "rwa"

    def test_byte_identical_reruns_with_jobs(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps({"t_inv_values": [0.15, 0.2], "g0_values": [0.2, 0.3], "nmax": 5})
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(config), "--out", str(out1)).returncode == 0
        assert run_cli("sweep", "--config", str(config), "--jobs", "2", "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_file(self):
        proc = run_cli("sweep", "--config", "/nonexistent/grid.json")
        assert proc.returncode == 1

    def test_non_finite_grid_value_exits_one(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text('{"t_inv_values": [0.2], "g0_values": [0.2, Infinity], "nmax": 6}')
        proc = run_cli("sweep", "--config", str(config))
        assert proc.returncode == 1
        assert "g0_values must be finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("axis", ["0.1", "[[0.1, 0.2]]", "[[0.1], [0.2, 0.3]]"], ids=["scalar", "nested", "ragged"])
    def test_axis_that_is_not_a_list_exits_one(self, axis, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(f'{{"t_inv_values": {axis}, "g0_values": [0.2], "nmax": 2}}')
        proc = run_cli("sweep", "--config", str(config))
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "t_inv_values must be a flat list" in proc.stderr
        assert proc.stdout == ""

    def test_bad_axis_is_rejected_before_the_step_warning(self, tmp_path, capsys):
        from usctransfer.cli import main

        config = tmp_path / "grid.json"
        config.write_text('{"t_inv_values": 0.1, "g0_values": [0.2], "nmax": 2}')
        assert main(["sweep", "--config", str(config), "--dt", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("usctransfer: t_inv_values must be a flat list")

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_unknown_config_key_exits_one(self, command, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"t_inv_values": [0.2], "g0_values": [0.2], "n_max": 12}))
        proc = run_cli(command, "--config", str(config))
        assert proc.returncode == 1
        assert "n_max" in proc.stderr
        assert ("t_inv_values" in proc.stderr) == (command == "simulate")


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self):
        proc = run_cli("gradcheck", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 3
        assert all("ok" in line for line in lines)

    def test_impossible_tolerance_exits_one(self):
        proc = run_cli("gradcheck", "--seed", "7", "--tolerance", "1e-18")
        assert proc.returncode == 1


class TestConfigRoundTrip:
    def test_echoed_metadata_equals_parsed_inputs(self, tmp_path):
        config = tmp_path / "run.json"
        values = {
            "t_inv": 0.2,
            "g0": 0.22,
            "kappa": 0.004,
            "nmax": 5,
            "tau_ratio": 0.55,
            "model": "rwa",
            "alpha": [0.6, 0.0],
            "beta": [0.8, 0.0],
        }
        config.write_text(json.dumps(values))
        proc = run_cli("simulate", "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["schedule"]["t_inv"] == values["t_inv"]
        assert data["schedule"]["g0"] == values["g0"]
        assert data["schedule"]["tau_ratio"] == values["tau_ratio"]
        assert data["schedule"]["model"] == "rwa"
        assert data["schedule"]["alpha"] == [0.6, 0.0]
        assert data["schedule"]["beta"] == [0.8, 0.0]
        assert data["params"]["kappa"] == values["kappa"]
        assert data["params"]["n_max"] == values["nmax"]


class TestFlagDefaults:
    @pytest.mark.parametrize("command", ["simulate", "optimize", "sweep", "gradcheck"])
    def test_parser_holds_library_defaults(self, command):
        from usctransfer import ModelParams, OptimizationConfig, PropagationOptions, gradient_check
        from usctransfer.cli import _build_parser

        args = _build_parser().parse_args([command])
        assert args.kappa == ModelParams.kappa
        if command == "gradcheck":
            assert args.bins == inspect.signature(gradient_check).parameters["bins"].default
            return
        assert args.nmax == ModelParams.n_max
        # optimize takes one exact exponential per bin and has no step flag
        assert getattr(args, "dt", None) == (None if command == "optimize" else PropagationOptions.dt)
        if command == "sweep":
            assert args.jobs == 1
        if command == "optimize":
            for key in ("bins", "restarts", "max_iters", "seed"):
                assert getattr(args, key) == getattr(OptimizationConfig, key)


class TestConfigAsFlags:
    SMALL_OPTIMIZE = ["--t-inv", "0.2", "--bins", "2", "--restarts", "1", "--max-iters", "3", "--nmax", "2"]

    def test_values_parse_like_flags_and_typed_flags_win(self, tmp_path):
        from usctransfer.cli import _parse_args

        config = tmp_path / "grid.json"
        config.write_text(json.dumps(
            {"dt": 0.05, "nmax": 6, "alpha": [0.6, 0.0], "beta": "0.8", "model": "rwa", "t_inv_values": [0.2]}
        ))
        args = _parse_args(["sweep", "--nmax", "5", "--config", str(config)])
        assert (args.dt, args.nmax, args.alpha, args.beta, args.model) == (0.05, 5, 0.6 + 0j, 0.8 + 0j, "rwa")
        assert args.t_inv_values == [0.2]

    @pytest.mark.parametrize(
        "value", [{"model": "RWA"}, {"nmax": 6.0}, {"kappa": True}, {"alpha": None}],
        ids=["model-case", "int-as-float", "bool", "null"],
    )
    def test_bad_value_exits_one(self, value, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(value))
        proc = run_cli("simulate", "--t-inv", "0.2", "--nmax", "3", "--config", str(config))
        assert proc.returncode == 1
        assert next(iter(value)) in proc.stderr

    def test_schedule_replay_checks_model(self, tmp_path):
        sched = tmp_path / "schedule.csv"
        sched.write_text("bin,t0,t1,g1,g2\n0,0.0,1.0,0.1,0.2\n1,1.0,2.0,0.2,0.1\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "RWA"}))
        proc = run_cli("simulate", "--schedule", str(sched), "--nmax", "2", "--config", str(config))
        assert proc.returncode == 1
        assert "RWA" in proc.stderr

    def test_optimize_checks_model(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "RWA"}))
        proc = run_cli("optimize", *self.SMALL_OPTIMIZE, "--config", str(config))
        assert proc.returncode == 1
        assert "RWA" in proc.stderr

    def test_optimize_has_no_step(self):
        proc = run_cli("optimize", *self.SMALL_OPTIMIZE, "--dt", "0.1")
        assert proc.returncode == 1
        assert "--dt" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--tau-ratio", "3"), ("--cutoff", "0.5"), ("--init", "random"), ("--duration", "5")]
    )
    def test_optimize_has_no_pulse_shape(self, flag, value):
        # only the Gaussian pulse of simulate and sweep has a delay ratio and a window cutoff;
        # the first start is always the Gaussian pair and the control time is always 1/t_inv
        proc = run_cli("optimize", *self.SMALL_OPTIMIZE, flag, value)
        assert proc.returncode == 1
        assert flag in proc.stderr

    @pytest.mark.parametrize("key", ["tau_ratio", "cutoff", "init", "duration"])
    def test_optimize_pulse_shape_config_key_is_unknown(self, key, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 0.5}))
        proc = run_cli("optimize", *self.SMALL_OPTIMIZE, "--config", str(config))
        assert proc.returncode == 1
        assert "unknown key" in proc.stderr and key in proc.stderr


class TestScheduleReplayFlags:
    SCHEDULE = "bin,t0,t1,g1,g2\n0,0.0,1.0,0.1,0.2\n1,1.0,2.0,0.2,0.1\n"

    @pytest.mark.parametrize(
        "flag, value", [("--dt", "7.5"), ("--t-inv", "0.9"), ("--g0", "5"), ("--tau-ratio", "3"), ("--cutoff", "0.5")]
    )
    def test_gaussian_only_flag_exits_one(self, flag, value, tmp_path):
        # the replay takes its bins from the schedule; these flags only shape a Gaussian run
        sched = tmp_path / "schedule.csv"
        sched.write_text(self.SCHEDULE)
        proc = run_cli("simulate", "--schedule", str(sched), "--nmax", "2", flag, value)
        assert proc.returncode == 1
        # only the rejection: no warning about a --dt that is not used
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("usctransfer: simulate --schedule")
        assert flag in proc.stderr
        assert run_cli("simulate", "--schedule", str(sched), "--nmax", "2").returncode == 0

    def test_gaussian_only_config_key_exits_one(self, tmp_path):
        sched = tmp_path / "schedule.csv"
        sched.write_text(self.SCHEDULE)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dt": 0.02, "tau_ratio": 0.5, "nmax": 2}))
        proc = run_cli("simulate", "--schedule", str(sched), "--config", str(config))
        assert proc.returncode == 1
        assert "--dt" in proc.stderr and "--tau-ratio" in proc.stderr and "--nmax" not in proc.stderr


class TestMalformedSchedule:
    @pytest.mark.parametrize(
        "name, text, problem",
        [
            ("top-level.json", "[1, 2]", "JSON object"),
            (
                "null-dt.json",
                json.dumps({"t_start": 0.0, "dt": None, "values1": [0.1], "values2": [0.2], "bounds": [0.0, 0.3]}),
                "'dt'",
            ),
            ("no-dt.json", json.dumps({"t_start": 0, "values1": [0.1], "values2": [0.1]}), "no field 'dt'"),
            ("short-row.csv", "bin,t0,t1,g1,g2\n0,0.0,1.0,0.1,0.2\n1,1.0,2.0,0.2\n", "line 3"),
            (
                "null-coupling.json",
                json.dumps({"t_start": 0.0, "dt": 1.0, "values1": [None, 0.1], "values2": [0.2, 0.2]}),
                "values1 has a non-finite coupling in bin 0",
            ),
            ("nan-coupling.csv", "bin,t0,t1,g1,g2\n0,0.0,1.0,0.1,0.2\n1,1.0,2.0,0.2,nan\n",
             "values2 has a non-finite coupling in bin 1"),
            ("gap.csv", "bin,t0,t1,g1,g2\n0,0,1,0.1,0.2\n1,5,6,0.2,0.1\n", "line 3 starts at t0 = 5, not at 1"),
            ("reversed.csv", "bin,t0,t1,g1,g2\n0,1,2,0.1,0.2\n1,0,1,0.2,0.1\n", "line 3 starts at t0 = 0, not at 2"),
            ("repeated.csv", "bin,t0,t1,g1,g2\n0,0,1,0.1,0.2\n0,0,1,0.1,0.2\n", "line 3 has bin '0', not 1"),
            ("nan-start.json", '{"t_start": NaN, "dt": 1.0, "values1": [0.1], "values2": [0.2]}',
             "t_start must be finite"),
            ("nan-t0.csv", "bin,t0,t1,g1,g2\n0,nan,1,0.1,0.2\n1,1,2,0.2,0.1\n", "line 2 has t0 = nan"),
            ("inf-t1.csv", "bin,t0,t1,g1,g2\n0,0,inf,0.1,0.2\n1,1,2,0.2,0.1\n", "line 2 has t0 = 0, t1 = inf"),
            ("not-a-number.csv", "bin,t0,t1,g1,g2\n0,abc,1,0.1,0.2\n", "line 2 has a value that is not a number"),
            ("bad.json", '{"t_start": 0.0, dt: 1.0}', "bad.json: Expecting property name"),
        ],
        ids=["json-not-an-object", "json-null-field", "json-missing-field", "csv-short-row", "json-null-coupling",
             "csv-nan-coupling", "csv-gap", "csv-reversed-rows", "csv-repeated-row", "json-nan-start",
             "csv-nan-t0", "csv-inf-t1", "csv-not-a-number", "json-not-json"],
    )
    def test_usage_error_names_the_problem(self, name, text, problem, tmp_path, capsys):
        from usctransfer.cli import main

        path = tmp_path / name
        path.write_text(text)
        assert main(["simulate", "--schedule", str(path), "--nmax", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usctransfer: ") and err.count("\n") == 1
        assert problem in err


# the numeric flags each subcommand checks where the value enters, and the
# (flag, value) pairs of the table below that lie in the documented domain
CHECKED_FLAGS = {
    "simulate": ["--kappa", "--alpha", "--beta", "--g0", "--t-inv", "--tau-ratio", "--cutoff", "--dt", "--nmax"],
    "optimize": ["--kappa", "--alpha", "--beta", "--g0", "--t-inv", "--max-iters", "--bins", "--nmax", "--restarts",
                 "--seed"],
    "sweep": ["--kappa", "--alpha", "--beta", "--tau-ratio", "--cutoff", "--dt", "--nmax", "--jobs"],
    "gradcheck": ["--kappa", "--bins", "--nmax", "--tolerance", "--seed"],
}
VALID = {("--kappa", "0"), ("--alpha", "0"), ("--beta", "-1"), ("--g0", "0"), ("--tau-ratio", "0"), ("--seed", "0")}
INT_FLAGS = {"--max-iters", "--bins", "--nmax", "--restarts", "--seed", "--jobs"}


class TestInvalidValues:
    @pytest.fixture(scope="class")
    def cheap_args(self, tmp_path_factory):
        grid = tmp_path_factory.mktemp("grid") / "grid.json"
        grid.write_text(json.dumps({"t_inv_values": [0.2], "g0_values": [0.2]}))
        return {
            "simulate": ["simulate", "--t-inv", "0.2", "--g0", "0.2", "--nmax", "2"],
            "optimize": ["optimize", "--t-inv", "0.2", "--g0", "0.2", "--nmax", "2", "--bins", "2",
                         "--restarts", "1", "--max-iters", "2"],
            "sweep": ["sweep", "--config", str(grid), "--nmax", "2"],
            "gradcheck": ["gradcheck", "--bins", "2"],
        }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    @pytest.mark.parametrize(
        "command, flag", [(command, flag) for command, flags in CHECKED_FLAGS.items() for flag in flags]
    )
    def test_exits_one_with_a_message_or_zero_in_domain(self, command, flag, value, cheap_args, capsys):
        from usctransfer.cli import main

        # an uncaught exception (a traceback) fails the test before any assertion
        try:
            code = main([*cheap_args[command], f"{flag}={value}"])
        except SystemExit as exc:  # argparse rejects a non-integer text of an integer flag
            assert flag in INT_FLAGS and value in ("nan", "inf", "-inf")
            code = exc.code
        err = capsys.readouterr().err
        if (flag, value) in VALID:
            assert code == 0, err
            return
        assert code == 1
        message = err.splitlines()[-1]
        assert message.startswith("usctransfer")
        if flag in INT_FLAGS and value in ("nan", "inf", "-inf"):
            assert f"argument {flag}: invalid int value" in message
        else:
            assert err.count("\n") == 1, err
            assert ("n_max" if flag == "--nmax" else flag[2:].replace("-", "_")) in message

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_step_above_the_calibrated_default_warns(self, command, cheap_args, capsys):
        from usctransfer.cli import main
        from usctransfer.sweep import STEP_F_ERROR

        assert main([*cheap_args[command], "--dt", "0.1"]) == 0
        assert capsys.readouterr().err == ""
        assert main([*cheap_args[command], "--dt", "0.2"]) == 0
        out, err = capsys.readouterr()
        assert out and err.count("\n") == 1 and err.startswith("usctransfer: warning: --dt 0.2 ")
        assert f"one-block input on the default map is within {STEP_F_ERROR:g} of a dt = 0.0125 run" in err


class TestExitCodes:
    def test_numeric_failure_exits_two(self, monkeypatch, capsys):
        import usctransfer.cli as cli_mod
        from usctransfer import IntegrationError

        def explode(*args, **kwargs):
            raise IntegrationError("stepper diverged")

        monkeypatch.setattr(cli_mod, "gaussian_row", explode)
        code = cli_mod.main(["simulate", "--t-inv", "0.2", "--g0", "0.2"])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, names",
        [("g0", "largest coupling 1e+300, kappa 0.005"), ("kappa", "largest coupling 0.3, kappa 1e+300"),
         ("schedule", "largest coupling 1e+300, kappa 0.005")],
        ids=["g0", "kappa", "schedule"],
    )
    def test_step_plan_past_an_int64_count_exits_two_naming_its_bound(self, case, names, tmp_path, capsys):
        # a substep count above 2^63 would wrap to a negative count, apply no exponential and exit 0
        from usctransfer.cli import main

        schedule = tmp_path / "schedule.csv"
        schedule.write_text("bin,t0,t1,g1,g2\n0,0,1,1e300,0.1\n1,1,2,0.1,0.1\n")
        flags = {"g0": ["--g0", "1e300"], "kappa": ["--kappa", "1e300"], "schedule": ["--schedule", str(schedule)]}
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", *flags[case]])
        wall = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("usctransfer: numeric failure: the step plan cannot run: the generator bound h |K|_1 ")
        assert f"above the budget of 1e+07 ({names})" in err
        assert wall < 1.0

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--g0", "1e4"], ["simulate", "--g0", "1e18"], ["simulate", "--g0", "1.7e308"],
         ["optimize", "--t-inv", "0.2", "--g0", "1e6", "--nmax", "2", "--bins", "2", "--restarts", "1",
          "--max-iters", "2"]],
        ids=["simulate-g0-1e4", "simulate-g0-1e18", "simulate-g0-1.7e308", "optimize-g0-1e6"],
    )
    def test_plan_above_the_product_budget_exits_two_within_a_second(self, argv, capsys):
        # the first two and the last ran for minutes or more, the last in its replay of the best schedule; at
        # 1.7e308 the bound overflows to inf, which fails the budget without a RuntimeWarning
        code, wall = main_timed(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("usctransfer: numeric failure: the step plan cannot run: the generator bound h |K|_1 ")
        assert "Taylor products, above the budget of 1e+07 (largest coupling " in err
        assert err.endswith(", kappa 0.005)\n") and wall < 1.0

    @pytest.mark.parametrize("t_inv", ["1e-9", "1e-300"])
    def test_window_of_more_steps_than_half_the_budget_exits_two_within_a_second(self, t_inv, capsys):
        # every step takes two exponentials of at least one product, so such a window is refused before its
        # arrays exist: at 1e-9 they would have taken over 1 GB, at 1e-300 numpy refused their size with exit 1
        code, wall = main_timed(["simulate", "--t-inv", t_inv])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("usctransfer: numeric failure: the step plan cannot run: the window of ")
        assert err.endswith(" Taylor products, above the budget of 1e+07\n") and wall < 1.0

    @pytest.mark.parametrize("g0, largest", [("1e100", "9.78e+99"), ("1.7e308", "1.66e+308")])
    def test_gradient_past_its_squaring_limit_exits_two_within_a_second(self, g0, largest, capsys):
        # at 1e100 it printed two matmul RuntimeWarnings, then a non-finite amplitude that named no bound; at
        # 1.7e308 the bound itself overflows
        code, wall = main_timed(["optimize", "--t-inv", "0.2", "--g0", g0, "--nmax", "2", "--bins", "2",
                                 "--restarts", "1", "--max-iters", "2"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("usctransfer: numeric failure: the gradient cannot run: the bin generator bound dt ")
        assert err.endswith(f"of 24 squarings (largest coupling {largest}, kappa 0.005)\n") and wall < 1.0

    @pytest.mark.parametrize("command", ["simulate", "optimize", "sweep", "gradcheck"])
    def test_cutoff_above_its_bound_exits_one_naming_it(self, command, capsys):
        from usctransfer.cli import main

        assert main([command, "--nmax", "5000"]) == 1
        assert capsys.readouterr().err == "usctransfer: n_max must be between 1 and 200, got 5000\n"

    def test_sweep_row_with_a_plan_past_an_int64_count_records_its_error_on_each_point(self, tmp_path, capsys):
        # the row's plan follows its largest amplitude, so its healthy point would get a wrong F
        from usctransfer import SweepGrid, run_sweep
        from usctransfer.cli import main

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"t_inv_values": [0.1], "g0_values": [0.1, 1e300]}))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", str(grid)])
            records = run_sweep(SweepGrid([0.1], [0.1, 1e300]))
        wall = time.perf_counter() - start
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["0.1,0.1,rabi,nan,nan,nan", "0.1,1e+300,rabi,nan,nan,nan"]
        errors = [record.error.split(": ")[:2] for record in records]
        assert errors == [["IntegrationError", "the step plan cannot run"]] * 2
        assert wall < 1.0

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--out"), ("simulate", "--traj-out"), ("optimize", "--out"), ("optimize", "--schedule-out"),
         ("sweep", "--out")],
    )
    @pytest.mark.parametrize(
        "parent, reason",
        [("missing", "No such file or directory"), ("file", "Not a directory"), ("dir", "Is a directory")],
    )
    def test_missing_output_directory_fails_before_any_run(self, command, flag, parent, reason, tmp_path, monkeypatch):
        import usctransfer.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("ran before the output directory was checked")

        for name in ("gaussian_row", "optimize", "run_sweep"):
            monkeypatch.setattr(cli_mod, name, never)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "out.txt").mkdir(parents=True)  # the output path itself is a directory
        path = tmp_path / parent / "out.txt"
        with pytest.raises(SystemExit) as exit_info:
            cli_mod.main([command, flag, str(path)])
        assert exit_info.value.code == f"usctransfer: cannot write {flag} {path}: {reason}"


class TestReferencePoint:
    def test_published_efficiency_at_calibrated_delay(self):
        # the delay reproducing the published working point (see acceptance suite)
        proc = run_cli(
            "simulate", "--t-inv", "0.04", "--g0", "0.3", "--kappa", "0.005",
            "--tau-ratio", "0.7",
        )
        assert proc.returncode == 0, proc.stderr
        fidelity = json.loads(proc.stdout)["fidelity"]
        assert 0.93 <= fidelity <= 0.97
