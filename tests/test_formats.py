"""Output format contracts: CSV schemas, JSON round-trips, atomic writes."""

import json
import os

import numpy as np
import pytest

from usctransfer import (
    GaussianPair,
    ModelParams,
    OptimizationResult,
    PiecewiseConstantSchedule,
    PropagationOptions,
    SweepFixed,
    SweepGrid,
    Trajectory,
    cavity_indices,
    flat_index,
    populations,
    propagate,
    run_sweep,
    superposition_initial,
)
from usctransfer.formats import (
    SWEEP_CSV_HEADER,
    atomic_write_text,
    fmt,
    optimization_result_json,
    optimization_result_to_dict,
    run_record_json,
    schedule_csv,
    schedule_from_csv,
    schedule_from_dict,
    schedule_to_dict,
    sweep_csv,
    trajectory_csv,
)
from usctransfer.model import basis_labels

from conftest import replay


def small_records():
    fixed = SweepFixed(params=ModelParams(n_max=4), options=PropagationOptions(dt=0.05))
    grid = SweepGrid([0.2], [0.1, 0.2], fixed=fixed)
    return run_sweep(grid)


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(0.3) == "0.3"
        assert fmt(1234567.0) == "1234567"

    def test_nan_is_stable_text(self):
        assert fmt(float("nan")) == "nan"


class TestSweepCsv:
    def test_header_and_shape(self):
        text = sweep_csv(small_records())
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_row_contents(self):
        records = small_records()
        row = sweep_csv(records).splitlines()[1].split(",")
        assert row[0] == "0.2" and row[1] == "0.1" and row[2] == "rabi"
        np.testing.assert_allclose(float(row[3]), records[0].fidelity, rtol=1e-11)


class TestRunRecordJson:
    def test_round_trip_and_no_wall_time(self):
        record = small_records()[0]
        data = json.loads(run_record_json(record))
        assert "wall_time" not in data  # timings would break byte-identical reruns
        assert data["fidelity"] == record.fidelity
        assert data["params"]["n_max"] == 4
        assert data["schedule"]["model"] == "rabi"

    def test_byte_identical_for_identical_runs(self):
        first, second = small_records(), small_records()
        assert run_record_json(first[0]) == run_record_json(second[0])

    def test_complex_and_numpy_values(self):
        record = small_records()[0]
        record.schedule = {"z": 0.5 - 2j, "zs": np.array([1 + 2j]), "n": np.int64(3), "ok": np.bool_(True)}
        data = json.loads(run_record_json(record))
        assert data["schedule"] == {"z": [0.5, -2.0], "zs": [[1.0, 2.0]], "n": 3, "ok": True}

    def test_unknown_value_type_raises(self):
        record = small_records()[0]
        record.schedule = {"kind": {1, 2}}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            run_record_json(record)


class TestScheduleFormats:
    SCHED = PiecewiseConstantSchedule(
        0.0, 1.25, [0.1, 0.3, 0.0], [0.25, 0.05, 0.15]
    )

    def test_csv_round_trip(self):
        text = schedule_csv(self.SCHED)
        back = schedule_from_csv(text)
        assert back.bins == 3
        np.testing.assert_allclose(back.dt, self.SCHED.dt, rtol=1e-11)
        np.testing.assert_allclose(back.values1, self.SCHED.values1, rtol=1e-11)
        np.testing.assert_allclose(back.values2, self.SCHED.values2, rtol=1e-11)

    def test_csv_round_trip_of_rounded_edges(self):
        # 0.3 + k 0.1 rounds off several edges, and the CSV keeps 12 digits of each
        sched = PiecewiseConstantSchedule(0.3, 0.1, np.arange(7.0), -np.arange(7.0))
        back = schedule_from_csv(schedule_csv(sched))
        assert back.t_start == 0.3 and back.bins == 7
        np.testing.assert_allclose(back.dt, 0.1, rtol=1e-11)

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            schedule_from_csv("a,b\n1,2\n")

    def test_dict_round_trip_exact(self):
        back = schedule_from_dict(schedule_to_dict(self.SCHED))
        np.testing.assert_array_equal(back.values1, self.SCHED.values1)
        np.testing.assert_array_equal(back.values2, self.SCHED.values2)

    def test_result_json_with_bounds_and_outside_replays(self, tmp_path, capsys):
        # result files of earlier versions carry "bounds" and "outside",
        # which a replay ignores
        from usctransfer.cli import main

        data = {"schedule": {**schedule_to_dict(self.SCHED), "bounds": [0.0, 0.3], "outside": "zero"}}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        back = schedule_from_dict(data["schedule"])
        np.testing.assert_array_equal(back.values1, self.SCHED.values1)
        np.testing.assert_array_equal(back.values2, self.SCHED.values2)
        assert main(["simulate", "--schedule", str(old), "--nmax", "2"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schedule"]["bins"] == 3 and 0.0 <= record["fidelity"] <= 1.0

    def test_optimization_result_json_round_trip(self):
        result = OptimizationResult(
            best_schedule=self.SCHED,
            best_fidelity=0.987654321,
            iteration_history=[(1, 0.5, 0.1), (2, 0.9, 0.01)],
            converged=True,
        )
        data = json.loads(optimization_result_json(result))
        assert data["best_fidelity"] == 0.987654321
        assert data["converged"] is True
        assert len(data["iteration_history"]) == 2
        back = schedule_from_dict(data["schedule"])
        np.testing.assert_array_equal(back.values1, self.SCHED.values1)

    def test_optimization_result_dict_is_json_clean(self):
        result = OptimizationResult(self.SCHED, 0.5, [(1, 0.5, 0.2)], False)
        text = json.dumps(optimization_result_to_dict(result))
        assert "values1" in text


class TestTrajectoryCsv:
    def test_columns_and_initial_row(self):
        params = ModelParams(kappa=0.002, n_max=3)
        psi0 = superposition_initial(0.0, 1.0, params)
        sched = PiecewiseConstantSchedule(0.0, 1.0, [0.2, 0.2], [0.1, 0.1])
        traj = replay(psi0, sched, params)
        text = trajectory_csv(traj, params)
        lines = text.splitlines()
        assert lines[0] == "time,p_source,p_target,p_cavity,mean_photon,norm2"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 1.0 and first[5] == 1.0

    def test_rows_match_per_cell_fmt(self):
        # reference: every cell through fmt, joined per row; rows of tiny,
        # non-finite and negative-zero values cover the format's edge cases
        params = ModelParams(n_max=3)
        pair = GaussianPair(g0=0.3, T=4.0, tau=2.4)
        traj = propagate(superposition_initial(0.6, 0.8, params), pair, params, (-8.0, 8.0))
        states = traj.states.copy()
        states[1] *= 1e-170
        states[2] = np.nan
        states[3, 0] = np.inf
        times = traj.times.copy()
        times[4] = -0.0
        traj = Trajectory(times, states, states[-1])
        with np.errstate(invalid="ignore"):  # inf * 0 in the inf row
            table = np.column_stack([
                times,
                populations(traj, [flat_index(0, 0, 1, params)]),
                populations(traj, [flat_index(0, 1, 0, params)]),
                populations(traj, cavity_indices(params)),
                np.abs(states) ** 2 @ basis_labels(params)[0],
                traj.norms2(),
            ])
            lines = ["time,p_source,p_target,p_cavity,mean_photon,norm2"]
            lines += [",".join(fmt(v) for v in row) for row in table]
            assert trajectory_csv(traj, params) == "\n".join(lines) + "\n"


class TestAtomicWrite:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []
