"""Single points, delay calibration, and deterministic sweeps."""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usctransfer import (
    ModelParams,
    PropagationOptions,
    SweepFixed,
    SweepGrid,
    calibrate_tau,
    gaussian_row,
    run_point,
    run_sweep,
)
from usctransfer import sweep
from usctransfer.formats import sweep_csv
from usctransfer.sweep import CALIBRATION_RATIOS, DEFAULT_G0_VALUES, DEFAULT_T_INV_VALUES

CRASH_T_INV = 0.1
ROW_TASK = sweep._row_task


def crash_on_row(task):
    """Row task that kills its worker process on the CRASH_T_INV row."""
    if task[0] == CRASH_T_INV:
        os._exit(1)
    return ROW_TASK(task)


def fast_fixed(**overrides):
    params = overrides.pop("params", ModelParams(kappa=0.005, n_max=6))
    return SweepFixed(params=params, **overrides)


class TestRunPoint:
    def test_no_coupling_no_transfer(self):
        record = run_point(0.1, 0.0, fast_fixed())
        np.testing.assert_allclose(record.fidelity, 0.0, atol=1e-12)

    def test_no_coupling_superposition_inputs(self):
        # with g0 = 0 only the |0,g,g> component overlaps the target
        alpha = 1 / math.sqrt(2)
        record = run_point(0.1, 0.0, fast_fixed(alpha=alpha, beta=alpha))
        np.testing.assert_allclose(record.fidelity, alpha**4, atol=1e-10)

    def test_rwa_beats_rabi_at_reference_point(self):
        fixed = fast_fixed(params=ModelParams(kappa=0.005, n_max=8), options=PropagationOptions())
        rabi = run_point(0.04, 0.3, fixed, model="rabi")
        rwa = run_point(0.04, 0.3, fixed, model="rwa")
        assert rwa.fidelity >= rabi.fidelity

    def test_record_fields(self):
        record = run_point(0.1, 0.2, fast_fixed())
        assert 0.0 <= record.fidelity <= 1.0
        assert 0.0 <= record.leakage <= 1.0
        assert record.peak_mean_photon >= 0.0
        assert record.schedule["kind"] == "gaussian"
        assert record.schedule["T"] == 10.0
        assert record.wall_time > 0.0
        assert record.error is None

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            run_point(0.1, 0.2, fast_fixed(), model="dispersive")


class TestCalibration:
    def test_match_metric_selects_closest(self):
        # the published efficiency of the reference protocol is 0.95
        best, records = calibrate_tau(0.1, 0.25, fast_fixed())
        gaps = [abs(rec.fidelity - 0.95) for rec in records]
        assert best is records[int(np.argmin(gaps))]
        assert [rec.schedule["tau_ratio"] for rec in records] == list(CALIBRATION_RATIOS)


class TestRunSweep:
    def test_degenerate_grid_matches_run_point(self):
        fixed = fast_fixed()
        grid = SweepGrid([0.1], [0.25], fixed=fixed, model="rabi")
        records = run_sweep(grid)
        assert len(records) == 1
        single = run_point(0.1, 0.25, fixed)
        np.testing.assert_allclose(records[0].fidelity, single.fidelity, rtol=1e-14)

    def test_row_major_order(self):
        grid = SweepGrid([0.08, 0.1], [0.2, 0.3], fixed=fast_fixed())
        records = run_sweep(grid)
        points = [(rec.schedule["t_inv"], rec.schedule["g0"]) for rec in records]
        assert points == [(0.08, 0.2), (0.08, 0.3), (0.1, 0.2), (0.1, 0.3)]

    def test_repeated_sweep_identical_csv_bytes(self):
        grid = SweepGrid([0.08, 0.09, 0.1], [0.15, 0.2, 0.25], fixed=fast_fixed())
        first = sweep_csv(run_sweep(grid)).encode()
        second = sweep_csv(run_sweep(grid)).encode()
        assert first == second

    def test_parallel_matches_sequential(self):
        grid = SweepGrid([0.09, 0.1], [0.2, 0.25], fixed=fast_fixed())
        sequential = sweep_csv(run_sweep(grid, jobs=1))
        parallel = sweep_csv(run_sweep(grid, jobs=2))
        assert sequential == parallel

    def test_point_failure_recorded_in_row(self, monkeypatch):
        # invalid settings are rejected before any row runs, so the stepper
        # is made to raise: the row's one call fails for every point
        def fail(*args, **kwargs):
            raise ValueError("stepper failed")

        monkeypatch.setattr(sweep, "propagate", fail)
        grid = SweepGrid([0.1], [0.2, 0.3], fixed=fast_fixed())
        records = run_sweep(grid)
        assert len(records) == 2
        for rec in records:
            assert rec.error is not None and "ValueError" in rec.error
            assert math.isnan(rec.fidelity)
        assert records[0].error == records[1].error  # the row's error

    def test_crashed_worker_loses_only_its_rows(self, monkeypatch):
        grid = SweepGrid([0.09, CRASH_T_INV], [0.2, 0.25], fixed=fast_fixed())
        uncrashed = run_sweep(grid, jobs=1)
        # fork-started workers inherit the patched row task
        monkeypatch.setattr(sweep, "_row_task", crash_on_row)
        records = run_sweep(grid, jobs=2)
        points = [(rec.schedule["t_inv"], rec.schedule["g0"]) for rec in records]
        assert points == [(t, g) for t in (0.09, CRASH_T_INV) for g in (0.2, 0.25)]
        for rec in records[2:]:
            assert rec.error is not None and "BrokenProcessPool" in rec.error
            assert math.isnan(rec.fidelity)
        assert [replace(rec, wall_time=0.0) for rec in records[:2]] == [
            replace(rec, wall_time=0.0) for rec in uncrashed[:2]
        ]

    def test_forks_at_most_one_worker_per_row(self, monkeypatch):
        workers = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:  # in the parent
                workers.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        grid = SweepGrid([0.09, 0.1], [0.2, 0.25], fixed=fast_fixed())
        run_sweep(grid, jobs=8)
        assert len(set(workers)) == len(grid.t_inv_values)

    def test_row_is_one_stepper_call(self, monkeypatch):
        calls = []
        propagate = sweep.propagate

        def counting(*args, **kwargs):
            calls.append(kwargs.get("amplitudes"))
            return propagate(*args, **kwargs)

        monkeypatch.setattr(sweep, "propagate", counting)
        run_sweep(SweepGrid([0.09, 0.1], [0.15, 0.2, 0.25], fixed=fast_fixed()), jobs=1)
        assert calls == [[0.15, 0.2, 0.25]] * 2

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        t_inv=st.floats(0.1, 0.3),
        g0_values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.5)), min_size=1, max_size=5),
        model=st.sampled_from(["rabi", "rwa"]),
    )
    def test_batched_row_matches_run_point(self, t_inv, g0_values, model):
        fixed = fast_fixed(params=ModelParams(kappa=0.005, n_max=4))
        row = gaussian_row(t_inv, g0_values, fixed, model)
        assert len(row) == len(g0_values)
        for g0, (record, _) in zip(g0_values, row):
            single = run_point(t_inv, g0, fixed, model)
            assert record.schedule == single.schedule
            for field in ("fidelity", "leakage", "peak_mean_photon"):
                assert abs(getattr(record, field) - getattr(single, field)) <= 1e-12

    def test_row_holds_no_full_space_samples(self):
        # the default input occupies one 18-dim parity block of the 36-dim
        # space, and the row's trajectories keep only that block: the traced
        # peak stays below one (points, samples, dim) complex array
        fixed = SweepFixed()
        gaussian_row(0.1, DEFAULT_G0_VALUES, fixed)  # builds the cached model operators
        tracemalloc.start()
        try:
            row = gaussian_row(0.1, DEFAULT_G0_VALUES, fixed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_space = len(DEFAULT_G0_VALUES) * row[0][1].times.size * fixed.params.dim * 16
        assert peak < full_space

    def test_rwa_dominates_rabi_in_usc_window(self):
        # reduced grid, g0 >= 0.2: the excitation-conserving model must win
        # at (nearly) every point
        fixed = fast_fixed()
        wins = 0
        points = [(t, g) for t in (0.04, 0.07, 0.1) for g in (0.2, 0.3, 0.4)]
        for t_inv, g0 in points:
            rabi = run_point(t_inv, g0, fixed, model="rabi")
            rwa = run_point(t_inv, g0, fixed, model="rwa")
            wins += rwa.fidelity >= rabi.fidelity
        assert wins >= 0.9 * len(points)


class TestDefaultStep:
    @pytest.mark.parametrize("model", ["rabi", "rwa"])
    @pytest.mark.parametrize(
        "alpha, beta", [pytest.param(0.0, 1.0, id="odd-block"), pytest.param(0.6, 0.8, id="both-blocks")]
    )
    def test_default_step_matches_fine_step(self, model, alpha, beta):
        # t_inv = 0.1 is the fastest row, the one the default step is calibrated on
        fixed = SweepFixed(alpha=alpha, beta=beta)
        fine = replace(fixed, options=PropagationOptions(dt=0.0125))
        t_inv = DEFAULT_T_INV_VALUES[-1]
        row = gaussian_row(t_inv, DEFAULT_G0_VALUES, fixed, model)
        reference = gaussian_row(t_inv, DEFAULT_G0_VALUES, fine, model)
        error = max(abs(rec.fidelity - ref.fidelity) for (rec, _), (ref, _) in zip(row, reference))
        assert error <= 2e-10

    @pytest.mark.parametrize("model", ["rabi", "rwa"])
    @pytest.mark.parametrize(
        "alpha, beta", [pytest.param(0.0, 1.0, id="odd-block"), pytest.param(1.0, 0.0, id="even-block")]
    )
    @pytest.mark.parametrize(
        "t_inv", [pytest.param(DEFAULT_T_INV_VALUES[0], id="t_inv-0.01"), pytest.param(DEFAULT_T_INV_VALUES[3], id="t_inv-0.04")]
    )
    def test_widened_step_matches_fine_step(self, model, alpha, beta, t_inv, monkeypatch):
        # a one-block input steps the slow rows at dt sqrt(0.1 / t_inv); g0 =
        # 0.1 and 0.5 carry the worst errors of these rows (the worst of the
        # map, 1.07e-10, is Rabi (0, 1) at t_inv 0.01, g0 0.5).  The reference
        # steps at dt = 0.0125 itself, with the widening switched off
        fixed, g0s = SweepFixed(alpha=alpha, beta=beta), [0.1, 0.5]
        row = gaussian_row(t_inv, g0s, fixed, model)
        monkeypatch.setattr(sweep, "STEP_CALIBRATION_T_INV", 0.0)
        reference = gaussian_row(t_inv, g0s, replace(fixed, options=PropagationOptions(dt=0.0125)), model)
        error = max(abs(rec.fidelity - ref.fidelity) for (rec, _), (ref, _) in zip(row, reference))
        assert error <= 2e-10

    @pytest.mark.parametrize("model", ["rabi", "rwa"])
    @pytest.mark.parametrize(
        "alpha, beta, step",
        [pytest.param(0.6, 0.8, 0.1, id="both-blocks-keep-dt"), pytest.param(0.0, 1.0, 0.1 * math.sqrt(10), id="odd-block")],
    )
    def test_only_one_block_inputs_step_wider(self, model, alpha, beta, step):
        # on the t_inv 0.01 row a two-block input samples every dt = 0.1 (the
        # window cut into equal steps of at most dt); a one-block input every
        # 0.1 sqrt(10)
        _, traj = gaussian_row(DEFAULT_T_INV_VALUES[0], [0.3], SweepFixed(alpha=alpha, beta=beta), model)[0]
        span = traj.times[-1] - traj.times[0]
        np.testing.assert_allclose(np.diff(traj.times), span / math.ceil(span / step), rtol=1e-9)


class TestGridValidation:
    def test_empty_axis(self):
        with pytest.raises(ValueError):
            SweepGrid([], [0.1])

    def test_decreasing_axis(self):
        with pytest.raises(ValueError):
            SweepGrid([0.2, 0.1], [0.1])

    @pytest.mark.parametrize("axis", ["t_inv_values", "g0_values"])
    @pytest.mark.parametrize("bad", [0.1, [[0.1, 0.2]], [[0.1], [0.2, 0.3]], ["x"]],
                             ids=["scalar", "nested", "ragged", "not-a-number"])
    def test_axis_not_a_flat_list_of_numbers(self, axis, bad):
        axes = {"t_inv_values": [0.1], "g0_values": [0.2], axis: bad}
        with pytest.raises(ValueError, match=f"{axis} must be a flat list of numbers"):
            SweepGrid(**axes)

    def test_nonpositive_axis(self):
        with pytest.raises(ValueError):
            SweepGrid([0.0, 0.1], [0.1])

    @pytest.mark.parametrize("axis", ["t_inv_values", "g0_values"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("size", [1, 2], ids=["alone", "last"])
    def test_non_finite_axis(self, axis, bad, size):
        # nan alone passes the positivity and ordering checks, inf passes them anywhere
        axes = {"t_inv_values": [0.1], "g0_values": [0.2]}
        axes[axis] = [0.2, bad][-size:]
        with pytest.raises(ValueError, match=f"{axis} must be finite"):
            SweepGrid(**axes)

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"tau_ratio": -1.0}, "tau_ratio must be finite"),
            ({"tau_ratio": math.nan}, "tau_ratio must be finite"),
            ({"tau_ratio": math.inf}, "tau_ratio must be finite"),
            ({"cutoff": 0.0}, "cutoff must be in"),
            ({"cutoff": math.nan}, "cutoff must be in"),
            ({"alpha": math.nan}, "is not 1"),
            ({"beta": 0.0}, "is not 1"),
        ],
        ids=["negative-delay", "nan-delay", "inf-delay", "zero-cutoff", "nan-cutoff", "nan-alpha", "unnormalized"],
    )
    def test_invalid_fixed_setting(self, setting, match):
        with pytest.raises(ValueError, match=match):
            fast_fixed(**setting)

    @pytest.mark.parametrize("g0", [math.nan, math.inf, -1.0])
    def test_invalid_peak_coupling_in_a_row(self, g0):
        with pytest.raises(ValueError, match="peak coupling must be finite and non-negative"):
            gaussian_row(0.1, [0.2, g0], fast_fixed())

    @pytest.mark.parametrize("g0_values", [[], np.array([])], ids=["list", "array"])
    def test_empty_row_rejected(self, g0_values):
        with pytest.raises(ValueError, match="^g0_values must be non-empty$"):
            gaussian_row(0.1, g0_values, fast_fixed())

    @pytest.mark.parametrize("t_inv", [math.nan, math.inf, 0.0])
    def test_invalid_inverse_speed_in_a_row(self, t_inv):
        with pytest.raises(ValueError, match="t_inv must be finite and positive"):
            gaussian_row(t_inv, [0.2], fast_fixed())

    def test_default_grid_shape(self):
        grid = SweepGrid(DEFAULT_T_INV_VALUES, DEFAULT_G0_VALUES)
        assert grid.t_inv_values.size == 10 and grid.g0_values.size == 10
        assert grid.t_inv_values[0] == 0.01 and grid.g0_values[-1] == 0.5

    def test_grid_keeps_its_own_copy_of_the_axes(self):
        grid = SweepGrid(DEFAULT_T_INV_VALUES, DEFAULT_G0_VALUES)
        # checked before the write, which would otherwise corrupt the constants for later tests
        assert not np.shares_memory(grid.t_inv_values, DEFAULT_T_INV_VALUES)
        assert not np.shares_memory(grid.g0_values, DEFAULT_G0_VALUES)
        grid.t_inv_values[0] = 7.0
        assert DEFAULT_T_INV_VALUES[0] == 0.01

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(SweepGrid(DEFAULT_T_INV_VALUES, DEFAULT_G0_VALUES), jobs=0)
