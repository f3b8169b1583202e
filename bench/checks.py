"""Correctness checks on the CLI's outputs.

Each check returns a list of problems (empty when the output is correct)
and never raises on malformed output, so a bad output counts as a failed
operation instead of stopping the benchmark.  Efficiencies are judged
against independent references: committed fine-step values for Gaussian
runs (see make_reference.py) and a live per-bin ``scipy.linalg.expm``
re-evaluation for piecewise schedules.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

SWEEP_HEADER = ["t_inv", "g0", "model", "fidelity", "leakage", "peak_mean_photon"]
TRAJECTORY_HEADER = ["time", "p_source", "p_target", "p_cavity", "mean_photon", "norm2"]
SCHEDULE_HEADER = ["bin", "t0", "t1", "g1", "g2"]

# |F - F_ref| allowed for a Gaussian run at the CLI step dt = 0.005.  The
# midpoint stepper's error is second order in dt; on the benchmark's points
# it is at most 2.6e-8 (at t_inv 0.1, g0 0.2), so 5e-8 passes the seed code
# and catches any change that loses accuracy beyond that step error.
GAUSSIAN_F_TOL = 5e-8
# |F - F_oracle| allowed for a piecewise schedule, whose propagators are
# exact up to rounding in both the program and the oracle.
PIECEWISE_F_TOL = 1e-10
# The paper's bar for the optimized schedule.
BEST_F_MIN = 0.98
# norm2 in the trajectory CSV is printed with 12 significant digits.
NORM_TOL = 1e-9


def load_reference(path: Path) -> dict[tuple[float, float, str], float]:
    data = json.loads(path.read_text())
    return {(p["t_inv"], p["g0"], p["model"]): p["fidelity"] for p in data["points"]}


class PiecewiseOracle:
    """Dense-expm efficiency of a piecewise-constant schedule.

    ``k0``, ``v1`` and ``v2`` are the drift generator (loss included) and
    the two unit control operators; ``initial`` and ``target`` the states.
    """

    def __init__(self, k0, v1, v2, initial, target):
        self.k0, self.v1, self.v2 = k0, v1, v2
        self.initial, self.target = initial, target

    def fidelity(self, dt: float, values1, values2) -> float:
        psi = self.initial
        for g1, g2 in zip(values1, values2):
            psi = expm(-1j * dt * (self.k0 + g1 * self.v1 + g2 * self.v2)) @ psi
        return float(abs(np.vdot(self.target, psi)) ** 2)


def f_error(fidelity, reference: float, tol: float, what: str) -> tuple[float, list[str]]:
    """|F - F_ref| and the problems found with F."""
    if not isinstance(fidelity, (int, float)) or not math.isfinite(fidelity):
        return math.inf, [f"{what}: fidelity {fidelity!r} is not a finite number"]
    err = abs(fidelity - reference)
    if err > tol:
        return err, [f"{what}: |F - F_ref| = {err:.3e} exceeds {tol:.0e} (F={fidelity!r}, F_ref={reference!r})"]
    return err, []


def _rows(text: str, header: list[str], what: str) -> tuple[list[list[str]], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"{what}: header {rows[0] if rows else None} is not {header}"]
    return rows[1:], []


def check_sweep_csv(text: str, t_inv_values, g0_values, model: str, reference) -> tuple[float, list[str]]:
    """Schema, row-major order over the requested grid, and each F against F_ref."""
    rows, problems = _rows(text, SWEEP_HEADER, "sweep CSV")
    if problems:
        return math.inf, problems
    grid = [(t, g) for t in t_inv_values for g in g0_values]
    if len(rows) != len(grid):
        return math.inf, [f"sweep CSV: {len(rows)} rows for a {len(t_inv_values)} x {len(g0_values)} grid"]
    worst = 0.0
    for k, (row, (t_inv, g0)) in enumerate(zip(rows, grid)):
        try:
            t_row, g_row, fid = float(row[0]), float(row[1]), float(row[3])
            extra = [float(v) for v in row[4:6]]
        except (ValueError, IndexError):
            problems.append(f"sweep CSV row {k}: unparseable {row}")
            worst = math.inf
            continue
        if not (math.isclose(t_row, t_inv, rel_tol=1e-11) and math.isclose(g_row, g0, rel_tol=1e-11)):
            problems.append(f"sweep CSV row {k}: point ({t_row}, {g_row}), expected ({t_inv}, {g0})")
        if row[2] != model:
            problems.append(f"sweep CSV row {k}: model {row[2]!r}, expected {model!r}")
        if not all(math.isfinite(v) for v in extra):
            problems.append(f"sweep CSV row {k}: non-finite leakage or photon number")
        err, bad = f_error(fid, reference[(t_inv, g0, model)], GAUSSIAN_F_TOL, f"sweep ({t_inv}, {g0})")
        worst = max(worst, err)
        problems += bad
    return worst, problems


def check_run_record(text: str, reference: float, tol: float, what: str) -> tuple[dict | None, float, list[str]]:
    """RunRecord JSON: no error set and F within ``tol`` of ``reference``."""
    try:
        record = json.loads(text)
        fidelity, error = record["fidelity"], record["error"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, math.inf, [f"{what}: unreadable record ({exc})"]
    if error is not None:
        return record, math.inf, [f"{what}: record has error {error!r}"]
    err, problems = f_error(fidelity, reference, tol, what)
    return record, err, problems


def check_trajectory_csv(text: str, record: dict, what: str) -> list[str]:
    """Schema, finite values, and a final norm that matches the record's leakage."""
    rows, problems = _rows(text, TRAJECTORY_HEADER, what)
    if problems:
        return problems
    if len(rows) < 2:
        return [f"{what}: only {len(rows)} samples"]
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        return [f"{what}: unparseable values"]
    if not np.all(np.isfinite(values)):
        return [f"{what}: non-finite values"]
    if not np.all(np.diff(values[:, 0]) > 0):
        return [f"{what}: times are not increasing"]
    final_norm2 = values[-1, 5]
    if abs(final_norm2 - (1.0 - record["leakage"])) > NORM_TOL:
        return [f"{what}: final norm2 {final_norm2!r} does not match leakage {record['leakage']!r}"]
    return []


def check_optimization(
    result_text: str, schedule_text: str, oracle: PiecewiseOracle, bins: int
) -> tuple[float, float, list[str]]:
    """Optimization JSON and schedule CSV: returns (best F, |F - F_oracle|, problems)."""
    try:
        result = json.loads(result_text)
        best_f = result["best_fidelity"]
        sched = result["schedule"]
        dt, values1, values2 = float(sched["dt"]), sched["values1"], sched["values2"]
        history = result["iteration_history"]
        if len(values1) != bins or len(values2) != bins:
            return best_f, math.inf, [f"optimize JSON: {len(values1)}/{len(values2)} bins, expected {bins}"]
        f_oracle = oracle.fidelity(dt, np.asarray(values1, dtype=float), np.asarray(values2, dtype=float))
    except (ValueError, KeyError, TypeError) as exc:
        return math.nan, math.inf, [f"optimize JSON: unreadable ({exc})"]
    err, problems = f_error(best_f, f_oracle, PIECEWISE_F_TOL, "optimize")
    if not problems and best_f < BEST_F_MIN:
        problems.append(f"optimize: best F {best_f!r} is below {BEST_F_MIN}")
    if not history:
        problems.append("optimize JSON: empty iteration history")
    rows, bad = _rows(schedule_text, SCHEDULE_HEADER, "schedule CSV")
    problems += bad
    if not bad:
        try:
            table = np.array(rows, dtype=float)
        except ValueError:
            table = np.empty((0, 5))
        if table.shape != (bins, 5) or not (
            np.allclose(table[:, 3], values1, rtol=1e-11, atol=0)
            and np.allclose(table[:, 4], values2, rtol=1e-11, atol=0)
        ):
            problems.append("schedule CSV does not match the optimized schedule")
    return best_f, err, problems
