"""The three benchmark workloads: their inputs, CLI calls and checks.

One operation of a workload is the sequence of CLI calls that produces one
solution; the benchmark repeats it in a closed loop.  Only the generated
input files and the command lines reach the program.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# sweep_map: a 3 x 4 sub-grid of the default 10 x 10 map, from the reference
# point to the fast edge in t_inv and from weak to 0.5 coupling in g0.
SWEEP_T_INV = (0.04, 0.07, 0.1)
SWEEP_G0 = (0.05, 0.2, 0.35, 0.5)
SWEEP_JOBS = 2
REF_T_INV, REF_G0 = 0.04, 0.3
BINS = 20
# optimize_ref: the first start is the deterministic Gaussian-sampled one and
# the second is drawn from --seed.  The iteration cap keeps the number of
# objective evaluations per run within a few percent across seeds (a
# converged random start takes 150 to 180 evaluations, depending on the
# seed); after 25 iterations the Gaussian start is already at F = 0.98999.
RESTARTS = 2
MAX_ITERS = 25


def gaussian_points() -> list[tuple[float, float, str]]:
    """Every Gaussian (t_inv, g0, model) point any workload runs."""
    sweep = [(t, g, "rabi") for t in SWEEP_T_INV for g in SWEEP_G0]
    return sweep + [(REF_T_INV, REF_G0, "rabi"), (REF_T_INV, REF_G0, "rwa")]


def replay_schedule(seed: int) -> tuple[float, np.ndarray]:
    """Bin width and (bins, 2) coupling values of the seeded replay schedule."""
    rng = np.random.default_rng(seed)
    return 1.0 / REF_T_INV / BINS, rng.uniform(0.0, REF_G0, size=(BINS, 2))


def replay_schedule_csv(seed: int) -> str:
    """The replay schedule over the reference duration, in schedule CSV form."""
    dt, values = replay_schedule(seed)
    lines = ["bin,t0,t1,g1,g2"]
    lines += [f"{k},{k * dt!r},{(k + 1) * dt!r},{float(g1)!r},{float(g2)!r}" for k, (g1, g2) in enumerate(values)]
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    why = ""

    def prepare(self, work: Path, seed: int) -> None:
        """Write the program's input files into ``work``."""

    def calls(self, work: Path, seed: int) -> list[list[str]]:
        """Command lines of one operation."""
        raise NotImplementedError

    def outputs(self, work: Path) -> list[list[Path]]:
        """Output files of each call, in call order."""
        raise NotImplementedError

    def check(self, outputs: list[list[bytes | None]], ctx) -> tuple[list[list[str]], float, float | None]:
        """Problems per call, the largest |F - F_ref| and the best F (optimize only)."""
        raise NotImplementedError


def _text(data: bytes | None) -> str:
    return "" if data is None else data.decode("utf-8", errors="replace")


class SweepMap(Workload):
    name = "sweep_map"
    why = "sweep --jobs 2 on a 3x4 sub-grid: Gaussian stepper in a 2-worker pool with 2.5x uneven point costs; no qoc"

    def prepare(self, work, seed):
        config = {"t_inv_values": list(SWEEP_T_INV), "g0_values": list(SWEEP_G0)}
        (work / "sweep_config.json").write_text(json.dumps(config) + "\n")

    def calls(self, work, seed):
        return [["sweep", "--jobs", str(SWEEP_JOBS), "--config", str(work / "sweep_config.json"),
                 "--out", str(work / "sweep.csv")]]

    def outputs(self, work):
        return [[work / "sweep.csv"]]

    def check(self, outputs, ctx):
        from checks import check_sweep_csv

        err, problems = check_sweep_csv(_text(outputs[0][0]), SWEEP_T_INV, SWEEP_G0, "rabi", ctx.reference)
        return [problems], err, None


class OptimizeRef(Workload):
    name = "optimize_ref"
    why = "20-bin GRAPE optimize at the reference point, 2 capped restarts: qoc gradient and 72-dim expm, no stepper, no pool"

    def calls(self, work, seed):
        return [["optimize", "--t-inv", str(REF_T_INV), "--g0", str(REF_G0), "--bins", str(BINS),
                 "--seed", str(seed), "--restarts", str(RESTARTS), "--max-iters", str(MAX_ITERS),
                 "--schedule-out", str(work / "schedule.csv"), "--out", str(work / "optimize.json")]]

    def outputs(self, work):
        return [[work / "optimize.json", work / "schedule.csv"]]

    def check(self, outputs, ctx):
        from checks import check_optimization

        result, schedule = outputs[0]
        best_f, err, problems = check_optimization(_text(result), _text(schedule), ctx.oracle, BINS)
        return [problems], err, best_f


class SimulateSerial(Workload):
    name = "simulate_serial"
    why = "serial simulate calls at the reference point: Rabi and RWA with --traj-out (double propagation) plus a schedule replay"

    def prepare(self, work, seed):
        (work / "replay.csv").write_text(replay_schedule_csv(seed))

    def calls(self, work, seed):
        ref = ["--t-inv", str(REF_T_INV), "--g0", str(REF_G0)]
        return [
            ["simulate", *ref, "--model", "rabi", "--traj-out", str(work / "rabi.csv"), "--out", str(work / "rabi.json")],
            ["simulate", *ref, "--model", "rwa", "--traj-out", str(work / "rwa.csv"), "--out", str(work / "rwa.json")],
            ["simulate", "--schedule", str(work / "replay.csv"), "--out", str(work / "replay.json")],
        ]

    def outputs(self, work):
        return [[work / "rabi.json", work / "rabi.csv"], [work / "rwa.json", work / "rwa.csv"], [work / "replay.json"]]

    def check(self, outputs, ctx):
        from checks import GAUSSIAN_F_TOL, PIECEWISE_F_TOL, check_run_record, check_trajectory_csv

        problems, errs = [], []
        for model, (record_out, traj_out) in zip(("rabi", "rwa"), outputs[:2]):
            what = f"simulate {model}"
            ref = ctx.reference[(REF_T_INV, REF_G0, model)]
            record, err, bad = check_run_record(_text(record_out), ref, GAUSSIAN_F_TOL, what)
            if record is not None and not bad:
                bad = check_trajectory_csv(_text(traj_out), record, f"{what} trajectory")
            problems.append(bad)
            errs.append(err)
        record, err, bad = check_run_record(_text(outputs[2][0]), ctx.replay_f, PIECEWISE_F_TOL, "simulate --schedule")
        problems.append(bad)
        errs.append(err)
        return problems, max(errs), None


WORKLOADS = {w.name: w for w in (SweepMap(), OptimizeRef(), SimulateSerial())}
