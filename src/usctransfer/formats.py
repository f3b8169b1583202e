"""Serialization of run outcomes: JSON records, CSV tables, atomic writes.

All numeric text uses 12 significant digits with '.' as the decimal
separator and newline-terminated rows, so identical inputs reproduce
byte-identical files.  Wall-clock timings are deliberately left out of the
serialized forms for the same reason.
"""

from __future__ import annotations

import json
import os
import secrets
import stat
from dataclasses import asdict
from typing import Any

import numpy as np

from .dynamics import Trajectory
from .metrics import RunRecord
from .model import ModelParams, basis_labels, flat_index
from .pulses import PiecewiseConstantSchedule
from .qoc import OptimizationResult

__all__ = [
    "SWEEP_CSV_HEADER",
    "fmt",
    "atomic_write_text",
    "run_record_to_dict",
    "run_record_json",
    "sweep_csv",
    "trajectory_csv",
    "schedule_csv",
    "schedule_from_csv",
    "optimization_result_to_dict",
    "optimization_result_json",
    "schedule_to_dict",
    "schedule_from_dict",
]

SWEEP_CSV_HEADER = "t_inv,g0,model,fidelity,leakage,peak_mean_photon"


def fmt(x: float) -> str:
    """12-significant-digit text form used in every CSV cell."""
    return f"{float(x):.12g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials.

    As with a plain ``open(path, "w")``, a symbolic link is written through:
    its target is replaced and the link stays.  The file gets the mode a
    plain write would leave: that of the file it replaces, or for a new file
    0o666 less the umask, which the system applies to the temporary file.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        if os.path.isfile(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(value: Any) -> Any:
    """JSON form of what ``json`` cannot write itself: complex as [re, im], numpy values as lists or numbers."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def run_record_to_dict(record: RunRecord) -> dict[str, Any]:
    """Fields of a run record as :func:`run_record_json` writes them (wall time excluded, see module doc)."""
    return {key: value for key, value in asdict(record).items() if key != "wall_time"}


def run_record_json(record: RunRecord) -> str:
    return json.dumps(run_record_to_dict(record), indent=2, sort_keys=True, default=_json_default) + "\n"


def sweep_csv(records: list[RunRecord]) -> str:
    """Heatmap table, one row per grid point in the given (row-major) order."""
    lines = [SWEEP_CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    fmt(rec.schedule["t_inv"]),
                    fmt(rec.schedule["g0"]),
                    str(rec.schedule["model"]),
                    fmt(rec.fidelity),
                    fmt(rec.leakage),
                    fmt(rec.peak_mean_photon),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory, params: ModelParams) -> str:
    """Population histories: source / target / any-photon populations, <a^dag a> and norm.

    The five columns after ``time`` are the expectations of five diagonal
    observables, read off the block states in one :meth:`Trajectory.expect`
    call.  Only the Fock cutoff of ``params`` is read, to lay out the basis:
    a cutoff other than the run's gives another dimension, which
    :meth:`Trajectory.expect`'s shape check rejects with a ``ValueError``.
    """
    n = basis_labels(params)[0]
    source, target = np.eye(params.dim)[[flat_index(0, 0, 1, params), flat_index(0, 1, 0, params)]]
    diagonals = np.column_stack([source, target, n >= 1, n, np.ones(params.dim)])
    header = "time,p_source,p_target,p_cavity,mean_photon,norm2"
    row = ",".join(["%.12g"] * 6)  # fmt's format, applied to a whole row at once
    table = np.column_stack([traj.times, traj.expect(diagonals)]).tolist()
    return "\n".join([header, *(row % tuple(values) for values in table)]) + "\n"


def schedule_csv(sched: PiecewiseConstantSchedule) -> str:
    """Step-function schedule as one row per bin."""
    lines = ["bin,t0,t1,g1,g2"]
    for k in range(sched.bins):
        t0 = sched.t_start + k * sched.dt
        lines.append(
            f"{k},{fmt(t0)},{fmt(t0 + sched.dt)},{fmt(sched.values1[k])},{fmt(sched.values2[k])}"
        )
    return "\n".join(lines) + "\n"


def schedule_from_csv(text: str) -> PiecewiseConstantSchedule:
    """Rebuild a schedule from :func:`schedule_csv` output.

    The rows must be the bins 0, 1, ... in order, of one width and without
    gaps: each row's t0 is the previous row's t1.  :func:`schedule_csv` keeps
    12 significant digits of every t, which moves each by up to 5e-12 |t|,
    so widths and edges are compared within rtol 1e-9 plus 1e-12 and 1e-10
    of the largest |t| in the file.  The bin width is the span over the bin count,
    which carries no more than one edge's rounding.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "bin,t0,t1,g1,g2":
        raise ValueError("not a schedule CSV (missing 'bin,t0,t1,g1,g2' header)")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        raise ValueError("schedule CSV has no bins")
    if short := [number for number, row in enumerate(rows, 2) if len(row) != 5]:
        raise ValueError(f"schedule CSV line {short[0]} does not have the 5 fields of the header")
    if misnumbered := [k for k, row in enumerate(rows) if row[0].strip() != str(k)]:
        k = misnumbered[0]
        raise ValueError(f"schedule CSV line {k + 2} has bin {rows[k][0]!r}, not {k}: "
                         "the bins must read 0, 1, ... in order")
    table = []
    for number, row in enumerate(rows, 2):
        try:
            table.append([float(cell) for cell in row[1:]])
        except ValueError:
            raise ValueError(f"schedule CSV line {number} has a value that is not a number: {','.join(row)}") from None
        if not np.all(np.isfinite(table[-1][:2])):
            raise ValueError(f"schedule CSV line {number} has t0 = {row[1]}, t1 = {row[2]}: the times must be finite")
    t0s, t1s, v1, v2 = (np.array(column) for column in zip(*table))
    atol = 1e-12 + 1e-10 * float(np.abs(np.concatenate([t0s, t1s])).max())
    dts = t1s - t0s
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=atol):
        raise ValueError("schedule CSV has non-uniform bins")
    if off := np.flatnonzero(~np.isclose(t0s[1:], t1s[:-1], rtol=1e-9, atol=atol)).tolist():
        k = off[0] + 1
        raise ValueError(f"schedule CSV line {k + 2} starts at t0 = {fmt(t0s[k])}, not at {fmt(t1s[k - 1])}: "
                         "the bins must follow each other without gaps")
    return PiecewiseConstantSchedule(float(t0s[0]), float(t1s[-1] - t0s[0]) / len(rows), v1, v2)


def schedule_to_dict(sched: PiecewiseConstantSchedule) -> dict[str, Any]:
    return {
        "t_start": sched.t_start,
        "dt": sched.dt,
        "values1": sched.values1.tolist(),
        "values2": sched.values2.tolist(),
    }


def schedule_from_dict(data: dict[str, Any]) -> PiecewiseConstantSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output; a malformed one raises ValueError.

    Other keys are ignored, such as the ``bounds`` and ``outside`` that
    older result files carry.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a schedule must be a JSON object, got {type(data).__name__}")

    def field(key, convert=float):
        if key not in data:
            raise ValueError(f"schedule has no field {key!r}")
        try:
            return convert(data[key])
        except (TypeError, ValueError, IndexError):
            raise ValueError(f"schedule field {key!r} is not valid: {data[key]!r}") from None

    return PiecewiseConstantSchedule(
        field("t_start"),
        field("dt"),
        field("values1", lambda v: np.asarray(v, dtype=float)),
        field("values2", lambda v: np.asarray(v, dtype=float)),
    )


def optimization_result_to_dict(result: OptimizationResult) -> dict[str, Any]:
    return {
        "best_fidelity": result.best_fidelity,
        "converged": result.converged,
        "schedule": schedule_to_dict(result.best_schedule),
        "iteration_history": [
            {"iteration": it, "fidelity": f, "gradient_norm": g}
            for it, f, g in result.iteration_history
        ],
    }


def optimization_result_json(result: OptimizationResult) -> str:
    return json.dumps(optimization_result_to_dict(result), indent=2, sort_keys=True) + "\n"
