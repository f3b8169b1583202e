"""Command-line front end: single runs, schedule optimization, sweeps.

Subcommands: ``simulate`` (one Gaussian or imported-schedule run, RunRecord
JSON), ``optimize`` (schedule optimization, OptimizationResult JSON plus
schedule CSV), ``sweep`` (efficiency-map CSV) and ``gradcheck`` (gradient
oracle health check).  A flat JSON config file can supply any flag value
(a key naming no flag of the subcommand is a usage error); flags given on
the command line win.  Outputs go to stdout unless ``--out`` is
given, in which case files are written atomically.

Exit codes: 0 success, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .dynamics import IntegrationError, PropagationOptions, propagate_piecewise
from .formats import (
    atomic_write_text,
    optimization_result_json,
    run_record_json,
    schedule_csv,
    schedule_from_csv,
    schedule_from_dict,
    sweep_csv,
    trajectory_csv,
)
from .metrics import RunRecord
from .model import ModelParams, superposition_initial, superposition_target
from .pulses import DEFAULT_TAU_RATIO, DEFAULT_WINDOW_CUTOFF
from .qoc import NumericError, OptimizationConfig, gradient_check, optimize
from .sweep import SweepFixed, SweepGrid, gaussian_run, run_sweep
from . import sweep as sweep_mod

__all__ = ["main"]

USAGE_ERROR = 1
NUMERIC_ERROR = 2
JOBS_ENV_VAR = "USCTRANSFER_JOBS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse uses exit code 2; this CLI reserves 2 for numerics
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_complex(text: str) -> complex:
    """Complex flag value, either 're,im' or a bare real part."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _load_config(args: argparse.Namespace, extra_keys: tuple[str, ...] = ()) -> dict:
    """Flat JSON config of ``--config``; every key must name a flag of the subcommand."""
    path = args.config
    if path is None:
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"usctransfer: cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"usctransfer: config {path} must hold a JSON object")
    known = set(vars(args)) - {"command", "run"} | set(extra_keys)
    unknown = sorted(set(data) - known)
    if unknown:
        raise SystemExit(f"usctransfer: config {path} has unknown key(s): {', '.join(unknown)}")
    return data


class _Settings:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace, config: dict, defaults: dict):
        self._args = vars(args)
        self._config = config
        self._defaults = defaults

    def get(self, key: str):
        cli = self._args.get(key)
        if cli is not None:
            return cli
        if key in self._config:
            value = self._config[key]
            if key in ("alpha", "beta") and isinstance(value, (list, str, int, float)):
                if isinstance(value, str):
                    return _parse_complex(value)
                if isinstance(value, (list, tuple)):
                    return complex(value[0], value[1])
                return complex(value)
            return value
        return self._defaults.get(key)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _build_fixed(settings: _Settings) -> SweepFixed:
    params = ModelParams(
        kappa=float(settings.get("kappa")),
        n_max=int(settings.get("nmax")),
    )
    opts = PropagationOptions(dt=float(settings.get("dt")))
    return SweepFixed(
        params=params,
        tau_ratio=float(settings.get("tau_ratio")),
        cutoff=float(settings.get("cutoff")),
        alpha=settings.get("alpha"),
        beta=settings.get("beta"),
        options=opts,
    )


_COMMON_DEFAULTS = {
    "kappa": 0.005,
    "nmax": 8,
    "tau_ratio": DEFAULT_TAU_RATIO,
    "cutoff": DEFAULT_WINDOW_CUTOFF,
    "alpha": 0j,
    "beta": 1 + 0j,
    "model": "rabi",
    "dt": 0.1,
}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", type=float, help="cavity decay rate (units of omega_c)")
    sub.add_argument("--nmax", type=int, help="Fock cutoff (default 8)")
    sub.add_argument("--tau-ratio", dest="tau_ratio", type=float, help="pulse half-delay over width (default 0.6)")
    sub.add_argument("--cutoff", type=float, help="window truncation level relative to g0")
    sub.add_argument("--alpha", type=_parse_complex, help="input amplitude on |g1>, as 're,im'")
    sub.add_argument("--beta", type=_parse_complex, help="input amplitude on |e1>, as 're,im'")
    sub.add_argument("--model", choices=("rabi", "rwa"), help="full Rabi or rotating-wave dynamics")
    sub.add_argument("--dt", type=float, help="propagation step and trajectory sample spacing (default 0.1)")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--config", help="flat JSON config file; flags override its values")


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _Settings(args, _load_config(args), _COMMON_DEFAULTS | {"t_inv": 0.04, "g0": 0.3})
    fixed = _build_fixed(settings)
    model = settings.get("model")
    schedule_path = settings.get("schedule")

    if schedule_path:
        record, traj = _simulate_schedule(schedule_path, fixed, model)
    else:
        record, traj = gaussian_run(float(settings.get("t_inv")), float(settings.get("g0")), fixed, model)
    _emit(run_record_json(record), settings.get("out"))
    traj_out = settings.get("traj_out")
    if traj_out:
        atomic_write_text(traj_out, trajectory_csv(traj, fixed.params))
    return 0


def _simulate_schedule(path: str, fixed: SweepFixed, model: str):
    """Re-simulate an imported piecewise schedule (CSV or optimization JSON)."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"usctransfer: cannot read schedule {path}: {exc}")
    if path.endswith(".json"):
        data = json.loads(text)
        sched = schedule_from_dict(data["schedule"] if "schedule" in data else data)
    else:
        sched = schedule_from_csv(text)
    params = fixed.params
    initial = superposition_initial(fixed.alpha, fixed.beta, params)
    target = superposition_target(fixed.alpha, fixed.beta, params)
    opts = PropagationOptions(rwa=(model == "rwa"))
    start = time.perf_counter()
    traj, _ = propagate_piecewise(initial, sched, params, opts)
    wall = time.perf_counter() - start
    descriptor = {
        "kind": "piecewise",
        "model": model,
        "bins": sched.bins,
        "dt": sched.dt,
        "t_start": sched.t_start,
        "duration": sched.duration,
        "alpha": fixed.alpha,
        "beta": fixed.beta,
    }
    record = RunRecord.from_trajectory(params, descriptor, traj, target, sched.duration, wall)
    return record, traj


def _cmd_optimize(args: argparse.Namespace) -> int:
    defaults = _COMMON_DEFAULTS | {
        "t_inv": 0.04,
        "g0": 0.3,
        "bins": 20,
        "seed": 0,
        "restarts": 5,
        "max_iters": 500,
        "init": "gaussian-sampled",
        "duration": None,
    }
    settings = _Settings(args, _load_config(args), defaults)
    fixed = _build_fixed(settings)
    model = settings.get("model")
    g0 = float(settings.get("g0"))
    duration = settings.get("duration")
    if duration is None:
        duration = 1.0 / (fixed.params.omega_c * float(settings.get("t_inv")))

    config = OptimizationConfig(
        duration=float(duration),
        bounds=(0.0, g0),
        bins=int(settings.get("bins")),
        max_iters=int(settings.get("max_iters")),
        seed=int(settings.get("seed")),
        init=settings.get("init"),
        restarts=int(settings.get("restarts")),
    )
    params = fixed.params
    initial = superposition_initial(fixed.alpha, fixed.beta, params)
    target = superposition_target(fixed.alpha, fixed.beta, params)
    opts = PropagationOptions(rwa=(model == "rwa"))
    result = optimize(config, params, initial, target, opts)
    _emit(optimization_result_json(result), settings.get("out"))
    if settings.get("schedule_out"):
        atomic_write_text(settings.get("schedule_out"), schedule_csv(result.best_schedule))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    defaults = _COMMON_DEFAULTS | {"jobs": None}
    config = _load_config(args, ("t_inv_values", "g0_values"))
    settings = _Settings(args, config, defaults)
    fixed = _build_fixed(settings)
    t_inv_values = config.get("t_inv_values", sweep_mod.DEFAULT_T_INV_VALUES)
    g0_values = config.get("g0_values", sweep_mod.DEFAULT_G0_VALUES)
    grid = SweepGrid(
        t_inv_values=np.asarray(t_inv_values, dtype=float),
        g0_values=np.asarray(g0_values, dtype=float),
        fixed=fixed,
        model=settings.get("model"),
    )
    jobs = settings.get("jobs")
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1"))
    records = run_sweep(grid, jobs=int(jobs))
    _emit(sweep_csv(records), settings.get("out"))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    defaults = {"seed": 0, "nmax": 2, "bins": 5, "kappa": 0.005, "tolerance": 1e-5}
    settings = _Settings(args, _load_config(args), defaults)
    seed = int(settings.get("seed"))
    params = ModelParams(kappa=float(settings.get("kappa")), n_max=int(settings.get("nmax")))
    results = gradient_check(params, seeds=(seed, seed + 1, seed + 2), bins=int(settings.get("bins")))
    tolerance = float(settings.get("tolerance"))
    ok = True
    for s, rel in results:
        status = "ok" if rel < tolerance else "FAIL"
        print(f"seed {s}: relative error {rel:.3e} {status}")
        ok = ok and rel < tolerance
    return 0 if ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="usctransfer", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="one protocol run, RunRecord JSON")
    sim.add_argument("--t-inv", dest="t_inv", type=float, help="inverse speed (omega_c T)^-1")
    sim.add_argument("--g0", type=float, help="peak coupling over omega_c")
    sim.add_argument("--schedule", help="re-simulate a schedule from CSV or optimization JSON")
    sim.add_argument("--traj-out", dest="traj_out", help="also write the trajectory CSV here")
    _add_common_flags(sim)
    sim.set_defaults(run=_cmd_simulate)

    opt = commands.add_parser("optimize", help="optimize a piecewise schedule, result JSON")
    opt.add_argument("--t-inv", dest="t_inv", type=float, help="sets duration 1/t_inv unless --duration is given")
    opt.add_argument("--g0", type=float, help="amplitude bound (controls stay in [0, g0])")
    opt.add_argument("--bins", type=int, help="piecewise bins per control (default 20)")
    opt.add_argument("--duration", type=float, help="total control time")
    opt.add_argument("--seed", type=int, help="restart RNG seed")
    opt.add_argument("--restarts", type=int, help="number of optimization starts (default 5)")
    opt.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap per start")
    opt.add_argument("--init", choices=("gaussian-sampled", "constant", "random"), help="first-start mode")
    opt.add_argument("--schedule-out", dest="schedule_out", help="also write the schedule CSV here")
    _add_common_flags(opt)
    opt.set_defaults(run=_cmd_optimize)

    swp = commands.add_parser("sweep", help="2-D efficiency map CSV")
    swp.add_argument("--jobs", type=int, help=f"parallel workers (default ${JOBS_ENV_VAR} or 1)")
    _add_common_flags(swp)
    swp.set_defaults(run=_cmd_sweep)

    grad = commands.add_parser("gradcheck", help="gradient vs finite differences, exit 0/1")
    grad.add_argument("--seed", type=int, help="base seed; three consecutive seeds are checked")
    grad.add_argument("--nmax", type=int, help="Fock cutoff of the check system (default 2)")
    grad.add_argument("--bins", type=int, help="schedule bins (default 5)")
    grad.add_argument("--kappa", type=float, help="cavity decay rate")
    grad.add_argument("--tolerance", type=float, help="pass threshold (default 1e-5)")
    grad.add_argument("--config", help="flat JSON config file")
    grad.set_defaults(run=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except SystemExit:
        raise
    except (ValueError, KeyError) as exc:
        print(f"usctransfer: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (IntegrationError, NumericError, FloatingPointError) as exc:
        print(f"usctransfer: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
