"""Command-line front end: single runs, schedule optimization, sweeps.

Subcommands: ``simulate`` (one Gaussian or imported-schedule run, RunRecord
JSON), ``optimize`` (schedule optimization, OptimizationResult JSON plus
schedule CSV), ``sweep`` (efficiency-map CSV) and ``gradcheck`` (gradient
oracle health check).  A flag's default is the library's where the library
has one (``--help`` shows it).  A flat JSON config file can supply any flag
value: its keys are read as flags placed before the typed ones, so they pass
the same checks and typed flags win (a key naming no flag of the subcommand
is a usage error).  Outputs go to stdout unless ``--out`` is given, in which
case files are written atomically.  An output path that is a directory, or
whose directory does not exist, is rejected before anything is computed.

``optimize`` runs its restarts in parallel on the CPUs the process may use.

Exit codes: ``main`` returns one for every argv but ``--help``, and each
failure code comes from one exception, reported as one stderr line:
0 success; 1 a ``ValueError``, a usage error or unwritable output (after
argparse's usage line for a flag it rejects); 2 an ``IntegrationError``, a
numeric failure, which includes a sweep that wrote NaN rows (its CSV is
written first); 3 a ``WorkerLostError``, an optimize restart whose worker
process died twice.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import json
import math
import os
import sys

from .dynamics import IntegrationError, PropagationOptions
from .formats import (
    atomic_write_text,
    fmt,
    optimization_result_json,
    read_schedule,
    run_record_json,
    schedule_csv,
    sweep_csv,
    trajectory_csv,
)
from .model import ModelParams, superposition_initial, superposition_target
from .qoc import OptimizationConfig, WorkerLostError, gradient_check, optimize
from .sweep import (
    DEFAULT_G0_VALUES, DEFAULT_T_INV_VALUES, STEP_CALIBRATION_T_INV, STEP_F_ERROR, SweepFixed, SweepGrid, _is_rwa,
    gaussian_row, run_sweep, schedule_run,
)

__all__ = ["main"]

USAGE_ERROR = 1
NUMERIC_ERROR = 2
WORKER_LOST = 3
# sweep config keys that name no flag: the axes of the map
GRID_KEYS = ("t_inv_values", "g0_values")
# the step rule of a Gaussian run and the accuracy of the default step, for the --dt help and warning
STEP_RULE = (f"at t_inv < {STEP_CALIBRATION_T_INV} a one-block input steps at dt*sqrt({STEP_CALIBRATION_T_INV}/t_inv),"
             " and at the default step every transfer efficiency of a one-block input on the default map is within "
             f"{STEP_F_ERROR:g} of a dt = 0.0125 run")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; this CLI reserves 2 for numerics and returns 1 from main
        self.print_usage(sys.stderr)
        raise ValueError(message)


class _GaussianFlag(argparse.Action):
    """Store a value only the Gaussian run reads, and record the flag as given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.gaussian_flags = [*namespace.gaussian_flags, option_string]


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


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def _config_flags(config: dict, path: str) -> list[str]:
    """Flag form ``--key=value`` of config values; a [re, im] list becomes 're,im'."""
    flags = []
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config {path} key {key}: {json.dumps(value)} is not a flag value")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Typed flags over ``--config`` values over the library defaults."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    config = _load_config(args.config)
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "run", "gaussian_flags"}))
    if unknown:
        raise ValueError(f"config {args.config} has unknown key(s): {', '.join(unknown)}")
    grid = {key: config.pop(key) for key in GRID_KEYS if key in config}
    args = parser.parse_args([argv[0], *_config_flags(config, args.config), *argv[1:]])
    vars(args).update(grid)
    return args


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Reject an output path that is a directory or whose directory is missing before any run, as its write would."""
    for flag in ("--out", "--traj-out", "--schedule-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        directory = os.path.dirname(path or "") or "."
        if path and (os.path.isdir(path) or not os.path.isdir(directory)):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
            raise ValueError(f"cannot write {flag} {path}: {os.strerror(code)}")


def _write(flag: str, path: str, text: str) -> None:
    """Write ``text`` to the file of ``flag`` atomically; a failed write is a usage error naming the flag."""
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise ValueError(f"cannot write {flag} {path}: {exc.strerror or exc}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write("--out", out_path, text)
    else:
        sys.stdout.write(text)


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(kappa=args.kappa, n_max=args.nmax)


def _fixed(args: argparse.Namespace) -> SweepFixed:
    """The checked settings of a run or sweep."""
    return SweepFixed(
        params=_params(args),
        tau_ratio=args.tau_ratio,
        cutoff=args.cutoff,
        alpha=args.alpha,
        beta=args.beta,
        options=PropagationOptions(dt=args.dt),
    )


def _warn_on_coarse_step(dt: float) -> None:
    """Warn on stderr when ``--dt`` exceeds the calibrated step; called once every input is checked."""
    if dt > PropagationOptions.dt:
        print(f"usctransfer: warning: --dt {dt} is above the default step {PropagationOptions.dt}: {STEP_RULE}",
              file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.schedule and args.gaussian_flags:  # given as flags or as config keys; rejected before the --dt warning
        flags = ", ".join(dict.fromkeys(args.gaussian_flags))
        raise ValueError(f"simulate --schedule replays the schedule's bins and takes no {flags} "
                         "(as a flag or a config key)")
    fixed = _fixed(args)
    _warn_on_coarse_step(args.dt)
    if args.schedule:
        record, traj = schedule_run(read_schedule(args.schedule), fixed, args.model)
    else:
        record, traj = gaussian_row(args.t_inv, [args.g0], fixed, args.model)[0]
    _emit(run_record_json(record), args.out)
    if args.traj_out:
        _write("--traj-out", args.traj_out, trajectory_csv(traj))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    params = _params(args)
    if not 0 < args.t_inv < math.inf:
        raise ValueError(f"t_inv must be finite and positive, got {args.t_inv}")
    config = OptimizationConfig(
        duration=1.0 / args.t_inv,
        g0=args.g0,
        bins=args.bins,
        max_iters=args.max_iters,
        seed=args.seed,
        restarts=args.restarts,
    )
    initial = superposition_initial(args.alpha, args.beta, params)
    target = superposition_target(args.alpha, args.beta, params)
    result = optimize(config, params, initial, target, rwa=_is_rwa(args.model))
    _emit(optimization_result_json(result), args.out)
    if args.schedule_out:
        _write("--schedule-out", args.schedule_out, schedule_csv(result.best_schedule))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid(args.t_inv_values, args.g0_values, _fixed(args), args.model)
    _warn_on_coarse_step(args.dt)
    records = run_sweep(grid, jobs=args.jobs)
    _emit(sweep_csv(records), args.out)
    failed = [record for record in records if record.error]
    if failed:  # the CSV keeps the healthy rows; the exit code and stderr report the NaN ones
        rows = ", ".join(dict.fromkeys(fmt(record.schedule["t_inv"]) for record in failed))
        raise IntegrationError(f"the sweep wrote NaN rows at t_inv {rows}; the first error: {failed[0].error}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0 < args.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {args.tolerance}")
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    ok = True
    for s, rel in gradient_check(_params(args), seeds=seeds, bins=args.bins):
        status = "ok" if rel < args.tolerance else "FAIL"
        print(f"seed {s}: relative error {rel:.3e} {status}")
        ok = ok and rel < args.tolerance
    return 0 if ok else 1


def _add_point_flags(sub: argparse.ArgumentParser, t_inv_help: str, g0_help: str) -> None:
    sub.add_argument("--t-inv", dest="t_inv", type=float, default=0.04, action=_GaussianFlag,
                     help=f"{t_inv_help} (default %(default)s)")
    sub.add_argument("--g0", type=float, default=0.3, action=_GaussianFlag, help=f"{g0_help} (default %(default)s)")


def _add_common_flags(sub: argparse.ArgumentParser, gaussian: bool = True) -> None:
    """Model, input and output flags; with ``gaussian``, also the Gaussian pulse's shape and step."""
    fixed = SweepFixed()
    sub.set_defaults(gaussian_flags=[])
    sub.add_argument("--kappa", type=float, default=fixed.params.kappa,
                     help="cavity decay rate in units of omega_c (default %(default)s)")
    sub.add_argument("--nmax", type=int, default=fixed.params.n_max, help="Fock cutoff (default %(default)s)")
    sub.add_argument("--alpha", type=_parse_complex, default=str(fixed.alpha),
                     help="input amplitude on |g1>, as 're,im' (default %(default)s)")
    sub.add_argument("--beta", type=_parse_complex, default=str(fixed.beta),
                     help="input amplitude on |e1>, as 're,im' (default %(default)s)")
    sub.add_argument("--model", choices=("rabi", "rwa"), default="rabi",
                     help="full Rabi or rotating-wave dynamics (default %(default)s)")
    if gaussian:
        sub.add_argument("--tau-ratio", dest="tau_ratio", type=float, default=fixed.tau_ratio, action=_GaussianFlag,
                         help="pulse half-delay over width (default %(default)s)")
        sub.add_argument("--cutoff", type=float, default=fixed.cutoff, action=_GaussianFlag,
                         help="window truncation level relative to g0 (default %(default)s)")
        sub.add_argument("--dt", type=float, default=fixed.options.dt, action=_GaussianFlag,
                         help=f"propagation step and trajectory sample spacing; {STEP_RULE} (default %(default)s)")
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--config", help="flat JSON config file; flags override its values")


def _build_parser() -> _Parser:
    parser = _Parser(prog="usctransfer", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="one protocol run, RunRecord JSON")
    _add_point_flags(sim, "inverse speed (omega_c T)^-1", "peak coupling in units of omega_c")
    sim.add_argument("--schedule", help="re-simulate a schedule from CSV or optimization JSON")
    sim.add_argument("--traj-out", dest="traj_out", help="also write the trajectory CSV here")
    _add_common_flags(sim)
    sim.set_defaults(run=_cmd_simulate)

    opt = commands.add_parser("optimize", help="optimize a piecewise schedule, result JSON")
    _add_point_flags(opt, "sets the control time 1/(omega_c t_inv)", "amplitude bound (controls stay in [0, g0])")
    opt.add_argument("--bins", type=int, default=OptimizationConfig.bins,
                     help="piecewise bins per control (default %(default)s)")
    opt.add_argument("--seed", type=int, default=OptimizationConfig.seed, help="restart RNG seed (default %(default)s)")
    opt.add_argument("--restarts", type=int, default=OptimizationConfig.restarts,
                     help="number of optimization starts (default %(default)s)")
    opt.add_argument("--max-iters", dest="max_iters", type=int, default=OptimizationConfig.max_iters,
                     help="iteration cap per start (default %(default)s)")
    opt.add_argument("--schedule-out", dest="schedule_out", help="also write the schedule CSV here")
    _add_common_flags(opt, gaussian=False)  # piecewise bins with exact exponentials: no pulse shape, no step
    opt.set_defaults(run=_cmd_optimize)

    swp = commands.add_parser("sweep", help="2-D efficiency map CSV")
    swp.add_argument("--jobs", type=int, default=1, help="parallel workers (default %(default)s)")
    _add_common_flags(swp)
    swp.set_defaults(run=_cmd_sweep, t_inv_values=DEFAULT_T_INV_VALUES, g0_values=DEFAULT_G0_VALUES)

    grad = commands.add_parser("gradcheck", help="gradient vs finite differences, exit 0/1")
    grad.add_argument("--seed", type=int, default=0, help="base seed; three consecutive seeds are checked (default %(default)s)")
    grad.add_argument("--nmax", type=int, default=2, help="Fock cutoff of the check system (default %(default)s)")
    grad.add_argument("--bins", type=int, default=inspect.signature(gradient_check).parameters["bins"].default,
                      help="schedule bins (default %(default)s)")
    grad.add_argument("--kappa", type=float, default=ModelParams.kappa,
                      help="cavity decay rate in units of omega_c (default %(default)s)")
    grad.add_argument("--tolerance", type=float, default=1e-5, help="relative error bound (default %(default)s)")
    grad.add_argument("--config", help="flat JSON config file")
    grad.set_defaults(run=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        _check_output_dirs(args)
        return args.run(args)
    except ValueError as exc:
        print(f"usctransfer: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except IntegrationError as exc:
        print(f"usctransfer: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except WorkerLostError as exc:
        print(f"usctransfer: {exc}", file=sys.stderr)
        return WORKER_LOST


if __name__ == "__main__":
    sys.exit(main())
