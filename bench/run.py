#!/usr/bin/env python3
"""Layered benchmark of the usctransfer command line.

Runs one workload in a closed loop, in process, through
``usctransfer.cli.main`` (the path users take), checks every output, and
prints each metric by name with its unit.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is split into an untraced half and a traced half, and the metrics are
the per-layer ones measured by spans around the calls into each module.

    python3 bench/run.py --workload sweep_map --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

The program is imported from ``src/`` next to this directory; the benchmark
fails without printing a result when it is not there.  Scratch files go to
``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 7  # the seed of the reference-optimization test fixture
SETUP_REPEATS = 5
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name, unit, better, bound (share of the parent's median a change may lose).
# The timing bounds are at the 0.25 maximum because the host is shared: over
# 15 minutes the same runs drifted by 7% in wall and CPU time and 17% in
# setup time, with quartile spreads of up to 7% across ten runs.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("dynamics.propagate.calls", "count", "lower"),
    ("dynamics.propagate.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.step_us", "us", "lower"),
    ("dynamics.propagate_piecewise.calls", "count", "lower"),
    ("dynamics.propagate_piecewise.self_s", "s", "lower"),
    ("dynamics.matrix_exponential.calls", "count", "lower"),
    ("dynamics.matrix_exponential.self_s", "s", "lower"),
    ("dynamics.matrix_exponential.us_per_call", "us", "lower"),
    ("qoc.objective_and_gradient.calls", "count", "lower"),
    ("qoc.objective_and_gradient.self_s", "s", "lower"),
    ("qoc.objective_and_gradient.ms_p50", "ms", "lower"),
    ("qoc.objective_and_gradient.ms_p90", "ms", "lower"),
    ("qoc.optimize.self_s", "s", "lower"),
    ("qoc.iterations", "count", "lower"),
    ("qoc.objective.calls", "count", "lower"),
    ("model.operators.calls", "count", "lower"),
    ("model.operators.self_s", "s", "lower"),
    ("pulses.values.self_s", "s", "lower"),
    ("sweep.point_busy_s", "s", "lower"),
    ("sweep.pool_efficiency", "frac", "higher"),
    ("sweep.pool_overhead_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("pulses.self_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("qoc.self_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("formats.self_s", "s", "lower"),
    ("formats.bytes_written", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.accounted_frac", "frac", "higher"),
    ("trace_overhead_frac", "frac", "lower"),
)

RUN_SECONDS = 20


def spec() -> dict:
    """Contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --- environment -----------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas() -> dict:
    """OpenBLAS build version and the thread count it runs with."""
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    threads = {}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads[Path(lib).name] = fn()
            break
    info["threads"] = threads
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    from make_reference import git_commit, source_digest

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
    }


# --- measurement -------------------------------------------------------------


def _cpu_time() -> float:
    """User+sys CPU of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and prepare the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls in 50 ms steps, which
        # would quantize the measurement
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    traced: bool


@dataclass
class CheckContext:
    reference: dict
    oracle: object
    replay_f: float


class Runner:
    """Closed loop over one workload's operations, checking every output."""

    def __init__(self, workload, work: Path, seed: int, ctx: CheckContext, cli):
        self.workload, self.work, self.seed, self.ctx, self.cli = workload, work, seed, ctx, cli
        self.ops: list[Op] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.f_err_max = 0.0
        self.best_f: float | None = None
        self._first_outputs = None

    def _call(self, argv: list[str]) -> int | str:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return f"{type(exc).__name__}: {exc}"

    def run_op(self, traced: bool = False) -> None:
        calls = self.workload.calls(self.work, self.seed)
        paths = self.workload.outputs(self.work)
        for files in paths:
            for path in files:
                path.unlink(missing_ok=True)
        cpu0 = _cpu_time()
        start = time.perf_counter()
        codes = [self._call(argv) for argv in calls]
        wall = time.perf_counter() - start
        cpu = _cpu_time() - cpu0
        self.ops.append(Op(wall, cpu, traced))

        outputs = [[p.read_bytes() if p.exists() else None for p in files] for files in paths]
        per_call, f_err, best_f = self.workload.check(outputs, self.ctx)
        if self._first_outputs is None:
            self._first_outputs = outputs
        for k, argv in enumerate(calls):
            problems = list(per_call[k])
            if codes[k] != 0:
                problems.insert(0, f"exit status {codes[k]}")
            if outputs[k] != self._first_outputs[k]:
                problems.append("output differs from the first run of the same inputs")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{argv[0]} call {k}: {p}" for p in problems]
        self.f_err_max = max(self.f_err_max, f_err)
        if best_f is not None:
            self.best_f = best_f if self.best_f is None else min(self.best_f, best_f)

    def loop(self, seconds: float, min_ops: int, traced: bool = False) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_ops or time.perf_counter() < deadline:
            self.run_op(traced)
            done += 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-operation layer figures from the traced phase; wall times are per operation."""
    from tracer import LAYERS, MODEL_OPERATORS

    def per_op(x):
        return x / len(traced_walls)

    get, counters = tracer.get, tracer.counters
    prop, pw, expm = get("dynamics.propagate"), get("dynamics.propagate_piecewise"), get("dynamics.matrix_exponential")
    oag = get("qoc.objective_and_gradient")
    steps = counters.get("dynamics.steps", 0.0)
    oag_ms = [1e3 * d for d in tracer.durations["qoc.objective_and_gradient"]]
    operators = [get(f"model.{name}") for name in MODEL_OPERATORS]
    jobs_x_wall = counters.get("sweep.jobs_x_wall_s", 0.0)
    busy = counters.get("sweep.point_busy_s", 0.0)
    layers = {f"{layer}.self_s": per_op(tracer.layer_self_s(layer)) for layer in LAYERS}
    values = {
        "dynamics.propagate.calls": per_op(prop.calls),
        "dynamics.propagate.self_s": per_op(prop.self_s),
        "dynamics.steps": per_op(steps),
        "dynamics.step_us": 1e6 * prop.total_s / steps if steps else 0.0,
        "dynamics.propagate_piecewise.calls": per_op(pw.calls),
        "dynamics.propagate_piecewise.self_s": per_op(pw.self_s),
        "dynamics.matrix_exponential.calls": per_op(expm.calls),
        "dynamics.matrix_exponential.self_s": per_op(expm.self_s),
        "dynamics.matrix_exponential.us_per_call": 1e6 * expm.self_s / expm.calls if expm.calls else 0.0,
        "qoc.objective_and_gradient.calls": per_op(oag.calls),
        "qoc.objective_and_gradient.self_s": per_op(oag.self_s),
        "qoc.objective_and_gradient.ms_p50": _percentile(oag_ms, 50),
        "qoc.objective_and_gradient.ms_p90": _percentile(oag_ms, 90),
        "qoc.optimize.self_s": per_op(get("qoc.optimize").self_s),
        "qoc.iterations": per_op(counters.get("qoc.iterations", 0.0)),
        "qoc.objective.calls": per_op(get("qoc.objective").calls),
        "model.operators.calls": per_op(sum(s.entries for s in operators)),
        "model.operators.self_s": per_op(sum(s.self_s for s in operators)),
        "pulses.values.self_s": per_op(get("pulses.values").self_s),
        "sweep.point_busy_s": per_op(busy),
        "sweep.pool_efficiency": busy / jobs_x_wall if jobs_x_wall else 0.0,
        "sweep.pool_overhead_s": per_op(counters.get("sweep.pool_overhead_s", 0.0)),
        **layers,
        "formats.bytes_written": per_op(counters.get("formats.bytes_written", 0.0)),
        "trace.accounted_frac": sum(layers.values()) / per_op(sum(traced_walls)),
        "trace_overhead_frac": _median(traced_walls) / _median(untraced_walls) - 1.0,
    }
    return {name: values[name] for name, _, _ in PER_LAYER}


def _hooks():
    def bytes_written(tracer, args, kwargs, result, duration):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.add("formats.bytes_written", len(text.encode("utf-8")))

    def pool(tracer, args, kwargs, result, duration):
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        busy = sum(record.wall_time for record in result)
        tracer.add("sweep.point_busy_s", busy)
        tracer.add("sweep.jobs_x_wall_s", jobs * duration)
        # time the sweep took beyond its points' work spread evenly over the workers
        tracer.add("sweep.pool_overhead_s", duration - busy / jobs)

    def iterations(tracer, args, kwargs, result, duration):
        tracer.add("qoc.iterations", len(result.iteration_history))

    return {"formats.atomic_write_text": bytes_written, "sweep.run_sweep": pool, "qoc.optimize": iterations}


# --- entry point ---------------------------------------------------------------


def _import_program():
    """Import usctransfer from this checkout's src/, or exit without a result."""
    if not (SRC / "usctransfer" / "__init__.py").is_file():
        sys.exit(f"bench: no program sources at {SRC / 'usctransfer'}")
    sys.path.insert(0, str(SRC))
    import usctransfer
    import usctransfer.cli

    if Path(usctransfer.__file__).resolve().parent != (SRC / "usctransfer").resolve():
        sys.exit(f"bench: imported usctransfer from {usctransfer.__file__}, not from {SRC}")
    return usctransfer


def _check_context(seed: int) -> CheckContext:
    from checks import PiecewiseOracle, load_reference
    from usctransfer.model import (ModelParams, coupling_operator, drift_hamiltonian, number_operator,
                                   superposition_initial, superposition_target)
    from workloads import replay_schedule

    params = ModelParams()
    oracle = PiecewiseOracle(
        drift_hamiltonian(params) - 0.5j * params.kappa * number_operator(params),
        coupling_operator(1, params),
        coupling_operator(2, params),
        superposition_initial(0.0, 1.0, params),
        superposition_target(0.0, 1.0, params),
    )
    dt, values = replay_schedule(seed)
    return CheckContext(load_reference(HERE / "reference.json"), oracle, oracle.fidelity(dt, values[:, 0], values[:, 1]))


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    package = _import_program()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        workload.prepare(work, args.seed)
        if args.setup_probe:
            return 0
        return _run(args, workload, package, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload, package, work: Path) -> int:
    from tracer import Instrumentation, Tracer

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    runner = Runner(workload, work, args.seed, _check_context(args.seed), package.cli)
    if args.trace:
        runner.loop(args.seconds / 2, min_ops=1)
        tracer = Tracer(keep=("qoc.objective_and_gradient",),
                        nested={"dynamics.steps": ("pulses.values", "dynamics.propagate")})
        instrumentation = Instrumentation(tracer, package, _hooks())
        try:
            runner.loop(args.seconds / 2, min_ops=1, traced=True)
        finally:
            instrumentation.undo()
    else:
        runner.loop(args.seconds, min_ops=2)

    untraced = [op for op in runner.ops if not op.traced]
    traced = [op for op in runner.ops if op.traced]
    end_to_end = {
        **({"setup_s": (_median(setup), "s")} if setup else {}),
        "wall_s": (_median([op.wall_s for op in untraced]), "s"),
        "cpu_s": (_median([op.cpu_s for op in untraced]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # Printed with the end-to-end metrics but not in the result line: they are
    # 0 on a correct run (failed_frac), seed-dependent rounding noise
    # (f_err_max on optimize_ref) or defined on one workload only (best_f),
    # so a share of the parent's median cannot bound them.  The correctness
    # check gates them with absolute tolerances instead.
    accuracy = {
        "f_err_max": (runner.f_err_max, "1"),
        "best_f": (runner.best_f if runner.best_f is not None else float("nan"), "1"),
        "failed_frac": (runner.failed / runner.attempted, "1"),
    }
    walls = [op.wall_s for op in untraced]
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced operations of {len(workload.calls(work, args.seed))} "
          f"CLI call(s); wall_s min {min(walls):.4f} median {_median(walls):.4f} max {max(walls):.4f} s")
    if setup:
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    _print_metrics("end-to-end:", {**end_to_end, **accuracy})
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        layer = per_layer_metrics(tracer, [op.wall_s for op in traced], walls)
        units = {name: unit for name, unit, _ in PER_LAYER}
        _print_metrics("per-layer (per operation, traced half):", {n: (v, units[n]) for n, v in layer.items()})
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layer.items()}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in end_to_end.items()}
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
