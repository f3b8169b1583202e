"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Instrumentation, Tracer  # noqa: E402
from workloads import REF_G0, SWEEP_G0, SWEEP_T_INV, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_names_units_and_bounds_are_valid():
    spec = run.spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["better"] for m in spec["end_to_end"] + spec["per_layer"]} <= {"lower", "higher"}


def test_committed_benchmark_json_matches_the_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()


def _sweep_csv(reference, t_inv_values=SWEEP_T_INV, g0_values=SWEEP_G0, perturb=0.0) -> str:
    lines = [",".join(checks.SWEEP_HEADER)]
    for t in t_inv_values:
        for g in g0_values:
            f = reference[(t, g, "rabi")] + perturb
            lines.append(f"{t:.12g},{g:.12g},rabi,{f:.12g},0.01,0.1")
    return "\n".join(lines) + "\n"


class _FakeCli:
    """Stands in for usctransfer.cli: writes a fixed text to the --out path."""

    def __init__(self, texts):
        self.texts = iter(texts)

    def main(self, argv):
        Path(argv[argv.index("--out") + 1]).write_text(next(self.texts))
        return 0


def _sweep_runner(tmp_path, texts):
    ctx = run.CheckContext(checks.load_reference(HERE / "reference.json"), oracle=None, replay_f=math.nan)
    return run.Runner(WORKLOADS["sweep_map"], tmp_path, 7, ctx, _FakeCli(texts))


def test_correct_sweep_output_passes(tmp_path):
    reference = checks.load_reference(HERE / "reference.json")
    runner = _sweep_runner(tmp_path, [_sweep_csv(reference)] * 2)
    runner.run_op(traced=False)
    runner.run_op(traced=False)
    assert (runner.attempted, runner.failed) == (2, 0), runner.problems


@pytest.mark.parametrize(
    "bad",
    [
        lambda ref: _sweep_csv(ref, perturb=1e-6),  # F off by more than the tolerance
        lambda ref: _sweep_csv(ref, g0_values=SWEEP_G0[::-1]),  # column-major / reordered grid
        lambda ref: _sweep_csv(ref, t_inv_values=SWEEP_T_INV[:2]),  # a config key ignored: rows missing
        lambda ref: _sweep_csv(ref).replace("t_inv,g0", "tinv,g0"),  # schema changed
        lambda ref: _sweep_csv(ref).replace(f"{ref[(0.04, 0.05, 'rabi')]:.12g}", "nan"),  # failed point
    ],
)
def test_bad_sweep_output_fails_and_counts_in_failed_frac(tmp_path, bad):
    reference = checks.load_reference(HERE / "reference.json")
    runner = _sweep_runner(tmp_path, [_sweep_csv(reference), bad(reference)])
    runner.run_op(traced=False)
    runner.run_op(traced=False)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.problems


def test_output_that_changes_between_repeats_fails(tmp_path):
    reference = checks.load_reference(HERE / "reference.json")
    # both pass the tolerance check but differ in the last printed digit
    runner = _sweep_runner(tmp_path, [_sweep_csv(reference), _sweep_csv(reference, perturb=1e-11)])
    runner.run_op(traced=False)
    runner.run_op(traced=False)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "differs from the first run" in runner.problems[-1]


def test_piecewise_oracle_agrees_with_the_program_and_catches_a_perturbed_f():
    from usctransfer.model import ModelParams, superposition_initial, superposition_target
    from usctransfer.pulses import PiecewiseConstantSchedule
    from usctransfer.qoc import objective
    from workloads import replay_schedule

    ctx = run._check_context(7)
    dt, values = replay_schedule(7)
    sched = PiecewiseConstantSchedule(0.0, dt, values[:, 0], values[:, 1], (0.0, REF_G0))
    params = ModelParams()
    f = objective(sched, params, superposition_initial(0, 1, params), superposition_target(0, 1, params))
    assert abs(f - ctx.replay_f) <= checks.PIECEWISE_F_TOL

    record = {"fidelity": f + 1e-8, "error": None}
    _, err, problems = checks.check_run_record(json.dumps(record), ctx.replay_f, checks.PIECEWISE_F_TOL, "replay")
    assert problems and err > checks.PIECEWISE_F_TOL


class _Clock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # cli.main [0, 10]
    #   qoc.optimize [1, 9]
    #     dynamics.matrix_exponential [2, 4]
    #     dynamics.matrix_exponential [5, 6]
    #     pulses.values [7, 8]
    tracer = Tracer(clock=_Clock([0, 1, 2, 4, 5, 6, 7, 8, 9, 10]),
                    nested={"values_in_optimize": ("pulses.values", "qoc.optimize")})
    tracer.enter("cli.main")
    tracer.enter("qoc.optimize")
    for name in ("dynamics.matrix_exponential", "dynamics.matrix_exponential", "pulses.values"):
        tracer.enter(name)
        tracer.exit()
    tracer.exit()
    tracer.exit()
    expm = tracer.get("dynamics.matrix_exponential")
    assert (expm.calls, expm.total_s, expm.self_s) == (2, 3, 3)
    assert tracer.get("qoc.optimize").self_s == 8 - 3 - 1
    assert tracer.get("cli.main").self_s == 2
    assert tracer.layer_self_s("dynamics") == 3
    assert sum(tracer.layer_self_s(layer) for layer in ("cli", "qoc", "dynamics", "pulses")) == 10
    assert tracer.counters == {"values_in_optimize": 1}
    assert tracer.get("dynamics.matrix_exponential").entries == 2


def test_instrumentation_records_layers_and_undo_restores_them():
    import numpy as np

    import usctransfer
    from usctransfer import dynamics, qoc
    from usctransfer.model import ModelParams, superposition_initial, superposition_target
    from usctransfer.pulses import PiecewiseConstantSchedule

    originals = (qoc.objective, qoc.propagate_piecewise, dynamics.matrix_exponential)
    params = ModelParams(n_max=2)
    sched = PiecewiseConstantSchedule(0.0, 1.0, np.full(3, 0.1), np.full(3, 0.2), (0.0, 0.3))
    initial, target = superposition_initial(0, 1, params), superposition_target(0, 1, params)

    tracer = Tracer()
    instrumentation = Instrumentation(tracer, usctransfer)
    try:
        qoc.objective(sched, params, initial, target)
    finally:
        instrumentation.undo()
    assert tracer.get("qoc.objective").calls == 1
    assert tracer.get("dynamics.propagate_piecewise").calls == 1
    assert tracer.get("dynamics.matrix_exponential").calls == 3
    assert tracer.get("model.coupling_operator").entries == 2
    assert (qoc.objective, qoc.propagate_piecewise, dynamics.matrix_exponential) == originals
