"""Outputs under a second OpenBLAS kernel agree with the default kernel's within a stated bound.

Reruns are byte-identical on one machine with one OpenBLAS kernel.  Another
kernel (another CPU, or ``OPENBLAS_CORETYPE``) rounds the same products
differently, so F, leakage and the photon peak move in their last bits.
Over the default 10x10 map (both models, inputs (0, 1) and (0.6, 0.8)),
the kernels Prescott, Nehalem, Sandybridge and Haswell moved them by at most
1.3e-13 against SkylakeX, and ``objective`` on 20-bin schedules by at most
2.2e-15.  ``KERNEL_BOUND`` is the bound the README states.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

from conftest import KERNEL_BOUND, corename

SECOND_KERNEL = "Prescott"

# one Gaussian row of a two-block input under both models, and the stepper's
# replay of one fixed 20-bin schedule: a fixed schedule, because the capped
# optimize path is chaotic in the gradient's last bits
CHILD = """
import ctypes, json
""" + inspect.getsource(corename) + """
import numpy as np
from usctransfer import ModelParams, PiecewiseConstantSchedule, SweepFixed, gaussian_row, objective
from usctransfer import superposition_initial, superposition_target

figures = []
for model in ("rabi", "rwa"):
    for record, _ in gaussian_row(0.04, [0.1, 0.3, 0.5], SweepFixed(alpha=0.6, beta=0.8), model):
        figures += [record.fidelity, record.leakage, record.peak_mean_photon]
params = ModelParams()
values = np.random.default_rng(0).uniform(0.0, 0.3, 40)
sched = PiecewiseConstantSchedule(0.0, 25.0 / 20, values[:20], values[20:])
initial, target = superposition_initial(0.6, 0.8, params), superposition_target(0.6, 0.8, params)
figures += [objective(sched, params, initial, target, rwa=rwa) for rwa in (False, True)]
print(json.dumps({"core": corename(), "figures": figures}))
"""


def run_child(coretype=None):
    """The child's figures and kernel, with ``OPENBLAS_CORETYPE`` set to ``coretype`` or unset."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_second_kernel_agrees_within_the_stated_bound():
    default = run_child()
    if default["core"] is None:
        pytest.skip("numpy's OpenBLAS does not report its kernel (no scipy_openblas_get_corename64_)")
    second = run_child(SECOND_KERNEL)
    if second["core"] == default["core"]:
        pytest.skip(f"OPENBLAS_CORETYPE={SECOND_KERNEL} left the kernel at {default['core']}")
    assert len(second["figures"]) == len(default["figures"]) == 20
    worst = max(abs(a - b) for a, b in zip(default["figures"], second["figures"]))
    assert worst <= KERNEL_BOUND, f"{second['core']} against {default['core']}: {worst:.2e}"
