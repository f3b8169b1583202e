"""Shared fixtures for the expensive reference-point computations.

The reference operating point (inverse speed 0.04, peak coupling 0.3, cavity
decay 0.005) anchors the quantitative comparisons; its delay scan and
schedule optimization are computed once per session and reused.  Tests that
use them are marked ``slow``, so ``pytest -m "not slow"`` skips the costly
fixtures.
"""

import ctypes
import dataclasses
import time

import numpy as np
import pytest

from usctransfer import (
    ModelParams,
    OptimizationConfig,
    PiecewiseConstantSchedule,
    PropagationOptions,
    SweepFixed,
    calibrate_tau,
    optimize,
    propagate,
    superposition_initial,
    superposition_target,
)
from usctransfer.model import coupling_operator, drift_hamiltonian, number_operator

REF_T_INV = 0.04
REF_G0 = 0.3
REF_KAPPA = 0.005
# the largest change of F, leakage or the photon peak that a second OpenBLAS kernel may make (see test_kernels.py)
KERNEL_BOUND = 1e-12
SLOW_FIXTURES = {"reference_scan_rabi", "reference_scan_rwa", "reference_qoc"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def corename():
    """Name of the kernel of the first loaded OpenBLAS that reports one, or None."""
    for line in open("/proc/self/maps"):
        path = line.split()[-1]
        if "openblas" in path.lower() and path.startswith("/"):
            try:
                get = ctypes.CDLL(path).scipy_openblas_get_corename64_
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def dense_generator(params, g1, g2, rwa=False):
    """K(g1, g2) assembled from the model operators, independent of the library builder."""
    return (
        drift_hamiltonian(params)
        + g1 * coupling_operator(1, params, rwa=rwa)
        + g2 * coupling_operator(2, params, rwa=rwa)
        - 0.5j * params.kappa * number_operator(params)
    )


def replay(psi0, sched, params, rwa=False):
    """A piecewise-constant schedule replayed by the stepper, one step per bin."""
    return propagate(psi0, sched, params, (sched.t_start, sched.t_end), PropagationOptions(dt=sched.dt), rwa=rwa)


def reciprocal_runs(params, alpha, beta):
    """(params, initial, target) of a run and of its reciprocal.

    K(t) is complex symmetric (K0 diagonal, V1 and V2 real symmetric), so
    the transpose of a propagator is the propagator of the time-reversed
    schedule, cavity loss included, and exchanging the qubits swaps V1 with
    V2 and eps1 with eps2.  Together they give F(alpha, beta; g1(t), g2(t);
    eps1, eps2) = F(alpha, beta*; g2(T - t), g1(T - t); eps2, eps1): the
    second triple, run under the exchanged, time-reversed schedule.
    """
    exchanged = dataclasses.replace(params, eps1=params.eps2, eps2=params.eps1)
    return [(p, superposition_initial(alpha, b, p), superposition_target(alpha, b, p))
            for p, b in ((params, beta), (exchanged, np.conj(beta)))]


def reciprocal_schedule(sched):
    """The piecewise schedule with the couplings exchanged and the bins reversed."""
    return PiecewiseConstantSchedule(sched.t_start, sched.dt, sched.values2[::-1], sched.values1[::-1])


def reference_fixed(**overrides) -> SweepFixed:
    params = ModelParams(kappa=overrides.pop("kappa", REF_KAPPA), n_max=overrides.pop("n_max", 8))
    return SweepFixed(params=params, **overrides)


@pytest.fixture(scope="session")
def reference_scan_rabi():
    """Delay calibration scan at the reference point, full Rabi model."""
    start = time.perf_counter()
    best, records = calibrate_tau(REF_T_INV, REF_G0, reference_fixed(), model="rabi")
    return {"best": best, "records": records, "wall": time.perf_counter() - start}


@pytest.fixture(scope="session")
def reference_scan_rwa():
    """Same delay scan with the rotating-wave model."""
    best, records = calibrate_tau(REF_T_INV, REF_G0, reference_fixed(), model="rwa")
    return {"best": best, "records": records}


@pytest.fixture(scope="session")
def reference_qoc():
    """Schedule optimization at the reference point: 20 bins over T = 25."""
    params = ModelParams(kappa=REF_KAPPA, n_max=8)
    initial = superposition_initial(0.0, 1.0, params)
    target = superposition_target(0.0, 1.0, params)
    config = OptimizationConfig(
        duration=1.0 / REF_T_INV, g0=REF_G0, bins=20, seed=7, restarts=5
    )
    start = time.perf_counter()
    result = optimize(config, params, initial, target)
    return {
        "result": result,
        "config": config,
        "params": params,
        "initial": initial,
        "target": target,
        "wall": time.perf_counter() - start,
    }
