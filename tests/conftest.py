"""Shared fixtures for the expensive reference-point computations.

The reference operating point (inverse speed 0.04, peak coupling 0.3, cavity
decay 0.005) anchors the quantitative comparisons; its delay scan and
schedule optimization are computed once per session and reused.  Tests that
use them are marked ``slow``, so ``pytest -m "not slow"`` skips the costly
fixtures.
"""

import time

import pytest

from usctransfer import (
    ModelParams,
    OptimizationConfig,
    SweepFixed,
    calibrate_tau,
    optimize,
    superposition_initial,
    superposition_target,
)
from usctransfer.model import coupling_operator, drift_hamiltonian, number_operator

REF_T_INV = 0.04
REF_G0 = 0.3
REF_KAPPA = 0.005
SLOW_FIXTURES = {"reference_scan_rabi", "reference_scan_rwa", "reference_qoc"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def dense_generator(params, g1, g2):
    """K(g1, g2) assembled from the model operators, independent of the library builder."""
    return (
        drift_hamiltonian(params)
        + g1 * coupling_operator(1, params)
        + g2 * coupling_operator(2, params)
        - 0.5j * params.kappa * number_operator(params)
    )


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
        duration=1.0 / REF_T_INV, bounds=(0.0, REF_G0), bins=20, seed=7, restarts=5
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
