"""State transfer between two qubits through a lossy cavity in the USC regime.

Simulates the counterintuitive Gaussian (STIRAP-like) protocol under the
full Rabi Hamiltonian with cavity loss, and improves on it with
piecewise-constant optimal control of the two coupling schedules.
"""

from .model import (
    ModelParams,
    basis_state,
    conserved_blocks,
    excitation_operator,
    flat_index,
    generators,
    parity_operator,
    superposition_initial,
    superposition_target,
)
from .pulses import (
    GaussianPair,
    PiecewiseConstantSchedule,
    effective_duration,
    integration_window,
)
from .dynamics import (
    IntegrationError,
    PropagationOptions,
    Trajectory,
    propagate,
)
from .metrics import (
    RunRecord,
    cavity_indices,
    leakage,
    populations,
    transfer_efficiency,
)
from .qoc import (
    OptimizationConfig,
    OptimizationResult,
    finite_difference_gradient,
    gradient_check,
    objective,
    objective_and_gradient,
    optimize,
)
from .sweep import (
    SweepFixed,
    SweepGrid,
    calibrate_tau,
    gaussian_row,
    run_point,
    run_sweep,
)

__version__ = "0.1.0"
