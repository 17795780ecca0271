"""Deuteron VQE workbench: oscillator-basis Hamiltonian, one-hot ansatz,
trapped-ion compilation, noisy shot simulation and zero-noise extrapolation."""

__version__ = "0.1.0"

from .ansatz import (
    AngleConvention,
    HypersphericalParams,
    RESOLVED_CONVENTION,
    amplitudes,
    build_ansatz_circuit,
    energy_expectation_exact,
    optimal_parameters,
)
from .circuits import ConfigError, Gate, LogicalCircuit, NativeCircuit
from .compiler import optimize_native, transpile, unitary_equivalent, unitary_of
from .driver import (
    RunConfig,
    ScanSpec,
    convergence_report,
    fit_quadratic_minimum,
    landscape_scan,
    vqe_run,
    zne_energy,
)
from .estimator import (
    ZnePoint,
    ZneResult,
    ZneSeries,
    energy_estimate,
    measurement_settings,
    richardson_extrapolate,
    spam_correct,
)
from .hamiltonian import (
    EftConfig,
    OscillatorHamiltonian,
    PauliHamiltonian,
    build_oscillator_hamiltonian,
    exact_ground_energy,
    jordan_wigner,
)
from .simulator import (
    FoldSpec,
    NoiseModel,
    fold_circuit,
    run_density,
    sample_shots_noisy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
