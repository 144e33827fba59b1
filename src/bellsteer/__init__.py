"""Two-qubit entanglement steering between distant atoms.

Simulates an always-on Ising-type coupling with switchable local driving and
compares two ways of preparing Bell states: timed constant-field (geometric)
switching and Lyapunov state feedback, including the LaSalle-set behavior of
the interaction-controlled loop.
"""

from .control import (
    ControlLaw,
    Geometric,
    Lyapunov,
    control_field,
    lyapunov_value,
)
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    TrajectoryMetadata,
    integrate,
    propagate_exact,
)
from .experiments import (
    ConfigError,
    OutputPaths,
    PRESET_NAMES,
    ScenarioConfig,
    SweepConfig,
    apply_axis,
    load_scenario,
    load_sweep,
    parse_config_text,
    preset_scenarios,
    run_preset,
    run_scenario,
    run_sweep,
    scenario_from_mapping,
    sweep_from_mapping,
    write_trajectory_csv,
)
from .metrics import (
    ConvergenceReport,
    PeakReport,
    concurrence,
    convergence_report,
    equator_state,
    lasalle_distance,
    peak_report,
)
from .model import (
    BASES,
    BELL,
    Basis,
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    Z_PRODUCT,
    bell_state,
    hamiltonians,
    subspace_populations,
)

__version__ = "0.1.0"

__all__ = [
    "BASES",
    "BELL",
    "Basis",
    "BellName",
    "ConfigError",
    "ControlLaw",
    "ConvergenceReport",
    "Geometric",
    "HamiltonianPair",
    "IntegrationError",
    "IntegratorConfig",
    "IntegratorStats",
    "Lyapunov",
    "ModelParams",
    "OutputPaths",
    "PRESET_NAMES",
    "Paradigm",
    "PeakReport",
    "ScenarioConfig",
    "SweepConfig",
    "Trajectory",
    "TrajectoryMetadata",
    "X_PRODUCT",
    "Z_PRODUCT",
    "apply_axis",
    "bell_state",
    "concurrence",
    "control_field",
    "convergence_report",
    "equator_state",
    "hamiltonians",
    "integrate",
    "lasalle_distance",
    "load_scenario",
    "load_sweep",
    "lyapunov_value",
    "parse_config_text",
    "peak_report",
    "preset_scenarios",
    "propagate_exact",
    "run_preset",
    "run_scenario",
    "run_sweep",
    "scenario_from_mapping",
    "subspace_populations",
    "sweep_from_mapping",
    "write_trajectory_csv",
]
