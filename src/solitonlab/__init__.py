"""solitonlab: 1D spectral laboratory for soliton transmission through potentials.

Core pieces:

* :mod:`solitonlab.grid`         periodic grid, fields, norms, transforms
* :mod:`solitonlab.potentials`   potential catalog and admissibility
* :mod:`solitonlab.scattering`   frequency-domain solutions, T/R, bound states
* :mod:`solitonlab.propagation`  split-step evolution and observers
* :mod:`solitonlab.experiments`  three-phase transmission runs and scaling study
* :mod:`solitonlab.cli`          command-line front end
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConfigError,
    InvalidRunError,
    NumericalBreakdownError,
    SolitonLabError,
)
from .grid import Field, Grid, inner_product, l2_norm, lp_norm, make_grid
from .potentials import AdmissibilityReport, PotentialSpec, check_admissibility, sample_potential
from .propagation import SolitonParams, StepperConfig, energy, evolve, soliton, step
from .scattering import (
    BoundState,
    JostSolution,
    ScatteringCoefficients,
    bound_states,
    detect_resonance,
    jost,
    project,
    scattering_table,
    wronskian,
)
from .experiments import (
    ExperimentConfig,
    PhaseTimes,
    RunReport,
    ScalingResult,
    lemma_error_check,
    phase_times,
    scaling_study,
    transmission_run,
)

__all__ = [
    "__version__",
    "SolitonLabError", "ConfigError", "AccuracyError", "InvalidRunError",
    "NumericalBreakdownError",
    "Grid", "Field", "make_grid", "l2_norm", "lp_norm", "inner_product",
    "PotentialSpec", "AdmissibilityReport", "sample_potential", "check_admissibility",
    "JostSolution", "ScatteringCoefficients", "BoundState", "jost", "wronskian",
    "detect_resonance", "scattering_table", "bound_states",
    "project",
    "SolitonParams", "StepperConfig", "soliton", "step", "evolve", "energy",
    "ExperimentConfig", "PhaseTimes", "RunReport", "ScalingResult", "phase_times",
    "lemma_error_check", "transmission_run", "scaling_study",
]
