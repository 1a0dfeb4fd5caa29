"""Numerical laboratory for nearly singular superconducting circuits.

The package cross-checks the classical and quantum reduction routes of a
single-loop circuit whose parasitic capacitance makes the junction mode
nearly singular: consistency-equation solving and effective potentials,
Born-Oppenheimer spectra of the regularized two-mode system, compact versus
extended quantization, slow-manifold dynamics, and lossless admittance fits.
"""

from .constants import PhysicalConstants, get_constants
from .errors import (
    CircadiaError,
    ConvergenceError,
    PhysicalRegimeError,
    StructureMismatchError,
    UnresolvedClusterError,
    ValidationError,
)
from .params import (
    DerivedScales,
    ReducedCircuit,
    SICircuit,
    beta_of,
    load_circuit,
    reduce,
)
from .potentials import (
    BiasedCosine,
    ClassificationReport,
    Cosine,
    Custom,
    PolynomialEven,
    PotentialModel,
    classify_asymptotics,
)
from .reduction import (
    BranchSolution,
    EffectivePotential,
    branch_table,
    crosscheck_bases,
    effective_potential,
    invertibility_threshold,
    solve_branch_compact,
    solve_branch_extended,
    solve_consistency,
)
from .dynamics import (
    ShadowComparison,
    TrajectoryRecord,
    integrate,
    manifold_eta,
    shadow_reduced_dynamics,
    slow_manifold_residual,
)
from .foster import (
    FitReport,
    FosterModel,
    eval_admittance,
    fit_foster,
    reactance_slope,
    read_admittance_csv,
)
from .sweeps import SweepTable

__version__ = "0.1.0"

__all__ = [
    "BOTable",
    "BiasedCosine",
    "BranchSolution",
    "CircadiaError",
    "ClassificationReport",
    "ConvergenceError",
    "Cosine",
    "Custom",
    "DerivedScales",
    "EffectivePotential",
    "FitReport",
    "FosterModel",
    "HamiltonianSpec",
    "NaiveAdiabaticSpectrum",
    "PhysicalConstants",
    "PhysicalRegimeError",
    "PolynomialEven",
    "PotentialModel",
    "ReducedCircuit",
    "SICircuit",
    "ShadowComparison",
    "SpectrumResult",
    "StructureMismatchError",
    "SweepTable",
    "TrajectoryRecord",
    "TransmonComparison",
    "UnresolvedClusterError",
    "ValidationError",
    "beta_of",
    "bo_effective_potential",
    "bo_fast_ground",
    "box_level_spacings",
    "branch_table",
    "classify_asymptotics",
    "crosscheck_bases",
    "eigenvalues_in_window",
    "effective_potential",
    "eval_admittance",
    "fit_foster",
    "get_constants",
    "integrate",
    "invertibility_threshold",
    "load_circuit",
    "lowest_eigenvalues",
    "manifold_eta",
    "naive_compact_adiabatic",
    "phase_grid_spectrum",
    "reactance_slope",
    "read_admittance_csv",
    "reduce",
    "shadow_reduced_dynamics",
    "slow_manifold_residual",
    "solve_branch_compact",
    "solve_branch_extended",
    "solve_consistency",
    "spectrum_vs_kappa",
    "transmon_limit_check",
    "__version__",
]

# The spectral solvers load scipy.linalg and scipy.sparse.linalg, which cost
# most of a start-up; circadia.spectra is imported on first use of one of
# its names (PEP 562), so the routes that never diagonalize skip it. Its
# names are those of __all__ that the imports above leave unbound.
_SPECTRA_NAMES = frozenset(__all__) - set(globals())


def __getattr__(name: str):
    if name in _SPECTRA_NAMES:
        from . import spectra
        value = getattr(spectra, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SPECTRA_NAMES)
