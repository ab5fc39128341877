"""Dicke-superradiant emission probes for atoms in 2D optical lattices.

Computes normalized emission peaks P / (N^2 P_single) for a catalog of
bosonic and fermionic lattice states, sudden-quench and adiabatic
transitions, classical-laser drive observables, and validates all closed
forms against an exact-diagonalization oracle on tiny lattices.
"""

from .classical import (
    DriveParameters,
    expected_sigma_z,
    mean_excitations,
    metastable_population,
)
from .correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
    mott_correlator,
    neel_correlator,
)
from .distributions import (
    ChemicalPotentialError,
    MomentumDistribution,
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from .emission import (
    ProbeGeometry,
    adiabatic_peak,
    coherent_amplitude,
    peak_curve,
    phase_sum,
    quench_peak,
    separable_peak,
)
from .lattice import (
    LatticeSpec,
    Mode,
    adjacency_matrix,
    canonical_mode,
    mode_grid,
    mode_sub,
)

__version__ = "0.1.0"

__all__ = [
    "ChemicalPotentialError",
    "DriveParameters",
    "LatticeSpec",
    "Mode",
    "MomentumDistribution",
    "ProbeGeometry",
    "Statistics",
    "adiabatic_peak",
    "adjacency_matrix",
    "bose_einstein",
    "bosonic_four_point",
    "canonical_mode",
    "coherent_amplitude",
    "dicke_ladder_factor",
    "expected_sigma_z",
    "fermi_dirac",
    "fermionic_four_point",
    "mean_excitations",
    "metallic",
    "metastable_population",
    "mode_grid",
    "mode_sub",
    "mott_correlator",
    "neel_correlator",
    "partial_condensation",
    "peak_curve",
    "phase_sum",
    "quench_peak",
    "separable_peak",
    "superfluid",
    "uniform",
]
