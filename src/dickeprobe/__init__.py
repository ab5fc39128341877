"""Dicke-superradiant emission probes for atoms in 2D optical lattices.

Computes normalized emission peaks P / (N^2 P_single) for a catalog of
bosonic and fermionic lattice states, sudden-quench and adiabatic
transitions, classical-laser drive observables, and validates all closed
forms against an exact-diagonalization oracle on tiny lattices.
"""

from .classical import expected_sigma_z, metastable_population
from .correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
    mott_correlator,
    neel_correlator,
)
from .distributions import (
    MomentumDistribution,
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from .emission import coherent_amplitude, peak_curve, separable_peak
from .lattice import LatticeSpec, Mode

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "Mode",
    "MomentumDistribution",
    "Statistics",
    "bose_einstein",
    "bosonic_four_point",
    "coherent_amplitude",
    "dicke_ladder_factor",
    "expected_sigma_z",
    "fermi_dirac",
    "fermionic_four_point",
    "metallic",
    "metastable_population",
    "mott_correlator",
    "neel_correlator",
    "partial_condensation",
    "peak_curve",
    "separable_peak",
    "superfluid",
    "uniform",
]
