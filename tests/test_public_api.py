"""The exported names: each one resolves, and the package exports exactly these."""

import importlib

import pytest

import dickeprobe

MODULES = ["classical", "cli", "correlators", "distributions", "emission", "lattice", "oracle"]

PACKAGE_API = [
    "ChemicalPotentialError",
    "DriveParameters",
    "EmissionCurve",
    "LatticeSpec",
    "Mode",
    "MomentumDistribution",
    "ProbeGeometry",
    "Statistics",
    "adiabatic_peak",
    "adjacency_matrix",
    "bessel_envelope",
    "bose_einstein",
    "bosonic_four_point",
    "canonical_mode",
    "coherent_amplitude",
    "condensate_phase",
    "dicke_ladder_factor",
    "emission_curve",
    "expected_sigma_z",
    "fermi_dirac",
    "fermionic_four_point",
    "mean_excitations",
    "metallic",
    "metastable_population",
    "metastable_population_partial_condensation",
    "mode_grid",
    "mode_sub",
    "mott_correlator",
    "neel_correlator",
    "normalized_peak",
    "partial_condensation",
    "peak_curve",
    "phase_sum",
    "quench_peak",
    "separable_peak",
    "superfluid",
    "uniform",
]


def test_package_exports_exactly_the_public_api():
    assert sorted(dickeprobe.__all__) == PACKAGE_API
    assert len(set(dickeprobe.__all__)) == len(dickeprobe.__all__)


@pytest.mark.parametrize("name", ["dickeprobe"] + [f"dickeprobe.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_names_come_from_the_modules_that_define_them():
    modules = [importlib.import_module(f"dickeprobe.{m}") for m in MODULES]
    for name in dickeprobe.__all__:
        owners = [m for m in modules if name in m.__all__]
        assert owners and all(getattr(m, name) is getattr(dickeprobe, name) for m in owners)
