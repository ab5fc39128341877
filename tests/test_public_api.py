"""The exported names: each one resolves, and the package and every module export exactly these."""

import importlib

import pytest

import dickeprobe

MODULES = ["classical", "cli", "correlators", "distributions", "emission", "lattice", "oracle"]

PACKAGE_API = [
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

MODULE_API = {
    "classical": ["expected_sigma_z", "metastable_population"],
    "cli": ["build_parser", "entrypoint", "main"],
    "correlators": [
        "bosonic_four_point",
        "dicke_ladder_factor",
        "fermionic_four_point",
        "mott_correlator",
        "neel_correlator",
    ],
    "distributions": [
        "MomentumDistribution",
        "Statistics",
        "bose_einstein",
        "fermi_dirac",
        "metallic",
        "partial_condensation",
        "superfluid",
        "uniform",
    ],
    "emission": ["coherent_amplitude", "peak_curve", "separable_peak"],
    "lattice": [
        "LatticeSpec",
        "Mode",
        "adjacency_matrix",
        "canonical_mode",
        "dephasing_rates",
        "mode_grid",
        "mode_index",
        "mode_sub",
        "site_coordinates",
        "validate_mode",
    ],
}

ORACLE_API = [
    "BasisSizeError",
    "CheckResult",
    "EXCITED",
    "FockBasis",
    "GROUND",
    "Propagator",
    "build_lattice_hamiltonian",
    "classical_sequence_sigma_z",
    "correlator_cases",
    "exact_peak_curve",
    "exciton_matrix",
    "four_point_tensor",
    "momentum_fock_state",
    "mott_state",
    "neel_state",
    "orbital_state",
    "separable_deviation",
    "sigma_x_matrix",
    "sigma_z_diagonal",
    "superfluid_state",
    "verification_suite",
]


def test_package_exports_exactly_the_public_api():
    assert sorted(dickeprobe.__all__) == PACKAGE_API
    assert len(set(dickeprobe.__all__)) == len(dickeprobe.__all__)


def test_oracle_exports_exactly_its_api():
    oracle = importlib.import_module("dickeprobe.oracle")
    assert sorted(oracle.__all__) == ORACLE_API
    assert len(set(oracle.__all__)) == len(oracle.__all__)


@pytest.mark.parametrize("name", sorted(MODULE_API))
def test_module_exports_exactly_its_api(name):
    module = importlib.import_module(f"dickeprobe.{name}")
    assert sorted(module.__all__) == MODULE_API[name]
    assert len(set(module.__all__)) == len(module.__all__)


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
