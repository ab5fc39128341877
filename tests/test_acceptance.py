"""Acceptance suite: one printed pass/fail line per criterion, stated tolerances."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dickeprobe.classical import expected_sigma_z, metastable_population
from dickeprobe.cli import main
from dickeprobe.correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
)
from dickeprobe.distributions import (
    MomentumDistribution,
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from dickeprobe.emission import coherent_amplitude, peak_curve, separable_peak
from dickeprobe.lattice import LatticeSpec, Mode, mode_grid
from dickeprobe.oracle import (
    FockBasis,
    classical_sequence_sigma_z,
    correlator_cases,
    exact_peak_curve,
    exciton_matrix,
    four_point_tensor,
    momentum_fock_state,
    mott_state,
    neel_state,
    orbital_state,
    _momentum_case,
)
from lattice_reference import bessel_envelope

KAPPA = Mode(1, 1)
GRID = np.linspace(0.0, 100.0, 500)
# the four bosons of the 2 x 2 oracle basis condensed at k = 0, as momentum_fock_state takes them
CONDENSATE = {(Mode(0, 0), 0): 4}


def report(criterion: int, detail: str, deviation: float, tolerance: float) -> None:
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(
        f"criterion {criterion} {status}: {detail} "
        f"(max deviation {deviation:.3e}, tolerance {tolerance:.1e})",
        flush=True,
    )
    assert deviation <= tolerance, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def uniform_curve(spec100):
    return peak_curve(uniform(spec100), KAPPA, GRID, spec100)


@pytest.fixture(scope="module")
def envelope_first_zero(spec100):
    # refine the first root of the uniform dephasing envelope
    dist = uniform(spec100)
    result = minimize_scalar(
        lambda t: coherent_amplitude(dist, KAPPA, t, spec100).real ** 2,
        bounds=(60.0, 90.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(result.x)


def test_criterion_1_full_superradiance_of_coherent_states(spec100, tmp_path):
    sf = peak_curve(superfluid(spec100), KAPPA, GRID, spec100)
    dev = float(np.abs(sf - 1.0).max())
    # the slow ramp ends in the superfluid: the CLI writes its curve on GRID
    out = tmp_path / "adiabatic.csv"
    argv = ["adiabatic", "--statistics", "bose", "--L", "100", "--kappa=1,1"]
    assert main([*argv, "-o", str(out)]) == 0
    adiabatic = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    dev = max(dev, float(np.abs(adiabatic - 1.0).max()))
    # separable unit-filling peaks are exactly 1 in the forward direction
    exact_sep = separable_peak(np.ones((spec100.L, spec100.L)), KAPPA, KAPPA)
    dev_exact = 0.0 if exact_sep == 1.0 else abs(exact_sep - 1.0)
    for statistics, state in (("bose", "mott"), ("fermi", "neel")):
        out = tmp_path / f"{state}.csv"
        argv = ["curve", "--statistics", statistics, "--state", state, "--L", "100"]
        assert main([*argv, "--kappa=1,1", "--steps", "10", "-o", str(out)]) == 0
        frozen = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        dev_exact = max(dev_exact, float(np.abs(frozen - 1.0).max()))
    report(
        1,
        "superfluid and bose-adiabatic curves pinned at 1; separable peaks exactly 1",
        max(dev, dev_exact),
        1e-12,
    )


def test_criterion_2_uniform_curve_bessel_envelope(spec100, uniform_curve, envelope_first_zero):
    envelope = bessel_envelope(KAPPA, GRID, spec100) ** 2
    dev = float(np.abs(uniform_curve - envelope).max())
    report(2, "uniform curve vs squared Bessel product on [0, 100]", dev, 1e-2)
    report(
        2,
        f"first zero of the uniform curve at {envelope_first_zero:.3f}",
        abs(envelope_first_zero - 76.5),
        0.5,
    )


def test_criterion_3_partial_condensation_plateau(spec100, envelope_first_zero):
    N = spec100.sites
    dist = partial_condensation(spec100, N / 2, N / 2)
    value = peak_curve(dist, KAPPA, [envelope_first_zero], spec100)[0]
    report(3, "half-condensed curve at the envelope zero vs 1/4", abs(value - 0.25), 1e-2)


def test_criterion_4_high_temperature_bose_limit(spec100, uniform_curve):
    thermal = peak_curve(bose_einstein(spec100, 0.01), KAPPA, GRID, spec100)
    dev = float(np.abs(thermal - uniform_curve).max())
    report(4, "Bose-Einstein curve at inverse temperature 0.01/J vs uniform", dev, 1e-2)


def test_criterion_5_fermionic_curves(spec100, uniform_curve):
    dev = float(np.abs(peak_curve(metallic(spec100), KAPPA, GRID, spec100) - uniform_curve).max())
    for beta in (0.01, 1.0, 100.0):
        curve = peak_curve(fermi_dirac(spec100, beta), KAPPA, GRID, spec100)
        dev = max(dev, float(np.abs(curve - uniform_curve).max()))
    report(5, "metallic and Fermi-Dirac curves vs the uniform bosonic curve", dev, 1e-2)

    met = metallic(spec100)
    shifted = MomentumDistribution(
        Statistics.FERMI,
        np.roll(np.asarray(met.occupations), shift=(0, 50, 50), axis=(0, 1, 2)),
        met.total_target,
    )
    shift_dev = float(
        np.abs(
            peak_curve(met, KAPPA, GRID, spec100)
            - peak_curve(shifted, KAPPA, GRID, spec100)
        ).max()
    )
    report(5, "diamond-shift invariance of the metallic curve", shift_dev, 1e-12)


def test_criterion_6_quench_vs_adiabatic(spec100, uniform_curve):
    # quench: the uniform state; slow ramp: the superfluid (bose), uniform (fermi)
    quench = uniform_curve
    adiabatic = peak_curve(superfluid(spec100), KAPPA, GRID, spec100)
    split = float((adiabatic - quench).max())
    # report as deviation from the required discrimination margin
    report(6, f"bose quench vs adiabatic split {split:.3f} > 0.5", max(0.0, 0.5 - split), 0.0)
    fermi_a = peak_curve(uniform(spec100, Statistics.FERMI), KAPPA, GRID, spec100)
    report(
        6,
        "fermi quench and adiabatic curves identical",
        float(np.abs(quench - fermi_a).max()),
        1e-12,
    )


@pytest.fixture(scope="module")
def oracle_setup(spec2):
    bose = FockBasis(spec2, Statistics.BOSE, spec2.sites)
    fermi = FockBasis(spec2, Statistics.FERMI, spec2.sites)
    return bose, fermi


def test_criterion_7a_dicke_ladder(spec2, oracle_setup):
    bose, fermi = oracle_setup
    dev = 0.0
    for basis, ground in ((bose, mott_state(bose)), (fermi, neel_state(fermi))):
        plus = exciton_matrix(basis, Mode(1, 0))
        v, expected = ground, 1.0
        for n in range(3):
            v = plus @ v
            expected *= dicke_ladder_factor(spec2.sites, n)
            dev = max(dev, abs(np.linalg.norm(v) - expected) / expected)
    report(7, "(a) collective ladder norms vs matrix elements", dev, 1e-10)


def test_criterion_7b_four_point_formulas(spec2, oracle_setup):
    bose, fermi = oracle_setup
    grid = mode_grid(spec2)
    bose_cases = [
        (momentum_fock_state(bose, CONDENSATE), superfluid(spec2)),
        _momentum_case(bose, {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1}),
    ]
    fermi_state, fermi_dist = _momentum_case(
        fermi,
        {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 0), 1): 1, (Mode(0, 1), 1): 1},
    )
    # (k, q, kin, kout) on the first four axes, spins on the last two:
    # four_point_tensor order
    modes = np.array(grid)
    axes = np.ix_(*[range(len(grid))] * 4, [0], [0])
    queries = [Mode(modes[i, 0], modes[i, 1]) for i in axes[:4]]
    dev = 0.0
    for state, dist in bose_cases:
        tensor = four_point_tensor(state, bose)
        dev = max(dev, np.abs(tensor - bosonic_four_point(dist, *queries)).max())
    tensor = four_point_tensor(fermi_state, fermi)
    spins = np.arange(2)
    formula = fermionic_four_point(fermi_dist, *queries, spins[:, None], spins)
    dev = max(dev, np.abs(tensor - formula).max())
    report(7, "(b) four-point formulas vs exact expectations", dev, 1e-10)


def test_criterion_7c_superfluid_oracle_peak(spec2, oracle_setup):
    bose, _ = oracle_setup
    dts = np.linspace(0.0, 8.0, 17)
    condensate = momentum_fock_state(bose, CONDENSATE)
    dev = 0.0
    for kappa in (Mode(1, 0), Mode(1, 1)):
        curve = exact_peak_curve(condensate, kappa, kappa, dts, bose, spec2)
        dev = max(dev, float(np.abs(curve - 1.0).max()))
    report(7, "(c) superfluid oracle peak constant at 1", dev, 1e-8)


def test_criterion_7d_quench_oracle(spec2, oracle_setup):
    bose, _ = oracle_setup
    dts = np.linspace(0.0, 6.0, 13)
    dev = 0.0
    for kappa in (Mode(1, 0), Mode(1, 1)):
        curve = exact_peak_curve(mott_state(bose), kappa, kappa, dts, bose, spec2)
        target = peak_curve(uniform(spec2), kappa, dts, spec2)
        dev = max(dev, float(np.abs(curve - target).max()))
    report(7, "(d) quench oracle amplitude vs dephasing envelope", dev, 1e-8)


def test_criterion_7e_vanishing_correlator_cases(spec2, oracle_setup, rng):
    bose, fermi = oracle_setup
    spec_sep = LatticeSpec(L=2, J=0.0, U=0.8)
    # one orbital row per atom, each on one site: counts[mu] bosons on site mu,
    # and one fermion per site with a random spin direction
    counts = rng.multinomial(4, [0.25] * 4)
    bose_state = orbital_state(bose, np.repeat(np.eye(4), counts, axis=0)[:, :, None])
    fermi_orbitals = np.zeros((4, 4, 2), dtype=complex)
    for site in range(4):
        theta, chi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        fermi_orbitals[site, site] = np.cos(theta / 2), np.exp(1j * chi) * np.sin(theta / 2)
    fermi_state = orbital_state(fermi, fermi_orbitals)
    dev = 0.0
    control = 0.0
    for basis, state in ((bose, bose_state), (fermi, fermi_state)):
        cases = correlator_cases(state, basis, spec_sep, 0.4, 1.1)
        for mu in range(4):
            for nu in range(4):
                for rho in range(4):
                    for eta in range(4):
                        # every spin tuple: one for bosons, 16 for fermions
                        value = np.abs(cases[mu, nu, rho, eta]).max()
                        if mu == nu and rho == eta:
                            control = max(control, value)
                        else:
                            dev = max(dev, value)
    assert control > 0.1  # the surviving case is nonzero, the sweep is not vacuous
    report(7, "(e) all declared-zero correlator index cases vanish", dev, 1e-12)


def test_criterion_8_classical_drive(spec2, spec100, oracle_setup):
    # perfect reversal at dt = 0 and at J = 0
    dist = uniform(spec100)
    dev = abs(metastable_population(dist, coherent_amplitude(dist, KAPPA, 0.0, spec100), 0.01))
    frozen = LatticeSpec(L=100, J=0.0)
    for t in (0.0, 5.0, 60.0):
        amplitude = coherent_amplitude(uniform(frozen), KAPPA, t, frozen)
        dev = max(dev, abs(metastable_population(dist, amplitude, 0.01)))
    report(8, "perfect reversal gives zero metastable population", dev, 1e-12)

    # small-angle agreement between the exact expectation and the quadratic form
    alpha = 0.01
    rel_dev = 0.0
    for t in (0.5, 2.0, 7.0, 20.0):
        amplitude = coherent_amplitude(dist, KAPPA, t, spec100)
        exact = expected_sigma_z(dist, amplitude, alpha, -alpha) + spec100.sites / 2
        approx = metastable_population(dist, amplitude, alpha)
        rel_dev = max(rel_dev, abs(exact - approx) / abs(exact))
    report(8, "small-angle shifted expectation vs metastable population", rel_dev, 1e-3)

    # oracle simulation of the full sequence
    bose, _ = oracle_setup
    dev = 0.0
    cases = [
        (momentum_fock_state(bose, CONDENSATE), superfluid(spec2)),
        (mott_state(bose), uniform(spec2)),
    ]
    for angles in ((0.2, -0.2), (0.3, 0.5)):
        for t in (0.0, 0.7, 1.4):
            for state, dist2 in cases:
                exact = classical_sequence_sigma_z(state, bose, spec2, *angles, Mode(1, 1), t)
                amplitude = coherent_amplitude(dist2, Mode(1, 1), t, spec2)
                dev = max(dev, abs(exact - expected_sigma_z(dist2, amplitude, *angles)))
    report(8, "oracle pulse sequence vs closed-form expectation", dev, 1e-8)


def test_criterion_9_kernel_properties(spec100, rng):
    spec10 = LatticeSpec(L=10)
    bound_dev = 0.0
    zero_dev = 0.0
    for draw in range(100):
        occ = rng.uniform(0.0, 1.0, size=(1, 10, 10))
        occ *= spec10.sites / occ.sum()
        dist = MomentumDistribution(Statistics.BOSE, occ, float(spec10.sites))
        kappa = Mode(int(rng.integers(-4, 6)), int(rng.integers(-4, 6)))
        for t in rng.uniform(0.0, 100.0, size=3):
            bound_dev = max(
                bound_dev, abs(coherent_amplitude(dist, kappa, t, spec10)) - 1.0
            )
        zero_dev = max(zero_dev, abs(coherent_amplitude(dist, kappa, 0.0, spec10) - 1.0))
    report(9, "|C| <= 1 over 100 random admissible distributions", max(0.0, bound_dev), 1e-9)
    report(9, "C(0) = 1 over the random draws", zero_dev, 1e-12)

    im_dev = 0.0
    for kappa in (Mode(1, 1), Mode(5, 0), Mode(17, -8), Mode(50, 50)):
        for t in (0.3, 7.0, 42.0, 99.0):
            C = coherent_amplitude(uniform(spec100), kappa, t, spec100)
            im_dev = max(im_dev, abs(C.imag))
    report(9, "uniform-weight amplitude is real", im_dev, 1e-12)
