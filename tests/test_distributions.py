import numpy as np
import pytest
from scipy.optimize import brentq

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
from dickeprobe.lattice import LatticeSpec, Mode, energy_grid, mode_grid
from lattice_reference import mode_neg


def occupation_map(dist):
    """Helper: {mode: summed occupation} for evenness checks."""
    return {
        mode: sum(dist.occupation(mode, ch) for ch in range(dist.channels))
        for mode in mode_grid(LatticeSpec(L=dist.L))
    }


def assert_even(dist):
    occ = occupation_map(dist)
    for mode, value in occ.items():
        assert value == pytest.approx(occ[mode_neg(mode, dist.L)], abs=1e-12)


class TestContainer:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MomentumDistribution(Statistics.BOSE, -np.ones((1, 2, 2)), -4.0)

    def test_rejects_pauli_violation(self):
        with pytest.raises(ValueError):
            MomentumDistribution(Statistics.FERMI, np.full((2, 2, 2), 1.5), 12.0)

    def test_rejects_total_mismatch(self):
        with pytest.raises(ValueError):
            MomentumDistribution(Statistics.BOSE, np.ones((1, 2, 2)), 5.0)

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            MomentumDistribution(Statistics.FERMI, np.ones((1, 2, 2)), 4.0)

    def test_array_is_readonly(self):
        dist = uniform(LatticeSpec(L=2))
        with pytest.raises(ValueError):
            dist.occupations[0, 0, 0] = 5.0

    def test_shifted_occupation_sum(self):
        spec = LatticeSpec(L=4)
        dist = superfluid(spec)
        shifted = dist.shifted_occupation_sum(Mode(1, 0))
        # n(p - kappa) peaks where p = kappa
        from dickeprobe.lattice import mode_index

        i, j = mode_index(Mode(1, 0), 4)
        assert shifted[i, j] == spec.sites
        assert shifted.sum() == spec.sites


class TestSuperfluid:
    def test_definition(self):
        spec = LatticeSpec(L=10)
        dist = superfluid(spec)
        assert dist.occupation(Mode(0, 0)) == 100.0
        others = [dist.occupation(k) for k in mode_grid(spec) if k != Mode(0, 0)]
        assert all(v == 0.0 for v in others)
        assert dist.total() == spec.sites

    def test_small_lattice(self):
        assert superfluid(LatticeSpec(L=2)).occupation(Mode(0, 0)) == 4.0


class TestPartialCondensation:
    def test_superfluid_limit(self):
        spec = LatticeSpec(L=4)
        dist = partial_condensation(spec, spec.sites, 0)
        np.testing.assert_allclose(
            np.asarray(dist.occupations), np.asarray(superfluid(spec).occupations)
        )

    def test_uniform_limit(self):
        spec = LatticeSpec(L=4)
        dist = partial_condensation(spec, 0, spec.sites)
        assert np.allclose(np.asarray(dist.occupations), 1.0)

    def test_split(self):
        spec = LatticeSpec(L=100)
        dist = partial_condensation(spec, 5000, 5000)
        assert dist.occupation(Mode(0, 0)) == pytest.approx(5000.5)
        assert dist.occupation(Mode(7, -3)) == pytest.approx(0.5)

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            partial_condensation(LatticeSpec(L=4), 10, 10)
        with pytest.raises(ValueError):
            partial_condensation(LatticeSpec(L=4), -1, 17)

    def test_even(self):
        assert_even(partial_condensation(LatticeSpec(L=6), 20, 16))


class TestBoseEinstein:
    def test_single_mode_identity(self):
        # a mode with beta (E - mu) = ln 2 holds exactly one atom
        assert 1.0 / np.expm1(np.log(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_total_constraint(self):
        spec = LatticeSpec(L=100)
        dist = bose_einstein(spec, 1.0)
        assert dist.total() == pytest.approx(spec.sites, rel=1e-9)
        assert_even(dist)

    def test_mu_against_brentq(self):
        # independent root finder on the same occupation sum
        spec = LatticeSpec(L=10)
        beta = 0.7
        energies = energy_grid(spec)

        def residual(mu):
            return float((1.0 / np.expm1(beta * (energies - mu))).sum()) - spec.sites

        mu_ref = brentq(residual, energies.min() - 50.0, energies.min() - 1e-9, xtol=1e-14)
        dist = bose_einstein(spec, beta)
        assert dist.chemical_potential == pytest.approx(mu_ref, abs=1e-8)

    def test_high_temperature_is_uniform(self):
        dist = bose_einstein(LatticeSpec(L=100), 1e-4)
        occ = np.asarray(dist.occupations)
        # occupation spread ~ 2 beta J: measured ratio 1.0004 at beta J = 1e-4
        assert occ.max() / occ.min() < 1.001

    def test_condensation_at_low_temperature(self):
        for L in (10, 100):
            spec = LatticeSpec(L=L)
            dist = bose_einstein(spec, 1.0e4)
            assert dist.occupation(Mode(0, 0)) >= 0.99 * spec.sites

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            bose_einstein(LatticeSpec(L=4), 0.0)
        with pytest.raises(ValueError):
            bose_einstein(LatticeSpec(L=4), -1.0)


class TestFermiDirac:
    def test_half_filling_symmetry(self):
        # particle-hole pairs k, k+(pi,pi) have opposite energy, so mu = 0
        for beta in (0.01, 1.0, 100.0):
            spec = LatticeSpec(L=10)
            dist = fermi_dirac(spec, beta)
            assert abs(dist.chemical_potential) < 1e-9
            assert dist.total() == pytest.approx(spec.sites, rel=1e-9)

    def test_range(self):
        dist = fermi_dirac(LatticeSpec(L=10), 5.0)
        occ = np.asarray(dist.occupations)
        assert occ.min() >= 0.0
        assert occ.max() <= 1.0 + 1e-12

    def test_zero_temperature_limit_is_metallic(self):
        spec = LatticeSpec(L=10)
        dist = fermi_dirac(spec, 1.0e4)
        met = metallic(spec)
        energies = np.abs(energy_grid(spec))
        mask = energies > 1e-9  # diamond-edge modes sit exactly at E = 0
        diff = np.asarray(dist.occupations)[0][mask] - np.asarray(met.occupations)[0][mask]
        assert np.abs(diff).max() < 1e-9

    def test_channels_identical(self):
        dist = fermi_dirac(LatticeSpec(L=6), 2.0)
        occ = np.asarray(dist.occupations)
        np.testing.assert_array_equal(occ[0], occ[1])

    def test_rejects_overfilling(self):
        spec = LatticeSpec(L=4)
        with pytest.raises(ValueError):
            fermi_dirac(spec, 1.0, total=2 * spec.sites + 1)

    def test_full_band(self):
        spec = LatticeSpec(L=4)
        dist = fermi_dirac(spec, 1.0, total=2 * spec.sites)
        assert np.allclose(np.asarray(dist.occupations), 1.0)

    def test_even(self):
        assert_even(fermi_dirac(LatticeSpec(L=6), 3.0))


class TestMetallic:
    def test_membership(self):
        spec = LatticeSpec(L=100)
        dist = metallic(spec)
        assert dist.occupation(Mode(0, 0), 0) == 1.0
        assert dist.occupation(Mode(50, 0), 0) == 0.0  # |kx|+|ky| = pi/ell exactly

    def test_L4_enumeration(self):
        spec = LatticeSpec(L=4)
        dist = metallic(spec)
        occupied = [k for k in mode_grid(spec) if dist.occupation(k, 0) == 1.0]
        assert sorted(occupied) == sorted(
            [Mode(0, 0), Mode(1, 0), Mode(-1, 0), Mode(0, 1), Mode(0, -1)]
        )
        assert dist.total() == spec.sites - 2 * (spec.L - 1)

    def test_total_formula(self):
        for L in (2, 4, 10, 100):
            spec = LatticeSpec(L=L)
            assert metallic(spec).total() == spec.sites - 2 * (L - 1)

    def test_even(self):
        assert_even(metallic(LatticeSpec(L=6)))


class TestUniform:
    def test_bose(self):
        dist = uniform(LatticeSpec(L=4))
        assert np.allclose(np.asarray(dist.occupations), 1.0)
        assert dist.total() == 16

    def test_fermi(self):
        dist = uniform(LatticeSpec(L=4), Statistics.FERMI)
        assert np.allclose(np.asarray(dist.occupations), 0.5)
        assert dist.total() == 16
