import numpy as np
import pytest

from dickeprobe.classical import expected_sigma_z, mean_excitations, metastable_population
from dickeprobe.distributions import (
    bose_einstein,
    metallic,
    superfluid,
    uniform,
)
from dickeprobe.emission import coherent_amplitude
from dickeprobe.lattice import LatticeSpec, Mode


def sigma_z(dist, rotation_in, rotation_out, kappa, dt, spec):
    return expected_sigma_z(
        dist, coherent_amplitude(dist, kappa, dt, spec), rotation_in, rotation_out
    )


def n_meta(dist, nbar, kappa, dt, spec):
    return metastable_population(nbar, coherent_amplitude(dist, kappa, dt, spec))


class TestExpectedSigmaZ:
    def test_identity_rotations(self):
        spec = LatticeSpec(L=10)
        value = sigma_z(uniform(spec), 0.0, 0.0, Mode(1, 1), 3.7, spec)
        assert value == pytest.approx(-spec.sites / 2)

    def test_perfect_reversal_at_zero_wait(self):
        spec = LatticeSpec(L=10)
        for dist in (uniform(spec), superfluid(spec), bose_einstein(spec, 1.0)):
            for alpha in (0.1, 0.8, 2.0):
                assert sigma_z(dist, alpha, -alpha, Mode(2, 1), 0.0, spec) == pytest.approx(
                    -spec.sites / 2, rel=1e-12
                )

    def test_L2_uniform_enumeration(self):
        # uniform weights on the 2x2 grid: cosine sum = N cos(J t)
        spec = LatticeSpec(L=2)
        for t in (0.0, 0.6, 1.9):
            value = sigma_z(uniform(spec), np.pi / 2, np.pi / 2, Mode(1, 0), t, spec)
            assert value == pytest.approx(2.0 * np.cos(t), abs=1e-12)

    def test_bounded(self):
        spec = LatticeSpec(L=6)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, t = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 20)
            value = sigma_z(uniform(spec), a, b, Mode(1, 2), t, spec)
            assert -spec.sites / 2 - 1e-9 <= value <= spec.sites / 2 + 1e-9

    def test_rejects_nonfinite_angles(self):
        spec = LatticeSpec(L=4)
        for angles in ((np.inf, 0.0), (0.0, np.nan), (-np.inf, np.inf)):
            with pytest.raises(ValueError, match="rotation angles must be finite"):
                sigma_z(uniform(spec), *angles, Mode(0, 0), 1.0, spec)


class TestMetastablePopulation:
    def test_zero_wait(self):
        spec = LatticeSpec(L=10)
        nbar = mean_excitations(uniform(spec), 0.01)
        assert n_meta(uniform(spec), nbar, Mode(1, 1), 0.0, spec) == pytest.approx(0.0, abs=1e-12)

    def test_no_tunneling_is_perfectly_reversed(self):
        spec = LatticeSpec(L=10, J=0.0)
        nbar = mean_excitations(uniform(spec), 0.01)
        for t in (0.0, 5.0, 50.0):
            assert n_meta(uniform(spec), nbar, Mode(1, 1), t, spec) == pytest.approx(0.0, abs=1e-12)

    def test_L2_closed_form(self):
        spec = LatticeSpec(L=2)
        nbar = mean_excitations(uniform(spec), 0.02)
        for t in (0.3, 1.0, 2.4):
            expected = 2.0 * nbar * (1.0 - np.cos(t))
            assert n_meta(uniform(spec), nbar, Mode(1, 0), t, spec) == pytest.approx(
                expected, abs=1e-14
            )

    def test_upper_bound(self):
        spec = LatticeSpec(L=10)
        nbar = mean_excitations(uniform(spec), 0.05)
        for t in np.linspace(0, 40, 60):
            value = n_meta(uniform(spec), nbar, Mode(5, 5), t, spec)
            assert 0.0 - 1e-12 <= value <= 4.0 * nbar + 1e-12

    def test_metallic_normalized_by_atom_total(self):
        # the half-filled diamond at L = 10 holds 82 atoms, not N = 100
        spec = LatticeSpec(L=10)
        dist = metallic(spec)
        nbar = mean_excitations(dist, 0.01)
        assert n_meta(dist, nbar, Mode(1, 1), 0.0, spec) == pytest.approx(0.0, abs=1e-15)
        assert sigma_z(dist, 0.0, 0.0, Mode(1, 1), 1.0, spec) == pytest.approx(-41.0, abs=1e-12)

    def test_grid_matches_pointwise(self):
        spec = LatticeSpec(L=10)
        grid = np.linspace(0.0, 30.0, 13)
        nbar = mean_excitations(uniform(spec), 0.05)
        for dist in (metallic(spec), bose_einstein(spec, 0.5)):
            batched = n_meta(dist, nbar, Mode(2, -1), grid, spec)
            batched_sigma_z = sigma_z(dist, 0.3, -0.2, Mode(2, -1), grid, spec)
            for i, t in enumerate(grid):
                assert batched[i] == n_meta(dist, nbar, Mode(2, -1), t, spec)
                assert batched_sigma_z[i] == sigma_z(dist, 0.3, -0.2, Mode(2, -1), t, spec)


class TestSmallAngleAgreement:
    def test_exact_vs_small_angle(self):
        # shifted exact expectation vs the quadratic-order formula: the
        # mismatch is the O(alpha^2) factor sin^2(a)/a^2 - 1 ~ a^2/3
        spec = LatticeSpec(L=10)
        alpha = 0.01
        nbar = mean_excitations(uniform(spec), alpha)
        dist = uniform(spec)
        for t in (0.5, 2.0, 7.0, 20.0):
            exact = sigma_z(dist, alpha, -alpha, Mode(1, 1), t, spec) + spec.sites / 2
            approx = n_meta(dist, nbar, Mode(1, 1), t, spec)
            assert exact == pytest.approx(approx, rel=1e-3)


class TestMeanExcitations:
    @pytest.mark.parametrize("alpha", [1.3e154, 1e300, np.inf, np.nan])
    def test_rejects_non_finite_count(self, alpha):
        # N alpha^2 / 4 with N = 16: N alpha^2 overflows at 1.3e154, alpha^2 at 1e300
        with pytest.raises(ValueError, match="not finite"):
            mean_excitations(uniform(LatticeSpec(L=4)), alpha)
