import numpy as np
import pytest

from dickeprobe.classical import (
    DriveParameters,
    expected_sigma_z,
    mean_excitations,
    metastable_population,
    metastable_population_partial_condensation,
)
from dickeprobe.distributions import (
    bose_einstein,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from dickeprobe.lattice import LatticeSpec, Mode


class TestExpectedSigmaZ:
    def test_identity_rotations(self):
        spec = LatticeSpec(L=10)
        params = DriveParameters(0.0, 0.0, Mode(1, 1), 3.7)
        assert expected_sigma_z(uniform(spec), params, spec) == pytest.approx(-spec.sites / 2)

    def test_perfect_reversal_at_zero_wait(self):
        spec = LatticeSpec(L=10)
        for dist in (uniform(spec), superfluid(spec), bose_einstein(spec, 1.0)):
            for alpha in (0.1, 0.8, 2.0):
                params = DriveParameters(alpha, -alpha, Mode(2, 1), 0.0)
                assert expected_sigma_z(dist, params, spec) == pytest.approx(
                    -spec.sites / 2, rel=1e-12
                )

    def test_L2_uniform_enumeration(self):
        # uniform weights on the 2x2 grid: cosine sum = N cos(J t)
        spec = LatticeSpec(L=2)
        for t in (0.0, 0.6, 1.9):
            params = DriveParameters(np.pi / 2, np.pi / 2, Mode(1, 0), t)
            assert expected_sigma_z(uniform(spec), params, spec) == pytest.approx(
                2.0 * np.cos(t), abs=1e-12
            )

    def test_bounded(self):
        spec = LatticeSpec(L=6)
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = DriveParameters(
                rng.uniform(-3, 3), rng.uniform(-3, 3), Mode(1, 2), rng.uniform(0, 20)
            )
            value = expected_sigma_z(uniform(spec), params, spec)
            assert -spec.sites / 2 - 1e-9 <= value <= spec.sites / 2 + 1e-9

    def test_rejects_nonfinite_angles(self):
        with pytest.raises(ValueError):
            DriveParameters(np.inf, 0.0, Mode(0, 0), 1.0)


class TestMetastablePopulation:
    def test_zero_wait(self):
        spec = LatticeSpec(L=10)
        nbar = mean_excitations(spec, 0.01)
        assert metastable_population(uniform(spec), nbar, Mode(1, 1), 0.0, spec) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_no_tunneling_is_perfectly_reversed(self):
        spec = LatticeSpec(L=10, J=0.0)
        nbar = mean_excitations(spec, 0.01)
        for t in (0.0, 5.0, 50.0):
            assert metastable_population(
                uniform(spec), nbar, Mode(1, 1), t, spec
            ) == pytest.approx(0.0, abs=1e-12)

    def test_L2_closed_form(self):
        spec = LatticeSpec(L=2)
        nbar = mean_excitations(spec, 0.02)
        for t in (0.3, 1.0, 2.4):
            expected = 2.0 * nbar * (1.0 - np.cos(t))
            assert metastable_population(
                uniform(spec), nbar, Mode(1, 0), t, spec
            ) == pytest.approx(expected, abs=1e-14)

    def test_upper_bound(self):
        spec = LatticeSpec(L=10)
        nbar = mean_excitations(spec, 0.05)
        for t in np.linspace(0, 40, 60):
            value = metastable_population(uniform(spec), nbar, Mode(5, 5), t, spec)
            assert 0.0 - 1e-12 <= value <= 4.0 * nbar + 1e-12

    def test_metallic_normalized_by_atom_total(self):
        # the half-filled diamond at L = 10 holds 82 atoms, not N = 100
        spec = LatticeSpec(L=10)
        dist = metallic(spec)
        nbar = mean_excitations(spec, 0.01)
        assert metastable_population(dist, nbar, Mode(1, 1), 0.0, spec) == pytest.approx(
            0.0, abs=1e-15
        )
        params = DriveParameters(0.0, 0.0, Mode(1, 1), 1.0)
        assert expected_sigma_z(dist, params, spec) == pytest.approx(-41.0, abs=1e-12)

    def test_grid_matches_pointwise(self):
        spec = LatticeSpec(L=10)
        grid = np.linspace(0.0, 30.0, 13)
        nbar = mean_excitations(spec, 0.05)
        for dist in (metallic(spec), bose_einstein(spec, 0.5)):
            batched = metastable_population(dist, nbar, Mode(2, -1), grid, spec)
            sigma_z = expected_sigma_z(dist, DriveParameters(0.3, -0.2, Mode(2, -1), grid), spec)
            for i, t in enumerate(grid):
                assert batched[i] == metastable_population(dist, nbar, Mode(2, -1), t, spec)
                params = DriveParameters(0.3, -0.2, Mode(2, -1), t)
                assert sigma_z[i] == expected_sigma_z(dist, params, spec)


class TestPartialCondensationForm:
    def test_matches_general_formula(self):
        spec = LatticeSpec(L=10)
        nbar = mean_excitations(spec, 0.01)
        n1, n2 = 60.0, 40.0
        dist = partial_condensation(spec, n1, n2)
        for kappa in (Mode(1, 0), Mode(1, 1), Mode(3, 2)):
            for t in (0.0, 0.7, 3.0, 12.0):
                general = metastable_population(dist, nbar, kappa, t, spec)
                closed = metastable_population_partial_condensation(
                    n1, n2, nbar, kappa, t, spec
                )
                assert closed == pytest.approx(general, abs=1e-12)

    def test_pure_condensate_larmor_cosine(self):
        from dickeprobe.lattice import condensate_phase

        spec = LatticeSpec(L=10)
        nbar = 0.3
        kappa = Mode(1, 1)
        for t in (0.5, 2.0):
            expected = 2.0 * nbar * (1.0 - np.cos(condensate_phase(kappa, t, spec)))
            assert metastable_population_partial_condensation(
                spec.sites, 0.0, nbar, kappa, t, spec
            ) == pytest.approx(expected, abs=1e-12)

    def test_fully_distributed_phase_sum(self):
        from dickeprobe.emission import phase_sum

        spec = LatticeSpec(L=10)
        nbar = 0.3
        kappa = Mode(2, 1)
        for t in (0.5, 2.0):
            expected = 2.0 * nbar * (1.0 - phase_sum(spec, kappa, t))
            assert metastable_population_partial_condensation(
                0.0, spec.sites, nbar, kappa, t, spec
            ) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_split(self):
        spec = LatticeSpec(L=4)
        with pytest.raises(ValueError):
            metastable_population_partial_condensation(3.0, 4.0, 0.1, Mode(1, 0), 1.0, spec)


class TestSmallAngleAgreement:
    def test_exact_vs_small_angle(self):
        # shifted exact expectation vs the quadratic-order formula: the
        # mismatch is the O(alpha^2) factor sin^2(a)/a^2 - 1 ~ a^2/3
        spec = LatticeSpec(L=10)
        alpha = 0.01
        nbar = mean_excitations(spec, alpha)
        dist = uniform(spec)
        for t in (0.5, 2.0, 7.0, 20.0):
            params = DriveParameters(alpha, -alpha, Mode(1, 1), t)
            exact = expected_sigma_z(dist, params, spec) + spec.sites / 2
            approx = metastable_population(dist, nbar, Mode(1, 1), t, spec)
            assert exact == pytest.approx(approx, rel=1e-3)
