import functools
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from dickeprobe.distributions import (
    MomentumDistribution,
    Statistics,
    _bisect_mu,
    _thermal,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from dickeprobe.lattice import LatticeSpec, Mode, _band, _energy_levels, mode_grid
from lattice_reference import band_grid, mode_neg


def occupation_map(dist):
    """Helper: {mode: summed occupation} for evenness checks."""
    return {
        mode: sum(dist.occupation(mode, ch) for ch in range(dist.occupations.shape[0]))
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

    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_copies_a_callers_array(self, statistics):
        # neither the caller's array nor the base of a read-only view of it
        # can change the distribution afterwards
        channels = 1 if statistics is Statistics.BOSE else 2
        mine = np.full((channels, 4, 4), 0.25)
        view = mine[...]
        view.setflags(write=False)
        for given in (mine, view):
            dist = MomentumDistribution(statistics, given, 4.0 * channels)
            before = dist.occupations.copy()
            mine[0, 0, 0] = 0.75
            np.testing.assert_array_equal(dist.occupations, before)
            mine[0, 0, 0] = 0.25
            assert not np.shares_memory(dist.occupations, mine)

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: fermi_dirac(spec, 0.5),
            lambda spec: metallic(spec),
            lambda spec: uniform(spec, Statistics.FERMI),
        ],
        ids=["fermi_dirac", "metallic", "uniform"],
    )
    def test_spin_symmetric_states_store_one_channel(self, build):
        dist = build(LatticeSpec(L=6))
        occ = dist.occupations
        assert occ.shape == (2, 6, 6) and occ.strides[0] == 0
        assert not occ.flags.writeable
        with pytest.raises(ValueError):
            occ[1, 0, 0] = 0.5


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
        energies = band_grid(spec)

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

    def test_frozen_lattice_spreads_the_remainder_over_every_mode(self):
        # at J = 0 every mode shares the one level below which mu is pinned
        dist = bose_einstein(LatticeSpec(L=10, J=0.0), 1e20)
        np.testing.assert_array_equal(dist.occupations, 1.0)

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
        energies = np.abs(band_grid(spec))
        mask = energies > 1e-9  # diamond-edge modes sit exactly at E = 0
        diff = np.asarray(dist.occupations)[0][mask] - np.asarray(met.occupations)[0][mask]
        assert np.abs(diff).max() < 1e-9

    def test_channels_identical(self):
        dist = fermi_dirac(LatticeSpec(L=6), 2.0)
        occ = np.asarray(dist.occupations)
        np.testing.assert_array_equal(occ[0], occ[1])

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


# Reference solvers: the chemical-potential solve with every sum over the
# full L x L grid and a bisection that always runs its 200 iterations.  The
# library must agree with them bit for bit.  The full-grid sums are cached
# per mu; the sum is a pure function, so this only spares the suite the
# repeated midpoints of a stalled bisection.


def reference_bisect(occupation_sum, total, lo, hi):
    tol = 1e-12 * max(total, 1.0)
    best_mu, best_err = lo, abs(occupation_sum(lo) - total)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = occupation_sum(mid)
        err = abs(value - total)
        if err < best_err:
            best_mu, best_err = mid, err
        if err <= tol:
            return mid, err
        if value >= total:
            hi = mid
        else:
            lo = mid
    return best_mu, best_err


def reference_bose(spec, beta):
    """(mu, occupations) from full-grid sums."""
    total = float(spec.sites)
    energies = band_grid(spec)

    def occupations_at(mu):
        with np.errstate(over="ignore", divide="ignore"):
            return 1.0 / np.expm1(np.minimum(beta * (energies - mu), 700.0))

    zero = (spec.L // 2 - 1, spec.L // 2 - 1)
    pin = float(energies.min()) - 1e-12 * spec.J
    if float(occupations_at(pin).sum()) < total:
        occ = occupations_at(pin)
        occ[zero] += total - occ.sum()
        return pin, occ
    lo, span = pin, max(spec.J, 1.0 / beta)
    while float(occupations_at(lo).sum()) >= total:
        lo -= span
        span *= 2.0
    mu, residual = reference_bisect(
        functools.cache(lambda m: float(occupations_at(m).sum())), total, lo, pin
    )
    occ = occupations_at(mu)
    if residual > 1e-9 * max(total, 1.0):
        occ[zero] += total - occ.sum()
    return mu, occ


def reference_fermi(spec, beta):
    """(mu, one spin channel's occupations) at half filling from full-grid sums."""
    total = float(spec.sites)
    energies = band_grid(spec)

    def occupations_at(mu):
        return 1.0 / (np.exp(np.clip(beta * (energies - mu), -700.0, 700.0)) + 1.0)

    @functools.cache
    def channel_total(mu):
        return 2.0 * float(occupations_at(mu).sum())

    margin = 40.0 / beta + spec.J + 1.0
    lo = float(energies.min()) - margin
    hi = float(energies.max()) + margin
    while channel_total(lo) >= total:
        lo -= margin
    while channel_total(hi) <= total:
        hi += margin
    mu, residual = reference_bisect(channel_total, total, lo, hi)
    occ = occupations_at(mu)
    if residual > 1e-9 * max(total, 1.0):
        # the remainder spread evenly over the modes at the energy nearest mu
        shell = energies == energies.flat[np.argmin(np.abs(energies - mu))]
        occ[shell] += (total / 2 - occ.sum()) / shell.sum()
    return mu, occ


# beta from the high-temperature limit through the bisection, its stalled
# (padded) end and the condensed branch
_BETAS = [float(b) for b in np.geomspace(1e-4, 1e9, 30)]
# a cold Fermi sea, where the bisection leaves a remainder at mu
_COLD_BETAS = [1e30, 1e50, 1e300]


class TestChemicalPotentialSolve:
    def test_energy_levels_hold_every_mode_energy(self):
        specs = [LatticeSpec(L=L) for L in (2, 4, 6, 10, 100)]
        for spec in specs + [LatticeSpec(L=10, J=0.37), LatticeSpec(L=6, J=0.0)]:
            levels, counts = _energy_levels(*_band(spec))
            assert counts.sum() == spec.sites
            expanded = np.repeat(levels, counts.astype(int))
            np.testing.assert_array_equal(np.sort(expanded), np.sort(band_grid(spec).ravel()))
            distinct, multiplicity = np.unique(band_grid(spec), return_counts=True)
            merged = [counts[levels == value].sum() for value in distinct]
            np.testing.assert_array_equal(merged, multiplicity)

    @pytest.mark.parametrize("L", [2, 4, 10, 100])
    def test_bose_matches_full_grid_reference(self, L):
        spec = LatticeSpec(L=L)
        for beta in _BETAS:
            mu_ref, occ_ref = reference_bose(spec, beta)
            dist = bose_einstein(spec, beta)
            assert dist.chemical_potential == mu_ref, beta
            np.testing.assert_array_equal(dist.occupations[0], occ_ref)

    def test_bose_matches_full_grid_reference_at_L400(self):
        # the stalled bisection, and the benchmark's thermal inputs at seed 1:
        # the pinned-mu (condensed) Bose branch and a Fermi gas
        spec = LatticeSpec(L=400)
        for build, reference, beta in [
            (bose_einstein, reference_bose, 13.32),
            (bose_einstein, reference_bose, 2.904e7),
            (fermi_dirac, reference_fermi, 1.843),
        ]:
            mu_ref, occ_ref = reference(spec, beta)
            dist = build(spec, beta)
            assert dist.chemical_potential == mu_ref, beta
            for channel in dist.occupations:
                np.testing.assert_array_equal(channel, occ_ref)

    @pytest.mark.parametrize("L", [2, 4, 10, 100])
    def test_fermi_matches_full_grid_reference(self, L):
        spec = LatticeSpec(L=L)
        for beta in _BETAS + _COLD_BETAS:
            mu_ref, occ_ref = reference_fermi(spec, beta)
            dist = fermi_dirac(spec, beta)
            assert dist.chemical_potential == mu_ref, beta
            np.testing.assert_array_equal(dist.occupations[0], occ_ref)
            np.testing.assert_array_equal(dist.occupations[1], occ_ref)

    def test_bisection_stops_at_a_collapsed_bracket(self):
        # the stalled branch: lo and hi become adjacent floats long before
        # the iteration cap, and every later midpoint repeats one of them
        spec = LatticeSpec(L=400)
        beta, total = 13.32, float(spec.sites)
        levels, counts = _energy_levels(*_band(spec))

        def occupation_sum(mu):
            return float((counts * (1.0 / np.expm1(np.minimum(beta * (levels - mu), 700.0)))).sum())

        pin = float(levels.min()) - 1e-12
        lo, span = pin, 1.0
        while occupation_sum(lo) >= total:
            lo -= span
            span *= 2.0

        def counting(calls):
            def wrapped(mu):
                calls.append(mu)
                return occupation_sum(mu)

            return wrapped

        calls, reference_calls = [], []
        result = _bisect_mu(counting(calls), total, lo, pin)
        reference = reference_bisect(counting(reference_calls), total, lo, pin)
        assert result == reference
        assert result[1] > 1e-12 * total  # stalled, not converged
        assert len(calls) == len(set(calls))
        assert set(calls) == set(reference_calls)
        assert len(reference_calls) == 201

    def test_bisection_evaluates_an_untried_upper_end(self):
        # the root sits at hi, which the caller never evaluated: the bracket
        # collapses onto it, and the stop must not skip that last midpoint
        def step(mu):
            return 1.0 if mu >= 1.0 else 0.0

        assert reference_bisect(step, 1.0, 0.0, 1.0) == (1.0, 0.0)
        assert _bisect_mu(step, 1.0, 0.0, 1.0) == (1.0, 0.0)

    def test_remainder_beyond_the_occupation_bounds_raises(self):
        # a bracket under the band holds no atoms at hi, so all N would go to
        # the k = 0 level, one mode that holds at most one fermion per spin
        def occupations_at(energies, mu, out=None):
            return 1.0 / (np.exp(np.clip(energies - mu, -700.0, 700.0)) + 1.0)

        def bracket(levels, holds_all):
            return float(levels.min()) - 200.0, float(levels.min()) - 100.0

        with pytest.raises(RuntimeError, match="stalled"):
            _thermal(LatticeSpec(L=4), Statistics.FERMI, 1.0, occupations_at, bracket)

    def test_tiny_beta_is_near_uniform(self):
        for spec in (LatticeSpec(L=10), LatticeSpec(L=100)):
            dist = bose_einstein(spec, 1e-300)
            np.testing.assert_allclose(dist.occupations, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("beta", [1e-320, 5e-324])
    def test_subnormal_beta_is_rejected(self, beta):
        # 1/beta overflows, so no finite bracket holds mu
        spec = LatticeSpec(L=10)
        with pytest.raises(ValueError, match="bracket"):
            bose_einstein(spec, beta)
        with pytest.raises(ValueError, match="bracket"):
            fermi_dirac(spec, beta)

    def test_no_runtime_warning_over_the_beta_range(self):
        spec = LatticeSpec(L=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for beta in np.geomspace(1e-300, 1e300, 25):
                bose_einstein(spec, float(beta))

    def test_thermal_builders_at_the_largest_tunneling(self):
        # J = 8.98e307 keeps 2J/Z finite (LatticeSpec rejects 1e308); E - mu
        # overflows in the mu solve and is clipped there, with no warning
        spec = LatticeSpec(L=4, J=8.98e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bose, fermi = bose_einstein(spec, 1.0), fermi_dirac(spec, 1.0)
        assert bose.chemical_potential < -spec.J  # pinned below the band bottom E = -J
        assert abs(fermi.chemical_potential) < 1e-12 * spec.J
        for dist in (bose, fermi):
            assert dist.total() == pytest.approx(spec.sites, rel=1e-9)
