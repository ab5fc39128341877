import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import jn_zeros

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
from dickeprobe.emission import (
    ProbeGeometry,
    adiabatic_peak,
    bessel_envelope,
    coherent_amplitude,
    emission_curve,
    normalized_peak,
    peak_curve,
    phase_sum,
    quench_peak,
    separable_peak,
)
from dickeprobe.lattice import LatticeSpec, Mode, condensate_phase, dephasing_rates, mode_grid


def forward(kappa):
    return ProbeGeometry(kappa, kappa)


def enumerated_phase_sum(spec, kappa, dt):
    """Independent O(N) reference: direct loop over the mode grid."""
    from dickeprobe.lattice import adjacency_fourier, mode_sub

    total = 0.0 + 0.0j
    for p in mode_grid(spec):
        dT = adjacency_fourier(p, spec) - adjacency_fourier(mode_sub(p, kappa, spec.L), spec)
        total += np.exp(1j * spec.J / spec.Z * dT * dt)
    return total / spec.sites


class TestPhaseSum:
    def test_at_zero(self):
        spec = LatticeSpec(L=10)
        assert phase_sum(spec, Mode(3, -2), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_forward_mode_no_reduction(self):
        spec = LatticeSpec(L=10)
        for t in (0.0, 3.3, 47.0):
            assert phase_sum(spec, Mode(0, 0), t) == pytest.approx(1.0, abs=1e-12)

    def test_L2_closed_form(self):
        # four modes give (2 e^{i J t} + 2 e^{-i J t}) / 4 = cos(J t)
        spec = LatticeSpec(L=2)
        for t in (0.0, 0.4, 1.0, 2.9):
            assert phase_sum(spec, Mode(1, 0), t) == pytest.approx(np.cos(t), abs=1e-12)

    def test_matches_enumeration(self):
        spec = LatticeSpec(L=6, J=0.7)
        for kappa in (Mode(1, 0), Mode(2, 3), Mode(1, 1)):
            for t in (0.5, 4.2):
                ref = enumerated_phase_sum(spec, kappa, t)
                assert abs(ref.imag) < 1e-12
                assert phase_sum(spec, kappa, t) == pytest.approx(ref.real, abs=1e-12)

    def test_imaginary_residue(self, spec100):
        for kappa in (Mode(1, 1), Mode(5, 0), Mode(17, -8)):
            for t in (1.0, 33.3, 99.0):
                assert abs(enumerated_phase_sum(spec100, kappa, t).imag) < 1e-12


class TestBesselEnvelope:
    def test_at_zero(self, spec100):
        assert bessel_envelope(Mode(1, 1), 0.0, spec100) == pytest.approx(1.0)

    def test_first_zero_location(self, spec100):
        # argument pi t / 100 hits the first J0 root at t = j01 * 100 / pi
        t_zero = jn_zeros(0, 1)[0] * 100.0 / np.pi
        assert t_zero == pytest.approx(76.55, abs=0.11)
        assert abs(bessel_envelope(Mode(1, 1), t_zero, spec100)) < 1e-9

    def test_single_factor_when_axis_mode(self, spec100):
        from scipy.special import j0

        t = 13.7
        expected = j0(2 * spec100.J / spec100.Z * (2 * np.pi / 100) * t)
        assert bessel_envelope(Mode(1, 0), t, spec100) == pytest.approx(expected, abs=1e-14)

    @given(st.integers(-10, 10), st.integers(-10, 10), st.floats(0, 50))
    def test_even_in_each_component(self, n, m, t):
        spec = LatticeSpec(L=100)
        a = bessel_envelope(Mode(n, m), t, spec)
        b = bessel_envelope(Mode(-n, m), t, spec)
        c = bessel_envelope(Mode(n, -m), t, spec)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(c, abs=1e-14)

    def test_array_input(self, spec100):
        grid = np.linspace(0, 10, 5)
        values = bessel_envelope(Mode(1, 1), grid, spec100)
        assert values.shape == grid.shape

    def test_accuracy_degrades_with_wave_number(self, spec100):
        # the small-wave-number bound grows monotonically with |kappa|
        grid = np.linspace(0.0, 100.0, 60)
        errors = []
        for idx in (1, 5, 12):
            kappa = Mode(idx, idx)
            amps = np.array([phase_sum(spec100, kappa, t) for t in grid])
            errors.append(np.abs(amps - bessel_envelope(kappa, grid, spec100)).max())
        assert errors[0] < 1e-2
        assert errors[0] < errors[1] < errors[2]


class TestCoherentAmplitude:
    def test_superfluid_pure_phase(self, spec100):
        dist = superfluid(spec100)
        for t in (0.0, 7.3, 81.0):
            C = coherent_amplitude(dist, Mode(1, 1), t, spec100)
            assert abs(C) == pytest.approx(1.0, abs=1e-12)
            expected_phase = condensate_phase(Mode(1, 1), t, spec100)
            assert C == pytest.approx(np.exp(1j * expected_phase), abs=1e-12)

    def test_uniform_equals_phase_sum(self, spec100):
        dist = uniform(spec100)
        for t in (0.0, 12.5, 60.0):
            C = coherent_amplitude(dist, Mode(1, 1), t, spec100)
            assert C.real == pytest.approx(phase_sum(spec100, Mode(1, 1), t), abs=1e-12)
            assert abs(C.imag) < 1e-12

    def test_partial_condensation_closed_form(self, spec100):
        N = spec100.sites
        n1, n2 = 0.25 * N, 0.75 * N
        dist = partial_condensation(spec100, n1, n2)
        kappa = Mode(1, 1)
        for t in (0.0, 20.0, 76.5):
            C = coherent_amplitude(dist, kappa, t, spec100)
            expected = (
                n1 * np.exp(1j * condensate_phase(kappa, t, spec100))
                + n2 * phase_sum(spec100, kappa, t)
            ) / N
            assert C == pytest.approx(expected, abs=1e-10)

    def test_starts_at_one(self, spec100):
        for dist in (metallic(spec100), fermi_dirac(spec100, 1.0), bose_einstein(spec100, 0.5)):
            assert coherent_amplitude(dist, Mode(1, 1), 0.0, spec100) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_bound_on_random_distributions(self, spec100, rng):
        for _ in range(10):
            occ = rng.uniform(0.0, 1.0, size=(1, 100, 100))
            occ *= spec100.sites / occ.sum()
            dist = MomentumDistribution(Statistics.BOSE, occ, float(spec100.sites))
            for t in rng.uniform(0.0, 100.0, size=3):
                assert abs(coherent_amplitude(dist, Mode(3, 1), t, spec100)) <= 1.0 + 1e-9


class TestBatchedKernel:
    """The x/y-split kernel against the direct sum over the (L, L) rate grid."""

    @pytest.mark.parametrize("L", [2, 4, 10])
    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_matches_direct_sum(self, L, statistics, rng):
        spec = LatticeSpec(L=L, J=0.9)
        channels = 1 if statistics is Statistics.BOSE else 2
        occ = rng.uniform(0.0, 1.0, size=(channels, L, L))
        dist = MomentumDistribution(statistics, occ, float(occ.sum()))
        grid = np.linspace(0.0, 40.0, 33)
        for kappa in ((1, 2), (-3, 5), (L // 2, 1)):
            w = dist.shifted_occupation_sum(kappa)
            w = w / w.sum()
            rates = dephasing_rates(spec, kappa)
            reference = np.array([np.sum(w * np.exp(1j * rates * t)) for t in grid])
            batched = coherent_amplitude(dist, kappa, grid, spec)
            assert np.abs(batched - reference).max() < 1e-13
            scalar = [coherent_amplitude(dist, kappa, t, spec) for t in grid]
            assert all(type(value) is complex for value in scalar)
            assert np.array_equal(batched, scalar)

    def test_formulas_take_grids(self, spec100):
        grid = np.linspace(0.0, 80.0, 21)
        kappa = Mode(2, -1)
        for fn in (
            lambda t: phase_sum(spec100, kappa, t),
            lambda t: quench_peak(spec100, kappa, t),
            lambda t: adiabatic_peak(Statistics.BOSE, spec100, kappa, t),
            lambda t: adiabatic_peak(Statistics.FERMI, spec100, kappa, t),
        ):
            batched = fn(grid)
            scalar = [fn(t) for t in grid]
            assert all(type(value) is float for value in scalar)
            assert batched.shape == grid.shape
            assert np.array_equal(batched, scalar)

    def test_rejects_2d_times(self, spec100):
        with pytest.raises(ValueError):
            phase_sum(spec100, Mode(1, 1), np.zeros((2, 2)))


class TestNormalizedPeak:
    def test_superfluid_full_superradiance(self, spec100):
        dist = superfluid(spec100)
        geo = forward(Mode(1, 1))
        for t in (0.0, 15.0, 99.0):
            assert normalized_peak(dist, geo, t, spec100) == pytest.approx(1.0, abs=1e-12)

    def test_off_forward_is_zero(self, spec100):
        dist = superfluid(spec100)
        geo = ProbeGeometry(Mode(1, 1), Mode(2, 1))
        assert normalized_peak(dist, geo, 5.0, spec100) == 0.0

    def test_metallic_matches_uniform_envelope(self, spec100):
        geo = forward(Mode(1, 1))
        grid = np.linspace(0.0, 100.0, 120)
        met = peak_curve(metallic(spec100), geo, grid, spec100)
        uni = peak_curve(uniform(spec100), geo, grid, spec100)
        assert np.abs(met - uni).max() < 1e-2

    def test_diamond_shift_invariance(self, spec100):
        geo = forward(Mode(1, 1))
        grid = np.linspace(0.0, 100.0, 60)
        met = metallic(spec100)
        shifted = np.roll(
            np.asarray(met.occupations), shift=(0, 50, 50), axis=(0, 1, 2)
        )
        met_shifted = MomentumDistribution(Statistics.FERMI, shifted, met.total_target)
        a = peak_curve(met, geo, grid, spec100)
        b = peak_curve(met_shifted, geo, grid, spec100)
        assert np.abs(a - b).max() < 1e-12

    def test_rejects_off_grid_kappa(self, spec100):
        geo = ProbeGeometry(Mode(51, 0), Mode(51, 0))
        with pytest.raises(ValueError):
            normalized_peak(superfluid(spec100), geo, 1.0, spec100)


class TestSeparablePeak:
    def test_unit_filling_forward(self):
        occ = np.ones((10, 10))
        assert separable_peak(occ, forward(Mode(1, 1))) == 1.0

    def test_unit_filling_off_forward(self):
        occ = np.ones((10, 10))
        geo = ProbeGeometry(Mode(0, 0), Mode(3, 0))
        assert separable_peak(occ, geo) == pytest.approx(0.0, abs=1e-24)

    def test_checkerboard_bragg_peak(self):
        L = 10
        x = np.arange(L)
        occ = 2.0 * ((x[:, None] + x[None, :]) % 2 == 0)
        geo = ProbeGeometry(Mode(0, 0), Mode(L // 2, L // 2))
        assert separable_peak(occ, geo) == pytest.approx(1.0, abs=1e-12)


class TestTransitions:
    def test_quench_at_zero(self, spec100):
        assert quench_peak(spec100, Mode(1, 1), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_quench_L2_closed_form(self):
        spec = LatticeSpec(L=2)
        for t in (0.3, 1.1, 2.2):
            assert quench_peak(spec, Mode(1, 0), t) == pytest.approx(np.cos(t) ** 2, abs=1e-12)

    def test_quench_forward_mode(self, spec100):
        for t in (0.0, 5.0, 50.0):
            assert quench_peak(spec100, Mode(0, 0), t) == pytest.approx(1.0, abs=1e-12)

    def test_adiabatic_bose_is_unity(self, spec100):
        for t in (0.0, 10.0, 76.5):
            assert adiabatic_peak(Statistics.BOSE, spec100, Mode(1, 1), t) == 1.0

    def test_adiabatic_fermi_equals_quench(self, spec100):
        for t in (0.0, 10.0, 76.5):
            assert adiabatic_peak(Statistics.FERMI, spec100, Mode(1, 1), t) == pytest.approx(
                quench_peak(spec100, Mode(1, 1), t), abs=1e-15
            )


class TestEmissionCurve:
    def test_superfluid_all_ones(self, spec100):
        grid = np.linspace(0, 100, 50)
        curve = emission_curve("superfluid", grid, spec100, forward(Mode(1, 1)))
        assert np.abs(curve.values - 1.0).max() < 1e-12

    def test_values_bounded(self, spec100):
        grid = np.linspace(0, 100, 80)
        for scenario, kwargs in [
            ("uniform", {"statistics": "bose"}),
            ("metallic", {"statistics": "fermi"}),
            ("partial", {"n_condensed": 5000.0, "n_distributed": 5000.0}),
            ("thermal", {"statistics": "bose", "inverse_temperature": 1.0}),
        ]:
            curve = emission_curve(scenario, grid, spec100, forward(Mode(1, 1)), **kwargs)
            assert curve.values.min() >= 0.0
            assert curve.values.max() <= 1.0 + 1e-9
            assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_high_temperature_thermal_matches_uniform(self, spec100):
        grid = np.linspace(0, 100, 100)
        geo = forward(Mode(1, 1))
        th = emission_curve(
            "thermal", grid, spec100, geo, statistics="bose", inverse_temperature=0.01
        )
        uni = emission_curve("uniform", grid, spec100, geo, statistics="bose")
        assert np.abs(th.values - uni.values).max() < 1e-2

    def test_uniform_matches_bessel(self, spec100):
        grid = np.linspace(0, 100, 100)
        curve = emission_curve("uniform", grid, spec100, forward(Mode(1, 1)), statistics="bose")
        envelope = bessel_envelope(Mode(1, 1), grid, spec100) ** 2
        assert np.abs(curve.values - envelope).max() < 1e-2

    def test_separable_scenarios_constant(self, spec100):
        grid = np.linspace(0, 100, 10)
        mott = emission_curve("mott", grid, spec100, forward(Mode(1, 1)))
        assert np.all(mott.values == 1.0)
        neel = emission_curve("neel", grid, spec100, forward(Mode(1, 1)))
        assert np.all(neel.values == 1.0)

    def test_fermi_adiabatic_tagged_approximate(self, spec100):
        grid = np.linspace(0, 10, 5)
        curve = emission_curve("adiabatic", grid, spec100, forward(Mode(1, 1)), statistics="fermi")
        assert curve.approximate
        assert curve.note
        bose = emission_curve("adiabatic", grid, spec100, forward(Mode(1, 1)), statistics="bose")
        assert not bose.approximate

    def test_off_forward_geometry_gives_zeros(self, spec100):
        grid = np.linspace(0, 10, 5)
        geo = ProbeGeometry(Mode(1, 1), Mode(2, 2))
        for scenario, kwargs in [
            ("superfluid", {}),
            ("quench", {"statistics": "bose"}),
            ("adiabatic", {"statistics": "bose"}),
            ("mott", {}),
        ]:
            curve = emission_curve(scenario, grid, spec100, geo, **kwargs)
            assert np.all(curve.values == 0.0)

    def test_grid_validation(self, spec100):
        geo = forward(Mode(1, 1))
        with pytest.raises(ValueError):
            emission_curve("superfluid", np.array([1.0, 0.5]), spec100, geo)
        with pytest.raises(ValueError):
            emission_curve("superfluid", np.array([-1.0, 0.5]), spec100, geo)
        with pytest.raises(ValueError):
            emission_curve("nonsense", np.linspace(0, 1, 3), spec100, geo)
        with pytest.raises(ValueError):
            emission_curve("thermal", np.linspace(0, 1, 3), spec100, geo, statistics="bose")

    def test_scenario_discrimination(self, spec100):
        # at the envelope zero the bose quench and adiabatic curves split by ~1
        grid = np.linspace(0, 100, 500)
        geo = forward(Mode(1, 1))
        quench = emission_curve("quench", grid, spec100, geo, statistics="bose")
        adiabatic = emission_curve("adiabatic", grid, spec100, geo, statistics="bose")
        idx = np.argmin(quench.values[: len(grid) // 2 + 150])
        assert adiabatic.values[idx] - quench.values[idx] > 0.5
        fermi_q = emission_curve("quench", grid, spec100, geo, statistics="fermi")
        fermi_a = emission_curve("adiabatic", grid, spec100, geo, statistics="fermi")
        assert np.abs(fermi_q.values - fermi_a.values).max() < 1e-12
