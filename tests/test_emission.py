import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0

from dickeprobe.cli import main
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
from dickeprobe.emission import _TIME_BLOCK, coherent_amplitude, peak_curve, separable_peak
from dickeprobe.lattice import (
    LatticeSpec,
    Mode,
    canonical_mode,
    mode_grid,
    mode_sub,
)
from lattice_reference import adjacency_fourier, bessel_envelope, hopping_phase, quench_amplitude


def condensate_phase(kappa, t, spec):
    """Phase of an exciton on the condensate: minus the hopping phase at p = kappa."""
    return -hopping_phase(kappa, kappa, t, spec)


def uniform_amplitude(spec, kappa, dt):
    """Re C(dt) of the uniform state, real by the p -> kappa - p symmetry."""
    return coherent_amplitude(uniform(spec), kappa, dt, spec).real


def enumerated_amplitude(spec, kappa, dt):
    """Independent O(N) reference for the uniform state: direct loop over the mode grid."""
    total = 0.0 + 0.0j
    for p in mode_grid(spec):
        dT = adjacency_fourier(p, spec) - adjacency_fourier(mode_sub(p, kappa, spec.L), spec)
        total += np.exp(1j * spec.J / spec.Z * dT * dt)
    return total / spec.sites


class TestPhaseSum:
    """The uniform state's amplitude, a plain average of the dephasing phases."""

    def test_at_zero(self):
        spec = LatticeSpec(L=10)
        assert uniform_amplitude(spec, Mode(3, -2), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_forward_mode_no_reduction(self):
        spec = LatticeSpec(L=10)
        for t in (0.0, 3.3, 47.0):
            assert uniform_amplitude(spec, Mode(0, 0), t) == pytest.approx(1.0, abs=1e-12)

    def test_L2_closed_form(self):
        # four modes give (2 e^{i J t} + 2 e^{-i J t}) / 4 = cos(J t)
        spec = LatticeSpec(L=2)
        for t in (0.0, 0.4, 1.0, 2.9):
            assert uniform_amplitude(spec, Mode(1, 0), t) == pytest.approx(np.cos(t), abs=1e-12)

    def test_matches_enumeration(self):
        spec = LatticeSpec(L=6, J=0.7)
        for kappa in (Mode(1, 0), Mode(2, 3), Mode(1, 1)):
            for t in (0.5, 4.2):
                ref = enumerated_amplitude(spec, kappa, t)
                assert abs(ref.imag) < 1e-12
                assert uniform_amplitude(spec, kappa, t) == pytest.approx(ref.real, abs=1e-12)

    def test_imaginary_residue(self, spec100):
        for kappa in (Mode(1, 1), Mode(5, 0), Mode(17, -8)):
            for t in (1.0, 33.3, 99.0):
                assert abs(enumerated_amplitude(spec100, kappa, t).imag) < 1e-12


class TestBesselEnvelope:
    """The uniform phase sum against its small-wave-number limit, a product of two J0."""

    def test_single_factor_when_axis_mode(self, spec100):
        # along an axis the y part of every rate is 0, leaving one J0 factor
        grid = np.linspace(0.0, 100.0, 200)
        expected = j0(2 * spec100.J / spec100.Z * (2 * np.pi / 100) * grid)
        assert np.abs(uniform_amplitude(spec100, Mode(1, 0), grid) - expected).max() < 1e-3

    @given(st.integers(-10, 10), st.integers(-10, 10), st.floats(0, 50))
    def test_even_in_each_component(self, n, m, t):
        spec = LatticeSpec(L=100)
        a = uniform_amplitude(spec, Mode(n, m), t)
        b = uniform_amplitude(spec, Mode(-n, m), t)
        c = uniform_amplitude(spec, Mode(n, -m), t)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(c, abs=1e-14)

    def test_accuracy_degrades_with_wave_number(self, spec100):
        # the small-wave-number bound grows monotonically with |kappa|
        grid = np.linspace(0.0, 100.0, 60)
        errors = []
        for idx in (1, 5, 12):
            kappa = Mode(idx, idx)
            amps = np.array([uniform_amplitude(spec100, kappa, t) for t in grid])
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

    def test_uniform_is_real_for_both_statistics(self, spec100):
        # one boson per mode and half a fermion per spin and mode: one real amplitude
        for statistics in Statistics:
            dist = uniform(spec100, statistics)
            for t in (0.0, 12.5, 60.0):
                C = coherent_amplitude(dist, Mode(1, 1), t, spec100)
                bose = uniform_amplitude(spec100, Mode(1, 1), t)
                assert C.real == pytest.approx(bose, abs=1e-12)
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
                + n2 * uniform_amplitude(spec100, kappa, t)
            ) / N
            assert C == pytest.approx(expected, abs=1e-10)

    def test_starts_at_one(self, spec100):
        for dist in (metallic(spec100), fermi_dirac(spec100, 1.0), bose_einstein(spec100, 0.5)):
            assert coherent_amplitude(dist, Mode(1, 1), 0.0, spec100) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("build", [uniform, superfluid], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("entry", [coherent_amplitude, peak_curve], ids=lambda f: f.__name__)
    def test_overflowing_dephasing_phase(self, entry, build):
        # finite inputs whose phases overflow: the rates are finite at J = 1e300,
        # but rate * dt overflows from the second time on; a ValueError, not NaN
        spec = LatticeSpec(L=20, J=1e300)
        with pytest.raises(ValueError, match=r"rate \* dt overflows"):
            entry(build(spec), Mode(1, 1), np.linspace(0.0, 1e10, 3), spec)

    def test_huge_inverse_temperature_at_huge_tunneling(self):
        # beta (E - mu) overflows to inf on part of the grid; the exp clip takes it
        # like any other large exponent, with no warning.  The occupations are not
        # bit-equal to the superfluid's, so its peaks are compared to 1e-12.
        spec = LatticeSpec(L=10, J=1e120)
        grid = np.linspace(0.0, 100.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thermal = peak_curve(bose_einstein(spec, 1e200), Mode(1, 1), grid, spec)
            condensed = peak_curve(superfluid(spec), Mode(1, 1), grid, spec)
        np.testing.assert_allclose(thermal, condensed, rtol=0.0, atol=1e-12)

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
        # more than three blocks of times, the last one partial
        grid = np.linspace(0.0, 40.0, 3 * _TIME_BLOCK + 5)
        for kappa in ((1, 2), (-3, 5), (L // 2, 1)):
            # n(p - kappa) on the p grid, the weights of the direct sum
            k = canonical_mode(kappa, L)
            w = np.roll(occ.sum(axis=0), shift=(k.n, k.m), axis=(0, 1))
            w = w / w.sum()
            # the rate at p, mode by mode: minus the hopping phase per unit time
            rates = -np.array([hopping_phase(p, kappa, 1.0, spec) for p in mode_grid(spec)])
            rates = rates.reshape(L, L)
            reference = np.array([np.sum(w * np.exp(1j * rates * t)) for t in grid])
            batched = coherent_amplitude(dist, kappa, grid, spec)
            assert np.abs(batched - reference).max() < 1e-13
            scalar = [coherent_amplitude(dist, kappa, t, spec) for t in grid]
            assert all(type(value) is complex for value in scalar)
            assert np.array_equal(batched, scalar)

    def test_formulas_take_grids(self, spec100):
        grid = np.linspace(0.0, 80.0, 3 * _TIME_BLOCK + 5)
        kappa = Mode(2, -1)
        # the amplitudes of the quench and slow-ramp curves
        sf, fermi = superfluid(spec100), uniform(spec100, Statistics.FERMI)
        for fn in (
            lambda t: uniform_amplitude(spec100, kappa, t),
            lambda t: coherent_amplitude(fermi, kappa, t, spec100).real,
            lambda t: coherent_amplitude(sf, kappa, t, spec100).real,
            lambda t: coherent_amplitude(sf, kappa, t, spec100).imag,
        ):
            batched = fn(grid)
            scalar = [fn(t) for t in grid]
            assert all(type(value) is float for value in scalar)
            assert batched.shape == grid.shape
            assert np.array_equal(batched, scalar)

    def test_rejects_non_integral_kappa(self):
        # truncating a fractional part would give (1.9, 0) the curve of (1, 0)
        # unseen; integral modes outside the canonical range still wrap, as
        # test_matches_direct_sum's (-3, 5) at L = 4 shows
        spec = LatticeSpec(L=10)
        dist = bose_einstein(spec, 1.0)
        grid = np.linspace(0.0, 5.0, 4)
        for kappa in ((1.5, 0.7), (1.9, 0), (1, 0.5), (np.inf, 0), (np.nan, 0)):
            with pytest.raises(ValueError, match="not an integer"):
                coherent_amplitude(dist, kappa, grid, spec)
        # the kernel takes one mode; integer arrays broadcast only where modes are looked up
        with pytest.raises(TypeError):
            coherent_amplitude(dist, (np.array([1, 2]), 0), grid, spec)

    def test_rejects_2d_times(self, spec100):
        # and non-finite times: the kernel every caller shares rejects them
        dist, fermi = superfluid(spec100), uniform(spec100, Statistics.FERMI)
        for fn in (
            lambda dt: uniform_amplitude(spec100, Mode(1, 1), dt),
            lambda dt: coherent_amplitude(fermi, Mode(1, 1), dt, spec100),
            lambda dt: coherent_amplitude(dist, Mode(1, 1), dt, spec100),
        ):
            for dt in (
                np.zeros((2, 2)),
                np.nan,
                np.inf,
                -np.inf,
                np.array([0.0, np.nan]),
                -1.0,
                np.array([0.0, -5e-324]),
                np.array([]),
                [],
            ):
                with pytest.raises(ValueError, match="dt must be"):
                    fn(dt)


def test_thermal_curve_needs_one_grid_array_beyond_the_occupations():
    # The builder evaluates the energies and occupations in place and keeps
    # one channel for both spins; the kernel holds a few (block, 2, L) buffers.
    spec = LatticeSpec(L=200)
    grid = np.linspace(0.0, 100.0, 500)
    grid_bytes = spec.sites * 8
    peak_curve(fermi_dirac(spec, 0.5), Mode(1, 2), grid, spec)  # first-call allocations
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dist = fermi_dirac(spec, 0.5)
        retained = tracemalloc.get_traced_memory()[0] - base
        peak_curve(dist, Mode(1, 2), grid, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert grid_bytes <= retained < grid_bytes + 16_384
    assert peak <= retained + grid_bytes


class TestNormalizedPeak:
    def test_superfluid_full_superradiance(self, spec100):
        values = peak_curve(superfluid(spec100), Mode(1, 1), [0.0, 15.0, 99.0], spec100)
        assert np.abs(values - 1.0).max() < 1e-12

    def test_metallic_matches_uniform_envelope(self, spec100):
        kappa = Mode(1, 1)
        grid = np.linspace(0.0, 100.0, 120)
        met = peak_curve(metallic(spec100), kappa, grid, spec100)
        uni = peak_curve(uniform(spec100), kappa, grid, spec100)
        assert np.abs(met - uni).max() < 1e-2

    def test_diamond_shift_invariance(self, spec100):
        kappa = Mode(1, 1)
        grid = np.linspace(0.0, 100.0, 60)
        met = metallic(spec100)
        shifted = np.roll(
            np.asarray(met.occupations), shift=(0, 50, 50), axis=(0, 1, 2)
        )
        met_shifted = MomentumDistribution(Statistics.FERMI, shifted, met.total_target)
        a = peak_curve(met, kappa, grid, spec100)
        b = peak_curve(met_shifted, kappa, grid, spec100)
        assert np.abs(a - b).max() < 1e-12

    def test_rejects_off_grid_kappa(self, spec100):
        # a part that is not an integer names no grid mode
        for kappa in ((1.5, 0), (0, np.nan)):
            with pytest.raises(ValueError, match="not an integer"):
                peak_curve(superfluid(spec100), kappa, [1.0], spec100)

    def test_wrapped_kappa_gives_the_canonical_curve(self, spec100):
        # a mode outside (-L/2, L/2] is the same lattice mode as its wrapped twin
        dist = bose_einstein(spec100, 1.0)
        grid = np.linspace(0.0, 100.0, 40)
        for wrapped, canonical in ((Mode(51, 0), Mode(-49, 0)), ((103, -250), (3, 50))):
            assert canonical_mode(wrapped, spec100.L) == canonical
            assert np.array_equal(
                peak_curve(dist, wrapped, grid, spec100),
                peak_curve(dist, canonical, grid, spec100),
            )


class TestSeparablePeak:
    def test_unit_filling_forward(self):
        occ = np.ones((10, 10))
        assert separable_peak(occ, Mode(1, 1), Mode(1, 1)) == 1.0

    def test_unit_filling_off_forward(self):
        occ = np.ones((10, 10))
        assert separable_peak(occ, Mode(0, 0), Mode(3, 0)) == pytest.approx(0.0, abs=1e-24)

    def test_normalized_by_the_atom_count(self):
        # two atoms per site, and two atoms on the diagonal of 2 x 2: both peak at 1
        assert separable_peak(2.0 * np.ones((2, 2)), Mode(1, 1), Mode(1, 1)) == 1.0
        assert separable_peak(np.eye(2), Mode(1, 0), Mode(1, 0)) == 1.0
        # one site at the origin peaks at 1 off forward too, even where total**2 overflows
        assert separable_peak(np.array([[1e200, 0.0], [0.0, 0.0]]), Mode(0, 0), Mode(1, 0)) == 1.0

    def test_rejects_empty_lattice(self):
        with pytest.raises(ValueError, match="positive number of atoms"):
            separable_peak(np.zeros((2, 2)), Mode(1, 1), Mode(1, 1))
        # nor occupations no state can hold: inf makes the peak NaN, and
        # [[1, -0.5], [0, 0]] would peak at 9 at dk = (0, 1), outside [0, 1]
        for occ, reason in (
            ([[np.inf, 0.0], [0.0, 0.0]], "finite"),
            ([[np.nan, 1.0], [0.0, 0.0]], "finite"),
            ([[1.0, -0.5], [0.0, 0.0]], "nonnegative"),
            # finite parts whose total overflows, which would give a NaN peak
            ([[1e308, 1e308], [0.0, 0.0]], "finite total"),
        ):
            with pytest.raises(ValueError, match=reason):
                separable_peak(np.array(occ), Mode(0, 0), Mode(0, 1))

    def test_rejects_non_integral_modes(self):
        # (1.5, 0) would be an off-grid phase sum, not a Bragg peak of the lattice
        occ = np.ones((10, 10))
        for mode in ((1.5, 0), (np.nan, 0), (0, np.inf)):
            for kappa_in, kappa_out in ((Mode(0, 0), mode), (mode, Mode(0, 0))):
                with pytest.raises(ValueError, match="not an integer"):
                    separable_peak(occ, kappa_in, kappa_out)
        # the error names the mode passed, not the difference kappa_out - kappa_in
        with pytest.raises(ValueError, match=r"^mode \(0\.5, 0\) has a part"):
            separable_peak(np.ones((2, 2)), (1, 0), (0.5, 0))

    def test_checkerboard_bragg_peak(self):
        L = 10
        x = np.arange(L)
        occ = 2.0 * ((x[:, None] + x[None, :]) % 2 == 0)
        peak = separable_peak(occ, Mode(0, 0), Mode(L // 2, L // 2))
        assert peak == pytest.approx(1.0, abs=1e-12)


class TestQuenchClosedForm:
    """C(dt) of the uniform state, and of states built on it, against Jacobi-Anger."""

    TIMES = np.linspace(0.0, 1000.0, 101)

    @staticmethod
    def kappas(L):
        # off axis, and both zone edges: the last index L/2 and the first -L/2 + 1
        return ((1, 2), (3, -1), (L // 2, 0), (-(L // 2) + 1, L // 2), (L // 2, L // 2))

    @pytest.mark.parametrize("L", [10, 100, 400])
    def test_uniform_is_a_bessel_product(self, L):
        spec = LatticeSpec(L=L)
        for kappa in self.kappas(L):
            expected = quench_amplitude(kappa, self.TIMES, spec)
            for statistics in Statistics:
                got = coherent_amplitude(uniform(spec, statistics), kappa, self.TIMES, spec)
                assert np.abs(got - expected).max() < 1e-12, (kappa, statistics)

    @pytest.mark.parametrize("L", [10, 100, 400])
    def test_condensates_add_the_condensate_phase(self, L):
        # the superfluid is e^{i r0 t}, with r0 the rate at q = 0; a partial
        # condensate weighs that against the uniform amplitude by atom count
        spec = LatticeSpec(L=L)
        N, n0 = spec.sites, 0.3 * spec.sites
        for kappa in self.kappas(L):
            r0 = spec.J / spec.Z * (adjacency_fourier(kappa, spec) - adjacency_fourier((0, 0), spec))
            condensate = np.exp(1j * r0 * self.TIMES)
            got = coherent_amplitude(superfluid(spec), kappa, self.TIMES, spec)
            assert np.abs(got - condensate).max() < 1e-12, kappa
            expected = (n0 * condensate + (N - n0) * quench_amplitude(kappa, self.TIMES, spec)) / N
            got = coherent_amplitude(partial_condensation(spec, n0, N - n0), kappa, self.TIMES, spec)
            assert np.abs(got - expected).max() < 1e-12, kappa


class TestTransitions:
    """The quench curve is the uniform state's; the Fermi slow ramp's is the same."""

    def test_quench_at_zero(self, spec100):
        quench = peak_curve(uniform(spec100), Mode(1, 1), [0.0], spec100)
        assert quench[0] == pytest.approx(1.0, abs=1e-12)

    def test_quench_L2_closed_form(self):
        spec = LatticeSpec(L=2)
        times = [0.3, 1.1, 2.2]
        for t, value in zip(times, peak_curve(uniform(spec), Mode(1, 0), times, spec)):
            assert value == pytest.approx(np.cos(t) ** 2, abs=1e-12)

    def test_quench_forward_mode(self, spec100):
        times = [0.0, 5.0, 50.0]
        for value in peak_curve(uniform(spec100), Mode(0, 0), times, spec100):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_adiabatic_fermi_equals_quench(self, spec100):
        times = [0.0, 10.0, 76.5]
        quench = peak_curve(uniform(spec100), Mode(1, 1), times, spec100)
        fermi = uniform(spec100, Statistics.FERMI)
        for value, q in zip(peak_curve(fermi, Mode(1, 1), times, spec100), quench):
            assert value == pytest.approx(q, abs=1e-15)


class TestEmissionCurve:
    """Whole curves as peak_curve and the CLI give them."""

    def test_superfluid_all_ones(self, spec100):
        grid = np.linspace(0, 100, 50)
        curve = peak_curve(superfluid(spec100), Mode(1, 1), grid, spec100)
        assert np.abs(curve - 1.0).max() < 1e-12

    def test_values_bounded(self, spec100):
        grid = np.linspace(0, 100, 80)
        N = spec100.sites
        for dist in (
            uniform(spec100),
            metallic(spec100),
            partial_condensation(spec100, N / 2, N / 2),
            bose_einstein(spec100, 1.0),
        ):
            curve = peak_curve(dist, Mode(1, 1), grid, spec100)
            assert curve.min() >= 0.0
            assert curve.max() <= 1.0 + 1e-9
            assert curve[0] == pytest.approx(1.0, abs=1e-12)

    def test_high_temperature_thermal_matches_uniform(self, spec100):
        grid = np.linspace(0, 100, 100)
        kappa = Mode(1, 1)
        th = peak_curve(bose_einstein(spec100, 0.01), kappa, grid, spec100)
        uni = peak_curve(uniform(spec100), kappa, grid, spec100)
        assert np.abs(th - uni).max() < 1e-2

    def test_uniform_matches_bessel(self, spec100):
        grid = np.linspace(0, 100, 100)
        curve = peak_curve(uniform(spec100), Mode(1, 1), grid, spec100)
        envelope = bessel_envelope(Mode(1, 1), grid, spec100) ** 2
        assert np.abs(curve - envelope).max() < 1e-2

    def test_separable_scenarios_constant(self, tmp_path):
        # the frozen unit-filling states are written by the CLI alone
        for statistics, state in (("bose", "mott"), ("fermi", "neel")):
            out = tmp_path / f"{state}.csv"
            argv = ["curve", "--statistics", statistics, "--state", state]
            assert main([*argv, "--L", "100", "--steps", "10", "-o", str(out)]) == 0
            values = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
            assert values == {"1.000000000000"}

    def test_fermi_adiabatic_tagged_approximate(self, tmp_path, capsys):
        out = tmp_path / "adiabatic.csv"
        for statistics, noted in (("fermi", True), ("bose", False)):
            argv = ["adiabatic", "--statistics", statistics, "--L", "10", "--steps", "5"]
            assert main([*argv, "-o", str(out)]) == 0
            err = capsys.readouterr().err
            assert ("note: small-wave-number approximation" in err) is noted

    def test_grid_validation(self, spec100):
        dist = superfluid(spec100)
        for grid, message in (
            ([-1.0, 0.5], "dt must be finite and nonnegative"),
            ([], "dt must be a scalar or a nonempty 1-d array"),
            ([[0.0, 1.0]], "dt must be a scalar or a nonempty 1-d array"),
            ([0.0, np.nan], "dt must be finite"),
            ([0.0, np.inf], "dt must be finite"),
            ([np.inf, np.inf], "dt must be finite"),
        ):
            with pytest.raises(ValueError, match=message):
                peak_curve(dist, Mode(1, 1), np.array(grid), spec100)

    def test_reversed_grid_gives_the_reversed_curve(self, spec100):
        # each time is computed on its own, so a grid needs no order
        dist = bose_einstein(spec100, 1.0)
        grid = np.linspace(0.0, 100.0, 3 * _TIME_BLOCK + 5)
        curve = peak_curve(dist, Mode(1, 1), grid, spec100)
        assert np.array_equal(peak_curve(dist, Mode(1, 1), grid[::-1], spec100), curve[::-1])
        order = np.random.default_rng(17).permutation(grid.size)
        assert np.array_equal(peak_curve(dist, Mode(1, 1), grid[order], spec100), curve[order])

    def test_scenario_discrimination(self, spec100):
        # at the envelope zero the bose quench and adiabatic curves split by ~1
        grid = np.linspace(0, 100, 500)
        kappa = Mode(1, 1)
        quench = peak_curve(uniform(spec100), kappa, grid, spec100)
        adiabatic = peak_curve(superfluid(spec100), kappa, grid, spec100)
        idx = np.argmin(quench[: len(grid) // 2 + 150])
        assert adiabatic[idx] - quench[idx] > 0.5
        fermi_a = peak_curve(uniform(spec100, Statistics.FERMI), kappa, grid, spec100)
        assert np.abs(quench - fermi_a).max() < 1e-12
