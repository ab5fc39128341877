import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dickeprobe.lattice import (
    LatticeSpec,
    Mode,
    adjacency_matrix,
    canonical_mode,
    dephasing_rates,
    mode_grid,
    mode_index,
    mode_sub,
    site_coordinates,
    validate_mode,
)
from lattice_reference import (
    adjacency_fourier,
    band_grid,
    hopping_phase,
    mode_add,
    mode_energy,
    mode_neg,
)


class TestLatticeSpec:
    def test_sites(self):
        assert LatticeSpec(L=10).sites == 100

    @pytest.mark.parametrize("L", [0, 1, 3, 5, -2])
    def test_rejects_bad_L(self, L):
        with pytest.raises(ValueError):
            LatticeSpec(L=L)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatticeSpec(L=2, J=-1.0)
        with pytest.raises(ValueError):
            LatticeSpec(L=2, U=-0.5)

    def test_spacing_and_coordination_are_not_parameters(self):
        # k*ell = 2*pi*n/L leaves no spacing to set, and Z = 4 is the square lattice's
        with pytest.raises(TypeError):
            LatticeSpec(L=4, ell=1.0)
        with pytest.raises(TypeError):
            LatticeSpec(L=4, Z=4)
        assert LatticeSpec(L=4).Z == 4
        assert [field.name for field in dataclasses.fields(LatticeSpec)] == ["L", "J", "U"]

    def test_zero_tunneling_allowed(self):
        assert LatticeSpec(L=2, J=0.0).J == 0.0

    @pytest.mark.parametrize("J", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_tunneling(self, J):
        with pytest.raises(ValueError, match="J must be finite"):
            LatticeSpec(L=4, J=J)

    def test_rejects_tunneling_whose_dephasing_scale_overflows(self):
        # above about 8.99e307, 2J/Z overflows and every dephasing rate with it;
        # the spec rejects such a J before any builder or kernel sees it
        with pytest.raises(ValueError) as info:
            LatticeSpec(L=4, J=1e308)
        assert str(info.value) == "tunneling rate J = 1e+308 is too large: 2J/Z overflows"
        assert LatticeSpec(L=4, J=8.98e307).J == 8.98e307


class TestModeGrid:
    def test_L2_grid(self):
        modes = mode_grid(LatticeSpec(L=2))
        assert modes == [Mode(0, 0), Mode(0, 1), Mode(1, 0), Mode(1, 1)]

    def test_L4_grid(self):
        modes = mode_grid(LatticeSpec(L=4))
        assert len(modes) == 16
        ns = {mode.n for mode in modes}
        assert ns == {-1, 0, 1, 2}

    def test_L100_grid_endpoints(self):
        modes = mode_grid(LatticeSpec(L=100))
        assert len(modes) == 10_000
        indices = [mode.n for mode in modes] + [mode.m for mode in modes]
        assert min(indices) == -49
        assert max(indices) == 50

    def test_grid_is_duplicate_free(self):
        modes = mode_grid(LatticeSpec(L=6))
        assert len(set(modes)) == 36

    def test_validate_mode(self):
        assert validate_mode((1, -1), 4) == Mode(1, -1)
        with pytest.raises(ValueError):
            validate_mode((3, 0), 4)
        with pytest.raises(ValueError):
            validate_mode((0, -2), 4)
        with pytest.raises(ValueError, match="not an integer"):
            validate_mode((1.5, 0), 4)
        # a list passes as a pair, and an integral float comes back as an int
        assert validate_mode([1, -1], 4) == Mode(1, -1)
        assert type(validate_mode((2.0, 0), 4).n) is int

    @pytest.mark.parametrize(
        "entry",
        [
            lambda mode: canonical_mode(mode, 10),
            lambda mode: validate_mode(mode, 10),
            lambda mode: mode_sub(mode, (0, 0), 10),
            lambda mode: mode_sub((0, 0), mode, 10),
            lambda mode: mode_index(mode, 10),
        ],
        ids=["canonical_mode", "validate_mode", "mode_sub-a", "mode_sub-b", "mode_index"],
    )
    @pytest.mark.parametrize(
        "mode",
        [(1.5, 0), (0, np.nan), (np.inf, 0), (np.array([1.0, 2.0]), 0), (np.float64(0.5), 1)],
        ids=["fraction", "nan", "inf", "float-array", "numpy-fraction"],
    )
    def test_every_entry_rejects_non_integral_parts(self, entry, mode):
        # mode_index((1.5, 0), 10) would otherwise be the array index (5.5, 4)
        with pytest.raises(ValueError, match="has a part that is not an integer"):
            entry(mode)

    def test_integral_parts_wrap(self):
        # a scalar part comes back as a Python int, whatever its type
        for mode in ((7, -5), (7.0, -5.0), (np.int64(7), np.float64(-5.0))):
            wrapped = canonical_mode(mode, 10)
            assert wrapped == Mode(-3, 5)
            assert type(wrapped.n) is int and type(wrapped.m) is int
        assert mode_index((7.0, -5), 10) == (1, 9)

    def test_integer_array_parts_broadcast(self):
        n, m = np.arange(-6, 8)[:, None], np.array([[-4, 5, 6]])
        wrapped = canonical_mode((n, m), 10)
        assert wrapped.n.shape == (14, 1) and wrapped.m.shape == (1, 3)
        assert np.array_equal(wrapped.n[:, 0], [4, 5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, -4, -3])
        assert np.array_equal(wrapped.m, [[-4, 5, -4]])
        i, j = mode_index((n, m), 10)
        assert np.array_equal(i[:, 0], wrapped.n[:, 0] + 4)
        assert np.array_equal(mode_sub((n, m), (1, 1), 10).n, canonical_mode((n - 1, m), 10).n)

    @given(
        st.sampled_from([2, 4, 10]),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    def test_wraparound_roundtrip(self, L, a, b):
        a_canon = canonical_mode(a, L)
        assert mode_sub(mode_add(a, b, L), b, L) == a_canon
        assert mode_add(mode_neg(a, L), a, L) == Mode(0, 0)

    def test_mode_index_inverts_grid_order(self):
        spec = LatticeSpec(L=6)
        grid = band_grid(spec)
        for mode in mode_grid(spec):
            i, j = mode_index(mode, spec.L)
            assert grid[i, j] == pytest.approx(mode_energy(mode, spec), abs=1e-14)


class TestDispersion:
    def test_values(self):
        spec = LatticeSpec(L=4)
        assert adjacency_fourier(Mode(0, 0), spec) == pytest.approx(4.0, abs=1e-15)
        assert adjacency_fourier(Mode(2, 2), spec) == pytest.approx(-4.0, abs=1e-15)
        assert adjacency_fourier(Mode(2, 0), spec) == pytest.approx(0.0, abs=1e-15)

    def test_range_and_parity(self):
        spec = LatticeSpec(L=10)
        for mode in mode_grid(spec):
            value = adjacency_fourier(mode, spec)
            assert -4.0 - 1e-12 <= value <= 4.0 + 1e-12
            assert value == pytest.approx(
                adjacency_fourier(mode_neg(mode, spec.L), spec), abs=1e-12
            )

    def test_grid_sum_is_zero(self):
        # each cosine sums to zero over a full period
        for L in (2, 4, 10, 100):
            spec = LatticeSpec(L=L)
            assert abs(band_grid(spec).sum()) < 1e-12 * spec.sites

    def test_energy_sign(self):
        spec = LatticeSpec(L=4, J=2.0)
        assert mode_energy(Mode(0, 0), spec) == pytest.approx(-2.0)


class TestHoppingPhase:
    def test_zero_for_zero_transfer(self):
        spec = LatticeSpec(L=4)
        for p in mode_grid(spec):
            assert hopping_phase(p, Mode(0, 0), 1.7, spec) == 0.0

    def test_hand_value(self):
        # L=4, k=(pi/2l, 0): T(k)=2, T(0)=4, so -(1/4)(2-4)*1 = +0.5
        spec = LatticeSpec(L=4, J=1.0)
        assert hopping_phase(Mode(1, 0), Mode(1, 0), 1.0, spec) == pytest.approx(0.5, abs=1e-15)

    @given(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.floats(-50, 50),
        st.floats(-3, 3),
    )
    def test_linearity(self, p, k, t, scale):
        spec = LatticeSpec(L=4)
        lhs = hopping_phase(p, k, scale * t, spec)
        rhs = scale * hopping_phase(p, k, t, spec)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dephasing_rates_match_phase(self):
        spec = LatticeSpec(L=6, J=1.3)
        kappa = Mode(2, -1)
        rates = dephasing_rates(spec, kappa)
        for p in mode_grid(spec):
            i, j = mode_index(p, spec.L)
            assert rates[i, j] * 0.9 == pytest.approx(
                -hopping_phase(p, kappa, 0.9, spec), abs=1e-12
            )


class TestRealSpace:
    def test_adjacency_row_sums(self):
        for L in (2, 4, 6):
            A = adjacency_matrix(LatticeSpec(L=L))
            assert (A.sum(axis=1) == 4).all()
            assert (A == A.T).all()
            assert (np.diag(A) == 0).all()

    def test_L2_double_bonds(self):
        A = adjacency_matrix(LatticeSpec(L=2))
        # site (0,0) couples twice to (1,0) and (0,1), never to (1,1)
        assert A[0, 2] == 2 and A[0, 1] == 2 and A[0, 3] == 0

    def test_single_particle_spectrum_matches_dispersion(self):
        # eigenvalues of -(J/Z) A must be the values -(J/Z) T(k)
        for L in (2, 4):
            spec = LatticeSpec(L=L)
            A = adjacency_matrix(spec)
            hop = -spec.J / spec.Z * A
            expected = sorted(mode_energy(k, spec) for k in mode_grid(spec))
            got = sorted(np.linalg.eigvalsh(hop))
            assert np.allclose(got, expected, atol=1e-12)

    def test_site_coordinates(self):
        coords = site_coordinates(LatticeSpec(L=2))
        assert coords.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
