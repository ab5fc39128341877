import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dickeprobe.correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
    mott_correlator,
    neel_correlator,
)
from dickeprobe.distributions import (
    MomentumDistribution,
    Statistics,
    metallic,
    superfluid,
    uniform,
)
from dickeprobe.lattice import LatticeSpec, Mode, mode_grid


class TestBosonicFourPoint:
    def test_superfluid_coincidence(self):
        spec = LatticeSpec(L=4)
        dist = superfluid(spec)
        k = Mode(1, 1)
        N = spec.sites
        # N(N-1) from the coherent term plus N from the exchange term
        assert bosonic_four_point(dist, k, k, k, k) == pytest.approx(N * N)

    def test_uniform_all_deltas_vanish(self):
        dist = uniform(LatticeSpec(L=4))
        query = (Mode(0, 0), Mode(1, 0), Mode(0, 1), Mode(1, 1))
        assert bosonic_four_point(dist, *query) == 0.0

    def test_uniform_forward_distinct_modes(self):
        dist = uniform(LatticeSpec(L=4))
        query = (Mode(0, 0), Mode(1, 0), Mode(1, 1), Mode(1, 1))
        assert bosonic_four_point(dist, *query) == pytest.approx(1.0)

    def test_uniform_double_sum_enumeration(self):
        # brute-force sum over all (k, q): the delta pieces cancel exactly,
        # leaving N^2 (hand expansion: N^2 + N + N - 2N)
        spec = LatticeSpec(L=2)
        dist = uniform(spec)
        kappa = Mode(1, 0)
        total = sum(
            bosonic_four_point(dist, k, q, kappa, kappa)
            for k in mode_grid(spec)
            for q in mode_grid(spec)
        )
        assert total == pytest.approx(spec.sites**2, abs=1e-12)

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError):
            bosonic_four_point(
                metallic(LatticeSpec(L=4)), Mode(0, 0), Mode(0, 0), Mode(0, 0), Mode(0, 0)
            )

    def test_wrapping_queries(self):
        # off-range indices must reduce into the zone before the deltas fire:
        # k = (2,0) and q = (-2,0) coincide mod L = 4, so n n (0 + 1) + n = 2
        dist = uniform(LatticeSpec(L=4))
        q1 = (Mode(2, 0), Mode(-2, 0), Mode(1, 1), Mode(0, 1))
        assert bosonic_four_point(dist, *q1) == pytest.approx(2.0)
        # with x.in = x.out as well, the single-mode subtraction also fires
        q2 = (Mode(2, 0), Mode(-2, 0), Mode(1, 1), Mode(1, 1))
        assert bosonic_four_point(dist, *q2) == pytest.approx(1.0)


class TestFermionicFourPoint:
    def test_metallic_pauli_term(self):
        spec = LatticeSpec(L=100)
        dist = metallic(spec)
        k = Mode(0, 0)
        kappa = Mode(1, 1)
        # both shifted modes inside the diamond: 1*1*(1-1) + 1 = 1
        assert fermionic_four_point(dist, k, k, kappa, kappa, 0, 0) == pytest.approx(1.0)

    def test_unequal_spins_vanish(self):
        dist = metallic(LatticeSpec(L=4))
        query = (Mode(0, 0), Mode(0, 0), Mode(1, 0), Mode(0, 1))
        assert fermionic_four_point(dist, *query, 0, 1) == 0.0

    def test_vacuum(self):
        spec = LatticeSpec(L=4)
        empty = MomentumDistribution(Statistics.FERMI, np.zeros((2, 4, 4)), 0.0)
        for k in (Mode(0, 0), Mode(1, 1)):
            assert fermionic_four_point(empty, k, k, k, k, 0, 0) == 0.0

    def test_spin_relabeling_invariance(self):
        # equal channels: swapping up and down everywhere changes nothing
        dist = metallic(LatticeSpec(L=6))
        modes = [Mode(0, 0), Mode(1, 0), Mode(2, -1), Mode(3, 3)]
        for k in modes:
            for q in modes:
                for s1 in (0, 1):
                    for s2 in (0, 1):
                        query = (k, q, Mode(0, 1), Mode(1, 1))
                        assert fermionic_four_point(dist, *query, s1, s2) == pytest.approx(
                            fermionic_four_point(dist, *query, 1 - s1, 1 - s2)
                        )

    def test_requires_spins(self):
        dist = metallic(LatticeSpec(L=4))
        with pytest.raises(ValueError):
            fermionic_four_point(
                dist, Mode(0, 0), Mode(0, 0), Mode(0, 0), Mode(0, 0), None, None
            )
        # a spin outside (0, 1) meets the distribution's channel check
        for s1, s2 in ((2, 0), (0, -1), (np.array([0, 1, 2]), 0)):
            with pytest.raises(ValueError, match="outside range"):
                fermionic_four_point(dist, Mode(0, 0), Mode(0, 0), Mode(1, 0), Mode(1, 0), s1, s2)


class TestQuenchCorrelators:
    def test_mott_values(self):
        spec10 = LatticeSpec(L=10)  # N = 100
        coincident = (Mode(0, 0), Mode(0, 0), Mode(1, 1), Mode(1, 1))
        assert mott_correlator(spec10, *coincident) == pytest.approx(2.98)
        spec2 = LatticeSpec(L=2)  # N = 4
        distinct = (Mode(0, 0), Mode(1, 0), Mode(1, 1), Mode(0, 1))
        assert mott_correlator(spec2, *distinct) == pytest.approx(-0.5)

    def test_mott_large_N_limit(self):
        spec = LatticeSpec(L=1000)
        query = (Mode(0, 0), Mode(1, 0), Mode(1, 1), Mode(1, 1))
        assert mott_correlator(spec, *query) == pytest.approx(1.0, abs=1e-5)

    def test_neel_values(self):
        spec = LatticeSpec(L=10)
        both = (Mode(0, 0), Mode(0, 0), Mode(1, 1), Mode(1, 1))
        assert neel_correlator(spec, *both) == pytest.approx(1.5)
        neither = (Mode(0, 0), Mode(1, 0), Mode(1, 1), Mode(0, 1))
        assert neel_correlator(spec, *neither) == 0.0
        only_kq = (Mode(2, 0), Mode(2, 0), Mode(1, 1), Mode(0, 1))
        assert neel_correlator(spec, *only_kq) == pytest.approx(0.5)


def _on_axis(values, axis, ndim=6):
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(values, shape)


class TestBroadcasting:
    """One call over a grid of queries equals a loop of single-query calls, bit for bit."""

    # non-canonical images, repeats of one mode under another name included
    MODES = {
        2: [Mode(0, 0), Mode(0, 1), Mode(1, 0), Mode(1, 1), Mode(-1, 0), Mode(2, 3)],
        4: [Mode(0, 0), Mode(2, 0), Mode(-2, 0), Mode(1, -1), Mode(5, 3), Mode(-1, 2)],
    }

    @staticmethod
    def _cases(L, rng):
        spec = LatticeSpec(L=L)
        bose_occ = rng.uniform(0.0, 3.0, size=(1, L, L))
        fermi_channels = rng.uniform(0.0, 1.0, size=(2, L, L))  # distinct channels
        bose = MomentumDistribution(Statistics.BOSE, bose_occ, float(bose_occ.sum()))
        fermi = MomentumDistribution(Statistics.FERMI, fermi_channels, float(fermi_channels.sum()))
        return [
            (lambda *a: bosonic_four_point(bose, *a[:4]), False),
            (lambda *a: fermionic_four_point(fermi, *a), True),
            (lambda *a: mott_correlator(spec, *a[:4]), False),
            (lambda *a: neel_correlator(spec, *a[:4]), False),
        ]

    @pytest.mark.parametrize("L", [2, 4])
    def test_grid_call_equals_single_queries(self, L, rng):
        modes = self.MODES[L]
        n, m = np.array(modes).T
        grid = [Mode(_on_axis(n, axis), _on_axis(m, axis)) for axis in range(4)]
        spins = np.arange(2)
        for formula, spinful in self._cases(L, rng):
            s1, s2 = (spins[:, None], spins) if spinful else (0, 0)
            broadcast = np.broadcast_to(
                formula(*grid, s1, s2), (len(modes),) * 4 + ((2, 2) if spinful else (1, 1))
            )
            for idx in itertools.product(range(len(modes)), repeat=4):
                query = [modes[i] for i in idx]
                for a, b in itertools.product((0, 1), repeat=2) if spinful else [(0, 0)]:
                    single = formula(*query, a, b)
                    assert np.ndim(single) == 0
                    assert broadcast[idx + (a, b)] == single


class TestDickeLadder:
    def test_reference_values(self):
        assert dicke_ladder_factor(4, 0) == pytest.approx(2.0)
        assert dicke_ladder_factor(4, 1) == pytest.approx(math.sqrt(6.0))

    @given(st.integers(2, 500), st.data())
    def test_commutator_closes_the_ladder(self, N, data):
        # the lowering element at n is the raising element at n - 1, so
        # <n| [Sigma^-, Sigma^+] |n> = -2 <n| Sigma^z |n> reads
        # raise(n)^2 - raise(n - 1)^2 = N - 2n
        n = data.draw(st.integers(1, N - 1))
        step = dicke_ladder_factor(N, n) ** 2 - dicke_ladder_factor(N, n - 1) ** 2
        assert step == pytest.approx(N - 2 * n, abs=1e-12 * N * N)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            dicke_ladder_factor(4, 4)
        with pytest.raises(ValueError):
            dicke_ladder_factor(4, -1)

    @pytest.mark.parametrize("N, n", [(4.5, 1), (4, 1.0), (np.nan, 0)], ids=["N", "n", "nan"])
    def test_rejects_counts_that_are_not_integers(self, N, n):
        with pytest.raises(ValueError, match="needs integers"):
            dicke_ladder_factor(N, n)
