"""Documented invariants of C(dt) and n_meta over random states, modes and grids.

|C(dt)| <= 1 with C(0) = 1 exactly for every momentum distribution, and
the metastable population of the reversed sequence lies in [0, 4 nbar],
with nbar = N alpha^2 / 4 taken from the state's atom total, and is exactly
0 at dt = 0.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dickeprobe.classical import metastable_population
from dickeprobe.distributions import (
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from dickeprobe.emission import coherent_amplitude
from dickeprobe.lattice import LatticeSpec, Mode

TOL = 1e-12


@st.composite
def lattice_states(draw):
    spec = LatticeSpec(L=draw(st.sampled_from([2, 4, 6, 10])))
    beta = draw(st.floats(0.01, 50.0))
    condensed = draw(st.floats(0.0, 1.0)) * spec.sites
    states = {
        "bose superfluid": lambda: superfluid(spec),
        "bose partial": lambda: partial_condensation(spec, condensed, spec.sites - condensed),
        "bose thermal": lambda: bose_einstein(spec, beta),
        "bose uniform": lambda: uniform(spec, Statistics.BOSE),
        "fermi metallic": lambda: metallic(spec),
        "fermi thermal": lambda: fermi_dirac(spec, beta),
        "fermi uniform": lambda: uniform(spec, Statistics.FERMI),
    }
    dist = states[draw(st.sampled_from(sorted(states)))]()
    indices = st.integers(-(spec.L // 2) + 1, spec.L // 2)
    kappa = Mode(draw(indices), draw(indices))
    times = np.array([0.0, *draw(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6))])
    return spec, dist, kappa, times


@given(lattice_states())
def test_coherent_amplitude_bounded_and_one_at_zero(case):
    spec, dist, kappa, times = case
    C = coherent_amplitude(dist, kappa, times, spec)
    assert C[0] == 1.0
    assert np.all(np.abs(C) <= 1.0 + TOL)


@given(lattice_states(), st.floats(1e-4, 0.3))
def test_metastable_population_within_zero_and_four_nbar(case, alpha):
    spec, dist, kappa, times = case
    nbar = dist.total_target * alpha**2 / 4.0
    n_meta = metastable_population(dist, coherent_amplitude(dist, kappa, times, spec), alpha)
    tol = 2.0 * nbar * TOL
    assert n_meta[0] == 0.0
    assert np.all(n_meta >= -tol)
    assert np.all(n_meta <= 4.0 * nbar + tol)
