"""Closed-form four-point correlators and the Dicke ladder matrix elements.

The delta structure of these expressions is what lets the emission kernel
collapse the O(N^2) double mode sum into a single coherent sum.

Each four-point form takes its modes k, q, kappa_in, kappa_out as `Mode`s or
(n, m) pairs whose parts may be integer arrays, and fermionic spins
(0 = up, 1 = down; any other raises ValueError) as integers or integer
arrays.  All arguments broadcast like numpy, so one call evaluates a whole
grid of queries; a single query returns a 0-d value.  Index pairs outside
the canonical range wrap around the Brillouin zone.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .distributions import MomentumDistribution, Statistics
from .lattice import LatticeSpec, mode_sub

__all__ = [
    "bosonic_four_point",
    "dicke_ladder_factor",
    "fermionic_four_point",
    "mott_correlator",
    "neel_correlator",
]


def _delta(a, b, L: int) -> np.ndarray:
    """1.0 where modes a and b coincide on the periodic grid, else 0.0.

    Float, not bool: numpy adds two bool arrays as a logical or.
    """
    diff = mode_sub(a, b, L)
    return (np.equal(diff.n, 0) & np.equal(diff.m, 0)) * 1.0


def bosonic_four_point(dist: MomentumDistribution, k, q, kappa_in, kappa_out):
    """<a+_{q-kin} a_{q-kout} a+_{k-kout} a_{k-kin}> for a k-diagonal bosonic state.

    Equals n(k-kin) n(q-kout) (d_kappa + d_kq) + n(k-kin) d_kq
    - n(k-kin) [n(q-kout) + 1] d_kq d_kappa, with d_* the Kronecker deltas.
    For Gaussian (Wick) states the last line is absent; it is retained here
    because the difference only touches the single-mode term.
    """
    if dist.statistics is not Statistics.BOSE:
        raise ValueError("bosonic_four_point needs a bosonic distribution")
    L = dist.L
    d_kappa, d_kq = _delta(kappa_in, kappa_out, L), _delta(k, q, L)
    n1 = dist.occupation(mode_sub(k, kappa_in, L))
    n2 = dist.occupation(mode_sub(q, kappa_out, L))
    return n1 * n2 * (d_kappa + d_kq) + n1 * d_kq - d_kq * d_kappa * n1 * (n2 + 1.0)


def fermionic_four_point(dist: MomentumDistribution, k, q, kappa_in, kappa_out, s1, s2):
    """Fermionic analog with explicit spins s1, s2.

    Equals n_s1(k-kin) n_s2(q-kout) (d_kappa - d_kq d_spin)
    + n_s1(k-kin) d_kq d_spin.
    """
    if dist.statistics is not Statistics.FERMI:
        raise ValueError("fermionic_four_point needs a fermionic distribution")
    L = dist.L
    d_kappa = _delta(kappa_in, kappa_out, L)
    d_pauli = _delta(k, q, L) * np.equal(s1, s2)
    n1 = dist.occupation(mode_sub(k, kappa_in, L), channel=s1)
    n2 = dist.occupation(mode_sub(q, kappa_out, L), channel=s2)
    return n1 * n2 * (d_kappa - d_pauli) + n1 * d_pauli


def mott_correlator(spec: LatticeSpec, k, q, kappa_in, kappa_out):
    """Bosonic four-point correlator in the unit-filling Mott state.

    d_kappa + 2 d_kq - 2/N, exact for every query on the finite grid.
    """
    d_kappa, d_kq = _delta(kappa_in, kappa_out, spec.L), _delta(k, q, spec.L)
    return d_kappa + 2.0 * d_kq - 2.0 / spec.sites


def neel_correlator(spec: LatticeSpec, k, q, kappa_in, kappa_out):
    """Spin-summed fermionic four-point correlator in the Mott-Neel state.

    d_kappa + d_kq / 2.  (The checkerboard sub-lattice sums also produce a
    -1/2 at k - q = (pi/ell, pi/ell); that piece never reaches the coherent
    N^2 peak and is dropped here, matching the closed form used downstream.
    The oracle's `neel-sublattice-gap` check measures that the exact value
    sits exactly 1/2 below this one there.)
    """
    d_kappa, d_kq = _delta(kappa_in, kappa_out, spec.L), _delta(k, q, spec.L)
    return d_kappa + 0.5 * d_kq


def dicke_ladder_factor(n_atoms: int, n_excitations: int) -> float:
    """Matrix element sqrt((N - n)(n + 1)) of the collective raising operator at n.

    By Hermiticity it is also the lowering element at n + 1; N and n are integers.
    """
    N, n = n_atoms, n_excitations
    if not (isinstance(N, numbers.Integral) and isinstance(n, numbers.Integral) and 0 <= n < N):
        raise ValueError(f"raising needs integers 0 <= n < N, got n={n!r}, N={N!r}")
    return math.sqrt((N - n) * (n + 1))
