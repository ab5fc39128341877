"""Closed-form four-point correlators and the Dicke ladder matrix elements.

The delta structure of these expressions is what lets the emission kernel
collapse the O(N^2) double mode sum into a single coherent sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .distributions import MomentumDistribution, Statistics
from .lattice import LatticeSpec, Mode, canonical_mode, mode_sub

__all__ = [
    "CorrelatorQuery",
    "bosonic_four_point",
    "dicke_ladder_factor",
    "fermionic_four_point",
    "mott_correlator",
    "neel_correlator",
]


@dataclass(frozen=True)
class CorrelatorQuery:
    """Mode and spin indices of one ground-level four-point expectation.

    Spins (0 = up, 1 = down) are only meaningful for fermionic queries.
    """

    k: Mode
    q: Mode
    kappa_in: Mode
    kappa_out: Mode
    s1: int | None = None
    s2: int | None = None


def _deltas(query: CorrelatorQuery, L: int) -> tuple[bool, bool]:
    same_kappa = canonical_mode(query.kappa_in, L) == canonical_mode(query.kappa_out, L)
    same_kq = canonical_mode(query.k, L) == canonical_mode(query.q, L)
    return same_kappa, same_kq


def bosonic_four_point(dist: MomentumDistribution, query: CorrelatorQuery) -> float:
    """<a+_{q-kin} a_{q-kout} a+_{k-kout} a_{k-kin}> for a k-diagonal bosonic state.

    Equals n(k-kin) n(q-kout) (d_kappa + d_kq) + n(k-kin) d_kq
    - n(k-kin) [n(q-kout) + 1] d_kq d_kappa, with d_* the Kronecker deltas.
    For Gaussian (Wick) states the last line is absent; it is retained here
    because the difference only touches the single-mode term.
    """
    if dist.statistics is not Statistics.BOSE:
        raise ValueError("bosonic_four_point needs a bosonic distribution")
    L = dist.L
    d_kappa, d_kq = _deltas(query, L)
    n1 = dist.occupation(mode_sub(query.k, query.kappa_in, L))
    n2 = dist.occupation(mode_sub(query.q, query.kappa_out, L))
    value = n1 * n2 * (d_kappa + d_kq) + n1 * d_kq
    if d_kq and d_kappa:
        value -= n1 * (n2 + 1.0)
    return value


def fermionic_four_point(dist: MomentumDistribution, query: CorrelatorQuery) -> float:
    """Fermionic analog with explicit spins s1, s2.

    Equals n_s1(k-kin) n_s2(q-kout) (d_kappa - d_kq d_spin)
    + n_s1(k-kin) d_kq d_spin.
    """
    if dist.statistics is not Statistics.FERMI:
        raise ValueError("fermionic_four_point needs a fermionic distribution")
    if query.s1 is None or query.s2 is None:
        raise ValueError("fermionic queries need both spin indices")
    L = dist.L
    d_kappa, d_kq = _deltas(query, L)
    d_spin = query.s1 == query.s2
    n1 = dist.occupation(mode_sub(query.k, query.kappa_in, L), channel=query.s1)
    n2 = dist.occupation(mode_sub(query.q, query.kappa_out, L), channel=query.s2)
    return n1 * n2 * (d_kappa - (d_kq and d_spin)) + n1 * (d_kq and d_spin)


def mott_correlator(query: CorrelatorQuery, spec: LatticeSpec) -> float:
    """Bosonic four-point correlator in the unit-filling Mott state.

    d_kappa + 2 d_kq - 2/N, exact for every query on the finite grid.
    """
    d_kappa, d_kq = _deltas(query, spec.L)
    return float(d_kappa) + 2.0 * d_kq - 2.0 / spec.sites


def neel_correlator(query: CorrelatorQuery, spec: LatticeSpec) -> float:
    """Spin-summed fermionic four-point correlator in the Mott-Neel state.

    d_kappa + d_kq / 2.  (The checkerboard sub-lattice sums also produce a
    -1/2 at k - q = (pi/ell, pi/ell); that piece never reaches the coherent
    N^2 peak and is dropped here, matching the closed form used downstream.
    The oracle's `neel-sublattice-gap` check measures that the exact value
    sits exactly 1/2 below this one there.)
    """
    d_kappa, d_kq = _deltas(query, spec.L)
    return float(d_kappa) + 0.5 * d_kq


def dicke_ladder_factor(
    n_atoms: int, n_excitations: int, direction: Literal["raise", "lower"]
) -> float:
    """Matrix element of the collective raising/lowering operator.

    raise: sqrt((N - n)(n + 1)); lower: sqrt((N - n + 1) n).  Hermiticity
    pairs raise at n with lower at n + 1.
    """
    N, n = n_atoms, n_excitations
    if direction == "raise":
        if not 0 <= n < N:
            raise ValueError(f"raising needs 0 <= n < N, got n={n}, N={N}")
        return math.sqrt((N - n) * (n + 1))
    if direction == "lower":
        if not 1 <= n <= N:
            raise ValueError(f"lowering needs 1 <= n <= N, got n={n}, N={N}")
        return math.sqrt((N - n + 1) * n)
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
