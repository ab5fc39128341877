"""Ground-level momentum occupation numbers for the lattice state catalog.

Bosonic states carry one channel, fermionic states two spin channels
(index 0 = up, 1 = down).  Both thermal constructors hold N = L^2 atoms
and share one chemical-potential solve (_thermal), a bounded bisection.
Each trial mu sums the occupation over the distinct band energies weighted
by how many modes share each one (lattice._energy_levels: about L^2/8
levels for L^2 modes); the accepted mu is evaluated in place on the band's
table of (|n|, |m|) pairs (lattice._band, about L^2/4 entries) and gathered
onto the grid.  The bisection stops once its bracket has collapsed onto
adjacent floats, where every further midpoint would repeat one already
tried; what it leaves over goes to the modes of the level nearest mu.

The spin-symmetric Fermi states (fermi_dirac, metallic, uniform) store one
channel, read-only and broadcast to both spins, so a state at L = 400 holds
one (L, L) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .lattice import LatticeSpec, Mode, _band, _energy_levels, mode_index

__all__ = [
    "MomentumDistribution",
    "Statistics",
    "bose_einstein",
    "fermi_dirac",
    "metallic",
    "partial_condensation",
    "superfluid",
    "uniform",
]

_TOTAL_RTOL = 1e-9
_BISECT_RTOL = 1e-12
_BISECT_MAX_ITER = 200
_EXP_CLIP = 700.0  # exp overflows just above this


class Statistics(str, Enum):
    BOSE = "bose"
    FERMI = "fermi"


class _Owned(NamedTuple):
    """A builder's fresh occupations buffer, adopted by MomentumDistribution without a copy."""

    array: np.ndarray


@dataclass(frozen=True)
class MomentumDistribution:
    """Occupation numbers n_s(k) on the Brillouin-zone grid.

    occupations has shape (channels, L, L) with channels = 1 (bose) or
    2 (fermi); entry [s, i, j] belongs to the mode with array indices (i, j).
    Instances are immutable; the array is marked read-only.  An array passed
    in is copied, so its owner cannot change the distribution afterwards;
    only this module's builders hand over a buffer of their own.
    """

    statistics: Statistics
    occupations: np.ndarray
    total_target: float
    chemical_potential: float | None = None

    def __post_init__(self) -> None:
        occ = self.occupations
        occ = occ.array if isinstance(occ, _Owned) else np.array(occ, dtype=float)
        channels = 1 if self.statistics is Statistics.BOSE else 2
        if occ.ndim != 3 or occ.shape[0] != channels or occ.shape[1] != occ.shape[2]:
            raise ValueError(
                f"occupations must have shape ({channels}, L, L), got {occ.shape}"
            )
        if not np.all(np.isfinite(occ)):
            raise ValueError("occupations must be finite")
        if np.any(occ < 0):
            raise ValueError("occupations must be nonnegative")
        if self.statistics is Statistics.FERMI and np.any(occ > 1.0 + 1e-12):
            raise ValueError("fermionic occupations may not exceed 1")
        if not math.isfinite(self.total_target):
            raise ValueError(f"total_target must be finite, got {self.total_target}")
        total = float(occ.sum())
        scale = max(abs(self.total_target), 1.0)
        if abs(total - self.total_target) > _TOTAL_RTOL * scale:
            raise ValueError(
                f"occupations sum to {total}, expected {self.total_target}"
            )
        occ.setflags(write=False)
        object.__setattr__(self, "occupations", occ)

    @property
    def L(self) -> int:
        return self.occupations.shape[1]

    def total(self) -> float:
        return float(self.occupations.sum())

    def occupation(self, mode: tuple[int, int], channel: int = 0):
        """n_channel(k) with the index pair reduced into the canonical range.

        The mode's parts and the channel may be integer arrays; they broadcast.
        """
        i, j = mode_index(mode, self.L)
        return self.occupations[channel, i, j]


def superfluid(spec: LatticeSpec) -> MomentumDistribution:
    """All N bosons condensed at k = 0: n(k) = N delta_{k,0}."""
    occ = np.zeros((1, spec.L, spec.L))
    occ[(0, *mode_index(Mode(0, 0), spec.L))] = float(spec.sites)
    return MomentumDistribution(Statistics.BOSE, _Owned(occ), float(spec.sites))


def partial_condensation(
    spec: LatticeSpec, n_condensed: float, n_distributed: float
) -> MomentumDistribution:
    """n_condensed bosons at k = 0 plus n_distributed spread evenly over all modes."""
    N = spec.sites
    if not (math.isfinite(n_condensed) and math.isfinite(n_distributed)):
        raise ValueError("atom counts must be finite")
    if n_condensed < 0 or n_distributed < 0:
        raise ValueError("atom counts must be nonnegative")
    if abs(n_condensed + n_distributed - N) > _TOTAL_RTOL * N:
        raise ValueError(
            f"n_condensed + n_distributed must equal N = {N}, "
            f"got {n_condensed + n_distributed}"
        )
    occ = np.full((1, spec.L, spec.L), n_distributed / N, dtype=float)
    occ[(0, *mode_index(Mode(0, 0), spec.L))] += n_condensed
    return MomentumDistribution(Statistics.BOSE, _Owned(occ), float(N))


def uniform(spec: LatticeSpec, statistics: Statistics = Statistics.BOSE) -> MomentumDistribution:
    """One atom per mode in total: n = 1 (bose) or n_s = 1/2 per spin (fermi)."""
    statistics = Statistics(statistics)
    if statistics is Statistics.BOSE:
        occ = np.ones((1, spec.L, spec.L))
    else:
        occ = np.broadcast_to(np.full((spec.L, spec.L), 0.5), (2, spec.L, spec.L))
    return MomentumDistribution(statistics, _Owned(occ), float(spec.sites))


def metallic(spec: LatticeSpec) -> MomentumDistribution:
    """Half-filled Fermi sea: n_s(k) = 1 inside the open diamond |kx|+|ky| < pi/ell.

    The diamond edge is left empty, so the state holds exactly
    N - 2(L-1) atoms (the non-degenerate ground-state filling).
    """
    L = spec.L
    axis = _band(spec)[1]  # |n| of each grid index
    inside = axis[:, None] + axis[None, :] < L // 2
    occ = np.broadcast_to(inside.astype(float), (2, L, L))
    total = float(spec.sites - 2 * (L - 1))
    return MomentumDistribution(Statistics.FERMI, _Owned(occ), total)


def _bisect_mu(
    occupation_sum: Callable[[float], float],
    total: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Bounded bisection on a monotonically increasing occupation sum.

    Returns (mu, residual).  Deep in the condensed regime, and in a cold
    Fermi sea, the sum can jump by more than the tolerance per ulp of mu;
    _thermal's remainder rule places what a nonzero residual leaves over.
    Once lo and hi are adjacent floats the midpoint rounds onto an endpoint
    that was already evaluated; from there on no iteration can move the best
    point, so the loop stops instead of running out its iteration cap.  No
    mu is evaluated twice.
    """
    tol = _BISECT_RTOL * max(total, 1.0)
    best_mu, best_err = lo, abs(occupation_sum(lo) - total)
    hi_evaluated = False
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or (mid == hi and hi_evaluated):
            break
        value = occupation_sum(mid)
        err = abs(value - total)
        if err < best_err:
            best_mu, best_err = mid, err
        if err <= tol:
            return mid, err
        if value >= total:
            hi, hi_evaluated = mid, True
        else:
            lo = mid
    return best_mu, best_err


def _thermal(
    spec: LatticeSpec,
    statistics: Statistics,
    beta: float,
    occupations_at: Callable[..., np.ndarray],
    bracket: Callable[[np.ndarray, Callable[[float], bool]], tuple[float, float]],
) -> MomentumDistribution:
    """N atoms in the thermal occupations of one channel, equal in both Fermi spins.

    occupations_at(energies, mu, out=None) is one channel's occupation;
    bracket(levels, holds_all) returns (lo, hi) around mu, where
    holds_all(mu) tells whether mu holds all N atoms.  If even mu = hi
    holds too few, mu stays at hi.  One remainder rule: when the atom count
    misses its tolerance, the remainder is spread evenly over the modes of
    the level nearest mu, which is k = 0 alone below the Bose band and the
    straddled level of a cold Fermi sea.  A share that would take such a
    mode below 0, or a fermion mode above 1, raises RuntimeError.
    A bracket that overflows (beta too small) raises ValueError.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("inverse_temperature must be finite and positive")
    channels = 1 if statistics is Statistics.BOSE else 2
    total = float(spec.sites)
    table, axis = _band(spec)
    levels, counts = _energy_levels(table, axis)

    def occupation_sum(mu: float) -> float:
        # numpy's own sum, not a BLAS dot, keeps mu independent of the thread count
        return channels * float((counts * occupations_at(levels, mu)).sum())

    # At tiny beta the Bose sum overflows to inf (beta (E - mu) underflows at the band
    # bottom), the right limit; at a huge J, E - mu overflows and is clipped like any exponent.
    with np.errstate(over="ignore", divide="ignore"):
        lo, hi = bracket(levels, lambda mu: occupation_sum(mu) >= total)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"inverse_temperature {beta!r} is too small: the chemical-potential "
                "bracket overflows"
            )
        if occupation_sum(hi) < total:
            mu, residual = hi, math.inf
        else:
            mu, residual = _bisect_mu(occupation_sum, total, lo, hi)
        shell = None
        if residual > _TOTAL_RTOL * total:  # a bool table, taken before it holds occupations
            shell = table == levels[np.argmin(np.abs(levels - mu))]
        occupations_at(table, mu, out=table)
    del levels, counts  # one (L, L) array at the peak: the levels go before the gather
    occ = table[np.ix_(axis, axis)]
    del table  # and the table after it
    if shell is not None:
        shell = shell[np.ix_(axis, axis)]
        share = (total / channels - occ.sum()) / np.count_nonzero(shell)
        filled = occ[shell] + share
        if filled.min() < 0 or (channels == 2 and filled.max() > 1):
            raise RuntimeError(
                f"mu bisection stalled with residual {residual:.3e} on target {total}"
            )
        occ[shell] = filled
    return MomentumDistribution(
        statistics,
        _Owned(np.broadcast_to(occ, (channels, spec.L, spec.L))),
        total,
        chemical_potential=mu,
    )


def bose_einstein(spec: LatticeSpec, inverse_temperature: float) -> MomentumDistribution:
    """Bose-Einstein occupations 1/(exp(beta (E(k) - mu)) - 1) of N = L^2 atoms.

    mu is solved by bisection below the band minimum.  If even mu pinned at
    E_min - 1e-12 J cannot hold all atoms thermally, mu stays pinned and the
    remainder is placed at k = 0 as a condensate, or evenly over all modes
    at J = 0, where they share one level (_thermal's remainder rule).  An
    inverse temperature so small that the bisection bracket overflows is
    rejected.
    """
    beta = inverse_temperature

    def occupations_at(energies: np.ndarray, mu: float, out=None) -> np.ndarray:
        # 1 / expm1(min(beta (E - mu), clip)), step by step in one buffer;
        # out=energies overwrites the energies.  A product that overflows
        # to inf is clipped like any other large one.
        x = np.subtract(energies, mu, out=out)
        with np.errstate(over="ignore"):
            x *= beta
        np.minimum(x, _EXP_CLIP, out=x)
        np.expm1(x, out=x)
        return np.divide(1.0, x, out=x)

    def bracket(levels: np.ndarray, holds_all) -> tuple[float, float]:
        # hi is pinned just below the band; lo steps down, doubling, until
        # it holds too few atoms (at once when the pinned mu does too)
        pin = float(levels.min()) - 1e-12 * (spec.J if spec.J > 0 else 1.0)
        lo, span = pin, max(spec.J, 1.0 / beta)
        while holds_all(lo):
            lo -= span
            span *= 2.0
        return lo, pin

    return _thermal(spec, Statistics.BOSE, beta, occupations_at, bracket)


def fermi_dirac(spec: LatticeSpec, inverse_temperature: float) -> MomentumDistribution:
    """Fermi-Dirac occupations 1/(exp(beta (E(k) - mu)) + 1) at half filling.

    N = L^2 atoms, equal in both spins.  In a cold Fermi sea the atoms the
    bisection cannot place go to the level at mu (_thermal's remainder
    rule).  An inverse temperature so small that the bisection bracket
    overflows is rejected.
    """
    beta = inverse_temperature

    def occupations_at(energies: np.ndarray, mu: float, out=None) -> np.ndarray:
        # 1 / (exp(clip(beta (E - mu))) + 1), step by step in one buffer;
        # out=energies overwrites the energies.  A product that overflows
        # to +-inf is clipped like any other large one.
        x = np.subtract(energies, mu, out=out)
        with np.errstate(over="ignore"):
            x *= beta
        np.clip(x, -_EXP_CLIP, _EXP_CLIP, out=x)
        np.exp(x, out=x)
        x += 1.0
        return np.divide(1.0, x, out=x)

    def bracket(levels: np.ndarray, holds_all) -> tuple[float, float]:
        # Half filling needs no search: margin puts beta (E - mu) >= 40 at
        # lo, where a mode holds at most 1/(e^40 + 1) ~ 4e-18 atoms, and
        # <= -40 at hi, where it lacks at most that much.
        margin = 40.0 / beta + spec.J + 1.0
        return float(levels.min()) - margin, float(levels.max()) + margin

    return _thermal(spec, Statistics.FERMI, beta, occupations_at, bracket)
