"""Ground-level momentum occupation numbers for the lattice state catalog.

Bosonic states carry one channel, fermionic states two spin channels
(index 0 = up, 1 = down).  Thermal constructors solve the chemical
potential by bounded bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .lattice import LatticeSpec, Mode, canonical_mode, energy_grid, mode_index

__all__ = [
    "ChemicalPotentialError",
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


class ChemicalPotentialError(RuntimeError):
    """The chemical-potential bisection did not reach its tolerance."""


@dataclass(frozen=True)
class MomentumDistribution:
    """Occupation numbers n_s(k) on the Brillouin-zone grid.

    occupations has shape (channels, L, L) with channels = 1 (bose) or
    2 (fermi); entry [s, i, j] belongs to the mode with array indices (i, j).
    Instances are immutable; the array is marked read-only.
    """

    statistics: Statistics
    occupations: np.ndarray
    total_target: float
    inverse_temperature: float | None = None
    chemical_potential: float | None = None

    def __post_init__(self) -> None:
        occ = np.array(self.occupations, dtype=float)
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

    @property
    def channels(self) -> int:
        return self.occupations.shape[0]

    def total(self) -> float:
        return float(self.occupations.sum())

    def occupation(self, mode: tuple[int, int], channel: int = 0) -> float:
        """n_channel(k) with the index pair reduced into the canonical range."""
        i, j = mode_index(canonical_mode(mode, self.L), self.L)
        return float(self.occupations[channel, i, j])

    def shifted_occupation_sum(self, kappa: tuple[int, int]) -> np.ndarray:
        """sum_s n_s(p - kappa) evaluated on the p-grid, shape (L, L)."""
        kappa = canonical_mode(kappa, self.L)
        summed = self.occupations.sum(axis=0)
        return np.roll(summed, shift=(kappa.n, kappa.m), axis=(0, 1))


def _zero_mode_index(L: int) -> tuple[int, int]:
    return mode_index(Mode(0, 0), L)


def superfluid(spec: LatticeSpec) -> MomentumDistribution:
    """All N bosons condensed at k = 0: n(k) = N delta_{k,0}."""
    occ = np.zeros((1, spec.L, spec.L))
    occ[(0, *_zero_mode_index(spec.L))] = float(spec.sites)
    return MomentumDistribution(Statistics.BOSE, occ, float(spec.sites))


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
    occ[(0, *_zero_mode_index(spec.L))] += n_condensed
    return MomentumDistribution(Statistics.BOSE, occ, float(N))


def uniform(spec: LatticeSpec, statistics: Statistics = Statistics.BOSE) -> MomentumDistribution:
    """One atom per mode in total: n = 1 (bose) or n_s = 1/2 per spin (fermi)."""
    statistics = Statistics(statistics)
    if statistics is Statistics.BOSE:
        occ = np.ones((1, spec.L, spec.L))
    else:
        occ = np.full((2, spec.L, spec.L), 0.5)
    return MomentumDistribution(statistics, occ, float(spec.sites))


def metallic(spec: LatticeSpec) -> MomentumDistribution:
    """Half-filled Fermi sea: n_s(k) = 1 inside the open diamond |kx|+|ky| < pi/ell.

    The diamond edge is left empty, so the state holds exactly
    N - 2(L-1) atoms (the non-degenerate ground-state filling).
    """
    L = spec.L
    lo = -(L // 2) + 1
    idx = np.arange(L) + lo
    inside = (np.abs(idx)[:, None] + np.abs(idx)[None, :]) < L // 2
    occ = np.broadcast_to(inside.astype(float), (2, L, L)).copy()
    total = float(spec.sites - 2 * (L - 1))
    return MomentumDistribution(Statistics.FERMI, occ, total)


def _bisect_mu(
    occupation_sum: Callable[[float], float],
    total: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Bounded bisection on a monotonically increasing occupation sum.

    Returns (mu, residual).  Deep in the condensed regime the sum can jump by
    more than the tolerance per ulp of mu, so the caller decides what to do
    with a nonzero residual.
    """
    tol = _BISECT_RTOL * max(total, 1.0)
    best_mu, best_err = lo, abs(occupation_sum(lo) - total)
    for _ in range(_BISECT_MAX_ITER):
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


def bose_einstein(
    spec: LatticeSpec, inverse_temperature: float, total: float | None = None
) -> MomentumDistribution:
    """Bose-Einstein occupations 1/(exp(beta (E(k) - mu)) - 1) summing to `total`.

    mu is solved by bisection below the band minimum.  If even mu pinned at
    E_min - 1e-12 J cannot hold all atoms thermally, mu stays pinned and the
    remainder is placed at k = 0 as an explicit condensate.
    """
    if not (inverse_temperature > 0 and math.isfinite(inverse_temperature)):
        raise ValueError("inverse_temperature must be finite and positive")
    N = spec.sites
    if total is None:
        total = float(N)
    if total <= 0:
        raise ValueError("total atom number must be positive")
    energies = energy_grid(spec)
    e_min = float(energies.min())
    beta = inverse_temperature

    def occupations_at(mu: float) -> np.ndarray:
        x = np.minimum(beta * (energies - mu), _EXP_CLIP)
        return 1.0 / np.expm1(x)

    pin = e_min - 1e-12 * (spec.J if spec.J > 0 else 1.0)
    if float(occupations_at(pin).sum()) < total:
        # Condensed branch: thermal cloud at the pinned mu, rest at k = 0.
        occ = occupations_at(pin)
        occ[_zero_mode_index(spec.L)] += total - occ.sum()
        mu = pin
    else:
        lo, span = pin, max(spec.J, 1.0 / beta)
        while float(occupations_at(lo).sum()) >= total:
            lo -= span
            span *= 2.0
        mu, residual = _bisect_mu(
            lambda m: float(occupations_at(m).sum()), total, lo, pin
        )
        occ = occupations_at(mu)
        if residual > _TOTAL_RTOL * max(total, 1.0):
            # The sum jumps by more than the tolerance per ulp of mu near the
            # band bottom; the leftover is condensate ambiguity at k = 0.
            zero = _zero_mode_index(spec.L)
            deficit = total - occ.sum()
            if occ[zero] + deficit < 0:
                raise ChemicalPotentialError(
                    f"mu bisection stalled with residual {residual:.3e} on target {total}"
                )
            occ[zero] += deficit
    return MomentumDistribution(
        Statistics.BOSE,
        occ[None, :, :],
        float(total),
        inverse_temperature=beta,
        chemical_potential=mu,
    )


def fermi_dirac(
    spec: LatticeSpec, inverse_temperature: float, total: float | None = None
) -> MomentumDistribution:
    """Fermi-Dirac occupations 1/(exp(beta (E(k) - mu)) + 1), equal in both spins."""
    if not (inverse_temperature > 0 and math.isfinite(inverse_temperature)):
        raise ValueError("inverse_temperature must be finite and positive")
    N = spec.sites
    if total is None:
        total = float(N)
    if total < 0 or total > 2 * N:
        raise ValueError(f"total must lie in [0, 2N] = [0, {2 * N}]")
    energies = energy_grid(spec)
    beta = inverse_temperature

    def occupations_at(mu: float) -> np.ndarray:
        x = np.clip(beta * (energies - mu), -_EXP_CLIP, _EXP_CLIP)
        return 1.0 / (np.exp(x) + 1.0)

    def channel_total(mu: float) -> float:
        return 2.0 * float(occupations_at(mu).sum())

    if total == 0:
        occ = np.zeros_like(energies)
        mu = None
    elif total == 2 * N:
        occ = np.ones_like(energies)
        mu = None
    else:
        margin = 40.0 / beta + spec.J + 1.0
        lo = float(energies.min()) - margin
        hi = float(energies.max()) + margin
        while channel_total(lo) >= total:
            lo -= margin
        while channel_total(hi) <= total:
            hi += margin
        mu, residual = _bisect_mu(channel_total, total, lo, hi)
        if residual > _TOTAL_RTOL * max(total, 1.0):
            raise ChemicalPotentialError(
                f"mu bisection stalled with residual {residual:.3e} on target {total}"
            )
        occ = occupations_at(mu)
    return MomentumDistribution(
        Statistics.FERMI,
        np.stack([occ, occ]),
        float(total),
        inverse_temperature=beta,
        chemical_potential=mu,
    )
