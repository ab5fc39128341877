"""Square-lattice geometry: Brillouin-zone mode grid, dispersion, hopping phases.

Conventions used throughout the package: hbar = 1, periodic boundary
conditions, and integer mode indices (n, m) standing for the wave vector
k = (2*pi / (L*ell)) * (n, m) with n, m in {-L/2+1, ..., L/2}.  Times are
naturally measured in tunneling times 1/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LatticeSpec",
    "Mode",
    "adjacency_fourier",
    "adjacency_fourier_grid",
    "adjacency_matrix",
    "canonical_mode",
    "condensate_phase",
    "dephasing_rates",
    "energy_grid",
    "hopping_phase",
    "mode_add",
    "mode_energy",
    "mode_grid",
    "mode_index",
    "mode_neg",
    "mode_sub",
    "site_coordinates",
    "validate_mode",
    "wavevector",
]


class Mode(NamedTuple):
    """Integer index pair (n, m) of a reciprocal-lattice vector."""

    n: int
    m: int


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic L x L square lattice with tunneling J and on-site repulsion U.

    The coordination number Z is fixed at 4; every adjacency row sums to Z,
    which at L = 2 is realized by double bonds (both hops in one direction
    reach the same neighbor).
    """

    L: int
    ell: float = 1.0
    J: float = 1.0
    U: float = 0.0
    Z: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.L, int) or self.L < 2 or self.L % 2:
            raise ValueError(f"L must be an even integer >= 2, got {self.L!r}")
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError("lattice spacing ell must be finite and positive")
        if not (math.isfinite(self.J) and self.J >= 0):
            raise ValueError("tunneling rate J must be finite and nonnegative")
        if not (math.isfinite(self.U) and self.U >= 0):
            raise ValueError("on-site interaction U must be finite and nonnegative")
        if self.Z != 4:
            raise ValueError("coordination number is fixed at 4 for the square lattice")

    @property
    def sites(self) -> int:
        """Number of lattice sites N = L^2."""
        return self.L * self.L


def _index_floor(L: int) -> int:
    return -(L // 2) + 1


def canonical_mode(mode: tuple[int, int], L: int) -> Mode:
    """Reduce an index pair into the canonical range (-L/2, L/2]."""
    lo = _index_floor(L)
    return Mode((mode[0] - lo) % L + lo, (mode[1] - lo) % L + lo)


def validate_mode(mode: tuple[int, int], L: int) -> Mode:
    """Return the mode unchanged if it already lies in the canonical range."""
    n, m = int(mode[0]), int(mode[1])
    lo = _index_floor(L)
    hi = L // 2
    if not (lo <= n <= hi and lo <= m <= hi):
        raise ValueError(
            f"mode {mode!r} outside the canonical index range [{lo}, {hi}] for L={L}"
        )
    return Mode(n, m)


def mode_add(a: tuple[int, int], b: tuple[int, int], L: int) -> Mode:
    return canonical_mode((a[0] + b[0], a[1] + b[1]), L)


def mode_sub(a: tuple[int, int], b: tuple[int, int], L: int) -> Mode:
    return canonical_mode((a[0] - b[0], a[1] - b[1]), L)


def mode_neg(a: tuple[int, int], L: int) -> Mode:
    return canonical_mode((-a[0], -a[1]), L)


def mode_grid(spec: LatticeSpec) -> list[Mode]:
    """All L^2 modes in deterministic row-major order (by n, then m)."""
    rng = range(_index_floor(spec.L), spec.L // 2 + 1)
    return [Mode(n, m) for n in rng for m in rng]


def mode_index(mode: tuple[int, int], L: int) -> tuple[int, int]:
    """Array indices (i, j) of a mode on the (L, L) grid used by this package."""
    lo = _index_floor(L)
    return (mode[0] - lo) % L, (mode[1] - lo) % L


def wavevector(mode: tuple[int, int], spec: LatticeSpec) -> tuple[float, float]:
    """Physical wave vector k = (2*pi/(L*ell)) * (n, m)."""
    scale = 2.0 * math.pi / (spec.L * spec.ell)
    return scale * mode[0], scale * mode[1]


def adjacency_fourier(mode: tuple[int, int], spec: LatticeSpec) -> float:
    """Fourier transform of the adjacency matrix, T(k) = 2[cos(kx*ell) + cos(ky*ell)].

    Since kx*ell = 2*pi*n/L the lattice spacing drops out of the value.
    """
    L = spec.L
    return 2.0 * (math.cos(2.0 * math.pi * mode[0] / L) + math.cos(2.0 * math.pi * mode[1] / L))


def adjacency_fourier_grid(spec: LatticeSpec) -> np.ndarray:
    """T(k) over the whole grid; entry [i, j] belongs to mode_index inverse."""
    L = spec.L
    idx = np.arange(L) + _index_floor(L)
    c = np.cos(2.0 * np.pi * idx / L)
    return 2.0 * (c[:, None] + c[None, :])


def mode_energy(mode: tuple[int, int], spec: LatticeSpec) -> float:
    """Single-particle dispersion E(k) = -(J/Z) T(k)."""
    return -(spec.J / spec.Z) * adjacency_fourier(mode, spec)


def energy_grid(spec: LatticeSpec) -> np.ndarray:
    return -(spec.J / spec.Z) * adjacency_fourier_grid(spec)


def hopping_phase(p: tuple[int, int], k: tuple[int, int], t: float, spec: LatticeSpec) -> float:
    """Interaction-picture phase phi_p^k(t) = -(J/Z) (T(p) - T(p-k)) t.

    Mode subtraction wraps around the Brillouin zone.  Linear in t and zero
    for k = 0.
    """
    shifted = mode_sub(p, k, spec.L)
    dT = adjacency_fourier(p, spec) - adjacency_fourier(shifted, spec)
    return -(spec.J / spec.Z) * dT * t


def condensate_phase(kappa: tuple[int, int], t: float, spec: LatticeSpec) -> float:
    """Global phase -phi_kappa^kappa(t) picked up by a condensate exciton."""
    return -hopping_phase(kappa, kappa, t, spec)


def _dephasing_factors(
    spec: LatticeSpec, kappa: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The x and y parts a(p_x), b(p_y) of the dephasing rate, each of length L.

    With c(n) = cos(2 pi n / L), T(p) = 2 (c(p_x) + c(p_y)) makes the rate
    (J/Z)(T(p) - T(p-kappa)) = a(p_x) + b(p_y) exactly, with
    a = (2J/Z)(c - roll(c, kappa_x)) and b the same with kappa_y.
    """
    kappa = canonical_mode(kappa, spec.L)
    idx = np.arange(spec.L) + _index_floor(spec.L)
    c = np.cos(2.0 * np.pi * idx / spec.L)
    scale = 2.0 * spec.J / spec.Z
    return scale * (c - np.roll(c, kappa.n)), scale * (c - np.roll(c, kappa.m))


def dephasing_rates(spec: LatticeSpec, kappa: tuple[int, int]) -> np.ndarray:
    """(J/Z)(T(p) - T(p-kappa)) over the mode grid.

    exp(i * rates * dt) is the dephasing factor entering coherent sums;
    it equals exp(-i * phi_p^kappa(dt)) mode by mode.
    """
    a, b = _dephasing_factors(spec, kappa)
    return a[:, None] + b[None, :]


def site_coordinates(spec: LatticeSpec) -> np.ndarray:
    """Integer (x, y) coordinates of the N sites, row-major by x then y."""
    L = spec.L
    coords = [(x, y) for x in range(L) for y in range(L)]
    return np.array(coords, dtype=int)


def adjacency_matrix(spec: LatticeSpec) -> np.ndarray:
    """Periodic nearest-neighbor adjacency with row sums Z.

    At L = 2 the two hops along one axis reach the same site, so that entry
    carries multiplicity 2 and the k-space dispersion stays exact.
    """
    L = spec.L
    N = spec.sites
    A = np.zeros((N, N), dtype=int)
    for x in range(L):
        for y in range(L):
            mu = x * L + y
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nu = ((x + dx) % L) * L + (y + dy) % L
                A[mu, nu] += 1
    return A
