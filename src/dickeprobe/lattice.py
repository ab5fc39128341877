"""Square-lattice geometry: Brillouin-zone mode grid, dispersion, dephasing rates.

Conventions used throughout the package: hbar = 1, periodic boundary
conditions, and integer mode indices (n, m) standing for the wave vector
k = (2*pi / L) * (n, m), that is in units of 2*pi/L, with n, m in
{-L/2+1, ..., L/2}; lengths are in lattice spacings, so k*ell = 2*pi*n/L.
Times are naturally measured in tunneling times 1/J.  Every function that
takes a mode applies canonical_mode's one rule: a part that is not an
integer raises ValueError, and an integral mode outside that index range
wraps onto it (validate_mode rejects it instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

__all__ = [
    "LatticeSpec",
    "Mode",
    "adjacency_matrix",
    "canonical_mode",
    "dephasing_rates",
    "mode_grid",
    "mode_index",
    "mode_sub",
    "site_coordinates",
    "validate_mode",
]


class Mode(NamedTuple):
    """Integer index pair (n, m) of a reciprocal-lattice vector."""

    n: int
    m: int


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic L x L square lattice with tunneling J and on-site repulsion U.

    Only the oracle's Hamiltonian reads U: every closed form evolves at
    U = 0 or holds the atoms frozen.  The coordination number Z is a class
    constant, 4; every adjacency row sums to Z, which at L = 2 is realized
    by double bonds (both hops in one direction reach the same neighbor).
    J is finite, nonnegative and keeps 2J/Z finite (J below about 8.99e307).
    """

    L: int
    J: float = 1.0
    U: float = 0.0
    Z: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if not isinstance(self.L, int) or self.L < 2 or self.L % 2:
            raise ValueError(f"L must be an even integer >= 2, got {self.L!r}")
        if not (math.isfinite(self.J) and self.J >= 0):
            raise ValueError("tunneling rate J must be finite and nonnegative")
        if not math.isfinite(2.0 * self.J):
            raise ValueError(f"tunneling rate J = {self.J!r} is too large: 2J/Z overflows")
        if not (math.isfinite(self.U) and self.U >= 0):
            raise ValueError("on-site interaction U must be finite and nonnegative")

    @property
    def sites(self) -> int:
        """Number of lattice sites N = L^2."""
        return self.L * self.L


def _index_floor(L: int) -> int:
    return -(L // 2) + 1


def _integral_part(part, mode):
    """An integer-array part unchanged, an integral scalar as a Python int."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
        return part
    try:
        if not isinstance(part, np.ndarray) and int(part) == part:
            return int(part)
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"mode {mode!r} has a part that is not an integer")


def canonical_mode(mode: tuple[int, int], L: int) -> Mode:
    """Reduce an index pair into the canonical range (-L/2, L/2].

    The one gate for modes: a part that is not an integer (1.5, nan, inf, a
    float array) raises ValueError; integer-array parts broadcast.
    """
    lo = _index_floor(L)
    n, m = (_integral_part(part, mode) for part in mode)
    return Mode((n - lo) % L + lo, (m - lo) % L + lo)


def validate_mode(mode: tuple[int, int], L: int) -> Mode:
    """Return the mode unchanged if it already lies in the canonical range."""
    canonical = canonical_mode(mode, L)
    if canonical.n != mode[0] or canonical.m != mode[1]:
        lo, hi = _index_floor(L), L // 2
        raise ValueError(f"mode {mode!r} outside the canonical index range [{lo}, {hi}] for L={L}")
    return canonical


def mode_sub(a: tuple[int, int], b: tuple[int, int], L: int) -> Mode:
    return canonical_mode((a[0] - b[0], a[1] - b[1]), L)


def mode_grid(spec: LatticeSpec) -> list[Mode]:
    """All L^2 modes in deterministic row-major order (by n, then m)."""
    rng = range(_index_floor(spec.L), spec.L // 2 + 1)
    return [Mode(n, m) for n in rng for m in rng]


def mode_index(mode: tuple[int, int], L: int) -> tuple[int, int]:
    """Array indices (i, j) of a mode on the (L, L) grid used by this package."""
    n, m = canonical_mode(mode, L)
    return n - _index_floor(L), m - _index_floor(L)


def _cosines(L: int) -> np.ndarray:
    """c(n) = cos(2 pi n / L) for n in grid order, -L/2 + 1 ... L/2."""
    idx = np.arange(L) + _index_floor(L)
    return np.cos(2.0 * np.pi * idx / L)


def _band(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dispersion on the (L/2 + 1)^2 pairs (|n|, |m|), and |n| of each grid index.

    E depends on a mode only through c(|n|) + c(|m|), c(n) = cos(2 pi n / L),
    so table[np.ix_(axis, axis)] is the whole grid.  The one place where the
    package evaluates the dispersion.
    """
    c = _cosines(spec.L)[spec.L // 2 - 1 :]  # n = 0 ... L/2
    table = c[:, None] + c[None, :]
    table *= 2.0
    table *= -(spec.J / spec.Z)
    return table, np.abs(np.arange(spec.L) + _index_floor(spec.L))


def _energy_levels(table: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_band's table entries with their multiplicities on the mode grid.

    One float count per pair a <= b (about L^2/8 levels for L^2 modes): how
    often the axis holds a, times how often it holds b, twice when a != b, so
    np.repeat(levels, counts) holds exactly the grid's values.
    """
    per_axis = np.bincount(axis).astype(float)
    weights = np.outer(per_axis, per_axis)
    weights += np.triu(weights, 1)
    upper = np.triu(np.ones_like(weights, dtype=bool))
    return table[upper], weights[upper]


def _dephasing_factors(
    spec: LatticeSpec, kappa: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The x and y parts a(q_x), b(q_y) of the dephasing rate, indexed by q = p - kappa.

    With c(n) = cos(2 pi n / L), T(p) = 2 (c(p_x) + c(p_y)) makes the rate
    (J/Z)(T(q + kappa) - T(q)) = a(q_x) + b(q_y) exactly, with
    a = (2J/Z)(roll(c, -kappa_x) - c) and b the same with kappa_y.  Indexed by
    the occupied mode q, the rates pair with n(q) directly, so no (L, L)
    occupation array has to be shifted by kappa.  Raises ValueError when
    kappa breaks canonical_mode's rule; LatticeSpec keeps 2J/Z finite.
    """
    kappa_x, kappa_y = map(int, canonical_mode(kappa, spec.L))  # an array part: TypeError
    c = _cosines(spec.L)
    scale = 2.0 * spec.J / spec.Z
    return scale * (np.roll(c, -kappa_x) - c), scale * (np.roll(c, -kappa_y) - c)


def dephasing_rates(spec: LatticeSpec, kappa: tuple[int, int]) -> np.ndarray:
    """(J/Z)(T(p) - T(p-kappa)) over the mode grid.

    exp(i * rates * dt) is the dephasing factor entering coherent sums;
    it equals exp(-i * phi_p^kappa(dt)) mode by mode, with
    phi_p^kappa(t) = -(J/Z)(T(p) - T(p-kappa)) t the interaction-picture
    hopping phase.
    """
    kappa = canonical_mode(kappa, spec.L)
    a, b = _dephasing_factors(spec, kappa)
    return np.roll(a, kappa.n)[:, None] + np.roll(b, kappa.m)[None, :]


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
