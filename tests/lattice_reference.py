"""Scalar, one-mode-at-a-time lattice formulas used as references by the tests.

The package computes these quantities over whole grids (adjacency_fourier_grid,
energy_grid, dephasing_rates); the plain-math versions here are written
independently of those array paths, so comparing the two checks both.
bessel_envelope is the paper's small-wave-number limit of the uniform phase
sum, from scipy, which the package itself does not use.
"""

import math

import numpy as np
from scipy.special import j0

from dickeprobe.lattice import LatticeSpec, Mode, canonical_mode, mode_sub


def mode_add(a: tuple[int, int], b: tuple[int, int], L: int) -> Mode:
    return canonical_mode((a[0] + b[0], a[1] + b[1]), L)


def mode_neg(a: tuple[int, int], L: int) -> Mode:
    return canonical_mode((-a[0], -a[1]), L)


def adjacency_fourier(mode: tuple[int, int], spec: LatticeSpec) -> float:
    """T(k) = 2[cos(kx*ell) + cos(ky*ell)], with kx*ell = 2*pi*n/L."""
    L = spec.L
    return 2.0 * (math.cos(2.0 * math.pi * mode[0] / L) + math.cos(2.0 * math.pi * mode[1] / L))


def mode_energy(mode: tuple[int, int], spec: LatticeSpec) -> float:
    """Single-particle dispersion E(k) = -(J/Z) T(k)."""
    return -(spec.J / spec.Z) * adjacency_fourier(mode, spec)


def hopping_phase(p: tuple[int, int], k: tuple[int, int], t: float, spec: LatticeSpec) -> float:
    """Interaction-picture phase phi_p^k(t) = -(J/Z) (T(p) - T(p-k)) t."""
    dT = adjacency_fourier(p, spec) - adjacency_fourier(mode_sub(p, k, spec.L), spec)
    return -(spec.J / spec.Z) * dT * t


def bessel_envelope(kappa: tuple[int, int], dt, spec: LatticeSpec):
    """J0(2 (J dt / Z) kx ell) J0(2 (J dt / Z) ky ell): the uniform C(dt) for |kappa| ell << 1."""
    scale = 2.0 * spec.J / spec.Z * np.asarray(dt)
    kx_ell = 2.0 * math.pi * kappa[0] / spec.L
    ky_ell = 2.0 * math.pi * kappa[1] / spec.L
    return j0(scale * kx_ell) * j0(scale * ky_ell)
