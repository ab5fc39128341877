"""Scalar, one-mode-at-a-time lattice formulas used as references by the tests.

The package computes these quantities over whole grids (lattice._band, one
table of the dispersion over the pairs (|n|, |m|), which band_grid gathers
onto the grid, and dephasing_rates); the plain-math versions here evaluate
each mode's own (n, m) independently of those array paths, so comparing the
two checks both.
bessel_envelope is the paper's small-wave-number limit of the uniform phase
sum, and quench_amplitude that sum's exact closed form, both from scipy,
which the package itself does not use.
"""

import math

import numpy as np
from scipy.special import j0, jv

from dickeprobe.lattice import LatticeSpec, Mode, _band, canonical_mode, mode_sub


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


def band_grid(spec: LatticeSpec) -> np.ndarray:
    """E(k) over the (L, L) grid in mode_index order: _band's table gathered by |n| and |m|."""
    table, axis = _band(spec)
    return table[np.ix_(axis, axis)]


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


def quench_amplitude(kappa: tuple[int, int], dt, spec: LatticeSpec):
    """The uniform state's C(dt), exact at every L, kappa and dt (Jacobi-Anger).

    Along one axis the rate is -J sin(pi kappa / L) sin(2 pi q / L + pi kappa / L)
    (Z = 4), so the axis average of its phases is sum_j J_{jL}(x) (-1)^{j kappa}
    with x = J dt sin(pi kappa / L); C(dt) is the product of both axes'.  Orders
    beyond |x| + 12 L add nothing at double precision.
    """
    t = np.asarray(dt, dtype=float)
    L, amplitude = spec.L, 1.0
    for k in kappa:
        x = spec.J * t * math.sin(math.pi * k / L)
        js = np.arange(1, int(np.abs(x).max()) // L + 13)
        # J_{-n} = J_n for the even orders n = jL, so each j > 0 counts twice
        terms = jv(js[:, None] * L, x) * np.where(js * k % 2, -1.0, 1.0)[:, None]
        amplitude = amplitude * (jv(0, x) + 2.0 * terms.sum(axis=0))
    return amplitude
