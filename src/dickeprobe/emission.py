"""Normalized superradiant emission peaks P / (N^2 P_single) from a momentum distribution.

The peak equals |C(dt)|^2 with the coherent amplitude

    C(dt) = (1/N_atoms) sum_{p,s} n_s(p - kappa) exp{i (J/Z) (T(p) - T(p-kappa)) dt},

evaluated for a scalar dt or a whole 1-d dt array at once.  The rate splits
into an x part and a y part, so C on a grid of T times is a (T x L)(L x L)
product, taken row by row, and a row-wise dot.  The incoherent O(N)
background and any emission with kappa_out != kappa_in are outside the
normalized-peak contract and reported as 0.  The frozen Mott and Neel states
have no momentum-distribution curve (their peak is 1); cli.py alone maps a
`--state` selector to a distribution or to that constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MomentumDistribution, Statistics
from .lattice import (
    LatticeSpec,
    Mode,
    _dephasing_factors,
    canonical_mode,
    mode_sub,
    validate_mode,
)

__all__ = [
    "ProbeGeometry",
    "adiabatic_peak",
    "coherent_amplitude",
    "peak_curve",
    "phase_sum",
    "quench_peak",
    "separable_peak",
]


@dataclass(frozen=True)
class ProbeGeometry:
    """Absorbed and emitted photon wave vectors, restricted to lattice modes."""

    kappa_in: Mode
    kappa_out: Mode

    def validate(self, spec: LatticeSpec) -> "ProbeGeometry":
        validate_mode(self.kappa_in, spec.L)
        validate_mode(self.kappa_out, spec.L)
        return self

    def is_forward(self, L: int) -> bool:
        return canonical_mode(self.kappa_in, L) == canonical_mode(self.kappa_out, L)


def _coherent_sum(weights: np.ndarray, kappa: tuple[int, int], dt, spec: LatticeSpec):
    """sum_p weights(p) exp(i (J/Z)(T(p) - T(p-kappa)) dt) / sum_p weights(p).

    With the rate split a(p_x) + b(p_y) this is e_a(dt)^T W e_b(dt): the
    temporaries are (T, L) arrays, never (T, L, L).  A scalar dt returns a
    Python complex, a 1-d dt an array of the same length.
    """
    t = np.asarray(dt, dtype=float)
    if t.ndim > 1:
        raise ValueError("dt must be a scalar or a 1-d array")
    a, b = _dephasing_factors(spec, kappa)
    # Row 0 is dt = 0, the sum of the weights taken by the same products as
    # every other row, so the value at dt = 0 is exactly 1.
    times = np.concatenate(([0.0], t.ravel()))[:, None]
    # A stack of T (1 x L)(L x L) products rather than one (T x L)(L x L)
    # product: BLAS sums a single row in another order than a block of rows,
    # and the stack keeps every time's value independent of the grid it is in.
    projected = (np.exp(1j * a * times)[:, None, :] @ weights)[:, 0, :]
    values = np.einsum("ti,ti->t", projected, np.exp(1j * b * times))
    # Each part divided by the real sum: complex division would multiply by
    # a reciprocal, and x * (1/x) can miss 1 by an ulp.
    values = (values[1:].view(float) / values[0].real).view(complex)
    return complex(values[0]) if t.ndim == 0 else values


def coherent_amplitude(
    dist: MomentumDistribution, kappa: tuple[int, int], dt, spec: LatticeSpec
):
    """Occupation-weighted dephasing sum C(dt); |C| <= 1 and C(0) = 1.

    Normalized by the distribution's atom total, so the metallic state
    (which holds N - 2(L-1) atoms by construction) also starts at 1.
    Accepts scalar dt (returns complex) or a 1-d array (returns an array).
    """
    if dist.L != spec.L:
        raise ValueError("distribution grid does not match the lattice spec")
    weights = dist.shifted_occupation_sum(kappa)
    if weights.sum() <= 0:
        raise ValueError("distribution holds no atoms")
    return _coherent_sum(weights, kappa, dt, spec)


def phase_sum(spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Uniform-weight coherent amplitude, real by the p -> kappa - p symmetry.

    Accepts scalar dt (returns float) or a 1-d array (returns an array).
    """
    return _coherent_sum(np.ones((spec.L, spec.L)), kappa, dt, spec).real


def separable_peak(site_occupations: np.ndarray, geometry: ProbeGeometry) -> float:
    """Zero-tunneling peak |sum_mu exp(-i (kout - kin) r_mu) n_mu|^2 / (sum_mu n_mu)^2.

    site_occupations is an (L, L) array of per-site atom numbers; the peak
    is normalized by their total, the atom count, and lies in [0, 1].
    """
    occ = np.asarray(site_occupations, dtype=float)
    if occ.ndim != 2 or occ.shape[0] != occ.shape[1]:
        raise ValueError("site_occupations must be a square (L, L) array")
    total = occ.sum()
    if not total > 0:
        raise ValueError("site_occupations must hold a positive number of atoms")
    L = occ.shape[0]
    dk = mode_sub(geometry.kappa_out, geometry.kappa_in, L)
    x = np.arange(L)
    phase = np.exp(-2j * np.pi * (dk.n * x[:, None] + dk.m * x[None, :]) / L)
    return abs(np.sum(phase * occ)) ** 2 / total**2


def quench_peak(spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Peak after the sudden interaction switch-off: |phase_sum(dt)|^2.

    The same expression holds for the bosonic Mott and the fermionic
    Mott-Neel initial state.  Accepts scalar or 1-d array dt.
    """
    return phase_sum(spec, kappa, dt) ** 2


def adiabatic_peak(statistics: Statistics, spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Peak after a slow interaction ramp: 1 for bosons, |phase_sum|^2 for fermions.

    The fermionic branch rests on the small-wave-number commutator argument,
    and the CLI prints that approximation note with it.  Accepts scalar or
    1-d array dt.
    """
    if Statistics(statistics) is Statistics.BOSE:
        return 1.0 if np.ndim(dt) == 0 else np.ones(np.shape(dt))
    return quench_peak(spec, kappa, dt)


def peak_curve(
    dist: MomentumDistribution,
    geometry: ProbeGeometry,
    dt_grid: np.ndarray,
    spec: LatticeSpec,
) -> np.ndarray:
    """|C(dt)|^2 on a time grid at kappa_out = kappa_in; 0 otherwise (only O(N) light remains)."""
    geometry.validate(spec)
    dts = np.asarray(dt_grid, dtype=float)
    if dts.ndim != 1 or dts.size == 0:
        raise ValueError("dt grid must be a nonempty 1-d array")
    if np.any(dts < 0) or np.any(np.diff(dts) < 0):
        raise ValueError("dt grid must be nonnegative and nondecreasing")
    if not geometry.is_forward(spec.L):
        return np.zeros_like(dts)
    return np.abs(coherent_amplitude(dist, geometry.kappa_in, dts, spec)) ** 2
