"""Counter-propagating classical-laser sequence: rotate, dephase, rotate back.

The two pulses reduce to quasispin rotations by the angles rotation_in and
rotation_out; tunneling in between imprints mode-dependent phases.  The
inverse temperature of thermal states is always called inverse_temperature,
never beta, to keep it apart from the second rotation angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MomentumDistribution
from .emission import coherent_amplitude, phase_sum
from .lattice import LatticeSpec, Mode, condensate_phase

__all__ = [
    "DriveParameters",
    "expected_sigma_z",
    "mean_excitations",
    "metastable_population",
    "metastable_population_partial_condensation",
]


@dataclass(frozen=True)
class DriveParameters:
    """Pulse angles, probed mode kappa = k1 - k2, and waiting time (scalar or 1-d array)."""

    rotation_in: float
    rotation_out: float
    kappa: Mode
    dt: float | np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rotation_in) and math.isfinite(self.rotation_out)):
            raise ValueError("rotation angles must be finite")


def mean_excitations(spec: LatticeSpec, rotation_in: float) -> float:
    """Excitations created by the first pulse to second order: N alpha^2 / 4."""
    return spec.sites * rotation_in**2 / 4.0


def _cosine_sum(dist: MomentumDistribution, kappa, dt, spec: LatticeSpec):
    """sum_{p,s} n_s(p - kappa) cos(phi_p^kappa(dt)) = total Re C(dt)."""
    return dist.total() * coherent_amplitude(dist, kappa, dt, spec).real


def expected_sigma_z(dist: MomentumDistribution, params: DriveParameters, spec: LatticeSpec):
    """<Sigma^z> after the full rotate / tunnel / rotate sequence.

    Equals -(N/2) cos(a) cos(b) + (1/2) sin(a) sin(b)
    sum_{p,s} n_s(p-kappa) cos(phi_p^kappa(dt)) for any excitation-free
    initial state with the given momentum occupations, N being the
    distribution's atom total.  params.dt may be a scalar or a 1-d array.
    """
    a, b = params.rotation_in, params.rotation_out
    N = dist.total_target
    S = _cosine_sum(dist, params.kappa, params.dt, spec)
    return -(N / 2.0) * math.cos(a) * math.cos(b) + 0.5 * math.sin(a) * math.sin(b) * S


def metastable_population(
    dist: MomentumDistribution,
    nbar: float,
    kappa: tuple[int, int],
    dt,
    spec: LatticeSpec,
):
    """Atoms left in the metastable level after a reversed small-angle sequence.

    2 nbar (1 - (1/N) sum_{p,s} n_s(p-kappa) cos(phi_p^kappa(dt))) with N the
    distribution's atom total, valid for rotation_out = -rotation_in and
    nbar = N alpha^2 / 4 << N.  Bounded by [0, 4 nbar]; 0 at dt = 0 or
    J = 0 (perfect back-rotation).  dt may be a scalar or a 1-d array.
    """
    S = _cosine_sum(dist, kappa, dt, spec)
    return 2.0 * nbar * (1.0 - S / dist.total_target)


def metastable_population_partial_condensation(
    n_condensed: float,
    n_distributed: float,
    nbar: float,
    kappa: tuple[int, int],
    dt: float,
    spec: LatticeSpec,
) -> float:
    """Closed form of metastable_population for the partial-condensation state.

    2 nbar (1 - (N1/N) cos(varphi(dt)) - (N2/N) phase_sum(dt)); the condensate
    contributes a Larmor-like cosine, the distributed atoms the real phase sum.
    """
    N = spec.sites
    if abs(n_condensed + n_distributed - N) > 1e-9 * N:
        raise ValueError(f"n_condensed + n_distributed must equal N = {N}")
    phi = condensate_phase(kappa, dt, spec)
    reduction = (n_condensed / N) * math.cos(phi) + (n_distributed / N) * phase_sum(
        spec, kappa, dt
    )
    return 2.0 * nbar * (1.0 - reduction)
