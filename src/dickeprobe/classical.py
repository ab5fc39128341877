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
from .emission import coherent_amplitude
from .lattice import LatticeSpec, Mode

__all__ = [
    "DriveParameters",
    "expected_sigma_z",
    "mean_excitations",
    "metastable_population",
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


def mean_excitations(dist: MomentumDistribution, rotation_in: float) -> float:
    """Excitations created by the first pulse to second order: N alpha^2 / 4.

    N is the distribution's atom total, the N that metastable_population
    normalizes by; the lattice site count differs from it for metallic.
    Raises ValueError when that count is not finite.
    """
    excitations = dist.total_target * (rotation_in * rotation_in) / 4.0
    if not math.isfinite(excitations):
        raise ValueError(f"N alpha^2 / 4 is not finite for alpha = {rotation_in!r}")
    return excitations


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

    2 nbar (1 - Re C(dt)), C(dt) = sum_{p,s} n_s(p-kappa) exp(i phi_p^kappa(dt))
    over sum_{p,s} n_s(p) the coherent amplitude, so n_meta(0) = 0 whatever
    residual the chemical-potential solve left; valid for rotation_out = -rotation_in and
    nbar = N alpha^2 / 4 << N.  Bounded by [0, 4 nbar]; 0 at dt = 0 or
    J = 0 (perfect back-rotation).  dt may be a scalar or a 1-d array.
    """
    return 2.0 * nbar * (1.0 - coherent_amplitude(dist, kappa, dt, spec).real)

