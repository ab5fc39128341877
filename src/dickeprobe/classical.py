"""Counter-propagating classical-laser sequence: rotate, dephase, rotate back.

The two pulses reduce to quasispin rotations by the angles rotation_in and
rotation_out; tunneling in between imprints mode-dependent phases.  Both
observables are formulas on the coherent amplitude C(dt) of
emission.coherent_amplitude, which the caller evaluates once, and on the
distribution's atom total N: each takes the distribution, C(dt) and the
angles it needs, so metastable_population forms nbar = N alpha^2 / 4 itself.
The inverse temperature of thermal states is always called inverse_temperature,
never beta, to keep it apart from the second rotation angle.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import MomentumDistribution

__all__ = [
    "expected_sigma_z",
    "metastable_population",
]


def _real_part(amplitude):
    """Re C, once every C is checked finite with |C| <= 1 + 1e-12 (else ValueError)."""
    magnitude = np.abs(amplitude)
    if not (np.isfinite(magnitude).all() and (magnitude <= 1.0 + 1e-12).all()):
        raise ValueError("the coherent amplitude C must be finite with |C| <= 1")
    return amplitude.real


def expected_sigma_z(
    dist: MomentumDistribution, amplitude, rotation_in: float, rotation_out: float
):
    """<Sigma^z> after the full rotate / tunnel / rotate sequence.

    Equals -(N/2) cos(a) cos(b) + (1/2) sin(a) sin(b)
    sum_{p,s} n_s(p-kappa) cos(phi_p^kappa(dt)) for any excitation-free
    initial state with the given momentum occupations, N being the
    distribution's atom total.  The sum is the distribution's total times
    Re C(dt), with amplitude = coherent_amplitude(dist, kappa, dt, spec),
    a scalar or a 1-d array, finite with |C| <= 1.
    """
    if not (math.isfinite(rotation_in) and math.isfinite(rotation_out)):
        raise ValueError("rotation angles must be finite")
    a, b = rotation_in, rotation_out
    N = dist.total_target
    S = dist.total() * _real_part(amplitude)
    return -(N / 2.0) * math.cos(a) * math.cos(b) + 0.5 * math.sin(a) * math.sin(b) * S


def metastable_population(dist: MomentumDistribution, amplitude, rotation_in: float):
    """Atoms left in the metastable level after a reversed small-angle sequence.

    2 nbar (1 - Re C(dt)), C(dt) = sum_{p,s} n_s(p-kappa) exp(i phi_p^kappa(dt))
    over sum_{p,s} n_s(p) the coherent amplitude, so n_meta(0) = 0 whatever
    residual the chemical-potential solve left.  nbar = N alpha^2 / 4 counts
    the excitations the first pulse (alpha = rotation_in) creates to second
    order, N being the distribution's atom total, which the lattice site count
    differs from for metallic.  Valid for rotation_out = -rotation_in and
    nbar << N.  Bounded by [0, 4 nbar]; 0 at dt = 0 or J = 0 (perfect
    back-rotation).  amplitude is coherent_amplitude's C, a scalar or a 1-d
    array.  Raises ValueError when nbar or C is not finite, or |C| > 1.
    """
    nbar = dist.total_target * (rotation_in * rotation_in) / 4.0
    if not math.isfinite(nbar):
        raise ValueError(f"N alpha^2 / 4 is not finite for alpha = {rotation_in!r}")
    return 2.0 * nbar * (1.0 - _real_part(amplitude))
