"""Normalized superradiant emission peaks P / (N^2 P_single) for every scenario.

The peak equals |C(dt)|^2 with the coherent amplitude

    C(dt) = (1/N_atoms) sum_{p,s} n_s(p - kappa) exp{i (J/Z) (T(p) - T(p-kappa)) dt},

evaluated for a scalar dt or a whole 1-d dt array at once.  The rate splits
into an x part and a y part, so C on a grid of T times is a (T x L)(L x L)
product, taken row by row, and a row-wise dot.  The incoherent O(N)
background and any emission with kappa_out != kappa_in are outside the
normalized-peak contract and reported as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .distributions import (
    MomentumDistribution,
    Statistics,
    bose_einstein,
    fermi_dirac,
    metallic,
    partial_condensation,
    superfluid,
    uniform,
)
from .lattice import (
    LatticeSpec,
    Mode,
    _dephasing_factors,
    canonical_mode,
    mode_sub,
    validate_mode,
)

__all__ = [
    "EmissionCurve",
    "ProbeGeometry",
    "adiabatic_peak",
    "bessel_envelope",
    "coherent_amplitude",
    "emission_curve",
    "normalized_peak",
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


@dataclass(frozen=True)
class EmissionCurve:
    """Normalized peak values sampled on a waiting-time grid (units 1/J)."""

    scenario: str
    times: np.ndarray
    values: np.ndarray
    approximate: bool = False
    note: str = ""


def _coherent_sum(
    weights: np.ndarray, total: float, kappa: tuple[int, int], dt, spec: LatticeSpec
):
    """(1/total) sum_p weights(p) exp(i (J/Z)(T(p) - T(p-kappa)) dt) for scalar or 1-d dt.

    With the rate split a(p_x) + b(p_y) this is e_a(dt)^T W e_b(dt): the
    temporaries are (T, L) arrays, never (T, L, L).  A scalar dt returns a
    Python complex, a 1-d dt an array of the same length.
    """
    t = np.asarray(dt, dtype=float)
    if t.ndim > 1:
        raise ValueError("dt must be a scalar or a 1-d array")
    a, b = _dephasing_factors(spec, kappa)
    times = t.reshape(-1, 1)
    # A stack of T (1 x L)(L x L) products rather than one (T x L)(L x L)
    # product: BLAS sums a single row in another order than a block of rows,
    # and the stack keeps every time's value independent of the grid it is in.
    projected = (np.exp(1j * a * times)[:, None, :] @ weights)[:, 0, :]
    values = np.einsum("ti,ti->t", projected, np.exp(1j * b * times)) / total
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
    total = weights.sum()
    if total <= 0:
        raise ValueError("distribution holds no atoms")
    return _coherent_sum(weights, total, kappa, dt, spec)


def phase_sum(spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Uniform-weight coherent amplitude, real by the p -> kappa - p symmetry.

    Accepts scalar dt (returns float) or a 1-d array (returns an array).
    """
    return _coherent_sum(np.ones((spec.L, spec.L)), spec.sites, kappa, dt, spec).real


def bessel_envelope(kappa: tuple[int, int], dt, spec: LatticeSpec):
    """Small-wave-number approximation J0(2 (J dt / Z) kx ell) * J0(... ky ell).

    Accurate for |kappa| ell << 1 and L >> 1; degrades gracefully otherwise.
    Accepts scalar or array dt.
    """
    kx_ell = 2.0 * np.pi * kappa[0] / spec.L
    ky_ell = 2.0 * np.pi * kappa[1] / spec.L
    scale = 2.0 * spec.J / spec.Z
    return j0(scale * kx_ell * np.asarray(dt)) * j0(scale * ky_ell * np.asarray(dt))


def normalized_peak(
    dist: MomentumDistribution, geometry: ProbeGeometry, dt: float, spec: LatticeSpec
) -> float:
    """|C(dt)|^2 at kappa_out = kappa_in; 0 otherwise (only O(N) light remains)."""
    geometry.validate(spec)
    if not geometry.is_forward(spec.L):
        return 0.0
    return abs(coherent_amplitude(dist, geometry.kappa_in, dt, spec)) ** 2


def separable_peak(site_occupations: np.ndarray, geometry: ProbeGeometry) -> float:
    """Zero-tunneling peak |sum_mu exp(-i (kout - kin) r_mu) n_mu|^2 / N^2.

    site_occupations is an (L, L) array of per-site atom numbers.
    """
    occ = np.asarray(site_occupations, dtype=float)
    if occ.ndim != 2 or occ.shape[0] != occ.shape[1]:
        raise ValueError("site_occupations must be a square (L, L) array")
    L = occ.shape[0]
    dk = mode_sub(geometry.kappa_out, geometry.kappa_in, L)
    x = np.arange(L)
    phase = np.exp(-2j * np.pi * (dk.n * x[:, None] + dk.m * x[None, :]) / L)
    N = L * L
    return abs(np.sum(phase * occ)) ** 2 / N**2


def quench_peak(spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Peak after the sudden interaction switch-off: |phase_sum(dt)|^2.

    The same expression holds for the bosonic Mott and the fermionic
    Mott-Neel initial state.  Accepts scalar or 1-d array dt.
    """
    return phase_sum(spec, kappa, dt) ** 2


def adiabatic_peak(statistics: Statistics, spec: LatticeSpec, kappa: tuple[int, int], dt):
    """Peak after a slow interaction ramp: 1 for bosons, |phase_sum|^2 for fermions.

    The fermionic branch rests on the small-wave-number commutator argument
    and is tagged approximate by emission_curve.  Accepts scalar or 1-d
    array dt.
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
    """normalized_peak evaluated on a time grid with a fixed summation order."""
    geometry.validate(spec)
    dts = _check_grid(dt_grid)
    if not geometry.is_forward(spec.L):
        return np.zeros_like(dts)
    return np.abs(coherent_amplitude(dist, geometry.kappa_in, dts, spec)) ** 2


def _check_grid(dt_grid) -> np.ndarray:
    dts = np.asarray(dt_grid, dtype=float)
    if dts.ndim != 1 or dts.size == 0:
        raise ValueError("dt grid must be a nonempty 1-d array")
    if np.any(dts < 0) or np.any(np.diff(dts) < 0):
        raise ValueError("dt grid must be nonnegative and nondecreasing")
    return dts


_FERMI_ADIABATIC_NOTE = (
    "small-wave-number approximation: the slow-ramp result is derived for |kappa| ell << 1"
)


def emission_curve(
    scenario: str,
    dt_grid: np.ndarray,
    spec: LatticeSpec,
    geometry: ProbeGeometry,
    *,
    statistics: Statistics | str | None = None,
    inverse_temperature: float | None = None,
    n_condensed: float | None = None,
    n_distributed: float | None = None,
) -> EmissionCurve:
    """Sample the normalized peak for a named scenario.

    Scenarios: superfluid, partial, thermal, uniform, metallic, mott, neel,
    quench, adiabatic.  `thermal`, `uniform`, `quench` and `adiabatic` need
    `statistics`; `thermal` needs `inverse_temperature`; `partial` needs the
    two atom counts.
    """
    geometry.validate(spec)
    dts = _check_grid(dt_grid)
    stats = None if statistics is None else Statistics(statistics)
    forward = geometry.is_forward(spec.L)
    label = scenario if stats is None else f"{scenario}-{stats.value}"
    if scenario in ("quench", "adiabatic"):
        _require(stats is not None, f"{scenario} needs statistics")
    approximate = scenario == "adiabatic" and stats is Statistics.FERMI
    note = _FERMI_ADIABATIC_NOTE if approximate else ""

    if scenario in ("mott", "neel", "quench", "adiabatic") and not forward:
        values = np.zeros_like(dts)
    elif scenario in ("mott", "neel"):
        # unit filling: the site Fourier sum is exactly N delta_{kin,kout}
        values = np.ones_like(dts)
    elif scenario == "quench":
        values = quench_peak(spec, geometry.kappa_in, dts)
    elif scenario == "adiabatic":
        values = adiabatic_peak(stats, spec, geometry.kappa_in, dts)
    else:
        dist = _build_distribution(
            scenario,
            spec,
            stats,
            inverse_temperature=inverse_temperature,
            n_condensed=n_condensed,
            n_distributed=n_distributed,
        )
        values = peak_curve(dist, geometry, dts, spec)

    return EmissionCurve(label, dts, values, approximate=approximate, note=note)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _build_distribution(
    scenario: str,
    spec: LatticeSpec,
    stats: Statistics | None,
    *,
    inverse_temperature: float | None = None,
    n_condensed: float | None = None,
    n_distributed: float | None = None,
) -> MomentumDistribution:
    if scenario == "superfluid":
        return superfluid(spec)
    if scenario == "partial":
        _require(
            n_condensed is not None and n_distributed is not None,
            "partial needs n_condensed and n_distributed",
        )
        return partial_condensation(spec, n_condensed, n_distributed)
    if scenario == "uniform":
        return uniform(spec, stats or Statistics.BOSE)
    if scenario == "metallic":
        return metallic(spec)
    if scenario == "thermal":
        _require(stats is not None, "thermal needs statistics")
        _require(inverse_temperature is not None, "thermal needs inverse_temperature")
        if stats is Statistics.BOSE:
            return bose_einstein(spec, inverse_temperature)
        return fermi_dirac(spec, inverse_temperature)
    raise ValueError(f"scenario {scenario!r} has no momentum distribution")
