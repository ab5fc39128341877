"""Normalized superradiant emission peaks P / (N^2 P_single) from a momentum distribution.

The peak equals |C(dt)|^2 with the coherent amplitude

    C(dt) = (1/N_atoms) sum_{q,s} n_s(q) exp{i (J/Z) (T(q + kappa) - T(q)) dt},

evaluated for a scalar dt or a whole 1-d dt array at once.  The rate splits
into an x part a(q_x) and a y part b(q_y), so C(dt) = e_a(dt)^T W e_b(dt)
with W = sum_s n_s and e_a = exp(i a dt).  The kernel evaluates that in real
arithmetic, cos and sin rows against the real W, walking the time grid in
blocks of _TIME_BLOCK times: besides the occupations themselves it holds
two (_TIME_BLOCK, 2, L) buffers, never an (L, L) temporary.  The frozen Mott
and Neel states have no momentum-distribution curve (their peak is 1);
cli.py alone maps a `--state` selector to a distribution or to that constant.
The transitions are curves of states, too: the sudden quench is |C(dt)|^2 of
the uniform state, the slow ramp that of the superfluid (bosons) or of the
uniform state (fermions, in the small-wave-number approximation).
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import MomentumDistribution
from .lattice import LatticeSpec, _dephasing_factors, canonical_mode, mode_sub

__all__ = ["coherent_amplitude", "peak_curve", "separable_peak"]

_TIME_BLOCK = 16  # times per block; each block's buffers are 4 * 16 * L floats


def _cos_sin_rows(rates: np.ndarray, times: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[t] = (cos(rates * times[t]), sin(rates * times[t])), shape (T, 2, L)."""
    np.multiply(times[:, None], rates, out=out[:, 1])
    np.cos(out[:, 1], out=out[:, 0])
    np.sin(out[:, 1], out=out[:, 1])
    return out


def _coherent_sum(weights: np.ndarray, kappa: tuple[int, int], dt, spec: LatticeSpec):
    """sum_q weights(q) exp(i (J/Z)(T(q + kappa) - T(q)) dt) / sum_q weights(q).

    weights is a real (L, L) array over the occupied modes q.  Every caller
    of the kernel passes through here, so the one rule for waiting times is
    checked here: dt is a finite, nonnegative scalar (returns a Python
    complex) or a nonempty 1-d array of them in any order (returns an array);
    a rate * dt that overflows is rejected too (LatticeSpec keeps rates finite).
    """
    t = np.asarray(dt, dtype=float)
    if t.ndim > 1 or t.size == 0:
        raise ValueError("dt must be a scalar or a nonempty 1-d array")
    if not (np.isfinite(t).all() and (t >= 0).all()):
        raise ValueError("dt must be finite and nonnegative")
    a, b = _dephasing_factors(spec, kappa)
    # Row 0 is dt = 0, the sum of the weights taken by the same products as
    # every other row, so the value at dt = 0 is exactly 1.
    times = np.concatenate(([0.0], t.ravel()))
    # Python floats: an overflowing product is inf here, not a numpy warning.
    peak_rate = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if not math.isfinite(peak_rate * float(times.max())):
        raise ValueError("the dephasing phase rate * dt overflows")
    rows = np.empty((min(times.size, _TIME_BLOCK), 2, spec.L))
    projected = np.empty_like(rows)
    # For each time, projected = [cos(a t); sin(a t)] W holds Re and Im of
    # e_a^T W, and parts = projected [cos(b t); sin(b t)]^T, so that
    # Re C = parts[0, 0] - parts[1, 1] and Im C = parts[0, 1] + parts[1, 0].
    # Every time gets its own (2 x L)(L x L) and (2 x L)(L x 2) products, not
    # rows of one larger product: BLAS may sum a row of a larger block in
    # another order, and per-time products keep each value independent of the
    # grid and of the block it falls in.
    parts = np.empty((times.size, 2, 2))
    for start in range(0, times.size, _TIME_BLOCK):
        block = times[start : start + _TIME_BLOCK]
        r, p = rows[: block.size], projected[: block.size]
        np.matmul(_cos_sin_rows(a, block, r), weights, out=p)
        e_b = _cos_sin_rows(b, block, r).transpose(0, 2, 1)
        np.matmul(p, e_b, out=parts[start : start + block.size])
    real = parts[:, 0, 0] - parts[:, 1, 1]
    imag = parts[:, 0, 1] + parts[:, 1, 0]
    # Each part divided by the real sum at dt = 0: complex division would
    # multiply by a reciprocal, and x * (1/x) can miss 1 by an ulp.
    values = np.empty(times.size - 1, dtype=complex)
    values.real = real[1:] / real[0]
    values.imag = imag[1:] / real[0]
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
    if not dist.total() > 0:
        raise ValueError("distribution holds no atoms")
    occ = dist.occupations
    # A spin-symmetric state stores one channel broadcast to both (stride 0).
    # n + n = 2n exactly, and the kernel's normalization cancels that factor
    # 2 exactly, so the stored channel stands for the sum.
    shared = occ.shape[0] == 1 or occ.strides[0] == 0
    return _coherent_sum(occ[0] if shared else occ.sum(axis=0), kappa, dt, spec)


def separable_peak(
    site_occupations: np.ndarray, kappa_in: tuple[int, int], kappa_out: tuple[int, int]
) -> float:
    """Zero-tunneling peak |sum_mu exp(-i (kout - kin) r_mu) n_mu|^2 / (sum_mu n_mu)^2.

    site_occupations is an (L, L) array of finite, nonnegative per-site atom
    numbers with a finite total; the peak is normalized by that total, the
    atom count, and lies in [0, 1].
    """
    occ = np.asarray(site_occupations, dtype=float)
    if occ.ndim != 2 or occ.shape[0] != occ.shape[1]:
        raise ValueError("site_occupations must be a square (L, L) array")
    if not (np.isfinite(occ).all() and (occ >= 0).all()):
        raise ValueError("site_occupations must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = occ.sum()
    if not math.isfinite(total):
        raise ValueError("site_occupations must sum to a finite total")
    if not total > 0:
        raise ValueError("site_occupations must hold a positive number of atoms")
    L = occ.shape[0]
    # each mode is checked as passed, so a bad one is named, not the difference
    dk = mode_sub(canonical_mode(kappa_out, L), canonical_mode(kappa_in, L), L)
    x = np.arange(L)
    phase = np.exp(-2j * np.pi * (dk.n * x[:, None] + dk.m * x[None, :]) / L)
    return (abs(np.sum(phase * occ)) / total) ** 2


def peak_curve(
    dist: MomentumDistribution,
    kappa: tuple[int, int],
    dt_grid: np.ndarray,
    spec: LatticeSpec,
) -> np.ndarray:
    """|C(dt)|^2 for the photon mode kappa, under coherent_amplitude's rules."""
    return np.abs(coherent_amplitude(dist, kappa, dt_grid, spec)) ** 2
