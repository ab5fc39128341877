"""Brute-force exact-diagonalization oracle on tiny lattices.

Everything here exists to validate the closed-form kernels against exact
quantum mechanics: occupation-number bases over (site, spin, level) modes,
the two-level lattice Hamiltonian, collective exciton operators, exact
unitary evolution by eigendecomposition, and first-order emission amplitudes.
An oracle call has one lattice, its basis's; a LatticeSpec supplies J and U.

A basis is one occupation array; every operator and state derives from one
creation primitive, a+ from the basis one atom smaller.  A bilinear a+_c a_a
is a+_c (a+_a)^H: one-body sums are assembled from these pairs once per basis
(`_one_body`), and a single pair is applied as its two creation products.
Every state is a product of one-atom orbital creations applied from the
vacuum up (`orbital_state`): atoms held on one site each (Mott, Neel, the
random separable states) pass one-site orbitals (`_site_orbitals`), and
momentum Fock states, the condensate among them, pass plane waves
(`momentum_fock_state`).  Sigma^- is the adjoint of Sigma^+, and Sigma^x
is their mean.  Diagonal quantities are read from the occupation array
alone: Sigma^z is the excited-level count minus n/2, and the site
occupations n_mu give the on-site energy and the separable transfer
amplitudes.  Operators are numpy index triplets (`_Operator`); the oracle
needs no sparse-matrix library.

Single-particle modes follow one fixed global order,
mode_id = (site * n_spins + spin) * 2 + level, with level 0 = ground and
level 1 = excited.  Fermionic signs count occupied modes below the target,
so anticommutation is exact by construction.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .classical import expected_sigma_z, metastable_population
from .correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
    mott_correlator,
    neel_correlator,
)
from .distributions import MomentumDistribution, Statistics, superfluid, uniform
from .emission import coherent_amplitude, peak_curve, separable_peak
from .lattice import (
    LatticeSpec,
    Mode,
    adjacency_matrix,
    canonical_mode,
    mode_grid,
    mode_index,
    mode_sub,
    site_coordinates,
)

__all__ = [
    "CheckResult",
    "FockBasis",
    "GROUND",
    "EXCITED",
    "Propagator",
    "build_lattice_hamiltonian",
    "classical_sequence_sigma_z",
    "correlator_cases",
    "exact_peak_curve",
    "exciton_matrix",
    "four_point_tensor",
    "momentum_fock_state",
    "mott_state",
    "neel_state",
    "orbital_state",
    "separable_deviation",
    "verification_suite",
]

GROUND, EXCITED = 0, 1
_DIMENSION_CAP = 1_000_000


# ---------------------------------------------------------------------------
# occupation-number basis and its ladder operators


class FockBasis:
    """Complete occupation-number basis at fixed particle count.

    Bosons use one spin channel, fermions two.  State i is row i of
    `occupations` and of `_atoms`, the sorted modes of its atoms; the rows
    run in `combinations` (fermions) or `combinations_with_replacement`
    (bosons) order of the atoms, so the occupations descend
    lexicographically.  A state's row is the lexicographic rank of its
    atoms (`_rank`), found with one binomial-table lookup per atom.  The
    basis reads only L from its spec.  An atom count that is not a
    nonnegative integer, more than 2 * sites fermions or a dimension above
    10^6 raises ValueError, the last before any state is listed.
    """

    def __init__(self, spec: LatticeSpec, statistics: Statistics, n_particles: int):
        statistics = Statistics(statistics)
        if not (isinstance(n_particles, numbers.Integral) and n_particles >= 0):
            raise ValueError(f"particle number {n_particles!r} is not a nonnegative integer")
        self.spec = spec
        self.statistics = statistics
        self.n_particles = n_particles
        self.n_spins = 1 if statistics is Statistics.BOSE else 2
        self.n_modes = spec.sites * self.n_spins * 2
        self.fermionic = statistics is Statistics.FERMI
        if self.fermionic and n_particles > 2 * spec.sites:
            raise ValueError(
                f"fermionic oracle caps particles at 2 * sites = {2 * spec.sites}"
            )

        # adding i to the i-th atom makes a multiset of modes a strict combination
        # of `slots`, in the same order
        slots = self.n_modes + (0 if self.fermionic else n_particles - 1)
        self.dimension = math.comb(slots, n_particles)
        if self.dimension > _DIMENSION_CAP:
            raise ValueError(
                f"basis dimension {self.dimension} exceeds cap {_DIMENSION_CAP}"
            )
        # rank of a strict combination c: dim - 1 - sum_i C(slots - 1 - c_i, n - i)
        self._binomials = np.array(
            [
                [math.comb(slots - 1 - c, n_particles - i) for c in range(slots)]
                for i in range(n_particles)
            ],
            dtype=np.int64,
        ).reshape(n_particles, slots)

        choose = combinations if self.fermionic else combinations_with_replacement
        atoms = list(choose(range(self.n_modes), n_particles))
        self._atoms = np.array(atoms, dtype=np.intp).reshape(self.dimension, n_particles)
        # the caps above keep every occupation below 128
        occupations = np.zeros((self.dimension, self.n_modes), dtype=np.int8)
        np.add.at(occupations, (np.arange(self.dimension)[:, None], self._atoms), 1)
        self.occupations = occupations
        self._cache: dict = {}

    def mode_id(self, site: int, spin: int, level: int) -> int:
        return (site * self.n_spins + spin) * 2 + level

    def _rank(self, atoms: np.ndarray) -> np.ndarray:
        """Rows of the states whose sorted atom modes are the rows of `atoms`."""
        strict = atoms if self.fermionic else atoms + np.arange(self.n_particles)
        terms = self._binomials[np.arange(self.n_particles), strict]
        return self.dimension - 1 - terms.sum(axis=1)


def _cached(basis: FockBasis, key, build):
    """basis._cache[key], made by build() the first time it is asked for."""
    if key not in basis._cache:
        basis._cache[key] = build()
    return basis._cache[key]


def _smaller(basis: FockBasis) -> FockBasis:
    """The same lattice and statistics with one atom fewer, built once per basis."""
    return _cached(
        basis, "smaller", lambda: FockBasis(basis.spec, basis.statistics, basis.n_particles - 1)
    )


class _Operator:
    """A sparse matrix as numpy triplets: entry (row[i], col[i]) holds data[i].

    No (row, col) pair repeats.  The triplets are kept sorted by row, so
    `@` (on a vector or on every column of a (dim, T) block) sums each run
    of equal rows as one slice; a run of one entry, as in creations and
    diagonals, sums to that entry exactly.
    """

    def __init__(self, row, col, data, shape):
        if np.any(row[1:] < row[:-1]):
            order = np.argsort(row, kind="stable")
            row, col, data = row[order], col[order], data[order]
        self.row, self.col, self.data, self.shape = row, col, data, shape
        self._runs = np.flatnonzero(np.diff(row, prepend=-1))  # start of each run of equal rows
        self._adjoint = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = self.data.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.col]
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=terms.dtype)
        out[self.row[self._runs]] = np.add.reduceat(terms, self._runs, axis=0)
        return out

    def getH(self) -> _Operator:
        """The conjugate transpose, built once per operator."""
        if self._adjoint is None:
            self._adjoint = _Operator(self.col, self.row, self.data.conj(), self.shape[::-1])
            self._adjoint._adjoint = self
        return self._adjoint

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data
        return out


def _sum(shape: tuple[int, int], parts) -> _Operator:
    """sum coeff * op over (coeff, op) parts, merged by `_merged` in the parts' order."""
    row = np.concatenate([op.row for _, op in parts])
    col = np.concatenate([op.col for _, op in parts])
    data = np.concatenate([coeff * op.data for coeff, op in parts])
    return _merged(shape, row, col, data)


def _merged(shape: tuple[int, int], row, col, data) -> _Operator:
    """The triplets as an operator: each duplicate (row, col) summed once.

    Entries that sum to exactly zero are dropped, so the pattern holds only
    nonzero entries, in row-major order.  Repeated entries add up in the
    order the triplets give them.
    """
    codes = row * shape[1] + col
    order = np.argsort(codes, kind="stable")
    first = np.diff(codes[order], prepend=-1) != 0
    merged = np.empty(len(codes), dtype=np.intp)  # each entry's place in the merged pattern
    merged[order] = np.cumsum(first) - 1
    codes = codes[order[first]]
    summed = np.bincount(merged, weights=data.real, minlength=len(codes))
    if np.iscomplexobj(data):
        summed = summed + 1j * np.bincount(merged, weights=data.imag, minlength=len(codes))
    keep = summed != 0
    return _Operator(codes[keep] // shape[1], codes[keep] % shape[1], summed[keep], shape)


def _creation(basis: FockBasis, mode_id: int) -> _Operator:
    """a+_{mode_id} from the one-atom-smaller basis into `basis`, cached per mode.

    Every smaller state (column) that can take one more atom at `mode_id`
    gives one entry; its target row is the rank of its atoms with `mode_id`
    inserted.  The amplitude is sqrt(n + 1) for bosons and, for fermions,
    the sign of the parity of the occupied modes below `mode_id`.  Rows and
    columns are each distinct.
    """

    def build() -> _Operator:
        if basis.n_particles == 0:
            empty = np.zeros(0, dtype=np.intp)
            return _Operator(empty, empty, np.zeros(0), (basis.dimension, 0))
        smaller = _smaller(basis)
        occ = smaller.occupations
        n = occ[:, mode_id].astype(float)
        if basis.fermionic:
            cols = np.flatnonzero(n == 0)
            vals = np.where(occ[cols, :mode_id].sum(axis=1) % 2, -1.0, 1.0)
        else:
            cols = np.arange(len(occ))
            vals = np.sqrt(n + 1.0)
        added = np.full((len(cols), 1), mode_id)
        atoms = np.sort(np.concatenate([smaller._atoms[cols], added], axis=1), axis=1)
        return _Operator(basis._rank(atoms), cols, vals, (basis.dimension, len(occ)))

    return _cached(basis, ("creation", mode_id), build)


def _one_body(basis: FockBasis, h: np.ndarray) -> _Operator:
    """sum_{c, a} h[c, a] a+_c a_a for an (n_modes, n_modes) matrix h in mode_id order.

    Each pair is a+_c (a+_a)^H.  Both creations map each smaller state to at
    most one row, so the pair's entries are the smaller states both reach,
    matched by integer indexing; the pairs are merged in row-major order of h.
    """
    shape = (basis.dimension, basis.dimension)
    empty = np.zeros(0, dtype=np.intp)  # an all-zero h gives the zero operator
    rows, cols, data = [empty], [empty], [np.zeros(0)]
    for c, a in zip(*np.nonzero(h)):
        create, lower = _creation(basis, c), _creation(basis, a)
        slot = np.full(create.shape[1], -1)
        slot[create.col] = np.arange(len(create.col))
        shared = np.flatnonzero(slot[lower.col] >= 0)  # entries of `lower`
        entry = slot[lower.col[shared]]  # the matching entries of `create`
        rows.append(create.row[entry])
        cols.append(lower.row[shared])
        data.append(h[c, a] * (create.data[entry] * lower.data[shared]))
    return _merged(shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(data))


def _hopping(basis: FockBasis) -> _Operator:
    """sum_{mu nu, s, level} A[mu,nu] a+_{mu s level} a_{nu s level}, built once per basis."""
    return _cached(
        basis,
        "hopping",
        lambda: _one_body(basis, np.kron(adjacency_matrix(basis.spec), np.eye(2 * basis.n_spins))),
    )


def _site_counts(basis: FockBasis) -> np.ndarray:
    """n_mu of each basis state, shape (dim, sites): atoms on site mu, both levels and spins."""
    return basis.occupations.reshape(basis.dimension, basis.spec.sites, -1).sum(axis=2)


def _onsite(basis: FockBasis) -> _Operator:
    """Diagonal sum_mu n_mu (n_mu - 1) / 2, built once per basis."""

    def build() -> _Operator:
        n_site = _site_counts(basis)
        states = np.arange(basis.dimension)
        pairs = (0.5 * n_site * (n_site - 1)).sum(axis=1)
        return _Operator(states, states, pairs, (basis.dimension,) * 2)

    return _cached(basis, "onsite", build)


def build_lattice_hamiltonian(basis: FockBasis, spec: LatticeSpec) -> _Operator:
    """Two-level lattice Hamiltonian: level-diagonal hopping plus on-site repulsion.

    H = -(J/Z) sum_{mu nu, s, level} A[mu,nu] a+_{mu s level} a_{nu s level}
        + (U/2) sum_mu n_mu (n_mu - 1),   n_mu counting both levels and spins.

    Hermitian; conserves total particle number and total excited-level count.
    Both terms are cached per basis, so each (J, U) costs one sum; at J = 0
    the operator is diagonal.
    """
    if spec.L != basis.spec.L:
        raise ValueError("spec lattice size does not match the basis")
    parts = [(-spec.J / spec.Z, _hopping(basis)), (spec.U, _onsite(basis))]
    return _sum((basis.dimension, basis.dimension), parts)


def _site_phases(basis: FockBasis, kappa: Mode) -> np.ndarray:
    coords = site_coordinates(basis.spec)
    return np.exp(2j * np.pi * (kappa.n * coords[:, 0] + kappa.m * coords[:, 1]) / basis.spec.L)


def exciton_matrix(basis: FockBasis, kappa: tuple[int, int]) -> _Operator:
    """Sigma^+(kappa) = sum_{mu,s} a+_ex a_gr exp(i kappa r_mu); Sigma^- is its .getH()."""
    raise_level = np.kron(np.eye(basis.n_spins), [[0, 0], [1, 0]])  # a+_ex a_gr on each spin
    kappa = canonical_mode(kappa, basis.spec.L)
    return _cached(
        basis,
        ("exciton", kappa),
        lambda: _one_body(basis, np.kron(np.diag(_site_phases(basis, kappa)), raise_level)),
    )


def _sector_labels(H: _Operator) -> np.ndarray:
    """Connected components of H's nonzero pattern.

    Each state is labelled with the smallest index in its component: every
    state repeatedly takes the smallest label among itself and its
    neighbours, with pointer jumping, until no label changes.
    """
    rows, cols = np.r_[H.row, H.col], np.r_[H.col, H.row]
    labels = np.arange(H.shape[0])
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[cols])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return labels
        labels = lowest


def _check_hermitian(H: _Operator) -> None:
    """Raise unless H - H^H vanishes, to 1e-12 of the largest entry of H.

    The check reads the triplets, so it covers the entries of every sector,
    diagonalized or not.
    """
    # H^H built here, not by getH(), which would cache it on the H a Propagator keeps
    adjoint = _Operator(H.col, H.row, H.data.conj(), H.shape[::-1])
    residual = _sum(H.shape, [(1.0, H), (-1.0, adjoint)]).data
    tolerance = 1e-12 * max(1.0, float(np.abs(H.data).max(initial=0.0)))
    if np.abs(residual).max(initial=0.0) > tolerance:
        raise ValueError("hamiltonian is not Hermitian")


def _check_state(state: np.ndarray, dim: int, block: bool) -> None:
    """Raise ValueError unless `state` is a finite (dim,) vector, or a (dim, k) block if allowed."""
    need = f"({dim},) or ({dim}, k)" if block else f"({dim},)"
    if state.ndim not in (1, 1 + block) or state.shape[0] != dim:
        raise ValueError(f"state of shape {state.shape}, need {need}")
    if not np.isfinite(state).all():
        raise ValueError("state must be finite")


class Propagator:
    """Exact evolution exp(-i H t), for any time grid.

    H, an oracle operator, is diagonalized one sector at a time: the sectors
    are the connected components of its nonzero pattern, i.e. the blocks of
    the quantum numbers it conserves.  A sector is assembled and
    diagonalized the first time `advance` meets a state with weight on it,
    so sectors no state reaches cost nothing.  Sectors first met together
    and of equal size share one stacked eigh.  Hermiticity is checked on
    every entry up front.
    """

    def __init__(self, H: _Operator):
        if H.shape[0] != H.shape[1]:
            raise ValueError("hamiltonian is not square")
        _check_hermitian(H)
        self._H = H
        labels = _sector_labels(H)
        self._order = np.argsort(labels, kind="stable")  # the states, sector by sector
        first = np.diff(labels[self._order], prepend=-1) != 0
        self._starts = np.flatnonzero(first)
        self._sizes = np.diff(self._starts, append=len(labels))
        self._sector = np.empty(len(labels), dtype=np.intp)
        self._sector[self._order] = np.cumsum(first) - 1
        # a sector's index in the group of its size, -1 until it is diagonalized
        self._slot = np.full(len(self._starts), -1)
        self._groups = {}  # size -> (members, energies, vectors), one row per sector

    def _diagonalize(self, sectors: np.ndarray) -> None:
        """Assemble and eigh these sectors, one stacked eigh per size."""
        H = self._H
        block = np.empty(H.shape[0], dtype=np.intp)
        position = np.empty(H.shape[0], dtype=np.intp)
        sizes = self._sizes[sectors]
        for size in set(sizes.tolist()):
            new = sectors[sizes == size]
            members = self._order[self._starts[new, None] + np.arange(size)]  # (sectors, size)
            block.fill(-1)
            block[members] = np.arange(len(new))[:, None]
            position[members] = np.arange(size)
            inside = block[H.row] >= 0
            rows, cols = H.row[inside], H.col[inside]
            blocks = np.zeros((len(new), size, size), dtype=H.data.dtype)
            blocks[block[rows], position[rows], position[cols]] = H.data[inside]
            energies, vectors = np.linalg.eigh(blocks)
            # complex once here: a real-by-complex matmul casts on every call
            group = (members, energies, vectors.astype(complex))
            held = self._groups.get(size)
            if held is not None:
                group = tuple(np.concatenate(pair) for pair in zip(held, group))
            self._slot[new] = len(group[0]) - len(new) + np.arange(len(new))
            self._groups[size] = group

    def advance(self, state: np.ndarray, t) -> np.ndarray:
        """exp(-i H t) |state>, of shape times.shape + state.shape.

        `state` is one vector (dim,) or a block (dim, k) whose k columns
        evolve together; t is a scalar or an array of times.  A sector is
        evolved when any column has weight there; the rest of the result is
        exactly zero, and so is every zero column.  A NaN or infinite time,
        a state of another shape, and a NaN or infinite entry of the state
        raise ValueError.
        """
        times = np.asarray(t, dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("evolution time must be finite")
        _check_state(state, self._H.shape[0], block=True)
        flat = times.reshape(1, -1, 1, 1)
        block = state[:, None] if state.ndim == 1 else state  # (dim, k)
        weighted = np.zeros(len(self._starts), dtype=bool)
        weighted[self._sector[np.flatnonzero(block.any(axis=1))]] = True
        touched = np.flatnonzero(weighted)
        fresh = touched[self._slot[touched] < 0]
        if len(fresh):
            self._diagonalize(fresh)
        touched_sizes = self._sizes[touched]
        evolved = np.zeros((flat.shape[1],) + block.shape, dtype=complex)  # (T, dim, k)
        for size, (members, energies, vectors) in self._groups.items():
            slots = self._slot[touched[touched_sizes == size]]
            if not len(slots):
                continue
            if len(slots) < len(members):
                members, energies, vectors = members[slots], energies[slots], vectors[slots]
            # V^H s per sector and column, then V (phases * V^H s) on every time
            # and column at once, as one (T k, size) matmul per sector
            coefficients = (block[members].conj().transpose(0, 2, 1) @ vectors).conj()
            phased = np.exp(-1j * flat * energies[:, None, None, :]) * coefficients[:, None]
            evolved_rows = phased.reshape(len(slots), -1, size) @ vectors.transpose(0, 2, 1)
            # (sectors, T, k, size) to (T, sectors, size, k)
            evolved[:, members] = evolved_rows.reshape(phased.shape).transpose(1, 0, 3, 2)
        return evolved.reshape(times.shape + state.shape)


def _cached_propagator(basis: FockBasis, spec: LatticeSpec) -> Propagator:
    """exp(-i H t), cached per spec: one of another L always meets the L check."""
    return _cached(
        basis, ("propagator", spec), lambda: Propagator(build_lattice_hamiltonian(basis, spec))
    )


# ---------------------------------------------------------------------------
# state constructors


def orbital_state(basis: FockBasis, orbitals) -> np.ndarray:
    """Normalized product prod_j b+_j |vac> of one ground-level orbital per atom.

    b+_j = sum_{site, spin} orbitals[j, site, spin] a+_{site, spin, gr}, the
    orbitals an (n_particles, sites, n_spins) array.  The creations run from
    the vacuum up through the 1, 2, ... atom bases, the last row first, so
    fermions on distinct sites listed in site order pick up no sign.  A wrong
    shape or atom count, a non-finite entry, or a product that vanishes
    (Pauli blocking) raises ValueError, each with its own message.
    """
    orbitals = np.asarray(orbitals, dtype=complex)
    shape = (basis.spec.sites, basis.n_spins)
    if orbitals.ndim != 3 or orbitals.shape[1:] != shape:
        raise ValueError(f"orbitals of shape {orbitals.shape}, need (atoms, *{shape})")
    if len(orbitals) != basis.n_particles:
        raise ValueError(f"{len(orbitals)} orbitals, basis expects {basis.n_particles} atoms")
    if not np.isfinite(orbitals).all():
        raise ValueError("orbitals must be finite")
    bases = [basis]  # bases[n] holds n atoms
    while bases[0].n_particles > 0:
        bases.insert(0, _smaller(bases[0]))
    v = np.ones(1, dtype=complex)
    for target, orbital in zip(bases[1:], orbitals[::-1]):
        created = np.zeros(target.dimension, dtype=complex)
        for site, spin in zip(*np.nonzero(orbital)):
            a_plus = _creation(target, target.mode_id(site, spin, GROUND))
            created += orbital[site, spin] * (a_plus @ v)
        v = created
    norm = np.linalg.norm(v)
    if not 0 < norm < math.inf:
        raise ValueError(f"the orbital product has norm {norm} (Pauli blocked?)")
    return v / norm


def _site_orbitals(spec: LatticeSpec, sites, spinors) -> np.ndarray:
    """`orbital_state` orbitals of atoms held on one site each.

    Atom j sits on site sites[j] with spin amplitudes spinors[j], an
    (atoms, n_spins) array; listed in site order, fermions pick up no sign.
    """
    spinors = np.asarray(spinors, dtype=complex)
    orbitals = np.zeros((len(spinors), spec.sites, spinors.shape[1]), dtype=complex)
    orbitals[np.arange(len(spinors)), sites] = spinors
    return orbitals


def mott_state(basis: FockBasis) -> np.ndarray:
    """One boson on each site."""
    if basis.statistics is not Statistics.BOSE or basis.n_particles != basis.spec.sites:
        raise ValueError("Mott state needs a bosonic basis at unit filling")
    N = basis.spec.sites
    return orbital_state(basis, _site_orbitals(basis.spec, range(N), np.ones((N, 1))))


def neel_state(basis: FockBasis) -> np.ndarray:
    """One fermion on each site, spin up where x + y is even and down where it is odd."""
    if basis.statistics is not Statistics.FERMI or basis.n_particles != basis.spec.sites:
        raise ValueError("Neel state needs a fermionic basis at half filling")
    spins = np.eye(2)[site_coordinates(basis.spec).sum(axis=1) % 2]
    return orbital_state(basis, _site_orbitals(basis.spec, range(basis.spec.sites), spins))


def momentum_fock_state(basis: FockBasis, occupations) -> np.ndarray:
    """Normalized k-diagonal Fock state from {(mode, spin): count}, spin 0 for bosons.

    Each atom's orbital is the plane wave a+_{k, spin, gr} =
    (1/sqrt N) sum_mu exp(i k r_mu) a+_{mu, spin, gr}, passed to
    `orbital_state`.  A spin outside range(basis.n_spins) or a count that is
    not a nonnegative integer raises ValueError.  `_momentum_case` builds the
    matching MomentumDistribution from the same map.
    """
    items = []
    for (mode, spin), count in occupations.items():
        if not (isinstance(spin, numbers.Integral) and 0 <= spin < basis.n_spins):
            raise ValueError(f"spin {spin!r} outside range({basis.n_spins})")
        if not (isinstance(count, numbers.Integral) and count >= 0):
            raise ValueError(f"count {count!r} of {(mode, spin)!r} is not a nonnegative integer")
        items.append((canonical_mode(mode, basis.spec.L), int(spin), int(count)))
    items.sort()
    total = sum(count for _, _, count in items)
    if total != basis.n_particles:
        raise ValueError(f"occupations hold {total} atoms, basis expects {basis.n_particles}")
    orbitals = np.zeros((total, basis.spec.sites, basis.n_spins), dtype=complex)
    creations = [(mode, spin) for mode, spin, count in items for _ in range(count)]
    for orbital, (mode, spin) in zip(orbitals[::-1], creations):  # the first created last
        orbital[:, spin] = _site_phases(basis, mode) / math.sqrt(basis.spec.sites)
    return orbital_state(basis, orbitals)


def _momentum_case(basis: FockBasis, occupations) -> tuple[np.ndarray, MomentumDistribution]:
    """momentum_fock_state(basis, occupations) and its MomentumDistribution.

    Both are read from the one {(mode, spin): count} map; each count lands
    on the grid entry mode_index gives its mode, and the atom total is the
    basis's.
    """
    state = momentum_fock_state(basis, occupations)
    L = basis.spec.L
    occ = np.zeros((basis.n_spins, L, L))
    for (mode, spin), count in occupations.items():
        occ[(spin, *mode_index(mode, L))] += count
    return state, MomentumDistribution(basis.statistics, occ, float(basis.n_particles))


# ---------------------------------------------------------------------------
# oracle observables


def _excitations(basis: FockBasis) -> np.ndarray:
    """Atoms on the excited level in each basis state."""
    return basis.occupations[:, EXCITED::2].sum(axis=1)


def _check_excitation_free(state: np.ndarray, basis: FockBasis) -> None:
    """Raise ValueError unless `state` passes _check_state and no column has excited weight."""
    _check_state(state, basis.dimension, block=True)
    if np.max(_excitations(basis) @ np.abs(state) ** 2) > 1e-9:
        raise ValueError("initial state carries excited-level population")


def _reached_rows(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """The rows sharing an excitation count with some row of the state's support.

    Ground-level bilinears and H keep the excitation count, so every image
    of `state` under them lies on these rows: W of `four_point_tensor` and
    `lowered` of `correlator_cases` need no others.
    """
    excitations = _excitations(basis)
    return np.flatnonzero(np.isin(excitations, excitations[np.flatnonzero(state)]))


def exact_peak_curve(
    state: np.ndarray,
    kappa_in: tuple[int, int],
    kappa_out: tuple[int, int],
    dts: np.ndarray,
    basis: FockBasis,
    spec: LatticeSpec,
) -> np.ndarray:
    """|<evolved state| Sigma^-(kout) e^{-iH dt} Sigma^+(kin) |state>|^2 / n^2 per dt.

    n is the atom count of the basis, which equals the site count N only at
    unit filling.

    This is the leading-order normalized emission peak under resonance, with
    the pulse integrals cancelled against the single-atom reference.
    """
    if basis.n_particles == 0:
        raise ValueError("the basis holds no atoms")
    _check_excitation_free(state, basis)
    prop = _cached_propagator(basis, spec)
    excited = exciton_matrix(basis, kappa_in) @ state
    minus = exciton_matrix(basis, kappa_out).getH()
    # the excited vector and the reference evolve as one (dim, 2) block
    evolved = prop.advance(np.stack([excited, state], axis=1), dts)
    emitted = (minus @ evolved[..., 0].T).T
    reference = evolved[..., 1]
    return np.abs(np.sum(reference.conj() * emitted, axis=-1)) ** 2 / basis.n_particles**2


def _grid_mode(spec: LatticeSpec, axis: int, ndim: int) -> Mode:
    """The mode_grid modes as one (n, m) pair of integer arrays along `axis` of `ndim`."""
    shape = (1,) * axis + (-1,) + (1,) * (ndim - axis - 1)
    n, m = np.array(mode_grid(spec)).T
    return Mode(n.reshape(shape), m.reshape(shape))


def _mode_difference(spec: LatticeSpec) -> np.ndarray:
    """D[i, j] = grid index of mode_sub(grid[i], grid[j]), grid in mode_grid order."""
    i, j = mode_index(mode_sub(_grid_mode(spec, 0, 2), _grid_mode(spec, 1, 2), spec.L), spec.L)
    return i * spec.L + j


def four_point_tensor(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Every exact <a+_{q-kin,s2} a_{q-kout,s2} a+_{k-kout,s1} a_{k-kin,s1}> in `state`.

    Entry [k, q, kin, kout, s1, s2] indexes the modes in mode_grid order and
    the ground-level spins (one spin for bosons).  With
    V[:, s, a, b] = a+_{a,s} a_{b,s} |state>, each expectation
    <B(c, d) B(a, b)> = <B(d, c) state | B(a, b) state> is one entry of the
    Gram matrix V^H V, which is read from the site-mode images alone.  Each
    site-mode image is two creation products, a+_{mu,s} ((a+_{nu,s})^H state):
    2 S N of them in place of S N^2 pair operators.  The images keep the
    excitation count of the state, so they are held only on the rows with one
    of its counts (70 of the 1820 for the Neel state).  `state` is one
    finite (dim,) vector; anything else raises ValueError.
    """
    _check_state(state, basis.dimension, block=False)
    N, S = basis.spec.sites, basis.n_spins
    rows = _reached_rows(state, basis)
    # W[:, (s, mu, nu)] = a+_{mu,s} a_{nu,s} |state>, in site modes, on the reached rows
    W = np.empty((len(rows), S, N, N), dtype=complex)
    for s in range(S):
        ground = [_creation(basis, basis.mode_id(site, s, GROUND)) for site in range(N)]
        lowered = np.stack([a_plus.getH() @ state for a_plus in ground], axis=1)  # over nu
        for mu, a_plus in enumerate(ground):
            W[:, s, mu] = (a_plus @ lowered)[rows]
    W = W.reshape(len(rows), S * N * N)
    phases = np.stack([_site_phases(basis, mode) for mode in mode_grid(basis.spec)])
    # V = W K^T with K[(s, a, b), (s, mu, nu)] = phases[a, mu] conj(phases[b, nu]) / N,
    # so V^H V = K^* (W^H W) K^T: only the small Gram matrix is rotated to momenta
    K = np.kron(np.eye(S), np.kron(phases, phases.conj())) / N
    gram = (K.conj() @ (W.conj().T @ W) @ K.T).reshape((S, N, N) * 2)
    D = _mode_difference(basis.spec)
    k, q, kin, kout, s1, s2 = np.ix_(*[range(N)] * 4, range(S), range(S))
    return gram[s2, D[q, kout], D[q, kin], s1, D[k, kout], D[k, kin]]


def correlator_cases(
    state: np.ndarray, basis: FockBasis, spec: LatticeSpec, t_absorb: float, t_emit: float
) -> np.ndarray:
    """Exact site-resolved correlators behind the separable-state analysis.

    Entry [mu, nu, rho, eta, s1, s2, s3, s4] is
    <gr+ ex (eta, s4, t) ex+ gr (rho, s3, t') gr+ ex (mu, s1, t') ex+ gr (nu, s2, t)>
    in the Heisenberg picture.  Nonzero at leading order only for
    mu = nu and rho = eta.  Each pair is applied as two creation products,
    ex+ gr = a+_ex (a+_gr)^H and gr+ ex = a+_gr (a+_ex)^H.  All N * S raised
    vectors evolve as one block, and their lowered images are held only on
    the rows with an excitation count of the state, where H and the
    raise-then-lower pair leave them.
    """
    prop = _cached_propagator(basis, spec)
    N, S = basis.spec.sites, basis.n_spins
    # channel c = site * S + s: its ground- and excited-level creations
    channels = [
        [_creation(basis, basis.mode_id(site, s, level)) for level in (GROUND, EXCITED)]
        for site in range(N)
        for s in range(S)
    ]
    base = prop.advance(state, t_absorb)
    # column c: e^{-iH(t' - t)} ex+ gr (c) e^{-iH t} |state>
    raised = prop.advance(
        np.stack([ex @ (gr.getH() @ base) for gr, ex in channels], axis=1), t_emit - t_absorb
    )
    # column (c, d): gr+ ex (c) raised[:, d] on the reached rows, filled in place:
    # a stack of the C products would hold them twice
    rows = _reached_rows(state, basis)
    lowered = np.empty((len(rows), len(channels), len(channels)), dtype=complex)
    for c, (gr, ex) in enumerate(channels):
        lowered[:, c] = (gr @ (ex.getH() @ raised))[rows]
    lowered = lowered.reshape(len(rows), -1)
    # <raised_b| ex+ gr (a) gr+ ex (c) |raised_d> is one entry of the Gram matrix,
    # indexed [rho s3, eta s4, mu s1, nu s2]
    values = lowered.conj().T @ lowered
    return values.reshape((N, S) * 4).transpose(4, 6, 0, 2, 5, 7, 1, 3)


def separable_deviation(
    state: np.ndarray,
    kappa_in: tuple[int, int],
    kappa_out: tuple[int, int],
    dt: float,
    basis: FockBasis,
    spec: LatticeSpec,
) -> float:
    """|exact peak - product-formula peak| for `state`, a vector of `basis`.

    The arguments are those of `exact_peak_curve`, with one waiting time.
    A product of orbitals confined to one site each (`orbital_state`) has a
    definite atom number per site, the state the formula is for.  The
    product formula is separable_peak of the single-site transfer
    amplitudes, summed with the spatial phase of kappa_out - kappa_in; it is
    exact at J = 0 and carries an O(J/U) residual otherwise.  Site mu's
    amplitude sum_{s1,s2} <gr+ ex_{s1} ex+ gr_{s2}> is <R_mu^H R_mu> with
    R_mu = sum_s a+_{mu,s,ex} a_{mu,s,gr}.  The state is excitation-free
    (`exact_peak_curve` checks it first), so each raised atom finds its
    excited level empty: a_{ex,s1} a+_{ex,s2} acts as delta_{s1 s2}, and
    R_mu^H R_mu as the site occupation n_mu.  The amplitudes are therefore
    the state's site occupations <n_mu>, read from the occupation array.
    For the on-site interaction used here the energy is constant within a
    fixed site occupation, so the time dependence is a global phase and the
    equal-time value is exact at zero tunneling.  Both sides are normalized
    by the atom count: the site occupations sum to it.
    """
    exact = exact_peak_curve(state, kappa_in, kappa_out, np.array([dt]), basis, spec)[0]
    site_amps = np.abs(state) ** 2 @ _site_counts(basis)
    predicted = separable_peak(site_amps.reshape(basis.spec.L, -1), kappa_in, kappa_out)
    return abs(exact - predicted)


def classical_sequence_sigma_z(
    state: np.ndarray,
    basis: FockBasis,
    spec: LatticeSpec,
    rotation_in: float,
    rotation_out: float,
    kappa: tuple[int, int],
    dt: float | np.ndarray,
) -> float | np.ndarray:
    """<Sigma^z> after pulse, tunneling evolution for dt, pulse, simulated exactly.

    Pulses are exp(-i angle Sigma^x(kappa)); tunneling runs at U = 0.
    `state` is one vector or a (dim, k) block of k states and dt a scalar or
    an array of waits, all evolved together; the result has shape
    dt.shape + state.shape[1:], a float for one vector and a scalar dt.
    """
    if spec.U != 0:
        raise ValueError("the classical sequence oracle requires U = 0")
    _check_excitation_free(state, basis)

    def build_pulse() -> Propagator:
        # Sigma^x(kappa) = (Sigma^+ + Sigma^-) / 2
        plus = exciton_matrix(basis, kappa)
        return Propagator(_sum((basis.dimension,) * 2, [(0.5, plus), (0.5, plus.getH())]))

    prop = _cached_propagator(basis, spec)
    pulse = _cached(basis, ("pulse", canonical_mode(kappa, basis.spec.L)), build_pulse)
    waits = np.asarray(dt, dtype=float)
    v = prop.advance(pulse.advance(state, rotation_in), waits)  # waits.shape + state.shape
    v = pulse.advance(np.moveaxis(v, waits.ndim, 0).reshape(basis.dimension, -1), rotation_out)
    values = (_excitations(basis) - basis.n_particles / 2) @ np.abs(v) ** 2
    return values.reshape(waits.shape + state.shape[1:])[()]


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _ladder_deviation(basis: FockBasis, ground: np.ndarray, kappa: Mode) -> float:
    N = basis.spec.sites
    plus = exciton_matrix(basis, kappa)
    worst = 0.0
    v = ground
    expected = 1.0
    for n in range(min(3, N)):
        v = plus @ v
        expected *= dicke_ladder_factor(N, n)
        worst = max(worst, abs(np.linalg.norm(v) - expected) / expected)
    return worst


def _commutator_deviation(basis: FockBasis, kappa: Mode, rng: random.Random) -> float:
    plus = exciton_matrix(basis, kappa)
    minus = plus.getH()
    sz = _excitations(basis) - basis.n_particles / 2
    draw = rng.random
    worst = 0.0
    for _ in range(3):
        # real and imaginary parts uniform in [-1, 1]: the values of rng.uniform(-1, 1),
        # which is -1 + 2 * rng.random(), bit for bit
        v = (-1.0 + 2.0 * np.array([draw() for _ in range(2 * basis.dimension)])).view(complex)
        v /= np.linalg.norm(v)
        lhs = 0.5 * (plus @ (minus @ v) - minus @ (plus @ v))
        worst = max(worst, float(np.linalg.norm(lhs - sz * v)))
    return worst


def _grid_queries(spec: LatticeSpec, ndim: int) -> list[Mode]:
    """k, q, kappa_in, kappa_out over the grid on the first four of `ndim` axes.

    Passed to a closed form, they give its value at every query in
    four_point_tensor order.
    """
    return [_grid_mode(spec, axis, ndim) for axis in range(4)]


def _four_point_deviation(basis: FockBasis, state, dist: MomentumDistribution) -> float:
    queries = _grid_queries(basis.spec, 6)
    if basis.fermionic:
        spins = np.arange(2)
        formula = fermionic_four_point(dist, *queries, spins[:, None], spins)
    else:
        formula = bosonic_four_point(dist, *queries)
    return float(np.abs(four_point_tensor(state, basis) - formula).max())


def _quench_correlator_residual(basis: FockBasis, state, closed) -> np.ndarray:
    """Spin-summed exact four-point tensor minus closed(spec, ...), over (k, q, kin, kout)."""
    exact = four_point_tensor(state, basis).sum(axis=(4, 5))
    return exact - closed(basis.spec, *_grid_queries(basis.spec, 4))


def _zero_case_deviation(
    basis: FockBasis, states, spec: LatticeSpec, t_absorb: float, t_emit: float
) -> float:
    same = np.eye(basis.spec.sites, dtype=bool)
    surviving = same[:, :, None, None] & same[None, None, :, :]  # mu = nu and rho = eta
    return max(
        float(np.abs(correlator_cases(state, basis, spec, t_absorb, t_emit)[~surviving]).max())
        for state in states
    )


def _metastable_deviation(
    basis: FockBasis, states, spec: LatticeSpec, dist: MomentumDistribution, kappa: Mode, alpha
) -> float:
    """max |<Sigma^z> + n/2 - metastable_population| over the states, at angles (alpha, -alpha).

    The exact count after the reversed sequence is (sin^2 alpha / 2)(n - S),
    the formula's (alpha^2 / 2)(n - S): they part at O(alpha^4).
    """
    dts = np.array([0.0, 0.4, 0.7, 1.4, 2.0])
    amplitudes = coherent_amplitude(dist, kappa, dts, spec)
    formulas = metastable_population(dist, amplitudes, alpha)
    block = np.stack(states, axis=1)
    exact = classical_sequence_sigma_z(block, basis, spec, alpha, -alpha, kappa, dts)
    return float(np.abs(exact + basis.n_particles / 2 - formulas[:, None]).max())


def _random_bose_product(spec: LatticeSpec, rng: random.Random) -> np.ndarray:
    """Orbitals of as many bosons as sites, each on a uniformly drawn site."""
    picks = sorted(rng.choices(range(spec.sites), k=spec.sites))
    return _site_orbitals(spec, picks, np.ones((spec.sites, 1)))


def _random_fermi_product(spec: LatticeSpec, rng: random.Random) -> np.ndarray:
    """Orbitals of one fermion per site, each with a uniformly drawn spin direction."""
    spins = []
    for _ in range(spec.sites):
        theta, chi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        spins.append((np.cos(theta / 2), np.exp(1j * chi) * np.sin(theta / 2)))
    return _site_orbitals(spec, range(spec.sites), spins)


def verification_suite() -> list[CheckResult]:
    """Run every oracle cross-check on the 2 x 2 lattice; returns one row per check.

    The random commutator vectors and product states are drawn from
    `random.Random(1905)`, so every run checks the same inputs.
    """
    spec = LatticeSpec(L=2, J=1.0, U=0.0)
    rng = random.Random(1905)
    results = []

    bose = FockBasis(spec, Statistics.BOSE, spec.sites)
    fermi = FockBasis(spec, Statistics.FERMI, spec.sites)
    kappa = Mode(1, 0)
    kappa_diag = Mode(1, 1)
    # each state built once, a condensate and a uniform state beside their distributions
    mott, neel = mott_state(bose), neel_state(fermi)
    condensate = (momentum_fock_state(bose, {(Mode(0, 0), 0): spec.sites}), superfluid(spec))
    uniform_case = _momentum_case(bose, {(mode, 0): 1 for mode in mode_grid(spec)})

    dev = max(_ladder_deviation(bose, mott, kappa), _ladder_deviation(fermi, neel, kappa))
    results.append(CheckResult("dicke-ladder", dev, 1e-10))

    dev = max(
        _commutator_deviation(bose, kappa, rng),
        _commutator_deviation(fermi, kappa_diag, rng),
    )
    results.append(CheckResult("quasispin-commutator", dev, 1e-12))

    bose_cases = [
        condensate,
        _momentum_case(bose, {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1}),
        uniform_case,
    ]
    dev = max(_four_point_deviation(bose, state, dist) for state, dist in bose_cases)
    results.append(CheckResult("four-point-bose", dev, 1e-10))

    fermi2 = _smaller(_smaller(fermi))
    fermi_cases = [
        (fermi, {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 0), 1): 1, (Mode(0, 1), 1): 1}),
        (fermi2, {(Mode(0, 0), 0): 1, (Mode(0, 0), 1): 1}),
    ]
    dev = max(_four_point_deviation(b, *_momentum_case(b, occ)) for b, occ in fermi_cases)
    results.append(CheckResult("four-point-fermi", dev, 1e-10))

    residual = _quench_correlator_residual(bose, mott, mott_correlator)
    results.append(CheckResult("mott-correlator", float(np.abs(residual).max()), 1e-10))
    residual = _quench_correlator_residual(fermi, neel, neel_correlator)
    # the published closed form drops the checkerboard term at k - q = (L/2, L/2)
    half = mode_grid(spec).index(Mode(spec.L // 2, spec.L // 2))
    sublattice = _mode_difference(spec) == half  # over (k, q)
    dev = float(np.abs(residual[~sublattice]).max())
    results.append(CheckResult("neel-correlator", dev, 1e-10))
    dev = float(np.abs(residual[sublattice] + 0.5).max())
    results.append(CheckResult("neel-sublattice-gap", dev, 1e-10))

    dts = np.linspace(0.0, 8.0, 9)
    dev = 0.0
    for kap in (kappa, kappa_diag):
        curve = exact_peak_curve(condensate[0], kap, kap, dts, bose, spec)
        dev = max(dev, float(np.abs(curve - 1.0).max()))
    results.append(CheckResult("superfluid-peak", dev, 1e-8))

    dev = 0.0
    for kap in (kappa, kappa_diag):
        curve = exact_peak_curve(mott, kap, kap, dts, bose, spec)
        target = peak_curve(uniform(spec), kap, dts, spec)
        dev = max(dev, float(np.abs(curve - target).max()))
    results.append(CheckResult("quench-dephasing-bose", dev, 1e-8))

    dts_f = np.array([0.0, 0.9, 2.3])
    curve = exact_peak_curve(neel, kappa, kappa, dts_f, fermi, spec)
    target = peak_curve(uniform(spec), kappa, dts_f, spec)
    results.append(
        CheckResult("quench-dephasing-fermi", float(np.abs(curve - target).max()), 1e-8)
    )

    spec_sep = LatticeSpec(L=2, J=0.0, U=0.8)
    bose_states = [orbital_state(bose, _random_bose_product(spec, rng)) for _ in range(3)]
    fermi_states = [orbital_state(fermi, _random_fermi_product(spec, rng)) for _ in range(2)]
    dev = max(
        _zero_case_deviation(bose, bose_states, spec_sep, 0.4, 1.1),
        _zero_case_deviation(fermi, fermi_states, spec_sep, 0.4, 1.1),
    )
    results.append(CheckResult("separable-zero-cases", dev, 1e-12))

    dev = separable_deviation(mott, kappa, kappa, 1.3, bose, spec_sep)
    results.append(CheckResult("separable-amplitude-frozen", dev, 1e-12))

    spec_u = LatticeSpec(L=2, J=1.0, U=100.0)
    dev = separable_deviation(mott, kappa, kappa, 1.0, bose, spec_u)
    results.append(CheckResult("separable-amplitude-residual", dev, 0.1))

    dev = 0.0
    classical_cases = [condensate, uniform_case, (mott, uniform(spec))]
    dts_c = np.array([0.0, 0.7, 1.4])
    amplitudes = [coherent_amplitude(dist, kappa_diag, dts_c, spec) for _, dist in classical_cases]
    states = np.stack([state for state, _ in classical_cases], axis=1)
    for angles in ((0.2, -0.2), (0.3, 0.5)):
        exact = classical_sequence_sigma_z(states, bose, spec, *angles, kappa_diag, dts_c)
        for column, ((_, dist), amplitude) in enumerate(zip(classical_cases, amplitudes)):
            formula = expected_sigma_z(dist, amplitude, *angles)
            dev = max(dev, float(np.abs(exact[:, column] - formula).max()))
    results.append(CheckResult("classical-sequence", dev, 1e-8))

    # uniform occupations from a momentum Fock state and from the Mott state;
    # the deviation is 0.647 alpha^4 for both
    alpha = 0.05
    metastable = [uniform_case[0], mott]
    dev = _metastable_deviation(bose, metastable, spec, uniform(spec), kappa_diag, alpha)
    results.append(CheckResult("metastable-population", dev, 6.25e-6))  # alpha^4

    return results
