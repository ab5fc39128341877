"""Brute-force exact-diagonalization oracle on tiny lattices.

Everything here exists to validate the closed-form kernels against exact
quantum mechanics: occupation-number bases over (site, spin, level) modes,
the two-level lattice Hamiltonian, collective exciton operators, exact
unitary evolution by eigendecomposition, and first-order emission amplitudes.

A basis is one occupation array; every operator and state derives from one
creation primitive, a+ from the basis one atom smaller.  Bilinears a+_c a_a
are products of two creations, every state is a product of one-atom orbital
creations applied from the vacuum up (`orbital_state`), and Sigma^- is the
adjoint of Sigma^+.  Operators are numpy index triplets (`_Operator`); the
oracle needs no sparse-matrix library.

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

from .classical import expected_sigma_z, mean_excitations, metastable_population
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
    "BasisSizeError",
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
    "sigma_x_matrix",
    "sigma_z_diagonal",
    "superfluid_state",
    "verification_suite",
]

GROUND, EXCITED = 0, 1
_DIMENSION_CAP = 1_000_000


class BasisSizeError(RuntimeError):
    """Requested basis exceeds the oracle's size limits."""


# ---------------------------------------------------------------------------
# occupation-number basis and its ladder operators


class FockBasis:
    """Complete occupation-number basis at fixed particle count.

    Bosons use one spin channel, fermions two.  State i is row i of
    `occupations` and of `_atoms`, the sorted modes of its atoms; the rows
    run in `combinations` (fermions) or `combinations_with_replacement`
    (bosons) order of the atoms, so the occupations descend
    lexicographically.  A state's row is the lexicographic rank of its
    atoms (`_rank`), found with one binomial-table lookup per atom.
    """

    def __init__(self, spec: LatticeSpec, statistics: Statistics, n_particles: int):
        statistics = Statistics(statistics)
        if n_particles < 0:
            raise ValueError("particle number must be nonnegative")
        self.spec = spec
        self.statistics = statistics
        self.n_particles = n_particles
        self.n_spins = 1 if statistics is Statistics.BOSE else 2
        self.n_modes = spec.sites * self.n_spins * 2
        self.fermionic = statistics is Statistics.FERMI
        if self.fermionic and n_particles > 2 * spec.sites:
            raise BasisSizeError(
                f"fermionic oracle caps particles at 2 * sites = {2 * spec.sites}"
            )

        # adding i to the i-th atom makes a multiset of modes a strict combination
        # of `slots`, in the same order
        slots = self.n_modes + (0 if self.fermionic else n_particles - 1)
        self.dimension = math.comb(slots, n_particles)
        if self.dimension > _DIMENSION_CAP:
            raise BasisSizeError(
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


def _smaller(basis: FockBasis) -> FockBasis:
    """The same lattice and statistics with one atom fewer, built once per basis."""
    if "smaller" not in basis._cache:
        basis._cache["smaller"] = FockBasis(basis.spec, basis.statistics, basis.n_particles - 1)
    return basis._cache["smaller"]


class _Operator:
    """A sparse matrix as numpy triplets: entry (row[i], col[i]) holds data[i].

    No (row, col) pair repeats.  The triplets are kept sorted by row, so
    `@` (on a vector or on every column of a (dim, T) block) reads each run
    of equal rows as one slice: where every run is a single entry, as in
    creations, bilinears and diagonals, the product assigns each term to its
    row, and otherwise it sums each run.
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
        if len(self._runs) == len(self.row):
            out[self.row] = terms
        else:
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
    """sum coeff * op over (coeff, op) parts: each duplicate (row, col) summed once.

    Entries that sum to exactly zero are dropped, so the pattern holds only
    nonzero entries, in row-major order.  Repeated entries add up in the
    order the parts give them.
    """
    row = np.concatenate([op.row for _, op in parts])
    col = np.concatenate([op.col for _, op in parts])
    data = np.concatenate([coeff * op.data for coeff, op in parts])
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
    key = ("creation", mode_id)
    if key in basis._cache:
        return basis._cache[key]
    if basis.n_particles == 0:
        empty = np.zeros(0, dtype=np.intp)
        mat = _Operator(empty, empty, np.zeros(0), (basis.dimension, 0))
    else:
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
        mat = _Operator(basis._rank(atoms), cols, vals, (basis.dimension, len(occ)))
    basis._cache[key] = mat
    return mat


def _bilinear(basis: FockBasis, create_id: int, annihilate_id: int) -> _Operator:
    """a+_{create} a_{annihilate} = a+_{create} (a+_{annihilate})^T, cached per pair.

    Both creations map each smaller state to at most one row, so the
    product pairs their entries on a shared smaller state by integer
    indexing; its rows and columns are each distinct.
    """
    key = ("bilinear", create_id, annihilate_id)
    if key not in basis._cache:
        create, lower = _creation(basis, create_id), _creation(basis, annihilate_id)
        slot = np.full(create.shape[1], -1)
        slot[create.col] = np.arange(len(create.col))
        shared = np.flatnonzero(slot[lower.col] >= 0)  # entries of `lower`
        entry = slot[lower.col[shared]]  # the matching entries of `create`
        basis._cache[key] = _Operator(
            create.row[entry],
            lower.row[shared],
            create.data[entry] * lower.data[shared],
            (basis.dimension, basis.dimension),
        )
    return basis._cache[key]


def _bilinear_sum(basis: FockBasis, terms) -> _Operator:
    """sum coeff * a+_{create} a_{annihilate} over (coeff, create_id, annihilate_id) terms."""
    parts = [(coeff, _bilinear(basis, c, a)) for coeff, c, a in terms]
    return _sum((basis.dimension, basis.dimension), parts)


def _hopping(basis: FockBasis) -> _Operator:
    """sum_{mu nu, s, level} A[mu,nu] a+_{mu s level} a_{nu s level}, built once per basis."""
    if "hopping" not in basis._cache:
        A = adjacency_matrix(basis.spec)
        N = basis.spec.sites
        basis._cache["hopping"] = _bilinear_sum(
            basis,
            [
                (A[mu, nu], basis.mode_id(mu, spin, level), basis.mode_id(nu, spin, level))
                for mu in range(N)
                for nu in range(N)
                if A[mu, nu]
                for spin in range(basis.n_spins)
                for level in (GROUND, EXCITED)
            ],
        )
    return basis._cache["hopping"]


def _onsite(basis: FockBasis) -> _Operator:
    """Diagonal sum_mu n_mu (n_mu - 1) / 2, built once per basis."""
    if "onsite" not in basis._cache:
        n_site = basis.occupations.reshape(basis.dimension, basis.spec.sites, -1).sum(axis=2)
        states = np.arange(basis.dimension)
        pairs = (0.5 * n_site * (n_site - 1)).sum(axis=1)
        basis._cache["onsite"] = _Operator(states, states, pairs, (basis.dimension,) * 2)
    return basis._cache["onsite"]


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


def _site_phases(basis: FockBasis, kappa: tuple[int, int]) -> np.ndarray:
    kappa = canonical_mode(kappa, basis.spec.L)
    coords = site_coordinates(basis.spec)
    L = basis.spec.L
    return np.exp(2j * np.pi * (kappa.n * coords[:, 0] + kappa.m * coords[:, 1]) / L)


def exciton_matrix(basis: FockBasis, kappa: tuple[int, int]) -> _Operator:
    """Sigma^+(kappa) = sum_{mu,s} a+_ex a_gr exp(i kappa r_mu); Sigma^- is its .getH()."""
    key = ("exciton", canonical_mode(kappa, basis.spec.L))
    if key in basis._cache:
        return basis._cache[key]
    phases = _site_phases(basis, kappa)
    mat = _bilinear_sum(
        basis,
        [
            (phases[site], basis.mode_id(site, spin, EXCITED), basis.mode_id(site, spin, GROUND))
            for site in range(basis.spec.sites)
            for spin in range(basis.n_spins)
        ],
    )
    basis._cache[key] = mat
    return mat


def sigma_z_diagonal(basis: FockBasis) -> np.ndarray:
    """Diagonal of Sigma^z = (1/2) sum (n_ex - n_gr)."""
    occ = basis.occupations
    return 0.5 * (occ[:, EXCITED::2].sum(axis=1) - occ[:, GROUND::2].sum(axis=1))


def sigma_x_matrix(basis: FockBasis, kappa: tuple[int, int]) -> _Operator:
    """Sigma^x(kappa) = (Sigma^+ + Sigma^-) / 2."""
    plus = exciton_matrix(basis, kappa)
    return _sum((basis.dimension, basis.dimension), [(0.5, plus), (0.5, plus.getH())])


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


class Propagator:
    """Exact evolution exp(-i H t), for any time grid.

    H, an oracle operator, is diagonalized one sector at a time: the sectors
    are the connected components of its nonzero pattern, i.e. the blocks of
    the quantum numbers it conserves.  A sector is assembled and
    diagonalized the first time `advance` meets a state with weight on it,
    so sectors no state reaches cost nothing.  Sectors first met together
    and of equal size share one stacked eigh; a 1 x 1 sector is its own
    eigenvalue.  Hermiticity is checked on every entry up front.
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
            if size == 1:
                energies, vectors = blocks[:, 0].real, np.ones((len(new), 1, 1))
            else:
                energies, vectors = np.linalg.eigh(blocks)
            # complex once here: a real-by-complex matmul casts on every call
            group = (members, energies, vectors.astype(complex))
            held = self._groups.get(size)
            if held is not None:
                group = tuple(np.concatenate(pair) for pair in zip(held, group))
            self._slot[new] = len(group[0]) - len(new) + np.arange(len(new))
            self._groups[size] = group

    def advance(self, state: np.ndarray, t) -> np.ndarray:
        """exp(-i H t) |state>: a vector for scalar t, shape (T, dim) for T times.

        Only the sectors where `state` has weight are evolved; the rest of
        the result is exactly zero.  A NaN or infinite time raises ValueError.
        """
        times = np.asarray(t, dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("evolution time must be finite")
        flat = times.reshape(1, -1, 1)
        weighted = np.zeros(len(self._starts), dtype=bool)
        weighted[self._sector[np.flatnonzero(state)]] = True
        touched = np.flatnonzero(weighted)
        fresh = touched[self._slot[touched] < 0]
        if len(fresh):
            self._diagonalize(fresh)
        touched_sizes = self._sizes[touched]
        evolved = np.zeros((flat.shape[1],) + state.shape, dtype=complex)
        for size, (members, energies, vectors) in self._groups.items():
            slots = self._slot[touched[touched_sizes == size]]
            if not len(slots):
                continue
            if len(slots) < len(members):
                members, energies, vectors = members[slots], energies[slots], vectors[slots]
            # V^H s per sector, then V (phases * V^H s) on every time at once
            coefficients = (state[members].conj()[:, None, :] @ vectors).conj()
            phased = np.exp(-1j * flat * energies[:, None, :]) * coefficients  # (sectors, T, size)
            evolved[:, members] = (phased @ vectors.transpose(0, 2, 1)).transpose(1, 0, 2)
        return evolved.reshape(times.shape + state.shape)


def _cached_propagator(basis: FockBasis, spec: LatticeSpec) -> Propagator:
    key = ("propagator", spec.J, spec.U)
    cached = basis._cache.get(key)
    if cached is None:
        cached = Propagator(build_lattice_hamiltonian(basis, spec))
        basis._cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# state constructors


def orbital_state(basis: FockBasis, orbitals) -> np.ndarray:
    """Normalized product prod_j b+_j |vac> of one ground-level orbital per atom.

    b+_j = sum_{site, spin} orbitals[j, site, spin] a+_{site, spin, gr}, the
    orbitals an (n_particles, sites, n_spins) array.  The creations run from
    the vacuum up through the 1, 2, ... atom bases, the last row first, so
    fermions on distinct sites listed in site order pick up no sign.  A wrong
    shape or atom count, a non-finite entry, or a product that vanishes
    (Pauli blocking) raises ValueError.
    """
    orbitals = np.asarray(orbitals, dtype=complex)
    shape = (basis.spec.sites, basis.n_spins)
    if orbitals.ndim != 3 or orbitals.shape[1:] != shape:
        raise ValueError(f"orbitals of shape {orbitals.shape}, need (atoms, *{shape})")
    if len(orbitals) != basis.n_particles:
        raise ValueError(f"{len(orbitals)} orbitals, basis expects {basis.n_particles} atoms")
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


def _mott_orbitals(spec: LatticeSpec) -> np.ndarray:
    """One boson per site: atom mu's orbital is site mu."""
    return np.eye(spec.sites).reshape(spec.sites, spec.sites, 1)


def _neel_orbitals(spec: LatticeSpec) -> np.ndarray:
    """One fermion per site, spin up where x + y is even and down where it is odd."""
    sites = np.arange(spec.sites)
    orbitals = np.zeros((spec.sites, spec.sites, 2))
    orbitals[sites, sites, site_coordinates(spec).sum(axis=1) % 2] = 1.0
    return orbitals


def mott_state(basis: FockBasis) -> np.ndarray:
    if basis.statistics is not Statistics.BOSE or basis.n_particles != basis.spec.sites:
        raise ValueError("Mott state needs a bosonic basis at unit filling")
    return orbital_state(basis, _mott_orbitals(basis.spec))


def neel_state(basis: FockBasis) -> np.ndarray:
    if basis.statistics is not Statistics.FERMI or basis.n_particles != basis.spec.sites:
        raise ValueError("Neel state needs a fermionic basis at half filling")
    return orbital_state(basis, _neel_orbitals(basis.spec))


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


def superfluid_state(basis: FockBasis) -> np.ndarray:
    """All atoms condensed in the k = 0 ground-level mode."""
    if basis.statistics is not Statistics.BOSE:
        raise ValueError("the condensate state is bosonic")
    return momentum_fock_state(basis, {(Mode(0, 0), 0): basis.n_particles})


# ---------------------------------------------------------------------------
# oracle observables


def _check_excitation_free(state: np.ndarray, basis: FockBasis) -> None:
    n_ex = basis.occupations[:, EXCITED::2].sum(axis=1)
    weight = float(np.sum(n_ex * np.abs(state) ** 2))
    if weight > 1e-9:
        raise ValueError("initial state carries excited-level population")


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
    emitted = (minus @ prop.advance(excited, dts).T).T
    reference = prop.advance(state, dts)
    return np.abs(np.sum(reference.conj() * emitted, axis=1)) ** 2 / basis.n_particles**2


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
    Gram matrix V^H V, which is read from the site-mode images alone.
    """
    N, S = basis.spec.sites, basis.n_spins
    # W[:, (s, mu, nu)] = a+_{mu,s} a_{nu,s} |state>, in site modes
    W = np.empty((basis.dimension, S * N * N), dtype=complex)
    for column, (s, mu, nu) in enumerate(np.ndindex(S, N, N)):
        bilinear = _bilinear(basis, basis.mode_id(mu, s, GROUND), basis.mode_id(nu, s, GROUND))
        W[:, column] = bilinear @ state
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
    mu = nu and rho = eta.
    """
    N, S = spec.sites, basis.n_spins
    channels = [(site, s) for site in range(N) for s in range(S)]  # index site * S + s
    lower = [
        _bilinear(basis, basis.mode_id(site, s, GROUND), basis.mode_id(site, s, EXCITED))
        for site, s in channels
    ]
    prop = _cached_propagator(basis, spec)
    base = prop.advance(state, t_absorb)
    # column c: e^{-iH(t' - t)} ex+ gr (c) e^{-iH t} |state>, ex+ gr (c) being lower[c]^H
    raised = np.stack([prop.advance(op.getH() @ base, t_emit - t_absorb) for op in lower], axis=1)
    # column (c, d): gr+ ex (c) raised[:, d], filled in place: a stack of the C
    # products would hold them twice.  The other rows are zero and add nothing.
    lowered = np.empty((basis.dimension, len(lower), len(lower)), dtype=complex)
    for c, op in enumerate(lower):
        lowered[:, c] = op @ raised
    lowered = lowered.reshape(basis.dimension, -1)
    lowered = lowered[lowered.any(axis=1)]
    # <raised_b| ex+ gr (a) gr+ ex (c) |raised_d> is one entry of the Gram matrix,
    # indexed [rho s3, eta s4, mu s1, nu s2]
    values = lowered.conj().T @ lowered
    return values.reshape((N, S) * 4).transpose(4, 6, 0, 2, 5, 7, 1, 3)


def separable_deviation(
    orbitals,
    kappa_in: tuple[int, int],
    kappa_out: tuple[int, int],
    dt: float,
    spec: LatticeSpec,
    statistics: Statistics,
) -> float:
    """|exact peak - product-formula peak| for the orbital product of `orbitals`.

    `orbitals` holds one (sites, n_spins) row per atom, as `orbital_state`
    takes them, and the basis holds that many atoms.  Rows confined to one
    site each give a product with a definite atom number per site, the
    state the formula is for.  The product formula is separable_peak of the
    single-site transfer amplitudes, summed with the spatial phase of
    kappa_out - kappa_in; it is exact at J = 0 and carries an O(J/U)
    residual otherwise.  Site mu's amplitude
    sum_{s1,s2} <gr+ ex_{s1} ex+ gr_{s2}> is |R_mu psi|^2 with
    R_mu = sum_s a+_{mu,s,ex} a_{mu,s,gr}.  For the on-site interaction used
    here the energy is constant within a fixed site occupation, so the time
    dependence is a global phase and the equal-time value is exact at zero
    tunneling.  Both sides are normalized by the atom count: the site
    amplitudes sum to it.
    """
    statistics = Statistics(statistics)
    basis = FockBasis(spec, statistics, len(orbitals))
    psi = orbital_state(basis, orbitals)
    exact = exact_peak_curve(psi, kappa_in, kappa_out, np.array([dt]), basis, spec)[0]

    site_amps = np.empty(spec.sites)
    for mu in range(spec.sites):
        channels = [(mu, s) for s in range(basis.n_spins)]
        R = _bilinear_sum(
            basis, [(1.0, basis.mode_id(*c, EXCITED), basis.mode_id(*c, GROUND)) for c in channels]
        )
        site_amps[mu] = np.linalg.norm(R @ psi) ** 2
    predicted = separable_peak(site_amps.reshape(spec.L, spec.L), kappa_in, kappa_out)
    return abs(exact - predicted)


def classical_sequence_sigma_z(
    state: np.ndarray,
    basis: FockBasis,
    spec: LatticeSpec,
    rotation_in: float,
    rotation_out: float,
    kappa: tuple[int, int],
    dt: float,
) -> float:
    """<Sigma^z> after pulse, tunneling evolution for dt, pulse, simulated exactly.

    Pulses are exp(-i angle Sigma^x(kappa)); tunneling runs at U = 0.
    """
    if spec.U != 0:
        raise ValueError("the classical sequence oracle requires U = 0")
    _check_excitation_free(state, basis)
    key = ("pulse", canonical_mode(kappa, spec.L))
    if key not in basis._cache:
        basis._cache[key] = Propagator(sigma_x_matrix(basis, kappa))
    pulse = basis._cache[key]
    prop = _cached_propagator(basis, spec)
    v = pulse.advance(state, rotation_in)
    v = prop.advance(v, dt)
    v = pulse.advance(v, rotation_out)
    return float(np.real(np.vdot(v, sigma_z_diagonal(basis) * v)))


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
    sz = sigma_z_diagonal(basis)
    worst = 0.0
    for _ in range(3):
        # real and imaginary parts uniform in [-1, 1]
        v = np.array([rng.uniform(-1, 1) for _ in range(2 * basis.dimension)]).view(complex)
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
    same = np.eye(spec.sites, dtype=bool)
    surviving = same[:, :, None, None] & same[None, None, :, :]  # mu = nu and rho = eta
    return max(
        float(np.abs(correlator_cases(state, basis, spec, t_absorb, t_emit)[~surviving]).max())
        for state in states
    )


def _metastable_deviation(
    basis: FockBasis, states, dist: MomentumDistribution, kappa: Mode, alpha: float
) -> float:
    """max |<Sigma^z> + n/2 - metastable_population| over the states, at angles (alpha, -alpha).

    The exact count after the reversed sequence is (sin^2 alpha / 2)(n - S),
    the formula's (alpha^2 / 2)(n - S): they part at O(alpha^4).
    """
    dts = np.array([0.0, 0.4, 0.7, 1.4, 2.0])
    amplitudes = coherent_amplitude(dist, kappa, dts, basis.spec)
    formulas = metastable_population(mean_excitations(dist, alpha), amplitudes)
    dev = 0.0
    for dt, formula in zip(dts, formulas):
        for state in states:
            exact = classical_sequence_sigma_z(state, basis, basis.spec, alpha, -alpha, kappa, dt)
            dev = max(dev, abs(exact + basis.n_particles / 2 - formula))
    return dev


def _random_bose_product(spec: LatticeSpec, rng: random.Random) -> np.ndarray:
    """Orbitals of as many bosons as sites, each on a uniformly drawn site."""
    picks = sorted(rng.choices(range(spec.sites), k=spec.sites))
    return np.eye(spec.sites)[picks].reshape(spec.sites, spec.sites, 1)


def _random_fermi_product(spec: LatticeSpec, rng: random.Random) -> np.ndarray:
    """Orbitals of one fermion per site, each with a uniformly drawn spin direction."""
    orbitals = np.zeros((spec.sites, spec.sites, 2), dtype=complex)
    for site in range(spec.sites):
        theta = rng.uniform(0, math.pi)
        chi = rng.uniform(0, 2 * math.pi)
        orbitals[site, site] = np.cos(theta / 2), np.exp(1j * chi) * np.sin(theta / 2)
    return orbitals


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

    dev = max(
        _ladder_deviation(bose, mott_state(bose), kappa),
        _ladder_deviation(fermi, neel_state(fermi), kappa),
    )
    results.append(CheckResult("dicke-ladder", dev, 1e-10))

    dev = max(
        _commutator_deviation(bose, kappa, rng),
        _commutator_deviation(fermi, kappa_diag, rng),
    )
    results.append(CheckResult("quasispin-commutator", dev, 1e-12))

    uniform_case = _momentum_case(bose, {(mode, 0): 1 for mode in mode_grid(spec)})
    bose_cases = [
        (superfluid_state(bose), superfluid(spec)),
        _momentum_case(bose, {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1}),
        uniform_case,
    ]
    dev = max(_four_point_deviation(bose, state, dist) for state, dist in bose_cases)
    results.append(CheckResult("four-point-bose", dev, 1e-10))

    fermi2 = FockBasis(spec, Statistics.FERMI, 2)
    fermi_cases = [
        (fermi, {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 0), 1): 1, (Mode(0, 1), 1): 1}),
        (fermi2, {(Mode(0, 0), 0): 1, (Mode(0, 0), 1): 1}),
    ]
    dev = max(_four_point_deviation(b, *_momentum_case(b, occ)) for b, occ in fermi_cases)
    results.append(CheckResult("four-point-fermi", dev, 1e-10))

    mott = _quench_correlator_residual(bose, mott_state(bose), mott_correlator)
    results.append(CheckResult("mott-correlator", float(np.abs(mott).max()), 1e-10))
    neel = _quench_correlator_residual(fermi, neel_state(fermi), neel_correlator)
    # the published closed form drops the checkerboard term at k - q = (L/2, L/2)
    half = mode_grid(spec).index(Mode(spec.L // 2, spec.L // 2))
    sublattice = _mode_difference(spec) == half  # over (k, q)
    results.append(CheckResult("neel-correlator", float(np.abs(neel[~sublattice]).max()), 1e-10))
    results.append(
        CheckResult("neel-sublattice-gap", float(np.abs(neel[sublattice] + 0.5).max()), 1e-10)
    )

    dts = np.linspace(0.0, 8.0, 9)
    dev = 0.0
    for kap in (kappa, kappa_diag):
        curve = exact_peak_curve(superfluid_state(bose), kap, kap, dts, bose, spec)
        dev = max(dev, float(np.abs(curve - 1.0).max()))
    results.append(CheckResult("superfluid-peak", dev, 1e-8))

    dev = 0.0
    for kap in (kappa, kappa_diag):
        curve = exact_peak_curve(mott_state(bose), kap, kap, dts, bose, spec)
        target = peak_curve(uniform(spec), kap, dts, spec)
        dev = max(dev, float(np.abs(curve - target).max()))
    results.append(CheckResult("quench-dephasing-bose", dev, 1e-8))

    dts_f = np.array([0.0, 0.9, 2.3])
    curve = exact_peak_curve(neel_state(fermi), kappa, kappa, dts_f, fermi, spec)
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

    dev = separable_deviation(_mott_orbitals(spec), kappa, kappa, 1.3, spec_sep, Statistics.BOSE)
    results.append(CheckResult("separable-amplitude-frozen", dev, 1e-12))

    spec_u = LatticeSpec(L=2, J=1.0, U=100.0)
    dev = separable_deviation(_mott_orbitals(spec), kappa, kappa, 1.0, spec_u, Statistics.BOSE)
    results.append(CheckResult("separable-amplitude-residual", dev, 0.1))

    dev = 0.0
    classical_cases = [
        (superfluid_state(bose), superfluid(spec)),
        uniform_case,
        (mott_state(bose), uniform(spec)),
    ]
    dts_c = np.array([0.0, 0.7, 1.4])
    amplitudes = [coherent_amplitude(dist, kappa_diag, dts_c, spec) for _, dist in classical_cases]
    for angles in ((0.2, -0.2), (0.3, 0.5)):
        for i, dt in enumerate(dts_c):
            for (state, dist), amplitude in zip(classical_cases, amplitudes):
                exact = classical_sequence_sigma_z(state, bose, spec, *angles, kappa_diag, dt)
                formula = expected_sigma_z(dist, amplitude[i], *angles)
                dev = max(dev, abs(exact - formula))
    results.append(CheckResult("classical-sequence", dev, 1e-8))

    # uniform occupations from a momentum Fock state and from the Mott state;
    # the deviation is 0.647 alpha^4 for both
    alpha = 0.05
    uniform_states = [uniform_case[0], classical_cases[2][0]]
    dev = _metastable_deviation(bose, uniform_states, uniform(spec), kappa_diag, alpha)
    results.append(CheckResult("metastable-population", dev, 6.25e-6))  # alpha^4

    return results
