import gc
import itertools
import json
import math
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from dickeprobe.classical import expected_sigma_z
from dickeprobe.correlators import (
    bosonic_four_point,
    dicke_ladder_factor,
    fermionic_four_point,
    mott_correlator,
    neel_correlator,
)
from dickeprobe.distributions import (
    Statistics,
    superfluid,
    uniform,
)
from dickeprobe.emission import coherent_amplitude, peak_curve, separable_peak
from dickeprobe.lattice import (
    LatticeSpec,
    Mode,
    mode_grid,
    mode_sub,
    site_coordinates,
)
from dickeprobe import oracle as oracle_module
from dickeprobe.oracle import (
    FockBasis,
    Propagator,
    build_lattice_hamiltonian,
    classical_sequence_sigma_z,
    correlator_cases,
    exact_peak_curve,
    exciton_matrix,
    four_point_tensor,
    momentum_fock_state,
    mott_state,
    neel_state,
    orbital_state,
    separable_deviation,
    verification_suite,
    _Operator,
    _creation,
    _excitations,
    _metastable_deviation,
    _momentum_case,
    _one_body,
    _random_bose_product,
    _random_fermi_product,
    _reached_rows,
    _sector_labels,
    _sum,
)
from lattice_reference import mode_energy

# the four bosons of the 2 x 2 basis condensed at k = 0
_CONDENSATE = {(Mode(0, 0), 0): 4}


def _pair(basis, create_id, annihilate_id):
    """a+_{create} a_{annihilate}: the one-body operator of a one-hot matrix."""
    h = np.zeros((basis.n_modes, basis.n_modes))
    h[create_id, annihilate_id] = 1.0
    return _one_body(basis, h)


def _sigma_x(basis, kappa):
    """Sigma^x(kappa) = (Sigma^+ + Sigma^-) / 2, the generator of the classical pulses."""
    plus = exciton_matrix(basis, kappa)
    return _sum((basis.dimension,) * 2, [(0.5, plus), (0.5, plus.getH())])


class TestBasis:
    def test_dimensions(self, spec2, bose_basis, fermi_basis):
        assert bose_basis.dimension == math.comb(4 + 8 - 1, 4) == 330
        assert fermi_basis.dimension == math.comb(16, 4) == 1820
        assert FockBasis(spec2, Statistics.BOSE, 1).dimension == 8

    def test_states_unique_and_complete(self, bose_basis):
        assert len(np.unique(bose_basis.occupations, axis=0)) == bose_basis.dimension
        assert np.all(bose_basis.occupations.sum(axis=1) == 4)

    def test_rows_descend_lexicographically(self, bose_basis, fermi_basis):
        # the documented canonical order, the same for both statistics: the
        # itertools order of each state's sorted atom modes
        for basis in (bose_basis, fermi_basis):
            rows = _states(basis)
            assert rows == sorted(rows, reverse=True)
            choose = (
                itertools.combinations
                if basis.fermionic
                else itertools.combinations_with_replacement
            )
            atoms = [tuple(np.repeat(np.arange(basis.n_modes), occ)) for occ in basis.occupations]
            assert atoms == list(choose(range(basis.n_modes), basis.n_particles))

    def test_fermionic_occupancy_binary(self, fermi_basis):
        assert set(np.unique(fermi_basis.occupations)) <= {0, 1}

    def test_boson_dimension_cap(self, spec2):
        with pytest.raises(ValueError, match="exceeds cap"):
            FockBasis(spec2, Statistics.BOSE, 23)  # C(30, 7) > 1e6

    def test_fermi_particle_cap(self, spec2):
        with pytest.raises(ValueError, match="caps particles"):
            FockBasis(spec2, Statistics.FERMI, 9)  # > 2 * sites

    @pytest.mark.parametrize("n_particles", [2.5, 2.0, -1], ids=["fraction", "float", "negative"])
    def test_rejects_atom_count_that_is_not_a_nonnegative_integer(self, spec2, n_particles):
        # momentum_fock_state's numbers.Integral rule: a ValueError, not math.comb's TypeError
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            FockBasis(spec2, Statistics.BOSE, n_particles)
        assert FockBasis(spec2, Statistics.BOSE, np.int64(1)).dimension == 8

    def test_large_lattice_rejected(self, monkeypatch):
        # 8 fermions on 4 x 4: C(64, 8) ~ 4.4e9 states, refused before any is listed
        def enumerate_nothing(*args):
            raise AssertionError("the basis was enumerated before the size check")

        monkeypatch.setattr(oracle_module, "combinations", enumerate_nothing)
        monkeypatch.setattr(oracle_module, "combinations_with_replacement", enumerate_nothing)
        with pytest.raises(ValueError, match="dimension"):
            FockBasis(LatticeSpec(L=4), Statistics.FERMI, 8)

    @pytest.mark.parametrize(
        "L, statistics, n_particles",
        [(2, s, n) for s in (Statistics.BOSE, Statistics.FERMI) for n in (0, 1, 2, 4)]
        + [(4, Statistics.BOSE, 4), (4, Statistics.FERMI, 2)],
    )
    def test_rank_of_each_row_is_the_row(self, L, statistics, n_particles):
        basis = FockBasis(LatticeSpec(L=L), statistics, n_particles)
        modes = np.arange(basis.n_modes)
        # each row's atoms read back from its occupations, mode by mode
        atoms = np.repeat(np.tile(modes, basis.dimension), basis.occupations.ravel())
        atoms = atoms.reshape(basis.dimension, n_particles)
        assert np.array_equal(basis._rank(atoms), np.arange(basis.dimension))


class TestHamiltonian:
    def test_hermitian(self, bose_basis, fermi_basis, spec2):
        for basis in (bose_basis, fermi_basis):
            H = build_lattice_hamiltonian(basis, spec2).toarray()
            assert np.abs(H - H.conj().T).max() < 1e-14

    def test_free_hamiltonian_is_zero(self, bose_basis):
        spec = LatticeSpec(L=2, J=0.0, U=0.0)
        H = build_lattice_hamiltonian(bose_basis, spec)
        assert np.abs(H.toarray()).max() == 0.0

    def test_mott_is_interaction_eigenstate(self, bose_basis):
        # unit filling: n(n-1) = 0 on every site
        spec = LatticeSpec(L=2, J=0.0, U=50.0)
        H = build_lattice_hamiltonian(bose_basis, spec)
        assert np.linalg.norm(H @ mott_state(bose_basis)) < 1e-12

    def test_frozen_hamiltonian_is_diagonal(self, fermi_basis):
        # J = 0 keeps every state its own 1 x 1 sector
        H = build_lattice_hamiltonian(fermi_basis, LatticeSpec(L=2, J=0.0, U=0.8))
        assert np.array_equal(H.row, H.col)
        assert np.array_equal(_sector_labels(H), np.arange(fermi_basis.dimension))

    def test_pieces_built_once_per_basis(self, spec2):
        # H(J, U) = (-J/Z) hop + U D from the hopping and on-site pieces of the first call
        basis = FockBasis(spec2, Statistics.BOSE, 4)
        hopping = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=1.0, U=0.0)).toarray()
        onsite = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=0.0, U=1.0)).toarray()
        pieces = basis._cache["hopping"], basis._cache["onsite"]
        H = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=0.5, U=3.0)).toarray()
        assert basis._cache["hopping"] is pieces[0] and basis._cache["onsite"] is pieces[1]
        assert np.abs(H - (0.5 * hopping + 3.0 * onsite)).max() < 1e-14

    def test_zero_coefficient_terms_are_not_built(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 2)
        free = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=0.0, U=0.0))
        assert len(free.data) == 0 and "hopping" not in basis._cache
        assert "onsite" not in basis._cache
        build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=1.0, U=0.0))
        assert "hopping" in basis._cache and "onsite" not in basis._cache

    def test_single_particle_dispersion(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 1)
        H = build_lattice_hamiltonian(basis, spec2).toarray()
        got = sorted(np.linalg.eigvalsh(H))
        expected = sorted(
            mode_energy(k, spec2) for k in mode_grid(spec2) for _ in range(2)
        )  # doubled for the two levels
        assert np.allclose(got, expected, atol=1e-12)

    def test_conserves_excitation_count(self, bose_basis, spec2, rng):
        H = build_lattice_hamiltonian(bose_basis, spec2)
        n_ex = bose_basis.occupations[:, 1::2].sum(axis=1)
        prop = Propagator(H)
        state = exciton_matrix(bose_basis, Mode(1, 0)) @ mott_state(bose_basis)
        state = state / np.linalg.norm(state)
        for t in (0.9, 4.4):
            evolved = prop.advance(state, t)
            assert abs(np.linalg.norm(evolved) - 1.0) < 1e-10
            before = float(np.sum(n_ex * np.abs(state) ** 2))
            after = float(np.sum(n_ex * np.abs(evolved) ** 2))
            assert after == pytest.approx(before, abs=1e-10)


class TestExciton:
    def test_norm_on_ground_products(self, bose_basis, fermi_basis):
        for basis, ground in (
            (bose_basis, mott_state(bose_basis)),
            (fermi_basis, neel_state(fermi_basis)),
        ):
            v = exciton_matrix(basis, Mode(1, 1)) @ ground
            assert np.linalg.norm(v) == pytest.approx(2.0, abs=1e-12)

    def test_annihilate_on_excitation_free_state(self, bose_basis):
        v = exciton_matrix(bose_basis, Mode(1, 0)).getH() @ mott_state(bose_basis)
        assert np.linalg.norm(v) == 0.0

    def test_ground_state_sigma_z(self, bose_basis):
        mott = mott_state(bose_basis)
        sz = _excitations(bose_basis) - bose_basis.n_particles / 2
        assert float(np.real(np.vdot(mott, sz * mott))) == pytest.approx(-2.0)

    def test_commutator_identity(self, bose_basis, fermi_basis, rng):
        # [S+, S-]/2 = S^z exactly, on arbitrary vectors
        for basis in (bose_basis, fermi_basis):
            for kappa in (Mode(1, 0), Mode(1, 1)):
                plus = exciton_matrix(basis, kappa)
                minus = plus.getH()
                sz = _excitations(basis) - basis.n_particles / 2
                v = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
                v /= np.linalg.norm(v)
                lhs = 0.5 * (plus @ (minus @ v) - minus @ (plus @ v))
                assert np.linalg.norm(lhs - sz * v) < 1e-12

    def test_adjointness(self, bose_basis, fermi_basis):
        # Sigma^- term by term: sum_{mu,s} a+_gr a_ex exp(-i kappa r_mu)
        for basis in (bose_basis, fermi_basis):
            for kappa in (Mode(1, 0), Mode(1, 1)):
                x, y = site_coordinates(basis.spec).T
                phases = np.exp(-1j * np.pi * (kappa.n * x + kappa.m * y))
                # dense, accumulated in place: 53 MB for the 1820-state basis
                minus = np.zeros((basis.dimension,) * 2, dtype=complex)
                for mu in range(4):
                    for s in range(basis.n_spins):
                        term = _pair(basis, basis.mode_id(mu, s, 0), basis.mode_id(mu, s, 1))
                        minus[term.row, term.col] += phases[mu] * term.data
                plus = exciton_matrix(basis, kappa)
                minus -= plus.getH().toarray()
                assert np.abs(minus).max() < 1e-14

    def test_dicke_ladder_norms(self, bose_basis, fermi_basis):
        for basis, ground in (
            (bose_basis, mott_state(bose_basis)),
            (fermi_basis, neel_state(fermi_basis)),
        ):
            N = basis.spec.sites
            plus = exciton_matrix(basis, Mode(1, 0))
            v = ground
            expected = 1.0
            for n in range(3):
                v = plus @ v
                expected *= dicke_ladder_factor(N, n)
                assert np.linalg.norm(v) == pytest.approx(expected, rel=1e-10)


def _operators(basis):
    """One operator of each kind the oracle builds, by name."""
    return {
        "creation": _creation(basis, 3),
        "bilinear": _pair(basis, 3, 0),
        "exciton": exciton_matrix(basis, Mode(1, 1)),
        "sigma-x": _sigma_x(basis, Mode(1, 0)),
        "hamiltonian": build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=1.0, U=3.0)),
    }


class TestOperator:
    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 4), (Statistics.FERMI, 2)],
        ids=["bose-4", "fermi-2"],
    )
    def test_matmul_matches_dense(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        rng = np.random.default_rng(5)
        for name, op in _operators(basis).items():
            dense = op.toarray()
            dim = op.shape[1]
            vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            strided = (rng.normal(size=(3, dim)) + 0j).T  # a (dim, T) view, as advance gives
            for x in (vector, block, strided):
                got = op @ x
                assert got.shape == (op.shape[0],) + x.shape[1:], name
                assert np.abs(got - dense @ x).max() < 1e-12, name

    def test_matmul_of_single_entry_rows_and_of_no_entries(self, spec2):
        basis = FockBasis(spec2, Statistics.FERMI, 2)
        rng = np.random.default_rng(6)
        # a creation has one entry per row: each run sums to its one term exactly
        op = _creation(basis, 3)
        assert len(np.unique(op.row)) == len(op.row)
        block = rng.normal(size=(op.shape[1], 3)) + 1j * rng.normal(size=(op.shape[1], 3))
        expected = np.zeros((op.shape[0], 3), dtype=complex)
        expected[op.row] = op.data[:, None] * block[op.col]
        assert np.array_equal(op @ block, expected)
        # the zero operator gives zeros of the product's shape
        empty = np.zeros(0, dtype=np.intp)
        zero = _Operator(empty, empty, np.zeros(0), (5, 4))
        for x in (np.ones(4), np.ones((4, 3))):
            got = zero @ x
            assert got.shape == (5,) + x.shape[1:]
            assert not got.any()

    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 4), (Statistics.FERMI, 2)],
        ids=["bose-4", "fermi-2"],
    )
    def test_getH_is_conjugate_transpose(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        for name, op in _operators(basis).items():
            assert op.getH().shape == op.shape[::-1], name
            assert np.array_equal(op.getH().toarray(), op.toarray().conj().T), name

    def test_sum_merges_duplicates_and_drops_cancelled(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 2)
        hop, other = _pair(basis, 2, 0), _pair(basis, 4, 0)
        # the (2, 0) triplets repeat and add up; the (4, 0) ones cancel exactly
        parts = [(0.5, hop), (0.25, hop), (1.0, other), (-1.0, other)]
        total = _sum((basis.dimension,) * 2, parts)
        pairs = total.row * basis.dimension + total.col
        assert len(np.unique(pairs)) == len(pairs) == len(hop.data)
        assert np.all(total.data != 0)
        assert np.array_equal(total.toarray(), 0.75 * hop.toarray())

    def test_sum_drops_exact_complex_cancellations(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 2)
        shape = (basis.dimension,) * 2
        a, b = _pair(basis, 2, 0), _pair(basis, 4, 0)
        # a cancels in its real and imaginary parts; b keeps both
        total = _sum(shape, [(1j, a), (0.5, b), (-1j, a), (0.5j, b)])
        assert len(total.data) == len(b.data)
        assert np.array_equal(total.toarray(), (0.5 + 0.5j) * b.toarray())
        # a cancelled real part alone drops nothing
        total = _sum(shape, [(1 + 1j, a), (-1.0, a)])
        assert len(total.data) == len(a.data)
        assert np.array_equal(total.toarray(), 1j * a.toarray())

    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 4), (Statistics.FERMI, 2)],
        ids=["bose-4", "fermi-2"],
    )
    def test_summed_matmul_matches_loop_reference(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        rng = np.random.default_rng(13)
        H = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=1.0, U=3.0))
        shuffle = rng.permutation(len(H.row))
        summed = {
            "sigma-x": _sigma_x(basis, Mode(1, 0)),
            # an adjoint of a sum: its rows come from the sum's columns, unsorted
            "sigma-minus": exciton_matrix(basis, Mode(1, 1)).getH(),
            "hamiltonian": H,
            "shuffled": _Operator(H.row[shuffle], H.col[shuffle], H.data[shuffle], H.shape),
        }
        dim = basis.dimension
        vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        strided = (rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))).T
        for name, op in summed.items():
            row, col, data = op.row, op.col, op.data
            assert len(set(row.tolist())) < len(row), name  # rows repeat
            assert np.all(np.diff(row) >= 0), name  # kept sorted by row
            for x in (vector, strided):
                reference = np.zeros((dim,) + x.shape[1:], dtype=complex)
                for r, c, value in zip(row, col, data):
                    reference[r] += value * x[c]
                assert np.abs(op @ x - reference).max() < 1e-13, name

    def test_propagator_rejects_asymmetric_pair(self):
        op = _Operator(np.array([0, 1, 2]), np.array([1, 0, 2]), np.array([1.0, 2.0, 1.0]), (3, 3))
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(op)

    def test_propagator_rejects_entry_without_mirror(self):
        op = _Operator(np.array([0, 2]), np.array([1, 2]), np.array([1.0, 1.0]), (3, 3))
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(op)

    def test_propagator_rejects_imaginary_diagonal(self):
        # state 1 is a 1 x 1 sector; its entry must be real
        op = _Operator(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 0.5j]), (2, 2))
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(op)

    @pytest.mark.parametrize("gap, hermitian", [(0.9e-12, True), (1.1e-12, False)])
    def test_propagator_hermitian_tolerance(self, gap, hermitian):
        # the largest entry is 1, so the pair may differ by 1e-12
        op = _Operator(np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0 - gap]), (2, 2))
        if hermitian:
            Propagator(op)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                Propagator(op)

    def test_propagator_accepts_triplets_out_of_row_major_order(self):
        # row 0 lists column 1 before column 0
        op = _Operator(np.array([0, 0, 1]), np.array([1, 0, 0]), np.array([2j, 1.0, -2j]), (2, 2))
        v = np.array([1.0, 0.0])
        dense = np.array([[1.0, 2j], [-2j, 0.0]])
        energies, vectors = np.linalg.eigh(dense)
        expected = vectors @ (np.exp(-0.7j * energies) * (vectors.conj().T @ v))
        assert np.abs(Propagator(op).advance(v, 0.7) - expected).max() < 1e-13

    def test_hermitian_check_holds_no_second_copy(self, spec2, fermi_basis):
        build_lattice_hamiltonian(fermi_basis, spec2)  # the hopping sum is built once, here
        peak, _ = _traced(lambda: Propagator(build_lattice_hamiltonian(fermi_basis, spec2)))
        # measured 1.09 MB, most of it building H's 11,648 entries; a check that
        # builds H^H and merges H - H^H peaks at 2.0 MB
        assert peak <= 1.4 * 2**20

    def test_propagator_rejects_non_square(self):
        op = _Operator(np.array([0, 1]), np.array([0, 2]), np.array([1.0, 1.0]), (2, 3))
        with pytest.raises(ValueError, match="not square"):
            Propagator(op)


# (J, U) of the lattice Hamiltonian, or None for Sigma^x(1, 1)
_OPERATORS = {"hopping": (1.0, 0.0), "hubbard": (1.0, 3.0), "frozen": (0.0, 0.8), "sigma-x": None}


class TestEvolve:
    def test_zero_time_is_identity(self, bose_basis, spec2, rng):
        H = build_lattice_hamiltonian(bose_basis, spec2)
        v = rng.normal(size=bose_basis.dimension) + 0j
        v /= np.linalg.norm(v)
        assert np.allclose(Propagator(H).advance(v, 0.0), v, atol=1e-12)

    def test_zero_hamiltonian_is_identity(self, bose_basis, rng):
        empty = np.zeros(0, dtype=np.intp)
        H = _Operator(empty, empty, np.zeros(0), (bose_basis.dimension,) * 2)
        v = rng.normal(size=bose_basis.dimension) + 0j
        assert np.allclose(Propagator(H).advance(v, 3.3), v, atol=1e-12)

    def test_momentum_eigenstate_phase(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 1)
        prop = Propagator(build_lattice_hamiltonian(basis, spec2))
        for k in mode_grid(spec2):
            v = momentum_fock_state(basis, {(k, 0): 1})
            evolved = prop.advance(v, 0.8)
            expected = np.exp(-1j * mode_energy(k, spec2) * 0.8) * v
            assert np.allclose(evolved, expected, atol=1e-12)

    def test_rejects_non_hermitian(self, rng):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rows, cols = np.nonzero(M)
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(_Operator(rows, cols, M[rows, cols], M.shape))

    def test_rejects_sparse_non_hermitian(self):
        import scipy.sparse as sparse

        M = sparse.random(6, 6, density=0.5, random_state=3, format="csr")
        M = (M + sparse.identity(6, format="csr")).tocoo()
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(_Operator(M.row, M.col, M.data, M.shape))

    @pytest.mark.parametrize(
        "statistics, n_particles, operator",
        [
            (statistics, n_particles, operator)
            for statistics, n_particles in ((Statistics.BOSE, 4), (Statistics.FERMI, 2))
            for operator in _OPERATORS
        ]
        # one dense 1820 x 1820 reference: the largest basis the suite evolves
        + [(Statistics.FERMI, 4, "hopping")],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_matches_dense_reference(self, statistics, n_particles, operator):
        basis = FockBasis(LatticeSpec(L=2), statistics, n_particles)
        if operator == "sigma-x":
            H = _sigma_x(basis, Mode(1, 1))
        else:
            J, U = _OPERATORS[operator]
            H = build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=J, U=U))
        rng = np.random.default_rng(11)
        v = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        v /= np.linalg.norm(v)
        times = np.array([0.0, 0.35, 1.7, 6.2])
        # the full-basis eigendecomposition the sector propagator replaces
        energies, vectors = np.linalg.eigh(H.toarray())
        dense = (np.exp(-1j * np.outer(times, energies)) * (vectors.conj().T @ v)) @ vectors.T
        assert np.abs(Propagator(H).advance(v, times) - dense).max() < 1e-12

    def test_sector_labels_on_fermion_basis(self, spec2, fermi_basis):
        # hopping conserves the count of each (spin, level): 35 ways to place 4 fermions
        _, sizes = np.unique(
            _sector_labels(build_lattice_hamiltonian(fermi_basis, spec2)), return_counts=True
        )
        assert len(sizes) == 35 and sizes.max() == 256 and sizes.sum() == 1820
        # Sigma^x conserves each site's occupation: at most four singly held (site, spin)
        _, sizes = np.unique(
            _sector_labels(_sigma_x(fermi_basis, Mode(1, 1))), return_counts=True
        )
        assert len(sizes) == 266 and sizes.max() == 16 and sizes.sum() == 1820

    @pytest.mark.parametrize(
        "spec",
        [LatticeSpec(L=2, J=0.0, U=0.8), LatticeSpec(L=2, J=1.0, U=0.0)],
        ids=["diagonal", "eigh"],
    )
    def test_grid_rows_match_scalar_calls(self, bose_basis, spec):
        rng = np.random.default_rng(7)
        prop = Propagator(build_lattice_hamiltonian(bose_basis, spec))
        v = rng.normal(size=bose_basis.dimension) + 1j * rng.normal(size=bose_basis.dimension)
        v /= np.linalg.norm(v)
        times = np.array([0.0, 0.35, 1.7, 6.2])
        grid = prop.advance(v, times)
        assert grid.shape == (len(times), bose_basis.dimension)
        for t, row in zip(times, grid):
            single = prop.advance(v, t)
            assert single.shape == (bose_basis.dimension,)
            assert np.abs(row - single).max() < 1e-12
        assert np.abs(grid[0] - v).max() < 1e-12


def _level_counts(basis):
    """Atoms per (spin, level) in each basis state, shape (dim, spins, 2)."""
    return basis.occupations.reshape(basis.dimension, basis.spec.sites, -1, 2).sum(axis=1)


class TestLazySectors:
    """Propagator diagonalizes a sector only when a state first reaches it."""

    @staticmethod
    def _record_eigh(monkeypatch):
        """The size of every block np.linalg.eigh is handed from now on."""
        sizes = []
        eigh = np.linalg.eigh

        def recording(blocks):
            sizes.extend([blocks.shape[-1]] * len(blocks))
            return eigh(blocks)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return sizes

    def test_only_touched_sectors_are_diagonalized(self, monkeypatch, spec2, fermi_basis):
        sizes = self._record_eigh(monkeypatch)
        prop = Propagator(build_lattice_hamiltonian(fermi_basis, spec2))
        assert sizes == []
        neel = neel_state(fermi_basis)
        excited = exciton_matrix(fermi_basis, Mode(1, 0)) @ neel
        times = np.array([0.0, 1.3])
        evolved = prop.advance(neel, times)
        prop.advance(excited, times)
        # hopping conserves the atoms per (spin, level): Neel sits at (2, 0, 2, 0)
        # (36 states), its image at (1, 1, 2, 0) and (2, 0, 1, 1) (96 each)
        assert sorted(sizes) == [36, 96, 96]
        assert 256 not in sizes  # the (1, 1, 1, 1) sector
        prop.advance(excited, 0.4)
        assert len(sizes) == 3  # no sector is diagonalized twice
        outside = np.any(_level_counts(fermi_basis).reshape(-1, 4) != [2, 0, 2, 0], axis=1)
        assert np.all(evolved[:, outside] == 0)

    def test_hermitian_check_covers_untouched_sectors(self, spec2, fermi_basis):
        H = build_lattice_hamiltonian(fermi_basis, spec2)
        far = np.all(_level_counts(fermi_basis) == 1, axis=(1, 2))  # the 256-state sector
        entry = np.flatnonzero(far[H.row] & (H.row != H.col))[0]
        data = H.data.copy()
        data[entry] += 0.5
        Propagator(_Operator(H.row, H.col, H.data, H.shape))
        with pytest.raises(ValueError, match="not Hermitian"):
            Propagator(_Operator(H.row, H.col, data, H.shape))

    def test_late_sectors_match_a_fresh_propagator(self, spec2, fermi_basis):
        H = build_lattice_hamiltonian(fermi_basis, spec2)
        neel = neel_state(fermi_basis)
        times = np.array([0.0, 0.6, 2.9])
        warm = Propagator(H)
        warm.advance(neel, times)
        warm.advance(exciton_matrix(fermi_basis, Mode(1, 0)) @ neel, times)
        rng = np.random.default_rng(17)
        v = rng.normal(size=fermi_basis.dimension) + 1j * rng.normal(size=fermi_basis.dimension)
        v /= np.linalg.norm(v)
        # v reaches every sector: three known to `warm` already, the rest new
        assert np.abs(warm.advance(v, times) - Propagator(H).advance(v, times)).max() < 1e-13



class TestBlockEvolution:
    """advance on a (dim, k) block evolves each column as advance on it alone."""

    @pytest.mark.parametrize("t", [0.8, np.array([0.0, 0.35, 1.7, 6.2])], ids=["scalar", "grid"])
    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_matches_column_by_column(self, bose_basis, fermi_basis, statistics, t):
        basis = bose_basis if statistics is Statistics.BOSE else fermi_basis
        prop = Propagator(build_lattice_hamiltonian(basis, LatticeSpec(L=2, J=1.0, U=3.0)))
        rng = np.random.default_rng(23)
        block = rng.normal(size=(basis.dimension, 3)) + 1j * rng.normal(size=(basis.dimension, 3))
        block[:, 1] = 0.0
        evolved = prop.advance(block, t)
        assert evolved.shape == np.shape(t) + block.shape
        for column in range(3):
            single = prop.advance(block[:, column], t)
            assert np.abs(evolved[..., column] - single).max() < 1e-13
        assert np.all(evolved[..., 1] == 0)

    def test_each_sector_is_diagonalized_once(self, monkeypatch, spec2, fermi_basis):
        sizes = TestLazySectors._record_eigh(monkeypatch)
        prop = Propagator(build_lattice_hamiltonian(fermi_basis, spec2))
        neel = neel_state(fermi_basis)
        excited = exciton_matrix(fermi_basis, Mode(1, 0)) @ neel
        block = np.stack([neel, excited, np.zeros_like(neel)], axis=1)
        times = np.array([0.0, 1.3])
        evolved = prop.advance(block, times)
        # Neel's (2, 0, 2, 0) sector and its image's two, as in TestLazySectors
        assert sorted(sizes) == [36, 96, 96]
        for column in range(3):
            single = prop.advance(block[:, column], times)
            assert np.abs(evolved[..., column] - single).max() < 1e-13
        assert len(sizes) == 3

    @pytest.mark.parametrize(
        "shape", [(), (329,), (331,), (329, 2), (330, 2, 1)],
        ids=["scalar", "short", "long", "short-block", "three-axes"],
    )
    def test_rejects_state_of_wrong_shape(self, spec2, bose_basis, shape):
        prop = Propagator(build_lattice_hamiltonian(bose_basis, spec2))
        with pytest.raises(ValueError, match=r"need \(330,\) or \(330, k\)"):
            prop.advance(np.ones(shape, dtype=complex), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_state(self, spec2, bose_basis, bad):
        prop = Propagator(build_lattice_hamiltonian(bose_basis, spec2))
        state = mott_state(bose_basis)
        state[7] = bad
        for x in (state, np.stack([mott_state(bose_basis), state], axis=1)):
            with pytest.raises(ValueError, match="state must be finite"):
                prop.advance(x, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.0, -math.inf])])
    def test_rejects_non_finite_time(self, spec2, bose_basis, t):
        prop = Propagator(build_lattice_hamiltonian(bose_basis, spec2))
        block = np.stack([mott_state(bose_basis)] * 3, axis=1)
        with pytest.raises(ValueError, match="finite"):
            prop.advance(block, t)


def _traced(call) -> tuple[int, int]:
    """Bytes tracemalloc sees `call()` hold at its peak and leave held, beyond what was held before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestPropagatorCache:
    def test_a_U_scan_holds_one_propagator(self, spec2):
        basis = FockBasis(spec2, Statistics.FERMI, 4)
        neel = neel_state(basis)
        dts = np.linspace(0.0, 8.0, 9)

        def scan(values):
            for U in values:
                spec = LatticeSpec(L=2, J=1.0, U=float(U))
                exact_peak_curve(neel, Mode(1, 0), Mode(1, 0), dts, basis, spec)

        scan([9.0])  # creations, Sigma^+ and both Hamiltonian terms are built here
        _, one = _traced(lambda: scan([0.5]))
        _, eight = _traced(lambda: scan(0.5 * np.arange(1, 9)))
        # measured: one U leaves 0.65 MB (its propagator), eight leave 0.66 MB;
        # a propagator kept per U would leave 5.2 MB
        assert eight <= one + 0.25 * 2**20


class TestReachedRows:
    """W and the lowered vectors are held only on the rows a state's images reach."""

    def test_neel_reaches_its_excitation_free_rows(self, fermi_basis):
        rows = _reached_rows(neel_state(fermi_basis), fermi_basis)
        assert len(rows) == 70  # 4 fermions on the 8 ground-level modes
        assert np.all(fermi_basis.occupations[rows, 1::2] == 0)

    def test_neel_per_spin_rows_keep_its_spin_composition(self, fermi_basis):
        rows = _reached_rows(neel_state(fermi_basis), fermi_basis, per_spin=True)
        assert len(rows) == 36  # 2 up and 2 down fermions, each on 4 ground-level modes
        # mode_id = (site * 2 + spin) * 2 + level: spin s ground is column 2 s of each site's 4
        per_site = fermi_basis.occupations[rows].reshape(len(rows), 4, 4)
        assert np.all(per_site[:, :, [0, 2]].sum(axis=1) == 2)
        assert np.all(per_site[:, :, [1, 3]] == 0)

    def test_full_rows_give_the_same_arrays(self, monkeypatch, bose_basis, fermi_basis):
        spec = LatticeSpec(L=2, J=1.0, U=0.8)
        momentum = {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1}
        product = _random_fermi_product(spec, random.Random(8))
        raised = exciton_matrix(fermi_basis, Mode(1, 0)) @ neel_state(fermi_basis)
        cases = [
            ("neel", fermi_basis, neel_state(fermi_basis)),
            # one excitation on either spin: rows of two per-spin compositions
            ("neel-raised", fermi_basis, raised / np.linalg.norm(raised)),
            ("mott", bose_basis, mott_state(bose_basis)),
            ("momentum", bose_basis, momentum_fock_state(bose_basis, momentum)),
            ("fermi-product", fermi_basis, orbital_state(fermi_basis, product)),
        ]
        reached = {
            name: (four_point_tensor(state, basis), correlator_cases(state, basis, spec, 0.4, 1.1))
            for name, basis, state in cases
        }
        # the reference: every row of the basis, the full-dimension W and lowered vectors
        monkeypatch.setattr(
            oracle_module,
            "_reached_rows",
            lambda state, basis, per_spin=False: np.arange(basis.dimension),
        )
        for name, basis, state in cases:
            tensor, values = reached[name]
            assert np.abs(tensor - four_point_tensor(state, basis)).max() < 1e-14, name
            full = correlator_cases(state, basis, spec, 0.4, 1.1)
            assert np.abs(values - full).max() < 1e-14, name

    def test_peak_memory_of_the_neel_gram_matrices(self, fermi_basis):
        neel = neel_state(fermi_basis)
        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        calls = {
            # W on all 1820 rows alone is 0.9 MB
            "four_point_tensor": (lambda: four_point_tensor(neel, fermi_basis), 0.5),
            "correlator_cases": (
                lambda: correlator_cases(neel, fermi_basis, spec, 0.4, 1.1),
                1.2,
            ),
        }
        for name, (call, bound_mb) in calls.items():
            call()  # creations, the propagator and its sectors are built once, here
            assert _traced(call)[0] <= bound_mb * 2**20, name


class TestMomentumStates:
    def test_superfluid_occupations(self, bose_basis):
        sf = momentum_fock_state(bose_basis, _CONDENSATE)
        grid = mode_grid(bose_basis.spec)
        exact = four_point_tensor(sf, bose_basis)
        zero = grid.index(Mode(0, 0))
        for i, k in enumerate(grid):
            n_k = exact[i, i, zero, zero, 0, 0]
            target = 4.0 * 4.0 if k == Mode(0, 0) else 0.0  # <n_k^2> on the condensate
            assert n_k == pytest.approx(target, abs=1e-10)

    def test_fermi_state_occupations(self, fermi_basis):
        state = momentum_fock_state(
            fermi_basis,
            {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 0), 1): 1, (Mode(0, 1), 1): 1},
        )
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_blocked_state_rejected(self, fermi_basis):
        with pytest.raises(ValueError):
            momentum_fock_state(fermi_basis, {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 2})

    def test_wrong_total_rejected(self, bose_basis):
        with pytest.raises(ValueError):
            momentum_fock_state(bose_basis, {(Mode(0, 0), 0): 3})

    @pytest.mark.parametrize(
        "occupations, match",
        [
            # the negative count would cancel one atom of the other mode
            ({(Mode(0, 0), 0): 2, (Mode(1, 0), 0): -1}, "count"),
            # a 1.5 would be truncated to one atom
            ({(Mode(0, 0), 0): 1.5}, "count"),
            # -1 would index other sites' modes, 1 past the bosons' one spin
            ({(Mode(0, 0), -1): 1}, "spin"),
            ({(Mode(0, 0), 1): 1}, "spin"),
        ],
        ids=["negative-count", "fractional-count", "negative-spin", "spin-past-bosons"],
    )
    def test_rejects_malformed_occupations(self, spec2, occupations, match):
        basis = FockBasis(spec2, Statistics.BOSE, 1)
        with pytest.raises(ValueError, match=match):
            momentum_fock_state(basis, occupations)

    @pytest.mark.parametrize(
        "statistics, last_spin, expected",
        [
            (Statistics.BOSE, 0, [[[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]]),
            (
                Statistics.FERMI,
                1,
                [
                    [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
                    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
                ],
            ),
        ],
        ids=["bose", "fermi"],
    )
    def test_momentum_case_fills_the_grid_by_mode_index(self, statistics, last_spin, expected):
        # at L = 4 the grid runs n = -1, 0, 1, 2, so (1, -1) sits at [2, 0], and
        # (-2, 1) wraps to (2, 1) at [3, 2]: the grid index is not n
        spec = LatticeSpec(L=4, J=1.0, U=0.0)
        basis = FockBasis(spec, statistics, 2)
        atoms = {(Mode(1, -1), 0): 1, (Mode(-2, 1), last_spin): 1}
        state, dist = _momentum_case(basis, atoms)
        assert np.array_equal(dist.occupations, np.array(expected, dtype=float))
        assert dist.statistics is statistics
        assert dist.total_target == 2.0
        assert np.array_equal(state, momentum_fock_state(basis, atoms))


def _grid_queries(spec, ndim):
    """k, q, kin, kout over mode_grid on the first four of ndim axes, in four_point_tensor order."""
    grid = np.array(mode_grid(spec))
    axes = np.ix_(*[range(len(grid))] * 4, *[[0]] * (ndim - 4))
    return [Mode(grid[i, 0], grid[i, 1]) for i in axes[:4]]


class TestFourPointEquivalence:
    def test_bosonic_formula_matches_oracle(self, spec2, bose_basis):
        cases = [
            (momentum_fock_state(bose_basis, _CONDENSATE), superfluid(spec2)),
            _momentum_case(
                bose_basis, {(Mode(0, 0), 0): 2, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1}
            ),
        ]
        for state, dist in cases:
            exact = four_point_tensor(state, bose_basis)
            assert np.abs(exact.imag).max() < 1e-10
            formula = bosonic_four_point(dist, *_grid_queries(spec2, 6))
            worst = np.abs(exact - formula).max()
            assert worst < 1e-10

    def test_fermionic_formula_matches_oracle(self, spec2, fermi_basis):
        state, dist = _momentum_case(
            fermi_basis,
            {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 0), 1): 1, (Mode(0, 1), 1): 1},
        )
        exact = four_point_tensor(state, fermi_basis)
        spins = np.arange(2)
        formula = fermionic_four_point(dist, *_grid_queries(spec2, 6), spins[:, None], spins)
        worst = np.abs(exact - formula).max()
        assert worst < 1e-10

    def test_mott_correlator_matches_oracle(self, spec2, bose_basis):
        exact = four_point_tensor(mott_state(bose_basis), bose_basis)
        worst = np.abs(exact - mott_correlator(spec2, *_grid_queries(spec2, 6))).max()
        assert worst < 1e-10

    def test_neel_correlator_matches_oracle(self, spec2, fermi_basis):
        # skip k - q = (L/2, L/2), where the published closed form drops the
        # checkerboard sub-lattice term
        spin_summed = four_point_tensor(neel_state(fermi_basis), fermi_basis).sum(axis=(4, 5))
        queries = _grid_queries(spec2, 4)
        k_minus_q = mode_sub(queries[0], queries[1], 2)
        gap = np.broadcast_to((k_minus_q.n == 1) & (k_minus_q.m == 1), spin_summed.shape)
        formula = neel_correlator(spec2, *queries)
        worst = np.abs(spin_summed - formula)[~gap].max()
        assert worst < 1e-10

    def test_neel_subLattice_term_documented_gap(self, spec2, fermi_basis):
        # at k - q = (pi/ell, pi/ell) the exact spin-summed value sits 1/2
        # below the closed form: the dropped checkerboard contribution
        neel = neel_state(fermi_basis)
        k, q = Mode(1, 1), Mode(0, 0)
        kin = kout = Mode(1, 0)
        grid = mode_grid(spec2)
        indices = tuple(grid.index(mode) for mode in (k, q, kin, kout))
        exact = four_point_tensor(neel, fermi_basis)[indices].sum()
        formula = neel_correlator(spec2, k, q, kin, kout)
        assert exact.real == pytest.approx(formula - 0.5, abs=1e-12)

    @pytest.mark.parametrize(
        ("state", "message"),
        [
            (np.full(330, np.nan), "state must be finite"),
            (np.ones(5), r"need \(330,\)$"),
            (np.ones((330, 2)), r"need \(330,\)$"),  # one vector, not a block
        ],
        ids=["nan", "wrong-length", "block"],
    )
    def test_rejects_a_bad_state(self, bose_basis, state, message):
        with pytest.raises(ValueError, match=message):
            four_point_tensor(state, bose_basis)


def _observables_at(spec, basis, state):
    """Each exact observable on `basis` and `state`, called with `spec`."""
    kappa, dts = Mode(1, 0), np.array([0.0, 0.7])
    return {
        "exact_peak_curve": lambda: exact_peak_curve(state, kappa, kappa, dts, basis, spec),
        "correlator_cases": lambda: correlator_cases(state, basis, spec, 0.4, 1.1),
        "separable_deviation": lambda: separable_deviation(state, kappa, kappa, 0.7, basis, spec),
        # kappa = (3, 0) is (1, 0) at L = 2 and (-1, 0) at L = 4
        "classical_sequence_sigma_z": lambda: classical_sequence_sigma_z(
            state, basis, spec, 0.3, -0.3, Mode(3, 0), dts
        ),
    }


class TestOneLattice:
    """An oracle call computes on its basis's lattice: its spec supplies J and U alone."""

    @pytest.mark.parametrize(
        "name",
        ["exact_peak_curve", "correlator_cases", "separable_deviation", "classical_sequence_sigma_z"],
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_spec_of_another_L_raises(self, name, warm):
        # a fresh basis: its cache holds only what this test puts there
        basis = FockBasis(LatticeSpec(L=2), Statistics.BOSE, 4)
        state = mott_state(basis)
        if warm:
            _observables_at(basis.spec, basis, state)[name]()
        with pytest.raises(ValueError, match="does not match"):
            _observables_at(LatticeSpec(L=4), basis, state)[name]()


def _create(occ, mode, fermionic):
    """Reference a+ on one occupation tuple: (new occupation, amplitude), or None."""
    n = occ[mode]
    if fermionic:
        if n:
            return None
        sign = -1.0 if sum(occ[:mode]) % 2 else 1.0
        return occ[:mode] + (1,) + occ[mode + 1 :], sign
    return occ[:mode] + (n + 1,) + occ[mode + 1 :], math.sqrt(n + 1)


def _annihilate(occ, mode, fermionic):
    """Reference a on one occupation tuple: (new occupation, amplitude), or None."""
    n = occ[mode]
    if n == 0:
        return None
    if fermionic:
        sign = -1.0 if sum(occ[:mode]) % 2 else 1.0
        return occ[:mode] + (0,) + occ[mode + 1 :], sign
    return occ[:mode] + (n - 1,) + occ[mode + 1 :], math.sqrt(n)


def _states(basis):
    return [tuple(int(n) for n in occ) for occ in basis.occupations]


def _reference_bilinear(states, fermionic, create_id, annihilate_id):
    """a+_{create} a_{annihilate} state by state through the tuple ladder helpers."""
    index = {occ: i for i, occ in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, occ in enumerate(states):
        lowered = _annihilate(occ, annihilate_id, fermionic)
        if lowered is None:
            continue
        raised = _create(lowered[0], create_id, fermionic)
        if raised is None:
            continue
        rows.append(index[raised[0]])
        cols.append(col)
        vals.append(lowered[1] * raised[1])
    return rows, cols, vals


class TestArrayFockLayer:
    @pytest.mark.parametrize(
        "statistics, n_particles",
        [
            (Statistics.BOSE, 1),
            (Statistics.BOSE, 4),
            (Statistics.FERMI, 1),
            (Statistics.FERMI, 2),
            (Statistics.FERMI, 4),
        ],
        ids=["bose-1", "bose-4", "fermi-1", "fermi-2", "fermi-4"],
    )
    def test_creation_equals_tuple_reference(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        index = {occ: i for i, occ in enumerate(_states(basis))}
        smaller = _states(FockBasis(spec2, statistics, n_particles - 1))
        for mode in range(basis.n_modes):
            steps = [(col, _create(occ, mode, basis.fermionic)) for col, occ in enumerate(smaller)]
            steps = [(col, step) for col, step in steps if step is not None]
            got = _creation(basis, mode)
            assert got.shape == (basis.dimension, len(smaller))
            order = np.argsort(got.col)
            assert np.array_equal(got.col[order], [col for col, _ in steps])
            assert np.array_equal(got.row[order], [index[step[0]] for _, step in steps])
            assert np.array_equal(got.data[order], [step[1] for _, step in steps])

    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 4), (Statistics.FERMI, 2), (Statistics.FERMI, 4)],
        ids=["bose-4", "fermi-2", "fermi-4"],
    )
    def test_bilinears_equal_tuple_reference(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        states = _states(basis)
        for create_id, annihilate_id in itertools.product(range(basis.n_modes), repeat=2):
            rows, cols, vals = _reference_bilinear(
                states, basis.fermionic, create_id, annihilate_id
            )
            got = _pair(basis, create_id, annihilate_id)
            order = np.argsort(got.col)
            assert len(got.data) == len(cols)
            assert np.array_equal(got.col[order], cols)
            assert np.array_equal(got.row[order], rows)
            assert np.array_equal(got.data[order], vals)

    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 4), (Statistics.FERMI, 2)],
        ids=["bose-4", "fermi-2"],
    )
    def test_one_body_equals_creation_products(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        rng = np.random.default_rng(31)
        shape = (basis.n_modes, basis.n_modes)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        creations = [_creation(basis, mode).toarray() for mode in range(basis.n_modes)]
        expected = sum(
            h[c, a] * (creations[c] @ creations[a].T)
            for c, a in itertools.product(range(basis.n_modes), repeat=2)
        )
        assert np.abs(_one_body(basis, h).toarray() - expected).max() < 1e-14

    @pytest.mark.parametrize(
        "statistics, n_particles",
        [(Statistics.BOSE, 2), (Statistics.FERMI, 4)],
        ids=["bose-2", "fermi-4"],
    )
    def test_one_body_of_zero_matrix_is_zero(self, spec2, statistics, n_particles):
        basis = FockBasis(spec2, statistics, n_particles)
        zero = _one_body(basis, np.zeros((basis.n_modes, basis.n_modes)))
        dim = basis.dimension
        assert zero.shape == (dim, dim)
        assert np.array_equal(zero.toarray(), np.zeros((dim, dim)))
        rng = np.random.default_rng(7)
        assert np.array_equal(zero @ rng.normal(size=dim), np.zeros(dim))
        assert np.array_equal(zero @ rng.normal(size=(dim, 3)), np.zeros((dim, 3)))

    def test_single_pairs_build_no_operator(self, monkeypatch, bose_basis, fermi_basis):
        spec = LatticeSpec(L=2, J=1.0, U=0.8)
        cases = [(mott_state(bose_basis), bose_basis), (neel_state(fermi_basis), fermi_basis)]

        def run_all():
            for state, basis in cases:
                four_point_tensor(state, basis)
                correlator_cases(state, basis, spec, 0.4, 1.1)
                separable_deviation(state, Mode(1, 0), Mode(0, 1), 0.9, basis, spec)

        def refuse(*args):
            raise AssertionError("a one-body operator was built")

        run_all()  # caches H and Sigma^+, the one-body sums these calls need
        monkeypatch.setattr(oracle_module, "_one_body", refuse)
        run_all()  # every single pair is applied as creation products
        with pytest.raises(AssertionError, match="one-body"):  # the guard is live
            exciton_matrix(FockBasis(LatticeSpec(L=2), Statistics.BOSE, 1), Mode(1, 0))

    def test_diagonals_equal_loop_reference(self, bose_basis, fermi_basis):
        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        for basis in (bose_basis, fermi_basis):
            block = basis.n_spins * 2
            interaction = []
            sigma_z = []
            for occ in basis.occupations.tolist():
                counts = [sum(occ[mu * block : (mu + 1) * block]) for mu in range(4)]
                interaction.append(sum(0.5 * spec.U * n * (n - 1) for n in counts))
                sigma_z.append(0.5 * (sum(occ[1::2]) - sum(occ[0::2])))
            H = build_lattice_hamiltonian(basis, spec)
            assert np.array_equal(H.toarray().diagonal(), interaction)
            assert np.array_equal(_excitations(basis) - basis.n_particles / 2, sigma_z)

    def test_empty_bases(self, spec2):
        for statistics in Statistics:
            basis = FockBasis(spec2, statistics, 0)
            assert basis.dimension == 1 and not basis.occupations.any()

    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_four_point_tensor_matches_dense_reference(self, spec2, statistics):
        basis = FockBasis(spec2, statistics, 2 if statistics is Statistics.FERMI else 4)
        rng = np.random.default_rng(29)
        # a generic state, so no entry of the Gram matrix vanishes by symmetry
        state = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        state /= np.linalg.norm(state)
        tensor = four_point_tensor(state, basis)
        grid = mode_grid(spec2)
        S = basis.n_spins
        assert tensor.shape == (4, 4, 4, 4, S, S)

        def momentum_bilinear(k_create, k_annihilate, spin):
            # (1/N) sum_{mu nu} exp(i k_c r_mu - i k_a r_nu) a+_{mu} a_{nu}, ground level
            coords = np.array([(x, y) for x in range(2) for y in range(2)])
            phase = lambda k: np.exp(1j * np.pi * (k[0] * coords[:, 0] + k[1] * coords[:, 1]))
            pc, pa = phase(k_create), np.conj(phase(k_annihilate))
            ground = [basis.mode_id(mu, spin, 0) for mu in range(4)]
            h = np.zeros((basis.n_modes,) * 2, dtype=complex)
            h[np.ix_(ground, ground)] = np.outer(pc, pa) / 4
            return _one_body(basis, h).toarray()

        for _ in range(40):
            k, q, kin, kout = (grid[i] for i in rng.integers(0, 4, size=4))
            s1, s2 = (int(s) for s in rng.integers(0, S, size=2))
            left = momentum_bilinear(mode_sub(q, kin, 2), mode_sub(q, kout, 2), s2)
            right = momentum_bilinear(mode_sub(k, kout, 2), mode_sub(k, kin, 2), s1)
            expected = np.vdot(state, left @ (right @ state))
            index = tuple(grid.index(mode) for mode in (k, q, kin, kout)) + (s1, s2)
            assert abs(tensor[index] - expected) < 1e-12


class TestEmissionOracle:
    def test_mott_frozen_lattice_peak(self, bose_basis):
        spec = LatticeSpec(L=2, J=0.0, U=0.0)
        mott = mott_state(bose_basis)
        dts = np.array([0.0, 1.0, 4.0])
        peak = exact_peak_curve(mott, Mode(1, 0), Mode(1, 0), dts, bose_basis, spec)
        assert peak == pytest.approx(np.ones(3), abs=1e-10)
        off = exact_peak_curve(mott, Mode(1, 0), Mode(0, 1), dts, bose_basis, spec)
        assert off == pytest.approx(np.zeros(3), abs=1e-12)

    def test_superfluid_peak_constant(self, spec2, bose_basis):
        sf = momentum_fock_state(bose_basis, _CONDENSATE)
        dts = np.linspace(0.0, 8.0, 9)
        for kappa in (Mode(1, 0), Mode(1, 1)):
            curve = exact_peak_curve(sf, kappa, kappa, dts, bose_basis, spec2)
            assert np.abs(curve - 1.0).max() < 1e-8

    def test_bose_quench_matches_uniform_curve(self, spec2, bose_basis):
        mott = mott_state(bose_basis)
        dts = np.linspace(0.0, 6.0, 13)
        for kappa in (Mode(1, 0), Mode(1, 1)):
            curve = exact_peak_curve(mott, kappa, kappa, dts, bose_basis, spec2)
            target = peak_curve(uniform(spec2), kappa, dts, spec2)
            assert np.abs(curve - target).max() < 1e-8

    def test_fermi_quench_matches_uniform_curve(self, spec2, fermi_basis):
        neel = neel_state(fermi_basis)
        dts = np.array([0.0, 0.9, 2.3])
        curve = exact_peak_curve(neel, Mode(1, 0), Mode(1, 0), dts, fermi_basis, spec2)
        target = peak_curve(uniform(spec2), Mode(1, 0), dts, spec2)
        assert np.abs(curve - target).max() < 1e-8

    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_peak_normalized_by_atom_count(self, spec2, statistics):
        # two atoms on four sites: the closed form normalizes by the atom count
        basis = FockBasis(spec2, statistics, 2)
        second_spin = 0 if statistics is Statistics.BOSE else 1
        state, dist = _momentum_case(basis, {(Mode(0, 0), 0): 1, (Mode(1, 0), second_spin): 1})
        dts = np.linspace(0.0, 6.0, 7)
        for kappa in (Mode(1, 0), Mode(1, 1), Mode(0, 1)):
            exact = exact_peak_curve(state, kappa, kappa, dts, basis, spec2)
            closed = peak_curve(dist, kappa, dts, spec2)
            assert np.abs(exact - closed).max() < 1e-12

    @pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI])
    def test_two_atoms_on_four_by_four_match_peak_curve(self, statistics):
        # 2 atoms on 16 sites: the atom count is not the site count, and the
        # rates take the values 0, +-J/2 and +-J
        spec = LatticeSpec(L=4, J=1.0, U=0.0)
        basis = FockBasis(spec, statistics, 2)
        if statistics is Statistics.BOSE:
            atoms = {(Mode(0, 0), 0): 1, (Mode(1, 2), 0): 1}
        else:
            atoms = {(Mode(0, 0), 0): 1, (Mode(-1, 1), 1): 1}
        state, dist = _momentum_case(basis, atoms)
        dts = np.linspace(0.0, 10.0, 11)
        for kappa in (Mode(1, 0), Mode(1, 1), Mode(2, 1)):
            exact = exact_peak_curve(state, kappa, kappa, dts, basis, spec)
            closed = peak_curve(dist, kappa, dts, spec)
            assert np.abs(exact - closed).max() < 1e-12
        assert basis.dimension == (528 if statistics is Statistics.BOSE else 2016)

    @pytest.mark.parametrize("dts", [[0.0, math.nan], [math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, spec2, bose_basis, dts):
        mott = mott_state(bose_basis)
        with pytest.raises(ValueError, match="finite"):
            exact_peak_curve(mott, Mode(1, 0), Mode(1, 0), np.array(dts), bose_basis, spec2)

    def test_rejects_nan_state(self, spec2, bose_basis):
        # a NaN state passes the excitation check (NaN > tol is False) and must not
        # evolve into a NaN curve
        state = np.full(bose_basis.dimension, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            exact_peak_curve(state, Mode(1, 0), Mode(1, 0), np.array([0.0, 1.0]), bose_basis, spec2)

    def test_rejects_state_of_wrong_length_before_the_excitation_check(self, spec2, bose_basis):
        # both excitation-free entry points check the shape first; only the classical
        # sequence takes a block, with advance's message
        message = r"^state of shape \(5,\), need \(330,\)"
        with pytest.raises(ValueError, match=message + "$"):
            exact_peak_curve(np.ones(5), Mode(1, 0), Mode(1, 0), np.array([0.0]), bose_basis, spec2)
        with pytest.raises(ValueError, match=message + r" or \(330, k\)$"):
            classical_sequence_sigma_z(np.ones(5), bose_basis, spec2, 0.1, -0.1, Mode(1, 0), 1.0)

    @pytest.mark.parametrize(
        "observable",
        [
            lambda state, basis, spec: exact_peak_curve(
                state, Mode(1, 0), Mode(1, 0), np.array([0.5]), basis, spec
            ),
            lambda state, basis, spec: separable_deviation(
                state, Mode(1, 0), Mode(0, 1), 0.5, basis, spec
            ),
            lambda state, basis, spec: correlator_cases(state, basis, spec, 0.2, 0.5),
        ],
        ids=["exact_peak_curve", "separable_deviation", "correlator_cases"],
    )
    def test_single_state_observables_reject_a_block(self, spec2, bose_basis, observable):
        # an excitation-free (330, 2) block, checked as one vector before any work
        block = np.stack([mott_state(bose_basis)] * 2, axis=1)
        with pytest.raises(ValueError, match=r"^state of shape \(330, 2\), need \(330,\)$"):
            observable(block, bose_basis, spec2)

    def test_rejects_empty_basis(self, spec2):
        basis = FockBasis(spec2, Statistics.BOSE, 0)
        with pytest.raises(ValueError):
            exact_peak_curve(np.ones(1), Mode(1, 0), Mode(1, 0), np.array([1.0]), basis, spec2)

    def test_rejects_excited_initial_state(self, spec2, bose_basis):
        excited = exciton_matrix(bose_basis, Mode(1, 0)) @ mott_state(bose_basis)
        excited /= np.linalg.norm(excited)
        with pytest.raises(ValueError):
            exact_peak_curve(excited, Mode(1, 0), Mode(1, 0), np.array([1.0]), bose_basis, spec2)


def _bose_orbitals(counts):
    """counts[mu] bosons on site mu: one one-hot orbital row per atom, in site order."""
    return np.repeat(np.eye(len(counts)), counts, axis=0)[:, :, None]


def _fermi_orbitals(spins):
    """One fermion on each site mu, with spin amplitudes spins[mu] = (up, down)."""
    sites = np.arange(len(spins))
    orbitals = np.zeros((len(spins), len(spins), 2), dtype=complex)
    orbitals[sites, sites] = spins
    return orbitals


class TestSeparableCases:
    def test_zero_index_cases(self, bose_basis, rng):
        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        state = orbital_state(bose_basis, _bose_orbitals(rng.multinomial(4, [0.25] * 4)))
        cases = correlator_cases(state, bose_basis, spec, 0.4, 1.1)
        assert cases.shape == (4, 4, 4, 4, 1, 1, 1, 1)
        worst = 0.0
        survivors = 0.0
        for mu in range(4):
            for nu in range(4):
                for rho in range(4):
                    for eta in range(4):
                        value = cases[mu, nu, rho, eta, 0, 0, 0, 0]
                        if mu == nu and rho == eta:
                            survivors = max(survivors, abs(value))
                        else:
                            worst = max(worst, abs(value))
        assert worst < 1e-12
        assert survivors > 0.1  # the surviving case really is nonzero

    def test_fermi_zero_cases_sampled(self, fermi_basis, rng):
        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        spins = []
        for _ in range(4):
            theta, chi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            spins.append((np.cos(theta / 2), np.exp(1j * chi) * np.sin(theta / 2)))
        state = orbital_state(fermi_basis, _fermi_orbitals(spins))
        cases = correlator_cases(state, fermi_basis, spec, 0.4, 1.1)
        assert cases.shape == (4, 4, 4, 4, 2, 2, 2, 2)
        for mu in range(4):
            for nu in range(4):
                for rho in range(4):
                    for eta in range(4):
                        if mu == nu and rho == eta:
                            continue
                        # every one of the 16 spin tuples
                        assert np.abs(cases[mu, nu, rho, eta]).max() < 1e-12

    @pytest.mark.parametrize(
        "statistics, spec",
        [
            (Statistics.BOSE, LatticeSpec(L=2, J=0.0, U=0.8)),
            (Statistics.BOSE, LatticeSpec(L=2, J=1.0, U=0.8)),
            (Statistics.FERMI, LatticeSpec(L=2, J=0.0, U=0.8)),
            (Statistics.FERMI, LatticeSpec(L=2, J=1.0, U=0.8)),
        ],
        ids=["bose-frozen", "bose-hopping", "fermi-frozen", "fermi-hopping"],
    )
    def test_cases_match_heisenberg_reference(self, bose_basis, fermi_basis, statistics, spec):
        rng = np.random.default_rng(11)
        basis = bose_basis if statistics is Statistics.BOSE else fermi_basis
        if basis.fermionic:
            angles = rng.uniform(0, np.pi, size=4)
            orbitals = _fermi_orbitals(np.stack([np.cos(angles / 2), np.sin(angles / 2)], axis=1))
        else:
            orbitals = _bose_orbitals(rng.multinomial(4, [0.25] * 4))
        state = orbital_state(basis, orbitals)
        prop = Propagator(build_lattice_hamiltonian(basis, spec))
        t_absorb, t_emit = 0.4, 1.1

        def op(site, spin, create, annihilate):
            return _pair(
                basis, basis.mode_id(site, spin, create), basis.mode_id(site, spin, annihilate)
            )

        def reference(sites, spins):
            # one Heisenberg-picture case, three propagations
            mu, nu, rho, eta = sites
            s1, s2, s3, s4 = spins
            base = prop.advance(state, t_absorb)
            ket = prop.advance(op(nu, s2, 1, 0) @ base, t_emit - t_absorb)
            ket = op(rho, s3, 1, 0) @ (op(mu, s1, 0, 1) @ ket)
            bra = prop.advance(op(eta, s4, 1, 0) @ base, t_emit - t_absorb)
            return complex(np.vdot(bra, ket))

        cases = correlator_cases(state, basis, spec, t_absorb, t_emit)
        S = basis.n_spins
        assert cases.shape == (4, 4, 4, 4) + (S,) * 4
        sampled = [
            tuple(int(i) for i in rng.integers(0, 4, size=4)) + tuple(int(s) for s in spins)
            for spins in rng.integers(0, S, size=(40, 4))
        ]
        survivors = [
            (mu, mu, rho, rho) + spins
            for mu in range(4)
            for rho in range(4)
            for spins in itertools.product(range(S), repeat=4)
        ]
        for index in sampled + survivors:
            assert abs(cases[index] - reference(index[:4], index[4:])) < 1e-12
        assert max(abs(cases[index]) for index in survivors) > 0.1

    def test_frozen_lattice_amplitude_exact(self, bose_basis):
        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        mott = mott_state(bose_basis)
        dev = separable_deviation(mott, Mode(1, 0), Mode(1, 0), 1.3, bose_basis, spec)
        assert dev < 1e-12

    def test_neel_frozen_matches_separable_peak(self, fermi_basis):
        spec = LatticeSpec(L=2, J=0.0, U=3.0)
        neel = neel_state(fermi_basis)
        for kin, kout in ((Mode(1, 0), Mode(1, 0)), (Mode(1, 0), Mode(0, 1))):
            dev = separable_deviation(neel, kin, kout, 0.9, fermi_basis, spec)
            assert dev < 1e-12
            # and the prediction itself equals the unit-filling Fourier peak
            expected = separable_peak(np.ones((2, 2)), kin, kout)
            peak = exact_peak_curve(neel, kin, kout, np.array([0.9]), fermi_basis, spec)
            assert peak[0] == pytest.approx(expected, abs=1e-12)

    def test_two_bosons_on_the_diagonal_match_separable_peak(self):
        # off unit filling: the peak is normalized by the two atoms, not the four sites
        spec = LatticeSpec(L=2, J=0.0, U=3.0)
        orbitals = _bose_orbitals([1, 0, 0, 1])
        basis = FockBasis(spec, Statistics.BOSE, 2)
        psi = orbital_state(basis, orbitals)
        occupations = np.eye(2)
        geometries = [(Mode(1, 0), Mode(1, 0)), (Mode(1, 0), Mode(0, 1)), (Mode(0, 0), Mode(1, 0))]
        for kin, kout in geometries:
            expected = separable_peak(occupations, kin, kout)
            peak = exact_peak_curve(psi, kin, kout, np.array([0.0, 0.9]), basis, spec)
            np.testing.assert_allclose(peak, expected, rtol=0, atol=1e-12)
            dev = separable_deviation(psi, kin, kout, 0.9, basis, spec)
            assert dev < 1e-12

    def test_site_amplitudes_equal_creation_product_reference(
        self, monkeypatch, spec2, bose_basis, fermi_basis
    ):
        # the transfer amplitude |R_mu psi|^2, R_mu = sum_s a+_{mu,s,ex} a_{mu,s,gr}, applied
        # as creation products, against the site occupations separable_deviation reads
        def reference(state, basis):
            amplitudes = np.empty(basis.spec.sites)
            for mu in range(basis.spec.sites):
                raised = sum(
                    _creation(basis, basis.mode_id(mu, s, 1))
                    @ (_creation(basis, basis.mode_id(mu, s, 0)).getH() @ state)
                    for s in range(basis.n_spins)
                )
                amplitudes[mu] = np.linalg.norm(raised) ** 2
            return amplitudes

        spec = LatticeSpec(L=2, J=0.0, U=0.8)
        rng = random.Random(1905)
        bose, fermi, two = bose_basis, fermi_basis, FockBasis(spec2, Statistics.BOSE, 2)
        cases = {
            "mott": (bose, mott_state(bose)),
            "neel": (fermi, neel_state(fermi)),
            "bose-product": (bose, orbital_state(bose, _random_bose_product(spec2, rng))),
            "fermi-product": (fermi, orbital_state(fermi, _random_fermi_product(spec2, rng))),
            "two-bosons": (two, orbital_state(two, _bose_orbitals([1, 0, 0, 1]))),
        }
        passed = []
        monkeypatch.setattr(
            oracle_module,
            "separable_peak",
            lambda amplitudes, kin, kout: passed.append(amplitudes.ravel()) or 0.0,
        )
        for name, (basis, state) in cases.items():
            separable_deviation(state, Mode(1, 0), Mode(1, 0), 0.9, basis, spec)
            expected = reference(state, basis)
            assert np.abs(passed[-1] - expected).max() < 1e-14, name
            assert passed[-1].sum() == pytest.approx(basis.n_particles, abs=1e-14), name
        # the random Bose draw doubles up a site: not every amplitude is 1
        assert passed[2].max() > 1

    def test_interaction_dominated_residual(self, bose_basis):
        # J/U = 0.01: the product formula holds up to a perturbative residual
        spec = LatticeSpec(L=2, J=1.0, U=100.0)
        mott = mott_state(bose_basis)
        dev = separable_deviation(mott, Mode(1, 0), Mode(1, 0), 1.0, bose_basis, spec)
        assert dev < 0.1


class TestClassicalSequenceOracle:
    def test_matches_closed_form(self, spec2, bose_basis):
        cases = [
            (momentum_fock_state(bose_basis, _CONDENSATE), superfluid(spec2)),
            (
                momentum_fock_state(bose_basis, {(mode, 0): 1 for mode in mode_grid(spec2)}),
                uniform(spec2),
            ),
            (mott_state(bose_basis), uniform(spec2)),  # Mott has n(k) = 1 on every mode
        ]
        for angles in ((0.2, -0.2), (0.3, 0.5)):
            for dt in (0.0, 0.7, 1.4):
                for state, dist in cases:
                    exact = classical_sequence_sigma_z(
                        state, bose_basis, spec2, *angles, Mode(1, 1), dt
                    )
                    amplitude = coherent_amplitude(dist, Mode(1, 1), dt, spec2)
                    assert exact == pytest.approx(
                        expected_sigma_z(dist, amplitude, *angles), abs=1e-8
                    )

    @pytest.mark.parametrize(
        "occupied",
        [
            # both spins, two modes each; the spins see different dephasing rates
            {(Mode(0, 0), 0): 1, (Mode(1, 1), 0): 1, (Mode(1, 0), 1): 1, (Mode(0, 1), 1): 1},
            # one spin filling its whole band
            {(Mode(0, 0), 0): 1, (Mode(1, 0), 0): 1, (Mode(0, 1), 0): 1, (Mode(1, 1), 0): 1},
        ],
        ids=["two-spins", "one-spin"],
    )
    def test_fermion_fock_state_matches_closed_form(self, spec2, fermi_basis, occupied):
        # 4 fermions on the 8 ground-level modes of the 2 x 2 lattice: half filling
        state, dist = _momentum_case(fermi_basis, occupied)
        for kappa in (Mode(1, 0), Mode(0, 1), Mode(1, 1)):
            for angles in ((0.2, -0.2), (0.3, 0.5)):
                for dt in (0.0, 0.7, 1.4):
                    exact = classical_sequence_sigma_z(
                        state, fermi_basis, spec2, *angles, kappa, dt
                    )
                    amplitude = coherent_amplitude(dist, kappa, dt, spec2)
                    assert exact == pytest.approx(
                        expected_sigma_z(dist, amplitude, *angles), abs=1e-8
                    )

    def test_pulses_are_generated_by_sigma_x(self, spec2, fermi_basis):
        classical_sequence_sigma_z(
            neel_state(fermi_basis), fermi_basis, spec2, 0.3, 0.5, Mode(1, 1), 0.7
        )
        pulse = fermi_basis._cache[("pulse", Mode(1, 1))]
        plus = exciton_matrix(fermi_basis, Mode(1, 1)).toarray()
        assert np.abs(pulse._H.toarray() - 0.5 * (plus + plus.conj().T)).max() < 1e-15

    def test_block_and_grid_match_single_calls(self, spec2, bose_basis):
        states = [momentum_fock_state(bose_basis, _CONDENSATE), mott_state(bose_basis)]
        dts = np.array([0.0, 0.7, 1.4])
        block = classical_sequence_sigma_z(
            np.stack(states, axis=1), bose_basis, spec2, 0.3, 0.5, Mode(1, 1), dts
        )
        assert block.shape == (3, 2)
        for column, state in enumerate(states):
            for row, dt in enumerate(dts):
                single = classical_sequence_sigma_z(
                    state, bose_basis, spec2, 0.3, 0.5, Mode(1, 1), dt
                )
                assert isinstance(single, float)
                assert abs(block[row, column] - single) < 1e-13

    def test_metastable_population_is_exact_to_fourth_order(self, spec2, bose_basis):
        # exact (sin^2 a / 2)(n - S) against the formula's (a^2 / 2)(n - S)
        state = momentum_fock_state(bose_basis, {(mode, 0): 1 for mode in mode_grid(spec2)})
        deviations = {
            alpha: _metastable_deviation(
                bose_basis, [state], spec2, uniform(spec2), Mode(1, 1), alpha
            )
            for alpha in (0.1, 0.05)
        }
        for alpha, dev in deviations.items():
            assert 0.6 * alpha**4 < dev < 0.7 * alpha**4
        assert deviations[0.1] / deviations[0.05] == pytest.approx(16.0, rel=0.01)

    @pytest.mark.parametrize(
        "angle, dt",
        [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan)],
        ids=["nan-angle", "inf-angle", "nan-dt"],
    )
    def test_rejects_non_finite_angle_or_time(self, spec2, bose_basis, angle, dt):
        # a pulse's angle is its propagator's time
        with pytest.raises(ValueError, match="finite"):
            classical_sequence_sigma_z(
                mott_state(bose_basis), bose_basis, spec2, angle, -0.1, Mode(1, 0), dt
            )

    def test_requires_free_hamiltonian(self, bose_basis):
        spec = LatticeSpec(L=2, J=1.0, U=2.0)
        with pytest.raises(ValueError):
            classical_sequence_sigma_z(
                mott_state(bose_basis), bose_basis, spec, 0.1, -0.1, Mode(1, 0), 1.0
            )


def _site_product(basis, orbitals):
    """Reference for orbitals confined to one site each, from the occupation array alone.

    A boson site holding n orbitals is in the local state of n ground-level
    atoms, with the product of the rows' amplitudes; a fermion site holds at
    most one orbital, whose spin amplitudes are those of one ground-level
    atom of each spin.  Each basis row gets the product over sites of the
    local amplitude of its local occupation.
    """
    on_site = np.abs(orbitals).sum(axis=2) > 0  # (atoms, sites)
    assert np.all(on_site.sum(axis=1) == 1)
    local = basis.occupations.reshape(basis.dimension, basis.spec.sites, basis.n_spins, 2)
    v = np.ones(basis.dimension, dtype=complex)
    for site in range(basis.spec.sites):
        rows = orbitals[on_site[:, site], site]  # (atoms on the site, spins)
        ground, excited = local[:, site, :, 0], local[:, site, :, 1]
        atoms = ground.sum(axis=1)
        amplitude = np.zeros(basis.dimension, dtype=complex)
        if basis.fermionic and len(rows):
            (row,) = rows
            for spin in range(2):
                amplitude[(atoms == 1) & (ground[:, spin] == 1)] = row[spin]
        else:
            amplitude[atoms == len(rows)] = np.prod(rows[:, 0])
        v *= np.where(excited.any(axis=1), 0, amplitude)
    return v / np.linalg.norm(v)


class TestProductState:
    def test_orbital_states_equal_site_products(self, spec2, bose_basis, fermi_basis):
        rng = random.Random(7)
        mott = _bose_orbitals([1, 1, 1, 1])
        assert np.array_equal(mott_state(bose_basis), _site_product(bose_basis, mott))
        neel = _fermi_orbitals([(1, 0), (0, 1), (0, 1), (1, 0)])  # up where x + y is even
        assert np.array_equal(neel_state(fermi_basis), _site_product(fermi_basis, neel))
        bose = [_random_bose_product(spec2, rng) for _ in range(3)]
        for orbitals in bose:
            reference = _site_product(bose_basis, orbitals)
            assert np.array_equal(orbital_state(bose_basis, orbitals), reference)
        # the random draws put several bosons on one site
        assert max(np.abs(o).sum(axis=0).max() for o in bose) > 1
        for _ in range(2):
            orbitals = _random_fermi_product(spec2, rng)
            reference = _site_product(fermi_basis, orbitals)
            assert np.count_nonzero(reference) == 16  # every spin configuration
            assert np.abs(orbital_state(fermi_basis, orbitals) - reference).max() < 1e-15
        # two fermions: creating the first row first would flip the sign
        pair = _random_fermi_product(spec2, rng)[[0, 3]]
        basis = FockBasis(spec2, Statistics.FERMI, 2)
        assert np.abs(orbital_state(basis, pair) - _site_product(basis, pair)).max() < 1e-15

    def test_rejects_wrong_site_count(self, bose_basis):
        with pytest.raises(ValueError, match="shape"):
            orbital_state(bose_basis, np.eye(3).reshape(3, 3, 1))
        with pytest.raises(ValueError, match="shape"):
            orbital_state(bose_basis, np.eye(4))  # no spin axis

    def test_rejects_wrong_atom_total(self, bose_basis):
        with pytest.raises(ValueError, match="5 orbitals"):
            orbital_state(bose_basis, _bose_orbitals([2, 1, 1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_orbital(self, bose_basis, bad):
        # checked before any creation, so the norm never blames Pauli blocking
        orbitals = _bose_orbitals([1, 1, 1, 1]).astype(complex)
        orbitals[2, 1, 0] = bad
        with pytest.raises(ValueError, match="^orbitals must be finite$"):
            orbital_state(bose_basis, orbitals)

    def test_rejects_empty_orbital(self, bose_basis):
        # an all-zero row creates no atom: the product vanishes
        orbitals = np.concatenate([np.zeros((1, 4, 1)), _bose_orbitals([0, 1, 1, 1])])
        with pytest.raises(ValueError, match="norm 0"):
            orbital_state(bose_basis, orbitals)

    @pytest.mark.parametrize("magnitude", [1e80, 1e100])
    def test_rejects_an_overflowing_product(self, bose_basis, magnitude):
        # finite orbitals whose four-atom product overflows: no warning, no Pauli blame
        orbitals = magnitude * _bose_orbitals([1, 1, 1, 1])
        with pytest.raises(ValueError, match="^the orbital product overflows"):
            orbital_state(bose_basis, orbitals)

    def test_rejects_double_fermion_occupation(self, fermi_basis):
        # two fermions in one site orbital: Pauli blocking leaves nothing
        orbitals = _fermi_orbitals([(1, 0)] * 4)
        orbitals[1] = orbitals[0]
        with pytest.raises(ValueError, match="norm 0"):
            orbital_state(fermi_basis, orbitals)

    def test_mott_is_single_configuration(self, bose_basis):
        v = mott_state(bose_basis)
        assert np.count_nonzero(v) == 1
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_neel_is_single_configuration(self, fermi_basis):
        v = neel_state(fermi_basis)
        assert np.count_nonzero(v) == 1
        assert np.linalg.norm(v) == pytest.approx(1.0)


# `dickeprobe oracle --json` output; rewrite it with that command after a change
# that is meant to move a deviation
PINNED_REPORT = pathlib.Path(__file__).resolve().parent / "data" / "oracle_report.json"

# every check in suite order, with its tolerance
_SUITE = {
    "dicke-ladder": 1e-10,
    "quasispin-commutator": 1e-12,
    "four-point-bose": 1e-10,
    "four-point-fermi": 1e-10,
    "mott-correlator": 1e-10,
    "neel-correlator": 1e-10,
    "neel-sublattice-gap": 1e-10,
    "superfluid-peak": 1e-8,
    "quench-dephasing-bose": 1e-8,
    "quench-dephasing-fermi": 1e-8,
    "separable-zero-cases": 1e-12,
    "separable-amplitude-frozen": 1e-12,
    "separable-amplitude-residual": 0.1,
    "classical-sequence": 1e-8,
    "metastable-population": 6.25e-6,
}


@pytest.fixture(scope="module")
def suite_results():
    return verification_suite()


def test_verification_suite_all_pass(suite_results):
    results = suite_results
    assert [(r.name, r.tolerance) for r in results] == list(_SUITE.items())
    failures = [r for r in results if not r.passed]
    assert not failures, f"oracle checks failed: {[(r.name, r.deviation) for r in failures]}"
    # every exact check sits at rounding level; only the O(J/U) residual and the
    # O(alpha^4) small-angle count do not
    loose = [r.name for r in results if r.deviation >= 1e-13]
    assert loose == ["separable-amplitude-residual", "metastable-population"]


def test_report_matches_pinned_report(suite_results):
    pinned = json.loads(PINNED_REPORT.read_text())
    assert [(r.name, r.tolerance, r.passed) for r in suite_results] == [
        (row["name"], row["tolerance"], row["passed"]) for row in pinned
    ]
    for result, row in zip(suite_results, pinned):
        assert abs(result.deviation - row["deviation"]) <= 1e-13, result.name


def test_suite_builds_each_basis_once(monkeypatch):
    built = []
    init = FockBasis.__init__

    def recording(self, spec, statistics, n_particles):
        built.append((statistics.value, n_particles))
        init(self, spec, statistics, n_particles)

    monkeypatch.setattr(FockBasis, "__init__", recording)
    verification_suite()
    assert sorted(built) == sorted((s.value, n) for s in Statistics for n in range(5))


def test_suite_frees_the_fermion_state_after_its_last_check(monkeypatch):
    # the fermion bases, their cached operators and their propagators; refcounting
    # alone must free them, so the cyclic collector is off for the run
    held, alive = [], []

    def recorder(build):
        def recording(basis, *args):
            value = build(basis, *args)
            if basis.fermionic:
                held.extend([weakref.ref(basis), weakref.ref(value)])
            return value

        return recording

    for name in ("_cached", "_cached_propagator"):
        monkeypatch.setattr(oracle_module, name, recorder(getattr(oracle_module, name)))
    deviation = oracle_module.separable_deviation  # the first check after separable-zero-cases

    def counting(*args):
        alive.append(sum(ref() is not None for ref in held))
        return deviation(*args)

    monkeypatch.setattr(oracle_module, "separable_deviation", counting)
    enabled = gc.isenabled()
    gc.disable()
    try:
        verification_suite()
    finally:
        if enabled:
            gc.enable()
    assert held and alive == [0, 0]


def test_suite_builds_each_state_once(monkeypatch):
    # Mott, Neel and five momentum states: the condensate, the uniform state and
    # the three other four-point cases; each named builder runs once per state
    built = []

    def recorder(name, build):
        def recording(basis, *args):
            built.append((name, basis.statistics.value, basis.n_particles, repr(args)))
            return build(basis, *args)

        return recording

    for name in ("mott_state", "neel_state", "momentum_fock_state"):
        monkeypatch.setattr(oracle_module, name, recorder(name, getattr(oracle_module, name)))
    verification_suite()
    assert len(built) == len(set(built)) == 7


def test_report_deviations_keep_their_level(suite_results):
    deviations = {r.name: r.deviation for r in suite_results}
    # the frozen-lattice separable checks are exact, not merely small
    assert deviations["separable-zero-cases"] == 0.0
    assert deviations["separable-amplitude-frozen"] == 0.0
