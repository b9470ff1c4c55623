"""Partial traces, eigendecomposition, Schmidt decomposition, Hermitian bases, unitary
checks and the Jacobi joint-diagonalization oracle."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qfc
from qfc import (
    BipartiteState,
    HermiticityError,
    NormalizationError,
    OptimizerConfig,
    OrthonormalityError,
    PositivityError,
    ShapeError,
    TraceError,
    ValidationError,
    dag,
    eigh,
    hermitian_basis,
    measured_state,
    optimize_basis,
    partial_trace,
    total_mfi,
)
from qfc.linalg import require_dim, require_orthonormal_columns, require_unitary
from qfc.states import haar_unitary, random_density

from oracles import (_a_components, basis_qfi_sum, joint_diagonalize,
                     off_diagonal_mass_and_gradient, random_start, schmidt)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def bell_vector():
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_validation_tolerance_is_written_once():
    # verify.py is exempt: its acceptance bounds are separate numbers
    literal = re.compile(r"(?<![\w.])1(\.0*)?[eE]-10(?!\d)")
    hits = [
        (path.name, line.strip())
        for path in sorted(Path(qfc.__file__).parent.glob("*.py"))
        if path.name != "verify.py"
        for line in path.read_text().splitlines()
        if literal.search(line)
    ]
    assert hits == [("linalg.py", "VALIDATION_TOL = 1e-10")]
    # and only linalg's checks compare with it
    readers = [path.name for path in sorted(Path(qfc.__file__).parent.glob("*.py"))
               if "VALIDATION_TOL" in path.read_text()]
    assert readers == ["linalg.py"]


def test_every_top_level_name_is_used_or_exported():
    # A function or class no module of the package uses and the package does
    # not export survives only for the tests, so it belongs in tests/oracles.py.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(qfc.__file__).parent.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            own = {id(child) for child in ast.walk(node)}
            if not any(id(ref) not in own and node.name in (getattr(ref, "id", None),
                                                            getattr(ref, "attr", None))
                       for other in trees.values() for ref in ast.walk(other)):
                unused.append(f"{module}:{node.name}")
    assert unused == []


def spoil(x, bad):
    """A complex copy of ``x`` whose first entry is ``bad``."""
    x = np.array(x, dtype=complex)
    x.flat[0] = bad
    return x


RHO = np.diag([0.75, 0.25]).astype(complex)
POVM = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
FISHER = {
    "qfi": qfc.qfi,
    "variance": qfc.variance,
    "sld": qfc.sld,
    "evolve": lambda rho, h: qfc.evolve(rho, h, 0.3),
    "classical_fi": lambda rho, h: qfc.classical_fi(rho, h, POVM),
}
# Each entry point with one input spoiled by the non-finite value ``bad``.
NON_FINITE_INPUTS = {
    **{f"{name}-rho": lambda bad, f=f: f(spoil(RHO, bad), SX) for name, f in FISHER.items()},
    **{f"{name}-h": lambda bad, f=f: f(RHO, spoil(SX, bad)) for name, f in FISHER.items()},
    "lift_a": lambda bad: qfc.lift_a(spoil(SX, bad), 2),
    "lift_b": lambda bad: qfc.lift_b(spoil(SX, bad), 2),
    "total_mfi": lambda bad: total_mfi(qfc.max_entangled(2), spoil(np.eye(2), bad)),
    # basis_qfi_sum and schmidt are oracles (tests/oracles.py) that check input like the library
    "basis_qfi_sum": lambda bad: basis_qfi_sum(qfc.max_entangled(2), spoil(np.eye(2), bad)),
    "von_neumann_entropy": lambda bad: qfc.von_neumann_entropy(spoil(RHO, bad)),
    "measured_state": lambda bad: measured_state(qfc.max_entangled(2), spoil(np.eye(2), bad)),
    "optimize_basis": lambda bad: optimize_basis(
        lambda u, gradient=True: (np.zeros(u.shape[:-2]), np.zeros_like(u)),
        spoil(np.eye(2), bad), config=OptimizerConfig(restarts=1),
    ),
    "KrausChannel": lambda bad: qfc.KrausChannel((spoil(np.eye(2), bad),)),
    "validate_povm": lambda bad: qfc.validate_povm([spoil(POVM[0], bad), POVM[1]]),
    "schmidt": lambda bad: schmidt(spoil(bell_vector(), bad), (2, 2)),
    "pure_state": lambda bad: qfc.pure_state(spoil(bell_vector(), bad), (2, 2)),
    "make_witness_state": lambda bad: qfc.make_witness_state(a=(bad, 0.0)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", NON_FINITE_INPUTS)
def test_non_finite_input_raises_a_validation_error(entry, bad):
    with pytest.raises(ValidationError):
        NON_FINITE_INPUTS[entry](bad)


EMPTY = np.zeros((0, 0))
ZERO_SIZE_INPUTS = {
    "require_hermitian": lambda: qfc.linalg.require_hermitian(EMPTY),
    "eigh": lambda: eigh(EMPTY),
    "lift_a": lambda: qfc.lift_a(EMPTY, 2),
    "validate_density": lambda: qfc.validate_density(EMPTY),
    "validate_povm": lambda: qfc.validate_povm([EMPTY]),
    "KrausChannel": lambda: qfc.KrausChannel((EMPTY,)),
}


@pytest.mark.parametrize("entry", ZERO_SIZE_INPUTS)
def test_a_zero_size_matrix_raises_a_shape_error(entry):
    with pytest.raises(ShapeError):
        ZERO_SIZE_INPUTS[entry]()


@pytest.mark.parametrize("name", FISHER)
def test_a_matrix_that_is_not_a_state_raises(name):
    with pytest.raises(TraceError, match="state"):
        FISHER[name](2 * RHO, SX)
    with pytest.raises(PositivityError, match="state"):
        FISHER[name](np.diag([1.25, -0.25]).astype(complex), SX)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = np.outer(bell_vector(), bell_vector().conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "a"), np.eye(2) / 2, atol=1e-14)

    def test_product_state_recovers_factor(self):
        ra = random_density(2, 2, 1)
        rb = random_density(3, 3, 2)
        np.testing.assert_allclose(partial_trace(np.kron(ra, rb), (2, 3), "a"), ra, atol=1e-14)
        np.testing.assert_allclose(partial_trace(np.kron(ra, rb), (2, 3), "b"), rb, atol=1e-14)

    def test_matches_double_sum_oracle(self):
        rho = random_density(6, 6, 3)
        got_a = partial_trace(rho, (2, 3), "a")
        got_b = partial_trace(rho, (2, 3), "b")
        r4 = rho.reshape(2, 3, 2, 3)
        oracle_a = np.zeros((2, 2), dtype=complex)
        oracle_b = np.zeros((3, 3), dtype=complex)
        for p in range(2):
            for q in range(2):
                for n in range(3):
                    oracle_a[p, q] += r4[p, n, q, n]
        for i in range(3):
            for j in range(3):
                for m in range(2):
                    oracle_b[i, j] += r4[m, i, m, j]
        np.testing.assert_allclose(got_a, oracle_a, atol=1e-14)
        np.testing.assert_allclose(got_b, oracle_b, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_product_roundtrip_and_trace_preserved(self, seed):
        ra = random_density(2, 2, 10 * seed)
        rb = random_density(3, 3, 10 * seed + 1)
        joint = np.kron(ra, rb)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "a"), ra, atol=1e-12)
        reduced = partial_trace(joint, (2, 3), "b")
        assert abs(np.trace(reduced) - np.trace(joint)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(5), (2, 3), "a")

    def test_rejects_an_unknown_party(self):
        with pytest.raises(ValueError, match="keep must be 'a' or 'b'"):
            partial_trace(np.eye(6) / 6, (2, 3), "c")


class TestEigh:
    def test_identity(self):
        spec = eigh(np.eye(2))
        np.testing.assert_allclose(spec.values, [1.0, 1.0])

    def test_pauli_z_spectrum_descending(self):
        spec = eigh(SZ)
        np.testing.assert_allclose(spec.values, [1.0, -1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + dag(g)) / 2
        spec = eigh(h)
        rebuilt = spec.vectors @ np.diag(spec.values) @ dag(spec.vectors)
        assert np.linalg.norm(rebuilt - h) <= 1e-9
        gram = dag(spec.vectors) @ spec.vectors
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-10
        for i in range(5):
            resid = h @ spec.vectors[:, i] - spec.values[i] * spec.vectors[:, i]
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unchecked_spectrum_is_the_checked_one(self):
        # The solvers decompose a state's rho, checked when the state was
        # built, without eigh's check; the numbers must be eigh's, bit for bit.
        for seed in range(20):
            d = 2 + seed % 5
            rho = random_density(d, 1 + seed % d, seed)
            checked, unchecked = eigh(rho, "state"), qfc.linalg._spectrum(rho)
            assert np.array_equal(checked.values, unchecked.values)
            assert np.array_equal(checked.vectors, unchecked.vectors)
        with pytest.raises(HermiticityError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            eigh(np.full((2, 2), np.nan))

    def test_positive_spectrum_is_the_spectrum_checked_once(self):
        # qfi, sld and von_neumann_entropy read rho's positivity and spectrum
        # off its one decomposition
        for seed in range(10):
            d = 2 + seed % 4
            rho = random_density(d, 1 + seed % d, seed)
            checked, plain = qfc.linalg.require_positive(rho, "state"), qfc.linalg._spectrum(rho)
            assert np.array_equal(checked.values, plain.values)
            assert np.array_equal(checked.vectors, plain.vectors)
        edge = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        qfc.linalg.require_positive(edge, "state")
        bad = np.diag([1.25, -0.25]).astype(complex)
        with pytest.raises(PositivityError) as got:
            qfc.linalg.require_positive(bad, "state")
        assert str(got.value) == "state has eigenvalue -2.500e-01 < 0"


class TestSchmidt:
    def test_bell_coefficients(self):
        sd = schmidt(bell_vector(), (2, 2))
        np.testing.assert_allclose(sd.coefficients, [0.5, 0.5], atol=1e-12)

    def test_product_state_has_single_coefficient(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = 1.0
        sd = schmidt(psi, (2, 3))
        np.testing.assert_allclose(sd.coefficients, [1.0], atol=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = psi / np.linalg.norm(psi)
        sd = schmidt(psi, (3, 4))
        singulars = np.linalg.svd(psi.reshape(3, 4), compute_uv=False)
        np.testing.assert_allclose(sd.coefficients, (singulars**2)[: sd.coefficients.size], atol=1e-12)
        assert abs(sd.coefficients.sum() - 1.0) <= 1e-10

    def test_reconstruction_up_to_global_phase(self):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        sd = schmidt(psi, (3, 4))
        rebuilt = sum(
            np.sqrt(c) * np.kron(sd.a_vectors[:, i], sd.b_vectors[:, i])
            for i, c in enumerate(sd.coefficients)
        )
        overlap = abs(np.vdot(rebuilt, psi))
        assert abs(overlap - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_coefficients_invariant_under_local_unitaries(self, seed):
        rng = np.random.default_rng(100 + seed)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        u = haar_unitary(2, seed)
        v = haar_unitary(3, seed + 50)
        rotated = np.kron(u, v) @ psi
        before = schmidt(psi, (2, 3)).coefficients
        after = schmidt(rotated, (2, 3)).coefficients
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            schmidt(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))

    def test_rejects_bad_length(self):
        with pytest.raises(ShapeError):
            schmidt(np.array([1.0, 0.0, 0.0]), (2, 2))


class TestRequireDim:
    @pytest.mark.parametrize("value", [1, 3, np.int64(2), np.uint8(4)])
    def test_returns_an_int(self, value):
        dim = require_dim(value, "d")
        assert dim == value and type(dim) is int

    @pytest.mark.parametrize("value", [0, -1, np.int64(0), 2.0, 1.5, True, np.bool_(True), "2", None])
    def test_refuses_anything_but_an_integer_of_at_least_one(self, value):
        with pytest.raises(ShapeError, match="d must be an integer >= 1"):
            require_dim(value, "d")

    @pytest.mark.parametrize("d", [0, -1, 1.5, True])
    def test_hermitian_basis_checks_its_dimension(self, d):
        with pytest.raises(ShapeError, match="d must be an integer >= 1"):
            hermitian_basis(d)


class TestHermitianBasis:
    def test_qubit_set_matches_paulis_up_to_sign(self):
        basis = hermitian_basis(2)
        assert basis.shape == (4, 2, 2)
        np.testing.assert_allclose(basis[0], np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(basis[1], np.diag([0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(basis[2], SX / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(np.abs(basis[3]), np.abs(SY) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_orthonormal(self, dim):
        basis = hermitian_basis(dim)
        assert basis.shape[0] == dim * dim
        gram = np.einsum("mij,nji->mn", basis, basis)
        np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-12)

    def test_counts_for_dimension_three(self):
        assert hermitian_basis(3).shape == (9, 3, 3)


def commuting_stack(d, seed, count=5):
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, seed)
    return np.array([v @ np.diag(rng.normal(size=d)) @ dag(v) for _ in range(count)])


def off_diagonal(m):
    return m[:, ~np.eye(m.shape[-1], dtype=bool)]


class TestJointDiagonalize:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_commuting_stack_is_diagonalized(self, d, seed):
        mats = commuting_stack(d, seed)
        u, residual, _ = joint_diagonalize(mats)
        assert residual <= 1e-20
        rotated = np.einsum("ak,mab,bl->mkl", u.conj(), mats, u)
        assert np.max(np.abs(off_diagonal(rotated))) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_degenerate_commuting_stack_converges(self, d):
        # every rotation inside the shared eigenspace is equally good
        v = haar_unitary(d, 9)
        mats = np.array([v @ np.diag([1.0] * (d - 1) + [2.0]) @ dag(v), np.eye(d)])
        u, residual, sweeps = joint_diagonalize(mats, haar_unitary(d, 10))
        assert residual <= 1e-20
        assert sweeps <= 5

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])
    @pytest.mark.parametrize("rank", ["full", 2])
    def test_result_is_unitary_and_residual_is_distance(self, dims, rank):
        d = dims[0] * dims[1]
        state = BipartiteState(random_density(d, d if rank == "full" else 2, d), *dims)
        for start in (None, haar_unitary(dims[0], 3)):
            u, residual, _ = joint_diagonalize(_a_components(state.rho, dims), start)
            assert np.linalg.norm(dag(u) @ u - np.eye(dims[0])) <= 1e-12
            diff = state.rho - measured_state(state, u).rho
            assert abs(residual - float(np.sum(np.abs(diff) ** 2))) <= 1e-12

    @pytest.mark.parametrize("root", [False, True], ids=["rho", "sqrt-rho"])
    def test_non_commuting_stack_stops_at_working_precision(self, root):
        # Jacobi converges only linearly here: with the sine rule alone these
        # searches took 413-469 sweeps for a residual no better than this.
        rho = random_density(12, 2, 14)
        if root:
            vals, vecs = np.linalg.eigh(rho)
            rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dag(vecs)
        mats = _a_components(rho, (4, 3))
        objective = lambda u: off_diagonal_mass_and_gradient(mats, u)
        cfg = OptimizerConfig(restarts=4, tolerance=1e-14)
        floor = optimize_basis(objective, random_start(4, 0), config=cfg)
        for start in (None, haar_unitary(4, 1), haar_unitary(4, 2)):
            _, residual, sweeps = joint_diagonalize(mats, start)
            assert sweeps <= 300
            assert residual - floor.best_value <= 1e-13

    def test_repeated_calls_are_bit_identical(self):
        mats = _a_components(random_density(9, 9, 1), (3, 3))
        start = haar_unitary(3, 2)
        first, second = joint_diagonalize(mats, start), joint_diagonalize(mats, start)
        assert np.array_equal(first[0], second[0])
        assert first[1:] == second[1:]

    def test_start_is_not_modified(self):
        start = haar_unitary(3, 2)
        kept = start.copy()
        joint_diagonalize(_a_components(random_density(9, 9, 1), (3, 3)), start)
        assert np.array_equal(start, kept)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            joint_diagonalize(np.eye(3))
        with pytest.raises(ShapeError):
            joint_diagonalize(commuting_stack(3, 0), np.eye(2))


class TestRequireUnitary:
    def test_returns_the_unitary_as_a_complex_array(self):
        u = haar_unitary(3, 1)
        np.testing.assert_array_equal(require_unitary(u, 3), u)
        real = require_unitary(np.eye(2), 2)
        assert real.dtype == complex
        np.testing.assert_array_equal(real, np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (2,), (2, 2, 2)])
    def test_wrong_shape_raises_shape_error(self, shape):
        # checked before orthonormality: none of these could pass that check
        with pytest.raises(ShapeError, match="start"):
            require_unitary(np.ones(shape), 2, "start")

    def test_non_orthonormal_columns_raise(self):
        with pytest.raises(OrthonormalityError, match="basis"):
            require_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, "basis")

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)])
    def test_columns_must_form_a_2d_array(self, shape):
        with pytest.raises(ShapeError, match="a_basis must be a 2-d array"):
            require_orthonormal_columns(np.ones(shape), "a_basis")

    # Every public function that takes a basis of party a checks it the same way.
    CALLERS = {
        "total_mfi": lambda state, u: total_mfi(state, u),
        "measured_state": lambda state, u: measured_state(state, u),
    }

    @pytest.mark.parametrize("caller", CALLERS)
    def test_callers_reject_a_wrong_shape(self, caller):
        state = BipartiteState(random_density(6, 6, 1), 2, 3)
        with pytest.raises(ShapeError):
            self.CALLERS[caller](state, np.eye(3))
        with pytest.raises(ShapeError):
            self.CALLERS[caller](state, np.eye(2)[:, :1])

    @pytest.mark.parametrize("caller", CALLERS)
    def test_callers_reject_non_orthonormal_columns(self, caller):
        state = BipartiteState(random_density(6, 6, 1), 2, 3)
        with pytest.raises(OrthonormalityError):
            self.CALLERS[caller](state, np.array([[1.0, 0.5], [0.0, 1.0]]))
