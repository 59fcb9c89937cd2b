"""Matrix-substrate tests: worked examples plus the module invariants."""

import itertools

import numpy as np
import pytest

from chiralkit import qmat
from chiralkit.qmat import (
    DensityMatrix,
    Partition,
    ShapeMismatchError,
    StateInvariantError,
    apply_local,
    check_density,
    conjugate,
    matrix_log_on_support,
    partial_trace,
    partial_transpose,
    pure_state_density,
    purify,
    tensor_product,
    uhlmann_fidelity,
)
from chiralkit.io import state_document
from chiralkit.sampling import (
    haar_unitary,
    random_mixed_state,
    random_mixed_states,
    random_two_qubit_maximally_mixed,
    split_rng,
)
from chiralkit.stabilizer import random_stabilizer_group, stabilizer_state
from chiralkit.states import chiral_qutrit_qubit, purified_chiral_qutrit_qubit
from support import bell_state, embed_operator, imaginary_power, rank

Y = np.array([[0, -1j], [1j, 0]])
X = np.array([[0, 1], [1, 0]])
Z = np.array([[1, 0], [0, -1]])


def rho_rand(dims, seed, stream=0):
    return random_mixed_state(dims, split_rng(seed, stream))


def reconstruct(dec):
    """V diag(p) V†, member by member."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues[..., None, :]) @ v.swapaxes(-1, -2).conj()


class TestEig:
    def test_identity(self):
        dec = DensityMatrix((2,), np.eye(2) / 2).eig()
        assert np.allclose(dec.eigenvalues, [0.5, 0.5])
        assert np.allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2))

    def test_pauli_z(self):
        # (I + Z/2)/2, eigenvalues ascending
        dec = DensityMatrix((2,), (np.eye(2) + Z / 2) / 2).eig()
        assert np.allclose(dec.eigenvalues, [0.25, 0.75])

    def test_half_identity_plus_y(self):
        # closed form: eigenvalues of (I+Y)/2 are (1 +- 1)/2
        dec = DensityMatrix((2,), (np.eye(2) + Y) / 2).eig()
        assert np.allclose(dec.eigenvalues, [0, 1], atol=1e-12)

    def test_reconstruction_and_determinism(self):
        rho = rho_rand((2, 3), 1)
        d1, d2 = rho.eig(), rho.eig()
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        assert np.linalg.norm(reconstruct(d1) - rho.data) < 1e-9 * np.linalg.norm(rho.data)

    def test_rejects_non_hermitian(self):
        # the gate qfi puts on a generator
        with pytest.raises(StateInvariantError, match="not Hermitian"):
            qmat.require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestLogOnSupport:
    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert np.allclose(matrix_log_on_support(rho), np.log(0.25) * np.eye(4))

    def test_pure_state_is_zero_on_support(self):
        rho = pure_state_density((2,), [1, 0])
        assert np.allclose(matrix_log_on_support(rho), np.zeros((2, 2)))

    def test_diagonal(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(matrix_log_on_support(rho), np.diag(np.log([0.75, 0.25])))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_exp_round_trip(self, dims):
        rho = rho_rand(dims, 2, dims[1])
        evals, evecs = np.linalg.eigh(matrix_log_on_support(rho))
        back = (evecs * np.exp(evals)) @ evecs.conj().T
        assert np.linalg.norm(back - rho.data) < 1e-9


class TestImaginaryPower:
    """The oracle of the flow kernels (support.imaginary_power) checked on
    its own."""

    def test_s_zero(self):
        rho = rho_rand((2, 2), 3)
        assert np.allclose(imaginary_power(rho, 0.0), np.eye(4))

    def test_diagonal_formula(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        expected = np.exp(1j * np.log(0.5)) * np.eye(2)
        assert np.allclose(imaginary_power(rho, 1.0), expected)

    def test_group_property(self):
        rho = rho_rand((2, 2), 4)
        u = imaginary_power(rho, 0.37)
        v = imaginary_power(rho, -0.37)
        assert np.allclose(u @ v, np.eye(4), atol=1e-9)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-9


class TestTensorAndTrace:
    def test_tensor_identity(self):
        half = DensityMatrix((2,), np.eye(2) / 2)
        assert np.allclose(tensor_product(half, half).data, np.eye(4) / 4)

    def test_tensor_basis_states(self):
        p0 = pure_state_density((2,), [1, 0])
        p1 = pure_state_density((2,), [0, 1])
        out = tensor_product(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.allclose(out.data, expected)

    def test_tensor_spectrum_is_outer_product(self):
        a, b = rho_rand((2,), 5), rho_rand((2,), 5, 1)
        got = np.sort(tensor_product(a, b).eigenvalues())
        want = np.sort(np.outer(a.eigenvalues(), b.eigenvalues()).ravel())
        assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 8)])
    def test_stack_matches_members(self, dims):
        # each member has the bits of np.kron on its pair; a single state
        # broadcasts against a stack
        d_a, d_b = dims
        a = random_mixed_states((d_a,), 8, range(5))
        b = random_mixed_states((d_b,), 9, range(5))
        prod = tensor_product(a, b)
        assert prod.dims == dims and prod.data.shape == (5, d_a * d_b, d_a * d_b)
        for k in range(5):
            assert np.array_equal(prod.data[k], np.kron(a.data[k], b.data[k]))
        single = DensityMatrix((d_a,), a.data[0])
        assert np.array_equal(tensor_product(single, b).data[3], np.kron(a.data[0], b.data[3]))

    def test_partial_trace_product(self):
        a, b = rho_rand((2, 2), 6), rho_rand((3,), 6, 1)
        joint = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(joint, [0, 1]).data - a.data)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, [2]).data - b.data)) < 1e-12

    def test_partial_trace_bell(self):
        assert np.allclose(partial_trace(bell_state(), [0]).data, np.eye(2) / 2)

    def test_partial_trace_purification_recovers_block_state(self):
        # tracing the purifying qutrit recovers the chiral block state
        psi, dims = purified_chiral_qutrit_qubit((0.5, 0.3, 0.2))
        full = pure_state_density(dims, psi)
        reduced = partial_trace(full, [0, 2])
        assert np.max(np.abs(reduced.data - chiral_qutrit_qubit((0.5, 0.3, 0.2)).data)) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="full trace"):
            partial_trace(bell_state(), [])

    def test_reduced_state_takes_the_parent_atol(self):
        # a state accepted at atol 1e-8 with trace 1 + 5e-9: its marginals
        # carry the same trace error and are not re-checked
        rho = DensityMatrix((2, 2), rho_rand((2, 2), 7).data * (1 + 5e-9), atol=1e-8)
        for keep in ([0], [1]):
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced.data) - np.trace(rho.data)) < 1e-15
            assert np.array_equal(reduced.data, reduced.data.conj().T)

    def test_product_of_states_accepted_at_a_looser_atol(self):
        # two factors accepted at atol 1e-8 with trace 1 + 5e-9: their
        # product, trace (1 + 5e-9)^2, is not re-checked at the default atol
        a = DensityMatrix((2,), random_mixed_states((2,), 41, range(3)).data * (1 + 5e-9), atol=1e-8)
        b = DensityMatrix((3,), random_mixed_states((3,), 42, range(3)).data * (1 + 5e-9), atol=1e-8)
        prod = tensor_product(a, b)
        for k in range(3):
            assert np.array_equal(prod.data[k], np.kron(a.data[k], b.data[k]))


class TestPartialTranspose:
    def test_product_spectrum_unchanged(self):
        a, b = rho_rand((2,), 7), rho_rand((2,), 7, 1)
        joint = tensor_product(a, b)
        pt = partial_transpose(joint, [1])
        assert np.allclose(np.linalg.eigvalsh(pt), np.sort(joint.eigenvalues()), atol=1e-10)

    def test_bell_min_eigenvalue(self):
        pt = partial_transpose(bell_state(), [1])
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12

    def test_involution(self):
        rho = rho_rand((2, 3), 8)
        assert np.allclose(partial_transpose(
            DensityMatrix(rho.dims, partial_transpose(rho, [1]), atol=1.0), [1]), rho.data)


class TestTraceNorm:
    def test_partial_transpose_trace_norm_at_least_one(self):
        for i in range(20):
            rho = rho_rand((2, 2), 10, i)
            assert np.linalg.norm(partial_transpose(rho, [1]), "nuc") >= 1 - 1e-12


class TestFidelity:
    def test_self(self):
        rho = rho_rand((2, 2), 11)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_and_mixed(self):
        p0 = pure_state_density((2,), [1, 0])
        p1 = pure_state_density((2,), [0, 1])
        half = DensityMatrix((2,), np.eye(2) / 2)
        assert uhlmann_fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)
        assert uhlmann_fidelity(p0, half) == pytest.approx(0.5, abs=1e-12)

    def test_pure_pure_is_squared_overlap(self):
        # the sqrt of clamped near-zero eigenvalues limits accuracy to ~1e-8
        rng = split_rng(12, 0)
        for _ in range(5):
            u = haar_unitary(4, rng)
            a, b = u[:, 0], u @ np.array([0.6, 0.8, 0, 0], dtype=complex)
            fa = uhlmann_fidelity(pure_state_density((4,), a), pure_state_density((4,), b))
            assert fa == pytest.approx(abs(np.vdot(a, b)) ** 2, abs=1e-7)

    def test_unitary_invariance(self):
        rho, sig = rho_rand((2, 2), 13), rho_rand((2, 2), 13, 1)
        rng = split_rng(13, 2)
        u = haar_unitary(4, rng)
        rot = lambda m: DensityMatrix((2, 2), u @ m.data @ u.conj().T)
        assert uhlmann_fidelity(rot(rho), rot(sig)) == pytest.approx(
            uhlmann_fidelity(rho, sig), abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            uhlmann_fidelity(rho_rand((2,), 14), rho_rand((3,), 14))


class TestPurify:
    def test_pure_input_has_trivial_ancilla(self):
        rho = pure_state_density((2, 2), [0.6, 0.8j, 0, 0])
        vec = purify(rho)
        assert vec.shape == (4,)
        assert rank(rho) == 1

    def test_maximally_mixed_qubit_gives_bell_type(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        vec = purify(rho).reshape(2, 2)
        schmidt = np.linalg.svd(vec, compute_uv=False)
        assert np.allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_round_trip(self):
        rho = rho_rand((2, 3), 15)
        r = rank(rho)
        full = pure_state_density(rho.dims + (r,), purify(rho))
        back = partial_trace(full, [0, 1])
        assert np.max(np.abs(back.data - rho.data)) < 1e-9

    def test_matches_reference_purification_up_to_ancilla_unitary(self):
        # both purifications of the block state reduce to the same marginal
        rho = chiral_qutrit_qubit((0.5, 0.3, 0.2))
        vec = purify(rho)
        mine = pure_state_density(rho.dims + (rank(rho),), vec)
        psi_ref, dims_ref = purified_chiral_qutrit_qubit((0.5, 0.3, 0.2))
        reordered = np.transpose(psi_ref.reshape(dims_ref), (0, 2, 1)).reshape(-1)
        ref = pure_state_density((3, 2, 3), reordered)  # A, B, ancilla order
        for state, keep in ((mine, [0, 1]), (ref, [0, 1])):
            assert np.max(np.abs(partial_trace(state, keep).data - rho.data)) < 1e-9


class TestConjugate:
    def test_real_fixed_point(self):
        rho = bell_state()
        assert np.allclose(conjugate(rho).data, rho.data)

    def test_y_flips(self):
        rho = DensityMatrix((2,), (np.eye(2) + Y) / 2)
        assert np.allclose(conjugate(rho).data, (np.eye(2) - Y) / 2)

    def test_involution_and_spectrum(self):
        rho = rho_rand((2, 3), 16)
        assert np.allclose(conjugate(conjugate(rho)).data, rho.data)
        assert np.allclose(conjugate(rho).eigenvalues(), rho.eigenvalues(), atol=1e-12)


class TestEmbedAndPartition:
    # the dense oracle of apply_local (support.embed_operator) checked on its own
    def test_embed_single_site(self):
        e = embed_operator(X, (2, 3), [0])
        assert np.allclose(e, np.kron(X, np.eye(3)))

    def test_embed_out_of_order(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 4.0]).astype(complex)
        e = embed_operator(np.kron(a, b), (2, 3, 2), [2, 0])
        assert np.allclose(e, np.kron(b, np.kron(np.eye(3), a)))

    # (dims, group): a trailing and a leading party, a reordered non-contiguous
    # group and its complement, and a party of dimension 1 with its partner
    LOCAL_CASES = [
        ((2, 2), (1,)),
        ((2, 2), (0,)),
        ((2, 3, 2), (2, 0)),
        ((2, 3, 2), (1,)),
        ((1, 4), (0,)),
        ((1, 4), (1,)),
    ]

    @staticmethod
    def _operands(dims, group, seed, batch=(), cols=None):
        rng = split_rng(seed, 0)
        ds = int(np.prod([dims[i] for i in group]))
        d = int(np.prod(dims))
        shape = batch + (d, cols or d)
        op = rng.normal(size=batch + (ds, ds)) + 1j * rng.normal(size=batch + (ds, ds))
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return op, m

    @pytest.mark.parametrize("dims,group", LOCAL_CASES)
    def test_apply_local_matches_dense_embedding(self, dims, group):
        op, m = self._operands(dims, group, 40)
        dense = embed_operator(op, dims, group) @ m
        assert np.max(np.abs(apply_local(op, dims, group, m) - dense)) <= 1e-14
        op, m = self._operands(dims, group, 41, cols=3)
        dense = embed_operator(op, dims, group) @ m
        assert np.max(np.abs(apply_local(op, dims, group, m) - dense)) <= 1e-14

    @pytest.mark.parametrize("dims,group", LOCAL_CASES)
    def test_apply_local_stack_matches_members(self, dims, group):
        op, m = self._operands(dims, group, 42, batch=(3,))
        out = apply_local(op, dims, group, m)
        assert out.shape == m.shape
        for i in range(3):
            assert np.max(np.abs(out[i] - apply_local(op[i], dims, group, m[i]))) <= 1e-14
            assert np.max(np.abs(out[i] - embed_operator(op[i], dims, group) @ m[i])) <= 1e-14

    def test_apply_local_rejects_wrong_operator(self):
        with pytest.raises(ShapeMismatchError):
            apply_local(np.eye(3), (2, 3), [0], np.eye(6))

    def test_partition_parse(self):
        part = Partition.parse("0,2|1")
        assert part.groups == ((0, 2), (1,))
        part.validate(3)
        with pytest.raises(ValueError, match="overlap"):
            Partition.parse("0,1|1")
        with pytest.raises(ValueError, match="cover"):
            Partition.parse("0|1").validate(3)


class TestDensityMatrixInvariants:
    def test_equality_and_hash_by_identity(self):
        # a dataclass __eq__ would compare the arrays and raise; states are
        # compared with `is`, so == and hash follow identity
        rho = rho_rand((2,), 17)
        twin = DensityMatrix(rho.dims, rho.data)
        assert rho == rho and rho != twin
        assert hash(rho) == object.__hash__(rho)
        assert len({rho, twin, rho}) == 2

    def test_rejects_bad_trace(self):
        with pytest.raises(StateInvariantError, match="trace"):
            DensityMatrix((2,), np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(StateInvariantError, match="negative eigenvalue"):
            DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0, 0.5]], dtype=complex)
        with pytest.raises(StateInvariantError, match="Hermitian"):
            DensityMatrix((2,), m)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.array([[0.5, 0.5], [0, 0.5]], dtype=complex), "not Hermitian"),
            (np.eye(2, dtype=complex), r"trace \(2\+0j\) differs from 1"),
            (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue -5.000e-01"),
        ],
    )
    def test_stack_rejects_one_bad_member(self, bad, message):
        good = rho_rand((2,), 18).data
        with pytest.raises(StateInvariantError, match=message):
            DensityMatrix((2,), np.stack([good, bad, good]))
        # the checks pass member by member on valid stacks
        assert DensityMatrix((2,), np.stack([good, good])).data.shape == (2, 2, 2)

    def test_stacked_partial_trace_and_transpose(self):
        members = [rho_rand((2, 3), 18, i) for i in range(3)]
        stack = DensityMatrix((2, 3), np.stack([m.data for m in members]))
        for keep in ([0], [1], [1, 0]):
            reduced = partial_trace(stack, keep)
            for i, m in enumerate(members):
                assert np.array_equal(reduced.data[i], partial_trace(m, keep).data)
        pt = partial_transpose(stack, [1])
        for i, m in enumerate(members):
            assert np.array_equal(pt[i], partial_transpose(m, [1]))

    def test_stacked_reconstruct_and_imaginary_power(self):
        # as many members as the dimension, so a broadcast over the wrong
        # axis would run without an error
        members = [rho_rand((2,), 18, i) for i in range(2)]
        stack = DensityMatrix((2,), np.stack([m.data for m in members]))
        dec = stack.eig()
        u = imaginary_power(stack, 0.3)
        for i, m in enumerate(members):
            assert np.array_equal(reconstruct(dec)[i], reconstruct(m.eig()))
            assert np.array_equal(u[i], imaginary_power(m, 0.3))

    @pytest.mark.parametrize(
        "name,call",
        [
            ("purify", lambda s, r: purify(s)),
            ("uhlmann_fidelity", lambda s, r: uhlmann_fidelity(s, r)),
            ("uhlmann_fidelity", lambda s, r: uhlmann_fidelity(r, s)),
            ("state_document", lambda s, r: state_document(s)),
        ],
    )
    def test_single_state_functions_reject_stacks(self, name, call):
        single = rho_rand((2,), 18)
        stack = DensityMatrix((2,), np.stack([single.data, single.data]))
        with pytest.raises(ShapeMismatchError, match=f"{name} takes a single state"):
            call(stack, single)

    @pytest.mark.parametrize("entry", [np.nan, complex(0.25, np.nan), np.inf], ids=["nan", "nan-imag", "inf"])
    def test_rejects_non_finite_entry(self, entry):
        # every comparison with NaN is false, so without this check a NaN
        # entry would pass the hermiticity, trace and eigenvalue tests
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = entry
        with pytest.raises(StateInvariantError, match=r"non-finite entry .* at index \(1, 1\)"):
            DensityMatrix((2, 2), m)
        good = rho_rand((2, 2), 18).data
        with pytest.raises(StateInvariantError, match=r"non-finite entry .* at index \(2, 1, 1\)"):
            DensityMatrix((2, 2), np.stack([good, good, m]))

    @pytest.mark.parametrize("atol", [np.nan, np.inf, -1.0])
    def test_bad_atol_is_a_value_error(self, atol):
        # not a failed check: NaN would pass every check and -1 fail every one
        for m in (np.eye(2) / 2, np.diag([2.0, -1.0])):
            with pytest.raises(ValueError, match="atol must be finite and non-negative") as info:
                DensityMatrix((2,), m, atol=atol)
            assert not isinstance(info.value, StateInvariantError)
        assert np.array_equal(DensityMatrix((2,), np.eye(2) / 2, atol=0.0).data, np.eye(2) / 2)

    def test_atol_is_not_kept(self):
        rho = DensityMatrix((2,), np.eye(2) / 2, atol=1e-6)
        assert not hasattr(rho, "atol") and not hasattr(DensityMatrix, "atol")
        assert not hasattr(partial_trace(bell_state(), [0]), "atol")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            DensityMatrix((2, 2), np.eye(2, dtype=complex) / 2)

    def test_data_read_only(self):
        rho = rho_rand((2,), 17)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 1.0

    def test_data_is_a_private_copy(self):
        m = rho_rand((2, 2), 17).data.copy()
        rho = DensityMatrix((2, 2), m)
        assert m.flags.writeable and rho.data is not m
        m[0, 0] = 0.5  # would break the trace if rho still read m
        assert np.trace(rho.data) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rho.data, DensityMatrix((2, 2), rho.data).data)


class TestDerivedStatesPassTheCheck:
    """The states the library derives from checked states or builds exactly
    are not re-checked (DensityMatrix._derived); the check they skip is
    their oracle here, at the default tolerances."""

    def test_partial_trace_every_keep_order(self):
        dims = (2, 3, 4)
        mixed = random_mixed_states(dims, 43, range(4))
        rng = split_rng(43, 100)
        psi = rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        pure = DensityMatrix(dims, psi[:, :, None] * psi[:, None, :].conj())
        rank_two = DensityMatrix(dims, 0.5 * (pure.data[0] + pure.data[1]))
        for r in (1, 2, 3):
            for keep in itertools.permutations(range(3), r):
                for rho in (mixed, pure, rank_two):
                    check_density(partial_trace(rho, keep).data)

    def test_conjugate_and_broadcast_tensor_product(self):
        a = random_mixed_states((2,), 44, range(5))
        b = random_mixed_states((3,), 45, range(5))
        check_density(conjugate(random_mixed_states((2, 3), 46, range(5))).data)
        check_density(tensor_product(a, b).data)
        check_density(tensor_product(a, DensityMatrix((3,), b.data[0])).data)
        column = DensityMatrix((2,), a.data[:2, None])
        assert tensor_product(column, b).data.shape == (2, 5, 6, 6)
        check_density(tensor_product(column, b).data)

    def test_stabilizer_states(self):
        rng = split_rng(47, 0)
        for n in range(1, 8):
            sizes = [0, n] + [None] * 28  # k = 0 and k = n, then random sizes
            for k in sizes:
                check_density(stabilizer_state(random_stabilizer_group(n, rng, k)).data)

    def test_samplers(self):
        check_density(random_mixed_state((2, 3), split_rng(48, 0)).data)
        check_density(random_mixed_states((4, 4), 48, range(20)).data)
        for i in range(20):
            check_density(random_two_qubit_maximally_mixed(split_rng(49, i)).data)

    def test_no_check_and_no_eigvalsh(self, monkeypatch):
        rho = random_mixed_states((2, 3), 50, range(3))
        group = random_stabilizer_group(4, split_rng(50, 1), 2)
        checks, eigvalsh_args = [], []
        monkeypatch.setattr(qmat, "check_density", lambda *a, **k: checks.append(1))
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k: eigvalsh_args.append(a) or eigvalsh(a, *r, **k))
        partial_trace(rho, [1])
        conjugate(rho)
        tensor_product(rho, rho)
        stabilizer_state(group)
        random_mixed_state((2, 2), split_rng(50, 2))
        random_mixed_states((2, 2), 50, range(4))
        assert checks == [] and eigvalsh_args == []
        # the maximally-mixed sampler's one eigvalsh per draw is its own
        # rejection test, and the last draw is the state it returns
        drawn = random_two_qubit_maximally_mixed(split_rng(50, 3))
        assert checks == [] and np.array_equal(eigvalsh_args[-1], drawn.data)
