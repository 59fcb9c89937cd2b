"""Quantum-Fisher machinery tests: SLD forms, intrinsic interferometric
power, classical-quantum detection, two-qubit invariants, bound checks."""

import tracemalloc
from dataclasses import astuple, is_dataclass

import numpy as np
import pytest

from chiralkit import chirality as ch
from chiralkit import correlations as co
from chiralkit.qmat import (
    DensityMatrix,
    Partition,
    ShapeMismatchError,
    StateInvariantError,
    bipartition,
    conjugate,
    matrix_log_on_support,
    partial_trace,
    pure_state_density,
    uhlmann_fidelity,
)
from chiralkit.sampling import (
    haar_unitary,
    random_mixed_state,
    random_mixed_states,
    random_pure_state,
    random_two_qubit_maximally_mixed,
    split_rng,
)
from chiralkit.states import chiral_qutrit_qubit, commuting_chiral_qudit_qubit
from support import bell_state, embed_operator

SPLIT = bipartition([0], [1])


def rho_rand(dims, seed, stream=0):
    return random_mixed_state(dims, split_rng(seed, stream))


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def qfi_commutator_oracle(rho, h):
    """-Tr([H, rho] R^{-1}([H, rho])) with R^{-1} applied by sld_apply: the
    commutator form of the QFI, one rotation more than the eigenbasis sum."""
    c = h @ rho.data - rho.data @ h
    return float(np.real(-np.trace(c @ co.sld_apply(rho, c))))


def random_cq_state(seed, d_a=3, d_b=2):
    """sum_i p_i |i><i| (x) rho_i with a random basis and distinct weights."""
    rng = split_rng(seed, 0)
    basis = haar_unitary(d_a, rng)
    probs = np.sort(rng.dirichlet(np.ones(d_a)))
    while np.diff(probs).min() < 1e-3:
        probs = np.sort(rng.dirichlet(np.ones(d_a)))
    data = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i in range(d_a):
        proj = np.outer(basis[:, i], basis[:, i].conj())
        data += probs[i] * np.kron(proj, random_mixed_state((d_b,), rng).data)
    return DensityMatrix((d_a, d_b), data)


class TestSLD:
    def test_defining_equation(self):
        rho = rho_rand((2, 2), 80)
        op = random_hermitian(4, split_rng(80, 1))
        r = co.sld_apply(rho, op)
        assert np.linalg.norm(r @ rho.data + rho.data @ r - 2 * op) < 1e-9

    def test_maximally_mixed_scales(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        op = random_hermitian(4, split_rng(81, 0))
        assert np.allclose(co.sld_apply(rho, op), 4 * op)

    def test_state_maps_to_identity_on_support(self):
        rho = rho_rand((2, 2), 82)
        assert np.allclose(co.sld_apply(rho, rho.data), np.eye(4), atol=1e-10)

    def test_integral_form_agrees(self):
        rho = rho_rand((2, 2), 83)
        op = random_hermitian(4, split_rng(83, 1))
        err = np.linalg.norm(co.sld_integral_form(rho, op) - co.sld_apply(rho, op))
        assert err < 1e-6

    def test_integral_form_diagonal_case(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        rho = DensityMatrix((2, 2), np.diag(p).astype(complex))
        op = np.diag([1.0, -0.5, 2.0, 0.25]).astype(complex)
        got = co.sld_integral_form(rho, op)
        assert np.allclose(np.diag(got), np.diag(op) / p, atol=1e-8)
        got_inv = co.sld_integral_form(rho, np.eye(4))
        assert np.allclose(got_inv, np.diag(1.0 / p), atol=1e-8)

    def test_integral_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="full-rank"):
            co.sld_integral_form(chiral_qutrit_qubit(), np.eye(6))

    def test_integral_form_matches_one_shot_kernel(self):
        # the panel-by-panel kernel equals the whole (nodes, d^2) phase tensor
        rho = rho_rand((2, 3), 84)
        op = random_hermitian(6, split_rng(84, 1))
        p, v = np.linalg.eigh(rho.data)
        delta = np.log(p)[:, None] - np.log(p)[None, :]
        nodes, weights = co.gauss_legendre_panels(8.0, 256)
        sech = 1.0 / np.cosh(np.pi * nodes)
        kernel = np.tensordot(weights * sech, np.exp(1j * np.outer(nodes, delta.ravel())), axes=(0, 0))
        ob = v.conj().T @ op @ v
        oracle = v @ (ob * kernel.reshape(delta.shape) / np.sqrt(np.outer(p, p))) @ v.conj().T
        assert np.max(np.abs(co.sld_integral_form(rho, op) - oracle)) <= 1e-13

    def test_integral_form_memory(self):
        # the one-shot phase tensor would be (2048, 64^2) complex, 128 MiB
        rho = rho_rand((8, 8), 85)
        op = random_hermitian(64, split_rng(85, 1))
        tracemalloc.start()
        try:
            co.sld_integral_form(rho, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_sech_weight_normalization(self):
        # the quadrature machinery integrates sech(pi s) to 1
        nodes, weights = co.gauss_legendre_panels(8.0, 64)
        assert np.sum(weights / np.cosh(np.pi * nodes)) == pytest.approx(1.0, abs=1e-10)


class TestQFI:
    def test_commuting_generator(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        h = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        assert abs(co.qfi(rho, h)) < 1e-12

    def test_pure_state_is_four_variances(self):
        psi = random_pure_state(4, split_rng(84, 0))
        rho = pure_state_density((2, 2), psi)
        h = random_hermitian(4, split_rng(84, 1))
        var = np.real(psi.conj() @ h @ h @ psi - (psi.conj() @ h @ psi) ** 2)
        assert co.qfi(rho, h) == pytest.approx(4 * var, abs=1e-9)

    def test_against_double_sum_oracle(self):
        rho = rho_rand((2, 2), 85)
        h = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        w, v = np.linalg.eigh(rho.data)
        hb = v.conj().T @ h @ v
        oracle = 0.0
        for j in range(4):
            for k in range(4):
                if w[j] + w[k] > 1e-12:
                    oracle += 2 * (w[j] - w[k]) ** 2 / (w[j] + w[k]) * abs(hb[j, k]) ** 2
        assert co.qfi(rho, h) == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative(self):
        for i in range(20):
            rho = rho_rand((2, 2), 86, i)
            h = random_hermitian(4, split_rng(86, 100 + i))
            assert co.qfi(rho, h) >= -1e-10

    def test_conjugation_covariance(self):
        rho = rho_rand((2, 2), 87)
        h = random_hermitian(4, split_rng(87, 1))
        u = haar_unitary(4, split_rng(87, 2))
        rot = DensityMatrix((2, 2), u @ rho.data @ u.conj().T)
        assert co.qfi(rot, u @ h @ u.conj().T) == pytest.approx(co.qfi(rho, h), abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_commutator_oracle(self, dims):
        for i in range(10):
            rho = rho_rand(dims, 88, i)
            h = random_hermitian(rho.dim, split_rng(88, 100 + i))
            assert co.qfi(rho, h) == pytest.approx(qfi_commutator_oracle(rho, h), rel=1e-12)
        pure = pure_state_density(dims, random_pure_state(rho.dim, split_rng(88, 200)))
        h = random_hermitian(rho.dim, split_rng(88, 201))
        assert co.qfi(pure, h) == pytest.approx(qfi_commutator_oracle(pure, h), rel=1e-12)

    def test_modular_generator_gives_intrinsic_ip(self):
        for i in range(5):
            rho = rho_rand((2, 3), 89, i)
            k_a = -matrix_log_on_support(partial_trace(rho, [0]))
            value = co.qfi(rho, embed_operator(k_a, rho.dims, [0]))
            assert value == pytest.approx(co.intrinsic_ip(rho, SPLIT, "A"), rel=1e-12)

    def test_rejects_non_hermitian_generator(self):
        rho = rho_rand((2, 2), 90)
        h = random_hermitian(4, split_rng(90, 1)) + 1e-6j * np.eye(4)
        with pytest.raises(StateInvariantError, match="not Hermitian"):
            co.qfi(rho, h)


class TestIntrinsicIP:
    def test_zero_on_block_state(self):
        assert abs(co.intrinsic_ip(chiral_qutrit_qubit(), SPLIT, "A")) < 1e-9

    def test_zero_on_maximally_entangled(self):
        assert abs(co.intrinsic_ip(bell_state(), SPLIT, "A")) < 1e-9

    def test_pure_state_reduces_to_modular_variance(self):
        psi = random_pure_state(4, split_rng(88, 0))
        rho = pure_state_density((2, 2), psi)
        marg = partial_trace(rho, [0])
        k = -matrix_log_on_support(marg)
        mean = np.real(np.trace(marg.data @ k))
        var = np.real(np.trace(marg.data @ k @ k)) - mean**2
        assert co.intrinsic_ip(rho, SPLIT, "A") == pytest.approx(4 * var, abs=1e-8)

    def test_local_unitary_invariance(self):
        rho = rho_rand((2, 2), 89)
        rng = split_rng(89, 1)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rot = DensityMatrix((2, 2), u @ rho.data @ u.conj().T)
        assert co.intrinsic_ip(rot, SPLIT, "A") == pytest.approx(
            co.intrinsic_ip(rho, SPLIT, "A"), abs=1e-9
        )

    def test_zero_on_detected_cq_states(self):
        for i in range(10):
            rho = random_cq_state(90 + i)
            dec, reason = co.is_classical_quantum(rho, SPLIT, "A")
            assert dec is not None, reason
            assert abs(co.intrinsic_ip(rho, SPLIT, "A")) < 1e-9

    def test_bures_limit_consistency(self):
        # second-order response of the fidelity distance under the modular
        # flow, calibrated once on a pure state; the constant is reported by
        # the calibration, not assumed. The step is chosen large enough that
        # the ~1e-8 accuracy floor of the fidelity does not drown the signal.
        def fd_estimate(rho, split, h=1e-2):
            group = split.groups[0]
            k_a = embed_operator(-matrix_log_on_support(partial_trace(rho, group)), rho.dims, group)
            evals, evecs = np.linalg.eigh(k_a)
            u = (evecs * np.exp(1j * h * evals)) @ evecs.conj().T
            plus = DensityMatrix(rho.dims, u @ rho.data @ u.conj().T)
            minus = DensityMatrix(rho.dims, u.conj().T @ rho.data @ u)
            dist2 = 2 * (1 - np.sqrt(max(uhlmann_fidelity(plus, minus), 0.0)))
            return dist2 / (2 * h) ** 2

        psi = random_pure_state(4, split_rng(91, 0))
        pure = pure_state_density((2, 2), psi)
        calib = co.intrinsic_ip(pure, SPLIT, "A") / fd_estimate(pure, SPLIT)
        # reported constant: QFI = 4 x the Bures second-order response
        assert calib == pytest.approx(4.0, rel=2e-2)
        for i in range(3):
            rho = rho_rand((2, 2), 92, i)
            est = calib * fd_estimate(rho, SPLIT)
            assert co.intrinsic_ip(rho, SPLIT, "A") == pytest.approx(est, rel=2e-2, abs=1e-6)


def cq_sum(dec):
    """sum_i p_i |i><i| (x) rho_i: the state a decomposition of the first
    party describes."""
    return sum(p * np.kron(np.outer(b, b.conj()), cond)
               for p, b, cond in zip(dec.probabilities, dec.basis.T, dec.conditional_states))


class TestClassicalQuantumDetection:
    def test_block_state_decomposition(self):
        dec, reason = co.is_classical_quantum(chiral_qutrit_qubit(), SPLIT, "A")
        assert dec is not None and reason == "classical-quantum"
        assert sorted(np.round(dec.probabilities, 10)) == [0.2, 0.3, 0.5]
        # conditional states are the pure qubit projectors of the construction
        from chiralkit.states import CHIRAL_TRIPLE

        by_prob = dict(zip(np.round(dec.probabilities, 10), dec.conditional_states))
        for p, b in zip((0.5, 0.3, 0.2), CHIRAL_TRIPLE):
            assert np.max(np.abs(by_prob[p] - np.outer(b, b.conj()))) < 1e-9

    def test_reconstruction(self):
        rho = random_cq_state(93)
        dec, _ = co.is_classical_quantum(rho, SPLIT, "A")
        assert np.max(np.abs(cq_sum(dec) - rho.data)) < 1e-9

    def test_bell_undecided_degenerate(self):
        dec, reason = co.is_classical_quantum(bell_state(), SPLIT, "A")
        assert dec is None and "degenerate" in reason

    def test_maximally_mixed_undecided(self):
        # every spectrum is flat: the state commutes, the marginal is degenerate
        dec, reason = co.is_classical_quantum(DensityMatrix((2, 3), np.eye(6) / 6), SPLIT, "A")
        assert dec is None and "degenerate marginal" in reason

    def test_degenerate_joint_spectrum_nondegenerate_marginal(self):
        # diag(0.3, 0.3, 0.2, 0.2): a doubly degenerate state whose A marginal
        # (0.6, 0.4) is not, so the blocks are well defined
        rho = DensityMatrix((2, 2), np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
        dec, reason = co.is_classical_quantum(rho, SPLIT, "A")
        assert reason == "classical-quantum"
        assert sorted(np.round(dec.probabilities, 12)) == [0.4, 0.6]
        assert np.max(np.abs(cq_sum(dec) - rho.data)) < 1e-12
        dec_b, reason_b = co.is_classical_quantum(rho, SPLIT, "B")
        assert dec_b is None and "degenerate marginal" in reason_b

    def test_generic_state_noncommuting(self):
        dec, reason = co.is_classical_quantum(rho_rand((2, 2), 94), SPLIT, "A")
        assert dec is None and "noncommuting" in reason

    def test_faithfulness_direction(self):
        # any random state with nondegenerate marginal and vanishing intrinsic
        # IP must be detected; constructed CQ states exercise the branch
        hits = 0
        for i in range(100):
            rho = random_cq_state(95 + i) if i % 2 == 0 else rho_rand((2, 2), 950 + i)
            marg = partial_trace(rho, [0])
            gaps = np.diff(marg.eigenvalues())
            if gaps.min() <= 1e-8:
                continue
            if co.intrinsic_ip(rho, SPLIT, "A") < 1e-10:
                dec, reason = co.is_classical_quantum(rho, SPLIT, "A")
                assert dec is not None, reason
                hits += 1
        assert hits >= 50  # the constructed half must all be detected


class TestMarginalGapRule:
    # diag(a) (x) I/3 with a = (1 - g, 1 + g)/2: the qubit marginal has gap g
    # and the qutrit marginal is exactly degenerate
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_both_tests_read_one_rule(self, factor):
        g = factor * co.GAP_TOL
        a = np.array([1.0 - g, 1.0 + g]) / 2.0
        rho = DensityMatrix((2, 3), np.diag(np.kron(a, np.ones(3) / 3)).astype(complex))
        dec, reason = co.is_classical_quantum(rho, SPLIT, "A")
        v = co.noncommutativity_verdict(rho, SPLIT)
        nondegenerate = factor > 1.0
        assert (dec is not None) is nondegenerate, reason
        assert (v.verdict == "nonchiral-certified") is nondegenerate, v.reason
        assert v.condition == (2 if nondegenerate else None)


def bits(value):
    """value with every float and array as its bytes, so == compares bits."""
    if is_dataclass(value):
        return type(value).__name__, bits(astuple(value))
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (float, np.ndarray)):
        return np.shape(value), np.asarray(value).tobytes()
    return value


class TestMarginalTest:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 8)])
    def test_one_eigh_with_the_partial_trace_bits(self, monkeypatch, dims):
        # the verdicts test each reduced state on the one eigh the modular
        # set made of it, which has the bits of decomposing partial_trace's
        # state; the reduced states are not re-checked
        rho = rho_rand(dims, 96)
        oracle = [partial_trace(rho, [g]).eig() for g in (0, 1)]
        calls = []

        def spy(name):
            fn = getattr(np.linalg, name)
            return lambda a, *r, **k: calls.append((name, np.shape(a))) or fn(a, *r, **k)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        co.noncommutativity_verdict(rho, SPLIT)
        d = int(np.prod(dims))
        assert calls == [("eigh", (dims[0],) * 2), ("eigh", (dims[1],) * 2), ("eigh", (d, d))]
        calls.clear()
        for party in ("A", "B"):
            co.is_classical_quantum(rho, SPLIT, party)
        assert calls == []
        for dec, want in zip(ch.modular_set(rho, SPLIT).marginal_decs, oracle):
            assert np.array_equal(dec.eigenvalues, want.eigenvalues)
            assert np.array_equal(dec.eigenvectors, want.eigenvectors)

    CALLS = {
        "is_classical_quantum": lambda rho: co.is_classical_quantum(rho, SPLIT, "A"),
        "noncommutativity_verdict": lambda rho: co.noncommutativity_verdict(rho, SPLIT),
        "intrinsic_ip_A": lambda rho: co.intrinsic_ip(rho, SPLIT, "A"),
        "intrinsic_ip_B": lambda rho: co.intrinsic_ip(rho, SPLIT, "B"),
        "measure_report": lambda rho: ch.measure_report(rho, SPLIT),
        "check_gamma_qfi_bound": lambda rho: co.check_gamma_qfi_bound(rho, SPLIT),
    }

    @pytest.mark.parametrize("make,detected", [(lambda: rho_rand((3, 2), 97), False),
                                               (lambda: random_cq_state(97), True)],
                             ids=["noncommuting", "classical_quantum"])
    def test_verdicts_and_measures_share_three_eighs(self, monkeypatch, make, detected):
        # the verdicts, both intrinsic IPs, the measure report and the bound
        # check on one fresh state decompose rho and each marginal once, and
        # each returns the bits of the same call on a fresh copy
        rho = make()
        alone = {name: bits(call(DensityMatrix(rho.dims, rho.data))) for name, call in self.CALLS.items()}
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: shapes.append(np.shape(a)) or eigh(a, *r, **k))
        shared = {name: bits(call(rho)) for name, call in self.CALLS.items()}
        assert shapes == [(3, 3), (2, 2), (6, 6)]
        assert shared == alone
        assert (alone["is_classical_quantum"][0] is not None) is detected


class TestMakhlin:
    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert np.allclose(co.makhlin_invariants(rho), (0.0, 0.0, 0.0), atol=1e-12)

    def test_werner_hand_values(self):
        # beta = diag(q/4, -q/4, q/4): det = -q^3/64, Tr = 3q^2/16, Tr^2 = 3q^4/256
        q = 0.5
        rho = DensityMatrix((2, 2), (1 - q) * np.eye(4) / 4 + q * bell_state().data)
        i1, i2, i3 = co.makhlin_invariants(rho)
        assert i1 == pytest.approx(-0.001953125, abs=1e-12)
        assert i2 == pytest.approx(0.046875, abs=1e-12)
        assert i3 == pytest.approx(0.000732421875, abs=1e-12)

    def test_invariant_under_conjugation(self):
        for i in range(10):
            rho = random_two_qubit_maximally_mixed(split_rng(96, i))
            a = co.makhlin_invariants(rho)
            b = co.makhlin_invariants(conjugate(rho))
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10

    def test_rejects_biased_marginals(self):
        with pytest.raises(ValueError, match="maximally mixed"):
            co.makhlin_invariants(rho_rand((2, 2), 97))


class TestVerdicts:
    def test_classical_state_condition_one(self):
        probs = split_rng(98, 0).dirichlet(np.ones(4)).reshape(2, 2)
        # guard against accidental marginal degeneracy in the fixed draw
        assert abs(probs.sum(1)[0] - probs.sum(1)[1]) > 1e-3
        rho = DensityMatrix((2, 2), np.diag(probs.ravel()).astype(complex))
        v = co.noncommutativity_verdict(rho, SPLIT)
        assert v.verdict == "nonchiral-certified" and v.condition == 1

    def test_two_qubit_condition_three(self):
        rho = random_two_qubit_maximally_mixed(split_rng(99, 0))
        v = co.noncommutativity_verdict(rho, SPLIT)
        assert v.verdict == "nonchiral-certified" and v.condition == 3

    def test_commuting_chiral_example_undecided(self):
        rho = commuting_chiral_qudit_qubit()
        v = co.noncommutativity_verdict(rho, SPLIT)
        assert v.verdict == "undecided"
        assert "degenerate" in v.reason

    def test_maximally_mixed_two_qubits_condition_three(self):
        # both marginals are I/2, so only the two-qubit invariants decide
        v = co.noncommutativity_verdict(DensityMatrix((2, 2), np.eye(4) / 4), SPLIT)
        assert v.verdict == "nonchiral-certified" and v.condition == 3

    def test_maximally_mixed_qutrits_undecided(self):
        v = co.noncommutativity_verdict(DensityMatrix((3, 3), np.eye(9) / 9), SPLIT)
        assert v.verdict == "undecided"
        assert v.reason == "commutators vanish but marginals are degenerate"

    def test_degenerate_state_with_one_nondegenerate_qubit(self):
        # diag(0.3, 0.3, 0.2, 0.2): marginals (0.6, 0.4) and (0.5, 0.5)
        rho = DensityMatrix((2, 2), np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
        v = co.noncommutativity_verdict(rho, SPLIT)
        assert v.verdict == "nonchiral-certified" and v.condition == 2

    def test_noncommuting_undecided(self):
        v = co.noncommutativity_verdict(rho_rand((2, 2), 100), SPLIT)
        assert v.verdict == "undecided" and "nonzero" in v.reason

    def test_rejects_more_than_two_groups(self):
        # the tripartite split of the marginal-commuting chiral state has
        # nondegenerate first two marginals; the verdict used to certify it
        rho = DensityMatrix((2, 2, 2), commuting_chiral_qudit_qubit().data)
        split = Partition(((0,), (1,), (2,)))
        message = "^expected a bipartition, got 3 groups$"
        with pytest.raises(ValueError, match=message):
            co.noncommutativity_verdict(rho, split)
        with pytest.raises(ValueError, match=message):
            co.modular_set(rho, split)

    def test_qubit_marginal_condition_two(self):
        # qubit x qutrit classical-quantum state with nondegenerate qubit
        # marginal but conditional states chosen to commute
        rng = split_rng(101, 0)
        d0 = np.sort(rng.dirichlet(np.ones(3)))
        d1 = np.sort(rng.dirichlet(np.ones(3)))
        data = np.zeros((6, 6), dtype=complex)
        data[:3, :3] = 0.7 * np.diag(d0)
        data[3:, 3:] = 0.3 * np.diag(d1)
        rho = DensityMatrix((2, 3), data)
        v = co.noncommutativity_verdict(rho, SPLIT)
        assert v.verdict == "nonchiral-certified"
        assert v.condition in (1, 2)


class TestGammaQfiBound:
    def test_product_state_trivial(self):
        from chiralkit.qmat import tensor_product

        prod = tensor_product(rho_rand((2,), 102), rho_rand((2,), 102, 1))
        rep = co.check_gamma_qfi_bound(prod, SPLIT)
        assert abs(rep.gamma) < 1e-10

    def test_random_states_hold(self):
        for i in range(100):
            rho = rho_rand((2, 2), 103, i)
            rep = co.check_gamma_qfi_bound(rho, SPLIT)
            assert min(rep.slack_a, rep.slack_b) >= -1e-8

    def test_regularized_block_state_trivially_consistent(self):
        eps = 1e-6
        raw = chiral_qutrit_qubit()
        rho = DensityMatrix(raw.dims, (1 - eps) * raw.data + eps * np.eye(6) / 6)
        rep = co.check_gamma_qfi_bound(rho, SPLIT)
        assert abs(rep.gamma) < 1e-9
        assert abs(rep.qfi_a) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 8)])
    def test_stack_matches_members(self, dims):
        # every field of every member has the bits of the single-state call,
        # and a single state's fields, min_slack included, are Python floats
        stack = random_mixed_states(dims, 104, range(4))
        rep = co.check_gamma_qfi_bound(stack, SPLIT)
        assert rep.min_slack.shape == (4,)
        for k in range(4):
            single = co.check_gamma_qfi_bound(DensityMatrix(dims, stack.data[k]), SPLIT)
            assert all(type(v) is float for v in astuple(single)) and type(single.min_slack) is float
            assert astuple(single) == tuple(v[k] for v in astuple(rep))
            assert single.min_slack == rep.min_slack[k]

    def test_violation_names_the_worst_member(self, monkeypatch):
        stack = random_mixed_states((2, 2), 105, range(6))
        worst = int(np.argmin(co.check_gamma_qfi_bound(stack, SPLIT).min_slack))
        monkeypatch.setattr(co, "GAMMA_QFI_TOL", -1.0)  # every slack now fails
        with pytest.raises(co.CorrelationBoundViolation, match=f"member {worst} of the stack") as info:
            co.check_gamma_qfi_bound(stack, SPLIT)
        assert repr(stack.data[worst].tolist()) in str(info.value)
        assert repr(stack.data[worst - 1].tolist()) not in str(info.value)
        with pytest.raises(co.CorrelationBoundViolation) as info:
            co.check_gamma_qfi_bound(DensityMatrix((2, 2), stack.data[0]), SPLIT)
        assert "member" not in str(info.value)

    @pytest.mark.parametrize("dims", [(1, 4), (4, 1)])
    def test_one_level_party(self, dims):
        # K_P = 0 on a one-level party: its c(d) term is 0, not c(1)
        rep = co.check_gamma_qfi_bound(rho_rand(dims, 106), SPLIT)
        assert rep.min_slack >= -co.GAMMA_QFI_TOL
        assert abs(rep.gamma) <= 1e-12

    def test_warm_set_reads_the_kept_scalars(self, monkeypatch):
        # after measure_report and both intrinsic IPs the bound check forms no
        # gamma and no |K_P|^2 table again
        rho = rho_rand((2, 3), 107)
        calls = []
        contraction, qfi_eigbasis = ch._gamma_contraction, co._qfi_eigbasis
        monkeypatch.setattr(ch, "_gamma_contraction", lambda ms: calls.append("gamma") or contraction(ms))
        monkeypatch.setattr(co, "_qfi_eigbasis", lambda p, h2: calls.append("qfi") or qfi_eigbasis(p, h2))
        ch.measure_report(rho, SPLIT)
        f_a, f_b = co.intrinsic_ip(rho, SPLIT, "A"), co.intrinsic_ip(rho, SPLIT, 1)
        rep = co.check_gamma_qfi_bound(rho, SPLIT)
        assert calls == ["gamma", "qfi", "qfi"]
        assert (rep.qfi_a, rep.qfi_b) == (f_a, f_b)

    def test_kept_stack_values_are_read_only(self):
        stack = random_mixed_states((2, 2), 108, range(3))
        rep = co.check_gamma_qfi_bound(stack, SPLIT)
        for value in (rep.gamma, rep.qfi_a, rep.log_moment_b):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0

    def test_c_of_d_values(self):
        assert co.log_moment_bound(2) == pytest.approx(0.563, abs=1e-3)
        assert co.log_moment_bound(3) == pytest.approx(np.log(3) ** 2, abs=1e-12)
        with pytest.raises(ValueError):
            co.log_moment_bound(1)


def oracle_project_simplex(y):
    """The per-vector sort-based projection onto the probability simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho_idx = np.nonzero(u - css / np.arange(1, len(y) + 1) > 0)[0][-1]
    theta = css[rho_idx] / (rho_idx + 1.0)
    return np.clip(y - theta, 0.0, None)


def oracle_simplex_entropy_max(d, starts, iters, seed):
    """simplex_entropy_max one start at a time: each Dirichlet start climbs
    on its own, and a start replaces the best only when its value is
    strictly larger. Returns (max, maximizer)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    floor = 1e-15
    best = 0.0
    best_x = np.ones(d) / d
    for _ in range(starts):
        x = rng.dirichlet(np.ones(d))
        step = 0.05
        for it in range(iters):
            if it == iters // 2:
                step = 0.005
            lx = np.log(np.clip(x, floor, 1.0))
            grad = lx**2 + 2.0 * lx
            x = oracle_project_simplex(x + step * grad)
            x = np.clip(x, floor, 1.0)
            x /= x.sum()
        lx = np.log(np.clip(x, floor, 1.0))
        val = float(np.sum(x * lx**2))
        if val > best:
            best, best_x = val, x
    return best, best_x


@pytest.mark.parametrize(
    "name,call",
    [
        ("sld_apply", lambda rho: co.sld_apply(rho, np.eye(4))),
        ("sld_integral_form", lambda rho: co.sld_integral_form(rho, np.eye(4))),
        ("qfi", lambda rho: co.qfi(rho, np.eye(4))),
        ("is_classical_quantum", lambda rho: co.is_classical_quantum(rho, SPLIT, "A")),
        ("makhlin_invariants", lambda rho: co.makhlin_invariants(rho)),
        ("noncommutativity_verdict", lambda rho: co.noncommutativity_verdict(rho, SPLIT)),
    ],
)
def test_single_state_functions_reject_stacks(name, call):
    # four members of dimension four, so a broadcast over the wrong axis
    # would run without an error
    rho = rho_rand((2, 2), 390)
    stack = DensityMatrix((2, 2), np.stack([rho.data] * 4))
    with pytest.raises(ShapeMismatchError, match=f"{name} takes a single state"):
        call(stack)


class TestSimplexEntropyMax:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_per_start_oracle_bit_for_bit(self, d):
        # the seed of selftest C8, fewer starts and steps to stay fast
        got, got_x = co.simplex_entropy_max(d, starts=25, iters=400, seed=808, return_argmax=True)
        want, want_x = oracle_simplex_entropy_max(d, starts=25, iters=400, seed=808)
        assert got == want
        assert np.array_equal(got_x, want_x)

    def test_rows_project_like_single_vectors(self):
        y = split_rng(809, 0).standard_normal((50, 6))
        rows = co._project_simplex(y)
        for got, row in zip(rows, y):
            assert np.array_equal(got, oracle_project_simplex(row))

    def test_d2(self):
        val, x = co.simplex_entropy_max(2, starts=40, iters=1500, return_argmax=True)
        assert val == pytest.approx(0.563, abs=1e-3)
        assert np.allclose(np.sort(x), [0.161, 0.839], atol=1e-3)

    def test_d3(self):
        assert co.simplex_entropy_max(3, starts=40, iters=1500) == pytest.approx(
            np.log(3) ** 2, abs=1e-3
        )

    def test_d8(self):
        assert co.simplex_entropy_max(8, starts=40, iters=1500) == pytest.approx(
            np.log(8) ** 2, abs=1e-3
        )

    def test_projection_helper(self):
        y = np.array([0.9, 0.6, -0.2])
        x = co._project_simplex(y)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(x >= 0)
        # projection of a simplex point is itself
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(co._project_simplex(p), p, atol=1e-12)
