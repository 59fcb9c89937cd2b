"""Stabilizer machinery tests: GF(2) solver against brute force, group
construction, conjugation solutions, monotone enumeration, magic bounds."""

import math

import numpy as np
import pytest

from chiralkit import stabilizer as st
from chiralkit.chirality import chiral_log_distance, pauli_log_distance
from chiralkit.qmat import Partition
from chiralkit.sampling import split_rng
from chiralkit.states import bell_state, ghz_vector, t_state_vector


class TestF2Solve:
    def test_single_equation_hand_case(self):
        sol = st.f2_solve(st.F2System((0b11,), (1,), 2))
        assert sol.feasible and sol.solution == 0b01
        assert sol.nullspace == (0b11,)
        assert sol.rank == 1

    def test_zero_system(self):
        sol = st.f2_solve(st.F2System((0, 0), (0, 0), 3))
        assert sol.feasible and sol.solution == 0
        assert len(sol.nullspace) == 3

    def test_infeasible(self):
        sol = st.f2_solve(st.F2System((0b1, 0b1), (0, 1), 1))
        assert not sol.feasible and sol.solution is None

    def test_against_exhaustive_enumeration(self):
        rng = split_rng(60, 0)
        for _ in range(10):
            rows = []
            while len(rows) < 3:
                cand = int(rng.integers(1, 64))
                if st.f2_rank(rows + [cand], 6) == len(rows) + 1:
                    rows.append(cand)
            rhs = tuple(int(b) for b in rng.integers(0, 2, 3))
            sol = st.f2_solve(st.F2System(tuple(rows), rhs, 6))
            brute = [
                v
                for v in range(64)
                if all(((v & row).bit_count() % 2) == b for row, b in zip(rows, rhs))
            ]
            assert sorted(sol.all_solutions()) == brute
            assert len(brute) == 1 << len(sol.nullspace)

    def test_independent_rows_always_feasible(self):
        rng = split_rng(61, 0)
        for _ in range(20):
            rows = []
            while len(rows) < 4:
                cand = int(rng.integers(1, 256))
                if st.f2_rank(rows + [cand], 8) == len(rows) + 1:
                    rows.append(cand)
            rhs = tuple(int(b) for b in rng.integers(0, 2, 4))
            assert st.f2_solve(st.F2System(tuple(rows), rhs, 8)).feasible


class TestPauliString:
    def test_label_round_trip(self):
        p = st.PauliString.from_label("XIZY")
        assert p.label == "XIZY"
        assert p.z_bits == (0, 0, 1, 1)
        assert p.x_bits == (1, 0, 0, 1)

    def test_matrix_matches_kron(self):
        p = st.PauliString.from_label("XY")
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(p.matrix(), np.kron(x, y))
        fac = p.factors()
        assert np.allclose(fac[0], x) and np.allclose(fac[1], y)

    def test_invalid_character(self):
        with pytest.raises(ValueError, match="invalid Pauli"):
            st.PauliString.from_label("XQ")


class TestStabilizerGroup:
    def test_anticommuting_rejected(self):
        with pytest.raises(ValueError, match="anticommute"):
            st.group_from_labels(["XI", "ZI"])

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            st.group_from_labels(["XX", "ZZ", "YY"])

    def test_too_many_generators_rejected(self):
        with pytest.raises(ValueError, match="cannot be independent"):
            st.group_from_labels(["X", "Z"], n=1)

    def test_tableau_round_trip(self):
        text = "+XX\n-ZZ"
        group = st.parse_tableau(text)
        assert group.to_tableau() == text
        assert group.signs == (0, 1)

    def test_unicode_minus_accepted(self):
        group = st.parse_tableau("−ZZ\n+XX")
        assert group.signs == (1, 0)


class TestStabilizerState:
    def test_empty_group_is_maximally_mixed(self):
        group = st.StabilizerGroup(2, (), (), ())
        rho = st.stabilizer_state(group)
        assert np.allclose(rho.data, np.eye(4) / 4)

    def test_bell(self):
        rho = st.stabilizer_state(st.group_from_labels(["XX", "ZZ"]))
        assert np.max(np.abs(rho.data - bell_state().data)) < 1e-12

    def test_ghz(self):
        rho = st.stabilizer_state(st.group_from_labels(["XXX", "ZZI", "IZZ"]))
        g = ghz_vector(3)
        assert np.max(np.abs(rho.data - np.outer(g, g.conj()))) < 1e-12

    def test_signs_select_other_basis_states(self):
        plus = st.stabilizer_state(st.group_from_labels(["ZZ", "XX"], signs=(0, 0)))
        minus = st.stabilizer_state(st.group_from_labels(["ZZ", "XX"], signs=(0, 1)))
        assert abs(np.trace(plus.data @ minus.data)) < 1e-12

    def test_idempotence_up_to_rank(self):
        rng = split_rng(62, 0)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            group = st.random_stabilizer_group(n, rng)
            rho = st.stabilizer_state(group)
            scale = 2.0 ** (n - group.k)
            assert np.max(np.abs(rho.data @ rho.data - rho.data / scale)) < 1e-10


class TestConjugationPauli:
    def test_bell_is_real(self):
        group = st.group_from_labels(["XX", "ZZ"])
        assert st.conjugation_pauli(group).label == "II"

    def test_single_y(self):
        sols = st.conjugation_pauli_set(st.group_from_labels(["Y"]))
        assert sorted(p.label for p in sols) == ["X", "Z"]

    def test_ghz_identity(self):
        group = st.group_from_labels(["XXX", "ZZI", "IZZ"])
        # zero Y count per generator means b = 0 and the identity solves it
        assert st.conjugation_pauli(group).label == "III"

    def test_every_solution_conjugates(self):
        rng = split_rng(63, 0)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            group = st.random_stabilizer_group(n, rng)
            rho = st.stabilizer_state(group)
            sols = st.conjugation_pauli_set(group)
            assert len(sols.nullspace_basis) == 2 * n - group.k
            for pauli in sols:
                q = pauli.matrix()
                assert np.linalg.norm(q @ rho.data @ q.conj().T - rho.data.conj()) < 1e-10

    def test_pure_case_solution_count(self):
        group = st.group_from_labels(["XX", "ZZ"])
        sols = st.conjugation_pauli_set(group)
        assert sols.count == 2**2  # 2^n solutions when k = n


class TestNullity:
    def test_stabilizer_states_have_zero(self):
        rng = split_rng(64, 0)
        for n in (1, 2, 3):
            psi = st.random_stabilizer_vector(n, rng)
            assert st.stabilizer_nullity(psi, n) == 0

    def test_t_state(self):
        assert st.stabilizer_nullity(t_state_vector(), 1) == 1

    def test_t_tensor_zero(self):
        psi = np.kron(t_state_vector(), np.array([1, 0], dtype=complex))
        assert st.stabilizer_nullity(psi, 2) == 1

    def test_tolerance_failure_reported(self):
        # weights tuned so one generator of the near-definite group falls
        # outside the tolerance while two stay inside: count = 3
        e = 2.6e-9
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[1], psi[2] = np.sqrt(1 - 2 * e), np.sqrt(e), np.sqrt(e)
        with pytest.raises(ValueError, match="not a power of two"):
            st.stabilizer_nullity(psi, 2)


class TestEnumerationAndFidelity:
    @pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
    def test_state_counts(self, n, count):
        assert len(st.pure_stabilizer_states(n)) == count

    def test_state_count_n4(self):
        assert len(st.pure_stabilizer_states(4)) == 36720

    def test_states_are_normalized_and_distinct(self):
        states = st.pure_stabilizer_states(2)
        norms = np.linalg.norm(states, axis=1)
        assert np.allclose(norms, 1, atol=1e-12)
        gram = np.abs(states.conj() @ states.T)
        np.fill_diagonal(gram, 0)
        assert np.max(gram) < 1 - 1e-8

    def test_stabilizer_input_gives_one(self):
        rng = split_rng(65, 0)
        psi = st.random_stabilizer_vector(3, rng)
        assert st.stabilizer_fidelity(psi, 3) == pytest.approx(1.0, abs=1e-10)

    def test_t_state_value(self):
        assert st.stabilizer_fidelity(t_state_vector(), 1) == pytest.approx(
            np.cos(np.pi / 8) ** 2, abs=1e-9
        )

    def test_zero_tensor_t(self):
        psi = np.kron(np.array([1, 0], dtype=complex), t_state_vector())
        assert st.stabilizer_fidelity(psi, 2) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)

    def test_matches_conjugated_enumeration(self):
        # the value conjugates psi; the oracle conjugates the enumeration
        from chiralkit.sampling import random_pure_state

        states = st.pure_stabilizer_states(4)
        for i in range(20):
            psi = random_pure_state(16, split_rng(67, i))
            oracle = float(np.max(np.abs(states.conj() @ psi) ** 2))
            assert abs(st.stabilizer_fidelity(psi, 4) - oracle) <= 1e-15

    def test_large_n_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="max 4"):
            st.stabilizer_fidelity(np.ones(32) / np.sqrt(32), 5)

    def test_monotones_invariant_under_pauli_conjugation(self):
        # Clifford-orbit spot check: conjugating by any Pauli string fixes both
        rng = split_rng(66, 0)
        from chiralkit.sampling import random_pure_state
        from chiralkit import _pauli

        psi = random_pure_state(4, rng)
        f0 = st.stabilizer_fidelity(psi, 2)
        nu0 = st.stabilizer_nullity(psi, 2)
        for z, x in ((1, 2), (3, 3), (0, 1)):
            rotated = _pauli.pauli_matrix(z, x, 2) @ psi
            assert st.stabilizer_fidelity(rotated, 2) == pytest.approx(f0, abs=1e-10)
            assert st.stabilizer_nullity(rotated, 2) == nu0


class TestStabilizerNonchirality:
    def test_log_distance_vanishes_any_partition(self):
        # mixed and pure stabilizer states, single-qubit partitions, warm
        # start from the solved conjugation Pauli
        rng = split_rng(67, 0)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            group = st.random_stabilizer_group(n, rng)
            rho = st.stabilizer_state(group)
            part = Partition(tuple((i,) for i in range(n)))
            warm = st.conjugation_pauli(group).factors()
            val, _ = chiral_log_distance(rho, part, restarts=3, seed=67, extra_inits=[warm])
            assert val < 1e-8

    def test_pauli_log_distance_vanishes(self):
        rng = split_rng(68, 0)
        for n in (2, 3):
            psi = st.random_stabilizer_vector(n, rng)
            assert pauli_log_distance(psi, n) < 1e-10


class TestMagicBounds:
    def test_stabilizer_state_saturates_at_zero(self):
        rng = split_rng(69, 0)
        psi = st.random_stabilizer_vector(2, rng)
        rep = st.verify_magic_bounds(psi, 2, restarts=5, seed=69)
        assert max(abs(v) for v in rep.chain) < 1e-7

    def test_stabilizer_chain_is_nonnegative_zero(self):
        # fidelities of stabilizer states can round above 1
        rng = split_rng(72, 0)
        for i in range(10):
            psi = st.random_stabilizer_vector(3, rng)
            rep = st.verify_magic_bounds(psi, 3, restarts=2, seed=i)
            for v in (rep.log_distance, rep.pauli_log_distance, rep.minus_two_log_fidelity):
                assert v >= 0.0 and math.copysign(1, v) == 1

    def test_t_tensor_t(self):
        psi = np.kron(t_state_vector(), t_state_vector())
        rep = st.verify_magic_bounds(psi, 2, restarts=5, seed=70)
        assert rep.pauli_log_distance < 1e-9
        assert rep.nullity == 2

    def test_random_state_chain(self):
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(8, split_rng(71, 0))
        rep = st.verify_magic_bounds(psi, 3, restarts=10, seed=71)
        assert rep.log_distance <= rep.pauli_log_distance + 1e-7
        assert rep.pauli_log_distance <= rep.nullity + 1e-7
        assert rep.pauli_log_distance <= rep.minus_two_log_fidelity + 1e-7
