"""Stabilizer machinery tests: GF(2) solver against brute force, group
construction, conjugation solutions, monotone enumeration, magic bounds."""

import importlib.util
import itertools
import math
import tracemalloc
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from chiralkit import _pauli
from chiralkit import stabilizer as st
from chiralkit.chirality import chiral_log_distance, pauli_log_distance, pauli_log_distance_detail
from chiralkit.qmat import Partition
from chiralkit.sampling import derive_seed, split_rng
from chiralkit.states import t_state_vector
from support import (
    bell_state,
    conjugation_oracle,
    f2_solve,
    generator,
    ghz_vector,
    i_power_table,
    phased_pauli_log_distance,
    phased_table,
    scalar_stabilizer_group,
    unpruned_nullity,
    unpruned_stabilizer_fidelity,
)


def oracle_maximal_isotropic_tableaux(n):
    """All rank-n reduced-row-echelon n x 2n GF(2) matrices whose rows
    mutually commute under the symplectic form (one canonical tableau per
    maximal stabilizer group). Rows are returned bit-packed [z | x << n]."""
    ncols = 2 * n
    out = []
    for pivots in itertools.combinations(range(ncols), n):
        free_pos = [(i, j) for i in range(n) for j in range(pivots[i] + 1, ncols) if j not in pivots]
        count = 1 << len(free_pos)
        mats = np.zeros((count, n, ncols), dtype=np.uint8)
        for i, c in enumerate(pivots):
            mats[:, i, c] = 1
        assignments = np.arange(count, dtype=np.uint64)
        for b, (i, j) in enumerate(free_pos):
            mats[:, i, j] = (assignments >> np.uint64(b)) & np.uint64(1)
        mz = mats[:, :, :n].astype(np.int16)
        mx = mats[:, :, n:].astype(np.int16)
        sym = (mz @ mx.transpose(0, 2, 1) + mx @ mz.transpose(0, 2, 1)) % 2
        good = ~np.any(sym, axis=(1, 2))
        weights = np.uint64(1) << np.arange(ncols, dtype=np.uint64)
        packed = (mats[good].astype(np.uint64) * weights).sum(axis=2)
        out.extend(tuple(int(v) for v in row) for row in packed)
    return out


@lru_cache(maxsize=None)
def oracle_pure_stabilizer_states(n):
    """Every canonical maximal tableau with every sign pattern: the n
    commuting generators are diagonalized together by one eigendecomposition
    of sum_i 3^i P_i (eigenvalues sum_i +-3^i are distinct); duplicates are
    dropped by the rounded projector."""
    dim = 1 << n
    mask = dim - 1
    seen = {}
    for rows in oracle_maximal_isotropic_tableaux(n):
        m = np.zeros((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            z_lsb, x_lsb = row & mask, row >> n
            # repack to the basis-index (qubit 0 = MSB) convention
            z = sum(((z_lsb >> j) & 1) << (n - 1 - j) for j in range(n))
            x = sum(((x_lsb >> j) & 1) << (n - 1 - j) for j in range(n))
            m += (3**i) * _pauli.pauli_matrix(z, x, n)
        _, vecs = np.linalg.eigh(m)
        for v in vecs.T:
            seen.setdefault(np.round(np.outer(v, v.conj()), 8).tobytes(), v)
    return np.array(list(seen.values()))


def same_state(a, b):
    """Two bit-generator states are equal, their arrays compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def fidelity_cases(n):
    """At least 50 states on n qubits: Haar states, the T product, states
    within 1e-3 of a stabilizer state, |+>^n and GHZ (ties, where the bound
    of the pruned loop is the overlap itself), near-ties, and every pure
    stabilizer state at n <= 3, every 97th at n = 4, or full-tableau states
    at n = 5. A near-tie is (cos t|0> + sin t|1>) (x) |+>^(n-1) with t next
    to pi/8: its overlap with |0>|+>^(n-1) is cos t, the bound of that
    support exactly, and its overlap with |+>^n, found first, (cos t +
    sin t)/sqrt(2); the two are equal at t = pi/8, so the bound decides
    the maximum by a relative 1e-6 down to rounding."""
    from chiralkit.sampling import random_pure_state

    dim = 1 << n
    t_product = np.array([1.0], dtype=complex)
    for _ in range(n):
        t_product = np.kron(t_product, t_state_vector())
    plus_rest = np.full(dim >> 1, (dim >> 1) ** -0.5, dtype=complex)
    near_ties = [np.kron([np.cos(t), np.sin(t)], plus_rest)
                 for t in np.pi / 8 + np.array([-1e-6, -1e-9, -1e-12, -1e-14, -1e-15, 0.0, 1e-15, 1e-12])]
    cases = [random_pure_state(dim, split_rng(79, 10 * n + i)) for i in range(40)]
    cases += [t_product, np.full(dim, dim**-0.5, dtype=complex), ghz_vector(n), *near_ties]
    if n <= st.ENUMERATION_MAX_QUBITS:
        stab = list(st.pure_stabilizer_states(n)[:: 1 if n <= 3 else 97])
    else:
        stab = [tableau_vector(st.random_stabilizer_group(n, split_rng(80, t), k=n)) for t in range(8)]
    rng = split_rng(81, n)
    for v in stab[:: max(1, len(stab) // 10)]:
        near = v + 1e-3 * random_pure_state(dim, rng)
        cases.append(near / np.linalg.norm(near))
    return cases + stab


def tableau_vector(group):
    """The pure state of a full group, read off the largest-diagonal column
    of its exact density matrix."""
    rho = st.stabilizer_state(group).data
    j = int(np.argmax(rho.diagonal().real))
    return rho[:, j] / np.sqrt(rho[j, j].real)


def same_nullity(psi, n):
    """stabilizer_nullity and unpruned_nullity give the same count, or raise
    the same ValueError; returns the nullity, or None after an error."""
    try:
        expected = unpruned_nullity(psi, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            st.stabilizer_nullity(psi, n)
        assert str(info.value) == str(exc)
        return None
    assert st.stabilizer_nullity(psi, n) == expected
    return expected


def phase_free_keys(states):
    """Sorted bytes of each row divided by the phase of its first nonzero
    entry: equal key lists mean equal sets of states up to global phase."""
    first = np.argmax(np.abs(states) > 1e-6, axis=1)
    lead = states[np.arange(len(states)), first]
    w = states * (np.abs(lead) / lead)[:, None]
    return sorted(row.tobytes() for row in np.round(w, 8) + 0j)


def oracle_value_table(psi, conjugate_bra):
    """The Pauli table one x column at a time: out[:, x] = H (bra[b ^ x] psi)."""
    dim = psi.size
    n = dim.bit_length() - 1
    h = _pauli._walsh_hadamard(n)
    idx = np.arange(dim)
    out = np.empty((dim, dim), dtype=complex)
    for x in range(dim):
        bra = psi[idx ^ x]
        if conjugate_bra:
            bra = bra.conj()
        out[:, x] = h @ (bra * psi)
    return out * i_power_table(n)


def phased(psi, n, conjugate_bra):
    """The phased Pauli table from the library's core: unphased_table times
    i^{|z & x|}."""
    return _pauli.unphased_table(psi, n, conjugate_bra) * i_power_table(n)


class TestF2Solve:
    def test_single_equation_hand_case(self):
        sol = f2_solve((0b11,), (1,), 2)
        assert sol.feasible and sol.solution == 0b01
        assert sol.nullspace == (0b11,)
        assert sol.rank == 1

    def test_zero_system(self):
        sol = f2_solve((0, 0), (0, 0), 3)
        assert sol.feasible and sol.solution == 0
        assert len(sol.nullspace) == 3

    def test_infeasible(self):
        sol = f2_solve((0b1, 0b1), (0, 1), 1)
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
            sol = f2_solve(rows, rhs, 6)
            brute = [
                v
                for v in range(64)
                if all(((v & row).bit_count() % 2) == b for row, b in zip(rows, rhs))
            ]
            span = {0}
            for basis in sol.nullspace:
                span |= {v ^ basis for v in span}
            assert sorted(sol.solution ^ v for v in span) == brute
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
            assert f2_solve(rows, rhs, 8).feasible

    def test_rank_matches_elimination(self):
        # the XOR-basis rank against the full elimination, on row sets that
        # repeat rows, hold zero rows and XOR earlier rows together
        rng = split_rng(66, 0)
        for t in range(200):
            ncols = int(rng.integers(1, 12))
            rows = [int(r) for r in rng.integers(0, 1 << ncols, size=int(rng.integers(0, 8)))]
            if rows and t % 2:
                rows += [rows[0], 0, rows[0] ^ rows[-1]]
            assert st.f2_rank(rows, ncols) == f2_solve(rows, (0,) * len(rows), ncols).rank

    def test_rank_refuses_rows_outside_the_columns(self):
        for rows in ([0b100], [1, -1]):
            with pytest.raises(ValueError, match="outside the declared number of columns"):
                st.f2_rank(rows, 2)


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
        fac = _pauli.single_qubit_factors(*p.basis_masks(), p.n)
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
            st.group_from_labels(["X", "Z"])

    def test_tableau_round_trip(self):
        text = "+XX\n-ZZ"
        group = st.parse_tableau(text)
        lines = [("-" if sign else "+") + generator(group, i).label for i, sign in enumerate(group.signs)]
        assert "\n".join(lines) == text
        assert group.signs == (0, 1)

    def test_unicode_minus_accepted(self):
        group = st.parse_tableau("−ZZ\n+XX")
        assert group.signs == (1, 0)

    def test_label_signs_are_bits(self):
        # an X part would take a sign of -1 into _orbit's quarter turns
        for signs in ([-1], [0.5], [1.9]):  # int() would read 0.5 as 0 and 1.9 as 1
            with pytest.raises(ValueError, match="signs must be bits"):
                st.group_from_labels(["X"], signs=signs)
        signs = st.group_from_labels(["ZZ", "XX"], signs=np.array([0, 1])).signs
        assert signs == (0, 1) and all(type(s) is int for s in signs)


    @pytest.mark.parametrize("n,z_rows,x_rows,signs,match", [
        (2, (1, 0), (0, 1), (0, 0), "anticommute"),
        (2, (3, 0, 3), (0, 3, 3), (0, 0, 0), "cannot be independent"),
        (2, (3, 0, 3), (0, 3, 3)[:2], (0, 0), "equal length"),
        (3, (1, 1), (0, 0), (0, 1), "dependent"),
        (2, (4,), (0,), (0,), "outside the qubit range"),
        (1, (1,), (0,), (-1,), "signs must be bits"),
        (1, (1,), (0,), (2,), "signs must be bits"),
        (1, (0,), (1,), (3,), "signs must be bits"),
    ])
    def test_direct_construction_keeps_every_check(self, n, z_rows, x_rows, signs, match):
        with pytest.raises(ValueError, match=match):
            st.StabilizerGroup(n, z_rows, x_rows, signs)


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


def dense_stabilizer_state(group):
    """2^{k-n} prod_i (I + s_i P_i)/2 as dense matrix products."""
    dim = 1 << group.n
    acc = np.eye(dim, dtype=complex)
    for i in range(group.k):
        p = (-1) ** group.signs[i] * generator(group, i).matrix()
        acc = acc @ (np.eye(dim) + p) / 2.0
    return acc / 2 ** (group.n - group.k)


class TestStabilizerStateGathers:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_product(self, n):
        # dyadic entries: the group terms have the bits of the products
        for t in range(8):
            group = st.random_stabilizer_group(n, split_rng(63, 10 * n + t))
            rho = st.stabilizer_state(group)
            assert np.array_equal(rho.data, dense_stabilizer_state(group))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zeros_are_positive(self, n):
        # the CLI fingerprint hashes bytes, so a -0.0 would change it
        for k in sorted({0, n // 2, n - 1, n}):
            for t in range(4):
                data = st.stabilizer_state(st.random_stabilizer_group(n, split_rng(65, 100 * n + 10 * k + t), k=k)).data
                parts = data.view(float)
                assert not np.any(np.signbit(parts[parts == 0]))
                assert data.flags.c_contiguous

    @pytest.mark.parametrize("block", [1, 8, 64])
    def test_column_blocks_match_one_block(self, monkeypatch, block):
        # blocks of a few entries split the columns as the n = 11 states do
        monkeypatch.setattr(st, "_STATE_BLOCK_TERMS", block)
        for n, k, t in [(6, 3, 0), (6, 5, 1), (7, 6, 2), (7, 0, 3), (6, 6, 4), (7, 7, 5)]:
            group = st.random_stabilizer_group(n, split_rng(68, t), k=k)
            data = st.stabilizer_state(group).data
            assert np.array_equal(data, dense_stabilizer_state(group))
            assert not np.any(np.signbit(data.view(float)[data.view(float) == 0]))

    @pytest.mark.parametrize("family", ["ghz", "x_product"])
    def test_full_groups_match_dense_product(self, family):
        # k = n with one generator (GHZ) or every generator (X product) carrying an X part
        n = 8
        if family == "ghz":
            labels = ["X" * n] + ["I" * j + "ZZ" + "I" * (n - j - 2) for j in range(n - 1)]
        else:
            labels = ["I" * j + "X" + "I" * (n - j - 1) for j in range(n)]
        for signs in ([0] * n, [j % 2 for j in range(n)], [1] * n):
            group = st.group_from_labels(labels, signs)
            data = st.stabilizer_state(group).data
            assert np.array_equal(data, dense_stabilizer_state(group))
            assert not np.any(np.signbit(data.view(float)[data.view(float) == 0]))

    def test_column_phases_are_the_matrix_columns(self):
        n = 3
        b = np.arange(1 << n)
        for z, x in itertools.product(range(1 << n), repeat=2):
            m = _pauli.pauli_matrix(z, x, n)
            assert np.array_equal(m[b ^ x, b], _pauli.column_phases(z, x, n))
            assert np.count_nonzero(m) == 1 << n


def chi2_p_value(a: Counter, b: Counter) -> float:
    """The p-value of the two-sample chi-squared test that equal-sized
    samples a and b (counts per cell) come from one law, with one degree of
    freedom fewer than the cells either sample reaches."""
    mpmath = pytest.importorskip("mpmath")
    cells = a.keys() | b.keys()
    chi2 = sum((a[c] - b[c]) ** 2 / (a[c] + b[c]) for c in cells)
    return float(mpmath.gammainc((len(cells) - 1) / 2, chi2 / 2, mpmath.inf, regularized=True))


class TestRandomGroup:
    @pytest.mark.parametrize("n,k,expected", [
        (3, None, ((4, 6), (4, 7), (0, 0))),
        (5, None, ((18, 15, 5, 3), (1, 10, 28, 7), (0, 1, 1, 0))),
        (6, 6, ((18, 27, 22, 35, 16, 3), (57, 61, 39, 54, 6, 29), (0, 0, 0, 1, 1, 1))),
        (7, None, ((107, 97, 10, 117, 31), (0, 50, 38, 79, 85), (1, 0, 0, 1, 0))),
        (8, 8, ((238, 252, 124, 121, 179, 219, 252, 15), (141, 144, 142, 84, 36, 212, 175, 240),
                (0, 0, 1, 1, 1, 1, 1, 0))),
    ])
    def test_pinned_groups(self, n, k, expected):
        group = st.random_stabilizer_group(n, split_rng(64, n), k=k)
        assert (group.z_rows, group.x_rows, group.signs) == expected

    @pytest.mark.parametrize("n,k,cells,draws", [(2, 2, 60, 6000), (3, 1, 126, 6300), (3, 3, 1080, 10800)])
    def test_law_of_the_rejection_sampler(self, n, k, cells, draws):
        # keyed on the signed group, as its state, not on the generator order:
        # every one of the cells (signed groups) is reached, and the counts of
        # the commutant sampler and of scalar_stabilizer_group (which draws z
        # and x uniformly and keeps the commuting, independent rows) agree
        counts = []
        for sampler, key in ((st.random_stabilizer_group, 72), (scalar_stabilizer_group, 73)):
            rng = split_rng(key, 10 * n + k)
            counts.append(Counter(st.stabilizer_state(sampler(n, rng, k)).data.tobytes() for _ in range(draws)))
        assert len(counts[0]) == len(counts[1]) == cells
        assert chi2_p_value(*counts) > 1e-3

    def test_wide_groups(self):
        # 2n - j bits past one int64 draw; a rejection sampler would accept the
        # last of these rows with probability about 2^-39
        group = st.random_stabilizer_group(40, split_rng(74, 0), k=40)
        assert st.StabilizerGroup(group.n, group.z_rows, group.x_rows, group.signs) == group
        assert_solves_like_the_oracle(group)

    def test_empty_group_calls_no_draw(self):
        # k = 0 has no signs: the sampler makes no rng.integers call, sized or
        # not, and leaves the stream where it was
        class Counted:
            def __init__(self, rng):
                self.rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        for n in range(1, 12):
            rng, twin = Counted(split_rng(71, n)), split_rng(71, n)
            group = st.random_stabilizer_group(n, rng, k=0)
            assert (group.z_rows, group.x_rows, group.signs, rng.calls) == ((), (), (), 0)
            assert same_state(rng.bit_generator.state, twin.bit_generator.state)

    def test_drawn_groups_pass_the_public_checks(self):
        # the sampler skips re-validation (StabilizerGroup._checked); the
        # validating constructor accepts each group it returns
        rng = split_rng(69, 0)
        for n in range(1, 12):
            for k in (None,) * 20 + tuple(range(n + 1)):
                group = st.random_stabilizer_group(n, rng, k)
                assert st.StabilizerGroup(group.n, group.z_rows, group.x_rows, group.signs) == group

    @pytest.mark.parametrize("k", [3, -1])
    def test_out_of_range_k_refused_before_a_draw(self, k):
        # two qubits have no 3-dimensional isotropic subspace: k = 3 would draw forever
        rng, twin = split_rng(67, 0), split_rng(67, 0)
        with pytest.raises(ValueError, match=r"0\.\.2"):
            st.random_stabilizer_group(2, rng, k=k)
        assert rng.integers(1 << 62) == twin.integers(1 << 62)


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


def recorder_tableaux():
    """The tableaux whose `chiralkit stabilizer` stdout tools/record_bench.py
    records, by file name."""
    path = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
    spec = importlib.util.spec_from_file_location("record_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TABLEAUX


def assert_solves_like_the_oracle(group):
    """conjugation_pauli_set's base and null space are f2_solve's, bit for bit
    and in order."""
    sols = st.conjugation_pauli_set(group)
    base, nullspace = conjugation_oracle(group)
    assert sols.base == st.PauliString._from_rows(*base, group.n)
    assert sols.nullspace_basis == tuple(st.PauliString._from_rows(z, x, group.n) for z, x in nullspace)


class TestConjugationSolveOracle:
    """The solve on the XOR basis against Gaussian elimination lowest column
    first: a fixed column order has one reduced row echelon form."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_groups_of_every_size(self, n):
        # 11 groups per (n, k): 484 over n = 1..8
        for k in range(n + 1):
            for t in range(11):
                assert_solves_like_the_oracle(st.random_stabilizer_group(n, split_rng(91, 100 * n + 11 * k + t), k=k))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_pool_groups(self, seed):
        # the stabilizer_tables pool: group i on 1 + i % 7 qubits, drawn from
        # split_rng(derive_seed(seed, 11), i), for its 21 items
        for i in range(21):
            assert_solves_like_the_oracle(st.random_stabilizer_group(1 + i % 7, split_rng(derive_seed(seed, 11), i)))

    def test_recorded_tableaux(self):
        tableaux = recorder_tableaux()
        assert {"ghz.tab", "mixed.tab", "ghz10.tab", "mixed10.tab"} <= set(tableaux)
        for text in tableaux.values():
            assert_solves_like_the_oracle(st.parse_tableau(text))

    def test_iteration_spans_the_null_space_in_order(self):
        # the order of itertools.product over the null vectors: the last
        # one flips fastest
        group = st.parse_tableau("+XYZ\n-ZZI\n")
        sols = st.conjugation_pauli_set(group)
        base, nullspace = conjugation_oracle(group)
        expected = []
        for picks in itertools.product((0, 1), repeat=len(nullspace)):
            z, x = base
            for take, (bz, bx) in zip(picks, nullspace):
                z, x = (z ^ bz, x ^ bx) if take else (z, x)
            expected.append(st.PauliString._from_rows(z, x, group.n))
        assert list(sols) == expected and len(expected) == sols.count == 16


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

    def test_ghz_ten_qubits(self):
        assert st.stabilizer_nullity(ghz_vector(10), 10) == 0

    def test_t_tensor_ten_qubits(self):
        psi = np.array([1.0], dtype=complex)
        for _ in range(10):
            psi = np.kron(psi, t_state_vector())
        assert st.stabilizer_nullity(psi, 10) == 10
        assert pauli_log_distance(psi, 10) < 1e-9

    def test_eleven_qubits_refused_before_allocation(self):
        psi = np.zeros(1 << 11, dtype=complex)
        psi[0] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="refused"):
                st.stabilizer_nullity(psi, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 4^11 table is 64 MiB

    def test_dimension_must_be_two_to_the_n(self):
        with pytest.raises(ValueError, match="not 2"):
            st.stabilizer_nullity(np.ones(8) / np.sqrt(8), 2)

    def test_tolerance_failure_reported(self):
        # weights tuned so one generator of the near-definite group falls
        # outside the tolerance while two stay inside: count = 3
        e = 2.6e-9
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[1], psi[2] = np.sqrt(1 - 2 * e), np.sqrt(e), np.sqrt(e)
        with pytest.raises(ValueError, match="not a power of two"):
            st.stabilizer_nullity(psi, 2)


class TestPrunedNullity:
    """The nullity tabulates only the columns its bound cannot rule out, and
    counts on moduli without the phase: the same count as all 4^n entries."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_haar_states(self, n):
        from chiralkit.sampling import random_pure_state

        for i in range(3 if n == 10 else 8):
            assert same_nullity(random_pure_state(1 << n, split_rng(82, 10 * n + i)), n) == n

    def test_every_small_stabilizer_state(self):
        # every pure stabilizer state at n <= 3 and every 97th at n = 4
        for n in range(1, 5):
            for psi in st.pure_stabilizer_states(n)[:: 1 if n <= 3 else 97]:
                assert same_nullity(psi, n) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tableau_states(self, n):
        # GHZ (2 columns), the X product (every column) and random full groups
        x_product = st.group_from_labels(["I" * j + "X" + "I" * (n - 1 - j) for j in range(n)])
        states = [ghz_vector(n), tableau_vector(x_product)]
        states += [tableau_vector(st.random_stabilizer_group(n, split_rng(83, 10 * n + t), k=n)) for t in range(2)]
        for psi in states:
            assert same_nullity(psi, n) == 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_stabilizer_haar_products(self, n):
        # a Haar state on h qubits keeps only its identity definite, so the
        # nullity is h, strictly between 0 and n
        from chiralkit.sampling import random_pure_state

        for h in range(1, n):
            group = st.random_stabilizer_group(n - h, split_rng(84, 10 * n + h), k=n - h)
            psi = np.kron(tableau_vector(group), random_pure_state(1 << h, split_rng(85, 10 * n + h)))
            assert same_nullity(psi, n) == h

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_near_stabilizer_states_across_the_tolerance(self, n):
        # a perturbation of size sqrt(delta) moves a definite expectation by
        # about delta (to second order), and delta runs from 1e-6 to 1e-10
        # across NULLITY_TOL = 1e-8: some strings stay definite, some do
        # not, and some groups split. Nullity and split error are the
        # unpruned count's
        from chiralkit.sampling import random_pure_state

        rng = split_rng(86, n)
        results = []
        for t in range(4):
            v = tableau_vector(st.random_stabilizer_group(n, split_rng(87, 10 * n + t), k=n))
            for delta in (1e-6, 3e-7, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10):
                near = v + math.sqrt(delta) * random_pure_state(1 << n, rng)
                results.append(same_nullity(near / np.linalg.norm(near), n))
        assert 0 in results and n in results and (None in results or n == 1)

    def test_tolerance_split_raises_the_same_error(self):
        e = 2.6e-9
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[1], psi[2] = np.sqrt(1 - 2 * e), np.sqrt(e), np.sqrt(e)
        assert same_nullity(psi, 2) is None

    @pytest.mark.parametrize("n", range(1, 11))
    def test_haar_states_read_the_identity_column(self, n, monkeypatch):
        # the bound keeps x only when |psi_{t ^ x}| is within 1.0e-4 of the
        # largest modulus |psi_t|: a Haar state reads x = 0 alone unless
        # another modulus ties the largest that closely
        from chiralkit.sampling import random_pure_state

        widths = []
        table = _pauli.unphased_table

        def recorded(*args):
            out = table(*args)
            widths.append(out.shape[1])
            return out

        monkeypatch.setattr(_pauli, "unphased_table", recorded)
        near_top = []
        for i in range(10):
            psi = random_pure_state(1 << n, split_rng(88, 10 * n + i))
            assert st.stabilizer_nullity(psi, n) == n
            w = np.abs(psi)
            near_top.append(int(np.sum(w > w.max() - math.sqrt(st.NULLITY_TOL + 1e-10))))
        assert widths == near_top and widths.count(1) >= 9
        monkeypatch.undo()
        # the one column is x = 0, the Z strings, from a GEMM one column wide
        pruned = table(psi, n, True, 1.0 - st.NULLITY_TOL)
        assert np.max(np.abs(pruned[:, 0] - phased_table(psi, n, True)[:, 0])) <= 1e-15

    def test_a_tie_reads_the_tied_column(self):
        # a second modulus within the bound's reach of the largest keeps the
        # column of its XOR with the largest one's index, and no other
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(1 << 6, split_rng(89, 0))
        t = int(np.argmax(np.abs(psi)))
        psi[t ^ 0b100101] = psi[t] * (1 - 1e-6) * 1j
        psi /= np.linalg.norm(psi)
        columns = np.abs(_pauli.unphased_table(psi, 6, True, 1.0 - st.NULLITY_TOL))
        full = np.abs(phased_table(psi, 6, True))
        assert columns.shape == (64, 2)
        assert np.max(np.abs(columns - full[:, [0, 0b100101]])) <= 1e-15
        assert same_nullity(psi, 6) == 6


class TestEnumerationAndFidelity:
    @pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
    def test_state_counts(self, n, count):
        assert len(st.pure_stabilizer_states(n)) == count

    def test_state_count_n4(self):
        assert len(st.pure_stabilizer_states(4)) == 36720

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_tableau_oracle(self, n):
        states = st.pure_stabilizer_states(n)
        assert phase_free_keys(states) == phase_free_keys(oracle_pure_stabilizer_states(n))

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

    def test_cached_enumeration_cannot_be_changed_through_a_draw(self):
        v = st.random_stabilizer_vector(2, split_rng(1, 0))
        v *= 2
        assert np.allclose(np.linalg.norm(st.pure_stabilizer_states(2), axis=1), 1, atol=1e-12)
        with pytest.raises(ValueError):
            st.pure_stabilizer_states(2)[0, 0] = 0
        with pytest.raises(ValueError):
            st._phase_block(1)[0, 0] = 0

    @pytest.mark.parametrize("table", [lambda: st._support_index(3, 2), lambda: st._sign_block(3),
                                       lambda: st._z4_block(2)], ids=["support", "sign", "z4"])
    def test_fidelity_tables_are_read_only(self, table):
        with pytest.raises(ValueError):
            table()[0, 0] = 0

    def test_t_state_value(self):
        assert st.stabilizer_fidelity(t_state_vector(), 1) == pytest.approx(
            np.cos(np.pi / 8) ** 2, abs=1e-9
        )

    def test_zero_tensor_t(self):
        psi = np.kron(np.array([1, 0], dtype=complex), t_state_vector())
        assert st.stabilizer_fidelity(psi, 2) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)

    def test_matches_conjugated_enumeration(self):
        # the value sums over each support in Z4 blocks; the oracle conjugates
        # the enumeration and sums over all 2^n entries
        from chiralkit.sampling import random_pure_state

        for n in (1, 2, 3, 4):
            states = st.pure_stabilizer_states(n)
            for i in range(50):
                psi = random_pure_state(1 << n, split_rng(67 + n, i))
                oracle = float(np.max(np.abs(states.conj() @ psi) ** 2))
                assert abs(st.stabilizer_fidelity(psi, n) - oracle) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_row_count_identity(self, n):
        # sum_k supports_k 2^{k(k-1)/2} 4^k = 2^n prod_{k=1}^n (2^k + 1)
        rows = sum(len(st._support_index(n, k)) * len(st._sign_block(k)) * st._z4_block(k).shape[1]
                   for k in range(n + 1))
        assert rows == (1 << n) * math.prod((1 << k) + 1 for k in range(1, n + 1))
        if n <= st.ENUMERATION_MAX_QUBITS:
            assert rows == len(st.pure_stabilizer_states(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_tableau_states_give_one(self, n):
        for t in range(4):
            group = st.random_stabilizer_group(n, split_rng(75, 10 * n + t), k=n)
            rho = st.stabilizer_state(group).data
            j = int(np.argmax(rho.diagonal().real))
            psi = rho[:, j] / np.sqrt(rho[j, j].real)
            assert abs(st.stabilizer_fidelity(psi, n) - 1.0) <= 1e-12

    def test_five_qubit_t_state(self):
        psi = np.array([1.0], dtype=complex)
        for _ in range(5):
            psi = np.kron(psi, t_state_vector())
        assert abs(st.stabilizer_fidelity(psi, 5) - np.cos(np.pi / 8) ** 10) <= 1e-14

    def test_five_qubit_products_multiply(self):
        # the stabilizer fidelity is multiplicative over factors of at most
        # three qubits (Bravyi et al., Quantum 3, 181 (2019))
        from chiralkit.sampling import random_pure_state

        for i in range(4):
            singles = [random_pure_state(2, split_rng(76, 5 * i + j)) for j in range(5)]
            psi = np.array([1.0], dtype=complex)
            for v in singles:
                psi = np.kron(psi, v)
            product = math.prod(st.stabilizer_fidelity(v, 1) for v in singles)
            assert abs(st.stabilizer_fidelity(psi, 5) - product) <= 1e-14
            a = random_pure_state(4, split_rng(77, i))
            b = random_pure_state(8, split_rng(78, i))
            product = st.stabilizer_fidelity(a, 2) * st.stabilizer_fidelity(b, 3)
            assert abs(st.stabilizer_fidelity(np.kron(a, b), 5) - product) <= 1e-14

    def test_matches_tableau_oracle_fidelity(self):
        # the oracle's eigh vectors are off by up to 1.1e-15 in F on these
        # states (against 50 digits), so 2e-15 is the oracle's own precision
        from chiralkit.sampling import random_pure_state

        states = oracle_pure_stabilizer_states(4)
        for i in range(20):
            psi = random_pure_state(16, split_rng(67, i))
            oracle = float(np.max(np.abs(states.conj() @ psi) ** 2))
            assert abs(st.stabilizer_fidelity(psi, 4) - oracle) <= 2e-15

    def test_fidelity_against_50_digits(self):
        # normal-form amplitudes are exactly {1, i, -1, -i} / sqrt(support)
        mpmath = pytest.importorskip("mpmath")
        from chiralkit.sampling import random_pure_state

        states = st.pure_stabilizer_states(4)
        for i in range(20):
            psi = random_pure_state(16, split_rng(67, i))
            value = st.stabilizer_fidelity(psi, 4)
            overlaps = np.abs(states @ psi.conj()) ** 2
            exact = 0.0
            with mpmath.workdps(50):
                for row in states[overlaps >= overlaps.max() - 1e-12]:
                    size = int(np.count_nonzero(row))
                    units = np.rint(row * np.sqrt(size))
                    amp = mpmath.fsum(
                        mpmath.mpc(u.real, u.imag) * mpmath.mpc(p.real, -p.imag) for u, p in zip(units, psi)
                    )
                    exact = max(exact, float(abs(amp) ** 2 / size))
            assert abs(value - exact) <= 5e-16

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pruned_supports_keep_the_bits(self, n):
        # a support whose bound is below the running maximum is skipped; the
        # max over the rest is the float of the loop over every support
        cases = fidelity_cases(n)
        assert len(cases) >= 50
        for psi in cases:
            assert st.stabilizer_fidelity(psi, n).hex() == unpruned_stabilizer_fidelity(psi, n).hex()

    def test_large_n_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="max 5"):
            st.stabilizer_fidelity(np.ones(64) / 8, 6)

    def test_enumeration_keeps_its_four_qubit_limit(self):
        with pytest.raises(ValueError, match="max 4"):
            st.pure_stabilizer_states(5)

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


class TestPauliTables:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_match_loop_oracle(self, n):
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(1 << n, split_rng(73, n))
        for conjugate_bra in (True, False):
            assert np.max(np.abs(phased(psi, n, conjugate_bra) - oracle_value_table(psi, conjugate_bra))) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_public_tables_keep_their_bits(self, n):
        # the core times the phase has the bytes of the phased oracle, and
        # |core| those of |phased|: readers of moduli may skip the phase
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(1 << n, split_rng(75, n))
        for conjugate_bra in (True, False):
            oracle = phased_table(psi, n, conjugate_bra)
            assert phased(psi, n, conjugate_bra).tobytes() == oracle.tobytes()
            assert np.abs(_pauli.unphased_table(psi, n, conjugate_bra)).tobytes() == np.abs(oracle).tobytes()

    def test_quarter_turns_keep_the_modulus(self):
        # a product by +-1 or +-i is exact, so |i^k v| is |v| bit for bit:
        # 16,384 values with moduli from 1e-300 to 1e10 against the n = 7 phases
        rng = split_rng(76, 0)
        v = 10.0 ** rng.uniform(-300, 10, size=1 << 14) * np.exp(2j * np.pi * rng.uniform(size=1 << 14))
        phases = i_power_table(7).reshape(-1)
        assert set(np.round(phases).tolist()) == {1, 1j, -1, -1j}
        assert np.abs(v * phases).tobytes() == np.abs(v).tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pauli_log_distance_reads_the_phased_maximum(self, n):
        # C_P and its argmax string from the unphased table are those of the
        # phased one, float.hex and (z, x)
        from chiralkit.sampling import random_pure_state

        t_product = np.array([1.0], dtype=complex)
        for _ in range(n):
            t_product = np.kron(t_product, t_state_vector())
        states = [random_pure_state(1 << n, split_rng(77, 10 * n + i)) for i in range(2 if n == 10 else 6)]
        states += [t_product, ghz_vector(n), tableau_vector(st.random_stabilizer_group(n, split_rng(78, n), k=n))]
        for psi in states:
            value, (z, x) = pauli_log_distance_detail(psi, n)
            expected, string = phased_pauli_log_distance(psi, n)
            assert (value.hex(), (z, x)) == (expected.hex(), string)

    def test_held_index_is_narrow_and_read_only(self):
        index = _pauli._xor_index(10)
        b = np.arange(1 << 10)
        assert np.array_equal(index, b[:, None] ^ b) and index.nbytes <= 4 << 20
        with pytest.raises(ValueError):
            index[0, 0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_match_dense_strings(self, n):
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(1 << n, split_rng(74, n))
        expect = phased(psi, n, True)
        overlap = phased(psi, n, False)
        for z in range(1 << n):
            for x in range(1 << n):
                p_psi = _pauli.pauli_matrix(z, x, n) @ psi
                assert abs(expect[z, x] - psi.conj() @ p_psi) <= 1e-14
                assert abs(overlap[z, x] - psi @ p_psi) <= 1e-14


class TestQubitVector:
    """Every Pauli-table and fidelity entry point reads psi through
    _pauli.qubit_vector, which refuses what is not a state."""

    def test_unnormalized_fidelity_is_refused(self):
        # it returned 4.0
        with pytest.raises(ValueError, match=r"squared norm 4\.0; a state of 2 qubits"):
            st.stabilizer_fidelity([2, 0, 0, 0], 2)

    def test_zero_vector_nullity_is_refused(self):
        # it raised "negative shift count"
        with pytest.raises(ValueError, match=r"squared norm 0\.0; a state of 2 qubits"):
            st.stabilizer_nullity(np.zeros(4), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_are_refused(self, bad):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        psi[1] = bad
        for call in (st.stabilizer_fidelity, st.stabilizer_nullity, pauli_log_distance,
                     lambda psi, n: phased(psi, n, True), lambda psi, n: phased(psi, n, False)):
            with pytest.raises(ValueError, match=r"squared norm (nan|inf)"):
                call(psi, 2)

    def test_norm_tolerance(self):
        psi = np.array([1, 1, 1, 1], dtype=complex) / 2
        for scale in (1.0, np.sqrt(1 + 0.9 * _pauli.NORM_ATOL), np.sqrt(1 - 0.9 * _pauli.NORM_ATOL)):
            assert st.stabilizer_fidelity(psi * scale, 2) == pytest.approx(1.0, abs=1e-9)
        for scale in (np.sqrt(1 + 2 * _pauli.NORM_ATOL), np.sqrt(1 - 2 * _pauli.NORM_ATOL)):
            with pytest.raises(ValueError, match="squared norm"):
                _pauli.qubit_vector(psi * scale, 2)

    def test_dimension_is_checked_first(self):
        with pytest.raises(ValueError, match="state dimension 3 is not 2"):
            _pauli.qubit_vector(np.zeros(3), 2)


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
            warm = _pauli.single_qubit_factors(*st.conjugation_pauli(group).basis_masks(), n)
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

    def test_five_qubit_chain(self):
        from chiralkit.sampling import random_pure_state

        for i in range(20):
            psi = random_pure_state(32, split_rng(79, i))
            rep = st.verify_magic_bounds(psi, 5, seed=i)
            assert rep.worst_excess <= st.MAGIC_BOUND_TOL
            assert 0.0 < rep.stabilizer_fid < 1.0

    def test_random_state_chain(self):
        from chiralkit.sampling import random_pure_state

        psi = random_pure_state(8, split_rng(71, 0))
        rep = st.verify_magic_bounds(psi, 3, restarts=10, seed=71)
        assert rep.log_distance <= rep.pauli_log_distance + 1e-7
        assert rep.pauli_log_distance <= rep.nullity + 1e-7
        assert rep.pauli_log_distance <= rep.minus_two_log_fidelity + 1e-7
