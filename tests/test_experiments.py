"""Sampling-distribution checks, the scan contract, and the partial-trace
nonmonotonicity demonstration."""

import numpy as np
import pytest

from chiralkit import experiments as ex
from chiralkit.chirality import j2
from chiralkit.qmat import DensityMatrix, bipartition, partial_transpose, tensor_product
from chiralkit.sampling import (
    derive_seed,
    haar_unitaries,
    haar_unitary,
    random_mixed_state,
    random_mixed_states,
    simplex_point,
    split_normals,
    split_rng,
)
from chiralkit.states import chiral_qutrit_qubit
from support import bell_state, mpmath_j2

SPLIT = bipartition([0], [1])


class TestHaarUnitary:
    def test_unitarity_and_columns(self):
        rng = split_rng(110, 0)
        for d in (1, 2, 4, 6):
            u = haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10
            assert np.allclose(np.linalg.norm(u, axis=0), 1, atol=1e-10)

    def test_d1_is_a_phase(self):
        rng = split_rng(111, 0)
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_first_entry_moment(self):
        # E|U_11|^2 = 1/d for the invariant measure; |U_11|^2 ~ Beta(1, d-1)
        rng = split_rng(112, 0)
        d, n = 2, 10_000
        vals = np.array([abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(n)])
        sigma = np.sqrt((d - 1) / (d**2 * (d + 1)) / n)
        assert abs(vals.mean() - 1 / d) < 3 * sigma

    def test_left_invariance_statistic(self):
        # distribution of |(<0| V U |0>)|^2 matches |<0|U|0>|^2 for fixed V
        rng = split_rng(113, 0)
        v = haar_unitary(3, rng)
        base, rotated = [], []
        for i in range(2000):
            u = haar_unitary(3, split_rng(113, 10 + i))
            base.append(abs(u[0, 0]) ** 2)
            rotated.append(abs((v @ u)[0, 0]) ** 2)
        assert abs(np.mean(base) - np.mean(rotated)) < 4 * np.std(base) / np.sqrt(2000)

    @pytest.mark.parametrize("dims", [(2, 2, 4), (3, 1, 2, 6), (1,)])
    def test_party_stacks_match_per_party_draws(self, dims):
        # one standard_normal call per stream for every party gives the bits
        # of haar_unitary drawing party after party from each stream
        indices = range(1, 12)
        per_stream = [[haar_unitary(d, gen) for d in dims] for gen in (split_rng(115, k) for k in indices)]
        oracle = [np.stack(party) for party in zip(*per_stream)]
        stacks = haar_unitaries(dims, 115, indices)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, oracle, strict=True))
        assert [s.shape for s in haar_unitaries(dims, 115, [])] == [(0, d, d) for d in dims]

    def test_rekeyed_stream_normals_match_fresh_generators(self):
        indices = [0, 5, 3, 5, 10**6]
        normals = split_normals(116, indices, 37)
        assert np.array_equal(normals, np.stack([split_rng(116, k).standard_normal(37) for k in indices]))


class TestMixedStateSampler:
    def test_valid_state_and_spectrum(self):
        rng = split_rng(114, 0)
        rho = random_mixed_state((2, 2), rng)
        assert abs(np.trace(rho.data) - 1) < 1e-12
        # eigenvalues reproduce the simplex draw of a twin generator
        twin = split_rng(114, 0)
        p = simplex_point(4, twin)
        assert np.allclose(np.sort(rho.eigenvalues()), np.sort(p), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_mixed_state_stack_matches_per_stream_draws(self, n):
        stack = random_mixed_states((2, 2), 117, range(5, 5 + n))
        oracle = [random_mixed_state((2, 2), split_rng(117, k)).data for k in range(5, 5 + n)]
        assert stack.dims == (2, 2) and np.array_equal(stack.data, np.stack(oracle))

    def test_purity_moment(self):
        # flat-simplex second moment: E[sum p^2] = 2/(d+1)
        n, d = 10_000, 4
        vals = np.empty(n)
        for i in range(n):
            p = simplex_point(d, split_rng(115, i))
            vals[i] = np.sum(p**2)
        sigma = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 2 / (d + 1)) < 3 * sigma


class TestLogNegativity:
    def test_product_state(self):
        prod = tensor_product(
            random_mixed_state((2,), split_rng(116, 0)), random_mixed_state((2,), split_rng(116, 1))
        )
        assert abs(ex.log_negativity(prod, SPLIT)) < 1e-10

    def test_bell(self):
        assert ex.log_negativity(bell_state(), SPLIT) == pytest.approx(np.log(2), abs=1e-12)

    def test_separable_block_state(self):
        assert abs(ex.log_negativity(chiral_qutrit_qubit(), SPLIT)) < 1e-10


class TestScan:
    def test_single_row_reproducible(self):
        rows1, _ = ex.run_chirality_entanglement_scan(1, 4242)
        rows2, _ = ex.run_chirality_entanglement_scan(1, 4242)
        assert rows1 == rows2
        assert rows1[0].seed == derive_seed(4242, 0)

    def test_row_invariants(self):
        rows, summary = ex.run_chirality_entanglement_scan(300, 999)
        for r in rows:
            assert r.e_n >= -1e-12
            assert r.abs_j2 >= 0
        assert set(summary) == {
            "n", "pearson", "spearman", "frac_low_EN_high_J2", "median_J2", "pearson_threshold",
        }

    def test_negativity_ppt_equivalence_on_samples(self):
        # two-qubit: E_N = 0 exactly when the partial transpose is positive
        rows, _ = ex.run_chirality_entanglement_scan(200, 321)
        for r in rows:
            rng = np.random.Generator(np.random.Philox(key=r.seed))
            rho = random_mixed_state((2, 2), rng)
            min_pt = np.linalg.eigvalsh(partial_transpose(rho, [1]))[0]
            if r.e_n > 1e-10:
                assert min_pt < 1e-10
            if min_pt >= -1e-10:
                assert r.e_n < 1e-8

    def test_csv_format(self):
        rows, _ = ex.run_chirality_entanglement_scan(3, 12)
        csv_text = ex.scan_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "sample_index,E_N,abs_J2,seed"
        assert len(lines) == 4
        # 17 significant digits round-trip
        cell = lines[1].split(",")[2]
        assert float(cell) == rows[0].abs_j2

    def test_j2_distribution_invariant_under_fixed_local_unitary(self):
        # Kolmogorov-Smirnov two-sample test at the 5% level: applying one
        # fixed local unitary to every sample leaves |J2| unchanged in law
        n = 2000
        u = np.kron(haar_unitary(2, split_rng(130, 0)), haar_unitary(2, split_rng(130, 1)))
        base, rotated = np.empty(n), np.empty(n)
        for i in range(n):
            rho = random_mixed_state((2, 2), split_rng(131, i))
            base[i] = abs(j2(rho, SPLIT))
            rot = DensityMatrix((2, 2), u @ rho.data @ u.conj().T)
            rotated[i] = abs(j2(rot, SPLIT))
        grid = np.sort(np.concatenate([base, rotated]))
        ecdf = lambda data: np.searchsorted(np.sort(data), grid, side="right") / n
        ks = np.max(np.abs(ecdf(base) - ecdf(rotated)))
        critical = 1.3581 * np.sqrt(2 / n)  # alpha = 0.05, equal sizes
        assert ks < critical


def scan_sample_oracle(master_seed: int, index: int) -> ex.ScanRow:
    """One scan row the way the scan computed it before it was stacked: one
    generator, one state and one modular set per sample."""
    seed = derive_seed(master_seed, index)
    rho = random_mixed_state((2, 2), np.random.Generator(np.random.Philox(key=seed)))
    return ex.ScanRow(index, ex.log_negativity(rho, SPLIT), abs(j2(rho, SPLIT)), seed)


class TestStackedScan:
    @pytest.mark.parametrize("n", [1, 10, 300])
    def test_csv_bytes_match_per_sample_oracle(self, n):
        rows, _ = ex.run_chirality_entanglement_scan(n, 4243)
        oracle = [scan_sample_oracle(4243, i) for i in range(n)]
        assert ex.scan_to_csv(rows) == ex.scan_to_csv(oracle)

    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch):
        n = ex._SCAN_CHUNK + 76
        rows, _ = ex.run_chirality_entanglement_scan(n, 808)
        for m in (1, 700, ex._SCAN_CHUNK + 1):
            head, _ = ex.run_chirality_entanglement_scan(m, 808)
            assert rows[:m] == head
        monkeypatch.setattr(ex, "_SCAN_CHUNK", 7)
        small, _ = ex.run_chirality_entanglement_scan(n, 808)
        assert ex.scan_to_csv(small) == ex.scan_to_csv(rows)


class TestScanTail:
    def test_small_j2_samples_are_real(self):
        # C13 clause (a) fails because ~8% of |J2| lie below 1e-6; the 15
        # smallest agree with a 50-digit evaluation, so the tail is not rounding
        pytest.importorskip("mpmath")
        rows, _ = ex.run_chirality_entanglement_scan(5000, master_seed=13131313)
        for row in sorted(rows, key=lambda r: r.abs_j2)[:15]:
            rho = random_mixed_state((2, 2), np.random.Generator(np.random.Philox(key=row.seed)))
            ref = mpmath_j2(rho.data)
            assert abs(ref) < 1e-6
            assert abs(j2(rho, SPLIT) - ref) <= 1e-16


class TestNonmonotonicity:
    def test_standard_weights(self):
        rep = ex.nonmonotonicity_demo((0.5, 0.3, 0.2), restarts=20, seed=7)
        assert rep.value_joint < 1e-6
        assert rep.value_after_trace > 1e-3
        assert rep.increased_under_partial_trace

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            ex.nonmonotonicity_demo((0.4, 0.4, 0.2))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            ex.nonmonotonicity_demo((0.5, 0.3, 0.1))
