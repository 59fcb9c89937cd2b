"""Chirality-measure tests: worked examples against independent oracles,
structural invariants, and the orbit optimizer."""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from chiralkit import chirality as ch
from chiralkit import _pauli
from chiralkit import correlations as co
from chiralkit.qmat import (
    DensityMatrix,
    Partition,
    ShapeMismatchError,
    bipartition,
    conjugate,
    matrix_log_on_support,
    partial_trace,
    pure_state_density,
    tensor_product,
)
from chiralkit.sampling import (
    haar_unitary,
    random_mixed_state,
    random_pure_state,
    random_two_qubit_maximally_mixed,
    split_rng,
)
from chiralkit.stabilizer import MAGIC_BOUND_TOL, verify_magic_bounds
from chiralkit.states import chiral_qutrit_qubit, commuting_chiral_qudit_qubit, t_state_vector
from support import (
    embed_operator,
    flowed_k,
    modular_hamiltonians,
    mpmath_j2,
    mpmath_j3,
    mpmath_j3_prime,
    orbit_overlap,
)

SPLIT = bipartition([0], [1])


def rho_rand(dims, seed, stream=0):
    return random_mixed_state(dims, split_rng(seed, stream))


def classical_state(seed):
    """sum_ij p_ij |i><i| (x) |j><j| with a random joint distribution."""
    rng = split_rng(seed, 0)
    p = rng.dirichlet(np.ones(4)).reshape(2, 2)
    return DensityMatrix((2, 2), np.diag(p.ravel()).astype(complex))


# --- independent eigenbasis oracles (explicit index sums, no matrix algebra)


def _modular_pieces(rho, split):
    k_ab, k_a, k_b = modular_hamiltonians(rho, split)
    dec = rho.eig()
    v = dec.eigenvectors
    rot = lambda m: v.conj().T @ m @ v
    return dec.eigenvalues, rot(k_ab), rot(k_a), rot(k_b), rot(rho.data)


def quadrature_gamma(rho, split, s_max=8.0, panels=64, order=8):
    """gamma_s integrated against sech(pi s) by composite Gauss-Legendre
    quadrature on [-s_max, s_max] (512 nodes), with the dense flow oracle."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-s_max, s_max, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    p, k, ka, kb, r = _modular_pieces(rho, split)
    g = ka * (kb * p[None, :] - p[:, None] * kb).T  # K_A entrywise [K_B, rho]^T
    kappa = np.diag(k).real
    delta = kappa[:, None] - kappa[None, :]
    vals = [np.real(1j * np.sum(np.cos(s * delta) * g)) for s in nodes]
    return float(np.sum(weights / np.cosh(np.pi * nodes) * np.array(vals)))


def oracle_j2(rho, split):
    p, k, ka, kb, r = _modular_pieces(rho, split)
    d = len(p)
    x = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                x[a, b] += k[a, c] * ka[c, b] - ka[a, c] * k[c, b]
    tot = 0.0j
    for a in range(d):
        for b in range(d):
            for c in range(d):
                tot += r[a, b] * (x[b, c] * kb[c, a] + kb[b, c] * x[c, a])
    return (1j * tot).real


def oracle_j3(rho, split):
    p, k, ka, kb, r = _modular_pieces(rho, split)
    comm = lambda a, b: a @ b - b @ a
    x = comm(k, comm(k, ka))
    tot = np.trace(r @ (x @ kb - kb @ x))
    return (1j * tot).real


def oracle_gamma_s(rho, split, s):
    # flow phases written out explicitly in the eigenbasis; the flow-even
    # part averages e^{+is d} and e^{-is d} elementwise (cos), not the adjoint
    p, k, ka, kb, r = _modular_pieces(rho, split)
    d = len(p)
    kappa = np.diag(k).real
    kplus = np.array(
        [[np.cos(s * (kappa[j] - kappa[l])) * ka[j, l] for l in range(d)] for j in range(d)]
    )
    tot = np.trace(r @ (kplus @ kb - kb @ kplus))
    return (1j * tot).real


def oracle_j3_prime(rho, split):
    p, k, ka, kb, r = _modular_pieces(rho, split)
    d = len(p)

    def comm_loops(a, b):
        out = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    out[i, j] += a[i, l] * b[l, j] - b[i, l] * a[l, j]
        return out

    x = comm_loops(comm_loops(comm_loops(k, kb), kb), kb)
    return (1j * np.trace(r @ x)).real


def oracle_phi_s(rho, split, s):
    # odd flow part in the eigenbasis: -sin(s d) elementwise
    p, k, ka, kb, r = _modular_pieces(rho, split)
    d = len(p)
    kappa = np.diag(k).real
    kminus = np.array(
        [[-np.sin(s * (kappa[j] - kappa[l])) * ka[j, l] for l in range(d)] for j in range(d)]
    )
    tot = np.trace(r @ (kminus @ kb + kb @ kminus))
    return (1j * tot).real


def oracle_modular_commutator(rho, split):
    groups = split.groups
    kab = embed_operator(
        -matrix_log_on_support(partial_trace(rho, groups[0] + groups[1])),
        rho.dims,
        groups[0] + groups[1],
    )
    kbc = embed_operator(
        -matrix_log_on_support(partial_trace(rho, groups[1] + groups[2])),
        rho.dims,
        groups[1] + groups[2],
    )
    tot = 0.0j
    d = rho.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                tot += rho.data[a, b] * (kab[b, c] * kbc[c, a] - kbc[b, c] * kab[c, a])
    return (1j * tot).real


def _oracle_apply(u, tens, axis):
    moved = np.moveaxis(tens, axis, -1)
    shape = moved.shape
    flat = moved.reshape(shape[0], -1, shape[-1])
    out = np.einsum("rxb,rab->rxa", flat, u)
    return np.moveaxis(out.reshape(shape), -1, axis)


def oracle_orbit_overlap(base, inits, max_iters, tol, target_fidelity=None):
    """The moveaxis + einsum + SVD sweep: every restart is swept until all
    have met tol, and the maximizer of |Tr(U M)| is V W^dagger from the SVD."""
    party_dims = base.shape
    nres = len(inits)
    us = [np.stack([np.asarray(init[t], dtype=complex) for init in inits]) for t in range(len(party_dims))]
    active = [t for t in range(len(party_dims)) if party_dims[t] > 1]
    base_flat = {t: np.moveaxis(base, t, -1).reshape(-1, party_dims[t]) for t in active}

    def overlap_all():
        theta = np.broadcast_to(base, (nres,) + base.shape)
        for t in active:
            theta = _oracle_apply(us[t], theta, t + 1)
        return theta.reshape(nres, -1) @ base.reshape(-1)

    fid = np.abs(overlap_all()) ** 2
    converged = np.zeros(nres, dtype=bool)
    for _ in range(max_iters):
        for t in active:
            theta = np.broadcast_to(base, (nres,) + base.shape)
            for k in active:
                if k != t:
                    theta = _oracle_apply(us[k], theta, k + 1)
            tm = np.moveaxis(theta, t + 1, -1).reshape(nres, -1, party_dims[t])
            o = np.einsum("xa,rxb->rab", base_flat[t], tm)
            w, s, vh = np.linalg.svd(np.swapaxes(o, 1, 2))
            us[t] = np.conj(np.swapaxes(w @ vh, 1, 2))
            new_fid = np.sum(s, axis=1) ** 2
        converged |= new_fid - fid < tol
        fid = new_fid
        if converged.all() or (target_fidelity is not None and fid.max() >= target_fidelity):
            break
    return fid, overlap_all(), us


def unitarity_defect(u):
    eye = np.eye(u.shape[-1])
    return float(np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - eye)))


class TestModularSet:
    def test_maximally_mixed(self):
        ms = ch.modular_set(DensityMatrix((2, 2), np.eye(4) / 4), SPLIT)
        assert np.allclose(ms.p, 0.25) and np.allclose(ms.kappa, np.log(4))
        assert np.allclose(ms.k_a_eigbasis, np.log(2) * np.eye(4))
        assert np.allclose(ms.k_b_eigbasis, np.log(2) * np.eye(4))

    def test_product_additivity_of_logs(self):
        a, b = rho_rand((2,), 20), rho_rand((2,), 20, 1)
        ms = ch.modular_set(tensor_product(a, b), SPLIT)
        assert np.max(np.abs(np.diag(ms.kappa) - ms.k_a_eigbasis - ms.k_b_eigbasis)) < 1e-9

    def test_round_trip(self):
        rho = rho_rand((2, 2), 21)
        ms = ch.modular_set(rho, SPLIT)
        v = ms.eigenvectors
        back = (v * np.exp(-ms.kappa)) @ v.conj().T
        assert np.max(np.abs(back - rho.data)) < 1e-9
        _, k_a, k_b = modular_hamiltonians(rho, SPLIT)
        assert np.max(np.abs(v @ ms.k_a_eigbasis @ v.conj().T - k_a)) < 1e-10
        assert np.max(np.abs(v @ ms.k_b_eigbasis @ v.conj().T - k_b)) < 1e-10

    # (dims, split): the swapped two-qubit split, a reordered non-contiguous
    # group, and a party of dimension 1
    ROTATION_CASES = [
        ((2, 2), Partition(((1,), (0,)))),
        ((2, 3, 2), Partition(((2, 0), (1,)))),
        ((1, 4), Partition(((0,), (1,)))),
    ]

    @pytest.mark.parametrize("dims,split", ROTATION_CASES)
    def test_rotations_match_dense_formula(self, dims, split):
        rho = rho_rand(dims, 23)
        ms = ch.modular_set(rho, split)
        v = ms.eigenvectors
        _, k_a, k_b = modular_hamiltonians(rho, split)
        assert np.max(np.abs(ms.k_a_eigbasis - v.conj().T @ k_a @ v)) <= 1e-14
        assert np.max(np.abs(ms.k_b_eigbasis - v.conj().T @ k_b @ v)) <= 1e-14

    @pytest.mark.parametrize("dims,split", ROTATION_CASES)
    def test_stacked_rotations_match_members(self, dims, split):
        members = [rho_rand(dims, 24, i) for i in range(3)]
        ms = ch.modular_set(DensityMatrix(dims, np.stack([m.data for m in members])), split)
        for i, member in enumerate(members):
            one = ch.modular_set(member, split)
            for field in ("k_a_eigbasis", "k_b_eigbasis"):
                assert np.max(np.abs(getattr(ms, field)[i] - getattr(one, field))) <= 1e-14, field

    def test_j3_prime_matches_commutator_form(self):
        for seed in range(5):
            rho = rho_rand((2, 3), 25, seed)
            ms = ch.modular_set(rho, SPLIT)
            kb = ms.k_b_eigbasis
            x = ch._minus(ms.kappa) * kb
            y = (x @ kb - kb @ x) * np.swapaxes(kb, -1, -2)
            want = float((1j * np.sum(ch._minus(ms.p) * y)).real)
            assert abs(ch.j3_prime(rho, SPLIT) - want) <= 1e-14

    def test_one_party_reads_rotate_one_party(self, monkeypatch):
        calls = []
        apply_local = ch.apply_local
        monkeypatch.setattr(ch, "apply_local", lambda *a: calls.append(a[2]) or apply_local(*a))
        rho = rho_rand((2, 3), 26)
        co.intrinsic_ip(rho, SPLIT, "A")
        assert calls == [(0,)]
        ms = ch.modular_set(rho, SPLIT)
        assert "k_a_eigbasis" in vars(ms) and "k_b_eigbasis" not in vars(ms)
        co.intrinsic_ip(rho, SPLIT, "B")
        assert calls == [(0,), (1,)]

    def test_marginal_hamiltonians_commute(self):
        rho = rho_rand((2, 3), 22)
        ms = ch.modular_set(rho, SPLIT)
        ka, kb = ms.k_a_eigbasis, ms.k_b_eigbasis
        assert np.max(np.abs(ka @ kb - kb @ ka)) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (4, 8)])
    @pytest.mark.parametrize("call", ["measure_report", "intrinsic_ip", "check_gamma_qfi_bound"])
    def test_diagonalises_once(self, monkeypatch, call, dims):
        # one eigendecomposition of rho plus one per marginal
        from chiralkit import correlations as co

        fn = {
            "measure_report": lambda rho: ch.measure_report(rho, SPLIT),
            "intrinsic_ip": lambda rho: co.intrinsic_ip(rho, SPLIT, "A"),
            "check_gamma_qfi_bound": lambda rho: co.check_gamma_qfi_bound(rho, SPLIT),
        }[call]
        rho = rho_rand(dims, 19)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        fn(rho)
        assert len(calls) == 3


class TestModularSetSlot:
    """modular_set holds the set of its latest call: a call on the same state
    object with equal split groups reuses it, any other call releases it."""

    CALLS = {
        "measure_report": lambda rho: ch.measure_report(rho, SPLIT).entries,
        "intrinsic_ip_A": lambda rho: co.intrinsic_ip(rho, SPLIT, "A"),
        "intrinsic_ip_B": lambda rho: co.intrinsic_ip(rho, SPLIT, "B"),
        "check_gamma_qfi_bound": lambda rho: co.check_gamma_qfi_bound(rho, SPLIT),
    }

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: calls.append(np.shape(a)) or eigh(a, *r, **k))
        return calls

    @pytest.mark.parametrize("dims", [(2, 2), (4, 8)])
    def test_four_calls_decompose_once(self, monkeypatch, dims):
        rho = rho_rand(dims, 70)
        alone = {name: call(DensityMatrix(dims, rho.data)) for name, call in self.CALLS.items()}
        calls = self._count_eigh(monkeypatch)
        shared = {name: call(rho) for name, call in self.CALLS.items()}
        d = int(np.prod(dims))
        assert calls == [(dims[0],) * 2, (dims[1],) * 2, (d, d)]
        assert shared == alone  # every value has the bits of a call on a fresh copy

    @pytest.mark.parametrize(
        "other",
        [
            lambda rho: (rho, Partition(((1,), (0,)))),
            lambda rho: (DensityMatrix(rho.dims, rho.data), SPLIT),
            lambda rho: (DensityMatrix(rho.dims, rho.data[None]), SPLIT),
        ],
        ids=["other_split", "equal_data_copy", "stack"],
    )
    def test_misses(self, monkeypatch, other):
        rho = rho_rand((2, 3), 71)
        ms = ch.modular_set(rho, SPLIT)
        calls = self._count_eigh(monkeypatch)
        assert ch.modular_set(rho, SPLIT) is ms
        assert calls == []
        assert ch.modular_set(*other(rho)) is not ms
        assert len(calls) == 3

    def test_invalid_split_raises_when_warm(self):
        rho = rho_rand((2, 3), 72)
        ch.modular_set(rho, SPLIT)
        with pytest.raises(ValueError, match="does not cover"):
            ch.modular_set(rho, Partition(((0,), (2,))))
        with pytest.raises(ValueError, match="expected a bipartition"):
            ch.modular_set(rho, Partition(((0, 1),)))

    def test_next_state_releases_the_held_set(self):
        rho_a, rho_b = rho_rand((2, 2), 73), rho_rand((2, 2), 73, 1)
        held = weakref.ref(ch.modular_set(rho_a, SPLIT))
        assert held() is not None
        ch.modular_set(rho_b, SPLIT)
        assert held() is None

    def test_held_set_is_dead_when_the_next_state_is_decomposed(self, monkeypatch):
        rho_a, rho_b = rho_rand((4, 4), 75), rho_rand((4, 4), 75, 1)
        held = weakref.ref(ch.modular_set(rho_a, SPLIT))
        alive = []
        eigh = np.linalg.eigh

        def spy(a, *r, **k):
            if np.shape(a) == (16, 16):
                alive.append(held() is not None)
            return eigh(a, *r, **k)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        ch.modular_set(rho_b, SPLIT)
        assert alive == [False]

    def test_held_arrays_are_read_only(self):
        ms = ch.modular_set(rho_rand((2, 3), 74), SPLIT)
        decs = [a for d in ms.marginal_decs for a in (d.eigenvalues, d.eigenvectors)]
        marginals = [m.data for m in ms.marginals]
        for a in (ms.p, ms.kappa, ms.eigenvectors, *marginals, *decs, *ms.marginal_k, ms.k_a_eigbasis,
                  ms.k_b_eigbasis, ms.pair_table):
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0] = 0.0


def _rank_two(dims, seed):
    """Equal mixture of two Haar pure states: rank 2, so a degenerate kernel."""
    d = int(np.prod(dims))
    u, v = random_pure_state(d, split_rng(seed, 0)), random_pure_state(d, split_rng(seed, 1))
    return DensityMatrix(dims, 0.5 * (np.outer(u, u.conj()) + np.outer(v, v.conj())))


class TestStackedModularSet:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 8)])
    def test_stack_matches_stack_of_one(self, dims):
        d = int(np.prod(dims))
        members = [
            rho_rand(dims, 30),
            rho_rand(dims, 30, 1),
            pure_state_density(dims, random_pure_state(d, split_rng(31, 0))),
            _rank_two(dims, 32),
        ]
        stack = DensityMatrix(dims, np.stack([m.data for m in members]))
        ms = ch.modular_set(stack, SPLIT)
        values = {
            "J2": ch.j2(stack, SPLIT),
            "J3": ch.j3(stack, SPLIT),
            "J3'": ch.j3_prime(stack, SPLIT),
            "gamma_s": ch.gamma_s(stack, SPLIT, 0.7),
            "phi_s": ch.phi_s(stack, SPLIT, 0.7),
        }
        for i, member in enumerate(members):
            one = ch.modular_set(DensityMatrix(dims, member.data[None]), SPLIT)
            single = ch.modular_set(member, SPLIT)
            for field in ("p", "kappa", "eigenvectors", "k_a_eigbasis", "k_b_eigbasis"):
                got = getattr(ms, field)[i]
                assert np.max(np.abs(got - getattr(one, field)[0])) <= 1e-14, field
                assert np.max(np.abs(got - getattr(single, field))) <= 1e-14, field
            assert abs(values["J2"][i] - ch.j2(member, SPLIT)) <= 1e-14
            assert abs(values["J3"][i] - ch.j3(member, SPLIT)) <= 1e-14
            assert abs(values["J3'"][i] - ch.j3_prime(member, SPLIT)) <= 1e-14
            assert abs(values["gamma_s"][i] - ch.gamma_s(member, SPLIT, 0.7)) <= 1e-14
            assert abs(values["phi_s"][i] - ch.phi_s(member, SPLIT, 0.7)) <= 1e-14

    def test_measures_return_one_value_per_member(self):
        stack = DensityMatrix((2, 2), np.stack([rho_rand((2, 2), 33, i).data for i in range(5)]))
        assert ch.j2(stack, SPLIT).shape == (5,)
        assert ch.gamma_integral(stack, SPLIT).shape == (5,)
        assert isinstance(ch.j2(rho_rand((2, 2), 33), SPLIT), float)

    def test_rank_deficient_member_rejected_by_gamma(self):
        stack = DensityMatrix((2, 3), np.stack([rho_rand((2, 3), 34).data, _rank_two((2, 3), 35).data]))
        with pytest.raises(ValueError, match="rank-deficient"):
            ch.gamma_integral(stack, SPLIT)


class TestNestedCommutatorMeasures:
    def test_product_state_vanishes(self):
        prod = tensor_product(rho_rand((2,), 23), rho_rand((2,), 23, 1))
        assert abs(ch.j2(prod, SPLIT)) < 1e-12
        assert abs(ch.j3(prod, SPLIT)) < 1e-12
        assert abs(ch.j3_prime(prod, SPLIT)) < 1e-12

    def test_two_qubit_pure_state_vanishes(self):
        psi = random_pure_state(4, split_rng(24, 0))
        rho = pure_state_density((2, 2), psi)
        assert abs(ch.j2(rho, SPLIT)) < 1e-9
        assert abs(ch.j3(rho, SPLIT)) < 1e-9

    def test_classical_state_vanishes(self):
        rho = classical_state(25)
        for fn in (ch.j2, ch.j3, ch.j3_prime):
            assert abs(fn(rho, SPLIT)) < 1e-12

    def test_j2_matches_oracle(self):
        rho = rho_rand((2, 2), 26)
        assert ch.j2(rho, SPLIT) == pytest.approx(oracle_j2(rho, SPLIT), abs=1e-12)

    def test_j3_matches_oracle(self):
        rho = rho_rand((2, 2), 27)
        assert ch.j3(rho, SPLIT) == pytest.approx(oracle_j3(rho, SPLIT), abs=1e-12)

    def test_j3_prime_matches_oracle(self):
        rho = rho_rand((2, 2), 27, 1)
        assert ch.j3_prime(rho, SPLIT) == pytest.approx(oracle_j3_prime(rho, SPLIT), abs=1e-11)

    @pytest.mark.parametrize("fn", [ch.j2, ch.j3], ids=["J2", "J3"])
    def test_swap_antisymmetry(self, fn):
        rho = rho_rand((2, 2), 28)
        assert fn(rho, bipartition([1], [0])) == pytest.approx(-fn(rho, SPLIT), abs=1e-9)

    @pytest.mark.parametrize("dims", [(1, 4), (3, 1)])
    def test_party_of_dimension_one(self, dims):
        # a one-dimensional party carries no correlation: every measure, the
        # report and both intrinsic IPs vanish (they read 1e-30 and below)
        from chiralkit.correlations import intrinsic_ip

        rho = DensityMatrix(dims, rho_rand((int(np.prod(dims)),), 30).data)
        values = [
            ch.j2(rho, SPLIT),
            ch.j3(rho, SPLIT),
            ch.j3_prime(rho, SPLIT),
            ch.gamma_s(rho, SPLIT, 0.7),
            ch.phi_s(rho, SPLIT, 0.7),
            ch.gamma_integral(rho, SPLIT),
            intrinsic_ip(rho, SPLIT, "A"),
            intrinsic_ip(rho, SPLIT, "B"),
        ]
        report = ch.measure_report(rho, SPLIT)
        assert len(report.entries) == 6 and not report.notes
        values += list(report.entries.values())
        assert max(abs(v) for v in values) <= 1e-12

    def test_oddness_and_additivity(self):
        rho, sig = rho_rand((2, 2), 29), rho_rand((2, 2), 29, 1)
        comp = bipartition([0, 2], [1, 3])
        for fn in (ch.j2, ch.j3, ch.j3_prime):
            assert fn(conjugate(rho), SPLIT) == pytest.approx(-fn(rho, SPLIT), abs=1e-9)
            total = fn(tensor_product(rho, sig), comp)
            assert total == pytest.approx(fn(rho, SPLIT) + fn(sig, SPLIT), abs=1e-8)


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_match_fifty_digit_oracles(self, dims):
        # J2 and J3' within 1e-15. J3 weights the squared modular gaps, which
        # carry the rounding of the double-precision eigendecomposition: it
        # reads up to 7.3e-15 from the 50-digit value here (state 3 at (2, 2)),
        # as the contraction before the pair table did. J3' is checked where
        # B has at least 3 levels, as it vanishes identically on a qubit B.
        pytest.importorskip("mpmath")
        for i in range(4):
            rho = rho_rand(dims, 61, i)
            assert abs(ch.j2(rho, SPLIT) - mpmath_j2(rho.data, dims)) <= 1e-15
            assert abs(ch.j3(rho, SPLIT) - mpmath_j3(rho.data, dims)) <= 1e-14
            if dims[1] >= 3:
                assert abs(ch.j3_prime(rho, SPLIT) - mpmath_j3_prime(rho.data, dims)) <= 1e-15

    MEASURES = {
        "J2": ch.j2,
        "J3": ch.j3,
        "J3'": ch.j3_prime,
        "gamma_s": lambda rho, split: ch.gamma_s(rho, split, 0.7),
        "phi_s": lambda rho, split: ch.phi_s(rho, split, 0.7),
        "gamma": ch.gamma_integral,
    }

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_imaginary_residue_warns(self, name):
        # rotated Hamiltonians made non-Hermitian by about 1e-6 leave an
        # imaginary residue in every measure read from the held set
        rho = rho_rand((2, 3), 31)
        ms = ch.modular_set(rho, SPLIT)
        rng = split_rng(31, 1)
        for field in ("k_a_eigbasis", "k_b_eigbasis"):
            noise = rng.standard_normal((6, 6, 2)).view(complex)[..., 0]
            vars(ms)[field] = getattr(ms, field) + 1e-6 * noise
        with pytest.warns(RuntimeWarning, match="imaginary residue"):
            self.MEASURES[name](rho, SPLIT)

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_clean_set_does_not_warn(self, name):
        rho = rho_rand((2, 3), 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.MEASURES[name](rho, SPLIT)

class TestModularFlow:
    def test_s_zero(self):
        rho = rho_rand((2, 2), 30)
        _, k_a, _ = modular_hamiltonians(rho, SPLIT)
        kp, km = flowed_k(rho, SPLIT, "A", 0.0)
        assert np.allclose(kp, k_a, atol=1e-12)
        assert np.max(np.abs(km)) < 1e-12

    def test_product_state_flow_is_trivial(self):
        prod = tensor_product(rho_rand((2,), 31), rho_rand((2,), 31, 1))
        _, _, k_b = modular_hamiltonians(prod, SPLIT)
        kp, km = flowed_k(prod, SPLIT, "B", 1.3)
        assert np.max(np.abs(kp - k_b)) < 1e-9
        assert np.max(np.abs(km)) < 1e-9

    def test_series_leading_term(self):
        rho = rho_rand((2, 2), 32)
        k_ab, k_a, _ = modular_hamiltonians(rho, SPLIT)
        s = 1e-4
        _, km = flowed_k(rho, SPLIT, "A", s)
        lead = -s * (k_ab @ k_a - k_a @ k_ab)
        assert np.max(np.abs(km - lead)) < 1e-10

    def test_phase_form_equals_dense_flow(self):
        # the eigenbasis phase kernels of gamma_s and phi_s against the dense
        # flow K_P(s) = u K_P u† with u = exp(i s K_AB) = rho^{-is}
        rho = rho_rand((2, 3), 39)
        _, _, k_b = modular_hamiltonians(rho, SPLIT)
        for s in (0.9, -2.3):
            kp, km = flowed_k(rho, SPLIT, "A", s)
            gamma = np.real(1j * np.trace(rho.data @ (kp @ k_b - k_b @ kp)))
            phi = np.real(1j * np.trace(rho.data @ (km @ k_b + k_b @ km)))
            assert abs(ch.gamma_s(rho, SPLIT, s) - gamma) < 1e-12
            assert abs(ch.phi_s(rho, SPLIT, s) - phi) < 1e-12

    def test_trace_against_state_vanishes(self):
        rho = rho_rand((2, 3), 33)
        _, km = flowed_k(rho, SPLIT, "A", 0.9)
        assert abs(np.trace(rho.data @ km)) < 1e-10

    def test_gamma_phi_at_zero(self):
        rho = rho_rand((2, 2), 34)
        assert abs(ch.gamma_s(rho, SPLIT, 0.0)) < 1e-10
        assert abs(ch.phi_s(rho, SPLIT, 0.0)) < 1e-10

    def test_gamma_s_matches_oracle(self):
        rho = rho_rand((2, 2), 35)
        assert ch.gamma_s(rho, SPLIT, 0.7) == pytest.approx(
            oracle_gamma_s(rho, SPLIT, 0.7), abs=1e-11
        )

    def test_phi_s_matches_oracle(self):
        rho = rho_rand((2, 2), 35, 1)
        assert ch.phi_s(rho, SPLIT, 0.7) == pytest.approx(
            oracle_phi_s(rho, SPLIT, 0.7), abs=1e-11
        )

    def test_derivative_relations(self):
        rho = rho_rand((2, 2), 36)
        d2 = ch.gamma_s_second_difference(rho, SPLIT, 1e-3)
        d1 = ch.phi_s_first_difference(rho, SPLIT, 1e-3)
        assert d2 == pytest.approx(-ch.j3(rho, SPLIT), rel=1e-5, abs=1e-6)
        assert d1 == pytest.approx(-ch.j2(rho, SPLIT), rel=1e-5, abs=1e-6)

    def test_stable_differences_equal_naive_ones(self):
        rho = rho_rand((2, 2), 37)
        h = 1e-3
        naive2 = (
            ch.gamma_s(rho, SPLIT, h) - 2 * ch.gamma_s(rho, SPLIT, 0.0) + ch.gamma_s(rho, SPLIT, -h)
        ) / h**2
        naive1 = (ch.phi_s(rho, SPLIT, h) - ch.phi_s(rho, SPLIT, -h)) / (2 * h)
        assert ch.gamma_s_second_difference(rho, SPLIT, h) == pytest.approx(naive2, abs=1e-7)
        assert ch.phi_s_first_difference(rho, SPLIT, h) == pytest.approx(naive1, abs=1e-7)

    def test_swap_antisymmetry(self):
        rho = rho_rand((2, 2), 38)
        swapped = bipartition([1], [0])
        assert ch.gamma_s(rho, swapped, 0.7) == pytest.approx(-ch.gamma_s(rho, SPLIT, 0.7), abs=1e-9)
        assert ch.phi_s(rho, swapped, 0.7) == pytest.approx(-ch.phi_s(rho, SPLIT, 0.7), abs=1e-9)


class TestGammaIntegral:
    def test_product_state(self):
        prod = tensor_product(rho_rand((2,), 40), rho_rand((2,), 40, 1))
        assert abs(ch.gamma_integral(prod, SPLIT)) < 1e-10

    def test_oddness(self):
        rho = rho_rand((2, 2), 41)
        assert ch.gamma_integral(conjugate(rho), SPLIT) == pytest.approx(
            -ch.gamma_integral(rho, SPLIT), abs=1e-8
        )

    def test_against_sld_form_oracle(self):
        # independent route: -i Tr(K_A sqrt(rho) R^{-1}([rho, K_B]) sqrt(rho))
        from chiralkit.correlations import sld_apply

        rho = rho_rand((2, 2), 42)
        _, k_a, k_b = modular_hamiltonians(rho, SPLIT)
        dec = rho.eig()
        sq = (dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0, None))) @ dec.eigenvectors.conj().T
        c = rho.data @ k_b - k_b @ rho.data
        oracle = np.real(-1j * np.trace(k_a @ sq @ sld_apply(rho, c) @ sq))
        assert ch.gamma_integral(rho, SPLIT) == pytest.approx(oracle, abs=1e-8)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            ch.gamma_integral(chiral_qutrit_qubit(), SPLIT)

    def test_closed_form_matches_quadrature(self):
        for dims in ((2, 2), (2, 3), (4, 8)):
            rho = rho_rand(dims, 43)
            assert abs(ch.gamma_integral(rho, SPLIT) - quadrature_gamma(rho, SPLIT)) < 1e-10

    def test_d1024_memory(self):
        rho = rho_rand((32, 32), 43)
        tracemalloc.start()
        try:
            value = ch.gamma_integral(rho, SPLIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 256 * 2**20


@pytest.mark.parametrize(
    "name,call",
    [
        ("chiral_log_distance", lambda rho: ch.chiral_log_distance(rho, SPLIT, restarts=1)),
        ("measure_report", lambda rho: ch.measure_report(rho, SPLIT)),
    ],
)
def test_single_state_functions_reject_stacks(name, call):
    rho = rho_rand((2, 2), 48)
    with pytest.raises(ShapeMismatchError, match=f"{name} takes a single state"):
        call(DensityMatrix((2, 2), np.stack([rho.data] * 4)))


class TestModularCommutator:
    TRI = Partition(((0,), (1,), (2,)))

    def test_product_vanishes(self):
        prod = tensor_product(tensor_product(rho_rand((2,), 44), rho_rand((2,), 44, 1)), rho_rand((2,), 44, 2))
        assert abs(ch.modular_commutator(prod, self.TRI)) < 1e-10

    def test_tripartite_pure_vanishes(self):
        psi = random_pure_state(8, split_rng(45, 0))
        rho = pure_state_density((2, 2, 2), psi)
        assert abs(ch.modular_commutator(rho, self.TRI)) < 1e-9

    def test_against_oracle(self):
        rho = rho_rand((2, 2, 2), 46)
        assert ch.modular_commutator(rho, self.TRI) == pytest.approx(
            oracle_modular_commutator(rho, self.TRI), abs=1e-11
        )

    def test_stack_matches_single_states(self):
        # eight members of dimension eight, so a trace over the wrong axes
        # would run without an error
        members = [rho_rand((2, 2, 2), 47, i) for i in range(7)]
        members.append(pure_state_density((2, 2, 2), random_pure_state(8, split_rng(47, 7))))
        stack = DensityMatrix((2, 2, 2), np.stack([m.data for m in members]))
        values = ch.modular_commutator(stack, self.TRI)
        assert values.shape == (8,)
        for value, member in zip(values, members):
            assert abs(value - ch.modular_commutator(member, self.TRI)) <= 1e-14


class TestLogDistanceOptimizer:
    def test_product_basis_state(self):
        rho = pure_state_density((2, 2), [1, 0, 0, 0])
        val, res = ch.chiral_log_distance(rho, SPLIT, restarts=1)
        assert val <= 1e-12 and res.best_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_bipartite_pure_state(self):
        psi = random_pure_state(4, split_rng(47, 0))
        rho = pure_state_density((2, 2), psi)
        val, _ = ch.chiral_log_distance(rho, SPLIT, restarts=5, seed=47)
        assert val < 1e-8

    def test_block_state_is_chiral(self):
        rho = chiral_qutrit_qubit((0.5, 0.3, 0.2))
        val, res = ch.chiral_log_distance(rho, SPLIT, restarts=50, seed=48)
        assert res.best_fidelity < 1 - 1e-3
        assert not res.certifies_nonchirality

    def test_value_nonnegative_and_overlap_consistent(self):
        rho = rho_rand((2, 2), 49)
        val, res = ch.chiral_log_distance(rho, SPLIT, restarts=8, seed=49)
        assert val >= -1e-12
        assert res.best_fidelity <= 1 + 1e-12
        recomputed = orbit_overlap(rho, SPLIT, res.unitaries)
        assert abs(recomputed - res.overlap) < 1e-9
        assert abs(abs(recomputed) ** 2 - res.best_fidelity) < 1e-9

    def test_evenness_under_conjugation(self):
        rho = rho_rand((2, 2), 50)
        v1, _ = ch.chiral_log_distance(rho, SPLIT, restarts=20, seed=50)
        v2, _ = ch.chiral_log_distance(conjugate(rho), SPLIT, restarts=20, seed=51)
        assert v1 == pytest.approx(v2, abs=1e-6)

    def test_restart_accounting(self):
        rho = rho_rand((2, 2), 52)
        _, res = ch.chiral_log_distance(rho, SPLIT, restarts=4, seed=52)
        assert res.restarts == 4
        assert len(res.iterations_per_restart) == 4
        assert len(res.fidelities) == 4
        fid = res.fidelities
        assert res.best_restart == int(np.flatnonzero(fid >= fid.max() - ch.BEST_RESTART_TIE)[0])
        assert res.best_fidelity == fid.max()
        # the identity start and each extra init always run: at least
        # 1 + len(extra_inits) restarts, whatever restarts asks
        extra = [np.eye(2), np.eye(2)]
        for restarts, inits, ran in ((1, 1, 2), (1, 3, 4), (3, 1, 3), (4, 2, 4), (5, 2, 5)):
            _, res = ch.chiral_log_distance(rho, SPLIT, restarts=restarts, seed=52, extra_inits=[extra] * inits)
            assert res.restarts == len(res.fidelities) == ran

    def test_extra_inits_are_used(self):
        # warm-starting with the exact conjugating unitaries gives fidelity 1
        rho = DensityMatrix((2,), (np.eye(2) + np.array([[0, -1j], [1j, 0]])) / 2)
        part = Partition(((0,),))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        val, res = ch.chiral_log_distance(
            rho, part, restarts=1, extra_inits=[[x]], seed=0
        )
        assert res.best_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_real_states_give_nonnegative_zero(self):
        # the best fidelity of a real state can round above 1; it is reported
        # as at most 1, and the log-distance as +0.0
        for i in range(30):
            rho = rho_rand((2, 2), 58, i)
            real = DensityMatrix((2, 2), 0.5 * (rho.data + rho.data.conj()))
            val, res = ch.chiral_log_distance(real, SPLIT, restarts=2, seed=i)
            assert val >= 0.0 and math.copysign(1, val) == 1
            assert res.best_fidelity <= 1.0 and np.all(res.fidelities <= 1.0)

    def test_target_stop_does_not_report_max_iters(self):
        rho = random_two_qubit_maximally_mixed(split_rng(1212, 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ch.chiral_log_distance(rho, SPLIT, restarts=100, seed=3_000_000, target_fidelity=1.0 - 1e-4)
        assert not [w for w in caught if "max_iters" in str(w.message)]

    def test_requires_at_least_one_restart(self):
        with pytest.raises(ValueError, match="restarts"):
            ch.chiral_log_distance(rho_rand((2, 2), 53), SPLIT, restarts=0)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_requires_at_least_one_iteration(self, max_iters):
        with pytest.raises(ValueError, match=r"^max_iters must be >= 1$"):
            ch.chiral_log_distance(rho_rand((2, 2), 53), SPLIT, restarts=2, max_iters=max_iters)

    def test_parties_of_dimension_one(self):
        # no party has a unitary to optimize; every restart converges at once
        rho = DensityMatrix((1,), np.eye(1, dtype=complex))
        val, res = ch.chiral_log_distance(rho, Partition(((0,),)), restarts=2)
        assert val == 0.0 and res.best_fidelity == pytest.approx(1.0, abs=1e-15)
        assert res.iterations_per_restart == [1, 1] and all(res.converged)

    def test_stationarity_reported_per_restart(self):
        psi = random_pure_state(4, split_rng(47, 0))
        rho = pure_state_density((2, 2), psi)
        _, res = ch.chiral_log_distance(rho, SPLIT, restarts=5, seed=47)
        assert len(res.stationarity) == res.restarts
        done = np.asarray(res.converged)
        assert done.any() and np.all(res.stationarity[done] <= 1e-6)


def _orbit_cases():
    cases = [(f"mixed{i}", rho_rand((2, 2), 90, i), SPLIT) for i in range(10)]
    three = Partition(((0,), (1,), (2,)))
    for i in range(5):
        psi = random_pure_state(8, split_rng(91, i))
        cases.append((f"pure3q{i}", pure_state_density((2, 2, 2), psi), three))
    cases.append(("C10", commuting_chiral_qudit_qubit((0.05, 0.06, 0.07, 0.82)), SPLIT))
    return cases


ORBIT_CASES = _orbit_cases()
# the orbit cases, all under the pair-tensor size limit, and full-rank states
# over it
PAIR_CASES = ORBIT_CASES + [(f"full{dims}", rho_rand(dims, 106), SPLIT) for dims in ((3, 3), (3, 4))]


def _kernel_call(monkeypatch, rho, part, **kwargs):
    """The kernel's inputs, with the start stacks as per-restart lists of
    unitaries for the sweep oracle, its outputs inside a public call, and
    the call's result."""
    seen = {}
    kernel = ch.alternating_orbit_overlap

    def recording(base, starts, *rest):
        seen["args"] = (base, [list(us) for us in zip(*starts)], *rest)
        seen["out"] = kernel(base, starts, *rest)
        return seen["out"]

    monkeypatch.setattr(ch, "alternating_orbit_overlap", recording)
    _, res = ch.chiral_log_distance(rho, part, **kwargs)
    return seen["args"], seen["out"], res


def _random_unitaries(party_dims, nres, seed):
    rng = split_rng(seed, 0)
    return [np.stack([haar_unitary(d, rng) for _ in range(nres)]) for d in party_dims]


class TestOrbitKernel:
    @pytest.mark.parametrize("rho,part", [c[1:] for c in ORBIT_CASES], ids=[c[0] for c in ORBIT_CASES])
    def test_matches_einsum_oracle(self, monkeypatch, rho, part):
        # the sweep oracle run to 30000 sweeps reaches the maxima the second-order
        # finish stops at; against 1000 sweeps the new value may only be higher
        args, out, res = _kernel_call(monkeypatch, rho, part, restarts=20, seed=92)
        fid, _, us = out[:3]
        base, inits, _, target = args
        tol = ch.ORBIT_TOL
        long_fid = oracle_orbit_overlap(base, inits, 30000, tol, target)[0]
        assert abs(fid.max() - long_fid.max()) <= 1e-10
        assert fid.max() >= oracle_orbit_overlap(base, inits, 1000, tol, target)[0].max() - 1e-12
        assert max(unitarity_defect(u) for u in us) <= 1e-12
        assert abs(abs(orbit_overlap(rho, part, res.unitaries)) ** 2 - res.best_fidelity) <= 1e-12

    def test_best_restart_is_lowest_index_among_ties(self):
        # a real state starts at fidelity 1 from I and from e^{i phi} I; the
        # two fidelities differ only by rounding, which argmax used to follow
        rho = DensityMatrix((2, 2), rho_rand((2, 2), 61, 2).data.real)
        base, party_dims = ch._fused_purification(rho, SPLIT)
        for phi in np.linspace(0.1, 3.0, 30):
            starts = [np.stack([np.eye(d), np.eye(d)]).astype(complex) for d in party_dims]
            starts[0][1] *= np.exp(1j * phi)
            fid, overlaps, _, _, _, _, best = ch.alternating_orbit_overlap(base, starts, 0)
            assert abs(fid[1] - fid[0]) <= ch.BEST_RESTART_TIE and fid.max() == pytest.approx(1.0, abs=1e-14)
            assert best == 0
            assert overlaps[best] == orbit_overlap(rho, SPLIT, [s[0] for s in starts])

    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    @pytest.mark.parametrize("name", ["mixed0", "mixed6", "pure3q1", "C10"])
    def test_stationary_restarts_meet_sqrt_tol(self, monkeypatch, name, tol):
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        monkeypatch.setattr(ch, "ORBIT_TOL", tol)
        _, res = ch.chiral_log_distance(rho, part, restarts=20, seed=93)
        reasons = np.array(res.stop_reasons)
        assert set(reasons) <= {"stationary", "target", "cap"}
        assert res.converged == list(reasons == "stationary")
        assert np.all(res.stationarity[reasons == "stationary"] <= np.sqrt(tol))

    @pytest.mark.parametrize("name", ["mixed3", "mixed9", "pure3q0", "C10"])
    def test_fidelity_never_falls_below_the_switch(self, monkeypatch, name):
        # per restart, the sweep oracle alone up to the switch: gain below
        # sqrt(tol), or the sweep budget
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        args, out, _ = _kernel_call(monkeypatch, rho, part, restarts=20, seed=94)
        base, inits, _, _ = args
        tol = ch.ORBIT_TOL
        for r, init in enumerate(inits):
            at_switch = oracle_orbit_overlap(base, [init], ch._SWEEP_BUDGET, np.sqrt(tol))[0][0]
            assert out[0][r] >= at_switch - 1e-12

    def test_newton_steps_never_lower_the_fidelity(self):
        # from Haar-random unitaries, where the model often overshoots: a step
        # that would lower the fidelity is refused and its radius shrinks
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == "mixed5")
        base, party_dims = ch._fused_purification(rho, part)
        orbit = ch._OrbitContraction(base)
        us = _random_unitaries(party_dims, 40, 99)
        fid = np.abs(orbit.overlaps(us)) ** 2
        radius = np.full(40, 3.0)
        refused = 0
        for _ in range(15):
            before = [u.copy() for u in us]
            us, new_fid, radius = ch._newton_iteration(orbit, us, orbit.apply(us), radius)
            assert np.all(new_fid >= fid)
            assert np.allclose(np.abs(orbit.overlaps(us)) ** 2, new_fid, rtol=0, atol=1e-14)
            refused += int(np.sum(np.all([np.all(a == b, axis=(1, 2)) for a, b in zip(us, before)], axis=0)))
            fid = new_fid
        assert refused > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_hermitian_basis_is_orthonormal_and_traceless(self, d):
        basis = ch._hermitian_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        assert np.allclose(np.einsum("kab,lba->kl", basis, basis), np.eye(d * d - 1), rtol=0, atol=1e-15)
        assert np.array_equal(basis, np.conj(np.swapaxes(basis, 1, 2)))
        assert np.allclose(np.trace(basis, axis1=1, axis2=2), 0.0, rtol=0, atol=1e-15)

    def test_stationarity_is_phase_invariant(self):
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == "mixed2")
        base, party_dims = ch._fused_purification(rho, part)
        orbit = ch._OrbitContraction(base)
        us = _random_unitaries(party_dims, 6, 95)
        reference = orbit.stationarity(orbit.apply(us))
        assert np.all(reference > 1e-3)
        for t, phi in zip(range(len(us)), (0.3, 2.0, -1.1)):
            turned = list(us)
            turned[t] = us[t] * np.exp(1j * phi)
            assert np.max(np.abs(orbit.stationarity(orbit.apply(turned)) - reference)) <= 1e-13

    @pytest.mark.parametrize("name", ["mixed1", "pure3q2", "C10"])
    def test_derivatives_match_finite_differences(self, name):
        # central differences of the fidelity along each coordinate of
        # exp(i sum_k x_k E_k) U_t, and of its gradient for the Hessian
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        base, party_dims = ch._fused_purification(rho, part)
        orbit = ch._OrbitContraction(base)
        us = _random_unitaries(party_dims, 2, 96)
        fid, grad, hess = orbit.derivatives(orbit.apply(us))
        assert np.allclose(fid, np.abs(orbit.overlaps(us)) ** 2, rtol=0, atol=1e-14)
        h = 1e-5
        kicks = np.eye(orbit.nparams) * h

        def moved(sign):
            shifted = [np.repeat(u, orbit.nparams, axis=0) for u in us]
            steps = np.tile(sign * kicks, (len(us[0]), 1))
            return orbit.derivatives(orbit.apply(orbit.rotate(shifted, steps)))

        plus, minus = moved(1.0), moved(-1.0)
        fd_grad = ((plus[0] - minus[0]) / (2 * h)).reshape(grad.shape)
        fd_hess = ((plus[1] - minus[1]) / (2 * h)).reshape(hess.shape)
        # a gradient at the moved point is taken in that point's own
        # coordinates; the difference is antisymmetric (the commutator term
        # of exp(iA) exp(iB)), so the symmetric part is the Hessian
        fd_hess = 0.5 * (fd_hess + np.swapaxes(fd_hess, 1, 2))
        assert np.max(np.abs(fd_grad - grad)) <= 1e-8
        assert np.max(np.abs(fd_hess - hess)) <= 1e-7
        assert np.max(np.abs(hess - np.swapaxes(hess, 1, 2))) <= 1e-14

    @staticmethod
    def _rank_two(dims, seed):
        rng = split_rng(seed, 0)
        a, b = (random_pure_state(int(np.prod(dims)), rng) for _ in range(2))
        return DensityMatrix(dims, 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj()))

    REDUCED_CASES = {
        "(2, 2)": lambda: (rho_rand((2, 2), 121), SPLIT),
        "(2, 3)": lambda: (rho_rand((2, 3), 121), SPLIT),
        "(2, 2, 2) A|BC": lambda: (rho_rand((2, 2, 2), 121), Partition(((0,), (1, 2)))),
        "(2, 3) rank 2": lambda: (TestOrbitKernel._rank_two((2, 3), 121), SPLIT),
    }

    @pytest.mark.parametrize("case", list(REDUCED_CASES))
    def test_reduced_derivatives_match_the_trace_norm_oracle(self, case):
        # f(x) = ||N(x)||_1^2, N the ancilla's data matrix after the system
        # rotations x and the trace norm from the SVD, is the fidelity
        # maximized over the ancilla unitary. With the ancilla at that
        # maximum, central differences of f give the gradient and the Schur
        # complement that system_derivatives returns
        rho, part = self.REDUCED_CASES[case]()
        base, party_dims = ch._fused_purification(rho, part)
        orbit = ch._OrbitContraction(base)
        w, m = orbit.ancilla, orbit.nsystem
        assert w == len(party_dims) - 1 and 0 < m < orbit.nparams
        us = _random_unitaries(party_dims, 2, 120)
        left, _, right = np.linalg.svd(orbit.data_matrix(us, w))
        us[w] = np.conj(np.swapaxes(left @ right, 1, 2))

        def f(x):
            # x (R, k, m): k displacements per restart
            k = x.shape[1]
            moved = orbit.rotate([np.repeat(u, k, axis=0) for u in us], x.reshape(-1, m))
            norms = np.linalg.svd(orbit.data_matrix(moved, w), compute_uv=False).sum(axis=1)
            return (norms**2).reshape(-1, k)

        fid, grad, schur = orbit.system_derivatives(orbit.apply(us))
        _, _, hess = orbit.derivatives(orbit.apply(us))
        assert grad.shape == (2, m) and schur.shape == (2, m, m)
        assert np.allclose(f(np.zeros((2, 1, m)))[:, 0], fid, rtol=1e-14, atol=0)
        h = 1e-4
        e = np.eye(m) * h
        ones = np.ones((2, 1, 1))
        fd_grad = (f(e * ones) - f(-e * ones)) / (2 * h)
        i, j = (a.ravel() for a in np.meshgrid(range(m), range(m), indexing="ij"))
        corners = [f((sa * e[i] + sb * e[j]) * ones) for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        fd_hess = ((corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)).reshape(2, m, m)
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(fd_hess - schur)) <= 1e-6 * np.max(np.abs(schur))
        # the ancilla's block moves the system Hessian: H_xx alone fails the oracle
        assert np.max(np.abs(hess[:, :m, :m] - schur)) > 1e-3 * np.max(np.abs(schur))

    def test_singular_ancilla_block_holds_the_ancilla_for_the_step(self, monkeypatch):
        # a stack whose ancilla block cannot be solved takes S = H_xx; the
        # step still re-optimises the ancilla and never lowers a fidelity
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == "mixed3")
        base, party_dims = ch._fused_purification(rho, part)
        orbit = ch._OrbitContraction(base)
        us = _random_unitaries(party_dims, 6, 122)
        theta = orbit.apply(us)
        _, grad, hess = orbit.derivatives(theta)
        m, solve = orbit.nsystem, np.linalg.solve

        def singular(a, b):
            if a.shape[-1] == orbit.nparams - m:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        fid, g, schur = orbit.system_derivatives(theta)
        assert np.array_equal(g, grad[:, :m]) and np.array_equal(schur, hess[:, :m, :m])
        after, new_fid, _ = ch._newton_iteration(orbit, us, theta, np.full(6, 0.5))
        assert np.all(new_fid > fid)
        best = np.linalg.svd(orbit.data_matrix(after, orbit.ancilla), compute_uv=False).sum(axis=1) ** 2
        assert np.allclose(new_fid, best, rtol=1e-14, atol=0)

    def test_ancilla_is_at_its_optimum_after_every_accepted_step(self, monkeypatch):
        # ||skew(e^{-i arg o} U_w M_w)||_F of the ancilla w, on every restart
        # whose Newton step was accepted
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == "mixed0")
        newton = ch._newton_iteration
        seen = []

        def checking(orbit, us, theta, radius):
            out = newton(orbit, us, theta, radius)
            after = out[0]
            moved = ~np.all([np.all(a == b, axis=(1, 2)) for a, b in zip(after, us)], axis=0)
            lw = after[orbit.ancilla][moved] @ orbit.data_matrix([u[moved] for u in after], orbit.ancilla)
            o = np.trace(lw, axis1=1, axis2=2)
            lw = (o.conj() / np.abs(o))[:, None, None] * lw
            seen.extend(np.linalg.norm(0.5 * (lw - np.conj(np.swapaxes(lw, 1, 2))), axis=(1, 2)))
            return out

        monkeypatch.setattr(ch, "_newton_iteration", checking)
        _, res = ch.chiral_log_distance(rho, part, restarts=20, seed=92)
        assert res.stop_reasons == ["stationary"] * 20
        assert len(seen) >= 20 and max(seen) <= 1e-12

    @pytest.mark.parametrize("name", ["pure3q2", "mixed4"])
    def test_sweeps_replace_newton_above_the_size_limit(self, monkeypatch, name):
        # with no Hessian rows the restarts keep sweeping under the same stops,
        # and each sweeps at least until its gain falls below tol, as the
        # sweep oracle of one restart does
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        _, newton = ch.chiral_log_distance(rho, part, restarts=5, seed=97)
        monkeypatch.setattr(ch, "_SECOND_ORDER_MAX_ENTRIES", 0)
        args, out, res = _kernel_call(monkeypatch, rho, part, restarts=5, seed=97, max_iters=20000)
        base, inits, _, _ = args
        tol = ch.ORBIT_TOL
        assert ch._OrbitContraction(base).rows is None
        reasons = np.array(res.stop_reasons)
        assert set(reasons) == {"stationary"}
        assert np.all(res.stationarity <= 1e-6)
        assert res.best_fidelity == pytest.approx(newton.best_fidelity, abs=1e-10)
        for r, init in enumerate(inits):
            assert out[0][r] >= oracle_orbit_overlap(base, [init], 20000, tol)[0][0] - 1e-13

    @pytest.mark.parametrize(
        "name,limit", [("mixed7", None), ("pure3q3", None), ("C10", None), ("mixed7", 0)]
    )
    def test_restarts_are_independent_without_target(self, monkeypatch, name, limit):
        # with no target a restart's course does not depend on the rest of its
        # stack: waiting for the last sweeping restart only delays its Newton
        # steps; the same holds on the sweep path above the size limit
        if limit is not None:
            monkeypatch.setattr(ch, "_SECOND_ORDER_MAX_ENTRIES", limit)
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        base, party_dims = ch._fused_purification(rho, part)
        starts = _random_unitaries(party_dims, 20, 100)
        full = ch.alternating_orbit_overlap(base, starts, 1000)
        halves = [ch.alternating_orbit_overlap(base, [s[h] for s in starts], 1000)
                  for h in (slice(0, 10), slice(10, 20))]
        assert full[3].tolist() == halves[0][3].tolist() + halves[1][3].tolist()
        assert full[4] == halves[0][4] + halves[1][4]
        assert np.max(np.abs(full[0] - np.concatenate([h[0] for h in halves]))) <= 1e-13

    @pytest.mark.parametrize(
        "rho,part", [c[1:] for c in PAIR_CASES], ids=[c[0] for c in PAIR_CASES]
    )
    def test_pair_data_matrices_match_applied_unitaries(self, monkeypatch, rho, part):
        # M_t from the pair unfoldings against the other unitaries applied to
        # the base, under the size limit and, with the limit raised, above it
        base, party_dims = ch._fused_purification(rho, part)
        monkeypatch.setattr(ch, "_PAIR_TENSOR_MAX_DIM", base.size)
        orbit = ch._OrbitContraction(base)
        assert sorted(orbit.pairs) == orbit.active
        us = _random_unitaries(party_dims, 7, 102)
        for t in orbit.active:
            applied = orbit._party_matrix(orbit.apply(us, skip=t), t)
            assert np.max(np.abs(orbit.data_matrix(us, t) - applied)) <= 1e-14 * np.max(np.abs(applied))

    def test_size_limit_keeps_large_states_on_the_apply_path(self, monkeypatch):
        for _, rho, part in ORBIT_CASES:
            assert ch._OrbitContraction(ch._fused_purification(rho, part)[0]).pairs
        for dims in ((3, 3), (3, 4), (4, 4)):
            base, _ = ch._fused_purification(rho_rand(dims, 103), SPLIT)
            assert base.size > ch._PAIR_TENSOR_MAX_DIM and not ch._OrbitContraction(base).pairs
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == "C10")
        base, party_dims = ch._fused_purification(rho, part)
        monkeypatch.setattr(ch, "_PAIR_TENSOR_MAX_DIM", base.size - 1)
        orbit = ch._OrbitContraction(base)
        assert not orbit.pairs
        us = _random_unitaries(party_dims, 5, 104)
        for t in orbit.active:
            assert np.array_equal(orbit.data_matrix(us, t), orbit._party_matrix(orbit.apply(us, skip=t), t))

    @pytest.mark.parametrize("name", ["mixed8", "pure3q4", "C10"])
    def test_apply_path_takes_the_same_course(self, monkeypatch, name):
        # the two forms of M_t differ in rounding only: the same iterations,
        # stop reasons and best restart, and fidelities within 1e-13
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        base, party_dims = ch._fused_purification(rho, part)
        starts = _random_unitaries(party_dims, 20, 105)
        pair = ch.alternating_orbit_overlap(base, starts, 1000)
        monkeypatch.setattr(ch, "_PAIR_TENSOR_MAX_DIM", 0)
        applied = ch.alternating_orbit_overlap(base, starts, 1000)
        assert pair[3].tolist() == applied[3].tolist()
        assert pair[4] == applied[4] and pair[6] == applied[6]
        assert np.max(np.abs(pair[0] - applied[0])) <= 1e-13

    def test_cap_and_target_reasons(self):
        rho = rho_rand((2, 2), 98)
        with pytest.warns(RuntimeWarning, match="5 of 5 restarts hit max_iters=3"):
            _, res = ch.chiral_log_distance(rho, SPLIT, restarts=5, seed=98, max_iters=3)
        assert res.stop_reasons == ["cap"] * 5 and res.iterations_per_restart == [3] * 5
        assert not any(res.converged)
        rho = random_two_qubit_maximally_mixed(split_rng(1212, 0))
        _, res = ch.chiral_log_distance(rho, SPLIT, restarts=100, seed=3_000_000, target_fidelity=1.0 - 1e-4)
        assert res.best_fidelity >= 1.0 - 1e-4 and "target" in res.stop_reasons
        assert set(res.stop_reasons) <= {"target", "stationary"}

    # (iterations per restart, first letters of the stop reasons) of
    # chiral_log_distance(restarts=20, seed=92): with no target each restart
    # sweeps at most _SWEEP_BUDGET times, then takes Newton steps
    PINNED_COURSES = {
        "mixed0": ([14, 20, 17, 19, 16, 17, 15, 19, 16, 18, 19, 20, 16, 19, 15, 15, 20, 18, 16, 14], "s" * 20),
        "mixed1": ([13, 15, 16, 14, 14, 15, 14, 14, 14, 15, 14, 15, 18, 18, 16, 16, 14, 14, 14, 15], "s" * 20),
        "mixed2": ([13, 13, 14, 13, 14, 15, 14, 13, 15, 13, 15, 13, 13, 13, 14, 14, 13, 14, 13, 14], "s" * 20),
        "mixed3": ([14, 17, 16, 17, 15, 15, 16, 14, 15, 14, 17, 15, 17, 16, 17, 13, 16, 14, 16, 16], "s" * 20),
        "mixed4": ([16, 15, 14, 14, 16, 14, 15, 15, 15, 13, 15, 15, 16, 15, 14, 13, 14, 14, 16, 15], "s" * 20),
        "mixed5": ([13, 15, 14, 16, 15, 13, 15, 17, 15, 13, 15, 16, 15, 14, 15, 13, 13, 17, 15, 14], "s" * 20),
        "mixed6": ([14, 19, 16, 18, 16, 22, 20, 18, 16, 14, 15, 18, 16, 18, 21, 17, 15, 17, 20, 15], "s" * 20),
        "mixed7": ([15, 17, 16, 16, 16, 16, 17, 14, 17, 19, 16, 16, 17, 14, 15, 16, 14, 17, 16, 16], "s" * 20),
        "mixed8": ([14, 16, 19, 16, 18, 14, 18, 18, 17, 13, 14, 16, 19, 15, 15, 13, 20, 18, 14, 19], "s" * 20),
        "mixed9": ([16, 14, 16, 15, 15, 17, 15, 15, 14, 16, 15, 15, 15, 13, 15, 15, 18, 18, 17, 14], "s" * 20),
        "pure3q0": ([16, 13, 14, 14, 13, 14, 13, 14, 16, 16, 13, 15, 14, 14, 13, 16, 18, 13, 14, 15], "s" * 20),
        "pure3q1": ([14, 15, 14, 15, 13, 13, 17, 14, 15, 13, 15, 14, 15, 14, 15, 15, 13, 13, 13, 17], "s" * 20),
        "pure3q2": ([16, 13, 14, 14, 13, 13, 13, 17, 16, 14, 14, 15, 15, 16, 14, 13, 16, 15, 14, 16], "s" * 20),
        "pure3q3": ([14, 16, 16, 13, 14, 16, 15, 14, 16, 15, 16, 13, 13, 13, 13, 16, 14, 13, 15, 13], "s" * 20),
        "pure3q4": ([14, 16, 14, 14, 17, 14, 14, 13, 16, 13, 16, 15, 14, 16, 14, 15, 15, 14, 17, 15], "s" * 20),
        "C10": ([15, 13, 13, 14, 14, 13, 14, 15, 13, 14, 14, 14, 15, 15, 14, 14, 15, 13, 15, 14], "s" * 20),
    }
    # the same with no Hessian rows (restarts=5, seed=97, max_iters=20000)
    PINNED_SWEEP_COURSES = {
        "mixed4": ([272, 145, 212, 175, 176], "s" * 5),
        "pure3q2": ([96, 82, 73, 99, 65], "s" * 5),
        "C10": ([320, 310, 102, 471, 401], "s" * 5),
    }

    @staticmethod
    def _course(res):
        return res.iterations_per_restart, "".join(r[0] for r in res.stop_reasons)

    @pytest.mark.parametrize("name", list(PINNED_COURSES))
    def test_pinned_courses(self, name):
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        _, res = ch.chiral_log_distance(rho, part, restarts=20, seed=92)
        assert self._course(res) == self.PINNED_COURSES[name]

    @pytest.mark.parametrize("name", list(PINNED_SWEEP_COURSES))
    def test_pinned_sweep_courses(self, monkeypatch, name):
        monkeypatch.setattr(ch, "_SECOND_ORDER_MAX_ENTRIES", 0)
        _, rho, part = next(c for c in ORBIT_CASES if c[0] == name)
        _, res = ch.chiral_log_distance(rho, part, restarts=5, seed=97, max_iters=20000)
        assert self._course(res) == self.PINNED_SWEEP_COURSES[name]

    def test_pinned_target_course(self):
        rho = random_two_qubit_maximally_mixed(split_rng(1212, 0))
        _, res = ch.chiral_log_distance(rho, SPLIT, restarts=100, seed=3_000_000, target_fidelity=1.0 - 1e-4)
        assert self._course(res) == ([14] * 100, "t" * 100)

    @staticmethod
    def _sweeps_before_newton(monkeypatch, rho, **kwargs):
        """The sweep passes of a chiral_log_distance call before its first
        Newton step, and the call's result. Newton steps wait for the last
        sweeping restart, so this is the largest sweep count of a restart."""
        passes = []
        sweep, newton = ch._sweep, ch._newton_iteration

        def counting_sweep(*args):
            passes.append("s")
            return sweep(*args)

        def counting_newton(*args):
            passes.append("n")
            return newton(*args)

        monkeypatch.setattr(ch, "_sweep", counting_sweep)
        monkeypatch.setattr(ch, "_newton_iteration", counting_newton)
        _, res = ch.chiral_log_distance(rho, SPLIT, **kwargs)
        assert "n" in passes
        return passes.index("n"), res

    def test_untargeted_restarts_leave_the_sweeps_by_the_budget(self, monkeypatch):
        # every restart takes its first Newton step after at most
        # _SWEEP_BUDGET sweeps, fewer than a targeted call's budget
        _, rho, _ = next(c for c in ORBIT_CASES if c[0] == "mixed0")
        sweeps, res = self._sweeps_before_newton(monkeypatch, rho, restarts=20, seed=92)
        assert sweeps <= ch._SWEEP_BUDGET < ch._TARGET_SWEEP_BUDGET
        assert res.stop_reasons == ["stationary"] * 20

    def test_targeted_restarts_keep_the_longer_budget(self, monkeypatch):
        # C10's state cannot reach the target (its best fidelity is 0.996304):
        # some restart sweeps past _SWEEP_BUDGET, none past the targeted budget
        _, rho, _ = next(c for c in ORBIT_CASES if c[0] == "C10")
        sweeps, res = self._sweeps_before_newton(
            monkeypatch, rho, restarts=100, seed=1010, target_fidelity=1.0 - 1e-4
        )
        assert ch._SWEEP_BUDGET < sweeps <= ch._TARGET_SWEEP_BUDGET
        assert res.best_fidelity == pytest.approx(0.996304, abs=5e-7)
        assert "target" not in res.stop_reasons

    def test_qubit_exponential_matches_eigh(self):
        # rotate's closed form on qubit parties against V e^{i lambda} V^dagger
        # and a 40-digit exponential, for x = 0 and |x| from 1e-16 to the
        # largest trust-region step, 1.1 pi
        import mpmath

        base, _ = ch._fused_purification(pure_state_density((2, 2), random_pure_state(4, split_rng(111, 0))), SPLIT)
        orbit = ch._OrbitContraction(base)
        assert [orbit.shapes[t][1] for t in orbit.active] == [2, 2]
        x = split_rng(111, 1).standard_normal((80, 2, 3))
        x *= (np.logspace(-16, np.log10(1.1 * np.pi), 80)[:, None] / np.linalg.norm(x, axis=2))[:, :, None]
        x[0] = 0.0
        eye = np.broadcast_to(np.eye(2, dtype=complex), (80, 2, 2))
        rotated = orbit.rotate([eye, eye], x.reshape(80, 6))
        basis = ch._hermitian_basis(2)
        for t in orbit.active:
            h = np.tensordot(x[:, t], basis, axes=1)
            w, v = np.linalg.eigh(h)
            oracle = (v * np.exp(1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
            assert np.max(np.abs(rotated[t] - oracle)) <= 1e-15
            assert unitarity_defect(rotated[t]) <= 1e-15
            with mpmath.workdps(40):
                for r in range(1, 80, 8):
                    exact = mpmath.expm(1j * mpmath.matrix(h[r].tolist()))
                    exact = np.array(exact.tolist(), dtype=complex)
                    assert np.max(np.abs(rotated[t][r] - exact)) <= 5e-16
        assert np.array_equal(rotated[0][0], np.eye(2))


class TestTrustRegionStep:
    """The Cholesky-first step against the eigendecomposition path, which a
    stack takes when some B = -hess is not positive definite or some Newton
    step does not fit."""

    @staticmethod
    def stack(seed, nres=30, n=21):
        rng = split_rng(seed, 0)
        a = rng.standard_normal((nres, n, n))
        b = a @ np.swapaxes(a, 1, 2) / n + 0.05 * np.eye(n)
        return 1e-2 * rng.standard_normal((nres, n)), -b

    @staticmethod
    def eigh_step(monkeypatch, grad, hess, radius):
        def refuse(a):
            raise np.linalg.LinAlgError("not positive definite")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", refuse)
            return ch._trust_region_step(grad, hess, radius)

    def test_cholesky_step_matches_eigh_step(self, monkeypatch):
        grad, hess = self.stack(112)
        radius = np.full(len(grad), 10.0)
        reference = self.eigh_step(monkeypatch, grad, hess, radius)
        calls = TestModularSetSlot._count_eigh(monkeypatch)
        x, increase = ch._trust_region_step(grad, hess, radius)
        assert calls == []
        assert np.max(np.abs(x - reference[0])) <= 1e-12
        assert np.max(np.abs(increase - reference[1])) <= 1e-12
        assert np.max(np.abs(np.einsum("rij,rj->ri", -hess, x) - grad)) <= 1e-14

    @pytest.mark.parametrize("case", ["indefinite", "too_long"])
    def test_other_stacks_keep_the_eigh_bits(self, monkeypatch, case):
        grad, hess = self.stack(113)
        radius = np.full(len(grad), 10.0)
        if case == "indefinite":
            hess[3] += 2.0 * np.linalg.eigvalsh(-hess[3])[-1] * np.eye(21)
            assert np.linalg.eigvalsh(-hess[3])[0] < 0.0
        else:
            radius[5] = 0.5 * np.linalg.norm(np.linalg.solve(-hess[5], grad[5]))
        reference = self.eigh_step(monkeypatch, grad, hess, radius)
        calls = TestModularSetSlot._count_eigh(monkeypatch)
        x, increase = ch._trust_region_step(grad, hess, radius)
        assert calls == [hess.shape]
        assert np.array_equal(x, reference[0]) and np.array_equal(increase, reference[1])

    def test_singular_factorable_stack_takes_the_eigh_bits(self, monkeypatch):
        # B = [[5, 1], [1, 1/5]] has a Cholesky factor (last pivot 5e-9) but
        # an exact zero LU pivot, so the Newton solve refuses it; the stack
        # takes the eigenbasis instead of raising
        grad, hess = self.stack(114, n=2)
        hess[7] = -np.array([[5.0, 1.0], [1.0, 1.0 / 5.0]])
        np.linalg.cholesky(-hess)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(-hess[7], grad[7])
        radius = np.full(len(grad), 0.5)
        reference = self.eigh_step(monkeypatch, grad, hess, radius)
        x, increase = ch._trust_region_step(grad, hess, radius)
        assert np.array_equal(x, reference[0]) and np.array_equal(increase, reference[1])
        assert np.all(np.linalg.norm(x, axis=1) <= 1.1 * radius) and np.all(increase >= 0.0)

    def test_singular_newton_system_in_a_run(self, monkeypatch):
        # with a 5-sweep budget, C2's state 272 reaches a Newton system whose
        # Cholesky factor exists and whose LU solve is singular (it raised)
        monkeypatch.setattr(ch, "_SWEEP_BUDGET", 5)
        psi = random_pure_state(4, split_rng(202, 272))
        report = verify_magic_bounds(psi, 2, restarts=20, seed=1_000_272)
        assert report.worst_excess <= MAGIC_BOUND_TOL


class TestPolarMax:
    @staticmethod
    def svd_maximizer(m):
        w, _, vh = np.linalg.svd(m)
        return np.conj(np.swapaxes(w @ vh, -1, -2))

    def test_random_matches_svd(self):
        rng = split_rng(93, 0)
        m = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        u, norm = ch._polar_max(m)
        assert np.max(np.abs(u - self.svd_maximizer(m))) <= 1e-13
        assert np.max(np.abs(norm - np.linalg.svd(m, compute_uv=False).sum(axis=1))) <= 1e-13

    def test_rank_one_is_unitary_maximizer(self):
        # the polar factor is not unique here; any unitary with U M >= 0 maximizes
        rng = split_rng(94, 0)
        x = rng.standard_normal((20, 2, 2)) + 1j * rng.standard_normal((20, 2, 2))
        m = x[:, :, :1] @ x[:, :1, :]  # outer products, det exactly 0 or rounding
        u, norm = ch._polar_max(m)
        s1 = np.linalg.svd(m, compute_uv=False)[:, 0]
        assert unitarity_defect(u) <= 1e-14
        assert np.max(np.abs(norm - s1)) <= 1e-13 * np.max(s1)
        traces = np.trace(u @ m, axis1=1, axis2=2)
        assert np.max(np.abs(traces - s1)) <= 1e-13 * np.max(s1)
        singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        u, norm = ch._polar_max(singular)
        assert unitarity_defect(u) <= 1e-15 and norm == pytest.approx(5.0, abs=1e-14)
        assert np.trace(u @ singular) == pytest.approx(5.0, abs=1e-14)

    def test_zero_gives_identity(self):
        m = np.zeros((3, 2, 2), dtype=complex)
        m[1] = [[0.0, 1j], [2.0, 0.0]]
        u, norm = ch._polar_max(m)
        assert np.array_equal(u[0], np.eye(2)) and np.array_equal(u[2], np.eye(2))
        assert norm[0] == 0.0 and norm[2] == 0.0
        assert np.max(np.abs(u[1] - self.svd_maximizer(m[1]))) <= 1e-15
        assert np.array_equal(self.svd_maximizer(np.zeros((2, 2))), np.eye(2))


class TestPauliLogDistance:
    def test_t_state(self):
        assert ch.pauli_log_distance(t_state_vector(), 1) < 1e-12

    def test_stabilizer_states(self):
        from chiralkit.stabilizer import random_stabilizer_vector

        for i in range(10):
            psi = random_stabilizer_vector(3, split_rng(54, i))
            assert ch.pauli_log_distance(psi, 3) < 1e-10

    def test_against_brute_force(self):
        psi = random_pure_state(8, split_rng(55, 0))
        best = 0.0
        for z in range(8):
            for x in range(8):
                p = _pauli.pauli_matrix(z, x, 3)
                best = max(best, abs(psi.T @ p @ psi) ** 2)
        assert ch.pauli_log_distance(psi, 3) == pytest.approx(-np.log(best), abs=1e-12)

    def test_upper_bounds_log_distance(self):
        from chiralkit import _pauli as pl

        psi = random_pure_state(8, split_rng(56, 0))
        cp, (z, x) = ch.pauli_log_distance_detail(psi, 3)
        warm = pl.single_qubit_factors(z, x, 3)
        c, _ = ch.pure_state_log_distance(psi, (2, 2, 2), restarts=10, seed=56, extra_inits=[warm])
        assert c <= cp + 1e-7

    def test_qudit_rejected(self):
        with pytest.raises(ValueError, match="not 2"):
            ch.pauli_log_distance(np.ones(6) / np.sqrt(6), 2)


class TestMeasureReport:
    def test_odd_measures_flip_sign(self):
        rho = rho_rand((2, 2), 57)
        rep = ch.measure_report(rho, SPLIT)
        rep_c = ch.measure_report(conjugate(rho), SPLIT)
        for name, value in rep.entries.items():
            assert rep_c.entries[name] == pytest.approx(-value, abs=rep.tolerances[name])

    def test_rank_deficient_gamma_noted(self):
        rep = ch.measure_report(chiral_qutrit_qubit(), SPLIT)
        assert "gamma" not in rep.entries
        assert "rank-deficient" in rep.notes["gamma"]
