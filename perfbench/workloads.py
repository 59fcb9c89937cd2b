"""The four benchmark workloads.

A workload builds a pool of item inputs from the run seed during set-up. An
item is a fixed list of named operations, each one public chiralkit call (or
a short chain of them) on that item's inputs. The run executes whole rounds
of the pool, so every round repeats exactly the same operations.

Operations are looked up on the chiralkit modules at call time, so the
tracer's wrappers see them. Checks compare outputs with `oracles` and with
the theorems of the paper; they run outside the timed spans, and oracle
values that depend only on an item's inputs are computed once per pool item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles
from chiralkit import chirality, correlations, experiments, qmat, sampling, stabilizer

SPLIT = qmat.bipartition([0], [1])

# Tolerance of value-against-oracle comparisons: both sides agree to ~1e-15
# on d = 4 and d = 256 states, so this only fires on a real fault.
ATOL, RTOL = 1e-10, 1e-8
THEOREM_TOL = 1e-7  # C <= C_P <= nullity and C_P <= -2 log F
SLACK_TOL = 1e-8  # gamma-QFI bound slacks
CONJ_TOL = 1e-10  # Q rho Q^dagger = rho*
MMM_TARGET = 1.0 - 1e-4  # restarts and target fidelity of selftest C12


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ATOL + RTOL * abs(reference)


class Problems(list):
    """Failed checks of one operation, as readable strings."""

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, name: str, value: float, reference: float) -> None:
        self.expect(_close(value, reference), f"{name} = {value!r}, oracle {reference!r}")


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return sampling.split_rng(sampling.derive_seed(seed, stream), index)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    ops: Callable[[Any], list[tuple[str, Callable[[], Any]]]]
    # (item, {operation name: output of each operation that returned}) -> problems
    check: Callable[[Any, dict], list[str]]


# ---------------------------------------------------------------------------
# ensemble_d4
# ---------------------------------------------------------------------------

ENSEMBLE_POOL = 64
SCAN_SAMPLES = 10  # a 10-sample scan chunk takes about as long as the state's calls


@dataclass
class MixedItem:
    index: int
    rho: qmat.DensityMatrix
    scan_seed: int = 0
    oracle: Any = None
    oracle_scan: list | None = None


def _mixed_oracle(item: MixedItem):
    if item.oracle is None:
        dims = item.rho.dims
        item.oracle = oracles.spectral_form(np.asarray(item.rho.data), dims)
    return item.oracle


def _check_measure_report(item: MixedItem, rep) -> list[str]:
    sf = _mixed_oracle(item)
    pr = Problems()
    for key, ref in (
        ("J2", oracles.j2(sf)),
        ("J3", oracles.j3(sf)),
        ("gamma_s[0.7]", oracles.gamma_s(sf, 0.7)),
        ("phi_s[0.7]", oracles.phi_s(sf, 0.7)),
    ):
        pr.close(key, rep.entries[key], ref)
    pr.expect("gamma" in rep.entries, f"gamma missing on a full-rank state: {rep.notes}")
    if "gamma" in rep.entries:
        ref = oracles.gamma(sf)
        tol = rep.tolerances["gamma"]
        pr.expect(abs(rep.entries["gamma"] - ref) <= tol, f"gamma = {rep.entries['gamma']!r}, oracle {ref!r}, tol {tol:g}")
    return pr


def _check_ip(item: MixedItem, party: int, value: float) -> list[str]:
    ref = oracles.intrinsic_ip(_mixed_oracle(item), party)
    pr = Problems()
    pr.close(f"intrinsic_ip[{party}]", value, ref)
    pr.expect(ref >= 0.0 and value >= -ATOL, f"negative intrinsic IP {value!r}")
    return pr


def _check_gamma_qfi(item: MixedItem, rep) -> list[str]:
    sf = _mixed_oracle(item)
    pr = Problems()
    g = oracles.gamma(sf)
    f_a, f_b = oracles.intrinsic_ip(sf, 0), oracles.intrinsic_ip(sf, 1)
    pr.expect(abs(rep.gamma - g) <= 1e-8, f"gamma = {rep.gamma!r}, oracle {g!r}")
    pr.close("qfi_a", rep.qfi_a, f_a)
    pr.close("qfi_b", rep.qfi_b, f_b)
    pr.close("log_moment_a", rep.log_moment_a, sf.moment_a)
    pr.close("log_moment_b", rep.log_moment_b, sf.moment_b)
    da, db = item.rho.dims
    slacks = (
        sf.moment_a * f_b - g * g,
        sf.moment_b * f_a - g * g,
        oracles.log_moment_cap(da) * f_b - g * g,
        oracles.log_moment_cap(db) * f_a - g * g,
        rep.slack_a,
        rep.slack_b,
        rep.slack_bound_a,
        rep.slack_bound_b,
    )
    pr.expect(min(slacks) >= -SLACK_TOL, f"gamma-QFI slack below -{SLACK_TOL:g}: {slacks}")
    return pr


def _check_scan(item: MixedItem, result) -> list[str]:
    rows, summary = result
    pr = Problems()
    pr.expect(summary["n"] == SCAN_SAMPLES and len(rows) == SCAN_SAMPLES, f"scan returned {len(rows)} rows")
    refs = item.oracle_scan
    if refs is None:
        refs = []
        for i in range(SCAN_SAMPLES):
            key = sampling.derive_seed(item.scan_seed, i)
            rho = sampling.random_mixed_state((2, 2), np.random.Generator(np.random.Philox(key=key)))
            data = np.asarray(rho.data)
            refs.append((key, oracles.log_negativity(data, (2, 2)), abs(oracles.j2(oracles.spectral_form(data, (2, 2))))))
        item.oracle_scan = refs
    for i, (row, (key, e_n, aj2)) in enumerate(zip(rows, refs)):
        pr.expect(row.sample_index == i and row.seed == key, f"scan row {i} has index {row.sample_index}, seed {row.seed}")
        pr.close(f"scan row {i} E_N", row.e_n, e_n)
        pr.close(f"scan row {i} |J2|", row.abs_j2, aj2)
    return pr


def _ensemble_setup(seed: int) -> list[MixedItem]:
    return [
        MixedItem(
            i,
            sampling.random_mixed_state((2, 2), _rng(seed, 1, i)),
            scan_seed=sampling.derive_seed(seed, 2_000_000 + i),
        )
        for i in range(ENSEMBLE_POOL)
    ]


def _ensemble_ops(item: MixedItem):
    rho = item.rho
    return [
        ("scan", lambda: experiments.run_chirality_entanglement_scan(SCAN_SAMPLES, item.scan_seed)),
        *_mixed_state_ops(rho),
        ("log_negativity", lambda: experiments.log_negativity(rho, SPLIT)),
    ]


def _mixed_state_ops(rho):
    return [
        ("measure_report", lambda: chirality.measure_report(rho, SPLIT)),
        ("intrinsic_ip_A", lambda: correlations.intrinsic_ip(rho, SPLIT, "A")),
        ("intrinsic_ip_B", lambda: correlations.intrinsic_ip(rho, SPLIT, "B")),
        ("gamma_qfi_bound", lambda: correlations.check_gamma_qfi_bound(rho, SPLIT)),
    ]


def _check_log_negativity(item: MixedItem, value: float) -> list[str]:
    pr = Problems()
    pr.close("log_negativity", value, oracles.log_negativity(np.asarray(item.rho.data), item.rho.dims))
    return pr


_MIXED_CHECKS = {
    "scan": _check_scan,
    "measure_report": _check_measure_report,
    "intrinsic_ip_A": lambda item, out: _check_ip(item, 0, out),
    "intrinsic_ip_B": lambda item, out: _check_ip(item, 1, out),
    "gamma_qfi_bound": _check_gamma_qfi,
    "log_negativity": _check_log_negativity,
}


def _check_each(checks: dict, item, outs: dict) -> list[str]:
    problems: list[str] = []
    for op, out in outs.items():
        problems += [f"{op}: {p}" for p in checks[op](item, out)]
    return problems


# ---------------------------------------------------------------------------
# spectral_d256
# ---------------------------------------------------------------------------

SPECTRAL_POOL = 2
SPECTRAL_DIMS = (16, 16)


def _spectral_setup(seed: int) -> list[MixedItem]:
    return [MixedItem(i, sampling.random_mixed_state(SPECTRAL_DIMS, _rng(seed, 3, i))) for i in range(SPECTRAL_POOL)]


# ---------------------------------------------------------------------------
# orbit_magic
# ---------------------------------------------------------------------------

ORBIT_POOL = 16
# The states of an item and the restart streams of its three calls come from
# this fixed key, not from the run seed: an item's cost is a property of its
# inputs (the log-distance call takes from ~100 sweeps to the 1000-sweep cap,
# and a restart seed moves that by up to ~50%), so seed-drawn items move
# item_p50_ms between seeds by more than its bound. The run seed sets the
# order in which the items run.
ORBIT_FIXED_KEY = 0x0B17


@dataclass
class OrbitItem:
    index: int
    rho: qmat.DensityMatrix
    rho_mmm: qmat.DensityMatrix
    psi: np.ndarray
    n: int
    seeds: tuple[int, int, int]
    oracle: dict = field(default_factory=dict)


def _orbit_setup(seed: int) -> list[OrbitItem]:
    # the n = 2, 3 stabilizer enumerations are caches that verify_magic_bounds fills
    stabilizer.pure_stabilizer_states(2)
    stabilizer.pure_stabilizer_states(3)
    items = []
    for i in range(ORBIT_POOL):
        n = 2 if i % 2 == 0 else 3
        items.append(
            OrbitItem(
                i,
                sampling.random_mixed_state((2, 2), _rng(ORBIT_FIXED_KEY, 4, i)),
                sampling.random_two_qubit_maximally_mixed(_rng(ORBIT_FIXED_KEY, 5, i)),
                sampling.random_pure_state(1 << n, _rng(ORBIT_FIXED_KEY, 6, i)),
                n,
                (
                    sampling.derive_seed(ORBIT_FIXED_KEY, 7_000_000 + i),
                    sampling.derive_seed(ORBIT_FIXED_KEY, 8_000_000 + i),
                    sampling.derive_seed(ORBIT_FIXED_KEY, 9_000_000 + i),
                ),
            )
        )
    order = _rng(seed, 12, 0).permutation(ORBIT_POOL)
    return [items[k] for k in order]


def _orbit_ops(item: OrbitItem):
    s_ld, s_mmm, s_magic = item.seeds
    return [
        ("logdist_random", lambda: chirality.chiral_log_distance(item.rho, SPLIT, restarts=20, seed=s_ld)),
        (
            "logdist_mmm",
            lambda: chirality.chiral_log_distance(
                item.rho_mmm, SPLIT, restarts=100, seed=s_mmm, target_fidelity=MMM_TARGET
            ),
        ),
        ("magic_bounds", lambda: stabilizer.verify_magic_bounds(item.psi, item.n, restarts=20, seed=s_magic)),
    ]


def _check_logdist(rho, out, min_fidelity: float | None) -> list[str]:
    value, res = out
    pr = Problems()
    for t, u in enumerate(res.unitaries):
        pr.expect(oracles.unitarity_defect(u) <= 1e-10, f"unitary {t} is not unitary")
    fid = oracles.orbit_fidelity(np.asarray(rho.data), res.unitaries[:2])
    pr.close("orbit fidelity", res.best_fidelity, fid)
    pr.expect(res.best_fidelity <= 1.0 + 1e-12 and fid <= 1.0 + 1e-12, f"fidelity {res.best_fidelity!r} above 1")
    pr.expect(value >= -1e-12, f"negative log-distance {value!r}")
    pr.expect(abs(value + math.log(res.best_fidelity)) <= 1e-12, f"log-distance {value!r} is not -log {res.best_fidelity!r}")
    if min_fidelity is not None:
        pr.expect(fid >= min_fidelity, f"nonchiral state reached fidelity {fid!r} < {min_fidelity!r}")
    return pr


def _check_magic(item: OrbitItem, rep) -> list[str]:
    n, psi = item.n, item.psi
    if not item.oracle:
        item.oracle.update(
            c_p=oracles.pauli_log_distance(psi, n),
            nullity=oracles.nullity(psi, n),
            f_prod=oracles.product_stabilizer_fidelity(psi, n),
        )
    ref = item.oracle
    pr = Problems()
    pr.close("C_P", rep.pauli_log_distance, ref["c_p"])
    pr.expect(rep.nullity == ref["nullity"], f"nullity {rep.nullity}, oracle {ref['nullity']}")
    pr.expect(
        ref["f_prod"] - 1e-12 <= rep.stabilizer_fid <= 1.0 + 1e-12,
        f"stabilizer fidelity {rep.stabilizer_fid!r} outside [{ref['f_prod']!r}, 1]",
    )
    pr.close("-2 log F", rep.minus_two_log_fidelity, -2.0 * math.log(rep.stabilizer_fid))
    pr.expect(rep.log_distance >= -1e-12, f"negative log-distance {rep.log_distance!r}")
    c, c_p = rep.log_distance, rep.pauli_log_distance
    for name, lo, hi in (
        ("C <= C_P", c, c_p),
        ("C_P <= nullity", c_p, float(rep.nullity)),
        ("C_P <= -2 log F", c_p, rep.minus_two_log_fidelity),
    ):
        pr.expect(lo <= hi + THEOREM_TOL, f"{name} fails: {lo!r} > {hi!r}")
    return pr


_ORBIT_CHECKS = {
    "logdist_random": lambda item, out: _check_logdist(item.rho, out, None),
    "logdist_mmm": lambda item, out: _check_logdist(item.rho_mmm, out, MMM_TARGET),
    "magic_bounds": _check_magic,
}


# ---------------------------------------------------------------------------
# stabilizer_tables
# ---------------------------------------------------------------------------

STABILIZER_POOL = 21  # Haar states cycle n = 5, 6, 7 and groups cycle n = 1..7
SAMPLED_STRINGS = 16


@dataclass
class StabilizerItem:
    index: int
    psi: np.ndarray
    n: int
    psi4: np.ndarray
    group_n: int
    group_key: int
    strings: list[tuple[int, int]]
    oracle: dict = field(default_factory=dict)


def _stabilizer_setup(seed: int) -> list[StabilizerItem]:
    stabilizer.pure_stabilizer_states(4)  # the enumeration stabilizer_fidelity caches
    items = []
    for i in range(STABILIZER_POOL):
        n = 5 + i % 3
        rng = _rng(seed, 10, i)
        psi = sampling.random_pure_state(1 << n, rng)
        psi4 = sampling.random_pure_state(16, rng)
        strings = [(int(z), int(x)) for z, x in rng.integers(0, 1 << n, size=(SAMPLED_STRINGS, 2))]
        items.append(StabilizerItem(i, psi, n, psi4, 1 + i % 7, sampling.derive_seed(seed, 11), strings))
    return items


def _tableau_chain(item: StabilizerItem):
    group = stabilizer.random_stabilizer_group(item.group_n, sampling.split_rng(item.group_key, item.index))
    return group, stabilizer.stabilizer_state(group), stabilizer.conjugation_pauli_set(group)


def _stabilizer_ops(item: StabilizerItem):
    return [
        ("pauli_log_distance", lambda: chirality.pauli_log_distance_detail(item.psi, item.n)),
        ("nullity", lambda: stabilizer.stabilizer_nullity(item.psi, item.n)),
        ("fidelity", lambda: stabilizer.stabilizer_fidelity(item.psi4, 4)),
        ("tableau", lambda: _tableau_chain(item)),
    ]


def _check_pauli_distance(item: StabilizerItem, out) -> list[str]:
    value, (z, x) = out
    psi, n = item.psi, item.n
    pr = Problems()
    best = abs(oracles.conjugation_overlap(psi, z, x, n)) ** 2
    pr.close("C_P at the argmax string", value, -math.log(best))
    pr.expect(value >= -1e-12, f"negative C_P {value!r}")
    for zs, xs in item.strings:
        ov = abs(oracles.conjugation_overlap(psi, zs, xs, n)) ** 2
        pr.expect(ov <= best * (1 + RTOL) + ATOL, f"string ({zs}, {xs}) overlap {ov!r} beats the argmax {best!r}")
    return pr


def _check_nullity(item: StabilizerItem, nu, c_p: float | None) -> list[str]:
    n = item.n
    pr = Problems()
    pr.expect(isinstance(nu, int) and 0 <= nu <= n, f"nullity {nu!r} outside 0..{n}")
    definite = [
        (z, x)
        for z, x in item.strings
        if (z, x) != (0, 0) and abs(oracles.expectation(item.psi, z, x, n)) > 1.0 - 1e-8
    ]
    pr.expect(nu < n or not definite, f"nullity {nu} = n, yet strings {definite} are definite")
    if c_p is not None:
        pr.expect(c_p <= nu + THEOREM_TOL, f"C_P {c_p!r} > nullity {nu}")
    return pr


def _check_fidelity(item: StabilizerItem, fid) -> list[str]:
    if "f_prod" not in item.oracle:
        item.oracle["f_prod"] = oracles.product_stabilizer_fidelity(item.psi4, 4)
        item.oracle["c_p4"] = oracles.pauli_log_distance(item.psi4, 4)
    ref = item.oracle
    pr = Problems()
    pr.expect(ref["f_prod"] - 1e-12 <= fid <= 1.0 + 1e-12, f"stabilizer fidelity {fid!r} outside [{ref['f_prod']!r}, 1]")
    pr.expect(ref["c_p4"] <= -2.0 * math.log(fid) + THEOREM_TOL, f"C_P {ref['c_p4']!r} > -2 log F = {-2 * math.log(fid)!r}")
    return pr


def _check_tableau(item: StabilizerItem, out) -> list[str]:
    group, rho, sols = out
    n = item.group_n
    pr = Problems()
    pr.expect(group.n == n and rho.dims == (2,) * n, f"group on {group.n} qubits, state dims {rho.dims}")
    data = np.asarray(rho.data)
    pr.expect(abs(np.trace(data) - 1.0) <= CONJ_TOL, f"trace {np.trace(data)!r}")
    for i in range(group.k):
        bits = [(group.z_rows[i] >> j) & 1 for j in range(n)], [(group.x_rows[i] >> j) & 1 for j in range(n)]
        p = oracles.pauli_from_bits(*bits) * (-1.0 if group.signs[i] else 1.0)
        err = float(np.linalg.norm(p @ data - data))
        pr.expect(err <= CONJ_TOL, f"generator {i} does not stabilize the state ({err:.2e})")
    err = float(np.linalg.norm(data @ data - data / 2 ** (n - group.k)))
    pr.expect(err <= CONJ_TOL, f"state is not 2^(k-n) times a projector ({err:.2e})")
    base = sols.base
    candidates = [(base.z_bits, base.x_bits)] + [
        (
            tuple(a ^ b for a, b in zip(base.z_bits, v.z_bits)),
            tuple(a ^ b for a, b in zip(base.x_bits, v.x_bits)),
        )
        for v in sols.nullspace_basis
    ]
    for z_bits, x_bits in candidates:
        q = oracles.pauli_from_bits(z_bits, x_bits)
        err = float(np.linalg.norm(q @ data @ q.conj().T - data.conj()))
        pr.expect(err <= CONJ_TOL, f"Q rho Q^dagger differs from conj(rho) by {err:.2e}")
    return pr


def _stabilizer_check(item: StabilizerItem, outs: dict) -> list[str]:
    c_p = outs["pauli_log_distance"][0] if "pauli_log_distance" in outs else None
    checks = {
        "pauli_log_distance": _check_pauli_distance,
        "nullity": lambda item, nu: _check_nullity(item, nu, c_p),
        "fidelity": _check_fidelity,
        "tableau": _check_tableau,
    }
    return _check_each(checks, item, outs)


def _mixed_check(item: MixedItem, outs: dict) -> list[str]:
    return _check_each(_MIXED_CHECKS, item, outs)


def _orbit_check(item: OrbitItem, outs: dict) -> list[str]:
    return _check_each(_ORBIT_CHECKS, item, outs)


WORKLOADS = {
    "ensemble_d4": Workload("ensemble_d4", _ensemble_setup, _ensemble_ops, _mixed_check),
    "spectral_d256": Workload(
        "spectral_d256", _spectral_setup, lambda item: _mixed_state_ops(item.rho), _mixed_check
    ),
    "orbit_magic": Workload("orbit_magic", _orbit_setup, _orbit_ops, _orbit_check),
    "stabilizer_tables": Workload("stabilizer_tables", _stabilizer_setup, _stabilizer_ops, _stabilizer_check),
}
