"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""

import numpy as np
import pytest

import oracles

DIMS = (2, 2)


def _pure(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_state(d: int, rng, real: bool = False) -> np.ndarray:
    a = rng.standard_normal((d, d))
    if not real:
        a = a + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_odd_measures_vanish_on_real_states():
    rho = _random_state(4, np.random.default_rng(1), real=True)
    sf = oracles.spectral_form(rho, DIMS)
    values = [oracles.j2(sf), oracles.j3(sf), oracles.gamma_s(sf, 0.7), oracles.phi_s(sf, 0.7), oracles.gamma(sf)]
    assert max(abs(v) for v in values) < 1e-13


def test_measures_flip_sign_under_conjugation():
    rho = _random_state(4, np.random.default_rng(2))
    sf, sfc = oracles.spectral_form(rho, DIMS), oracles.spectral_form(rho.conj(), DIMS)
    assert abs(oracles.j2(sf)) > 1e-6
    for fn in (oracles.j2, oracles.j3, oracles.gamma):
        assert fn(sfc) == pytest.approx(-fn(sf), abs=1e-13)


def test_bell_state_has_zero_j2_and_log_negativity_log2():
    bell = _pure([1, 0, 0, 1])
    assert oracles.j2(oracles.spectral_form(bell, DIMS)) == 0.0
    assert oracles.log_negativity(bell, DIMS) == pytest.approx(np.log(2.0), abs=1e-14)
    assert oracles.log_negativity(np.kron(_pure([1, 0]), _pure([1, 1])), DIMS) == pytest.approx(0.0, abs=1e-14)


def test_gamma_closed_form_matches_sech_quadrature():
    rho = _random_state(4, np.random.default_rng(3))
    sf = oracles.spectral_form(rho, DIMS)
    s = np.linspace(-12.0, 12.0, 24001)
    integrand = [oracles.gamma_s(sf, x) / np.cosh(np.pi * x) for x in s]
    assert oracles.gamma(sf) == pytest.approx(np.trapezoid(integrand, s), abs=1e-10)


def test_intrinsic_ip_vanishes_on_classical_quantum_state():
    rng = np.random.default_rng(4)
    rho = 0.3 * np.kron(_pure([1, 0]), _random_state(2, rng)) + 0.7 * np.kron(_pure([0, 1]), _random_state(2, rng))
    sf = oracles.spectral_form(rho, DIMS)
    assert oracles.intrinsic_ip(sf, 0) == pytest.approx(0.0, abs=1e-14)
    assert oracles.intrinsic_ip(sf, 1) > 1e-3


def test_intrinsic_ip_of_pure_state_is_four_times_modular_variance():
    c2, s2 = np.cos(0.4) ** 2, np.sin(0.4) ** 2
    rho = _pure([np.cos(0.4), 0, 0, np.sin(0.4)])
    mean = -(c2 * np.log(c2) + s2 * np.log(s2))
    var = c2 * np.log(c2) ** 2 + s2 * np.log(s2) ** 2 - mean**2
    sf = oracles.spectral_form(rho, DIMS)
    assert oracles.intrinsic_ip(sf, 0) == pytest.approx(4.0 * var, rel=1e-12)
    assert sf.moment_a == pytest.approx(c2 * np.log(c2) ** 2 + s2 * np.log(s2) ** 2, rel=1e-12)


def test_orbit_fidelity_of_real_state_is_one_at_identity():
    rho = _random_state(4, np.random.default_rng(5), real=True)
    assert oracles.orbit_fidelity(rho, [np.eye(2), np.eye(2)]) == pytest.approx(1.0, abs=1e-13)
    chiral = _random_state(4, np.random.default_rng(6))
    assert oracles.orbit_fidelity(chiral, [np.eye(2), np.eye(2)]) < 1.0


def test_orbit_fidelity_ignores_eigenvector_phases():
    rho = _random_state(4, np.random.default_rng(7))
    u = [np.linalg.qr(np.random.default_rng(8).standard_normal((2, 2)) + 0j)[0], np.eye(2)]
    psi = oracles.purification_matrix(rho)
    phased = psi * np.exp(1j * np.arange(psi.shape[1]))
    x = phased.T @ np.kron(*u) @ phased
    assert oracles.orbit_fidelity(rho, u) == pytest.approx(np.linalg.svd(x, compute_uv=False).sum() ** 2, abs=1e-13)


def test_t_state_nullity_fidelity_and_pauli_distance():
    t = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
    assert oracles.nullity(t, 1) == 1
    assert oracles.product_stabilizer_fidelity(t, 1) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-14)
    assert oracles.pauli_log_distance(np.kron(t, t), 2) == pytest.approx(0.0, abs=1e-13)


def test_pauli_strings_from_masks():
    y = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(oracles.pauli_from_masks(1, 1, 1), y)
    # qubit 0 is the most significant bit: z = 0b10 puts Z on qubit 0
    assert np.array_equal(oracles.pauli_from_masks(0b10, 0, 2), np.diag([1, 1, -1, -1]))
    zero = np.array([1.0, 0.0], dtype=complex)
    assert oracles.nullity(zero, 1) == 0
    assert oracles.conjugation_overlap(zero, 1, 1, 1) == 0
    assert oracles.pauli_log_distance(zero, 1) == pytest.approx(0.0, abs=1e-15)
