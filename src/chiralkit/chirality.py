"""Chirality measures for multipartite density matrices.

Two families live here. The nested-commutator functionals (j2, j3, j3_prime,
gamma_s, phi_s, gamma_integral, modular_commutator) are closed-form traces of
commutators of modular Hamiltonians: additive under tensor products, odd under
complex conjugation, and zero whenever the state can be carried onto its
conjugate by local unitaries. The log-distance (chiral_log_distance,
pauli_log_distance) is -log of the best fidelity between the conjugated state
and the local-unitary orbit of the state, estimated by alternating closed-form
unitary updates on purifications.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _pauli
from .qmat import (
    SUPPORT_CUTOFF,
    DensityMatrix,
    Partition,
    dagger,
    eig_hermitian,
    embed_operator,
    marginal_log,
    purify,
    require_single,
)
from .sampling import haar_unitary, split_rng

# Trace functionals defined as i*Tr(...) are real for valid inputs; a larger
# imaginary residue signals numerical trouble and triggers a warning.
IMAG_RESIDUE_TOL = 1e-8


def _scalar(x: np.ndarray):
    """A float for a single state, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _real_part(value, label: str, tol: float = IMAG_RESIDUE_TOL):
    """Real part of a value, or of a stack of values, warning with the
    largest imaginary residue when it exceeds tol."""
    value = np.asarray(value)
    imag = value.imag.reshape(-1)
    worst = imag[np.argmax(np.abs(imag))] if imag.size else 0.0
    if abs(worst) > tol:
        warnings.warn(
            f"{label}: imaginary residue {worst:.3e} exceeds {tol:.1e}",
            RuntimeWarning,
            stacklevel=3,
        )
    return _scalar(value.real)


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the two matrix axes, one value per member."""
    return np.sum(x, axis=(-2, -1))


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _party_index(party) -> int:
    if party in (0, 1):
        return int(party)
    name = str(party).upper()
    if name in ("A", "B"):
        return 0 if name == "A" else 1
    raise ValueError(f"party must be 'A', 'B', 0 or 1, got {party!r}")


@dataclass(frozen=True)
class ModularSet:
    """A bipartite state in its own eigenbasis, the one spectral form that
    every bipartite measure contracts.

    p holds the eigenvalues of rho (clipped at zero, ascending) and
    eigenvectors the matching columns V. kappa is -log p on the support and 0
    on the kernel, so the joint modular Hamiltonian is K_AB = V diag(kappa) V†
    and the modular flow acts on eigenbasis entry (i, j) as the phase
    exp(i s (kappa_i - kappa_j)). k_a_eigbasis and k_b_eigbasis are the
    marginal modular Hamiltonians -log(rho_A) (x) I and I (x) -log(rho_B),
    embedded on the full space and rotated into that basis (V† K V).
    For a stack of states every field carries the same leading axes, and the
    measures contracted from it return one value per member.
    """

    p: np.ndarray
    kappa: np.ndarray
    eigenvectors: np.ndarray
    k_a_eigbasis: np.ndarray
    k_b_eigbasis: np.ndarray

    def k_eigbasis(self, party) -> np.ndarray:
        """The rotated marginal modular Hamiltonian of party A/0 or B/1."""
        return self.k_b_eigbasis if _party_index(party) else self.k_a_eigbasis


def modular_set(rho: DensityMatrix, split: Partition) -> ModularSet:
    """Diagonalize rho once and rotate both marginal modular Hamiltonians
    into its eigenbasis: one eigendecomposition of rho plus one per marginal,
    each a single batched call on a stack of states."""
    split.validate(rho.nsub)
    if split.ngroups != 2:
        raise ValueError(f"expected a bipartition, got {split.ngroups} groups")
    dec = eig_hermitian(rho.data)
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = p > SUPPORT_CUTOFF * p[..., -1:]
    kappa = np.where(keep, -np.log(np.where(keep, p, 1.0)), 0.0)
    v = dec.eigenvectors
    rotated = []
    for group in split.groups:
        k = -marginal_log(rho, group)
        rotated.append(dagger(v) @ embed_operator(k, rho.dims, group) @ v)
    return ModularSet(p, kappa, v, rotated[0], rotated[1])


def _minus(x: np.ndarray) -> np.ndarray:
    """x_i - x_j."""
    return x[..., :, None] - x[..., None, :]


def _plus(x: np.ndarray) -> np.ndarray:
    """x_i + x_j."""
    return x[..., :, None] + x[..., None, :]


def _contract(ms: ModularSet, w: np.ndarray, label: str):
    """i sum_ij w_ij (K_A)_ij (K_B)_ji in the eigenbasis of rho. Every
    nested-commutator measure is this sum for its own real antisymmetric
    kernel w, which makes the value real up to rounding."""
    kb_t = np.swapaxes(ms.k_b_eigbasis, -1, -2)
    return _real_part(1j * _sum2(w * ms.k_a_eigbasis * kb_t), label)


def _j2(ms: ModularSet) -> float:
    return _contract(ms, _minus(ms.kappa) * _plus(ms.p), "J2")


def _j3(ms: ModularSet) -> float:
    return _contract(ms, _minus(ms.kappa) ** 2 * _minus(ms.p), "J3")


def _j3_prime(ms: ModularSet) -> float:
    # i Tr(rho [Y, K_B]) = i sum_ij (p_i - p_j) Y_ij (K_B)_ji with
    # Y = [[K_AB, K_B], K_B] and K_AB = diag(kappa) in this basis
    kb = ms.k_b_eigbasis
    y = _comm(_minus(ms.kappa) * kb, kb)
    return _real_part(1j * _sum2(_minus(ms.p) * y * np.swapaxes(kb, -1, -2)), "J3'")


def _gamma_s(ms: ModularSet, s: float) -> float:
    return _contract(ms, np.cos(s * _minus(ms.kappa)) * _minus(ms.p), f"gamma_s(s={s})")


def _phi_s(ms: ModularSet, s: float) -> float:
    return _contract(ms, -np.sin(s * _minus(ms.kappa)) * _plus(ms.p), f"phi_s(s={s})")


def _gamma(ms: ModularSet):
    p = ms.p
    if np.any(p[..., 0] <= SUPPORT_CUTOFF * p[..., -1]):
        ratio = np.min(p[..., 0] / p[..., -1])
        raise ValueError(
            f"state is rank-deficient (min/max eigenvalue ratio {ratio:.3e}); "
            "the flow-integrated measure requires full rank"
        )
    outer = p[..., :, None] * p[..., None, :]
    return _contract(ms, 2.0 * np.sqrt(outer) * _minus(p) / _plus(p), "gamma")


def j2(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho {[K_AB, K_A], K_B}): the lowest-degree additive odd measure.
    Eigenbasis kernel (kappa_i - kappa_j)(p_i + p_j)."""
    return _j2(modular_set(rho, split))


def j3(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho [[K_AB, [K_AB, K_A]], K_B]).
    Eigenbasis kernel (kappa_i - kappa_j)^2 (p_i - p_j)."""
    return _j3(modular_set(rho, split))


def j3_prime(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho [[[K_AB, K_B], K_B], K_B]): not symmetric under swapping the
    two groups, which lets it see states the symmetric measures miss."""
    return _j3_prime(modular_set(rho, split))


def modular_flowed_k(
    rho: DensityMatrix, split: Partition, party, s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Even/odd parts of the marginal modular Hamiltonian under modular flow.

    Returns (K_plus, K_minus) with K_plus = (K_P(s) + K_P(-s))/2 and
    K_minus = i (K_P(s) - K_P(-s))/2, where the flow conjugates by
    exp(i s K_AB), i.e. K_P(s) = K_P + is[K_AB, K_P] + (is)^2/2! [...] + ...
    In the eigenbasis of rho the flow is the phase exp(i s (kappa_i - kappa_j)),
    so K_plus and K_minus scale entry (i, j) of K_P by cos and -sin of
    s (kappa_i - kappa_j). K_plus is Hermitian; K_minus is anti-Hermitian (its
    expansion starts at -s [K_AB, K_P]) and Tr(rho K_minus) vanishes
    identically.
    """
    ms = modular_set(rho, split)
    k = ms.k_eigbasis(party)
    phase = s * _minus(ms.kappa)
    v = ms.eigenvectors
    vd = dagger(v)
    return v @ (np.cos(phase) * k) @ vd, v @ (-np.sin(phase) * k) @ vd


def gamma_s(rho: DensityMatrix, split: Partition, s: float) -> float:
    """i Tr(rho [K_plus_A(s), K_B]), the even-flow nested-commutator measure.
    Eigenbasis kernel cos(s (kappa_i - kappa_j)) (p_i - p_j)."""
    return _gamma_s(modular_set(rho, split), s)


def phi_s(rho: DensityMatrix, split: Partition, s: float) -> float:
    """i Tr(rho {K_minus_A(s), K_B}), the odd-flow anticommutator measure.
    Eigenbasis kernel -sin(s (kappa_i - kappa_j)) (p_i + p_j)."""
    return _phi_s(modular_set(rho, split), s)


def gamma_s_second_difference(rho: DensityMatrix, split: Partition, step: float = 1e-3) -> float:
    """Central second difference (gamma_{h} - 2 gamma_0 + gamma_{-h})/h^2.

    Evaluated in the eigenbasis, where the difference collapses to the exactly
    equivalent form -4 sin^2(h D/2)/h^2 term by term; this avoids the
    catastrophic cancellation of differencing three separately rounded trace
    values and leaves only genuine truncation error. Converges to -J3.
    """
    ms = modular_set(rho, split)
    w = -4.0 * np.sin(0.5 * step * _minus(ms.kappa)) ** 2 / step**2 * _minus(ms.p)
    return _contract(ms, w, "gamma second difference")


def phi_s_first_difference(rho: DensityMatrix, split: Partition, step: float = 1e-3) -> float:
    """Central first difference (phi_{h} - phi_{-h})/(2h), evaluated in the
    eigenbasis as the exactly equivalent -sin(h D)/h form. Converges to -J2."""
    ms = modular_set(rho, split)
    w = -np.sin(step * _minus(ms.kappa)) / step * _plus(ms.p)
    return _contract(ms, w, "phi first difference")


def gamma_integral(rho: DensityMatrix, split: Partition) -> float:
    """Integral of gamma_s against the sech(pi s) weight over the real line.

    The sech transform of cos(s delta) is sech(delta / 2), so with
    delta_ij = log p_i - log p_j the integral is the eigenbasis contraction
    with kernel 2 sqrt(p_i p_j) (p_i - p_j) / (p_i + p_j): a closed form with
    no truncation. Requires a full-rank state (the integrand involves the
    full modular flow).
    """
    return _gamma(modular_set(rho, split))


def modular_commutator(rho: DensityMatrix, split: Partition) -> float:
    """Tripartite measure i Tr(rho [K_AB, K_BC]); vanishes on tripartite pure
    states, so it cannot see their chirality (the bipartite measures can).
    One value per member of a stack."""
    split.validate(rho.nsub)
    if split.ngroups != 3:
        raise ValueError(f"expected a tripartition, got {split.ngroups} groups")
    ga, gb, gc = split.groups
    k_ab = embed_operator(-marginal_log(rho, ga + gb), rho.dims, ga + gb)
    k_bc = embed_operator(-marginal_log(rho, gb + gc), rho.dims, gb + gc)
    val = 1j * np.trace(rho.data @ _comm(k_ab, k_bc), axis1=-2, axis2=-1)
    return _real_part(val, "modular commutator")


# ---------------------------------------------------------------------------
# Chiral log-distance: alternating unitary optimization on purifications
# ---------------------------------------------------------------------------


@dataclass
class OptimizationResult:
    """Outcome of the orbit-fidelity maximization.

    best_fidelity is the largest |<conj purification| (x)U |purification>|^2
    found over all restarts; because restarts can stall in local optima it is
    a lower bound on the true maximal fidelity, so -log(best_fidelity) is an
    upper estimate of the log-distance. Fidelity 1 (within certificate_tol)
    certifies nonchirality; a value below 1 witnesses nothing by itself.
    stationarity holds, per restart, the largest over parties of the
    Frobenius norm of the skew-Hermitian part of M_t U_t at the returned
    unitaries: 0 at a stationary point, whatever the stop rule reported.
    """

    best_fidelity: float
    overlap: complex
    unitaries: list[np.ndarray]
    restarts: int
    iterations_per_restart: list[int]
    converged: list[bool]
    best_restart: int
    fidelities: np.ndarray = field(repr=False)
    stationarity: np.ndarray = field(repr=False)
    certificate_tol: float = 1e-8

    @property
    def certifies_nonchirality(self) -> bool:
        return self.best_fidelity >= 1.0 - self.certificate_tol


def _fused_purification(rho: DensityMatrix, split: Partition, cutoff: float):
    """Purify and reshape to one tensor axis per partition group plus the
    ancilla axis. Both the state and its conjugate purify to conjugate
    vectors under the ascending-eigenbasis convention, so the orbit overlap
    is the bilinear form sum_ab psi_a ((x)U)_ab psi_b with no conjugations."""
    tens = purify(rho, cutoff).reshape(rho.dims + (-1,))
    order = [i for g in split.groups for i in g] + [rho.nsub]
    gdims = [int(np.prod([rho.dims[i] for i in g])) for g in split.groups] + [tens.shape[-1]]
    tens = np.ascontiguousarray(tens.transpose(order))
    return tens.reshape(gdims), gdims


_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _polar_max(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of square matrices m (..., d, d): the unitaries U that
    maximize |Tr(U M)|, and the trace norms of M.

    U = V W^dagger for M = W S V^dagger, so U M = V S V^dagger is positive and
    Tr(U M) is the trace norm. At d = 2 the polar factor of M has the closed
    form (M + e^{i arg det M} adj(M)^dagger) / (s_1 + s_2) with
    s_1 + s_2 = sqrt(||M||_F^2 + 2 |det M|) (Higham 1986); a singular M takes
    the phase 1, which still gives a unitary, and M = 0 gives the identity, as
    the SVD does. Larger d uses the SVD.
    """
    if m.shape[-1] != 2:
        w, s, vh = np.linalg.svd(m)
        return np.conj(np.swapaxes(w @ vh, -1, -2)), s.sum(axis=-1)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    absdet = np.abs(det)
    phase = np.divide(det.conj(), absdet, out=np.ones_like(det), where=absdet > 0.0)
    parts = np.ascontiguousarray(m).view(np.float64)
    norm = np.sqrt((parts * parts).sum(axis=(-2, -1)) + 2.0 * absdet)
    # (M^dagger + e^{-i arg det M} adj M)^T, as adj M is the transposed
    # reversal of M with the off-diagonal signs flipped
    u = np.conj(m) + (phase[..., None, None] * _ADJ_SIGNS) * m[..., ::-1, ::-1]
    scale = norm
    zero = norm == 0.0
    if zero.any():
        scale = np.where(zero, 1.0, norm)
        u[zero] = np.eye(2)
    return np.swapaxes(u / scale[..., None, None], -1, -2), norm


class _OrbitContraction:
    """The purification tensor laid out once per party, so that applying a
    stack of party unitaries and forming the data matrices M_t are reshapes
    and batched products on a flat (restarts, dim) state."""

    def __init__(self, base: np.ndarray):
        self.base = base.reshape(-1)
        dims = base.shape
        self.active = [t for t, d in enumerate(dims) if d > 1]
        self.shapes = {}
        self.env = {}
        for t in self.active:
            a, b = int(np.prod(dims[:t])), int(np.prod(dims[t + 1:]))
            self.shapes[t] = (a, dims[t], b)
            # (a b, d_t): the base with party t as its column index
            env = base.reshape(a, dims[t], b).transpose(0, 2, 1).reshape(a * b, dims[t])
            self.env[t] = np.ascontiguousarray(env)

    def apply(self, us, skip: int | None = None) -> np.ndarray:
        """(R, dim) stack of (x)_k U_k |base> over the active parties k != skip."""
        theta = self.base[None]
        for k in self.active:
            if k != skip:
                theta = us[k][:, None] @ theta.reshape(len(theta), *self.shapes[k])
        nres = len(us[0])
        if len(theta) < nres:
            return np.broadcast_to(self.base, (nres, self.base.size))
        return theta.reshape(nres, -1)

    def data_matrix(self, us, t: int) -> np.ndarray:
        """M_t (R, d_t, d_t), with the overlap equal to Tr(U_t M_t)."""
        a, d, b = self.shapes[t]
        theta = self.apply(us, skip=t).reshape(-1, a, d, b).swapaxes(1, 2)
        return theta.reshape(-1, d, a * b) @ self.env[t]

    def overlaps(self, us) -> np.ndarray:
        return self.apply(us) @ self.base

    def stationarity(self, us) -> np.ndarray:
        """Per restart, the largest over parties of ||skew(M_t U_t)||_F. Every
        sweep leaves the overlap real and positive, and there this vanishes
        exactly at the stationary points of the overlap modulus."""
        out = np.zeros(len(us[0]))
        for t in self.active:
            mu = self.data_matrix(us, t) @ us[t]
            skew = 0.5 * (mu - np.conj(np.swapaxes(mu, 1, 2)))
            out = np.maximum(out, np.linalg.norm(skew, axis=(1, 2)))
        return out


def alternating_orbit_overlap(
    base: np.ndarray,
    inits: list[list[np.ndarray]],
    max_iters: int,
    tol: float,
    target_fidelity: float | None = None,
):
    """Maximize |sum_ab psi_a ((x)_t U_t)_ab psi_b| by cycling closed-form
    single-party updates, batched over restarts.

    Fixing every party but t makes the objective |Tr(U_t M_t)| for a data
    matrix M_t, maximized by the adjoint polar factor of M_t (_polar_max); each
    update is therefore monotone in the overlap. A restart whose gain per
    sweep falls below tol keeps the unitaries and fidelity of that sweep and
    leaves the batch. Returns per-restart fidelities, overlaps, unitaries,
    sweep counts and convergence flags, and the best restart.
    """
    orbit = _OrbitContraction(base)
    nres = len(inits)
    us = [np.stack([np.asarray(init[t], dtype=complex) for init in inits]) for t in range(base.ndim)]
    fid = np.abs(orbit.overlaps(us)) ** 2
    iters = np.zeros(nres, dtype=int)
    converged = np.zeros(nres, dtype=bool)
    live = np.arange(nres)
    live_us = list(us)
    live_fid = fid
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        new_fid = live_fid
        for t in orbit.active:
            live_us[t], norm = _polar_max(orbit.data_matrix(live_us, t))
            new_fid = norm**2
        done = new_fid - live_fid < tol
        live_fid = new_fid
        fid[live] = live_fid
        if done.any():
            finished = live[done]
            for t in orbit.active:
                us[t][finished] = live_us[t][done]
            iters[finished] = sweeps
            converged[finished] = True
            keep = ~done
            live, live_fid = live[keep], live_fid[keep]
            live_us = [u[keep] for u in live_us]
            if not live.size:
                break
        if target_fidelity is not None and fid.max() >= target_fidelity:
            break
    for t in orbit.active:
        us[t][live] = live_us[t]
    iters[live] = sweeps
    best = int(np.argmax(fid))  # argmax takes the lowest index on ties
    return fid, orbit.overlaps(us), us, iters, converged, best


def _identity_inits(party_dims) -> list[np.ndarray]:
    return [np.eye(d, dtype=complex) for d in party_dims]


def chiral_log_distance(
    rho: DensityMatrix,
    partition: Partition,
    restarts: int = 20,
    max_iters: int = 1000,
    tol: float = 1e-12,
    seed: int = 0,
    extra_inits: list[list[np.ndarray]] | None = None,
    target_fidelity: float | None = None,
    cutoff: float = SUPPORT_CUTOFF,
) -> tuple[float, OptimizationResult]:
    """Upper estimate of the chiral log-distance of rho for the partition.

    Purifies rho (ancilla dimension = rank) and maximizes the fidelity
    between the conjugated purification and the local-unitary orbit,
    optimizing one unitary per partition group plus one on the ancilla.
    Restart 0 starts from identities, any extra_inits follow (each a list of
    per-party unitaries, ancilla optional), and the remaining restarts start
    Haar-random from streams seeded by (seed, restart). Returns
    (-log best_fidelity, diagnostics); the value is an upper estimate of the
    true log-distance because stalls only lower the fidelity.
    """
    require_single(rho, "chiral_log_distance")
    partition.validate(rho.nsub)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    base, party_dims = _fused_purification(rho, partition, cutoff)
    m = len(party_dims)

    inits: list[list[np.ndarray]] = [_identity_inits(party_dims)]
    for extra in extra_inits or []:
        filled = list(extra) + [np.eye(d, dtype=complex) for d in party_dims[len(extra):]]
        if len(filled) != m or any(f.shape != (d, d) for f, d in zip(filled, party_dims)):
            raise ValueError("extra init does not match party dimensions")
        inits.append([np.asarray(f, dtype=complex) for f in filled])
    k = 1
    while len(inits) < restarts:
        rng = split_rng(seed, k)
        inits.append([haar_unitary(d, rng) for d in party_dims])
        k += 1

    fid, overlaps, us, iters, converged, best = alternating_orbit_overlap(
        base, inits, max_iters, tol, target_fidelity
    )
    stationarity = _OrbitContraction(base).stationarity(us)
    # a target_fidelity stop leaves restarts unconverged before max_iters
    stalled = int(np.sum(iters[~converged] >= max_iters))
    if stalled:
        warnings.warn(
            f"{stalled} of {len(inits)} restarts hit max_iters={max_iters}",
            RuntimeWarning,
            stacklevel=2,
        )
    result = OptimizationResult(
        best_fidelity=float(fid[best]),
        overlap=complex(overlaps[best]),
        unitaries=[u[best] for u in us],
        restarts=len(inits),
        iterations_per_restart=iters.tolist(),
        converged=converged.tolist(),
        best_restart=best,
        fidelities=fid,
        stationarity=stationarity,
    )
    # the fidelity can round above 1; a distance is never negative
    value = max(0.0, -float(np.log(max(result.best_fidelity, 1e-300))))
    return value, result


def orbit_overlap(
    rho: DensityMatrix,
    partition: Partition,
    unitaries: list[np.ndarray],
    cutoff: float = SUPPORT_CUTOFF,
) -> complex:
    """Recompute <conj purification| ((x)U) |purification> for given unitaries
    (one per partition group, then the ancilla). Independent check of the
    overlap reported by the optimizer."""
    require_single(rho, "orbit_overlap")
    base, party_dims = _fused_purification(rho, partition, cutoff)
    theta = base
    for t, u in enumerate(unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (party_dims[t], party_dims[t]):
            raise ValueError(f"unitary {t} has shape {u.shape}, expected {party_dims[t]}")
        theta = np.moveaxis(np.moveaxis(theta, t, -1) @ u.T, -1, t)
    return complex(np.sum(base * theta))


def pure_state_log_distance(
    psi: np.ndarray,
    dims,
    restarts: int = 20,
    max_iters: int = 1000,
    tol: float = 1e-12,
    seed: int = 0,
    extra_inits: list[list[np.ndarray]] | None = None,
) -> tuple[float, OptimizationResult]:
    """Log-distance of a pure state with one party per subsystem."""
    from .qmat import pure_state_density

    dims = tuple(int(d) for d in dims)
    rho = pure_state_density(dims, psi)
    part = Partition(tuple((i,) for i in range(len(dims))))
    return chiral_log_distance(
        rho, part, restarts=restarts, max_iters=max_iters, tol=tol, seed=seed,
        extra_inits=extra_inits,
    )


# ---------------------------------------------------------------------------
# Pauli-restricted log-distance
# ---------------------------------------------------------------------------


def pauli_log_distance_detail(psi: np.ndarray, n_qubits: int):
    """(value, (z, x)) where value = -log max_P |<psi*|P|psi>|^2 over all
    phase-free Pauli strings and (z, x) encode an achieving string."""
    table = np.abs(_pauli.pauli_conjugation_overlaps(psi, n_qubits)) ** 2
    z, x = np.unravel_index(int(np.argmax(table)), table.shape)
    best = float(table[z, x])
    return max(0.0, -float(np.log(max(best, 1e-300)))), (int(z), int(x))


def pauli_log_distance(psi: np.ndarray, n_qubits: int) -> float:
    return pauli_log_distance_detail(psi, n_qubits)[0]


# ---------------------------------------------------------------------------
# Measure report
# ---------------------------------------------------------------------------


@dataclass
class MeasureReport:
    """Named measure values plus the numerical tolerance attached to each."""

    entries: dict[str, float]
    tolerances: dict[str, float]
    notes: dict[str, str]


def measure_report(rho: DensityMatrix, split: Partition, s_values=(0.7,)) -> MeasureReport:
    """All nested-commutator measures of a bipartite state in one report,
    every one contracted from a single modular_set.

    The flow-integrated measure is skipped (with a note) when the state is
    rank-deficient.
    """
    require_single(rho, "measure_report")
    ms = modular_set(rho, split)
    entries: dict[str, float] = {"J2": _j2(ms), "J3": _j3(ms), "J3_prime": _j3_prime(ms)}
    for s in s_values:
        entries[f"gamma_s[{s:g}]"] = _gamma_s(ms, s)
        entries[f"phi_s[{s:g}]"] = _phi_s(ms, s)
    notes: dict[str, str] = {}
    try:
        entries["gamma"] = _gamma(ms)
    except ValueError as exc:
        notes["gamma"] = str(exc)
    tolerances = {k: IMAG_RESIDUE_TOL for k in entries}
    return MeasureReport(entries, tolerances, notes)
