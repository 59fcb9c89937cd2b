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
from functools import cached_property, lru_cache

import numpy as np

from . import _pauli
from .qmat import (
    DensityMatrix,
    EigenDecomposition,
    Partition,
    _log_on_support,
    _support_mask,
    apply_local,
    dagger,
    partial_trace,
    purify,
    require_single,
)
from .sampling import haar_unitaries

# Trace functionals defined as i*Tr(...) are real for valid inputs; a larger
# imaginary residue signals numerical trouble and triggers a warning.
IMAG_RESIDUE_TOL = 1e-8
CERTIFICATE_TOL = 1e-8  # a best fidelity of at least 1 - CERTIFICATE_TOL certifies nonchirality
# the best restart is the lowest index within this of the largest fidelity
BEST_RESTART_TIE = 1e-13
# chiral_log_distance: a restart sweeps until its gain per sweep falls below
# sqrt(ORBIT_TOL), then stops once its stationarity is at most sqrt(ORBIT_TOL)
ORBIT_TOL = 1e-12


def _scalar(x: np.ndarray):
    """A float for a single state, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _real_part(value, label: str):
    """Real part of a value, or of a stack of values, warning with the
    largest imaginary residue when it exceeds IMAG_RESIDUE_TOL."""
    value = np.asarray(value)
    imag = value.imag.reshape(-1)
    worst = imag[np.argmax(np.abs(imag))] if imag.size else 0.0
    if abs(worst) > IMAG_RESIDUE_TOL:
        warnings.warn(
            f"{label}: imaginary residue {worst:.3e} exceeds {IMAG_RESIDUE_TOL:.1e}",
            RuntimeWarning,
            stacklevel=3,
        )
    return _scalar(value.real)


def _sum2(x: np.ndarray) -> np.ndarray:
    """Sum over the two matrix axes, one value per member."""
    return np.sum(x, axis=(-2, -1))


@dataclass(frozen=True)
class ModularSet:
    """A bipartite state in its own eigenbasis, the one spectral form that
    every bipartite measure contracts.

    p holds the eigenvalues of rho (clipped at zero, ascending) and
    eigenvectors the matching columns V. kappa is -log p on the support and 0
    on the kernel, so the joint modular Hamiltonian is K_AB = V diag(kappa) V†
    and the modular flow acts on eigenbasis entry (i, j) as the phase
    exp(i s (kappa_i - kappa_j)). marginals holds the reduced states rho_A
    and rho_B, marginal_decs their eigendecompositions and marginal_k
    -log(rho_A) and -log(rho_B) on their own factors, groups the subsystems
    each acts on.
    k_a_eigbasis and k_b_eigbasis are those Hamiltonians tensored with the
    identity and rotated into the eigenbasis (V† K V), each formed when it is
    first read, so a measure that needs one party never rotates the other.
    pair_table is the product i (K_A)_ij (K_B)_ji of the two, formed on its
    first read, that every nested-commutator measure contracts with its own
    kernel.
    For a stack of states every field carries the same leading axes, and the
    measures contracted from it return one value per member. Every array is
    read-only, as modular_set hands the same set to consecutive calls.
    scalars holds, from their first read through kept, the values that more
    than one measure or verdict reads: gamma, each party's intrinsic IP and
    log-moment, the QFI weight both parties read, and each group's marginal
    test.
    """

    p: np.ndarray
    kappa: np.ndarray
    eigenvectors: np.ndarray
    dims: tuple[int, ...]
    groups: tuple[tuple[int, ...], tuple[int, ...]]
    marginals: tuple[DensityMatrix, DensityMatrix]
    marginal_decs: tuple[EigenDecomposition, EigenDecomposition]
    marginal_k: tuple[np.ndarray, np.ndarray]
    scalars: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        decs = [a for d in self.marginal_decs for a in (d.eigenvalues, d.eigenvectors)]
        for a in (self.p, self.kappa, self.eigenvectors, *decs, *self.marginal_k):
            a.flags.writeable = False

    def _rotated(self, party: int) -> np.ndarray:
        # V† K V as (K V)† V, K being Hermitian
        v = self.eigenvectors
        k = dagger(apply_local(self.marginal_k[party], self.dims, self.groups[party], v)) @ v
        k.flags.writeable = False
        return k

    @cached_property
    def k_a_eigbasis(self) -> np.ndarray:
        return self._rotated(0)

    @cached_property
    def k_b_eigbasis(self) -> np.ndarray:
        return self._rotated(1)

    @cached_property
    def pair_table(self) -> np.ndarray:
        table = 1j * self.k_a_eigbasis * np.swapaxes(self.k_b_eigbasis, -1, -2)
        table.flags.writeable = False
        return table

    def kept(self, key, compute):
        """scalars[key], from compute() on the first read; the values of a
        stack are read-only, as the arrays are."""
        if key not in self.scalars:
            value = compute()
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, np.ndarray):
                    v.flags.writeable = False
            self.scalars[key] = value
        return self.scalars[key]


def _validate_bipartition(split: Partition, nsub: int) -> None:
    split.validate(nsub)
    if split.ngroups != 2:
        raise ValueError(f"expected a bipartition, got {split.ngroups} groups")


# (state, split groups, ModularSet) of the latest modular_set call, or None.
# One slot: consecutive calls on one state share its spectral form, and no
# more than one state's form is ever held.
_held: tuple | None = None


def modular_set(rho: DensityMatrix, split: Partition) -> ModularSet:
    """Diagonalize rho once, with one eigendecomposition per marginal for its
    modular Hamiltonian (partial_trace(rho, group).eig()), each a single
    batched call on a stack of states. The rotations into the eigenbasis of
    rho wait until a measure reads them (ModularSet).

    The set of the latest call is held: a call on the same DensityMatrix
    object with equal split groups returns it, rotations included. Any other
    call releases it before it decomposes rho."""
    global _held
    _validate_bipartition(split, rho.nsub)
    if _held is not None and _held[0] is rho and _held[1] == split.groups:
        return _held[2]
    _held = None
    marginals = tuple(partial_trace(rho, group) for group in split.groups)
    decs = tuple(m.eig() for m in marginals)
    dec = rho.eig()
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = _support_mask(p)
    kappa = np.where(keep, -np.log(np.where(keep, p, 1.0)), 0.0)
    marginal_k = tuple(-_log_on_support(d) for d in decs)
    ms = ModularSet(p, kappa, dec.eigenvectors, rho.dims, split.groups, marginals, decs, marginal_k)
    _held = (rho, split.groups, ms)
    return ms


def _minus(x: np.ndarray) -> np.ndarray:
    """x_i - x_j."""
    return x[..., :, None] - x[..., None, :]


def _plus(x: np.ndarray) -> np.ndarray:
    """x_i + x_j."""
    return x[..., :, None] + x[..., None, :]


def _contract(ms: ModularSet, w: np.ndarray, label: str):
    """i sum_ij w_ij (K_A)_ij (K_B)_ji in the eigenbasis of rho, read from
    the pair table. Every nested-commutator measure is this sum for its own
    real antisymmetric kernel w, which makes the value real up to rounding."""
    return _real_part(_sum2(w * ms.pair_table), label)


def _flow_phases(kappa: np.ndarray, s: float) -> np.ndarray:
    """exp(i s (kappa_i - kappa_j)) as the outer product of exp(i s kappa)
    with its conjugate: cos and sin of the flow angle are its real and
    imaginary parts."""
    e = np.exp(1j * s * kappa)
    return e[..., :, None] * e.conj()[..., None, :]


def _gamma_contraction(ms: ModularSet):
    p = ms.p
    if not _support_mask(p)[..., 0].all():
        ratio = np.min(p[..., 0] / p[..., -1])
        raise ValueError(
            f"state is rank-deficient (min/max eigenvalue ratio {ratio:.3e}); "
            "the flow-integrated measure requires full rank"
        )
    root = np.sqrt(p)
    outer = root[..., :, None] * root[..., None, :]
    return _contract(ms, 2.0 * outer * _minus(p) / _plus(p), "gamma")


def j2(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho {[K_AB, K_A], K_B}): the lowest-degree additive odd measure.
    Eigenbasis kernel (kappa_i - kappa_j)(p_i + p_j)."""
    ms = modular_set(rho, split)
    return _contract(ms, _minus(ms.kappa) * _plus(ms.p), "J2")


def j3(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho [[K_AB, [K_AB, K_A]], K_B]).
    Eigenbasis kernel (kappa_i - kappa_j)^2 (p_i - p_j)."""
    ms = modular_set(rho, split)
    return _contract(ms, _minus(ms.kappa) ** 2 * _minus(ms.p), "J3")


def j3_prime(rho: DensityMatrix, split: Partition) -> float:
    """i Tr(rho [[[K_AB, K_B], K_B], K_B]): not symmetric under swapping the
    two groups, which lets it see states the symmetric measures miss."""
    # The nested commutator expands to K B^3 - 3 B K B^2 + 3 B^2 K B - B^3 K
    # (K = K_AB, B = K_B), and Tr(rho K B^3) = Tr(rho B^3 K) as rho and K
    # commute. So J3' = 3i [Tr(rho B^2 K B) - Tr(rho B K B^2)], which in the
    # eigenbasis (rho = diag(p), K = diag(kappa)) is 3i (p^T T kappa -
    # kappa^T T p) with T_ij = (B^2)_ij B_ji (DECISIONS.md).
    ms = modular_set(rho, split)
    kb = ms.k_b_eigbasis
    t = (kb @ kb) * np.swapaxes(kb, -1, -2)
    pk = np.stack((ms.p, ms.kappa), axis=-1)
    m = np.swapaxes(pk, -1, -2) @ t @ pk
    return _real_part(3j * (m[..., 0, 1] - m[..., 1, 0]), "J3'")


def gamma_s(rho: DensityMatrix, split: Partition, s: float) -> float:
    """i Tr(rho [K_plus_A(s), K_B]), the even-flow nested-commutator measure,
    with K_plus = (K_A(s) + K_A(-s))/2 and K_A(s) = e^{is K_AB} K_A e^{-is K_AB}.
    Eigenbasis kernel cos(s (kappa_i - kappa_j)) (p_i - p_j)."""
    ms = modular_set(rho, split)
    return _contract(ms, _flow_phases(ms.kappa, s).real * _minus(ms.p), f"gamma_s(s={s})")


def phi_s(rho: DensityMatrix, split: Partition, s: float) -> float:
    """i Tr(rho {K_minus_A(s), K_B}), the odd-flow anticommutator measure,
    with K_minus = i (K_A(s) - K_A(-s))/2.
    Eigenbasis kernel -sin(s (kappa_i - kappa_j)) (p_i + p_j)."""
    ms = modular_set(rho, split)
    return _contract(ms, -_flow_phases(ms.kappa, s).imag * _plus(ms.p), f"phi_s(s={s})")


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
    full modular flow). The value is kept on the modular set.
    """
    ms = modular_set(rho, split)
    return ms.kept("gamma", lambda: _gamma_contraction(ms))


def modular_commutator(rho: DensityMatrix, split: Partition) -> float:
    """Tripartite measure i Tr(rho [K_AB, K_BC]); vanishes on tripartite pure
    states, so it cannot see their chirality (the bipartite measures can).
    One value per member of a stack."""
    split.validate(rho.nsub)
    if split.ngroups != 3:
        raise ValueError(f"expected a tripartition, got {split.ngroups} groups")
    ga, gb, gc = split.groups
    k_ab, k_bc = (-_log_on_support(partial_trace(rho, g).eig()) for g in (ga + gb, gb + gc))
    ab = lambda m: apply_local(k_ab, rho.dims, ga + gb, m)
    bc = lambda m: apply_local(k_bc, rho.dims, gb + gc, m)
    # Tr(rho [K_AB, K_BC]) = Tr(K_AB K_BC rho) - Tr(K_BC K_AB rho)
    val = 1j * np.trace(ab(bc(rho.data)) - bc(ab(rho.data)), axis1=-2, axis2=-1)
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
    upper estimate of the log-distance. Every fidelity is reported as at most
    1, which rounding can exceed by a few ulps. Fidelity 1 (within
    CERTIFICATE_TOL) certifies nonchirality; a value below 1 witnesses
    nothing by itself. unitaries and overlap belong to best_restart, the
    lowest-index restart within BEST_RESTART_TIE of the best fidelity.

    Per restart: stationarity is the largest over parties t of
    ||skew(e^{-i arg o} U_t M_t)||_F at the returned unitaries, o the overlap
    and M_t the matrix it is linear in when every other unitary is held
    (o = Tr U_t M_t). It is the norm of the gradient of |o| in party t's
    coordinates, does not change when any U_t takes a phase, and is 0
    exactly at a stationary point. stop_reasons says why the restart
    stopped: "stationary" (stationarity at most sqrt(ORBIT_TOL)), "target" (some
    restart reached target_fidelity first) or "cap" (its sweeps plus Newton
    steps reached max_iters). converged is stop_reasons == "stationary", and
    iterations_per_restart counts sweeps plus Newton steps.
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
    stop_reasons: list[str] = field(repr=False)

    @property
    def certifies_nonchirality(self) -> bool:
        return self.best_fidelity >= 1.0 - CERTIFICATE_TOL


def _fused_purification(rho: DensityMatrix, split: Partition):
    """Purify and reshape to one tensor axis per partition group plus the
    ancilla axis. Both the state and its conjugate purify to conjugate
    vectors under the ascending-eigenbasis convention, so the orbit overlap
    is the bilinear form sum_ab psi_a ((x)U)_ab psi_b with no conjugations."""
    tens = purify(rho).reshape(rho.dims + (-1,))
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


# The second-order steps build n^2 * dim complex entries of Hessian rows for n
# party parameters on a dim-dimensional purification: 0.1 MB for a two-qubit
# state, 5 MB for a full-rank three-qubit one. Above 2^21 entries (32 MB), as
# for a full-rank (4, 4) state, restarts keep sweeping instead.
_SECOND_ORDER_MAX_ENTRIES = 1 << 21
# The data matrices come from base (x) base unfolded once per party up to this
# purification dimension: one GEMM of dim^2 entries per restart beats the
# per-restart products of applying the other unitaries while their call
# overhead dominates, and loses above it (crossover table in DECISIONS.md).
_PAIR_TENSOR_MAX_DIM = 64
# A restart sweeps at most this many times before its Newton steps. The
# sweeps only globalise: one that still gains sqrt(ORBIT_TOL) per sweep after
# this many is converging linearly and slowly, and the trust region finishes
# in a few steps what would take it hundreds of sweeps (DECISIONS.md).
_SWEEP_BUDGET = 10
# The budget of a call with a target fidelity, whose target stop reads the
# fidelity the sweeps reached: a longer sweep phase keeps those stops where
# the sweeps alone put them (DECISIONS.md).
_TARGET_SWEEP_BUDGET = 60
# trust-region radii bound the Frobenius norm of the step x, in radians
_TRUST_RADIUS_START = 0.5
_TRUST_RADIUS_MAX = np.pi
_TRUST_REGION_ITERS = 20  # cap on the Newton iterations for the shift lam


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """(d^2 - 1, d, d): the generalized Gell-Mann matrices over sqrt(2), an
    orthonormal basis (Tr E_k E_l = delta_kl) of the traceless Hermitian
    d x d matrices."""
    unit = np.eye(d)
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            e = np.outer(unit[a], unit[b])
            basis += [(e + e.T) / np.sqrt(2.0), 1j * (e.T - e) / np.sqrt(2.0)]
    for k in range(1, d):
        basis.append(np.diag(np.r_[np.ones(k), -k, np.zeros(d - k - 1)]) / np.sqrt(k * (k + 1)))
    out = np.array(basis, dtype=complex).reshape(-1, d, d)
    out.flags.writeable = False
    return out


class _OrbitContraction:
    """The purification tensor laid out once per party, so that applying a
    stack of party unitaries and forming the data matrices M_t are reshapes
    and batched products on a flat (restarts, dim) state. Up to
    _PAIR_TENSOR_MAX_DIM it also holds base (x) base unfolded once per party
    (pairs), from which each M_t is one GEMM over the restarts.

    For the second-order steps each active party t moves as
    exp(i sum_k x_tk E_k) U_t, with E_k an orthonormal basis of the traceless
    Hermitian matrices, so the per-party phase gauge is not a coordinate. The
    overlap o = base^T ((x)U) base is multilinear in the unitaries, so with
    G_i = i E_k acting on party t its first and second derivatives at x = 0
    are the linear functionals base^T G_i theta and
    sym(base^T G_i G_j theta) of the state theta = (x)U base. Their rows
    (G_i^T base and G_j^T G_i^T base) are built once, and every gradient and
    Hessian is then one product with theta. The rows take n^2 dim entries for
    n parameters; above _SECOND_ORDER_MAX_ENTRIES they are not built and
    the optimizer keeps sweeping instead.

    The ancilla is the last axis. When it and some system party are active,
    it is recorded as ancilla, and the first nsystem coordinates are the
    system parties'; a Newton step moves those only (_newton_iteration).
    """

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
        self.pairs = {}
        if self.base.size <= _PAIR_TENSOR_MAX_DIM:
            # base (x) base with axes x_0..x_{m-1}, y_0..y_{m-1} over the m
            # active parties; for party t its rows are the pairs (x_k, y_k)
            # of the other parties in order and its columns (y_t, x_t)
            m = len(self.active)
            flat = self.base.reshape([dims[t] for t in self.active])
            pair = np.multiply.outer(flat, flat)
            for i, t in enumerate(self.active):
                order = [a for j in range(m) if j != i for a in (j, m + j)] + [m + i, i]
                self.pairs[t] = np.ascontiguousarray(pair.transpose(order)).reshape(-1, dims[t] ** 2)
        self.nparams = sum(dims[t] ** 2 - 1 for t in self.active)
        last = len(dims) - 1
        self.ancilla = last if self.active[-1:] == [last] and len(self.active) > 1 else None
        self.nsystem = self.nparams - (0 if self.ancilla is None else dims[last] ** 2 - 1)
        self.rows = None
        if 0 < self.nparams**2 * self.base.size <= _SECOND_ORDER_MAX_ENTRIES:
            grad_rows = self._generators_transposed(self.base[None])[0]
            hess_rows = self._generators_transposed(grad_rows).reshape(-1, self.base.size)
            self.rows = np.concatenate([grad_rows, hess_rows])

    def _generators_transposed(self, x: np.ndarray) -> np.ndarray:
        """(N, n, dim): G_i^T applied to each of the N flat states x, for every
        parameter i = (t, k)."""
        out = []
        for t in self.active:
            a, d, b = self.shapes[t]
            gen = 1j * np.swapaxes(_hermitian_basis(d), 1, 2)
            y = np.einsum("kxy,nayb->nkaxb", gen, x.reshape(-1, a, d, b))
            out.append(y.reshape(len(x), -1, a * d * b))
        return np.concatenate(out, axis=1)

    def apply(self, us, skip: int | None = None) -> np.ndarray:
        """(R, dim) stack of (x)_k U_k |base> over the active parties k != skip."""
        theta = self.base[None]
        for k in self.active:
            if k != skip:
                theta = us[k][:, None] @ theta.reshape(len(theta), *self.shapes[k])
        nres = len(us[0])
        if len(theta) < nres:
            return np.broadcast_to(self.base, (nres, self.base.size))
        return theta.reshape(nres, self.base.size)

    def _party_matrix(self, theta: np.ndarray, t: int) -> np.ndarray:
        """(R, d_t, d_t): theta contracted with the base over every party but t."""
        a, d, b = self.shapes[t]
        return theta.reshape(-1, a, d, b).swapaxes(1, 2).reshape(-1, d, a * b) @ self.env[t]

    def data_matrix(self, us, t: int) -> np.ndarray:
        """M_t (R, d_t, d_t), with the overlap equal to Tr(U_t M_t).

        The overlap is sum_xy base_x base_y prod_k U_k[x_k, y_k], so under
        _PAIR_TENSOR_MAX_DIM M_t is the Kronecker product of the other
        parties' vec(U_k) times the pair unfolding of party t: one GEMM over
        all restarts. Larger states apply the other unitaries to the base."""
        if t not in self.pairs:
            return self._party_matrix(self.apply(us, skip=t), t)
        nres = len(us[0])
        vecs = [us[k].reshape(nres, -1) for k in self.active if k != t]
        kron = vecs[0] if vecs else np.ones((nres, 1))
        for v in vecs[1:]:
            kron = (kron[:, :, None] * v[:, None, :]).reshape(nres, -1)
        d = self.shapes[t][1]
        return (kron @ self.pairs[t]).reshape(nres, d, d)

    def overlaps(self, us) -> np.ndarray:
        return self.apply(us) @ self.base

    def stationarity(self, theta: np.ndarray) -> np.ndarray:
        """Per restart of the states theta, the largest over parties of
        ||skew(e^{-i arg o} U_t M_t)||_F. Rotating out the phase of the overlap
        o makes it invariant under the phase of every U_t; it vanishes
        exactly at the stationary points of |o|, and it equals the norm of
        the gradient of |o| in party t's coordinates."""
        o = theta @ self.base
        absolute = np.abs(o)
        phase = np.divide(o.conj(), absolute, out=np.ones_like(o), where=absolute > 0.0)
        out = np.zeros(len(theta))
        for t in self.active:
            lt = phase[:, None, None] * self._party_matrix(theta, t)
            skew = 0.5 * (lt - dagger(lt))
            out = np.maximum(out, np.linalg.norm(skew, axis=(1, 2)))
        return out

    def derivatives(self, theta: np.ndarray):
        """Fidelities |o|^2 of the states theta with their gradients (R, n)
        and Hessians (R, n, n) in the coordinates x."""
        o = theta @ self.base
        y = theta @ self.rows.T
        n = self.nparams
        g, a = y[:, :n], y[:, n:].reshape(-1, n, n)
        # |o|^2'' = 2 Re(conj(o) o'' + o' o'^H), o'' the symmetric part of a
        hess = np.real(o.conj()[:, None, None] * (a + np.swapaxes(a, 1, 2)))
        hess += 2.0 * np.real(g[:, :, None] * g.conj()[:, None, :])
        return np.abs(o) ** 2, 2.0 * np.real(o.conj()[:, None] * g), hess

    def system_derivatives(self, theta: np.ndarray):
        """Fidelities of the states theta with the gradients (R, nsystem) and
        Hessians of the reduced fidelity f(x) = max over the ancilla unitary,
        for states whose ancilla is at that maximum.

        With w the ancilla coordinates, the maximum's first-order condition
        g_w(x, w(x)) = 0 gives w' = -H_ww^-1 H_wx, so f' = g_x (the envelope
        theorem) and f'' = S = H_xx - H_xw H_ww^-1 H_wx, the Schur complement
        of the ancilla block. A stack with a singular ancilla block takes
        S = H_xx: the model of a step that holds the ancilla."""
        fid, grad, hess = self.derivatives(theta)
        m = self.nsystem
        if m == self.nparams:
            return fid, grad, hess
        schur = hess[:, :m, :m]
        try:
            schur = schur - hess[:, :m, m:] @ np.linalg.solve(hess[:, m:, m:], hess[:, m:, :m])
        except np.linalg.LinAlgError:
            pass  # some ancilla block is singular to working precision
        return fid, grad[:, :m], schur

    def rotate(self, us, x: np.ndarray) -> list[np.ndarray]:
        """The unitaries exp(i sum_k x_tk E_k) U_t of the parties whose
        coordinates x holds, taken in order: every active party, or the
        system parties for x of nsystem columns. For a qubit
        h = x.sigma / sqrt(2) squares to theta^2 I with theta = |x| / sqrt(2),
        so its exponential is cos(theta) I + i sin(theta)/theta h; larger
        parties take V e^{i lambda} V^dagger from eigh."""
        out = list(us)
        start = 0
        for t in self.active:
            if start == x.shape[1]:
                break
            d = self.shapes[t][1]
            basis = _hermitian_basis(d)
            xt = x[:, start:start + len(basis)]
            h = np.tensordot(xt, basis, axes=1)
            start += len(basis)
            if d == 2:
                theta = np.sqrt(0.5 * np.sum(xt * xt, axis=1))
                sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
                exp = (1j * sinc)[:, None, None] * h
                cos = np.cos(theta)
                exp[:, 0, 0] += cos
                exp[:, 1, 1] += cos
            else:
                w, v = np.linalg.eigh(h)
                exp = (v * np.exp(1j * w)[:, None, :]) @ dagger(v)
            out[t] = exp @ us[t]
        return out


def _trust_region_step(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray):
    """Per row, the step x with ||x|| <= radius (up to 10% over) that
    maximizes the model grad.x + x.hess.x / 2, and the model's increase.

    In the eigenbasis of B = -hess the step is (B + lam)^{-1} grad, with
    lam = 0 if B is positive definite and its Newton step fits, else the
    lam above max(0, -lowest curvature) at which ||x|| = radius. That lam is
    the root of 1/radius - 1/||x(lam)||, a convex decreasing function, so
    Newton's method from the lowest admissible lam rises monotonically to it
    (More & Sorensen 1983; Nocedal & Wright, Numerical Optimization,
    Alg. 4.3). If grad has no weight on the lowest curvature (the hard
    case) ||x|| stays below the radius there and the step falls short.

    As in More & Sorensen, a Cholesky factorization of B comes first: when it
    succeeds on every row and every Newton step B^{-1} grad fits, those steps
    are the answer, with increase grad.x / 2, and no eigendecomposition runs.
    A B whose Cholesky factor exists but whose LU solve meets an exact zero
    pivot (a curvature at the rounding level) also takes the eigenbasis.
    """
    b = -hess
    try:
        np.linalg.cholesky(b)
        x = np.linalg.solve(b, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass  # some B is not positive definite, or singular to working precision
    else:
        if np.all(np.sum(x * x, axis=1) <= radius**2):
            return x, 0.5 * np.sum(grad * x, axis=1)
    beta, q = np.linalg.eigh(b)
    gamma = np.einsum("rji,rj->ri", q, grad)  # the gradient in the eigenbasis
    lam = np.maximum(0.0, -beta[:, 0]) + 1e-12 * (1.0 + np.abs(beta).max(axis=1))
    newton = beta[:, 0] > 0.0
    newton[newton] = np.linalg.norm(gamma[newton] / beta[newton], axis=1) <= radius[newton]
    lam[newton] = 0.0
    rows = np.flatnonzero(~newton)
    for _ in range(_TRUST_REGION_ITERS):
        denom = beta[rows] + lam[rows, None]
        c = gamma[rows] / denom
        s = np.sum(c * c, axis=1)
        far = s > (1.1 * radius[rows]) ** 2
        if not far.any():
            break
        rows, c, denom, s = rows[far], c[far], denom[far], s[far]
        lam[rows] += s * (np.sqrt(s) / radius[rows] - 1.0) / np.sum(c * c / denom, axis=1)
    c = gamma / (beta + lam[:, None])
    increase = np.sum(c * gamma - 0.5 * beta * c * c, axis=1)
    return np.einsum("rij,rj->ri", q, c), increase


def _sweep(orbit: _OrbitContraction, us, fid: np.ndarray):
    """One cycle of the closed-form party updates: the new unitaries and
    fidelities. Each update is monotone in the overlap."""
    us = list(us)
    for t in orbit.active:
        us[t], norm = _polar_max(orbit.data_matrix(us, t))
        fid = norm**2
    return us, fid


def _newton_iteration(orbit: _OrbitContraction, us, theta, radius):
    """One trust-region step for each restart: the unitaries and fidelities
    after it (unchanged where the fidelity would not rise) and the new radii.

    With an ancilla the step moves the system parties on the model of the
    reduced fidelity (system_derivatives) and then sets the ancilla to its
    polar optimum, so the ancilla is at its optimum when the next step
    starts, as it is after a sweep, which updates it last."""
    fid, grad, hess = orbit.system_derivatives(theta)
    x, increase = _trust_region_step(grad, hess, radius)
    trial = orbit.rotate(us, x)
    if orbit.ancilla is not None:
        u = _polar_max(orbit.data_matrix(trial, orbit.ancilla))[0]
        trial[orbit.ancilla] = np.ascontiguousarray(u)
    # the fidelity from the overlap of contiguous unitaries, not from the
    # trace norm: the next step's starting fidelity, which a refused step
    # returns, is rounded the same way, so the fidelities never fall
    trial_fid = np.abs(orbit.overlaps(trial)) ** 2
    gain = trial_fid - fid
    ratio = gain / np.maximum(increase, np.finfo(float).tiny)
    length = np.linalg.norm(x, axis=1)
    radius = np.where(ratio < 0.25, 0.25 * np.minimum(length, radius), radius)
    grow = (ratio > 0.75) & (length >= 0.9 * radius)
    radius = np.where(grow, np.minimum(2.0 * radius, _TRUST_RADIUS_MAX), radius)
    accept = gain > 0.0
    us = [np.where(accept[:, None, None], new, old) for new, old in zip(trial, us)]
    return us, np.where(accept, trial_fid, fid), radius


# per-restart stop codes of alternating_orbit_overlap and the reasons they report
_GOING, _STATIONARY, _TARGET, _CAP = range(4)
_STOP_REASONS = ("", "stationary", "target", "cap")


def alternating_orbit_overlap(
    base: np.ndarray,
    starts: list[np.ndarray],
    max_iters: int,
    target_fidelity: float | None = None,
):
    """Maximize |sum_ab psi_a ((x)_t U_t)_ab psi_b| from the (R, d_t, d_t)
    start stacks, one per party, batched over the R restarts: closed-form
    sweeps to globalise, then trust-region Newton steps to a stationary point.

    Fixing every party but t makes the objective |Tr(U_t M_t)| for a data
    matrix M_t, maximized by the adjoint polar factor of M_t (_polar_max);
    each sweep of these updates is monotone in the overlap. In the sweeps a
    restart leaves the stack when its gain per sweep falls below
    sqrt(ORBIT_TOL), after _SWEEP_BUDGET sweeps (_TARGET_SWEEP_BUDGET with a
    target_fidelity; at most max_iters), or when some restart reaches the
    target. The finish starts after the last sweep, so target stops fall where
    the sweeps put them: each live restart takes Riemannian trust-region
    Newton steps on U(d)^m (Absil, Baker & Gallivan 2007) with the exact
    Hessian of the fidelity (_OrbitContraction), and a step counts only if it
    raises the fidelity, so every fidelity rises monotonically from its
    start. With an ancilla a step moves only the system parties, on the
    fidelity maximized over the ancilla unitary (variable projection,
    Golub & Pereyra 2003), and then sets the ancilla to its polar optimum.
    A restart stops as "stationary" once its stationarity is at most
    sqrt(ORBIT_TOL), as "target" when some restart reaches target_fidelity
    first, and as "cap" when its sweeps plus Newton steps reach max_iters.
    Parties too large for the Hessian sweep in the finish instead, under the
    same stops; such a restart stops as stationary only after a sweep that
    gained less than ORBIT_TOL, so never before the sweeps alone would have.

    Returns per-restart fidelities (capped at 1), overlaps, unitaries,
    iteration counts (sweeps plus Newton steps), stop reasons and
    stationarities, and the best restart: the lowest index whose fidelity,
    before the cap, is within BEST_RESTART_TIE of the largest.
    """
    orbit = _OrbitContraction(base)
    us = [np.array(s, dtype=complex) for s in starts]
    nres = len(us[0])
    stat_tol = np.sqrt(ORBIT_TOL)
    budget = min(max_iters, _SWEEP_BUDGET if target_fidelity is None else _TARGET_SWEEP_BUDGET)
    fid = np.abs(orbit.overlaps(us)) ** 2
    iters = np.zeros(nres, dtype=int)
    reasons = np.zeros(nres, dtype=int)  # indices into _STOP_REASONS
    stationarity = np.zeros(nres)
    # per restart: settled, and the trust radius. Meeting sqrt(ORBIT_TOL)
    # stops a restart once it is settled: after a Newton step taken from such
    # a point, which is quadratic and so removes the ~stationarity^2 /
    # curvature of fidelity a stop there would leave, or after a sweep that
    # gained less than ORBIT_TOL, the old stop rule (DECISIONS.md).
    settled = np.zeros(nres, dtype=bool)
    radius = np.full(nres, _TRUST_RADIUS_START)
    hit = False
    sweeping = np.arange(nres if budget > 0 else 0)
    current = us
    while sweeping.size:
        current, new_fid = _sweep(orbit, current, fid[sweeping])
        gain = new_fid - fid[sweeping]
        fid[sweeping] = new_fid
        iters[sweeping] += 1
        hit = target_fidelity is not None and fid.max() >= target_fidelity
        done = (gain < stat_tol) | (iters[sweeping] >= budget) | hit
        if done.any():
            settled[sweeping[done]] = (gain[done] < ORBIT_TOL) & (orbit.rows is None)
            for t in orbit.active:
                us[t][sweeping] = current[t]
            sweeping = sweeping[~done]
            current = [u[sweeping] for u in us]
    newton = orbit.rows is not None
    live = np.arange(nres)
    while True:
        stop = np.full(live.size, _TARGET) if hit else np.where(iters[live] >= max_iters, _CAP, _GOING)
        # a Newton step needs every stationarity, a sweep only a settled or stopping one's
        check = (stop != _GOING) | settled[live] | newton
        if check.any():
            theta = orbit.apply([u[live[check]] for u in us])
            stationarity[live[check]] = orbit.stationarity(theta)
        small = stationarity[live] <= stat_tol
        stop[small & (settled[live] | (stop != _GOING))] = _STATIONARY
        reasons[live] = stop
        keep = stop == _GOING
        live, small = live[keep], small[keep]
        if not live.size:
            break
        current = [u[live] for u in us]
        if newton:
            settled[live] = small
            current, fid[live], radius[live] = _newton_iteration(orbit, current, theta[keep], radius[live])
        else:
            current, new_fid = _sweep(orbit, current, fid[live])
            settled[live] = new_fid - fid[live] < ORBIT_TOL
            fid[live] = new_fid
        iters[live] += 1
        hit = target_fidelity is not None and fid.max() >= target_fidelity
        for t in orbit.active:
            us[t][live] = current[t]
    best = int(np.argmax(fid >= fid.max() - BEST_RESTART_TIE))
    names = [_STOP_REASONS[r] for r in reasons]
    return np.minimum(fid, 1.0), orbit.overlaps(us), us, iters, names, stationarity, best


def chiral_log_distance(
    rho: DensityMatrix,
    partition: Partition,
    restarts: int = 20,
    max_iters: int = 1000,
    seed: int = 0,
    extra_inits: list[list[np.ndarray]] | None = None,
    target_fidelity: float | None = None,
) -> tuple[float, OptimizationResult]:
    """Upper estimate of the chiral log-distance of rho for the partition.

    Purifies rho (ancilla dimension = rank) and maximizes the fidelity
    between the conjugated purification and the local-unitary orbit,
    optimizing one unitary per partition group plus one on the ancilla.
    Restart 0 starts from identities, any extra_inits follow (each a list of
    per-party unitaries, ancilla optional), and the remaining restarts start
    Haar-random from streams seeded by (seed, restart), each stream drawing
    every party in turn (haar_unitaries). So max(restarts, 1 +
    len(extra_inits)) restarts run: at least 1 + len(extra_inits), whatever
    restarts asks. Each restart sweeps until its gain per sweep falls below
    sqrt(ORBIT_TOL) (at most 10 sweeps, or 60 when target_fidelity is
    given), then takes trust-region Newton steps on the partition groups,
    each followed by the ancilla's closed-form optimum, until its
    stationarity is at most sqrt(ORBIT_TOL) (alternating_orbit_overlap);
    max_iters caps its sweeps plus steps, and restarts that reach the cap
    raise a RuntimeWarning. Returns
    (-log best_fidelity, diagnostics); the value is an upper estimate of the
    true log-distance because stalls only lower the fidelity.
    """
    require_single(rho, "chiral_log_distance")
    partition.validate(rho.nsub)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    base, party_dims = _fused_purification(rho, partition)

    extras = []
    for extra in extra_inits or []:
        filled = list(extra) + [np.eye(d) for d in party_dims[len(extra):]]
        filled = [np.asarray(f, dtype=complex) for f in filled]
        if len(filled) != len(party_dims) or any(f.shape != (d, d) for f, d in zip(filled, party_dims)):
            raise ValueError("extra init does not match party dimensions")
        extras.append(filled)
    haar = haar_unitaries(party_dims, seed, range(1, restarts - len(extras)))
    starts = []
    for t, d in enumerate(party_dims):
        stacked = np.reshape([e[t] for e in extras], (-1, d, d))
        starts.append(np.concatenate([np.eye(d)[None], stacked, haar[t]]))

    fid, overlaps, us, iters, reasons, stationarity, best = alternating_orbit_overlap(
        base, starts, max_iters, target_fidelity
    )
    stalled = reasons.count("cap")
    if stalled:
        warnings.warn(
            f"{stalled} of {len(fid)} restarts hit max_iters={max_iters}",
            RuntimeWarning,
            stacklevel=2,
        )
    result = OptimizationResult(
        best_fidelity=float(fid.max()),
        overlap=complex(overlaps[best]),
        unitaries=[u[best] for u in us],
        restarts=len(fid),
        iterations_per_restart=iters.tolist(),
        converged=[r == "stationary" for r in reasons],
        best_restart=best,
        fidelities=fid,
        stationarity=stationarity,
        stop_reasons=reasons,
    )
    # -log 1 is -0.0; a distance is reported as +0.0
    value = max(0.0, -float(np.log(max(result.best_fidelity, 1e-300))))
    return value, result


def pure_state_log_distance(
    psi: np.ndarray,
    dims,
    restarts: int = 20,
    seed: int = 0,
    extra_inits: list[list[np.ndarray]] | None = None,
) -> tuple[float, OptimizationResult]:
    """Log-distance of a pure state with one party per subsystem."""
    from .qmat import pure_state_density

    dims = tuple(int(d) for d in dims)
    rho = pure_state_density(dims, psi)
    part = Partition(tuple((i,) for i in range(len(dims))))
    return chiral_log_distance(rho, part, restarts=restarts, seed=seed, extra_inits=extra_inits)


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
    each from its public function, which all read one held modular_set.

    The flow-integrated measure is skipped (with a note) when the state is
    rank-deficient.
    """
    require_single(rho, "measure_report")
    entries = {"J2": j2(rho, split), "J3": j3(rho, split), "J3_prime": j3_prime(rho, split)}
    for s in s_values:
        # the short form names s when it reads back as s; repr always does
        name = f"{s:g}" if float(f"{s:g}") == s else repr(s)
        entries[f"gamma_s[{name}]"] = gamma_s(rho, split, s)
        entries[f"phi_s[{name}]"] = phi_s(rho, split, s)
    notes: dict[str, str] = {}
    try:
        entries["gamma"] = gamma_integral(rho, split)
    except ValueError as exc:
        notes["gamma"] = str(exc)
    tolerances = {k: IMAG_RESIDUE_TOL for k in entries}
    return MeasureReport(entries, tolerances, notes)
