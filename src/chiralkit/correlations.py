"""Quantum-Fisher-information machinery and its relation to chirality:
the symmetric-logarithmic-derivative superoperator (eigenbasis and integral
forms), QFI with the marginal modular Hamiltonian as generator (intrinsic
interferometric power), classical-quantum detection, two-qubit local-unitary
invariants, and the bound tying the flow-integrated chirality measure to the
intrinsic interferometric power.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chirality import ModularSet, _gamma, _minus, _party_index, _plus, _scalar, _sum2, modular_set
from .qmat import (
    DensityMatrix,
    Partition,
    eig_hermitian,
    embed_operator,
    hermitize,
    partial_trace,
    require_single,
)
from .sampling import _PAULIS

# Max of sum_i x_i (log x_i)^2 over the 2-simplex, attained near (0.839, 0.161);
# for d >= 3 the max is (log d)^2 at the uniform point.
TWO_LEVEL_LOG_MOMENT_MAX = 0.563

# Absolute cutoff on p_j + p_k: the SLD and the QFI sums skip the eigenbasis
# pairs (j, k) at or below it, where both eigenvalues vanish.
SLD_PAIR_CUTOFF = 1e-12


def log_moment_bound(d: int) -> float:
    """c(d): the largest possible Tr(rho (log rho)^2) on a d-level system."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return TWO_LEVEL_LOG_MOMENT_MAX if d == 2 else float(np.log(d) ** 2)


def sld_apply(rho: DensityMatrix, op: np.ndarray) -> np.ndarray:
    """Inverse of O -> (O rho + rho O)/2 on the support of rho.

    In the eigenbasis the (j,k) entry is scaled by 2/(p_j + p_k); entries with
    p_j + p_k at most SLD_PAIR_CUTOFF are zeroed.
    """
    require_single(rho, "sld_apply")
    dec = eig_hermitian(rho.data)
    p = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    ob = v.conj().T @ np.asarray(op, dtype=complex) @ v
    psum = p[:, None] + p[None, :]
    good = psum > SLD_PAIR_CUTOFF
    scale = np.where(good, 2.0 / np.where(good, psum, 1.0), 0.0)
    return v @ (scale * ob) @ v.conj().T


def gauss_legendre_panels(s_max: float, panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes/weights on [-s_max, s_max]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-s_max, s_max, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# complex entries of one block of sld_integral_form's phase tensor (4 MiB)
_PHASE_BLOCK_ENTRIES = 1 << 18


def sld_integral_form(
    rho: DensityMatrix,
    op: np.ndarray,
    s_max: float = 8.0,
    panels: int = 256,
) -> np.ndarray:
    """Quadrature form of the same superoperator for full-rank states:
    the integral over s of rho^{-1/2+is} O rho^{-1/2-is} / cosh(pi s).

    Implemented in the eigenbasis, where the kernel in the (j,k) entry is the
    sech-weighted Fourier transform at log(p_j/p_k); agrees with sld_apply to
    the quadrature truncation (the sech transform of e^{iks} is 1/cosh(k/2)).
    """
    require_single(rho, "sld_integral_form")
    dec = eig_hermitian(rho.data)
    p = dec.eigenvalues
    if p[0] <= 1e-10:
        raise ValueError(f"full-rank state required (min eigenvalue {p[0]:.3e})")
    v = dec.eigenvectors
    ob = v.conj().T @ np.asarray(op, dtype=complex) @ v
    logp = np.log(p)
    delta = logp[:, None] - logp[None, :]
    nodes, weights = gauss_legendre_panels(s_max, panels, order=8)
    weights = weights * (1.0 / np.cosh(np.pi * nodes))
    kernel = np.zeros(delta.size, dtype=complex)
    # whole panels of nodes per block, as many as keep the (nodes, d^2) phase
    # block within _PHASE_BLOCK_ENTRIES (one panel at least)
    step = 8 * max(1, _PHASE_BLOCK_ENTRIES // (8 * delta.size))
    for lo in range(0, nodes.size, step):
        kernel += weights[lo:lo + step] @ np.exp(1j * np.outer(nodes[lo:lo + step], delta.ravel()))
    kernel = kernel.reshape(delta.shape)
    scaled = ob * kernel / np.sqrt(np.outer(p, p))
    return v @ scaled @ v.conj().T


def qfi(rho: DensityMatrix, ham: np.ndarray) -> float:
    """Quantum Fisher information of rho under the one-parameter orbit
    generated by ham: -Tr([H, rho] R^{-1}([H, rho])).

    Evaluates to 4 (<H^2> - <H>^2) on pure states; nonnegative up to rounding.
    """
    require_single(rho, "qfi")
    ham = np.asarray(ham, dtype=complex)
    c = ham @ rho.data - rho.data @ ham
    val = -np.trace(c @ sld_apply(rho, c))
    if abs(val.imag) > 1e-8:
        warnings.warn(
            f"QFI imaginary residue {val.imag:.3e}", RuntimeWarning, stacklevel=2
        )
    return float(val.real)


def _intrinsic_ip(ms: ModularSet, party):
    # qfi in the eigenbasis of rho: sum_ij 2 (p_i - p_j)^2 / (p_i + p_j) |(K_P)_ij|^2
    # over the pairs that sld_apply keeps
    p = ms.p
    psum = _plus(p)
    good = psum > SLD_PAIR_CUTOFF
    w = np.where(good, 2.0 * _minus(p) ** 2 / np.where(good, psum, 1.0), 0.0)
    return _scalar(_sum2(w * np.abs(ms.k_eigbasis(party)) ** 2))


def intrinsic_ip(rho: DensityMatrix, split: Partition, party) -> float:
    """QFI with the chosen party's marginal modular Hamiltonian as generator.

    Vanishes on states that are classical-quantum with respect to that party;
    reduces (up to the factor-4 convention of qfi) to the variance of the
    marginal modular Hamiltonian on pure states.
    """
    return _intrinsic_ip(modular_set(rho, split), party)


@dataclass(frozen=True)
class CQDecomposition:
    """Block decomposition sum_i p_i |i><i| (x) rho_i with |i> an orthonormal
    basis of the chosen party."""

    basis: np.ndarray  # columns are the basis states
    probabilities: np.ndarray
    conditional_states: tuple[np.ndarray, ...]

    def reconstruct(self, dims_party: int, dims_rest: int) -> np.ndarray:
        out = np.zeros((dims_party * dims_rest,) * 2, dtype=complex)
        for i, (p, cond) in enumerate(zip(self.probabilities, self.conditional_states)):
            proj = np.outer(self.basis[:, i], self.basis[:, i].conj())
            out += p * np.kron(proj, cond)
        return out


def is_classical_quantum(
    rho: DensityMatrix,
    split: Partition,
    party,
    tol: float = 1e-9,
    gap_tol: float = 1e-8,
) -> tuple[CQDecomposition | None, str]:
    """Detect block-diagonal structure in the eigenbasis of one marginal.

    Returns (decomposition, reason). The decomposition exists when the state
    commutes with the party marginal (within tol) and that marginal is
    nondegenerate (eigenvalue gaps above gap_tol); a commuting state with a
    degenerate marginal is reported as undecided, since the blocks are then
    basis-dependent.
    """
    require_single(rho, "is_classical_quantum")
    split.validate(rho.nsub)
    idx = _party_index(party)
    group = split.groups[idx]
    marg = partial_trace(rho, group)
    embedded = embed_operator(marg.data, rho.dims, group)
    comm = np.linalg.norm(embedded @ rho.data - rho.data @ embedded)
    if comm > tol:
        return None, f"noncommuting ([rho, rho_party] Frobenius norm {comm:.3e})"
    dec = eig_hermitian(marg.data)
    gaps = np.diff(dec.eigenvalues)
    if gaps.size and gaps.min() < gap_tol:
        return None, f"degenerate marginal (min eigenvalue gap {gaps.min():.3e}); undecided"
    # rotate the party into its marginal eigenbasis and read off the blocks
    d_p = marg.dim
    d_r = rho.dim // d_p
    u = embed_operator(dec.eigenvectors, rho.dims, group)
    rot = u.conj().T @ rho.data @ u
    perm = _party_front_permutation(rho.dims, group)
    rot = rot[np.ix_(perm, perm)].reshape(d_p, d_r, d_p, d_r)
    probs = []
    conds = []
    for i in range(d_p):
        block = rot[i, :, i, :]
        p_i = float(np.trace(block).real)
        probs.append(p_i)
        conds.append(hermitize(block / p_i) if p_i > 1e-12 else np.eye(d_r) / d_r)
    return (
        CQDecomposition(dec.eigenvectors, np.array(probs), tuple(conds)),
        "classical-quantum",
    )


def _party_front_permutation(dims, group) -> np.ndarray:
    """Basis permutation that moves the listed subsystems to the front."""
    n = len(dims)
    rest = [i for i in range(n) if i not in group]
    order = list(group) + rest
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    return idx.transpose(order).ravel()


def makhlin_invariants(rho: DensityMatrix, tol: float = 1e-8) -> tuple[float, float, float]:
    """(det beta, Tr(beta^T beta), Tr((beta^T beta)^2)) for a two-qubit state
    with both marginals maximally mixed, where beta is the correlation matrix
    in rho = I/4 + sum_ij beta_ij sigma_i (x) sigma_j.

    These three numbers are a complete local-unitary invariant set in the
    maximally-mixed-marginal sector, and complex conjugation acts on beta by
    the orthogonal matrix diag(1, -1, 1), so they decide the orbit question.
    """
    require_single(rho, "makhlin_invariants")
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit state required, got dims {rho.dims}")
    for group in ((0,), (1,)):
        marg = partial_trace(rho, group)
        if np.max(np.abs(marg.data - np.eye(2) / 2)) > tol:
            raise ValueError(
                "marginals must be maximally mixed for the three-invariant reduction; "
                f"subsystem {group[0]} deviates by {np.max(np.abs(marg.data - np.eye(2) / 2)):.3e}"
            )
    beta = np.empty((3, 3))
    for i, si in enumerate(_PAULIS):
        for j, sj in enumerate(_PAULIS):
            beta[i, j] = np.real(np.trace(rho.data @ np.kron(si, sj))) / 4.0
    btb = beta.T @ beta
    return float(np.linalg.det(beta)), float(np.trace(btb)), float(np.trace(btb @ btb))


@dataclass(frozen=True)
class NoncommutativityVerdict:
    verdict: str  # "nonchiral-certified" | "undecided"
    condition: int | None
    reason: str


def noncommutativity_verdict(
    rho: DensityMatrix, split: Partition, tol: float = 1e-9
) -> NoncommutativityVerdict:
    """Certify nonchirality from commutativity with both marginals.

    When [rho, rho_A] and [rho, rho_B] both vanish, the state is nonchiral if
    (1) both marginals are nondegenerate, (2) one marginal is nondegenerate
    and its party is a qubit, or (3) the state is two-qubit (certified by
    comparing the local-unitary invariants of the state and its conjugate).
    Everything else, including any nonvanishing commutator, is undecided.
    """
    require_single(rho, "noncommutativity_verdict")
    split.validate(rho.nsub)
    comms = []
    margs = []
    for group in split.groups:
        marg = partial_trace(rho, group)
        margs.append(marg)
        emb = embed_operator(marg.data, rho.dims, group)
        comms.append(np.linalg.norm(emb @ rho.data - rho.data @ emb))
    if max(comms) > tol:
        return NoncommutativityVerdict(
            "undecided", None, f"commutators with marginals nonzero ({comms[0]:.2e}, {comms[1]:.2e})"
        )
    nondeg = []
    for marg in margs:
        gaps = np.diff(marg.eigenvalues())
        nondeg.append(bool(gaps.size == 0 or gaps.min() > 1e-8))
    if nondeg[0] and nondeg[1]:
        return NoncommutativityVerdict("nonchiral-certified", 1, "both marginals nondegenerate")
    for i in range(2):
        if nondeg[i] and margs[i].dim == 2:
            return NoncommutativityVerdict(
                "nonchiral-certified", 2, f"group {i} is a nondegenerate qubit"
            )
    if rho.dims == (2, 2) and split.ngroups == 2:
        try:
            inv = makhlin_invariants(rho)
            inv_conj = makhlin_invariants(DensityMatrix(rho.dims, rho.data.conj()))
        except ValueError as exc:
            return NoncommutativityVerdict("undecided", None, str(exc))
        dev = max(abs(a - b) for a, b in zip(inv, inv_conj))
        if dev < 1e-10:
            return NoncommutativityVerdict(
                "nonchiral-certified", 3, f"two-qubit invariants match (max dev {dev:.2e})"
            )
        return NoncommutativityVerdict(
            "undecided", None, f"two-qubit invariants differ by {dev:.2e}"
        )
    return NoncommutativityVerdict(
        "undecided", None, "commutators vanish but marginals are degenerate"
    )


class CorrelationBoundViolation(AssertionError):
    """The chirality-vs-quantum-Fisher inequality failed beyond tolerance."""


@dataclass(frozen=True)
class GammaQfiReport:
    gamma: float
    qfi_a: float
    qfi_b: float
    log_moment_a: float
    log_moment_b: float
    slack_a: float
    slack_b: float
    slack_bound_a: float
    slack_bound_b: float


def check_gamma_qfi_bound(
    rho: DensityMatrix,
    split: Partition,
    tolerance: float = 1e-8,
) -> GammaQfiReport:
    """Assert gamma^2 <= Tr(rho_P K_P^2) * F^(other) for both parties, plus
    the dimension-only form with c(d). Full-rank states only.

    gamma, both intrinsic IPs and both log-moments come from one
    modular_set; the log-moment is Tr(rho_P K_P^2) = sum_ij p_i |(K_P)_ij|^2
    in the eigenbasis of rho. Raises CorrelationBoundViolation with a state
    dump if any slack drops below -tolerance.
    """
    require_single(rho, "check_gamma_qfi_bound")
    ms = modular_set(rho, split)
    gamma = _gamma(ms)
    f_a = _intrinsic_ip(ms, 0)
    f_b = _intrinsic_ip(ms, 1)
    moments = [
        float(np.sum(ms.p[:, None] * np.abs(ms.k_eigbasis(party)) ** 2)) for party in (0, 1)
    ]
    g2 = gamma**2
    report = GammaQfiReport(
        gamma=gamma,
        qfi_a=f_a,
        qfi_b=f_b,
        log_moment_a=moments[0],
        log_moment_b=moments[1],
        slack_a=moments[0] * f_b - g2,
        slack_b=moments[1] * f_a - g2,
        slack_bound_a=log_moment_bound(int(np.prod([rho.dims[i] for i in split.groups[0]]))) * f_b - g2,
        slack_bound_b=log_moment_bound(int(np.prod([rho.dims[i] for i in split.groups[1]]))) * f_a - g2,
    )
    slacks = (report.slack_a, report.slack_b, report.slack_bound_a, report.slack_bound_b)
    if min(slacks) < -tolerance:
        raise CorrelationBoundViolation(
            f"gamma-QFI bound violated: slacks {slacks}, report {report!r}, "
            f"state dims {rho.dims}, matrix {rho.data.tolist()!r}"
        )
    return report


def simplex_entropy_max(
    d: int,
    starts: int = 100,
    iters: int = 2000,
    seed: int = 0,
    return_argmax: bool = False,
):
    """Numerical maximum of f(x) = sum_i x_i (log x_i)^2 over the probability
    simplex by projected gradient ascent from random interior starts.

    All starts climb together as the rows of one (starts, d) array; the best
    is the first start whose value beats every earlier one. Lands on 0.563
    for d = 2 (asymmetric maximizer near (0.839, 0.161)) and on (log d)^2 at
    the uniform point for d >= 3. With return_argmax, returns
    (max, maximizer).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    floor = 1e-15
    x = np.stack([rng.dirichlet(np.ones(d)) for _ in range(starts)])
    step = 0.05
    for it in range(iters):
        if it == iters // 2:
            step = 0.005
        lx = np.log(np.clip(x, floor, 1.0))
        grad = lx**2 + 2.0 * lx
        x = _project_simplex(x + step * grad)
        x = np.clip(x, floor, 1.0)
        x /= x.sum(axis=-1, keepdims=True)
    lx = np.log(np.clip(x, floor, 1.0))
    vals = np.sum(x * lx**2, axis=-1)
    best = 0.0
    best_x = np.ones(d) / d
    for val, row in zip(vals.tolist(), x):
        if val > best:
            best, best_x = val, row
    return (best, best_x) if return_argmax else best


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based), row
    by row on a (..., d) array."""
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    positive = u - css / np.arange(1, y.shape[-1] + 1) > 0
    # the last positive position, found as the first one from the end
    rho_idx = y.shape[-1] - 1 - np.argmax(positive[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho_idx[..., None], axis=-1) / (rho_idx[..., None] + 1.0)
    return np.clip(y - theta, 0.0, None)
