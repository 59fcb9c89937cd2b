"""Quantum-Fisher-information machinery and its relation to chirality:
the symmetric-logarithmic-derivative superoperator (eigenbasis and integral
forms), QFI with the marginal modular Hamiltonian as generator (intrinsic
interferometric power), classical-quantum detection, two-qubit local-unitary
invariants, and the bound tying the flow-integrated chirality measure to the
intrinsic interferometric power.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .chirality import _minus, _plus, _scalar, _sum2, gamma_integral, modular_set
from .qmat import (
    DensityMatrix,
    Partition,
    apply_local,
    conjugate,
    dagger,
    hermitize,
    partial_trace,
    require_hermitian,
    require_single,
)
from .sampling import _PAULIS

# Max of sum_i x_i (log x_i)^2 over the 2-simplex, attained near (0.839, 0.161);
# for d >= 3 the max is (log d)^2 at the uniform point.
TWO_LEVEL_LOG_MOMENT_MAX = 0.563

# Absolute cutoff on p_j + p_k: the SLD and the QFI sums skip the eigenbasis
# pairs (j, k) at or below it, where both eigenvalues vanish.
SLD_PAIR_CUTOFF = 1e-12
# sld_integral_form: SLD_QUADRATURE_PANELS Gauss-Legendre panels of GAUSS_LEGENDRE_ORDER
# nodes on |s| <= S_MAX; every eigenvalue must exceed FULL_RANK_MIN_EIGENVALUE (absolute)
SLD_QUADRATURE_S_MAX = 8.0
SLD_QUADRATURE_PANELS = 256
GAUSS_LEGENDRE_ORDER = 8
FULL_RANK_MIN_EIGENVALUE = 1e-10
# rho commutes with a marginal when ||[rho, rho_P (x) I]||_F <= COMMUTATOR_TOL;
# the marginal is degenerate when its smallest eigenvalue gap is < GAP_TOL
COMMUTATOR_TOL = 1e-9
GAP_TOL = 1e-8
BLOCK_WEIGHT_FLOOR = 1e-12  # lighter classical-quantum blocks get the conditional state I/d
MAXIMALLY_MIXED_ATOL = 1e-8  # largest entry of rho_P - I/2 that makhlin_invariants accepts
GAMMA_QFI_TOL = 1e-8  # check_gamma_qfi_bound raises on a slack below -GAMMA_QFI_TOL
# two-qubit local-unitary invariants of a state and its conjugate match when
# none differs by INVARIANT_MATCH_TOL or more
INVARIANT_MATCH_TOL = 1e-10


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
    dec = rho.eig()
    p = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    ob = v.conj().T @ np.asarray(op, dtype=complex) @ v
    return v @ (_pair_weight(p, 2.0) * ob) @ v.conj().T


def _pair_weight(p: np.ndarray, numerator) -> np.ndarray:
    """numerator / (p_i + p_j) on the eigenbasis pairs the SLD keeps (p_i + p_j
    above SLD_PAIR_CUTOFF), 0 on the rest."""
    psum = _plus(p)
    good = psum > SLD_PAIR_CUTOFF
    return np.where(good, numerator / np.where(good, psum, 1.0), 0.0)


def _qfi_weight(p: np.ndarray) -> np.ndarray:
    """2 (p_i - p_j)^2 / (p_i + p_j) on the pairs the SLD keeps: the weight
    of |H_ij|^2 in the QFI of rho, p its eigenvalues."""
    return _pair_weight(p, 2.0 * _minus(p) ** 2)


def _qfi_eigbasis(weight: np.ndarray, h2: np.ndarray):
    """sum_ij weight_ij |H_ij|^2 for the _qfi_weight of rho and the squared
    moduli h2 of the generator H in the eigenbasis of rho:
    -Tr([H, rho] R^{-1}([H, rho])) with R^{-1} the sld_apply superoperator
    (Braunstein & Caves 1994)."""
    return _scalar(_sum2(weight * h2))


def gauss_legendre_panels(s_max: float, panels: int):
    """Composite Gauss-Legendre nodes/weights of GAUSS_LEGENDRE_ORDER on
    [-s_max, s_max]."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
    edges = np.linspace(-s_max, s_max, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# complex entries of one block of sld_integral_form's phase tensor (4 MiB)
_PHASE_BLOCK_ENTRIES = 1 << 18


def sld_integral_form(rho: DensityMatrix, op: np.ndarray) -> np.ndarray:
    """Quadrature form of the same superoperator for full-rank states:
    the integral over s of rho^{-1/2+is} O rho^{-1/2-is} / cosh(pi s),
    truncated to |s| <= SLD_QUADRATURE_S_MAX.

    Implemented in the eigenbasis, where the kernel in the (j,k) entry is the
    sech-weighted Fourier transform at log(p_j/p_k); agrees with sld_apply to
    the quadrature truncation (the sech transform of e^{iks} is 1/cosh(k/2)).
    """
    require_single(rho, "sld_integral_form")
    dec = rho.eig()
    p = dec.eigenvalues
    if p[0] <= FULL_RANK_MIN_EIGENVALUE:
        raise ValueError(f"full-rank state required (min eigenvalue {p[0]:.3e})")
    v = dec.eigenvectors
    ob = v.conj().T @ np.asarray(op, dtype=complex) @ v
    logp = np.log(p)
    delta = logp[:, None] - logp[None, :]
    nodes, weights = gauss_legendre_panels(SLD_QUADRATURE_S_MAX, SLD_QUADRATURE_PANELS)
    weights = weights * (1.0 / np.cosh(np.pi * nodes))
    kernel = np.zeros(delta.size, dtype=complex)
    # whole panels of nodes per block, as many as keep the (nodes, d^2) phase
    # block within _PHASE_BLOCK_ENTRIES (one panel at least)
    step = GAUSS_LEGENDRE_ORDER * max(1, _PHASE_BLOCK_ENTRIES // (GAUSS_LEGENDRE_ORDER * delta.size))
    for lo in range(0, nodes.size, step):
        kernel += weights[lo:lo + step] @ np.exp(1j * np.outer(nodes[lo:lo + step], delta.ravel()))
    kernel = kernel.reshape(delta.shape)
    scaled = ob * kernel / np.sqrt(np.outer(p, p))
    return v @ scaled @ v.conj().T


def qfi(rho: DensityMatrix, ham: np.ndarray) -> float:
    """Quantum Fisher information of rho under the one-parameter orbit
    generated by the Hermitian ham (require_hermitian):
    -Tr([H, rho] R^{-1}([H, rho])), summed in the eigenbasis of rho.

    Evaluates to 4 (<H^2> - <H>^2) on pure states; nonnegative.
    """
    require_single(rho, "qfi")
    ham = np.asarray(ham, dtype=complex)
    require_hermitian(ham)
    dec = rho.eig()
    v = dec.eigenvectors
    return _qfi_eigbasis(_qfi_weight(np.clip(dec.eigenvalues, 0.0, None)), np.abs(v.conj().T @ ham @ v) ** 2)


def _party_index(party) -> int:
    if party in (0, 1):
        return int(party)
    name = str(party).upper()
    if name in ("A", "B"):
        return 0 if name == "A" else 1
    raise ValueError(f"party must be 'A', 'B', 0 or 1, got {party!r}")


def intrinsic_ip(rho: DensityMatrix, split: Partition, party) -> float:
    """QFI with the chosen party's marginal modular Hamiltonian as generator.

    Vanishes on states that are classical-quantum with respect to that party;
    reduces (up to the factor-4 convention of qfi) to the variance of the
    marginal modular Hamiltonian on pure states.
    """
    return _party_scalars(modular_set(rho, split), party)[0]


def _party_scalars(ms, party) -> tuple:
    """(intrinsic IP, log-moment Tr(rho_P K_P^2)) of one party, both from one
    table |(K_P)_ij|^2 in the eigenbasis of rho, the log-moment being
    sum_ij p_i |(K_P)_ij|^2; kept on ms, as is the QFI weight both parties
    read."""
    i = _party_index(party)

    def compute():
        k = ms.k_b_eigbasis if i else ms.k_a_eigbasis
        h2 = k.real**2 + k.imag**2
        weight = ms.kept("qfi weight", lambda: _qfi_weight(ms.p))
        return _qfi_eigbasis(weight, h2), _scalar(_sum2(ms.p[..., :, None] * h2))

    return ms.kept(("party", i), compute)


@dataclass(frozen=True)
class CQDecomposition:
    """Block decomposition sum_i p_i |i><i| (x) rho_i with |i> an orthonormal
    basis of the chosen party."""

    basis: np.ndarray  # columns are the basis states
    probabilities: np.ndarray
    conditional_states: tuple[np.ndarray, ...]


def _marginal_test(rho: DensityMatrix, split: Partition, party):
    """For the group P of party: the Frobenius norm of [rho, rho_P (x) I],
    the eigendecomposition of rho_P and its smallest eigenvalue gap (inf for
    a one-level P), read from and kept on rho's modular set. rho commutes
    with the marginal when the norm is at most COMMUTATOR_TOL; the marginal
    is degenerate when the gap is below GAP_TOL."""
    ms = modular_set(rho, split)
    i = _party_index(party)

    def compute():
        marg, dec, group = ms.marginals[i].data, ms.marginal_decs[i], ms.groups[i]
        # rho (rho_P (x) I) = ((rho_P (x) I) rho†)† for the Hermitian rho_P
        left = apply_local(marg, rho.dims, group, rho.data)
        right = dagger(apply_local(marg, rho.dims, group, dagger(rho.data)))
        gaps = np.diff(dec.eigenvalues)
        return float(np.linalg.norm(left - right)), dec, float(gaps.min()) if gaps.size else np.inf

    return ms.kept(("test", i), compute)


def is_classical_quantum(rho: DensityMatrix, split: Partition, party) -> tuple[CQDecomposition | None, str]:
    """Detect block-diagonal structure in the eigenbasis of one marginal.

    Returns (decomposition, reason). The decomposition exists when the state
    commutes with the party marginal and that marginal is nondegenerate
    (_marginal_test); a commuting state with a degenerate marginal is
    reported as undecided, since the blocks are then basis-dependent.
    """
    require_single(rho, "is_classical_quantum")
    comm, dec, gap = _marginal_test(rho, split, party)
    if comm > COMMUTATOR_TOL:
        return None, f"noncommuting ([rho, rho_party] Frobenius norm {comm:.3e})"
    if gap < GAP_TOL:
        return None, f"degenerate marginal (min eigenvalue gap {gap:.3e}); undecided"
    # rotate the party into its marginal eigenbasis and read off the blocks
    group = split.groups[_party_index(party)]
    d_p = dec.eigenvalues.size
    d_r = rho.dim // d_p
    # U† rho U = (U† (U† rho)†)† with U the party's eigenvectors (x) I
    u_dag = dagger(dec.eigenvectors)
    half = dagger(apply_local(u_dag, rho.dims, group, rho.data))
    rot = dagger(apply_local(u_dag, rho.dims, group, half))
    perm = _party_front_permutation(rho.dims, group)
    rot = rot[np.ix_(perm, perm)].reshape(d_p, d_r, d_p, d_r)
    probs = []
    conds = []
    for i in range(d_p):
        block = rot[i, :, i, :]
        p_i = float(np.trace(block).real)
        probs.append(p_i)
        conds.append(hermitize(block / p_i) if p_i > BLOCK_WEIGHT_FLOOR else np.eye(d_r) / d_r)
    return CQDecomposition(dec.eigenvectors, np.array(probs), tuple(conds)), "classical-quantum"


def _party_front_permutation(dims, group) -> np.ndarray:
    """Basis permutation that moves the listed subsystems to the front."""
    n = len(dims)
    rest = [i for i in range(n) if i not in group]
    order = list(group) + rest
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    return idx.transpose(order).ravel()


def makhlin_invariants(rho: DensityMatrix) -> tuple[float, float, float]:
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
        dev = np.max(np.abs(partial_trace(rho, group).data - np.eye(2) / 2))
        if dev > MAXIMALLY_MIXED_ATOL:
            raise ValueError(
                "marginals must be maximally mixed for the three-invariant reduction; "
                f"subsystem {group[0]} deviates by {dev:.3e}"
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


def noncommutativity_verdict(rho: DensityMatrix, split: Partition) -> NoncommutativityVerdict:
    """Certify nonchirality of a bipartite state from commutativity with both
    marginals (_marginal_test).

    When [rho, rho_A] and [rho, rho_B] both vanish, the state is nonchiral if
    (1) both marginals are nondegenerate, (2) one marginal is nondegenerate
    and its party is a qubit, or (3) the state is two-qubit (certified by
    comparing the local-unitary invariants of the state and its conjugate).
    Everything else, including any nonvanishing commutator, is undecided.
    """
    require_single(rho, "noncommutativity_verdict")
    comms, decs, gaps = zip(*(_marginal_test(rho, split, party) for party in (0, 1)))
    if max(comms) > COMMUTATOR_TOL:
        return NoncommutativityVerdict(
            "undecided", None, f"commutators with marginals nonzero ({comms[0]:.2e}, {comms[1]:.2e})"
        )
    nondeg = [gap >= GAP_TOL for gap in gaps]
    if nondeg[0] and nondeg[1]:
        return NoncommutativityVerdict("nonchiral-certified", 1, "both marginals nondegenerate")
    for i in range(2):
        if nondeg[i] and decs[i].eigenvalues.size == 2:
            return NoncommutativityVerdict("nonchiral-certified", 2, f"group {i} is a nondegenerate qubit")
    if rho.dims == (2, 2):
        try:
            inv = makhlin_invariants(rho)
            inv_conj = makhlin_invariants(conjugate(rho))
        except ValueError as exc:
            return NoncommutativityVerdict("undecided", None, str(exc))
        dev = max(abs(a - b) for a, b in zip(inv, inv_conj))
        if dev < INVARIANT_MATCH_TOL:
            return NoncommutativityVerdict(
                "nonchiral-certified", 3, f"two-qubit invariants match (max dev {dev:.2e})"
            )
        return NoncommutativityVerdict("undecided", None, f"two-qubit invariants differ by {dev:.2e}")
    return NoncommutativityVerdict("undecided", None, "commutators vanish but marginals are degenerate")


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

    @property
    def slacks(self) -> tuple[float, float, float, float]:
        return (self.slack_a, self.slack_b, self.slack_bound_a, self.slack_bound_b)

    @property
    def min_slack(self):
        """The smallest of the four slacks, one per member of a stack: the
        bound holds when it is at least -GAMMA_QFI_TOL."""
        return _scalar(np.min(self.slacks, axis=0))


def check_gamma_qfi_bound(rho: DensityMatrix, split: Partition) -> GammaQfiReport:
    """Assert gamma^2 <= Tr(rho_P K_P^2) * F^(other) for both parties, plus
    the dimension-only form with c(d). Full-rank states only; a stack gives
    one value per member in every field.

    gamma, both intrinsic IPs and both log-moments come from one
    modular_set, which keeps them for the other measures that read them
    (_party_scalars). A one-level party has K_P = 0, so its log-moment and
    its c(d) term are 0. Raises CorrelationBoundViolation with the report
    and matrix of the worst member if any slack drops below -GAMMA_QFI_TOL.
    """
    gamma = gamma_integral(rho, split)
    ms = modular_set(rho, split)
    (f_a, moment_a), (f_b, moment_b) = (_party_scalars(ms, party) for party in (0, 1))
    sizes = [int(np.prod([rho.dims[i] for i in group])) for group in split.groups]
    c_a, c_b = (0.0 if d == 1 else log_moment_bound(d) for d in sizes)
    g2 = gamma**2
    report = GammaQfiReport(
        gamma=gamma,
        qfi_a=f_a,
        qfi_b=f_b,
        log_moment_a=moment_a,
        log_moment_b=moment_b,
        slack_a=moment_a * f_b - g2,
        slack_b=moment_b * f_a - g2,
        slack_bound_a=c_a * f_b - g2,
        slack_bound_b=c_b * f_a - g2,
    )
    worst = np.reshape(report.min_slack, -1)
    if worst.min(initial=np.inf) < -GAMMA_QFI_TOL:
        k = int(np.argmin(worst))
        member = GammaQfiReport(*(float(np.reshape(v, -1)[k]) for v in astuple(report)))
        where = f"member {k} of the stack, " if rho.data.ndim > 2 else ""
        raise CorrelationBoundViolation(
            f"gamma-QFI bound violated: {where}slacks {member.slacks}, report {member!r}, "
            f"state dims {rho.dims}, matrix {rho.data.reshape(-1, rho.dim, rho.dim)[k].tolist()!r}"
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
