"""Dense complex-matrix substrate: density matrices on a list of subsystems,
Hermitian decompositions, matrix functions on the support, subsystem algebra
(partial trace / transpose / embedding) and fidelities.

Everything here is a pure function on immutable inputs; all heavy lifting is
delegated to LAPACK through numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative eigenvalue cutoff below which a state is treated as rank-deficient.
SUPPORT_CUTOFF = 1e-12

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class StateInvariantError(ValueError):
    """Matrix fails a density-matrix invariant (hermiticity, positivity, trace)."""


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, used to scrub rounding noise."""
    return 0.5 * (m + m.conj().T)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute entry of M - M†."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace Hermitian PSD matrix tagged with subsystem dimensions.

    dims lists the local dimensions in tensor order; data is the
    (prod dims) x (prod dims) matrix in the computational product basis.
    Construction validates hermiticity, positivity and trace; pass a larger
    atol to accept sloppier input.
    """

    dims: tuple[int, ...]
    data: np.ndarray
    atol: float = field(default=HERMITICITY_ATOL, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StateInvariantError(f"subsystem dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        data = np.ascontiguousarray(self.data, dtype=complex)
        d = int(np.prod(dims))
        if data.shape != (d, d):
            raise ShapeMismatchError(f"matrix shape {data.shape} does not match dims {dims}")
        defect = hermiticity_defect(data)
        if defect > self.atol:
            raise StateInvariantError(f"not Hermitian: max |M - M†| = {defect:.3e}")
        tr = complex(np.trace(data))
        if abs(tr - 1.0) > max(self.atol, TRACE_ATOL):
            raise StateInvariantError(f"trace {tr} differs from 1")
        evals = np.linalg.eigvalsh(hermitize(data))
        if evals[0] < -max(self.atol, PSD_ATOL):
            raise StateInvariantError(f"negative eigenvalue {evals[0]:.3e}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def nsub(self) -> int:
        return len(self.dims)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(hermitize(self.data))

    def rank(self, cutoff: float = SUPPORT_CUTOFF) -> int:
        p = self.eigenvalues()
        return int(np.sum(p > cutoff * p[-1]))

    def is_full_rank(self, cutoff: float = SUPPORT_CUTOFF) -> bool:
        return self.rank(cutoff) == self.dim


def pure_state_density(dims, psi: np.ndarray) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix; psi is normalized first."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(tuple(dims), np.outer(v, v.conj()))


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint subsystem-index groups covering all subsystems."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        flat = [i for g in groups for i in g]
        if len(set(flat)) != len(flat):
            raise ValueError(f"partition groups overlap: {groups}")
        object.__setattr__(self, "groups", groups)

    def validate(self, nsub: int) -> None:
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(nsub)):
            raise ValueError(f"partition {self.groups} does not cover subsystems 0..{nsub - 1}")

    @property
    def ngroups(self) -> int:
        return len(self.groups)

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the split syntax "i,j|k,l" into a Partition."""
        groups = []
        for part in text.split("|"):
            part = part.strip()
            if not part:
                raise ValueError(f"empty group in split {text!r}")
            groups.append(tuple(int(tok) for tok in part.split(",")))
        return Partition(tuple(groups))


def bipartition(first, second) -> Partition:
    return Partition((tuple(first), tuple(second)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m: np.ndarray, atol: float = 1e-8) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects input whose hermiticity defect exceeds atol, quoting the defect.
    """
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > atol:
        raise StateInvariantError(f"not Hermitian: max |M - M†| = {defect:.3e} > {atol:.1e}")
    evals, evecs = np.linalg.eigh(hermitize(m))
    return EigenDecomposition(evals, evecs)


def _support_mask(p: np.ndarray, cutoff: float) -> np.ndarray:
    # cutoff is relative to the largest eigenvalue
    top = p[-1] if p.size else 0.0
    return p > cutoff * max(top, 0.0)


def matrix_log_on_support(rho: DensityMatrix, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """log(rho) restricted to the support: eigenvalues below the relative
    cutoff contribute nothing (the kernel projector is simply excluded)."""
    dec = eig_hermitian(rho.data)
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = _support_mask(p, cutoff)
    logp = np.where(keep, np.log(np.where(keep, p, 1.0)), 0.0)
    v = dec.eigenvectors
    return hermitize((v * logp) @ v.conj().T)


def imaginary_power(rho: DensityMatrix, s: float, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """rho^{is}, acting as the identity on the kernel so the result is unitary."""
    dec = eig_hermitian(rho.data)
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = _support_mask(p, cutoff)
    phases = np.where(keep, np.exp(1j * s * np.log(np.where(keep, p, 1.0))), 1.0)
    v = dec.eigenvectors
    return (v * phases) @ v.conj().T


def tensor_product(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(rho.dims + sigma.dims, np.kron(rho.data, sigma.data))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the listed subsystems (output dims follow
    the order of ``keep``). Tracing out everything is rejected."""
    keep = [int(i) for i in keep]
    if not keep:
        raise ValueError("empty keep list: the full trace is a scalar, not a state")
    if len(set(keep)) != len(keep) or any(i < 0 or i >= rho.nsub for i in keep):
        raise ValueError(f"invalid keep list {keep} for {rho.nsub} subsystems")
    n = rho.nsub
    dims = rho.dims
    tens = rho.data.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    reduced = np.einsum(tens, row + col, out)
    kept_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix(kept_dims, hermitize(reduced.reshape(d, d)), atol=1e-9)


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Transpose the listed subsystems; returns a plain Hermitian matrix
    (the result need not be positive)."""
    part = set(int(i) for i in part)
    n = rho.nsub
    dims = rho.dims
    tens = rho.data.reshape(dims + dims)
    perm = [n + i if i in part else i for i in range(n)]
    perm += [i if i in part else n + i for i in range(n)]
    return tens.transpose(perm).reshape(rho.dim, rho.dim)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(hermitize(m))
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2 in [0, 1].

    Tiny negative eigenvalues of the inner product matrix are clamped to zero
    before the square roots.
    """
    if rho.dim != sigma.dim:
        raise ShapeMismatchError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    rs = _psd_sqrt(sigma.data)
    inner = hermitize(rs @ rho.data @ rs)
    evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(evals)) ** 2)


def conjugate(rho: DensityMatrix) -> DensityMatrix:
    """Entry-wise complex conjugation in the computational product basis."""
    return DensityMatrix(rho.dims, rho.data.conj())


def purify(rho: DensityMatrix, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Purification on system x ancilla with ancilla dimension rank(rho).

    Convention: |rho> = sum_i sqrt(p_i) |phi_i>|i>, eigenvalues ascending, so
    the output is deterministic up to LAPACK's eigenvector phases. The vector
    is returned flat with the system index major.
    """
    dec = eig_hermitian(rho.data)
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = np.nonzero(_support_mask(p, cutoff))[0]
    # columns of (d x r): sqrt(p_i) |phi_i>, ancilla index = position in `keep`
    mat = dec.eigenvectors[:, keep] * np.sqrt(p[keep])
    return mat.reshape(-1)


def embed_operator(op: np.ndarray, dims, subsystems) -> np.ndarray:
    """Embed an operator acting on the listed subsystems (in that order) into
    the full space, tensoring identity on the rest."""
    dims = tuple(int(d) for d in dims)
    subsystems = [int(i) for i in subsystems]
    n = len(dims)
    sub_dims = tuple(dims[i] for i in subsystems)
    ds = int(np.prod(sub_dims))
    op = np.asarray(op, dtype=complex)
    if op.shape != (ds, ds):
        raise ShapeMismatchError(f"operator shape {op.shape} does not match subsystems {subsystems}")
    rest = [i for i in range(n) if i not in subsystems]
    optens = op.reshape(sub_dims + sub_dims)
    k = len(subsystems)
    # einsum indices: operator rows/cols on its subsystems, identity on the rest
    op_idx = [dims_axis for dims_axis in range(2 * k)]
    out_row = [0] * n
    out_col = [0] * n
    for pos, i in enumerate(subsystems):
        out_row[i] = op_idx[pos]
        out_col[i] = op_idx[k + pos]
    operands = [optens, op_idx]
    next_idx = 2 * k
    for i in rest:
        eye = np.eye(dims[i])
        operands += [eye, [next_idx, next_idx + 1]]
        out_row[i] = next_idx
        out_col[i] = next_idx + 1
        next_idx += 2
    full = np.einsum(*operands, out_row + out_col)
    d = int(np.prod(dims))
    return full.reshape(d, d)
