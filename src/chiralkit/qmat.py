"""Dense complex-matrix substrate: density matrices on a list of subsystems,
Hermitian decompositions, matrix functions on the support, subsystem algebra
(partial trace / transpose / local operators) and fidelities.

Everything here is a pure function on immutable inputs; all heavy lifting is
delegated to LAPACK through numpy. Matrices may carry leading batch axes: a
(..., d, d) stack is validated, decomposed, reduced and transposed member by
member in the same numpy calls, and a single (d, d) matrix is the stack with
no batch axis.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import prod

import numpy as np

# Relative eigenvalue cutoff below which a state is treated as rank-deficient.
SUPPORT_CUTOFF = 1e-12

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
# largest hermiticity defect of a generator that correlations.qfi accepts
DECOMPOSITION_ATOL = 1e-8


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class StateInvariantError(ValueError):
    """Matrix fails a density-matrix invariant (hermiticity, positivity, trace)."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.swapaxes(-1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2, used to scrub rounding noise."""
    return 0.5 * (m + dagger(m))


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute entry of M - M† over the whole stack."""
    return float(abs(m - dagger(m)).max()) if m.size else 0.0


def check_density(data: np.ndarray, atol: float = HERMITICITY_ATOL) -> None:
    """Raise StateInvariantError unless every entry of the (..., d, d) stack
    is finite and every member is Hermitian within atol, has unit trace and
    no eigenvalue below -atol (the trace and PSD tolerances never drop below
    TRACE_ATOL and PSD_ATOL). Each message quotes the first non-finite entry
    or the worst member.
    """
    if not np.isfinite(data).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise StateInvariantError(f"non-finite entry {complex(data[index])} at index {index}")
    defect = hermiticity_defect(data)
    if defect > atol:
        raise StateInvariantError(f"not Hermitian: max |M - M†| = {defect:.3e}")
    tr = data.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if off.max(initial=0.0) > max(atol, TRACE_ATOL):
        worst = np.reshape(tr, -1)[np.argmax(off)]
        raise StateInvariantError(f"trace {complex(worst)} differs from 1")
    lowest = np.linalg.eigvalsh(hermitize(data))[..., 0].min(initial=np.inf)
    if lowest < -max(atol, PSD_ATOL):
        raise StateInvariantError(f"negative eigenvalue {lowest:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace Hermitian PSD matrix tagged with subsystem dimensions.

    dims lists the local dimensions in tensor order; data is the
    (prod dims) x (prod dims) matrix in the computational product basis, or a
    (..., prod dims, prod dims) stack of such matrices, which makes a stack of
    states on the same subsystems. A state is checked once, where its data
    enters: the constructor checks every member at atol (pass a larger one
    to accept sloppier input; a NaN, infinite or negative atol is a plain
    ValueError, not a failed check) and keeps a private read-only copy of
    data, so a later write to the caller's array cannot reach the checked
    state.
    States derived from checked ones or built exactly (_derived) are never
    re-checked, so the atol is not kept. States compare and hash by identity.
    """

    dims: tuple[int, ...]
    data: np.ndarray
    atol: InitVar[float] = HERMITICITY_ATOL

    def __post_init__(self, atol):
        if not 0.0 <= atol < np.inf:  # NaN would pass every check, -1 fail every one
            raise ValueError(f"atol must be finite and non-negative, got {atol}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StateInvariantError(f"subsystem dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        data = np.array(self.data, dtype=complex, order="C")
        d = int(np.prod(dims))
        if data.shape[-2:] != (d, d):
            raise ShapeMismatchError(f"matrix shape {data.shape} does not match dims {dims}")
        check_density(data, atol)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def _derived(cls, dims: tuple[int, ...], data: np.ndarray) -> DensityMatrix:
        """A state the library derived from checked states or built exactly:
        data, a fresh complex (..., d, d) array, is taken as it is, unchecked
        and uncopied, and made read-only."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        data.flags.writeable = False
        object.__setattr__(rho, "data", data)
        return rho

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def nsub(self) -> int:
        return len(self.dims)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(hermitize(self.data))

    def eig(self) -> EigenDecomposition:
        """Eigendecomposition of every member, eigenvalues ascending. A state
        is Hermitian by its check or by its construction, so no hermiticity
        gate runs here."""
        return EigenDecomposition(*np.linalg.eigh(hermitize(self.data)))


del DensityMatrix.atol  # the InitVar's default, which would answer rho.atol


def require_single(rho: DensityMatrix, name: str) -> None:
    """Raise ShapeMismatchError naming the function when rho is a stack: for
    the functions that take one state at a time."""
    if rho.data.ndim != 2:
        raise ShapeMismatchError(
            f"{name} takes a single state, got a stack of shape {rho.data.shape}"
        )


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


def require_hermitian(m: np.ndarray) -> None:
    """Raise StateInvariantError unless m is Hermitian within DECOMPOSITION_ATOL."""
    defect = hermiticity_defect(m)
    if defect > DECOMPOSITION_ATOL:
        raise StateInvariantError(f"not Hermitian: max |M - M†| = {defect:.3e} > {DECOMPOSITION_ATOL:.1e}")


def _support_mask(p: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues (ascending along the last axis) on the
    support: above SUPPORT_CUTOFF times the largest of their member."""
    return p > SUPPORT_CUTOFF * np.maximum(p[..., -1:], 0.0)


def _log_on_support(dec: EigenDecomposition) -> np.ndarray:
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = _support_mask(p)
    logp = np.where(keep, np.log(np.where(keep, p, 1.0)), 0.0)
    v = dec.eigenvectors
    return hermitize((v * logp[..., None, :]) @ dagger(v))


def matrix_log_on_support(rho: DensityMatrix) -> np.ndarray:
    """log(rho) restricted to the support: eigenvalues below the relative
    cutoff SUPPORT_CUTOFF contribute nothing (the kernel projector is simply
    excluded)."""
    return _log_on_support(rho.eig())


def tensor_product(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """rho (x) sigma, member by member when either is a stack (the batch
    axes broadcast): each member has the bits of np.kron on its pair."""
    prod = rho.data[..., :, None, :, None] * sigma.data[..., None, :, None, :]
    d = rho.dim * sigma.dim
    return DensityMatrix._derived(rho.dims + sigma.dims, prod.reshape(prod.shape[:-4] + (d, d)))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the listed subsystems (output dims follow
    the order of ``keep``), member by member on a stack; tracing out
    everything is rejected. Hermitized to the bit and not re-checked: a check
    at the parent's atol a could reject it, since a parent eigenvalue of -a
    can leave one of -a times the traced dimension."""
    keep = [int(i) for i in keep]
    if not keep:
        raise ValueError("empty keep list: the full trace is a scalar, not a state")
    if len(set(keep)) != len(keep) or any(i < 0 or i >= rho.nsub for i in keep):
        raise ValueError(f"invalid keep list {keep} for {rho.nsub} subsystems")
    n = rho.nsub
    dims = rho.dims
    batch = rho.data.shape[:-2]
    tens = rho.data.reshape(batch + dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    reduced = np.einsum(tens, [Ellipsis] + row + col, [Ellipsis] + out)
    kept_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix._derived(kept_dims, hermitize(reduced.reshape(batch + (d, d))))


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Transpose the listed subsystems of every member; returns plain
    Hermitian matrices (the result need not be positive)."""
    part = set(int(i) for i in part)
    n = rho.nsub
    batch = rho.data.shape[:-2]
    b = len(batch)
    tens = rho.data.reshape(batch + rho.dims + rho.dims)
    perm = [n + i if i in part else i for i in range(n)]
    perm += [i if i in part else n + i for i in range(n)]
    tens = tens.transpose(list(range(b)) + [b + i for i in perm])
    return tens.reshape(batch + (rho.dim, rho.dim))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(hermitize(m))
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2 in [0, 1].

    Tiny negative eigenvalues of the inner product matrix are clamped to zero
    before the square roots.
    """
    require_single(rho, "uhlmann_fidelity")
    require_single(sigma, "uhlmann_fidelity")
    if rho.dim != sigma.dim:
        raise ShapeMismatchError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    rs = _psd_sqrt(sigma.data)
    inner = hermitize(rs @ rho.data @ rs)
    evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(evals)) ** 2)


def conjugate(rho: DensityMatrix) -> DensityMatrix:
    """Entry-wise complex conjugation in the computational product basis,
    with rho's spectrum and defects, so not re-checked."""
    return DensityMatrix._derived(rho.dims, rho.data.conj())


def purify(rho: DensityMatrix) -> np.ndarray:
    """Purification on system x ancilla with ancilla dimension rank(rho).

    Convention: |rho> = sum_i sqrt(p_i) |phi_i>|i>, eigenvalues ascending, so
    the output is deterministic up to LAPACK's eigenvector phases. The vector
    is returned flat with the system index major.
    """
    require_single(rho, "purify")
    dec = rho.eig()
    p = np.clip(dec.eigenvalues, 0.0, None)
    keep = np.nonzero(_support_mask(p))[0]
    # columns of (d x r): sqrt(p_i) |phi_i>, ancilla index = position in `keep`
    mat = dec.eigenvectors[:, keep] * np.sqrt(p[keep])
    return mat.reshape(-1)


def apply_local(op: np.ndarray, dims, subsystems, m: np.ndarray) -> np.ndarray:
    """(op on the listed subsystems, in that order, tensored with identity on
    the rest) @ m, without forming that operator: a reshape and one matmul
    on the listed factors. The rows of m, a (..., d, k) stack, are indexed
    by the full space; a (..., d_sub, d_sub) stack of operators applies
    member by member. Only a group that is not contiguous and in order pays
    for a transposed copy of m."""
    dims = tuple(int(d) for d in dims)
    subsystems = [int(i) for i in subsystems]
    ds = prod(dims[i] for i in subsystems)
    op = np.asarray(op)
    if op.shape[-2:] != (ds, ds):
        raise ShapeMismatchError(f"operator shape {op.shape} does not match subsystems {subsystems}")
    first = subsystems[0]
    if subsystems == list(range(first, first + len(subsystems))):
        left = prod(dims[:first])
        out = op[..., None, :, :] @ m.reshape(m.shape[:-2] + (left, ds, -1))
        return out.reshape(out.shape[:-3] + m.shape[-2:])
    n, b = len(dims), m.ndim - 2
    order = subsystems + [i for i in range(n) if i not in subsystems]
    tens = m.reshape(m.shape[:-2] + dims + m.shape[-1:])
    tens = tens.transpose(list(range(b)) + [b + i for i in order] + [b + n])
    out = op @ tens.reshape(tens.shape[:b] + (ds, -1))
    out = out.reshape(out.shape[:-2] + tens.shape[b:])
    ob = out.ndim - n - 1
    back = list(range(ob)) + [ob + j for j in np.argsort(order)] + [ob + n]
    return out.transpose(back).reshape(out.shape[:ob] + m.shape[-2:])
