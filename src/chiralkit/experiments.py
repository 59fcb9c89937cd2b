"""Random-state ensembles and reproducible experiments: the chirality versus
entanglement scan over random two-qubit states, and the demonstration that
the log-distance is not monotone under local partial traces."""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .chirality import _scalar, _validate_bipartition, chiral_log_distance, j2
from .qmat import DensityMatrix, Partition, bipartition, partial_trace, partial_transpose, pure_state_density
from .sampling import derive_seed, random_mixed_states
from .states import purified_chiral_qutrit_qubit


def log_negativity(rho: DensityMatrix, split: Partition) -> float:
    """log of the trace norm of the partial transpose on the second group,
    one value per member for a stack of states.

    Zero exactly on separable two-qubit states (positivity of the partial
    transpose is decisive there).
    """
    _validate_bipartition(split, rho.nsub)
    pt = partial_transpose(rho, split.groups[1])
    tn = np.sum(np.abs(np.linalg.eigvalsh(pt)), axis=-1)
    return _scalar(np.log(tn))


@dataclass(frozen=True)
class ScanRow:
    sample_index: int
    e_n: float
    abs_j2: float
    seed: int


# samples per stacked chunk of the scan; it bounds memory and nothing else,
# as every row depends only on its own index
_SCAN_CHUNK = 1024
PEARSON_THRESHOLD = 0.3  # pilot-calibrated bound on |Pearson(E_N, |J2|)| that C13 reads


def _scan_chunk(master_seed: int, start: int, stop: int) -> list[ScanRow]:
    seeds = [derive_seed(master_seed, i) for i in range(start, stop)]
    rho = random_mixed_states((2, 2), master_seed, range(start, stop))
    split = bipartition([0], [1])
    e_n = log_negativity(rho, split).tolist()
    abs_j2 = np.abs(j2(rho, split)).tolist()
    return [ScanRow(*row) for row in zip(range(start, stop), e_n, abs_j2, seeds)]


def run_chirality_entanglement_scan(n_samples: int, master_seed: int) -> tuple[list[ScanRow], dict]:
    """Sample random two-qubit mixed states and record entanglement versus
    chirality per sample.

    Each sample's generator is keyed by (master_seed, index), so every row
    depends only on its own index. The states of a chunk of samples are drawn
    one generator at a time and then go through log_negativity and j2 as one
    stack, so a row does not depend on the chunk it falls in either. The
    summary records the correlation coefficients between log negativity and
    |J2|, the fraction of barely entangled but strongly chiral samples, and
    the pilot-calibrated threshold the Pearson coefficient is compared
    against.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rows = []
    for start in range(0, n_samples, _SCAN_CHUNK):
        rows += _scan_chunk(master_seed, start, min(start + _SCAN_CHUNK, n_samples))
    e_n = np.array([r.e_n for r in rows])
    aj2 = np.array([r.abs_j2 for r in rows])
    median_j2 = float(np.median(aj2))
    summary = {
        "n": n_samples,
        "pearson": _pearson(e_n, aj2),
        "spearman": _pearson(_ranks(e_n), _ranks(aj2)),
        "frac_low_EN_high_J2": float(np.mean((e_n < 0.01) & (aj2 > median_j2))),
        "median_J2": median_j2,
        "pearson_threshold": PEARSON_THRESHOLD,
    }
    return rows, summary


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    return float((xc * yc).sum() / denom) if denom > 0 else 0.0


def _ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    ranks[order] = np.arange(len(x), dtype=float)
    return ranks


def scan_to_csv(rows: list[ScanRow]) -> str:
    """Serialize rows as CSV with 17 significant digits (round-trip exact)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_index", "E_N", "abs_J2", "seed"])
    for r in rows:
        writer.writerow([r.sample_index, f"{r.e_n:.17g}", f"{r.abs_j2:.17g}", r.seed])
    return buf.getvalue()


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)


@dataclass(frozen=True)
class NonmonotonicityReport:
    """Log-distance of the purified three-party state for the joint split
    versus the two-party state left after tracing the purifying qutrit."""

    value_joint: float
    value_after_trace: float
    fidelity_joint: float
    fidelity_after_trace: float

    @property
    def increased_under_partial_trace(self) -> bool:
        return self.value_after_trace > self.value_joint


def nonmonotonicity_demo(
    p=(0.5, 0.3, 0.2),
    restarts: int = 50,
    seed: int = 0,
) -> NonmonotonicityReport:
    """Pure state whose bipartite log-distance is zero, yet tracing out part
    of one party leaves a chiral state: the measure grows under a local
    partial trace. Requires nondegenerate positive weights p.

    The purifying party here is a qutrit glued to the first group; tracing
    the qubit side instead would leave a single-party state, which is always
    trivially nonchiral, so the qutrit trace is the interesting direction.
    """
    psi, dims = purified_chiral_qutrit_qubit(p)
    rho3 = pure_state_density(dims, psi)
    joint_split = Partition(((0, 1), (2,)))
    v_joint, r_joint = chiral_log_distance(rho3, joint_split, restarts=restarts, seed=seed)
    reduced = partial_trace(rho3, [0, 2])
    v_red, r_red = chiral_log_distance(
        reduced, bipartition([0], [1]), restarts=restarts, seed=seed
    )
    report = NonmonotonicityReport(v_joint, v_red, r_joint.best_fidelity, r_red.best_fidelity)
    if not report.increased_under_partial_trace:
        warnings.warn(
            f"expected the traced state to be more chiral: {report!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
