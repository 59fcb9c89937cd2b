"""Command-line surface.

Every numeric printed carries the tolerance it was computed at. All
randomness flows from --seed, so identical invocations print identical
bytes. Exit codes: 0 success, 1 assertion/bound failure, 2 malformed input
file, 3 shape mismatch, 4 state-invariant violation, 64 usage error
(including an input too large to allocate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import _pauli
from . import chirality as ch
from . import correlations as co
from . import experiments as ex
from . import selftest
from . import stabilizer as st
from .io import StateFileError, parse_state_file, read_utf8
from .qmat import Partition, ShapeMismatchError, StateInvariantError
from .sampling import random_mixed_state, random_pure_state, split_rng

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_SHAPE = 3
EXIT_INVARIANT = 4
EXIT_USAGE = 64

# the tolerances printed next to the figures that no module constant covers
FIDELITY_TOL = 1e-12  # logdist's log-distance and best fidelity, stabilizer's fidelity
INTRINSIC_IP_TOL = 1e-9  # qfi's intrinsic interferometric powers


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    """An argument type: a float that is not NaN or infinite, which JSON
    output cannot print."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _qty(value: float, tolerance: float) -> dict:
    return {"value": float(value), "tolerance": float(tolerance)}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_measure(args) -> int:
    rho = parse_state_file(args.state, atol=args.atol)
    split = Partition.parse(args.split)
    report = ch.measure_report(rho, split, s_values=tuple(args.s))
    doc = {"state": args.state, "split": args.split, "measures": {}}
    for name, value in report.entries.items():
        doc["measures"][name] = _qty(value, report.tolerances[name])
    for name, note in report.notes.items():
        doc["measures"][name] = {"value": None, "note": note}
    _emit(doc)
    return EXIT_OK


def _cmd_logdist(args) -> int:
    rho = parse_state_file(args.state, atol=args.atol)
    split = Partition.parse(args.split)
    value, res = ch.chiral_log_distance(
        rho, split, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
    )
    _emit(
        {
            "state": args.state,
            "split": args.split,
            "log_distance_upper_estimate": _qty(value, FIDELITY_TOL),
            "best_fidelity": _qty(res.best_fidelity, FIDELITY_TOL),
            "restarts": res.restarts,
            "converged_restarts": int(sum(res.converged)),
            "iterations_per_restart": res.iterations_per_restart,
            "nonchirality_certified": bool(res.certifies_nonchirality),
        }
    )
    return EXIT_OK


# rows of the matrix rounded and hashed at a time: the digest is that of the
# whole rounded matrix, without a rounded copy of all of it
_FINGERPRINT_ROWS = 256


def _state_fingerprint(matrix: np.ndarray) -> str:
    digest = hashlib.sha256()
    for lo in range(0, matrix.shape[0], _FINGERPRINT_ROWS):
        digest.update(np.round(matrix[lo:lo + _FINGERPRINT_ROWS], 8).tobytes())
    return digest.hexdigest()[:16]


def _cmd_stabilizer(args) -> int:
    group = st.parse_tableau(read_utf8(args.tableau, "tableau"))
    rho = st.stabilizer_state(group)
    solutions = st.conjugation_pauli_set(group)
    doc = {
        "tableau": args.tableau,
        "qubits": group.n,
        "generators": group.k,
        "state_fingerprint_sha256_16": _state_fingerprint(rho.data),
        "conjugation_pauli": solutions.base.label,
        "solution_set_log2": len(solutions.nullspace_basis),
    }
    if group.k == group.n:
        # rho = |psi><psi| exactly, so its column j is psi conj(psi_j)
        j = int(np.argmax(rho.data.diagonal().real))
        psi = rho.data[:, j] / np.sqrt(rho.data[j, j].real)
        if group.n <= _pauli.PAULI_ENUM_MAX_QUBITS:
            doc["nullity"] = st.stabilizer_nullity(psi, group.n)
        if group.n <= st.FIDELITY_MAX_QUBITS:
            doc["stabilizer_fidelity"] = _qty(st.stabilizer_fidelity(psi, group.n), FIDELITY_TOL)
    _emit(doc)
    return EXIT_OK


def _cmd_qfi(args) -> int:
    rho = parse_state_file(args.state, atol=args.atol)
    split = Partition.parse(args.split)
    dec, reason = co.is_classical_quantum(rho, split, args.party)
    verdict = co.noncommutativity_verdict(rho, split)
    _emit(
        {
            "state": args.state,
            "split": args.split,
            "intrinsic_ip_A": _qty(co.intrinsic_ip(rho, split, "A"), INTRINSIC_IP_TOL),
            "intrinsic_ip_B": _qty(co.intrinsic_ip(rho, split, "B"), INTRINSIC_IP_TOL),
            "classical_quantum": {
                "party": args.party,
                "detected": dec is not None,
                "reason": reason,
            },
            "nonchirality": {"verdict": verdict.verdict, "condition": verdict.condition,
                             "reason": verdict.reason},
        }
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.n < 1:  # with no sample the worst gap and slack stay -inf and inf, not JSON
        raise ValueError("n_samples must be >= 1")
    failures = 0
    worst_gap = -np.inf
    for i in range(args.n):
        n = 2 if i % 2 == 0 else 3
        rng = split_rng(args.seed, i)
        psi = random_pure_state(1 << n, rng)
        try:
            rep = st.verify_magic_bounds(psi, n, restarts=args.restarts, seed=args.seed + i)
            worst_gap = max(worst_gap, rep.worst_excess)
        except st.MagicBoundViolation:
            failures += 1
    worst_slack = np.inf
    for i in range(args.n):
        rng = split_rng(args.seed + 7919, i)
        rho = random_mixed_state((2, 2), rng)
        try:
            rep = co.check_gamma_qfi_bound(rho, Partition.parse("0|1"))
            worst_slack = min(worst_slack, rep.min_slack)
        except co.CorrelationBoundViolation:
            failures += 1
    _emit(
        {
            "samples_per_suite": args.n,
            "seed": args.seed,
            "magic_bounds_worst_excess": _qty(worst_gap, st.MAGIC_BOUND_TOL),
            "gamma_qfi_worst_slack": _qty(worst_slack, co.GAMMA_QFI_TOL),
            "violations": failures,
        }
    )
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_scan(args) -> int:
    if args.n < 1:  # before --out is opened, so no empty file is left
        raise ValueError("n_samples must be >= 1")
    try:  # opened before the scan, so a path that cannot be written fails at once
        out = open(args.out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    with out:
        rows, summary = ex.run_chirality_entanglement_scan(args.n, args.seed)
        out.write(ex.scan_to_csv(rows))
    print(ex.summary_to_json(summary))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest.run_all(keys=args.only)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="chiralkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument("--state", required=True, help="path to a JSON state file")
        p.add_argument("--split", required=True, help='partition, e.g. "0|1" or "0,1|2"')
        p.add_argument("--atol", type=float, default=1e-8,
                       help="tolerance of the state file's hermiticity, trace and positivity checks")

    p = sub.add_parser("measure", help="nested-commutator chirality measures")
    add_state_args(p)
    p.add_argument("--s", type=_finite_float, action="append", default=None,
                   help="flow parameter(s) for gamma_s/phi_s (default 0.7)")
    p.set_defaults(fn=_cmd_measure, post=lambda a: setattr(a, "s", a.s or [0.7]))

    p = sub.add_parser("logdist", help="chiral log-distance by orbit optimization")
    add_state_args(p)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_logdist)

    p = sub.add_parser("stabilizer", help="tableau tools: state, conjugation Pauli, monotones")
    p.add_argument("--tableau", required=True, help="path to a tableau text file")
    p.set_defaults(fn=_cmd_stabilizer)

    p = sub.add_parser("qfi", help="intrinsic interferometric power and verdicts")
    add_state_args(p)
    p.add_argument("--party", choices=["A", "B"], default="A")
    p.set_defaults(fn=_cmd_qfi)

    p = sub.add_parser("bounds", help="magic-bound and flow-vs-QFI bound suites")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("scan", help="entanglement-vs-chirality scan to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", action="append", choices=[k for k, _, _ in selftest.CRITERIA], help="criterion key")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "post"):
        args.post(args)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (StateFileError, FileNotFoundError, OSError) as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ShapeMismatchError as exc:
        print(f"error: shape mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except StateInvariantError as exc:
        print(f"error: state invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (st.MagicBoundViolation, co.CorrelationBoundViolation, AssertionError) as exc:
        print(f"error: bound violated: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy refuses a size it cannot allocate at once
        print(f"error: input too large to allocate: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
