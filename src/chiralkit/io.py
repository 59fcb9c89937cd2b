"""State-file I/O: JSON documents carrying subsystem dimensions and a dense
complex matrix as row-major [re, im] pairs."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .qmat import DensityMatrix, ShapeMismatchError, StateInvariantError, require_single


class StateFileError(ValueError):
    """Malformed input file: a state or tableau file that is not UTF-8 text,
    or a state file with missing or malformed fields."""


def parse_state_document(doc: dict, atol: float = 1e-8) -> DensityMatrix:
    """Validate a parsed JSON document and build the density matrix.

    Raises StateFileError for structural problems, ShapeMismatchError when
    the matrix length disagrees with the dims, and StateInvariantError when a
    dimension is below 1 or the matrix fails the density-matrix invariants
    at atol.
    """
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    try:
        dims, entries = doc["dims"], doc["matrix"]
    except KeyError as exc:
        raise StateFileError(f"missing or malformed dims/matrix fields: no {exc}") from exc
    # JSON numbers that are whole only: int() would read 2.5 and "2" as 2, and true as 1
    if not isinstance(dims, list) or not dims or any(type(d) not in (int, float) or d % 1 for d in dims):
        raise StateFileError(f"missing or malformed dims/matrix fields: dims {dims!r} are not a list of whole numbers")
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):  # before the reshape, which would read -1 as an unknown size
        raise StateInvariantError(f"subsystem dimensions must be positive, got {dims}")
    d = math.prod(dims)  # exact: np.prod wraps at 2^64 and would expect 0 entries
    if not isinstance(entries, list) or len(entries) != d * d:
        raise ShapeMismatchError(
            f"matrix has {len(entries) if isinstance(entries, list) else 'no'} entries, "
            f"expected {d * d} for dims {dims}"
        )
    try:
        pairs = np.asarray(entries)
    except ValueError as exc:  # ragged nesting
        raise StateFileError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    # without a dtype, strings and nulls stay non-numeric instead of parsing
    if pairs.shape != (d * d, 2) or pairs.dtype.kind not in "biuf":
        raise StateFileError(
            f"matrix entries must be [re, im] pairs of numbers, got an array of shape "
            f"{pairs.shape} and dtype {pairs.dtype}"
        )
    return DensityMatrix(dims, pairs.astype(float).view(complex).reshape(d, d), atol=atol)


def read_utf8(path, kind: str) -> str:
    """The text of the kind of file at path; StateFileError for bytes that
    are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{kind} is not UTF-8 text: {exc}") from exc


def parse_state_file(path, atol: float = 1e-8) -> DensityMatrix:
    """Load and validate a state file from disk."""
    doc = json.loads(read_utf8(path, "state file"))  # json.JSONDecodeError for malformed input
    return parse_state_document(doc, atol=atol)


def state_document(rho: DensityMatrix, label: str | None = None) -> dict:
    require_single(rho, "state_document")
    doc = {
        "dims": list(rho.dims),
        "matrix": np.stack([rho.data.real, rho.data.imag], axis=-1).reshape(-1, 2).tolist(),
    }
    if label is not None:
        doc["label"] = label
    return doc


def write_state_file(path, rho: DensityMatrix, label: str | None = None) -> None:
    Path(path).write_text(json.dumps(state_document(rho, label)) + "\n")
