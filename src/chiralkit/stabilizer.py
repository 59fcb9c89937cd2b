"""Stabilizer-state machinery over GF(2): symplectic tableaux, the linear
system whose solutions conjugate a stabilizer state onto its complex
conjugate, nullity and fidelity monotones, and the chirality-vs-magic bound
checks. One GF(2) elimination serves them all: an XOR basis keyed by each
row's leading bit (_xor_reduce), which f2_rank, the group sampler and the
conjugation solve share.

Conventions: a phase-free Pauli string is a pair of bit-vectors (z, x) with
site encoding (0,0)=I, (0,1)=X, (1,0)=Z, (1,1)=Y. A stabilizer group is a
k x 2n GF(2) matrix [M_Z | M_X] with a +/- sign per row; rows must be
independent and mutually commuting under the symplectic form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _pauli
from .chirality import pauli_log_distance_detail, pure_state_log_distance
from .qmat import DensityMatrix


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed rows (one python int per row)
# ---------------------------------------------------------------------------


def _xor_reduce(row: int, basis: dict[int, int]) -> int:
    """row reduced against an XOR basis keyed by each row's leading bit: 0
    when row is in the span, else a row whose leading bit no basis row has."""
    while row and (lead := row.bit_length() - 1) in basis:
        row ^= basis[lead]
    return row


def f2_rank(rows, ncols: int) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        if row < 0 or row >> ncols:
            raise ValueError("row bits outside the declared number of columns")
        if row := _xor_reduce(row, basis):
            basis[row.bit_length() - 1] = row
    return len(basis)


# ---------------------------------------------------------------------------
# Pauli strings and stabilizer groups
# ---------------------------------------------------------------------------

_SITE_CHARS = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
_CHAR_SITES = {v: k for k, v in _SITE_CHARS.items()}


@lru_cache(maxsize=1 << 12)  # every (row, n) up to 11 qubits; PauliString._from_rows reads it
def _row_bits(row: int, n: int) -> tuple[int, ...]:
    """The n low bits of row, bit 0 first."""
    return tuple((row >> j) & 1 for j in range(n))


def _basis_mask(row: int, n: int) -> int:
    """A row int (bit j = qubit j) as a basis mask (qubit 0 the most
    significant bit): its n bits reversed."""
    return int(f"{row:0{n}b}"[::-1], 2)


@dataclass(frozen=True)
class PauliString:
    """Phase-free Pauli string as per-qubit (z, x) bits, qubit 0 first."""

    z_bits: tuple[int, ...]
    x_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.z_bits) != len(self.x_bits):
            raise ValueError("z and x bit-vectors must have equal length")
        if any(b not in (0, 1) for b in self.z_bits + self.x_bits):
            raise ValueError("bit-vectors must contain bits")

    @property
    def n(self) -> int:
        return len(self.z_bits)

    @property
    def label(self) -> str:
        return "".join(_SITE_CHARS[zx] for zx in zip(self.z_bits, self.x_bits))

    def basis_masks(self) -> tuple[int, int]:
        """(z, x) packed with qubit 0 as the most significant bit, matching
        the computational-basis index convention of dense state vectors."""
        z, x = self._rows()
        return _basis_mask(z, self.n), _basis_mask(x, self.n)

    def matrix(self) -> np.ndarray:
        z, x = self.basis_masks()
        return _pauli.pauli_matrix(z, x, self.n)

    def _rows(self) -> tuple[int, int]:
        """(z, x) as row ints, bit j = qubit j."""
        z, x = (sum(b << j for j, b in enumerate(bits)) for bits in (self.z_bits, self.x_bits))
        return z, x

    @classmethod
    def _from_rows(cls, z: int, x: int, n: int) -> PauliString:
        """The string of row ints z, x below 2^n (bit j = qubit j): bits by
        construction, so not re-checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "z_bits", _row_bits(z, n))
        object.__setattr__(p, "x_bits", _row_bits(x, n))
        return p

    @staticmethod
    def from_label(label: str) -> "PauliString":
        try:
            sites = [_CHAR_SITES[c] for c in label.upper()]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli character in {label!r}") from exc
        return PauliString(tuple(s[0] for s in sites), tuple(s[1] for s in sites))


def _commute(zi, xi, zj, xj) -> bool:
    return ((zi & xj).bit_count() + (xi & zj).bit_count()) % 2 == 0


@dataclass(frozen=True)
class StabilizerGroup:
    """k independent, mutually commuting signed Pauli generators on n qubits.

    z_rows/x_rows are bit-packed with bit j = qubit j; signs holds one bit per
    generator (0 for +, 1 for -).
    """

    n: int
    z_rows: tuple[int, ...]
    x_rows: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        k, n = self.k, self.n
        if len(self.x_rows) != k or len(self.signs) != k:
            raise ValueError("z_rows, x_rows and signs must have equal length")
        if k > n:
            raise ValueError(f"{k} generators on {n} qubits cannot be independent")
        if any(r < 0 or r >> n for r in self.z_rows + self.x_rows):
            raise ValueError("generator bits outside the qubit range")
        if any(s not in (0, 1) for s in self.signs):
            raise ValueError(f"signs must be bits (0 for +, 1 for -), got {self.signs}")
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))  # 1.0, True, np.int64(1): 1
        for i in range(k):
            for j in range(i + 1, k):
                if not _commute(self.z_rows[i], self.x_rows[i], self.z_rows[j], self.x_rows[j]):
                    raise ValueError(f"generators {i} and {j} anticommute")
        rows = [self.z_rows[i] | (self.x_rows[i] << n) for i in range(k)]
        if f2_rank(rows, 2 * n) != k:
            raise ValueError("generator rows are linearly dependent over GF(2)")

    @classmethod
    def _checked(
        cls, n: int, z_rows: tuple[int, ...], x_rows: tuple[int, ...], signs: tuple[int, ...]
    ) -> StabilizerGroup:
        """A group of rows the library has just checked (random_stabilizer_group
        tests each row it draws for independence): taken as it is, not re-validated."""
        group = object.__new__(cls)
        for name, value in (("n", n), ("z_rows", z_rows), ("x_rows", x_rows), ("signs", signs)):
            object.__setattr__(group, name, value)
        return group

    @property
    def k(self) -> int:
        return len(self.z_rows)


def group_from_labels(labels, signs=None) -> StabilizerGroup:
    paulis = [PauliString.from_label(lbl) for lbl in labels]
    n = paulis[0].n if paulis else 0
    if any(p.n != n for p in paulis):
        raise ValueError("generator labels have inconsistent lengths")
    rows = [p._rows() for p in paulis]
    z_rows, x_rows = tuple(z for z, _ in rows), tuple(x for _, x in rows)
    signs = (0,) * len(paulis) if signs is None else tuple(signs)
    return StabilizerGroup(n, z_rows, x_rows, signs)


def parse_tableau(text: str) -> StabilizerGroup:
    """Parse the tableau text format: one generator per line, characters
    I/X/Y/Z with an optional leading + or - (ASCII or U+2212) sign. Blank
    lines are skipped; a tableau with no generator is rejected."""
    labels, signs = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        sign = 0
        if line[0] in "+-−":
            sign = 0 if line[0] == "+" else 1
            line = line[1:].strip()
        if not line:
            raise ValueError(f"sign without generator in line {raw!r}")
        labels.append(line)
        signs.append(sign)
    if not labels:
        raise ValueError("empty tableau")
    return group_from_labels(labels, signs)


def _signed_product(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """(z, x, sign bit) of the product of two commuting signed strings,
    basis masks. P(z, x) = i^{|z & x|} X^x Z^z and Z^{z_a} X^{x_b} =
    (-1)^{|z_a & x_b|} X^{x_b} Z^{z_a}, so P_a P_b = i^e P(z_a ^ z_b, x_a ^ x_b)
    with e even when they commute."""
    (za, xa, sa), (zb, xb, sb) = a, b
    z, x = za ^ zb, xa ^ xb
    e = (za & xa).bit_count() + (zb & xb).bit_count() + 2 * (za & xb).bit_count() - (z & x).bit_count()
    return z, x, sa ^ sb ^ (e % 4) >> 1


def _quarter_turns(scale: float) -> np.ndarray:
    """scale * i^t for t = 0..3, every zero part +0.0."""
    return np.array([(scale, 0.0), (0.0, scale), (-scale, 0.0), (0.0, -scale)]).view(complex).ravel()


def _orbit(start: np.ndarray, gens) -> tuple[np.ndarray, np.ndarray]:
    """Rows and turns of g|c> = i^t |c ^ x_g> for every g spanned by gens,
    signed strings (z, x, sign bit) with independent X parts, and every c in
    start: entry j * len(start) + i takes start[i] and the g whose bit l of
    j picks generator l. t is kept mod 256, which keeps it mod 4."""
    rows = np.empty(len(start) << len(gens), dtype=np.intp)
    turns = np.zeros(len(rows), dtype=np.uint8)
    rows[:len(start)] = start
    h = len(start)
    for z, x, sign in gens:
        # (-1)^s P(z, x)|b> = i^{|z & x| + 2s + 2|z & b|} |b ^ x>
        np.bitwise_xor(rows[:h], x, out=rows[h:2 * h])
        turns[h:2 * h] = turns[:h] + 2 * np.bitwise_count(rows[:h] & z) + ((z & x).bit_count() + 2 * sign)
        h *= 2
    return rows, turns


_STATE_BLOCK_TERMS = 1 << 18  # stabilizer_state: entries set per column block, 4 MB of values


def stabilizer_state(group: StabilizerGroup) -> DensityMatrix:
    """Dense state 2^{-n} sum_{g in G} g = 2^{k-n} prod_i (I + s_i P_i)/2 of
    the group G the k generators span.

    Elimination on the X parts (Aaronson & Gottesman, PRA 70, 052328 (2004))
    writes G = G_X K: G_X spanned by r generators with independent X parts,
    K the Z-type subgroup of order 2^{k-r}. sum_{h in K} h|c> is 2^{k-r}|c>
    when c meets every Z-type constraint (c is in the support) and 0
    otherwise, so column c of the state is 2^{k-r-n} sum_{g in G_X} g|c> on
    the support and 0 off it, its 2^r rows c ^ x_g distinct. Each g|c> is
    i^t |c ^ x_g>, t doubled out generator by generator (_orbit). So every
    entry is set once, to 2^{k-r-n} i^t, or left +0.0: the exact bits of
    the dense product, not re-checked (DECISIONS.md). The support columns
    go in blocks of at most _STATE_BLOCK_TERMS entries, so the temporaries
    stay far below the matrix."""
    n, dim = group.n, 1 << group.n
    rho = np.zeros((dim, dim), dtype=complex)  # first: a size numpy refuses fails before any other work
    lead: dict[int, tuple[int, int, int]] = {}  # generators with independent X parts, by leading bit
    support = np.ones(dim, dtype=bool)
    b = np.arange(dim)
    for zr, xr, sign in zip(group.z_rows, group.x_rows, group.signs):
        g = (_basis_mask(zr, n), _basis_mask(xr, n), sign)
        while g[1] and (top := g[1].bit_length() - 1) in lead:
            g = _signed_product(g, lead[top])
        if g[1]:
            lead[g[1].bit_length() - 1] = g
        else:  # (-1)^s Z^z is 1 on |b> when |z & b| = s mod 2
            support &= (np.bitwise_count(b & g[0]) & 1) == g[2]
    cols = np.flatnonzero(support)
    gens = tuple(lead.values())
    values = _quarter_turns(2.0 ** (group.k - len(gens) - n))
    flat = rho.reshape(-1)
    width = max(1, _STATE_BLOCK_TERMS >> len(gens))
    # entry (c ^ x_g, c) sits at flat index ((c << n) | c) ^ (x_g << n), and
    # |z_g & (c ^ x_g)| reads the same bits there with z_g shifted up by n
    diagonal = cols * (dim + 1)
    shifted = tuple((z << n, x << n, sign) for z, x, sign in gens)
    for lo in range(0, len(cols), width):
        entries, turns = _orbit(diagonal[lo:lo + width], shifted)
        flat[entries] = values[turns & 3]
    return DensityMatrix._derived((2,) * n, rho)


@dataclass(frozen=True)
class ConjugationSolutions:
    """Affine set of Pauli strings conjugating the stabilizer state onto its
    complex conjugate: base solution plus the nullspace of [M_Z | M_X]."""

    base: PauliString
    nullspace_basis: tuple[PauliString, ...]

    @property
    def count(self) -> int:
        return 1 << len(self.nullspace_basis)

    def __iter__(self):
        n = self.base.n
        (z0, x0), *basis = (p._rows() for p in (self.base, *self.nullspace_basis))
        for picks in itertools.product((0, 1), repeat=len(basis)):
            z, x = z0, x0
            for take, (bz, bx) in zip(picks, basis):
                if take:
                    z, x = z ^ bz, x ^ bx
            yield PauliString._from_rows(z, x, n)


def conjugation_pauli_set(group: StabilizerGroup) -> ConjugationSolutions:
    """Solve [M_Z M_X][v_X; v_Z] = diag(M_Z M_X^T) over GF(2).

    Any solution, read as a Pauli string via the (v_Z, v_X) site encoding,
    anticommutes with exactly the generators containing an odd number of Y
    sites, hence conjugates the stabilizer state onto its complex conjugate.

    Unknown c of v = v_X | v_Z << n, the column of bit c of the row
    z | x << n, sits at bit 2n - c of an augmented row whose bit 0 is the
    right-hand side, so a row's leading bit is its lowest column. The rows
    go onto an XOR basis keyed by leading bit (_xor_reduce) and are
    back-substituted to the reduced row echelon form, which is unique for a
    fixed column order: its pivots are taken lowest column first. The base
    solution sets the free unknowns to 0, and the null space has one vector
    per free column, lowest first (DECISIONS.md). Independent rows never
    reduce to the right-hand side alone, so a solution always exists."""
    n, width = group.n, 2 * group.n
    basis: dict[int, int] = {}
    for z, x in zip(group.z_rows, group.x_rows):
        row = _xor_reduce(_basis_mask(z | x << n, width) << 1 | (z & x).bit_count() & 1, basis)
        basis[row.bit_length() - 1] = row
    pivots = sorted(basis)
    for i, lead in enumerate(pivots):  # lowest first, so each row used is already clear
        for p in pivots[:i]:
            if basis[lead] >> p & 1:
                basis[lead] ^= basis[p]
    rows = [(1 << width - lead, row) for lead, row in basis.items()]  # (the pivot's column bit, row)
    base = sum(column for column, row in rows if row & 1)
    nullspace = [1 << width - free | sum(column for column, row in rows if row >> free & 1)
                 for free in range(width, 0, -1) if free not in basis]
    low = (1 << n) - 1
    return ConjugationSolutions(
        PauliString._from_rows(base >> n, base & low, n),
        tuple(PauliString._from_rows(v >> n, v & low, n) for v in nullspace),
    )


def conjugation_pauli(group: StabilizerGroup) -> PauliString:
    return conjugation_pauli_set(group).base


# ---------------------------------------------------------------------------
# Magic monotones for pure states
# ---------------------------------------------------------------------------

ENUMERATION_MAX_QUBITS = 4  # pure_stabilizer_states: 36,720 rows at n = 4, 2,423,520 at n = 5
FIDELITY_MAX_QUBITS = 5  # stabilizer_fidelity: 25-31 MB of transient overlaps at n = 5
NULLITY_TOL = 1e-8  # P is definite on psi when |<psi|P|psi>| > 1 - NULLITY_TOL
MAGIC_BOUND_TOL = 1e-7  # verify_magic_bounds lets each inequality fail by this much


def stabilizer_nullity(psi: np.ndarray, n: int) -> int:
    """n - log2 of the number of phase-free strings with |<psi|P|psi>| = 1.

    The definite strings form a group, so the count must be a power of two;
    a non-power count means NULLITY_TOL sliced through borderline
    expectations and is reported as an error.

    Only the columns x that can hold an entry above 1 - NULLITY_TOL are
    tabulated, by a bound read from the row of the largest amplitude
    (_pauli.unphased_table): a Haar state keeps the identity's column
    x = 0 alone, a stabilizer state the X parts of its group's elements."""
    floor = 1.0 - NULLITY_TOL
    count = int(np.count_nonzero(np.abs(_pauli.unphased_table(psi, n, True, floor)) > floor))
    k = count.bit_length() - 1
    if count != 1 << k:
        raise ValueError(
            f"{count} strings have |expectation| within {NULLITY_TOL:.1e} of 1; "
            "not a power of two, so the tolerance split a borderline group"
        )
    return n - k


def _bit_rows(width: int) -> np.ndarray:
    """(2^width, width) array: row v holds the bits of v, bit 0 first."""
    return (np.arange(1 << width)[:, None] >> np.arange(width)) & 1


@lru_cache(maxsize=None)
def _support_index(n: int, k: int) -> np.ndarray:
    """Basis indices x = c ^ (y B) of every k-dimensional affine subspace of
    GF(2)^n: one row per subspace, one column per y in GF(2)^k, bit i of y
    taking row i of B. B runs over every reduced-row-echelon basis and c
    over every offset that is zero at B's pivot bits, so each subspace is
    listed once, with y = 0 at x = c. Rows are ordered by basis, then
    offset. The array is cached and shared, so it is read-only."""
    idx = np.arange(1 << n)
    supports = []
    for pivots in itertools.combinations(range(n), k):
        offsets = idx[(idx & sum(1 << p for p in pivots)) == 0]
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
        for bits in itertools.product((0, 1), repeat=len(free)):
            rows = [1 << p for p in pivots]
            for (i, j), b in zip(free, bits):
                rows[i] |= b << j
            span = np.zeros(1 << k, dtype=int)  # span[y] = y B
            for i, row in enumerate(rows):
                span[1 << i : 2 << i] = span[: 1 << i] ^ row
            supports.append(offsets[:, None] ^ span)
    index = np.concatenate(supports)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _phase_block(k: int) -> np.ndarray:
    """Rows i^{l.y} (-1)^{q(y)} over y in GF(2)^k, l.y summed as integers:
    one row per l in GF(2)^k and per upper-triangular quadratic form q
    (diagonal included), q major."""
    y = _bit_rows(k)
    iu, ju = np.triu_indices(k)
    power = 2 * (_bit_rows(len(iu)) @ (y[:, iu] * y[:, ju]).T)[:, None, :] + (y @ y.T)[None, :, :]
    block = (1j ** (power % 4)).reshape(-1, 1 << k)
    block.flags.writeable = False  # cached: every caller shares this array
    return block


@lru_cache(maxsize=None)
def _sign_block(k: int) -> np.ndarray:
    """Rows (-1)^{q(y)} over y in GF(2)^k, one per strictly upper-triangular
    quadratic form q: the (2^{k(k-1)/2}, 2^k) sign table. Cached, read-only."""
    y = _bit_rows(k)
    iu, ju = np.triu_indices(k, 1)
    block = 1.0 - 2.0 * ((_bit_rows(len(iu)) @ (y[:, iu] * y[:, ju]).T) % 2)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def _z4_block(k: int) -> np.ndarray:
    """The (2^k, 4^k) transform i^{c.y} 2^{-k/2}, row y in GF(2)^k, column
    c in Z4^k (base-4 digits, digit 0 first), c.y summed as integers: the
    k-fold tensor power of [[1, 1, 1, 1], [1, i, -1, -i]] / sqrt(2). Cached,
    read-only."""
    c = (np.arange(1 << 2 * k)[:, None] >> 2 * np.arange(k)) & 3
    block = 1j ** ((_bit_rows(k) @ c.T) % 4) / np.sqrt(1 << k)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def pure_stabilizer_states(n: int) -> np.ndarray:
    """All pure stabilizer state vectors on n qubits, one per row.

    Built from the normal form of Dehaene & De Moor, PRA 68, 042318 (2003):
    every pure stabilizer state is 2^{-k/2} sum_{x in A} i^{l(x)} (-1)^{q(x)}
    |x> with A an affine subspace of dimension k, q quadratic and l linear.
    A runs over the rows of _support_index(n, k), x = c ^ (y B), and the
    phases over y are the rows of one block per k. Each state is listed
    once, with amplitude 2^{-k/2} at x = c. Rows are ordered by k, then
    basis, then offset, then phase row. The array is cached and shared, so
    it is read-only."""
    if n > ENUMERATION_MAX_QUBITS:
        raise ValueError(
            f"stabilizer-state enumeration grows like 2^(n^2/2); max {ENUMERATION_MAX_QUBITS} "
            "qubits supported. Use stabilizer_fidelity (up to "
            f"{FIDELITY_MAX_QUBITS} qubits), stabilizer_nullity or the Pauli-restricted "
            "log-distance for larger systems."
        )
    blocks = []
    for k in range(n + 1):
        support = _support_index(n, k)
        phases = _phase_block(k) / np.sqrt(1 << k)
        block = np.zeros((len(support), len(phases), 1 << n), dtype=complex)
        block[np.arange(len(support))[:, None, None], np.arange(len(phases))[:, None], support[:, None, :]] = phases
        blocks.append(block.reshape(-1, 1 << n))
    states = np.concatenate(blocks)
    states.flags.writeable = False
    return states


def stabilizer_fidelity(psi: np.ndarray, n: int) -> float:
    """Maximal squared overlap of psi with any pure stabilizer state.

    In the normal form of pure_stabilizer_states, a state on a support of
    dimension k has amplitude 2^{-k/2} i^{l.y} (-1)^{q(y)} at x = c ^ (y B).
    The diagonal of q merges with l into one linear form c in Z4^k
    (y_j^2 = y_j), and what is left of q is the sign pattern of its
    off-diagonal part. So every overlap with a state of support dimension k
    is an entry of
        (psi*[_support_index(n, k)] * _sign_block(k)) @ _z4_block(k):
    one gather, one multiply by the sign table and one GEMM with the Z4
    transform. F is the largest |.|^2 over the n + 1 blocks. The tables
    are built on first use and cached; at n = 4 they hold under 100 KB.

    The blocks go from k = n down, and a support S enters its GEMM only if
    its bound 2^{-k/2} sum_{x in S} |psi_x| >= |<s|psi>|, widened by
    1 + 1e-12, reaches the largest overlap so far. The widening is far above
    the rounding of a 2^k-term sum (under 1e-14 relative at k = 5), so a
    skipped support holds no overlap at or above the maximum, and a max
    over rows that hold the argmax is the same float: F keeps its bits
    (DECISIONS.md)."""
    if n > FIDELITY_MAX_QUBITS:
        raise ValueError(
            f"stabilizer fidelity maximises over 2^(n^2/2) states; max {FIDELITY_MAX_QUBITS} "
            "qubits supported. Use stabilizer_nullity or the Pauli-restricted "
            "log-distance for larger systems."
        )
    # sum_x s(x) psi*(x) = <psi|s>: conjugate the state, not the tables
    bra = _pauli.qubit_vector(psi, n).conj()
    weights = np.abs(bra)
    largest = 0.0
    for k in range(n, -1, -1):
        index = _support_index(n, k)
        if largest:
            index = index[weights[index].sum(axis=1) * ((1 + 1e-12) * 2.0 ** (-k / 2)) >= largest]
            if not len(index):
                continue
        signed = bra[index][:, None, :] * _sign_block(k)
        overlaps = signed.reshape(-1, 1 << k) @ _z4_block(k)
        largest = max(largest, float(np.max(np.abs(overlaps))))
    return largest**2


# ---------------------------------------------------------------------------
# Chirality lower-bounds magic
# ---------------------------------------------------------------------------


class MagicBoundViolation(AssertionError):
    """The chirality-magic inequality chain failed beyond tolerance."""


@dataclass(frozen=True)
class MagicBoundsReport:
    log_distance: float
    pauli_log_distance: float
    nullity: int
    stabilizer_fid: float
    minus_two_log_fidelity: float
    tolerance: float

    @property
    def chain(self) -> tuple[float, float, float, float]:
        return (
            self.log_distance,
            self.pauli_log_distance,
            float(self.nullity),
            self.minus_two_log_fidelity,
        )

    @property
    def inequalities(self) -> tuple[tuple[str, float, float], ...]:
        """(name, lower, upper) for each inequality lower <= upper of the chain."""
        c, c_p, nullity, minus2logf = self.chain
        return (("C <= C_P", c, c_p), ("C_P <= nullity", c_p, nullity), ("C_P <= -2 log F", c_p, minus2logf))

    @property
    def worst_excess(self) -> float:
        """The largest lower - upper over the chain: the chain holds when it
        is at most MAGIC_BOUND_TOL."""
        return max(lo - hi for _, lo, hi in self.inequalities)


def verify_magic_bounds(
    psi: np.ndarray,
    n: int,
    restarts: int = 20,
    seed: int = 0,
) -> MagicBoundsReport:
    """Check C <= C_P <= nullity and C_P <= -2 log F, each within
    MAGIC_BOUND_TOL, on a pure n-qubit state.

    C is estimated with one restart warm-started from the Pauli string that
    achieves C_P (so the reported C never exceeds C_P by optimizer stall),
    plus identity and Haar restarts."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    c_p, (z, x) = pauli_log_distance_detail(psi, n)
    warm = _pauli.single_qubit_factors(z, x, n)
    c, _ = pure_state_log_distance(
        psi, (2,) * n, restarts=restarts, seed=seed, extra_inits=[warm]
    )
    nullity = stabilizer_nullity(psi, n)
    fid = stabilizer_fidelity(psi, n)
    minus2logf = max(0.0, -2.0 * float(np.log(max(fid, 1e-300))))
    report = MagicBoundsReport(c, c_p, nullity, fid, minus2logf, MAGIC_BOUND_TOL)
    if report.worst_excess > MAGIC_BOUND_TOL:
        name, lo, hi = next(t for t in report.inequalities if t[1] - t[2] > MAGIC_BOUND_TOL)
        raise MagicBoundViolation(
            f"{name} violated: {lo!r} > {hi!r} + {MAGIC_BOUND_TOL:g}; report={report!r}"
        )
    return report


# ---------------------------------------------------------------------------
# Random groups for property tests
# ---------------------------------------------------------------------------


def random_stabilizer_group(
    n: int, rng: np.random.Generator, k: int | None = None
) -> StabilizerGroup:
    """Uniformly random group of k independent commuting rows with random
    signs. k defaults to a random size in 0..n; a k outside 0..n is refused
    before any draw.

    Each row is drawn from the commutant of the rows accepted so far, held as
    a basis of rows z | x << n: with j rows accepted it has 2n - j vectors,
    and a candidate is the combination of one draw of 2n - j bits. A
    candidate in the span of the accepted rows (the identity included) is
    drawn again, with probability 2^(2j - 2n) <= 1/4. So each row is uniform
    on the commutant minus the span, the law of drawing z and x uniformly
    and keeping the rows that commute and raise the rank (DECISIONS.md).
    The signs are one draw of k bits after the rows."""
    if k is None:
        k = int(rng.integers(0, n + 1))
    elif not 0 <= k <= n:
        # an isotropic subspace of GF(2)^{2n} has dimension 0..n, so no draw could finish
        raise ValueError(f"k = {k} generators requested; a group on {n} qubits has 0..{n}")
    if not k:  # no rows and no signs: no basis, and no sign draw (4.4 us even when empty)
        return StabilizerGroup._checked(n, (), (), ())
    low = (1 << n) - 1
    commutant = [1 << i for i in range(2 * n)]  # a basis of the rows that commute with every accepted row
    basis: dict[int, int] = {}  # the accepted rows, reduced
    rows: list[int] = []
    while len(rows) < k:
        bits = 0
        for shift in range(0, len(commutant), 63):  # one int64 draw holds at most 63 bits
            bits |= int(rng.integers(0, 1 << min(63, len(commutant) - shift))) << shift
        row = 0
        for v in commutant:
            if bits & 1:
                row ^= v
            bits >>= 1
        if not (reduced := _xor_reduce(row, basis)):
            continue
        basis[reduced.bit_length() - 1] = reduced
        rows.append(row)
        # v & swapped has odd parity exactly when v anticommutes with row: keep
        # the vectors that commute, one anticommuting pivot folded into the others
        swapped = (row >> n) | ((row & low) << n)
        pivot = commutant.pop(next(i for i, v in enumerate(commutant) if (v & swapped).bit_count() & 1))
        commutant = [v ^ pivot if (v & swapped).bit_count() & 1 else v for v in commutant]
    signs = tuple(int(b) for b in rng.integers(0, 2, size=k))
    return StabilizerGroup._checked(n, tuple(r & low for r in rows), tuple(r >> n for r in rows), signs)


def random_stabilizer_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random pure stabilizer state from the cached enumeration,
    as a fresh array the caller may modify."""
    states = pure_stabilizer_states(n)
    return states[int(rng.integers(0, len(states)))].copy()
