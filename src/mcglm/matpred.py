"""Structure matrices and the matrix linear predictor.

A StructureMatrix is a known symmetric N x N matrix entering the matrix
linear predictor U = tau_0 Z_0 + ... + tau_D Z_D, stored as a CSR matrix
built from its nonzeros. Builders cover the structures needed for
repeated measures, longitudinal and neighborhood (CAR-style) covariance
modelling. Grouping labels give block-diagonal replication across
independent units; unit_partition finds those units and unit_blocks
restricts a structure matrix to them.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DomainError


@dataclass(frozen=True)
class StructureMatrix:
    """Known symmetric matrix Z_d, stored as a CSR matrix of its nonzeros.

    Its indices are sorted within each row and it stores no zeros, so
    the stored pattern is the coupling pattern. Restricted to the units
    of one size m (unit_blocks), data is the read-only (n_units, m, m)
    stack of its diagonal blocks, or (1, m, m) when every unit has the
    same block.
    """

    data: object = field(repr=False)

    @property
    def dim(self):
        return self.data.shape[-1]

    def dense(self):
        """The N x N array of a full structure matrix."""
        return self.data.toarray()

    @classmethod
    def from_dense(cls, M):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError("structure matrix must be square")
        M = 0.5 * (M + M.T)  # exact symmetry: a+b == b+a bitwise
        return _stored(sp.csr_matrix(M))

    def nonzeros(self):
        """Row indices, column indices and values of the stored entries, row by row.

        The columns and values are the CSR arrays themselves, not copies.
        """
        M = self.data
        return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices, M.data

    def submatrix(self, index):
        """Principal submatrix on the ascending observation indices ``index``."""
        return _stored(self.data[index][:, index])

    def unit_blocks(self, index):
        """Restriction to the units of one size: index is (n_units, m), sorted within each unit.

        When every unit's block is the same, the stack keeps that one
        block, (1, m, m), which broadcasts against per-unit stacks.
        """
        n, m = index.shape
        unit = np.full(self.dim, -1)
        unit[index] = np.arange(n)[:, None]
        pos = np.zeros(self.dim, dtype=int)
        pos[index] = np.arange(m)
        rows, cols, vals = self.nonzeros()
        keep = unit[rows] >= 0  # the other end of each such entry is in the same unit
        rows, cols = rows[keep], cols[keep]
        blocks = np.zeros((n, m, m))
        blocks[unit[rows], pos[rows], pos[cols]] = vals[keep]
        if np.all(blocks == blocks[:1]):
            blocks = blocks[:1].copy()
        blocks.setflags(write=False)
        return StructureMatrix(data=blocks)


def _stored(M):
    """StructureMatrix of a CSR matrix, its indices sorted and its zeros dropped."""
    M.sum_duplicates()
    M.eliminate_zeros()
    return StructureMatrix(data=M)


def _from_entries(vals, rows, cols, n):
    """StructureMatrix of distinct entries, in any order."""
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return _stored(sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n)))


def _group_pairs(groups, n):
    """Rows and columns of the pairs (i, j) with equal groups, diagonal included.

    Row-major: rows ascend, and so do the columns within a row.
    """
    groups = np.asarray(groups)
    if groups.shape != (n,):
        raise DomainError(f"groups has shape {groups.shape}, expected ({n},)")
    _, label = np.unique(groups, return_inverse=True)
    members = np.argsort(label, kind="stable")  # each group's members, ascending
    size = np.bincount(label)
    start = np.cumsum(size) - size
    width = size[label]  # number of pairs in each row
    rows = np.repeat(np.arange(label.size), width)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(width) - width, width)
    return rows, members[np.repeat(start[label], width) + offset]


@dataclass(frozen=True)
class MatrixPredictor:
    """Ordered components Z_0 ... Z_D of one response's matrix predictor."""

    components: tuple

    def __post_init__(self):
        if len(self.components) < 1:
            raise DomainError("matrix predictor needs at least one component")
        dims = {z.dim for z in self.components}
        if len(dims) != 1:
            raise DomainError(f"component dimensions differ: {sorted(dims)}")

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def D_plus_1(self):
        return len(self.components)

    @cached_property
    def blocks(self):
        """The read-only (D+1, n_units, m, m) stack of a restricted predictor's unit blocks.

        Formed on first use and kept. The components' unit axes
        broadcast, so the stack keeps one block per component, (D+1, 1,
        m, m), only when every component does. A full predictor gives
        its dense (D+1, N, N) stack.
        """
        data = [z.dense() if sp.issparse(z.data) else z.data for z in self.components]
        Z = np.stack(np.broadcast_arrays(*data))
        Z.setflags(write=False)
        return Z


def unit_partition(components):
    """Independent units: connected components of the union nonzero pattern.

    Observations i and j share a unit when some structure matrix couples
    them. Each label hooks to a smaller label across a nonzero, and
    labels jump to their label's label, until they settle on the
    smallest index of their unit. Returns one (n_units, m) index array
    per unit size m, ascending in m; indices ascend within a unit and
    units are ordered by their smallest index. A matrix that couples
    every observation gives a single unit.
    """
    N = components[0].dim
    pairs = [z.nonzeros()[:2] for z in components]
    rows = np.concatenate([r for r, _ in pairs] + [c for _, c in pairs])
    cols = np.concatenate([c for _, c in pairs] + [r for r, _ in pairs])
    label = np.arange(N)
    while True:
        li, lj = label[rows], label[cols]
        lower = lj < li
        new = label.copy()
        # a repeated target keeps any one write: each is at most its label
        new[li[lower]] = np.minimum(label[li[lower]], lj[lower])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    members = np.argsort(label, kind="stable")  # unit by unit, each ascending
    size = np.bincount(label, minlength=N)  # at u, the size of the unit whose smallest index is u
    start = np.cumsum(size) - size
    return tuple(
        members[start[size == m][:, None] + np.arange(m)]
        for m in sorted(set(size.tolist()) - {0})
    )


def mat_identity(n):
    """Identity component (the tau_0 role for iid structures)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _stored(sp.identity(n, format="csr"))


def mat_compound_symmetry(groups):
    """Ones within a group, zeros across groups (diagonal included)."""
    rows, cols = _group_pairs(groups, len(groups))
    return _from_entries(np.ones(rows.size), rows, cols, len(groups))


def mat_inverse_distance(positions, exponent=1, groups=None):
    """Reciprocal (squared) distance off-diagonals within groups, zero diagonal."""
    positions = np.asarray(positions, dtype=float)
    n = positions.size
    if exponent not in (1, 2):
        raise DomainError("exponent must be 1 or 2")
    rows, cols = _group_pairs(np.zeros(n) if groups is None else groups, n)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    dist = np.abs(positions[rows] - positions[cols])
    coincident = np.flatnonzero(dist == 0.0)
    if coincident.size:
        k = coincident[0]
        raise DomainError(
            f"coincident positions within a group at indices {rows[k]} and {cols[k]}"
        )
    return _from_entries(dist ** (-float(exponent)), rows, cols, n)


def mat_pair_indicator(levels, pair, groups):
    """Indicator for level pair {a, b} within groups.

    For a == b the matching diagonal positions are set instead, giving a
    per-level variance indicator; together with the pairwise indicators
    this encodes an unstructured repeated-measures block one tau per
    covariance entry.
    """
    levels = np.asarray(levels)
    a, b = pair
    for lev in (a, b):
        if lev not in levels:
            raise DomainError(f"unknown level label {lev!r}")
    n = levels.size
    if a == b:
        idx = np.flatnonzero(levels == a)
        return _from_entries(np.ones(idx.size), idx, idx, n)
    rows, cols = _group_pairs(groups, n)
    ia = levels == a
    ib = levels == b
    keep = (ia[rows] & ib[cols]) | (ib[rows] & ia[cols])
    return _from_entries(np.ones(np.count_nonzero(keep)), rows[keep], cols[keep], n)


def mat_neighborhood(adjacency, n):
    """Binary neighborhood matrix W and diagonal neighbor-count matrix Dg."""
    if n < 1:
        raise DomainError("n must be >= 1")
    ends = set()  # both directions of each edge; an edge listed twice is one edge
    for i, j in adjacency:
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise DomainError(f"self-loop at node {i}")
        ends.update({(i, j), (j, i)})
    rows, cols = np.array(list(ends), dtype=int).reshape(-1, 2).T
    counts = np.bincount(rows, minlength=n).astype(float)
    nodes = np.flatnonzero(counts)
    return (
        _from_entries(np.ones(rows.size), rows, cols, n),
        _from_entries(counts[nodes], nodes, nodes, n),
    )


def mat_kronecker(A, B):
    """Kronecker product of two structure matrices."""
    return _stored(sp.kron(A.data, B.data, format="csr"))


def mat_sum(A, B):
    """Sum of two structure matrices (e.g. the ICAR merge Z = D + W)."""
    if A.dim != B.dim:
        raise DomainError("dimension mismatch")
    return _stored(A.data + B.data)


def assemble_U(tau, pred):
    """Matrix linear predictor value U = sum_d tau_d Z_d: one product with the stack pred.blocks.

    Dense N x N, or the stack of unit blocks when the predictor is
    restricted to units: (1, m, m) when every component shares one
    block over the units, else (n_units, m, m).
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size != pred.D_plus_1:
        raise DomainError(
            f"tau has length {tau.size}, predictor has {pred.D_plus_1} components"
        )
    return (tau @ pred.blocks.reshape(tau.size, -1)).reshape(pred.blocks.shape[1:])


def save_structure_matrix(sm, path):
    """Write coordinate-list text: 'i j value' per line, 1-based, upper triangle."""
    rows, cols, vals = sm.nonzeros()
    upper = rows <= cols
    with open(path, "w") as fh:
        fh.write(f"# dim {sm.dim}\n")
        for i, j, v in zip(rows[upper], cols[upper], vals[upper]):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def load_structure_matrix(path):
    """Read the coordinate-list format written by save_structure_matrix.

    Raises DomainError, naming the file, for bytes that do not decode,
    and naming the file and line, for a malformed line, an index below
    1, a lower-triangle or repeated entry and a non-finite value.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}")
    entries = {}  # (i, j), 1-based -> value
    n = None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        where = f"{path}:{lineno}"
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "dim":
                    n = int(parts[1])
                continue
            si, sj, sv = line.split()
            i, j, v = int(si), int(sj), float(sv)
        except ValueError:
            raise DomainError(f"{where}: malformed line, expected 'i j value' or '# dim n'")
        if min(i, j) < 1:
            raise DomainError(f"{where}: index below 1 in entry {i} {j}")
        if i > j:
            raise DomainError(f"{where}: lower-triangle entry {i} {j}")
        if (i, j) in entries:
            raise DomainError(f"{where}: repeated entry {i} {j}")
        if not np.isfinite(v):
            raise DomainError(f"{where}: non-finite value {sv}")
        entries[i, j] = v
    if n is None:
        if not entries:
            raise DomainError(f"{path}: no dimension header and no entries")
        n = max(j for _, j in entries)
    if n < 1:
        raise DomainError(f"{path}: dimension {n} is below 1")
    for i, j in entries:
        if j > n:
            raise DomainError(f"{path}: entry ({i},{j}) exceeds dim {n}")
    rows, cols = (np.array(list(entries), dtype=int).reshape(-1, 2) - 1).T
    upper = _from_entries(np.array(list(entries.values())), rows, cols, n).data
    return _stored(upper + sp.triu(upper, 1).T)  # mirror the strict upper triangle
