"""Structure matrices and the matrix linear predictor.

A StructureMatrix is a known symmetric N x N matrix entering the matrix
linear predictor U = tau_0 Z_0 + ... + tau_D Z_D. Builders cover the
structures needed for repeated measures, longitudinal and neighborhood
(CAR-style) covariance modelling. Grouping labels give block-diagonal
replication across independent units; unit_partition finds those units
and unit_blocks restricts a structure matrix to them.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

# store sparse below this density; space-time Kronecker matrices are
# unusable dense at realistic sizes
SPARSE_DENSITY_THRESHOLD = 0.25


@dataclass(frozen=True)
class StructureMatrix:
    """Known symmetric matrix Z_d, stored dense or sparse.

    Restricted to the units of one size m (unit_blocks), data is the
    read-only (n_units, m, m) stack of its diagonal blocks.
    """

    data: object = field(repr=False)
    label: str = ""

    @property
    def dim(self):
        return self.data.shape[-1]

    @property
    def is_sparse(self):
        return sp.issparse(self.data)

    def dense(self):
        if self.is_sparse:
            return self.data.toarray()
        return np.array(self.data)

    @classmethod
    def from_dense(cls, M, label=""):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError("structure matrix must be square")
        M = 0.5 * (M + M.T)  # exact symmetry: a+b == b+a bitwise
        nnz = np.count_nonzero(M)
        if M.shape[0] > 1 and nnz < SPARSE_DENSITY_THRESHOLD * M.size:
            return cls(data=sp.csr_matrix(M), label=label)
        M.setflags(write=False)
        return cls(data=M, label=label)

    def nonzeros(self):
        """Row indices, column indices and values of the stored entries."""
        if self.is_sparse:
            coo = self.data.tocoo()
            return coo.row, coo.col, coo.data
        rows, cols = np.nonzero(self.data)
        return rows, cols, self.data[rows, cols]

    def unit_blocks(self, index):
        """Restriction to the units of one size: index is (n_units, m), sorted within each unit."""
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
        blocks.setflags(write=False)
        return StructureMatrix(data=blocks, label=self.label)


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

    def unit_blocks(self, index):
        """The predictor restricted to the units of one size (see StructureMatrix.unit_blocks)."""
        return MatrixPredictor(tuple(z.unit_blocks(index) for z in self.components))


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
    # row u of this incidence matrix lists, in ascending order, the
    # observations whose unit has smallest index u
    units = sp.csr_matrix((np.ones(N), (label, np.arange(N))), shape=(N, N))
    start, size = units.indptr[:-1], np.diff(units.indptr)
    return tuple(
        units.indices[start[size == m][:, None] + np.arange(m)]
        for m in sorted(set(size.tolist()) - {0})
    )


def mat_identity(n):
    """Identity component (the tau_0 role for iid structures)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return StructureMatrix.from_dense(np.eye(n), label=f"identity n={n}")


def mat_compound_symmetry(groups):
    """Ones within a group, zeros across groups (diagonal included)."""
    groups = np.asarray(groups)
    M = (groups[:, None] == groups[None, :]).astype(float)
    return StructureMatrix.from_dense(M, label="compound symmetry")


def mat_inverse_distance(positions, exponent=1, groups=None):
    """Reciprocal (squared) distance off-diagonals within groups, zero diagonal."""
    positions = np.asarray(positions, dtype=float)
    n = positions.size
    if exponent not in (1, 2):
        raise DomainError("exponent must be 1 or 2")
    if groups is None:
        groups = np.zeros(n)
    groups = np.asarray(groups)
    same = groups[:, None] == groups[None, :]
    dist = np.abs(positions[:, None] - positions[None, :])
    off = same & ~np.eye(n, dtype=bool)
    coincident = off & (dist == 0.0)
    if np.any(coincident):
        i, j = np.argwhere(coincident)[0]
        raise DomainError(
            f"coincident positions within a group at indices {i} and {j}"
        )
    M = np.zeros((n, n))
    M[off] = dist[off] ** (-float(exponent))
    return StructureMatrix.from_dense(M, label=f"inverse distance^{exponent}")


def mat_pair_indicator(levels, pair, groups):
    """Indicator for level pair {a, b} within groups.

    For a == b the matching diagonal positions are set instead, giving a
    per-level variance indicator; together with the pairwise indicators
    this encodes an unstructured repeated-measures block one tau per
    covariance entry.
    """
    levels = np.asarray(levels)
    groups = np.asarray(groups)
    a, b = pair
    for lev in (a, b):
        if lev not in levels:
            raise DomainError(f"unknown level label {lev!r}")
    n = levels.size
    if a == b:
        M = np.diag((levels == a).astype(float))
        return StructureMatrix.from_dense(M, label=f"level variance {a}")
    same = groups[:, None] == groups[None, :]
    ia = levels == a
    ib = levels == b
    M = (same & (np.outer(ia, ib) | np.outer(ib, ia))).astype(float)
    return StructureMatrix.from_dense(M, label=f"level pair ({a},{b})")


def mat_neighborhood(adjacency, n):
    """Binary neighborhood matrix W and diagonal neighbor-count matrix Dg."""
    W = np.zeros((n, n))
    for i, j in adjacency:
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise DomainError(f"self-loop at node {i}")
        W[i, j] = 1.0
        W[j, i] = 1.0
    Dg = np.diag(W.sum(axis=1))
    return (
        StructureMatrix.from_dense(W, label="neighborhood W"),
        StructureMatrix.from_dense(Dg, label="neighbor counts D"),
    )


def mat_kronecker(A, B):
    """Kronecker product of two structure matrices."""
    if A.is_sparse or B.is_sparse:
        data = sp.kron(
            A.data if A.is_sparse else sp.csr_matrix(A.data),
            B.data if B.is_sparse else sp.csr_matrix(B.data),
            format="csr",
        )
        return StructureMatrix(data=data, label=f"({A.label}) x ({B.label})")
    return StructureMatrix.from_dense(
        np.kron(A.dense(), B.dense()), label=f"({A.label}) x ({B.label})"
    )


def mat_sum(A, B, label=None):
    """Sum of two structure matrices (e.g. the ICAR merge Z = D + W)."""
    if A.dim != B.dim:
        raise DomainError("dimension mismatch")
    M = A.dense() + B.dense()
    return StructureMatrix.from_dense(
        M, label=label or f"({A.label}) + ({B.label})"
    )


def assemble_U(tau, pred):
    """Matrix linear predictor value U = sum_d tau_d Z_d.

    Dense N x N, or the (n_units, m, m) stack of unit blocks when the
    predictor is restricted to units.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size != pred.D_plus_1:
        raise DomainError(
            f"tau has length {tau.size}, predictor has {pred.D_plus_1} components"
        )
    U = np.zeros(pred.components[0].data.shape)
    for t, z in zip(tau, pred.components):
        if z.is_sparse:
            U += t * z.data.toarray()
        else:
            U += t * z.data
    return U


def save_structure_matrix(sm, path):
    """Write coordinate-list text: 'i j value' per line, 1-based, upper triangle."""
    M = np.triu(sm.dense())
    with open(path, "w") as fh:
        fh.write(f"# dim {sm.dim}\n")
        for i, j in zip(*np.nonzero(M)):
            fh.write(f"{i + 1} {j + 1} {M[i, j]:.17g}\n")


def load_structure_matrix(path, dim=None, label=None):
    """Read the coordinate-list format written by save_structure_matrix."""
    entries = []
    n = dim
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "dim":
                    n = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DomainError(f"{path}:{lineno}: expected 'i j value'")
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            if i > j:
                raise DomainError(f"{path}:{lineno}: lower-triangle entry {i} {j}")
            entries.append((i - 1, j - 1, v))
    if n is None:
        if not entries:
            raise DomainError(f"{path}: no dimension header and no entries")
        n = max(max(i, j) for i, j, _ in entries) + 1
    M = np.zeros((n, n))
    for i, j, v in entries:
        if i >= n or j >= n:
            raise DomainError(f"{path}: entry ({i + 1},{j + 1}) exceeds dim {n}")
        M[i, j] = v
        M[j, i] = v
    return StructureMatrix.from_dense(M, label=label or path)
