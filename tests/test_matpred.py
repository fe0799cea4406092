import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from mcglm import DomainError, MatrixPredictor, StructureMatrix
from mcglm.matpred import (
    assemble_U,
    load_structure_matrix,
    mat_compound_symmetry,
    mat_identity,
    mat_inverse_distance,
    mat_kronecker,
    mat_neighborhood,
    mat_pair_indicator,
    mat_sum,
    save_structure_matrix,
    unit_partition,
)


def assert_bitwise_symmetric(sm):
    M = sm.dense()
    assert np.array_equal(M, M.T)


class TestIdentity:
    def test_basic(self):
        assert np.array_equal(mat_identity(3).dense(), np.eye(3))

    def test_scalar(self):
        assert np.array_equal(mat_identity(1).dense(), np.array([[1.0]]))

    def test_trace(self):
        assert np.trace(mat_identity(5).dense()) == 5.0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            mat_identity(0)


class TestCompoundSymmetry:
    def test_two_groups(self):
        M = mat_compound_symmetry(["a", "a", "b"]).dense()
        assert np.array_equal(M, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1.0]]))

    def test_all_distinct(self):
        M = mat_compound_symmetry(["a", "b", "c", "d"]).dense()
        assert np.array_equal(M, np.eye(4))

    def test_single_group(self):
        M = mat_compound_symmetry(["g"] * 4).dense()
        assert np.array_equal(M, np.ones((4, 4)))


class TestInverseDistance:
    def test_values(self):
        M = mat_inverse_distance([1.0, 2.0, 4.0], exponent=1).dense()
        assert M[0, 2] == pytest.approx(1 / 3)
        assert M[0, 1] == pytest.approx(1.0)
        assert np.all(np.diag(M) == 0.0)

    def test_squared(self):
        M = mat_inverse_distance([1.0, 3.0], exponent=2).dense()
        assert M[0, 1] == pytest.approx(0.25)

    def test_groups_block_structure(self):
        M = mat_inverse_distance(
            [1.0, 2.0, 1.0, 2.0], exponent=1, groups=["u", "u", "v", "v"]
        ).dense()
        assert np.all(M[:2, 2:] == 0.0)
        assert M[0, 1] == 1.0 and M[2, 3] == 1.0

    def test_coincident_rejected_naming_pair(self):
        with pytest.raises(DomainError, match="0 and 1"):
            mat_inverse_distance([2.0, 2.0], exponent=1)

    def test_coincident_across_groups_allowed(self):
        M = mat_inverse_distance([2.0, 2.0], exponent=1, groups=["u", "v"]).dense()
        assert np.all(M == 0.0)


class TestPairIndicator:
    def test_off_diagonal_pair(self):
        M = mat_pair_indicator(["e1", "e2"], ("e1", "e2"), ["s", "s"]).dense()
        assert np.array_equal(M, np.array([[0, 1], [1, 0.0]]))

    def test_diagonal_level(self):
        M = mat_pair_indicator(["e1", "e2"], ("e1", "e1"), ["s", "s"]).dense()
        assert np.array_equal(M, np.diag([1.0, 0.0]))

    def test_no_cross_subject_entries(self):
        levels = ["e1", "e2", "e1", "e2"]
        groups = ["s1", "s1", "s2", "s2"]
        M = mat_pair_indicator(levels, ("e1", "e2"), groups).dense()
        assert np.all(M[:2, 2:] == 0.0)
        assert M[0, 1] == 1.0 and M[2, 3] == 1.0

    def test_unknown_level(self):
        with pytest.raises(DomainError):
            mat_pair_indicator(["e1"], ("e1", "e9"), ["s"])


class TestNeighborhood:
    def test_path_graph(self):
        W, Dg = mat_neighborhood([(0, 1), (1, 2)], 3)
        assert np.array_equal(W.dense(), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
        assert np.array_equal(Dg.dense(), np.diag([1.0, 2.0, 1.0]))

    def test_empty(self):
        W, Dg = mat_neighborhood([], 3)
        assert np.all(W.dense() == 0.0)
        assert np.all(Dg.dense() == 0.0)

    def test_complete_graph(self):
        W, Dg = mat_neighborhood([(0, 1), (0, 2), (1, 2)], 3)
        assert np.array_equal(Dg.dense(), 2.0 * np.eye(3))

    def test_row_sums_match_diagonal(self):
        rng = np.random.default_rng(0)
        n = 9
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        W, Dg = mat_neighborhood(edges, n)
        assert np.array_equal(W.dense().sum(axis=1), np.diag(Dg.dense()))

    def test_rejects_bad_edges(self):
        with pytest.raises(DomainError):
            mat_neighborhood([(0, 5)], 3)
        with pytest.raises(DomainError):
            mat_neighborhood([(1, 1)], 3)


class TestKronecker:
    def test_identities(self):
        K = mat_kronecker(mat_identity(2), mat_identity(3))
        assert np.array_equal(K.dense(), np.eye(6))

    def test_diagonal(self):
        A = StructureMatrix.from_dense(np.diag([1.0, 2.0]))
        B = StructureMatrix.from_dense(np.array([[3.0]]))
        assert np.array_equal(mat_kronecker(A, B).dense(), np.diag([3.0, 6.0]))

    def test_index_formula_oracle(self):
        rng = np.random.default_rng(1)
        A = StructureMatrix.from_dense(np.array([[1.0, 0.5], [0.5, 2.0]]))
        Bm = rng.standard_normal((2, 2))
        B = StructureMatrix.from_dense(Bm + Bm.T)
        K = mat_kronecker(A, B).dense()
        Ad, Bd = A.dense(), B.dense()
        for i in range(4):
            for j in range(4):
                assert K[i, j] == pytest.approx(Ad[i // 2, j // 2] * Bd[i % 2, j % 2])

    def test_indicator_inputs_stay_01(self):
        A = mat_compound_symmetry(["a", "a", "b"])
        B = mat_pair_indicator(["e1", "e2"], ("e1", "e2"), ["s", "s"])
        K = mat_kronecker(A, B).dense()
        assert set(np.unique(K)) <= {0.0, 1.0}

    def test_dimension_and_symmetry(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3))
        A = StructureMatrix.from_dense(M + M.T)
        K = mat_kronecker(A, A)
        assert K.dim == 9
        assert_bitwise_symmetric(K)


class TestAssembleU:
    def test_single_identity(self):
        pred = MatrixPredictor((mat_identity(3),))
        assert np.array_equal(assemble_U([1.0], pred), np.eye(3))

    def test_two_components(self):
        Z1 = StructureMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pred = MatrixPredictor((mat_identity(2), Z1))
        U = assemble_U([2.0, 3.0], pred)
        assert np.array_equal(U, np.array([[2.0, 3.0], [3.0, 2.0]]))

    def test_car_ratio_parametrization(self):
        # tau0 * D + tau1 * W == tau_t (D + rho_t W) with rho_t = tau1/tau0
        W, Dg = mat_neighborhood([(0, 1), (1, 2), (2, 3)], 4)
        pred = MatrixPredictor((Dg, W))
        tau0, tau1 = 1.5, 0.6
        U = assemble_U([tau0, tau1], pred)
        rho_t = tau1 / tau0
        expected = tau0 * (Dg.dense() + rho_t * W.dense())
        assert np.allclose(U, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        pred = MatrixPredictor((mat_identity(4), StructureMatrix.from_dense(M + M.T)))
        t1 = rng.standard_normal(2)
        t2 = rng.standard_normal(2)
        a, b = 0.7, -1.3
        lhs = assemble_U(a * t1 + b * t2, pred)
        rhs = a * assemble_U(t1, pred) + b * assemble_U(t2, pred)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_length_mismatch(self):
        pred = MatrixPredictor((mat_identity(2),))
        with pytest.raises(DomainError):
            assemble_U([1.0, 2.0], pred)


class TestStructureMatrixStorage:
    def test_every_builder_bitwise_symmetric(self):
        rng = np.random.default_rng(4)
        pos = np.cumsum(rng.uniform(0.5, 2.0, size=8))
        builders = [
            mat_identity(8),
            mat_compound_symmetry(rng.integers(0, 3, size=8)),
            mat_inverse_distance(pos, exponent=2),
            mat_pair_indicator(["a", "b"] * 4, ("a", "b"), [0, 0, 1, 1, 2, 2, 3, 3]),
        ]
        for sm in builders:
            assert_bitwise_symmetric(sm)

    def test_sparse_chosen_for_low_density(self):
        sm = mat_identity(100)
        assert sp.issparse(sm.data)

    def test_dense_input_stored_as_csr(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((10, 10))
        M = M + M.T
        sm = StructureMatrix.from_dense(M)
        assert sm.data.format == "csr"
        assert sm.dense().tobytes() == M.tobytes()
        assert mat_compound_symmetry(["g"] * 10).data.format == "csr"

    @pytest.mark.parametrize(
        "groups",
        [[1, 0, 1, 0, 2, 2, 1], ["b", "a", "b", "c", "a", "c", "b"], ["g"] * 7],
        ids=["interleaved", "strings", "single"],
    )
    def test_group_builders_match_dense_formulas(self, groups):
        g = np.asarray(groups)
        n = g.size
        same = g[:, None] == g[None, :]
        pos = np.cumsum(np.random.default_rng(7).uniform(0.5, 2.0, size=n))
        dist = np.abs(pos[:, None] - pos[None, :])
        off = same & ~np.eye(n, dtype=bool)
        levels = np.array(["e1", "e2", "e3"])[np.arange(n) % 3]
        ia, ib = levels == "e1", levels == "e2"
        pair = (same & (np.outer(ia, ib) | np.outer(ib, ia))).astype(float)
        assert np.array_equal(mat_compound_symmetry(groups).dense(), same.astype(float))
        assert np.array_equal(mat_pair_indicator(levels, ("e1", "e2"), groups).dense(), pair)
        for exponent in (1, 2):
            expected = np.zeros((n, n))
            expected[off] = dist[off] ** (-float(exponent))
            M = mat_inverse_distance(pos, exponent, groups).dense()
            assert M.tobytes() == expected.tobytes()

    def test_rejects_groups_of_another_length(self):
        with pytest.raises(DomainError, match="groups"):
            mat_pair_indicator(["a", "b", "a"], ("a", "b"), [0, 0])
        with pytest.raises(DomainError, match="groups"):
            mat_inverse_distance([1.0, 2.0, 3.0], 1, [0, 0])

    def test_group_builders_form_no_dense_matrix(self):
        N = 4000  # a dense N x N float matrix is 128 MB
        groups = np.repeat(np.arange(N // 4), 4)
        levels = np.array(["e1", "e2", "e3", "e4"])[np.arange(N) % 4]
        positions = np.arange(N, dtype=float)
        builders = [
            lambda: mat_compound_symmetry(groups),
            lambda: mat_inverse_distance(positions, 1, groups),
            lambda: mat_pair_indicator(levels, ("e1", "e2"), groups),
        ]
        for build in builders:
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6

    def test_explicit_zeros_are_not_stored(self):
        W, Dg = mat_neighborhood([(0, 1), (2, 3)], 5)
        Z = mat_sum(W, StructureMatrix.from_dense(-W.dense()))
        assert Z.data.nnz == 0
        parts = unit_partition([mat_identity(5), Z])
        assert [p.tolist() for p in parts] == [[[0], [1], [2], [3], [4]]]
        assert Dg.data.nnz == 4  # node 4 has no neighbors

    def test_predictor_dimension_check(self):
        with pytest.raises(DomainError):
            MatrixPredictor((mat_identity(2), mat_identity(3)))


def random_sparse_symmetric(rng, n, density, groups=None):
    """StructureMatrix of a random symmetric matrix, its entries kept within equal groups."""
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    if groups is not None:
        M *= groups[:, None] == groups[None, :]
    return StructureMatrix.from_dense(M + M.T)


def random_components(seed, tmp_path, N=24):
    """Random components of every origin: dense input, kron, mat_sum, submatrix and a file."""
    rng = np.random.default_rng(seed)
    A = random_sparse_symmetric(rng, N, 0.3, rng.integers(0, 8, N))
    K = mat_kronecker(random_sparse_symmetric(rng, 4, 0.4), random_sparse_symmetric(rng, 6, 0.2))
    sub = random_sparse_symmetric(rng, N + 6, 0.05).submatrix(np.sort(rng.permutation(N + 6)[:N]))
    save_structure_matrix(random_sparse_symmetric(rng, N, 0.1, rng.integers(0, 5, N)),
                          tmp_path / "z.txt")
    return {"dense": A, "kron": K, "sum": mat_sum(A, K), "submatrix": sub,
            "file": load_structure_matrix(tmp_path / "z.txt")}


def connected_units(components):
    """unit_partition's grouping from scipy's connected components and a CSR incidence matrix."""
    N = components[0].dim
    pattern = sum(abs(z.data) for z in components)
    _, comp = connected_components(pattern + sp.identity(N), directed=False)
    smallest = np.full(comp.max() + 1, N)
    np.minimum.at(smallest, comp, np.arange(N))
    # row u lists, ascending, the observations whose unit has smallest index u
    units = sp.csr_matrix((np.ones(N), (smallest[comp], np.arange(N))), shape=(N, N))
    start, size = units.indptr[:-1], np.diff(units.indptr)
    return [units.indices[start[size == m][:, None] + np.arange(m)]
            for m in sorted(set(size.tolist()) - {0})]


class TestCSRReads:
    @pytest.mark.parametrize("seed", range(4))
    def test_nonzeros_are_the_coo_triplets(self, seed, tmp_path):
        for name, z in random_components(seed, tmp_path).items():
            coo = z.data.tocoo()
            for got, expected in zip(z.nonzeros(), (coo.row, coo.col, coo.data)):
                assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_partition_equals_the_connected_components(self, seed, tmp_path):
        comps = random_components(seed, tmp_path)
        for names in (["dense"], ["kron"], ["submatrix"], ["file"], ["dense", "file"],
                      ["submatrix", "sum"], list(comps)):
            got = unit_partition([comps[name] for name in names])
            expected = connected_units([comps[name] for name in names])
            assert [p.tolist() for p in got] == [p.tolist() for p in expected], names


class TestCoordinateFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((5, 5))
        sm = StructureMatrix.from_dense(M + M.T)
        path = tmp_path / "z.txt"
        save_structure_matrix(sm, path)
        back = load_structure_matrix(str(path))
        assert np.allclose(back.dense(), sm.dense(), atol=1e-15)

    def test_exact_bytes_of_upper_triangle_nonzeros(self, tmp_path):
        M = np.array(
            [
                [2.0, 0.0, -1.5, 0.0],
                [0.0, 0.0, 0.1, 3.0],
                [-1.5, 0.1, 0.0, 0.0],
                [0.0, 3.0, 0.0, -7.0],
            ]
        )
        path = tmp_path / "z.txt"
        save_structure_matrix(StructureMatrix.from_dense(M), path)
        assert path.read_bytes() == (
            b"# dim 4\n"
            b"1 1 2\n"
            b"1 3 -1.5\n"
            b"2 3 0.10000000000000001\n"
            b"2 4 3\n"
            b"4 4 -7\n"
        )

    def test_rejects_lower_triangle(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0.5\n")
        with pytest.raises(DomainError):
            load_structure_matrix(str(path))

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("0 2 5.0", "index below 1"),
            ("1 2 0.5", "repeated entry"),
            ("2 2 nan", "non-finite"),
            ("2 3 inf", "non-finite"),
            ("2 3 -inf", "non-finite"),
            ("2 x 1.0", "malformed line"),
            ("# dim x", "malformed line"),
        ],
    )
    def test_rejects_malformed_line(self, tmp_path, line, reason):
        path = tmp_path / "bad.txt"
        path.write_text(f"# dim 3\n1 2 0.5\n{line}\n")
        with pytest.raises(DomainError, match=f"bad.txt:3: {reason}"):
            load_structure_matrix(str(path))

    def test_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# dim 2\n1 1 1.0\n2 2 1\xff\n")
        with pytest.raises(DomainError) as info:
            load_structure_matrix(str(path))
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

    def test_zero_line_is_not_stored(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# dim 3\n1 1 2.0\n1 2 0.0\n2 2 1.0\n3 3 1.0\n")
        sm = load_structure_matrix(str(path))
        assert np.array_equal(sm.dense(), np.diag([2.0, 1.0, 1.0]))
        assert sm.data.nnz == 3

    def test_sum_icar_merge(self):
        W, Dg = mat_neighborhood([(0, 1), (1, 2)], 3)
        Z = mat_sum(Dg, W)
        assert np.array_equal(Z.dense(), Dg.dense() + W.dense())
