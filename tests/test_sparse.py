import numpy as np
import pytest

from gfnlab import sparse
from gfnlab.graphs import generate_dense_synthetic, normalized_adjacency
from gfnlab.models import ModelConfig, ModelInstance, make_batch
from gfnlab.sparse import CSRMatrix, block_diag, split_diagonal, spmm, stack_diagonal

from conftest import assert_bitwise_equal, lexsort_from_coo


def dense_from_coo(shape, rows, cols, vals):
    out = np.zeros(shape)
    for r, c, v in zip(rows, cols, vals):
        out[r, c] += v
    return out


def left_to_right(adj, x):
    """Reference row sums: each row's products added one by one in stored order."""
    out = np.zeros((adj.shape[0], x.shape[1]), dtype=np.result_type(adj.data, x))
    for i in range(adj.shape[0]):
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        if hi > lo:
            total = adj.data[lo] * x[adj.indices[lo]]
            for j in range(lo + 1, hi):
                total = total + adj.data[j] * x[adj.indices[j]]
            out[i] = total
    return out


def dense_batch(indices):
    """A gcn batch of ``generate_dense_synthetic`` graphs, built as training builds it."""
    dataset = generate_dense_synthetic(40, seed=41)
    graphs = [dataset.graphs[i] for i in indices]
    adjs = [normalized_adjacency(g.graph).matrix.astype(np.float32) for g in graphs]
    feats = [g.node_features.astype(np.float32) for g in graphs]
    return make_batch(feats, dataset.labels[indices], adjs)


class TestCSRMatrix:
    def test_round_trip_to_dense(self):
        m = lexsort_from_coo((3, 4), [0, 0, 2], [1, 3, 0], [1.0, 2.0, 3.0])
        expected = np.zeros((3, 4))
        expected[0, 1], expected[0, 3], expected[2, 0] = 1.0, 2.0, 3.0
        np.testing.assert_array_equal(m.to_dense(), expected)
        assert m.nnz == 3

    def test_to_dense_sums_duplicates_as_spmm_does(self):
        m = lexsort_from_coo((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m.to_dense(), [[0.0, 3.0], [3.0, 0.0]])
        np.testing.assert_array_equal(m.to_dense(), spmm(m, np.eye(2)))

    def test_equality_is_identity(self):
        a = lexsort_from_coo((2, 2), [0, 1], [1, 0], [1.0, 2.0])
        b = lexsort_from_coo((2, 2), [0, 1], [1, 0], [1.0, 2.0])
        assert a == a and a != b  # equal arrays, but == compares identity and never raises
        assert [b, a].index(a) == 1

    def test_rows_are_column_sorted(self):
        m = lexsort_from_coo((2, 5), [0, 0, 0], [4, 1, 2], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m.indices, [1, 2, 4])

    def test_astype_changes_dtype_only(self):
        m = lexsort_from_coo((2, 2), [0, 1], [1, 0], [1.5, 2.5])
        f32 = m.astype(np.float32)
        assert f32.data.dtype == np.float32
        np.testing.assert_array_equal(f32.indices, m.indices)

    def test_indptr_must_span_entries(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_indptr_must_not_decrease(self):
        with pytest.raises(ValueError, match="indptr must start at 0, never decrease"):
            CSRMatrix((3, 3), [0, 4, 2, 4], [1, 2, 0, 0], np.ones(4))

    def test_indptr_length_checked(self):
        with pytest.raises(ValueError):
            CSRMatrix((3, 3), np.array([0, 0]), np.array([], dtype=int), np.array([]))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1, 2]), np.array([0, 5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("data", [np.array([3.0, 4.0, 5.0]), np.array([[3.0, 4.0]])],
                             ids=["extra-value", "2-d"])
    def test_data_must_hold_one_value_per_entry(self, data):
        with pytest.raises(ValueError, match="one value per entry"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 1], data)

    def test_arrays_are_read_only(self):
        m = lexsort_from_coo((2, 2), [0], [0], [1.0])
        with pytest.raises(ValueError):
            m.data[0] = 9.0

    def test_a_write_through_a_views_base_leaves_the_matrix_alone(self):
        """A matrix built on views owns copies: writing to the views' bases
        changes neither its values nor the sweep plan it cached."""
        base = np.arange(4.0)
        ptr_base, ix_base = np.array([0, 1, 2, 9]), np.array([1, 0, 7])
        m = CSRMatrix((2, 2), ptr_base[:3], ix_base[:2], base[1:3])
        first = spmm(m, np.eye(2))
        base[1:3] = 10.0
        ptr_base[:3] = [0, 0, 2]
        ix_base[:2] = [0, 1]
        np.testing.assert_array_equal(m.to_dense(), [[0.0, 1.0], [2.0, 0.0]])
        np.testing.assert_array_equal(spmm(m, np.eye(2)), first)
        np.testing.assert_array_equal(first, m.to_dense())


class TestSpmm:
    def test_matches_dense_product_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            nr, nc, k = rng.integers(1, 13, size=3)
            density = rng.uniform(0.1, 0.9)
            mask = rng.random((nr, nc)) < density
            rows, cols = np.nonzero(mask)
            vals = rng.standard_normal(rows.size)
            m = lexsort_from_coo((int(nr), int(nc)), rows, cols, vals)
            x = rng.standard_normal((int(nc), int(k)))
            np.testing.assert_allclose(spmm(m, x), m.to_dense() @ x, atol=1e-12, rtol=0)

    def test_empty_rows_stay_zero(self):
        m = lexsort_from_coo((4, 3), [1, 3], [0, 2], [2.0, 5.0])
        x = np.ones((3, 2))
        out = spmm(m, x)
        np.testing.assert_array_equal(out[0], 0)
        np.testing.assert_array_equal(out[2], 0)
        np.testing.assert_array_equal(out[1], [2.0, 2.0])

    def test_all_empty(self):
        m = lexsort_from_coo((3, 3), [], [], [])
        out = spmm(m, np.ones((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_shape_mismatch_raises(self):
        m = lexsort_from_coo((2, 3), [0], [0], [1.0])
        with pytest.raises(ValueError):
            spmm(m, np.ones((4, 2)))

    def test_vector_operand_rejected(self):
        m = lexsort_from_coo((2, 2), [0], [0], [1.0])
        with pytest.raises(ValueError):
            spmm(m, np.ones(2))

    def test_hub_rows_sum_left_to_right(self):
        # 9 and 200 entries: long enough for a pairwise sum to reorder them
        rng = np.random.default_rng(4)
        rows = np.concatenate([np.zeros(9), np.ones(200), [2, 2, 4]]).astype(int)
        cols = np.concatenate([rng.choice(300, 9, replace=False),
                               rng.choice(300, 200, replace=False), [5, 7, 0]])
        vals = rng.standard_normal(rows.size).astype(np.float32)
        m = lexsort_from_coo((5, 300), rows, cols, vals)
        x = rng.standard_normal((300, 16)).astype(np.float32)
        out = spmm(m, x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, left_to_right(m, x))

    def test_duplicate_entries_are_summed(self):
        rows, cols, vals = [0, 0, 0, 2], [1, 1, 2, 0], [1.0, 2.0, 4.0, 8.0]
        m = lexsort_from_coo((3, 3), rows, cols, vals)
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spmm(m, x), dense_from_coo((3, 3), rows, cols, vals) @ x)

    def test_float32_matrix_with_float64_operand_gives_float64(self):
        rng = np.random.default_rng(2)
        m = lexsort_from_coo((6, 6), rng.integers(0, 6, 20), rng.integers(0, 6, 20),
                             rng.standard_normal(20)).astype(np.float32)
        x = rng.standard_normal((6, 3))
        out = spmm(m, x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, left_to_right(m, x))

    def test_zero_width_operand(self):
        m = lexsort_from_coo((3, 3), [0, 1], [1, 2], [1.0, 2.0])
        assert spmm(m, np.ones((3, 0))).shape == (3, 0)

    def test_matrix_with_zero_rows(self):
        m = lexsort_from_coo((0, 3), [], [], [])
        assert spmm(m, np.ones((3, 4))).shape == (0, 4)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(5)
        m = lexsort_from_coo((50, 50), rng.integers(0, 50, 300), rng.integers(0, 50, 300),
                             rng.standard_normal(300))
        x = rng.standard_normal((50, 7)).astype(np.float32)
        a = spmm(m.astype(np.float32), x)
        b = spmm(m.astype(np.float32), x)
        assert (a == b).all()


class TestSweepPlan:
    def test_one_plan_serves_every_operand(self):
        # rows 0, 3 and 5 are empty; row 4's one entry is -0.0, a signed zero product
        rows = [1, 1, 1, 2, 2, 4, 6, 6, 6, 6]
        cols = [0, 2, 4, 1, 3, 0, 1, 2, 3, 4]
        vals = [0.5, -1.25, 2.0, 1.5, 3.0, -0.0, 0.25, -0.75, 1.0, 4.0]
        m = lexsort_from_coo((7, 5), rows, cols, vals)
        rng = np.random.default_rng(8)
        strided = rng.standard_normal((5, 8))[:, 2:6]  # a column slice, as the precompute passes
        for x in (rng.standard_normal((5, 3)), rng.standard_normal((5, 5)).astype(np.float32),
                  np.ones((5, 0)), strided):
            out = spmm(m, x)
            assert_bitwise_equal(out, left_to_right(m, x))
            np.testing.assert_array_equal(out[[0, 3, 5]], 0)

    def test_gcn_batch_builds_its_plan_once(self, monkeypatch):
        built = []

        def counting(adj):
            built.append(adj)
            return plan_sweep(adj)

        plan_sweep = sparse.plan_sweep
        monkeypatch.setattr(sparse, "plan_sweep", counting)
        train, evals = dense_batch([0, 1, 2, 3]), [dense_batch([4, 5]), dense_batch([6, 7, 8])]
        model = ModelInstance(ModelConfig(kind="gcn", num_classes=2), train.features.shape[1])
        logits = model.forward(train, train=True)
        model.backward(np.ones_like(logits))  # three GraphConv forwards and three backwards
        assert len(built) == 1 and built[0] is train.adjacency
        for i, batch in enumerate(evals, start=2):
            model.forward(batch, train=False)
            assert len(built) == i and built[-1] is batch.adjacency

    def test_dense_synthetic_batch_sums_left_to_right(self):
        adj = dense_batch(np.arange(8)).adjacency
        assert adj.data.dtype == np.float32
        x = np.random.default_rng(6).standard_normal((adj.shape[0], 128)).astype(np.float32)
        assert_bitwise_equal(spmm(adj, x), left_to_right(adj, x))


class TestBlockDiag:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        blocks = []
        denses = []
        for _ in range(4):
            n = int(rng.integers(1, 6))
            mask = rng.random((n, n)) < 0.5
            rows, cols = np.nonzero(mask)
            vals = rng.standard_normal(rows.size)
            blocks.append(lexsort_from_coo((n, n), rows, cols, vals))
            denses.append(blocks[-1].to_dense())
        stacked = block_diag(blocks)
        total = sum(d.shape[0] for d in denses)
        expected = np.zeros((total, total))
        off = 0
        for d in denses:
            expected[off : off + d.shape[0], off : off + d.shape[0]] = d
            off += d.shape[0]
        np.testing.assert_array_equal(stacked.to_dense(), expected)

    def test_single_block_identity(self):
        m = lexsort_from_coo((2, 2), [0, 1], [1, 0], [1.0, 1.0])
        np.testing.assert_array_equal(block_diag([m]).to_dense(), m.to_dense())

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            block_diag([])

    def test_non_square_block_rejected(self):
        square = lexsort_from_coo((2, 2), [0, 1], [1, 0], [1.0, 1.0])
        wide = lexsort_from_coo((2, 3), [0], [2], [1.0])
        with pytest.raises(ValueError, match=r"square, got shape \(2, 3\)"):
            block_diag([square, wide])

    def test_spmm_distributes_over_blocks(self):
        # multiplying the block matrix equals multiplying each block separately
        rng = np.random.default_rng(9)
        sizes = [3, 5, 2]
        blocks, xs = [], []
        for n in sizes:
            mask = rng.random((n, n)) < 0.6
            rows, cols = np.nonzero(mask)
            blocks.append(lexsort_from_coo((n, n), rows, cols, rng.standard_normal(rows.size)))
            xs.append(rng.standard_normal((n, 4)))
        whole = spmm(block_diag(blocks), np.concatenate(xs, axis=0))
        parts = np.concatenate([spmm(b, x) for b, x in zip(blocks, xs)], axis=0)
        np.testing.assert_array_equal(whole, parts)


class TestSplitDiagonal:
    @pytest.mark.parametrize("seed", range(5))
    def test_inverts_stack_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        patterns = []
        for _ in range(int(rng.integers(1, 8))):
            n = int(rng.integers(0, 6))  # 0: an empty block
            rows, cols = np.nonzero(rng.random((n, n)) < rng.random())
            m = lexsort_from_coo((n, n), rows, cols, np.ones(rows.size))
            patterns.append((n, m.indptr, m.indices))
        n, indptr, indices = stack_diagonal(patterns)
        blocks = list(split_diagonal([size for size, _, _ in patterns], indptr, indices))
        assert len(blocks) == len(patterns)
        start = 0
        for (size, ptr, ix, entries), (want_size, want_ptr, want_ix) in zip(blocks, patterns):
            assert size == want_size
            assert_bitwise_equal(ptr, want_ptr)
            assert_bitwise_equal(ix, want_ix)
            assert entries == slice(start, start + want_ix.size)
            start += want_ix.size
        assert start == indices.size == indptr[-1] and n == sum(size for size, *_ in blocks)

    def test_nothing_to_split(self):
        assert list(split_diagonal([], np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))) == []
