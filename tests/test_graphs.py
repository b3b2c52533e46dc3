import hashlib
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gfnlab.graphs import (
    AttributedGraph,
    DataError,
    Dataset,
    Graph,
    generate_dense_synthetic,
    generate_synthetic_dataset,
    node_degrees,
    normalized_adjacency,
    stratified_kfold,
)
from gfnlab.sparse import block_diag

from conftest import assert_same_csr, lexsort_from_coo


class TestGraph:
    def test_from_edges_symmetrizes_and_dedupes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2
        np.testing.assert_array_equal(g.indices[g.indptr[1] : g.indptr[2]], [0, 2])
        np.testing.assert_array_equal(g.indices[g.indptr[0] : g.indptr[1]], [1])

    def test_from_edges_matches_sorted_neighbour_sets(self):
        # TU-shaped lists too: every edge in both directions, with repeats and
        # self-loops, shuffled, on up to a few thousand nodes
        rng = np.random.default_rng(5)
        sizes = [0, 1] + [int(x) for x in rng.integers(1, 40, 30)] + [500, 3000]
        for trial, n in enumerate(sizes):
            edges = rng.integers(0, max(n, 1), (int(rng.integers(0, 3 * n + 1)), 2))
            if trial % 2:
                edges = np.concatenate([edges, edges[:, ::-1], edges[: edges.shape[0] // 3]])
                edges = rng.permutation(edges)
            loops = edges[:, 0] == edges[:, 1]
            neighbours = [set() for _ in range(n)]
            for u, v in edges[~loops].tolist():
                neighbours[u].add(v)
                neighbours[v].add(u)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g = Graph.from_edges(n, edges)
            assert [str(w.message) for w in caught] == (
                [f"dropping {int(loops.sum())} self-loop(s)"] if loops.any() else [])
            np.testing.assert_array_equal(g.indptr, np.cumsum([0] + [len(s) for s in neighbours]))
            np.testing.assert_array_equal(g.indices, [v for s in neighbours for v in sorted(s)])

    # edges are checked and no array is sized by the node count before this refusal
    @pytest.mark.parametrize("num_nodes", [3037000500, 2**32, 2**62])
    def test_more_nodes_than_one_int64_key_can_pair(self, num_nodes):
        with pytest.raises(ValueError, match="int64"):
            Graph.from_edges(num_nodes, [(0, 1)])

    def test_self_loops_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.edge_count == 1

    def test_endpoint_out_of_range(self):
        with pytest.raises(DataError):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert g.edge_count == 0
        np.testing.assert_array_equal(node_degrees(g), [0, 0, 0, 0])

    def test_from_edges_empty_and_all_duplicate_lists(self):
        for n in (0, 1, 4):
            g = Graph.from_edges(n, np.empty((0, 2), dtype=np.int64))
            np.testing.assert_array_equal(g.indptr, np.zeros(n + 1))
            assert g.indices.size == 0
        g = Graph.from_edges(3, [(2, 0)] * 5 + [(0, 2)] * 4)
        np.testing.assert_array_equal(g.indptr, [0, 1, 1, 2])
        np.testing.assert_array_equal(g.indices, [2, 0])

    def test_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        np.testing.assert_array_equal(node_degrees(g), [3, 1, 1, 1])

    @pytest.mark.parametrize("num_nodes, indptr, indices", [
        (2, [0, 5, 9], [1, 0]),  # ends past the stored entries: degrees [5, 4] for one edge
        (3, [0, 4, 2, 4], [1, 2, 0, 0]),  # decreases: node 1 would have degree -2
    ])
    def test_indptr_must_describe_the_stored_entries(self, num_nodes, indptr, indices):
        with pytest.raises(ValueError, match="indptr must start at 0, never decrease"):
            Graph(num_nodes, indptr, indices)

    def test_a_write_through_a_views_base_leaves_the_graph_alone(self):
        """A graph checked on views owns copies, so a later write to their
        bases cannot put a column out of range behind its check."""
        indices_base = np.array([1, 0, 5])
        g = Graph(2, np.array([0, 1, 2]), indices_base[:2])
        indices_base[:2] = 7
        np.testing.assert_array_equal(g.indices, [1, 0])
        expected = normalized_adjacency(Graph.from_edges(2, [(0, 1)])).matrix.to_dense()
        np.testing.assert_array_equal(normalized_adjacency(g).matrix.to_dense(), expected)


class TestNormalizedAdjacency:
    def test_two_node_path_hand_value(self):
        # one edge, epsilon 1: degrees become 2, every entry is 1/2
        g = Graph.from_edges(2, [(0, 1)])
        at = normalized_adjacency(g).matrix.to_dense()
        np.testing.assert_allclose(at, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_triangle_hand_value(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        at = normalized_adjacency(g).matrix.to_dense()
        np.testing.assert_allclose(at, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_isolated_node_gets_identity_row(self):
        g = Graph.from_edges(3, [(0, 1)])
        at = normalized_adjacency(g).matrix.to_dense()
        np.testing.assert_allclose(at[2], [0, 0, 1.0], atol=1e-15)

    def test_symmetry(self, random_graph):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 12)))
            at = normalized_adjacency(g).matrix.to_dense()
            np.testing.assert_allclose(at, at.T, atol=1e-15)

    def test_eigenvalues_in_unit_interval(self, random_graph):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 12)))
            at = normalized_adjacency(g).matrix.to_dense()
            ev = np.linalg.eigvalsh(at)
            assert ev.min() >= -1 - 1e-9 and ev.max() <= 1 + 1e-9

    def test_epsilon_scales_smoothing(self):
        g = Graph.from_edges(2, [(0, 1)])
        at = normalized_adjacency(g, epsilon=3.0).matrix.to_dense()
        # degrees become 4; off-diagonal 1/4, diagonal 3/4
        np.testing.assert_allclose(at, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)


def sorted_normalization(graph, epsilon):
    """The normalization built by a stable sort of the graph's entries, then
    one diagonal entry per row."""
    n = graph.num_nodes
    inv_sqrt = 1.0 / np.sqrt(node_degrees(graph) + epsilon)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = graph.indices
    rows = np.concatenate([src, np.arange(n)])
    cols = np.concatenate([dst, np.arange(n)])
    vals = np.concatenate([inv_sqrt[src] * inv_sqrt[dst], epsilon * inv_sqrt**2])
    return lexsort_from_coo((n, n), rows, cols, vals)


class TestDiagonalInsertion:
    """The diagonal goes into the sorted rows without a sort, and the matrix is
    the sorted normalization bit for bit."""

    @staticmethod
    def assert_bitwise(graph, epsilon=1.0):
        assert_same_csr(normalized_adjacency(graph, epsilon).matrix, sorted_normalization(graph, epsilon))

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_small_and_isolated(self, epsilon):
        for graph in (Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(4, []),
                      Graph.from_edges(6, [(1, 4), (4, 5)]), Graph.from_edges(3, [(0, 2)])):
            self.assert_bitwise(graph, epsilon)

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_random_graphs(self, random_graph, epsilon):
        rng = np.random.default_rng(8)
        for _ in range(40):
            self.assert_bitwise(random_graph(rng, int(rng.integers(1, 30)), rng.random()), epsilon)

    def test_stored_loops_and_repeats_keep_the_sorted_order(self):
        # neither comes out of from_edges: a stored (1, 1) precedes the added
        # diagonal entry and a repeated entry stays twice, as a stable sort keeps
        # them; at epsilon 1 the loop and the diagonal hold the same value
        for epsilon in (0.5, 1.0, 2.0):
            self.assert_bitwise(Graph(3, [0, 2, 4, 6], [1, 1, 1, 1, 2, 2]), epsilon)

    def test_unsorted_rows_are_refused(self):
        with pytest.raises(ValueError, match="column-sorted rows"):
            normalized_adjacency(Graph(3, [0, 2, 3, 4], [2, 1, 0, 0]))


def test_disjoint_union_adjacency_is_block_diagonal(random_graph):
    rng = np.random.default_rng(6)
    parts = [random_graph(rng, n) for n in (5, 1, 8)] + [Graph.from_edges(3, [])]
    union = Dataset("d", [AttributedGraph(g, np.ones((g.num_nodes, 1)), 0) for g in parts],
                    num_classes=1, feature_dim=1).union
    assert union.num_nodes == 17 and union.edge_count == sum(g.edge_count for g in parts)
    whole = normalized_adjacency(union).matrix
    blocks = block_diag([normalized_adjacency(g).matrix for g in parts])
    for a, b in ((whole.indptr, blocks.indptr), (whole.indices, blocks.indices),
                 (whole.data, blocks.data)):
        np.testing.assert_array_equal(a, b)


def test_dataset_degree_cap():
    ds = Dataset("d", [
        AttributedGraph(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), np.ones((4, 1)), 0),
        AttributedGraph(Graph.from_edges(2, [(0, 1)]), np.ones((2, 1)), 0),
    ], num_classes=1, feature_dim=1)
    assert ds.degree_cap == 3


class TestDataset:
    def _two_graphs(self, label=1):
        graphs = [AttributedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), np.eye(3)[:, :2], 0),
                  AttributedGraph(Graph.from_edges(2, [(0, 1)]), np.ones((2, 2)), label)]
        return Dataset("d", graphs, num_classes=2, feature_dim=2)

    def test_is_immutable(self):
        """It keeps what it derives from its graphs, so neither it nor they may change."""
        ds = self._two_graphs()
        assert isinstance(ds.graphs, tuple)
        g = ds.graphs[0]
        for obj, field in ((ds, "name"), (ds, "graphs"), (ds, "num_classes"),
                           (g, "node_features"), (g, "label"), (g.graph, "indices")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, None)
        with pytest.raises(ValueError, match="read-only"):
            ds.sizes[0] = 7

    def test_derived_facts_are_computed_once(self, monkeypatch):
        ds = self._two_graphs()
        names = ("sizes", "union", "degree_cap", "fingerprint")
        first = [getattr(ds, name) for name in names]
        np.testing.assert_array_equal(ds.sizes, [3, 2])
        assert ds.union.num_nodes == 5 and ds.degree_cap == 2
        monkeypatch.setattr(hashlib, "sha256", None)  # computing any of them again fails
        monkeypatch.setattr("gfnlab.graphs.stack_diagonal", None)
        assert all(getattr(ds, name) is fact for name, fact in zip(names, first))

    def test_fingerprint_covers_the_content(self):
        same = self._two_graphs().fingerprint
        assert self._two_graphs().fingerprint == same
        assert len(same) == 64 and set(same) <= set("0123456789abcdef")
        assert self._two_graphs(label=0).fingerprint != same
        graphs = list(self._two_graphs().graphs)
        graphs[1] = AttributedGraph(graphs[1].graph, np.full((2, 2), 2.0), 1)
        assert Dataset("d", graphs, num_classes=2, feature_dim=2).fingerprint != same
        graphs[1] = AttributedGraph(Graph.from_edges(2, []), np.ones((2, 2)), 1)
        assert Dataset("d", graphs, num_classes=2, feature_dim=2).fingerprint != same

    def test_label_range_enforced(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            Dataset("d", [AttributedGraph(g, np.ones((2, 1)), 5)], num_classes=2, feature_dim=1)

    def test_feature_dim_enforced(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            Dataset("d", [AttributedGraph(g, np.ones((2, 2)), 0)], num_classes=1, feature_dim=1)

    def test_empty_dataset_refused(self):
        with pytest.raises(DataError, match="dataset d holds no graphs"):
            Dataset("d", [], num_classes=2, feature_dim=1)

    def test_feature_row_count_enforced(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(DataError):
            AttributedGraph(g, np.ones((3, 1)), 0)


class TestStratifiedKFold:
    def _dataset_with_labels(self, labels):
        g = Graph.from_edges(2, [(0, 1)])
        graphs = [AttributedGraph(g, np.ones((2, 1)), int(y)) for y in labels]
        return Dataset("d", graphs, num_classes=int(max(labels)) + 1, feature_dim=1)

    def test_partition_is_exact(self):
        ds = self._dataset_with_labels([0] * 30 + [1] * 17)
        plan = stratified_kfold(ds, 5, seed=0)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(47))
        for f in range(5):
            assert np.intersect1d(plan.test_indices(f), plan.train_indices(f)).size == 0

    def test_fold_sizes_within_one(self):
        ds = self._dataset_with_labels([0] * 33 + [1] * 14 + [2] * 8)
        plan = stratified_kfold(ds, 4, seed=3)
        sizes = [plan.test_indices(f).size for f in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_class_counts_within_one_per_fold(self):
        labels = [0] * 125 + [1] * 63
        ds = self._dataset_with_labels(labels)
        plan = stratified_kfold(ds, 10, seed=1)
        y = ds.labels
        for cls in (0, 1):
            per_fold = [int((y[plan.test_indices(f)] == cls).sum()) for f in range(10)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_188_graph_two_class_split_sizes(self):
        # 125/63 class mix over 10 folds must land on eight 19s and two 18s
        ds = self._dataset_with_labels([0] * 125 + [1] * 63)
        plan = stratified_kfold(ds, 10, seed=0)
        sizes = sorted(plan.test_indices(f).size for f in range(10))
        assert sizes == [18, 18] + [19] * 8

    def test_deterministic_per_seed(self):
        ds = self._dataset_with_labels([0] * 20 + [1] * 20)
        a = stratified_kfold(ds, 5, seed=7).assignments
        b = stratified_kfold(ds, 5, seed=7).assignments
        c = stratified_kfold(ds, 5, seed=8).assignments
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    def test_small_class_warns(self):
        ds = self._dataset_with_labels([0] * 20 + [1] * 2)
        with pytest.warns(UserWarning, match="fewer than k"):
            stratified_kfold(ds, 5, seed=0)

    def test_k_below_two_rejected(self):
        ds = self._dataset_with_labels([0, 1])
        with pytest.raises(ValueError):
            stratified_kfold(ds, 1, seed=0)

    def test_k_above_graph_count_rejected(self):
        # a fourth fold of three graphs would have an empty test set
        ds = self._dataset_with_labels([0, 1, 0])
        with pytest.raises(ValueError, match="at most the 3 graphs"):
            stratified_kfold(ds, 4, seed=0)


class TestSyntheticCorpora:
    def test_cycles_vs_stars_structure(self):
        ds = generate_synthetic_dataset(40, seed=1)
        assert len(ds) == 40 and ds.num_classes == 2
        for g in ds.graphs:
            degs = node_degrees(g.graph)
            if g.label == 0:
                assert (degs == 2).all()  # cycle
            else:
                assert degs.max() == g.graph.num_nodes - 1  # star hub

    def test_generation_is_deterministic(self):
        a = generate_synthetic_dataset(10, seed=3)
        b = generate_synthetic_dataset(10, seed=3)
        for ga, gb in zip(a.graphs, b.graphs):
            np.testing.assert_array_equal(ga.graph.indices, gb.graph.indices)

    def test_dense_corpus_edge_ratio(self):
        ds = generate_dense_synthetic(20, seed=2)
        for g in ds.graphs:
            assert g.graph.edge_count >= 5 * g.graph.num_nodes

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(1, seed=0)
