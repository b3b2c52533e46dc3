import re
import tracemalloc

import numpy as np
import pytest

from gfnlab.features import (
    FeatureSpec,
    augment,
    default_cache_dir,
    export_csv,
    precompute_dataset,
)
from gfnlab.graphs import AttributedGraph, Dataset, Graph, normalized_adjacency
from gfnlab.sparse import spmm


def small_dataset(num=6, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num):
        n = int(rng.integers(2, 7))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.6
        g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
        graphs.append(AttributedGraph(g, rng.standard_normal((n, 2)), i % 2))
    return Dataset("small", graphs, num_classes=2, feature_dim=2)


def block(feats, spec, degree_cap, feature_dim, name):
    """The columns of one block, located through ``spec.column_names``."""
    names = spec.column_names(degree_cap, feature_dim)
    return feats[:, [i for i, c in enumerate(names) if c.rsplit("_", 1)[0] == name]]


class TestAugment:
    def test_two_node_path_hand_values(self):
        """Path on two nodes, X = [1, 0]^T: every propagation averages the
        two entries, so each propagated column is [1/2, 1/2]."""
        g = Graph.from_edges(2, [(0, 1)])
        spec = FeatureSpec(use_degree=False, K=2)
        out = augment(g, [np.array([[1.0], [0.0]])], spec, degree_cap=1)
        np.testing.assert_allclose(out, [[1.0, 0.5, 0.5], [0.0, 0.5, 0.5]], atol=1e-15)
        assert spec.column_names(1, 1) == ["x_0", "a1x_0", "a2x_0"]

    def test_block_order_and_widths(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        spec = FeatureSpec(use_degree=True, K=1)
        X = np.arange(6.0).reshape(3, 2)
        out = augment(g, [X], spec, degree_cap=4)
        assert spec.column_names(4, 2) == [
            "deg_0", "deg_1", "deg_2", "deg_3", "deg_4", "x_0", "x_1", "a1x_0", "a1x_1"]
        assert out.shape == (3, 5 + 2 + 2)
        np.testing.assert_array_equal(out[:, :5].argmax(axis=1), [1, 2, 1])
        np.testing.assert_array_equal(out[:, 5:7], X)
        np.testing.assert_allclose(out[:, 7:], spmm(normalized_adjacency(g).matrix, X), atol=1e-14)

    def test_degree_block_is_one_hot(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        spec = FeatureSpec(K=0)
        out = augment(g, [np.ones((3, 1))], spec, degree_cap=2)
        np.testing.assert_array_equal(block(out, spec, 2, 1, "deg"),
                                      [[0, 0, 1], [0, 1, 0], [0, 1, 0]])

    def test_degree_above_the_cap_lands_in_the_top_bucket(self):
        # degrees: node 0 has 7, nodes 1 and 2 have 2, node 8 has 0
        g = Graph.from_edges(9, [(0, i) for i in range(1, 8)] + [(1, 2)])
        spec = FeatureSpec(K=0)
        out = block(augment(g, [np.ones((9, 1))], spec, degree_cap=3), spec, 3, 1, "deg")
        assert out.shape == (9, 4)
        np.testing.assert_array_equal(out[[8, 1, 0]], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_row_blocks_equal_their_stack(self, random_graph):
        """X given as row blocks, whether views that tile one matrix or
        separate arrays, gives the bits of X given as one block."""
        rng = np.random.default_rng(6)
        g = random_graph(rng, 12)
        X = rng.standard_normal((12, 3))
        views = [X[:5], X[5:6], X[6:]]
        separate = [rng.standard_normal((n, 3)) for n in (4, 1, 7)]
        for blocks in (views, separate):
            for use_degree in (False, True):
                for K in range(4):
                    spec = FeatureSpec(use_degree=use_degree, K=K)
                    whole = augment(g, [np.concatenate(blocks)], spec, degree_cap=4)
                    assert np.array_equal(augment(g, blocks, spec, degree_cap=4), whole)

    def test_column_names_match_width(self, random_graph):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6)
        X = rng.standard_normal((6, 3))
        for use_degree in (False, True):
            for K in range(5):
                spec = FeatureSpec(use_degree=use_degree, K=K)
                out = augment(g, [X], spec, degree_cap=4)
                assert len(spec.column_names(4, 3)) == out.shape[1]

    def test_propagation_matches_iterated_spmm(self, random_graph):
        rng = np.random.default_rng(1)
        spec = FeatureSpec(use_degree=False, K=3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 9)))
            X = rng.standard_normal((g.num_nodes, 3))
            out = augment(g, [X], spec, degree_cap=1)
            adj = normalized_adjacency(g).matrix
            prop = X
            for k in (1, 2, 3):
                prop = spmm(adj, prop)
                np.testing.assert_allclose(block(out, spec, 1, 3, f"a{k}x"), prop, atol=1e-14)

    def test_linearity_in_x(self, random_graph):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6)
        spec = FeatureSpec(use_degree=False, K=2)
        X, Y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        combo = augment(g, [2.0 * X - 3.0 * Y], spec, 1)
        linear = 2.0 * augment(g, [X], spec, 1) - 3.0 * augment(g, [Y], spec, 1)
        np.testing.assert_allclose(combo, linear, atol=1e-12)

    def test_permutation_equivariance(self, random_graph):
        rng = np.random.default_rng(3)
        spec = FeatureSpec(use_degree=True, K=3)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n)
            X = rng.standard_normal((n, 2))
            base = augment(g, [X], spec, degree_cap=n)
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            src = np.repeat(np.arange(n), np.diff(g.indptr))
            g2 = Graph.from_edges(n, np.stack([inv[src], inv[g.indices]], axis=1))
            permuted = augment(g2, [X[perm]], spec, degree_cap=n)
            np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_depth_prefix_nesting(self, random_graph):
        # the K=2 matrix is a column prefix of the K=3 matrix
        rng = np.random.default_rng(4)
        g = random_graph(rng, 7)
        X = rng.standard_normal((7, 2))
        shallow = augment(g, [X], FeatureSpec(K=2), degree_cap=7)
        deep = augment(g, [X], FeatureSpec(K=3), degree_cap=7)
        np.testing.assert_array_equal(deep[:, : shallow.shape[1]], shallow)

    def test_row_count_checked(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            augment(g, [np.ones((3, 1))], FeatureSpec(), degree_cap=1)


class TestFeatureSpec:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec(K=-1)
        with pytest.raises(ValueError):
            FeatureSpec(epsilon=0.0)

    def test_cache_tokens_distinguish_specs(self):
        tokens = {
            FeatureSpec().cache_token(),
            FeatureSpec(K=2).cache_token(),
            FeatureSpec(use_degree=False).cache_token(),
            FeatureSpec(epsilon=2.0).cache_token(),
        }
        assert len(tokens) == 4


class TestCache:
    def test_cache_round_trip(self, tmp_path):
        ds = small_dataset()
        spec = FeatureSpec(K=2)
        first = precompute_dataset(ds, spec, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npy"))
        assert len(files) == 1
        second = precompute_dataset(ds, spec, cache_dir=tmp_path)
        assert len(first) == len(second) == len(ds)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
            assert b.dtype == np.float64

    def test_corrupt_cache_recomputed(self, tmp_path):
        ds = small_dataset()
        spec = FeatureSpec(K=1)
        expected = precompute_dataset(ds, spec, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.npy"))
        not_an_array = lambda p: p.write_bytes(b"not an array")
        wrong_shape = lambda p: np.save(p, np.zeros((3, 2)))
        for corrupt in (not_an_array, wrong_shape):
            corrupt(path)
            with pytest.warns(UserWarning, match="recomputing"):
                feats = precompute_dataset(ds, spec, cache_dir=tmp_path)
            assert len(feats) == len(ds)
            for a, b in zip(feats, expected):
                np.testing.assert_array_equal(a, b)

    def test_specs_get_distinct_cache_files(self, tmp_path):
        ds = small_dataset()
        precompute_dataset(ds, FeatureSpec(K=1), cache_dir=tmp_path)
        precompute_dataset(ds, FeatureSpec(K=2), cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npy"))) == 2

    def test_epsilons_that_print_alike_get_their_own_features(self, tmp_path):
        """The readable token rounds epsilon to 6 digits; the cache key must not."""
        ds = small_dataset()
        near, far = FeatureSpec(K=1, epsilon=0.5), FeatureSpec(K=1, epsilon=0.5000001)
        assert near.cache_token() == far.cache_token()
        precompute_dataset(ds, near, cache_dir=tmp_path)
        fresh = precompute_dataset(ds, far, cache_dir=tmp_path / "fresh")
        for _ in range(2):  # cold, then warm
            for f, e in zip(precompute_dataset(ds, far, cache_dir=tmp_path), fresh):
                assert np.array_equal(f, e)
        assert len(list(tmp_path.glob("*.npy"))) == 2

    def test_same_name_and_size_get_their_own_features(self, tmp_path):
        """Two datasets that share name, size and degree cap but not edges:
        3-node paths 0-1-2 against 3-node stars centred on node 0."""
        spec = FeatureSpec(K=2)

        def same(edges):
            graphs = [AttributedGraph(Graph.from_edges(3, edges), np.eye(3)[:, :2], i)
                      for i in range(2)]
            return Dataset("same", graphs, num_classes=2, feature_dim=2)

        for _ in range(2):  # cold, then warm
            for ds in (same([(0, 1), (1, 2)]), same([(0, 1), (0, 2)])):
                feats = precompute_dataset(ds, spec, cache_dir=tmp_path)
                for f, g in zip(feats, ds.graphs):
                    np.testing.assert_array_equal(f, augment(g.graph, [g.node_features], spec, 2))
        assert len(list(tmp_path.glob("*.npy"))) == 2
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".npy", ".npy"]

    def test_dataset_wide_propagation_equals_per_graph_augment(self, tmp_path, random_graph):
        rng = np.random.default_rng(8)
        shapes = [Graph.from_edges(1, []), Graph.from_edges(4, []),
                  Graph.from_edges(13, [(0, i) for i in range(1, 13)])]
        shapes += [random_graph(rng, n) for n in (6, 9, 3)]
        graphs = [AttributedGraph(g, rng.standard_normal((g.num_nodes, 3)), i % 2)
                  for i, g in enumerate(shapes)]
        ds = Dataset("mixed", graphs, num_classes=2, feature_dim=3)
        cap = ds.degree_cap
        for K in range(4):
            for use_degree in (True, False):
                spec = FeatureSpec(use_degree=use_degree, K=K)
                expected = [augment(g.graph, [g.node_features], spec, cap) for g in graphs]
                for _ in range(2):  # cold, then warm
                    feats = precompute_dataset(ds, spec, cache_dir=tmp_path)
                    assert len(feats) == len(expected)
                    for f, e in zip(feats, expected):
                        assert np.array_equal(f, e)

    def test_precompute_allocates_little_beyond_its_output(self, tmp_path):
        """Per-graph node features are written straight into the one output
        matrix, never stacked into a copy of their own first."""
        rng = np.random.default_rng(9)
        graphs = []
        for i in range(200):
            n = int(rng.integers(20, 40))
            g = Graph.from_edges(n, [(j, j + 1) for j in range(n - 1)])
            graphs.append(AttributedGraph(g, rng.standard_normal((n, 64)), i % 2))
        ds = Dataset("wide", graphs, num_classes=2, feature_dim=64)
        tracemalloc.start()
        try:
            feats = precompute_dataset(ds, FeatureSpec(use_degree=False, K=0), cache_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(f.nbytes for f in feats)
        assert peak < 1.5 * output, f"peak {peak / output:.2f}x the output bytes"

    def test_unwritable_cache_dir_warns_and_returns_the_features(self, tmp_path):
        ds = small_dataset()
        spec = FeatureSpec(K=2)
        expected = precompute_dataset(ds, spec, cache_dir=tmp_path / "cache")
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        for cache_dir in (blocker, blocker / "sub"):
            with pytest.warns(UserWarning, match=f"{re.escape(str(cache_dir))} is not writable"):
                feats = precompute_dataset(ds, spec, cache_dir=cache_dir)
            assert len(feats) == len(expected)
            for f, e in zip(feats, expected):
                assert np.array_equal(f, e)
        assert blocker.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "cache"]

    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GFNLAB_CACHE", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestExport:
    def test_csv_schema_and_values(self, tmp_path):
        ds = small_dataset(num=3)
        spec = FeatureSpec(use_degree=True, K=1)
        feats = precompute_dataset(ds, spec, cache_dir=tmp_path / "cache")
        paths = export_csv(ds, spec, feats, tmp_path / "csv")
        assert len(paths) == 3
        text = paths[0].read_text().splitlines()
        assert text[0] == "# " + ",".join(spec.column_names(ds.degree_cap, 2))
        assert text[0].startswith("# deg_0,")
        assert ",x_0," in text[0] and ",a1x_0," in text[0]
        body = np.loadtxt(paths[0], delimiter=",", comments="#", ndmin=2)
        np.testing.assert_allclose(body, feats[0], rtol=0, atol=0)

    def test_reexport_is_byte_identical(self, tmp_path):
        ds = small_dataset(num=2)
        spec = FeatureSpec(K=1)
        feats = precompute_dataset(ds, spec, cache_dir=tmp_path / "cache")
        a = export_csv(ds, spec, feats, tmp_path / "a")
        b = export_csv(ds, spec, feats, tmp_path / "b")
        assert a[0].read_bytes() == b[0].read_bytes()
