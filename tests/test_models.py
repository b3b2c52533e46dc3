import numpy as np
import pytest

from conftest import collapse_linear_gcn, finite_difference_grad
from gfnlab import models
from gfnlab.features import FeatureSpec, augment
from gfnlab.graphs import Graph, normalized_adjacency
from gfnlab.models import (
    GraphConv,
    ModelConfig,
    ModelInstance,
    make_batch,
)
from gfnlab.nn import Affine, segment_sum_backward, softmax_cross_entropy
from gfnlab.sparse import spmm


def random_attributed(rng, n, spec, p=0.5, num_feats=2, degree_cap=None):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
    X = rng.standard_normal((n, num_feats))
    feats = augment(g, [X], spec, degree_cap or n).astype(np.float32)
    adj = normalized_adjacency(g, spec.epsilon).matrix.astype(np.float32)
    return g, feats, adj


class TestModelConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="mlp", num_classes=2)

    def test_per_kind_feature_defaults(self):
        assert ModelConfig(kind="gcn", num_classes=2).feature_spec.K == 0
        assert ModelConfig(kind="gfn", num_classes=2).feature_spec.K == 3
        assert ModelConfig(kind="gln", num_classes=2).feature_spec.use_degree

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelConfig(kind="gfn", num_classes=2, num_conv_layers=-1)

    def test_needs_adjacency_flag(self):
        assert ModelConfig(kind="gcn", num_classes=2).needs_adjacency
        assert not any(ModelConfig(kind=kind, num_classes=2).needs_adjacency
                       for kind in ("gfn", "gfn-light", "gln"))


class TestParameterCounts:
    def test_gcn_default_closed_form(self):
        """1 input dense + 3 aggregating transforms + 2 head layers at width
        128, each node block carrying a 2*128-parameter normalization."""
        in_dim, h, c = 20, 128, 2
        model = ModelInstance(ModelConfig(kind="gcn", num_classes=c), in_dim, seed=0)
        expected = (
            (in_dim * h + h)        # input transform
            + 3 * (h * h + h)       # aggregating transforms
            + 4 * (2 * h)           # per-block normalization scale/shift
            + (h * h + h)           # head hidden
            + (h * c + c)           # classifier
        )
        assert model.params.value.size == expected

    def test_gfn_matches_gcn_count(self):
        a = ModelInstance(ModelConfig(kind="gcn", num_classes=3), 17, seed=0)
        b = ModelInstance(ModelConfig(kind="gfn", num_classes=3), 17, seed=0)
        assert a.params.value.size == b.params.value.size

    def test_gln_is_one_affine_map(self):
        f, c = 23, 5
        model = ModelInstance(ModelConfig(kind="gln", num_classes=c), f, seed=0)
        assert model.params.value.size == f * c + c

    def test_gfn_light_single_transform(self):
        f, h, c = 11, 64, 3
        cfg = ModelConfig(kind="gfn-light", num_classes=c, hidden_dim=h)
        model = ModelInstance(cfg, f, seed=0)
        expected = (f * h + h) + (2 * h) + (h * h + h) + (h * c + c)
        assert model.params.value.size == expected

    @pytest.mark.parametrize("kind", ["gcn", "gfn", "gfn-light", "gln"])
    def test_parameters_are_views_of_the_flat_buffers(self, kind):
        model = ModelInstance(ModelConfig(kind=kind, num_classes=3), 9, seed=0)
        params = model.params
        for p in params:
            assert np.shares_memory(p.value, params.value)
            assert np.shares_memory(p.grad, params.grad)
        assert sum(p.value.size for p in params) == params.value.size
        assert sum(p.grad.size for p in params) == params.grad.size


class TestGraphConv:
    def test_two_node_path_hand_value(self):
        g = Graph.from_edges(2, [(0, 1)])
        adj = normalized_adjacency(g).matrix
        layer = GraphConv(1, 1, np.random.default_rng(0), dtype=np.float64)
        layer.weight.value[...] = [[1.0]]
        out = layer.forward(np.array([[1.0], [0.0]]), adj)
        np.testing.assert_allclose(out, [[0.5], [0.5]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < 0.6
            g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
            adj = normalized_adjacency(g).matrix
            layer = GraphConv(3, 2, rng, dtype=np.float64)
            x = rng.standard_normal((n, 3))
            proj = rng.standard_normal((n, 2))

            def loss():
                return float((layer.forward(x, adj) * proj).sum())

            layer.weight.grad[...] = 0
            layer.bias.grad[...] = 0
            layer.forward(x, adj)
            dx = layer.backward(proj)
            num_w, num_b, num_x = finite_difference_grad(
                loss, [layer.weight.value, layer.bias.value, x])
            scale = lambda a, b: np.abs(a - b).max() / max(np.abs(b).max(), 1e-8)
            assert scale(layer.weight.grad, num_w) < 1e-6
            assert scale(layer.bias.grad, num_b) < 1e-6
            assert scale(dx, num_x) < 1e-6


class TestLinearCollapse:
    def test_identity_activation_stack_collapses(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < 0.5
            g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
            adj = normalized_adjacency(g).matrix
            X = rng.standard_normal((n, 3))
            Ws = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
            layered = X
            for W in Ws:
                layered = spmm(adj, layered) @ W
            collapsed = collapse_linear_gcn(Ws, adj, X)
            np.testing.assert_allclose(collapsed, layered, atol=1e-12)

    def test_no_weights_is_pure_propagation(self):
        g = Graph.from_edges(2, [(0, 1)])
        adj = normalized_adjacency(g).matrix
        X = np.array([[1.0], [0.0]])
        np.testing.assert_array_equal(collapse_linear_gcn([], adj, X), X)

    def test_unchainable_weights_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        adj = normalized_adjacency(g).matrix
        with pytest.raises(ValueError):
            collapse_linear_gcn([np.ones((3, 4)), np.ones((5, 2))], adj, np.ones((2, 3)))


class TestMirrorConstruction:
    def test_same_seed_gives_identical_parameters(self):
        """The aggregating model and its feature-moved twin consume the seed
        stream in the same order, so their initial tensors match bitwise."""
        gcn = ModelInstance(ModelConfig(kind="gcn", num_classes=3), 13, seed=42)
        gfn = ModelInstance(ModelConfig(kind="gfn", num_classes=3), 13, seed=42)
        assert [p.name for p in gcn.params] == [p.name for p in gfn.params]
        for a, b in zip(gcn.params, gfn.params):
            np.testing.assert_array_equal(a.value, b.value)

    def test_identical_outputs_on_edgeless_graphs(self):
        # with no edges the normalized adjacency is the identity, so the
        # aggregating forward and the dense forward coincide exactly
        rng = np.random.default_rng(3)
        spec = FeatureSpec(use_degree=True, K=0)
        feats, adjs = [], []
        for _ in range(3):
            n = int(rng.integers(2, 6))
            g = Graph.from_edges(n, [])
            feats.append(augment(g, [rng.standard_normal((n, 2))], spec, 3).astype(np.float32))
            adjs.append(normalized_adjacency(g).matrix.astype(np.float32))
        labels = np.array([0, 1, 2])
        gcn_cfg = ModelConfig(kind="gcn", num_classes=3, feature_spec=spec)
        gfn_cfg = ModelConfig(kind="gfn", num_classes=3, feature_spec=spec)
        gcn = ModelInstance(gcn_cfg, feats[0].shape[1], seed=5)
        gfn = ModelInstance(gfn_cfg, feats[0].shape[1], seed=5)
        out_gcn = gcn.forward(make_batch(feats, labels, adjs), train=False)
        out_gfn = gfn.forward(make_batch(feats, labels), train=False)
        np.testing.assert_array_equal(out_gcn, out_gfn)


class TestForward:
    @pytest.mark.parametrize("kind", ["gcn", "gfn", "gfn-light", "gln"])
    def test_logit_shape(self, kind):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(kind=kind, num_classes=4, hidden_dim=16)
        feats, adjs, labels = [], [], []
        for i in range(5):
            _, f, a = random_attributed(rng, int(rng.integers(2, 7)), cfg.feature_spec,
                                        degree_cap=8)
            feats.append(f)
            adjs.append(a)
            labels.append(i % 4)
        model = ModelInstance(cfg, feats[0].shape[1], seed=0)
        batch = make_batch(feats, np.array(labels), adjs if kind == "gcn" else None)
        logits = model.forward(batch, train=False)
        assert logits.shape == (5, 4)
        loss, grad = softmax_cross_entropy(logits, batch.labels)
        assert np.isfinite(loss)
        model.forward(batch, train=True)
        model.backward(grad)  # smoke: gradients flow end to end

    def test_batch_equality_is_identity(self):
        feats = [np.ones((2, 3), np.float32), np.ones((3, 3), np.float32)]
        a = make_batch(feats, np.array([0, 1]))
        b = make_batch(feats[::-1], np.array([1, 0]))
        assert a == a and a != b  # == compares identity and never raises
        assert [b, a].index(a) == 1

    @pytest.mark.parametrize("kind", ["gcn", "gfn", "gfn-light", "gln"])
    def test_batch_composition_does_not_change_eval_outputs(self, kind):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(kind=kind, num_classes=3, hidden_dim=16)
        feats, adjs = [], []
        for _ in range(6):
            _, f, a = random_attributed(rng, int(rng.integers(2, 7)), cfg.feature_spec,
                                        degree_cap=8)
            feats.append(f)
            adjs.append(a)
        model = ModelInstance(cfg, feats[0].shape[1], seed=1)
        labels = np.zeros(6, dtype=np.int64)
        whole = model.forward(
            make_batch(feats, labels, adjs if kind == "gcn" else None), train=False)
        singles = np.concatenate([
            model.forward(
                make_batch([f], labels[:1], [a] if kind == "gcn" else None), train=False)
            for f, a in zip(feats, adjs)
        ])
        np.testing.assert_allclose(whole, singles, atol=1e-5)

    @pytest.mark.parametrize("kind", ["gcn", "gfn", "gfn-light", "gln"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(kind=kind, num_classes=3, hidden_dim=16)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < 0.5
            edges = np.stack([iu[keep], ju[keep]], axis=1)
            g = Graph.from_edges(n, edges)
            X = rng.standard_normal((n, 2))
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            g2 = Graph.from_edges(n, np.stack([inv[edges[:, 0]], inv[edges[:, 1]]], axis=1)
                                  if edges.size else edges)
            model = None
            outs = []
            for graph, x in ((g, X), (g2, X[perm])):
                feats = augment(graph, [x], cfg.feature_spec, n).astype(np.float32)
                adj = normalized_adjacency(graph, cfg.feature_spec.epsilon).matrix.astype(np.float32)
                if model is None:
                    model = ModelInstance(cfg, feats.shape[1], seed=trial)
                batch = make_batch([feats], np.array([0]), [adj] if kind == "gcn" else None)
                outs.append(model.forward(batch, train=False))
            np.testing.assert_allclose(outs[0], outs[1], atol=1e-5)

    def test_gln_is_one_affine_map_of_the_pooled_features(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig(kind="gln", num_classes=3)
        feats = [rng.standard_normal((n, 6)).astype(np.float32) for n in (3, 5, 2)]
        model = ModelInstance(cfg, 6, seed=0)
        batch = make_batch(feats, np.array([0, 1, 2]))
        logits = model.forward(batch, train=False)
        W = model.params["head0.weight"].value
        b = model.params["head0.bias"].value
        pooled = np.stack([f.sum(axis=0) for f in feats])
        np.testing.assert_allclose(logits, pooled @ W + b, atol=1e-5)

    def test_batch_features_are_read_only(self):
        """An eval batch is scored every epoch, so a layer that wrote into
        its input would change the next epoch's batch: it raises instead."""
        batch = make_batch([np.ones((2, 4), dtype=np.float32)], np.array([0]))
        with pytest.raises(ValueError, match="read-only"):
            batch.features[0, 0] = 2.0

    def test_gcn_without_adjacency_rejected(self):
        cfg = ModelConfig(kind="gcn", num_classes=2)
        model = ModelInstance(cfg, 4, seed=0)
        batch = make_batch([np.ones((2, 4), dtype=np.float32)], np.array([0]))
        with pytest.raises(ValueError, match="adjacency"):
            model.forward(batch, train=False)

    @pytest.mark.parametrize("kind", ["gcn", "gfn", "gfn-light", "gln"])
    def test_wrong_feature_width_rejected(self, kind):
        """The bottom layer refuses the batch before batch norm moves its
        running statistics."""
        cfg = ModelConfig(kind=kind, num_classes=2, hidden_dim=8)
        model = ModelInstance(cfg, 4, seed=0)
        adj = normalized_adjacency(Graph.from_edges(2, [(0, 1)])).matrix.astype(np.float32)
        batch = make_batch([np.ones((2, 3), dtype=np.float32)], np.array([0]),
                           [adj] if cfg.needs_adjacency else None)
        norms = [bn for _, bn, _ in model.node_blocks]
        before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in norms]
        with pytest.raises(ValueError, match="feature columns"):
            model.forward(batch, train=True)
        for bn, (mean, var) in zip(norms, before):
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)


KINDS = ["gcn", "gfn", "gfn-light", "gln"]


def _train_pass(kind, seed=8):
    """A model of ``kind``, a five-graph batch, and the loss gradient of one
    train-mode forward over it."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(kind=kind, num_classes=3, hidden_dim=16)
    feats, adjs = [], []
    for _ in range(5):
        _, f, a = random_attributed(rng, int(rng.integers(2, 7)), cfg.feature_spec, degree_cap=8)
        feats.append(f)
        adjs.append(a)
    model = ModelInstance(cfg, feats[0].shape[1], seed=seed)
    batch = make_batch(feats, np.array([0, 1, 2, 0, 1]), adjs if cfg.needs_adjacency else None)
    _, grad = softmax_cross_entropy(model.forward(batch, train=True), batch.labels)
    return model, batch, grad


class TestBackward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_train_step_leaves_the_batch_features_unchanged(self, kind):
        model, batch, grad = _train_pass(kind)
        before = batch.features.copy()
        model.forward(batch, train=True)
        model.backward(grad)
        np.testing.assert_array_equal(batch.features, before)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bottom_layer_computes_no_input_gradient(self, kind, monkeypatch):
        calls = []
        original = Affine.backward

        def spy(layer, grad_out, input_grad=True):
            result = original(layer, grad_out, input_grad)
            calls.append((layer.weight.name, result is None))
            return result

        monkeypatch.setattr(Affine, "backward", spy)
        model, _, grad = _train_pass(kind)
        model.backward(grad)
        bottom = "head0.weight" if kind == "gln" else "node0.weight"
        assert [name for name, skipped in calls if skipped] == [bottom]
        assert calls[-1] == (bottom, True)

    def test_gln_skips_the_pooling_backward(self, monkeypatch):
        def unused(*args):
            raise AssertionError("gln's pooled input needs no gradient")

        monkeypatch.setattr(models, "segment_sum_backward", unused)
        model, _, grad = _train_pass("gln")
        model.backward(grad)
        assert np.abs(model.params.grad).sum() > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_gradients_equal_the_full_chain(self, kind):
        model, batch, grad = _train_pass(kind)
        model.backward(grad)
        skipped = model.params.grad.copy()
        model.params.grad[...] = 0
        # every layer returns its input gradient, the pooling one included
        g = grad
        for layer in reversed(model.head):
            g = layer.backward(g)
        g = segment_sum_backward(g, batch.seg)
        for block in reversed(model.node_blocks):
            for layer in reversed(block):
                g = layer.backward(g)
        assert g.shape == batch.features.shape
        np.testing.assert_array_equal(model.params.grad, skipped)
