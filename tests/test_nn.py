"""Kernel-level checks for the hand-written layers.

Gradient tests rebuild each layer in float64 and compare its backward pass
against central finite differences; the training dtype (float32) is only
exercised in the shape/behavior tests.
"""

import numpy as np
import pytest

from conftest import finite_difference_grad
from gfnlab.nn import (
    BN_EPS,
    Affine,
    BatchNorm,
    Parameter,
    ParameterSet,
    ReLU,
    SegmentIndex,
    adam_step,
    glorot_uniform,
    segment_sum,
    segment_sum_backward,
    softmax,
    softmax_cross_entropy,
)


def rel_err(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


class TestAffine:
    def test_forward_hand_value(self):
        rng = np.random.default_rng(0)
        layer = Affine(2, 2, rng, dtype=np.float64)
        layer.weight.value[...] = [[1.0, 0.0], [0.0, 2.0]]
        layer.bias.value[...] = [10.0, 20.0]
        out = layer.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[13.0, 28.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, din, dout = rng.integers(1, 6, size=3)
            layer = Affine(int(din), int(dout), rng, dtype=np.float64)
            x = rng.standard_normal((int(n), int(din)))
            proj = rng.standard_normal((int(n), int(dout)))

            def loss():
                return float((layer.forward(x) * proj).sum())

            layer.weight.grad[...] = 0
            layer.bias.grad[...] = 0
            layer.forward(x)
            dx = layer.backward(proj)
            num_w, num_b, num_x = finite_difference_grad(
                loss, [layer.weight.value, layer.bias.value, x])
            assert rel_err(layer.weight.grad, num_w) < 1e-6
            assert rel_err(layer.bias.grad, num_b) < 1e-6
            assert rel_err(dx, num_x) < 1e-6

    def test_grads_accumulate_across_calls(self):
        rng = np.random.default_rng(2)
        layer = Affine(2, 2, rng, dtype=np.float64)
        x = rng.standard_normal((3, 2))
        g = rng.standard_normal((3, 2))
        layer.forward(x)
        layer.backward(g)
        once = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * once)

    def test_width_mismatch_raises(self):
        layer = Affine(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 4), dtype=np.float32))


class TestReLU:
    def test_forward_and_mask(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
        grad = layer.backward(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 5.0]])  # subgradient 0 at 0

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal((4, 5))
            x += np.sign(x) * 0.05  # keep clear of the nondifferentiable point
            proj = rng.standard_normal(x.shape)
            layer = ReLU()

            def loss():
                return float((layer.forward(x) * proj).sum())

            layer.forward(x)
            dx = layer.backward(proj)
            (num,) = finite_difference_grad(loss, [x])
            assert rel_err(dx, num) < 1e-6


class TestBatchNorm:
    def test_train_output_is_normalized(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(3, dtype=np.float64)
        x = rng.standard_normal((200, 3)) * 5 + 2
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1, atol=1e-3)

    def test_running_stats_update(self):
        bn = BatchNorm(2, dtype=np.float64)
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        bn.forward(x, train=True)
        # one step from (0, 1) toward batch mean (2, 4) and population var (1, 4)
        np.testing.assert_allclose(bn.running_mean, [0.2, 0.4])
        np.testing.assert_allclose(bn.running_var, [1.0 * 0.9 + 0.1 * 1.0, 0.9 + 0.1 * 4.0])

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.running_mean[...] = 3.0
        bn.running_var[...] = 4.0
        out = bn.forward(np.array([[5.0]]), train=False)
        np.testing.assert_allclose(out, [[(5.0 - 3.0) / np.sqrt(4.0 + BN_EPS)]])

    def test_single_row_training_batch_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn.forward(np.ones((1, 2), dtype=np.float32), train=True)
        bn.forward(np.ones((1, 2), dtype=np.float32), train=False)  # eval is fine

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = int(rng.integers(3, 8)), int(rng.integers(1, 5))
            bn = BatchNorm(d, dtype=np.float64)
            bn.gamma.value[...] = rng.uniform(0.5, 1.5, d)
            bn.beta.value[...] = rng.standard_normal(d)
            x = rng.standard_normal((n, d)) * 2
            proj = rng.standard_normal((n, d))

            def loss():
                return float((bn.forward(x, train=True) * proj).sum())

            bn.gamma.grad[...] = 0
            bn.beta.grad[...] = 0
            bn.forward(x, train=True)
            dx = bn.backward(proj)
            num_g, num_b, num_x = finite_difference_grad(
                loss, [bn.gamma.value, bn.beta.value, x])
            assert rel_err(bn.gamma.grad, num_g) < 1e-5
            assert rel_err(bn.beta.grad, num_b) < 1e-5
            assert rel_err(dx, num_x) < 1e-4

    def test_gradients_at_two_rows_and_a_constant_column(self):
        rng = np.random.default_rng(15)
        two_rows = rng.standard_normal((2, 3)) * 2
        constant = rng.standard_normal((5, 3)) * 2
        constant[:, 1] = 0.7  # var = 0, so inv_std = 1 / sqrt(eps)
        for x in (two_rows, constant):
            bn = BatchNorm(3, dtype=np.float64)
            bn.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta.value[...] = rng.standard_normal(3)
            proj = rng.standard_normal(x.shape)

            def loss():
                return float((bn.forward(x, train=True) * proj).sum())

            bn.forward(x, train=True)
            dx = bn.backward(proj)
            num_g, num_b, num_x = finite_difference_grad(
                loss, [bn.gamma.value, bn.beta.value, x])
            assert rel_err(bn.gamma.grad, num_g) < 1e-5
            assert rel_err(bn.beta.grad, num_b) < 1e-5
            assert rel_err(dx, num_x) < 1e-4

    def test_float32_matches_float64_textbook(self):
        # a gfn-nci1-sized batch; the float32 layer against the textbook
        # formulas evaluated in float64 on the same inputs
        rng = np.random.default_rng(16)
        x = (rng.standard_normal((930, 128)) * 3 + 1).astype(np.float32)
        g = rng.standard_normal((930, 128)).astype(np.float32)
        bn = BatchNorm(128)
        bn.gamma.value[...] = rng.uniform(0.5, 1.5, 128)
        bn.beta.value[...] = rng.standard_normal(128)
        got = [bn.forward(x), bn.backward(g), bn.gamma.grad, bn.beta.grad,
               bn.forward(x, train=False)]
        X, G, gamma, beta, r_mean, r_var = (a.astype(np.float64) for a in (
            x, g, bn.gamma.value, bn.beta.value, bn.running_mean, bn.running_var))
        inv_std = 1.0 / np.sqrt(X.var(axis=0) + BN_EPS)
        x_hat = (X - X.mean(axis=0)) * inv_std
        want = [gamma * x_hat + beta,
                gamma * inv_std * (G - G.mean(axis=0) - x_hat * (G * x_hat).mean(axis=0)),
                (G * x_hat).sum(axis=0), G.sum(axis=0),
                gamma * (X - r_mean) / np.sqrt(r_var + BN_EPS) + beta]
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert rel_err(a, b) < 100 * np.finfo(np.float32).eps

    def test_eval_forward_keeps_running_stats_and_train_cache(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        g = rng.standard_normal((6, 4)).astype(np.float32)
        bn = BatchNorm(4)
        bn.forward(x, train=True)
        running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
        dx = bn.backward(g)
        bn.forward(3 * x + 1, train=False)
        np.testing.assert_array_equal(bn.running_mean, running_mean)
        np.testing.assert_array_equal(bn.running_var, running_var)
        np.testing.assert_array_equal(bn.backward(g), dx)  # still the train forward's cache


class TestSegmentOps:
    def test_segment_sum_hand_value(self):
        seg = SegmentIndex.from_sizes([2, 1])
        x = np.array([[1.0], [2.0], [10.0]])
        np.testing.assert_array_equal(segment_sum(x, seg), [[3.0], [10.0]])

    def test_empty_segment_sums_to_zero(self):
        seg = SegmentIndex.from_sizes([2, 0, 1])
        x = np.array([[1.0], [2.0], [5.0]])
        np.testing.assert_array_equal(segment_sum(x, seg), [[3.0], [0.0], [5.0]])

    def test_backward_repeats_rows(self):
        seg = SegmentIndex.from_sizes([2, 0, 1])
        g = np.array([[1.0], [7.0], [3.0]])
        np.testing.assert_array_equal(segment_sum_backward(g, seg),
                                      [[1.0], [1.0], [3.0]])

    def test_backward_is_adjoint_of_forward(self):
        # <segment_sum(x), g> == <x, segment_sum_backward(g)> for random inputs
        rng = np.random.default_rng(6)
        sizes = [3, 1, 0, 4]
        seg = SegmentIndex.from_sizes(sizes)
        x = rng.standard_normal((sum(sizes), 5))
        g = rng.standard_normal((len(sizes), 5))
        lhs = float((segment_sum(x, seg) * g).sum())
        rhs = float((x * segment_sum_backward(g, seg)).sum())
        assert abs(lhs - rhs) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        seg = SegmentIndex.from_sizes([2, 3])
        x = rng.standard_normal((5, 3))
        proj = rng.standard_normal((2, 3))

        def loss():
            return float((segment_sum(x, seg) * proj).sum())

        dx = segment_sum_backward(proj, seg)
        (num,) = finite_difference_grad(loss, [x])
        assert rel_err(dx, num) < 1e-7

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SegmentIndex([0, 2, 1])
        with pytest.raises(ValueError):
            SegmentIndex([1, 2])
        assert SegmentIndex.from_sizes([2, 0, 3]).num_rows == 5
        seg = SegmentIndex.from_sizes([2])
        with pytest.raises(ValueError):
            segment_sum(np.ones((3, 1)), seg)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
        assert abs(loss - np.log(2.0)) < 1e-12
        np.testing.assert_allclose(grad, [[-0.5, 0.5]])

    def test_huge_logits_stay_finite(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])
        loss, grad = softmax_cross_entropy(np.array([[1000.0, 1000.0]]), np.array([1]))
        assert np.isfinite(loss) and abs(loss - np.log(2.0)) < 1e-12
        assert np.isfinite(grad).all()

    def test_certain_wrong_prediction(self):
        loss, _ = softmax_cross_entropy(np.array([[-500.0, 500.0]]), np.array([0]))
        assert np.isfinite(loss) and loss > 100

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            logits = rng.standard_normal((n, c))
            labels = rng.integers(0, c, n)

            def loss():
                return softmax_cross_entropy(logits, labels)[0]

            _, grad = softmax_cross_entropy(logits, labels)
            (num,) = finite_difference_grad(loss, [logits])
            assert rel_err(grad, num) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 2)), np.array([2]))

    def test_row_with_zero_loss_has_zero_gradient(self):
        # Row 0's true-class probability rounds to 1 in float32 while the
        # other class keeps 1e-40, a subnormal; row 1 is an ordinary row.
        logits = np.array([[0.0, -92.1], [0.3, -0.2]], dtype=np.float32)
        labels = np.array([0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert softmax(logits)[0, 0] == 1 and 0 < softmax(logits)[0, 1] < np.finfo(np.float32).tiny
        np.testing.assert_array_equal(grad[0], [0, 0])
        _, alone = softmax_cross_entropy(logits[1:], labels[1:])
        np.testing.assert_array_equal(grad[1], alone[0] / 2)
        assert loss == softmax_cross_entropy(logits[1:], labels[1:])[0] / 2


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        # with zero moments, one step moves each entry by ~lr * sign(grad)
        g = np.array([3.0, -0.5, 1e-3, -7.0])
        p = Parameter("w", np.zeros(4))
        p.grad[...] = g
        adam_step(ParameterSet([p]), lr=0.01)
        np.testing.assert_allclose(p.value, -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-5)

    def test_grads_zeroed_and_step_counted(self):
        p = Parameter("w", np.ones(2))
        p.grad[...] = 1.0
        params = ParameterSet([p])
        adam_step(params, lr=0.1)
        assert params.step == 1
        np.testing.assert_array_equal(p.grad, 0)

    def test_zero_lr_freezes_values(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.grad[...] = [5.0, -5.0]
        adam_step(ParameterSet([p]), lr=0.0)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2; a few hundred steps should land close
        p = Parameter("w", np.array([0.0]))
        params = ParameterSet([p])
        for _ in range(500):
            p.grad[...] = 2 * (p.value - 3.0)
            adam_step(params, lr=0.05)
        assert abs(p.value[0] - 3.0) < 1e-2

    def test_bias_correction_against_reference(self):
        # three steps with constant gradient, compared to a direct transcription
        # of the update rule
        g = np.array([0.3, -1.2])
        p = Parameter("w", np.zeros(2))
        params = ParameterSet([p])
        for _ in range(3):
            p.grad[...] = g
            adam_step(params, lr=0.1)
        m = v = np.zeros(2)
        w = np.zeros(2)
        for t in range(1, 4):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            w = w - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.value, w, atol=1e-12)

    def test_flat_step_matches_per_parameter_loop(self):
        # reference: the textbook update, applied one parameter at a time
        def reference_step(states, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            for s in states:
                s["step"] += 1
                s["m"][...] = beta1 * s["m"] + (1 - beta1) * s["grad"]
                s["v"][...] = beta2 * s["v"] + (1 - beta2) * s["grad"]**2
                m_hat = s["m"] / (1 - beta1**s["step"])
                v_hat = s["v"] / (1 - beta2**s["step"])
                s["value"][...] -= lr * m_hat / (np.sqrt(v_hat) + eps)
                s["grad"][...] = 0

        rng = np.random.default_rng(12)
        shapes = [(3, 4), (4,), (2, 5)]
        values = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        params = ParameterSet([Parameter(f"p{i}", v.copy()) for i, v in enumerate(values)])
        states = [dict(value=v.copy(), grad=np.zeros_like(v), m=np.zeros_like(v),
                       v=np.zeros_like(v), step=0) for v in values]
        for _ in range(5):
            for p, s in zip(params, states):
                g = rng.standard_normal(p.value.shape).astype(np.float32)
                p.grad[...] = g
                s["grad"][...] = g
            adam_step(params, lr=0.01)
            reference_step(states, lr=0.01)
        for p, s in zip(params, states):
            assert p.value.dtype == np.float32
            np.testing.assert_array_equal(p.value, s["value"])


class TestExactBits:
    """Each float32 layer equals, bit for bit, the textbook expression it
    evaluates in reused temporaries. Reports stay byte-identical only while
    these hold; a reordered operation shows here first."""

    rng = np.random.default_rng(13)
    x = (rng.standard_normal((97, 16)) * 3 + 1).astype(np.float32)
    g = rng.standard_normal((97, 16)).astype(np.float32)

    def test_affine(self):
        layer = Affine(16, 8, np.random.default_rng(0))
        layer.bias.value[...] = self.rng.standard_normal(8)
        W, b = layer.weight.value, layer.bias.value
        g = self.g[:, :8].copy()
        np.testing.assert_array_equal(layer.forward(self.x), self.x @ W + b)
        np.testing.assert_array_equal(layer.backward(g), g @ W.T)
        np.testing.assert_array_equal(layer.weight.grad, self.x.T @ g)
        np.testing.assert_array_equal(layer.bias.grad, np.ones(97, np.float32) @ g)
        assert layer.backward(g, input_grad=False) is None
        np.testing.assert_array_equal(layer.weight.grad, self.x.T @ g + self.x.T @ g)

    def test_relu(self):
        layer = ReLU()
        np.testing.assert_array_equal(layer.forward(self.x), np.maximum(self.x, 0))
        g = self.g.copy()
        dx = layer.backward(g)
        assert dx is g  # masked in place
        np.testing.assert_array_equal(dx, self.g * (self.x > 0))
        layer.forward(-self.x, train=False)  # eval keeps the train-mode mask
        np.testing.assert_array_equal(layer.backward(self.g.copy()), self.g * (self.x > 0))

    def test_batch_norm(self):
        bn = BatchNorm(16)
        bn.gamma.value[...] = self.rng.uniform(0.5, 1.5, 16)
        bn.beta.value[...] = self.rng.standard_normal(16)
        gamma, beta, eps, n = bn.gamma.value, bn.beta.value, BN_EPS, self.x.shape[0]
        ones = np.ones(n, np.float32)  # every column sum is this BLAS product
        running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
        x, g = self.x.copy(), self.g.copy()
        for batch in (x, 2 * x - 1):  # the second pass starts from nontrivial running stats
            out = bn.forward(batch, train=True)
            mean = ones @ batch / n
            var = ones @ np.square(batch - mean) / n
            inv_std = 1.0 / np.sqrt(var + eps)
            x_hat = (batch - mean) * inv_std
            np.testing.assert_array_equal(out, gamma * x_hat + beta)
            running_mean = 0.9 * running_mean + 0.1 * mean
            running_var = 0.9 * running_var + 0.1 * var
            np.testing.assert_array_equal(bn.running_mean, running_mean)
            np.testing.assert_array_equal(bn.running_var, running_var)
        bn.gamma.grad[...] = 0
        bn.beta.grad[...] = 0
        dx = bn.backward(g)
        proj, g_sum = ones @ (g * x_hat), ones @ g
        np.testing.assert_array_equal(
            dx, gamma * inv_std * (g - x_hat * (proj / n) - g_sum / n))
        np.testing.assert_array_equal(bn.gamma.grad, proj)
        np.testing.assert_array_equal(bn.beta.grad, g_sum)
        eval_out = bn.forward(x, train=False)
        scale = gamma / np.sqrt(running_var + eps)
        np.testing.assert_array_equal(eval_out, x * scale + (beta - running_mean * scale))
        np.testing.assert_array_equal(x, self.x)  # inputs are never written
        np.testing.assert_array_equal(g, self.g)

    def test_adam_steps(self):
        value = self.x.ravel().copy()
        p = Parameter("w", value.copy())
        params = ParameterSet([p])
        m, v = np.zeros_like(value), np.zeros_like(value)
        for t in range(1, 5):
            g = self.g.ravel() * np.float32(10.0 ** (2 - 3 * t))  # down to 1e-10
            p.grad[...] = g
            adam_step(params, lr=0.01)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g**2
            value -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_array_equal(params.m, m)
            np.testing.assert_array_equal(params.v, v)
            np.testing.assert_array_equal(p.value, value)
            assert value.dtype == np.float32


class TestParameterSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParameterSet([Parameter("a", np.zeros(1)), Parameter("a", np.zeros(1))])

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            ParameterSet([Parameter("a", np.zeros(1, dtype=np.float32)),
                          Parameter("b", np.zeros(1))])

    def test_total_size_and_zero_grads(self):
        params = ParameterSet([
            Parameter("a", np.zeros((2, 3))),
            Parameter("b", np.zeros(4)),
        ])
        assert params.value.size == params.grad.size == 10
        params["a"].grad[...] = 1.0
        assert params.grad.sum() == 6
        params.grad[...] = 0
        np.testing.assert_array_equal(params["a"].grad, 0)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(9)
    w = glorot_uniform(rng, 30, 50, np.float64)
    limit = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= limit
    assert abs(w.mean()) < 0.05
