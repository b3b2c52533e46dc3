"""Dense tensor kernels with hand-written reverse-mode gradients.

Layers cache whatever their backward pass needs during forward. Training
normally runs in float32; gradient checks rebuild the same layers in float64
and compare against central finite differences. Layers write into temporaries
they made themselves, never into an input, except where ``ReLU.backward``
says so; each in-place form keeps the operations and operand order of the
textbook expression it evaluates, so its results equal that expression's bit
for bit. A column sum is ``np.ones(n, x.dtype) @ x``, a BLAS matrix-vector
product several times faster than ``x.sum(axis=0)``; like the matmuls, its
float32 rounding depends on the BLAS build and thread count, so results
reproduce bit for bit only for a fixed BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Parameter:
    """A trainable array with its gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


class ParameterSet:
    """Ordered, name-addressed parameters whose values and gradients are
    views of the flat ``value`` and ``grad`` buffers, so Adam (state ``m``,
    ``v``, ``step``, and two ``scratch`` rows) updates them all at once."""

    def __init__(self, params):
        self._params: dict[str, Parameter] = {}
        for p in params:
            if p.name in self._params:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            self._params[p.name] = p
        dtypes = {a.dtype for p in self for a in (p.value, p.grad)}
        if len(dtypes) > 1:
            raise ValueError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        self.value = np.concatenate([p.value.ravel() for p in self])
        self.grad = np.concatenate([p.grad.ravel() for p in self])
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.scratch = np.empty((2, self.value.size), dtype=self.value.dtype)
        self.step = 0
        start = 0
        for p in self:
            end = start + p.value.size
            p.value = self.value[start:end].reshape(p.value.shape)
            p.grad = self.grad[start:end].reshape(p.value.shape)
            start = end

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
BN_MOMENTUM, BN_EPS = 0.1, 1e-5


def adam_step(params: ParameterSet, lr: float) -> None:
    """One bias-corrected Adam update of every parameter; gradients are zeroed after.
    In place, with the roundings of ``value -= lr * m_hat / (sqrt(v_hat) + eps)``."""
    params.step += 1
    m, v, g = params.m, params.v, params.grad
    denom, update = params.scratch
    m *= ADAM_BETA1
    m += np.multiply(1 - ADAM_BETA1, g, out=update)
    v *= ADAM_BETA2
    np.square(g, out=denom)
    v += np.multiply(1 - ADAM_BETA2, denom, out=denom)
    np.sqrt(np.divide(v, 1 - ADAM_BETA2**params.step, out=denom), out=denom)
    denom += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1**params.step, out=update)
    update *= lr
    update /= denom
    params.value -= update
    g[...] = 0


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


class Affine:
    """x @ W + b with exact input/weight/bias gradients."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32, name: str = "affine"):
        self.weight = Parameter(f"{name}.weight", glorot_uniform(rng, in_dim, out_dim, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim, dtype=dtype))
        self._x = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.shape[1] != self.weight.value.shape[0]:
            raise ValueError(
                f"affine expects {self.weight.value.shape[0]} feature columns, got {x.shape[1]}"
            )
        self._x = x
        out = x @ self.weight.value
        out += self.bias.value
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the weight and bias gradients and return the input
        gradient; with ``input_grad=False`` (a bottom layer, whose input needs
        no gradient) return None and skip its matmul."""
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += np.ones(grad_out.shape[0], grad_out.dtype) @ grad_out
        return grad_out @ self.weight.value.T if input_grad else None


class ReLU:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0.

    Forward keeps the mask only in train mode. Backward masks ``grad_out`` in
    place and returns it, so the caller must own that array and not read it
    again: in a model it is the gradient the layer above just made.
    """

    def __init__(self):
        self._mask = None

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out *= self._mask
        return grad_out


class BatchNorm:
    """Per-feature batch normalization (population-variance convention).

    Train mode normalizes by batch statistics, each a column sum divided by
    the row count, and folds them into the running estimates with momentum
    ``BN_MOMENTUM``. Eval mode applies the running statistics as one
    per-column scale ``s = gamma / sqrt(running_var + BN_EPS)`` and shift
    ``beta - running_mean * s``, and changes neither the running statistics
    nor the train cache. Backward implements the full gradient including the
    terms through the batch mean and variance.
    """

    def __init__(self, dim: int, dtype=np.float32, name: str = "bn"):
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim, dtype=dtype))
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train:
            scale = self.gamma.value / np.sqrt(self.running_var + BN_EPS)
            out = x * scale
            out += self.beta.value - self.running_mean * scale
            return out
        n = x.shape[0]
        if n < 2:
            raise ValueError("batch norm needs at least 2 rows in train mode")
        # x is centred once; the squares buffer then holds the output
        ones = np.ones(n, x.dtype)
        mean = ones @ x / n
        x_hat = x - mean
        out = np.square(x_hat)
        var = ones @ out / n
        self.running_mean[...] = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var[...] = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat *= inv_std
        self._cache = (x_hat, inv_std, n)
        np.multiply(self.gamma.value, x_hat, out=out)
        out += self.beta.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """gamma * inv_std * (g - x_hat * (sum(g * x_hat) / n) - sum(g) / n)
        with g = grad_out, in one temporary."""
        if self._cache is None:
            raise RuntimeError("backward requires a preceding train-mode forward")
        x_hat, inv_std, n = self._cache
        ones = np.ones(n, grad_out.dtype)
        out = np.multiply(grad_out, x_hat)
        proj = ones @ out
        g_sum = ones @ grad_out
        self.gamma.grad += proj
        self.beta.grad += g_sum
        np.multiply(x_hat, proj / n, out=out)
        np.subtract(grad_out, out, out=out)
        out -= g_sum / n
        out *= self.gamma.value * inv_std
        return out


@dataclass
class SegmentIndex:
    """Maps the rows of a stacked node matrix to graphs within a batch: graph
    g owns rows ``offsets[g]:offsets[g + 1]``."""

    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        if self.offsets[0] != 0 or (self.offsets[1:] < self.offsets[:-1]).any():
            raise ValueError("offsets must start at 0 and never decrease")

    @classmethod
    def from_sizes(cls, sizes) -> "SegmentIndex":
        return cls(np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]))

    @property
    def num_rows(self) -> int:
        return int(self.offsets[-1])

    @property
    def num_segments(self) -> int:
        return int(self.offsets.size) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


def segment_sum(x: np.ndarray, seg: SegmentIndex) -> np.ndarray:
    """Row g of the output is the sum of x's rows belonging to graph g."""
    if x.shape[0] != seg.num_rows:
        raise ValueError("segment index does not cover all rows")
    out = np.zeros((seg.num_segments, x.shape[1]), dtype=x.dtype)
    nonempty = np.flatnonzero(seg.sizes > 0)
    if x.shape[0]:
        out[nonempty] = np.add.reduceat(x, seg.offsets[:-1][nonempty], axis=0)
    return out


def segment_sum_backward(grad_out: np.ndarray, seg: SegmentIndex) -> np.ndarray:
    """Broadcast each graph's pooled gradient back to its member rows."""
    return np.repeat(grad_out, seg.sizes, axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    A row whose true-class probability rounds to 1 has a loss of exactly 0
    and gets a gradient of exactly 0. Otherwise its gradient would be the
    other classes' leftover probabilities, which shrink as training saturates
    until the whole backward pass of that graph runs on subnormal floats,
    many times slower than on normal ones.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    probs = softmax(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    p_true = probs[rows, labels]
    loss = float(-np.log(np.maximum(p_true, np.finfo(probs.dtype).tiny)).mean())
    grad = probs.copy()
    grad[rows, labels] -= 1
    grad[p_true == 1] = 0
    grad /= n
    return loss, grad
