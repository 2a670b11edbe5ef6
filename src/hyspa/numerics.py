"""Dense float64 tensors with reverse-mode autodiff, plus training utilities.

Everything is double precision and CPU-bound by design; the goal is
verifiability (finite-difference checks, bitwise-reproducible inference), not
throughput.  Masked scores use a large negative constant instead of -inf so
arithmetic stays finite while softmax still underflows masked slots to 0.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

NEG_INF = -1e30


# ---------------------------------------------------------------------------
# tensor core
# ---------------------------------------------------------------------------

class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        The sweep frees the graph as it goes: once a node has passed its
        gradient on, it drops its edges and the arrays its backward kept, so
        intermediates nothing else refers to are released during the sweep
        and a graph can be swept only once.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
            node._parents, node._backward = (), None

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.  The first gradient is stored as a copy:
    ``add`` hands the same array to both parents, and views must not alias."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data, parents=(a,))
    out._backward = lambda g: _accumulate(a, -g)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    """Matrix product: 2-D, batched with equal batch dims, or batched-left
    ``(..., k) @ (k, n)`` (see ``linear``)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim > 2 and b.ndim == 2:
        return linear(a, b)
    if a.ndim > 2 or b.ndim > 2:
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError(f"batch dims differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    out._backward = backward
    return out


def linear(x, w, bias=None) -> Tensor:
    """``x @ w + bias`` for x of shape (..., k), w (k, n) and bias (n,).

    Runs as one 2-D GEMM over the stacked rows of x, with the bias added in
    place, so the product and the sum are one tensor on the tape.  The
    gradients of w and bias sum over the stacked rows.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    k, n = w.data.shape
    rows = x.data.reshape(-1, k)
    y = rows @ w.data
    if bias is not None:
        bias = _as_tensor(bias)
        y += bias.data
    parents = (x, w) if bias is None else (x, w, bias)
    out = Tensor(y.reshape(x.data.shape[:-1] + (n,)), parents=parents)

    def backward(g):
        g = g.reshape(-1, n)
        if x.requires_grad:
            _accumulate(x, (g @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, rows.T @ g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    out._backward = backward
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), parents=(a,))
    out._backward = lambda g: _accumulate(a, g * (a.data > 0.0))
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; NEG_INF slots come out exactly 0."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient at softmax's input, given its output ``p`` and the gradient ``g`` at ``p``."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def attention_weights(q, k, mask: np.ndarray, scale: float) -> Tensor:
    """softmax(scale * q @ k^T + mask) over the last axis, as one tape node.

    ``q`` is (..., r, e) and ``k`` (..., c, e); the constant ``mask`` may
    broadcast the (..., r, c) scores to more rows.  Only the weights are kept
    for the backward pass, not the raw, scaled and masked scores, which at
    (batch, heads, rows, rows) are the largest arrays of a decoder layer.
    """
    q, k = _as_tensor(q), _as_tensor(k)
    raw = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    shape = raw.shape
    p = _softmax(raw * scale + mask)
    out = Tensor(p, parents=(q, k))

    def backward(g):
        gs = _unbroadcast(_softmax_grad(p, g), shape) * scale
        if q.requires_grad:
            _accumulate(q, np.matmul(gs, k.data))
        if k.requires_grad:
            _accumulate(k, np.matmul(np.swapaxes(gs, -1, -2), q.data))

    out._backward = backward
    return out


def log_softmax(a) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    out = Tensor(logp, parents=(a,))

    def backward(g):
        p = np.exp(logp)
        _accumulate(a, g - p * g.sum(axis=-1, keepdims=True))

    out._backward = backward
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Means are ``np.add.reduce(...) / d``, the arithmetic of ``ndarray.mean``
    without its Python-level overhead.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.data.shape[-1]
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data, parents=(x, gamma, beta))

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(beta, g.sum(axis=reduce_axes))
        _accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
        gx = g * gamma.data
        gxm = np.add.reduce(gx, axis=-1, keepdims=True) / d
        gxxm = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
        _accumulate(x, inv * (gx - gxm - xhat * gxxm))

    out._backward = backward
    return out


def take_rows(table, ids) -> Tensor:
    """Row gather (embedding lookup); gradients scatter-add back."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    out = Tensor(table.data[ids], parents=(table,))

    def backward(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out._backward = backward
    return out


def concat(parts: Sequence, axis: int) -> Tensor:
    """Join tensors along ``axis``; each part gets its slice of the gradient back."""
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), parents=tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[(slice(None),) * (axis % g.ndim) + (slice(lo, hi),)])

    out._backward = backward
    return out


def getitem(a, index) -> Tensor:
    """Basic slicing (ints and slices only); the gradient lands in the sliced cells."""
    a = _as_tensor(a)
    out = Tensor(a.data[index], parents=(a,))

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accumulate(a, full)

    out._backward = backward
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), parents=(a,))
    out._backward = lambda g: _accumulate(a, g.reshape(a.data.shape))
    return out


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes), parents=(a,))
    out._backward = lambda g: _accumulate(a, np.transpose(g, inverse))
    return out


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(), parents=(a,))
    out._backward = lambda g: _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
    return out


@functools.lru_cache(maxsize=64)
def span_windows(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, m) window layout: cell (j, d) reads position j+d.

    Returns the positions clipped to n-1 (safe to gather with) and the mask
    of cells whose position lies inside the n positions.  Both are cached per
    (n, m), because the decoder's span head needs them at every step, and
    read-only, because every caller shares them.
    """
    idx = np.arange(n)[:, None] + np.arange(m)
    clipped, inside = np.minimum(idx, n - 1), idx < n
    clipped.flags.writeable = inside.flags.writeable = False
    return clipped, inside


def unfold(v, m: int, fill: float = NEG_INF) -> Tensor:
    """Sliding windows of width ``m`` with stride 1 over the last axis.

    out[..., j, d] = v[..., j+d] for j+d < n, else ``fill``; the fill cells do
    not propagate gradient.
    """
    v = _as_tensor(v)
    n = v.data.shape[-1]
    idx, inside = span_windows(n, m)
    data = np.where(inside, v.data[..., idx], fill)
    out = Tensor(data, parents=(v,))

    def backward(g):
        gv = np.zeros_like(v.data)
        for d in range(min(m, n)):  # diagonal d: cell (j, d) reads v[j + d]
            gv[..., d:] += g[..., : n - d, d]
        _accumulate(v, gv)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# loss, schedule, optimizer
# ---------------------------------------------------------------------------

def label_smoothed_ce(logits: Tensor, target, epsilon: float, weights=None) -> Tensor:
    """Cross entropy with uniform label smoothing over admissible classes.

    ``logits`` is (..., C) and already carries NEG_INF on masked slots; those
    slots are excluded from the smoothing mass.  The target class gets
    1 - epsilon, the rest of the admissible classes share epsilon evenly.
    Row r's cross entropy enters the sum with ``weights[r]`` (default: the
    mean over rows); rows of weight 0 are padding, and their targets are not
    read.
    """
    logits = _as_tensor(logits)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    data = logits.data.reshape(-1, logits.data.shape[-1])
    targets = np.asarray(target, dtype=np.intp).reshape(-1)
    if targets.shape[0] != data.shape[0]:
        raise ValueError("target count does not match logit rows")
    if weights is None:
        w = np.full(len(targets), 1.0 / len(targets))
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
    rows = np.flatnonzero(w)
    cols = targets[rows]
    admissible = data > NEG_INF / 2
    if (cols < 0).any() or not admissible[rows, cols].all():
        bad = int(rows[(cols < 0) | ~admissible[rows, np.maximum(cols, 0)]][0])
        raise ValueError(f"target class is masked at row {bad}")
    counts = admissible.sum(axis=-1)
    q = np.zeros_like(data)
    spread = np.where(counts > 1, epsilon / np.maximum(counts - 1, 1), 0.0)
    q[admissible] = np.repeat(spread, counts)
    q[rows, cols] = np.where(counts[rows] > 1, 1.0 - epsilon, 1.0)
    q *= -w[:, None]
    return sum_all(mul(log_softmax(logits), Tensor(q.reshape(logits.data.shape))))


def inv_sqrt_lr(step: int, peak_lr: float, warmup: int) -> float:
    """Linear warmup to ``peak_lr`` then inverse-square-root decay."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if step <= warmup:
        return peak_lr * step / warmup
    return peak_lr * math.sqrt(warmup / step)


def clip_global_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    grads = [p.grad for p in params if p.grad is not None]
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total


class AdamW:
    """Decoupled-weight-decay Adam with an inverse-sqrt learning-rate schedule."""

    def __init__(
        self,
        params: Mapping[str, Tensor],
        peak_lr: float = 2e-4,
        warmup: int = 2000,
        weight_decay: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def current_lr(self) -> float:
        return inv_sqrt_lr(max(self.step_count, 1), self.peak_lr, self.warmup)

    def step(self) -> float:
        self.step_count += 1
        lr = inv_sqrt_lr(self.step_count, self.peak_lr, self.warmup)
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        # In place, with each operation's operands and order as in
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps) + weight_decay*p)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            a, c = np.empty(m.shape), np.empty(m.shape)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bc1, out=a)
            np.sqrt(np.divide(v, bc2, out=c), out=c)
            a /= np.add(c, self.eps, out=c)
            a += np.multiply(p.data, self.weight_decay, out=c)
            a *= lr
            p.data -= a
        return lr

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

class FiniteDiffReport:
    def __init__(self):
        self.max_rel_err = 0.0
        self.worst: tuple[str, int, float, float] | None = None
        self.checked = 0

    def record(self, name: str, idx: int, fd: float, ad: float) -> None:
        rel = abs(fd - ad) / max(abs(fd), abs(ad), 1e-5)
        self.checked += 1
        if rel > self.max_rel_err:
            self.max_rel_err = rel
            self.worst = (name, idx, fd, ad)

    def __repr__(self):
        return f"FiniteDiffReport(max_rel_err={self.max_rel_err:.3e}, checked={self.checked})"


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-5,
    coords_per_tensor: int = 4,
    rng: np.random.Generator | None = None,
) -> FiniteDiffReport:
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` must rebuild its graph on every call and be deterministic.  For each
    parameter tensor a handful of coordinates is sampled (always including the
    largest-|grad| one) and perturbed in place.
    """
    rng = rng or np.random.default_rng(0)
    for p in params.values():
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("loss is not finite")
    loss.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}

    report = FiniteDiffReport()
    for name, p in params.items():
        size = p.data.size
        if size <= coords_per_tensor:
            coords = list(range(size))
        else:
            coords = list(rng.choice(size, size=coords_per_tensor, replace=False))
            coords.append(int(np.abs(grads[name]).argmax()))
        flat = p.data.reshape(-1)
        for idx in sorted(set(int(c) for c in coords)):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = f().data.item()
            flat[idx] = orig - h
            f_minus = f().data.item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            report.record(name, idx, fd, float(grads[name].reshape(-1)[idx]))
    return report
