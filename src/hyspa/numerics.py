"""Dense float64 tensors with reverse-mode autodiff, plus training utilities.

Everything is double precision and CPU-bound by design; the goal is
verifiability (finite-difference checks, bitwise-reproducible inference), not
throughput.  Masked scores use a large negative constant instead of -inf so
arithmetic stays finite while softmax still underflows masked slots to 0.

The forwards the inference engine shares with the tape are plain functions
on arrays, and the tape ops run them: ``softmax`` (in the multi-head
``attention``).  ``log_probs`` normalises the engine's span head and the
loss, ``label_smoothed_ce``, one tape node.  ``sliding_windows``
is the span head's score window, which ``model._text_scores`` runs on the
tape and in the engine.  ``normalize`` is layer norm's forward, which the
decoder block's tail (``model._block_tail``) runs on the tape and in the
engine; its backward is ``layer_norm_grads``.  ``linear_grads`` is the
weight and bias backward of ``linear`` and of that tail.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

NEG_INF = -1e30
LN_EPS = 1e-12  # added to the variance in layer norm
FD_STEP = 1e-5  # central-difference step of ``finite_diff_check``


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

    def item(self) -> float:
        return self.data.item()

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``: every backward, also one written outside
    this module, hands its parents their gradients through it.  The first
    gradient is stored as a copy: ``add`` hands the same array to both
    parents, and views must not alias."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def scatter_rows(t: Tensor, ids: np.ndarray, g: np.ndarray) -> None:
    """Add the rows of ``g`` into ``t.grad`` at the row indices ``ids``, once
    per occurrence (``np.add.at``): the backward of the row gather
    ``t.data[ids]``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    np.add.at(t.grad, ids, g)


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
            accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g, b.data.shape))

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
            accumulate(x, (g @ w.data.T).reshape(x.data.shape))
        for t, gt in zip(parents[1:], linear_grads(rows, g)):  # w, and bias if given
            accumulate(t, gt)

    out._backward = backward
    return out


def linear_grads(rows: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of w and bias in ``rows @ w + bias`` for the output
    gradient ``g``, both 2-D: ``rows.T @ g`` and the sum of g over rows."""
    return rows.T @ g, g.sum(axis=0)


def shifted_exp(x: np.ndarray) -> np.ndarray:
    """Shift each row of ``x`` (its last axis) by the row's maximum and
    exponentiate, in place; return the row sums, with the last axis kept.

    The numerator and denominator of a stable softmax, apart: ``x / sums`` is
    the softmax, and NEG_INF slots come out exactly 0.  The engine's
    attention divides ``x @ v`` by the sums instead of ``x``, which touches
    d/heads values per row instead of a row of scores.  In place, because a
    fresh score block costs more than the exponential at n=1024.
    """
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    return np.add.reduce(x, axis=-1, keepdims=True)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis, computed in place in the array ``x``
    and returned; NEG_INF slots come out exactly 0.

    The tape's softmax, and the engine's over span windows; the engine's
    attention normalises late, from ``shifted_exp``.
    """
    x /= shifted_exp(x)
    return x


def attention(q, k, v, mask: np.ndarray, heads: int, scale: float) -> Tensor:
    """Multi-head softmax(scale * q @ k^T + mask) @ v, as one tape node.

    ``q`` is (B, r, d) rows and ``k``, ``v`` are (B, c, d) rows; the op splits
    them into ``heads`` blocks of columns.  The constant ``mask``, (B, 1 or
    heads, r', c), may broadcast the scores to r' >= r rows, and the output
    is (B, r', d).  Only the weights are kept for the backward pass, not the
    raw, scaled and masked scores: at (B, heads, rows, rows) they are the
    largest arrays of a decoder layer.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)

    def split(x):  # (B, rows, d) -> (B, heads, rows, d/heads)
        return x.reshape(x.shape[:2] + (heads, -1)).transpose(0, 2, 1, 3)

    def merge(x):  # the inverse of split
        return x.transpose(0, 2, 1, 3).reshape(len(x), x.shape[2], -1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    raw = np.matmul(qh, np.swapaxes(kh, -1, -2))
    shape = raw.shape
    p = softmax(raw * scale + mask)
    out = Tensor(merge(np.matmul(p, vh)), parents=(q, k, v))

    def backward(g):
        g = split(g)
        gp = np.matmul(g, np.swapaxes(vh, -1, -2))
        if v.requires_grad:
            accumulate(v, merge(np.matmul(np.swapaxes(p, -1, -2), g)))
        gs = _unbroadcast(p * (gp - (gp * p).sum(axis=-1, keepdims=True)), shape) * scale
        if q.requires_grad:
            accumulate(q, merge(np.matmul(gs, kh)))
        if k.requires_grad:
            accumulate(k, merge(np.matmul(np.swapaxes(gs, -1, -2), qh)))

    out._backward = backward
    return out


def log_probs(x: np.ndarray, width: int | None = None) -> np.ndarray:
    """Log-softmax over the last axis of ``x``: ``x - (max + log sum exp(x - max))``.

    The exponentials are summed over each row zero-padded to ``width``
    (default: the row's own length).  A row padded so is summed exactly like
    the same row continued with NEG_INF slots to ``width``, whose
    exponentials are exact zeros too, so it gets that row's bits.  The
    tape's loss (``label_smoothed_ce``) and the engine's span head both take it.
    """
    w = x.shape[-1]
    mx = np.maximum.reduce(x, axis=-1, keepdims=True)
    ex = np.zeros(x.shape[:-1] + (width or w,))
    np.exp(x - mx, out=ex[..., :w])
    return x - (mx + np.log(np.add.reduce(ex, axis=-1, keepdims=True)))


def normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance over the last axis of an array: returns
    ``xhat = (x - mean) / std`` and ``std``.

    The forward pass of layer norm, shared by the tape and the inference
    engine.  Means are ``np.add.reduce(...) / d``, the arithmetic of
    ``ndarray.mean`` without its Python-level overhead, which dominates at
    one row of 64.
    """
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    std = np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + LN_EPS)
    return xc / std, std


def layer_norm_grads(g: np.ndarray, xhat: np.ndarray, std: np.ndarray, gamma: np.ndarray) -> tuple:
    """The backward of layer norm, ``xhat * gamma + beta`` over (rows, d)
    arrays, for the output gradient ``g``: the gradients of its input, of
    gamma and of beta.  ``xhat`` and ``std`` are what ``normalize`` returned."""
    gx = g * gamma
    gxm = np.add.reduce(gx, axis=-1, keepdims=True) / len(gamma)
    gxxm = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / len(gamma)
    return (gx - gxm - xhat * gxxm) / std, (g * xhat).sum(axis=0), g.sum(axis=0)


def concat(parts: Sequence, axis: int) -> Tensor:
    """Join tensors along ``axis``; each part gets its slice of the gradient back."""
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis), parents=tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            accumulate(p, g[(slice(None),) * (axis % g.ndim) + (slice(lo, hi),)])

    out._backward = backward
    return out


def getitem(a, index) -> Tensor:
    """Basic slicing (ints and slices only); the gradient lands in the sliced cells."""
    a = _as_tensor(a)
    out = Tensor(a.data[index], parents=(a,))

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        accumulate(a, full)

    out._backward = backward
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


def sliding_windows(v: np.ndarray, m: int) -> np.ndarray:
    """The (n, m) windows of the last axis of ``v``: out[..., j, d] = v[..., j+d]
    for j+d < n, else NEG_INF.  The text-span score block of the decoder's
    span head (``model._text_scores``), on the tape and in the engine."""
    idx, inside = span_windows(v.shape[-1], m)
    out = v.take(idx, axis=-1)
    np.copyto(out, NEG_INF, where=~inside)  # np.where with a broadcast mask is several times slower
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
    read.  One tape node, ``(log_probs(logits) * q).sum()`` for the target
    distribution q times -weight; its backward runs the backward expressions
    of the sum, the product and the log-softmax in that order, so it gives
    the bits of those three ops as separate nodes.
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
    q = q.reshape(logits.data.shape)
    logp = log_probs(logits.data)

    def backward(g):  # the backwards of the sum, the product with q and the log-softmax, in turn
        gq = g * q
        accumulate(logits, gq - np.exp(logp) * gq.sum(axis=-1, keepdims=True))

    return Tensor((logp * q).sum(), parents=(logits,), backward=backward)


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

    betas = (0.9, 0.999)
    eps = 1e-8

    def __init__(
        self,
        params: Mapping[str, Tensor],
        peak_lr: float = 2e-4,
        warmup: int = 2000,
        weight_decay: float = 0.01,
    ):
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.params = dict(params)
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.weight_decay = weight_decay
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
    coords_per_tensor: int = 4,
    rng: np.random.Generator | None = None,
) -> FiniteDiffReport:
    """Compare reverse-mode gradients of ``f()`` against central differences
    with step ``FD_STEP``.

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
            flat[idx] = orig + FD_STEP
            f_plus = f().data.item()
            flat[idx] = orig - FD_STEP
            f_minus = f().data.item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            report.record(name, idx, fd, float(grads[name].reshape(-1)[idx]))
    return report
