"""The toy extraction network: context encoder, hybrid-span encoding via
attention, N mixed-attention decoder blocks, and the hybrid span decoding head.

Two forward implementations coexist on purpose:

* an autodiff path (``sequence_logits`` / ``sequence_loss`` /
  ``train_step``) used for training, built on :mod:`hyspa.numerics`.  It
  takes a batch of examples and builds one tape for it: sources are padded
  to the batch's largest n and targets to its largest length, every
  attention and output mask gets a batch axis, and padding sits in the
  existing NEG_INF masks (padded columns get probability exactly 0) or
  carries weight 0 in the cross entropy.  ``train_step`` splits a
  mini-batch into runs of consecutive examples whose padded tape stays
  small (``_tape_runs``), one tape and one backward pass per run: a
  mini-batch of sentences is one run, and a long input gets a tape of its
  own instead of padding the others to its length.  Dropout masks are drawn
  example by example in the order a per-example forward would draw them,
  so a batch and its examples one at a time agree to rounding;
* a numpy inference engine (``encode_context``, ``DecodeSession``,
  ``decode_step``, ``decoder_forward``, ``span_head``).  ``encode_context``
  runs once per input and stores each layer's source keys and values
  head-major, ``(heads, n, d/heads)``.  Every target row then goes through
  one step kernel, ``decode_step``, which takes B sessions of one input (one
  per live beam hypothesis) and one element each: the projections and the
  FFN are (B, d) GEMMs, the source attention reads the shared caches once
  for all B queries, and the target attention reads the sessions' own
  head-major caches stacked to (B, heads, t+1, d/heads).
  ``DecodeSession.append`` is its one-row call, and cached decoding, full
  recomputation (``decoder_forward`` without a cache) and greedy decoding
  all feed rows through it with the same shapes, so they are bitwise equal.
  ``span_head`` likewise scores B hidden rows in one call.
  ``DecodeSession.fork`` copies only the filled prefix of the target caches,
  and beam search lets the last child of each hypothesis reuse its parent's
  session in place (see ``decode_search.beam_decode``).

The paper-style external embedders are replaced by one trainable lookup table
covering type names and text tokens; text rows additionally receive the
sinusoidal position encoding so duplicate surface tokens stay distinguishable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import numerics as nm
from .altseq_codec import AltSequence, Traversal
from .embeddings import (
    PositionAnnotation,
    Role,
    bfs_components,
    dfs_components,
    make_annotator,
    sinusoidal,
    tree_onehot,
    DFS_LEVEL_TABLE,
    TREE_BRANCH_CAP,
)
from .hybrid_index import index_to_hspan
from .masks import alternating_masks, mixed_attention_mask, span_attention_mask
from .numerics import NEG_INF, Tensor
from .type_vocab import ElementClass, TypeVocab, classify, segment_ids

UNK_TOKEN = "[UNK]"


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d_m: int = 64
    layers: int = 2
    heads: int = 8
    m: int = 16
    dropout: float = 0.1
    max_tokens: int = 2048

    def __post_init__(self):
        if self.d_m % self.heads != 0:
            raise ModelError(f"d_m={self.d_m} not divisible by heads={self.heads}")
        if self.d_m % 2 != 0:
            raise ModelError(f"d_m={self.d_m} must be even for the sinusoidal position encoding")
        if self.layers < 0 or self.m < 1:
            raise ModelError("layers must be >= 0 and m >= 1")


@dataclass(frozen=True)
class TokenVocab:
    tokens: tuple[str, ...]

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]) -> "TokenVocab":
        seen = sorted({tok for sent in corpus for tok in sent})
        return cls(tokens=(UNK_TOKEN, *[t for t in seen if t != UNK_TOKEN]))

    def __len__(self):
        return len(self.tokens)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        index = self._index()
        return np.array([index.get(t, 0) for t in tokens], dtype=np.intp)

    def _index(self) -> dict[str, int]:
        if not hasattr(self, "_cache"):
            object.__setattr__(self, "_cache", {t: i for i, t in enumerate(self.tokens)})
        return getattr(self, "_cache")


def param_shapes(cfg: ModelConfig, vocab: TypeVocab, token_vocab: TokenVocab) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in the order ``init_params`` draws them."""
    d = cfg.d_m
    shapes: dict[str, tuple[int, ...]] = {
        "embed": (vocab.l_p + len(token_vocab), d),
        "meta": (4, d),
        "span_w1": (d, d),
        "span_b1": (d,),
        "span_w2": (d, d),
        "span_b2": (d,),
        "trav_pc": (2, d),
        "trav_tree": (3 * TREE_BRANCH_CAP, d),
        "dfs_level": (DFS_LEVEL_TABLE, d),
        "srctgt": (2, d),
        "head_w5": (d, d),
        "head_b5": (d,),
        "head_w6": (d, d),
        "head_b6": (d,),
    }
    for i in range(cfg.layers):
        shapes.update({
            f"L{i}.wq": (d, d), f"L{i}.bq": (d,),
            f"L{i}.wk": (d, d), f"L{i}.bk": (d,),
            f"L{i}.wv": (d, d), f"L{i}.bv": (d,),
            f"L{i}.w3": (d, 4 * d), f"L{i}.b3": (4 * d,),
            f"L{i}.w4": (4 * d, d), f"L{i}.b4": (d,),
            f"L{i}.ln1_g": (d,), f"L{i}.ln1_b": (d,),
            f"L{i}.ln2_g": (d,), f"L{i}.ln2_b": (d,),
        })
    return shapes


def init_params(cfg: ModelConfig, vocab: TypeVocab, token_vocab: TokenVocab, seed: int = 0) -> dict[str, Tensor]:
    """Matrices drawn from N(0, 0.02^2) in ``param_shapes`` order; biases 0,
    layer-norm gains 1."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg, vocab, token_vocab).items():
        if len(shape) == 2:
            data = rng.normal(0.0, 0.02, shape)
        else:
            data = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _h_row_ids(vocab: TypeVocab, token_ids: np.ndarray) -> np.ndarray:
    return np.concatenate([np.arange(vocab.l_p, dtype=np.intp), vocab.l_p + token_ids])


def _position_rows(vocab: TypeVocab, n: int, d: int) -> np.ndarray:
    """Sinusoidal positions on text rows only; type rows get zeros."""
    out = np.zeros((vocab.l_p + n, d))
    out[vocab.l_p :] = sinusoidal(np.arange(n), d)
    return out


# ---------------------------------------------------------------------------
# training path (autodiff, one padded tape per batch)
# ---------------------------------------------------------------------------

def _traversal_embedding(
    seqs: Sequence[AltSequence], t_pad: int, cfg: ModelConfig, params: dict[str, Tensor]
) -> Tensor:
    """(B, t_pad, d) traversal embedding of every decoder input.

    Row 1 + i of example b holds item i; the [SOS] row and padding rows are 0.
    """
    vocab, traversal = seqs[0].vocab, seqs[0].traversal
    annotations = []
    for seq in seqs:
        annotator = make_annotator(traversal, vocab, seq.n, cfg.m)
        annotations += [annotator.push(k) for k in seq.items]
    at = np.concatenate([b * t_pad + 1 + np.arange(len(s.items)) for b, s in enumerate(seqs)])

    def placed(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((len(seqs) * t_pad,) + rows.shape[1:], dtype=rows.dtype)
        out[at] = rows
        return out.reshape((len(seqs), t_pad) + rows.shape[1:])

    if traversal == Traversal.BFS:
        levels, roles, trees = bfs_components(annotations, cfg.d_m)
        return nm.add(
            nm.add(Tensor(placed(levels)), nm.matmul(Tensor(placed(roles)), params["trav_pc"])),
            nm.matmul(Tensor(placed(trees)), params["trav_tree"]),
        )
    level_ids, conns = dfs_components(annotations, cfg.d_m)
    levels = nm.take_rows(params["dfs_level"], placed(level_ids))
    is_item = placed(np.ones((len(at), 1)))
    return nm.add(nm.mul(levels, Tensor(is_item)), Tensor(placed(conns)))


def _dropout_keep(
    n: np.ndarray, t: np.ndarray, t_pad: int, cfg: ModelConfig, rng: np.random.Generator
) -> np.ndarray:
    """Dropout multipliers, (layers, 2, B, n_pad + t_pad, d): attention, then FFN.

    Drawn example by example, and within an example layer by layer, attention
    mask before FFN mask, each over the example's own n + t rows: the order a
    per-example forward would draw them in.  Padding rows get 0.
    """
    n_pad, p, d = int(n.max()), cfg.dropout, cfg.d_m
    keep = np.zeros((cfg.layers, 2, len(n), n_pad + t_pad, d))
    for b, (nb, tb) in enumerate(zip(n, t)):
        mask = (rng.random((cfg.layers, 2, nb + tb, d)) >= p) / (1.0 - p)
        keep[:, :, b, :nb] = mask[:, :, :nb]
        keep[:, :, b, n_pad : n_pad + tb] = mask[:, :, nb:]
    return keep


def _output_masks(
    inputs: np.ndarray, n: np.ndarray, vocab: TypeVocab, m: int, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating masks for every decoder input: (B, T, l_p) over types, (B, T, n_pad) over text.

    Every text span closes and opens the same slots, so ``alternating_masks``
    runs once per distinct type index plus once for all spans.  Text columns
    past an example's own n stay closed.
    """
    l_p = vocab.l_p
    keys = np.minimum(inputs, l_p)
    uniq, where = np.unique(keys, return_inverse=True)
    m_a = np.empty((len(uniq), l_p))
    text_open = np.empty(len(uniq), dtype=bool)
    for u, k in enumerate(uniq.tolist()):
        cls = classify(k, vocab, 1, m)
        m_a[u], m_ap = alternating_masks(cls, vocab, 1, strict=strict, prev_index=k)
        text_open[u] = m_ap[0] == 0.0
    where = where.reshape(inputs.shape)
    in_text = np.arange(int(n.max())) < n[:, None, None]
    return m_a[where], np.where(text_open[where][..., None] & in_text, 0.0, NEG_INF)


def sequence_logits(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    *,
    strict: bool = False,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Teacher-forced masked logits of a batch of (token_ids, sequence) pairs, on one tape.

    Returns logits of shape (B, T, l_p + n_pad*m) and targets of shape (B, T),
    where n_pad and T are the batch's largest n and sequence length + 1.  Row
    i of example b scores the element following decoder input i (inputs are
    [SOS] + items); targets are items + [EOS].  Padding rows have target -1.
    Columns past l_p + n_b*m and padded attention columns sit at NEG_INF, so
    they get probability exactly 0 and no gradient.  A batch of one is not
    padded.  The batch must share one vocab, traversal and m.
    """
    if not batch:
        raise ModelError("empty batch")
    seqs = [seq for _, seq in batch]
    vocab, traversal, m = seqs[0].vocab, seqs[0].traversal, seqs[0].m
    for token_ids, seq in batch:
        if seq.traversal != traversal or seq.m != m or seq.vocab != vocab:
            raise ModelError("a batch must share one vocab, traversal and m")
        if len(seq.items) == 0:
            raise ModelError("zero-length target sequence")
        if seq.n != len(token_ids):
            raise ModelError(f"sequence n={seq.n} does not match {len(token_ids)} tokens")
        if seq.n > cfg.max_tokens:
            raise ModelError(f"input length {seq.n} exceeds max_tokens={cfg.max_tokens}")
    B, d = len(batch), cfg.d_m
    n = np.array([seq.n for seq in seqs])
    t = np.array([len(seq.items) + 1 for seq in seqs])
    n_pad, t_pad = int(n.max()), int(t.max())
    l_p, l_h = vocab.l_p, vocab.l_p + n_pad

    # decoder inputs ([SOS] + items) and targets (items + [EOS]), padded
    inputs = np.full((B, t_pad), vocab.sos_index, dtype=np.intp)
    targets = np.full((B, t_pad), -1, dtype=np.intp)
    text_ids = np.zeros((B, n_pad), dtype=np.intp)  # padding reads the [UNK] row
    for b, (token_ids, seq) in enumerate(batch):
        inputs[b, 1 : t[b]] = seq.items
        targets[b, : t[b] - 1] = seq.items
        targets[b, t[b] - 1] = vocab.eos_index
        text_ids[b, : n[b]] = token_ids
    # inclusive H-row window of each input, as index_to_hspan computes it
    off = np.maximum(inputs - l_p, 0)
    lo = np.where(inputs < l_p, inputs, l_p + off // m)
    hi = lo + off % m
    if (inputs < 0).any() or (hi >= l_p + n[:, None]).any():
        raise ModelError("a sequence item lies outside its hybrid index space")

    # hybrid representation H: shared embedding + meta-type + text positions
    row_ids = np.concatenate([np.broadcast_to(np.arange(l_p), (B, l_p)), l_p + text_ids], axis=1)
    h0 = nm.take_rows(params["embed"], row_ids)
    meta = nm.take_rows(params["meta"], np.array(segment_ids(vocab, n_pad), dtype=np.intp))
    H = nm.add(nm.add(h0, meta), Tensor(_position_rows(vocab, n_pad, d)))
    h_types = nm.getitem(H, (slice(None), slice(0, l_p)))
    h_text = nm.getitem(H, (slice(None), slice(l_p, l_h)))

    # span encoding of decoder inputs via masked attention
    cls_row = nm.getitem(H, (slice(None), slice(l_p, l_p + 1)))
    q = nm.linear(cls_row, params["span_w1"], params["span_b1"])
    K = nm.linear(H, params["span_w2"], params["span_b2"])
    m0 = span_attention_mask(lo, hi, l_h)
    att = nm.attention_weights(q, K, m0, 1.0 / math.sqrt(d))
    Hy = nm.add(nm.matmul(att, H), _traversal_embedding(seqs, t_pad, cfg, params))

    # mixed-attention decoder over [source text rows ; target rows]
    src = nm.add(h_text, nm.getitem(params["srctgt"], slice(0, 1)))
    tgt = nm.add(Hy, nm.getitem(params["srctgt"], slice(1, 2)))
    x = nm.concat([src, tgt], axis=1)
    rows = n_pad + t_pad
    mask = mixed_attention_mask(n, t_pad)[:, None]
    keep = None
    if training and cfg.dropout > 0:
        keep = _dropout_keep(n, t, t_pad, cfg, rng or np.random.default_rng(0))
    heads, dh = cfg.heads, d // cfg.heads
    for i in range(cfg.layers):
        qkv = []
        for w, bias in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")):
            proj = nm.linear(x, params[f"L{i}.{w}"], params[f"L{i}.{bias}"])
            qkv.append(nm.transpose(nm.reshape(proj, (B, rows, heads, dh)), (0, 2, 1, 3)))
        qh, kh, vh = qkv
        attn = nm.matmul(nm.attention_weights(qh, kh, mask, 1.0 / math.sqrt(d)), vh)
        attn = nm.reshape(nm.transpose(attn, (0, 2, 1, 3)), (B, rows, d))
        if keep is not None:
            attn = nm.mul(attn, Tensor(keep[i, 0]))
        x1 = nm.layer_norm(nm.add(attn, x), params[f"L{i}.ln1_g"], params[f"L{i}.ln1_b"])
        inner = nm.relu(nm.linear(x1, params[f"L{i}.w3"], params[f"L{i}.b3"]))
        ffn = nm.linear(inner, params[f"L{i}.w4"], params[f"L{i}.b4"])
        if keep is not None:
            ffn = nm.mul(ffn, Tensor(keep[i, 1]))
        x = nm.layer_norm(nm.add(ffn, x1), params[f"L{i}.ln2_g"], params[f"L{i}.ln2_b"])
    hy_n = nm.getitem(x, (slice(None), slice(n_pad, rows)))

    # hybrid span decoding head, batched over positions
    s_rep = nm.linear(hy_n, params["head_w5"], params["head_b5"])
    e_rep = nm.linear(hy_n, params["head_w6"], params["head_b6"])
    types_t = nm.transpose(h_types, (0, 2, 1))
    text_t = nm.transpose(h_text, (0, 2, 1))
    m_a, m_ap = _output_masks(inputs, n, vocab, m, strict)
    type_scores = nm.add(nm.add(nm.matmul(s_rep, types_t), nm.matmul(e_rep, types_t)), Tensor(m_a))
    ts_vec = nm.add(nm.matmul(s_rep, text_t), Tensor(m_ap))
    te_vec = nm.add(nm.matmul(e_rep, text_t), Tensor(m_ap))
    t_mat = nm.add(nm.unfold(te_vec, m), nm.reshape(ts_vec, (B, t_pad, n_pad, 1)))
    logits = nm.concat([type_scores, nm.reshape(t_mat, (B, t_pad, n_pad * m))], axis=2)
    return logits, targets


def sequence_loss(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    *,
    label_smoothing: float = 0.1,
    strict: bool = False,
    training: bool = False,
    rng: np.random.Generator | None = None,
    batch_size: int | None = None,
) -> Tensor:
    """Teacher-forced label-smoothed CE of a batch: the mean over examples of
    each example's mean per-position loss.

    ``batch_size`` (default ``len(batch)``) is the size of the mini-batch
    that ``batch`` is a run of: rows are weighted 1/(batch_size * T_b), so the
    losses of a mini-batch's runs add up to the mini-batch's loss.

    Raises FloatingPointError naming the first example whose logits are not
    finite.
    """
    logits, targets = sequence_logits(
        batch, cfg, params, strict=strict, training=training, rng=rng
    )
    finite = np.isfinite(logits.data).all(axis=(1, 2))
    if not finite.all():
        seq = batch[int(np.argmin(finite))][1]
        raise FloatingPointError(f"non-finite loss (n={seq.n}, T={len(seq.items)})")
    real = targets >= 0
    weights = real / ((batch_size or len(batch)) * real.sum(axis=1, keepdims=True))
    return nm.label_smoothed_ce(logits, targets, label_smoothing, weights)


# A run's tape holds (run, heads, rows, rows) attention weights per layer,
# rows = n_pad + T_pad.  2**17 cells are about 8 MB of weights per layer at
# 8 heads: every sentence mini-batch fits in one run, and a long input is a run
# of its own instead of padding the others to its length.
_RUN_CELLS = 2**17


def _tape_runs(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
) -> list[list[tuple[np.ndarray, AltSequence]]]:
    """Split a mini-batch, in order, into runs of consecutive examples whose
    padded tape, len(run) * (n_pad + T_pad)**2 cells, stays within _RUN_CELLS.

    An example larger than that on its own is a run of one.  Runs keep the
    batch order, so dropout masks are still drawn example by example.
    """
    runs: list[list[tuple[np.ndarray, AltSequence]]] = []
    n_pad = t_pad = 0
    for example in batch:
        n, t = example[1].n, len(example[1].items) + 1
        if runs and (len(runs[-1]) + 1) * (max(n_pad, n) + max(t_pad, t)) ** 2 <= _RUN_CELLS:
            runs[-1].append(example)
            n_pad, t_pad = max(n_pad, n), max(t_pad, t)
        else:
            runs.append([example])
            n_pad, t_pad = n, t
    return runs


def train_step(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    opt: nm.AdamW,
    *,
    label_smoothing: float = 0.1,
    clip: float = 0.25,
    strict: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """One optimizer step over a batch of (token_ids, target sequence) pairs.

    Each run of ``_tape_runs`` is one padded tape and one backward pass, and
    the gradients add up over the runs; a mini-batch of sentences is a single
    run.  The returned loss is the mean over examples of each example's mean
    per-position loss.
    """
    if not batch:
        raise ModelError("empty batch")
    opt.zero_grad()
    total = 0.0
    for run in _tape_runs(batch):
        try:
            loss = sequence_loss(
                run, cfg, params, label_smoothing=label_smoothing, strict=strict,
                training=True, rng=rng, batch_size=len(batch),
            )
        except FloatingPointError as err:
            raise FloatingPointError(f"opt step {opt.step_count + 1}: {err}") from None
        loss.backward()
        total += loss.item()
    nm.clip_global_norm(params.values(), clip)
    opt.step()
    return total


def prepare_training_data(dataset, traversal: Traversal = Traversal.BFS):
    """Pre-encode a dataset once: (token_ids, canonical target sequence) pairs."""
    from .altseq_codec import encode
    from .info_graph import canonicalize

    token_vocab = TokenVocab.build([t for t, _ in dataset.examples])
    prepared = []
    for tokens, graph in dataset.examples:
        og = canonicalize(graph, dataset.edge_freq, dataset.vocab)
        seq = encode(og, dataset.vocab, dataset.m, traversal)
        prepared.append((token_vocab.ids(tokens), seq))
    return token_vocab, prepared


def fit(
    cfg: ModelConfig,
    params: dict[str, Tensor],
    prepared: Sequence[tuple[np.ndarray, AltSequence]],
    opt: "nm.AdamW",
    steps: int,
    batch_size: int = 16,
    *,
    label_smoothing: float = 0.1,
    clip: float = 0.25,
    strict: bool = False,
    seed: int = 0,
    log_every: int = 0,
    log=print,
    callback=None,
) -> list[tuple[int, float]]:
    """Run ``steps`` optimizer steps over random batches; returns (step, loss) history.

    ``callback(step)`` may return True to stop early (e.g. on a dev metric).
    """
    rng = np.random.default_rng(seed)
    drop_rng = np.random.default_rng(seed + 1)
    history = []
    for step in range(1, steps + 1):
        idx = rng.integers(0, len(prepared), size=batch_size)
        batch = [prepared[i] for i in idx]
        loss = train_step(
            batch, cfg, params, opt,
            label_smoothing=label_smoothing, clip=clip, strict=strict, rng=drop_rng,
        )
        history.append((step, loss))
        if log_every and step % log_every == 0:
            log(f"step {step:>6d}  lr {opt.current_lr():.2e}  loss {loss:.4f}")
        if callback is not None and callback(step):
            break
    return history


# ---------------------------------------------------------------------------
# inference engine (deterministic numpy, one step kernel for B target rows)
# ---------------------------------------------------------------------------

def _softmax_vec(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x))
    return e / np.add.reduce(e)


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Layer norm over the last axis, of one row or of a stack of rows.

    ``np.add.reduce(...) / d`` is the arithmetic of ``ndarray.mean`` without
    its Python-level overhead, which dominates at one row of 64.
    """
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    return xc / np.sqrt(var + eps) * g + b


def _head_major(x: np.ndarray, heads: int) -> np.ndarray:
    """(rows, d) -> contiguous (heads, rows, d/heads)."""
    return np.ascontiguousarray(x.reshape(len(x), heads, -1).transpose(1, 0, 2))


@dataclass
class ContextRep:
    """Encoded context: the hybrid representation plus per-layer source caches."""

    H: np.ndarray
    segment_ids: np.ndarray
    n: int
    span_scores: np.ndarray  # (l_h,) precomputed span-attention score vector
    src_k: list[np.ndarray]  # per layer, head-major (heads, n, d_m/heads)
    src_v: list[np.ndarray]
    l_p: int

    @property
    def h_types(self) -> np.ndarray:
        return self.H[: self.l_p]

    @property
    def h_text(self) -> np.ndarray:
        return self.H[self.l_p :]


def encode_context(
    tokens: Sequence[str],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    vocab: TypeVocab,
    token_vocab: TokenVocab,
) -> ContextRep:
    """Build H (type rows ++ text rows) and the one-time decoder source caches.

    Computed once per input and shared by every decoding hypothesis.  The
    source self-attention keeps a loop over heads: a (heads, n, n) score
    tensor would take 64 MB at n=1024.  The keys and values every decode step
    attends to are stored head-major, so a step reads them with one batched
    matmul and no per-step copy.
    """
    n = len(tokens)
    if n < 1:
        raise ModelError("empty token list")
    if n > cfg.max_tokens:
        raise ModelError(f"input length {n} exceeds max_tokens={cfg.max_tokens}")
    d = cfg.d_m
    np_params = {k: v.data for k, v in params.items()}
    token_ids = token_vocab.ids(tokens)
    seg = np.array(segment_ids(vocab, n), dtype=np.intp)
    H = np_params["embed"][_h_row_ids(vocab, token_ids)] + np_params["meta"][seg]
    H = H + _position_rows(vocab, n, d)

    q_cls = H[vocab.l_p] @ np_params["span_w1"] + np_params["span_b1"]
    K = H @ np_params["span_w2"] + np_params["span_b2"]
    span_scores = (K @ q_cls) / math.sqrt(d)

    src = H[vocab.l_p :] + np_params["srctgt"][0]
    src_k, src_v = [], []
    heads, dh = cfg.heads, d // cfg.heads
    x = src
    for i in range(cfg.layers):
        k = x @ np_params[f"L{i}.wk"] + np_params[f"L{i}.bk"]
        v = x @ np_params[f"L{i}.wv"] + np_params[f"L{i}.bv"]
        src_k.append(_head_major(k, heads))
        src_v.append(_head_major(v, heads))
        q = x @ np_params[f"L{i}.wq"] + np_params[f"L{i}.bq"]
        out = np.empty_like(x)
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(d)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            out[:, sl] = w @ v[:, sl]
        x1 = _layer_norm(out + x, np_params[f"L{i}.ln1_g"], np_params[f"L{i}.ln1_b"])
        inner = np.maximum(x1 @ np_params[f"L{i}.w3"] + np_params[f"L{i}.b3"], 0.0)
        ffn = inner @ np_params[f"L{i}.w4"] + np_params[f"L{i}.b4"]
        x = _layer_norm(ffn + x1, np_params[f"L{i}.ln2_g"], np_params[f"L{i}.ln2_b"])
    return ContextRep(
        H=H, segment_ids=seg, n=n, span_scores=span_scores,
        src_k=src_k, src_v=src_v, l_p=vocab.l_p,
    )


def _span_row(ctx: ContextRep, k: int, m: int) -> np.ndarray:
    """Span-attention encoding of one hybrid index: softmax over its H window."""
    h = index_to_hspan(k, m, ctx.l_p, ctx.n)
    w = _softmax_vec(ctx.span_scores[h.lo : h.hi + 1])
    return w @ ctx.H[h.lo : h.hi + 1]


def _traversal_row(
    ann: PositionAnnotation,
    traversal: Traversal,
    d_m: int,
    np_params: dict[str, np.ndarray],
) -> np.ndarray:
    if traversal == Traversal.BFS:
        row = sinusoidal(ann.level, d_m)
        if ann.role is Role.PARENT:
            row = row + np_params["trav_pc"][0]
        elif ann.role is Role.CHILD:
            row = row + np_params["trav_pc"][1]
        return row + tree_onehot(ann.path) @ np_params["trav_tree"]
    return np_params["dfs_level"][ann.level % DFS_LEVEL_TABLE] + sinusoidal(ann.offset, d_m)


def encode_hybrid_spans(
    items: Sequence[int],
    ctx: ContextRep,
    cfg: ModelConfig,
    params: dict[str, Tensor],
    vocab: TypeVocab,
    traversal: Traversal = Traversal.BFS,
) -> np.ndarray:
    """Span-attention rows for a sequence prefix, traversal embedding added.

    Each element becomes a weighted sum of its H window (queries come from the
    repeated first-text-row [CLS] representation, folded into the per-context
    score vector); type elements reproduce their H row exactly before the
    traversal component is added.
    """
    np_params = {k: v.data for k, v in params.items()}
    annot = make_annotator(traversal, vocab, ctx.n, cfg.m)
    rows = np.empty((len(items), cfg.d_m))
    for i, k in enumerate(items):
        ann = annot.push(k)
        rows[i] = _span_row(ctx, k, cfg.m) + _traversal_row(ann, traversal, cfg.d_m, np_params)
    return rows


class DecodeSession:
    """Incremental decoder state for one hypothesis.

    ``append`` encodes one more input element, pushes it through the decoder
    blocks with cached keys/values, and leaves the final hidden row in
    ``last_hidden``.  It is the one-row call of ``decode_step``, which beam
    search calls once per step with the sessions of all live hypotheses.  The
    session owns its head-major target caches, ``(heads, max_len+1,
    d/heads)`` per layer; the source caches belong to the shared context.
    Full recomputation (``decoder_forward`` without a cache) feeds the
    elements through the same one-row call one by one, so both give
    bitwise-equal rows.

    ``fork`` gives an independent copy for beam search.  It copies only the
    ``t`` rows of the target caches that are filled; later rows are written
    before they are read.
    """

    def __init__(
        self,
        ctx: ContextRep,
        cfg: ModelConfig,
        params: dict[str, Tensor],
        vocab: TypeVocab,
        traversal: Traversal,
        max_len: int,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.vocab = vocab
        self.traversal = traversal
        self.max_len = max_len
        self.np_params = p = {k: v.data for k, v in params.items()}
        for i in range(cfg.layers):  # Q, K and V side by side: one projection GEMM per layer
            p[f"L{i}.wqkv"] = np.concatenate([p[f"L{i}.wq"], p[f"L{i}.wk"], p[f"L{i}.wv"]], axis=1)
            p[f"L{i}.bqkv"] = np.concatenate([p[f"L{i}.bq"], p[f"L{i}.bk"], p[f"L{i}.bv"]])
        self.annotator = make_annotator(traversal, vocab, ctx.n, cfg.m)
        self.t = 0
        shape = (cfg.heads, max_len + 1, cfg.d_m // cfg.heads)
        self.tgt_k = [np.empty(shape) for _ in range(cfg.layers)]
        self.tgt_v = [np.empty(shape) for _ in range(cfg.layers)]
        self.last_hidden: np.ndarray | None = None
        self.append(None)  # [SOS] context row

    def fork(self) -> "DecodeSession":
        clone = object.__new__(DecodeSession)
        clone.ctx = self.ctx
        clone.cfg = self.cfg
        clone.vocab = self.vocab
        clone.traversal = self.traversal
        clone.max_len = self.max_len
        clone.np_params = self.np_params
        clone.annotator = self.annotator.copy()
        clone.t = t = self.t
        clone.tgt_k = [_prefix_copy(a, t) for a in self.tgt_k]
        clone.tgt_v = [_prefix_copy(a, t) for a in self.tgt_v]
        clone.last_hidden = None if self.last_hidden is None else self.last_hidden.copy()
        return clone

    def _input_row(self, k: int | None) -> np.ndarray:
        """Span-attention row of the next input element plus its traversal
        embedding; None is the [SOS] context row."""
        cfg, ctx = self.cfg, self.ctx
        if k is None:
            return _span_row(ctx, self.vocab.sos_index, cfg.m)
        ann = self.annotator.push(k)
        return _span_row(ctx, k, cfg.m) + _traversal_row(ann, self.traversal, cfg.d_m, self.np_params)

    def append(self, k: int | None) -> None:
        """Feed the next input element (None = the [SOS] context row): the
        one-row call of ``decode_step``."""
        decode_step([self], [k])


def decode_step(sessions: Sequence[DecodeSession], elements: Sequence[int | None]) -> None:
    """Feed one input element to each session: one decoder step over B rows.

    The sessions share one context, configuration and parameters, and have
    all been fed the same number of rows.  Per layer, the projections and the
    FFN are (B, d) GEMMs, the source attention reads the shared head-major
    source caches once for all B queries, and the target attention reads the
    sessions' own caches stacked to (B, heads, t+1, d/heads).  With B = 1
    every product has the shapes of a single-row step, so a session fed alone
    always gives the same bits.
    """
    lead = sessions[0]
    cfg, p, ctx, t = lead.cfg, lead.np_params, lead.ctx, lead.t
    if t > lead.max_len:
        raise ModelError("decode session exceeded max_len")
    if any(s.t != t or s.ctx is not ctx for s in sessions):
        raise ModelError("decode_step needs sessions of one context, all fed the same number of rows")
    B, d, heads, n = len(sessions), cfg.d_m, cfg.heads, ctx.n
    # np.array stacks a short list of arrays at a fifth of np.stack's overhead
    x = np.array([s._input_row(k) for s, k in zip(sessions, elements)]) + p["srctgt"][1]
    for i in range(cfg.layers):
        qkv = (x @ p[f"L{i}.wqkv"] + p[f"L{i}.bqkv"]).reshape(B, 3, heads, -1)
        q = qkv[:, 0]  # (B, heads, dh)
        for b, s in enumerate(sessions):
            s.tgt_k[i][:, t] = qkv[b, 1]
            s.tgt_v[i][:, t] = qkv[b, 2]
        tgt_k = _stacked([s.tgt_k[i] for s in sessions], t + 1)  # (B, heads, t+1, dh)
        tgt_v = _stacked([s.tgt_v[i] for s in sessions], t + 1)
        src_scores = ctx.src_k[i] @ q.transpose(1, 2, 0)  # (heads, n, B)
        tgt_scores = tgt_k @ q[..., None]  # (B, heads, t+1, 1)
        scores = np.concatenate([src_scores.transpose(2, 0, 1), tgt_scores[..., 0]], axis=2)
        scores /= math.sqrt(d)
        scores -= np.maximum.reduce(scores, axis=2, keepdims=True)
        w = np.exp(scores, out=scores)
        w /= np.add.reduce(w, axis=2, keepdims=True)  # (B, heads, n+t+1)
        src_out = w.transpose(1, 0, 2)[:, :, :n] @ ctx.src_v[i]  # (heads, B, dh)
        tgt_out = w[:, :, None, n:] @ tgt_v  # (B, heads, 1, dh)
        out = (src_out.transpose(1, 0, 2) + tgt_out[:, :, 0]).reshape(B, d)
        x1 = _layer_norm(out + x, p[f"L{i}.ln1_g"], p[f"L{i}.ln1_b"])
        inner = np.maximum(x1 @ p[f"L{i}.w3"] + p[f"L{i}.b3"], 0.0)
        ffn = inner @ p[f"L{i}.w4"] + p[f"L{i}.b4"]
        x = _layer_norm(ffn + x1, p[f"L{i}.ln2_g"], p[f"L{i}.ln2_b"])
    for b, s in enumerate(sessions):
        s.last_hidden = x[b]
        s.t = t + 1


def _stacked(caches: list[np.ndarray], t: int) -> np.ndarray:
    """The first ``t`` rows of B head-major caches as one (B, heads, t, dh)
    array: a view of a single cache, which greedy decoding reads at every
    step, or a stacked copy of several."""
    if len(caches) == 1:
        return caches[0][None, :, :t]
    return np.array([c[:, :t] for c in caches])


def _prefix_copy(cache: np.ndarray, t: int) -> np.ndarray:
    """A new head-major cache holding the first ``t`` rows of ``cache``."""
    out = np.empty_like(cache)
    out[:, :t] = cache[:, :t]
    return out


def decoder_forward(
    ctx: ContextRep,
    elements: Sequence[int | None],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    vocab: TypeVocab,
    traversal: Traversal = Traversal.BFS,
    cache: DecodeSession | None = None,
) -> np.ndarray:
    """Final-layer hidden rows for the given input elements.

    Without ``cache`` this is a full recomputation; with a session it extends
    the cached state.  Both produce bitwise-identical rows because both run
    every row through ``DecodeSession.append``.
    """
    if cache is None:
        sos_stripped = list(elements)
        if sos_stripped and sos_stripped[0] is None:
            sos_stripped = sos_stripped[1:]
        cache = DecodeSession(ctx, cfg, params, vocab, traversal, max_len=len(sos_stripped) + 1)
        rows = [cache.last_hidden.copy()]
        for k in sos_stripped:
            cache.append(k)
            rows.append(cache.last_hidden.copy())
        return np.stack(rows)
    for k in elements:
        cache.append(k)
    return np.stack([cache.last_hidden])


def span_head(
    hidden: np.ndarray,
    ctx: ContextRep,
    prev_class: ElementClass | Sequence[ElementClass],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    *,
    prev_index: int | None | Sequence[int | None] = None,
    strict: bool = False,
    extra_mask: np.ndarray | None = None,
    vocab: TypeVocab,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and log-probabilities over the l_p + n*m output slots.

    ``hidden`` holds B rows, (B, d), each with its own previous element class
    and index (sequences of B) and row of ``extra_mask``, (B, l_p + n*m); the
    results are (B, l_p + n*m).  One row, (d,), takes a single class and
    index and gives 1-D results.

    Slot k < l_p is type k; slot l_p + j*m + d is the span (j, j+d+1).  Window
    cells running past the text and alternating-mask slots sit at NEG_INF and
    get probability exactly 0.  Each of the four products against the type
    and text rows covers all B rows; with one row they have the shapes of a
    single-row head, so a row scored alone always gives the same bits.
    """
    if hidden.ndim == 1:
        scores, logp = span_head(
            hidden[None], ctx, [prev_class], cfg, params, prev_index=[prev_index], strict=strict,
            extra_mask=None if extra_mask is None else extra_mask[None], vocab=vocab,
        )
        return scores[0], logp[0]
    n, m, l_p = ctx.n, cfg.m, ctx.l_p
    s = hidden @ params["head_w5"].data + params["head_b5"].data
    e = hidden @ params["head_w6"].data + params["head_b6"].data
    m_a, m_ap = np.empty((len(hidden), l_p)), np.empty((len(hidden), n))
    for b, (cls, k) in enumerate(zip(prev_class, prev_index)):
        m_a[b], m_ap[b] = alternating_masks(cls, vocab, n, strict=strict, prev_index=k)
    type_scores = (ctx.h_types @ s.T).T + (ctx.h_types @ e.T).T + m_a
    ts_vec = (ctx.h_text @ s.T).T + m_ap
    te_vec = (ctx.h_text @ e.T).T + m_ap
    idx, inside = nm.span_windows(n, m)
    t_mat = np.where(inside, ts_vec[:, :, None] + te_vec.take(idx, axis=1), NEG_INF)
    scores = np.concatenate([type_scores, t_mat.reshape(len(hidden), n * m)], axis=1)
    if extra_mask is not None:
        scores += extra_mask
    mx = np.maximum.reduce(scores, axis=1, keepdims=True)
    logp = scores - (mx + np.log(np.add.reduce(np.exp(scores - mx), axis=1, keepdims=True)))
    return scores, logp


# ---------------------------------------------------------------------------
# bundle + persistence
# ---------------------------------------------------------------------------

@dataclass
class ExtractionModel:
    """Everything needed to decode: config, parameters, vocabularies, ordering stats."""

    cfg: ModelConfig
    params: dict[str, Tensor]
    vocab: TypeVocab
    token_vocab: TokenVocab
    edge_freq: dict[int, int] = field(default_factory=dict)
    traversal: Traversal = Traversal.BFS

    def open_session(
        self, tokens: Sequence[str], max_len: int, traversal: Traversal | None = None
    ) -> DecodeSession:
        ctx = encode_context(tokens, self.cfg, self.params, self.vocab, self.token_vocab)
        return DecodeSession(
            ctx, self.cfg, self.params, self.vocab, traversal or self.traversal, max_len
        )

    def save(self, path) -> None:
        meta = {
            "cfg": {
                "d_m": self.cfg.d_m, "layers": self.cfg.layers, "heads": self.cfg.heads,
                "m": self.cfg.m, "dropout": self.cfg.dropout, "max_tokens": self.cfg.max_tokens,
            },
            "edge_types": list(self.vocab.edge_types),
            "node_types": list(self.vocab.node_types),
            "tokens": list(self.token_vocab.tokens),
            "edge_freq": {str(k): v for k, v in self.edge_freq.items()},
            "traversal": self.traversal.value,
        }
        arrays = {f"param/{k}": v.data for k, v in self.params.items()}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "ExtractionModel":
        from .type_vocab import build_vocab

        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
            params = {
                k[len("param/") :]: Tensor(blob[k].copy(), requires_grad=True)
                for k in blob.files
                if k.startswith("param/")
            }
        cfg = ModelConfig(**meta["cfg"])
        vocab = build_vocab(meta["edge_types"], meta["node_types"])
        token_vocab = TokenVocab(tokens=tuple(meta["tokens"]))
        _check_params(params, param_shapes(cfg, vocab, token_vocab), path)
        edge_freq = {int(k): v for k, v in meta["edge_freq"].items()}
        return cls(cfg, params, vocab, token_vocab, edge_freq, Traversal(meta["traversal"]))


def _check_params(params: dict[str, Tensor], shapes: dict[str, tuple[int, ...]], path) -> None:
    """ModelError naming the first parameter that is missing, has the wrong
    shape, or is not part of the configured model."""
    for name, shape in shapes.items():
        if name not in params:
            raise ModelError(f"checkpoint {path}: parameter {name} {shape} is missing")
        if params[name].data.shape != shape:
            raise ModelError(
                f"checkpoint {path}: parameter {name} has shape {params[name].data.shape}, "
                f"the saved config needs {shape}"
            )
    for name in params:
        if name not in shapes:
            raise ModelError(f"checkpoint {path}: parameter {name} is not part of the saved config")
