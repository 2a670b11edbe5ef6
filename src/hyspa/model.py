"""The toy extraction network: context encoder, hybrid-span encoding via
attention, N mixed-attention decoder blocks, and the hybrid span decoding head.

Two forward implementations coexist on purpose:

* an autodiff path (``sequence_logits`` / ``sequence_loss`` /
  ``train_step``) used for training, built on :mod:`hyspa.numerics`.  It
  builds one tape per batch, sources padded to the batch's largest n and
  targets to its largest length; padding sits in NEG_INF masks (padded
  columns get probability exactly 0) or carries weight 0 in the cross
  entropy.  The output mask is the constraint machine's, as in decoding;
  every other tape mask is index arithmetic beside its one use.  Each
  decoder layer attends in the engine's two blocks: source rows over the
  source keys, target rows over the source and then the target keys, causally.
  The last layer stops at its source keys and values, and one helper,
  ``_tape_layer``, serves either row set with three tape nodes: the query
  projection, ``numerics.attention`` and the block tail (``_tape_tail``).
  The tail node runs the engine's forward, ``_block_tail``, on the stacked
  rows; its backward runs the backward expressions of the ops it replaced,
  in their order (``numerics.layer_norm_grads``, ``numerics.linear_grads``),
  so it keeps their bits.  So do the tape's other one-node parts: H
  (``_tape_hybrid``), the traversal embedding (``_traversal_embedding``),
  the span head with the machine's mask (``_tape_head``) and the loss
  (``numerics.label_smoothed_ce``).
  Source rows attend locally: row i to row j only when |i - j| <=
  ``cfg.source_radius`` (``_band``; None opens every pair).  The band is
  added to every batch: a radius that covers the input closes nothing, and
  adding its zeros keeps every bit.  ``train_step`` splits a
  mini-batch into runs of consecutive examples whose padded tape stays
  small (``_tape_runs``), one backward pass per run, so a long input does
  not pad the others to its length.  Dropout masks are
  drawn example by example in the order a per-example forward would draw
  them, so a batch and its examples one at a time agree to rounding;
* a numpy inference engine (``encode_context``, ``DecodeSession``,
  ``decode_step``, ``span_head``).  ``encode_context``
  runs once per input and stores each layer's source keys and values
  head-major, ``(heads, n, d/heads)``.  Its source self-attention takes all
  heads at once over chunks of query rows, in one score block of bounded
  size that every chunk and layer reuses, so its transient memory is linear
  in n.  A chunk scores only the keys within the source radius of its
  rows, so its time is linear in n too.  The decode steps and
  the span head still read all n source rows.  The target caches of all
  live hypotheses of one input are one array, (layers, beam, 2, heads,
  max_len+1, d/heads); each ``DecodeSession`` is a handle on one row of
  it.  Every target row goes
  through one step kernel, ``decode_step``, which takes the B sessions of
  the rows 0..B-1 (one per live beam hypothesis) and one element each: it
  first gathers each session's parent row into place when beam search has
  reordered them, as fairseq's ``reorder_incremental_state`` does; then
  the projections and the FFN are (B, d) GEMMs, one slice assignment
  writes the new keys and values of all B rows, the source attention reads
  the shared caches once for all B queries, and the target attention reads
  a (B, heads, t+1, d/heads) view of the cache.  ``DecodeSession.append``
  is its one-row call, and cached decoding and the tests' references, full
  recomputation and greedy decoding, all feed rows through it with the
  same shapes, so they are bitwise equal.  A step's input row is a span
  row, memoised per slot in the context, plus a traversal row, memoised per
  position in the ``Engine``.  ``span_head`` likewise scores B hidden rows in
  one call, under the additive mask its caller passes: the constraint
  machine's, the one admissibility rule of the tape and of decoding.  A
  mask row that covers only the type slots spares its row the text-span
  scores; every row is normalised at the full width, with zeros in place
  of the spared exponentials.  ``DecodeSession.fork`` copies only the
  handle, and beam search lets the last child of each hypothesis reuse
  its parent's session in place (see ``decode_search.beam_decode``).
  One ``Engine`` per decoding call holds the weights that ``encode_context``,
  ``decode_step`` and ``span_head`` read.

Both forms build H, the type rows followed by the text rows, through one
forward, ``_hybrid_rows``: ``encode_context`` for one input, the tape's
one node ``_tape_hybrid`` for a padded batch.  Both run the second half of
every decoder layer (residual, layer
norm, FFN, residual, layer norm) through one forward, ``_block_tail``: the
engine for the source rows and the decode steps, the tape for both row sets
with their dropout multipliers.  Both score the span head through two
forwards, ``_type_scores`` and ``_text_scores`` (whose windows are
``numerics.sliding_windows``): ``span_head`` for B decode rows, and the
tape's one head node, ``_tape_head``, for every target row of a batch.
Both take their softmax and log-softmax from :mod:`hyspa.numerics`
(``softmax``, ``log_probs``).  The engine's
two attention forwards scale the queries, not the scores, by 1/sqrt(d), and
normalise late: they exponentiate the shifted scores in place
(``numerics.shifted_exp``, the first half of ``softmax``) and divide
``e @ v`` by the row sums.  The traversal embedding has one forward,
``_traversal_rows``, over the inputs that ``embeddings.bfs_components`` /
``dfs_components`` build from positions (level, offset, is [SEP]), which
both forms count with ``embeddings.advance``: the tape's one node
``_traversal_embedding`` runs it on a whole batch, ``Engine.traversal_row``
on one position, with the same bits.

The paper-style external embedders are replaced by one trainable lookup table
covering type names and text tokens; text rows additionally receive the
sinusoidal position encoding so duplicate surface tokens stay distinguishable.
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import numerics as nm
from .altseq_codec import AltSequence, GenConstraints, Traversal, encode
from .embeddings import DFS_LEVEL_TABLE, TREE_BRANCH_CAP, advance, bfs_components, dfs_components, sinusoidal
from .hybrid_index import span_rows
from .info_graph import canonicalize
from .numerics import Tensor
from .type_vocab import TypeVocab, build_vocab, segment_ids

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
    source_radius: int | None = 64  # source token i attends to j when |i - j| <= radius; None: to all

    def __post_init__(self):
        fields = asdict(self)
        for name, value in fields.items():
            if name not in ("dropout", "source_radius") and (isinstance(value, bool) or not isinstance(value, int)):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        radius = self.source_radius
        if radius is not None and (isinstance(radius, bool) or not isinstance(radius, int) or radius < 1):
            raise ModelError(f"source_radius must be None or an integer >= 1, got {radius!r}")
        number = isinstance(self.dropout, (int, float)) and not isinstance(self.dropout, bool)
        if (self.d_m < 2 or self.layers < 0 or self.heads < 1 or self.m < 1 or self.max_tokens < 1
                or not (number and 0.0 <= self.dropout < 1.0)):
            got = ", ".join(f"{name}={value}" for name, value in fields.items())
            raise ModelError(
                f"need d_m >= 2, layers >= 0, heads >= 1, m >= 1, 0 <= dropout < 1, max_tokens >= 1; got {got}"
            )
        if self.d_m % self.heads != 0:
            raise ModelError(f"d_m={self.d_m} not divisible by heads={self.heads}")
        if self.d_m % 2 != 0:
            raise ModelError(f"d_m={self.d_m} must be even for the sinusoidal position encoding")


@dataclass(frozen=True)
class TokenVocab:
    """Text tokens in embedding-row order: [UNK] first, then each other token
    once, as ``build`` makes them; any other list raises ModelError."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        index = {t: i for i, t in enumerate(self.tokens)}
        if self.tokens[:1] != (UNK_TOKEN,) or len(index) != len(self.tokens):
            raise ModelError(f"tokens must be {UNK_TOKEN} followed by distinct tokens, got {list(self.tokens)!r:.60}")
        self.__dict__["_index"] = index  # frozen: set once, here, and never again

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]) -> "TokenVocab":
        seen = sorted({tok for sent in corpus for tok in sent})
        return cls(tokens=(UNK_TOKEN, *[t for t in seen if t != UNK_TOKEN]))

    def __len__(self):
        return len(self.tokens)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self._index.get(t, 0) for t in tokens], dtype=np.intp)


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
    """The embedding rows of H: the l_p type rows, then the rows of the text
    tokens ``token_ids``, (n,) or (B, n)."""
    types = np.broadcast_to(np.arange(vocab.l_p, dtype=np.intp), token_ids.shape[:-1] + (vocab.l_p,))
    return np.concatenate([types, vocab.l_p + token_ids], axis=-1)


def _position_rows(vocab: TypeVocab, n: int, d: int) -> np.ndarray:
    """Sinusoidal positions on text rows only; type rows get zeros."""
    out = np.zeros((vocab.l_p + n, d))
    out[vocab.l_p :] = sinusoidal(np.arange(n), d)
    return out


def _band(rows: int, cols: int, radius: int, first: int) -> np.ndarray:
    """Additive (rows, cols) mask of the local source attention: query position
    i and key position first + j are open when at most ``radius`` apart."""
    gap = np.arange(first, first + cols) - np.arange(rows)[:, None]
    return np.where(np.abs(gap) <= radius, 0.0, nm.NEG_INF)


def _hybrid_rows(embed: np.ndarray, meta: np.ndarray, row_ids: np.ndarray, seg: np.ndarray,
                 pos: np.ndarray) -> np.ndarray:
    """H, the type rows followed by the text rows: the shared embedding's rows
    ``row_ids`` (``_h_row_ids``, (l_h,) or (B, l_h)), plus the meta-type rows
    of the segment ids ``seg`` (``type_vocab.segment_ids``), plus the position
    rows ``pos`` (``_position_rows``).  The one forward of H for
    ``encode_context`` and the tape."""
    return embed[row_ids] + meta[seg] + pos


def _traversal_rows(traversal: Traversal, parts: Sequence[np.ndarray], tables: Sequence[np.ndarray]) -> np.ndarray:
    """The traversal embedding of stacked positions, from their constant
    ``parts`` (``embeddings.bfs_components`` / ``dfs_components``) and the
    traversal's learned ``tables``: under BFS, the level rows plus the role
    rows times ``trav_pc`` plus the tree rows times ``trav_tree``; under DFS,
    the ``dfs_level`` rows of the level ids plus the connection rows.  The one
    forward of the traversal sum for ``Engine.traversal_row`` and the tape."""
    if traversal == Traversal.BFS:
        (levels, roles, trees), (trav_pc, trav_tree) = parts, tables
        return levels + roles @ trav_pc + trees @ trav_tree
    (level_ids, conns), (dfs_level,) = parts, tables
    return dfs_level[level_ids] + conns


_TAIL = ("ln1_g", "ln1_b", "w3", "b3", "w4", "b4", "ln2_g", "ln2_b")  # a layer's block-tail weights, in order


def _block_tail(attn: np.ndarray, x: np.ndarray, w: list, keep: np.ndarray | None = None) -> tuple:
    """The second half of a decoder layer on (rows, d) arrays: residual, layer
    norm, FFN, residual, layer norm, with the layer's weights ``w`` named in
    ``_TAIL``.  ``keep`` holds the dropout multipliers of the attention and
    FFN outputs, (2, rows, d), or None.  Returns the output rows and what the
    tape's backward reads: each layer norm's ``normalize`` output and std,
    the first layer norm's output and the FFN's inner rows after the ReLU.
    The one forward of the tail for ``encode_context``, ``decode_step`` and
    the tape."""
    ln1_g, ln1_b, w3, b3, w4, b4, ln2_g, ln2_b = w
    xhat1, std1 = nm.normalize((attn if keep is None else attn * keep[0]) + x)
    x1 = xhat1 * ln1_g + ln1_b
    inner = np.maximum(x1 @ w3 + b3, 0.0)
    ffn = inner @ w4 + b4
    xhat2, std2 = nm.normalize((ffn if keep is None else ffn * keep[1]) + x1)
    return xhat2 * ln2_g + ln2_b, (xhat1, std1, x1, inner, xhat2, std2)


def _type_scores(s: np.ndarray, e: np.ndarray, h_types: np.ndarray) -> np.ndarray:
    """The span head's type scores: the start rows ``s`` and end rows ``e``,
    (..., rows, d), each against the type rows of H, (..., l_p, d), summed.
    The one forward of the type scores for ``span_head`` and the tape."""
    h = np.swapaxes(h_types, -1, -2)
    return s @ h + e @ h


def _text_scores(s: np.ndarray, e: np.ndarray, h_text: np.ndarray, m: int) -> np.ndarray:
    """The span head's n*m text-span scores of the start rows ``s`` and end
    rows ``e``, (..., rows, d), against the text rows of H, (..., n, d): cell
    (j, k) is span (j, j+k+1), the end score of token j+k
    (``numerics.sliding_windows``, NEG_INF past the text) plus the start
    score of token j.  The one forward of the text scores for ``span_head``
    and the tape."""
    h = np.swapaxes(h_text, -1, -2)
    t = nm.sliding_windows(e @ h, m)
    t += (s @ h)[..., None]
    return t.reshape(t.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# training path (autodiff, one padded tape per batch)
# ---------------------------------------------------------------------------

def _tape_hybrid(embed: Tensor, meta: Tensor, row_ids: np.ndarray, seg: np.ndarray, pos: np.ndarray) -> Tensor:
    """H on the tape, (B, l_h, d): ``_hybrid_rows`` as one node over the
    embedding and meta-type tables, for the (B, l_h) embedding rows
    ``row_ids``.  The backward runs the backward expressions of the ops it
    replaced: each table's row scatter, the meta gradient summed over the
    batch first, as the broadcast add handed it on, so it gives their bits."""
    y = _hybrid_rows(embed.data, meta.data, row_ids, seg, pos)

    def backward(g):
        nm.scatter_rows(embed, row_ids, g)
        nm.scatter_rows(meta, seg, g.sum(axis=0))

    return Tensor(y, parents=(embed, meta), backward=backward)


def _traversal_embedding(
    seqs: Sequence[AltSequence], t_pad: int, cfg: ModelConfig, params: dict[str, Tensor]
) -> Tensor:
    """(B, t_pad, d) traversal embedding of every decoder input:
    ``_traversal_rows`` as one node over its traversal's tables.

    Row 1 + i of example b holds item i; the [SOS] row and padding rows are 0.
    BFS sums over all B * t_pad rows, its components zero on the empty ones;
    DFS sums over the items' rows and places them.  The backward runs the
    backward expressions of the ops it replaced, so it gives their bits:
    ``linear``'s ``rows.T @ g`` for each BFS table, and for ``dfs_level`` the
    row scatter of the gradient times 1 on item rows and 0 elsewhere.
    """
    sep, traversal, d = seqs[0].vocab.sep_index, seqs[0].traversal, cfg.d_m
    positions = []
    for seq in seqs:
        level = offset = 0
        for k in seq.items:
            positions.append((level, offset, k == sep))
            level, offset = advance(level, offset, k, sep)
    at = np.concatenate([b * t_pad + 1 + np.arange(len(s.items)) for b, s in enumerate(seqs)])

    def placed(rows: np.ndarray) -> np.ndarray:  # (B * t_pad, ...), row b * t_pad + 1 + i holding item i of b
        out = np.zeros((len(seqs) * t_pad,) + rows.shape[1:], dtype=rows.dtype)
        out[at] = rows
        return out

    if traversal == Traversal.BFS:
        tables = (params["trav_pc"], params["trav_tree"])
        parts = [placed(c) for c in bfs_components(positions, d)]
        y = _traversal_rows(traversal, parts, [t.data for t in tables])

        def backward(g):
            g = g.reshape(-1, d)
            for table, rows in zip(tables, parts[1:]):
                nm.accumulate(table, rows.T @ g)
    else:
        tables = (params["dfs_level"],)
        level_ids, conns = dfs_components(positions, d)
        y = placed(_traversal_rows(traversal, (level_ids, conns), [tables[0].data]))
        ids, is_item = placed(level_ids), placed(np.ones((len(at), 1)))

        def backward(g):
            nm.scatter_rows(tables[0], ids, g.reshape(-1, d) * is_item)

    return Tensor(y.reshape(len(seqs), t_pad, d), parents=tables, backward=backward)


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


def _tape_layer(params: dict[str, Tensor], i: int, x: Tensor, k: Tensor, v: Tensor,
                mask: np.ndarray, keep: np.ndarray | None, heads: int) -> Tensor:
    """Decoder layer ``i`` on the tape for the source or target rows ``x``, (B,
    rows, d): queries attending over key rows ``k`` and value rows ``v`` under
    ``mask``, then the block tail as one node (``_tape_tail``).  ``keep`` holds
    the rows' dropout multipliers of attention and FFN output, (2, B, rows, d),
    or None."""
    q = nm.linear(x, params[f"L{i}.wq"], params[f"L{i}.bq"])
    attn = nm.attention(q, k, v, mask, heads, 1.0 / math.sqrt(x.shape[-1]))
    return _tape_tail(attn, x, [params[f"L{i}.{name}"] for name in _TAIL], keep)


def _tape_tail(attn: Tensor, x: Tensor, w: list[Tensor], keep: np.ndarray | None) -> Tensor:
    """``_block_tail`` on the tape, one node over the (B, rows, d) attention
    output ``attn``, the layer input ``x`` and the tail weights ``w`` named
    in ``_TAIL``; ``keep`` holds the dropout multipliers, (2, B, rows, d), or
    None.  The forward runs on the B * rows stacked rows.  The backward runs
    the backward expressions of the ops the tail is made of (dropout
    multiply, residual add, layer norm, linear, ReLU) in the order the tape
    ran them as separate nodes, so it gives their bits."""
    shape, d, parents = x.shape, x.shape[-1], (attn, x, *w)
    keep = None if keep is None else keep.reshape(2, -1, d)
    ln1_g, _, w3, _, w4, _, ln2_g, _ = ws = [t.data for t in w]
    y, (xhat1, std1, x1, inner, xhat2, std2) = _block_tail(attn.data.reshape(-1, d), x.data.reshape(-1, d), ws, keep)

    def backward(g):
        g2, g_ln2_g, g_ln2_b = nm.layer_norm_grads(g.reshape(-1, d), xhat2, std2, ln2_g)
        g_ffn = g2 if keep is None else g2 * keep[1]
        g_w4, g_b4 = nm.linear_grads(inner, g_ffn)
        g_inner = (g_ffn @ w4.T) * (inner > 0.0)  # ReLU: inner > 0 exactly where its input is
        g_w3, g_b3 = nm.linear_grads(x1, g_inner)
        g1, g_ln1_g, g_ln1_b = nm.layer_norm_grads(g2 + g_inner @ w3.T, xhat1, std1, ln1_g)
        g_attn = g1 if keep is None else g1 * keep[0]
        grads = (g_attn.reshape(shape), g1.reshape(shape), g_ln1_g, g_ln1_b, g_w3, g_b3, g_w4, g_b4, g_ln2_g, g_ln2_b)
        for t, gt in zip(parents, grads):
            nm.accumulate(t, gt)

    return Tensor(y.reshape(shape), parents=parents, backward=backward)


def _tape_head(s_rep: Tensor, e_rep: Tensor, h_types: Tensor, h_text: Tensor, m: int, mask: np.ndarray) -> Tensor:
    """The span head's scores on the tape, one node over the start and end
    rows ``s_rep``, ``e_rep``, (B, T, d), and the type and text rows of H,
    (B, l_p, d) and (B, n, d): (B, T, l_p + n*m), the type scores
    (``_type_scores``) followed by the text-span scores (``_text_scores``),
    plus the additive ``mask``, as ``span_head`` adds it.
    The backward runs the backward expressions of the ops the head is made
    of (concatenation, the start scores' broadcast over the m cells, the
    window gather, the four products) in the order the tape ran them as
    separate nodes, so it gives their bits."""
    parents = (s_rep, e_rep, h_types, h_text)
    s, e, ht, hx = (t.data for t in parents)
    l_p, n = ht.shape[-2], hx.shape[-2]
    y = np.concatenate([_type_scores(s, e, ht), _text_scores(s, e, hx, m)], axis=-1)
    y += mask

    def backward(g):
        # both parts contiguous, as the concatenation's backward handed them on
        g_type, g_text = g[..., :l_p].copy(), g[..., l_p:].reshape(g.shape[:-1] + (n, m))
        g_ts = g_text.sum(axis=-1)
        g_te = np.zeros_like(g_ts)
        for k in range(min(m, n)):  # diagonal k: cell (j, k) reads the end score of token j + k
            g_te[..., k:] += g_text[..., : n - k, k]
        st, et = np.swapaxes(s, -1, -2), np.swapaxes(e, -1, -2)
        grads = (g_type @ ht + g_ts @ hx, g_type @ ht + g_te @ hx,
                 np.swapaxes(st @ g_type + et @ g_type, -1, -2), np.swapaxes(st @ g_ts + et @ g_te, -1, -2))
        for t, gt in zip(parents, grads):
            nm.accumulate(t, gt)

    return Tensor(y, parents=parents, backward=backward)


def _machine_masks(seqs: Sequence[AltSequence], t_pad: int, width: int) -> np.ndarray:
    """The tape's output mask, (B, t_pad, width): row i of example b holds the
    mask of a constraint machine walked along its gold items, before target i,
    and NEG_INF elsewhere.  A budget of len + 16 items never turns tight on a
    gold path (``_tight`` leaves ``_min_to_finish() + 6``), so the tape learns
    the structural rule alone.  A gold item the machine forbids raises ModelError."""
    out = np.full((len(seqs), t_pad, width), nm.NEG_INF)
    for b, seq in enumerate(seqs):
        eos, end = seq.vocab.eos_index, len(seq.items)
        machine = GenConstraints(seq.vocab, seq.n, seq.m, seq.traversal, end + 16)
        for i, k in enumerate((*seq.items, eos)):
            row = machine.mask()
            if k >= len(row) or row[k] <= nm.NEG_INF / 2 or (k == eos) != (i == end):
                raise ModelError(f"example {b} (n={seq.n}): the constraint machine forbids item {k} at offset {i}")
            out[b, i, : len(row)] = row
            machine.push(k)
    return out


def sequence_logits(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Teacher-forced masked logits of a batch of (token_ids, sequence) pairs, on one tape.

    Returns logits of shape (B, T, l_p + n_pad*m) and targets of shape (B, T),
    where n_pad and T are the batch's largest n and sequence length + 1.  Row
    i of example b scores the element following decoder input i (inputs are
    [SOS] + items); targets are items + [EOS].  Padding rows have target -1.
    Slots the constraint machine closes (``_machine_masks``) and padded
    attention columns sit at NEG_INF, so they get probability exactly 0 and
    no gradient.  Per decoder layer, the target rows attend over
    [source ; target] keys, (B, heads, T, n_pad + T), and the source rows,
    except in the last layer, over the source keys, (B, heads, n_pad, n_pad).
    The batch must share one vocab, traversal and m.
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
    lo, hi = span_rows(inputs, m, l_p)  # inclusive H-row window of each input
    if (inputs < 0).any() or (hi >= l_p + n[:, None]).any():
        raise ModelError("a sequence item lies outside its hybrid index space")

    # hybrid representation H: shared embedding + meta-type + text positions
    seg = np.array(segment_ids(vocab, n_pad), dtype=np.intp)
    H = _tape_hybrid(params["embed"], params["meta"], _h_row_ids(vocab, text_ids), seg, _position_rows(vocab, n_pad, d))
    h_types = nm.getitem(H, (slice(None), slice(0, l_p)))
    h_text = nm.getitem(H, (slice(None), slice(l_p, l_h)))

    # span encoding of decoder inputs via masked attention
    cls_row = nm.getitem(H, (slice(None), slice(l_p, l_p + 1)))
    q = nm.linear(cls_row, params["span_w1"], params["span_b1"])
    K = nm.linear(H, params["span_w2"], params["span_b2"])
    h_cols = np.arange(l_h)
    m0 = np.where((h_cols >= lo[..., None]) & (h_cols <= hi[..., None]), 0.0, nm.NEG_INF)
    span = nm.attention(q, K, H, m0[:, None], 1, 1.0 / math.sqrt(d))
    Hy = nm.add(span, _traversal_embedding(seqs, t_pad, cfg, params))

    # mixed-attention decoder: padded source columns and future targets closed
    src = nm.add(h_text, nm.getitem(params["srctgt"], slice(0, 1)))
    tgt = nm.add(Hy, nm.getitem(params["srctgt"], slice(1, 2)))
    cols, rows = np.arange(n_pad + t_pad), np.arange(t_pad)[:, None]
    tgt_open = (cols < n[:, None, None]) | ((cols >= n_pad) & (cols <= n_pad + rows))
    tgt_mask = np.where(tgt_open, 0.0, nm.NEG_INF)[:, None]  # (B, 1, T_pad, n_pad + T_pad)
    # source rows over source keys, (B, 1, n_pad, n_pad): padding and pairs farther apart than the radius closed
    src_mask = tgt_mask[:, :, :1, :n_pad] + _band(n_pad, n_pad, cfg.source_radius or n_pad, 0)
    keep = _dropout_keep(n, t, t_pad, cfg, rng or np.random.default_rng(0)) if training and cfg.dropout else None
    for i in range(cfg.layers):
        wk, wv = ((params[f"L{i}.w{c}"], params[f"L{i}.b{c}"]) for c in "kv")
        k_src, v_src = nm.linear(src, *wk), nm.linear(src, *wv)
        k, v = nm.concat([k_src, nm.linear(tgt, *wk)], axis=1), nm.concat([v_src, nm.linear(tgt, *wv)], axis=1)
        drop = (None, None) if keep is None else (keep[i, :, :, :n_pad], keep[i, :, :, n_pad:])
        if i + 1 < cfg.layers:  # the last layer's source rows feed no target row
            src = _tape_layer(params, i, src, k_src, v_src, src_mask, drop[0], cfg.heads)
        tgt = _tape_layer(params, i, tgt, k, v, tgt_mask, drop[1], cfg.heads)

    # hybrid span decoding head, batched over positions
    s_rep = nm.linear(tgt, params["head_w5"], params["head_b5"])
    e_rep = nm.linear(tgt, params["head_w6"], params["head_b6"])
    return _tape_head(s_rep, e_rep, h_types, h_text, m, _machine_masks(seqs, t_pad, l_p + n_pad * m)), targets


def sequence_loss(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
    cfg: ModelConfig,
    params: dict[str, Tensor],
    *,
    label_smoothing: float = 0.1,
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
    logits, targets = sequence_logits(batch, cfg, params, training=training, rng=rng)
    finite = np.isfinite(logits.data).all(axis=(1, 2))
    if not finite.all():
        seq = batch[int(np.argmin(finite))][1]
        raise FloatingPointError(f"non-finite loss (n={seq.n}, T={len(seq.items)})")
    real = targets >= 0
    weights = real / ((batch_size or len(batch)) * real.sum(axis=1, keepdims=True))
    return nm.label_smoothed_ce(logits, targets, label_smoothing, weights)


# A run's tape holds n_pad**2 + T_pad * (n_pad + T_pad) attention weights per
# example, head and layer: its source and target blocks.  2**17 cells are about
# 8 MB of weights per layer at 8 heads: every sentence mini-batch fits in one
# run, and a long input is a run of its own instead of padding the others.
_RUN_CELLS = 2**17


def _tape_runs(
    batch: Sequence[tuple[np.ndarray, AltSequence]],
) -> list[list[tuple[np.ndarray, AltSequence]]]:
    """Split a mini-batch, in order, into runs of consecutive examples whose
    padded tape, len(run) times the cells above, stays within _RUN_CELLS.

    An example larger than that on its own is a run of one.  Runs keep the
    batch order, so dropout masks are still drawn example by example.
    """
    runs: list[list[tuple[np.ndarray, AltSequence]]] = []
    n_pad = t_pad = 0
    for example in batch:
        n, t = max(n_pad, example[1].n), max(t_pad, len(example[1].items) + 1)
        if runs and (len(runs[-1]) + 1) * (n * n + t * (n + t)) <= _RUN_CELLS:
            runs[-1].append(example)
        else:
            runs.append([example])
            n, t = example[1].n, len(example[1].items) + 1
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
                run, cfg, params, label_smoothing=label_smoothing,
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
    seed: int = 0,
    log_every: int = 0,
    callback=None,
) -> list[tuple[int, float]]:
    """Run ``steps`` optimizer steps over random batches; returns (step, loss) history.

    ``callback(step)`` may return True to stop early (e.g. on a dev metric).
    An empty ``prepared`` raises ModelError.
    """
    if not prepared:
        raise ModelError("fit needs at least one training example")
    rng = np.random.default_rng(seed)
    drop_rng = np.random.default_rng(seed + 1)
    history = []
    for step in range(1, steps + 1):
        idx = rng.integers(0, len(prepared), size=batch_size)
        batch = [prepared[i] for i in idx]
        loss = train_step(
            batch, cfg, params, opt,
            label_smoothing=label_smoothing, clip=clip, rng=drop_rng,
        )
        history.append((step, loss))
        if log_every and step % log_every == 0:
            print(f"step {step:>6d}  lr {opt.current_lr():.2e}  loss {loss:.4f}")
        if callback is not None and callback(step):
            break
    return history


# ---------------------------------------------------------------------------
# inference engine (deterministic numpy, one step kernel for B target rows)
# ---------------------------------------------------------------------------

# encode_context's source attention scores a chunk of query rows for all heads
# at once, in a (heads, rows, keys) block of at most 2**18 cells (2 MB): 32 rows
# at n = 1024 and 8 heads.  One block per call serves every chunk and layer.
# A chunk's keys are its rows widened by the source radius R each way, and a
# chunk holds at most _BAND_ROWS rows: by timeit at n = 1024, one BLAS thread
# and R in 16..128, chunks of 16 to 32 rows beat chunks of 64 or more.
_SCORE_CELLS = 2**18
_BAND_ROWS = 32


def _head_major(x: np.ndarray, heads: int) -> np.ndarray:
    """(rows, d) -> contiguous (heads, rows, d/heads)."""
    return np.ascontiguousarray(x.reshape(len(x), heads, -1).transpose(1, 0, 2))


class Engine:
    """What decoding reads that depends only on the model state: ``cfg``, the
    vocabularies, the default ``traversal``, each parameter's array plus each
    layer's fused ``wqkv`` / ``bqkv``, Q scaled by 1/sqrt(d) (``arrays``), each
    layer's block-tail weights (``tails``, in ``_TAIL`` order), and the
    traversal rows (``traversal_row``).  It stands in for a model in
    ``extract_graph``.  ``AdamW.step`` updates weights in place, which the fused
    arrays and the rows do not follow, so an engine serves one decoding call.
    """

    def __init__(self, model: ExtractionModel):
        cfg = self.cfg = model.cfg
        self.vocab, self.token_vocab, self.traversal = model.vocab, model.token_vocab, model.traversal
        scale = 1.0 / math.sqrt(cfg.d_m)
        self.arrays = p = {k: v.data for k, v in model.params.items()}
        for i in range(cfg.layers):  # Q, K and V side by side: one projection GEMM per decode step
            p[f"L{i}.wqkv"] = np.concatenate([p[f"L{i}.wq"] * scale, p[f"L{i}.wk"], p[f"L{i}.wv"]], axis=1)
            p[f"L{i}.bqkv"] = np.concatenate([p[f"L{i}.bq"] * scale, p[f"L{i}.bk"], p[f"L{i}.bv"]])
        self.tails = [[p[f"L{i}.{name}"] for name in _TAIL] for i in range(cfg.layers)]
        self.rows: dict = {}

    def open_session(
        self, tokens: Sequence[str], max_len: int, traversal: Traversal | None = None, beam: int = 1
    ) -> DecodeSession:
        """Encode ``tokens`` and open a session on a target cache of ``beam`` rows."""
        return DecodeSession(encode_context(tokens, self), traversal or self.traversal, max_len, beam)

    def traversal_row(self, traversal: Traversal, position: tuple[int, int, bool]) -> np.ndarray:
        """``_traversal_embedding``'s formula applied to one position, memoised:
        a memoised row has the bits of a fresh one, and is never written into."""
        row = self.rows.get((traversal, position))
        if row is None:
            p, d = self.arrays, self.cfg.d_m
            if traversal == Traversal.BFS:
                parts, tables = bfs_components([position], d), (p["trav_pc"], p["trav_tree"])
            else:
                parts, tables = dfs_components([position], d), (p["dfs_level"],)
            row = self.rows[traversal, position] = _traversal_rows(traversal, parts, tables)[0]
        return row


@dataclass
class ContextRep:
    """Encoded context: the hybrid representation, per-layer source caches, the
    engine it was encoded with, and the span rows computed so far.

    ``rows`` memoises ``_span_row`` per slot: the hypotheses of one input
    keep feeding the same slots, and each entry is computed once by the same
    code, so a memoised row has the bits of a fresh one.  Entries are shared
    and never written into.
    """

    H: np.ndarray
    n: int
    span_scores: np.ndarray  # (l_h,) precomputed span-attention score vector
    src_k: list[np.ndarray]  # per layer, head-major (heads, n, d_m/heads)
    src_v: list[np.ndarray]
    l_p: int
    engine: Engine
    rows: dict = field(default_factory=dict)

    @property
    def h_types(self) -> np.ndarray:
        return self.H[: self.l_p]

    @property
    def h_text(self) -> np.ndarray:
        return self.H[self.l_p :]


def encode_context(tokens: Sequence[str], engine: Engine) -> ContextRep:
    """Build H (type rows ++ text rows) and the one-time decoder source caches,
    from the weights of ``engine``.

    Computed once per input and shared by every decoding hypothesis.  The
    keys and values every decode step attends to are stored head-major, so a
    step reads them with one batched matmul and no per-step copy.  The
    source self-attention scores all heads of a chunk of query rows at once,
    into one score block of at most ``_SCORE_CELLS`` cells that every chunk
    and layer reuses, so its transient memory is linear in n.  A chunk of at
    most ``_BAND_ROWS`` rows [r0, r1) scores only the keys in [r0 - R, r1 + R)
    within the text, R = ``cfg.source_radius`` (None: n), and one band
    template built per call (``_band``) closes the pairs farther apart than
    R, so the time and the block are linear in n.  A radius that covers the
    input closes nothing: its band adds zeros, which keep every bit.  Queries
    are scaled by 1/sqrt(d) before the scores, and ``e @ v`` is divided by
    the row sums of the exponentiated scores ``e`` (``numerics.shifted_exp``)
    instead of ``e`` itself.  The last layer's source rows feed no decode
    step, so that layer stops at its keys and values.  The source rows keep
    three projection GEMMs: the engine's fused ``wqkv`` may round differently.
    """
    cfg, vocab, p = engine.cfg, engine.vocab, engine.arrays
    n = len(tokens)
    if n < 1:
        raise ModelError("empty token list")
    if n > cfg.max_tokens:
        raise ModelError(f"input length {n} exceeds max_tokens={cfg.max_tokens}")
    d, heads = cfg.d_m, cfg.heads
    scale = 1.0 / math.sqrt(d)
    seg = np.array(segment_ids(vocab, n), dtype=np.intp)
    H = _hybrid_rows(p["embed"], p["meta"], _h_row_ids(vocab, engine.token_vocab.ids(tokens)), seg,
                     _position_rows(vocab, n, d))

    q_cls = H[vocab.l_p] @ p["span_w1"] + p["span_b1"]
    K = H @ p["span_w2"] + p["span_b2"]
    span_scores = (K @ q_cls) / math.sqrt(d)

    src_k, src_v = [], []
    radius = min(cfg.source_radius or n, n)  # a chunk scores only the keys within the radius of its rows
    width = min(n, _BAND_ROWS + 2 * radius)
    rows = min(n, _BAND_ROWS, max(1, _SCORE_CELLS // (heads * width)))
    band = _band(rows, rows + 2 * radius, radius, -radius)  # a chunk's rows against keys from r - radius
    cells = np.empty(heads * rows * width)
    x = H[vocab.l_p :] + p["srctgt"][0]
    for i in range(cfg.layers):
        k = _head_major(x @ p[f"L{i}.wk"] + p[f"L{i}.bk"], heads)
        v = _head_major(x @ p[f"L{i}.wv"] + p[f"L{i}.bv"], heads)
        src_k.append(k)
        src_v.append(v)
        if i + 1 == cfg.layers:
            break
        q = ((x @ p[f"L{i}.wq"] + p[f"L{i}.bq"]) * scale).reshape(n, heads, -1)
        out = np.empty_like(q)  # (n, heads, dh): the (n, d) layout of the heads side by side
        for r in range(0, n, rows):
            chunk = slice(r, min(n, r + rows))
            keys = slice(max(0, r - radius), min(n, chunk.stop + radius))
            e = cells[: heads * (chunk.stop - r) * (keys.stop - keys.start)].reshape(heads, chunk.stop - r, -1)
            np.matmul(q[chunk].transpose(1, 0, 2), k[:, keys].transpose(0, 2, 1), out=e)
            e += band[: chunk.stop - r, keys.start - r + radius : keys.stop - r + radius]
            sums = nm.shifted_exp(e)  # (heads, rows, 1)
            np.matmul(e, v[:, keys], out=out[chunk].transpose(1, 0, 2))
            out[chunk] /= sums.transpose(1, 0, 2)
        x = _block_tail(out.reshape(n, d), x, engine.tails[i])[0]
    return ContextRep(
        H=H, n=n, span_scores=span_scores,
        src_k=src_k, src_v=src_v, l_p=vocab.l_p, engine=engine,
    )


def _span_row(ctx: ContextRep, k: int) -> np.ndarray:
    """Span-attention encoding of one hybrid index: softmax over its H window,
    memoised in ``ctx.rows``."""
    row = ctx.rows.get(k)
    if row is None:
        lo, hi = span_rows(k, ctx.engine.cfg.m, ctx.l_p)
        if k < 0 or hi >= ctx.l_p + ctx.n:
            raise ModelError(f"slot {k} lies outside the hybrid index space of n={ctx.n}")
        w = nm.softmax(ctx.span_scores[lo : hi + 1].copy())
        row = ctx.rows[k] = w @ ctx.H[lo : hi + 1]
    return row


class DecodeSession:
    """Incremental decoder state for one hypothesis: a handle on one row of the
    target caches that all hypotheses of one input share.

    ``append`` encodes one more input element, pushes it through the decoder
    blocks with cached keys/values, and leaves the final hidden row in
    ``last_hidden``.  It is the one-row call of ``decode_step``, which beam
    search calls once per step with the sessions of all live hypotheses.  The
    target caches are one array, ``kv``, of shape (layers, beam, 2, heads,
    max_len+1, d/heads): the keys and values of every layer for ``beam``
    hypotheses, head-major.  A session reads and writes the row ``row`` of
    it; ``beam`` (1 by default) is the most sessions one ``decode_step`` may
    feed.  The source caches belong to the shared context, and the weights to
    its engine.

    ``fork`` gives a handle for a child hypothesis: a shallow copy of this
    one.  Its position counters (``level``, ``offset``) are ints of its own;
    everything else, the cache row too, it shares with its parent.  The
    next ``decode_step`` that feeds the fork together with the other live
    hypotheses gathers each one's parent row into its own row, so a fork
    is independent from that step on.  Until then, neither it nor its parent
    may be fed alone: the first one fed advances the shared row's count in
    ``filled``, and ``decode_step`` then refuses the other.
    """

    def __init__(self, ctx: ContextRep, traversal: Traversal, max_len: int, beam: int = 1):
        self.ctx = ctx
        self.cfg = cfg = ctx.engine.cfg
        self.traversal = traversal
        self.max_len = max_len
        self.level = self.offset = 0  # position of the next input element
        self.t = 0
        self.row = 0
        self.kv = np.empty((cfg.layers, beam, 2, cfg.heads, max_len + 1, cfg.d_m // cfg.heads))
        self.filled = [0] * beam  # rows of kv written per cache row, shared by every handle on kv
        self.last_hidden: np.ndarray | None = None
        self.append(None)  # [SOS] context row

    def fork(self) -> "DecodeSession":
        clone = object.__new__(DecodeSession)
        clone.__dict__.update(self.__dict__)
        return clone

    def _input_row(self, k: int | None) -> np.ndarray:
        """Span-attention row of the next input element plus its traversal
        embedding; None is the [SOS] context row.  The context memoises the
        first part, the engine the second."""
        ctx, vocab = self.ctx, self.ctx.engine.vocab
        if k is None:
            return _span_row(ctx, vocab.sos_index)
        position = (self.level, self.offset, k == vocab.sep_index)
        self.level, self.offset = advance(self.level, self.offset, k, vocab.sep_index)
        return _span_row(ctx, k) + ctx.engine.traversal_row(self.traversal, position)

    def append(self, k: int | None) -> None:
        """Feed the next input element (None = the [SOS] context row): the
        one-row call of ``decode_step``."""
        decode_step([self], [k])


def decode_step(sessions: Sequence[DecodeSession], elements: Sequence[int | None]) -> None:
    """Feed one input element to each session: one decoder step over B rows.

    The sessions share one context (and with it the engine) and one target
    cache ``kv``, and have all been fed the same number of rows, t, which each
    one's cache row must hold (``filled``, checked before any gather).
    Session b becomes row b of the cache, holding t + 1 rows.  When the
    sessions' rows are not already 0..B-1 (beam search kept children of other
    parents, or forks of one parent), the first t cache rows of every layer
    are first gathered by parent row in one fancy-index copy, as fairseq's
    ``reorder_incremental_state`` does.  Per layer, the projections and the
    FFN are (B, d) GEMMs, one slice assignment writes row t of the keys and
    values of all B sessions, the source attention reads the shared head-major
    source caches once for all B queries, and the target attention reads the
    (B, heads, t+1, d/heads) view of the cache.  The queries come out of
    ``wqkv`` already scaled by 1/sqrt(d), and the attention output is divided
    by the row sums of the exponentiated scores.  With B = 1 every product has
    the shapes of a single-row step, so a session fed alone always gives the
    same bits.
    """
    lead = sessions[0]
    cfg, ctx, t, kv = lead.cfg, lead.ctx, lead.t, lead.kv
    p = ctx.engine.arrays
    B, d, heads, n = len(sessions), cfg.d_m, cfg.heads, ctx.n
    if t > lead.max_len:
        raise ModelError("decode session exceeded max_len")
    if any(s.t != t or s.kv is not kv for s in sessions):
        raise ModelError("decode_step needs sessions of one cache, all fed the same number of rows")
    if B > kv.shape[1]:
        raise ModelError(f"decode_step got {B} sessions for a cache of {kv.shape[1]} rows")
    parents = [s.row for s in sessions]
    for r in parents:
        if lead.filled[r] != t:
            raise ModelError(f"cache row {r} holds {lead.filled[r]} rows, not the session's {t}: "
                             "a session sharing it was fed without this one")
    if parents != list(range(B)):
        kv[:, :B, :, :, :t] = kv[:, parents, :, :, :t]
        for b, s in enumerate(sessions):
            s.row = b
    # np.array stacks a short list of arrays at a fifth of np.stack's overhead
    x = np.array([s._input_row(k) for s, k in zip(sessions, elements)]) + p["srctgt"][1]
    for i in range(cfg.layers):
        qkv = (x @ p[f"L{i}.wqkv"] + p[f"L{i}.bqkv"]).reshape(B, 3, heads, -1)
        q = qkv[:, 0]  # (B, heads, dh)
        cache = kv[i, :B]  # (B, 2, heads, max_len+1, dh)
        cache[:, :, :, t] = qkv[:, 1:]
        tgt_k, tgt_v = cache[:, 0, :, : t + 1], cache[:, 1, :, : t + 1]  # (B, heads, t+1, dh)
        src_scores = ctx.src_k[i] @ q.transpose(1, 2, 0)  # (heads, n, B)
        tgt_scores = tgt_k @ q[..., None]  # (B, heads, t+1, 1)
        e = np.concatenate([src_scores.transpose(2, 0, 1), tgt_scores[..., 0]], axis=2)
        sums = nm.shifted_exp(e)  # e: (B, heads, n+t+1), unnormalised weights
        src_out = e.transpose(1, 0, 2)[:, :, :n] @ ctx.src_v[i]  # (heads, B, dh)
        tgt_out = e[:, :, None, n:] @ tgt_v  # (B, heads, 1, dh)
        out = ((src_out.transpose(1, 0, 2) + tgt_out[:, :, 0]) / sums).reshape(B, d)
        x = _block_tail(out, x, ctx.engine.tails[i])[0]
    lead.filled[:B] = [t + 1] * B
    for b, s in enumerate(sessions):
        s.last_hidden = x[b]
        s.t = t + 1


def span_head(
    hidden: np.ndarray, ctx: ContextRep, mask: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Scores and log-probabilities of B hidden rows, (B, d): two lists of B
    rows over the output slots.

    Slot k < l_p is type k; slot l_p + j*m + d is the span (j, j+d+1).  Window
    cells running past the text sit at NEG_INF, and so do the slots that the
    additive ``mask`` closes; all of them get probability exactly 0.
    ``mask`` holds one row per hidden row, l_p + n*m or only l_p long, and
    each output row is as long as its mask row.  Decoding passes the
    constraint machine's masks, which are l_p long when a hypothesis can emit
    no span, so only full rows pay for the text-span scores.  Every row is
    normalised by ``numerics.log_probs`` at the full width l_p + n*m, so a
    type-only row sums its exponentials followed by exact zeros and is
    bitwise equal to the first l_p entries of the full row with every span
    slot closed.  The scores come from ``_type_scores`` for all B rows and
    from ``_text_scores`` for the full rows, the forwards the tape's head
    node (``_tape_head``) runs; with one row they have the shapes of a
    single-row head, so a row scored alone always gives the same bits.
    """
    p, l_p, m = ctx.engine.arrays, ctx.l_p, ctx.engine.cfg.m
    width = l_p + ctx.n * m
    s = hidden @ p["head_w5"] + p["head_b5"]
    e = hidden @ p["head_w6"] + p["head_b6"]
    type_scores = _type_scores(s, e, ctx.h_types)
    short = [b for b, row in enumerate(mask) if len(row) == l_p]
    full = [b for b, row in enumerate(mask) if len(row) != l_p]
    scores, logp = [None] * len(hidden), [None] * len(hidden)
    for group in (short, full):
        if not group:
            continue
        block = type_scores.take(group, axis=0)  # take: a third of a fancy index's cost at one row
        if group is full:
            text = _text_scores(s.take(group, axis=0), e.take(group, axis=0), ctx.h_text, m)
            block = np.concatenate([block, text], axis=1)
        for row, b in zip(block, group):
            row += mask[b]
        for b, s_row, l_row in zip(group, block, nm.log_probs(block, width)):
            scores[b], logp[b] = s_row, l_row
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

    def open_session(self, *args, **kwargs) -> DecodeSession:
        """``Engine.open_session`` on a fresh engine: the weights may have changed since the last call."""
        return Engine(self).open_session(*args, **kwargs)

    def save(self, path) -> None:
        """Write the checkpoint to exactly ``path`` (``np.savez`` given a name adds ``.npz``)."""
        meta = {
            "cfg": asdict(self.cfg),
            "edge_types": list(self.vocab.edge_types),
            "node_types": list(self.vocab.node_types),
            "tokens": list(self.token_vocab.tokens),
            "edge_freq": {str(k): v for k, v in self.edge_freq.items()},
            "traversal": self.traversal.value,
        }
        arrays = {f"param/{k}": v.data for k, v in self.params.items()}
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "ExtractionModel":
        try:
            with np.load(path) as blob:
                arrays = {k: blob[k] for k in blob.files}
            meta = json.loads(bytes(arrays.pop("__meta__")).decode())
            params = {
                k[len("param/") :]: Tensor(v, requires_grad=True)
                for k, v in arrays.items()
                if k.startswith("param/")
            }
        except KeyError:
            raise ModelError(f"checkpoint {path}: no __meta__ entry") from None
        except (EOFError, TypeError, ValueError, RecursionError, zipfile.BadZipFile) as err:
            # empty, truncated, not .npz, or meta JSON nested too deep
            raise ModelError(f"checkpoint {path}: cannot be read: {err}") from None
        try:
            # a checkpoint saved before the field existed was trained with full source attention
            cfg = ModelConfig(**{"source_radius": None, **meta["cfg"]})
            vocab = build_vocab(meta["edge_types"], meta["node_types"])
            if not isinstance(meta["tokens"], list) or not all(type(t) is str for t in meta["tokens"]):
                raise TypeError("tokens must be a list of strings")
            token_vocab = TokenVocab(tokens=tuple(meta["tokens"]))
            edge_freq = {int(k): v for k, v in meta["edge_freq"].items()}
            for value in edge_freq.values():
                if type(value) is not int:  # JSON true is a bool, which isinstance(value, int) admits
                    raise TypeError(f"edge_freq value {value!r} is not an integer")
            traversal = Traversal(meta["traversal"])
        except KeyError as err:
            raise ModelError(f"checkpoint {path}: meta has no {err.args[0]!r} entry") from None
        except (AttributeError, TypeError, ValueError) as err:  # e.g. an unknown config field
            raise ModelError(f"checkpoint {path}: {err}") from None
        _check_params(params, param_shapes(cfg, vocab, token_vocab), path)
        return cls(cfg, params, vocab, token_vocab, edge_freq, traversal)


def _check_params(params: dict[str, Tensor], shapes: dict[str, tuple[int, ...]], path) -> None:
    """ModelError naming the first parameter that is missing, has the wrong
    shape, holds a NaN or an infinity, or is not part of the configured model."""
    for name, shape in shapes.items():
        if name not in params:
            raise ModelError(f"checkpoint {path}: parameter {name} {shape} is missing")
        if params[name].data.shape != shape:
            raise ModelError(
                f"checkpoint {path}: parameter {name} has shape {params[name].data.shape}, "
                f"the saved config needs {shape}"
            )
        if not np.isfinite(params[name].data).all():
            raise ModelError(f"checkpoint {path}: parameter {name} holds non-finite values")
    for name in params:
        if name not in shapes:
            raise ModelError(f"checkpoint {path}: parameter {name} is not part of the saved config")
