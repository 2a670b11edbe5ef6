"""Attention and output masks of the training tape: span attention,
alternating output, mixed attention.  Each is index arithmetic over a whole
padded batch.

All masks are dense float64 matrices/vectors over {0, NEG_INF}; adding one to
a score tensor removes the masked slots from the subsequent softmax.  The
inference engine uses none of them: at decode time the constraint machine
(``decode_search.GenConstraints``) alone masks the span head.
"""
from __future__ import annotations

import numpy as np

from .numerics import NEG_INF
from .type_vocab import TypeVocab


def span_attention_mask(lo, hi, l_h: int) -> np.ndarray:
    """Row r admits exactly the inclusive H-row window [lo_r, hi_r].

    ``lo`` and ``hi`` are arrays of one shape S (the ``HSpan`` bounds of each
    row); the mask has shape S + (l_h,).
    """
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    if (hi >= l_h).any():
        raise ValueError(f"H-span outside representation of height {l_h}")
    cols = np.arange(l_h)
    return np.where((cols >= lo) & (cols <= hi), 0.0, NEG_INF)


def output_masks(inputs, n, vocab: TypeVocab) -> tuple[np.ndarray, np.ndarray]:
    """Alternating output masks of the training tape for every decoder input:
    (B, T, l_p) over the type slots and (B, T, n_pad) over the text positions,
    for inputs of shape (B, T) and the B examples' text lengths ``n``.

    After a node element (an input ``>= l_e``: a node type or text span) only
    edge slots open: the real edge types plus [SEP] ([SOS]/[EOS] stay closed
    so that sampled sequences remain storable).  After an edge element the
    node slots open: the node types plus the example's own text positions;
    the [EOS] slot additionally opens after [SEP], the only point at which
    every traversal level is closed, so training targets (sequence plus
    [EOS]) are never masked.  Every slot the constraint machine opens at
    decode time is open here too (``tests/test_decode_search.py::MachineRun``).
    """
    inputs, n = np.asarray(inputs), np.asarray(n)
    after_node = (inputs >= vocab.l_e)[..., None]
    slots = np.arange(vocab.l_p)
    edge_slots = (slots < len(vocab.edge_types)) | (slots == vocab.sep_index)
    open_a = np.where(after_node, edge_slots, slots >= vocab.l_e)
    open_a |= (inputs == vocab.sep_index)[..., None] & (slots == vocab.eos_index)
    open_text = ~after_node & (np.arange(int(n.max())) < n[:, None, None])
    return np.where(open_a, 0.0, NEG_INF), np.where(open_text, 0.0, NEG_INF)


def mixed_attention_mask(n, t: int) -> np.ndarray:
    """The (n+t) x (n+t) mixed-attention mask over [source ; target] rows.

    Row r admits column j iff j < n (any source column) or j <= r (causal,
    self included).  Target row n+i therefore sees all sources plus targets
    up to i; source rows see source columns only, which is what lets their
    representations be computed once and cached during decoding.

    ``n`` may also be an array of source lengths, one per example, whose
    sources are padded to n_pad = max(n) rows: the masks then have shape
    n.shape + (n_pad+t, n_pad+t), targets start at row n_pad, and the padded
    source columns are closed to every row.
    """
    n = np.asarray(n)
    if (n < 1).any() or t < 1:
        raise ValueError("source and target lengths must be >= 1")
    n_pad = int(n.max())
    size = n_pad + t
    i = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    allowed = (j < n[..., None, None]) | ((j >= n_pad) & (j <= i))
    return np.where(allowed, 0.0, NEG_INF)
