"""Attention and output masks of the training tape: span attention,
alternating output, mixed attention.

All masks are dense float64 matrices/vectors over {0, NEG_INF}; adding one to
a score tensor removes the masked slots from the subsequent softmax.  The
inference engine uses none of them: at decode time the constraint machine
(``decode_search.GenConstraints``) alone masks the span head.
"""
from __future__ import annotations

import numpy as np

from .numerics import NEG_INF
from .type_vocab import ElementClass, TypeVocab


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


def alternating_masks(prev: ElementClass, vocab: TypeVocab, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Output masks (over the l_p type slots, over the n text positions) of
    the training tape.  Every slot the constraint machine opens at decode time
    is open here too (``tests/test_decode_search.py::MachineRun``).

    After a node element only edge slots open: the real edge types plus [SEP]
    ([SOS]/[EOS] stay closed so that sampled sequences remain storable).
    After an edge element the node slots open: node types plus all text
    positions; the [EOS] slot additionally opens after [SEP], the only point
    at which every traversal level is closed, so training targets (sequence
    plus [EOS]) are never masked.
    """
    m_a = np.full(vocab.l_p, NEG_INF)
    m_a_prime = np.full(n, NEG_INF)
    if prev.is_node_element:
        m_a[: len(vocab.edge_types)] = 0.0  # the real edge types
        m_a[vocab.sep_index] = 0.0
        return m_a, m_a_prime
    if prev is ElementClass.VIRTUAL_SEP:
        m_a[vocab.eos_index] = 0.0
    m_a[vocab.l_e : vocab.l_p] = 0.0
    m_a_prime[:] = 0.0
    return m_a, m_a_prime


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
