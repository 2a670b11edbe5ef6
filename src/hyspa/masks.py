"""The span-attention mask and the alternating output masks of the training
tape, by index arithmetic over a whole padded batch: float64 arrays over {0,
NEG_INF} that, added to scores, remove the masked slots from their softmax.
The decoder's attention masks are built in ``model.sequence_logits``, and the
inference engine uses none of these: at decode time the constraint machine
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

