import numpy as np
import pytest

from hyspa.masks import output_masks, span_attention_mask
from hyspa.numerics import NEG_INF


def admitted(mask_vec):
    return set(np.flatnonzero(mask_vec > NEG_INF / 2))


class TestSpanAttentionMask:
    def test_type_row_single_zero(self):
        m0 = span_attention_mask([10], [10], l_h=28)
        assert admitted(m0[0]) == {10}

    def test_window_rows(self):
        m0 = span_attention_mask([21], [22], l_h=28)
        assert admitted(m0[0]) == {21, 22}

    def test_baghdad_row(self):
        m0 = span_attention_mask([23], [23], l_h=28)
        assert admitted(m0[0]) == {23}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            span_attention_mask([27], [28], l_h=28)

    def test_entries_binary(self):
        m0 = span_attention_mask([2, 0], [5, 0], l_h=8)
        assert set(np.unique(m0)) <= {0.0, NEG_INF}


def masks_after(k, vocab, n=9):
    """The tape's output masks for one decoder input ``k``: one example, one row."""
    m_a, m_ap = output_masks(np.array([[k]]), np.array([n]), vocab)
    return m_a[0, 0], m_ap[0, 0]


class TestAlternatingMasks:
    def test_after_text_span_only_edges(self, vocab):
        m_a, m_ap = masks_after(vocab.l_p, vocab)
        adm = admitted(m_a)
        assert adm == set(range(len(vocab.edge_types))) | {vocab.sep_index}
        assert admitted(m_ap) == set()

    def test_sos_start_admits_nodes_and_spans(self, vocab):
        m_a, m_ap = masks_after(vocab.sos_index, vocab)
        assert admitted(m_a) == set(range(vocab.l_e, vocab.l_p))
        assert admitted(m_ap) == set(range(9))

    def test_eos_opens_only_after_sep(self, vocab):
        m_a, _ = masks_after(vocab.sep_index, vocab)
        assert vocab.eos_index in admitted(m_a)
        m_a, _ = masks_after(vocab.sos_index, vocab)
        assert vocab.eos_index not in admitted(m_a)
        m_a, _ = masks_after(vocab.l_p, vocab)
        assert vocab.eos_index not in admitted(m_a)

    def test_sos_never_admitted(self, vocab):
        for k in (vocab.l_p, vocab.l_e, vocab.sep_index, vocab.sos_index):
            m_a, _ = masks_after(k, vocab)
            assert vocab.sos_index not in admitted(m_a)

    def test_always_at_least_one_admissible(self, vocab):
        for k in range(vocab.l_p + 9 * 16):
            if k == vocab.eos_index:
                continue  # EOS terminates; nothing follows it
            m_a, m_ap = masks_after(k, vocab)
            assert admitted(m_a) | admitted(m_ap)

    def test_masked_softmax_sums_to_one_over_admissible(self, vocab, rng):
        m_a, m_ap = masks_after(vocab.sep_index, vocab)
        scores = np.concatenate([rng.normal(size=vocab.l_p) + m_a, rng.normal(size=9) + m_ap])
        p = np.exp(scores - scores.max())
        p /= p.sum()
        adm = np.flatnonzero(scores > NEG_INF / 2)
        assert np.isclose(p[adm].sum(), 1.0)
        assert (p[np.setdiff1d(np.arange(p.size), adm)] == 0.0).all()
