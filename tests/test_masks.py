import numpy as np
import pytest

from hyspa.masks import alternating_masks, mixed_attention_mask, span_attention_mask
from hyspa.numerics import NEG_INF
from hyspa.type_vocab import ElementClass


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


class TestAlternatingMasks:
    def test_after_text_span_only_edges(self, vocab):
        m_a, m_ap = alternating_masks(ElementClass.TEXT_SPAN, vocab, n=9)
        adm = admitted(m_a)
        assert adm == set(range(len(vocab.edge_types))) | {vocab.sep_index}
        assert admitted(m_ap) == set()

    def test_sos_start_admits_nodes_and_spans(self, vocab):
        m_a, m_ap = alternating_masks(ElementClass.VIRTUAL_SOS, vocab, n=9)
        assert admitted(m_a) == set(range(vocab.l_e, vocab.l_p))
        assert admitted(m_ap) == set(range(9))

    def test_eos_opens_only_after_sep(self, vocab):
        m_a, _ = alternating_masks(ElementClass.VIRTUAL_SEP, vocab, n=9)
        assert vocab.eos_index in admitted(m_a)
        m_a, _ = alternating_masks(ElementClass.VIRTUAL_SOS, vocab, n=9)
        assert vocab.eos_index not in admitted(m_a)
        m_a, _ = alternating_masks(ElementClass.TEXT_SPAN, vocab, n=9)
        assert vocab.eos_index not in admitted(m_a)

    def test_sos_never_admitted(self, vocab):
        for cls in (ElementClass.TEXT_SPAN, ElementClass.NODE_TYPE,
                    ElementClass.VIRTUAL_SEP, ElementClass.VIRTUAL_SOS):
            m_a, _ = alternating_masks(cls, vocab, n=9)
            assert vocab.sos_index not in admitted(m_a)

    def test_strict_after_type_edge(self, vocab):
        m_a, m_ap = alternating_masks(
            ElementClass.REAL_EDGE, vocab, n=9, strict=True, prev_index=vocab.type_edge_index
        )
        assert admitted(m_a) == set(range(vocab.l_e, vocab.l_p))
        assert admitted(m_ap) == set()

    def test_strict_after_relation_edge(self, vocab):
        m_a, m_ap = alternating_masks(
            ElementClass.REAL_EDGE, vocab, n=9, strict=True, prev_index=vocab.index("PHYS")
        )
        assert admitted(m_a) == set()
        assert admitted(m_ap) == set(range(9))

    def test_strict_needs_prev_index(self, vocab):
        with pytest.raises(ValueError):
            alternating_masks(ElementClass.REAL_EDGE, vocab, n=9, strict=True)

    def test_always_at_least_one_admissible(self, vocab):
        for cls in ElementClass:
            if cls is ElementClass.VIRTUAL_EOS:
                continue  # EOS terminates; nothing follows it
            m_a, m_ap = alternating_masks(cls, vocab, n=9, prev_index=0)
            assert admitted(m_a) | admitted(m_ap)

    def test_masked_softmax_sums_to_one_over_admissible(self, vocab, rng):
        m_a, m_ap = alternating_masks(ElementClass.VIRTUAL_SEP, vocab, n=9)
        scores = np.concatenate([rng.normal(size=vocab.l_p) + m_a, rng.normal(size=9) + m_ap])
        p = np.exp(scores - scores.max())
        p /= p.sum()
        adm = np.flatnonzero(scores > NEG_INF / 2)
        assert np.isclose(p[adm].sum(), 1.0)
        assert (p[np.setdiff1d(np.arange(p.size), adm)] == 0.0).all()


class TestMixedAttentionMask:
    def test_n2_t1(self):
        m1 = mixed_attention_mask(2, 1)
        assert admitted(m1[2]) == {0, 1, 2}

    def test_n1_t2(self):
        m1 = mixed_attention_mask(1, 2)
        assert admitted(m1[1]) == {0, 1}
        assert admitted(m1[2]) == {0, 1, 2}

    def test_matches_brute_force_predicate(self):
        for n, t in [(1, 1), (2, 3), (4, 2), (3, 5)]:
            m1 = mixed_attention_mask(n, t)
            for i in range(n + t):
                for j in range(n + t):
                    expected = (j < n) or (j <= i)
                    assert (m1[i, j] == 0.0) == expected, (n, t, i, j)

    def test_source_rows_see_source_only(self):
        m1 = mixed_attention_mask(3, 4)
        for i in range(3):
            assert admitted(m1[i]) == {0, 1, 2}

    def test_target_causal(self):
        n, t = 3, 4
        m1 = mixed_attention_mask(n, t)
        for i in range(t):
            assert admitted(m1[n + i]) == set(range(n)) | set(range(n, n + i + 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mixed_attention_mask(0, 1)
