from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from hyspa.hybrid_index import TextSpan, index_to_text_span
from hyspa.type_vocab import (
    NULL_TYPE,
    TYPE_EDGE,
    VIRTUAL_EDGE_TYPES,
    VocabError,
    build_vocab,
    segment_ids,
)

LAYOUT = ("names", "l_e", "l_p", "sos_index", "eos_index", "sep_index", "type_edge_index", "null_type_index")


@st.composite
def name_lists(draw):
    """Edge and node name lists that build a vocab: distinct names, [TYPE]
    somewhere among the edges and [NULL] somewhere among the nodes."""
    reserved = {TYPE_EDGE, NULL_TYPE, *VIRTUAL_EDGE_TYPES}
    names = draw(st.lists(st.text(max_size=5).filter(lambda x: x not in reserved), unique=True, max_size=12))
    cut = draw(st.integers(0, len(names)))
    edges, nodes = names[:cut], names[cut:]
    edges.insert(draw(st.integers(0, len(edges))), TYPE_EDGE)
    nodes.insert(draw(st.integers(0, len(nodes))), NULL_TYPE)
    return edges, nodes


class TestBuildVocab:
    def test_counts_8_edges_9_nodes(self):
        edges = ["[TYPE]"] + [f"e{i}" for i in range(7)]
        nodes = ["[NULL]"] + [f"q{i}" for i in range(8)]
        v = build_vocab(edges, nodes)
        assert v.l_e == 11
        assert v.l_p == 20

    def test_minimal_vocab(self):
        v = build_vocab(["[TYPE]"], ["[NULL]"])
        assert v.l_e == 4
        assert v.l_p == 5

    def test_pinned_config(self, vocab):
        assert len(vocab.edge_types) == 8
        assert len(vocab.virtual_edge_types) == 3
        assert len(vocab.node_types) == 8
        assert vocab.l_p == 19
        assert vocab.index("[SEP]") == 10
        assert vocab.sep_index == 10

    def test_virtual_order_sos_eos_sep(self, vocab):
        base = len(vocab.edge_types)
        assert vocab.sos_index == base
        assert vocab.eos_index == base + 1
        assert vocab.sep_index == base + 2 == vocab.l_e - 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(VocabError, match="duplicate"):
            build_vocab(["[TYPE]", "X", "X"], ["[NULL]"])

    def test_missing_type_edge_rejected(self):
        with pytest.raises(VocabError, match=r"\[TYPE\]"):
            build_vocab(["A"], ["[NULL]"])

    def test_missing_null_rejected(self):
        with pytest.raises(VocabError, match=r"\[NULL\]"):
            build_vocab(["[TYPE]"], ["PER"])

    def test_name_clash_with_virtual_rejected(self):
        with pytest.raises(VocabError, match="duplicate"):
            build_vocab(["[TYPE]", "[SEP]"], ["[NULL]"])


class TestLayout:
    @given(lists=name_lists())
    @settings(max_examples=150, deadline=None)
    def test_layout_attributes_equal_their_formulas(self, lists):
        edges, nodes = lists
        v = build_vocab(edges, nodes)
        names = (*edges, *VIRTUAL_EDGE_TYPES, *nodes)
        assert v.names == names
        assert (v.l_e, v.l_p) == (len(edges) + 3, len(names))
        assert (v.sos_index, v.eos_index, v.sep_index) == tuple(names.index(x) for x in VIRTUAL_EDGE_TYPES)
        assert (v.type_edge_index, v.null_type_index) == (edges.index(TYPE_EDGE), v.l_e + nodes.index(NULL_TYPE))
        assert [v.name(k) for k in range(v.l_p)] == list(names)
        assert [v.index(x) for x in names] == list(range(v.l_p))
        for k in (-1, v.l_p):
            with pytest.raises(VocabError, match=rf"type index {k} outside \[0, {v.l_p}\)"):
                v.name(k)
        for attr in LAYOUT:
            with pytest.raises(FrozenInstanceError):
                setattr(v, attr, getattr(v, attr))
        twin = build_vocab(list(edges), list(nodes))
        assert twin == v and hash(twin) == hash(v)
        assert all(getattr(twin, attr) == getattr(v, attr) for attr in LAYOUT)


class TestClassify:
    """The bounds alone classify an index into its block: real edges, the
    virtual edges, node types, then text spans."""

    def test_sep_index_is_virtual(self, vocab):
        assert vocab.sep_index == 10
        assert len(vocab.edge_types) <= vocab.sep_index < vocab.l_e

    def test_first_span_index(self, vocab):
        assert index_to_text_span(vocab.l_p, 16, vocab.l_p) == TextSpan(0, 1)

    def test_first_node_type_at_l_e(self, vocab):
        assert vocab.name(vocab.l_e) == vocab.node_types[0]
        assert vocab.node_type_indices[0] == vocab.l_e

    def test_partition_is_total_and_boundaries_exact(self, vocab):
        n, m = 7, 4
        assert list(vocab.real_edge_indices) == list(range(len(vocab.edge_types)))
        assert vocab.names[len(vocab.edge_types) : vocab.l_e] == VIRTUAL_EDGE_TYPES
        assert [vocab.sos_index, vocab.eos_index, vocab.sep_index] == list(range(len(vocab.edge_types), vocab.l_e))
        assert vocab.names[vocab.l_e : vocab.l_p] == vocab.node_types
        spans = [index_to_text_span(k, m, vocab.l_p) for k in range(vocab.l_p, vocab.l_p + n * m)]
        assert len(set(spans)) == n * m and min(spans) == TextSpan(0, 1)


class TestSegmentIds:
    def test_minimal_vocab_n2(self):
        v = build_vocab(["[TYPE]"], ["[NULL]"])
        assert segment_ids(v, 2) == [0, 1, 1, 1, 2, 3, 3]

    def test_pinned_vocab_n9(self, vocab):
        ids = segment_ids(vocab, 9)
        assert ids == [0] * 8 + [1] * 3 + [2] * 8 + [3] * 9

    def test_rejects_n0(self, vocab):
        with pytest.raises(VocabError):
            segment_ids(vocab, 0)

    def test_monotone_and_consistent_with_the_bounds(self, vocab):
        n = 5
        ids = segment_ids(vocab, n)
        assert ids == sorted(ids)
        n_edges = len(vocab.edge_types)
        for k in range(vocab.l_p):
            assert ids[k] == (0 if k < n_edges else 1 if k < vocab.l_e else 2)
        assert ids[vocab.l_p :] == [3] * n
