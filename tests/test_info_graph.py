import pytest

from testutil import fig4_graph, random_edge_freq, random_graph

from hyspa.hybrid_index import TextSpan, span_to_index
from hyspa.info_graph import (
    Mention,
    RelationEdge,
    SequenceEncodeError,
    canonicalize,
    graph_equal,
    make_graph,
    validate_graph,
)


class TestCanonicalize:
    def test_fig4_ordering(self, vocab, fig4):
        og = canonicalize(fig4, {}, vocab)
        he, baghdad = 19, 83  # the span indices of (0, 1) and (4, 5) at m=16, l_p=19
        assert (og.n, og.m) == (fig4.n, fig4.m)
        assert og.roots == (he, baghdad)
        assert og.adjacency[he] == ((vocab.type_edge_index, vocab.index("PER")),)
        assert og.adjacency[baghdad] == (
            (vocab.type_edge_index, vocab.index("GPE")),
            (vocab.index("PHYS"), he),
        )

    def test_empty_graph_null_root(self, vocab):
        og = canonicalize(make_graph([], [], n=4, m=16), {}, vocab)
        null = vocab.null_type_index
        assert og.roots == (null,)
        assert og.adjacency == {null: ()}

    def test_relation_order_matches_comparator_oracle(self, vocab, rng):
        # 3 mentions, several relations with distinct frequencies: the adjacency
        # order must equal an independent comparator sort over the tail spans
        mentions = [
            Mention(TextSpan(0, 1), vocab.l_e),
            Mention(TextSpan(2, 3), vocab.l_e + 1),
            Mention(TextSpan(5, 6), vocab.l_e + 2),
        ]
        relations = [
            RelationEdge(0, 1, vocab.index("PHYS")),
            RelationEdge(0, 2, vocab.index("ART")),
            RelationEdge(0, 1, vocab.index("ART")),
            RelationEdge(0, 2, vocab.index("PHYS")),
        ]
        g = make_graph(mentions, relations, n=8, m=16)
        freq = {vocab.index("PHYS"): 7, vocab.index("ART"): 50}
        og = canonicalize(g, freq, vocab)

        def item(span):
            return span_to_index(span, 16, vocab.l_p)

        children = og.adjacency[item(TextSpan(0, 1))]
        expected = [(vocab.type_edge_index, vocab.l_e)] + [
            (edge, item(span))
            for edge, span in sorted(
                [(r.edge_type, g.mentions[r.tail].span) for r in g.relations if r.head == 0],
                key=lambda pair: (-freq.get(pair[0], 0), pair[0], pair[1]),
            )
        ]
        assert list(children) == expected

    def test_unknown_edge_type_treated_as_zero_freq(self, vocab):
        g = fig4_graph(vocab)
        og = canonicalize(g, {999: 5}, vocab)  # irrelevant key, no error
        assert len(og.roots) == 2

    def test_deterministic(self, vocab, rng):
        for _ in range(20):
            g = random_graph(rng, vocab)
            freq = random_edge_freq(rng, vocab)
            assert canonicalize(g, freq, vocab) == canonicalize(g, freq, vocab)

    def test_duplicate_spans_rejected(self, vocab):
        g = make_graph(
            [Mention(TextSpan(0, 1), vocab.l_e), Mention(TextSpan(0, 1), vocab.l_e + 1)],
            [],
            n=4,
            m=16,
        )
        with pytest.raises(SequenceEncodeError, match="duplicate span"):
            canonicalize(g, {}, vocab)


class TestGraphEqual:
    def test_reflexive(self, fig4):
        assert graph_equal(fig4, fig4)

    def test_relation_type_change_detected(self, vocab, fig4):
        changed = make_graph(
            list(fig4.mentions),
            [RelationEdge(1, 0, vocab.index("ART"))],
            n=fig4.n,
            m=fig4.m,
        )
        assert not graph_equal(fig4, changed)

    def test_mention_order_irrelevant(self, vocab):
        a = make_graph(
            [Mention(TextSpan(0, 1), vocab.l_e), Mention(TextSpan(2, 3), vocab.l_e + 1)],
            [RelationEdge(0, 1, vocab.index("PHYS"))],
            n=4, m=16,
        )
        b = make_graph(
            [Mention(TextSpan(2, 3), vocab.l_e + 1), Mention(TextSpan(0, 1), vocab.l_e)],
            [RelationEdge(1, 0, vocab.index("PHYS"))],
            n=4, m=16,
        )
        assert graph_equal(a, b)

    def test_relation_multiset_multiplicity(self, vocab):
        base = [Mention(TextSpan(0, 1), vocab.l_e), Mention(TextSpan(2, 3), vocab.l_e)]
        one = make_graph(base, [RelationEdge(0, 1, vocab.index("PHYS"))], n=4, m=16)
        two = make_graph(
            base,
            [RelationEdge(0, 1, vocab.index("PHYS")), RelationEdge(0, 1, vocab.index("PHYS"))],
            n=4, m=16,
        )
        assert not graph_equal(one, two)

    def test_equivalence_on_random_graphs(self, vocab, rng):
        for _ in range(25):
            g = random_graph(rng, vocab)
            h = random_graph(rng, vocab)
            assert graph_equal(g, g)
            assert graph_equal(g, h) == graph_equal(h, g)


class TestValidateGraph:
    def test_fig4_valid(self, vocab, fig4):
        assert validate_graph(fig4, n=9, m=16, vocab=vocab) == []

    def test_span_length_violation(self, vocab):
        g = make_graph([Mention(TextSpan(0, 17), vocab.l_e)], [], n=32, m=16)
        problems = validate_graph(g, n=32, m=16, vocab=vocab)
        assert any("length" in p for p in problems)

    def test_injected_defects_all_reported(self, vocab, rng):
        for _ in range(30):
            g = random_graph(rng, vocab, p_empty=0.0)
            assert validate_graph(g, g.n, g.m, vocab) == []
            defect = rng.integers(0, 4)
            if defect == 0:  # span out of bounds
                bad = make_graph(
                    list(g.mentions) + [Mention(TextSpan(g.n, g.n + 1), vocab.l_e)],
                    list(g.relations), n=g.n, m=g.m,
                )
                assert any("outside text" in p for p in validate_graph(bad, g.n, g.m, vocab))
            elif defect == 1:  # duplicate mention span
                dup = g.mentions[0]
                bad = make_graph(list(g.mentions) + [dup], list(g.relations), n=g.n, m=g.m)
                assert any("duplicate" in p for p in validate_graph(bad, g.n, g.m, vocab))
            elif defect == 2:  # dangling relation
                bad = make_graph(
                    list(g.mentions),
                    list(g.relations) + [RelationEdge(0, len(g.mentions), vocab.index("PHYS"))],
                    n=g.n, m=g.m,
                )
                assert any("dangling" in p for p in validate_graph(bad, g.n, g.m, vocab))
            else:  # [TYPE] used as a relation
                bad = make_graph(
                    list(g.mentions),
                    list(g.relations) + [RelationEdge(0, 0, vocab.type_edge_index)],
                    n=g.n, m=g.m,
                )
                assert any("illegal edge type" in p for p in validate_graph(bad, g.n, g.m, vocab))
