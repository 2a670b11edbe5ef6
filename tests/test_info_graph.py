from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from testutil import fig4_graph, random_edge_freq, random_graph

from hyspa.hybrid_index import SpanError, TextSpan, span_to_index
from hyspa.info_graph import (
    InfoGraph,
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
        assert tuple(og.adjacency) == (he, baghdad)
        assert og.adjacency[he] == ((vocab.type_edge_index, vocab.index("PER")),)
        assert og.adjacency[baghdad] == (
            (vocab.type_edge_index, vocab.index("GPE")),
            (vocab.index("PHYS"), he),
        )

    def test_empty_graph_null_root(self, vocab):
        og = canonicalize(make_graph([], [], n=4, m=16), {}, vocab)
        null = vocab.null_type_index
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
        assert len(og.adjacency) == 2

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


# The value types as frozen dataclasses, with the make_graph and validate_graph
# that read them by attribute: the oracle for the tuple types.
@dataclass(frozen=True, order=True)
class DataclassTextSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise SpanError(f"bad span ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, order=True)
class DataclassMention:
    span: DataclassTextSpan
    node_type: int


@dataclass(frozen=True, order=True)
class DataclassRelationEdge:
    head: int
    tail: int
    edge_type: int


@dataclass(frozen=True)
class DataclassInfoGraph:
    mentions: tuple
    relations: tuple
    n: int
    m: int


for _cls in (DataclassTextSpan, DataclassMention, DataclassRelationEdge, DataclassInfoGraph):
    _cls.__qualname__ = _cls.__name__ = _cls.__name__.removeprefix("Dataclass")  # the repr names the type


def dataclass_make_graph(mentions, relations, n, m):
    mentions = list(mentions)
    perm = sorted(range(len(mentions)), key=lambda i: (mentions[i].span, mentions[i].node_type))
    remap = {old: new for new, old in enumerate(perm)}
    ms = tuple(mentions[i] for i in perm)
    rels = tuple(
        DataclassRelationEdge(remap.get(r.head, r.head), remap.get(r.tail, r.tail), r.edge_type)
        for r in relations
    )
    return DataclassInfoGraph(ms, rels, n, m)


def dataclass_validate_graph(g, n, m, vocab):
    problems = []
    seen_spans = set()
    for i, mention in enumerate(g.mentions):
        sp = mention.span
        if not (0 <= sp.start < sp.end <= n):
            problems.append(f"mention {i}: span ({sp.start}, {sp.end}) outside text of length {n}")
        if sp.length > m:
            problems.append(f"mention {i}: span length {sp.length} exceeds maximum {m}")
        if sp in seen_spans:
            problems.append(f"mention {i}: duplicate span ({sp.start}, {sp.end})")
        seen_spans.add(sp)
        if not vocab.l_e <= mention.node_type < vocab.l_p:
            problems.append(
                f"mention {i}: node type {mention.node_type} outside [{vocab.l_e}, {vocab.l_p})"
            )
    for j, rel in enumerate(g.relations):
        for side, ref in (("head", rel.head), ("tail", rel.tail)):
            if not 0 <= ref < len(g.mentions):
                problems.append(f"relation {j}: dangling {side} reference {ref}")
        if not 0 <= rel.edge_type < len(vocab.edge_types) or rel.edge_type == vocab.type_edge_index:
            problems.append(f"relation {j}: illegal edge type {rel.edge_type}")
    return problems


# few distinct values, so duplicate spans, equal mentions and dangling references are common
SPAN_ENDS = st.tuples(st.integers(0, 6), st.integers(1, 5)).map(lambda se: (se[0], se[0] + se[1]))
MENTIONS = st.lists(st.tuples(SPAN_ENDS, st.integers(8, 20)), max_size=7)
RELATIONS = st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8), st.integers(-1, 9)), max_size=8)


class TestTupleTypesKeepDataclassSemantics:
    @settings(max_examples=150, deadline=None)
    @given(mentions=MENTIONS, relations=RELATIONS, n=st.integers(1, 9), m=st.integers(1, 4))
    def test_make_graph_matches_the_dataclass_oracle(self, vocab, mentions, relations, n, m):
        new = make_graph([Mention(TextSpan(*sp), t) for sp, t in mentions],
                         [RelationEdge(*r) for r in relations], n, m)
        old = dataclass_make_graph([DataclassMention(DataclassTextSpan(*sp), t) for sp, t in mentions],
                                   [DataclassRelationEdge(*r) for r in relations], n, m)
        assert repr(new) == repr(old)  # same mention order, same remapped relations
        assert hash(new) == hash(old)
        for news, olds in ((new.mentions, old.mentions), (new.relations, old.relations)):
            for a, a_old in zip(news, olds):
                assert hash(a) == hash(a_old)
                for b, b_old in zip(news, olds):
                    assert (a == b, a < b, a <= b) == (a_old == b_old, a_old < b_old, a_old <= b_old)
        assert validate_graph(new, n, m, vocab) == dataclass_validate_graph(old, n, m, vocab)

    @given(st.integers(-3, 5), st.integers(-3, 5))
    def test_text_span_refuses_what_the_dataclass_refused(self, start, end):
        try:
            old = DataclassTextSpan(start, end)
        except SpanError as err:
            with pytest.raises(SpanError) as exc:
                TextSpan(start, end)
            assert str(exc.value) == str(err) == f"bad span ({start}, {end})"
        else:
            span = TextSpan(start, end)
            assert (repr(span), hash(span)) == (repr(old), hash(old))

    def test_fields_cannot_be_assigned(self):
        span = TextSpan(0, 2)
        values = [
            (span, "start"), (Mention(span, 9), "node_type"),
            (RelationEdge(0, 0, 1), "tail"), (InfoGraph((), (), 3, 2), "n"),
        ]
        for value, name in values:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):  # no instance dict: a value holds its fields only
            span.extra = 1
