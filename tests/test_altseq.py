import re
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testutil import fig4_bfs_items, fig4_dfs_items, pinned_vocab, random_edge_freq, random_graph

from hyspa.altseq_codec import (
    AltSequence,
    SequenceDecodeError,
    SequenceEncodeError,
    Traversal,
    decode_sequence,
    encode,
    encode_bfs,
    validate_sequence,
)
from hyspa.hybrid_index import TextSpan, index_to_text_span, span_to_index
from hyspa.info_graph import InfoGraph, Mention, RelationEdge, canonicalize, graph_equal, make_graph

M = 16


def canonical_encode(graph, freq, vocab, traversal):
    return encode(canonicalize(graph, freq, vocab), vocab, M, traversal)


class TestEncodeBfs:
    def test_fig4_exact_items(self, vocab, fig4):
        seq = canonical_encode(fig4, {}, vocab, Traversal.BFS)
        assert list(seq.items) == fig4_bfs_items(vocab)

    def test_empty_graph(self, vocab):
        g = make_graph([], [], n=4, m=M)
        seq = canonical_encode(g, {}, vocab, Traversal.BFS)
        assert list(seq.items) == [vocab.null_type_index, vocab.sep_index]

    def test_length_bound(self, vocab, rng):
        for _ in range(25):
            g = random_graph(rng, vocab)
            seq = canonical_encode(g, {}, vocab, Traversal.BFS)
            n_nodes = len(g.mentions) + len({mn.node_type for mn in g.mentions}) or 1
            n_edges = len(g.relations) + len(g.mentions)
            levels = list(seq.items).count(vocab.sep_index)
            assert len(seq.items) <= 2 * (n_nodes + n_edges) + levels


class TestEncodeDfs:
    def test_fig4_exact_items(self, vocab, fig4):
        seq = canonical_encode(fig4, {}, vocab, Traversal.DFS)
        assert list(seq.items) == fig4_dfs_items(vocab)

    def test_single_mention(self, vocab):
        from hyspa.hybrid_index import TextSpan
        from hyspa.info_graph import Mention

        g = make_graph([Mention(TextSpan(1, 2), vocab.l_e)], [], n=4, m=M)
        seq = canonical_encode(g, {}, vocab, Traversal.DFS)
        span_idx = vocab.l_p + 1 * M + 0
        assert list(seq.items) == [span_idx, vocab.type_edge_index, vocab.l_e, vocab.sep_index]

    def test_empty_graph(self, vocab):
        g = make_graph([], [], n=4, m=M)
        seq = canonical_encode(g, {}, vocab, Traversal.DFS)
        assert list(seq.items) == [vocab.null_type_index, vocab.sep_index]

    def test_chain_recursion_alternates(self, vocab):
        from hyspa.hybrid_index import TextSpan
        from hyspa.info_graph import Mention, RelationEdge

        mentions = [
            Mention(TextSpan(0, 1), vocab.l_e),
            Mention(TextSpan(2, 3), vocab.l_e + 1),
            Mention(TextSpan(4, 5), vocab.l_e + 2),
        ]
        rels = [
            RelationEdge(0, 1, vocab.index("PHYS")),
            RelationEdge(1, 2, vocab.index("PHYS")),
        ]
        g = make_graph(mentions, rels, n=6, m=M)
        seq = canonical_encode(g, {}, vocab, Traversal.DFS)
        assert validate_sequence(seq) is None
        assert graph_equal(decode_sequence(seq), g)


class TestLongChain:
    @pytest.mark.parametrize("traversal", list(Traversal))
    def test_chain_longer_than_the_recursion_limit(self, vocab, traversal):
        # one-token mentions, each related to the next: DFS goes one level
        # deeper per mention, so a recursive walk would overflow the stack
        n = sys.getrecursionlimit() + 200
        mentions = [Mention(TextSpan(i, i + 1), vocab.l_e) for i in range(n)]
        rels = [RelationEdge(i, i + 1, vocab.index("PHYS")) for i in range(n - 1)]
        g = make_graph(mentions, rels, n=n, m=M)
        seq = canonical_encode(g, {}, vocab, traversal)
        assert validate_sequence(seq) is None
        assert graph_equal(decode_sequence(seq), g)


class TestValidateSequence:
    def test_encoder_output_ok(self, vocab, rng):
        for _ in range(25):
            g = random_graph(rng, vocab)
            for trv in Traversal:
                assert validate_sequence(canonical_encode(g, {}, vocab, trv)) is None

    def test_node_after_node(self, vocab):
        seq = AltSequence((19, 19), Traversal.BFS, vocab, 9, M)
        assert validate_sequence(seq) == 1

    def test_missing_final_sep(self, vocab):
        items = fig4_bfs_items(vocab)[:-1]
        seq = AltSequence(tuple(items), Traversal.BFS, vocab, 9, M)
        assert validate_sequence(seq) is not None

    def test_stored_sos_eos_rejected(self, vocab):
        seq = AltSequence((19, vocab.eos_index), Traversal.BFS, vocab, 9, M)
        assert validate_sequence(seq) == 1

    def test_span_past_text_rejected(self, vocab):
        k = vocab.l_p + 8 * M + 3  # span (8, 12) with n=9 runs past the text
        seq = AltSequence((k, vocab.sep_index), Traversal.BFS, vocab, 9, M)
        assert validate_sequence(seq) == 0

    def test_empty_sequence_rejected(self, vocab):
        seq = AltSequence((), Traversal.BFS, vocab, 9, M)
        assert validate_sequence(seq) == 0

    def test_dfs_type_leaf_must_close(self, vocab):
        per, phys = vocab.index("PER"), vocab.index("PHYS")
        items = (19, vocab.type_edge_index, per, phys, 83, vocab.sep_index)
        seq = AltSequence(items, Traversal.DFS, vocab, 9, M)
        assert validate_sequence(seq) == 3  # PHYS after a node-type leaf
        ok = AltSequence(items, Traversal.BFS, vocab, 9, M)
        assert validate_sequence(ok) is None  # same items are fine under BFS


class TestDecodeSequence:
    def test_fig4_bfs_roundtrip(self, vocab, fig4):
        seq = canonical_encode(fig4, {}, vocab, Traversal.BFS)
        assert graph_equal(decode_sequence(seq), fig4)

    def test_null_sequence(self, vocab):
        seq = AltSequence(
            (vocab.null_type_index, vocab.sep_index), Traversal.BFS, vocab, 4, M
        )
        assert decode_sequence(seq).is_empty

    def test_type_child_must_be_node_type(self, vocab):
        items = (19, vocab.type_edge_index, 83, vocab.sep_index)
        seq = AltSequence(items, Traversal.BFS, vocab, 9, M)
        with pytest.raises(SequenceDecodeError, match="node type"):
            decode_sequence(seq)

    def test_relation_child_must_be_span(self, vocab):
        per = vocab.index("PER")
        items = (19, vocab.type_edge_index, per, vocab.index("PHYS"), per, vocab.sep_index)
        seq = AltSequence(items, Traversal.BFS, vocab, 9, M)
        with pytest.raises(SequenceDecodeError, match="text span"):
            decode_sequence(seq)

    def test_untyped_mention_rejected(self, vocab):
        items = (19, vocab.index("PHYS"), 83, vocab.sep_index)
        seq = AltSequence(items, Traversal.BFS, vocab, 9, M)
        with pytest.raises(SequenceDecodeError, match="no type assignment"):
            decode_sequence(seq)

    @pytest.mark.parametrize("traversal", list(Traversal))
    @pytest.mark.parametrize("lead", ["typed_span", "null"])
    def test_null_level_must_be_the_only_level(self, vocab, traversal, lead):
        per, sep, null = vocab.index("PER"), vocab.sep_index, vocab.null_type_index
        first = (19, vocab.type_edge_index, per, sep) if lead == "typed_span" else (null, sep)
        seq = AltSequence((*first, null, sep), traversal, vocab, 9, M)
        with pytest.raises(SequenceDecodeError, match=r"\[NULL\] root must be the only level") as err:
            decode_sequence(seq)
        assert err.value.offset == 0

    @pytest.mark.parametrize("traversal", list(Traversal))
    def test_type_parent_rejected_at_its_offset(self, vocab, traversal):
        per, sep = vocab.index("PER"), vocab.sep_index
        items = (19, vocab.type_edge_index, per, sep, vocab.index("ORG"), sep)
        seq = AltSequence(items, traversal, vocab, 9, M)
        with pytest.raises(SequenceDecodeError, match="node-type parent is only legal as a bare") as err:
            decode_sequence(seq)
        assert err.value.offset == 4

    @given(st.lists(st.integers(0, 19 + 9 * 16 - 1), min_size=0, max_size=24), st.sampled_from(list(Traversal)))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_never_crashes(self, items, traversal):
        vocab = pinned_vocab()
        seq = AltSequence(tuple(items), traversal, vocab, 9, M)
        try:
            g = decode_sequence(seq)
        except SequenceDecodeError as err:
            if str(err).startswith("sequence fails structural validation"):
                assert err.offset == validate_sequence(seq)
            return
        assert g.n == 9
        assert validate_sequence(seq) is None
        for trv in Traversal:
            assert graph_equal(decode_sequence(canonical_encode(g, {}, vocab, trv)), g), trv


class TestRoundTrip:
    def test_graph_side_1000_random(self, vocab):
        rng = np.random.default_rng(7)
        for i in range(250):
            g = random_graph(rng, vocab)
            freq = random_edge_freq(rng, vocab)
            for trv in Traversal:
                seq = canonical_encode(g, freq, vocab, trv)
                assert validate_sequence(seq) is None, (i, trv)
                assert graph_equal(decode_sequence(seq), g), (i, trv)

    def test_sequence_side(self, vocab):
        rng = np.random.default_rng(8)
        for i in range(100):
            g = random_graph(rng, vocab)
            freq = random_edge_freq(rng, vocab)
            for trv in Traversal:
                seq = canonical_encode(g, freq, vocab, trv)
                again = canonical_encode(decode_sequence(seq), freq, vocab, trv)
                assert seq.items == again.items, (i, trv)

    def test_alternation_invariant(self, vocab, rng):
        for _ in range(20):
            g = random_graph(rng, vocab)
            for trv in Traversal:
                seq = canonical_encode(g, {}, vocab, trv)
                for off, k in enumerate(seq.items):
                    is_node = k >= vocab.l_e  # a node type or a text span
                    assert is_node == (off % 2 == 0), (off, k)

    def test_canonicalize_idempotent_through_codec(self, vocab, rng):
        for _ in range(20):
            g = random_graph(rng, vocab)
            freq = random_edge_freq(rng, vocab)
            og1 = canonicalize(g, freq, vocab)
            g2 = decode_sequence(encode_bfs(og1, vocab))
            og2 = canonicalize(g2, freq, vocab)
            assert og1 == og2

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, seed):
        vocab = pinned_vocab()
        rng = np.random.default_rng(seed)
        g = random_graph(rng, vocab, n_max=48, max_mentions=8, max_relations=12)
        freq = random_edge_freq(rng, vocab)
        for trv in Traversal:
            seq = canonical_encode(g, freq, vocab, trv)
            assert graph_equal(decode_sequence(seq), g)


def invalid_graphs(vocab):
    """One case per graph the codec refuses: the graph, and the problem its
    SequenceEncodeError names."""
    per, phys = vocab.index("PER"), vocab.index("PHYS")

    def case(name, problem, spans, relations=(), n=8, node_type=per):
        mentions = tuple(Mention(TextSpan(*sp), node_type) for sp in spans)
        graph = InfoGraph(mentions, tuple(RelationEdge(*r) for r in relations), n, M)
        return pytest.param(graph, problem, id=name)

    outside = f"outside [{vocab.l_e}, {vocab.l_p})"
    return [
        case("span_past_text", "mention 1: span (6, 9) outside text of length 8", [(0, 1), (6, 9)]),
        case("span_longer_than_m", "mention 0: span length 17 exceeds maximum 16", [(0, 17)], n=32),
        case("type_below_l_e", f"mention 0: node type {vocab.l_e - 1} {outside}", [(0, 1)], node_type=vocab.l_e - 1),
        case("type_at_l_p", f"mention 0: node type {vocab.l_p} {outside}", [(0, 1)], node_type=vocab.l_p),
        case("dangling_head", "relation 0: dangling head reference 2", [(0, 1), (2, 3)], [(2, 0, phys)]),
        case("dangling_tail", "relation 1: dangling tail reference 3", [(0, 1), (2, 3)], [(0, 1, phys), (1, 3, phys)]),
        case("duplicate_spans", "mention 2: duplicate span (2, 3)", [(0, 1), (2, 3), (2, 3)]),
        case("sep_as_relation", f"relation 0: illegal edge type {vocab.sep_index}", [(0, 1)],
             [(0, 0, vocab.sep_index)]),
    ]


class TestEncodeErrors:
    @pytest.mark.parametrize("traversal", list(Traversal))
    @pytest.mark.parametrize("graph, problem", invalid_graphs(pinned_vocab()))
    def test_invalid_graph_names_its_problem(self, vocab, traversal, graph, problem):
        with pytest.raises(SequenceEncodeError, match=re.escape(problem)):
            canonical_encode(graph, {}, vocab, traversal)

    @pytest.mark.parametrize("traversal", list(Traversal))
    def test_m_other_than_the_graphs(self, vocab, fig4, traversal):
        og = canonicalize(fig4, {}, vocab)
        with pytest.raises(SequenceEncodeError, match="maximum span length 16, encoded with m=17"):
            encode(og, vocab, M + 1, traversal)


# -- the span/type-node ordering and encoders the item encoders replaced, kept as their oracle


@dataclass(frozen=True)
class TypeNode:
    type_id: int


def reference_canonicalize(g, edge_freq, vocab):
    """(roots, adjacency) over TextSpan and TypeNode nodes."""
    edge_freq = edge_freq or {}
    if not g.mentions:
        null_node = TypeNode(vocab.null_type_index)
        return (null_node,), {null_node: ()}
    outgoing = {i: [] for i in range(len(g.mentions))}
    for rel in g.relations:
        outgoing[rel.head].append(rel)
    adjacency, roots = {}, []
    for i in sorted(range(len(g.mentions)), key=lambda i: g.mentions[i].span):
        mention = g.mentions[i]
        children = [(vocab.type_edge_index, TypeNode(mention.node_type))]
        rels = sorted(
            outgoing[i],
            key=lambda r: (-edge_freq.get(r.edge_type, 0), r.edge_type, g.mentions[r.tail].span),
        )
        children.extend((r.edge_type, g.mentions[r.tail].span) for r in rels)
        adjacency[mention.span] = tuple(children)
        roots.append(mention.span)
    return tuple(roots), adjacency


def reference_item(node, vocab):
    return node.type_id if isinstance(node, TypeNode) else span_to_index(node, M, vocab.l_p)


def reference_encode_bfs(roots, adjacency, vocab):
    items, visited = [], set()
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            parent = queue.popleft()
            children = adjacency.get(parent)
            if children is None:
                continue
            items.append(reference_item(parent, vocab))
            for edge_id, child in children:
                items.append(edge_id)
                items.append(reference_item(child, vocab))
            items.append(vocab.sep_index)
            for _, child in children:
                if child not in visited:
                    visited.add(child)
                    queue.append(child)
    return items


def reference_encode_dfs(roots, adjacency, vocab):
    items, visited = [], set()

    def expand(parent):
        for i, (edge_id, child) in enumerate(adjacency[parent]):
            if i > 0:
                items.append(reference_item(parent, vocab))
            items.append(edge_id)
            items.append(reference_item(child, vocab))
            if child in adjacency and child not in visited and adjacency[child]:
                visited.add(child)
                expand(child)
            else:
                items.append(vocab.sep_index)

    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        items.append(reference_item(root, vocab))
        if adjacency.get(root):
            expand(root)
        else:
            items.append(vocab.sep_index)
    return items


class TestItemEncoders:
    @given(seed=st.integers(0, 10_000), with_freq=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_item_encoders_match_the_node_encoders(self, seed, with_freq):
        # C2-style graphs, their mentions listed in a random order; without
        # frequencies every relation ties on it and sorts by type, then tail
        vocab = pinned_vocab()
        rng = np.random.default_rng(seed)
        g = random_graph(rng, vocab, n_max=48, max_mentions=10, max_relations=16, p_empty=0.1)
        perm = rng.permutation(len(g.mentions))
        at = np.argsort(perm)  # old mention index -> its new position
        g = InfoGraph(
            tuple(g.mentions[i] for i in perm),
            tuple(RelationEdge(int(at[r.head]), int(at[r.tail]), r.edge_type) for r in g.relations),
            g.n, g.m,
        )
        freq = random_edge_freq(rng, vocab) if with_freq else {}
        roots, adjacency = reference_canonicalize(g, freq, vocab)
        og = canonicalize(g, freq, vocab)
        assert list(encode(og, vocab, M, Traversal.BFS).items) == reference_encode_bfs(roots, adjacency, vocab)
        assert list(encode(og, vocab, M, Traversal.DFS).items) == reference_encode_dfs(roots, adjacency, vocab)


# -- the two-walk decoder the one walk replaced, kept as the oracle of its offsets and messages


def reference_validate(s):
    items, vocab, n, m = s.items, s.vocab, s.n, s.m
    if not items:
        return 0
    l_e, l_p, sos, sep = vocab.l_e, vocab.l_p, vocab.sos_index, vocab.sep_index
    bound = l_p + n * m
    dfs = s.traversal == Traversal.DFS
    for i, k in enumerate(items):
        if not 0 <= k < bound:
            return i
        if i % 2:
            if k >= sos and k != sep:
                return i
        elif k >= l_p:
            off = k - l_p
            if off // m + off % m >= n:
                return i
        elif k < l_e:
            return i
        elif dfs and i + 1 < len(items) and items[i + 1] != sep:
            return i + 1
    return None if items[-1] == sep else len(items) - 1


def reference_decode(s):
    bad = reference_validate(s)
    if bad is not None:
        raise SequenceDecodeError("sequence fails structural validation", bad)
    items, vocab, m = s.items, s.vocab, s.m
    l_p, sep, type_edge = vocab.l_p, vocab.sep_index, vocab.type_edge_index
    null, descend = vocab.null_type_index, s.traversal == Traversal.DFS
    types, relations = {}, []
    cur, null_root = None, False
    for i, edge, k in zip(range(0, len(items), 2), (sep, *items[1::2]), items[::2]):
        if edge == sep:
            if k < l_p:
                if k != null or items[i + 1] != sep:
                    raise SequenceDecodeError("node-type parent is only legal as a bare [NULL] root", i)
                null_root = True
            else:
                cur = k
                types.setdefault(k, -1)
        elif edge == type_edge:
            if k >= l_p:
                raise SequenceDecodeError("[TYPE] child is not a node type", i)
            if types[cur] not in (-1, k):
                raise SequenceDecodeError(f"conflicting node types for span {index_to_text_span(cur, m, l_p)}", i)
            types[cur] = k
        else:
            if k < l_p:
                raise SequenceDecodeError("relation child is not a text span", i)
            types.setdefault(k, -1)
            relations.append((cur, edge, k))
            if descend:
                cur = k
    if null_root and len(items) > 2:
        raise SequenceDecodeError("[NULL] root must be the only level", 0)
    order = sorted(types)
    spans = [index_to_text_span(k, m, l_p) for k in order]
    untyped = [(sp.start, sp.end) for sp, k in zip(spans, order) if types[k] == -1]
    if untyped:
        raise SequenceDecodeError(f"mention(s) with no type assignment: {untyped}", len(items) - 1)
    index = {k: i for i, k in enumerate(order)}
    mentions = tuple(Mention(sp, types[k]) for sp, k in zip(spans, order))
    return InfoGraph(mentions, tuple(RelationEdge(index[h], index[t], e) for h, e, t in relations), s.n, m)


def outcome(decode, seq):
    """The graph ``decode`` reads, or the type, message and offset it raises."""
    try:
        return decode(seq)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None)


MUTATIONS = ("replace", "insert", "delete", "swap", "truncate")


class TestOneWalk:
    @given(seed=st.integers(0, 10_000), traversal=st.sampled_from(list(Traversal)), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_walk_matches_the_two_walks(self, seed, traversal, data):
        # a canonical encoding, then after each of up to four mutations: the one
        # walk reads the same graph as validate-then-decode, or raises the same
        # error at the same offset, and validate_sequence returns the same offset
        vocab = pinned_vocab()
        rng = np.random.default_rng(seed)
        g = random_graph(rng, vocab, n_max=24, max_mentions=6, max_relations=8, p_empty=0.15)
        items = list(canonical_encode(g, random_edge_freq(rng, vocab), vocab, traversal).items)
        top = vocab.l_p + g.n * M + 2
        special = [vocab.sep_index, vocab.type_edge_index, vocab.null_type_index, vocab.sos_index,
                   vocab.index("PER"), vocab.index("PHYS")]
        for step in range(data.draw(st.integers(0, 4), label="mutations") + 1):
            if step:
                kind = data.draw(st.sampled_from(MUTATIONS if items else ("insert",)), label="kind")
                at = data.draw(st.integers(0, max(len(items) - 1, 0)), label="at")
                # any value in range, or one the sequence or the layout makes likely to read
                value = st.one_of(st.integers(-2, top), st.sampled_from(items[at % 2::2] or special), st.sampled_from(special))
                values = data.draw(st.lists(value, min_size=1, max_size=2), label="values")
                if kind == "replace":
                    items[at] = values[0]
                elif kind == "insert":
                    items[at:at] = values
                elif kind == "delete":
                    del items[at]
                elif kind == "swap":
                    to = data.draw(st.integers(0, len(items) - 1), label="to")
                    items[at], items[to] = items[to], items[at]
                else:
                    del items[at:]
            seq = AltSequence(tuple(items), traversal, vocab, g.n, M)
            old, new = outcome(reference_decode, seq), outcome(decode_sequence, seq)
            assert graph_equal(new, old) if isinstance(old, InfoGraph) else new == old, (seq.items, step)
            assert validate_sequence(seq) == reference_validate(seq), (seq.items, step)
