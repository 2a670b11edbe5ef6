"""Invertible mapping between ordered graphs and alternating sequences.

Both traversals serialize a graph into a flat list of hybrid-span indices in
which even offsets are node elements (node types or text spans) and odd
offsets are edge elements (real edges or [SEP]).  [SOS]/[EOS] are never
stored; they exist only as decoder context and stop signal.

BFS emits one level per parent: ``parent (edge child)* [SEP]``.  DFS emits
``parent edge child`` triples, re-emitting the parent from its second child
onward and closing every leaf with [SEP]; interleaved this way the global
node/edge alternation still holds.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .hybrid_index import TextSpan, index_to_text_span, span_is_legal, span_to_index
from .info_graph import (
    GraphNode,
    InfoGraph,
    Mention,
    OrderedGraph,
    RelationEdge,
    TypeNode,
    make_graph,
)
from .type_vocab import ElementClass, TypeVocab, classify


class Traversal(str, enum.Enum):
    BFS = "bfs"
    DFS = "dfs"


class SequenceEncodeError(ValueError):
    """Raised when a graph cannot be rendered as a sequence (e.g. span > m)."""


class SequenceDecodeError(ValueError):
    """Raised by decode_sequence; carries the offset of the offending item."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class AltSequence:
    items: tuple[int, ...]
    traversal: Traversal
    vocab: TypeVocab
    n: int
    m: int

    def __len__(self) -> int:
        return len(self.items)


def _node_index(node: GraphNode, vocab: TypeVocab, n: int, m: int) -> int:
    if isinstance(node, TypeNode):
        if not vocab.l_e <= node.type_id < vocab.l_p:
            raise SequenceEncodeError(f"unknown node type id {node.type_id}")
        return node.type_id
    if not span_is_legal(node, n, m):
        raise SequenceEncodeError(f"span {node} illegal for n={n}, m={m}")
    return span_to_index(node, m, vocab.l_p)


def encode_bfs(og: OrderedGraph, vocab: TypeVocab, m: int) -> AltSequence:
    """Breadth-first serialization: per dequeued parent present in the
    adjacency, emit the parent, all (edge, child) pairs, then [SEP]."""
    items: list[int] = []
    visited: set[GraphNode] = set()
    for root in og.roots:
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            parent = queue.popleft()
            children = og.adjacency.get(parent)
            if children is None:
                continue
            items.append(_node_index(parent, vocab, og.n, m))
            for edge_id, child in children:
                items.append(edge_id)
                items.append(_node_index(child, vocab, og.n, m))
            items.append(vocab.sep_index)
            for _, child in children:
                if child not in visited:
                    visited.add(child)
                    queue.append(child)
    return AltSequence(tuple(items), Traversal.BFS, vocab, og.n, m)


def encode_dfs(og: OrderedGraph, vocab: TypeVocab, m: int) -> AltSequence:
    """Depth-first serialization with [SEP] after every leaf.

    The parent token is re-emitted for each child after the first; the first
    child continues directly from the parent's own introduction, which keeps
    the node/edge alternation intact.
    """
    items: list[int] = []
    visited: set[GraphNode] = set()

    def expand(parent: GraphNode) -> None:
        for i, (edge_id, child) in enumerate(og.adjacency[parent]):
            if i > 0:
                items.append(_node_index(parent, vocab, og.n, m))
            items.append(edge_id)
            items.append(_node_index(child, vocab, og.n, m))
            if child in og.adjacency and child not in visited and og.adjacency[child]:
                visited.add(child)
                expand(child)
            else:
                items.append(vocab.sep_index)

    for root in og.roots:
        if root in visited:
            continue
        visited.add(root)
        items.append(_node_index(root, vocab, og.n, m))
        if og.adjacency.get(root):
            expand(root)
        else:
            items.append(vocab.sep_index)
    return AltSequence(tuple(items), Traversal.DFS, vocab, og.n, m)


def encode(og: OrderedGraph, vocab: TypeVocab, m: int, traversal: Traversal) -> AltSequence:
    if traversal == Traversal.BFS:
        return encode_bfs(og, vocab, m)
    return encode_dfs(og, vocab, m)


def validate_sequence(s: AltSequence) -> int | None:
    """Return None if structurally valid, else the offset of the first violation.

    Checks alternation, index ranges (including window cells that run past the
    text), absence of stored [SOS]/[EOS], and [SEP]-closure of the final level.
    """
    vocab, n, m = s.vocab, s.n, s.m
    bound = vocab.l_p + n * m
    if not s.items:
        return 0
    for i, k in enumerate(s.items):
        if not 0 <= k < bound:
            return i
        cls = classify(k, vocab, n, m)
        if cls in (ElementClass.VIRTUAL_SOS, ElementClass.VIRTUAL_EOS):
            return i
        if i % 2 == 0 and not cls.is_node_element:
            return i
        if i % 2 == 1 and not cls.is_edge_element:
            return i
        if cls is ElementClass.TEXT_SPAN:
            span = index_to_text_span(k, m, vocab.l_p)
            if span.end > n:
                return i
        if s.traversal == Traversal.DFS and cls is ElementClass.NODE_TYPE and i % 2 == 0:
            # node-type tokens are leaves in DFS: next edge, if any, must close
            if i + 1 < len(s.items) and s.items[i + 1] != vocab.sep_index:
                return i + 1
    if s.items[-1] != vocab.sep_index:
        return len(s.items) - 1
    return None


def _bfs_levels(s: AltSequence) -> list[list[int]]:
    levels, cur = [], []
    for k in s.items:
        cur.append(k)
        if k == s.vocab.sep_index:
            levels.append(cur)
            cur = []
    return levels


class _GraphAccumulator:
    """Shared mention/relation collector for both traversal decoders."""

    def __init__(self, s: AltSequence):
        self.s = s
        self.types: dict[TextSpan, int] = {}
        self.relations: list[tuple[TextSpan, int, TextSpan]] = []

    def see_span(self, k: int, offset: int) -> TextSpan:
        span = index_to_text_span(k, self.s.m, self.s.vocab.l_p)
        if span.end > self.s.n:
            raise SequenceDecodeError(f"span {span} runs past text of length {self.s.n}", offset)
        self.types.setdefault(span, -1)
        return span

    def assign_type(self, span: TextSpan, type_id: int, offset: int) -> None:
        old = self.types.get(span, -1)
        if old not in (-1, type_id):
            raise SequenceDecodeError(f"conflicting node types for span {span}", offset)
        self.types[span] = type_id

    def add_relation(self, head: TextSpan, edge_id: int, tail: TextSpan) -> None:
        self.relations.append((head, edge_id, tail))

    def build(self) -> InfoGraph:
        untyped = [sp for sp, t in self.types.items() if t == -1]
        if untyped:
            raise SequenceDecodeError(
                f"mention(s) with no type assignment: {sorted((sp.start, sp.end) for sp in untyped)}",
                len(self.s.items) - 1,
            )
        spans = sorted(self.types)
        index = {sp: i for i, sp in enumerate(spans)}
        mentions = [Mention(sp, self.types[sp]) for sp in spans]
        relations = [RelationEdge(index[h], index[t], e) for h, e, t in self.relations]
        return make_graph(mentions, relations, self.s.n, self.s.m)


def _decode_bfs(s: AltSequence) -> InfoGraph:
    vocab = s.vocab
    acc = _GraphAccumulator(s)
    levels = _bfs_levels(s)
    offset = 0
    null_levels = 0
    for level in levels:
        parent_k = level[0]
        parent_cls = classify(parent_k, vocab, s.n, s.m)
        pairs = list(zip(level[1:-1:2], level[2:-1:2]))
        if parent_cls is ElementClass.NODE_TYPE:
            if parent_k != vocab.null_type_index or pairs:
                raise SequenceDecodeError("node-type parent is only legal as a bare [NULL] root", offset)
            null_levels += 1
        else:
            parent = acc.see_span(parent_k, offset)
            for j, (edge_k, child_k) in enumerate(pairs):
                e_off = offset + 1 + 2 * j
                child_cls = classify(child_k, vocab, s.n, s.m)
                if edge_k == vocab.type_edge_index:
                    if child_cls is not ElementClass.NODE_TYPE:
                        raise SequenceDecodeError("[TYPE] child is not a node type", e_off + 1)
                    acc.assign_type(parent, child_k, e_off + 1)
                else:
                    if child_cls is not ElementClass.TEXT_SPAN:
                        raise SequenceDecodeError("relation child is not a text span", e_off + 1)
                    child = acc.see_span(child_k, e_off + 1)
                    acc.add_relation(parent, edge_k, child)
        offset += len(level)
    if null_levels and (len(levels) > 1 or acc.types):
        raise SequenceDecodeError("[NULL] root must be the only level", 0)
    return acc.build()


def _decode_dfs(s: AltSequence) -> InfoGraph:
    vocab = s.vocab
    acc = _GraphAccumulator(s)
    cur: TextSpan | None = None
    cur_k = s.items[0]
    cur_cls = classify(cur_k, vocab, s.n, s.m)
    if cur_cls is ElementClass.TEXT_SPAN:
        cur = acc.see_span(cur_k, 0)
    elif cur_k != vocab.null_type_index:
        raise SequenceDecodeError("DFS sequence must start with a span or [NULL]", 0)
    null_root = cur is None
    for i in range(1, len(s.items) - 1, 2):
        edge_k, node_k = s.items[i], s.items[i + 1]
        node_cls = classify(node_k, vocab, s.n, s.m)
        if edge_k == vocab.sep_index:
            # reset: the node after a [SEP] is a (re-)emitted parent or new root
            if node_cls is ElementClass.TEXT_SPAN:
                cur = acc.see_span(node_k, i + 1)
            elif node_k == vocab.null_type_index:
                cur = None
            else:
                raise SequenceDecodeError("DFS parent after [SEP] must be a span or [NULL]", i + 1)
            continue
        if cur is None:
            raise SequenceDecodeError("[NULL] root cannot own edges", i)
        if edge_k == vocab.type_edge_index:
            if node_cls is not ElementClass.NODE_TYPE:
                raise SequenceDecodeError("[TYPE] child is not a node type", i + 1)
            acc.assign_type(cur, node_k, i + 1)
            cur = None  # type tokens are leaves; a [SEP] reset must follow
        else:
            if node_cls is not ElementClass.TEXT_SPAN:
                raise SequenceDecodeError("relation child is not a text span", i + 1)
            child = acc.see_span(node_k, i + 1)
            acc.add_relation(cur, edge_k, child)
            cur = child  # descend unless the next edge is a [SEP] reset
    if null_root and acc.types:
        raise SequenceDecodeError("[NULL] root must be the only level", 0)
    return acc.build()


def decode_sequence(s: AltSequence) -> InfoGraph:
    """Exact inverse of the matching encoder: rebuild the information graph.

    [TYPE] children become the parent mention's node type; relation children
    become head->tail edges.  Raises SequenceDecodeError with a precise offset
    for any structurally valid sequence that has no graph reading.
    """
    bad = validate_sequence(s)
    if bad is not None:
        raise SequenceDecodeError("sequence fails structural validation", bad)
    if s.traversal == Traversal.BFS:
        return _decode_bfs(s)
    return _decode_dfs(s)
