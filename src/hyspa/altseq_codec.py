"""Invertible mapping between ordered graphs and alternating sequences.

Both traversals serialize a graph into a flat list of hybrid-span indices in
which even offsets are node elements (node types or text spans) and odd
offsets are edge elements (real edges or [SEP]).  [SOS]/[EOS] are never
stored; they exist only as decoder context and stop signal.  The encoders walk
the items ``canonicalize`` ordered and checked, and copy them as they are.

BFS emits one level per parent: ``parent (edge child)* [SEP]``.  DFS emits
``parent edge child`` triples, re-emitting the parent from its second child
onward and closing every leaf with [SEP]; interleaved this way the global
node/edge alternation still holds.

One decoder inverts both.  It reads a sequence as ``node (edge node)*`` in
which the first node and every node after [SEP] open a level, and the two
traversals differ in one rule only: a relation's child becomes the current
parent under DFS and does not under BFS.  It walks the (edge, node) pairs
once, checking each pair's structure and reading it in the same iteration;
``validate_sequence`` is that walk with the reading switched off, so each
structure rule is written once.  Items are classified by comparing them with
the vocabulary's ``l_e``/``l_p`` bounds.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .hybrid_index import index_to_text_span
from .info_graph import InfoGraph, Mention, OrderedGraph, RelationEdge, SequenceEncodeError
from .type_vocab import TypeVocab


class Traversal(str, enum.Enum):
    BFS = "bfs"
    DFS = "dfs"


_INVALID = "sequence fails structural validation"


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


def encode_bfs(og: OrderedGraph, vocab: TypeVocab) -> AltSequence:
    """Breadth-first serialization: per dequeued parent, emit the parent, all
    (edge, child) pairs, then [SEP].  Only relation children are queued; a
    [TYPE] child never opens a level."""
    items: list[int] = []
    visited: set[int] = set()
    sep, type_edge = vocab.sep_index, vocab.type_edge_index
    for root in og.adjacency:
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            parent = queue.popleft()
            children = og.adjacency[parent]
            items.append(parent)
            for pair in children:
                items.extend(pair)
            items.append(sep)
            for edge, child in children:
                if edge != type_edge and child not in visited:
                    visited.add(child)
                    queue.append(child)
    return AltSequence(tuple(items), Traversal.BFS, vocab, og.n, og.m)


def encode_dfs(og: OrderedGraph, vocab: TypeVocab) -> AltSequence:
    """Depth-first serialization with [SEP] after every leaf.

    The parent item is re-emitted for each child after the first; the first
    child continues directly from the parent's own introduction, which keeps
    the node/edge alternation intact.
    """
    items: list[int] = []
    visited: set[int] = set()
    sep = vocab.sep_index

    def expand(parent: int) -> None:
        for i, (edge_id, child) in enumerate(og.adjacency[parent]):
            if i > 0:
                items.append(parent)
            items.append(edge_id)
            items.append(child)
            if child in og.adjacency and child not in visited and og.adjacency[child]:
                visited.add(child)
                expand(child)
            else:
                items.append(sep)

    for root in og.adjacency:
        if root in visited:
            continue
        visited.add(root)
        items.append(root)
        if og.adjacency[root]:
            expand(root)
        else:
            items.append(sep)
    return AltSequence(tuple(items), Traversal.DFS, vocab, og.n, og.m)


def encode(og: OrderedGraph, vocab: TypeVocab, m: int, traversal: Traversal) -> AltSequence:
    """The ``traversal`` sequence of ``og``; ``m`` must be the one ``og``'s spans were indexed with."""
    if m != og.m:
        raise SequenceEncodeError(f"graph ordered for maximum span length {og.m}, encoded with m={m}")
    if traversal == Traversal.BFS:
        return encode_bfs(og, vocab)
    return encode_dfs(og, vocab)


def validate_sequence(s: AltSequence) -> int | None:
    """Return None if structurally valid, else the offset of the first violation.

    Checks alternation, index ranges (including window cells that run past the
    text), absence of stored [SOS]/[EOS], [SEP]-closure of the final level and,
    under DFS, that every node type is a leaf: this is ``decode_sequence``'s
    walk with the reading switched off.
    """
    try:
        decode_sequence(s, _read=False)
    except SequenceDecodeError as err:
        return err.offset
    return None


def decode_sequence(s: AltSequence, *, _read: bool = True) -> InfoGraph:
    """Exact inverse of the matching encoder: rebuild the information graph.

    One walk over the (edge, node) pairs serves both traversals.  Each pair is
    checked (the edge, then the node, then the DFS leaf rule) and read in the
    same iteration.  The first node and each node after [SEP] open a level: a
    span, or [NULL] as the lone root.  [TYPE] types the current span; a
    relation links it to a span child, which becomes the current span under
    DFS, while BFS keeps the parent.  Mentions are keyed by their span index
    until the graph is built; index order is span order.

    A structural violation raises SequenceDecodeError at once, at the offset
    ``validate_sequence`` returns.  The first reading error is held until every
    item has been checked, and reading stops there.  ``_read=False`` only checks.
    """
    items, vocab, n, m = s.items, s.vocab, s.n, s.m
    if not items:
        raise SequenceDecodeError(_INVALID, 0)
    l_e, l_p, sos, sep = vocab.l_e, vocab.l_p, vocab.sos_index, vocab.sep_index
    type_edge, null, dfs = vocab.type_edge_index, vocab.null_type_index, s.traversal == Traversal.DFS
    last = len(items) - 1
    types: dict[int, int] = {}  # span index -> node type, -1 until typed
    relations: list[tuple[int, int, int]] = []
    cur, null_root, held = None, False, None
    for i, edge, k in zip(range(0, len(items), 2), (sep, *items[1::2]), items[::2]):
        if not 0 <= edge < sos and edge != sep:  # edge slots hold a real edge or [SEP]
            raise SequenceDecodeError(_INVALID, i - 1)
        if k >= l_p:
            off = k - l_p
            if off // m + off % m >= n:  # past the output space, or the window's end runs past the text
                raise SequenceDecodeError(_INVALID, i)
        elif k < l_e:
            raise SequenceDecodeError(_INVALID, i)
        elif dfs and i < last and items[i + 1] != sep:
            raise SequenceDecodeError(_INVALID, i + 1)  # node types are DFS leaves: the next edge must close
        if not _read:
            continue
        if edge == sep:
            if k < l_p:
                if k != null or i == last or items[i + 1] != sep:
                    held = SequenceDecodeError("node-type parent is only legal as a bare [NULL] root", i)
                null_root = True
            else:
                cur = k
                types.setdefault(k, -1)
        elif edge == type_edge:
            if k >= l_p:
                held = SequenceDecodeError("[TYPE] child is not a node type", i)
            elif types[cur] not in (-1, k):
                held = SequenceDecodeError(f"conflicting node types for span {index_to_text_span(cur, m, l_p)}", i)
            types[cur] = k
        else:
            if k < l_p:
                held = SequenceDecodeError("relation child is not a text span", i)
            types.setdefault(k, -1)
            relations.append((cur, edge, k))
            if dfs:
                cur = k
        _read = held is None
    if items[last] != sep:
        raise SequenceDecodeError(_INVALID, last)
    if held is not None:
        raise held
    if not _read:
        return None
    if null_root and len(items) > 2:
        raise SequenceDecodeError("[NULL] root must be the only level", 0)
    order = sorted(types)
    mentions = tuple([Mention(index_to_text_span(k, m, l_p), types[k]) for k in order])
    untyped = [(start, end) for (start, end), node_type in mentions if node_type == -1]
    if untyped:
        raise SequenceDecodeError(f"mention(s) with no type assignment: {untyped}", last)
    index = {k: i for i, k in enumerate(order)}
    return InfoGraph(mentions, tuple([RelationEdge(index[h], index[t], e) for h, e, t in relations]), n, m)

