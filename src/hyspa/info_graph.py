"""Information-graph data model, deterministic ordering, and graph equality.

A graph holds text-span mentions with node types plus directed typed relation
edges between them.  ``validate_graph`` is the one definition of a legal
graph.  ``canonicalize`` checks it, then orders the graph as the sequence items
the traversal encoders emit: a mention is its span index, a node type its type
index.  Each relation edge is owned by its head mention, the [TYPE] edge to the
mention's node type always comes first, and all orders are fully deterministic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .hybrid_index import TextSpan, span_to_index
from .type_vocab import TypeVocab


class SequenceEncodeError(ValueError):
    """Raised when a graph cannot be rendered as a sequence; names the first problem."""


@dataclass(frozen=True, order=True)
class Mention:
    span: TextSpan
    node_type: int


@dataclass(frozen=True, order=True)
class RelationEdge:
    """Directed edge between mentions, referenced by index into the mention list."""

    head: int
    tail: int
    edge_type: int


@dataclass(frozen=True)
class InfoGraph:
    mentions: tuple[Mention, ...]
    relations: tuple[RelationEdge, ...]
    n: int
    m: int

    @property
    def is_empty(self) -> bool:
        return not self.mentions


@dataclass
class OrderedGraph:
    """A graph ordered as sequence items, ready for traversal encoding.

    ``roots`` lists candidate level parents in emission order; ``adjacency``
    maps each parent to its ordered (edge, child) pairs.  A mention is its
    span index and a node type its type index; the [NULL] root of an empty
    graph is ``vocab.null_type_index``.  Only items with an adjacency entry
    ever open a traversal level.
    """

    roots: tuple[int, ...]
    adjacency: dict[int, tuple[tuple[int, int], ...]]
    n: int
    m: int


def make_graph(mentions, relations, n: int, m: int) -> InfoGraph:
    """Build an InfoGraph with mentions sorted by span, remapping relation refs."""
    mentions = list(mentions)
    perm = sorted(range(len(mentions)), key=lambda i: (mentions[i].span, mentions[i].node_type))
    remap = {old: new for new, old in enumerate(perm)}
    ms = tuple(mentions[i] for i in perm)
    # dangling references pass through untouched; validate_graph reports them
    rels = tuple(
        RelationEdge(remap.get(r.head, r.head), remap.get(r.tail, r.tail), r.edge_type)
        for r in relations
    )
    return InfoGraph(ms, rels, n, m)


def validate_graph(g: InfoGraph, n: int, m: int, vocab: TypeVocab) -> list[str]:
    """Return a list of violations (empty list means the graph is valid)."""
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


def canonicalize(
    g: InfoGraph,
    edge_freq: Mapping[int, int] | None,
    vocab: TypeVocab,
) -> OrderedGraph:
    """Order the graph as sequence items for traversal encoding.

    A graph that ``validate_graph`` refuses raises SequenceEncodeError naming
    its first problem.  Roots are mention spans ascending by (start, end),
    which is their index order.  Per mention, the [TYPE] edge to its node type
    comes first, then relation edges sorted by descending ``edge_freq`` (ties
    by edge type id, then by tail span).  An empty graph becomes a single
    [NULL] root with no children.
    """
    problems = validate_graph(g, g.n, g.m, vocab)
    if problems:
        raise SequenceEncodeError(problems[0])
    if not g.mentions:
        null = vocab.null_type_index
        return OrderedGraph(roots=(null,), adjacency={null: ()}, n=g.n, m=g.m)

    edge_freq = edge_freq or {}
    items = [span_to_index(mn.span, g.m, vocab.l_p) for mn in g.mentions]
    outgoing: list[list[tuple[int, int, int]]] = [[] for _ in items]
    for rel in g.relations:
        outgoing[rel.head].append((-edge_freq.get(rel.edge_type, 0), rel.edge_type, items[rel.tail]))

    adjacency: dict[int, tuple[tuple[int, int], ...]] = {}
    for i in sorted(range(len(items)), key=items.__getitem__):
        adjacency[items[i]] = (
            (vocab.type_edge_index, g.mentions[i].node_type),
            *((edge, tail) for _, edge, tail in sorted(outgoing[i])),
        )
    return OrderedGraph(roots=tuple(adjacency), adjacency=adjacency, n=g.n, m=g.m)


def span_keys(g: InfoGraph) -> tuple[set, Counter]:
    """The keys span-level comparison reads: the set of mentions as (start,
    end, type) and the multiset of relations as (head start, head end, tail
    start, tail end, type)."""
    mentions = {(mn.span.start, mn.span.end, mn.node_type) for mn in g.mentions}
    relations = Counter(
        (
            g.mentions[r.head].span.start,
            g.mentions[r.head].span.end,
            g.mentions[r.tail].span.start,
            g.mentions[r.tail].span.end,
            r.edge_type,
        )
        for r in g.relations
    )
    return mentions, relations


def graph_equal(a: InfoGraph, b: InfoGraph) -> bool:
    """Span-level equality: same mention set and same relation multiset."""
    return span_keys(a) == span_keys(b)
