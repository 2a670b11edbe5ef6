"""Information-graph data model, deterministic ordering, and graph equality.

A graph holds text-span mentions with node types plus directed typed relation
edges between them.  Mentions, relations and graphs are named tuples, so they
order, compare and hash as tuples of their fields.  ``validate_graph`` is the
one definition of a legal graph.  ``canonicalize`` checks it, then orders the
graph as the sequence items the traversal encoders emit: a mention is its span
index, a node type its type index.  Each relation edge is owned by its head
mention, the [TYPE] edge to the mention's node type always comes first, and all
orders are fully deterministic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .hybrid_index import TextSpan, span_to_index
from .type_vocab import TypeVocab


class SequenceEncodeError(ValueError):
    """Raised when a graph cannot be rendered as a sequence; names the first problem."""


class Mention(NamedTuple):
    span: TextSpan
    node_type: int


class RelationEdge(NamedTuple):
    """Directed edge between mentions, referenced by index into the mention list."""

    head: int
    tail: int
    edge_type: int


class InfoGraph(NamedTuple):
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

    ``adjacency`` maps each parent to its ordered (edge, child) pairs; its
    keys, in their order, are the candidate level roots.  A mention is its
    span index and a node type its type index; the [NULL] root of an empty
    graph is ``vocab.null_type_index``.  Only items with an adjacency entry
    ever open a traversal level.
    """

    adjacency: dict[int, tuple[tuple[int, int], ...]]
    n: int
    m: int


def make_graph(mentions, relations, n: int, m: int) -> InfoGraph:
    """Build an InfoGraph with mentions sorted by span, remapping relation refs."""
    mentions = list(mentions)
    perm = sorted(range(len(mentions)), key=mentions.__getitem__)  # a mention orders by (span, node type)
    remap = {old: new for new, old in enumerate(perm)}
    # dangling references pass through untouched; validate_graph reports them
    rels = tuple([RelationEdge(remap.get(h, h), remap.get(t, t), e) for h, t, e in relations])
    return InfoGraph(tuple(map(mentions.__getitem__, perm)), rels, n, m)


def validate_graph(g: InfoGraph, n: int, m: int, vocab: TypeVocab) -> list[str]:
    """Return a list of violations (empty list means the graph is valid)."""
    problems = []
    seen_spans = set()
    l_e, l_p = vocab.l_e, vocab.l_p
    for i, (span, node_type) in enumerate(g.mentions):
        start, end = span
        if not (0 <= start < end <= n):
            problems.append(f"mention {i}: span ({start}, {end}) outside text of length {n}")
        if end - start > m:
            problems.append(f"mention {i}: span length {end - start} exceeds maximum {m}")
        if span in seen_spans:
            problems.append(f"mention {i}: duplicate span ({start}, {end})")
        seen_spans.add(span)
        if not l_e <= node_type < l_p:
            problems.append(f"mention {i}: node type {node_type} outside [{l_e}, {l_p})")
    count, edges, type_edge = len(g.mentions), len(vocab.edge_types), vocab.type_edge_index
    for j, (head, tail, edge_type) in enumerate(g.relations):
        if not 0 <= head < count:
            problems.append(f"relation {j}: dangling head reference {head}")
        if not 0 <= tail < count:
            problems.append(f"relation {j}: dangling tail reference {tail}")
        if not 0 <= edge_type < edges or edge_type == type_edge:
            problems.append(f"relation {j}: illegal edge type {edge_type}")
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
        return OrderedGraph(adjacency={null: ()}, n=g.n, m=g.m)

    edge_freq = edge_freq or {}
    m, l_p, type_edge = g.m, vocab.l_p, vocab.type_edge_index
    items = [span_to_index(span, m, l_p) for span, _ in g.mentions]
    outgoing: list[list[tuple[int, int, int]]] = [[] for _ in items]
    for head, tail, edge_type in g.relations:
        outgoing[head].append((-edge_freq.get(edge_type, 0), edge_type, items[tail]))

    adjacency: dict[int, tuple[tuple[int, int], ...]] = {}
    for i in sorted(range(len(items)), key=items.__getitem__):
        adjacency[items[i]] = (
            (type_edge, g.mentions[i].node_type),
            *((edge, tail) for _, edge, tail in sorted(outgoing[i])),
        )
    return OrderedGraph(adjacency=adjacency, n=g.n, m=g.m)


def span_keys(g: InfoGraph) -> tuple[set, Counter]:
    """The keys span-level comparison reads: the set of mentions, each a
    (span, type) tuple, and the multiset of relations as (head span, tail
    span, type)."""
    spans = [mn.span for mn in g.mentions]
    relations = Counter([(spans[r.head], spans[r.tail], r.edge_type) for r in g.relations])
    return set(g.mentions), relations


def graph_equal(a: InfoGraph, b: InfoGraph) -> bool:
    """Span-level equality: same mention set and same relation multiset."""
    return span_keys(a) == span_keys(b)
