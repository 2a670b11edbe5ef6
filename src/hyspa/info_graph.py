"""Information-graph data model, deterministic ordering, and graph equality.

A graph holds text-span mentions with node types plus directed typed relation
edges between them.  ``canonicalize`` produces the ordered adjacency view the
traversal encoders consume: each relation edge is owned by its head mention,
the [TYPE] pseudo-edge to the mention's node type always comes first, and all
orders are fully deterministic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Union

from .hybrid_index import TextSpan
from .type_vocab import TypeVocab


@dataclass(frozen=True)
class TypeNode:
    """A node-type token acting as a graph vertex (target of a [TYPE] edge)."""

    type_id: int


GraphNode = Union[TextSpan, TypeNode]


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
    """Ordered adjacency view of an InfoGraph, ready for traversal encoding.

    ``roots`` lists candidate level parents in emission order; ``adjacency``
    maps each parent to its ordered (edge_type_id, child) list.  Only nodes
    with an adjacency entry ever open a traversal level.
    """

    roots: tuple[GraphNode, ...]
    adjacency: dict[GraphNode, tuple[tuple[int, GraphNode], ...]]
    n: int


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
    """Order the graph for traversal encoding.

    Roots are mention spans ascending by (start, end).  Per mention, the
    [TYPE] edge to its node type comes first, then relation edges sorted by
    descending ``edge_freq`` (ties by edge type id, then by tail span).  An
    empty graph becomes a single [NULL] root with no children.
    """
    edge_freq = edge_freq or {}
    spans = [mn.span for mn in g.mentions]
    if len(set(spans)) != len(spans):
        raise ValueError("cannot canonicalize a graph with duplicate mention spans")

    if not g.mentions:
        null_node = TypeNode(vocab.null_type_index)
        return OrderedGraph(roots=(null_node,), adjacency={null_node: ()}, n=g.n)

    outgoing: dict[int, list[RelationEdge]] = {i: [] for i in range(len(g.mentions))}
    for rel in g.relations:
        outgoing[rel.head].append(rel)

    adjacency: dict[GraphNode, tuple[tuple[int, GraphNode], ...]] = {}
    roots = []
    for i in sorted(range(len(g.mentions)), key=lambda i: g.mentions[i].span):
        mention = g.mentions[i]
        children: list[tuple[int, GraphNode]] = [
            (vocab.type_edge_index, TypeNode(mention.node_type))
        ]
        rels = sorted(
            outgoing[i],
            key=lambda r: (-edge_freq.get(r.edge_type, 0), r.edge_type, g.mentions[r.tail].span),
        )
        children.extend((r.edge_type, g.mentions[r.tail].span) for r in rels)
        adjacency[mention.span] = tuple(children)
        roots.append(mention.span)
    return OrderedGraph(roots=tuple(roots), adjacency=adjacency, n=g.n)


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
