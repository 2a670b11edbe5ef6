"""Invertible mapping between ordered graphs and alternating sequences, and
the constraint machine that admits their prefixes.

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

The constraint machine (``GenConstraints``) defines the prefixes a decoder
may grow: the one admissibility rule of decoding and of the training tape,
which walks one along each gold sequence.  Its additive mask admits only
continuations that decode to a valid information graph: every level parent
is a fresh text span (or [NULL] as the lone root), every mention is typed
through a [TYPE] pair before anything else, relation children are text
spans, and [EOS] only opens once all levels are closed and no mention is
left untyped.  Near the length budget the machine forces the shortest
completion, so every run ends in [EOS] within ``max_len`` items and decodes
to a graph whatever scores drove it.  ``GenConstraints.push`` checks the
budget (a ``RuntimeError`` past it is a bug), and a property test drives the
machine with adversarial choices to hold it.

Most steps admit no text span (a [TYPE] edge, a node type, a relation edge,
[SEP] or [EOS] comes next).  There the mask covers only the l_p type slots;
type slots come first in every row, so a slot index means the same in a
short row as in a full one.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .hybrid_index import index_to_text_span
from .info_graph import InfoGraph, Mention, OrderedGraph, RelationEdge, SequenceEncodeError
from .numerics import NEG_INF, span_windows
from .type_vocab import TypeVocab, VocabError


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
    the node/edge alternation intact.  The walk keeps its own stack of
    (parent, pairs still to emit), so a chain of any length fits.
    """
    items: list[int] = []
    visited: set[int] = set()
    sep, adjacency = vocab.sep_index, og.adjacency
    for root, pairs in adjacency.items():
        if root in visited:
            continue
        visited.add(root)
        items.append(root)
        if not pairs:
            items.append(sep)
        stack = [(root, enumerate(pairs))]
        while stack:
            parent, pending = stack[-1]
            for i, (edge_id, child) in pending:
                if i > 0:
                    items.append(parent)
                items += (edge_id, child)
                if child not in visited and adjacency.get(child):
                    visited.add(child)
                    stack.append((child, enumerate(adjacency[child])))
                    break
                items.append(sep)
            else:
                stack.pop()
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


# ---------------------------------------------------------------------------
# the constraint machine
# ---------------------------------------------------------------------------

class _Phase:
    PARENT = "parent"          # expecting a level parent (start or after [SEP])
    AFTER_PARENT = "after_parent"  # untyped node emitted; [TYPE] edge forced
    TYPE_VALUE = "type_value"  # [TYPE] emitted; node-type slot open
    AFTER_CHILD = "after_child"    # BFS: relation edges or [SEP]
    REL_EDGE = "rel_edge"      # DFS: re-emitted parent; relation edge forced
    REL_VALUE = "rel_value"    # relation emitted; span slot open
    SEP = "sep"                # [NULL] root, or in DFS a leaf, emitted; [SEP] forced
    DONE = "done"


# the phase that follows each forced emission
_FORCED = {
    _Phase.AFTER_PARENT: _Phase.TYPE_VALUE,
    _Phase.REL_EDGE: _Phase.REL_VALUE,
    _Phase.SEP: _Phase.PARENT,
}

# the fewest items that still finish a run once something is emitted, as
# (base, per pending mention) in each live phase: BFS types a pending
# mention at a level of its own (span, [TYPE], type, [SEP]); in AFTER_PARENT
# and TYPE_VALUE the current parent is one of the pending mentions
_FINISH = {
    Traversal.BFS: {
        _Phase.PARENT: (0, 4),
        _Phase.AFTER_PARENT: (-1, 4),
        _Phase.TYPE_VALUE: (-2, 4),
        _Phase.AFTER_CHILD: (1, 4),
        _Phase.REL_VALUE: (2, 4),
        _Phase.SEP: (1, 0),
    },
    Traversal.DFS: {
        _Phase.PARENT: (0, 0),
        _Phase.AFTER_PARENT: (3, 0),
        _Phase.TYPE_VALUE: (2, 0),
        _Phase.REL_EDGE: (3, 0),
        _Phase.REL_VALUE: (2, 0),
        _Phase.SEP: (1, 0),
    },
}


class GenConstraints:
    """Structural admissibility for one growing hypothesis (BFS or DFS)."""

    def __init__(self, vocab: TypeVocab, n: int, m: int, traversal: Traversal, max_len: int):
        if max_len < 16:
            raise ValueError("max_len must be at least 16")
        self.vocab = vocab
        self.traversal = traversal
        self.max_len = max_len
        self.size = vocab.l_p + n * m
        # additive mask over the n*m span slots: windows past the text are closed
        inside = span_windows(n, m)[1]
        self._legal = np.where(inside, 0.0, NEG_INF).reshape(-1)
        self._n_legal = int(inside.sum())
        self._rel_edges = [e for e in vocab.real_edge_indices if e != vocab.type_edge_index]
        # the slots each fixed-slot phase opens, whatever the state
        self._fixed = {
            _Phase.AFTER_PARENT: [vocab.type_edge_index],
            _Phase.TYPE_VALUE: slice(vocab.l_e, vocab.l_p),
            _Phase.REL_EDGE: self._rel_edges,
            _Phase.SEP: [vocab.sep_index],
        }
        self.phase = _Phase.PARENT
        self.emitted = 0  # items pushed, [EOS] aside
        self.null_used = False
        self.typed: set[int] = set()     # span indices with an assigned type
        self.pending: set[int] = set()   # span indices seen but not yet typed
        self.cur: int | None = None      # the node the next [TYPE] pair types

    def fork(self) -> "GenConstraints":
        clone = object.__new__(GenConstraints)
        clone.__dict__.update(self.__dict__)
        clone.typed = set(self.typed)
        clone.pending = set(self.pending)
        return clone

    # -- budget ------------------------------------------------------------
    def _min_to_finish(self) -> int:
        if not self.emitted:
            return 2  # a [NULL] root and its [SEP]
        base, per_pending = _FINISH[self.traversal][self.phase]
        return base + per_pending * len(self.pending)

    def _tight(self) -> bool:
        return self.max_len - self.emitted <= self._min_to_finish() + 6

    # -- admissibility -----------------------------------------------------
    def mask(self) -> np.ndarray:
        """Additive mask for the next emission: over the l_p type slots alone
        when no span slot is admitted, else over all l_p + n*m output slots."""
        ph = self.phase
        if ph == _Phase.DONE:
            raise RuntimeError("hypothesis already finished")
        voc = self.vocab
        v = np.full(voc.l_p, NEG_INF)
        if ph in self._fixed:
            v[self._fixed[ph]] = 0.0
            return v
        if ph == _Phase.AFTER_CHILD:
            v[voc.sep_index] = 0.0
            if not self._tight():
                v[self._rel_edges] = 0.0
            return v
        if ph == _Phase.REL_VALUE:
            return self._open_spans(v, self.typed | self.pending) if self._tight() else self._open_legal(v, ())
        # PARENT; before the first emission the budget cannot be tight (max_len >= 16)
        if self.null_used:
            v[voc.eos_index] = 0.0
            return v
        if not self.emitted:
            v[voc.null_type_index] = 0.0
            return self._open_legal(v, ())
        if not self.pending:
            v[voc.eos_index] = 0.0
        if self._tight():
            # budget is short: [EOS], or only untyped mentions may open levels
            return self._open_spans(v, self.pending)
        # a BFS span opens one level and is typed on it, so the typed spans are
        # the ones that opened a level; under DFS a typed parent is re-emitted,
        # unless there is no relation type for it to emit
        return self._open_legal(v, self.typed if self.traversal == Traversal.BFS or not self._rel_edges else ())

    def _open_spans(self, types: np.ndarray, spans) -> np.ndarray:
        """``types`` followed by the span slots, only the slots ``spans`` open."""
        if not spans:
            return types
        v = np.concatenate([types, np.full(self.size - len(types), NEG_INF)])
        v[list(spans)] = 0.0
        return v

    def _open_legal(self, types: np.ndarray, closed) -> np.ndarray:
        """``types`` followed by the span slots, every window inside the text
        open except the slots ``closed`` (admitted spans, so inside)."""
        if len(closed) == self._n_legal:
            return types
        v = np.concatenate([types, self._legal])
        v[list(closed)] = NEG_INF
        return v

    # -- transitions ---------------------------------------------------------
    def push(self, k: int) -> None:
        voc = self.vocab
        if not 0 <= k < self.size:
            raise VocabError(f"index {k} outside [0, {self.size})")
        if k == voc.eos_index:
            self.phase = _Phase.DONE
            return
        if self.emitted == self.max_len:  # the budget rule admits only [EOS] here
            raise RuntimeError(f"item {k} pushed past the budget of {self.max_len} items")
        self.emitted += 1
        ph = self.phase
        bfs = self.traversal == Traversal.BFS
        if ph in _FORCED:
            self.phase = _FORCED[ph]
        elif ph == _Phase.TYPE_VALUE:
            self.typed.add(self.cur)
            self.pending.discard(self.cur)
            self.phase = _Phase.AFTER_CHILD if bfs else _Phase.SEP
        elif ph == _Phase.AFTER_CHILD:
            self.phase = _Phase.PARENT if k == voc.sep_index else _Phase.REL_VALUE
        elif ph == _Phase.PARENT and k < voc.l_p:  # the [NULL] root
            self.null_used = True
            self.phase = _Phase.SEP
        elif ph in (_Phase.PARENT, _Phase.REL_VALUE):  # a span: level parent or relation child
            typed = k in self.typed
            if not typed:
                self.pending.add(k)
            if ph == _Phase.PARENT:
                self.cur = k
                self.phase = _Phase.REL_EDGE if typed and not bfs else _Phase.AFTER_PARENT
            elif bfs:
                self.phase = _Phase.AFTER_CHILD
            elif typed:
                self.phase = _Phase.SEP
            else:
                self.cur = k
                self.phase = _Phase.AFTER_PARENT
        else:
            raise RuntimeError(f"push in unexpected phase {ph}")
