"""Constrained greedy and beam-search generation, plus end-to-end extraction.

Generation runs under a structural constraint machine, the one admissibility
rule of decoding and of the training tape, which walks one along each gold
sequence: its additive mask is the one the span head adds to each hypothesis'
scores.  It admits only sequence continuations that decode to a valid
information graph: every level parent is a fresh text span (or [NULL] as the
lone root), every mention is typed through a [TYPE] pair before anything
else, relation children are text spans, and [EOS] only opens once all levels
are closed and no mention is left untyped.  Near the length budget the
machine forces the shortest completion, so every run ends in [EOS] within
``max_len`` items and decodes to a graph whatever scores drove it: decoding
has no unfinished result.  ``GenConstraints.push`` checks the budget (a
``RuntimeError`` past it is a bug), and a property test drives the machine
with adversarial choices to hold it.

Most steps admit no text span (a [TYPE] edge, a node type, a relation edge,
[SEP] or [EOS] comes next).  There the mask covers only the l_p type slots,
and the span head scores such a hypothesis over those slots alone, with the
bits the full row would give them; a step's cost grows with n only for the
hypotheses that can emit a span.  Type slots come first in every row, so a
slot index means the same in a short row as in a full one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .altseq_codec import AltSequence, Traversal, decode_sequence, encode
from .data_io import eval_f1
from .info_graph import InfoGraph, canonicalize
from .model import DecodeSession, Engine, ExtractionModel, ModelError, decode_step, span_head
from .numerics import NEG_INF, span_windows
from .type_vocab import TypeVocab, VocabError


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
        self.parented: set[int] = set()  # BFS: spans that already opened a level
        self.cur: int | None = None      # the node the next [TYPE] pair types

    @property
    def finished(self) -> bool:
        return self.phase == _Phase.DONE

    def fork(self) -> "GenConstraints":
        clone = object.__new__(GenConstraints)
        clone.__dict__.update(self.__dict__)
        clone.typed = set(self.typed)
        clone.pending = set(self.pending)
        clone.parented = set(self.parented)
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
        if self.traversal == Traversal.BFS:
            return self._open_legal(v, self.parented)
        # DFS: with no relation type, a re-emitted (typed) parent would have nothing to emit
        return self._open_legal(v, () if self._rel_edges else self.typed)

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
                if bfs:
                    self.parented.add(k)
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


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    seq: AltSequence
    score: float


@dataclass
class ExtractResult:
    """A decoded sequence and its graph.  Every decode finishes, so
    ``finished`` is always True; it stays only because perfbench's
    ``check_extraction`` still reads it."""
    graph: InfoGraph
    seq: AltSequence
    finished = True


def default_max_len(n: int) -> int:
    return max(32, 4 * n + 16)


def _step_logprobs(sessions, machines) -> list[np.ndarray]:
    """Log-probabilities of the next element of B hypotheses of one input:
    one span-head call over their last hidden rows, each row masked by its
    hypothesis' constraint machine and as long as that mask, so l_p long
    when the hypothesis can emit no span and l_p + n*m long otherwise."""
    hidden = np.array([s.last_hidden for s in sessions])
    return span_head(hidden, sessions[0].ctx, [machine.mask() for machine in machines])[1]


def greedy_decode(
    model: ExtractionModel | Engine,
    tokens,
    max_len: int | None = None,
    traversal: Traversal | None = None,
) -> DecodeResult:
    """Argmax decoding under the constraint machine; ties break to the lowest index."""
    traversal = traversal or model.traversal
    n = len(tokens)
    max_len = max_len or default_max_len(n)
    session = model.open_session(tokens, max_len, traversal=traversal)
    machine = GenConstraints(model.vocab, n, model.cfg.m, traversal, max_len)
    items: list[int] = []
    score = 0.0
    while True:
        logp = _step_logprobs([session], [machine])[0]
        k = int(np.argmax(logp))
        score += float(logp[k])
        if k == model.vocab.eos_index:
            break
        machine.push(k)
        session.append(k)
        items.append(k)
    return DecodeResult(AltSequence(tuple(items), traversal, model.vocab, n, model.cfg.m), score)


def _candidates(logps: list[np.ndarray], scores: list[float], k: int) -> list[tuple[float, int, int]]:
    """The continuations one beam step weighs, best first, as (new score,
    slot, row).

    Row r offers its at most ``k`` best admissible slots (logp > NEG_INF/2),
    ties going to the lower slot.  A row at its budget needs no rule of its
    own: its machine admits only [EOS].  An offer scores ``scores[r] +
    logp``, and offers are ordered by (-new score, slot, row).  The rows of
    one width (type-only or full) are taken as one block: one row-wise
    ``np.partition`` finds each row's k-th best value, and only the few
    admissible slots at or above it are sorted, in Python (a full sort costs
    1-2 ms a row at n=1024).
    """
    groups: dict[int, list[int]] = {}
    for r, logp in enumerate(logps):
        groups.setdefault(len(logp), []).append(r)
    offers = []
    for width, group in groups.items():
        block = np.array([logps[r] for r in group])
        kth = max(width - k, 0)
        floor = np.maximum(np.partition(block, kth, axis=1)[:, kth, None], NEG_INF / 2)
        at, cols = np.divmod(np.flatnonzero(block >= floor), width)
        rank, last = 0, -1
        # by row, then best first, then lower slot
        for a, neg, slot in sorted(zip(at.tolist(), (-block[at, cols]).tolist(), cols.tolist())):
            rank, last = (rank + 1 if a == last else 0), a
            r = group[a]
            if rank < k and -neg > NEG_INF / 2:
                offers.append((-(scores[r] - neg), slot, r))  # scores[r] - neg is scores[r] + logp
    offers.sort()
    return [(-neg, slot, r) for neg, slot, r in offers]


@dataclass
class _Hyp:
    items: list[int]
    score: float
    session: DecodeSession
    machine: GenConstraints


def beam_decode(
    model: ExtractionModel | Engine,
    tokens,
    beam: int = 1,
    length_penalty: float = 1.0,
    max_len: int | None = None,
    traversal: Traversal | None = None,
) -> DecodeResult:
    """Length-normalized beam search (score / steps**penalty) under the machine.

    beam=1, penalty=1 follows exactly the greedy path, tie-breaks included,
    and gives the greedy score bitwise: with one live hypothesis every step
    runs the one-row kernels greedy decoding runs.

    The live hypotheses are the rows of one target cache of ``beam`` rows
    (see ``model.DecodeSession``).  Each step scores them all with one
    ``span_head`` call over their last hidden rows (over the type slots alone
    for a hypothesis whose machine admits no span), takes each row's
    ``beam+1`` best admissible slots and orders all of them in one selection
    (``_candidates``), and keeps the ``beam`` best continuations that are not
    [EOS].  The last kept child of each hypothesis takes over its parent's
    session and constraint machine in place; only its siblings fork (a
    handle and a machine copy), so beam 1 never forks.  The kept children
    then advance together in one ``decode_step`` call, one row each, which
    first gathers each child's parent row into place.

    The search stops once some hypothesis has finished and no live one can
    still beat the best finished score: log-probabilities are <= 0 and no
    hypothesis runs more than max_len+1 steps (its machine admits only [EOS]
    after max_len items, and ``GenConstraints.push`` checks it), so a live
    raw score s ends at best s / (max_len+1)**penalty, and a hypothesis that
    finishes later is longer, so it loses a tie.  Only the best finished
    hypothesis is returned, so stopping there changes no result, and the
    children of that last step are not fed.  Otherwise the search ends when
    every hypothesis has finished, by step max_len+1 at the latest.
    """
    if beam < 1 or length_penalty <= 0:
        raise ValueError("beam must be >= 1 and length_penalty > 0")
    traversal = traversal or model.traversal
    n = len(tokens)
    max_len = max_len or default_max_len(n)
    eos = model.vocab.eos_index
    root_session = model.open_session(tokens, max_len, traversal=traversal, beam=beam)
    live = [
        _Hyp([], 0.0, root_session, GenConstraints(model.vocab, n, model.cfg.m, traversal, max_len))
    ]
    done: list[tuple[float, float, list[int]]] = []  # (penalized, raw, items)
    while live:
        logps = _step_logprobs([h.session for h in live], [h.machine for h in live])
        kept = []  # (new_score, slot, parent)
        for new_score, k, pos in _candidates(logps, [h.score for h in live], beam + 1):
            if len(kept) >= beam:
                break
            if k == eos:
                items = live[pos].items
                done.append((new_score / (len(items) + 1) ** length_penalty, new_score, items))
            else:
                kept.append((new_score, k, pos))
        last_child = {pos: i for i, (_, _, pos) in enumerate(kept)}
        children = []
        for i, (new_score, k, pos) in enumerate(kept):
            hyp = live[pos]
            if last_child[pos] == i:  # its siblings have forked already
                session, machine = hyp.session, hyp.machine
            else:
                session, machine = hyp.session.fork(), hyp.machine.fork()
            machine.push(k)
            children.append(_Hyp(hyp.items + [k], new_score, session, machine))
        live = children
        if done and live:
            best_done = max(d[0] for d in done)
            if max(h.score for h in live) / (max_len + 1) ** length_penalty <= best_done:
                break
        if live:
            decode_step([h.session for h in live], [h.items[-1] for h in live])
    done.sort(key=lambda d: (-d[0], len(d[2])))
    _, raw, items = done[0]
    return DecodeResult(AltSequence(tuple(items), traversal, model.vocab, n, model.cfg.m), raw)


def extract_graph(
    model: ExtractionModel | Engine,
    tokens,
    beam: int = 1,
    length_penalty: float = 1.0,
    max_len: int | None = None,
    traversal: Traversal | None = None,
) -> ExtractResult:
    """Decode a sequence and invert it to a graph."""
    seq = beam_decode(model, tokens, beam, length_penalty, max_len, traversal).seq
    return ExtractResult(decode_sequence(seq), seq)


# ---------------------------------------------------------------------------
# mask-constrained sampling (no model required)
# ---------------------------------------------------------------------------

def sample_sequence(
    vocab: TypeVocab,
    n: int,
    m: int,
    rng: np.random.Generator,
    traversal: Traversal = Traversal.BFS,
    max_len: int = 160,
) -> AltSequence:
    """Draw a sequence from uniformly random logits under the masks.

    Each step takes the argmax of fresh uniform logits plus the admissibility
    mask, i.e. a uniform draw over the admitted slots.  A logit is drawn for
    every output slot even when the mask covers only the type slots, so the
    draws do not depend on the mask's length.
    """
    machine = GenConstraints(vocab, n, m, traversal, max_len)
    items: list[int] = []
    while True:
        logits = rng.random(machine.size)
        mask = machine.mask()
        k = int(np.argmax(logits[: len(mask)] + mask))
        if k == vocab.eos_index:
            break
        machine.push(k)
        items.append(k)
    return AltSequence(tuple(items), traversal, vocab, n, m)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_model(
    model: ExtractionModel,
    examples,
    beam: int = 1,
    length_penalty: float = 1.0,
    limit: int | None = None,
) -> dict:
    """Sequence exact match plus NER/RE F1 of decoded graphs against gold.

    A record the model cannot take (a ``ModelError``, e.g. an input over
    ``max_tokens``) counts as an empty prediction and is listed under
    ``failed`` with its index and message.  ``limit`` (>= 1) keeps that many.
    Every record decodes with one engine on the model's weights at the call.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    examples = examples[:limit]
    engine = Engine(model)
    preds, failed = [], []
    em_hits = 0
    for i, (tokens, gold) in enumerate(examples):
        try:
            res = extract_graph(engine, tokens, beam=beam, length_penalty=length_penalty)
        except ModelError as err:
            failed.append({"index": i, "error": str(err)})
            preds.append(InfoGraph((), (), len(tokens), model.cfg.m))
            continue
        gold_seq = encode(
            canonicalize(gold, model.edge_freq, model.vocab), model.vocab, model.cfg.m, model.traversal
        )
        em_hits += int(res.seq.items == gold_seq.items)
        preds.append(res.graph)
    scores = eval_f1(preds, [gold for _, gold in examples])
    return {
        "exact_match": em_hits / max(len(examples), 1),
        "ner_f1": scores.ner.f1,
        "re_f1": scores.re.f1,
        "count": len(examples),
        "failed": failed,
    }
