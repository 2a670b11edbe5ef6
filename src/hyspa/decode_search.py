"""Constrained greedy and beam-search generation, plus end-to-end extraction.

Generation runs under a structural constraint machine layered on top of the
alternating output masks.  The machine admits only sequence continuations
that decode to a valid information graph: every level parent is a fresh text
span (or [NULL] as the lone root), every mention is typed through a [TYPE]
pair before anything else, relation children are text spans, and [EOS] only
opens once all levels are closed and no mention is left untyped.  Near the
length budget the machine forces the shortest completion, so any finished
hypothesis is decodable regardless of the scores that drove it.
"""
from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .altseq_codec import AltSequence, SequenceDecodeError, Traversal, decode_sequence
from .info_graph import InfoGraph
from .model import DecodeSession, ExtractionModel, decode_step, span_head
from .numerics import NEG_INF
from .type_vocab import ElementClass, TypeVocab, classify


class _Phase:
    PARENT = "parent"          # expecting a level parent (start or after [SEP])
    AFTER_PARENT = "after_parent"  # parent span emitted; [TYPE] edge forced
    TYPE_EDGE = "type_edge"    # DFS: untyped node, [TYPE] edge forced
    TYPE_VALUE = "type_value"  # [TYPE] emitted; node-type slot open
    AFTER_CHILD = "after_child"    # BFS: relation edges or [SEP]
    REL_EDGE = "rel_edge"      # DFS: re-emitted parent; relation edge forced
    REL_VALUE = "rel_value"    # relation emitted; span slot open
    LEAF_SEP = "leaf_sep"      # DFS: [SEP] forced after a leaf
    NULL_SEP = "null_sep"      # [NULL] root emitted; [SEP] forced
    DONE = "done"


def legal_span_slots(n: int, m: int) -> np.ndarray:
    """Additive mask over the n*m span slots; windows past the text are closed."""
    j = np.arange(n)[:, None]
    d = np.arange(m)[None, :]
    return np.where(j + d < n, 0.0, NEG_INF).reshape(-1)


class GenConstraints:
    """Structural admissibility for one growing hypothesis (BFS or DFS)."""

    def __init__(self, vocab: TypeVocab, n: int, m: int, traversal: Traversal, max_len: int):
        if max_len < 16:
            raise ValueError("max_len must be at least 16")
        self.vocab = vocab
        self.n = n
        self.m = m
        self.traversal = traversal
        self.max_len = max_len
        self.size = vocab.l_p + n * m
        self._legal = legal_span_slots(n, m)
        self.phase = _Phase.PARENT
        self.emitted = 0
        self.started = False
        self.null_used = False
        self.typed: set[int] = set()     # span indices with an assigned type
        self.pending: set[int] = set()   # span indices seen but not yet typed
        self.parented: set[int] = set()  # BFS: spans that already opened a level
        self.cur: int | None = None      # DFS: current node
        self.finished = False

    def fork(self) -> "GenConstraints":
        clone = object.__new__(GenConstraints)
        clone.__dict__.update(self.__dict__)
        clone.typed = set(self.typed)
        clone.pending = set(self.pending)
        clone.parented = set(self.parented)
        return clone

    # -- budget ------------------------------------------------------------
    def _min_to_finish(self) -> int:
        p = len(self.pending)
        if self.traversal == Traversal.BFS:
            return {
                _Phase.PARENT: 4 * p if self.started else 2,
                _Phase.AFTER_PARENT: 3 + 4 * max(p - 1, 0),
                _Phase.TYPE_VALUE: 2 + 4 * max(p - 1, 0),
                _Phase.AFTER_CHILD: 1 + 4 * p,
                _Phase.REL_VALUE: 2 + 4 * p,
                _Phase.NULL_SEP: 1,
            }[self.phase]
        return {
            _Phase.PARENT: 0 if self.started else 2,
            _Phase.AFTER_PARENT: 3,
            _Phase.TYPE_EDGE: 3,
            _Phase.TYPE_VALUE: 2,
            _Phase.REL_EDGE: 3,
            _Phase.REL_VALUE: 2,
            _Phase.LEAF_SEP: 1,
            _Phase.NULL_SEP: 1,
        }[self.phase]

    def _tight(self) -> bool:
        return self.max_len - self.emitted <= self._min_to_finish() + 6

    # -- admissibility -----------------------------------------------------
    def mask(self) -> np.ndarray:
        """Additive mask over the l_p + n*m output slots for the next emission."""
        if self.finished:
            raise RuntimeError("hypothesis already finished")
        v = np.full(self.size, NEG_INF)
        voc = self.vocab
        tight = self._tight()
        ph = self.phase
        if ph == _Phase.PARENT:
            if self.null_used:
                v[voc.eos_index] = 0.0
                return v
            if self.started and not self.pending:
                v[voc.eos_index] = 0.0
                if tight:
                    return v
            if tight and self.pending:
                # budget is short: only untyped mentions may open levels now
                return self._spans_only(v, restrict=self.pending)
            if tight:
                return v
            v[voc.l_p :] = self._legal
            if self.traversal == Traversal.BFS:
                for k in self.parented:
                    v[k] = NEG_INF
            else:
                has_relations = any(e != voc.type_edge_index for e in voc.real_edge_indices)
                if not has_relations:
                    # a re-emitted (typed) parent would have nothing to emit
                    for k in self.typed:
                        v[k] = NEG_INF
            if not self.started:
                v[voc.null_type_index] = 0.0
            return v
        if ph in (_Phase.AFTER_PARENT, _Phase.TYPE_EDGE):
            v[voc.type_edge_index] = 0.0
            return v
        if ph == _Phase.TYPE_VALUE:
            v[voc.l_e : voc.l_p] = 0.0
            return v
        if ph == _Phase.AFTER_CHILD:
            v[voc.sep_index] = 0.0
            if not tight:
                for e in voc.real_edge_indices:
                    if e != voc.type_edge_index:
                        v[e] = 0.0
            return v
        if ph == _Phase.REL_EDGE:
            for e in voc.real_edge_indices:
                if e != voc.type_edge_index:
                    v[e] = 0.0
            return v
        if ph == _Phase.REL_VALUE:
            if tight:
                return self._spans_only(v, restrict=self.typed | self.pending)
            v[voc.l_p :] = self._legal
            return v
        if ph in (_Phase.LEAF_SEP, _Phase.NULL_SEP):
            v[voc.sep_index] = 0.0
            return v
        raise RuntimeError(f"unexpected phase {ph}")

    def _spans_only(self, v: np.ndarray, restrict: set[int]) -> np.ndarray:
        for k in restrict:
            v[k] = 0.0
        return v

    # -- transitions ---------------------------------------------------------
    def push(self, k: int) -> None:
        voc = self.vocab
        if k == voc.eos_index:
            self.finished = True
            self.phase = _Phase.DONE
            return
        self.emitted += 1
        cls = classify(k, voc, self.n, self.m)
        ph = self.phase
        if ph == _Phase.PARENT:
            self.started = True
            if cls is ElementClass.NODE_TYPE:
                self.null_used = True
                self.phase = _Phase.NULL_SEP
                return
            self.cur = k
            if self.traversal == Traversal.BFS:
                self.parented.add(k)
                if k not in self.typed:
                    self.pending.add(k)
                self.phase = _Phase.AFTER_PARENT
            else:
                if k in self.typed:
                    self.phase = _Phase.REL_EDGE
                else:
                    self.pending.add(k)
                    self.phase = _Phase.AFTER_PARENT
            return
        if ph in (_Phase.AFTER_PARENT, _Phase.TYPE_EDGE):
            self.phase = _Phase.TYPE_VALUE
            return
        if ph == _Phase.TYPE_VALUE:
            self.typed.add(self.cur)
            self.pending.discard(self.cur)
            self.phase = _Phase.AFTER_CHILD if self.traversal == Traversal.BFS else _Phase.LEAF_SEP
            return
        if ph == _Phase.AFTER_CHILD:
            if k == voc.sep_index:
                self.phase = _Phase.PARENT
            else:
                self.phase = _Phase.REL_VALUE
            return
        if ph == _Phase.REL_EDGE:
            self.phase = _Phase.REL_VALUE
            return
        if ph == _Phase.REL_VALUE:
            if self.traversal == Traversal.BFS:
                if k not in self.typed:
                    self.pending.add(k)
                self.phase = _Phase.AFTER_CHILD
            else:
                if k in self.typed:
                    self.phase = _Phase.LEAF_SEP
                else:
                    self.pending.add(k)
                    self.cur = k
                    self.phase = _Phase.TYPE_EDGE
            return
        if ph in (_Phase.LEAF_SEP, _Phase.NULL_SEP):
            self.phase = _Phase.PARENT
            return
        raise RuntimeError(f"push in unexpected phase {ph}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    seq: AltSequence
    score: float
    finished: bool
    diagnostics: str = ""


@dataclass
class ExtractResult:
    graph: InfoGraph
    seq: AltSequence
    finished: bool
    diagnostics: str = ""


def default_max_len(n: int) -> int:
    return max(32, 4 * n + 16)


def _step_logprobs(model: ExtractionModel, sessions, machines, histories) -> np.ndarray:
    """(B, l_p + n*m) log-probabilities of the next element of B hypotheses
    of one input: one span-head call over their last hidden rows."""
    vocab, n, m = model.vocab, machines[0].n, machines[0].m
    prev = [items[-1] if items else None for items in histories]
    classes = [ElementClass.VIRTUAL_SOS if k is None else classify(k, vocab, n, m) for k in prev]
    _, logp = span_head(
        np.array([s.last_hidden for s in sessions]),
        sessions[0].ctx,
        classes,
        model.cfg,
        model.params,
        prev_index=prev,
        extra_mask=np.array([machine.mask() for machine in machines]),
        vocab=vocab,
    )
    return logp


def greedy_decode(
    model: ExtractionModel,
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
    finished = False
    while True:
        logp = _step_logprobs(model, [session], [machine], [items])[0]
        k = int(np.argmax(logp))
        if k == model.vocab.eos_index:
            score += float(logp[k])
            finished = True
            break
        if len(items) >= max_len:  # budget exhausted before [EOS]
            break
        score += float(logp[k])
        machine.push(k)
        session.append(k)
        items.append(k)
    seq = AltSequence(tuple(items), traversal, model.vocab, n, model.cfg.m)
    diag = "" if finished else f"max_len {max_len} reached without [EOS]"
    return DecodeResult(seq, score, finished, diag)


def _top_admissible(logp: np.ndarray, k: int) -> np.ndarray:
    """The at most ``k`` best admissible slots (logp > NEG_INF/2), best first.

    The order is that of a stable descending argsort (ties go to the lower
    slot), but only the slots at or above the k-th best value, found with a
    partition, are sorted: a full sort costs 1-2 ms at n=1024.
    """
    slots = np.flatnonzero(logp > NEG_INF / 2)
    vals = logp[slots]
    if len(slots) > k:
        at_least = vals >= np.partition(vals, len(vals) - k)[len(vals) - k]
        slots, vals = slots[at_least], vals[at_least]
    return slots[np.argsort(-vals, kind="stable")[:k]]


@dataclass
class _Hyp:
    items: list[int]
    score: float
    session: DecodeSession
    machine: GenConstraints


def beam_decode(
    model: ExtractionModel,
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

    Each step scores all live hypotheses with one ``span_head`` call over
    their last hidden rows, and keeps the ``beam`` best continuations that
    are not [EOS].  The last kept child of each hypothesis takes over its
    parent's session and constraint machine in place; only its siblings fork
    (a prefix copy), so beam 1 never forks.  The kept children then advance
    together in one ``decode_step`` call, one row each.

    The search stops once some hypothesis has finished and no live one can
    still beat the best finished score: log-probabilities are <= 0 and no
    hypothesis runs more than max_len+1 steps, so a live raw score s ends at
    best s / (max_len+1)**penalty, and a hypothesis that finishes later is
    longer, so it loses a tie.  Only the best finished hypothesis is
    returned, so stopping there changes no result, and the children of that
    last step are not fed.
    """
    if beam < 1 or length_penalty <= 0:
        raise ValueError("beam must be >= 1 and length_penalty > 0")
    traversal = traversal or model.traversal
    n = len(tokens)
    max_len = max_len or default_max_len(n)
    root_session = model.open_session(tokens, max_len, traversal=traversal)
    live = [
        _Hyp([], 0.0, root_session, GenConstraints(model.vocab, n, model.cfg.m, traversal, max_len))
    ]
    done: list[tuple[float, float, list[int]]] = []  # (penalized, raw, items)
    steps = 0
    while live and steps <= max_len + 1:
        steps += 1
        logps = _step_logprobs(
            model, [h.session for h in live], [h.machine for h in live], [h.items for h in live]
        )
        candidates = []  # (new_score, slot, hyp_pos, hyp)
        for pos, (hyp, logp) in enumerate(zip(live, logps)):
            for k in _top_admissible(logp, beam + 1):
                if k != model.vocab.eos_index and len(hyp.items) >= max_len:
                    continue  # budget exhausted: only [EOS] may extend
                candidates.append((hyp.score + float(logp[k]), int(k), pos, hyp))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept = []
        for cand in candidates:
            if len(kept) >= beam:
                break
            new_score, k, _pos, hyp = cand
            if k == model.vocab.eos_index:
                gen_steps = len(hyp.items) + 1
                done.append((new_score / gen_steps**length_penalty, new_score, hyp.items))
            else:
                kept.append(cand)
        last_child = {pos: i for i, (_, _, pos, _) in enumerate(kept)}
        live = []
        for i, (new_score, k, pos, hyp) in enumerate(kept):
            if last_child[pos] == i:  # its siblings have forked already
                session, machine = hyp.session, hyp.machine
            else:
                session, machine = hyp.session.fork(), hyp.machine.fork()
            machine.push(k)
            live.append(_Hyp(hyp.items + [k], new_score, session, machine))
        if done and live:
            best_done = max(d[0] for d in done)
            if max(h.score for h in live) / (max_len + 1) ** length_penalty <= best_done:
                break
        if live:
            decode_step([h.session for h in live], [h.items[-1] for h in live])
    if done:
        done.sort(key=lambda d: (-d[0], len(d[2])))
        penalized, raw, items = done[0]
        seq = AltSequence(tuple(items), traversal, model.vocab, n, model.cfg.m)
        return DecodeResult(seq, raw, True)
    best = max(live, key=lambda h: h.score) if live else None
    items = best.items if best else []
    seq = AltSequence(tuple(items), traversal, model.vocab, n, model.cfg.m)
    return DecodeResult(seq, best.score if best else 0.0, False, "no finished hypothesis")


def salvage_levels(seq: AltSequence) -> AltSequence:
    """Trim a truncated sequence back to its last complete level."""
    items = list(seq.items)
    while items and items[-1] != seq.vocab.sep_index:
        items.pop()
    return AltSequence(tuple(items), seq.traversal, seq.vocab, seq.n, seq.m)


def extract_graph(
    model: ExtractionModel,
    tokens,
    beam: int = 1,
    length_penalty: float = 1.0,
    max_len: int | None = None,
    traversal: Traversal | None = None,
) -> ExtractResult:
    """Decode a sequence and invert it to a graph, salvaging on truncation."""
    res = beam_decode(model, tokens, beam, length_penalty, max_len, traversal)
    seq = res.seq if res.finished else salvage_levels(res.seq)
    diag = res.diagnostics
    try:
        graph = decode_sequence(seq)
    except SequenceDecodeError as err:
        graph = InfoGraph((), (), len(tokens), model.cfg.m)
        diag = f"unsalvageable sequence: {err}"
        seq = AltSequence((), seq.traversal, seq.vocab, seq.n, seq.m)
    return ExtractResult(graph, seq, res.finished, diag)


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
    mask, i.e. a uniform draw over the admitted slots.
    """
    machine = GenConstraints(vocab, n, m, traversal, max_len)
    items: list[int] = []
    while True:
        logits = rng.random(machine.size) + machine.mask()
        k = int(np.argmax(logits))
        if k == vocab.eos_index:
            break
        machine.push(k)
        items.append(k)
        if len(items) > max_len:
            raise RuntimeError("sampler failed to terminate within budget")
    return AltSequence(tuple(items), traversal, vocab, n, m)


# ---------------------------------------------------------------------------
# evaluation and benchmarking
# ---------------------------------------------------------------------------

def evaluate_model(
    model: ExtractionModel,
    examples,
    beam: int = 1,
    length_penalty: float = 1.0,
    limit: int | None = None,
) -> dict:
    """Sequence exact match plus NER/RE F1 of decoded graphs against gold."""
    from .altseq_codec import encode
    from .data_io import eval_f1
    from .info_graph import canonicalize

    preds, golds = [], []
    em_hits = 0
    count = 0
    for tokens, gold in examples[: limit or len(examples)]:
        res = extract_graph(model, tokens, beam=beam, length_penalty=length_penalty)
        gold_seq = encode(
            canonicalize(gold, model.edge_freq, model.vocab), model.vocab, model.cfg.m, model.traversal
        )
        em_hits += int(res.seq.items == gold_seq.items)
        preds.append(res.graph)
        golds.append(gold)
        count += 1
    scores = eval_f1(preds, golds)
    return {
        "exact_match": em_hits / max(count, 1),
        "ner_f1": scores.ner.f1,
        "re_f1": scores.re.f1,
        "count": count,
    }


@dataclass
class BenchRow:
    n: int
    per_step_seconds: float
    score_vector_bytes: int
    peak_step_bytes: int
    steps: int = 0
    raw_times: list = field(default_factory=list)


def bench_decode_steps(
    model: ExtractionModel,
    sizes=(128, 256, 512, 1024),
    steps: int = 24,
    seed: int = 0,
) -> list[BenchRow]:
    """Measure per-decode-step time and score-vector memory across input sizes."""
    rows = []
    rng = np.random.default_rng(seed)
    vocab_tokens = [t for t in model.token_vocab.tokens if t != "[UNK]"] or ["a"]
    for n in sizes:
        tokens = [vocab_tokens[int(rng.integers(len(vocab_tokens)))] for _ in range(n)]
        max_len = 4 * steps + 64  # generous so budget forcing never perturbs timing
        session = model.open_session(tokens, max_len)
        machine = GenConstraints(model.vocab, n, model.cfg.m, model.traversal, max_len)
        items: list[int] = []

        def one_step():
            logp = _step_logprobs(model, [session], [machine], [items])[0]
            k = int(np.argmax(logp))
            if k == model.vocab.eos_index:  # keep stepping: pick the runner-up
                logp[k] = NEG_INF
                k = int(np.argmax(logp))
            machine.push(k)
            session.append(k)
            items.append(k)

        one_step()  # warmup (also primes caches)
        times = []
        for _ in range(steps):
            t0 = time.perf_counter()
            one_step()
            times.append(time.perf_counter() - t0)

        # probe the actual per-step score vector size
        prev_index = items[-1]
        scores, _ = span_head(
            session.last_hidden,
            session.ctx,
            classify(prev_index, model.vocab, n, model.cfg.m),
            model.cfg,
            model.params,
            prev_index=prev_index,
            vocab=model.vocab,
        )
        score_bytes = int(scores.nbytes)

        # memory pass on a fresh session, tracemalloc around a single step
        session = model.open_session(tokens, max_len)
        machine = GenConstraints(model.vocab, n, model.cfg.m, model.traversal, max_len)
        items = []
        one_step()
        tracemalloc.start()
        tracemalloc.reset_peak()
        one_step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(
            BenchRow(
                n=n,
                per_step_seconds=float(np.median(times)),
                score_vector_bytes=score_bytes,
                peak_step_bytes=int(peak),
                steps=steps,
                raw_times=times,
            )
        )
    return rows


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
