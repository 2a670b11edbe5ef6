"""Constrained beam-search generation, plus end-to-end extraction.

Every hypothesis grows under its own constraint machine
(``altseq_codec.GenConstraints``), whose additive mask the span head adds to
that hypothesis' scores, so every search ends in [EOS] within ``max_len``
items with a sequence that decodes to a graph: decoding has no unfinished
result.  A mask covers only the l_p type slots when no span is admissible,
and the span head then scores the hypothesis over those slots alone, so a
step's cost grows with n only for the hypotheses that can emit a span.
Beam search keeps the rows of its live hypotheses in one target cache and
advances them with one decoder call per step; with one hypothesis it takes
the argmax at each step, greedy decoding.  ``extract_graph`` decodes and
inverts the sequence, and ``evaluate_model`` scores a model on gold graphs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .altseq_codec import AltSequence, GenConstraints, Traversal, decode_sequence, encode
from .data_io import eval_f1
from .info_graph import InfoGraph, canonicalize
from .model import DecodeSession, Engine, ExtractionModel, ModelError, decode_step, span_head
from .numerics import NEG_INF


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
