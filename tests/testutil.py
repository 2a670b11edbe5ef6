"""Shared fixtures: the pinned example configuration, random graph
generation, the decode-step probe of criterion C7, the references the
decoding gates check against (greedy decoding, full recomputation, sampling
from the constraint machine alone), and the tape ops the one-node parts of
the training tape are checked against."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from hyspa import numerics as nm
from hyspa.altseq_codec import AltSequence, GenConstraints, Traversal
from hyspa.data_io import DEFAULT_EDGE_TYPES, DEFAULT_NODE_TYPES
from hyspa.decode_search import DecodeResult, _step_logprobs, default_max_len
from hyspa.embeddings import advance
from hyspa.hybrid_index import TextSpan
from hyspa.info_graph import InfoGraph, Mention, RelationEdge, make_graph
from hyspa.model import ContextRep, DecodeSession, Engine, ExtractionModel, decode_step
from hyspa.numerics import NEG_INF, Tensor
from hyspa.type_vocab import TypeVocab, build_vocab


def pinned_vocab() -> TypeVocab:
    """8 edge types + 3 virtual + 8 node types: l_e=11, l_p=19, [SEP]=10."""
    return build_vocab(DEFAULT_EDGE_TYPES, DEFAULT_NODE_TYPES)


# "He was captured in Baghdad late Monday night ." -- 9 tokens, spans in
# verbatim coordinates: He=(0,1), Baghdad=(4,5).
FIG4_TOKENS = ("He", "was", "captured", "in", "Baghdad", "late", "Monday", "night", ".")


def fig4_graph(vocab: TypeVocab, n: int = 9, m: int = 16) -> InfoGraph:
    he = Mention(TextSpan(0, 1), vocab.index("PER"))
    baghdad = Mention(TextSpan(4, 5), vocab.index("GPE"))
    rel = RelationEdge(head=1, tail=0, edge_type=vocab.index("PHYS"))  # owned by Baghdad
    return make_graph([he, baghdad], [rel], n=n, m=m)


def fig4_bfs_items(vocab: TypeVocab) -> list[int]:
    t, sep = vocab.type_edge_index, vocab.sep_index
    per, gpe, phys = vocab.index("PER"), vocab.index("GPE"), vocab.index("PHYS")
    return [19, t, per, sep, 83, t, gpe, phys, 19, sep]


def fig4_dfs_items(vocab: TypeVocab) -> list[int]:
    t, sep = vocab.type_edge_index, vocab.sep_index
    per, gpe, phys = vocab.index("PER"), vocab.index("GPE"), vocab.index("PHYS")
    return [19, t, per, sep, 83, t, gpe, sep, 83, phys, 19, sep]


def positions(seq):
    """(level, offset, is [SEP]) of every item, by the position rule."""
    sep, out = seq.vocab.sep_index, []
    level = offset = 0
    for k in seq.items:
        out.append((level, offset, k == sep))
        level, offset = advance(level, offset, k, sep)
    return out


# The references the decoding gates check against: beam 1 against greedy
# decoding, cached decoding against full recomputation (C9), and the
# constraint machine's soundness against sequences it draws alone (C4).

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


def decoder_forward(ctx: ContextRep, elements, traversal: Traversal = Traversal.BFS) -> np.ndarray:
    """Final-layer hidden rows of the [SOS] row and of each input element,
    fed one by one to a fresh one-row session.  Cached decoding runs the same
    ``DecodeSession.append``, so gate C9 (cached equals full, bitwise) checks
    that path against itself; the row gather of multi-row steps is checked to
    1e-12 against one-row feeds, and the engine against the tape to 1e-9.
    """
    session = DecodeSession(ctx, traversal, max_len=len(elements) + 1)
    rows = [session.last_hidden.copy()]
    for k in elements:
        session.append(k)
        rows.append(session.last_hidden.copy())
    return np.stack(rows)


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


def make_engine(cfg, params, vocab, token_vocab) -> Engine:
    """A decoding engine on these weights, with the BFS traversal by default."""
    return Engine(ExtractionModel(cfg, params, vocab, token_vocab))


def open_mask(ctx, cfg, rows: int = 1) -> np.ndarray:
    """``rows`` span-head mask rows that open every output slot."""
    return np.zeros((rows, ctx.l_p + ctx.n * cfg.m))


def random_graph(
    rng: np.random.Generator,
    vocab: TypeVocab,
    n_max: int = 128,
    m: int = 16,
    max_mentions: int = 20,
    max_relations: int = 40,
    p_empty: float = 0.05,
) -> InfoGraph:
    """Seeded random valid graph: distinct spans, real relation types, possible
    duplicates/self-loops in the relation multiset."""
    n = int(rng.integers(5, n_max + 1))
    if rng.random() < p_empty:
        return InfoGraph((), (), n, m)
    n_mentions = int(rng.integers(1, max_mentions + 1))
    spans: set[TextSpan] = set()
    attempts = 0
    while len(spans) < n_mentions and attempts < 10 * n_mentions:
        attempts += 1
        start = int(rng.integers(0, n))
        length = int(rng.integers(1, min(m, n - start) + 1))
        spans.add(TextSpan(start, start + length))
    node_choices = [t for t in vocab.node_type_indices if vocab.name(t) != "[NULL]"]
    mentions = [
        Mention(span, int(rng.choice(node_choices))) for span in sorted(spans)
    ]
    real_edges = [e for e in vocab.real_edge_indices if e != vocab.type_edge_index]
    n_relations = int(rng.integers(0, max_relations + 1))
    relations = []
    for _ in range(n_relations):
        head = int(rng.integers(0, len(mentions)))
        tail = int(rng.integers(0, len(mentions)))
        relations.append(RelationEdge(head, tail, int(rng.choice(real_edges))))
    return make_graph(mentions, relations, n=n, m=m)


def random_edge_freq(rng: np.random.Generator, vocab: TypeVocab) -> dict[int, int]:
    return {e: int(rng.integers(0, 100)) for e in vocab.real_edge_indices}


@dataclass
class StepProbe:
    n: int
    per_step_seconds: float  # median over the timed steps
    score_vector_bytes: int  # the largest score row of one hypothesis over the timed steps


def probe_decode_steps(
    model: ExtractionModel, sizes, steps: int, beam: int = 1, seed: int = 0
) -> list[StepProbe]:
    """Time the decode step of ``beam`` live hypotheses of one random input
    per size: one ``_step_logprobs`` call and one ``decode_step`` call.

    The hypotheses are forks of one root on a target cache of ``beam`` rows.
    Each takes its best slot other than [EOS], so the run keeps stepping,
    and the budget is generous, so length forcing never perturbs the
    timing.  With more than one hypothesis, every step also moves each one
    up a row (row b continues the hypothesis of row b+1, the last row that
    of row 0), so the step gathers every cache row from another one, as
    beam search does when it reorders its hypotheses.
    """
    rows = []
    rng = np.random.default_rng(seed)
    vocab_tokens = [t for t in model.token_vocab.tokens if t != "[UNK]"] or ["a"]
    for n in sizes:
        tokens = [vocab_tokens[int(rng.integers(len(vocab_tokens)))] for _ in range(n)]
        max_len = 4 * steps + 64
        session = model.open_session(tokens, max_len, beam=beam)
        machine = GenConstraints(model.vocab, n, model.cfg.m, model.traversal, max_len)
        hyps = [(session, machine)] + [(session.fork(), machine.fork()) for _ in range(beam - 1)]

        def one_step() -> int:
            nonlocal hyps
            sessions, machines = zip(*hyps)
            logps = _step_logprobs(sessions, machines)
            picks = []
            for logp, hyp_machine in zip(logps, machines):
                k = int(np.argmax(logp))
                if k == model.vocab.eos_index:  # keep stepping: pick the runner-up
                    logp[k] = NEG_INF
                    k = int(np.argmax(logp))
                hyp_machine.push(k)
                picks.append(k)
            hyps, picks = hyps[1:] + hyps[:1], picks[1:] + picks[:1]
            decode_step([s for s, _ in hyps], picks)
            return max(logp.nbytes for logp in logps)

        one_step()  # warmup (also primes caches)
        times = []
        score_bytes = 0  # a step that admits no span gives l_p-long rows
        for _ in range(steps):
            t0 = time.perf_counter()
            score_bytes = max(score_bytes, one_step())
            times.append(time.perf_counter() - t0)
        rows.append(StepProbe(n, float(np.median(times)), score_bytes))
    return rows


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


# Layer norm and ReLU as separate tape ops: with ``numerics`` ops they compose
# the decoder block's tail, the reference that its one tape node
# (``model._tape_tail``) must equal bit for bit, forward and backward.

def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = nm._as_tensor(x), nm._as_tensor(gamma), nm._as_tensor(beta)
    d = x.data.shape[-1]
    xhat, std = nm.normalize(x.data)
    out = Tensor(xhat * gamma.data + beta.data, parents=(x, gamma, beta))

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        nm.accumulate(beta, g.sum(axis=reduce_axes))
        nm.accumulate(gamma, (g * xhat).sum(axis=reduce_axes))
        gx = g * gamma.data
        gxm = np.add.reduce(gx, axis=-1, keepdims=True) / d
        gxxm = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
        nm.accumulate(x, (gx - gxm - xhat * gxxm) / std)

    out._backward = backward
    return out


def relu(a) -> Tensor:
    a = nm._as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), parents=(a,))
    out._backward = lambda g: nm.accumulate(a, g * (a.data > 0.0))
    return out


def tail_inputs(rng: np.random.Generator, B: int, rows: int, d: int, dropout: bool):
    """Random leaves of one block tail: the (B, rows, d) attention output and
    layer input, the eight weights in ``model._TAIL`` order (gains near 1),
    and dropout multipliers, (2, B, rows, d), or None.  Each example keeps a
    random number of real rows; the rest are padding, whose multipliers are
    0, as the tape pads."""
    attn, x = (Tensor(rng.normal(size=(B, rows, d)), requires_grad=True) for _ in range(2))
    shapes = [(d,), (d,), (d, 4 * d), (4 * d,), (4 * d, d), (d,), (d,), (d,)]
    w = [Tensor(rng.normal(size=s) * (0.5 if len(s) == 2 else 0.1) + (1.0 if k in (0, 6) else 0.0),
                requires_grad=True) for k, s in enumerate(shapes)]
    if not dropout:
        return attn, x, w, None
    keep = (rng.random((2, B, rows, d)) >= 0.1) / 0.9
    keep[:, np.arange(rows) >= rng.integers(1, rows + 1, size=B)[:, None]] = 0.0
    return attn, x, w, keep


# Matrix product, transpose, reshape and window gather as separate tape ops:
# with ``numerics`` ops they compose the span head's scores, the reference
# that its one tape node (``model._tape_head``) must equal bit for bit,
# forward and backward.

def matmul(a, b) -> Tensor:
    """Matrix product: 2-D, or batched with equal batch dims (a batch of rows
    times one matrix is ``linear``)."""
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    if a.data.ndim > 2 or b.data.ndim > 2:
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError(f"batch dims differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b))

    def backward(g):
        if a.requires_grad:
            nm.accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            nm.accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    out._backward = backward
    return out


def reshape(a, shape) -> Tensor:
    a = nm._as_tensor(a)
    out = Tensor(a.data.reshape(shape), parents=(a,))
    out._backward = lambda g: nm.accumulate(a, g.reshape(a.data.shape))
    return out


def transpose(a, axes) -> Tensor:
    a = nm._as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes), parents=(a,))
    out._backward = lambda g: nm.accumulate(a, np.transpose(g, inverse))
    return out


def unfold(v, m: int) -> Tensor:
    """``sliding_windows`` on the tape; the NEG_INF cells do not propagate gradient."""
    v = nm._as_tensor(v)
    n = v.data.shape[-1]
    out = Tensor(nm.sliding_windows(v.data, m), parents=(v,))

    def backward(g):
        gv = np.zeros_like(v.data)
        for d in range(min(m, n)):  # diagonal d: cell (j, d) reads v[j + d]
            gv[..., d:] += g[..., : n - d, d]
        nm.accumulate(v, gv)

    out._backward = backward
    return out


def head_inputs(rng: np.random.Generator, B: int, T: int, n: int, l_p: int, d: int):
    """Random leaves of one span head: the (B, T, d) start and end rows and
    the (B, l_p, d) type and (B, n, d) text rows of H."""
    return [Tensor(rng.normal(size=(B, rows, d)), requires_grad=True) for rows in (T, T, l_p, n)]


# Row gather, product, sum and log-softmax as separate tape ops: composed,
# they are the references that the one-node ends of the training tape must
# equal bit for bit, forward and backward: H (``model._tape_hybrid``), the
# traversal embedding (``model._traversal_embedding``) and the loss
# (``numerics.label_smoothed_ce``).  ``sum_all(mul(out, g))`` also turns a
# node's output into a scalar whose gradient into ``out`` is ``g``.

def take_rows(table, ids) -> Tensor:
    """Row gather (embedding lookup); gradients scatter-add back."""
    table = nm._as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    out = Tensor(table.data[ids], parents=(table,))

    def backward(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            nm.accumulate(a, nm._unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            nm.accumulate(b, nm._unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def sum_all(a) -> Tensor:
    a = nm._as_tensor(a)
    out = Tensor(a.data.sum(), parents=(a,))
    out._backward = lambda g: nm.accumulate(a, np.broadcast_to(g, a.data.shape).copy())
    return out


def log_softmax(a) -> Tensor:
    a = nm._as_tensor(a)
    logp = nm.log_probs(a.data)
    out = Tensor(logp, parents=(a,))

    def backward(g):
        p = np.exp(logp)
        nm.accumulate(a, g - p * g.sum(axis=-1, keepdims=True))

    out._backward = backward
    return out
