"""Seeded inputs, the three workloads, and the correctness checks they run.

The load is one closed-loop client in one process: each operation starts
when the previous one has finished.  There are three kinds of operation,
the three things a hyspa user does:

* codec: one ``hyspa encode``, ``decode`` or ``roundtrip`` over a corpus,
  called in-process through ``cli.run``, for BFS and for DFS;
* train: one ``train_step`` of the C8 recipe on a batch of 8 sentences;
* extract: one ``extract_graph`` call at beam 1 or beam 5.

Every run reports every end-to-end metric, so every workload runs all three
kinds on its own inputs.  The workloads differ in which kind fills the run
and in the inputs it sees (see PLANS).  Sentence extraction always uses the
trained reference model (see reference.py), because exact match and the
amount of decode work are only meaningful for a converged model.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hyspa.cli as hcli
import hyspa.decode_search as hds
import hyspa.model as hm
from hyspa import numerics as nm
from hyspa.altseq_codec import SequenceDecodeError, Traversal, decode_sequence, encode
from hyspa.data_io import (
    TEMPLATES, Dataset, default_vocab, read_sequence_dump, record_to_graph, save_jsonl, synth_generate,
)
from hyspa.hybrid_index import TextSpan
from hyspa.info_graph import InfoGraph, Mention, RelationEdge, canonicalize, graph_equal, make_graph, validate_graph

import reference
from tracing import WorkCounter

M = 16
BEAMS = (1, 5)
DOC_SIZES = (256, 512, 1024)
DOC_MAX_LEN = 128  # about the size of a 30-mention document graph
SETUP_REPEATS = 3
MIN_SAMPLES = 110  # a p90 needs at least ten samples beyond it
MIN_SENTENCES = -(-MIN_SAMPLES // len(TEMPLATES)) * len(TEMPLATES)


@dataclass(frozen=True)
class Plan:
    """How much of each operation kind a workload runs at the default run length."""

    codec_sentences: int     # template sentences in the codec corpus
    codec_documents: int     # random document graphs in the codec corpus
    doc_graph_sizes: tuple   # (low, high) n of those graphs, or DOC_SIZES
    codec_passes: int        # timed passes of the three commands over the corpus
    train_corpus: int        # synthetic sentences the training batches are drawn from
    train_steps: int
    sentences: int           # held-out sentences extracted at each beam width
    documents: int = 0       # token documents extracted at each beam width

    def scaled(self, factor: float) -> "Plan":
        def at_least(value: int, low: int, step: int = 1) -> int:
            return max(low, step * round(value * factor / step))

        k = len(TEMPLATES)
        return replace(
            self,
            codec_passes=at_least(self.codec_passes, 3),
            train_steps=at_least(self.train_steps, MIN_SAMPLES),
            sentences=at_least(self.sentences, k if self.documents else MIN_SENTENCES, k),
            documents=at_least(self.documents, 6, 6) if self.documents else 0,
        )


DEFAULT_SECONDS = 30
PLANS = {
    # Mixed corpus: 4 template sentences per document-sized graph (C2's kind:
    # n <= 128, <= 20 mentions, <= 40 relations).  Codec passes fill the run.
    "codec": Plan(codec_sentences=480, codec_documents=120, doc_graph_sizes=(5, 128),
                  codec_passes=8, train_corpus=2000, train_steps=MIN_SAMPLES,
                  sentences=MIN_SENTENCES),
    # The C8 task: optimizer steps dominate, then beam 1 and beam 5 extraction.
    "sentences": Plan(codec_sentences=500, codec_documents=0, doc_graph_sizes=(5, 128),
                      codec_passes=8, train_corpus=10_000, train_steps=300, sentences=136),
    # Long inputs: encode_context, span_head and the mask grow with n.  The
    # held-out sentences only give exact match here; latency is the documents'.
    "documents": Plan(codec_sentences=0, codec_documents=96, doc_graph_sizes=DOC_SIZES,
                      codec_passes=4, train_corpus=2000, train_steps=MIN_SAMPLES,
                      sentences=17, documents=12),
}
WORKLOADS = tuple(PLANS)


def plan_for(workload: str, seconds: float) -> Plan:
    return PLANS[workload].scaled(seconds / DEFAULT_SECONDS)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_graph(rng: np.random.Generator, vocab, n: int, mentions: int, relations: int) -> InfoGraph:
    """A valid graph on n tokens with up to ``mentions`` distinct random spans
    and ``relations`` random relations (duplicates and self-loops allowed)."""
    if not mentions:
        return InfoGraph((), (), n, M)
    spans: set[TextSpan] = set()
    for _ in range(10 * mentions):
        if len(spans) == mentions:
            break
        start = int(rng.integers(0, n))
        spans.add(TextSpan(start, start + int(rng.integers(1, min(M, n - start) + 1))))
    node_types = [t for t in vocab.node_type_indices if vocab.name(t) != "[NULL]"]
    found = [Mention(span, int(rng.choice(node_types))) for span in sorted(spans)]
    edges = [e for e in vocab.real_edge_indices if e != vocab.type_edge_index]
    rels = [
        RelationEdge(int(rng.integers(len(found))), int(rng.integers(len(found))), int(rng.choice(edges)))
        for _ in range(relations)
    ]
    return make_graph(found, rels, n=n, m=M)


def document_graphs(rng, vocab, count: int, sizes) -> list:
    """``count`` (tokens, graph) pairs of the kind C2 uses.

    Their sizes follow a fixed schedule, so the codec work of a run hardly
    depends on the seed: n is spread evenly over ``sizes`` (a (low, high)
    range, or DOC_SIZES in turn), mentions cycle through 0..20 (0 is an empty
    graph) and relations through 0..40.  The seed picks spans, types and tokens.
    """
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)] if sizes == DOC_SIZES else sizes[0] + i * (sizes[1] - sizes[0] + 1) // count
        tokens = tuple(f"w{int(w)}" for w in rng.integers(0, 1000, size=n))
        out.append((tokens, random_graph(rng, vocab, n, mentions=i % 21, relations=(i * 17) % 41)))
    return out


def template_sentences(count: int, seed: int, vocab) -> list:
    """``count`` synthetic sentences that take the templates in turn, so every
    seed decodes the same mix of output lengths; the seed picks the entity
    fillers and the order."""
    rng = np.random.default_rng(seed)
    per = -(-count // len(TEMPLATES))
    pools = [synth_generate(per, seed=int(rng.integers(2**31)), vocab=vocab, templates=(tpl,)).examples
             for tpl in TEMPLATES]
    picked = [pools[i % len(TEMPLATES)][i // len(TEMPLATES)] for i in range(count)]
    return [picked[i] for i in rng.permutation(count)]


def documents_model(seed: int):
    """Untrained model with the C7 config; decode work does not depend on the weights."""
    vocab = default_vocab()
    token_vocab = hm.TokenVocab(tokens=("[UNK]", *[f"tok{i}" for i in range(64)]))
    cfg = hm.ModelConfig(d_m=64, layers=2, heads=8, m=M, dropout=0.0, max_tokens=max(DOC_SIZES) + 8)
    params = hm.init_params(cfg, vocab, token_vocab, seed=seed)
    return hm.ExtractionModel(cfg, params, vocab, token_vocab, {}, Traversal.BFS)


def token_documents(rng, count: int) -> list:
    """(tokens, traversal) pairs: equal numbers of each size, half BFS and half DFS per size."""
    kinds = [(n, trv) for n in DOC_SIZES for trv in Traversal]
    docs = [kinds[i % len(kinds)] for i in range(count)]
    docs = [docs[i] for i in rng.permutation(len(docs))]
    return [(tuple(f"tok{int(t)}" for t in rng.integers(0, 64, size=n)), trv) for n, trv in docs]


@dataclass
class Inputs:
    """Everything a run needs before its first timed operation."""

    corpus: list             # codec corpus: (tokens, graph)
    corpus_path: Path
    corpus_freq: dict
    prepared: list           # training examples (token ids, target sequence)
    cfg: object
    params: dict
    opt: object
    batches: list            # index arrays, one per step
    drop_seed: int
    model: object            # reference model for sentence extraction
    held_out: list           # (tokens, gold sequence)
    doc_model: object
    documents: list          # (tokens, traversal)
    digest: str              # hash of the inputs


def make_inputs(plan: Plan, seed: int, workdir: Path) -> Inputs:
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(8)]
    vocab = default_vocab()
    rng = np.random.default_rng(s[0])

    corpus = list(synth_generate(plan.codec_sentences, seed=s[1], vocab=vocab).examples)
    corpus += document_graphs(rng, vocab, plan.codec_documents, plan.doc_graph_sizes)
    corpus = [corpus[i] for i in rng.permutation(len(corpus))]
    dataset = Dataset(corpus, vocab, M)
    dataset.tally_edge_freq()
    corpus_path = workdir / "corpus.jsonl"
    save_jsonl(dataset, corpus_path)

    train = synth_generate(plan.train_corpus, seed=s[2], vocab=vocab)
    token_vocab, prepared = hm.prepare_training_data(train)
    cfg = hm.ModelConfig(d_m=64, layers=2, heads=8, m=M, dropout=0.1)
    params = hm.init_params(cfg, vocab, token_vocab, seed=s[3])
    opt = nm.AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
    batch_rng = np.random.default_rng(s[4])
    batches = [batch_rng.integers(0, len(prepared), size=8) for _ in range(plan.train_steps)]

    model = reference.reference_model()
    held_out = [
        (tokens, encode(canonicalize(gold, model.edge_freq, vocab), vocab, M, model.traversal))
        for tokens, gold in template_sentences(plan.sentences, s[5], vocab)
    ]
    doc_model = documents_model(s[6]) if plan.documents else None
    documents = token_documents(np.random.default_rng(s[7]), plan.documents)

    h = hashlib.sha256(corpus_path.read_bytes())
    for part in (
        [(t, seq.items) for t, seq in prepared[:50]], [b.tolist() for b in batches],
        [(t, g.items) for t, g in held_out], documents,
        sorted((k, v.data.tobytes()) for k, v in params.items()),
    ):
        h.update(repr(part).encode())
    if doc_model is not None:
        h.update(b"".join(v.data.tobytes() for v in doc_model.params.values()))
    return Inputs(corpus, corpus_path, dict(dataset.edge_freq), prepared, cfg, params, opt, batches,
                  s[4] + 1, model, held_out, doc_model, documents, h.hexdigest())


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, plus correctness checks that are not operations."""

    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self._note(ok, problem)

    def check(self, ok: bool, problem: str) -> None:
        self.checks_failed += not ok
        self._note(ok, problem)

    def _note(self, ok: bool, problem: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(problem)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@contextlib.contextmanager
def untraced_op(kind, **info):
    yield


def interleave(streams: list[list]) -> list:
    """Merge operation streams so each is spread evenly over the run and keeps its own order.

    Machine speed on a shared host drifts over a few seconds.  Spreading the
    samples of every metric over the whole run makes each metric see the
    same mix of fast and slow spells, instead of whichever spell its block
    happened to land in.
    """
    keyed = sorted(((i + 0.5) / len(ops), k, i) for k, ops in enumerate(streams) for i in range(len(ops)))
    return [streams[k][i] for _, k, i in keyed]


def check_extraction(res, n: int, model) -> str:
    """Empty when the result is finished, decodes back to its graph, and is a valid graph."""
    if not res.finished:
        return "unsalvageable" if res.diagnostics.startswith("unsalvageable") else "salvaged"
    try:
        graph = decode_sequence(res.seq)
    except SequenceDecodeError as err:
        return f"does not decode: {err}"
    if not graph_equal(graph, res.graph):
        return "graph differs from its decoded sequence"
    problems = validate_graph(res.graph, n, model.cfg.m, model.vocab)
    return f"invalid graph: {problems[0]}" if problems else ""


CODEC_COMMANDS = ("encode", "decode", "roundtrip")

# Machine speed on a shared host also differs from run to run by 20% and
# more, which interleaving cannot remove.  A fixed loop that does not touch
# hyspa runs between the operations, and every timing is reported at the
# speed at which that loop takes its reference time: a median, and a rate
# taken over passes, is scaled by REFERENCE_LOOP_S / (the run's median loop
# time), a p90 by REFERENCE_LOOP_P90_S / (the run's p90 loop time), since
# the slowest tenth of the operations runs in the host's slow spells.  The
# set-up time is scaled by loops run between its repetitions.  The unscaled
# figures are printed too.
REFERENCE_LOOP_S = 3.0e-3
REFERENCE_LOOP_P90_S = 3.6e-3
_LOOP_RNG = np.random.default_rng(0)
_LOOP_W = _LOOP_RNG.normal(0.0, 0.1, (64, 64))
_LOOP_H = _LOOP_RNG.normal(0.0, 1.0, (1024, 64))


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreted Python, small numpy calls
    and the n = 1024 vector work of a document decode step."""
    t0 = time.perf_counter()
    x = _LOOP_W[0]
    for _ in range(40):
        x = np.tanh(x @ _LOOP_W)
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(4):
        scores = np.repeat(_LOOP_H @ x, 16)
        np.argsort(-(scores - scores.max()), kind="stable")
    return time.perf_counter() - t0


class Run:
    """The operations of one run and what they produced.

    Each operation's time ends with a collection of the garbage it left, so
    that cost is charged to the operation that made it and not to whichever
    operation the collector happens to interrupt next.
    """

    def __init__(self, inputs: Inputs, workdir: Path, op=untraced_op):
        self.inputs, self.workdir, self.op = inputs, workdir, op
        self.tally = Tally()
        self.codec_seconds = defaultdict(float)  # (command, pass) -> seconds for BFS + DFS
        self.codec_reference = {}                # traversal -> outputs of the checked pass
        self.step_seconds, self.losses = [], []
        self.drop_rng = np.random.default_rng(inputs.drop_seed)
        self.latency = defaultdict(list)         # (beam, source) -> seconds per extraction
        self.seqs = defaultdict(list)            # (beam, source) -> decoded items
        self.outcomes = dict.fromkeys(("unfinished", "salvaged", "unsalvageable"), 0)
        self.loop_seconds = []                   # reference_loop timings between the operations

    # -- codec -------------------------------------------------------------------
    def _outputs(self, trv: Traversal) -> tuple[Path, Path]:
        return self.workdir / f"seqs.{trv.value}", self.workdir / f"decoded.{trv.value}.jsonl"

    def codec(self, command: str, trv: Traversal, pass_no: int) -> None:
        seqs, decoded = self._outputs(trv)
        corpus = str(self.inputs.corpus_path)
        argv = {
            "encode": ["encode", "--data", corpus, "--traversal", trv.value, "--out", str(seqs)],
            "decode": ["decode", "--seqs", str(seqs), "--traversal", trv.value, "--out", str(decoded)],
            "roundtrip": ["roundtrip", "--data", corpus, "--traversal", trv.value],
        }[command]
        out = io.StringIO()
        with (self.op if pass_no else untraced_op)("codec"), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = hcli.run(argv)
            gc.collect()
            self.codec_seconds[command, pass_no] += time.perf_counter() - t0
        n = len(self.inputs.corpus)
        ok = rc == 0 and (command != "roundtrip" or f"{n}/{n} ok" in out.getvalue())
        self.tally.op(ok, f"hyspa {command} --traversal {trv.value}: exit {rc}, {out.getvalue().strip()[-80:]}")
        if command == "decode" and pass_no:
            same = seqs.read_bytes() + decoded.read_bytes() == self.codec_reference[trv]
            self.tally.check(same, f"codec {trv.value}: pass {pass_no} output differs from the checked pass")

    def checked_codec_pass(self) -> None:
        """Untimed pass whose outputs are checked on the graph side and the
        sequence side; later passes must reproduce its bytes."""
        vocab = default_vocab()
        for trv in Traversal:
            for command in CODEC_COMMANDS:
                self.codec(command, trv, 0)
            seqs_path, decoded_path = self._outputs(trv)
            self.codec_reference[trv] = seqs_path.read_bytes() + decoded_path.read_bytes()
            seqs = read_sequence_dump(seqs_path, vocab)
            with open(decoded_path) as fh:
                records = [json.loads(line) for line in fh]
            n = len(self.inputs.corpus)
            self.tally.check(len(seqs) == len(records) == n,
                             f"codec {trv.value}: {len(seqs)} sequences and {len(records)} graphs for {n} inputs")
            graph_ok = seq_ok = 0
            for (_, graph), seq, rec in zip(self.inputs.corpus, seqs, records):
                _, back = record_to_graph({**rec, "tokens": [""] * rec["n"]}, vocab, M)
                graph_ok += graph_equal(graph, back)
                seq_ok += encode(canonicalize(back, self.inputs.corpus_freq, vocab), vocab, M, trv).items == seq.items
            self.tally.check(graph_ok == n, f"codec {trv.value}: graph side {graph_ok}/{n}")
            self.tally.check(seq_ok == n, f"codec {trv.value}: sequence side {seq_ok}/{n}")

    # -- training ------------------------------------------------------------------
    def train(self, step: int) -> None:
        inp = self.inputs
        batch = [inp.prepared[i] for i in inp.batches[step]]
        problem = ""
        with self.op("train"):
            t0 = time.perf_counter()
            try:
                loss = hm.train_step(batch, inp.cfg, inp.params, inp.opt, label_smoothing=0.1, clip=0.25,
                                     rng=self.drop_rng)
            except FloatingPointError as err:
                loss, problem = math.nan, str(err)
            gc.collect()
            self.step_seconds.append(time.perf_counter() - t0)
        self.tally.op(math.isfinite(loss), problem or f"step {step + 1}: non-finite loss {loss}")
        self.losses.append(loss)

    # -- extraction ----------------------------------------------------------------
    def extract(self, source: str, beam: int, tokens, trv=None) -> None:
        model = self.inputs.doc_model if source == "documents" else self.inputs.model
        max_len = DOC_MAX_LEN if source == "documents" else None
        with self.op(f"beam{beam}", n=len(tokens), source=source):
            t0 = time.perf_counter()
            res = hds.extract_graph(model, tokens, beam=beam, max_len=max_len, traversal=trv)
            gc.collect()
            self.latency[beam, source].append(time.perf_counter() - t0)
        problem = check_extraction(res, len(tokens), model)
        if problem in ("salvaged", "unsalvageable"):
            self.outcomes["unfinished"] += 1
            self.outcomes[problem] += 1
        self.tally.op(not problem, f"{source}, beam {beam}, n={len(tokens)}: {problem}")
        self.seqs[beam, source].append(res.seq.items)

    # -- the whole run -------------------------------------------------------------
    def warm_up(self) -> None:
        """First-call costs (the first encode_context is ten times slower) stay out of the timings."""
        inp = self.inputs
        self.checked_codec_pass()
        params = {k: nm.Tensor(v.data.copy(), requires_grad=True) for k, v in inp.params.items()}
        opt = nm.AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
        for idx in inp.batches[:2]:
            hm.train_step([inp.prepared[i] for i in idx], inp.cfg, params, opt, rng=np.random.default_rng(0))
        for beam in BEAMS:
            hds.extract_graph(inp.model, inp.held_out[0][0], beam=beam)
            if inp.documents:
                longest = max(inp.documents, key=lambda d: len(d[0]))[0]
                hds.extract_graph(inp.doc_model, longest, beam=beam, max_len=16)

    def timed(self, plan: Plan) -> None:
        """Every timed operation of the plan, interleaved, with reference loops among them."""
        inp = self.inputs
        streams = [
            [functools.partial(self.codec, c, trv, p)
             for p in range(1, plan.codec_passes + 1) for trv in Traversal for c in CODEC_COMMANDS],
            [functools.partial(self.train, i) for i in range(len(inp.batches))],
        ]
        for beam in BEAMS:
            streams.append([functools.partial(self.extract, "sentences", beam, t) for t, _ in inp.held_out])
            streams.append([functools.partial(self.extract, "documents", beam, t, trv) for t, trv in inp.documents])
        loops = max(50, sum(map(len, streams)) // 3)
        streams.append([lambda: self.loop_seconds.append(reference_loop())] * loops)
        for operation in interleave([s for s in streams if s]):
            operation()

    def metrics(self) -> dict:
        n = len(self.inputs.corpus)
        passes = sorted({p for _, p in self.codec_seconds if p})
        out = {
            f"{c}_graphs_per_s": statistics.median(2 * n / self.codec_seconds[c, p] for p in passes)
            for c in CODEC_COMMANDS
        }
        tail = self.losses[-max(1, len(self.losses) // 10):]
        out.update({
            "train_step_ms_p50": percentile(self.step_seconds, 50) * 1e3,
            "train_step_ms_p90": percentile(self.step_seconds, 90) * 1e3,
            "train_loss": sum(tail) / len(tail),
        })
        source = "documents" if self.inputs.documents else "sentences"
        for beam in BEAMS:
            golds = [gold.items for _, gold in self.inputs.held_out]
            out[f"beam{beam}_ms_p50"] = percentile(self.latency[beam, source], 50) * 1e3
            out[f"beam{beam}_ms_p90"] = percentile(self.latency[beam, source], 90) * 1e3
            out[f"beam{beam}_em"] = sum(map(tuple.__eq__, self.seqs[beam, "sentences"], golds)) / len(golds)
        return out

    def fingerprint(self) -> dict:
        out = {
            "inputs_sha256": self.inputs.digest,
            "codec_outputs_sha256": hashlib.sha256(b"".join(self.codec_reference.values())).hexdigest(),
            "train_losses_sha256": hashlib.sha256(repr(self.losses).encode()).hexdigest(),
        }
        for beam in BEAMS:
            seqs = self.seqs[beam, "sentences"] + self.seqs[beam, "documents"]
            out[f"beam{beam}_sequences_sha256"] = hashlib.sha256(repr(seqs).encode()).hexdigest()
        return out

    def output_items(self) -> int:
        return sum(len(items) for seqs in self.seqs.values() for items in seqs)

    def timed_seconds(self) -> float:
        """Time spent inside the timed operations."""
        codec = sum(t for (_, p), t in self.codec_seconds.items() if p)
        return codec + sum(self.step_seconds) + sum(sum(v) for v in self.latency.values())


@dataclass
class RunResult:
    metrics: dict      # timings at the reference loop speed
    fingerprint: dict
    run: Run
    counter: WorkCounter
    unscaled: dict     # timings as measured
    loop_s: dict       # p50 and p90 of the run's reference_loop times


def run_workload(workload: str, seed: int, seconds: float, tracer=None, plan: Plan | None = None) -> RunResult:
    """Set up SETUP_REPEATS times, warm up, then run the interleaved timed operations.

    With a tracer, spans are recorded around the timed operations only.
    """
    plan = plan or plan_for(workload, seconds)
    reference.reference_model()  # builds it once per checkout, outside the set-up time
    workdir = reference.CACHE_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, setup_loops = [], []
        for _ in range(SETUP_REPEATS):
            setup_loops += [reference_loop() for _ in range(8)]
            t0 = time.perf_counter()
            inputs = make_inputs(plan, seed, workdir)
            setups.append(time.perf_counter() - t0)
        run = Run(inputs, workdir, tracer.op if tracer else untraced_op)
        t0 = time.perf_counter()
        run.warm_up()
        t1 = time.perf_counter()
        counter = WorkCounter()
        # Collections of the set-up objects would land in whichever operation
        # happens to run then; freezing them keeps that out of the timings.
        gc.collect()
        gc.freeze()
        try:
            with counter.installed(), (tracer.installed() if tracer else contextlib.nullcontext()):
                run.timed(plan)
        finally:
            gc.unfreeze()
        t2 = time.perf_counter()
        print(f"{workload}: set-up {sum(setups):.1f}s, warm-up and checked codec pass {t1 - t0:.1f}s, "
              f"timed part {t2 - t1:.1f}s ({run.timed_seconds():.1f}s inside operations)", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unscaled = run.metrics()
    loop = {"p50": percentile(run.loop_seconds, 50), "p90": percentile(run.loop_seconds, 90)}
    p50, p90 = REFERENCE_LOOP_S / loop["p50"], REFERENCE_LOOP_P90_S / loop["p90"]
    metrics = {
        "setup_s": statistics.median(setups) * REFERENCE_LOOP_S / statistics.median(setup_loops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{k: v * (p90 if k.endswith("_p90") else p50) if "_ms_" in k else v / p50 if k.endswith("_per_s") else v
           for k, v in unscaled.items()},
    }
    fingerprint = {**run.fingerprint(), "decode_steps": counter.steps, "appends": counter.appends,
                   "forks": counter.forks}
    unscaled["setup_s"] = statistics.median(setups)
    return RunResult(metrics, fingerprint, run, counter, unscaled, loop)
