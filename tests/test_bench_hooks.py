"""The names the benchmark hooks into still exist and still fire.

``perfbench/tracing.py`` wraps library functions by name, and its
``WorkCounter`` patches three of them in every timed run.  A renamed or
inlined target makes a benchmark run exit 1, so these checks keep the
decoder's hooks in place: every span target resolves, a beam-5 extraction
fires every decode-side span, and the counter sees forks at beam 5 and none
at beam 1.  The benchmark's files are read, never changed.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from hyspa import decode_search
from hyspa.altseq_codec import Traversal
from hyspa.data_io import synth_generate
from hyspa.model import ExtractionModel, ModelConfig, init_params, prepare_training_data

from testutil import pinned_vocab

DECODE_SPANS = (
    "decode_search.extract_graph",
    "decode_search.beam_decode",
    "model.encode_context",
    "model.DecodeSession.append",
    "model.DecodeSession.fork",
    "decode_search.span_head",
    "decode_search.GenConstraints.mask",
    "decode_search.GenConstraints.push",
    "decode_search.GenConstraints.fork",
)


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def model_and_tokens():
    vocab = pinned_vocab()
    ds = synth_generate(12, seed=9, vocab=vocab)
    tv, _ = prepare_training_data(ds)
    cfg = ModelConfig(d_m=32, layers=2, heads=4, m=16, dropout=0.0)
    model = ExtractionModel(cfg, init_params(cfg, vocab, tv, seed=3), vocab, tv, dict(ds.edge_freq), Traversal.BFS)
    return model, ds.examples[0][0]


def test_every_span_target_resolves(tracing):
    for name, (module, attr) in tracing.SPANS.items():
        tracing._resolve(module, attr)  # raises TargetMissing when the name is gone
    assert set(DECODE_SPANS) <= set(tracing.SPANS)


def test_beam5_extraction_fires_every_decode_span(tracing, model_and_tokens):
    model, tokens = model_and_tokens
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("beam5", n=len(tokens), source="sentences"):
        decode_search.extract_graph(model, tokens, beam=5)  # looked up where the tracer wraps it
    fired = {span[1] for span in tracer.spans}
    assert [name for name in DECODE_SPANS if name not in fired] == []


def test_work_counter_counts_forks_at_beam5_only(tracing, model_and_tokens):
    model, tokens = model_and_tokens
    counts = {}
    for beam in (1, 5):
        counter = tracing.WorkCounter()
        with counter.installed():
            decode_search.extract_graph(model, tokens, beam=beam)
        counts[beam] = counter
    assert counts[1].forks == 0 and counts[5].forks > 0
    for counter in counts.values():
        assert counter.steps > 0
        assert counter.appends == 1  # the [SOS] row; beam search feeds the rest through decode_step
