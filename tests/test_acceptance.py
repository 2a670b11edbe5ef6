"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 8 trains the toy
model from scratch and dominates the runtime (a few minutes on one CPU core).
"""
import time

import numpy as np
import pytest

from testutil import fig4_bfs_items, fig4_graph, pinned_vocab, random_edge_freq, random_graph

from hyspa.altseq_codec import Traversal, decode_sequence, encode, validate_sequence
from hyspa.data_io import synth_generate
from hyspa.decode_search import (
    bench_decode_steps,
    evaluate_model,
    fit_exponent,
    sample_sequence,
)
from hyspa.hybrid_index import TextSpan, index_to_hspan, span_to_index
from hyspa.info_graph import canonicalize, graph_equal, validate_graph
from hyspa.model import (
    DecodeSession,
    ExtractionModel,
    ModelConfig,
    TokenVocab,
    decoder_forward,
    encode_context,
    fit,
    init_params,
    prepare_training_data,
    sequence_loss,
    span_head,
)
from hyspa.numerics import NEG_INF, AdamW, finite_diff_check
from hyspa.type_vocab import ElementClass, classify


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


M = 16


def test_c1_figure4_exactness():
    t0 = time.time()
    vocab = pinned_vocab()
    ok = vocab.l_p == 19 and vocab.sep_index == 10
    k_he = span_to_index(TextSpan(0, 1), M, vocab.l_p)
    k_baghdad = span_to_index(TextSpan(4, 5), M, vocab.l_p)
    ok &= k_he == 19 and k_baghdad == 83
    graph = fig4_graph(vocab)
    seq = encode(canonicalize(graph, {}, vocab), vocab, M, Traversal.BFS)
    expected = fig4_bfs_items(vocab)
    ok &= list(seq.items) == expected
    ok &= seq.items[0] == 19 and seq.items[4] == 83
    ok &= seq.items[3] == 10 and seq.items[9] == 10 and seq.items[8] == 19
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(
        "C1 Figure-4 exactness",
        ok,
        f"l_p=19 [SEP]=10 g_k(0,1)={k_he} g_k(4,5)={k_baghdad} "
        f"items={list(seq.items)} ({elapsed:.3f}s)",
    )
    assert ok


def test_c2_codec_roundtrip():
    t0 = time.time()
    vocab = pinned_vocab()
    rng = np.random.default_rng(2024)
    graphs = 0
    graph_ok = 0
    seq_ok = 0
    for _ in range(1000):
        g = random_graph(rng, vocab, n_max=128, m=M, max_mentions=20, max_relations=40)
        freq = random_edge_freq(rng, vocab)
        graphs += 1
        good_g = True
        good_s = True
        for trv in Traversal:
            seq = encode(canonicalize(g, freq, vocab), vocab, M, trv)
            decoded = decode_sequence(seq)
            good_g &= graph_equal(decoded, g)
            again = encode(canonicalize(decoded, freq, vocab), vocab, M, trv)
            good_s &= again.items == seq.items
        graph_ok += good_g
        seq_ok += good_s
    elapsed = time.time() - t0
    ok = graph_ok == graphs == 1000 and seq_ok == graphs and elapsed < 10.0
    report(
        "C2 codec round-trip",
        ok,
        f"graph-side {graph_ok}/{graphs}, sequence-side {seq_ok}/{graphs}, "
        f"BFS+DFS ({elapsed:.2f}s)",
    )
    assert ok


def test_c3_index_bijection():
    vocab = pinned_vocab()
    n = 64
    seen = {}
    ok = True
    for start in range(n):
        for end in range(start + 1, min(start + M, n) + 1):
            span = TextSpan(start, end)
            k = span_to_index(span, M, vocab.l_p)
            ok &= vocab.l_p <= k < vocab.l_p + n * M
            ok &= k not in seen
            seen[k] = span
            h = index_to_hspan(k, M, vocab.l_p, n)
            ok &= (h.lo - vocab.l_p, h.hi - vocab.l_p + 1) == (span.start, span.end)
    for k in range(vocab.l_p):
        h = index_to_hspan(k, M, vocab.l_p, n)
        ok &= (h.lo, h.hi) == (k, k)
    report(
        "C3 index bijection",
        ok,
        f"exhaustive n=64 m=16: {len(seen)} legal spans unique+invertible; "
        f"g_t identity on all {vocab.l_p} type indices",
    )
    assert ok


def test_c4_mask_soundness():
    t0 = time.time()
    vocab = pinned_vocab()
    rng = np.random.default_rng(4)
    total = 10_000
    good = 0
    for i in range(total):
        n = int(rng.integers(4, 17))
        trv = Traversal.BFS if i % 2 == 0 else Traversal.DFS
        seq = sample_sequence(vocab, n, M, rng, traversal=trv)
        if validate_sequence(seq) is not None:
            continue
        g = decode_sequence(seq)
        if validate_graph(g, n, M, vocab) == []:
            good += 1
    elapsed = time.time() - t0
    ok = good == total and elapsed < 60.0
    report(
        "C4 mask soundness",
        ok,
        f"{good}/{total} sampled sequences validate and decode to valid graphs "
        f"({elapsed:.1f}s)",
    )
    assert ok


def test_c5_gradient_fidelity():
    t0 = time.time()
    vocab = pinned_vocab()
    ds = synth_generate(6, seed=55, vocab=vocab)
    cfg = ModelConfig(d_m=32, layers=2, heads=4, m=M, dropout=0.0)
    worst = 0.0
    checked_groups: set[str] = set()
    for traversal in (Traversal.BFS, Traversal.DFS):
        token_vocab, prepared = prepare_training_data(ds, traversal)
        params = init_params(cfg, vocab, token_vocab, seed=11)
        batch = prepared[:3]

        rep = finite_diff_check(lambda: sequence_loss(batch, cfg, params), params,
                                h=1e-5, coords_per_tensor=3, rng=np.random.default_rng(7))
        worst = max(worst, rep.max_rel_err)
        checked_groups |= set(params.keys())
    needed = {"embed", "meta", "trav_pc", "trav_tree", "dfs_level", "srctgt",
              "span_w1", "span_w2", "head_w5", "head_w6"}
    cover_ok = needed <= checked_groups
    elapsed = time.time() - t0
    ok = worst < 1e-4 and cover_ok and elapsed < 300.0
    report(
        "C5 gradient fidelity",
        ok,
        f"max rel err {worst:.3e} (tolerance 1e-4, h=1e-5) over "
        f"{len(checked_groups)} parameter groups, BFS+DFS ({elapsed:.1f}s)",
    )
    assert ok


def test_c6_span_head_layout():
    vocab = pinned_vocab()
    ds = synth_generate(4, seed=66, vocab=vocab)
    token_vocab, _ = prepare_training_data(ds)
    cfg = ModelConfig(d_m=48, layers=1, heads=4, m=M, dropout=0.0)
    params = init_params(cfg, vocab, token_vocab, seed=9)
    rng = np.random.default_rng(12)
    worst = 0.0
    spans_checked = 0
    for tokens, _ in ds.examples:
        n = len(tokens)
        ctx = encode_context(tokens, cfg, params, vocab, token_vocab)
        h = rng.normal(size=cfg.d_m)
        scores, _ = span_head(
            h, ctx, ElementClass.VIRTUAL_SEP, cfg, params,
            prev_index=vocab.sep_index, vocab=vocab,
        )
        s = h @ params["head_w5"].data + params["head_b5"].data
        e = h @ params["head_w6"].data + params["head_b6"].data
        ts_score = ctx.h_text @ s
        te_score = ctx.h_text @ e
        for start in range(n):
            for end in range(start + 1, min(start + M, n) + 1):
                k = span_to_index(TextSpan(start, end), M, vocab.l_p)
                got = scores[k]
                want = ts_score[start] + te_score[end - 1]
                worst = max(worst, abs(got - want))
                spans_checked += 1
    ok = worst < 1e-10
    report(
        "C6 span-head layout",
        ok,
        f"{spans_checked} legal spans: max |score - (ts+te)| = {worst:.2e} "
        f"(tolerance 1e-10)",
    )
    assert ok


def test_c7_linear_scaling():
    t0 = time.time()
    vocab = pinned_vocab()
    token_vocab = TokenVocab(tokens=("[UNK]", *[f"tok{i}" for i in range(64)]))
    cfg = ModelConfig(d_m=64, layers=2, heads=8, m=M, dropout=0.0, max_tokens=1100)
    params = init_params(cfg, vocab, token_vocab, seed=13)
    model = ExtractionModel(cfg, params, vocab, token_vocab, {}, Traversal.BFS)
    rows = bench_decode_steps(model, sizes=(128, 256, 512, 1024), steps=24, seed=0)
    ns = [r.n for r in rows]
    t_exp = fit_exponent(ns, [r.per_step_seconds for r in rows])
    m_exp = fit_exponent(ns, [r.score_vector_bytes for r in rows])
    elapsed = time.time() - t0
    ok = t_exp < 1.2 and m_exp < 1.2 and elapsed < 300.0
    times = ", ".join(f"n={r.n}:{r.per_step_seconds * 1e3:.2f}ms" for r in rows)
    mems = ", ".join(f"{r.score_vector_bytes}B" for r in rows)
    report(
        "C7 linear scaling",
        ok,
        f"time exponent {t_exp:.3f}, score-vector exponent {m_exp:.3f} "
        f"(< 1.2); per-step [{times}]; score vectors [{mems}] ({elapsed:.1f}s)",
    )
    assert ok


def test_c8_toy_learning():
    t0 = time.time()
    vocab = pinned_vocab()
    train = synth_generate(10_000, seed=100, vocab=vocab)
    test = synth_generate(1_000, seed=101, vocab=vocab)
    dev = synth_generate(300, seed=102, vocab=vocab)
    cfg = ModelConfig(d_m=64, layers=2, heads=8, m=M, dropout=0.1)
    token_vocab, prepared = prepare_training_data(train)
    params = init_params(cfg, vocab, token_vocab, seed=0)
    opt = AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
    model = ExtractionModel(cfg, params, vocab, token_vocab, dict(train.edge_freq), Traversal.BFS)

    max_steps = 20_000
    steps_run = [0]

    def callback(step):
        steps_run[0] = step
        if step % 250:
            return False
        res = evaluate_model(model, dev.examples, beam=1)
        print(f"  step {step}: dev em {res['exact_match']:.3f}", flush=True)
        return res["exact_match"] >= 0.997

    fit(cfg, params, prepared, opt, steps=max_steps, batch_size=8, seed=0, callback=callback)
    beam1 = evaluate_model(model, test.examples, beam=1)
    beam5 = evaluate_model(model, test.examples, beam=5)
    elapsed = time.time() - t0
    ok = (
        steps_run[0] <= max_steps
        and beam1["exact_match"] >= 0.99
        and beam1["ner_f1"] >= 0.99
        and beam1["re_f1"] >= 0.95
        and elapsed < 1800.0
    )
    report(
        "C8 toy learning",
        ok,
        f"{steps_run[0]} steps, {elapsed:.0f}s; beam=1: em {beam1['exact_match']:.4f} "
        f"ner {beam1['ner_f1']:.4f} re {beam1['re_f1']:.4f} | beam=5: em "
        f"{beam5['exact_match']:.4f} ner {beam5['ner_f1']:.4f} re {beam5['re_f1']:.4f}",
    )
    assert ok


def test_c9_incremental_equivalence():
    vocab = pinned_vocab()
    token_vocab = TokenVocab(tokens=("[UNK]", *[f"w{i}" for i in range(30)]))
    cfg = ModelConfig(d_m=32, layers=2, heads=4, m=M, dropout=0.0)
    rng = np.random.default_rng(9)
    equal_rows = 0
    equal_scores = 0
    total = 100
    for case in range(total):
        params = init_params(cfg, vocab, token_vocab, seed=case % 5)
        n = int(rng.integers(4, 21))
        tokens = [f"w{int(rng.integers(30))}" for _ in range(n)]
        trv = Traversal.BFS if case % 2 == 0 else Traversal.DFS
        seq = sample_sequence(vocab, n, M, rng, traversal=trv)
        items = list(seq.items)
        ctx = encode_context(tokens, cfg, params, vocab, token_vocab)
        full = decoder_forward(ctx, items, cfg, params, vocab, trv)
        sess = DecodeSession(ctx, cfg, params, vocab, trv, max_len=len(items) + 4)
        inc = [sess.last_hidden.copy()]
        for k in items:
            sess.append(k)
            inc.append(sess.last_hidden.copy())
        inc = np.stack(inc)
        equal_rows += int(np.array_equal(full, inc))
        prev = items[-1] if items else None
        cls = ElementClass.VIRTUAL_SOS if prev is None else classify(prev, vocab, n, M)
        s_full, _ = span_head(full[-1], ctx, cls, cfg, params, prev_index=prev, vocab=vocab)
        s_inc, _ = span_head(inc[-1], ctx, cls, cfg, params, prev_index=prev, vocab=vocab)
        equal_scores += int(np.array_equal(s_full, s_inc))
    ok = equal_rows == total and equal_scores == total
    report(
        "C9 incremental-decoding equivalence",
        ok,
        f"{equal_rows}/{total} inputs bitwise-equal hidden rows; "
        f"{equal_scores}/{total} bitwise-equal score vectors (BFS+DFS)",
    )
    assert ok
