import numpy as np
import pytest

from testutil import fig4_bfs_items, random_edge_freq, random_graph

from hyspa import numerics as nm
from hyspa.altseq_codec import AltSequence, Traversal, encode, encode_bfs
from hyspa.data_io import synth_generate
from hyspa.hybrid_index import TextSpan, index_to_hspan, span_to_index
from hyspa.info_graph import canonicalize
from hyspa.masks import span_attention_mask
from hyspa.model import (
    DecodeSession,
    ExtractionModel,
    ModelConfig,
    ModelError,
    TokenVocab,
    decode_step,
    decoder_forward,
    encode_context,
    init_params,
    prepare_training_data,
    sequence_logits,
    sequence_loss,
    span_head,
    train_step,
)
from hyspa.numerics import NEG_INF, AdamW
from hyspa.type_vocab import ElementClass, classify, segment_ids


@pytest.fixture(scope="module")
def setup(vocab):
    ds = synth_generate(30, seed=5)
    token_vocab, prepared = prepare_training_data(ds)
    cfg = ModelConfig(d_m=32, layers=2, heads=4, m=16, dropout=0.0)
    params = init_params(cfg, vocab, token_vocab, seed=1)
    return ds, token_vocab, cfg, params


@pytest.fixture(scope="module")
def vocab():
    from testutil import pinned_vocab

    return pinned_vocab()


class TestEncodeContext:
    def test_row_count(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        assert ctx.H.shape == (vocab.l_p + len(tokens), cfg.d_m)

    def test_meta_type_rows_match_table(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        n = len(tokens)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        seg = segment_ids(vocab, n)
        from hyspa.embeddings import sinusoidal
        from hyspa.model import _h_row_ids

        base = params["embed"].data[_h_row_ids(vocab, tv.ids(tokens))]
        for row in (0, vocab.l_e, vocab.l_p - 1, vocab.l_p, vocab.l_p + n - 1):
            expected = base[row] + params["meta"].data[seg[row]]
            if row >= vocab.l_p:
                expected = expected + sinusoidal(row - vocab.l_p, cfg.d_m)
            assert np.allclose(ctx.H[row], expected)

    def test_block_order_matches_segments(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        assert ctx.segment_ids.tolist() == segment_ids(vocab, len(tokens))

    def test_unknown_token_uses_reserved_id(self, vocab, setup):
        _, tv, cfg, params = setup
        ctx_unk = encode_context(("zzz-not-in-vocab", "."), cfg, params, vocab, tv)
        assert ctx_unk.H.shape[0] == vocab.l_p + 2

    def test_overlength_rejected(self, vocab, setup):
        _, tv, cfg, params = setup
        small = ModelConfig(d_m=32, layers=1, heads=4, m=16, dropout=0.0, max_tokens=4)
        with pytest.raises(ModelError):
            encode_context(("a",) * 5, small, params, vocab, tv)

    def test_odd_width_rejected(self):
        with pytest.raises(ModelError, match="even"):
            ModelConfig(d_m=33, layers=1, heads=3)


class TestSpanEncoding:
    def test_type_element_is_exactly_its_row(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        from hyspa.model import _span_row

        for k in (0, vocab.sep_index, vocab.l_e, vocab.l_p - 1):
            assert np.array_equal(_span_row(ctx, k, cfg.m), ctx.H[k])

    def test_two_token_span_is_convex_combination(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        k = span_to_index(TextSpan(1, 3), cfg.m, vocab.l_p)
        from hyspa.model import _span_row

        row = _span_row(ctx, k, cfg.m)
        lo, hi = vocab.l_p + 1, vocab.l_p + 2
        w = np.linalg.lstsq(ctx.H[lo : hi + 1].T, row, rcond=None)[0]
        assert np.all(w > 0)
        assert np.isclose(w.sum(), 1.0, atol=1e-9)

    def test_matches_dense_reference(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        n = len(tokens)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        items = [vocab.sos_index, vocab.l_e, span_to_index(TextSpan(1, 2), cfg.m, vocab.l_p)]
        hspans = [index_to_hspan(k, cfg.m, vocab.l_p, n) for k in items]
        m0 = span_attention_mask([h.lo for h in hspans], [h.hi for h in hspans], vocab.l_p + n)
        q = ctx.H[vocab.l_p] @ params["span_w1"].data + params["span_b1"].data
        K = ctx.H @ params["span_w2"].data + params["span_b2"].data
        scores = (K @ q) / np.sqrt(cfg.d_m) + m0
        ref = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ref /= ref.sum(axis=-1, keepdims=True)
        ref = ref @ ctx.H
        from hyspa.model import _span_row

        for i, k in enumerate(items):
            assert np.allclose(_span_row(ctx, k, cfg.m), ref[i], atol=1e-10)


class TestEncodeHybridSpans:
    def test_matches_tape_target_rows(self, vocab, setup):
        # the numpy prefix encoder must agree with the training path's rows
        import math

        from hyspa.embeddings import bfs_components, annotate_bfs
        from hyspa.model import encode_hybrid_spans

        ds, tv, cfg, params = setup
        tokens, g = ds.examples[3]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        rows = encode_hybrid_spans(list(seq.items), ctx, cfg, params, vocab, Traversal.BFS)
        n, l_p = seq.n, vocab.l_p
        from hyspa.hybrid_index import index_to_hspan
        from hyspa.masks import span_attention_mask

        hspans = [index_to_hspan(k, cfg.m, l_p, n) for k in seq.items]
        m0 = span_attention_mask([h.lo for h in hspans], [h.hi for h in hspans], l_p + n)
        q = ctx.H[l_p] @ params["span_w1"].data + params["span_b1"].data
        K = ctx.H @ params["span_w2"].data + params["span_b2"].data
        att = (K @ q) / math.sqrt(cfg.d_m) + m0
        p = np.exp(att - att.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        ref = p @ ctx.H
        ann = annotate_bfs(seq)
        levels, roles, trees = bfs_components(ann, cfg.d_m)
        ref = ref + levels + roles @ params["trav_pc"].data + trees @ params["trav_tree"].data
        assert np.allclose(rows, ref, atol=1e-10)


class TestDecoderForward:
    def test_cached_equals_full_bitwise(self, vocab, setup):
        ds, tv, cfg, params = setup
        rng = np.random.default_rng(0)
        for idx in range(5):
            tokens, g = ds.examples[idx]
            seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
            ctx = encode_context(tokens, cfg, params, vocab, tv)
            full = decoder_forward(ctx, list(seq.items), cfg, params, vocab, Traversal.BFS)
            sess = DecodeSession(ctx, cfg, params, vocab, Traversal.BFS, max_len=len(seq.items) + 4)
            rows = [sess.last_hidden.copy()]
            for k in seq.items:
                sess.append(k)
                rows.append(sess.last_hidden.copy())
            assert np.array_equal(full, np.stack(rows))

    def test_layers_zero_passthrough(self, vocab, setup):
        ds, tv, _, _ = setup
        cfg0 = ModelConfig(d_m=32, layers=0, heads=4, m=16, dropout=0.0)
        params0 = init_params(cfg0, vocab, tv, seed=2)
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg0, params0, vocab, tv)
        from hyspa.model import _span_row

        rows = decoder_forward(ctx, [vocab.l_e], cfg0, params0, vocab, Traversal.BFS)
        expected0 = _span_row(ctx, vocab.sos_index, cfg0.m) + params0["srctgt"].data[1]
        assert np.allclose(rows[0], expected0)

    def test_causality_under_perturbation(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[1]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        items = list(seq.items)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        base = decoder_forward(ctx, items, cfg, params, vocab, Traversal.BFS)
        # perturb the last element; earlier rows must not move
        items2 = items[:-1] + [vocab.null_type_index]
        pert = decoder_forward(ctx, items2, cfg, params, vocab, Traversal.BFS)
        assert np.array_equal(base[: len(items)], pert[: len(items)])
        assert not np.allclose(base[-1], pert[-1])

    def test_forked_sessions_are_independent(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[1]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        sess = DecodeSession(ctx, cfg, params, vocab, Traversal.BFS, max_len=32)
        sess.append(seq.items[0])
        fork = sess.fork()
        fork.append(seq.items[1])
        sess.append(seq.items[1])
        assert np.array_equal(sess.last_hidden, fork.last_hidden)
        fork2 = sess.fork()
        fork2.append(vocab.sep_index)
        sess.append(seq.items[2])
        assert not np.allclose(sess.last_hidden, fork2.last_hidden)

    def test_fork_copies_filled_prefix_only(self, vocab, setup):
        # a session forked at step t and fed the rest must match a fresh
        # session fed everything, row for row and in every filled cache row
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[2]
        items = list(encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m).items)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        fresh = DecodeSession(ctx, cfg, params, vocab, Traversal.BFS, max_len=len(items) + 4)
        want = [fresh.last_hidden.copy()]
        for k in items:
            fresh.append(k)
            want.append(fresh.last_hidden.copy())
        for t in range(len(items)):
            sess = DecodeSession(ctx, cfg, params, vocab, Traversal.BFS, max_len=len(items) + 4)
            for k in items[:t]:
                sess.append(k)
            fork = sess.fork()
            sess.append(vocab.sep_index)  # the parent moves on; the fork must not see it
            got = [fork.last_hidden.copy()]
            for k in items[t:]:
                fork.append(k)
                got.append(fork.last_hidden.copy())
            assert np.array_equal(np.stack(got), np.stack(want[t:])), t
            filled = len(items) + 1
            for a, b in zip(fork.tgt_k + fork.tgt_v, fresh.tgt_k + fresh.tgt_v):
                assert np.array_equal(a[:, :filled], b[:, :filled]), t

    def test_batched_step_matches_sessions_stepped_alone(self, vocab, setup):
        # sessions with different histories fed one element each in one
        # decode_step give the rows and cache rows each gets when fed alone
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[2]
        items = list(encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m).items)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        t = 6
        histories = [items[:t], items[: t - 1] + [vocab.sep_index], items[1 : t + 1], [vocab.l_p] * t]
        nexts = [items[t], vocab.l_p + cfg.m, vocab.sep_index, vocab.type_edge_index]

        def fed(history):
            sess = DecodeSession(ctx, cfg, params, vocab, Traversal.BFS, max_len=t + 4)
            for k in history:
                sess.append(k)
            return sess

        alone = [fed(h) for h in histories]
        for sess, k in zip(alone, nexts):
            sess.append(k)
        batch = [fed(h) for h in histories]
        decode_step(batch, nexts)
        for a, b in zip(alone, batch):
            assert a.t == b.t == t + 2
            assert _rel_err(b.last_hidden, a.last_hidden) <= 1e-12
            for ca, cb in zip(a.tgt_k + a.tgt_v, b.tgt_k + b.tgt_v):
                assert _rel_err(cb[:, : t + 2], ca[:, : t + 2]) <= 1e-12
        assert not np.allclose(batch[0].last_hidden, batch[1].last_hidden)
        with pytest.raises(ModelError, match="same number of rows"):
            decode_step([fed(histories[0]), fed(histories[1][:-1])], nexts[:2])


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation, relative to the largest magnitude of ``want``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestSpanHead:
    def test_batched_rows_match_single_row_calls(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        n, size = len(tokens), vocab.l_p + len(tokens) * cfg.m
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        rng = np.random.default_rng(6)
        prev = [None, vocab.sep_index, vocab.type_edge_index, 0, vocab.l_e, vocab.l_p + 3]
        classes = [ElementClass.VIRTUAL_SOS if k is None else classify(k, vocab, n, cfg.m) for k in prev]
        hidden = rng.normal(size=(len(prev), cfg.d_m))
        extra = np.where(rng.random((len(prev), size)) < 0.3, NEG_INF, 0.0)
        for strict in (False, True):
            scores, logp = span_head(
                hidden, ctx, classes, cfg, params, prev_index=prev, strict=strict, extra_mask=extra, vocab=vocab
            )
            assert scores.shape == logp.shape == (len(prev), size)
            for b in range(len(prev)):
                s1, l1 = span_head(
                    hidden[b], ctx, classes[b], cfg, params, prev_index=prev[b], strict=strict,
                    extra_mask=extra[b], vocab=vocab,
                )
                adm = s1 > NEG_INF / 2
                assert adm.any()
                assert np.array_equal(scores[b] > NEG_INF / 2, adm)
                assert _rel_err(scores[b][adm], s1[adm]) <= 1e-12
                assert _rel_err(logp[b][adm], l1[adm]) <= 1e-12
                assert (np.exp(logp[b][~adm]) == 0.0).all()

    def test_probabilities_normalize_over_admissible(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        h = np.random.default_rng(3).normal(size=cfg.d_m)
        scores, logp = span_head(
            h, ctx, ElementClass.VIRTUAL_SOS, cfg, params, prev_index=None, vocab=vocab
        )
        p = np.exp(logp)
        adm = scores > NEG_INF / 2
        assert np.isclose(p[adm].sum(), 1.0)
        assert (p[~adm] == 0.0).all()

    def test_flat_slot_layout_matches_double_loop_oracle(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        n = len(tokens)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        rng = np.random.default_rng(4)
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
            for end in range(start + 1, min(start + cfg.m, n) + 1):
                k = span_to_index(TextSpan(start, end), cfg.m, vocab.l_p)
                expected = ts_score[start] + te_score[end - 1]
                assert scores[k] == pytest.approx(expected, abs=1e-10)

    def test_illegal_window_cells_masked(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        n = len(tokens)
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        h = np.zeros(cfg.d_m)
        scores, _ = span_head(
            h, ctx, ElementClass.VIRTUAL_SOS, cfg, params, prev_index=None, vocab=vocab
        )
        for j in range(n):
            for d in range(cfg.m):
                if j + d >= n:
                    assert scores[vocab.l_p + j * cfg.m + d] < NEG_INF / 2

    @pytest.mark.parametrize("n", [5, 16, 23])  # n < m, n = m, n > m
    def test_window_fill_bitwise_equals_diagonal_loop(self, vocab, setup, n):
        _, tv, cfg, params = setup
        ctx = encode_context(("tok",) * n, cfg, params, vocab, tv)
        rng = np.random.default_rng(n)
        for prev_class, prev in ((ElementClass.VIRTUAL_SOS, None), (ElementClass.TEXT_SPAN, vocab.l_p)):
            h = rng.normal(size=cfg.d_m)
            scores, _ = span_head(h, ctx, prev_class, cfg, params, prev_index=prev, vocab=vocab)
            s = h @ params["head_w5"].data + params["head_b5"].data
            e = h @ params["head_w6"].data + params["head_b6"].data
            from hyspa.masks import alternating_masks

            _, m_ap = alternating_masks(prev_class, vocab, n, prev_index=prev)
            ts_vec, te_vec = ctx.h_text @ s + m_ap, ctx.h_text @ e + m_ap
            t_mat = np.full((n, cfg.m), NEG_INF)
            for dlt in range(min(cfg.m, n)):
                t_mat[: n - dlt, dlt] = ts_vec[: n - dlt] + te_vec[dlt:]
            assert np.array_equal(scores[vocab.l_p :], t_mat.reshape(-1))

    def test_prev_span_blocks_text_mass(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, cfg, params, vocab, tv)
        h = np.random.default_rng(5).normal(size=cfg.d_m)
        _, logp = span_head(
            h, ctx, ElementClass.TEXT_SPAN, cfg, params, prev_index=vocab.l_p, vocab=vocab
        )
        assert np.exp(logp[vocab.l_p :]).sum() == 0.0


class TestTrainingPath:
    def test_tape_logits_match_inference(self, vocab, setup):
        ds, tv, cfg, params = setup
        for idx in (0, 3):
            tokens, g = ds.examples[idx]
            seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
            ids = tv.ids(tokens)
            logits, _ = sequence_logits([(ids, seq)], cfg, params)
            logits = logits.data[0]
            ctx = encode_context(tokens, cfg, params, vocab, tv)
            rows = decoder_forward(ctx, list(seq.items), cfg, params, vocab, Traversal.BFS)
            inputs = [None, *seq.items]
            for i, h in enumerate(rows):
                prev = inputs[i]
                cls = (
                    ElementClass.VIRTUAL_SOS
                    if prev is None
                    else classify(prev, vocab, seq.n, cfg.m)
                )
                scores, _ = span_head(h, ctx, cls, cfg, params, prev_index=prev, vocab=vocab)
                adm = logits[i] > NEG_INF / 2
                assert np.allclose(scores[adm], logits[i][adm], atol=1e-9)

    def test_teacher_forced_product_equals_exp_neg_ce(self, vocab, setup):
        # autoregressive factorization: sum of per-step CE at eps=0 equals -log p(seq)
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[4]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        ids = tv.ids(tokens)
        loss = sequence_loss([(ids, seq)], cfg, params, label_smoothing=0.0)
        logits, targets = sequence_logits([(ids, seq)], cfg, params)
        logp = nm.log_softmax(logits).data[0]
        total = sum(logp[i, t] for i, t in enumerate(targets[0]))
        assert loss.item() * len(targets[0]) == pytest.approx(-total, abs=1e-9)

    def test_zero_length_target_rejected(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        seq = AltSequence((), Traversal.BFS, vocab, len(tokens), cfg.m)
        with pytest.raises(ModelError):
            sequence_loss([(tv.ids(tokens), seq)], cfg, params)

    def test_loss_decreases_on_one_example(self, vocab, setup):
        ds, tv, cfg, _ = setup
        params = init_params(cfg, vocab, tv, seed=7)
        tokens, g = ds.examples[0]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        batch = [(tv.ids(tokens), seq)]
        opt = AdamW(params, peak_lr=3e-3, warmup=10, weight_decay=0.01)
        first = train_step(batch, cfg, params, opt)
        losses = [train_step(batch, cfg, params, opt) for _ in range(50)]
        assert losses[-1] < first * 0.5

    def test_dropout_only_in_training(self, vocab, setup):
        ds, tv, _, _ = setup
        cfg = ModelConfig(d_m=32, layers=1, heads=4, m=16, dropout=0.5)
        params = init_params(cfg, vocab, tv, seed=8)
        tokens, g = ds.examples[0]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        ids = tv.ids(tokens)
        batch = [(ids, seq)]
        a = sequence_loss(batch, cfg, params).item()
        b = sequence_loss(batch, cfg, params).item()
        assert a == b  # inference-mode losses are deterministic
        rng = np.random.default_rng(0)
        c = sequence_loss(batch, cfg, params, training=True, rng=rng).item()
        d = sequence_loss(batch, cfg, params, training=True, rng=rng).item()
        assert c != d

    def test_short_text_smaller_than_span_window(self, vocab, setup):
        # n=2 < m=16: codec, loss, and decoding must all stay correct
        from hyspa.info_graph import Mention, graph_equal, make_graph
        from hyspa.altseq_codec import decode_sequence
        from hyspa.decode_search import greedy_decode

        ds, tv, cfg, params = setup
        g = make_graph([Mention(TextSpan(0, 1), vocab.l_e)], [], n=2, m=cfg.m)
        seq = encode_bfs(canonicalize(g, {}, vocab), vocab, cfg.m)
        assert graph_equal(decode_sequence(seq), g)
        tokens = ("[CLS]", "alice")
        loss = sequence_loss([(tv.ids(tokens), seq)], cfg, params)
        assert np.isfinite(loss.item())
        model = ExtractionModel(cfg, params, vocab, tv, {}, Traversal.BFS)
        res = greedy_decode(model, tokens)
        assert res.finished
        decode_sequence(res.seq)

    def test_masked_slot_gradients_exactly_zero(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[3]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m)
        ids = tv.ids(tokens)
        logits, targets = sequence_logits([(ids, seq)], cfg, params)
        loss = nm.label_smoothed_ce(logits, targets, 0.1)
        loss.backward()
        masked = logits.data <= NEG_INF / 2
        assert (logits.grad[masked] == 0.0).all()


def _grads(params):
    return {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}


class TestBatchedTape:
    """One padded tape per batch agrees with one example at a time."""

    @pytest.fixture(scope="class")
    def mixed(self, vocab):
        ds = synth_generate(40, seed=21)
        tv, prepared = prepare_training_data(ds)
        by_len = sorted(prepared, key=lambda p: (len(p[0]), len(p[1].items)))
        batch = [by_len[0], by_len[-1], by_len[len(by_len) // 2], by_len[1]]
        assert len({len(ids) for ids, _ in batch}) > 2 and len({len(s.items) for _, s in batch}) > 2
        cfg = ModelConfig(d_m=32, layers=2, heads=4, m=16, dropout=0.3)
        return batch, cfg, init_params(cfg, vocab, tv, seed=4)

    @pytest.mark.parametrize("training", [False, True])
    def test_loss_and_grads_equal_mean_of_single_examples(self, mixed, training):
        batch, cfg, params = mixed
        for p in params.values():
            p.grad = None
        loss = sequence_loss(batch, cfg, params, training=training, rng=np.random.default_rng(6))
        loss.backward()
        batched = _grads(params)

        rng = np.random.default_rng(6)  # single examples draw the same dropout stream in turn
        singles, total = [], 0.0
        for ex in batch:
            for p in params.values():
                p.grad = None
            one = sequence_loss([ex], cfg, params, training=training, rng=rng)
            one.backward()
            total += one.item()
            singles.append(_grads(params))
        assert loss.item() == pytest.approx(total / len(batch), abs=1e-12)
        means = {name: sum(s[name] for s in singles) / len(batch) for name in batched}
        largest = max(np.abs(g).max() for g in means.values())
        worst = max(np.abs(batched[name] - g).max() for name, g in means.items())
        assert worst / largest < 1e-12

    def test_dropout_masks_follow_per_example_draw_order(self, mixed):
        from hyspa.model import _dropout_keep

        _, cfg, _ = mixed
        n, t = np.array([2, 4, 3]), np.array([5, 2, 3])
        keep = _dropout_keep(n, t, 5, cfg, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        for b in range(3):
            rows = np.r_[np.arange(n[b]), 4 + np.arange(t[b])]  # sources, then targets after n_pad
            for layer in range(cfg.layers):
                for kind in (0, 1):  # attention output, then FFN output
                    mask = (rng.random((n[b] + t[b], cfg.d_m)) >= cfg.dropout) / (1.0 - cfg.dropout)
                    assert np.array_equal(keep[layer, kind, b, rows], mask)
        assert (keep.sum(axis=-1) == 0).sum() == cfg.layers * 2 * (3 * 9 - (n + t).sum())

    def test_padding_gets_exactly_zero_gradient(self, vocab, mixed):
        batch, cfg, params = mixed
        logits, targets = sequence_logits(batch, cfg, params)
        real = targets >= 0
        weights = real / (len(batch) * real.sum(axis=1, keepdims=True))
        loss = nm.label_smoothed_ce(logits, targets, 0.1, weights)
        assert loss.item() == sequence_loss(batch, cfg, params).item()
        loss.backward()
        assert logits.data.shape[:2] == targets.shape
        assert (logits.grad[~real] == 0.0).all()
        for b, (ids, seq) in enumerate(batch):
            assert real[b].sum() == len(seq.items) + 1
            assert (logits.grad[b, :, vocab.l_p + len(ids) * cfg.m :] == 0.0).all()
            assert (logits.data[b, :, vocab.l_p + len(ids) * cfg.m :] < NEG_INF / 2).all()
        assert np.abs(logits.grad[real]).max() > 0.0

    @pytest.mark.parametrize("cells", [0, 1500, 4000, 2**17])
    def test_tape_runs_are_greedy_consecutive_and_within_budget(self, mixed, monkeypatch, cells):
        from hyspa import model as hm

        batch, _, _ = mixed
        monkeypatch.setattr(hm, "_RUN_CELLS", cells)
        runs = hm._tape_runs(batch)

        def cost(run):
            return len(run) * max(s.n + len(s.items) + 1 for _, s in run) ** 2

        assert [ex for run in runs for ex in run] == batch
        assert all(len(run) == 1 or cost(run) <= cells for run in runs)
        assert all(cost(a + b[:1]) > cells for a, b in zip(runs, runs[1:]))
        if cells == 2**17:
            assert len(runs) == 1

    def test_train_step_over_runs_equals_one_tape(self, mixed, monkeypatch):
        from hyspa import model as hm

        batch, cfg, params = mixed

        def step():
            copy = {k: nm.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}
            opt = AdamW(copy, peak_lr=1e-3, warmup=10)
            loss = train_step(batch, cfg, copy, opt, rng=np.random.default_rng(8))
            return loss, _grads(copy)

        one_loss, one = step()
        monkeypatch.setattr(hm, "_RUN_CELLS", 0)  # every example a run of its own
        assert len(hm._tape_runs(batch)) == len(batch)
        runs_loss, runs = step()
        assert runs_loss == pytest.approx(one_loss, abs=1e-12)
        largest = max(np.abs(g).max() for g in one.values())
        assert max(np.abs(runs[k] - g).max() for k, g in one.items()) / largest < 1e-12

    def test_empty_batch_rejected(self, mixed):
        _, cfg, params = mixed
        with pytest.raises(ModelError, match="empty batch"):
            train_step([], cfg, params, AdamW(params, peak_lr=1e-3, warmup=10))

    def test_nan_parameter_names_step_and_example(self, vocab, mixed):
        batch, cfg, params = mixed
        bad = {k: nm.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}
        opt = AdamW(bad, peak_lr=1e-3, warmup=10)
        train_step(batch, cfg, bad, opt)
        bad["head_w5"].data[0, 0] = np.nan
        ids, seq = batch[0]
        with pytest.raises(FloatingPointError, match=rf"opt step 2: .*n={seq.n}, T={len(seq.items)}"):
            train_step(batch, cfg, bad, opt)

    def test_mixed_traversal_rejected(self, vocab, mixed):
        batch, cfg, params = mixed
        ds = synth_generate(4, seed=22)
        _, dfs = prepare_training_data(ds, Traversal.DFS)
        with pytest.raises(ModelError, match="traversal"):
            sequence_loss([batch[0], dfs[0]], cfg, params)


class TestCheckpoint:
    def test_save_load_roundtrip(self, vocab, setup, tmp_path):
        ds, tv, cfg, params = setup
        model = ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ExtractionModel.load(path)
        assert loaded.cfg == cfg
        assert loaded.token_vocab.tokens == tv.tokens
        assert loaded.vocab.l_p == vocab.l_p
        assert loaded.edge_freq == dict(ds.edge_freq)
        for k, v in params.items():
            assert np.array_equal(loaded.params[k].data, v.data)

    def test_loaded_model_decodes_identically(self, vocab, setup, tmp_path):
        ds, tv, cfg, params = setup
        from hyspa.decode_search import greedy_decode

        model = ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ExtractionModel.load(path)
        tokens = ds.examples[0][0]
        assert greedy_decode(model, tokens).seq.items == greedy_decode(loaded, tokens).seq.items

    @pytest.mark.parametrize(
        "damage, message",
        [("truncate", r"L0\.wq has shape \(32, 31\)"), ("drop", r"L0\.wq \(32, 32\) is missing"),
         ("extra", r"L9\.wq is not part")],
        ids=["truncate", "drop", "extra"],
    )
    def test_mismatched_parameter_fails_at_load(self, vocab, setup, tmp_path, damage, message):
        ds, tv, cfg, params = setup
        arrays = {k: v.data for k, v in params.items()}
        if damage == "truncate":
            arrays["L0.wq"] = arrays["L0.wq"][:, :-1]
        elif damage == "drop":
            del arrays["L0.wq"]
        else:
            arrays["L9.wq"] = arrays["L0.wq"]
        path = tmp_path / "model.npz"
        damaged = {k: nm.Tensor(v) for k, v in arrays.items()}
        ExtractionModel(cfg, damaged, vocab, tv, dict(ds.edge_freq), Traversal.BFS).save(path)
        with pytest.raises(ModelError, match=message):
            ExtractionModel.load(path)
