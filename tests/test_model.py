import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testutil import (
    FIG4_TOKENS, decoder_forward, greedy_decode, head_inputs, layer_norm, log_softmax, make_engine, matmul, mul,
    open_mask, positions, random_edge_freq, random_graph, relu, reshape, sum_all, tail_inputs, take_rows, transpose,
    unfold,
)

from hyspa import numerics as nm
from hyspa.altseq_codec import AltSequence, GenConstraints, Traversal, decode_sequence, encode, encode_bfs
from hyspa.data_io import synth_generate
from hyspa.decode_search import _step_logprobs
from hyspa.embeddings import bfs_components, dfs_components
from hyspa.hybrid_index import TextSpan, span_rows, span_to_index
from hyspa.info_graph import Mention, canonicalize, graph_equal, make_graph
from hyspa.model import (
    DecodeSession,
    ExtractionModel,
    ModelConfig,
    ModelError,
    decode_step,
    encode_context,
    fit,
    init_params,
    prepare_training_data,
    sequence_logits,
    sequence_loss,
    span_head,
    train_step,
)
from hyspa.numerics import NEG_INF, AdamW
from hyspa.type_vocab import segment_ids


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
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        assert ctx.H.shape == (vocab.l_p + len(tokens), cfg.d_m)

    def test_meta_type_rows_match_table(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        n = len(tokens)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        seg = segment_ids(vocab, n)
        from hyspa.embeddings import sinusoidal
        from hyspa.model import _h_row_ids

        base = params["embed"].data[_h_row_ids(vocab, tv.ids(tokens))]
        for row in (0, vocab.l_e, vocab.l_p - 1, vocab.l_p, vocab.l_p + n - 1):
            expected = base[row] + params["meta"].data[seg[row]]
            if row >= vocab.l_p:
                expected = expected + sinusoidal(row - vocab.l_p, cfg.d_m)
            assert np.allclose(ctx.H[row], expected)

    def test_tape_rows_equal_encode_context_bitwise(self, vocab, setup, monkeypatch):
        # each example's rows of the H a padded tape builds are the H its own
        # encode_context builds, bit for bit; the padding rows are not read
        from hyspa import model as hm

        ds, tv, cfg, params = setup
        built, tape_hybrid = [], hm._tape_hybrid

        def recording(*args):
            built.append(tape_hybrid(*args))
            return built[-1]

        monkeypatch.setattr(hm, "_tape_hybrid", recording)
        idxs = [3, 0, 7, 12]
        graphs = [canonicalize(ds.examples[j][1], ds.edge_freq, vocab) for j in idxs]
        batch = [(tv.ids(ds.examples[j][0]), encode_bfs(g, vocab)) for j, g in zip(idxs, graphs)]
        assert len({len(ids) for ids, _ in batch}) > 2
        sequence_logits(batch, cfg, params)
        (H,) = built
        for b, j in enumerate(idxs):
            ctx = encode_context(ds.examples[j][0], make_engine(cfg, params, vocab, tv))
            assert np.array_equal(H.data[b, : len(ctx.H)], ctx.H)

    def test_unknown_token_uses_reserved_id(self, vocab, setup):
        _, tv, cfg, params = setup
        ctx_unk = encode_context(("zzz-not-in-vocab", "."), make_engine(cfg, params, vocab, tv))
        assert ctx_unk.H.shape[0] == vocab.l_p + 2

    def test_overlength_rejected(self, vocab, setup):
        _, tv, cfg, params = setup
        small = ModelConfig(d_m=32, layers=1, heads=4, m=16, dropout=0.0, max_tokens=4)
        with pytest.raises(ModelError):
            encode_context(("a",) * 5, make_engine(small, params, vocab, tv))

    def test_odd_width_rejected(self):
        with pytest.raises(ModelError, match="even"):
            ModelConfig(d_m=33, layers=1, heads=3)

    @pytest.mark.parametrize("dropout", [-0.2, 1.0, 1.5, "x", None, [0.1], False, True])
    def test_dropout_outside_unit_interval_rejected(self, dropout):
        with pytest.raises(ModelError, match="0 <= dropout < 1"):
            ModelConfig(d_m=32, layers=1, heads=4, dropout=dropout)

    @pytest.mark.parametrize("size, message", [
        (dict(heads=0), "heads >= 1"), (dict(heads=-2), "heads >= 1"), (dict(d_m=0), "d_m >= 2"),
        (dict(max_tokens=0), "max_tokens >= 1"), (dict(d_m=16.0), "d_m must be an integer"),
        (dict(layers=1.0), "layers must be an integer"), (dict(heads=True), "heads must be an integer"),
        (dict(m="16"), "m must be an integer"),
        *((dict(source_radius=radius), "source_radius must be None or an integer >= 1")
          for radius in (True, 0, -3, 2.5, "64")),
    ])
    def test_bad_size_rejected_before_use(self, size, message):
        # heads=0 once raised ZeroDivisionError from d_m % heads, and a float
        # layers or heads passed the config and failed deep in numpy
        with pytest.raises(ModelError, match=message):
            ModelConfig(**size)

    # n against a chunk of R = 5 query rows: one short chunk, one full chunk,
    # a full chunk and a one-row chunk, a ragged last chunk; rows None keeps
    # the module's chunks of at most _BAND_ROWS = 32 rows (ten chunks at
    # n = 300, the last one ragged, at every radius).  A source radius of 2
    # closes pairs inside a chunk of 5 rows; under a radius of 11 a chunk's
    # keys span several chunks; None is full attention.
    @pytest.mark.parametrize("heads", [4, 8])
    @pytest.mark.parametrize("n, rows, radius", [
        pytest.param(n, rows, radius, id=f"{n}-{rows}" + (f"-r{radius}" if radius else ""))
        for radius in (None, 2, 11) for n, rows in [(1, 5), (4, 5), (5, 5), (6, 5), (13, 5), (300, None)]
    ])
    def test_chunked_attention_matches_per_head_reference(self, vocab, setup, monkeypatch, heads, n, rows, radius):
        import math

        from hyspa import model as hm

        _, tv, _, _ = setup
        cfg = ModelConfig(d_m=32, layers=3, heads=heads, m=16, dropout=0.0, source_radius=radius)
        params = init_params(cfg, vocab, tv, seed=4)
        for i in range(cfg.layers):  # peaked attention weights, not near-uniform ones
            params[f"L{i}.wq"].data *= 30.0
            params[f"L{i}.wk"].data *= 30.0
        if rows is not None:
            monkeypatch.setattr(hm, "_SCORE_CELLS", heads * rows * n)
            monkeypatch.setattr(hm, "_BAND_ROWS", rows)
        tokens = tuple(np.random.default_rng(n).choice(tv.tokens, n))
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))

        p = {k: v.data for k, v in params.items()}
        d, dh = cfg.d_m, cfg.d_m // heads
        x = ctx.H[vocab.l_p :] + p["srctgt"][0]
        for i in range(cfg.layers):
            q, k, v = (x @ p[f"L{i}.w{c}"] + p[f"L{i}.b{c}"] for c in "qkv")
            assert _rel_err(ctx.src_k[i], k.reshape(n, heads, dh).transpose(1, 0, 2)) <= 1e-12
            assert _rel_err(ctx.src_v[i], v.reshape(n, heads, dh).transpose(1, 0, 2)) <= 1e-12
            out = np.empty_like(x)
            far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > (n if radius is None else radius)
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                scores = q[:, sl] @ k[:, sl].T / math.sqrt(d)
                scores[far] = -np.inf
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                out[:, sl] = (w / w.sum(axis=1, keepdims=True)) @ v[:, sl]
            x = hm._block_tail(out, x, [p[f"L{i}.{name}"] for name in hm._TAIL])[0]

    def test_transient_memory_is_linear_in_n(self, vocab):
        import tracemalloc

        from hyspa.model import TokenVocab

        tv = TokenVocab(tokens=("[UNK]", *[f"tok{i}" for i in range(64)]))
        cfg = ModelConfig(d_m=64, layers=2, heads=8, m=16, dropout=0.0, max_tokens=2048)
        params = init_params(cfg, vocab, tv, seed=13)

        def peak(n):
            tokens = [f"tok{i % 64}" for i in range(n)]
            tracemalloc.start()
            try:
                encode_context(tokens, make_engine(cfg, params, vocab, tv))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2048) < 2.5 * peak(1024)


def window_mask(rows, l_h):
    """Dense span-attention mask: row r opens exactly the H rows [lo_r, hi_r]."""
    lo, hi = (np.array([[r[end]] for r in rows]) for end in (0, 1))
    cols = np.arange(l_h)
    return np.where((cols >= lo) & (cols <= hi), 0.0, NEG_INF)


class TestSpanEncoding:
    def test_type_element_is_exactly_its_row(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        from hyspa.model import _span_row

        for k in (0, vocab.sep_index, vocab.l_e, vocab.l_p - 1):
            assert np.array_equal(_span_row(ctx, k), ctx.H[k])

    def test_two_token_span_is_convex_combination(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        k = span_to_index(TextSpan(1, 3), cfg.m, vocab.l_p)
        from hyspa.model import _span_row

        row = _span_row(ctx, k)
        lo, hi = vocab.l_p + 1, vocab.l_p + 2
        w = np.linalg.lstsq(ctx.H[lo : hi + 1].T, row, rcond=None)[0]
        assert np.all(w > 0)
        assert np.isclose(w.sum(), 1.0, atol=1e-9)

    def test_matches_dense_reference(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        n = len(tokens)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        items = [vocab.sos_index, vocab.l_e, span_to_index(TextSpan(1, 2), cfg.m, vocab.l_p)]
        m0 = window_mask([span_rows(k, cfg.m, vocab.l_p) for k in items], vocab.l_p + n)
        q = ctx.H[vocab.l_p] @ params["span_w1"].data + params["span_b1"].data
        K = ctx.H @ params["span_w2"].data + params["span_b2"].data
        scores = (K @ q) / np.sqrt(cfg.d_m) + m0
        ref = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ref /= ref.sum(axis=-1, keepdims=True)
        ref = ref @ ctx.H
        from hyspa.model import _span_row

        for i, k in enumerate(items):
            assert np.allclose(_span_row(ctx, k), ref[i], atol=1e-10)

    def test_slot_outside_the_text_rejected(self, vocab, setup):
        # below 0, a span that ends past the text, and the first slot past the space
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        n = len(tokens)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        from hyspa.model import _span_row

        slots = (-1, vocab.l_p + (n - 1) * cfg.m + 1, vocab.l_p + n * cfg.m)
        for k in slots:
            with pytest.raises(ModelError, match=rf"slot {k} lies outside the hybrid index space of n={n}"):
                _span_row(ctx, k)
        assert not set(slots) & set(ctx.rows)


class TestEncodeHybridSpans:
    def test_matches_tape_target_rows(self, vocab, setup):
        # the engine's input rows, fed item by item, agree with a numpy
        # reference of the training tape's rows: span attention over H plus
        # the tape's vectorised traversal features, for BFS and for DFS
        import math

        ds, tv, cfg, params = setup
        for idx, traversal in itertools.product(range(5), (Traversal.BFS, Traversal.DFS)):
            tokens, g = ds.examples[idx]
            seq = encode(canonicalize(g, ds.edge_freq, vocab), vocab, cfg.m, traversal)
            ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
            sess = DecodeSession(ctx, traversal, max_len=len(seq.items) + 4)
            rows = np.stack([sess._input_row(k) for k in seq.items])

            n, l_p = seq.n, vocab.l_p
            m0 = window_mask([span_rows(k, cfg.m, l_p) for k in seq.items], l_p + n)
            q = ctx.H[l_p] @ params["span_w1"].data + params["span_b1"].data
            K = ctx.H @ params["span_w2"].data + params["span_b2"].data
            att = (K @ q) / math.sqrt(cfg.d_m) + m0
            p = np.exp(att - att.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            ref = p @ ctx.H
            pos = positions(seq)
            if traversal == Traversal.BFS:
                levels, roles, trees = bfs_components(pos, cfg.d_m)
                ref = ref + levels + roles @ params["trav_pc"].data + trees @ params["trav_tree"].data
            else:
                level_ids, conns = dfs_components(pos, cfg.d_m)
                ref = ref + params["dfs_level"].data[level_ids] + conns
            assert np.allclose(rows, ref, atol=1e-10)

    def test_engine_traversal_rows_equal_tape_bitwise(self, vocab, setup):
        # the engine's memoised one-position traversal rows are the tape's rows of a
        # padded batch of random graphs, bit for bit, under BFS and DFS
        from testutil import random_graph

        from hyspa.model import _traversal_embedding

        _, tv, cfg, params = setup
        rng = np.random.default_rng(14)
        for traversal in (Traversal.BFS, Traversal.DFS):
            for _ in range(4):
                graphs = [random_graph(rng, vocab, n_max=48) for _ in range(5)]
                seqs = [encode(canonicalize(g, {}, vocab), vocab, cfg.m, traversal) for g in graphs]
                t_pad = max(len(seq.items) for seq in seqs) + 1
                tape = _traversal_embedding(seqs, t_pad, cfg, params).data
                for b, seq in enumerate(seqs):
                    engine = make_engine(cfg, params, vocab, tv)
                    rows = [engine.traversal_row(traversal, p) for p in positions(seq)]
                    assert all(engine.rows[traversal, p] is row for p, row in zip(positions(seq), rows))
                    assert np.array_equal(np.stack(rows), tape[b, 1 : len(seq.items) + 1])
                    assert not tape[b, len(seq.items) + 1 :].any()


class TestDecoderForward:
    def test_cached_equals_full_bitwise(self, vocab, setup):
        ds, tv, cfg, params = setup
        rng = np.random.default_rng(0)
        for idx in range(5):
            tokens, g = ds.examples[idx]
            seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
            ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
            full = decoder_forward(ctx, list(seq.items), Traversal.BFS)
            sess = DecodeSession(ctx, Traversal.BFS, max_len=len(seq.items) + 4)
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
        ctx = encode_context(tokens, make_engine(cfg0, params0, vocab, tv))
        from hyspa.model import _span_row

        rows = decoder_forward(ctx, [vocab.l_e], Traversal.BFS)
        expected0 = _span_row(ctx, vocab.sos_index) + params0["srctgt"].data[1]
        assert np.allclose(rows[0], expected0)

    def test_causality_under_perturbation(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[1]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
        items = list(seq.items)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        base = decoder_forward(ctx, items, Traversal.BFS)
        # perturb the last element; earlier rows must not move
        items2 = items[:-1] + [vocab.null_type_index]
        pert = decoder_forward(ctx, items2, Traversal.BFS)
        assert np.array_equal(base[: len(items)], pert[: len(items)])
        assert not np.allclose(base[-1], pert[-1])

    def test_forked_sessions_are_independent(self, vocab, setup):
        # a fork fed beside its parent on a 2-row cache gets a row of its own:
        # the same element gives both the same row, different ones differ
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[1]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        sess = DecodeSession(ctx, Traversal.BFS, max_len=32, beam=2)
        sess.append(seq.items[0])
        fork = sess.fork()
        decode_step([sess, fork], [seq.items[1], seq.items[1]])
        assert (sess.row, fork.row) == (0, 1)
        assert np.array_equal(sess.last_hidden, fork.last_hidden)
        fork2 = sess.fork()
        decode_step([sess, fork2], [seq.items[2], vocab.sep_index])
        assert not np.allclose(sess.last_hidden, fork2.last_hidden)
        sess.append(seq.items[3])  # alone: row 0 is its own now
        with pytest.raises(ModelError, match="fed without this one"):
            fork.append(seq.items[2])  # its row 1 now holds fork2's rows

    def test_feeding_a_session_after_its_fork_raises(self, vocab, setup):
        # a fork and its parent share a cache row until one step feeds both;
        # whichever is fed alone first advances that row, and the other one
        # is refused before it reads rows it did not write
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[1]
        items = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab).items
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        for beam, fork_first in itertools.product((1, 2), (True, False)):
            sess = DecodeSession(ctx, Traversal.BFS, max_len=32, beam=beam)
            sess.append(items[0])
            fork = sess.fork()
            first, second = (fork, sess) if fork_first else (sess, fork)
            first.append(items[1])
            with pytest.raises(ModelError, match="cache row 0 holds 3 rows, not the session's 2"):
                second.append(items[1])
            assert second.t == 2 and first.t == 3
            first.append(items[2])  # the session that advanced the row goes on

    def test_fork_copies_filled_prefix_only(self, vocab, setup):
        # a session forked at step t and fed the rest matches a fresh session
        # fed everything: the step that feeds the fork beside its parent
        # gathers the parent's t filled cache rows into the fork's row, bit
        # for bit, and the rows that follow agree with the fresh session's
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[2]
        items = list(encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab).items)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        fresh = DecodeSession(ctx, Traversal.BFS, max_len=len(items) + 4)
        want = [fresh.last_hidden.copy()]
        for k in items:
            fresh.append(k)
            want.append(fresh.last_hidden.copy())
        filled = len(items) + 1
        for t in range(len(items)):
            sess = DecodeSession(ctx, Traversal.BFS, max_len=len(items) + 4, beam=2)
            for k in items[:t]:
                sess.append(k)
            fork = sess.fork()
            assert fork.kv is sess.kv and fork.row == sess.row == 0
            decode_step([sess, fork], [vocab.sep_index, items[t]])  # the parent moves on beside it
            assert (sess.row, fork.row) == (0, 1)
            assert np.array_equal(fork.kv[:, 1, :, :, : t + 1], fresh.kv[:, 0, :, :, : t + 1]), t
            got = [fork.last_hidden.copy()]
            for k in items[t + 1 :]:
                fork.append(k)  # alone: the first call gathers row 1 into row 0
                got.append(fork.last_hidden.copy())
            assert fork.row == (0 if t + 1 < len(items) else 1)
            assert _rel_err(np.stack(got), np.stack(want[t + 1 :])) <= 1e-12, t
            assert _rel_err(fork.kv[:, fork.row, ..., :filled, :], fresh.kv[:, 0, ..., :filled, :]) <= 1e-12, t

    def test_batched_step_matches_sessions_stepped_alone(self, vocab, setup):
        # sessions with different histories on one cache, fed one element
        # each per decode_step, give the rows and cache rows each gets when
        # fed alone; a last step that feeds them in reverse order gathers
        # every row from another one first
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[2]
        items = list(encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab).items)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        t = 6
        histories = [items[:t], items[: t - 1] + [vocab.sep_index], items[1 : t + 1], [vocab.l_p] * t]
        nexts = [items[t], vocab.l_p + cfg.m, vocab.sep_index, vocab.type_edge_index]

        def fed(history):
            sess = DecodeSession(ctx, Traversal.BFS, max_len=t + 4)
            for k in history:
                sess.append(k)
            return sess

        alone = [fed(h) for h in histories]
        for sess, k in zip(alone, nexts):
            sess.append(k)
        root = DecodeSession(ctx, Traversal.BFS, max_len=t + 4, beam=len(histories))
        batch = [root] + [root.fork() for _ in histories[1:]]
        for step in zip(*histories):
            decode_step(batch, step)
        decode_step(batch[::-1], nexts[::-1])
        for b, (a, s) in enumerate(zip(alone, batch)):
            assert a.t == s.t == t + 2
            assert s.row == len(batch) - 1 - b
            assert _rel_err(s.last_hidden, a.last_hidden) <= 1e-12
            assert _rel_err(s.kv[:, s.row, ..., : t + 2, :], a.kv[:, 0, ..., : t + 2, :]) <= 1e-12
        assert not np.allclose(batch[0].last_hidden, batch[1].last_hidden)
        ahead, behind = batch[0], batch[0].fork()
        ahead.append(items[0])
        with pytest.raises(ModelError, match="same number of rows"):
            decode_step([ahead, behind], nexts[:2])
        with pytest.raises(ModelError, match="one cache"):
            decode_step([alone[0], alone[1]], nexts[:2])
        with pytest.raises(ModelError, match="cache of 1 rows"):
            decode_step([alone[0], alone[0].fork()], nexts[:2])


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation, relative to the largest magnitude of ``want``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestSpanHead:
    def test_batched_rows_match_single_row_calls(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        size = vocab.l_p + len(tokens) * cfg.m
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        rng = np.random.default_rng(6)
        hidden = rng.normal(size=(6, cfg.d_m))
        mask = np.where(rng.random((6, size)) < 0.3, NEG_INF, 0.0)
        scores, logp = span_head(hidden, ctx, mask)
        assert np.shape(scores) == np.shape(logp) == (6, size)
        for b in range(6):
            s1, l1 = span_head(hidden[b : b + 1], ctx, mask[b : b + 1])
            adm = s1[0] > NEG_INF / 2
            assert adm.any()
            assert np.array_equal(scores[b] > NEG_INF / 2, adm)
            assert _rel_err(scores[b][adm], s1[0][adm]) <= 1e-12
            assert _rel_err(logp[b][adm], l1[0][adm]) <= 1e-12
            assert (np.exp(logp[b][~adm]) == 0.0).all()

    def test_probabilities_normalize_over_admissible(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        h = np.random.default_rng(3).normal(size=(1, cfg.d_m))
        mask = np.where(np.arange(vocab.l_p + len(tokens) * cfg.m) % 3 == 0, NEG_INF, 0.0)
        scores, logp = span_head(h, ctx, mask[None])
        p = np.exp(logp[0])
        adm = scores[0] > NEG_INF / 2
        assert np.isclose(p[adm].sum(), 1.0)
        assert (p[~adm] == 0.0).all()

    def test_full_rows_equal_tape_log_softmax_bitwise(self, vocab, setup):
        # the engine's log-probabilities are the tape's log_softmax forward
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        rng = np.random.default_rng(8)
        hidden = rng.normal(size=(3, cfg.d_m)) * 3
        mask = np.where(rng.random((3, vocab.l_p + len(tokens) * cfg.m)) < 0.3, NEG_INF, 0.0)
        scores, logp = span_head(hidden, ctx, mask)
        for row, want in zip(logp, log_softmax(np.array(scores)).data):
            assert np.array_equal(row, want)

    def test_flat_slot_layout_matches_double_loop_oracle(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[2][0]
        n = len(tokens)
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        rng = np.random.default_rng(4)
        h = rng.normal(size=cfg.d_m)
        scores = span_head(h[None], ctx, open_mask(ctx, cfg))[0][0]
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
        ctx = encode_context(tokens, make_engine(cfg, params, vocab, tv))
        scores = span_head(np.zeros((1, cfg.d_m)), ctx, open_mask(ctx, cfg))[0][0]
        for j in range(n):
            for d in range(cfg.m):
                if j + d >= n:
                    assert scores[vocab.l_p + j * cfg.m + d] < NEG_INF / 2

    @pytest.mark.parametrize("n", [5, 16, 23])  # n < m, n = m, n > m
    def test_window_fill_bitwise_equals_diagonal_loop(self, vocab, setup, n):
        _, tv, cfg, params = setup
        ctx = encode_context(("tok",) * n, make_engine(cfg, params, vocab, tv))
        for h in np.random.default_rng(n).normal(size=(2, cfg.d_m)):
            row = span_head(h[None], ctx, open_mask(ctx, cfg))[0][0]
            s = h @ params["head_w5"].data + params["head_b5"].data
            e = h @ params["head_w6"].data + params["head_b6"].data
            ts_vec, te_vec = ctx.h_text @ s, ctx.h_text @ e
            t_mat = np.full((n, cfg.m), NEG_INF)
            for dlt in range(min(cfg.m, n)):
                t_mat[: n - dlt, dlt] = ts_vec[: n - dlt] + te_vec[dlt:]
            assert np.array_equal(row[vocab.l_p :], t_mat.reshape(-1))

    def test_prev_span_blocks_text_mass(self, vocab, setup):
        # after a level-parent span the constraint machine opens only the
        # [TYPE] edge, so the decoder's step puts no mass on text spans
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        model = ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS)
        session = model.open_session(tokens, max_len=32)
        machine = GenConstraints(vocab, len(tokens), cfg.m, Traversal.BFS, max_len=32)
        machine.push(vocab.l_p)
        session.append(vocab.l_p)
        logp = _step_logprobs([session], [machine])[0]
        assert len(logp) == vocab.l_p  # a type-only row: no span slot is scored
        assert np.exp(logp[vocab.l_p :]).sum() == 0.0
        assert np.exp(logp[vocab.type_edge_index]) == pytest.approx(1.0)

    # l_p + n*m = 67, 387, 1139 and 16403: numpy sums the first in one block
    # of at most 128 entries, and splits the others once or many times
    @pytest.mark.parametrize("n", [3, 23, 70, 1024])
    def test_type_only_rows_bitwise_equal_closed_full_rows(self, vocab, setup, n):
        # a row whose mask covers the type slots alone carries exactly the bits
        # of the full row with every span slot closed, scored alone and in a
        # batch with full rows; summing its exponentials in another order
        # (a plain sequential sum) changes the last bits of some rows
        _, tv, cfg, params = setup
        l_p, spans = vocab.l_p, n * cfg.m
        ctx = encode_context(("tok",) * n, make_engine(cfg, params, vocab, tv))
        rng = np.random.default_rng(n)
        for _ in range(4):
            hidden = rng.normal(size=(5, cfg.d_m)) * 3
            short = [np.where(rng.random(l_p) < 0.3, NEG_INF, 0.0) for _ in range(5)]
            for row in short:
                row[rng.integers(l_p)] = 0.0
            closed = [np.concatenate([row, np.full(spans, NEG_INF)]) for row in short]
            full = [np.where(rng.random(l_p + spans) < 0.3, NEG_INF, 0.0) for _ in range(5)]
            for row in full:
                row[l_p + rng.integers(spans)] = 0.0
            mixed = [full[b] if b in (1, 3) else short[b] for b in range(5)]
            dense = [full[b] if b in (1, 3) else closed[b] for b in range(5)]
            for masks, ref in ((short[:1], closed[:1]), (mixed, dense)):
                got_s, got_l = span_head(hidden[: len(masks)], ctx, masks)
                want_s, want_l = span_head(hidden[: len(masks)], ctx, np.array(ref))
                for b, mask in enumerate(masks):
                    assert len(got_s[b]) == len(got_l[b]) == len(mask)
                    if len(mask) == l_p:
                        assert np.array_equal(got_s[b], want_s[b][:l_p])
                        assert np.array_equal(got_l[b], want_l[b][:l_p])
                    else:  # the text products cover fewer rows: equal to rounding
                        adm = mask == 0.0
                        assert _rel_err(got_l[b][adm], want_l[b][adm]) <= 1e-12


def assert_tape_matches_engine(ds, tv, cfg, params, vocab, idxs, traversal):
    """Tape logits of the examples ``idxs`` on one tape, each row of each
    example against its own engine decode, to 1e-9."""
    graphs = [canonicalize(ds.examples[j][1], ds.edge_freq, vocab) for j in idxs]
    batch = [(tv.ids(ds.examples[j][0]), encode(g, vocab, cfg.m, traversal)) for j, g in zip(idxs, graphs)]
    if len(idxs) > 1:
        assert len({len(ids) for ids, _ in batch}) > 2 and len({len(s.items) for _, s in batch}) > 2
    logits, _ = sequence_logits(batch, cfg, params)
    for b, (ids, seq) in enumerate(batch):
        ctx = encode_context(ds.examples[idxs[b]][0], make_engine(cfg, params, vocab, tv))
        rows = decoder_forward(ctx, list(seq.items), traversal)
        scores, _ = span_head(rows, ctx, open_mask(ctx, cfg, len(rows)))
        for i, row in enumerate(scores):
            tape = logits.data[b, i, : len(row)]
            adm = tape > NEG_INF / 2
            assert adm.any() and np.allclose(row[adm], tape[adm], atol=1e-9)


class TestTrainingPath:
    def test_tape_logits_match_inference(self, vocab, setup):
        # single examples, then a padded batch of examples of different n and
        # length: each row of each example against its own engine decode
        ds, tv, cfg, params = setup
        by_n = sorted(range(len(ds.examples)), key=lambda j: len(ds.examples[j][0]))
        padded = [by_n[len(by_n) // 2], by_n[-1], by_n[0], by_n[1]]
        for idxs, traversal in itertools.product(([0], [3], padded), (Traversal.BFS, Traversal.DFS)):
            assert_tape_matches_engine(ds, tv, cfg, params, vocab, idxs, traversal)

    def test_tape_logits_match_inference_beyond_the_source_radius(self, vocab, setup):
        # a radius of 2 closes source pairs in every example (n >= 6 > 2 * 2 + 1),
        # the padded rows and columns of a batch too; peaked weights make a
        # missing or misplaced band show in the logits
        ds, tv, cfg, _ = setup
        cfg = dataclasses.replace(cfg, source_radius=2)
        params = init_params(cfg, vocab, tv, seed=1)
        for i in range(cfg.layers):
            params[f"L{i}.wq"].data *= 30.0
            params[f"L{i}.wk"].data *= 30.0
        padded = [6, 0, 2, 12]  # n = 10, 7, 6, 6 and 16, 18, 10, 2 items
        assert min(len(ds.examples[j][0]) for j in padded) > 2 * cfg.source_radius + 1
        for idxs, traversal in itertools.product(([6], padded), (Traversal.BFS, Traversal.DFS)):
            assert_tape_matches_engine(ds, tv, cfg, params, vocab, idxs, traversal)

    def test_teacher_forced_product_equals_exp_neg_ce(self, vocab, setup):
        # autoregressive factorization: sum of per-step CE at eps=0 equals -log p(seq)
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[4]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
        ids = tv.ids(tokens)
        loss = sequence_loss([(ids, seq)], cfg, params, label_smoothing=0.0)
        logits, targets = sequence_logits([(ids, seq)], cfg, params)
        logp = log_softmax(logits).data[0]
        total = sum(logp[i, t] for i, t in enumerate(targets[0]))
        assert loss.item() * len(targets[0]) == pytest.approx(-total, abs=1e-9)

    def test_zero_length_target_rejected(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens = ds.examples[0][0]
        seq = AltSequence((), Traversal.BFS, vocab, len(tokens), cfg.m)
        with pytest.raises(ModelError):
            sequence_loss([(tv.ids(tokens), seq)], cfg, params)

    def test_item_outside_own_text_rejected(self, vocab, setup):
        # beside a longer example, a span that ends past its own text still
        # lies inside the padded H, so only the per-example bound catches it
        ds, tv, cfg, params = setup
        by_length = sorted((tokens for tokens, _ in ds.examples), key=len)
        short, long = by_length[0], by_length[-1]
        n = len(short)
        assert len(long) > n + 1
        past_end = vocab.l_p + (n - 1) * cfg.m + 1  # the span (n - 1, n + 1)
        long_seq = AltSequence((vocab.l_e,), Traversal.BFS, vocab, len(long), cfg.m)
        for item in (past_end, -1):
            seq = AltSequence((vocab.l_e, item), Traversal.BFS, vocab, n, cfg.m)
            with pytest.raises(ModelError, match="outside its hybrid index space"):
                sequence_logits([(tv.ids(short), seq), (tv.ids(long), long_seq)], cfg, params)

    def test_loss_decreases_on_one_example(self, vocab, setup):
        ds, tv, cfg, _ = setup
        params = init_params(cfg, vocab, tv, seed=7)
        tokens, g = ds.examples[0]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
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
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
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
        from hyspa.info_graph import Mention, make_graph

        ds, tv, cfg, params = setup
        g = make_graph([Mention(TextSpan(0, 1), vocab.l_e)], [], n=2, m=cfg.m)
        seq = encode_bfs(canonicalize(g, {}, vocab), vocab)
        assert graph_equal(decode_sequence(seq), g)
        tokens = ("[CLS]", "alice")
        loss = sequence_loss([(tv.ids(tokens), seq)], cfg, params)
        assert np.isfinite(loss.item())
        model = ExtractionModel(cfg, params, vocab, tv, {}, Traversal.BFS)
        res = greedy_decode(model, tokens)
        decode_sequence(res.seq)

    def test_masked_slot_gradients_exactly_zero(self, vocab, setup):
        ds, tv, cfg, params = setup
        tokens, g = ds.examples[3]
        seq = encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab)
        ids = tv.ids(tokens)
        logits, targets = sequence_logits([(ids, seq)], cfg, params)
        loss = nm.label_smoothed_ce(logits, targets, 0.1)
        loss.backward()
        masked = logits.data <= NEG_INF / 2
        assert (logits.grad[masked] == 0.0).all()


def _one_mention_example(rng, vocab, tv, n, m):
    """n random tokens and the BFS sequence of a graph with one typed one-token mention."""
    start = int(rng.integers(n))
    graph = make_graph([Mention(TextSpan(start, start + 1), vocab.index("PER"))], [], n=n, m=m)
    seq = encode(canonicalize(graph, random_edge_freq(rng, vocab), vocab), vocab, m, Traversal.BFS)
    return rng.integers(len(tv), size=n), seq


class TestRadiusThatCoversTheInput:
    # Both paths add the source band to every input: a radius that covers the
    # input closes nothing, and adding its zeros keeps every bit of None's
    # full attention.
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_engine_keeps_every_bit(self, vocab, setup, n, seed):
        _, tv, cfg, params = setup
        ids, seq = _one_mention_example(np.random.default_rng(seed), vocab, tv, n, cfg.m)
        tokens = [tv.tokens[i] for i in ids]

        def arrays(radius):
            ctx = encode_context(tokens, make_engine(dataclasses.replace(cfg, source_radius=radius), params, vocab, tv))
            return [*ctx.src_k, *ctx.src_v, decoder_forward(ctx, list(seq.items))]

        want = arrays(None)
        for radius in (max(1, n - 1), n, 3 * n):
            assert all(np.array_equal(got, w) for got, w in zip(arrays(radius), want, strict=True)), radius

    @settings(max_examples=30, deadline=None)
    @given(ns=st.lists(st.integers(1, 40), min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_tape_keeps_every_bit(self, vocab, setup, ns, seed):
        _, tv, cfg, params = setup
        rng = np.random.default_rng(seed)
        batch = [_one_mention_example(rng, vocab, tv, n, cfg.m) for n in ns]
        n_pad = max(ns)

        def logits(radius):
            return sequence_logits(batch, dataclasses.replace(cfg, source_radius=radius), params)[0].data

        want = logits(None)
        for radius in (max(1, n_pad - 1), n_pad, 3 * n_pad):
            assert np.array_equal(logits(radius), want), radius


def _composed_tail(attn, x, w, keep):
    """The block tail composed of separate tape ops, the reference of its one node."""
    ln1_g, ln1_b, w3, b3, w4, b4, ln2_g, ln2_b = w
    if keep is not None:
        attn = mul(attn, nm.Tensor(keep[0]))
    x1 = layer_norm(nm.add(attn, x), ln1_g, ln1_b)
    ffn = nm.linear(relu(nm.linear(x1, w3, b3)), w4, b4)
    if keep is not None:
        ffn = mul(ffn, nm.Tensor(keep[1]))
    return layer_norm(nm.add(ffn, x1), ln2_g, ln2_b)


class TestTapeTail:
    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 4), rows=st.integers(1, 9), half_d=st.integers(1, 12), dropout=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_node_equals_the_composed_ops_bitwise(self, B, rows, half_d, dropout, seed):
        # the one node against the ops it replaced, forward and every gradient
        from hyspa import model as hm

        rng = np.random.default_rng(seed)
        attn, x, w, keep = tail_inputs(rng, B, rows, 2 * half_d, dropout)
        g = nm.Tensor(rng.normal(size=x.shape))
        results = []
        for tail in (hm._tape_tail, _composed_tail):
            for t in (attn, x, *w):
                t.grad = None
            out = tail(attn, x, w, keep)
            sum_all(mul(out, g)).backward()
            results.append([out.data] + [t.grad for t in (attn, x, *w)])
        for k, (got, want) in enumerate(zip(*results, strict=True)):
            assert got.shape == want.shape and np.array_equal(got, want), k


def _composed_head(s_rep, e_rep, h_types, h_text, m, mask):
    """The span head composed of separate tape ops, the reference of its one node."""
    B, T, n = s_rep.shape[0], s_rep.shape[1], h_text.shape[1]
    types_t = transpose(h_types, (0, 2, 1))
    text_t = transpose(h_text, (0, 2, 1))
    type_scores = nm.add(matmul(s_rep, types_t), matmul(e_rep, types_t))
    ts_vec, te_vec = matmul(s_rep, text_t), matmul(e_rep, text_t)
    t_mat = nm.add(unfold(te_vec, m), reshape(ts_vec, (B, T, n, 1)))
    return nm.add(nm.concat([type_scores, reshape(t_mat, (B, T, n * m))], axis=2), nm.Tensor(mask))


class TestTapeHead:
    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 4), T=st.integers(1, 9), n=st.integers(1, 20), m=st.integers(1, 6),
           l_p=st.integers(1, 6), half_d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(B=1, T=2, n=1, m=1, l_p=1, half_d=2, seed=0)
    def test_node_equals_the_composed_ops_bitwise(self, B, T, n, m, l_p, half_d, seed):
        # the one node against the ops it replaced, forward and every gradient;
        # the example is a shape whose products round differently when the
        # type scores' gradient reaches them as a strided view, not a copy
        from hyspa import model as hm

        rng = np.random.default_rng(seed)
        leaves = head_inputs(rng, B, T, n, l_p, 2 * half_d)
        g = nm.Tensor(rng.normal(size=(B, T, l_p + n * m)))
        mask = np.where(rng.random((B, T, l_p + n * m)) < 0.3, NEG_INF, 0.0)
        results = []
        for head in (hm._tape_head, _composed_head):
            for t in leaves:
                t.grad = None
            out = head(*leaves, m, mask)
            sum_all(mul(out, g)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        for k, (got, want) in enumerate(zip(*results, strict=True)):
            assert got.shape == want.shape and np.array_equal(got, want), k


def _composed_hybrid(embed, meta, row_ids, seg, pos):
    """H composed of separate tape ops, the reference of its one node."""
    return nm.add(nm.add(take_rows(embed, row_ids), take_rows(meta, seg)), nm.Tensor(pos))


def _composed_traversal(seqs, t_pad, cfg, params):
    """The traversal embedding composed of separate tape ops, the reference of its one node."""
    traversal = seqs[0].traversal
    pos = [p for seq in seqs for p in positions(seq)]
    at = np.concatenate([b * t_pad + 1 + np.arange(len(s.items)) for b, s in enumerate(seqs)])

    def placed(rows):
        out = np.zeros((len(seqs) * t_pad,) + rows.shape[1:], dtype=rows.dtype)
        out[at] = rows
        return out.reshape((len(seqs), t_pad) + rows.shape[1:])

    if traversal == Traversal.BFS:
        levels, roles, trees = bfs_components(pos, cfg.d_m)
        return nm.add(
            nm.add(nm.Tensor(placed(levels)), nm.linear(nm.Tensor(placed(roles)), params["trav_pc"])),
            nm.linear(nm.Tensor(placed(trees)), params["trav_tree"]),
        )
    level_ids, conns = dfs_components(pos, cfg.d_m)
    levels = take_rows(params["dfs_level"], placed(level_ids))
    return nm.add(mul(levels, nm.Tensor(placed(np.ones((len(at), 1))))), nm.Tensor(placed(conns)))


def _smoothed_targets(logits, targets, epsilon, weights):
    """The loss's target distribution times -weight, row by row: the target
    gets 1 - epsilon and the other open slots share epsilon; a row of
    weight 0 gets its smoothing mass only, times -0."""
    q = np.zeros_like(logits)
    for idx in np.ndindex(targets.shape):
        open_slots = logits[idx] > NEG_INF / 2
        count = open_slots.sum()
        row = np.where(open_slots, epsilon / (count - 1) if count > 1 else 0.0, 0.0)
        if weights[idx]:
            row[targets[idx]] = 1.0 - epsilon if count > 1 else 1.0
        q[idx] = row * -weights[idx]
    return q


class TestOneNodeEnds:
    """H, the traversal embedding and the loss, one tape node each, against
    the ops they replaced: the output and every gradient, bit for bit."""

    @staticmethod
    def _run(build, leaves, g):
        for t in leaves:
            t.grad = None
        out = build()
        (out if g is None else sum_all(mul(out, g))).backward()  # the loss is a scalar already
        return [out.data] + [t.grad for t in leaves]

    def _assert_equal(self, build, reference, leaves, g=None):
        got, want = self._run(build, leaves, g), self._run(reference, leaves, g)
        for k, (a, b) in enumerate(zip(got, want, strict=True)):
            assert a.shape == b.shape and np.array_equal(a, b), k

    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 4), n=st.integers(1, 9), l_p=st.integers(1, 5), half_d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_hybrid_rows(self, B, n, l_p, half_d, seed):
        # the meta gradient is summed over the batch before it is scattered
        from hyspa import model as hm

        rng = np.random.default_rng(seed)
        d, rows = 2 * half_d, l_p + n
        embed = nm.Tensor(rng.normal(size=(l_p + 6, d)), requires_grad=True)
        meta = nm.Tensor(rng.normal(size=(4, d)), requires_grad=True)
        row_ids = np.concatenate([np.broadcast_to(np.arange(l_p), (B, l_p)), l_p + rng.integers(0, 6, (B, n))], axis=1)
        seg, pos = rng.integers(0, 4, rows), rng.normal(size=(rows, d))
        g = nm.Tensor(rng.normal(size=(B, rows, d)))
        self._assert_equal(lambda: hm._tape_hybrid(embed, meta, row_ids, seg, pos),
                           lambda: _composed_hybrid(embed, meta, row_ids, seg, pos), [embed, meta], g)

    @settings(max_examples=30, deadline=None)
    @given(B=st.integers(1, 4), pad=st.integers(1, 3), traversal=st.sampled_from(Traversal),
           seed=st.integers(0, 2**32 - 1))
    def test_traversal_embedding(self, vocab, setup, B, pad, traversal, seed):
        # a padded batch of random graphs; the padding rows stay 0
        from hyspa import model as hm

        _, _, cfg, _ = setup
        rng = np.random.default_rng(seed)
        graphs = [random_graph(rng, vocab, n_max=32, max_mentions=6, max_relations=8) for _ in range(B)]
        seqs = [encode(canonicalize(g, {}, vocab), vocab, cfg.m, traversal) for g in graphs]
        t_pad = max(len(seq.items) for seq in seqs) + pad
        params = {name: nm.Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in
                  (("trav_pc", (2, cfg.d_m)), ("trav_tree", (96, cfg.d_m)), ("dfs_level", (64, cfg.d_m)))}
        leaves = [params[k] for k in (("trav_pc", "trav_tree") if traversal == Traversal.BFS else ("dfs_level",))]
        g = nm.Tensor(rng.normal(size=(B, t_pad, cfg.d_m)))
        self._assert_equal(lambda: hm._traversal_embedding(seqs, t_pad, cfg, params),
                           lambda: _composed_traversal(seqs, t_pad, cfg, params), leaves, g)

    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 3), T=st.integers(1, 5), C=st.integers(1, 8), epsilon=st.sampled_from([0.0, 0.1, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_label_smoothed_ce(self, B, T, C, epsilon, seed):
        # closed (NEG_INF) slots, rows with one open slot, and padding rows of weight 0
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(B, T, C)) * 3
        targets = rng.integers(0, C, (B, T))
        closed = rng.random((B, T, C)) < 0.4
        closed[np.arange(B)[:, None], np.arange(T), targets] = False
        data[closed] = NEG_INF
        weights = rng.random((B, T)) * (rng.random((B, T)) < 0.8)
        targets[weights == 0] = -1
        logits = nm.Tensor(data, requires_grad=True)
        q = _smoothed_targets(data, targets, epsilon, weights)
        self._assert_equal(lambda: nm.label_smoothed_ce(logits, targets, epsilon, weights),
                           lambda: sum_all(mul(log_softmax(logits), nm.Tensor(q))), [logits])


class TestOneAdmissibilityRule:
    """The tape's output mask is the constraint machine's, row for row."""

    @given(seed=st.integers(0, 2**32 - 1), traversal=st.sampled_from(Traversal))
    @settings(max_examples=25, deadline=None)
    def test_tape_admits_what_the_machine_admits_along_gold_paths(self, vocab, setup, seed, traversal):
        # C2-style graphs: n up to 128, up to 20 mentions and 40 relations,
        # four to a padded tape; the tape's budget is never tight on them
        _, tv, cfg, params = setup
        rng = np.random.default_rng(seed)
        graphs = [random_graph(rng, vocab, n_max=128, m=cfg.m) for _ in range(4)]
        seqs = [encode(canonicalize(g, random_edge_freq(rng, vocab), vocab), vocab, cfg.m, traversal) for g in graphs]
        batch = [(rng.integers(0, len(tv), size=seq.n), seq) for seq in seqs]
        logits, targets = sequence_logits(batch, cfg, params)
        open_slots = logits.data > NEG_INF / 2
        for b, (_, seq) in enumerate(batch):
            machine = GenConstraints(vocab, seq.n, cfg.m, traversal, len(seq.items) + 16)
            for i, k in enumerate(targets[b, : len(seq.items) + 1]):
                assert not machine._tight(), (seq.items, i)
                mask = machine.mask()
                assert np.array_equal(np.flatnonzero(open_slots[b, i]), np.flatnonzero(mask == 0.0)), (seq.items, i)
                assert open_slots[b, i, k]
                machine.push(int(k))
            assert not open_slots[b, len(seq.items) + 1 :].any()  # padding rows

    def test_gold_item_the_machine_forbids_is_named(self, vocab, setup):
        # a span that opens a second BFS level decodes, but the machine
        # closes it: a BFS span opens one level and is typed on it
        ds, tv, cfg, params = setup
        t, sep, per = vocab.type_edge_index, vocab.sep_index, vocab.index("PER")
        seq = AltSequence((19, t, per, sep, 19, t, per, sep), Traversal.BFS, vocab, len(FIG4_TOKENS), cfg.m)
        assert graph_equal(decode_sequence(seq), decode_sequence(dataclasses.replace(seq, items=seq.items[:4])))
        tokens, g = ds.examples[0]
        good = (tv.ids(tokens), encode_bfs(canonicalize(g, ds.edge_freq, vocab), vocab))
        with pytest.raises(ModelError, match=r"example 1 \(n=9\): the constraint machine forbids item 19 at offset 4"):
            sequence_loss([good, (tv.ids(FIG4_TOKENS), seq)], cfg, params)


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

    def test_changing_a_last_item_leaves_earlier_rows_bitwise_unchanged(self, vocab, mixed):
        # a target row sees no later input of its own example and nothing of
        # another example; the row fed the changed item does change.  The
        # changed item is the last node type: the constraint machine admits
        # any node type there, and no other last item of a whole sequence
        batch, cfg, params = mixed
        before = sequence_logits(batch, cfg, params)[0].data
        changes = 0
        for b, (ids, seq) in enumerate(batch):
            typed = [i for i, k in enumerate(seq.items) if vocab.l_e <= k < vocab.l_p and k != vocab.null_type_index]
            if not typed:
                continue  # [NULL] [SEP], the one sequence of an empty graph
            at = typed[-1]
            other = next(k for k in vocab.node_type_indices if k not in (seq.items[at], vocab.null_type_index))
            changed = list(batch)
            changed[b] = (ids, dataclasses.replace(seq, items=seq.items[:at] + (other,) + seq.items[at + 1 :]))
            after = sequence_logits(changed, cfg, params)[0].data
            fed = at + 1  # the row whose input is the changed item
            same = np.ones(after.shape[:2], dtype=bool)
            same[b, fed:] = False  # that row and the rows after it
            assert np.array_equal(after[same], before[same])
            assert not np.array_equal(after[b, fed], before[b, fed])
            changes += 1
        assert changes == 2  # the longest and the middle example; the two shortest are empty graphs

    def test_layers_attend_in_two_blocks_and_the_last_skips_source_rows(self, mixed, monkeypatch):
        # per layer, the target and source attention blocks; the last layer
        # projects keys and values of every row but queries and FFN of the
        # target rows alone
        from hyspa import model as hm

        batch, cfg, params = mixed
        B, n_pad, t_pad = len(batch), max(len(ids) for ids, _ in batch), max(len(s.items) for _, s in batch) + 1
        weights, rows = [], {id(p): [] for p in params.values()}
        attention, linear, tape_tail = nm.attention, nm.linear, hm._tape_tail

        def record_weights(q, k, v, mask, heads, scale):  # the shape of the op's score block
            weights.append(np.broadcast_shapes((len(q.data), heads, q.shape[1], k.shape[1]), mask.shape))
            return attention(q, k, v, mask, heads, scale)

        def record_linear(x, w, bias=None):
            rows[id(w)].append(x.shape[-2])
            return linear(x, w, bias)

        def record_tail(attn, x, w, keep):  # the tail node runs the FFN (w3, w4) on its rows
            for t in w:
                rows[id(t)].append(x.shape[-2])
            return tape_tail(attn, x, w, keep)

        monkeypatch.setattr(nm, "attention", record_weights)
        monkeypatch.setattr(nm, "linear", record_linear)
        monkeypatch.setattr(hm, "_tape_tail", record_tail)
        sequence_loss(batch, cfg, params, training=True, rng=np.random.default_rng(0)).backward()
        tgt, src = (B, cfg.heads, t_pad, n_pad + t_pad), (B, cfg.heads, n_pad, n_pad)
        assert weights[1:] == [src, tgt] * (cfg.layers - 1) + [tgt]  # weights[0]: span attention
        both = sorted([n_pad, t_pad])
        for i in range(cfg.layers):
            last = i + 1 == cfg.layers
            for name in ("wk", "wv", "wq", "w3", "w4"):
                fed = [t_pad] if last and name not in ("wk", "wv") else both
                assert sorted(rows[id(params[f"L{i}.{name}"])]) == fed, (i, name)

    @pytest.mark.parametrize("cells", [0, 1500, 4000, 2**17])
    def test_tape_runs_are_greedy_consecutive_and_within_budget(self, mixed, monkeypatch, cells):
        from hyspa import model as hm

        batch, _, _ = mixed
        monkeypatch.setattr(hm, "_RUN_CELLS", cells)
        runs = hm._tape_runs(batch)

        def cost(run):  # a source block of n_pad**2 and a target block of T_pad * (n_pad + T_pad) cells
            n, t = max(s.n for _, s in run), max(len(s.items) + 1 for _, s in run)
            return len(run) * (n * n + t * (n + t))

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

    def test_c8_train_step_creates_a_pinned_number_of_tensors(self, vocab, monkeypatch):
        # every Tensor one C8-recipe step on one tape run creates, constants
        # included: a change that splits the tape into more nodes fails here
        from hyspa import model as hm

        tv, prepared = prepare_training_data(synth_generate(40, seed=21))
        batch = prepared[:8]
        assert len(hm._tape_runs(batch)) == 1
        cfg = ModelConfig(d_m=64, layers=2, heads=8, m=16, dropout=0.1)
        params = init_params(cfg, vocab, tv, seed=0)
        opt = AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
        created, init = itertools.count(), nm.Tensor.__init__

        def counting_init(t, *args, **kwargs):
            next(created)
            init(t, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        train_step(batch, cfg, params, opt, label_smoothing=0.1, clip=0.25, rng=np.random.default_rng(0))
        assert next(created) == 38

    def test_empty_batch_rejected(self, mixed):
        _, cfg, params = mixed
        with pytest.raises(ModelError, match="empty batch"):
            train_step([], cfg, params, AdamW(params, peak_lr=1e-3, warmup=10))

    def test_fit_on_no_examples_rejected(self, mixed):
        _, cfg, params = mixed
        with pytest.raises(ModelError, match="at least one training example"):
            fit(cfg, params, [], AdamW(params, peak_lr=1e-3, warmup=10), steps=1)

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
        model = ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ExtractionModel.load(path)
        tokens = ds.examples[0][0]
        assert greedy_decode(model, tokens).seq.items == greedy_decode(loaded, tokens).seq.items

    @pytest.mark.parametrize("radius", [None, 1, 7])
    def test_source_radius_round_trips(self, vocab, setup, tmp_path, radius):
        ds, tv, cfg, params = setup
        cfg = dataclasses.replace(cfg, source_radius=radius)
        path = tmp_path / "model.npz"
        ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS).save(path)
        assert ExtractionModel.load(path).cfg.source_radius == radius

    def test_checkpoint_without_source_radius_loads_full_attention(self, vocab, setup, tmp_path):
        # a checkpoint saved before the field existed was trained with every
        # source token attending to every other
        ds, tv, cfg, params = setup
        path = tmp_path / "model.npz"
        ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS).save(path)
        _rewrite_cfg(path, lambda cfg: cfg.pop("source_radius"))
        loaded = ExtractionModel.load(path)
        assert loaded.cfg.source_radius is None
        assert loaded.cfg == dataclasses.replace(cfg, source_radius=None)

    @pytest.mark.parametrize("radius", [True, 0, -3, 2.5, "64"])
    def test_bad_source_radius_fails_at_load_naming_the_file(self, vocab, setup, tmp_path, radius):
        ds, tv, cfg, params = setup
        path = tmp_path / "model.npz"
        ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS).save(path)
        _rewrite_cfg(path, lambda cfg: cfg.update(source_radius=radius))
        with pytest.raises(ModelError, match=re.escape(f"checkpoint {path}: source_radius must be None or an integer >= 1")):
            ExtractionModel.load(path)

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


def _rewrite_cfg(path, change) -> None:
    """Apply ``change`` to the saved meta ``cfg`` of the checkpoint at ``path``, in place."""
    import json

    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    change(meta["cfg"])
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
