import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from testutil import fig4_bfs_items, fig4_dfs_items, head_inputs, mul, sum_all, tail_inputs

from hyspa import numerics as nm
from hyspa.altseq_codec import AltSequence, Traversal
from hyspa.model import ModelConfig, _tape_head, _tape_hybrid, _tape_tail, _traversal_embedding
from hyspa.numerics import NEG_INF, AdamW, Tensor, finite_diff_check, inv_sqrt_lr


def _check_op(build, params, tol=1e-6):
    """Gradient-check a scalar graph builder against central differences."""
    report = finite_diff_check(build, params, coords_per_tensor=5,
                               rng=np.random.default_rng(0))
    assert report.max_rel_err < tol, report.worst
    return report


class TestPrimitiveGradients:
    def test_softmax(self, rng):
        # attention against identity keys and values is the softmax of the queries
        x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6,)))
        eye = Tensor(np.eye(6)[None])
        _check_op(lambda: sum_all(mul(nm.attention(x, eye, eye, 0.0, 1, 1.0), w)), {"x": x})

    def test_label_smoothed_ce(self, rng):
        # the loss as the tape runs it, one node: closed (NEG_INF) slots,
        # which get no smoothing mass and no gradient, a row with one open
        # slot, and a padding row of weight 0, whose target is not read
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        targets = np.array([[0, 5, 2], [3, 1, -1]])
        closed = rng.random((2, 3, 6)) < 0.4
        closed[1, 1] = True
        closed[np.arange(2)[:, None], np.arange(3), np.maximum(targets, 0)] = False
        mask = Tensor(np.where(closed, NEG_INF, 0.0))
        weights = np.array([[0.2, 0.1, 0.3], [0.15, 0.25, 0.0]])
        _check_op(lambda: nm.label_smoothed_ce(nm.add(x, mask), targets, 0.1, weights), {"x": x})

    @pytest.mark.parametrize("dropout", [False, True])
    def test_block_tail(self, rng, dropout):
        # the decoder block's tail as the tape runs it, one node: two layer
        # norms, the FFN and both residuals; with dropout, the padding rows
        # of each example carry zero multipliers, as on the tape
        attn, x, w, keep = tail_inputs(rng, 2, 3, 4, dropout)
        out = Tensor(rng.normal(size=(2, 3, 4)))
        _check_op(
            lambda: sum_all(mul(_tape_tail(attn, x, w, keep), out)),
            {"attn": attn, "x": x, **{f"w{k}": t for k, t in enumerate(w)}},
        )

    @pytest.mark.parametrize("n, m", [(3, 5), (4, 4), (7, 4)])
    def test_span_head(self, rng, n, m):
        # the span head as the tape runs it, one node: type scores and text
        # windows, with windows that run past the text (n < m), whose last
        # one ends at the text's end (n = m), and that stay inside it, under
        # a mask that closes random cells, as the constraint machine's does;
        # the closed cells hold NEG_INF, and their zero weights keep the loss finite
        s, e, h_types, h_text = head_inputs(rng, 2, 3, n, 4, 6)
        mask = np.where(rng.random((2, 3, 4 + n * m)) < 0.3, NEG_INF, 0.0)
        w = rng.normal(size=(2, 3, 4 + n * m)) * (mask == 0.0)
        w[..., 4:] *= nm.span_windows(n, m)[1].reshape(-1)
        _check_op(
            lambda: sum_all(mul(_tape_head(s, e, h_types, h_text, m, mask), Tensor(w))),
            {"s": s, "e": e, "h_types": h_types, "h_text": h_text},
        )

    def test_hybrid_rows(self, rng):
        # H as the tape builds it, one node over the embedding and meta
        # tables: embedding rows repeated within and across the two examples,
        # and meta rows that every example reads
        embed = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        meta = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        row_ids = np.array([[0, 1, 3, 3, 5], [0, 1, 6, 3, 2]])
        seg, pos = np.array([0, 0, 1, 2, 2]), rng.normal(size=(5, 4))
        w = Tensor(rng.normal(size=(2, 5, 4)))
        _check_op(lambda: sum_all(mul(_tape_hybrid(embed, meta, row_ids, seg, pos), w)), {"embed": embed, "meta": meta})

    @pytest.mark.parametrize("traversal", list(Traversal), ids=lambda t: t.value)
    def test_traversal_embedding(self, rng, vocab, traversal):
        # the traversal embedding as the tape builds it, one node over its
        # traversal's tables, for a batch of the Fig. 4 sequence and a prefix
        # of it: the [SOS] rows and the padding rows of both examples stay 0
        items = (fig4_bfs_items if traversal == Traversal.BFS else fig4_dfs_items)(vocab)
        seqs = [AltSequence(tuple(its), traversal, vocab, 9, 16) for its in (items, items[:4])]
        cfg = ModelConfig(d_m=4, heads=1)
        params = {name: Tensor(rng.normal(size=(rows, 4)), requires_grad=True)
                  for name, rows in (("trav_pc", 2), ("trav_tree", 96), ("dfs_level", 8))}
        tables = ("trav_pc", "trav_tree") if traversal == Traversal.BFS else ("dfs_level",)
        t_pad = len(items) + 3
        w = Tensor(rng.normal(size=(2, t_pad, 4)))
        _check_op(lambda: sum_all(mul(_traversal_embedding(seqs, t_pad, cfg, params), w)),
                  {name: params[name] for name in tables})

    def test_linear_batched_left(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        out = nm.linear(x, w, b)
        assert np.array_equal(out.data, np.matmul(x.data, w.data) + b.data)
        assert np.array_equal(nm.linear(x, w).data, np.matmul(x.data, w.data))
        g = Tensor(rng.normal(size=(2, 3, 5)))
        _check_op(lambda: sum_all(mul(nm.linear(x, w, b), g)), {"x": x, "w": w, "b": b})
        _check_op(lambda: sum_all(mul(nm.linear(x, w), g)), {"x": x, "w": w})

    def test_attention_weights(self, rng):
        # one query row per batch, broadcast over three mask rows with closed
        # cells; identity values return the weights themselves
        q = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        eye = Tensor(np.broadcast_to(np.eye(5), (2, 5, 5)))
        mask = np.where(rng.random((2, 1, 3, 5)) < 0.3, NEG_INF, 0.0)
        mask[..., 0] = 0.0
        w = Tensor(rng.normal(size=(2, 3, 5)))
        p = nm.attention(q, k, eye, mask, 1, 0.5).data
        scores = 0.5 * (q.data @ np.swapaxes(k.data, 1, 2)) + mask[:, 0]
        ref = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.allclose(p, ref / ref.sum(axis=-1, keepdims=True), atol=1e-15)
        assert (p[mask[:, 0] < 0] == 0.0).all()
        _check_op(lambda: sum_all(mul(nm.attention(q, k, eye, mask, 1, 0.5), w)), {"q": q, "k": k})

    def test_first_gradient_is_not_aliased(self, rng):
        # add hands one array to both parents; a later += into one must not reach the other
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        w, v = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        for swap in (False, True):
            a.grad = b.grad = None
            parts = [sum_all(mul(nm.add(a, b), w)), sum_all(mul(a, v))]
            nm.add(*(parts[::-1] if swap else parts)).backward()
            assert np.allclose(a.grad, w.data + v.data) and np.allclose(b.grad, w.data)

    def test_backward_releases_the_graph(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        h = nm.linear(x, Tensor(rng.normal(size=(4, 2))))
        loss = nm.label_smoothed_ce(h, [0, 1, 1], 0.1)
        loss.backward()
        assert loss._parents == () and h._parents == () and h._backward is None
        assert x.grad is not None and h.grad is not None

    def test_attention_composite(self, rng):
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 4)))

        def build():
            return sum_all(mul(nm.attention(q, k, v, 0.0, 2, 0.5), w))

        _check_op(build, {"q": q, "k": k, "v": v})


def _attention_reference(q, k, v, mask, heads, scale, g):
    """Multi-head attention head by head and example by example, in plain
    numpy, and the gradients of sum(attention * g) with respect to q, k and v
    from the softmax's closed-form backward."""
    B, rows, c = mask.shape[0], max(q.shape[1], mask.shape[2]), k.shape[1]
    e, f = q.shape[2] // heads, v.shape[2] // heads
    out = np.zeros((B, rows, v.shape[2]))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for b in range(B):
        for h in range(heads):
            qk, vo = slice(h * e, (h + 1) * e), slice(h * f, (h + 1) * f)
            scores = scale * q[b, :, qk] @ k[b, :, qk].T
            scores = np.broadcast_to(scores + mask[b, min(h, mask.shape[1] - 1)], (rows, c))
            ex = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = ex / ex.sum(axis=1, keepdims=True)
            out[b, :, vo] = p @ v[b, :, vo]
            dv[b, :, vo] = p.T @ g[b, :, vo]
            dp = g[b, :, vo] @ v[b, :, vo].T
            ds = scale * p * (dp - (dp * p).sum(axis=1, keepdims=True))
            dq_rows = ds @ k[b, :, qk]  # one query row broadcast over the mask's rows gets their sum
            dq[b, :, qk] = dq_rows if q.shape[1] == rows else dq_rows.sum(axis=0)
            dk[b, :, qk] = ds.T @ np.broadcast_to(q[b, :, qk], (rows, e))
    return out, (dq, dk, dv)


class TestAttention:
    @settings(max_examples=40, deadline=None)
    @given(
        B=st.integers(1, 3), heads=st.integers(1, 3), width=st.integers(1, 3), rows=st.integers(1, 4),
        cols=st.integers(1, 5), span=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_per_head_loop_forward_and_backward(self, B, heads, width, rows, cols, span, seed):
        # span=True is the span attention's shape: one query row per example,
        # broadcast over the mask's rows; columns past each example's length
        # are NEG_INF padding, and random cells are closed besides.  The
        # gradients are checked at every coordinate against the loop's exact
        # backward: central differences carry ~1e-11 of rounding, which fails
        # the 1e-6 relative bound on gradients near its 1e-5 floor
        rng = np.random.default_rng(seed)
        d = heads * width
        q = Tensor(rng.normal(size=(B, 1 if span else rows, d)), requires_grad=True)
        k = Tensor(rng.normal(size=(B, cols, d)), requires_grad=True)
        v = Tensor(rng.normal(size=(B, cols, d)), requires_grad=True)
        lengths = rng.integers(1, cols + 1, size=B)
        closed = (np.arange(cols) >= lengths[:, None, None, None]) | (rng.random((B, 1, rows, cols)) < 0.3)
        closed[..., 0] = False
        mask = np.where(closed, NEG_INF, 0.0)
        scale = 1.0 / math.sqrt(width)
        w = rng.normal(size=(B, rows, d))
        out = nm.attention(q, k, v, mask, heads, scale)
        assert out.shape == (B, rows, d)
        ref, ref_grads = _attention_reference(q.data, k.data, v.data, mask, heads, scale, w)
        assert np.abs(out.data - ref).max() <= 1e-12
        sum_all(mul(out, Tensor(w))).backward()
        for name, t, want in zip("qkv", (q, k, v), ref_grads):
            rel = np.abs(t.grad - want) / np.maximum(np.maximum(np.abs(t.grad), np.abs(want)), 1e-5)
            assert rel.max() < 1e-6, (name, np.unravel_index(rel.argmax(), rel.shape), rel.max())


class TestSoftmaxLayerNormInvariants:
    def test_softmax_sums_to_one_over_unmasked(self, rng):
        x = rng.normal(size=(8, 10))
        mask = np.zeros(10)
        mask[3] = NEG_INF
        eye = Tensor(np.eye(10)[None])
        p = nm.attention(Tensor(x[None]), eye, eye, mask, 1, 1.0).data[0]
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert (p >= 0).all()
        assert (p[:, 3] == 0.0).all()

    def test_layer_norm_moments(self, rng):
        out = nm.normalize(rng.normal(size=(16, 32)) * 3 + 1)[0]
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-10


class TestUnfold:
    """The span head's score window, ``sliding_windows``."""

    def test_documented_example(self):
        out = nm.sliding_windows(np.array([10.0, 20.0, 30.0]), 2)
        assert out[0].tolist() == [10.0, 20.0]
        assert out[1].tolist() == [20.0, 30.0]
        assert out[2, 0] == 30.0
        assert out[2, 1] == NEG_INF

    def test_single_element(self):
        out = nm.sliding_windows(np.array([5.0]), 1)
        assert out.tolist() == [[5.0]]

    def test_matches_double_loop_oracle(self, rng):
        n, m = 9, 4
        ts = rng.normal(size=n)
        te = rng.normal(size=n)
        flat = (nm.sliding_windows(te, m) + ts[:, None]).reshape(-1)
        for j in range(n):
            for d in range(m):
                expected = ts[j] + te[j + d] if j + d < n else None
                if expected is not None:
                    assert flat[j * m + d] == pytest.approx(expected, abs=1e-12)
                else:
                    assert flat[j * m + d] < NEG_INF / 2


class TestLabelSmoothedCE:
    def test_uniform_no_smoothing(self):
        loss = nm.label_smoothed_ce(Tensor(np.zeros(4)), 2, 0.0)
        assert loss.item() == pytest.approx(math.log(4))

    def test_uniform_p_identity(self):
        loss = nm.label_smoothed_ce(Tensor(np.zeros(3)), 0, 0.1)
        assert loss.item() == pytest.approx(math.log(3))

    def test_matches_direct_summation_oracle(self, rng):
        for _ in range(20):
            c = int(rng.integers(3, 12))
            logits = rng.normal(size=c)
            masked = rng.random(c) < 0.3
            target = int(rng.integers(0, c))
            masked[target] = False
            logits[masked] = NEG_INF
            eps = 0.1
            # independent direct summation
            adm = ~masked
            z = logits - logits.max()
            p = np.exp(z) / np.exp(z).sum()
            logp = np.log(np.where(adm, p, 1.0))
            a = adm.sum()
            q = np.where(adm, eps / max(a - 1, 1), 0.0)
            q[target] = 1 - eps if a > 1 else 1.0
            expected = -(q * logp).sum()
            got = nm.label_smoothed_ce(Tensor(logits), target, eps).item()
            assert got == pytest.approx(expected, abs=1e-12)

    def test_masked_target_rejected(self):
        logits = np.array([0.0, NEG_INF, 1.0])
        with pytest.raises(ValueError, match="masked"):
            nm.label_smoothed_ce(Tensor(logits), 1, 0.1)

    def test_masked_slots_get_zero_gradient(self):
        logits = Tensor(np.array([0.5, NEG_INF, 1.0, NEG_INF]), requires_grad=True)
        loss = nm.label_smoothed_ce(logits, 0, 0.1)
        loss.backward()
        assert logits.grad[1] == 0.0
        assert logits.grad[3] == 0.0
        assert np.abs(logits.grad[[0, 2]]).sum() > 0

    def test_batched_mean(self, rng):
        logits = rng.normal(size=(3, 5))
        targets = [0, 2, 4]
        rows = [nm.label_smoothed_ce(Tensor(logits[i]), targets[i], 0.1).item() for i in range(3)]
        batched = nm.label_smoothed_ce(Tensor(logits), np.array(targets), 0.1).item()
        assert batched == pytest.approx(np.mean(rows), abs=1e-12)


class TestSchedule:
    def test_peak_at_warmup(self):
        assert inv_sqrt_lr(2000, 2e-4, 2000) == pytest.approx(2e-4)

    def test_quarter_after_4x(self):
        assert inv_sqrt_lr(8000, 2e-4, 2000) == pytest.approx(1e-4)

    def test_first_step(self):
        assert inv_sqrt_lr(1, 2e-4, 2000) == pytest.approx(1e-7)

    def test_rejects_step_zero(self):
        with pytest.raises(ValueError):
            inv_sqrt_lr(0, 2e-4, 2000)


class TestAdamW:
    @pytest.mark.parametrize("warmup", [0, -5])
    def test_warmup_below_one_rejected(self, warmup):
        # warmup 0 made every learning rate 0
        with pytest.raises(ValueError, match=f"warmup must be >= 1, got {warmup}"):
            AdamW({"p": Tensor(np.zeros(2), requires_grad=True)}, peak_lr=0.1, warmup=warmup)

    def test_zero_grad_no_decay_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = AdamW({"p": p}, peak_lr=0.1, warmup=1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert p.data.tolist() == [1.0, -2.0]

    def test_first_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, peak_lr=0.1, warmup=1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_decay_differential(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt_a = AdamW({"p": a}, peak_lr=0.1, warmup=1, weight_decay=0.0)
        opt_b = AdamW({"p": b}, peak_lr=0.1, warmup=1, weight_decay=0.01)
        a.grad = np.array([0.3])
        b.grad = np.array([0.3])
        opt_a.step()
        opt_b.step()
        assert (a.data[0] - b.data[0]) == pytest.approx(0.1 * 0.01 * 2.0, abs=1e-12)

    def test_in_place_step_equals_reference_formula_bitwise(self):
        # the in-place update keeps the operands and order of the textbook
        # expression below, so parameters and moments agree bit for bit
        rng = np.random.default_rng(4)
        shapes = {"w": (5, 3), "b": (3,)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamW(params, peak_lr=1e-2, warmup=3, weight_decay=0.01)
        b1, b2 = opt.betas
        for step in range(1, 8):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            lr = opt.step()
            assert lr == inv_sqrt_lr(step, 1e-2, 3)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                mhat, vhat = m[k] / (1.0 - b1**step), v[k] / (1.0 - b2**step)
                ref[k] -= lr * (mhat / (np.sqrt(vhat) + opt.eps) + 0.01 * ref[k])
                assert np.array_equal(params[k].data, ref[k]), (step, k)
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k])
                assert np.array_equal(params[k].grad, g)  # the gradient is read, not changed


class TestClip:
    def test_norm_scaled_down(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        total = nm.clip_global_norm([p], 0.25)
        assert total == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(0.25)

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 0.01)
        nm.clip_global_norm([p], 0.25)
        assert np.allclose(p.grad, 0.01)


class TestFiniteDiffCheck:
    def test_quadratic(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        report = finite_diff_check(lambda: mul(p, p), {"p": p})
        assert report.max_rel_err < 1e-8
        p.grad = None
        loss = mul(p, p)
        loss.backward()
        assert p.grad[0] == pytest.approx(6.0)

    def test_nonfinite_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(FloatingPointError):
            finite_diff_check(lambda: mul(p, Tensor(np.array([np.inf]))), {"p": p})
