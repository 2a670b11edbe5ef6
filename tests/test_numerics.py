import math

import numpy as np
import pytest

from hyspa import numerics as nm
from hyspa.numerics import NEG_INF, AdamW, Tensor, finite_diff_check, inv_sqrt_lr


def _check_op(build, params, tol=1e-6):
    """Gradient-check a scalar graph builder against central differences."""
    report = finite_diff_check(build, params, h=1e-5, coords_per_tensor=5,
                               rng=np.random.default_rng(0))
    assert report.max_rel_err < tol, report.worst
    return report


class TestPrimitiveGradients:
    def test_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        _check_op(lambda: nm.sum_all(nm.relu(nm.matmul(a, b))), {"a": a, "b": b})

    def test_batched_matmul(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        _check_op(lambda: nm.sum_all(nm.matmul(a, b)), {"a": a, "b": b})

    def test_softmax(self, rng):
        # attention weights against identity keys are the softmax of the queries
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6,)))
        eye = Tensor(np.eye(6))
        _check_op(lambda: nm.sum_all(nm.mul(nm.attention_weights(x, eye, 0.0, 1.0), w)), {"x": x})

    def test_log_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5,)))
        _check_op(lambda: nm.sum_all(nm.mul(nm.log_softmax(x), w)), {"x": x})

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        g = Tensor(rng.normal(size=(8,)) + 1.0, requires_grad=True)
        b = Tensor(rng.normal(size=(8,)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 8)))
        _check_op(
            lambda: nm.sum_all(nm.mul(nm.layer_norm(x, g, b), w)),
            {"x": x, "g": g, "b": b},
        )

    def test_unfold(self, rng):
        x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 7, 4)))

        def build():
            u = nm.unfold(x, 4, fill=0.0)
            return nm.sum_all(nm.mul(u, w))

        _check_op(build, {"x": x})

    def test_take_rows(self, rng):
        t = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 5])
        w = Tensor(rng.normal(size=(4, 3)))
        _check_op(lambda: nm.sum_all(nm.mul(nm.take_rows(t, ids), w)), {"t": t})

    def test_linear_batched_left(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        out = nm.linear(x, w, b)
        assert np.array_equal(out.data, np.matmul(x.data, w.data) + b.data)
        assert np.array_equal(nm.matmul(x, w).data, np.matmul(x.data, w.data))
        g = Tensor(rng.normal(size=(2, 3, 5)))
        _check_op(lambda: nm.sum_all(nm.mul(nm.linear(x, w, b), g)), {"x": x, "w": w, "b": b})
        _check_op(lambda: nm.sum_all(nm.mul(nm.matmul(x, w), g)), {"x": x, "w": w})

    def test_attention_weights(self, rng):
        # one query row per batch, broadcast over three mask rows with closed cells
        q = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        mask = np.where(rng.random((2, 3, 5)) < 0.3, NEG_INF, 0.0)
        mask[..., 0] = 0.0
        w = Tensor(rng.normal(size=(2, 3, 5)))
        p = nm.attention_weights(q, k, mask, 0.5).data
        scores = 0.5 * (q.data @ np.swapaxes(k.data, 1, 2)) + mask
        ref = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.allclose(p, ref / ref.sum(axis=-1, keepdims=True), atol=1e-15)
        assert (p[mask < 0] == 0.0).all()
        _check_op(lambda: nm.sum_all(nm.mul(nm.attention_weights(q, k, mask, 0.5), w)), {"q": q, "k": k})

    def test_unfold_batched(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 7, 4)))
        _check_op(lambda: nm.sum_all(nm.mul(nm.unfold(x, 4, fill=0.0), w)), {"x": x})

    def test_first_gradient_is_not_aliased(self, rng):
        # add hands one array to both parents; a later += into one must not reach the other
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        w, v = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        for swap in (False, True):
            a.grad = b.grad = None
            parts = [nm.sum_all(nm.mul(nm.add(a, b), w)), nm.sum_all(nm.mul(a, v))]
            nm.add(*(parts[::-1] if swap else parts)).backward()
            assert np.allclose(a.grad, w.data + v.data) and np.allclose(b.grad, w.data)

    def test_backward_releases_the_graph(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        h = nm.relu(nm.matmul(x, Tensor(rng.normal(size=(4, 2)))))
        loss = nm.sum_all(h)
        loss.backward()
        assert loss._parents == () and h._parents == () and h._backward is None
        assert x.grad is not None and h.grad is not None

    def test_attention_composite(self, rng):
        q = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def build():
            return nm.sum_all(nm.mul(nm.matmul(nm.attention_weights(q, k, 0.0, 0.5), v), w))

        _check_op(build, {"q": q, "k": k, "v": v})


class TestSoftmaxLayerNormInvariants:
    def test_softmax_sums_to_one_over_unmasked(self, rng):
        x = rng.normal(size=(8, 10))
        mask = np.zeros(10)
        mask[3] = NEG_INF
        p = nm.attention_weights(Tensor(x), Tensor(np.eye(10)), mask, 1.0).data
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert (p >= 0).all()
        assert (p[:, 3] == 0.0).all()

    def test_layer_norm_moments(self, rng):
        x = Tensor(rng.normal(size=(16, 32)) * 3 + 1)
        out = nm.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-10


class TestUnfold:
    def test_documented_example(self):
        out = nm.unfold(Tensor(np.array([10.0, 20.0, 30.0])), 2).data
        assert out[0].tolist() == [10.0, 20.0]
        assert out[1].tolist() == [20.0, 30.0]
        assert out[2, 0] == 30.0
        assert out[2, 1] == NEG_INF

    def test_single_element(self):
        out = nm.unfold(Tensor(np.array([5.0])), 1).data
        assert out.tolist() == [[5.0]]

    def test_matches_double_loop_oracle(self, rng):
        n, m = 9, 4
        ts = rng.normal(size=n)
        te = rng.normal(size=n)
        flat = (nm.unfold(Tensor(te), m).data + ts[:, None]).reshape(-1)
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
        report = finite_diff_check(lambda: nm.mul(p, p), {"p": p}, h=1e-5)
        assert report.max_rel_err < 1e-8
        p.grad = None
        loss = nm.mul(p, p)
        loss.backward()
        assert p.grad[0] == pytest.approx(6.0)

    def test_nonfinite_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(FloatingPointError):
            finite_diff_check(lambda: nm.mul(p, Tensor(np.array([np.inf]))), {"p": p})
