import numpy as np
import pytest

from testutil import fig4_bfs_items, fig4_graph, pinned_vocab

from hyspa.altseq_codec import Traversal, decode_sequence, validate_sequence
from hyspa.data_io import synth_generate
from hyspa.decode_search import (
    GenConstraints,
    beam_decode,
    bench_decode_steps,
    extract_graph,
    fit_exponent,
    greedy_decode,
    salvage_levels,
    sample_sequence,
)
from hyspa.info_graph import graph_equal
from hyspa.model import ExtractionModel, ModelConfig, TokenVocab, init_params, prepare_training_data
from hyspa.numerics import NEG_INF


@pytest.fixture(scope="module")
def vocab():
    return pinned_vocab()


@pytest.fixture(scope="module")
def random_model(vocab):
    ds = synth_generate(12, seed=9)
    tv, _ = prepare_training_data(ds)
    cfg = ModelConfig(d_m=32, layers=1, heads=4, m=16, dropout=0.0)
    params = init_params(cfg, vocab, tv, seed=3)
    return ExtractionModel(cfg, params, vocab, tv, dict(ds.edge_freq), Traversal.BFS), ds


class ScriptedSession:
    """Deterministic fake session: emits a preset score row per step."""

    def __init__(self, script, vocab, n, m, step=0):
        self.script = script
        self.size = vocab.l_p + n * m
        self.step = min(step, len(script) - 1)
        self.last_hidden = None  # unused
        self.ctx = None

    def fork(self):
        clone = object.__new__(ScriptedSession)
        clone.script = self.script
        clone.size = self.size
        clone.step = self.step
        clone.last_hidden = None
        clone.ctx = None
        return clone

    def append(self, k):
        self.step = min(self.step + 1, len(self.script) - 1)


class ScriptedModel:
    """Model stand-in whose span head returns scripted scores."""

    def __init__(self, script_rows, vocab, n, m=16, traversal=Traversal.BFS):
        self.script = [np.asarray(r, dtype=float) for r in script_rows]
        self.vocab = vocab
        self.n = n
        self.cfg = ModelConfig(d_m=8, layers=0, heads=1, m=m, dropout=0.0)
        self.traversal = traversal
        self.edge_freq = {}

    def open_session(self, tokens, max_len, traversal=None):
        return ScriptedSession(self.script, self.vocab, len(tokens), self.cfg.m)


def _patch_scripted(monkeypatch):
    """Route span_head through each scripted session's current row, and the
    batched decoder step through each session's own append."""
    import hyspa.decode_search as ds_mod

    def fake_step_logprobs(model, sessions, machines, histories):
        assert len(sessions) == len(machines) == len(histories)
        rows = []
        for session, machine in zip(sessions, machines):
            scores = session.script[session.step].copy() + machine.mask()
            mx = scores.max()
            rows.append(scores - (mx + np.log(np.exp(scores - mx).sum())))
        return np.stack(rows)

    def fake_decode_step(sessions, elements):
        assert len(sessions) == len(elements)
        assert len({id(s) for s in sessions}) == len(sessions)  # every hypothesis owns its session
        for session, k in zip(sessions, elements):
            session.append(k)

    monkeypatch.setattr(ds_mod, "_step_logprobs", fake_step_logprobs)
    monkeypatch.setattr(ds_mod, "decode_step", fake_decode_step)


def rigged_rows_for(items, vocab, n, m, boost=50.0):
    """Score rows putting all mass on the target path, then on [EOS]."""
    size = vocab.l_p + n * m
    rows = []
    for k in [*items, vocab.eos_index]:
        row = np.zeros(size)
        row[k] = boost
        rows.append(row)
    return rows


class TestGreedy:
    def test_rigged_model_reproduces_fig4(self, vocab, monkeypatch):
        _patch_scripted(monkeypatch)
        items = fig4_bfs_items(vocab)
        model = ScriptedModel(rigged_rows_for(items, vocab, 9, 16), vocab, n=9)
        res = greedy_decode(model, ["tok"] * 9)
        assert list(res.seq.items) == items
        assert res.finished

    def test_random_params_always_valid(self, random_model):
        model, ds = random_model
        for tokens, _ in ds.examples[:6]:
            res = greedy_decode(model, tokens)
            assert res.finished
            assert validate_sequence(res.seq) is None
            decode_sequence(res.seq)

    def test_deterministic(self, random_model):
        model, ds = random_model
        tokens = ds.examples[0][0]
        a = greedy_decode(model, tokens)
        b = greedy_decode(model, tokens)
        assert a.seq.items == b.seq.items
        assert a.score == b.score

    def test_dfs_traversal_override(self, random_model):
        model, ds = random_model
        for tokens, _ in ds.examples[:4]:
            res = greedy_decode(model, tokens, traversal=Traversal.DFS)
            assert res.finished
            assert res.seq.traversal is Traversal.DFS
            assert validate_sequence(res.seq) is None
            decode_sequence(res.seq)

    def test_tiny_max_len_reports_truncation(self, vocab, monkeypatch):
        _patch_scripted(monkeypatch)
        # rig an endless stream of new levels, budget forces closure at 16
        items = fig4_bfs_items(vocab)
        model = ScriptedModel(rigged_rows_for(items * 10, vocab, 9, 16), vocab, n=9)
        res = greedy_decode(model, ["tok"] * 9, max_len=16)
        # forcing guarantees a finished, decodable sequence even at tiny budgets
        assert res.finished
        decode_sequence(res.seq)


class TestBeam:
    def test_beam1_equals_greedy_random_model(self, random_model):
        model, ds = random_model
        for tokens, _ in ds.examples[:5]:
            g = greedy_decode(model, tokens)
            b = beam_decode(model, tokens, beam=1, length_penalty=1.0)
            assert g.seq.items == b.seq.items
            assert g.score == b.score  # the same one-row kernels: bitwise equal

    def test_beam_dominates_greedy_score(self, monkeypatch):
        # on a tiny vocabulary a beam at least as wide as the branching factor
        # keeps every candidate, so it must score at least as well as greedy
        from hyspa.type_vocab import build_vocab

        _patch_scripted(monkeypatch)
        tiny = build_vocab(["[TYPE]"], ["[NULL]", "A", "B"])
        rng = np.random.default_rng(11)
        n, m = 2, 1
        size = tiny.l_p + n * m
        for trial in range(12):
            rows = [rng.normal(size=size) * 2 for _ in range(16)]
            model = ScriptedModel(rows, tiny, n=n, m=m)
            g = greedy_decode(model, ["t"] * n, max_len=16)
            for beam in (4, 8):
                b = beam_decode(model, ["t"] * n, beam=beam, length_penalty=1.0, max_len=16)
                assert g.finished and b.finished
                assert b.score >= g.score - 1e-9

    @pytest.mark.parametrize("seed", range(13, 21))
    def test_beam_matches_exhaustive_on_tiny_instance(self, monkeypatch, seed):
        # a vocab with no relation types makes the machine's sequence space
        # finite (25 complete sequences for n=2, m=1): exhaustive enumeration
        # must agree with a beam at least as wide as the branching factor,
        # so the early stop must not cut off a better finished hypothesis
        from hyspa.type_vocab import build_vocab

        _patch_scripted(monkeypatch)
        tiny = build_vocab(["[TYPE]"], ["[NULL]", "A", "B"])
        rng = np.random.default_rng(seed)
        n, m = 2, 1
        size = tiny.l_p + n * m
        rows = [rng.normal(size=size) * 3 for _ in range(16)]
        model = ScriptedModel(rows, tiny, n=n, m=m)
        max_len = 16

        def logp_row(step, machine):
            scores = rows[min(step, len(rows) - 1)] + machine.mask()
            mx = scores.max()
            return scores - (mx + np.log(np.exp(scores - mx).sum()))

        best = [(-np.inf, -np.inf)]  # (penalized, raw); beam ranks by score/steps

        def walk(machine, step, acc):
            logp = logp_row(step, machine)
            for k in np.flatnonzero(logp > NEG_INF / 2):
                lp = logp[int(k)]
                if int(k) == tiny.eos_index:
                    raw = acc + lp
                    best[0] = max(best[0], (raw / (step + 1), raw))
                    continue
                nxt = machine.fork()
                nxt.push(int(k))
                walk(nxt, step + 1, acc + lp)

        walk(GenConstraints(tiny, n, m, Traversal.BFS, max_len), 0, 0.0)
        res = beam_decode(model, ["t"] * n, beam=8, length_penalty=1.0, max_len=max_len)
        assert res.finished
        assert res.score == pytest.approx(best[0][1], abs=1e-9)
        steps_taken = len(res.seq.items) + 1
        assert res.score / steps_taken == pytest.approx(best[0][0], abs=1e-9)

    def test_beam1_never_forks(self, random_model, monkeypatch):
        from hyspa.model import DecodeSession

        model, ds = random_model
        forks = []
        for cls in (DecodeSession, GenConstraints):
            original = cls.fork

            def counting(self, _original=original):
                forks.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(cls, "fork", counting)
        for tokens, _ in ds.examples[:3]:
            assert beam_decode(model, tokens, beam=1).finished
        assert forks == []
        beam_decode(model, ds.examples[0][0], beam=3)
        assert {"DecodeSession", "GenConstraints"} <= set(forks)

    def test_one_head_call_and_one_decoder_call_per_step(self, random_model, monkeypatch):
        # each beam step scores every live hypothesis in one span-head call
        # and then feeds every surviving child in one decode_step call
        import hyspa.decode_search as ds_mod

        model, ds = random_model
        calls = []

        def recording(kind, fn, rows):
            def wrapper(*args, **kwargs):
                calls.append((kind, rows(*args)))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ds_mod, "span_head", recording("head", ds_mod.span_head, lambda h, *_: len(h)))
        monkeypatch.setattr(ds_mod, "decode_step", recording("step", ds_mod.decode_step, lambda s, _: len(s)))
        for beam in (1, 3):
            for tokens, _ in ds.examples[:3]:
                calls.clear()
                assert beam_decode(model, tokens, beam=beam).finished
                kinds = [kind for kind, _ in calls]
                assert kinds[::2] == ["head"] * len(kinds[::2])
                assert kinds[1::2] == ["step"] * len(kinds[1::2])
                rows = [b for _, b in calls]
                # a step feeds exactly the hypotheses the next head call scores
                assert rows[1:-1:2] == rows[2::2]
                assert max(rows) <= beam
            if beam == 3:
                assert max(rows) > 1

    def test_scores_monotone_nonincreasing(self, random_model):
        model, ds = random_model
        tokens = ds.examples[1][0]
        res = beam_decode(model, tokens, beam=3)
        assert res.score <= 0.0

    def test_top_admissible_matches_stable_argsort(self):
        from hyspa.decode_search import _top_admissible

        rng = np.random.default_rng(0)
        vectors = [
            np.array([-1.0, -2.0, -1.0, NEG_INF, -2.0, -1.0, -3.0]),  # ties at and across the cut
            np.array([NEG_INF, -0.5, NEG_INF, NEG_INF]),  # fewer admissible slots than k
            np.full(5, NEG_INF),
        ]
        for size in [*rng.integers(1, 40, size=50), *rng.integers(300, 2000, size=20)]:
            v = rng.integers(-4, 0, size=size).astype(float)  # few values: many ties
            v[rng.random(v.size) < 0.4] = NEG_INF
            vectors.append(v)
        vectors.append(np.where(np.arange(1000) % 2, -1.0, NEG_INF))  # 500 admissible, all tied
        for v in vectors:
            for k in (1, 2, 3, 6):
                ref = [i for i in np.argsort(-v, kind="stable")[:k] if v[i] > NEG_INF / 2]
                assert _top_admissible(v, k).tolist() == ref, (v, k)

    def test_bad_args_rejected(self, random_model):
        model, ds = random_model
        with pytest.raises(ValueError):
            beam_decode(model, ds.examples[0][0], beam=0)
        with pytest.raises(ValueError):
            beam_decode(model, ds.examples[0][0], beam=1, length_penalty=0.0)


class TestExtract:
    def test_rigged_fig4_graph(self, vocab, monkeypatch):
        _patch_scripted(monkeypatch)
        items = fig4_bfs_items(vocab)
        model = ScriptedModel(rigged_rows_for(items, vocab, 9, 16), vocab, n=9)
        res = extract_graph(model, ["tok"] * 9)
        assert graph_equal(res.graph, fig4_graph(vocab))

    def test_null_emission_gives_empty_graph(self, vocab, monkeypatch):
        _patch_scripted(monkeypatch)
        items = [vocab.null_type_index, vocab.sep_index]
        model = ScriptedModel(rigged_rows_for(items, vocab, 9, 16), vocab, n=9)
        res = extract_graph(model, ["tok"] * 9)
        assert res.graph.is_empty

    def test_salvage_trims_to_last_sep(self, vocab):
        from hyspa.altseq_codec import AltSequence

        items = (*fig4_bfs_items(vocab), 19, vocab.type_edge_index)
        seq = AltSequence(items, Traversal.BFS, vocab, 9, 16)
        trimmed = salvage_levels(seq)
        assert list(trimmed.items) == fig4_bfs_items(vocab)


class TestConstraintMachine:
    @pytest.mark.parametrize("traversal", [Traversal.BFS, Traversal.DFS])
    def test_sampled_sequences_validate_and_decode(self, vocab, traversal):
        rng = np.random.default_rng(17)
        for _ in range(400):
            s = sample_sequence(vocab, 12, 16, rng, traversal=traversal)
            assert validate_sequence(s) is None
            decode_sequence(s)

    def test_machine_admits_canonical_paths(self, vocab, rng):
        # every canonical encoding must be reachable under the machine
        from testutil import random_edge_freq, random_graph

        from hyspa.altseq_codec import encode
        from hyspa.info_graph import canonicalize

        for _ in range(40):
            g = random_graph(rng, vocab, n_max=24, max_mentions=5, max_relations=6)
            freq = random_edge_freq(rng, vocab)
            for trv in Traversal:
                seq = encode(canonicalize(g, freq, vocab), vocab, 16, trv)
                machine = GenConstraints(vocab, seq.n, 16, trv, max_len=len(seq.items) + 24)
                for k in seq.items:
                    mask = machine.mask()
                    assert mask[k] == 0.0, (trv, seq.items, k)
                    machine.push(k)
                assert machine.mask()[vocab.eos_index] == 0.0

    def test_budget_forcing_terminates(self, vocab):
        rng = np.random.default_rng(23)
        for max_len in (16, 20, 32):
            for _ in range(50):
                s = sample_sequence(vocab, 10, 16, rng, max_len=max_len)
                assert len(s.items) <= max_len
                decode_sequence(s)


class TestBench:
    def test_small_scaling_run(self, vocab):
        tv = TokenVocab(tokens=("[UNK]", "a", "b", "c"))
        cfg = ModelConfig(d_m=32, layers=1, heads=4, m=8, dropout=0.0, max_tokens=256)
        params = init_params(cfg, vocab, tv, seed=0)
        model = ExtractionModel(cfg, params, vocab, tv, {}, Traversal.BFS)
        rows = bench_decode_steps(model, sizes=(32, 64, 128), steps=6, seed=0)
        assert [r.n for r in rows] == [32, 64, 128]
        mem_exp = fit_exponent([r.n for r in rows], [r.score_vector_bytes for r in rows])
        assert mem_exp < 1.2
        for row in rows:
            assert len(row.raw_times) == 6
            assert row.per_step_seconds > 0

    def test_fit_exponent_on_known_data(self):
        xs = [10, 20, 40, 80]
        assert fit_exponent(xs, [x**1.0 * 3 for x in xs]) == pytest.approx(1.0, abs=1e-9)
        assert fit_exponent(xs, [x**2.0 for x in xs]) == pytest.approx(2.0, abs=1e-9)
