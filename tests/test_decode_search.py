import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from testutil import (
    fig4_bfs_items, fig4_dfs_items, fig4_graph, fit_exponent, greedy_decode, pinned_vocab, sample_sequence,
)

from hyspa.altseq_codec import (
    AltSequence,
    GenConstraints,
    Traversal,
    _Phase,
    decode_sequence,
    encode,
    validate_sequence,
)
from hyspa.data_io import synth_generate
from hyspa.decode_search import beam_decode, evaluate_model, extract_graph
from hyspa.hybrid_index import TextSpan
from hyspa.info_graph import Mention, RelationEdge, canonicalize, graph_equal, make_graph, validate_graph
from hyspa.model import Engine, ExtractionModel, ModelConfig, init_params, prepare_training_data, train_step
from hyspa.numerics import NEG_INF, AdamW, Tensor
from hyspa.type_vocab import build_vocab


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

    def open_session(self, tokens, max_len, traversal=None, beam=1):
        return ScriptedSession(self.script, self.vocab, len(tokens), self.cfg.m)


def _patch_scripted(monkeypatch):
    """Route span_head through each scripted session's current row, in beam
    search and in the greedy reference, and the batched decoder step through
    each session's own append."""
    import testutil

    import hyspa.decode_search as ds_mod

    def fake_step_logprobs(sessions, machines):
        assert len(sessions) == len(machines)
        rows = []
        for session, machine in zip(sessions, machines):
            mask = machine.mask()  # the row covers the slots its mask covers
            scores = session.script[session.step][: len(mask)] + mask
            mx = scores.max()
            rows.append(scores - (mx + np.log(np.exp(scores - mx).sum())))
        return rows

    def fake_decode_step(sessions, elements):
        assert len(sessions) == len(elements)
        assert len({id(s) for s in sessions}) == len(sessions)  # every hypothesis owns its session
        for session, k in zip(sessions, elements):
            session.append(k)

    monkeypatch.setattr(ds_mod, "_step_logprobs", fake_step_logprobs)
    monkeypatch.setattr(testutil, "_step_logprobs", fake_step_logprobs)
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

    def test_random_params_always_valid(self, random_model):
        model, ds = random_model
        for tokens, _ in ds.examples[:6]:
            res = greedy_decode(model, tokens)
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
            assert res.seq.traversal is Traversal.DFS
            assert validate_sequence(res.seq) is None
            decode_sequence(res.seq)

    def test_tiny_max_len_reports_truncation(self, vocab, monkeypatch):
        _patch_scripted(monkeypatch)
        # rig an endless stream of new levels, budget forces closure at 16
        items = fig4_bfs_items(vocab)
        model = ScriptedModel(rigged_rows_for(items * 10, vocab, 9, 16), vocab, n=9)
        res = greedy_decode(model, ["tok"] * 9, max_len=16)
        # forcing guarantees a decodable sequence even at tiny budgets
        assert len(res.seq.items) <= 16
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
            mask = machine.mask()
            scores = rows[min(step, len(rows) - 1)][: len(mask)] + mask
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
            beam_decode(model, tokens, beam=1)
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
                beam_decode(model, tokens, beam=beam)
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
        # one row's offers: its k best admissible slots in stable-argsort order
        from hyspa.decode_search import _candidates

        def offered_slots(v, k):
            return np.array([slot for _, slot, _ in _candidates([v], [0.0], k)], dtype=int)

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
                assert offered_slots(v, k).tolist() == ref, (v, k)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_batched_selection_matches_reference_rule(self, data):
        # _candidates against the rule written out: each row's k best
        # admissible slots by a stable descending argsort (ties to the lower
        # slot), then all offers ordered by (-new score, slot, row); rows of
        # two widths, heavy ties, rows
        # with every slot closed, and scores so large that distinct
        # log-probabilities give equal new scores
        from hyspa.decode_search import _candidates

        l_p = data.draw(st.integers(1, 12))
        wide = l_p + data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, 7))
        values = st.sampled_from([0.0, -0.5, -1.0, -1.0, -2.0, -3.25, NEG_INF, NEG_INF]) | st.floats(-30.0, 0.0)
        rows = data.draw(st.lists(st.sampled_from([l_p, wide]), min_size=1, max_size=6))
        logps = [np.array(data.draw(st.lists(values, min_size=w, max_size=w))) for w in rows]
        scores = data.draw(st.lists(st.sampled_from([0.0, -1.0, -7.5, -(2.0**53)]) | st.floats(-60.0, 0.0),
                                    min_size=len(rows), max_size=len(rows)))

        want = []
        for r, logp in enumerate(logps):
            for slot in np.argsort(-logp, kind="stable")[:k]:
                if logp[slot] > NEG_INF / 2:
                    want.append((scores[r] + float(logp[slot]), int(slot), r))
        want.sort(key=lambda c: (-c[0], c[1], c[2]))
        assert _candidates(logps, scores, k) == want

    def test_bad_args_rejected(self, random_model):
        model, ds = random_model
        with pytest.raises(ValueError):
            beam_decode(model, ds.examples[0][0], beam=0)
        with pytest.raises(ValueError):
            beam_decode(model, ds.examples[0][0], beam=1, length_penalty=0.0)


class TestExtract:
    @pytest.mark.parametrize("limit", [0, -1])
    def test_evaluate_model_limit_below_one_rejected(self, limit):
        # limit=0 once evaluated every record
        with pytest.raises(ValueError, match=f"limit must be >= 1, got {limit}"):
            evaluate_model(None, [(("tok",), None)], limit=limit)

    def test_evaluate_model_decodes_as_extract_graph_per_input(self, random_model, monkeypatch):
        # one engine for the whole call, and the items per-input extractions give
        import hyspa.decode_search as ds_mod

        model, ds = random_model
        examples = ds.examples[:6]
        built, decoded = [], []

        class CountingEngine(Engine):
            def __init__(self, m):
                built.append(m)
                super().__init__(m)

        def recording(engine, tokens, **kwargs):
            res = extract_graph(engine, tokens, **kwargs)
            decoded.append(res.seq.items)
            return res

        monkeypatch.setattr(ds_mod, "Engine", CountingEngine)
        monkeypatch.setattr(ds_mod, "extract_graph", recording)
        for beam in (1, 5):
            built.clear(), decoded.clear()
            evaluate_model(model, examples, beam=beam)
            assert built == [model]
            assert decoded == [extract_graph(model, tokens, beam=beam).seq.items for tokens, _ in examples]

    def test_engine_never_serves_stale_weights(self, random_model, tmp_path):
        # decode, take one optimizer step on the same params, decode again: the
        # second decode is a freshly loaded checkpoint's, bit for bit, and not
        # the first one's
        model, ds = random_model
        params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in model.params.items()}
        live = ExtractionModel(model.cfg, params, model.vocab, model.token_vocab, model.edge_freq, model.traversal)
        _, prepared = prepare_training_data(ds)
        inputs = [tokens for tokens, _ in ds.examples[:4]]

        def decode(m):
            runs = [beam_decode(m, tokens, beam=beam) for beam in (1, 5) for tokens in inputs]
            return [(r.seq.items, r.score.hex()) for r in runs]

        before = decode(live)
        train_step(prepared[:4], live.cfg, params, AdamW(params, peak_lr=1e-2, warmup=1))
        after = decode(live)
        live.save(tmp_path / "stepped.npz")
        assert after == decode(ExtractionModel.load(tmp_path / "stepped.npz"))
        assert all(b[1] != a[1] for b, a in zip(before, after))

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


# Exact masks along the Figure 4 walks (n=9, m=16, pinned vocab): [TYPE] is
# slot 0, the relation edges 1-7, [EOS] 9, [SEP] 10, the node types 11-18
# ([NULL] 18), and span (s, s+w+1) is slot 19 + 16*s + w.
LEGAL_SPANS = frozenset(19 + 16 * s + w for s in range(9) for w in range(9 - s))
RELS, NODES = (1, 2, 3, 4, 5, 6, 7), (11, 12, 13, 14, 15, 16, 17, 18)
HE, BAGHDAD = 19, 83
# (admitted type slots, admitted span slots) before each item, then before [EOS]
FIG4_SLOTS = {
    Traversal.BFS: [
        ((18,), LEGAL_SPANS),            # the start: any span, or the [NULL] root
        ((0,), set()),                   # He
        (NODES, set()),                  # [TYPE]
        ((*RELS, 10), set()),            # PER: a relation or [SEP]
        ((9,), LEGAL_SPANS - {HE}),      # [SEP]: He already opened a level
        ((0,), set()),                   # Baghdad
        (NODES, set()),                  # [TYPE]
        ((*RELS, 10), set()),            # GPE
        ((), LEGAL_SPANS),               # PHYS: any span as its child
        ((*RELS, 10), set()),            # He
        ((9,), LEGAL_SPANS - {HE, BAGHDAD}),  # [SEP]
    ],
    Traversal.DFS: [
        ((18,), LEGAL_SPANS),
        ((0,), set()),                   # He
        (NODES, set()),                  # [TYPE]
        ((10,), set()),                  # PER: the leaf closes
        ((9,), LEGAL_SPANS),             # [SEP]: a typed parent may come back
        ((0,), set()),                   # Baghdad
        (NODES, set()),                  # [TYPE]
        ((10,), set()),                  # GPE
        ((9,), LEGAL_SPANS),             # [SEP]
        (RELS, set()),                   # Baghdad again: a relation edge
        ((), LEGAL_SPANS),               # PHYS
        ((10,), set()),                  # He, typed: the level closes
        ((9,), LEGAL_SPANS),             # [SEP]
    ],
}
# At max_len=16 the budget is tight from the relation child on (``_tight``):
# the child must be a mention already seen, no new relation may open, and
# the closed sequence must end.
FIG4_BFS_SLOTS_AT_16 = [*FIG4_SLOTS[Traversal.BFS][:8], ((), {HE, BAGHDAD}), ((10,), set()), ((9,), set())]
# A walk whose relation child is typed on a later level: once the budget is
# tight, that pending mention is the only admitted level parent, with no [EOS].
PENDING_BFS_ITEMS = [HE, 0, 11, 1, BAGHDAD, 10, BAGHDAD, 0, 13, 10]
PENDING_BFS_SLOTS_AT_16 = [
    ((18,), LEGAL_SPANS),
    ((0,), set()),                       # He
    (NODES, set()),                      # [TYPE]
    ((*RELS, 10), set()),                # PER
    ((), LEGAL_SPANS),                   # PHYS
    ((10,), set()),                      # Baghdad, untyped: only [SEP] fits the budget
    ((), {BAGHDAD}),                     # [SEP]: Baghdad must be typed before [EOS]
    ((0,), set()),                       # Baghdad
    (NODES, set()),                      # [TYPE]
    ((10,), set()),                      # GPE
    ((9,), set()),                       # [SEP]
]


def admitted_slots(vocab, items, traversal, max_len):
    """(admitted type slots, admitted span slots) of the machine (n=9, m=16)
    before each of ``items`` and before the final [EOS], checking that the
    masks hold only 0 and NEG_INF, that a mask covers the type slots alone
    exactly when it admits no span, and that [EOS] finishes the run."""
    machine = GenConstraints(vocab, 9, 16, traversal, max_len)
    slots = []
    for k in [*items, vocab.eos_index]:
        mask = machine.mask()
        assert set(np.unique(mask)) <= {0.0, NEG_INF}
        open_slots = np.flatnonzero(mask == 0.0)
        assert len(mask) in (vocab.l_p, machine.size)
        assert (len(mask) == vocab.l_p) == (open_slots.max() < vocab.l_p)
        slots.append((
            tuple(int(s) for s in open_slots if s < vocab.l_p),
            {int(s) for s in open_slots if s >= vocab.l_p},
        ))
        machine.push(k)
    assert machine.phase == _Phase.DONE
    return slots


def _needed_after(machine: GenConstraints, k: int) -> float:
    """Items still needed to finish once ``k`` is pushed (-inf for [EOS])."""
    if k == machine.vocab.eos_index:
        return -np.inf
    nxt = machine.fork()
    nxt.push(k)
    return nxt._min_to_finish()


def _most_needed(machine: GenConstraints, admitted: np.ndarray, rng) -> int:
    """The admitted slot whose push leaves the most items still needed, ties
    drawn at random.  That count depends on a span only through whether it
    is typed, pending or new, so one span of each kind stands for all."""
    types = [int(k) for k in admitted if k < machine.vocab.l_p]
    spans = admitted[admitted >= machine.vocab.l_p]
    typed, pending = np.isin(spans, list(machine.typed)), np.isin(spans, list(machine.pending))
    kinds = [spans[typed], spans[pending], spans[~typed & ~pending]]
    slots = types + [int(rng.choice(kind)) for kind in kinds if kind.size]
    needed = [_needed_after(machine, k) for k in slots]
    best = [k for k, need in zip(slots, needed) if need == max(needed)]
    return best[rng.integers(len(best))]


def _any_but_eos(machine: GenConstraints, admitted: np.ndarray, rng) -> int:
    others = admitted[admitted != machine.vocab.eos_index]
    return int(rng.choice(others)) if others.size else machine.vocab.eos_index


# how an adversary picks among the admitted slots; a vocab with no relation
# type makes DFS close every level on a re-emitted parent
TINY_VOCAB = build_vocab(["[TYPE]"], ["[NULL]", "A", "B"])
CHOICE_RULES = {
    "uniform": lambda machine, admitted, rng: int(rng.choice(admitted)),
    "any but eos": _any_but_eos,
    "most needed": _most_needed,
}


class TestConstraintMachine:
    @pytest.mark.parametrize("traversal", [Traversal.BFS, Traversal.DFS], ids=["bfs", "dfs"])
    def test_fig4_admitted_slots(self, vocab, traversal):
        items = fig4_bfs_items(vocab) if traversal is Traversal.BFS else fig4_dfs_items(vocab)
        assert admitted_slots(vocab, items, traversal, max_len=64) == FIG4_SLOTS[traversal]

    def test_tight_budget_admitted_slots(self, vocab):
        fig4 = admitted_slots(vocab, fig4_bfs_items(vocab), Traversal.BFS, max_len=16)
        assert fig4 == FIG4_BFS_SLOTS_AT_16
        pending = admitted_slots(vocab, PENDING_BFS_ITEMS, Traversal.BFS, max_len=16)
        assert pending == PENDING_BFS_SLOTS_AT_16

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
                    assert k < len(mask) and mask[k] == 0.0, (trv, seq.items, k)
                    machine.push(k)
                assert machine.mask()[vocab.eos_index] == 0.0

    def test_budget_forcing_terminates(self, vocab):
        rng = np.random.default_rng(23)
        for max_len in (16, 20, 32):
            for _ in range(50):
                s = sample_sequence(vocab, 10, 16, rng, max_len=max_len)
                assert len(s.items) <= max_len
                decode_sequence(s)

    @given(
        n=st.integers(1, 64) | st.sampled_from([256, 1024]),
        m=st.sampled_from([1, 3, 16]),
        traversal=st.sampled_from(Traversal),
        max_len=st.integers(16, 300),
        choice=st.sampled_from(["uniform", "any but eos", "most needed"]),
        no_relations=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_run_finishes_within_budget(self, vocab, n, m, traversal, max_len, choice, no_relations, seed):
        # termination by construction: whatever admitted slot is chosen, a
        # run reaches [EOS] within max_len items, always has a slot to
        # choose, and at max_len items admits [EOS] alone
        vocab = TINY_VOCAB if no_relations else vocab
        rng = np.random.default_rng(seed)
        machine = GenConstraints(vocab, n, m, traversal, max_len)
        items = []
        while machine.phase != _Phase.DONE:
            admitted = np.flatnonzero(machine.mask() == 0.0)
            assert admitted.size, (items, max_len)
            if machine.emitted == max_len:
                assert admitted.tolist() == [vocab.eos_index], (items, max_len)
            k = CHOICE_RULES[choice](machine, admitted, rng)
            machine.push(k)
            if k != vocab.eos_index:
                items.append(k)
        assert len(items) <= max_len
        decode_sequence(AltSequence(tuple(items), traversal, vocab, n, m))

    def test_push_past_budget_raises(self, vocab):
        machine = GenConstraints(vocab, 9, 16, Traversal.BFS, max_len=16)
        machine.emitted = 16  # a state the budget rule never reaches
        with pytest.raises(RuntimeError, match="budget"):
            machine.push(vocab.null_type_index)
        machine.push(vocab.eos_index)
        assert machine.phase == _Phase.DONE


VOCAB, M = pinned_vocab(), 16
# Near its length budget the machine forces the shortest completion: once
# max_len - emitted <= (items still needed) + 6 (``GenConstraints._tight``) it
# closes relation edges and spans that would open new levels.  A canonical
# encoding of L items is therefore admitted only when max_len >= L + 5: over
# 3,000 random graphs per traversal every encoding was admitted at slack 5,
# and at slack 4 some were not, in BFS and in DFS.
COMPLETE_SLACK = 5


@st.composite
def graphs(draw):
    """A valid graph over n in [1, 39] tokens: distinct spans, real relation types."""
    n = draw(st.integers(1, 39))
    spans = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, M)).map(lambda s: TextSpan(s[0], min(s[0] + s[1], n))),
        max_size=6, unique=True,
    ))
    node_types = [t for t in VOCAB.node_type_indices if VOCAB.name(t) != "[NULL]"]
    mentions = [Mention(span, draw(st.sampled_from(node_types))) for span in sorted(spans)]
    relations = []
    if mentions:
        ends = st.integers(0, len(mentions) - 1)
        rel_types = [e for e in VOCAB.real_edge_indices if e != VOCAB.type_edge_index]
        relations = draw(st.lists(st.builds(RelationEdge, ends, ends, st.sampled_from(rel_types)), max_size=8))
    return make_graph(mentions, relations, n=n, m=M)


class MachineRun(RuleBasedStateMachine):
    """One run of the constraint machine (BFS or DFS, max_len >= 16).

    The run follows the canonical encoding of a random graph for a while,
    may leave it for any admitted slot, and is finished on its lowest
    admitted slots.  It checks that every canonical encoding is admitted
    (completeness, with max_len >= L + COMPLETE_SLACK) and that every
    finished run decodes to a valid graph (soundness).
    """

    runs = dict(
        graph=graphs(), traversal=st.sampled_from(Traversal),
        slack=st.integers(COMPLETE_SLACK, 40), order=st.permutations(VOCAB.real_edge_indices),
    )

    @initialize(**runs)
    def start(self, graph, traversal, slack, order):
        freq = {e: i for i, e in enumerate(order)}
        self.graph = graph
        self.canonical = list(encode(canonicalize(graph, freq, VOCAB), VOCAB, M, traversal).items)
        self.max_len = max(16, len(self.canonical) + slack)
        self.machine = GenConstraints(VOCAB, graph.n, M, traversal, self.max_len)
        self.items: list[int] = []
        self.on_path = True

    def _canonical_next(self) -> int:
        path = self.canonical
        return path[len(self.items)] if len(self.items) < len(path) else VOCAB.eos_index

    def _admitted(self) -> np.ndarray:
        """The slots the machine admits next; its mask covers the type slots
        alone exactly when no span slot is among them."""
        mask = self.machine.mask()
        admitted = np.flatnonzero(mask == 0.0)
        assert len(mask) in (VOCAB.l_p, self.machine.size)
        assert (len(mask) == VOCAB.l_p) == (admitted.max() < VOCAB.l_p), (self.items, len(mask))
        return admitted

    def _push(self, k: int) -> None:
        self.on_path = self.on_path and k == self._canonical_next()
        self.machine.push(k)
        if k != VOCAB.eos_index:
            self.items.append(k)

    @precondition(lambda self: self.on_path and self.machine.phase != _Phase.DONE)
    @rule()
    def follow_canonical(self):
        k = self._canonical_next()
        assert k in self._admitted(), (self.machine.traversal, self.canonical, self.max_len, k)
        self._push(k)

    @precondition(lambda self: self.machine.phase != _Phase.DONE)
    @rule(data=st.data())
    def emit_admitted(self, data):
        self._push(data.draw(st.sampled_from(self._admitted().tolist())))

    @precondition(lambda self: self.machine.phase == _Phase.DONE)
    @rule(**runs)
    def next_run(self, graph, traversal, slack, order):
        self._check_finished()
        self.start(graph, traversal, slack, order)

    def teardown(self):
        while self.machine.phase != _Phase.DONE:
            self._push(int(self._admitted()[0]))
        self._check_finished()

    def _check_finished(self) -> None:
        assert len(self.items) <= self.max_len
        seq = AltSequence(tuple(self.items), self.machine.traversal, VOCAB, self.graph.n, M)
        assert validate_sequence(seq) is None
        decoded = decode_sequence(seq)
        assert validate_graph(decoded, self.graph.n, M, VOCAB) == []
        if self.on_path:
            assert graph_equal(decoded, self.graph)


TestMachineRun = MachineRun.TestCase
TestMachineRun.settings = settings(max_examples=100, stateful_step_count=100, deadline=None)


class TestBench:
    """The least-squares fit behind the C7 step probe (tests/testutil.py)."""

    def test_fit_exponent_on_known_data(self):
        xs = [10, 20, 40, 80]
        assert fit_exponent(xs, [x**1.0 * 3 for x in xs]) == pytest.approx(1.0, abs=1e-9)
        assert fit_exponent(xs, [x**2.0 for x in xs]) == pytest.approx(2.0, abs=1e-9)
