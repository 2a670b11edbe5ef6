import json

import numpy as np
import pytest

from testutil import FIG4_TOKENS, fig4_graph

from hyspa.altseq_codec import Traversal, decode_sequence, encode, validate_sequence
from hyspa.data_io import (
    CorpusError,
    eval_f1,
    load_jsonl,
    read_sequence_dump,
    save_jsonl,
    synth_generate,
    write_sequence_dump,
)
from hyspa.info_graph import (
    InfoGraph,
    RelationEdge,
    canonicalize,
    graph_equal,
    make_graph,
    validate_graph,
)


class TestJsonl:
    def test_fig4_record_loads(self, vocab, tmp_path):
        record = {
            "tokens": list(FIG4_TOKENS),
            "entities": [
                {"start": 0, "end": 1, "type": "PER"},
                {"start": 4, "end": 5, "type": "GPE"},
            ],
            "relations": [{"head": 1, "tail": 0, "type": "PHYS"}],
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n")
        ds = load_jsonl(path, vocab)
        assert len(ds) == 1
        tokens, g = ds.examples[0]
        assert tokens == FIG4_TOKENS
        assert graph_equal(g, fig4_graph(vocab))

    def test_empty_entities_relations(self, vocab, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"tokens": ["a", "b"], "entities": [], "relations": []}) + "\n")
        ds = load_jsonl(path, vocab)
        assert ds.examples[0][1].is_empty
        og = canonicalize(ds.examples[0][1], ds.edge_freq, vocab)
        seq = encode(og, vocab, 16, Traversal.BFS)
        assert list(seq.items) == [vocab.null_type_index, vocab.sep_index]

    def test_malformed_line_reports_number(self, vocab, tmp_path):
        # the bad line fails alone: its error sits beside the good records, and strict() raises it
        path = tmp_path / "bad.jsonl"
        for line in (
            '{"tokens": }',
            '{"tokens": 5}',  # wrongly typed fields and records
            '{"tokens": ["a", "b"], "entities": [{"start": "0", "end": 1, "type": "PER"}]}',
            '["a", "b"]',
        ):
            path.write_text('{"tokens": ["a"]}\n' + line + '\n{"tokens": ["b"]}\n')
            ds = load_jsonl(path, vocab)
            assert [tokens for tokens, _ in ds.examples] == [("a",), ("b",)]
            assert [lineno for lineno, _ in ds.errors] == [2]
            assert isinstance(ds.errors[0][1], CorpusError)
            assert str(ds.errors[0][1]).startswith(f"{path}:2: malformed record")
            with pytest.raises(CorpusError, match="bad.jsonl:2: malformed record"):
                ds.strict()

    def test_unknown_type_name_reports_line(self, vocab, tmp_path):
        rec = {"tokens": ["a"], "entities": [{"start": 0, "end": 1, "type": "NOPE"}], "relations": []}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        ds = load_jsonl(path, vocab)
        assert ds.examples == [] and [lineno for lineno, _ in ds.errors] == [1]
        with pytest.raises(CorpusError, match="bad.jsonl:1: malformed record: unknown type name: 'NOPE'"):
            ds.strict()

    def test_every_bad_line_fails_alone(self, vocab, tmp_path):
        # a line that is not UTF-8 no longer ends the walk; the edge frequencies are the good records'
        good = synth_generate(6, seed=9, vocab=vocab)
        save_jsonl(good, tmp_path / "good.jsonl")
        lines = (tmp_path / "good.jsonl").read_bytes().splitlines()
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join([b"\xff{", *lines[:3], b"", b"[1]", *lines[3:], b'{"tokens": 5}']) + b"\n")
        ds = load_jsonl(path, vocab)
        assert [lineno for lineno, _ in ds.errors] == [1, 6, 10]
        assert [str(err).split(": ")[1] for _, err in ds.errors] == ["not UTF-8", "malformed record", "malformed record"]
        assert all(str(err).startswith(f"{path}:{lineno}: ") for lineno, err in ds.errors)
        assert [tokens for tokens, _ in ds.examples] == [tokens for tokens, _ in good.examples]
        assert ds.edge_freq == good.edge_freq
        assert load_jsonl(tmp_path / "good.jsonl", vocab).strict().errors == []

    def test_save_load_identity(self, vocab, tmp_path):
        ds = synth_generate(60, seed=21, vocab=vocab)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_jsonl(ds, p1)
        loaded = load_jsonl(p1, vocab)
        save_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for (t1, g1), (t2, g2) in zip(ds.examples, loaded.examples):
            assert t1 == t2
            assert graph_equal(g1, g2)


class TestSynth:
    def test_template_rule_application(self, vocab):
        ds = synth_generate(300, seed=1, vocab=vocab)
        org_aff = vocab.index("ORG-AFF")
        hits = 0
        for tokens, g in ds.examples:
            if len(tokens) > 2 and tokens[2] == "works":
                hits += 1
                assert len(g.mentions) == 2
                per, org = g.mentions[0], g.mentions[1]
                assert vocab.name(per.node_type) == "PER"
                assert vocab.name(org.node_type) == "ORG"
                assert any(
                    r.edge_type == org_aff and r.head == 0 and r.tail == 1 for r in g.relations
                )
        assert hits > 0

    def test_determinism_identical_bytes(self, vocab, tmp_path):
        a = synth_generate(200, seed=5, vocab=vocab)
        b = synth_generate(200, seed=5, vocab=vocab)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(a, pa)
        save_jsonl(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = synth_generate(200, seed=6, vocab=vocab)
        pc = tmp_path / "c.jsonl"
        save_jsonl(c, pc)
        assert pa.read_bytes() != pc.read_bytes()

    def test_10k_validate_and_roundtrip(self, vocab):
        ds = synth_generate(10_000, seed=2, vocab=vocab)
        freq = ds.edge_freq
        for tokens, g in ds.examples:
            assert validate_graph(g, len(tokens), ds.m, vocab) == []
        for tokens, g in ds.examples[::7]:
            for trv in Traversal:
                seq = encode(canonicalize(g, freq, vocab), vocab, ds.m, trv)
                assert validate_sequence(seq) is None
                assert graph_equal(decode_sequence(seq), g)

    @pytest.mark.parametrize("m", [1, 2])
    def test_span_length_below_the_longest_surface_refused(self, vocab, m):
        with pytest.raises(ValueError, match=f"maximum span length {m} is below the 3-token surface 'the red cross'"):
            synth_generate(10, seed=1, vocab=vocab, m=m)

    def test_span_length_at_the_longest_surface_validates(self, vocab):
        ds = synth_generate(500, seed=1, vocab=vocab, m=3)
        assert ds.m == 3
        assert any(max(mn.span.end - mn.span.start for mn in g.mentions) == 3 for _, g in ds.examples if g.mentions)
        for tokens, g in ds.examples:
            assert validate_graph(g, len(tokens), 3, vocab) == []

    def test_includes_empty_and_multi_relation(self, vocab):
        ds = synth_generate(500, seed=3, vocab=vocab)
        empties = sum(g.is_empty for _, g in ds.examples)
        multi = sum(len(g.relations) >= 2 for _, g in ds.examples)
        assert empties > 0
        assert multi > 0

    def test_cls_first_token(self, vocab):
        ds = synth_generate(50, seed=4, vocab=vocab)
        for tokens, g in ds.examples:
            assert tokens[0] == "[CLS]"
            for mn in g.mentions:
                assert mn.span.start >= 1

    def test_manifest(self, vocab):
        ds = synth_generate(100, seed=5, vocab=vocab)
        man = ds.manifest()
        assert man["examples"] == 100
        assert man["vocab_hash"] == vocab.config_hash()


class TestEvalF1:
    def test_perfect_prediction(self, vocab):
        ds = synth_generate(50, seed=6, vocab=vocab)
        graphs = [g for _, g in ds.examples]
        res = eval_f1(graphs, graphs)
        assert res.ner.f1 == 1.0
        assert res.re.f1 == 1.0

    def test_empty_predictions(self, vocab):
        ds = synth_generate(50, seed=6, vocab=vocab)
        golds = [g for _, g in ds.examples if not g.is_empty]
        preds = [InfoGraph((), (), g.n, g.m) for g in golds]
        res = eval_f1(preds, golds)
        assert res.ner.f1 == 0.0
        assert res.re.f1 == 0.0

    def test_matches_set_arithmetic_oracle(self, vocab, rng):
        from testutil import random_graph

        golds, preds = [], []
        tp_n = fp_n = fn_n = 0
        for _ in range(30):
            g = random_graph(rng, vocab, n_max=24, max_mentions=5, max_relations=4)
            golds.append(g)
            # perturb: drop each mention with p=0.3 (and its relations)
            keep = [i for i in range(len(g.mentions)) if rng.random() > 0.3]
            remap = {old: new for new, old in enumerate(keep)}
            pred = make_graph(
                [g.mentions[i] for i in keep],
                [
                    RelationEdge(remap[r.head], remap[r.tail], r.edge_type)
                    for r in g.relations
                    if r.head in remap and r.tail in remap
                ],
                n=g.n,
                m=g.m,
            )
            preds.append(pred)
            gm = {(m.span.start, m.span.end, m.node_type) for m in g.mentions}
            pm = {(m.span.start, m.span.end, m.node_type) for m in pred.mentions}
            tp_n += len(gm & pm)
            fp_n += len(pm - gm)
            fn_n += len(gm - pm)
        res = eval_f1(preds, golds)
        assert (res.ner.tp, res.ner.fp, res.ner.fn) == (tp_n, fp_n, fn_n)
        p = tp_n / (tp_n + fp_n) if tp_n + fp_n else 0.0
        r = tp_n / (tp_n + fn_n) if tp_n + fn_n else 0.0
        expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert res.ner.f1 == pytest.approx(expected_f1)

    def test_length_mismatch_rejected(self, vocab):
        with pytest.raises(ValueError):
            eval_f1([], [InfoGraph((), (), 2, 16)])

    def test_symmetric_under_reordering(self, vocab):
        ds = synth_generate(40, seed=7, vocab=vocab)
        golds = [g for _, g in ds.examples]
        preds = [InfoGraph((), (), g.n, g.m) if i % 3 else g for i, g in enumerate(golds)]
        base = eval_f1(preds, golds)
        perm = np.random.default_rng(0).permutation(len(golds))
        shuffled = eval_f1([preds[i] for i in perm], [golds[i] for i in perm])
        assert base.ner.f1 == shuffled.ner.f1
        assert base.re.f1 == shuffled.re.f1


class TestSequenceDump:
    def test_roundtrip(self, vocab, tmp_path):
        ds = synth_generate(20, seed=8, vocab=vocab)
        seqs = [
            encode(canonicalize(g, ds.edge_freq, vocab), vocab, 16, Traversal.BFS)
            for _, g in ds.examples
        ]
        path = tmp_path / "seqs.txt"
        with open(path, "w") as fh:
            write_sequence_dump(fh, seqs, vocab, 16, Traversal.BFS)
        back = read_sequence_dump(path, vocab)
        assert [s.items for s in back] == [s.items for s in seqs]
        assert all(s.n == t.n for s, t in zip(back, seqs))

    def test_vocab_hash_mismatch_rejected(self, vocab, tmp_path):
        from hyspa.type_vocab import build_vocab

        path = tmp_path / "seqs.txt"
        with open(path, "w") as fh:
            write_sequence_dump(fh, [], vocab, 16, Traversal.BFS)
        other = build_vocab(["[TYPE]", "X"], ["[NULL]"])
        with pytest.raises(CorpusError):
            read_sequence_dump(path, other)

    def test_bad_header_and_line_name_the_dump(self, vocab, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text(json.dumps({"m": 16, "traversal": "bfs"}) + "\n")
        with pytest.raises(CorpusError, match=r"seqs\.txt:1: .*'vocab_hash'"):
            read_sequence_dump(path, vocab)
        with open(path, "w") as fh:
            write_sequence_dump(fh, [], vocab, 16, Traversal.BFS)
            fh.write("4 27 10\n\nabc 1 2\n")
        with pytest.raises(CorpusError, match=r"seqs\.txt:4: malformed sequence line"):
            read_sequence_dump(path, vocab)

    def test_strict_after_a_line_that_is_not_utf8(self, vocab, tmp_path):
        # the dump reader stays strict: the first bad line raises, whatever comes after it
        path = tmp_path / "seqs.txt"
        with open(path, "wb") as fh:
            fh.write(json.dumps({"m": 16, "traversal": "bfs", "vocab_hash": vocab.config_hash()}).encode() + b"\n")
            fh.write(b"4 27 10\n4 \xff\nabc\n")
        with pytest.raises(CorpusError, match=r"seqs\.txt:3: not UTF-8"):
            read_sequence_dump(path, vocab)
