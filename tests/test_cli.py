import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from testutil import FIG4_TOKENS

import hyspa
from hyspa.cli import run


# token lists a checkpoint may not hold: an empty one once loaded and then
# failed in numpy, and with [UNK] second every unknown token read the row of "a"
TOKEN_LISTS = {
    "empty token list": [],
    "[UNK] not first": ["a", "[UNK]"],
    "repeated token": ["[UNK]", "a", "a"],
}


def invoke(*argv):
    return run(list(argv))


def _tiny_checkpoint(path) -> None:
    """Save an untrained one-layer model with the default vocab to ``path``."""
    from hyspa.altseq_codec import Traversal
    from hyspa.data_io import default_vocab
    from hyspa.model import ExtractionModel, ModelConfig, TokenVocab, init_params

    vocab, token_vocab = default_vocab(), TokenVocab(tokens=("[UNK]", "a"))
    cfg = ModelConfig(d_m=16, layers=1, heads=2, m=16, dropout=0.0)
    ExtractionModel(cfg, init_params(cfg, vocab, token_vocab), vocab, token_vocab, {}, Traversal.BFS).save(path)


def run_module(*argv):
    """``python -m hyspa.cli ARGV`` in a child process that imports the
    same hyspa as the tests, installed or not."""
    src = str(Path(hyspa.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hyspa.cli", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.jsonl"
    assert invoke("synth", "--size", "60", "--seed", "3", "--out", str(train),
                  "--manifest", str(root / "manifest.json")) == 0
    return root, train


class TestCodecCommands:
    def test_roundtrip_ok(self, corpus):
        root, train = corpus
        assert invoke("roundtrip", "--data", str(train)) == 0
        assert invoke("roundtrip", "--data", str(train), "--traversal", "dfs") == 0

    def test_validate_ok(self, corpus):
        root, train = corpus
        assert invoke("validate", "--data", str(train)) == 0

    def test_encode_decode_pipeline(self, corpus):
        root, train = corpus
        seqs = root / "seqs.txt"
        decoded = root / "decoded.jsonl"
        assert invoke("encode", "--data", str(train), "--out", str(seqs)) == 0
        assert invoke("decode", "--seqs", str(seqs), "--out", str(decoded)) == 0
        lines = decoded.read_text().splitlines()
        assert len(lines) == 60

    def test_decode_checks_traversal_against_dump(self, corpus, capsys):
        # the dump's header fixes the traversal; a different --traversal is an error, not ignored
        root, train = corpus
        seqs = root / "seqs_bfs.txt"
        decoded = root / "decoded_bfs.jsonl"
        assert invoke("encode", "--data", str(train), "--out", str(seqs)) == 0
        capsys.readouterr()
        assert invoke("decode", "--seqs", str(seqs), "--traversal", "dfs", "--out", str(decoded)) == 1
        assert "error: --traversal dfs, but" in capsys.readouterr().err
        assert invoke("decode", "--seqs", str(seqs), "--traversal", "bfs", "--out", str(decoded)) == 0
        assert len(decoded.read_text().splitlines()) == 60

    def test_encode_fig4_prints_pinned_indices(self, corpus, tmp_path, capsys):
        record = {
            "tokens": list(FIG4_TOKENS),
            "entities": [
                {"start": 0, "end": 1, "type": "PER"},
                {"start": 4, "end": 5, "type": "GPE"},
            ],
            "relations": [{"head": 1, "tail": 0, "type": "PHYS"}],
        }
        data = tmp_path / "fig4.jsonl"
        data.write_text(json.dumps(record) + "\n")
        assert invoke("encode", "--data", str(data)) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert json.loads(header)["traversal"] == "bfs"
        nums = [int(x) for line in lines for x in line.split()]
        assert 19 in nums and 83 in nums and 10 in nums

    @pytest.mark.parametrize("traversal", ["bfs", "dfs"])
    def test_encode_stdout_decodes_as_the_out_dump(self, corpus, tmp_path, capsys, traversal):
        # without --out, encode prints the same dump, header included, that decode reads
        _, train = corpus
        dump, printed = tmp_path / "seqs.txt", tmp_path / "printed.txt"
        assert invoke("encode", "--data", str(train), "--traversal", traversal, "--out", str(dump)) == 0
        capsys.readouterr()
        assert invoke("encode", "--data", str(train), "--traversal", traversal) == 0
        printed.write_text(capsys.readouterr().out)
        assert printed.read_bytes() == dump.read_bytes()
        records = []
        for seqs in (dump, printed):
            assert invoke("decode", "--seqs", str(seqs)) == 0
            records.append(capsys.readouterr().out.splitlines())
        assert len(records[0]) == 60 and records[0] == records[1]

    def test_dfs_chain_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # a chain of one-token mentions between two good lines: DFS descends
        # once per mention, and every line is encoded, the chain too
        n = sys.getrecursionlimit() + 200
        chain = {
            "tokens": [f"w{i}" for i in range(n)],
            "entities": [{"start": i, "end": i + 1, "type": "PER"} for i in range(n)],
            "relations": [{"head": i, "tail": i + 1, "type": "PHYS"} for i in range(n - 1)],
        }
        good = {"tokens": ["a", "b"], "entities": [{"start": 0, "end": 1, "type": "PER"}], "relations": []}
        data, dump = tmp_path / "chain.jsonl", tmp_path / "seqs.txt"
        data.write_text("".join(json.dumps(record) + "\n" for record in (good, chain, good)))
        assert invoke("encode", "--data", str(data), "--traversal", "dfs", "--out", str(dump)) == 0
        header, *lines = dump.read_text().splitlines()
        assert json.loads(header)["traversal"] == "dfs" and len(lines) == 3
        capsys.readouterr()
        assert invoke("roundtrip", "--data", str(data), "--traversal", "dfs") == 0
        assert "3/3 ok" in capsys.readouterr().out

    @pytest.mark.parametrize("m", [1, 2])
    def test_synth_refuses_a_span_length_below_its_surfaces(self, tmp_path, capsys, m):
        # the entity pool's longest surface, "the red cross", is 3 tokens
        out, manifest = tmp_path / "synth.jsonl", tmp_path / "manifest.json"
        assert invoke("synth", "--size", "200", "--seed", "1", "--max-span-len", str(m),
                      "--out", str(out), "--manifest", str(manifest)) == 1
        err = capsys.readouterr().err
        assert err == f"error: maximum span length {m} is below the 3-token surface 'the red cross'\n"
        assert not out.exists() and not manifest.exists()

    def test_synth_at_its_longest_surface_validates(self, tmp_path, capsys):
        out, manifest = tmp_path / "synth.jsonl", tmp_path / "manifest.json"
        assert invoke("synth", "--size", "200", "--seed", "1", "--max-span-len", "3",
                      "--out", str(out), "--manifest", str(manifest)) == 0
        assert json.loads(manifest.read_text())["max_span_length"] == 3
        capsys.readouterr()
        assert invoke("validate", "--data", str(out), "--max-span-len", "3") == 0
        assert "validate: 200/200 ok" in capsys.readouterr().out

    def test_manifest_written(self, corpus):
        root, _ = corpus
        man = json.loads((root / "manifest.json").read_text())
        assert man["examples"] == 60

    def test_validate_bad_corpus(self, tmp_path, capsys):
        # every bad record is reported with its line number, not only the first
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"tokens": ["a"], "entities": [{"start": 0, "end": 5, "type": "PER"}], "relations": []}\n'
            '{"tokens": ["a"], "entities": [], "relations": []}\n'
            '{"tokens": 5}\n'
        )
        assert invoke("validate", "--data", str(bad)) == 1
        out = capsys.readouterr().out
        assert "bad.jsonl:1: invalid graph" in out
        assert "bad.jsonl:3: malformed record" in out
        assert "validate: 1/3 ok" in out

    @pytest.mark.parametrize("key", ["vocab_hash", "m", "traversal"])
    def test_decode_header_without_key(self, corpus, tmp_path, capsys, key):
        root, train = corpus
        seqs = tmp_path / "seqs.txt"
        assert invoke("encode", "--data", str(train), "--out", str(seqs)) == 0
        header, *lines = seqs.read_text().splitlines()
        meta = json.loads(header)
        del meta[key]
        seqs.write_text("\n".join([json.dumps(meta), *lines]) + "\n")
        capsys.readouterr()
        assert invoke("decode", "--seqs", str(seqs)) == 1
        err = capsys.readouterr().err
        assert f"error: {seqs}:1:" in err and repr(key) in err

    def test_decode_fails_one_line_at_a_time(self, corpus, tmp_path, capsys):
        # a malformed line and an undecodable sequence each fail alone, named by dump line
        root, train = corpus
        seqs = tmp_path / "seqs.txt"
        decoded = tmp_path / "decoded.jsonl"
        assert invoke("encode", "--data", str(train), "--out", str(seqs)) == 0
        header, *lines = seqs.read_text().splitlines()
        from hyspa.data_io import default_vocab

        null_root = f"{default_vocab().null_type_index} {default_vocab().sep_index}"
        lines[1] = "abc 1 2"
        lines[3] = lines[3].rsplit(" ", 1)[0]  # drops the closing [SEP]
        lines[5] = f"-5 {null_root}"  # once blamed on the first item
        lines[7] = f"0 {null_root}"  # once a graph over no tokens
        seqs.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        assert invoke("decode", "--seqs", str(seqs), "--out", str(decoded)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        assert err[0].startswith(f"{seqs}:3: malformed sequence line")
        assert err[1].startswith(f"{seqs}:5: sequence fails structural validation")
        assert err[2] == f"{seqs}:7: sequence line's n must be >= 1, got -5"
        assert err[3] == f"{seqs}:9: sequence line's n must be >= 1, got 0"
        assert len(decoded.read_text().splitlines()) == 56

    def test_decode_huge_n_needs_no_token_list(self, corpus, tmp_path, capsys):
        # a record of n tokens is written without building n of anything
        from hyspa.data_io import default_vocab

        root, train = corpus
        seqs = tmp_path / "seqs.txt"
        assert invoke("encode", "--data", str(train), "--out", str(seqs)) == 0
        vocab = default_vocab()
        header = seqs.read_text().splitlines()[0]
        seqs.write_text(f"{header}\n{2**62} {vocab.null_type_index} {vocab.sep_index}\n")
        capsys.readouterr()
        assert invoke("decode", "--seqs", str(seqs)) == 0
        out = capsys.readouterr().out
        assert out == json.dumps({"entities": [], "relations": [], "n": 2**62}) + "\n"


@st.composite
def dump_lines(draw, good):
    """One sequence dump line: a good one, a truncated one, one with mutated
    items, huge or negative integers, or arbitrary bytes."""
    line = draw(st.sampled_from(good))
    kind = draw(st.sampled_from(["good", "truncated", "mutated", "integers", "bytes"]))
    if kind == "truncated":
        return line[:draw(st.integers(0, len(line)))]
    if kind == "mutated":
        values = line.split()
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(values)))
            new = str(draw(st.one_of(st.integers(-3, 200), st.integers(-2**70, 2**70)))).encode()
            values[at:at + draw(st.integers(0, 1))] = [new] * draw(st.integers(0, 1))
        return b" ".join(values)
    if kind == "integers":
        return " ".join(map(str, draw(st.lists(st.integers(-2**70, 2**70), max_size=8)))).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=24)).replace(b"\n", b"")
    return line


class TestDecodeDump:
    @pytest.fixture(scope="class")
    def dump(self, corpus, tmp_path_factory):
        """A dump's header and good lines, and the record decode writes for each."""
        root = tmp_path_factory.mktemp("dump")
        seqs, decoded = root / "seqs.txt", root / "decoded.jsonl"
        assert invoke("encode", "--data", str(corpus[1]), "--traversal", "dfs", "--out", str(seqs)) == 0
        assert invoke("decode", "--seqs", str(seqs), "--out", str(decoded)) == 0
        header, *good = seqs.read_bytes().splitlines()
        return root, header, dict(zip(good, decoded.read_text().splitlines()))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_generated_lines_fail_alone(self, dump, data):
        # decode exits 0 or 1 and never with a traceback, names PATH:LINENO in
        # every failure, and still writes every good line
        from hyspa.altseq_codec import SequenceDecodeError, decode_sequence
        from hyspa.data_io import CorpusError, default_vocab, parse_sequence_line, read_dump_header

        root, header, known = dump
        lines = data.draw(st.lists(dump_lines(sorted(known)), min_size=1, max_size=8), label="lines")
        seqs, decoded = root / "fuzz.txt", root / "fuzz.jsonl"
        seqs.write_bytes(b"\n".join([header, *lines]) + b"\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = invoke("decode", "--seqs", str(seqs), "--out", str(decoded))
        vocab = default_vocab()
        m, traversal = read_dump_header(seqs, vocab)
        expect = {}  # line number -> the record written for it ("" if not known), or None if it fails
        for lineno, raw in enumerate(lines, start=2):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                expect[lineno] = None  # fails alone, and the lines after it still decode
                continue
            if text.strip():
                try:
                    decode_sequence(parse_sequence_line(seqs, lineno, text, vocab, m, traversal))
                    expect[lineno] = known.get(raw, "")
                except (CorpusError, SequenceDecodeError):
                    expect[lineno] = None
        messages = err.getvalue().splitlines()
        named = [re.match(rf"(error: )?{re.escape(str(seqs))}:(\d+): ", msg) for msg in messages]
        assert "Traceback" not in err.getvalue() and all(named), messages
        assert [int(match[2]) for match in named] == [k for k, v in expect.items() if v is None]
        assert code == (1 if messages else 0)
        written, want = decoded.read_text().splitlines(), [v for v in expect.values() if v is not None]
        assert len(written) == len(want)
        assert all(got == record for got, record in zip(written, want) if record)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = run_module("roundtrip", "--no-such-flag")
        assert proc.returncode == 2
        assert b"usage" in proc.stderr.lower()

    def test_unknown_subcommand_exits_2(self):
        proc = run_module("frobnicate")
        assert proc.returncode == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert invoke("roundtrip", "--data", str(tmp_path / "nope.jsonl")) == 1

    @pytest.mark.parametrize("argv", [
        ("synth", "--out", "x.jsonl", "--traversal", "dfs"),
        ("encode", "--data", "x.jsonl", "--seed", "1"),
        ("decode", "--seqs", "x.txt", "--max-span-len", "8"),
        ("decode", "--seqs", "x.txt", "--seed", "1"),
        ("roundtrip", "--data", "x.jsonl", "--seed", "1"),
        ("validate", "--data", "x.jsonl", "--traversal", "dfs"),
        ("validate", "--data", "x.jsonl", "--seed", "1"),
        ("gradcheck", "--dropout", "0.1"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_is_a_usage_error(self, argv):
        # a subcommand accepts only the flags its handler reads
        with pytest.raises(SystemExit) as exc:
            invoke(*argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("extract", "--max-len", "0"),
        ("extract", "--max-len", "15"),
        ("extract", "--beam", "0"),
        ("extract", "--length-penalty", "0"),
        ("eval", "--beam", "0"),
        ("eval", "--limit", "0"),
        ("eval", "--length-penalty", "-1"),
    ], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_out_of_range_decode_flag_is_a_usage_error(self, argv, capsys):
        # a decode flag out of range fails when parsed, naming the flag
        source = "--input" if argv[0] == "extract" else "--data"
        with pytest.raises(SystemExit) as exc:
            invoke(argv[0], "--model", "m.npz", source, "x.txt", *argv[1:])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "0"), ("--batch-examples", "0"), ("--batch-examples", "-2"),
        ("--warmup", "0"), ("--eval-every", "-1"),
        ("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
        ("--clip", "-1"), ("--clip", "0"), ("--weight-decay", "-5"), ("--weight-decay", "nan"),
        ("--label-smoothing", "1.0"), ("--label-smoothing", "-0.1"), ("--dropout", "1"), ("--dropout", "nan"),
        ("--stop-em", "1.5"), ("--stop-em", "-0.5"), ("--stop-em", "nan"),
    ])
    def test_out_of_range_train_flag_is_a_usage_error(self, flag, value, capsys):
        # --steps 0 once saved an untrained checkpoint, --warmup 0 trained at
        # learning rate 0, --batch-examples 0 failed naming no flag, --lr -1
        # and --clip -1 trained and saved, and --label-smoothing 1.0 failed
        # naming no flag
        with pytest.raises(SystemExit) as exc:
            invoke("train", "--data", "x.jsonl", "--out", "m.npz", flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("synth", "--out", "x.jsonl", "--size", "-2"),
        ("synth", "--out", "x.jsonl", "--size", "0"),
        ("synth", "--out", "x.jsonl", "--max-span-len", "0"),
        ("synth", "--out", "x.jsonl", "--seed", "-1"),
        ("encode", "--data", "x.jsonl", "--max-span-len", "-1"),
        ("gradcheck", "--examples", "0"),
        ("gradcheck", "--coords", "0"),
        ("gradcheck", "--tolerance", "0"),
        ("gradcheck", "--tolerance", "nan"),
        ("gradcheck", "--heads", "0"),
        ("gradcheck", "--d-model", "0"),
        ("gradcheck", "--layers", "-1"),
        ("train", "--data", "x.jsonl", "--out", "m.npz", "--heads", "0"),
        ("train", "--data", "x.jsonl", "--out", "m.npz", "--heads", "-2"),
        ("train", "--data", "x.jsonl", "--out", "m.npz", "--d-model", "1"),
        ("train", "--data", "x.jsonl", "--out", "m.npz", "--max-span-len", "0"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        # --heads 0 once raised ZeroDivisionError, --d-model 0 a numpy reshape
        # error, --seed -1 numpy's "expected non-negative integer", and synth
        # --size -2 wrote an empty corpus and exited 0
        with pytest.raises(SystemExit) as exc:
            invoke(*argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, needs", [
        ((), "--dev"), (("--dev", "x.jsonl", "--eval-every", "0"), "--eval-every"),
    ], ids=["no dev", "eval-every 0"])
    def test_stop_em_where_it_never_acts_is_a_usage_error(self, extra, needs, capsys):
        # without a dev evaluation --stop-em was parsed and never read
        with pytest.raises(SystemExit) as exc:
            invoke("train", "--data", "x.jsonl", "--out", "m.npz", "--stop-em", "0.5", *extra)
        assert exc.value.code == 2
        assert f"error: --stop-em needs {needs}" in capsys.readouterr().err

    def test_every_flag_has_a_reader(self):
        # each subcommand's flags are exactly the args.X names its handler reads
        # (vocab through _load_vocab_arg)
        import argparse
        import ast
        import inspect

        import hyspa.cli as cli

        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._COMMANDS)
        for name, parser in sub.choices.items():
            source = inspect.getsource(cli._COMMANDS[name])
            read = {
                node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
            }
            if "_load_vocab_arg(args)" in source:
                read.add("vocab")
            flags = {action.dest for action in parser._actions if action.dest != "help"}
            assert flags == read, name

    def test_one_parser_serves_every_run(self):
        import hyspa.cli as cli

        assert cli._build_parser() is cli._build_parser()

    def test_a_flag_does_not_carry_into_the_next_run(self, corpus, tmp_path):
        # runs share one parser: a plain encode after encode --traversal dfs writes BFS
        _, train = corpus
        dfs, plain = tmp_path / "dfs.txt", tmp_path / "plain.txt"
        assert invoke("encode", "--data", str(train), "--traversal", "dfs", "--out", str(dfs)) == 0
        assert invoke("encode", "--data", str(train), "--out", str(plain)) == 0
        assert json.loads(dfs.read_text().split("\n", 1)[0])["traversal"] == "dfs"
        assert json.loads(plain.read_text().split("\n", 1)[0])["traversal"] == "bfs"

    def test_a_usage_error_leaves_the_next_run_unaffected(self, corpus, tmp_path, capsys):
        _, train = corpus
        before, after = tmp_path / "before.txt", tmp_path / "after.txt"
        assert invoke("encode", "--data", str(train), "--out", str(before)) == 0
        with pytest.raises(SystemExit) as exc:
            invoke("encode", "--data", str(train), "--max-span-len", "0", "--traversal", "dfs")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            invoke("encode", "--traversal", "dfs")  # --data missing
        assert exc.value.code == 2
        capsys.readouterr()
        assert invoke("encode", "--data", str(train), "--out", str(after)) == 0
        assert after.read_bytes() == before.read_bytes()


# a train command line of one small step, to which --data and --out are added
TRAIN_ONE_STEP = ("train", "--steps", "1", "--d-model", "16", "--layers", "1", "--heads", "2", "--eval-every", "0")


class TestModelCommands:
    def test_gradcheck_passes(self):
        assert invoke("gradcheck", "--examples", "2", "--coords", "2", "--seed", "1") == 0

    def test_train_eval_extract(self, corpus, tmp_path):
        root, train = corpus
        ckpt = tmp_path / "model.npz"
        rc = invoke(
            "train", "--data", str(train), "--steps", "120", "--lr", "2e-3",
            "--warmup", "40", "--batch-examples", "4", "--eval-every", "0",
            "--out", str(ckpt),
        )
        assert rc == 0
        assert ckpt.exists()
        assert invoke("eval", "--model", str(ckpt), "--data", str(train), "--limit", "8") == 0
        sents = tmp_path / "sents.txt"
        sents.write_text("[CLS] alice works for acme .\n")
        out = tmp_path / "extracted.jsonl"
        assert invoke(
            "extract", "--model", str(ckpt), "--input", str(sents), "--out", str(out)
        ) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["tokens"][0] == "[CLS]"

    def test_train_dfs_traversal(self, corpus, tmp_path):
        root, train = corpus
        ckpt = tmp_path / "dfs.npz"
        rc = invoke(
            "train", "--data", str(train), "--traversal", "dfs", "--steps", "30",
            "--lr", "1e-3", "--warmup", "10", "--batch-examples", "4",
            "--eval-every", "0", "--out", str(ckpt),
        )
        assert rc == 0
        from hyspa.altseq_codec import Traversal
        from hyspa.model import ExtractionModel

        loaded = ExtractionModel.load(ckpt)
        assert loaded.traversal is Traversal.DFS
        assert invoke("eval", "--model", str(ckpt), "--data", str(train), "--limit", "5") == 0

    def test_train_writes_exactly_out(self, corpus, tmp_path, capsys):
        # np.savez appended .npz: "--out model" wrote model.npz, printed
        # "saved checkpoint to model", and "eval --model model" then failed
        _, train = corpus
        ckpt = tmp_path / "model"
        assert invoke(*TRAIN_ONE_STEP, "--data", str(train), "--out", str(ckpt)) == 0
        assert f"saved checkpoint to {ckpt}\n" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [ckpt]
        assert invoke("eval", "--model", str(ckpt), "--data", str(train), "--limit", "1") == 0

    @pytest.mark.parametrize("out", ["nodir/model.npz", "adir"])
    def test_train_out_that_is_no_file_path_fails_before_training(self, corpus, tmp_path, capsys, monkeypatch, out):
        # both once ran every step and failed only when they saved
        import hyspa.cli

        _, train = corpus
        (tmp_path / "adir").mkdir()
        monkeypatch.setattr(hyspa.cli, "fit", lambda *args, **kwargs: pytest.fail("trained"))
        out = tmp_path / out
        assert invoke(*TRAIN_ONE_STEP, "--data", str(train), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: --out {out}: is a directory, or its directory does not exist\n"
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "adir"]

    def test_extract_fails_per_line(self, tmp_path, capsys, monkeypatch):
        # every line decodes with the one engine the command builds
        import hyspa.cli
        from hyspa.altseq_codec import Traversal
        from hyspa.data_io import default_vocab
        from hyspa.model import Engine, ExtractionModel, ModelConfig, TokenVocab, init_params

        vocab = default_vocab()
        token_vocab = TokenVocab(tokens=("[UNK]", "a", "b"))
        cfg = ModelConfig(d_m=16, layers=1, heads=2, m=16, dropout=0.0, max_tokens=8)
        params = init_params(cfg, vocab, token_vocab, seed=0)
        ckpt = tmp_path / "tiny.npz"
        ExtractionModel(cfg, params, vocab, token_vocab, {}, Traversal.BFS).save(ckpt)
        lines = ["a b a", " ".join(["a"] * 20), "b a b b"]
        sents = tmp_path / "sents.txt"
        sents.write_text("\n".join(lines) + "\n")
        out = tmp_path / "extracted.jsonl"
        built = []
        monkeypatch.setattr(hyspa.cli, "Engine", lambda model: built.append(model) or Engine(model))
        monkeypatch.setattr(ExtractionModel, "open_session", None)  # no engine per line
        assert invoke("extract", "--model", str(ckpt), "--input", str(sents), "--out", str(out)) == 1
        assert len(built) == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["tokens"] for r in records] == [line.split() for line in lines]
        assert "max_tokens" in records[1]["diagnostics"]
        assert records[1]["entities"] == records[1]["relations"] == []
        assert "diagnostics" not in records[0] and "diagnostics" not in records[2]
        assert "1/3 lines failed" in capsys.readouterr().err

    def test_eval_fails_per_record(self, tmp_path, capsys):
        from hyspa.altseq_codec import Traversal
        from hyspa.data_io import default_vocab
        from hyspa.model import ExtractionModel, ModelConfig, TokenVocab, init_params

        vocab = default_vocab()
        token_vocab = TokenVocab(tokens=("[UNK]", "a", "b"))
        cfg = ModelConfig(d_m=16, layers=1, heads=2, m=16, dropout=0.0, max_tokens=8)
        params = init_params(cfg, vocab, token_vocab, seed=0)
        ckpt = tmp_path / "tiny.npz"
        ExtractionModel(cfg, params, vocab, token_vocab, {}, Traversal.BFS).save(ckpt)
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"tokens": tokens, "entities": [], "relations": []}) + "\n"
            for tokens in (["a", "b", "a"], ["a"] * 20, ["b", "a"])
        ))
        assert invoke("eval", "--model", str(ckpt), "--data", str(data)) == 1
        res = json.loads(capsys.readouterr().out)
        assert res["count"] == 3
        assert [f["index"] for f in res["failed"]] == [1]
        assert "max_tokens" in res["failed"][0]["error"]
        assert 0.0 <= res["exact_match"] <= 2 / 3

    def test_eval_rejects_checkpoint_flags(self, corpus, tmp_path):
        # vocab, traversal and m come from the checkpoint, so eval has no flags for them
        _, train = corpus
        with pytest.raises(SystemExit) as exc:
            invoke("eval", "--model", str(tmp_path / "model.npz"), "--data", str(train), "--traversal", "dfs")
        assert exc.value.code == 2

    @pytest.mark.parametrize("damage", [
        "no meta", "no meta key", "unknown config field", "bad traversal", "edge_freq list",
        "edge_freq value", "non-string token", "empty", "truncated", "text", *TOKEN_LISTS,
    ])
    def test_malformed_checkpoint_fails_with_message(self, corpus, tmp_path, capsys, damage):
        import numpy as np

        _, train = corpus
        ckpt = tmp_path / "model.npz"
        _tiny_checkpoint(ckpt)
        sents = tmp_path / "sents.txt"
        sents.write_text("a a\n")
        if damage in ("empty", "truncated", "text"):
            raw = ckpt.read_bytes()
            ckpt.write_bytes({"empty": b"", "truncated": raw[: len(raw) // 2], "text": b"not a checkpoint\n"}[damage])
            assert invoke("extract", "--model", str(ckpt), "--input", str(sents)) == 1
            assert f"error: checkpoint {ckpt}: cannot be read" in capsys.readouterr().err
            assert invoke("eval", "--model", str(ckpt), "--data", str(train)) == 1
            assert f"error: checkpoint {ckpt}: cannot be read" in capsys.readouterr().err
            return
        with np.load(ckpt) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        if damage == "no meta key":
            del meta["edge_freq"]
        elif damage == "unknown config field":
            meta["cfg"]["width"] = 3
        elif damage == "bad traversal":
            meta["traversal"] = "zigzag"
        elif damage == "edge_freq list":
            meta["edge_freq"] = [1]
        elif damage == "edge_freq value":
            # eval's first record holds a relation, whose canonical order reads edge_freq
            assert json.loads(train.read_text().splitlines()[0])["relations"]
            meta["edge_freq"] = {"1": "x", "2": None}
        elif damage == "non-string token":  # a list once reached the token index unchecked
            meta["tokens"] = ["[UNK]", ["a"]]
        elif damage in TOKEN_LISTS:
            meta["tokens"] = TOKEN_LISTS[damage]
        if damage != "no meta":
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        assert invoke("eval", "--model", str(ckpt), "--data", str(train), "--limit", "1") == 1
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt}" in err
        if damage == "edge_freq value":
            assert "edge_freq value 'x' is not an integer" in err
        if damage == "non-string token":
            assert "tokens must be a list of strings" in err
        if damage in TOKEN_LISTS:
            assert f"error: checkpoint {ckpt}: tokens must be [UNK] followed by distinct tokens" in err
            assert invoke("extract", "--model", str(ckpt), "--input", str(sents)) == 1
            err = capsys.readouterr().err
            assert f"error: checkpoint {ckpt}: tokens must be [UNK] followed by distinct tokens" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_non_finite_parameter_is_refused(self, corpus, tmp_path, capsys, command, value):
        # a NaN weight used to reach beam search, where every hypothesis died,
        # and end in an IndexError with no per-line report
        import numpy as np

        _, train = corpus
        ckpt = tmp_path / "model.npz"
        _tiny_checkpoint(ckpt)
        with np.load(ckpt) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["param/head_w5"][0, 0] = value
        np.savez(ckpt, **arrays)
        sents = tmp_path / "sents.txt"
        sents.write_text("a a\n")
        source = {"extract": ["--input", str(sents)], "eval": ["--data", str(train), "--limit", "1"]}[command]
        assert invoke(command, "--model", str(ckpt), *source) == 1
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt}: parameter head_w5 holds non-finite values" in err
        assert "Traceback" not in err


# what a malformed file holds, made from a good file's bytes
MALFORMED = {
    "empty": lambda good: b"",
    "binary": lambda good: bytes(range(256)) * 4,
    "truncated": lambda good: good[: len(good) // 2],
    "json list": lambda good: b"[1, 2, 3]\n",
    "json object": lambda good: b'{"a": 1}\n',
}

# every flag that reads a file: the good file it takes, and a command line with BAD in its place
FILE_FLAGS = {
    "roundtrip --data": ("data", ["roundtrip", "--data", "BAD"]),
    "decode --seqs": ("seqs", ["decode", "--seqs", "BAD"]),
    "eval --model": ("model", ["eval", "--model", "BAD", "--data", "data"]),
    "extract --model": ("model", ["extract", "--model", "BAD", "--input", "input"]),
    "extract --input": ("input", ["extract", "--model", "model", "--input", "BAD"]),
    "validate --vocab": ("vocab", ["validate", "--vocab", "BAD", "--data", "data"]),
    "encode --freq-from": ("data", ["encode", "--data", "data", "--freq-from", "BAD"]),
    "train --dev": ("data", [
        "train", "--data", "data", "--dev", "BAD", "--steps", "1", "--d-model", "16",
        "--layers", "1", "--heads", "2", "--out", "out",
    ]),
}

# content these flags accept: an empty corpus, and any text as extraction input
ACCEPTED = {
    ("roundtrip --data", "empty"), ("encode --freq-from", "empty"),
    ("extract --input", "empty"), ("extract --input", "truncated"),
    ("extract --input", "json list"), ("extract --input", "json object"),
}


# every flag that reads a text file, with a command line that passes it BAD
TEXT_FLAGS = {
    **{flag: FILE_FLAGS[flag] for flag in (
        "roundtrip --data", "decode --seqs", "extract --input", "encode --freq-from", "train --dev",
    )},
    "train --data": ("data", [
        "train", "--data", "BAD", "--steps", "1", "--d-model", "16", "--layers", "1", "--heads", "2",
        "--out", "out",
    ]),
    "validate --data": ("data", ["validate", "--data", "BAD"]),
    "encode --data": ("data", ["encode", "--data", "BAD"]),
    "eval --data": ("data", ["eval", "--model", "model", "--data", "BAD"]),
}


@pytest.fixture(scope="module")
def good_files(corpus):
    from hyspa.data_io import DEFAULT_EDGE_TYPES, DEFAULT_NODE_TYPES

    root, train = corpus
    files = {"data": train, "seqs": root / "good.seqs", "model": root / "good.npz",
             "input": root / "good.txt", "vocab": root / "good.vocab.json"}
    assert invoke("encode", "--data", str(train), "--out", str(files["seqs"])) == 0
    _tiny_checkpoint(files["model"])
    files["input"].write_text("[CLS] alice works for acme .\nit rained all day .\n")
    files["vocab"].write_text(json.dumps(
        {"edge_types": list(DEFAULT_EDGE_TYPES), "node_types": list(DEFAULT_NODE_TYPES)}
    ))
    return files


@pytest.fixture(scope="module")
def small_files(good_files, tmp_path_factory):
    """The good files, with a corpus of the first six records and their dump:
    inputs small enough to run a command on many times."""
    root = tmp_path_factory.mktemp("small")
    files = {**good_files, "data": root / "small.jsonl", "seqs": root / "small.seqs"}
    files["data"].write_bytes(b"".join(good_files["data"].read_bytes().splitlines(keepends=True)[:6]))
    assert invoke("encode", "--data", str(files["data"]), "--out", str(files["seqs"])) == 0
    return files


# the flags that fit something to the whole corpus, so that its first bad record fails the command
STRICT_FLAGS = {"train --data", "train --dev", "encode --freq-from"}


def run_captured(argv) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = invoke(*argv)
    return code, out.getvalue(), err.getvalue()


def written_for_good_lines(flag, out, path):
    """What a lenient command printed for the good lines of ``path``: its
    standard output without its reports and records of bad lines."""
    command = flag.split()[0]
    if command == "validate":
        return re.fullmatch(r"validate: (\d+)/\d+ ok", out.splitlines()[-1])[1]
    if command == "eval" and out:
        res = json.loads(out)
        return {**res, "failed": [f for f in res["failed"] if "line" not in f]}
    if command == "extract":
        bad = f"failed: {path}:"
        return [line for line in out.splitlines() if not json.loads(line).get("diagnostics", "").startswith(bad)]
    return out


def check_fails_alone(flag, paths, bad_lines) -> tuple[str, str]:
    """Run ``flag``'s command with paths["BAD"], whose bad lines are
    ``bad_lines``, and check the per-record contract.  A strict flag fails at
    the first bad line, names it and writes nothing.  A lenient one reports
    each bad line once as PATH:LINE and writes for the good lines what a run
    on paths["GOOD"], the good lines alone, writes.  Returns what the run on
    paths["BAD"] printed to standard output and to standard error."""
    argv = TEXT_FLAGS[flag][1]
    bad = paths["BAD"]
    code, out, err = run_captured([str(paths.get(arg, arg)) for arg in argv])
    assert code in (0, 1) and "Traceback" not in err
    if flag in STRICT_FLAGS:
        if bad_lines:
            assert code == 1
            assert err.startswith(f"error: {bad}:{bad_lines[0]}: ") and err.count("\n") == 1, err
            assert out == "" and not paths["out"].exists()
        return out, err
    reports = out if flag.startswith("validate") else err
    assert [int(m[1]) for m in re.finditer(rf"^{re.escape(str(bad))}:(\d+): ", reports, re.M)] == bad_lines, reports
    others = [line for line in err.splitlines() if not line.startswith(f"{bad}:")]
    assert all(re.fullmatch(rf"extract: {len(bad_lines)}/\d+ lines failed|error: {re.escape(str(bad))}: no examples", line)
               for line in others), err
    clean = {**paths, "BAD": paths["GOOD"]}
    clean_code, clean_out, _ = run_captured([str(clean.get(arg, arg)) for arg in argv])
    assert code == (1 if bad_lines else clean_code)
    assert written_for_good_lines(flag, out, bad) == written_for_good_lines(flag, clean_out, paths["GOOD"])
    return out, err


GOOD_RECORD = '{"tokens": ["a", "b"], "entities": [{"start": 0, "end": 1, "type": "PER"}], "relations": []}'
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can recurse

# records whose fields have the wrong JSON type, and the message naming the field
MISTYPED = {
    "float offsets": (
        '{"tokens": ["a", "b"], "entities": [{"start": 0.0, "end": 1.0, "type": "PER"}], "relations": []}',
        "start must be an integer, got 0.0",
    ),
    "string tokens": ('{"tokens": "John lives", "entities": [], "relations": []}',
                      "tokens must be a list of strings, got 'John lives'"),
    "number token": ('{"tokens": ["a", 3], "entities": [], "relations": []}',
                     "tokens must be a list of strings, got ['a', 3]"),
    "bool offsets": (
        '{"tokens": ["a", "b"], "entities": [{"start": false, "end": true, "type": "PER"}], "relations": []}',
        "start must be an integer, got False",
    ),
    "bool relation refs": (
        '{"tokens": ["a", "b"], "entities": [{"start": 0, "end": 1, "type": "PER"}, '
        '{"start": 1, "end": 2, "type": "ORG"}], "relations": [{"head": true, "tail": false, "type": "PHYS"}]}',
        "head must be an integer, got True",
    ),
    "empty tokens": ('{"tokens": [], "entities": [], "relations": []}', "tokens must hold at least one token, got []"),
    "list type": ('{"tokens": ["a", "b"], "entities": [{"start": 0, "end": 1, "type": ["PER"]}], "relations": []}',
                  "type must be a string, got ['PER']"),
    "object entities": ('{"tokens": ["a", "b"], "entities": {"start": 0}, "relations": []}',
                        "entities must be a list of objects, got {'start': 0}"),
    "list record": ('["a"]', "record must be an object, got ['a']"),
    "list entity": ('{"tokens": ["a", "b"], "entities": [[0, 1, "PER"]], "relations": []}',
                    "entities must be a list of objects, got [[0, 1, 'PER']]"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("command", ["validate", "roundtrip", "encode"])
    @pytest.mark.parametrize("kind", MISTYPED)
    def test_mistyped_field_is_a_malformed_record(self, tmp_path, capsys, command, kind):
        # each once passed validate and roundtrip, or failed there without naming
        # the field; float offsets and empty tokens made encode write a dump line
        # ("2 19.0 0 11 10", "0 18 10") that decode refused
        # now the bad record fails alone: encode and roundtrip report it and
        # write for the good record what a run on it alone writes
        line, message = MISTYPED[kind]
        data, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
        data.write_text(f"{GOOD_RECORD}\n{line}\n")
        good.write_text(f"{GOOD_RECORD}\n")
        out, clean = tmp_path / "seqs.txt", tmp_path / "clean.txt"

        def argv(path, dump):
            return ["encode", "--data", str(path), "--out", str(dump)] if command == "encode" else [command, "--data", str(path)]

        assert invoke(*argv(data, out)) == 1
        captured = capsys.readouterr()
        if command == "validate":
            assert f"{data}:2: malformed record: {message}" in captured.out
            assert "validate: 1/2 ok" in captured.out
            assert not out.exists()
            return
        assert captured.err == f"{data}:2: malformed record: {message}\n"
        assert invoke(*argv(good, clean)) == 0
        assert captured.out.replace(str(out), "OUT") == capsys.readouterr().out.replace(str(clean), "OUT")
        assert command == "roundtrip" or out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("kind", MALFORMED)
    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_bad_file_fails_with_message(self, good_files, tmp_path, capsys, flag, kind):
        # a file that cannot be read exits 1 with an error or per-line message, never a traceback
        good, argv = FILE_FLAGS[flag]
        bad = tmp_path / "bad"
        bad.write_bytes(MALFORMED[kind](good_files[good].read_bytes()))
        paths = {**good_files, "BAD": bad, "out": tmp_path / "out.npz"}
        code = invoke(*(str(paths.get(arg, arg)) for arg in argv))
        captured = capsys.readouterr()
        err = captured.err
        assert "Traceback" not in err
        if (flag, kind) in ACCEPTED:
            assert code == 0
        else:
            assert code == 1
            assert "error: " in err or f"{bad}:" in err
        if (flag, kind) == ("extract --input", "binary"):
            # a line that is not UTF-8 no longer ends the file: each is reported
            # once and gets an empty record, so the output keeps one record per line
            lines = [(n, raw) for n, raw in enumerate(bad.read_bytes().split(b"\n"), start=1) if raw.strip()]
            not_utf8 = [n for n, raw in lines if not raw.isascii()]
            records = [json.loads(line) for line in captured.out.splitlines()]
            assert len(records) == len(lines) == 5 and len(not_utf8) == 4
            assert [n for (n, _), r in zip(lines, records) if "diagnostics" in r] == not_utf8
            for n in not_utf8:
                assert err.count(f"{bad}:{n}: not UTF-8: ") == 1
            assert f"extract: 4/5 lines failed" in err

    @pytest.mark.parametrize("flag", TEXT_FLAGS)
    def test_not_utf8_names_file_and_line(self, small_files, tmp_path, flag):
        # a strict flag fails with "error: PATH:2: not UTF-8"; a lenient one
        # reports the line as "PATH:2: not UTF-8", goes on with the others and exits 1
        lines = small_files[TEXT_FLAGS[flag][0]].read_bytes().split(b"\n")
        paths = {**small_files, "GOOD": tmp_path / "good", "BAD": tmp_path / "bad", "out": tmp_path / "out.npz"}
        paths["GOOD"].write_bytes(b"\n".join(lines[:1] + lines[2:]))
        lines[1] = lines[1][:1] + b"\x80" + lines[1][1:]  # one byte no UTF-8 text holds
        paths["BAD"].write_bytes(b"\n".join(lines))
        out, err = check_fails_alone(flag, paths, [2])
        reports = out if flag.startswith("validate") else err
        assert reports.count(f"{paths['BAD']}:2: not UTF-8: ") == 1
        assert (f"error: {paths['BAD']}:2:" in err) == (flag in STRICT_FLAGS)

    def test_train_on_empty_corpus_names_the_path(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("\n")
        argv = TEXT_FLAGS["train --data"][1]
        paths = {"BAD": data, "out": tmp_path / "out.npz"}
        assert invoke(*(str(paths.get(arg, arg)) for arg in argv)) == 1
        assert f"error: {data}: no training examples" in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()

    def test_train_on_empty_dev_corpus_names_the_path(self, good_files, tmp_path, capsys):
        # an empty dev corpus once printed "dev em 0.000" at every evaluation
        dev = tmp_path / "empty.jsonl"
        dev.write_text("\n")
        paths = {**good_files, "BAD": dev, "out": tmp_path / "out.npz"}
        assert invoke(*(str(paths.get(arg, arg)) for arg in FILE_FLAGS["train --dev"][1])) == 1
        assert f"error: {dev}: no dev examples" in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()

    @pytest.mark.parametrize("content", [b"", b"\n", b'{"tokens": 5}\n\xff\n'], ids=["empty", "blank", "only bad records"])
    def test_eval_with_no_good_record_fails(self, good_files, tmp_path, capsys, content):
        # eval once printed exact_match 0.0 over count 0 and exited 0
        data = tmp_path / "data.jsonl"
        data.write_bytes(content)
        assert invoke("eval", "--model", str(good_files["model"]), "--data", str(data)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        *reports, last = captured.err.splitlines()
        assert last == f"error: {data}: no examples"
        assert [line.split(": ")[:2] for line in reports] == (
            [[f"{data}:1", "malformed record"], [f"{data}:2", "not UTF-8"]] if content.strip() else []
        )

    @pytest.mark.parametrize("m", [0, -3, True, 2.0, "2"])
    def test_decode_header_m_must_be_a_positive_integer(self, good_files, tmp_path, capsys, m):
        header, rest = good_files["seqs"].read_text().split("\n", 1)
        seqs = tmp_path / "seqs.txt"
        seqs.write_text(json.dumps({**json.loads(header), "m": m}) + "\n" + rest)
        assert invoke("decode", "--seqs", str(seqs)) == 1
        assert f"error: {seqs}:1: sequence dump header's m is not an integer >= 1" in capsys.readouterr().err

    def test_deeply_nested_record_fails_alone(self, tmp_path, capsys):
        # json.loads raises RecursionError on it; validate printed a traceback
        # and exited 1 without its summary
        data = tmp_path / "deep.jsonl"
        data.write_text(f"{GOOD_RECORD}\n{DEEP_JSON}\n{GOOD_RECORD}\n")
        assert invoke("validate", "--data", str(data)) == 1
        out = capsys.readouterr().out
        assert f"{data}:2: malformed record: maximum recursion depth exceeded" in out
        assert "validate: 2/3 ok" in out

    def test_deeply_nested_vocab_names_the_file(self, good_files, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(DEEP_JSON)
        assert invoke("validate", "--vocab", str(vocab), "--data", str(good_files["data"])) == 1
        assert f"error: vocab {vocab}: maximum recursion depth exceeded" in capsys.readouterr().err

    def test_deeply_nested_dump_header_names_the_dump(self, good_files, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text(DEEP_JSON + "\n" + good_files["seqs"].read_text().split("\n", 1)[1])
        assert invoke("decode", "--seqs", str(seqs)) == 1
        assert f"error: {seqs}:1: malformed sequence dump header: maximum recursion depth" in capsys.readouterr().err

    def test_deeply_nested_checkpoint_meta_names_the_checkpoint(self, good_files, tmp_path, capsys):
        import numpy as np

        ckpt = tmp_path / "model.npz"
        with np.load(good_files["model"]) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["__meta__"] = np.frombuffer(DEEP_JSON.encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        assert invoke("extract", "--model", str(ckpt), "--input", str(good_files["input"])) == 1
        assert f"error: checkpoint {ckpt}: cannot be read: maximum recursion depth" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        ["[TYPE]"], {"edge_types": ["[TYPE]"]}, {"edge_types": "[TYPE]", "node_types": "[NULL]"},
        {"edge_types": ["[TYPE]"], "node_types": [None]},
    ], ids=["list", "no node_types", "strings", "non-string name"])
    def test_vocab_must_hold_two_lists_of_strings(self, good_files, tmp_path, capsys, doc):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(doc))
        assert invoke("validate", "--vocab", str(vocab), "--data", str(good_files["data"])) == 1
        assert f"error: vocab {vocab}: not an object with lists of strings" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"edge_types": ["[TYPE]", "[TYPE]"], "node_types": ["[NULL]"]}, "duplicate type name: '[TYPE]'"),
        ({"edge_types": ["[SEP]", "[TYPE]"], "node_types": ["[NULL]"]}, "duplicate type name: '[SEP]'"),
        ({"edge_types": ["R"], "node_types": ["[NULL]"]}, "edge types must include [TYPE]"),
        ({"edge_types": ["[TYPE]"], "node_types": ["X"]}, "node types must include [NULL]"),
        ({"edge_types": [], "node_types": ["[NULL]"]}, "edge types must include [TYPE]"),
    ], ids=["duplicate", "virtual name", "no [TYPE]", "no [NULL]", "empty list"])
    def test_vocab_build_errors_name_the_file(self, good_files, tmp_path, capsys, doc, message):
        # these printed "error: duplicate type name: '[TYPE]'" and the like, with no path
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(doc))
        assert invoke("validate", "--vocab", str(vocab), "--data", str(good_files["data"])) == 1
        assert capsys.readouterr().err == f"error: vocab {vocab}: {message}\n"


# bad lines for each kind of file, put at its start, in its middle and at its
# end: for a corpus malformed JSON, an invalid graph and bytes that are not
# UTF-8; for a dump a malformed line, a sequence with no graph reading and
# bytes that are not UTF-8; for extraction input, where any text is a
# sentence, three lines that are not UTF-8
BAD_LINES = {
    "data": (
        b'{"tokens": ',
        b'{"tokens": ["a"], "entities": [{"start": 0, "end": 5, "type": "PER"}], "relations": []}',
        b'{"tokens": ["\xff"], "entities": [], "relations": []}',
    ),
    "seqs": (b"abc 1 2", b"4 19", b"4 19 \xff 10"),
    "input": (b"\xff a", b"b \xfe c", b"\x80"),
}
REPORTS = {
    "data": ["malformed record", "invalid graph", "not UTF-8"],
    "seqs": ["malformed sequence line", "sequence fails structural validation", "not UTF-8"],
    "input": ["not UTF-8"] * 3,
}


class TestRecordsFailAlone:
    @pytest.mark.parametrize("flag", TEXT_FLAGS)
    def test_bad_records_at_start_middle_and_end(self, small_files, tmp_path, flag):
        # a lenient command reports each bad record once and writes for the good
        # ones what a clean run writes; a strict one names the first and writes nothing
        kind = TEXT_FLAGS[flag][0]
        lines = small_files[kind].read_bytes().splitlines()
        header, good = (lines[:1], lines[1:]) if kind == "seqs" else ([], lines)
        half = len(good) // 2
        first, middle, last = BAD_LINES[kind]
        body = [first, *good[:half], middle, *good[half:], last]
        start = len(header) + 1
        bad_lines = [start, start + half + 1, start + len(body) - 1]
        paths = {**small_files, "GOOD": tmp_path / "good", "BAD": tmp_path / "bad", "out": tmp_path / "out.npz"}
        paths["GOOD"].write_bytes(b"".join(line + b"\n" for line in header + good))
        paths["BAD"].write_bytes(b"".join(line + b"\n" for line in header + body))
        out, err = check_fails_alone(flag, paths, bad_lines)
        bad = paths["BAD"]
        if flag in STRICT_FLAGS:
            assert err.startswith(f"error: {bad}:{start}: {REPORTS[kind][0]}: ")
            return
        reports = [line for line in (out if flag.startswith("validate") else err).splitlines()
                   if line.startswith(f"{bad}:")]
        assert len(reports) == 3
        assert all(line.startswith(f"{bad}:{n}: {what}") for line, n, what in zip(reports, bad_lines, REPORTS[kind]))
        if flag == "eval --data":
            failed = [f for f in json.loads(out)["failed"] if "line" in f]
            assert [(f["line"], f["error"]) for f in failed] == list(zip(bad_lines, reports))
        if flag == "extract --input":
            records = [json.loads(line) for line in out.splitlines()]
            assert [n for n, r in enumerate(records, start=1) if "diagnostics" in r] == bad_lines
            assert all(records[n - 1] == {"tokens": [], "entities": [], "relations": [], "diagnostics": f"failed: {report}"}
                       for n, report in zip(bad_lines, reports))


# what a checkpoint's meta cfg may hold in place of a saved value
CFG_VALUES = st.one_of(
    st.integers(-3, 20), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
)


@st.composite
def cfg_variants(draw, saved: dict) -> dict:
    """``saved`` with a few values replaced, sometimes a key dropped, and
    sometimes an unknown key added."""
    keys = sorted(saved)
    cfg = dict(saved)
    for key in draw(st.sets(st.sampled_from(keys), max_size=3)):
        cfg[key] = draw(CFG_VALUES)
    for key in draw(st.sets(st.sampled_from(keys), max_size=1)):
        del cfg[key]
    if draw(st.sampled_from([False, False, False, True])):
        cfg[draw(st.text(max_size=6))] = draw(CFG_VALUES)
    return cfg


class TestCheckpointConfig:
    @pytest.fixture(scope="class")
    def write_cfg(self, good_files, tmp_path_factory):
        """The good checkpoint's saved cfg, and a function that saves the
        checkpoint with another cfg and returns its path and a sentence file
        of one token, within every max_tokens >= 1."""
        import numpy as np

        root = tmp_path_factory.mktemp("cfg")
        with np.load(good_files["model"]) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        (root / "one.txt").write_text("a\n")

        def write(cfg):
            blob = json.dumps({**meta, "cfg": cfg}).encode()
            np.savez(root / "model.npz", __meta__=np.frombuffer(blob, dtype=np.uint8), **arrays)
            return root / "model.npz", root / "one.txt"
        return meta["cfg"], write

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_cfg_loads_or_names_the_checkpoint(self, write_cfg, data):
        # extract on a checkpoint whose cfg holds any JSON values exits 0 or 1,
        # never with a traceback, and a failure names the checkpoint
        saved, write = write_cfg
        ckpt, sents = write(data.draw(cfg_variants(saved), label="cfg"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = invoke("extract", "--model", str(ckpt), "--input", str(sents), "--out", str(ckpt.parent / "out"))
        assert code in (0, 1)
        if code == 1:
            assert f"error: checkpoint {ckpt}" in err.getvalue()


# what one field of a checkpoint's meta JSON may hold in place of its saved value
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def damaged_checkpoint(data, good) -> bytes:
    """The bytes of a damaged checkpoint, drawn through ``data`` from ``good``
    (its bytes, its arrays and its meta): arbitrary bytes, a truncated
    checkpoint, the .npz with one parameter dropped, reshaped or holding a NaN
    or an infinity, or the .npz with one field of its meta JSON replaced."""
    import numpy as np

    raw, arrays, meta = good
    kind = data.draw(st.sampled_from(["bytes", "truncated", "parameter", "meta"]), label="kind")
    if kind == "bytes":
        return data.draw(st.binary(max_size=64), label="bytes")
    if kind == "truncated":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    arrays = dict(arrays)
    if kind == "parameter":
        name = data.draw(st.sampled_from(sorted(k for k in arrays if k.startswith("param/"))), label="parameter")
        damage = data.draw(st.sampled_from(["drop", "reshape", "non-finite"]), label="damage")
        if damage == "drop":
            del arrays[name]
        elif damage == "reshape":
            arrays[name] = arrays[name].reshape(data.draw(st.sampled_from([(-1,), arrays[name].shape + (1,)])))
        else:
            arrays[name] = arrays[name].copy()
            arrays[name].flat[data.draw(st.integers(0, arrays[name].size - 1), label="at")] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]), label="value"
            )
    else:
        meta = json.loads(json.dumps(meta))  # a copy to mutate
        fields = [(k,) for k in meta] + [("cfg", k) for k in meta["cfg"]]
        *path, key = data.draw(st.sampled_from(fields), label="field")
        (meta[path[0]] if path else meta)[key] = data.draw(JSON_VALUES, label="value")
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


class TestCheckpointFile:
    @pytest.fixture(scope="class")
    def good(self, good_files):
        import numpy as np

        with np.load(good_files["model"]) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        return good_files["model"].read_bytes(), arrays, meta

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        """A directory with a sentence file of one token, within every max_tokens >= 1."""
        root = tmp_path_factory.mktemp("ckpt")
        (root / "one.txt").write_text("a\n")
        return root

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_damaged_checkpoint_loads_or_names_the_file(self, good, root, data):
        # extract --model on a damaged checkpoint exits 0 or 1, never with a
        # traceback, and a failure names the checkpoint
        ckpt = root / "model.npz"
        ckpt.write_bytes(damaged_checkpoint(data, good))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = invoke("extract", "--model", str(ckpt), "--input", str(root / "one.txt"), "--out", str(root / "out"))
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert f"error: checkpoint {ckpt}" in err.getvalue()


@st.composite
def damaged_lines(draw, good: list, records: bool) -> list:
    """``good`` with one to three lines replaced by arbitrary bytes, a
    truncated line, or valid JSON of the wrong shape: any JSON value, or, for
    a file of ``records``, a record with one field replaced by one."""
    lines = list(good)
    for at in draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3)):
        kind = draw(st.sampled_from(["bytes", "truncated", "json"]))
        if kind == "bytes":
            lines[at] = draw(st.binary(max_size=24)).replace(b"\n", b"")
        elif kind == "truncated":
            lines[at] = lines[at][: draw(st.integers(0, len(lines[at]) - 1))]
        elif records and draw(st.booleans()):
            field = draw(st.sampled_from(["tokens", "entities", "relations"]))
            lines[at] = json.dumps({**json.loads(lines[at]), field: draw(JSON_VALUES)}).encode()
        else:
            lines[at] = json.dumps(draw(JSON_VALUES)).encode()
    return lines


class TestCorpusFlags:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("flags")

    @pytest.mark.parametrize("flag", [flag for flag in TEXT_FLAGS if flag != "decode --seqs"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_generated_lines_fail_alone(self, small_files, root, flag, data):
        # every corpus flag and extract --input, on a good file with some lines
        # damaged: the per-record contract of check_fails_alone holds
        from hyspa.data_io import CorpusError, default_vocab, parse_line

        kind = TEXT_FLAGS[flag][0]
        lines = data.draw(damaged_lines(small_files[kind].read_bytes().splitlines(), kind == "data"), label="lines")
        paths = {**small_files, "GOOD": root / "good", "BAD": root / "bad", "out": root / "out.npz"}
        paths["out"].unlink(missing_ok=True)
        bad_lines, good = [], []
        for lineno, raw in enumerate(lines, start=1):
            try:
                text = raw.decode("utf-8")
                if kind == "data" and text.strip():
                    parse_line(paths["BAD"], lineno, text, default_vocab(), 16)
            except (UnicodeDecodeError, CorpusError):
                bad_lines.append(lineno)
                continue
            if text.strip():
                good.append(raw)
        paths["BAD"].write_bytes(b"".join(line + b"\n" for line in lines))
        paths["GOOD"].write_bytes(b"".join(line + b"\n" for line in good))
        check_fails_alone(flag, paths, bad_lines)


@st.composite
def damaged_vocab(draw, good: dict) -> bytes:
    """The bytes of a vocab file that is no vocabulary, drawn from ``good``, a
    valid vocab document: arbitrary bytes, ``good``'s JSON truncated, any JSON
    value (its object keys are too short to be edge_types or node_types), or
    ``good`` with a name repeated, without [TYPE] or [NULL], or with an empty list."""
    kind = draw(st.sampled_from(["bytes", "truncated", "json", "content"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    text = json.dumps(good).encode()
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode()
    doc = {key: list(names) for key, names in good.items()}
    damage = draw(st.sampled_from(["repeat", "[TYPE]", "[NULL]", "empty"]))
    if damage == "repeat":
        names = draw(st.sampled_from(sorted(doc)))
        name = draw(st.sampled_from([*good["edge_types"], *good["node_types"], "[SOS]", "[EOS]", "[SEP]"]))
        doc[names].insert(draw(st.integers(0, len(doc[names]))), name)
    elif damage == "empty":
        doc[draw(st.sampled_from(sorted(doc)))] = []
    else:
        doc["edge_types" if damage == "[TYPE]" else "node_types"].remove(damage)
    return json.dumps(doc).encode()


# every command that takes --vocab, with a command line to which --vocab BAD is added
VOCAB_COMMANDS = {
    "synth": ["synth", "--size", "2", "--out", "out"],
    "encode": ["encode", "--data", "data", "--out", "out"],
    "decode": ["decode", "--seqs", "seqs", "--out", "out"],
    "roundtrip": ["roundtrip", "--data", "data"],
    "validate": ["validate", "--data", "data"],
    "train": [*TRAIN_ONE_STEP, "--data", "data", "--out", "out"],
    "gradcheck": ["gradcheck", "--examples", "1", "--coords", "1", "--d-model", "8", "--layers", "1", "--heads", "2"],
}


class TestVocabFile:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("vocab")

    def test_every_command_that_takes_vocab_is_listed(self):
        import argparse

        import hyspa.cli as cli

        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        takes = {name for name, parser in sub.choices.items() if any(a.dest == "vocab" for a in parser._actions)}
        assert takes == set(VOCAB_COMMANDS)

    @pytest.mark.parametrize("command", VOCAB_COMMANDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_damaged_vocab_names_the_file(self, small_files, root, command, data):
        # every command on a vocab file that holds no vocabulary exits 1, never
        # with a traceback, with one error line naming the file, and writes nothing
        good = json.loads(small_files["vocab"].read_text())
        paths = {**small_files, "BAD": root / "vocab.json", "out": root / "out"}
        paths["BAD"].write_bytes(data.draw(damaged_vocab(good), label="vocab"))
        paths["out"].unlink(missing_ok=True)
        argv = [*VOCAB_COMMANDS[command], "--vocab", "BAD"]
        code, out, err = run_captured([str(paths.get(arg, arg)) for arg in argv])
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: vocab {paths['BAD']}: ") and err.count("\n") == 1, err
        assert out == "" and not paths["out"].exists()
