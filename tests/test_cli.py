import json
import subprocess
import sys

import pytest

from testutil import FIG4_TOKENS

from hyspa.cli import run


def invoke(*argv):
    return run(list(argv))


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
        out = capsys.readouterr().out
        nums = [int(x) for x in out.split()]
        assert 19 in nums and 83 in nums and 10 in nums

    def test_manifest_written(self, corpus):
        root, _ = corpus
        man = json.loads((root / "manifest.json").read_text())
        assert man["examples"] == 60

    def test_validate_bad_corpus(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tokens": ["a"], "entities": [{"start": 0, "end": 5, "type": "PER"}], "relations": []}\n')
        assert invoke("validate", "--data", str(bad)) == 1


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyspa.cli", "roundtrip", "--no-such-flag"],
            capture_output=True,
        )
        assert proc.returncode == 2
        assert b"usage" in proc.stderr.lower()

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyspa.cli", "frobnicate"], capture_output=True
        )
        assert proc.returncode == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert invoke("roundtrip", "--data", str(tmp_path / "nope.jsonl")) == 1


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

    def test_extract_fails_per_line(self, tmp_path, capsys):
        from hyspa.altseq_codec import Traversal
        from hyspa.data_io import default_vocab
        from hyspa.model import ExtractionModel, ModelConfig, TokenVocab, init_params

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
        assert invoke("extract", "--model", str(ckpt), "--input", str(sents), "--out", str(out)) == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["tokens"] for r in records] == [line.split() for line in lines]
        assert "max_tokens" in records[1]["diagnostics"]
        assert records[1]["entities"] == records[1]["relations"] == []
        assert "diagnostics" not in records[0] and "diagnostics" not in records[2]
        assert "1/3 lines failed" in capsys.readouterr().err

    def test_bench_tiny(self):
        assert invoke("bench", "--sizes", "32,64", "--steps", "4", "--d-model", "32",
                      "--heads", "4", "--layers", "1") == 0
