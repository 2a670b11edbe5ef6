"""The codec's output bytes, pinned.

``hyspa encode`` and then ``hyspa decode`` run through ``cli.run`` on one
seeded corpus of synthetic sentences and random document-sized graphs, for
BFS and for DFS.  The sha256 of the sequence dump and of the decoded JSONL
are pinned, so a change that moves one byte of what the codec commands
write fails here.
"""
import hashlib

import numpy as np
import pytest

from testutil import pinned_vocab, random_graph

from hyspa.cli import run
from hyspa.data_io import save_jsonl, synth_generate

# traversal -> (sha256 of the dump, sha256 of the decoded JSONL)
PINNED = {
    "bfs": (
        "ad41dd181d8bbefda01bdfec499b8dcbecd12b84f5da364d1cb2072124641fe6",
        "9010727249b2bd22301b1b37333620b943d1fcd1f4d7aff47f6b5bc2ac3820b9",
    ),
    "dfs": (
        "6e1f1eaab2bdfa1cbf82fe6faee451c4e8c9fb93f7d15aab29bdc27dfb296436",
        "8ab102105f42f8040a36ad36ceb546b0915291f504b061d1754096f4822e4a71",
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """1,000 synthetic sentences (seed 33) followed by 100 random graphs over up to
    128 tokens (seed 2024), as one JSONL corpus."""
    vocab = pinned_vocab()
    ds = synth_generate(1000, seed=33, vocab=vocab)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g = random_graph(rng, vocab)
        ds.examples.append((tuple(f"w{i}" for i in range(g.n)), g))
    path = tmp_path_factory.mktemp("codec") / "corpus.jsonl"
    save_jsonl(ds, path)
    return path


@pytest.mark.parametrize("traversal", sorted(PINNED))
def test_encode_then_decode_writes_pinned_bytes(corpus, tmp_path, capsys, traversal):
    dump, decoded = tmp_path / "seqs.txt", tmp_path / "decoded.jsonl"
    assert run(["encode", "--data", str(corpus), "--traversal", traversal, "--out", str(dump)]) == 0
    assert run(["decode", "--seqs", str(dump), "--out", str(decoded)]) == 0
    assert capsys.readouterr().err == ""
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (dump, decoded))
    assert digests == PINNED[traversal]
