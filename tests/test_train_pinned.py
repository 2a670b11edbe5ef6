"""Training losses pinned bit for bit.

Each case runs a few ``train_step``s of the C8 recipe (dropout on) from
seeded weights on seeded batches and compares every returned loss, as
``float.hex``, with a literal.  The sentence cases cover both traversals;
the document cases are one batch of C2-style graphs, long enough that the
batch splits into several tape runs.  A change that alters the training
tape's arithmetic (the traversal embedding, the masks, dropout, the loss,
the optimizer) fails here, not only in the benchmark's fingerprint.

Run as a script to print the current losses in the form of ``PINNED``:

    PYTHONPATH=src python tests/test_train_pinned.py
"""
from __future__ import annotations

import numpy as np
import pytest

from hyspa.altseq_codec import Traversal
from hyspa.data_io import Dataset, default_vocab, synth_generate
from hyspa.model import ModelConfig, init_params, prepare_training_data, train_step
from hyspa.numerics import AdamW

from testutil import random_graph

SENTENCE_STEPS = 4
BATCH = 8


def run_steps(
    dataset: Dataset, traversal: Traversal, batches, seed: int, source_radius: int | None = ModelConfig.source_radius
) -> list[str]:
    """The hex losses of one ``train_step`` per batch of indices, from fresh
    seeded C8 weights, with dropout drawn from a seeded generator."""
    token_vocab, prepared = prepare_training_data(dataset, traversal)
    cfg = ModelConfig(d_m=64, layers=2, heads=8, m=16, dropout=0.1, source_radius=source_radius)
    params = init_params(cfg, dataset.vocab, token_vocab, seed=seed)
    opt = AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
    drop_rng = np.random.default_rng(seed + 1)
    return [
        train_step([prepared[i] for i in idx], cfg, params, opt, label_smoothing=0.1, clip=0.25, rng=drop_rng).hex()
        for idx in batches
    ]


def sentence_losses(traversal: Traversal) -> list[str]:
    train = synth_generate(200, seed=41, vocab=default_vocab())
    rng = np.random.default_rng(42)
    return run_steps(train, traversal, [rng.integers(0, len(train), size=BATCH) for _ in range(SENTENCE_STEPS)], 43)


def document_losses(traversal: Traversal, source_radius: int | None) -> list[str]:
    """One step on a batch of C2-style graphs (n up to 128, up to 20 mentions
    and 40 relations; two tape runs) and one more on the same batch.

    Inputs this long reach past the default source radius, so the cases state
    it: ``None`` (full source attention) is the setting the first document
    literals were recorded under.
    """
    vocab = default_vocab()
    rng = np.random.default_rng(44)
    examples = []
    for _ in range(6):
        graph = random_graph(rng, vocab)
        examples.append((tuple(f"w{int(w)}" for w in rng.integers(0, 50, size=graph.n)), graph))
    dataset = Dataset(examples, vocab, 16)
    dataset.tally_edge_freq()
    batch = np.arange(len(examples))
    return run_steps(dataset, traversal, [batch, batch], 45, source_radius)


def cases():
    yield "sentences-bfs", lambda: sentence_losses(Traversal.BFS)
    yield "sentences-dfs", lambda: sentence_losses(Traversal.DFS)
    yield "documents-bfs", lambda: document_losses(Traversal.BFS, None)
    yield "documents-dfs", lambda: document_losses(Traversal.DFS, None)
    radius = ModelConfig.source_radius
    yield f"documents-bfs-r{radius}", lambda: document_losses(Traversal.BFS, radius)
    yield f"documents-dfs-r{radius}", lambda: document_losses(Traversal.DFS, radius)


# recorded from the annotator objects that ``embeddings.advance`` replaced
PINNED: dict[str, list[str]] = {
    'sentences-bfs': [
        '0x1.24cc1651df480p+1',
        '0x1.30627fe043089p+1',
        '0x1.0e68ba89b1fd9p+1',
        '0x1.0a50b754a600ep+1',
    ],
    'sentences-dfs': [
        '0x1.e1c3e96b22362p+0',
        '0x1.eaecd437310aep+0',
        '0x1.b5c73cc67acd0p+0',
        '0x1.b91b56896cd4ep+0',
    ],
    'documents-bfs': [
        '0x1.d19061cd5b5e2p+1',
        '0x1.d168c03f6339ep+1',
    ],
    'documents-dfs': [
        '0x1.a7d4683a3994cp+1',
        '0x1.a79a5c041aa14p+1',
    ],
    # recorded at the default source radius, when local source attention came in
    'documents-bfs-r64': [
        '0x1.d190da0a09d98p+1',
        '0x1.d1694b3f047d0p+1',
    ],
    'documents-dfs-r64': [
        '0x1.a7d50a992acc3p+1',
        '0x1.a79af8333a1e1p+1',
    ],
}


@pytest.mark.parametrize("name", [name for name, _ in cases()])
def test_train_losses_are_pinned(name):
    assert dict(cases())[name]() == PINNED[name]


if __name__ == "__main__":
    print("PINNED: dict[str, list[str]] = {")
    for name, losses in cases():
        print(f"    {name!r}: [")
        for loss in losses():
            print(f"        {loss!r},")
        print("    ],")
    print("}")
