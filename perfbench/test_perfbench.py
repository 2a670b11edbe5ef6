"""Self-tests of the benchmark.  Run with:  python3 -m pytest -q perfbench

The first run trains the reference model (about a minute) unless this
checkout has already built it.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hyspa.decode_search as hds  # noqa: E402
from hyspa.numerics import Tensor  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Plan(codec_sentences=40, codec_documents=10, doc_graph_sizes=(5, 128), codec_passes=1,
                      train_corpus=200, train_steps=3, sentences=4, documents=6)


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == dict(tracing.per_layer_metric_names())


def test_every_span_target_resolves():
    for module, attr in tracing.SPANS.values():
        owner, name = tracing._resolve(module, attr)
        assert callable(getattr(owner, name)), (module, attr)


def test_same_seed_same_inputs_and_fingerprint():
    first = workloads.run_workload("documents", 7, 1, plan=TINY)
    second = workloads.run_workload("documents", 7, 1, plan=TINY)
    assert first.fingerprint == second.fingerprint
    assert first.run.tally.failed == first.run.tally.checks_failed == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(first.metrics) == {m["name"] for m in bench["end_to_end"]}


def test_different_seed_different_inputs(tmp_path):
    a = workloads.make_inputs(TINY, 1, tmp_path)
    corpus_a = a.corpus_path.read_bytes()
    b = workloads.make_inputs(TINY, 2, tmp_path)
    assert a.digest != b.digest
    assert corpus_a != b.corpus_path.read_bytes()
    assert [t for t, _ in a.held_out] != [t for t, _ in b.held_out]
    assert [t for t, _ in a.documents] != [t for t, _ in b.documents]
    assert [x.tolist() for x in a.batches] != [x.tolist() for x in b.batches]


@pytest.mark.parametrize("beam", workloads.BEAMS)
def test_document_decodes_survive_tiny_weight_perturbation(beam):
    """Decode work on documents does not hinge on exact weights, which is why an untrained model serves."""
    model = workloads.documents_model(3)
    docs = workloads.token_documents(np.random.default_rng(3), len(workloads.DOC_SIZES) * 2)
    rng = np.random.default_rng(4)
    perturbed = workloads.documents_model(3)
    perturbed.params = {k: Tensor(v.data * (1 + 1e-13 * rng.standard_normal(v.data.shape)))
                        for k, v in model.params.items()}
    assert any(not np.array_equal(perturbed.params[k].data, v.data) for k, v in model.params.items())
    for tokens, trv in docs:
        want = hds.extract_graph(model, tokens, beam=beam, max_len=workloads.DOC_MAX_LEN, traversal=trv)
        got = hds.extract_graph(perturbed, tokens, beam=beam, max_len=workloads.DOC_MAX_LEN, traversal=trv)
        assert got.seq.items == want.seq.items, (len(tokens), trv)
