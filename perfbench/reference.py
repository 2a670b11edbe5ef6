"""The trained reference model that every workload decodes sentences with.

Exact match only means something for a converged model, and decode work
depends on convergence: a half-trained model emits different lengths.  The
reference model is the C8 recipe (d 64, 2 layers, 8 heads, dropout 0.1,
batch 8, lr 1e-3, warmup 200) trained for a fixed 1,500 steps with ``fit``.
It is built once per checkout from the checkout's own sources, in a child
process, and cached under ``.bench_build/`` keyed by a hash of those sources.

Run as a script to build it:  python3 perfbench/reference.py OUT.npz
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_build" / "perfbench"
STEPS = 1500
BUILD_TIMEOUT_S = 850


def source_key() -> str:
    """Hash of every file the reference model depends on."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).resolve()]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(out: Path) -> None:
    """Train the reference model and write its checkpoint to ``out`` atomically."""
    from hyspa import numerics as nm
    from hyspa.altseq_codec import Traversal
    from hyspa.data_io import default_vocab, synth_generate
    from hyspa.model import ExtractionModel, ModelConfig, fit, init_params, prepare_training_data

    vocab = default_vocab()
    train = synth_generate(10_000, seed=100, vocab=vocab)
    cfg = ModelConfig(d_m=64, layers=2, heads=8, m=16, dropout=0.1)
    token_vocab, prepared = prepare_training_data(train)
    params = init_params(cfg, vocab, token_vocab, seed=0)
    opt = nm.AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
    fit(cfg, params, prepared, opt, steps=STEPS, batch_size=8, seed=0)
    tmp = out.with_name(f"{out.stem}.{os.getpid()}.tmp.npz")
    ExtractionModel(cfg, params, vocab, token_vocab, dict(train.edge_freq), Traversal.BFS).save(tmp)
    os.replace(tmp, out)


def reference_model():
    """Load the cached reference model, building it first if this checkout has none."""
    from hyspa.model import ExtractionModel

    path = CACHE_DIR / f"reference-{source_key()}.npz"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(Path(__file__).resolve()), str(path)],
                       check=True, timeout=BUILD_TIMEOUT_S, env=env, stdout=subprocess.DEVNULL)
        print(f"built reference model in {time.perf_counter() - t0:.1f}s: {path}", file=sys.stderr)
    return ExtractionModel.load(path)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/reference.py OUT.npz")
    sys.path.insert(0, str(ROOT / "src"))
    build(Path(sys.argv[1]))
