"""Command-line entry point wiring the library into user-facing workflows.

Exit codes: 0 success, 1 assertion/verification failure, 2 usage error.
Flag values override config-file values override built-in defaults.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import numerics as nm
from .altseq_codec import (
    SequenceDecodeError,
    Traversal,
    decode_sequence,
    encode,
    validate_sequence,
)
from .data_io import (
    default_vocab,
    graph_to_record,
    load_jsonl,
    read_sequence_dump,
    save_jsonl,
    synth_generate,
    write_sequence_dump,
)
from .info_graph import canonicalize, graph_equal, validate_graph
from .model import (
    ExtractionModel,
    ModelConfig,
    ModelError,
    init_params,
    fit,
    prepare_training_data,
)
from .type_vocab import TypeVocab, load_vocab


def _load_vocab_arg(args) -> TypeVocab:
    if getattr(args, "vocab", None):
        return load_vocab(args.vocab)
    return default_vocab()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyspa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_opts=False, decode_opts=False):
        p.add_argument("--vocab", help="vocab config JSON (edge_types/node_types)")
        p.add_argument("--traversal", choices=["bfs", "dfs"], default="bfs")
        p.add_argument("--max-span-len", type=int, default=16, dest="m")
        p.add_argument("--seed", type=int, default=0)
        if model_opts:
            p.add_argument("--d-model", type=int, default=64)
            p.add_argument("--layers", type=int, default=2)
            p.add_argument("--heads", type=int, default=8)
            p.add_argument("--dropout", type=float, default=0.1)
        if decode_opts:
            p.add_argument("--beam", type=int, default=1)
            p.add_argument("--length-penalty", type=float, default=1.0)
            p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="also write a dataset manifest JSON")

    p = sub.add_parser("encode", help="encode a corpus into alternating sequences")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--freq-from", help="corpus supplying edge frequencies (default: --data)")
    p.add_argument("--out", help="sequence dump path (default: stdout)")

    p = sub.add_parser("decode", help="decode a sequence dump back into graphs")
    common(p)
    p.add_argument("--seqs", required=True)
    p.add_argument("--out", help="JSONL output (default: stdout)")

    p = sub.add_parser("roundtrip", help="assert decode(encode(g)) == g over a corpus")
    common(p)
    p.add_argument("--data", required=True)

    p = sub.add_parser("validate", help="validate every graph in a corpus")
    common(p)
    p.add_argument("--data", required=True)

    p = sub.add_parser("train", help="train the toy extraction model")
    common(p, model_opts=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dev")
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--batch-examples", type=int, default=8)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--warmup", type=int, default=2000)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--label-smoothing", type=float, default=0.1)
    p.add_argument("--clip", type=float, default=0.25)
    p.add_argument("--strict-typing", action="store_true")
    p.add_argument("--eval-every", type=int, default=500)
    p.add_argument("--stop-em", type=float, default=None, help="early-stop dev exact match")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    common(p, decode_opts=True)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("extract", help="run end-to-end extraction on raw token lines")
    common(p, decode_opts=True)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="text file, one whitespace-tokenized sentence per line")
    p.add_argument("--out", help="JSONL output (default: stdout)")

    p = sub.add_parser("gradcheck", help="compare autodiff gradients to finite differences")
    common(p, model_opts=True)
    p.set_defaults(d_model=32)
    p.add_argument("--examples", type=int, default=2)
    p.add_argument("--coords", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = sub.add_parser("bench", help="measure per-decode-step time/memory scaling")
    common(p, model_opts=True)
    p.add_argument("--sizes", default="128,256,512,1024")
    p.add_argument("--steps", type=int, default=24)

    return parser


def _cmd_synth(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = synth_generate(args.size, seed=args.seed, vocab=vocab, m=args.m)
    save_jsonl(ds, args.out)
    if args.manifest:
        Path(args.manifest).write_text(json.dumps(ds.manifest(), indent=2) + "\n")
    print(f"wrote {len(ds)} examples to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = load_jsonl(args.data, vocab, m=args.m)
    freq = ds.edge_freq
    if args.freq_from:
        freq = load_jsonl(args.freq_from, vocab, m=args.m).edge_freq
    traversal = Traversal(args.traversal)
    seqs = [
        encode(canonicalize(g, freq, vocab), vocab, args.m, traversal)
        for _, g in ds.examples
    ]
    if args.out:
        write_sequence_dump(args.out, seqs, vocab, args.m, traversal)
        print(f"wrote {len(seqs)} sequences to {args.out}")
    else:
        for seq in seqs:
            print(" ".join(str(x) for x in (seq.n, *seq.items)))
    return 0


def _cmd_decode(args) -> int:
    vocab = _load_vocab_arg(args)
    seqs = read_sequence_dump(args.seqs, vocab)
    out = open(args.out, "w") if args.out else sys.stdout
    failures = 0
    try:
        for i, seq in enumerate(seqs):
            try:
                g = decode_sequence(seq)
            except SequenceDecodeError as err:
                print(f"sequence {i}: {err}", file=sys.stderr)
                failures += 1
                continue
            record = graph_to_record([""] * seq.n, g, vocab)
            record.pop("tokens")
            record["n"] = seq.n
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return 1 if failures else 0


def _cmd_roundtrip(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = load_jsonl(args.data, vocab, m=args.m)
    traversal = Traversal(args.traversal)

    bad = 0
    for _, g in ds.examples:
        seq = encode(canonicalize(g, ds.edge_freq, vocab), vocab, args.m, traversal)
        bad += validate_sequence(seq) is not None or not graph_equal(g, decode_sequence(seq))
    print(f"roundtrip {args.traversal}: {len(ds) - bad}/{len(ds)} ok")
    return 1 if bad else 0


def _cmd_validate(args) -> int:
    vocab = _load_vocab_arg(args)
    try:
        ds = load_jsonl(args.data, vocab, m=args.m)
    except Exception as err:
        print(str(err), file=sys.stderr)
        return 1
    bad = 0
    for i, (tokens, g) in enumerate(ds.examples):
        problems = validate_graph(g, len(tokens), args.m, vocab)
        for problem in problems:
            print(f"example {i}: {problem}")
        bad += bool(problems)
    print(f"validate: {len(ds) - bad}/{len(ds)} ok")
    return 1 if bad else 0


def _cmd_train(args) -> int:
    from .decode_search import evaluate_model

    vocab = _load_vocab_arg(args)
    traversal = Traversal(args.traversal)
    ds = load_jsonl(args.data, vocab, m=args.m)
    dev = load_jsonl(args.dev, vocab, m=args.m) if args.dev else None
    cfg = ModelConfig(
        d_m=args.d_model, layers=args.layers, heads=args.heads,
        m=args.m, dropout=args.dropout,
    )
    token_vocab, prepared = prepare_training_data(ds, traversal)
    params = init_params(cfg, vocab, token_vocab, seed=args.seed)
    opt = nm.AdamW(params, peak_lr=args.lr, warmup=args.warmup, weight_decay=args.weight_decay)
    model = ExtractionModel(cfg, params, vocab, token_vocab, dict(ds.edge_freq), traversal)

    def callback(step):
        if dev is None or args.eval_every <= 0 or step % args.eval_every:
            return False
        res = evaluate_model(model, dev.examples, beam=1, limit=min(200, len(dev)))
        print(
            f"step {step:>6d}  dev em {res['exact_match']:.3f}"
            f"  ner {res['ner_f1']:.3f}  re {res['re_f1']:.3f}"
        )
        return args.stop_em is not None and res["exact_match"] >= args.stop_em

    fit(
        cfg, params, prepared, opt, args.steps, args.batch_examples,
        label_smoothing=args.label_smoothing, clip=args.clip,
        strict=args.strict_typing, seed=args.seed, log_every=200, callback=callback,
    )
    model.save(args.out)
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from .decode_search import evaluate_model

    model = ExtractionModel.load(args.model)
    ds = load_jsonl(args.data, model.vocab, m=model.cfg.m)
    res = evaluate_model(
        model, ds.examples, beam=args.beam, length_penalty=args.length_penalty, limit=args.limit
    )
    print(json.dumps(res, indent=2))
    return 0


def _cmd_extract(args) -> int:
    """Extract every line; a line that cannot be decoded gets an empty record
    with a ``diagnostics`` message, and the exit code is 1 if any line failed."""
    from .decode_search import extract_graph

    model = ExtractionModel.load(args.model)
    out = open(args.out, "w") if args.out else sys.stdout
    total = failed = 0
    try:
        for line in Path(args.input).read_text().splitlines():
            tokens = line.split()
            if not tokens:
                continue
            total += 1
            try:
                res = extract_graph(
                    model, tokens, beam=args.beam,
                    length_penalty=args.length_penalty, max_len=args.max_len,
                )
            except ModelError as err:
                failed += 1
                record = {"tokens": tokens, "entities": [], "relations": [], "diagnostics": f"failed: {err}"}
            else:
                record = graph_to_record(tokens, res.graph, model.vocab)
                if res.diagnostics:
                    record["diagnostics"] = res.diagnostics
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    print(f"extract: {failed}/{total} lines failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    from .model import sequence_loss
    from .numerics import finite_diff_check

    vocab = _load_vocab_arg(args)
    traversal = Traversal(args.traversal)
    ds = synth_generate(max(args.examples, 2), seed=args.seed, vocab=vocab, m=args.m)
    token_vocab, prepared = prepare_training_data(ds, traversal)
    cfg = ModelConfig(
        d_m=args.d_model, layers=args.layers, heads=args.heads, m=args.m, dropout=0.0
    )
    params = init_params(cfg, vocab, token_vocab, seed=args.seed)
    batch = prepared[: args.examples]

    report = finite_diff_check(
        lambda: sequence_loss(batch, cfg, params), params,
        h=1e-5, coords_per_tensor=args.coords, rng=np.random.default_rng(args.seed),
    )
    print(f"max relative error: {report.max_rel_err:.3e} over {report.checked} coordinates")
    if report.worst:
        name, idx, fd, ad = report.worst
        print(f"worst: {name}[{idx}] finite-diff {fd:.6e} vs autodiff {ad:.6e}")
    return 0 if report.max_rel_err < args.tolerance else 1


def _cmd_bench(args) -> int:
    from .decode_search import bench_decode_steps, fit_exponent
    from .model import TokenVocab

    vocab = _load_vocab_arg(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    token_vocab = TokenVocab(tokens=("[UNK]", *[f"tok{i}" for i in range(64)]))
    cfg = ModelConfig(
        d_m=args.d_model, layers=args.layers, heads=args.heads,
        m=args.m, dropout=0.0, max_tokens=max(sizes) + 8,
    )
    params = init_params(cfg, vocab, token_vocab, seed=args.seed)
    model = ExtractionModel(cfg, params, vocab, token_vocab, {}, Traversal(args.traversal))
    rows = bench_decode_steps(model, sizes=sizes, steps=args.steps, seed=args.seed)
    print(f"{'n':>6} {'per-step (ms)':>14} {'score bytes':>12} {'peak bytes':>11}")
    for row in rows:
        print(
            f"{row.n:>6} {row.per_step_seconds * 1e3:>14.3f}"
            f" {row.score_vector_bytes:>12} {row.peak_step_bytes:>11}"
        )
    for row in rows:
        raw = " ".join(f"{t * 1e3:.3f}" for t in row.raw_times)
        print(f"raw times n={row.n} (ms): {raw}")
    t_exp = fit_exponent([r.n for r in rows], [r.per_step_seconds for r in rows])
    m_exp = fit_exponent([r.n for r in rows], [r.score_vector_bytes for r in rows])
    print(f"fitted time exponent: {t_exp:.3f}")
    print(f"fitted score-memory exponent: {m_exp:.3f}")
    return 0 if t_exp < 1.2 and m_exp < 1.2 else 1


_COMMANDS = {
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "roundtrip": _cmd_roundtrip,
    "validate": _cmd_validate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "extract": _cmd_extract,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
