"""Command-line entry point wiring the library into user-facing workflows.

Exit codes: 0 success; 1 when a check fails, a file cannot be used, or any
record or line of an input file is bad; 2 usage error.  A bad record fails
alone: ``validate``, ``encode``, ``decode``, ``roundtrip``, ``eval`` and
``extract`` report it as ``PATH:LINENO: ...`` and go on with the good ones,
while ``train --data``, ``train --dev`` and ``encode --freq-from``, which fit
to the whole corpus, stop with the first.
Every setting is a flag or its built-in default; there is no config file.
The vocabulary comes from --vocab when given, else the built-in one.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
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
    CorpusError,
    default_vocab,
    graph_to_record,
    load_jsonl,
    parse_sequence_line,
    read_dump_header,
    read_records,
    save_jsonl,
    split_records,
    synth_generate,
    write_sequence_dump,
)
from .decode_search import evaluate_model, extract_graph
from .info_graph import canonicalize, graph_equal
from .model import (
    Engine,
    ExtractionModel,
    ModelConfig,
    ModelError,
    init_params,
    fit,
    prepare_training_data,
    sequence_loss,
)
from .type_vocab import TypeVocab, load_vocab


def _load_vocab_arg(args) -> TypeVocab:
    if args.vocab:
        return load_vocab(args.vocab)
    return default_vocab()


def _bounded(kind, ok, bound: str):
    """An argparse type: a ``kind`` value, finite if a float, for which ``ok``
    holds, else a usage error naming the flag."""
    def parse(text):
        value = kind(text)
        if (kind is float and not math.isfinite(value)) or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_POSITIVE = _bounded(int, lambda v: v >= 1, "at least 1")
_NON_NEGATIVE = _bounded(int, lambda v: v >= 0, "at least 0")
_POSITIVE_FLOAT = _bounded(float, lambda v: v > 0, "finite and greater than 0")
_FRACTION = _bounded(float, lambda v: 0 <= v < 1, "in [0, 1)")
_BEAM = dict(type=_POSITIVE, default=1)
_LENGTH_PENALTY = dict(type=_POSITIVE_FLOAT, default=1.0)

# flags that several subcommands take; each subcommand takes only those its handler reads
_SHARED_FLAGS = {
    "vocab": (["--vocab"], dict(help="vocab config JSON (edge_types/node_types)")),
    "traversal": (["--traversal"], dict(choices=["bfs", "dfs"], default="bfs")),
    "m": (["--max-span-len"], dict(type=_POSITIVE, default=16, dest="m")),
    "seed": (["--seed"], dict(type=_NON_NEGATIVE, default=0)),
    "d_model": (["--d-model"], dict(type=_bounded(int, lambda v: v >= 2, "at least 2"), default=64)),
    "layers": (["--layers"], dict(type=_NON_NEGATIVE, default=2)),
    "heads": (["--heads"], dict(type=_POSITIVE, default=8)),
}


@functools.cache  # no flag has a mutable default and parse_args returns a fresh namespace, so runs share one parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyspa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            names, kwargs = _SHARED_FLAGS[flag]
            p.add_argument(*names, **kwargs)
        return p

    p = subcommand("synth", "generate a synthetic corpus", "vocab", "m", "seed")
    p.add_argument("--size", type=_POSITIVE, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="also write a dataset manifest JSON")

    p = subcommand("encode", "encode a corpus into alternating sequences", "vocab", "traversal", "m")
    p.add_argument("--data", required=True, help="JSONL corpus; the dump holds its good records, in order")
    p.add_argument("--freq-from", help="edge-frequency corpus (default: --data); strict: any bad record fails")
    p.add_argument("--out", help="sequence dump path (default: stdout)")

    # traversal and m come from the dump's header
    p = subcommand("decode", "decode a sequence dump back into graphs", "vocab")
    p.add_argument("--seqs", required=True)
    p.add_argument("--traversal", choices=["bfs", "dfs"], help="fail unless the dump holds this traversal")
    p.add_argument("--out", help="JSONL output (default: stdout)")

    p = subcommand("roundtrip", "assert decode(encode(g)) == g over a corpus", "vocab", "traversal", "m")
    p.add_argument("--data", required=True)

    p = subcommand("validate", "validate every graph in a corpus", "vocab", "m")
    p.add_argument("--data", required=True)

    p = subcommand(
        "train", "train the toy extraction model",
        "vocab", "traversal", "m", "seed", "d_model", "layers", "heads",
    )
    p.add_argument("--dropout", type=_FRACTION, default=0.1)
    p.add_argument("--data", required=True, help="JSONL corpus; strict: its first bad record fails the command")
    p.add_argument("--dev", help="JSONL dev corpus; strict, as --data")
    p.add_argument("--steps", type=_POSITIVE, default=4000)
    p.add_argument("--batch-examples", type=_POSITIVE, default=8)
    p.add_argument("--lr", type=_POSITIVE_FLOAT, default=2e-4)
    p.add_argument("--warmup", type=_POSITIVE, default=2000)
    p.add_argument("--weight-decay", type=_bounded(float, lambda v: v >= 0, "finite and at least 0"), default=0.01)
    p.add_argument("--label-smoothing", type=_FRACTION, default=0.1)
    p.add_argument("--clip", type=_POSITIVE_FLOAT, default=0.25)
    p.add_argument("--eval-every", type=_NON_NEGATIVE, default=500)
    p.add_argument("--stop-em", type=_bounded(float, lambda v: 0 <= v <= 1, "in [0, 1]"), default=None,
                   help="early-stop dev exact match")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")

    # eval and extract take vocab, traversal and m from the checkpoint
    p = subcommand("eval", "evaluate a checkpoint on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", **_BEAM)
    p.add_argument("--length-penalty", **_LENGTH_PENALTY)
    p.add_argument("--limit", type=_POSITIVE, default=None)

    p = subcommand("extract", "run end-to-end extraction on raw token lines")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="text file, one whitespace-tokenized sentence per line")
    p.add_argument("--out", help="JSONL output (default: stdout)")
    p.add_argument("--beam", **_BEAM)
    p.add_argument("--length-penalty", **_LENGTH_PENALTY)
    p.add_argument("--max-len", type=_bounded(int, lambda v: v >= 16, "at least 16"), default=None)

    # gradcheck runs without dropout, so finite differences see a deterministic loss
    p = subcommand(
        "gradcheck", "compare autodiff gradients to finite differences",
        "vocab", "traversal", "m", "seed", "d_model", "layers", "heads",
    )
    p.set_defaults(d_model=32)
    p.add_argument("--examples", type=_POSITIVE, default=2)
    p.add_argument("--coords", type=_POSITIVE, default=4)
    p.add_argument("--tolerance", type=_POSITIVE_FLOAT, default=1e-4)

    return parser


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout when no path is given."""
    if not path:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _cmd_synth(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = synth_generate(args.size, seed=args.seed, vocab=vocab, m=args.m)
    save_jsonl(ds, args.out)
    if args.manifest:
        Path(args.manifest).write_text(json.dumps(ds.manifest(), indent=2) + "\n")
    print(f"wrote {len(ds)} examples to {args.out}")
    return 0


def _report(errors, file=None) -> int:
    """Print each (line number, CorpusError) of bad records to ``file`` (default stderr); their count."""
    for _, err in errors:
        print(err, file=file or sys.stderr)
    return len(errors)


def _failed(tokens, err) -> dict:
    """The empty record ``extract`` writes for a line that failed."""
    return {"tokens": tokens, "entities": [], "relations": [], "diagnostics": f"failed: {err}"}


def _cmd_encode(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = load_jsonl(args.data, vocab, m=args.m)
    freq = load_jsonl(args.freq_from, vocab, m=args.m).strict().edge_freq if args.freq_from else ds.edge_freq
    traversal = Traversal(args.traversal)
    seqs = [
        encode(canonicalize(g, freq, vocab), vocab, args.m, traversal)
        for _, g in ds.examples
    ]
    with _output(args.out) as out:
        write_sequence_dump(out, seqs, vocab, args.m, traversal)
    if args.out:
        print(f"wrote {len(seqs)} sequences to {args.out}")
    return 1 if _report(ds.errors) else 0


def _cmd_decode(args) -> int:
    """Decode a sequence dump into JSONL graphs.  A malformed line or a sequence
    with no graph reading is reported as ``PATH:LINENO: ...`` and fails alone;
    the exit code is 1 if any line failed."""
    vocab = _load_vocab_arg(args)
    m, traversal = read_dump_header(args.seqs, vocab)
    if args.traversal and traversal.value != args.traversal:
        raise ValueError(f"--traversal {args.traversal}, but {args.seqs} holds {traversal.value} sequences")

    def decode(path, lineno, line):
        seq = parse_sequence_line(path, lineno, line, vocab, m, traversal)
        try:
            record = graph_to_record((), decode_sequence(seq), vocab)
        except SequenceDecodeError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from None
        return json.dumps({"entities": record["entities"], "relations": record["relations"], "n": seq.n}) + "\n"

    records, errors = split_records(args.seqs, decode, skip=1)
    with _output(args.out) as out:
        out.writelines(records)
    return 1 if _report(errors) else 0


def _cmd_roundtrip(args) -> int:
    vocab = _load_vocab_arg(args)
    ds = load_jsonl(args.data, vocab, m=args.m)
    traversal = Traversal(args.traversal)

    bad = 0
    for _, g in ds.examples:
        seq = encode(canonicalize(g, ds.edge_freq, vocab), vocab, args.m, traversal)
        bad += validate_sequence(seq) is not None or not graph_equal(g, decode_sequence(seq))
    print(f"roundtrip {args.traversal}: {len(ds) - bad}/{len(ds)} ok")
    return 1 if _report(ds.errors) or bad else 0


def _cmd_validate(args) -> int:
    """Report every bad record (malformed, an invalid graph, or not UTF-8), one
    line each with its line number; the exit code is 1 if any record is bad."""
    ds = load_jsonl(args.data, _load_vocab_arg(args), m=args.m)
    bad = _report(ds.errors, file=sys.stdout)
    print(f"validate: {len(ds)}/{len(ds) + bad} ok")
    return 1 if bad else 0


def _cmd_train(args) -> int:
    if Path(args.out).is_dir() or not Path(args.out).parent.is_dir():  # fail before the first step, not at the save
        raise OSError(f"--out {args.out}: is a directory, or its directory does not exist")
    vocab = _load_vocab_arg(args)
    traversal = Traversal(args.traversal)
    ds = load_jsonl(args.data, vocab, m=args.m).strict()
    if not ds.examples:
        raise CorpusError(f"{args.data}: no training examples")
    dev = load_jsonl(args.dev, vocab, m=args.m).strict() if args.dev else None
    if dev is not None and not dev.examples:
        raise CorpusError(f"{args.dev}: no dev examples")
    cfg = ModelConfig(
        d_m=args.d_model, layers=args.layers, heads=args.heads,
        m=args.m, dropout=args.dropout,
    )
    token_vocab, prepared = prepare_training_data(ds, traversal)
    params = init_params(cfg, vocab, token_vocab, seed=args.seed)
    opt = nm.AdamW(params, peak_lr=args.lr, warmup=args.warmup, weight_decay=args.weight_decay)
    model = ExtractionModel(cfg, params, vocab, token_vocab, dict(ds.edge_freq), traversal)

    def callback(step):
        if dev is None or not args.eval_every or step % args.eval_every:
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
        seed=args.seed, log_every=200, callback=callback,
    )
    model.save(args.out)
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    """Print the metrics of the good records as JSON.  A bad record is reported
    and listed under ``failed`` by its line; a record the model cannot take
    counts as an empty prediction and is listed there by its index among the
    good records.  The exit code is 1 if anything failed; with no good record
    the command fails."""
    model = ExtractionModel.load(args.model)
    ds = load_jsonl(args.data, model.vocab, m=model.cfg.m)
    _report(ds.errors)
    if not ds.examples:
        raise CorpusError(f"{args.data}: no examples")
    res = evaluate_model(
        model, ds.examples, beam=args.beam, length_penalty=args.length_penalty, limit=args.limit
    )
    res["failed"] = [{"line": lineno, "error": str(err)} for lineno, err in ds.errors] + res["failed"]
    print(json.dumps(res, indent=2))
    return 1 if res["failed"] else 0


def _cmd_extract(args) -> int:
    """Extract every non-blank line.  A line that is not UTF-8 is reported as
    ``PATH:LINENO: ...``; it and a line the model cannot take (a
    ``ModelError``) each get an empty record with a ``diagnostics`` message,
    so the output keeps one record per line, and the exit code is 1 if any
    line failed.  Every line decodes with one engine."""
    model = ExtractionModel.load(args.model)
    engine = Engine(model)

    def extract(path, lineno, line):
        tokens = line.split()
        try:
            res = extract_graph(
                engine, tokens, beam=args.beam, length_penalty=args.length_penalty, max_len=args.max_len
            )
        except ModelError as err:
            return _failed(tokens, err)
        return graph_to_record(tokens, res.graph, model.vocab)

    total = failed = 0
    with _output(args.out) as out:
        for _, record in read_records(args.input, extract):
            if isinstance(record, CorpusError):
                print(record, file=sys.stderr)
                record = _failed([], record)
            total += 1
            failed += "diagnostics" in record
            out.write(json.dumps(record) + "\n")
    print(f"extract: {failed}/{total} lines failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_gradcheck(args) -> int:
    vocab = _load_vocab_arg(args)
    traversal = Traversal(args.traversal)
    ds = synth_generate(max(args.examples, 2), seed=args.seed, vocab=vocab, m=args.m)
    token_vocab, prepared = prepare_training_data(ds, traversal)
    cfg = ModelConfig(
        d_m=args.d_model, layers=args.layers, heads=args.heads, m=args.m, dropout=0.0
    )
    params = init_params(cfg, vocab, token_vocab, seed=args.seed)
    batch = prepared[: args.examples]

    report = nm.finite_diff_check(
        lambda: sequence_loss(batch, cfg, params), params,
        coords_per_tensor=args.coords, rng=np.random.default_rng(args.seed),
    )
    print(f"max relative error: {report.max_rel_err:.3e} over {report.checked} coordinates")
    if report.worst:
        name, idx, fd, ad = report.worst
        print(f"worst: {name}[{idx}] finite-diff {fd:.6e} vs autodiff {ad:.6e}")
    return 0 if report.max_rel_err < args.tolerance else 1


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
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "train" and args.stop_em is not None:  # the dev evaluation is what it stops on
        if not args.dev:
            parser.error("--stop-em needs --dev: it stops on the dev exact match")
        if not args.eval_every:
            parser.error("--stop-em needs --eval-every of at least 1: with 0 the dev set is never evaluated")
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
