"""Run one hyspa benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {codec,sentences,documents} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The lines before it hold the work fingerprint and the
environment.  Problems found by the correctness checks go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def per_layer_metrics(base, traced, tracer) -> dict:
    """Span statistics of the traced pass, plus counts and the tracing overhead."""
    import numpy as np

    import hyspa.decode_search as hds
    import hyspa.model as hm
    from hyspa import numerics as nm
    from tracing import count_python_calls
    from workloads import DOC_MAX_LEN

    out = tracer.span_metrics()
    calls = {name: 0 for name in ("model.train_step", "model.DecodeSession.fork")}
    for span in tracer.spans:
        if span[1] in calls:
            calls[span[1]] += 1
    inputs = traced.run.inputs

    # Python calls per operation, counted on fresh copies with no wrappers installed
    params = {k: nm.Tensor(v.data.copy(), requires_grad=True) for k, v in inputs.params.items()}
    opt = nm.AdamW(params, peak_lr=1e-3, warmup=200, weight_decay=0.01)
    batches = [[inputs.prepared[i] for i in idx] for idx in inputs.batches[:3]]
    rng = np.random.default_rng(0)
    train_calls = count_python_calls(lambda: [hm.train_step(b, inputs.cfg, params, opt, rng=rng) for b in batches])
    if inputs.documents:
        model, (tokens, trv), max_len = inputs.doc_model, inputs.documents[0], DOC_MAX_LEN
    else:
        model, (tokens, trv), max_len = inputs.model, (inputs.held_out[0][0], None), None
    extract_calls = [
        count_python_calls(lambda: hds.extract_graph(model, tokens, beam=b, max_len=max_len, traversal=trv))
        for b in (1, 5)
    ]
    outcomes = traced.run.outcomes
    out.update({
        "model.train_step.tape_nodes_per_step": tracer.tensors / max(calls["model.train_step"], 1),
        "model.train_step.py_calls_per_step": train_calls / len(batches),
        "model.DecodeSession.fork.bytes_per_call": tracer.fork_bytes / max(calls["model.DecodeSession.fork"], 1),
        "decode_search.beam_decode.appends_per_output_item": traced.counter.appends / max(traced.run.output_items(), 1),
        "decode_search.beam_decode.step_time_exponent": tracer.step_time_exponent(),
        "decode_search.extract_graph.py_calls_per_op": sum(extract_calls) / len(extract_calls),
        "decode_search.extract_graph.unfinished": outcomes["unfinished"],
        "decode_search.extract_graph.salvaged": outcomes["salvaged"],
        "decode_search.extract_graph.unsalvageable": outcomes["unsalvageable"],
        # both passes at the reference-loop speed, so drift between them cancels
        "trace.overhead_pct": ((traced.run.timed_seconds() / traced.loop_s["p50"])
                               / (base.run.timed_seconds() / base.loop_s["p50"]) - 1.0) * 100.0,
    })
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with contextlib.suppress(OSError):
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    getter = getattr(handle, fn)
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("codec", "sentences", "documents"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyspa" / "__init__.py").is_file():
        print(f"error: no hyspa sources under {ROOT / 'src'}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import TargetMissing, Tracer, per_layer_metric_names
    from workloads import run_workload

    try:
        if args.trace:
            # an untraced pass over the same inputs first, for the tracing overhead
            base = run_workload(args.workload, args.seed, args.seconds)
            tracer = Tracer()
            result = run_workload(args.workload, args.seed, args.seconds, tracer)
            missing = tracer.missing_spans()
            if missing:
                raise TargetMissing(f"spans never fired on {args.workload}: {', '.join(missing)}")
            metrics = per_layer_metrics(base, result, tracer)
            units = dict(per_layer_metric_names())
            tracer.write(ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.tsv")
        else:
            result = run_workload(args.workload, args.seed, args.seconds)
            metrics = result.metrics
            units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    except TargetMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    tally = result.run.tally
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"fingerprint": result.fingerprint}))
    print(json.dumps({"unscaled": result.unscaled, "reference_loop_s": result.loop_s}))
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.checks_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
