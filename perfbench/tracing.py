"""Spans and counters recorded from outside the library.

Each wrapper is installed where the caller looks the function up (for
example ``hyspa.decode_search.span_head``, which is what ``beam_decode``
calls, not ``hyspa.model.span_head``), and removed again on exit.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of the spans it caused on the same thread.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name (<module>.<function>) -> (module the caller looks it up in, attribute path)
SPANS: dict[str, tuple[str, str]] = {
    "cli.run": ("hyspa.cli", "run"),
    "data_io.load_jsonl": ("hyspa.cli", "load_jsonl"),
    "info_graph.canonicalize": ("hyspa.cli", "canonicalize"),
    "altseq_codec.encode": ("hyspa.cli", "encode"),
    "altseq_codec.validate_sequence": ("hyspa.cli", "validate_sequence"),
    "altseq_codec.decode_sequence": ("hyspa.cli", "decode_sequence"),
    "info_graph.graph_equal": ("hyspa.cli", "graph_equal"),
    "model.train_step": ("hyspa.model", "train_step"),
    "model.sequence_loss": ("hyspa.model", "sequence_loss"),
    "numerics.Tensor.backward": ("hyspa.numerics", "Tensor.backward"),
    "numerics.clip_global_norm": ("hyspa.numerics", "clip_global_norm"),
    "numerics.AdamW.step": ("hyspa.numerics", "AdamW.step"),
    "decode_search.extract_graph": ("hyspa.decode_search", "extract_graph"),
    "decode_search.beam_decode": ("hyspa.decode_search", "beam_decode"),
    "model.encode_context": ("hyspa.model", "encode_context"),
    "model.DecodeSession.append": ("hyspa.model", "DecodeSession.append"),
    "model.DecodeSession.fork": ("hyspa.model", "DecodeSession.fork"),
    "decode_search.span_head": ("hyspa.decode_search", "span_head"),
    "decode_search.GenConstraints.mask": ("hyspa.decode_search", "GenConstraints.mask"),
    "decode_search.GenConstraints.push": ("hyspa.decode_search", "GenConstraints.push"),
    "decode_search.GenConstraints.fork": ("hyspa.decode_search", "GenConstraints.fork"),
}

SPAN_STATS = (("calls_per_op", "count"), ("self_us_per_call", "us"), ("self_ms_total", "ms"))

# counts measured next to the spans: name -> unit
COUNTS: dict[str, str] = {
    "model.train_step.tape_nodes_per_step": "count",
    "model.train_step.py_calls_per_step": "count",
    "model.DecodeSession.fork.bytes_per_call": "bytes",
    "decode_search.beam_decode.appends_per_output_item": "ratio",
    "decode_search.beam_decode.step_time_exponent": "exponent",
    "decode_search.extract_graph.py_calls_per_op": "count",
    "decode_search.extract_graph.unfinished": "count",
    "decode_search.extract_graph.salvaged": "count",
    "decode_search.extract_graph.unsalvageable": "count",
    "trace.overhead_pct": "%",
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    names = [(f"{span}.{stat}", unit) for span in SPANS for stat, unit in SPAN_STATS]
    return names + list(COUNTS.items())


class TargetMissing(Exception):
    """A function the benchmark wraps was renamed, inlined or never called."""


def _resolve(module: str, attr: str):
    """The object holding ``attr`` and its last name; TargetMissing if it is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, name)
    except AttributeError:
        raise TargetMissing(f"{module}.{attr} no longer exists; the benchmark must follow the rename") from None
    return owner, name


@contextmanager
def patched(wrappers: dict[tuple[str, str], object]):
    """Install ``{(module, attribute path): make_wrapper(original)}`` and undo it on exit."""
    undo = []
    try:
        for (module, attr), make in wrappers.items():
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, make(original))
            undo.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


class WorkCounter:
    """Decode work counts for the fingerprint: hypothesis steps, appends, forks.

    Cheap enough (one integer add per call) to stay on in timed runs.
    """

    def __init__(self):
        self.steps = 0
        self.appends = 0
        self.forks = 0

    def installed(self):
        def counting(field):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    setattr(self, field, getattr(self, field) + 1)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        return patched({
            SPANS["decode_search.span_head"]: counting("steps"),
            SPANS["model.DecodeSession.append"]: counting("appends"),
            SPANS["model.DecodeSession.fork"]: counting("forks"),
        })


def count_python_calls(fn) -> int:
    """Number of Python function calls made while running ``fn()`` on this thread."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class Tracer:
    """Records spans at every boundary in SPANS, grouped by operation.

    The benchmark is a single closed-loop client, so one operation runs at a
    time; spans opened on pool threads inside it belong to that operation.
    """

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, op id, child time)
        self.ops: dict[int, dict] = {}  # op id -> {"kind": ..., "n": ...}
        self.op_id = 0
        self.tensors = 0               # Tensor objects created inside train_step
        self.fork_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def op(self, kind: str, **info):
        self.op_id += 1
        self.ops[self.op_id] = {"kind": kind, **info}
        yield

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]  # id, child time
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                tracer.spans.append((frame[0], name, t0, t1, parent[0] if parent else None,
                                     tracer.op_id, frame[1]))
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def installed(self):
        from hyspa.numerics import Tensor

        tracer = self
        tensor_init = Tensor.__init__
        wrappers = {target: functools.partial(self._wrap, name) for name, target in SPANS.items()}

        def make_train_step(fn):
            traced = self._wrap("model.train_step", fn)

            def counting_init(t, *args, **kwargs):
                tracer.tensors += 1
                tensor_init(t, *args, **kwargs)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                Tensor.__init__ = counting_init
                try:
                    return traced(*args, **kwargs)
                finally:
                    Tensor.__init__ = tensor_init
            return wrapper

        def make_fork(fn):
            traced = self._wrap("model.DecodeSession.fork", fn)

            @functools.wraps(fn)
            def wrapper(session):
                cfg = session.cfg
                tracer.fork_bytes += cfg.layers * 2 * (session.max_len + 1) * cfg.d_m * 8
                return traced(session)
            return wrapper

        wrappers[SPANS["model.train_step"]] = make_train_step
        wrappers[SPANS["model.DecodeSession.fork"]] = make_fork
        return patched(wrappers)

    # -- aggregation -----------------------------------------------------------
    def span_metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        self_time = defaultdict(float)
        kinds = defaultdict(set)
        for _, name, t0, t1, _, op, child in self.spans:
            calls[name] += 1
            self_time[name] += (t1 - t0) - child
            kinds[name].add(self.ops[op]["kind"] if op in self.ops else None)
        ops_by_kind = defaultdict(int)
        for info in self.ops.values():
            ops_by_kind[info["kind"]] += 1
        out = {}
        for name in SPANS:
            n_ops = sum(ops_by_kind[k] for k in kinds[name])
            out[f"{name}.calls_per_op"] = calls[name] / n_ops if n_ops else 0.0
            out[f"{name}.self_us_per_call"] = self_time[name] / calls[name] * 1e6 if calls[name] else 0.0
            out[f"{name}.self_ms_total"] = self_time[name] * 1e3
        return out

    def missing_spans(self) -> list[str]:
        fired = {s[1] for s in self.spans}
        return [name for name in SPANS if name not in fired]

    def step_time_exponent(self) -> float:
        """Slope of log(per-step time inside beam search) on log(n), over beam-1 extractions.

        Per-step time is the beam_decode span minus its encode_context span,
        divided by the span_head calls it made.  Documents are fitted when the
        run has any, as C7 fits n = 128..1024; otherwise the sentences.
        """
        per_op = defaultdict(lambda: defaultdict(float))
        for _, name, t0, t1, _, op, _ in self.spans:
            if name == "decode_search.span_head":
                per_op[op]["steps"] += 1
            elif name in ("decode_search.beam_decode", "model.encode_context"):
                per_op[op][name] += t1 - t0
        ops = [(self.ops[op], acc) for op, acc in per_op.items() if self.ops[op]["kind"] == "beam1"]
        if any(info["source"] == "documents" for info, _ in ops):
            ops = [(info, acc) for info, acc in ops if info["source"] == "documents"]
        xs, ys = [], []
        for info, acc in ops:
            step = (acc["decode_search.beam_decode"] - acc["model.encode_context"]) / acc["steps"]
            if step > 0:
                xs.append(math.log(info["n"]))
                ys.append(math.log(step))
        if len(set(xs)) < 2:
            return 0.0
        return float(np.polyfit(xs, ys, 1)[0])

    def write(self, path) -> None:
        """Dump the raw spans as tab-separated lines: id, parent, op, name, start us, duration us."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_us\tdur_us\n")
            base = min((s[2] for s in self.spans), default=0.0)
            for sid, name, t0, t1, parent, op, _ in self.spans:
                fh.write(f"{sid}\t{parent or 0}\t{op}\t{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - t0) * 1e6:.1f}\n")
