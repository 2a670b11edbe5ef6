"""Corpus ingestion, synthetic task generation, edge-frequency stats, and F1.

The JSONL corpus format, one record per line:

    {"tokens": [...], "entities": [{"start": s, "end": e, "type": name}],
     "relations": [{"head": i, "tail": j, "type": name}]}

``end`` is exclusive; relation head/tail index into the entities array.
"""
from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .altseq_codec import AltSequence, Traversal
from .hybrid_index import TextSpan
from .info_graph import InfoGraph, Mention, RelationEdge, make_graph, span_keys, validate_graph
from .type_vocab import TypeVocab, build_vocab

DEFAULT_EDGE_TYPES = (
    "[TYPE]", "PHYS", "PART-WHOLE", "PER-SOC", "ORG-AFF", "ART", "GEN-AFF", "OTHER-AFF",
)
DEFAULT_NODE_TYPES = ("PER", "ORG", "GPE", "LOC", "FAC", "VEH", "WEA", "[NULL]")
CLS_TOKEN = "[CLS]"  # first token of every synthetic sentence


def default_vocab() -> TypeVocab:
    return build_vocab(DEFAULT_EDGE_TYPES, DEFAULT_NODE_TYPES)


class CorpusError(ValueError):
    pass


@dataclass
class Dataset:
    """Good records as (tokens, graph) examples; ``errors`` holds the
    (line number, CorpusError) of each bad record of the file they came from.
    ``edge_freq`` counts the relation types of the examples, tallied when the
    dataset is made."""

    examples: list[tuple[tuple[str, ...], InfoGraph]]
    vocab: TypeVocab
    m: int
    errors: list[tuple[int, CorpusError]] = field(default_factory=list)
    edge_freq: Counter = field(init=False)

    def __post_init__(self):
        self.tally_edge_freq()

    def __len__(self):
        return len(self.examples)

    def strict(self) -> "Dataset":
        """This dataset, if it has no bad record; else the first one's CorpusError is raised."""
        if self.errors:
            raise self.errors[0][1]
        return self

    def tally_edge_freq(self) -> None:
        """Count ``edge_freq`` again from the examples, as after a change to them."""
        self.edge_freq = Counter(rel.edge_type for _, g in self.examples for rel in g.relations)

    def manifest(self) -> dict:
        n_rel = sum(len(g.relations) for _, g in self.examples)
        n_ent = sum(len(g.mentions) for _, g in self.examples)
        return {
            "examples": len(self.examples),
            "entities": n_ent,
            "relations": n_rel,
            "empty_graphs": sum(g.is_empty for _, g in self.examples),
            "vocab_hash": self.vocab.config_hash(),
            "max_span_length": self.m,
        }


def record_to_graph(record: dict, vocab: TypeVocab, m: int) -> tuple[tuple[str, ...], InfoGraph]:
    """A corpus record as (tokens, graph).  The record must be an object,
    ``tokens`` a non-empty list of strings, ``entities`` and ``relations``
    lists of objects, each ``type`` a string, and ``start``, ``end``, ``head``
    and ``tail`` integers; anything else, a JSON float or bool too, raises
    TypeError or ValueError naming the field."""
    if type(record) is not dict:
        raise TypeError(f"record must be an object, got {record!r:.60}")
    tokens = record["tokens"]
    if type(tokens) is not list or not _all_strings(tokens):
        raise TypeError(f"tokens must be a list of strings, got {tokens!r:.60}")
    if not tokens:  # a graph over no text has no sequence: decode refuses n < 1
        raise ValueError("tokens must hold at least one token, got []")
    mentions = [
        Mention(TextSpan(_field(ent, "start"), _field(ent, "end")), vocab.index(_field(ent, "type", str)))
        for ent in _objects(record, "entities")
    ]
    relations = [
        RelationEdge(_field(rel, "head"), _field(rel, "tail"), vocab.index(_field(rel, "type", str)))
        for rel in _objects(record, "relations")
    ]
    return tuple(tokens), make_graph(mentions, relations, n=len(tokens), m=m)


def _all_strings(items: list) -> bool:
    try:
        "".join(items)  # TypeError at the first item that is not a string, at a fifth of a Python loop's cost
    except TypeError:
        return False
    return True


def _objects(record: dict, name: str) -> list:
    items = record.get(name, [])
    if type(items) is not list or not all(type(item) is dict for item in items):
        raise TypeError(f"{name} must be a list of objects, got {items!r:.60}")
    return items


def _field(item: dict, name: str, kind: type = int):
    value = item[name]
    if type(value) is not kind:  # JSON true is a bool, which isinstance(value, int) admits
        raise TypeError(f"{name} must be {'an integer' if kind is int else 'a string'}, got {value!r:.60}")
    return value


def graph_to_record(tokens: Sequence[str], g: InfoGraph, vocab: TypeVocab) -> dict:
    names = vocab.names
    return {
        "tokens": list(tokens),
        "entities": [
            {"start": mn.span.start, "end": mn.span.end, "type": names[mn.node_type]}
            for mn in g.mentions
        ],
        "relations": [
            {"head": r.head, "tail": r.tail, "type": names[r.edge_type]}
            for r in g.relations
        ],
    }


def _utf8(path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CorpusError(f"{path}:{lineno}: not UTF-8: {err}") from None


def read_records(path, parse: Callable, skip: int = 0) -> Iterator[tuple[int, object]]:
    """Yield (line number, record) for each non-blank line of ``path`` after
    its first ``skip`` lines: the record is ``parse(path, lineno, line)``, or
    the CorpusError naming ``path:lineno`` when the line is not UTF-8 or
    ``parse`` raises one.  A bad line fails alone: the walk never stops early.
    Every corpus line, dump sequence line and extraction input line is read here."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(itertools.islice(fh, skip, None), start=skip + 1):
            try:
                line = _utf8(path, lineno, raw)
                if line.strip():
                    yield lineno, parse(path, lineno, line)
            except CorpusError as err:
                yield lineno, err


def split_records(path, parse: Callable, skip: int = 0) -> tuple[list, list[tuple[int, CorpusError]]]:
    """The good records of ``read_records(path, parse, skip)``, in order, and
    the (line number, CorpusError) of each bad one."""
    good, bad = [], []
    for lineno, record in read_records(path, parse, skip):
        if isinstance(record, CorpusError):
            bad.append((lineno, record))
        else:
            good.append(record)
    return good, bad


def parse_line(path, lineno: int, line: str, vocab: TypeVocab, m: int) -> tuple[tuple[str, ...], InfoGraph]:
    """One corpus line as (tokens, graph).  A malformed record (bad JSON, a
    missing or wrongly typed field, an unknown type name) or an invalid graph
    raises CorpusError naming ``path:lineno``."""
    try:
        tokens, graph = record_to_graph(json.loads(line), vocab, m)
    except (KeyError, TypeError, ValueError, RecursionError) as err:  # RecursionError: JSON nested too deep
        raise CorpusError(f"{path}:{lineno}: malformed record: {err}") from err
    problems = validate_graph(graph, len(tokens), m, vocab)
    if problems:
        raise CorpusError(f"{path}:{lineno}: invalid graph: {problems[0]}")
    return tokens, graph


def load_jsonl(path, vocab: TypeVocab, m: int = 16) -> Dataset:
    """Parse and validate a JSONL corpus: the good records as examples, and
    beside them, under ``errors``, each bad line's number and CorpusError.
    The edge frequencies are those of the good records."""
    examples, errors = split_records(path, functools.partial(parse_line, vocab=vocab, m=m))
    return Dataset(examples, vocab, m, errors)


def save_jsonl(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        for tokens, graph in dataset.examples:
            fh.write(json.dumps(graph_to_record(tokens, graph, dataset.vocab)) + "\n")


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

# slot fillers; a few multi-token surfaces keep the span head honest
ENTITY_POOL: dict[str, tuple[tuple[str, ...], ...]] = {
    "PER": (
        ("alice",), ("bob",), ("carol",), ("david",), ("erin",), ("frank",),
        ("grace",), ("henry",), ("irene",), ("jack",), ("karen",), ("louis",),
        ("mary", "ann"), ("nina",), ("oscar",), ("peter",), ("quinn",),
        ("rosa",), ("sam",), ("tina",), ("victor", "hugo"), ("wendy",),
    ),
    "ORG": (
        ("acme",), ("globex",), ("initech",), ("umbrella",), ("cyberdyne",),
        ("the", "red", "cross"), ("stark", "industries"), ("wayne", "enterprises"),
        ("tyrell",), ("aperture",), ("monarch",), ("vandelay",),
    ),
    "GPE": (
        ("paris",), ("london",), ("baghdad",), ("tokyo",), ("cairo",),
        ("new", "york"), ("san", "juan"), ("oslo",), ("lima",), ("quito",),
    ),
    "LOC": (
        ("the", "river"), ("the", "coast"), ("the", "valley"), ("the", "desert"),
        ("the", "mountains",), ("the", "harbor"),
    ),
    "FAC": (
        ("the", "airport"), ("the", "bridge"), ("the", "stadium"),
        ("fort", "knox"), ("the", "depot"), ("the", "refinery"),
    ),
    "VEH": (
        ("truck",), ("jeep",), ("tanker",), ("helicopter",), ("sedan",), ("ferry",),
    ),
    "WEA": (
        ("rifle",), ("cannon",), ("missile",), ("torpedo",), ("mortar",),
    ),
}


@dataclass(frozen=True)
class Template:
    """Slotted sentence pattern with deterministic relation rules.

    ``pattern`` mixes literal tokens and integer slot references; ``slots``
    names the entity type per slot; ``relations`` is (head_slot, tail_slot,
    relation name).
    """

    pattern: tuple[object, ...]
    slots: tuple[str, ...]
    relations: tuple[tuple[int, int, str], ...]


TEMPLATES: tuple[Template, ...] = (
    Template((0, "works", "for", 1, "."), ("PER", "ORG"), ((0, 1, "ORG-AFF"),)),
    Template((0, "was", "captured", "in", 1, "."), ("PER", "GPE"), ((1, 0, "PHYS"),)),
    Template(
        (0, "and", 1, "met", "at", 2, "."),
        ("PER", "PER", "FAC"),
        ((0, 1, "PER-SOC"), (0, 2, "PHYS"), (1, 2, "PHYS")),
    ),
    Template((0, "is", "part", "of", 1, "."), ("ORG", "ORG"), ((0, 1, "PART-WHOLE"),)),
    Template((0, "belongs", "to", 1, "."), ("WEA", "ORG"), ((1, 0, "ART"),)),
    Template(
        (0, "drove", "a", 1, "to", 2, "."),
        ("PER", "VEH", "LOC"),
        ((0, 1, "ART"), (0, 2, "PHYS")),
    ),
    Template((0, "is", "located", "in", 1, "."), ("FAC", "GPE"), ((0, 1, "PHYS"),)),
    Template((0, "is", "a", "citizen", "of", 1, "."), ("PER", "GPE"), ((0, 1, "GEN-AFF"),)),
    Template(
        (0, "opened", 1, "in", 2, "."),
        ("ORG", "FAC", "GPE"),
        ((0, 1, "ART"), (1, 2, "PHYS")),
    ),
    Template((0, "leads", 1, "."), ("PER", "ORG"), ((0, 1, "ORG-AFF"),)),
    Template((0, "carried", "a", 1, "."), ("VEH", "WEA"), ((0, 1, "OTHER-AFF"),)),
    Template(
        (0, "visited", 1, "with", 2, "."),
        ("PER", "GPE", "PER"),
        ((0, 1, "PHYS"), (2, 1, "PHYS"), (0, 2, "PER-SOC")),
    ),
    Template(
        (0, "bought", "a", 1, "from", 2, "."),
        ("ORG", "VEH", "ORG"),
        ((0, 1, "ART"), (2, 1, "OTHER-AFF")),
    ),
    Template((0, "sailed", "past", 1, "."), ("VEH", "LOC"), ((0, 1, "PHYS"),)),
    # empty-graph sentences
    Template(("it", "rained", "all", "day", "."), (), ()),
    Template(("nothing", "happened", "today", "."), (), ()),
    Template(("the", "meeting", "was", "quiet", "."), (), ()),
)


def synth_generate(
    size: int,
    seed: int,
    vocab: TypeVocab | None = None,
    m: int = 16,
    templates: Sequence[Template] = TEMPLATES,
) -> Dataset:
    """Reproducible synthetic corpus: same seed, same bytes.

    Every sentence starts with the reserved ``CLS_TOKEN``; entity spans use
    verbatim token coordinates (so they never start at position 0).  An
    ``m`` below the longest surface of ``ENTITY_POOL`` raises ValueError.
    """
    longest = max((surface for pool in ENTITY_POOL.values() for surface in pool), key=len)
    if m < len(longest):
        raise ValueError(f"maximum span length {m} is below the {len(longest)}-token surface {' '.join(longest)!r}")
    vocab = vocab or default_vocab()
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(size):
        tpl = templates[int(rng.integers(len(templates)))]
        fillers: list[tuple[str, ...]] = []
        used: set[tuple[str, ...]] = set()
        for slot_type in tpl.slots:
            pool = ENTITY_POOL[slot_type]
            pick = pool[int(rng.integers(len(pool)))]
            while pick in used:  # no duplicate surfaces within one sentence
                pick = pool[int(rng.integers(len(pool)))]
            used.add(pick)
            fillers.append(pick)
        tokens: list[str] = [CLS_TOKEN]
        spans: list[TextSpan] = []
        for piece in tpl.pattern:
            if isinstance(piece, int):
                start = len(tokens)
                tokens.extend(fillers[piece])
                spans.append(TextSpan(start, len(tokens)))
            else:
                tokens.append(piece)
        mentions = [Mention(spans[i], vocab.index(tpl.slots[i])) for i in range(len(tpl.slots))]
        relations = [
            RelationEdge(h, t, vocab.index(name)) for h, t, name in tpl.relations
        ]
        graph = make_graph(mentions, relations, n=len(tokens), m=m)
        examples.append((tuple(tokens), graph))
    return Dataset(examples, vocab, m)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass
class PRF:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class F1Result:
    ner: PRF
    re: PRF


def eval_f1(pred: Sequence[InfoGraph], gold: Sequence[InfoGraph]) -> F1Result:
    """Micro-averaged F1; a mention counts when span+type match exactly, a
    relation when its type and both argument spans match exactly."""
    if len(pred) != len(gold):
        raise ValueError(f"prediction/gold length mismatch: {len(pred)} vs {len(gold)}")
    ner, re = PRF(), PRF()
    for p, g in zip(pred, gold):
        (pm, pr), (gm, gr) = span_keys(p), span_keys(g)
        ner.tp += len(pm & gm)
        ner.fp += len(pm - gm)
        ner.fn += len(gm - pm)
        inter = sum((pr & gr).values())
        re.tp += inter
        re.fp += sum(pr.values()) - inter
        re.fn += sum(gr.values()) - inter
    return F1Result(ner=ner, re=re)


# ---------------------------------------------------------------------------
# sequence dumps (CLI-facing)
# ---------------------------------------------------------------------------

def write_sequence_dump(out, seqs, vocab: TypeVocab, m: int, traversal: Traversal) -> None:
    """Write to the open text stream ``out`` a header line of metadata, then one
    line per sequence: n followed by items."""
    header = {"m": m, "traversal": traversal.value, "vocab_hash": vocab.config_hash()}
    out.write(json.dumps(header) + "\n")
    for seq in seqs:
        out.write(" ".join(map(str, (seq.n, *seq.items))) + "\n")


def read_dump_header(path, vocab: TypeVocab) -> tuple[int, Traversal]:
    """The (m, traversal) a sequence dump's header line records.  A header that
    is not a JSON object with an integer ``m`` >= 1, ``traversal`` and this
    vocab's ``vocab_hash`` raises CorpusError naming ``path``."""
    with open(path, "rb") as fh:
        line = _utf8(path, 1, fh.readline())
    try:
        header = json.loads(line)
        vocab_hash, m, traversal = header["vocab_hash"], header["m"], Traversal(header["traversal"])
    except KeyError as err:
        raise CorpusError(f"{path}:1: sequence dump header has no {err} key") from None
    except (TypeError, ValueError, RecursionError) as err:  # RecursionError: JSON nested too deep
        raise CorpusError(f"{path}:1: malformed sequence dump header: {err}") from None
    if type(m) is not int or m < 1:  # JSON true is a bool, which isinstance(m, int) admits
        raise CorpusError(f"{path}:1: sequence dump header's m is not an integer >= 1: {m!r}")
    if vocab_hash != vocab.config_hash():
        raise CorpusError(f"{path}: sequence dump was written with a different vocab")
    return m, traversal


def parse_sequence_line(path, lineno: int, line: str, vocab: TypeVocab, m: int, traversal: Traversal) -> AltSequence:
    """One dump line, n followed by the items, as a sequence; a line that is not
    all integers, or whose n is below 1, raises CorpusError naming ``path:lineno``."""
    try:
        n, *items = map(int, line.split())
    except ValueError as err:
        raise CorpusError(f"{path}:{lineno}: malformed sequence line: {err}") from None
    if n < 1:
        raise CorpusError(f"{path}:{lineno}: sequence line's n must be >= 1, got {n}")
    return AltSequence(tuple(items), traversal, vocab, n, m)


def read_sequence_dump(path, vocab: TypeVocab) -> list[AltSequence]:
    """Every sequence of a dump; a bad header or the first bad sequence line raises CorpusError."""
    m, traversal = read_dump_header(path, vocab)
    parse = functools.partial(parse_sequence_line, vocab=vocab, m=m, traversal=traversal)
    seqs, errors = split_records(path, parse, skip=1)
    if errors:
        raise errors[0][1]
    return seqs
