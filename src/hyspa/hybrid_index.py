"""Closed-form bijection between text spans / type ids and hybrid-span indices.

A span's index is ``start*m + (len-1) + l_p``, so index order is (start, end)
span order.  Whether a span fits a text is a property of the graph that holds
it, checked by ``info_graph.validate_graph``.

An index has two readings, one per coordinate system:

* ``index_to_text_span`` gives a span slot's ``TextSpan``, end-exclusive in
  token coordinates (start < end): what the codec writes into a graph.
* ``span_rows`` gives the inclusive rows (lo, hi) of the hybrid
  representation H that the slot's span attention reads, text row r being
  H row l_p + r; a type slot k < l_p reads its own row, (k, k).  The
  training tape and the inference engine both call it.
"""
from __future__ import annotations

from typing import NamedTuple


class SpanError(ValueError):
    """Raised for spans or indices outside their legal ranges."""


class TextSpan(NamedTuple("TextSpan", [("start", int), ("end", int)])):
    """Token span [start, end) over the input text; a tuple, so it orders by
    (start, end)."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start < 0 or end <= start:
            raise SpanError(f"bad span ({start}, {end})")
        return tuple.__new__(cls, (start, end))


def span_to_index(span: TextSpan, m: int, l_p: int) -> int:
    """Map a text span to its hybrid index: start*m + (len-1) + l_p."""
    start, end = span
    if end - start > m:
        raise SpanError(f"span {span} longer than maximum span length {m}")
    return start * m + (end - start - 1) + l_p


def index_to_text_span(k: int, m: int, l_p: int) -> TextSpan:
    """Invert a span index k >= l_p to its token span: start (k - l_p) // m,
    length (k - l_p) % m + 1."""
    start = (k - l_p) // m
    return TextSpan(start, start + (k - l_p) % m + 1)


def span_rows(k, m: int, l_p: int):
    """The inclusive rows (lo, hi) of H that slot k's span attention reads,
    for an int k or elementwise for an int array: (k, k) for a type slot
    k < l_p, and (l_p + start, l_p + end - 1) for a span slot.  Operators
    only, so one int costs no numpy call; the caller checks the range."""
    off = (k - l_p) * (k >= l_p)  # 0 for a type slot
    lo = k - off + off // m
    return lo, lo + off % m
