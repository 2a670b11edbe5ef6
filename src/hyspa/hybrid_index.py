"""Closed-form bijection between text spans / type ids and hybrid-span indices.

A span's index is ``start*m + (len-1) + l_p``, so index order is (start, end)
span order.  Whether a span fits a text is a property of the graph that holds
it, checked by ``info_graph.validate_graph``.

Two coordinate conventions coexist deliberately:

* ``TextSpan`` is end-exclusive in token coordinates (start < end).
* ``HSpan`` is end-inclusive in rows of the hybrid representation H: the
  window that a span's attention reads.
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

    @property
    def length(self) -> int:
        return self.end - self.start


class HSpan(NamedTuple("HSpan", [("lo", int), ("hi", int)])):
    """Inclusive row range [lo, hi] into H; type rows have lo == hi < l_p."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo < 0 or hi < lo:
            raise SpanError(f"bad H-span ({lo}, {hi})")
        return tuple.__new__(cls, (lo, hi))


def span_to_index(span: TextSpan, m: int, l_p: int) -> int:
    """Map a text span to its hybrid index: start*m + (len-1) + l_p."""
    start, end = span
    if end - start > m:
        raise SpanError(f"span {span} longer than maximum span length {m}")
    return start * m + (end - start - 1) + l_p


def index_to_hspan(k: int, m: int, l_p: int, n: int | None = None) -> HSpan:
    """Invert a hybrid index to an inclusive H-row range.

    Type indices (k < l_p) map to themselves, (k, k).  When ``n`` is given the
    index must address rows inside H, i.e. k < l_p + n*m and hi < l_p + n.
    """
    if k < 0 or (n is not None and k >= l_p + n * m):
        raise SpanError(f"index {k} outside [0, {l_p + n * m if n is not None else '...'})")
    off = max(0, k - l_p)
    lo = -max(0, -k + l_p) + off // m + l_p
    hi = lo + off % m
    if n is not None and hi >= l_p + n:
        raise SpanError(f"index {k} addresses row {hi} beyond H height {l_p + n}")
    return HSpan(lo, hi)


def hspan_to_text_span(h: HSpan, l_p: int) -> TextSpan:
    """Convert H-row coordinates back to an end-exclusive token span."""
    if h.lo < l_p:
        raise SpanError(f"H-span {h} addresses type rows (lo < l_p={l_p})")
    return TextSpan(h.lo - l_p, h.hi - l_p + 1)


def index_to_text_span(k: int, m: int, l_p: int) -> TextSpan:
    """Invert a span index k >= l_p to its token span, the same span as
    hspan_to_text_span(index_to_hspan(k)) without the H-row detour."""
    start = (k - l_p) // m
    return TextSpan(start, start + (k - l_p) % m + 1)
