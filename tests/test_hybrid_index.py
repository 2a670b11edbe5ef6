import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyspa.hybrid_index import SpanError, TextSpan, index_to_text_span, span_rows, span_to_index

L_P = 19
M = 16


class TestSpanToIndex:
    def test_he_span(self):
        assert span_to_index(TextSpan(0, 1), M, L_P) == 19

    def test_baghdad_span(self):
        assert span_to_index(TextSpan(4, 5), M, L_P) == 83

    def test_two_token_span(self):
        # brute-force uniqueness over all legal spans confirms 52 is only (2,4)
        assert span_to_index(TextSpan(2, 4), M, L_P) == 52
        hits = [
            (s, e)
            for s in range(8)
            for e in range(s + 1, min(s + M, 8) + 1)
            if span_to_index(TextSpan(s, e), M, L_P) == 52
        ]
        assert hits == [(2, 4)]

    def test_overlong_span_rejected(self):
        with pytest.raises(SpanError):
            span_to_index(TextSpan(0, M + 1), M, L_P)

    def test_bad_span_rejected(self):
        with pytest.raises(SpanError):
            TextSpan(3, 3)
        with pytest.raises(SpanError):
            TextSpan(-1, 2)


class TestIndexToHSpan:
    """``span_rows``: a slot's inclusive rows (lo, hi) of H."""

    def test_type_identity(self):
        assert span_rows(10, M, L_P) == (10, 10)

    def test_baghdad_rows(self):
        assert span_rows(83, M, L_P) == (23, 23)

    def test_two_token_rows(self):
        assert span_rows(52, M, L_P) == (21, 22)

    def test_identity_for_all_type_indices(self):
        for k in range(L_P):
            assert span_rows(k, M, L_P) == (k, k)

    def test_out_of_range(self):
        # the callers' check, k < 0 or hi >= L_P + n, refuses exactly the slots
        # that are neither a type nor a span inside a text of n tokens
        n = 4
        for k in range(-M, L_P + (n + 1) * M):
            start, length = divmod(k - L_P, M)
            legal = 0 <= k < L_P or k >= L_P and start + length + 1 <= n
            assert (k < 0 or span_rows(k, M, L_P)[1] >= L_P + n) == (not legal), k


class TestHSpanToTextSpan:
    """A span slot's H rows are its token span shifted by L_P, hi inclusive."""

    def test_baghdad(self):
        assert span_rows(83, M, L_P) == (23, 23) and index_to_text_span(83, M, L_P) == TextSpan(4, 5)

    def test_he(self):
        assert span_rows(19, M, L_P) == (19, 19) and index_to_text_span(19, M, L_P) == TextSpan(0, 1)

    def test_two_token(self):
        assert span_rows(52, M, L_P) == (21, 22) and index_to_text_span(52, M, L_P) == TextSpan(2, 4)

    def test_type_rows_rejected(self):
        with pytest.raises(SpanError):
            index_to_text_span(5, M, L_P)


class TestBijection:
    def test_exhaustive_n64_m16(self):
        n = 64
        seen = {}
        for start in range(n):
            for end in range(start + 1, min(start + M, n) + 1):
                span = TextSpan(start, end)
                k = span_to_index(span, M, L_P)
                assert L_P <= k < L_P + n * M
                assert k not in seen, f"collision at {k}: {seen[k]} vs {span}"
                seen[k] = span
                assert index_to_text_span(k, M, L_P) == span
        # the array form, as the training tape calls it, row for row equals the int form
        slots = np.arange(L_P + n * M)
        los, his = span_rows(slots, M, L_P)
        assert [span_rows(k, M, L_P) for k in range(L_P + n * M)] == list(zip(los.tolist(), his.tolist()))

    def test_output_space_size_linear(self):
        # the legal spans of a text of n tokens index into [L_P, L_P + n*M): the
        # lowest is (0, 1) and the highest (n-1, n)
        for n in (16, 32, 64):
            legal = [
                span_to_index(TextSpan(s, e), M, L_P)
                for s in range(n)
                for e in range(s + 1, min(s + M, n) + 1)
            ]
            assert min(legal) == L_P
            assert max(legal) == span_to_index(TextSpan(n - 1, n), M, L_P) == L_P + (n - 1) * M < L_P + n * M

    @given(st.integers(0, 63), st.integers(1, 16))
    def test_roundtrip_property(self, start, length):
        span = TextSpan(start, start + length)
        k = span_to_index(span, M, L_P)
        lo, hi = span_rows(k, M, L_P)
        assert index_to_text_span(k, M, L_P) == span == TextSpan(lo - L_P, hi - L_P + 1)
