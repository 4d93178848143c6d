"""Import/export divergence arithmetic (paper section 5)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.divergence import export_divergence, import_divergence

values = st.floats(min_value=-1e6, max_value=1e6)


class TestImportDivergence:
    def test_present_minus_proper(self):
        # Paper Figure 5: d = N4 - P1.
        assert import_divergence(present=5_400.0, proper=5_000.0) == 400.0

    def test_no_concurrent_updates_means_zero(self):
        assert import_divergence(3_000.0, 3_000.0) == 0.0

    @given(values, values)
    def test_symmetric_in_arguments(self, a, b):
        assert import_divergence(a, b) == import_divergence(b, a)

    # Section 2 asks for a metric over database states.  The snapshot
    # cache leans on the triangle inequality: a published object's
    # cumulative divergence bounds the distance between any two of its
    # retained versions (repro.engine.snapshot.PublishedObject).

    @given(values, values)
    def test_zero_exactly_for_identical_states(self, a, b):
        assert import_divergence(a, a) == 0.0
        assert (import_divergence(a, b) == 0.0) == (a == b)

    @given(values, values)
    def test_non_negative(self, a, b):
        assert import_divergence(a, b) >= 0.0

    @given(values, values, values)
    def test_triangle_inequality(self, a, b, c):
        assert import_divergence(a, c) <= (
            import_divergence(a, b) + import_divergence(b, c) + 1e-6
        )


class TestExportDivergence:
    def test_max_over_concurrent_readers(self):
        # Paper Figure 6: d = max(|N5-P1|, |N5-P2|) over readers.
        d = export_divergence(7_000.0, [5_000.0, 6_500.0, 7_100.0])
        assert d == 2_000.0

    def test_no_readers_exports_nothing(self):
        assert export_divergence(1_000.0, []) == 0.0

    @given(values, st.lists(values, min_size=1, max_size=10))
    def test_max_equals_worst_single_reader(self, new_value, readers):
        expected = max(abs(new_value - p) for p in readers)
        assert export_divergence(new_value, readers) == expected
