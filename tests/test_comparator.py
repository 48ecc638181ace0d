"""Tests for flow criticality comparison (§3.3)."""

from hypothesis import given, strategies as st

from repro.core.comparator import FlowComparator, criticality_key


class TestPaperComparator:
    def test_deadline_beats_no_deadline(self):
        with_deadline = criticality_key(1, deadline=1.0, expected_tx=100.0)
        without = criticality_key(2, deadline=None, expected_tx=0.001)
        assert with_deadline < without

    def test_earlier_deadline_more_critical(self):
        a = criticality_key(1, deadline=1.0, expected_tx=5.0)
        b = criticality_key(2, deadline=2.0, expected_tx=0.1)
        assert a < b  # EDF dominates SJF

    def test_sjf_breaks_deadline_ties(self):
        a = criticality_key(1, deadline=1.0, expected_tx=0.5)
        b = criticality_key(2, deadline=1.0, expected_tx=0.9)
        assert a < b

    def test_sjf_orders_no_deadline_flows(self):
        a = criticality_key(9, deadline=None, expected_tx=0.1)
        b = criticality_key(1, deadline=None, expected_tx=0.2)
        assert a < b

    def test_fid_breaks_remaining_ties(self):
        a = criticality_key(1, deadline=None, expected_tx=0.5)
        b = criticality_key(2, deadline=None, expected_tx=0.5)
        assert a < b

    def test_criticality_overrides_expected_tx(self):
        a = criticality_key(1, deadline=None, expected_tx=0.1,
                            criticality=9.0)
        b = criticality_key(2, deadline=None, expected_tx=5.0,
                            criticality=1.0)
        assert b < a

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.one_of(st.none(), st.floats(min_value=0, max_value=100)),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=2,
            max_size=50,
        )
    )
    def test_property_total_order(self, flows):
        """Keys sort consistently (transitive, antisymmetric up to equal
        keys) -- sorting twice gives the same result."""
        keys = [criticality_key(f, d, t) for f, d, t in flows]
        assert sorted(keys) == sorted(sorted(keys))

    def test_more_critical_is_strict(self):
        comparator = FlowComparator()
        k = criticality_key(1, None, 1.0)
        assert not comparator.more_critical(k, k)

