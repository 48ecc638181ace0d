"""Tests for the switch-side flow list (§3.3.1)."""

from hypothesis import given, strategies as st

from repro.core.comparator import FlowComparator, criticality_key
from repro.core.config import PdqConfig
from repro.core.flowlist import PdqFlowList


def _list(**cfg) -> PdqFlowList:
    return PdqFlowList(PdqConfig.full(**cfg), FlowComparator())


def _key(fid, tx=1.0, deadline=None):
    return criticality_key(fid, deadline, tx)


class TestAdmission:
    def test_admit_and_get(self):
        flows = _list()
        entry = flows.admit(1, now=0.0, key=_key(1))
        assert entry is not None
        assert flows.by_fid.get(1) is entry
        assert len(flows) == 1

    def test_sorted_by_criticality(self):
        flows = _list()
        flows.admit(1, 0.0, _key(1, tx=3.0))
        flows.admit(2, 0.0, _key(2, tx=1.0))
        flows.admit(3, 0.0, _key(3, tx=2.0))
        assert [e.fid for e in flows.entries] == [2, 3, 1]
        assert flows.entries.index(flows.by_fid.get(2)) == 0

    def test_full_list_rejects_less_critical(self):
        flows = _list(min_list_capacity=2, hard_flow_limit=2)
        flows.admit(1, 0.0, _key(1, tx=1.0))
        flows.admit(2, 0.0, _key(2, tx=2.0))
        assert flows.admit(3, 0.0, _key(3, tx=5.0)) is None
        assert len(flows) == 2

    def test_full_list_evicts_least_critical_for_more_critical(self):
        flows = _list(min_list_capacity=2, hard_flow_limit=2)
        flows.admit(1, 0.0, _key(1, tx=1.0))
        flows.admit(2, 0.0, _key(2, tx=2.0))
        entry = flows.admit(3, 0.0, _key(3, tx=0.5))
        assert entry is not None
        assert flows.by_fid.get(2) is None  # evicted
        assert [e.fid for e in flows.entries] == [3, 1]
        assert flows.evictions == 1

    def test_capacity_grows_with_kappa(self):
        flows = _list(min_list_capacity=2, capacity_factor=2,
                      hard_flow_limit=64)
        a = flows.admit(1, 0.0, _key(1, tx=1.0))
        b = flows.admit(2, 0.0, _key(2, tx=2.0))
        assert flows.capacity == 2
        a.rate = 1e9
        b.rate = 1e9
        assert flows.kappa == 2
        assert flows.capacity == 4

    def test_hard_limit_caps_capacity(self):
        flows = _list(min_list_capacity=2, hard_flow_limit=3)
        entries = [flows.admit(i, 0.0, _key(i, tx=float(i + 1)))
                   for i in range(3)]
        for e in entries:
            if e:
                e.rate = 1e9
        assert flows.capacity == 3


class TestMutation:
    def test_reposition_after_key_change(self):
        flows = _list()
        a = flows.admit(1, 0.0, _key(1, tx=5.0))
        flows.admit(2, 0.0, _key(2, tx=1.0))
        index = flows.reposition(a, _key(1, tx=0.5))
        assert index == 0
        assert [e.fid for e in flows.entries] == [1, 2]

    def test_reposition_to_tail(self):
        flows = _list()
        a = flows.admit(1, 0.0, _key(1, tx=0.5))
        flows.admit(2, 0.0, _key(2, tx=1.0))
        flows.admit(3, 0.0, _key(3, tx=2.0))
        index = flows.reposition(a, _key(1, tx=9.0))
        assert index == 2 == flows.entries.index(a)
        assert [e.fid for e in flows.entries] == [2, 3, 1]

    def test_reposition_in_place_keeps_index(self):
        flows = _list()
        flows.admit(1, 0.0, _key(1, tx=1.0))
        b = flows.admit(2, 0.0, _key(2, tx=2.0))
        flows.admit(3, 0.0, _key(3, tx=3.0))
        index = flows.reposition(b, _key(2, tx=2.5))
        assert index == 1
        assert [e.fid for e in flows.entries] == [1, 2, 3]
        assert b.key == _key(2, tx=2.5)

    def test_remove(self):
        flows = _list()
        flows.admit(1, 0.0, _key(1))
        assert flows.remove(1)
        assert not flows.remove(1)
        assert flows.by_fid.get(1) is None

    def test_purge_expired(self):
        flows = _list()
        flows.admit(1, now=0.0, key=_key(1))
        entry = flows.admit(2, now=0.0, key=_key(2, tx=2.0))
        entry.last_update = 10.0
        stale = flows.purge_expired(now=10.0, horizon=5.0)
        assert stale == [1]
        assert flows.by_fid.get(2) is not None

    def test_purge_expired_keeps_fresh_entries_in_order(self):
        flows = _list()
        for fid, tx in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]:
            flows.admit(fid, now=0.0, key=_key(fid, tx=tx))
        flows.by_fid.get(1).last_update = 6.0
        flows.by_fid.get(3).last_update = 6.0
        assert flows.purge_expired(now=6.0, horizon=5.0) == [2, 4]
        assert [e.fid for e in flows.entries] == [1, 3]
        assert set(flows.by_fid) == {1, 3}
        assert flows.entries.index(flows.by_fid.get(3)) == 1
        # nothing is stale any more: a second pass purges nothing
        assert flows.purge_expired(now=6.0, horizon=5.0) == []
        assert [e.fid for e in flows.entries] == [1, 3]

    def test_sending_definition(self):
        flows = _list()
        entry = flows.admit(1, 0.0, _key(1))
        assert not entry.sending  # rate 0
        entry.rate = 1e9
        assert entry.sending
        entry.pauseby = 42
        assert not entry.sending

    @given(st.lists(st.tuples(st.integers(0, 100),
                              st.floats(0.001, 100.0)),
                    min_size=1, max_size=40, unique_by=lambda t: t[0]))
    def test_property_always_sorted(self, flows_data):
        flows = _list(hard_flow_limit=64, min_list_capacity=64)
        for fid, tx in flows_data:
            flows.admit(fid, 0.0, _key(fid, tx=tx))
        keys = [e.key for e in flows.entries]
        assert keys == sorted(keys)

    @given(st.lists(st.tuples(st.sampled_from(["admit", "reposition",
                                               "remove", "purge"]),
                              st.integers(0, 12),
                              st.floats(0.001, 100.0)),
                    min_size=1, max_size=60))
    def test_property_index_and_lookup_track_every_mutation(self, ops):
        """With no key array beside it, the list's order, ``by_fid`` and
        each entry's index must agree after any mix of mutations,
        evictions included."""
        flows = _list(min_list_capacity=4, hard_flow_limit=4)
        now = 0.0
        for op, fid, tx in ops:
            now += 1.0
            entry = flows.by_fid.get(fid)
            if op == "admit" and entry is None:
                flows.admit(fid, now, _key(fid, tx=tx))
            elif op == "reposition" and entry is not None:
                index = flows.reposition(entry, _key(fid, tx=tx))
                assert flows.entries[index] is entry
                entry.last_update = now
            elif op == "remove":
                assert flows.remove(fid) == (entry is not None)
            elif op == "purge":
                horizon = tx / 10.0
                expected = [e.fid for e in flows.entries
                            if now - e.last_update > horizon]
                assert flows.purge_expired(now, horizon) == expected
            keys = [e.key for e in flows.entries]
            assert keys == sorted(keys)
            assert len(flows) <= flows.capacity
            assert flows.by_fid == {e.fid: e for e in flows.entries}
            for i, e in enumerate(flows.entries):
                assert flows.entries.index(flows.by_fid[e.fid]) == i
