"""Tests for metrics collection and summaries."""

import pytest

from repro.errors import ExperimentError
from repro.metrics import FlowRecord, MetricsCollector, SummaryStats
from repro.workload.flow import FlowSpec


def _spec(fid=0, deadline=None, arrival=0.0):
    return FlowSpec(fid=fid, src="a", dst="b", size_bytes=1000,
                    arrival=arrival, deadline=deadline)


#: every per-flow event hook, with its arguments after the fid
HOOK_ARGS = {
    "on_start": (0.0,),
    "on_bytes": (100,),
    "on_retransmit": (),
    "on_probe": (),
    "on_complete": (0.5,),
    "on_terminated": (0.5, "reason"),
}


class TestFlowRecord:
    def test_fct_relative_to_arrival(self):
        record = FlowRecord(spec=_spec(arrival=1.0))
        record.completion_time = 1.5
        assert record.fct == pytest.approx(0.5)

    def test_met_deadline(self):
        record = FlowRecord(spec=_spec(deadline=1.0))
        record.completion_time = 0.9
        assert record.met_deadline
        record.completion_time = 1.1
        assert not record.met_deadline

    def test_no_deadline_never_met(self):
        record = FlowRecord(spec=_spec())
        record.completion_time = 0.1
        assert not record.met_deadline

    def test_incomplete_flow(self):
        record = FlowRecord(spec=_spec(deadline=1.0))
        assert record.fct is None
        assert not record.met_deadline


class TestCollector:
    def test_register_and_complete(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        collector.on_start(1, 0.0)
        collector.on_bytes(1, 1000)
        collector.on_complete(1, 0.25)
        record = collector.record(1)
        assert record.completed
        assert record.bytes_delivered == 1000

    def test_double_registration_rejected(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        with pytest.raises(ExperimentError):
            collector.register(_spec(fid=1))

    def test_first_completion_wins(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        collector.on_complete(1, 0.25)
        collector.on_complete(1, 0.50)
        assert collector.record(1).completion_time == 0.25

    def test_termination_after_completion_ignored(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        collector.on_complete(1, 0.25)
        collector.on_terminated(1, 0.30, "late")
        assert not collector.record(1).terminated

    def test_application_throughput(self):
        collector = MetricsCollector()
        for fid, (deadline, done_at) in enumerate(
            [(1.0, 0.5), (1.0, 2.0), (1.0, None)]
        ):
            collector.register(_spec(fid=fid, deadline=deadline))
            if done_at is not None:
                collector.on_complete(fid, done_at)
        assert collector.application_throughput() == pytest.approx(1 / 3)

    def test_application_throughput_needs_deadline_flows(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        with pytest.raises(ExperimentError):
            collector.application_throughput()

    def test_mean_fct_subset(self):
        collector = MetricsCollector()
        for fid, done in [(1, 0.1), (2, 0.3), (3, 0.5)]:
            collector.register(_spec(fid=fid))
            collector.on_complete(fid, done)
        assert collector.mean_fct(only=[1, 3]) == pytest.approx(0.3)

    def test_mean_fct_empty_raises(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        with pytest.raises(ExperimentError):
            collector.mean_fct()

    def test_unfinished_excludes_terminated(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        collector.register(_spec(fid=2))
        collector.on_terminated(1, 0.1, "reason")
        assert [r.spec.fid for r in collector.unfinished()] == [2]

    @pytest.mark.parametrize("hook", list(HOOK_ARGS))
    def test_hook_for_unknown_flow_raises_key_error(self, hook):
        # the exact collector keeps every record, so a hook naming a
        # flow it never registered is a caller bug
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        with pytest.raises(KeyError):
            getattr(collector, hook)(7, *HOOK_ARGS[hook])


class TestSummary:
    def test_summary_from_collector(self):
        collector = MetricsCollector()
        for fid, done in [(1, 0.1), (2, 0.2)]:
            collector.register(_spec(fid=fid, deadline=0.15))
            collector.on_complete(fid, done)
        collector.register(_spec(fid=3, deadline=0.15))
        collector.on_terminated(3, 0.05, "early_termination")
        summary = SummaryStats.from_collector(collector)
        assert summary.n_flows == 3
        assert summary.n_completed == 2
        assert summary.n_terminated == 1
        assert summary.mean_fct == pytest.approx(0.15)
        assert summary.application_throughput == pytest.approx(1 / 3)

    def test_describe_renders(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1))
        collector.on_complete(1, 0.1)
        text = SummaryStats.from_collector(collector).describe()
        assert "flows=1" in text
        assert "mean_fct" in text


class TestSerialization:
    def _full_collector(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=1, deadline=0.15, arrival=0.01))
        collector.on_start(1, 0.01)
        collector.on_bytes(1, 1000)
        collector.on_complete(1, 0.12)
        collector.register(_spec(fid=2, deadline=0.15))
        collector.on_terminated(2, 0.05, "early_termination")
        collector.on_retransmit(2)
        collector.register(_spec(fid=3))
        collector.on_probe(3)
        return collector

    def test_flow_spec_roundtrip(self):
        spec = _spec(fid=7, deadline=0.2, arrival=0.3)
        assert FlowSpec.from_dict(spec.to_dict()) == spec

    def test_record_roundtrip(self):
        record = FlowRecord(spec=_spec(fid=1, deadline=0.1))
        record.completion_time = 0.05
        record.bytes_delivered = 1000
        restored = FlowRecord.from_dict(record.to_dict())
        assert restored == record
        assert restored.met_deadline

    def test_collector_roundtrip_preserves_metrics(self):
        collector = self._full_collector()
        restored = MetricsCollector.from_dict(collector.to_dict())
        assert restored.to_dict() == collector.to_dict()
        assert restored.mean_fct() == collector.mean_fct()
        assert (restored.application_throughput()
                == collector.application_throughput())
        assert [r.spec.fid for r in restored.all_records()] == [1, 2, 3]
        assert restored.record(2).terminated
        assert restored.record(2).termination_reason == "early_termination"

    def test_collector_roundtrip_through_json(self):
        import json

        collector = self._full_collector()
        payload = json.loads(json.dumps(collector.to_dict()))
        restored = MetricsCollector.from_dict(payload)
        assert restored.to_dict() == collector.to_dict()

    def test_summary_roundtrip(self):
        collector = self._full_collector()
        summary = SummaryStats.from_collector(collector)
        assert SummaryStats.from_dict(summary.to_dict()) == summary


class TestCompletionObservers:
    def test_observer_fires_when_last_flow_resolves(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=0))
        collector.register(_spec(fid=1))
        fired = []
        collector.add_completion_observer(lambda: fired.append(True))
        assert collector.unfinished_count() == 2
        collector.on_complete(0, 1.0)
        assert fired == []
        collector.on_terminated(1, 2.0, "gave_up")
        assert fired == [True]
        assert collector.unfinished_count() == 0

    def test_resolution_counted_once_per_flow(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=0))
        fired = []
        collector.add_completion_observer(lambda: fired.append(True))
        collector.on_terminated(0, 1.0, "gave_up")
        # a late completion or repeated termination must not re-resolve
        collector.on_complete(0, 2.0)
        collector.on_terminated(0, 3.0, "again")
        assert fired == [True]
        assert collector.unfinished_count() == 0

    def test_unsubscribe(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=0))
        fired = []
        unsubscribe = collector.add_completion_observer(
            lambda: fired.append(True))
        unsubscribe()
        collector.on_complete(0, 1.0)
        assert fired == []

    def test_registering_after_resolution_rearms(self):
        collector = MetricsCollector()
        fired = []
        collector.add_completion_observer(lambda: fired.append(True))
        collector.register(_spec(fid=0))
        collector.on_complete(0, 1.0)
        collector.register(_spec(fid=1))
        collector.on_complete(1, 2.0)
        assert fired == [True, True]

    def test_from_dict_restores_unresolved_count(self):
        collector = MetricsCollector()
        collector.register(_spec(fid=0))
        collector.register(_spec(fid=1))
        collector.register(_spec(fid=2))
        collector.on_complete(0, 1.0)
        collector.on_terminated(1, 1.5, "gave_up")
        restored = MetricsCollector.from_dict(collector.to_dict())
        assert restored.unfinished_count() == 1
        assert len(restored.unfinished()) == 1
