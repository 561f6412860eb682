"""Tests for the pipeline tracer and timeline renderer."""

import pytest

from repro.core.trace import PipelineTracer, render_timeline
from repro.isa.assembler import assemble
from repro.redundancy.pair import BaselineSystem
from repro.reunion.system import ReunionSystem


@pytest.fixture()
def traced_run(sum_loop):
    system = BaselineSystem(sum_loop)
    tracer = PipelineTracer()
    system.pipelines[0].tracer = tracer
    system.run()
    return tracer


def test_every_committed_instruction_traced(traced_run, sum_loop):
    from repro.isa import golden
    gold = golden.run(sum_loop)
    assert len(traced_run.committed_records()) == gold.instructions


def test_lifecycle_is_ordered(traced_run):
    for r in traced_run.committed_records():
        assert r.fetch_cycle <= r.dispatch_cycle <= r.issue_cycle
        assert r.issue_cycle < r.complete_cycle <= r.commit_cycle


def test_latency_properties(traced_run):
    r = traced_run.committed_records()[0]
    assert r.commit_wait == r.commit_cycle - r.complete_cycle


def test_trace_limit_drops_excess(sum_loop):
    system = BaselineSystem(sum_loop)
    tracer = PipelineTracer(limit=10)
    system.pipelines[0].tracer = tracer
    system.run()
    assert len(tracer.records) == 10
    assert tracer.dropped > 0


def test_render_timeline_contains_stages(traced_run):
    text = render_timeline(traced_run, first_seq=0, count=8)
    assert "R" in text and "I" in text
    assert len(text.splitlines()) == 9  # header + 8 rows


def test_render_empty_window():
    assert "no committed" in render_timeline(PipelineTracer())


def test_render_compresses_long_spans(sum_loop):
    system = BaselineSystem(sum_loop)
    tracer = PipelineTracer()
    system.pipelines[0].tracer = tracer
    system.run()
    text = render_timeline(tracer, count=10_000, max_width=60)
    # the diagram must respect the width budget
    assert all(len(line) < 130 for line in text.splitlines())


def test_reunion_has_longer_commit_wait(sum_loop):
    base = BaselineSystem(sum_loop)
    t0 = PipelineTracer()
    base.pipelines[0].tracer = t0
    base.run()

    reu = ReunionSystem(sum_loop)
    t1 = PipelineTracer()
    reu.pipelines[0].tracer = t1
    reu.run()
    # the whole paper in one assertion: Reunion holds completed work at
    # the commit point (fingerprint verification); the baseline does not
    assert t1.mean_commit_wait() > t0.mean_commit_wait() + 3


def test_untraced_run_unaffected(sum_loop):
    plain = BaselineSystem(sum_loop).run()
    traced_system = BaselineSystem(sum_loop)
    traced_system.pipelines[0].tracer = PipelineTracer()
    traced = traced_system.run()
    assert plain.cycles == traced.cycles  # tracing is observation-only
