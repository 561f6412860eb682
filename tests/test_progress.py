"""Tests for campaign progress tracking (ProgressTracker / Ticker)."""

import io

from repro.campaign.progress import ProgressTracker, Ticker


class FakeClock:
    """Hand-driven monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def tracker(planned=100, clock=None):
    return ProgressTracker(planned, clock=clock or FakeClock())


# ---------------------------------------------------------------------------
# ProgressTracker
# ---------------------------------------------------------------------------
def test_eta_math():
    clock = FakeClock()
    t = tracker(planned=100, clock=clock)
    t.plan_cell("cell-a", 100)
    clock.advance(10.0)
    for _ in range(20):
        t.update("cell-a")
    # 20 trials in 10s -> 2/s; 80 remain -> 40s
    assert t.trials_per_second == 2.0
    assert t.eta_seconds() == 40.0
    assert t.cell_eta_seconds("cell-a") == 40.0
    assert t.remaining == 80


def test_eta_unknown_before_any_completion():
    clock = FakeClock()
    t = tracker(planned=10, clock=clock)
    assert t.eta_seconds() is None
    assert t.cell_eta_seconds("nope") is None
    clock.advance(5.0)
    assert t.trials_per_second == 0.0
    assert t.eta_seconds() is None


def test_zero_trial_campaign():
    clock = FakeClock()
    t = tracker(planned=0, clock=clock)
    clock.advance(1.0)
    assert t.remaining == 0
    assert t.eta_seconds() is None  # nothing done -> rate 0 -> unknown
    line = t.render()
    assert "campaign: 0/0 trials" in line
    s = t.summary()
    assert s["planned_trials"] == 0 and s["trials_run"] == 0


def test_resume_skip_counts_toward_progress():
    clock = FakeClock()
    t = tracker(planned=50, clock=clock)
    t.plan_cell("c", 50)
    t.resume_skip("c", 30)
    clock.advance(10.0)
    for _ in range(10):
        t.update("c")
    assert t.remaining == 10
    # resumed trials don't inflate the measured rate
    assert t.trials_per_second == 1.0
    assert t.eta_seconds() == 10.0
    assert "40/50 trials" in t.render()


def test_early_stop_shrinks_plan():
    t = tracker(planned=100)
    t.plan_cell("a", 50)
    t.plan_cell("b", 50)
    for _ in range(20):
        t.update("a")
    t.early_stop("a")
    assert t.skipped_early_stop == 30
    assert t.planned == 70
    assert "early-stopped 30" in t.render()
    assert t.summary()["cells"]["a"] == {"done": 20, "planned": 20,
                                         "eta_seconds": None}


def test_summary_shape_and_failures_in_render():
    clock = FakeClock()
    t = tracker(planned=10, clock=clock)
    t.plan_cell("c", 10)
    clock.advance(2.0)
    t.update("c")
    t.absorb(worker_failures=2, retries=1, crashes=1)
    t.finish_cell("c")
    assert "failures 2" in t.render()
    s = t.summary()
    assert s["worker_failures"] == 2 and s["retries"] == 1
    assert s["crashes"] == 1
    assert "timeouts" not in s
    assert s["elapsed_seconds"] == 2.0
    assert s["cells"]["c"]["done"] == 1


# ---------------------------------------------------------------------------
# Ticker
# ---------------------------------------------------------------------------
def test_ticker_writes_carriage_return_line_and_final_newline():
    clock = FakeClock()
    t = tracker(planned=10, clock=clock)
    out = io.StringIO()
    ticker = Ticker(t, stream=out, enabled=True, clock=clock)
    t.update("c")
    ticker.tick()
    text = out.getvalue()
    assert text.startswith("\r\x1b[K")
    assert "campaign: 1/10 trials" in text
    ticker.close()
    assert out.getvalue().endswith("\n")


def test_ticker_throttles_by_interval():
    clock = FakeClock()
    t = tracker(planned=10, clock=clock)
    out = io.StringIO()
    ticker = Ticker(t, stream=out, enabled=True, clock=clock)
    assert ticker.interval == 0.5
    ticker.tick()
    first = out.getvalue()
    ticker.tick()              # too soon: dropped
    assert out.getvalue() == first
    clock.advance(0.6)
    ticker.tick()
    assert len(out.getvalue()) > len(first)
    out2 = io.StringIO()
    t2 = Ticker(t, stream=out2, enabled=True, clock=clock)
    t2.tick()
    t2.tick(force=True)        # force bypasses the throttle
    assert out2.getvalue().count("\r") == 2


def test_ticker_disabled_is_silent():
    t = tracker(planned=10)
    out = io.StringIO()
    ticker = Ticker(t, stream=out, enabled=False)
    ticker.tick(force=True)
    ticker.close()
    assert out.getvalue() == ""


def test_ticker_defaults_off_without_tty():
    t = tracker(planned=10)
    assert Ticker(t, stream=io.StringIO()).enabled is False
