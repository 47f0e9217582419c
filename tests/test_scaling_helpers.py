"""Tests for the harness pieces the scaling/summary benches rely on."""

import pytest

from repro.bench import OK, TLE, RunOutcome, speedup, timed_run, trend_label
from repro.errors import TimeLimitExceeded


class TestHarnessBackstop:
    def test_backstop_marks_slow_ok_runs_as_tle(self):
        """A workload that ignores deadlines still gets flagged when the
        harness-side backstop budget is exceeded."""
        import time

        def slow():
            time.sleep(0.05)
            return "done"

        outcome = timed_run(slow, time_limit=0.01)
        assert outcome.status == TLE
        # value is still captured (the run DID complete, just late)
        assert outcome.value == "done"

    def test_fast_run_within_backstop(self):
        outcome = timed_run(lambda: 1, time_limit=10)
        assert outcome.ok

    def test_cooperative_deadline_preferred(self):
        def cooperative():
            raise TimeLimitExceeded(0.01, 0.02)

        outcome = timed_run(cooperative)
        assert outcome.status == TLE
        assert outcome.value is None


class TestSpeedupCells:
    def test_huge_ratio_scientific(self):
        cell = speedup(RunOutcome(OK, 0.001), RunOutcome(OK, 100.0))
        assert "e+" in cell

    def test_midrange_ratio_integer(self):
        assert speedup(RunOutcome(OK, 1.0), RunOutcome(OK, 42.0)) == "42x"

    def test_small_ratio_one_decimal(self):
        assert speedup(RunOutcome(OK, 1.0), RunOutcome(OK, 1.55)) == "1.6x"

    def test_budget_floor_applies(self):
        ours = RunOutcome(OK, 1.0)
        failed = RunOutcome(TLE, 5.0)  # died early in wall-clock terms
        cell = speedup(ours, failed, baseline_budget=30.0)
        assert cell == ">=30x"


class TestTrendLabel:
    SIZES = (96, 192, 384)

    def test_last_above_first_is_not_a_trend(self):
        # The bug: first-vs-last called this "widening".
        assert trend_label(self.SIZES, (1.6, 1.3, 1.7)) == "flat/noisy"

    def test_slope_clearing_the_scatter_is_labelled_by_sign(self):
        assert trend_label(self.SIZES, (1.1, 1.6, 2.0)) == "widening"
        assert trend_label(self.SIZES, (2.0, 1.6, 1.1)) == "narrowing"

    def test_two_points_never_show_a_trend(self):
        assert trend_label((96, 192), (1.0, 9.0)) == "flat/noisy"
