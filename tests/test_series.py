import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigcast.series import (
    TimeSeries,
    Window,
    l2_residual,
    rolling_windows,
    summary_stats,
)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([]))

    def test_values_read_only(self):
        ts = TimeSeries(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestWindow:
    def test_length(self):
        assert len(Window(3, 7)) == 5

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Window(5, 4)


class TestSummaryStats:
    def test_constant_series(self):
        st_ = summary_stats([1.0, 1.0, 1.0, 1.0])
        assert (st_.min, st_.max, st_.mean, st_.std, st_.range) == (1, 1, 1, 0, 0)

    def test_two_point(self):
        st_ = summary_stats([0.0, 2.0])
        assert st_.mean == 1.0
        assert st_.range == 2.0
        assert st_.std == pytest.approx(math.sqrt(2.0), rel=1e-15)  # n-1 convention

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            summary_stats([])

    def test_single_sample_std_zero(self):
        assert summary_stats([5.0]).std == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_range_is_exactly_max_minus_min(self, vals):
        st_ = summary_stats(vals)
        assert st_.range == st_.max - st_.min
        # mean can land an ulp outside [min, max] in float arithmetic
        tol = 1e-12 * max(1.0, abs(st_.mean))
        assert st_.min - tol <= st_.mean <= st_.max + tol


class TestL2Residual:
    def test_identical_is_zero(self):
        rep = l2_residual([3.0, -1.0, 2.0], [3.0, -1.0, 2.0])
        assert rep.total_l2 == 0.0 and rep.per_point == 0.0

    def test_worked_example(self):
        rep = l2_residual([1.0, 2.0], [0.0, 0.0])
        assert rep.total_l2 == 5.0
        assert rep.per_point == 2.5
        assert rep.n_points == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            l2_residual([1.0], [1.0, 2.0])

    # values rounded so distinct entries differ by >= 1e-6 and their squared
    # differences cannot underflow to zero
    @given(
        st.lists(st.floats(-1e3, 1e3).map(lambda x: round(x, 6)), min_size=1, max_size=20),
        st.lists(st.floats(-1e3, 1e3).map(lambda x: round(x, 6)), min_size=1, max_size=20),
    )
    def test_symmetric_and_zero_iff_equal(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        fwd = l2_residual(a, b)
        rev = l2_residual(b, a)
        assert fwd.total_l2 == rev.total_l2
        assert (fwd.total_l2 == 0.0) == (a == b)

    def test_per_point_consistency(self):
        rep = l2_residual([1.0, 2.0, 4.0], [0.5, 1.0, 0.0])
        assert rep.per_point * rep.n_points == pytest.approx(rep.total_l2, rel=1e-12)


def _count_oracle(n, window_len, horizon, stride):
    """Enumerate start offsets directly."""
    count = 0
    q = 0
    while q + window_len + horizon <= n:
        count += 1
        q += stride
    return count


class TestRollingWindows:
    def test_single_window(self):
        ts = TimeSeries(values=np.arange(101.0))
        wins = rolling_windows(ts, 91, 10, 10)
        assert len(wins) == 1
        win, truth = wins[0]
        assert (win.q, win.s) == (0, 90)
        assert truth.tolist() == list(range(91, 101))

    def test_count_matches_enumeration_1001(self):
        ts = TimeSeries(values=np.zeros(1001))
        assert len(rolling_windows(ts, 91, 10, 10)) == _count_oracle(1001, 91, 10, 10) == 91

    def test_count_matches_enumeration_345(self):
        ts = TimeSeries(values=np.zeros(345))
        assert len(rolling_windows(ts, 91, 2, 2)) == _count_oracle(345, 91, 2, 2) == 127

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            rolling_windows(TimeSeries(values=np.zeros(50)), 91, 10, 10)

    @given(
        n=st.integers(2, 300),
        window_len=st.integers(1, 120),
        horizon=st.integers(1, 20),
        stride=st.integers(1, 25),
    )
    @settings(max_examples=150)
    def test_windows_stay_inside_series(self, n, window_len, horizon, stride):
        ts = TimeSeries(values=np.arange(float(n)))
        if window_len + horizon > n:
            with pytest.raises(ValueError):
                rolling_windows(ts, window_len, horizon, stride)
            return
        wins = rolling_windows(ts, window_len, horizon, stride)
        assert len(wins) == _count_oracle(n, window_len, horizon, stride)
        assert len(wins) == (n - window_len - horizon) // stride + 1
        for win, truth in wins:
            assert 0 <= win.q <= win.s < n
            assert win.s + horizon < n
            assert truth.tolist() == list(range(win.s + 1, win.s + 1 + horizon))
