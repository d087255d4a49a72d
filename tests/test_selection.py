import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.geometry import DirectionSelection
from equidist.selection import choose_window, pigeonhole
from equidist.suites import _selection, _suite_pigeonhole, _suite_window


class TestPigeonhole:
    def test_two_entries(self):
        assert pigeonhole([8.0, 1.0], 1.0 / 8.0) == (1, 0)

    def test_three_entries(self):
        assert pigeonhole([8.0, 2.0, 1.0], 1.0 / 8.0) == (1, 0)

    def test_gap_forces_larger_q(self):
        # beta_2 sits above theta^(1/3), so the drop happens one scale
        # bucket later and one position further in
        assert pigeonhole([100.0, 30.0, 1.0], 0.01) == (2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            pigeonhole([1.0], 0.5)
        with pytest.raises(ValueError):
            pigeonhole([1.0, 2.0], 0.5)          # not decreasing
        with pytest.raises(ValueError):
            pigeonhole([2.0, 1.5], 0.5)          # beta_r > beta_1 theta
        with pytest.raises(ValueError):
            pigeonhole([2.0, 1.0], 1.5)
        with pytest.raises(ValueError):
            pigeonhole([0.0, 0.0], 0.5)

    def test_zero_tail_allowed(self):
        p, q = pigeonhole([4.0, 0.0], 0.25)
        assert (p, q) == (1, 0)

    def test_dyadic_inputs_decided_exactly(self):
        # beta_2 sits exactly on the theta^(1/3) boundary, so (1, 0) is
        # inadmissible (strict inequality); float logs round the bound
        # to one ulp below log(beta_2) and would wrongly accept it, the
        # exact integer comparison keeps the equality and moves on to
        # (2, 1)
        p, q = pigeonhole([8.0, 4.0, 1.0], 1.0 / 8.0)
        assert (p, q) == (2, 1)

    def test_non_dyadic_ties_decided_exactly(self):
        # the float 1/27 lies below 1/27, so beta_2 = 27 lies strictly
        # above 81 theta^(1/3) and (1, 0) fails the strict upper bound;
        # the float 0.001 lies above 0.001, so beta_2 = 100 lies strictly
        # below 1000 theta^(1/3) and (1, 0) holds.  Float logs round
        # both ties the other way.
        assert pigeonhole([81.0, 27.0, 3.0], 1.0 / 27.0) == (2, 1)
        assert pigeonhole([1000.0, 100.0, 1.0], 0.001) == (1, 0)

    @pytest.mark.parametrize("betas", [[math.inf, 1.0], [4.0, math.inf],
                                       [math.nan, 1.0], [4.0, math.nan]])
    def test_non_finite_betas_rejected(self, betas):
        with pytest.raises(ValueError, match="betas"):
            pigeonhole(betas, 0.25)

    def test_wide_dyadic_spread(self):
        p, q = pigeonhole([1.0, 2.0 ** -10, 2.0 ** -60], 2.0 ** -60)
        assert (p, q) == (2, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_sandwich_holds(self, seed):
        # the verify battery's suite: pigeonhole picks the exact Fraction
        # brute force's pair, so the sandwich holds with no tolerance
        assert _suite_pigeonhole(np.random.default_rng(seed), 4) == (4, 0.0)


class TestChooseWindow:
    def test_pair_window_length(self):
        sel = _selection([8.0, 1.0])
        win = choose_window(sel, 1.0 / 8.0)
        assert (win.p, win.q) == (1, 0)
        assert win.L == pytest.approx(8.0 ** -0.75, rel=1e-12)
        assert all(ok for _, _, ok in win.checks.values())

    def test_triple_window_length(self):
        sel = _selection([8.0, 2.0, 1.0])
        win = choose_window(sel, 1.0 / 8.0)
        assert (win.p, win.q) == (1, 0)
        assert win.L == pytest.approx(8.0 ** (-5.0 / 6.0), rel=1e-12)
        assert all(ok for _, _, ok in win.checks.values())

    def test_check_values(self):
        sel = _selection([8.0, 1.0])
        win = choose_window(sel, 1.0 / 8.0)
        lhs, rhs, ok = win.checks["scale_cap"]
        assert lhs == pytest.approx(8.0 * win.L) and rhs == pytest.approx(8.0)
        lhs, rhs, ok = win.checks["group_lower"]
        assert rhs == pytest.approx(8.0 ** 0.25)
        lhs, rhs, ok = win.checks["group_upper"]
        assert rhs == pytest.approx(8.0 ** -0.25)

    def test_degenerate_rejected(self):
        sel = DirectionSelection(
            degenerate=True, chosen_root=None, i=None, j=None, l=None,
            relabeling=(1, 2), log_norms=(0.0, 0.0), norms=(1.0, 1.0))
        with pytest.raises(ValueError):
            choose_window(sel, 0.5)

    def test_theta_below_inverse_m_rejected(self):
        sel = _selection([8.0, 1.0])
        with pytest.raises(ValueError):
            choose_window(sel, 1.0 / 64.0)

    def test_theta_range_validated(self):
        sel = _selection([8.0, 1.0])
        with pytest.raises(ValueError):
            choose_window(sel, 0.0)
        with pytest.raises(ValueError):
            choose_window(sel, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_separation_inequalities(self, seed):
        # the verify battery's suite: every norm above index p stays
        # >= theta^(-1/(2r)) after scaling by L, everything below stays
        # under theta^(1/(2r)), for real and synthetic selections
        assert _suite_window(np.random.default_rng(seed), 4) == (4, 0.0)
