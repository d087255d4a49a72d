import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.cli import _suite_ledger
from equidist.constants import (AssumptionParams, ConstantGrowth,
                                PowerLawGrowth, TabulatedGrowth, base_case,
                                bound_evaluate, build_ledger)


def unit_params():
    """The simplest admissible inputs: every constant at its floor."""
    return AssumptionParams(d_o=1, D_o=1.0, delta_o=1.0, C=1.0, c=0.4,
                            A=1.0, a=1.0,
                            growth=PowerLawGrowth(1.0, 1.0, 1.0))


class TestGrowthProfiles:
    def test_power_law_accessors(self):
        g = PowerLawGrowth(2.0, 1.5, 3.0)
        assert g.log_B_d(4) == pytest.approx(4 * math.log(2.0))
        assert g.b_exp(4) == pytest.approx(6.0)
        assert g.log_M_d(2) == pytest.approx(2 * math.log(3.0))

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            PowerLawGrowth(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            PowerLawGrowth(1.0, 0.9, 1.0)

    def test_tabulated_lookup_and_range(self):
        g = TabulatedGrowth((1.0, 2.0), (1.0, 2.0), (1.0, 4.0))
        assert g.log_B_d(2) == pytest.approx(math.log(2.0))
        with pytest.raises(ValueError):
            g.b_exp(3)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedGrowth((1.0,), (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            TabulatedGrowth((0.5,), (1.0,), (1.0,))

    def test_constant_growth(self):
        g = ConstantGrowth(2.0, 0.8, 1.5)
        assert g.b_exp(17) == 0.8
        assert g.log_B_d(17) == pytest.approx(math.log(2.0))


class TestAssumptionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AssumptionParams(d_o=0, D_o=1.0, delta_o=0.5, C=1.0, c=0.4,
                             A=1.0, a=1.0, growth=PowerLawGrowth(1, 1, 1))
        with pytest.raises(ValueError):
            AssumptionParams(d_o=1, D_o=1.0, delta_o=1.5, C=1.0, c=0.4,
                             A=1.0, a=1.0, growth=PowerLawGrowth(1, 1, 1))
        with pytest.raises(ValueError):
            AssumptionParams(d_o=1, D_o=1.0, delta_o=0.5, C=1.0, c=0.5,
                             A=1.0, a=1.0, growth=PowerLawGrowth(1, 1, 1))

    def test_b_floor_enforced_on_access(self):
        p = AssumptionParams(d_o=1, D_o=1.0, delta_o=0.5, C=1.0, c=0.4,
                             A=1.0, a=3.0,
                             growth=ConstantGrowth(1.0, 0.7, 1.0))
        # b = 0.7 <= a/4 = 0.75 trips only when a row actually needs it
        with pytest.raises(ValueError):
            p.b(2)

    def test_json_round_trip(self):
        for growth in (PowerLawGrowth(1.5, 1.0, 2.0),
                       TabulatedGrowth((1.0, 1.5), (1.0, 2.0), (1.0, 1.0)),
                       ConstantGrowth(2.0, 1.0, 1.0)):
            p = AssumptionParams(d_o=2, D_o=3.0, delta_o=0.25, C=2.0, c=0.1,
                                 A=1.5, a=0.5, growth=growth)
            back = AssumptionParams.from_json(
                json.loads(json.dumps(p.to_json())))
            assert back == p


class TestBaseCase:
    def test_unit_parameters(self):
        row, log_Bprime = base_case(unit_params())
        assert (row.r, row.d_r) == (1, 2)
        assert row.D_r == pytest.approx(5.0 * math.sqrt(3.0), rel=1e-15)
        assert row.log_D_r == pytest.approx(math.log(row.D_r), rel=1e-15)
        assert row.delta_r == pytest.approx(1.0 / 22.0, rel=1e-15)
        # B' = M_1 B_2^2 + 2 B_1 = 3 for unit growth; the ledger reports it
        assert log_Bprime == pytest.approx(math.log(3.0), rel=1e-15)
        led = build_ledger(unit_params(), 1)
        assert led.log_Bprime == log_Bprime
        assert led.Bprime == math.exp(log_Bprime)

    def test_d_o_two(self):
        p = AssumptionParams(d_o=2, D_o=1.0, delta_o=1.0, C=1.0, c=0.4,
                             A=1.0, a=1.0, growth=PowerLawGrowth(1, 1, 1))
        row, log_Bprime = base_case(p)
        assert row.d_r == 4
        assert log_Bprime == pytest.approx(math.log(3.0))
        # B' = M_2 B_4^2 + 2 B_2 = 3 again for unit growth
        assert row.D_r == pytest.approx(5.0 * math.sqrt(3.0))
        assert row.delta_r == pytest.approx(0.4 / (2 * (0.4 + 8.0)))

    def test_large_D_o_dominates(self):
        p = AssumptionParams(d_o=1, D_o=1e6, delta_o=1.0, C=1.0, c=0.4,
                             A=1.0, a=1.0, growth=PowerLawGrowth(1, 1, 1))
        row, _ = base_case(p)
        assert row.D_r == pytest.approx(1e6, rel=1e-12)


class TestRecursiveLedger:
    def test_second_row_values(self):
        led = build_ledger(unit_params(), 2)
        row = led.row(2)
        assert row.d_r == 3
        assert row.eps_r == pytest.approx((1.0 / 22.0) / 12.1, rel=1e-12)
        assert row.delta_r == pytest.approx(1.0 / 5324.0, rel=1e-12)
        # for unit growth P_2 = 3^(1/6) and the r b_3 = 6 power collapses
        # to an exact factor 3 inside the main term
        expected_D2 = (6.0 * math.sqrt(14.0)
                       * math.sqrt(5.0 * math.sqrt(3.0))
                       + 4.0 * math.sqrt(14.0))
        assert math.exp(row.log_D_r) == pytest.approx(expected_D2, rel=1e-12)

    def test_recurse_matches_ledger(self):
        # one induction step, written out from the accessors, reproduces
        # every row from its predecessor:
        #   D_r = 2 P_1 P_d^(r b) sqrt(D_{r-1}) + r Q,  d = d_{r-1},
        #   b = b_{d+d_o}, P_d = (M_d B_{d+d_o}^2 + 2 B_d^2)^(1/(2b))
        p = AssumptionParams(d_o=1, D_o=2.0, delta_o=0.5, C=3.0, c=0.3,
                             A=2.0, a=0.8,
                             growth=PowerLawGrowth(1.5, 1.0, 2.0))
        led = build_ledger(p, 5)
        c1 = min(p.a / 2.0, p.c / 4.0)
        P1 = math.sqrt(14.0 * p.C)
        Q = 2.0 * max(p.A, P1)
        for r in range(2, 6):
            prev, row = led.row(r - 1), led.row(r)
            d = prev.d_r
            b = p.b(d + p.d_o)
            P_d = (math.exp(p.log_M(d) + 2.0 * p.log_B(d + p.d_o))
                   + 2.0 * math.exp(2.0 * p.log_B(d))) ** (1.0 / (2.0 * b))
            eps_r = prev.delta_r / (2.0 * c1 / r + 2.0 * r * b)
            D_r = 2.0 * P1 * P_d ** (r * b) * math.sqrt(prev.D_r) + r * Q
            assert row.d_r == d + p.d_o
            assert row.eps_r == pytest.approx(eps_r, rel=1e-15)
            assert row.delta_r == pytest.approx(c1 * eps_r / r, rel=1e-15)
            assert row.D_r == pytest.approx(D_r, rel=1e-12)
        # a longer table extends a shorter one row for row
        assert build_ledger(p, 8).rows[:5] == led.rows

    def test_recurse_needs_prior_rows(self):
        led = build_ledger(unit_params(), 2)
        for mode in ("theorem-A", "theorem-B"):
            with pytest.raises(ValueError):
                build_ledger(unit_params(), 0, mode=mode)
        with pytest.raises(ValueError):
            build_ledger(unit_params(), 2, mode="theorem-C")
        with pytest.raises(ValueError):
            led.row(3)
        with pytest.raises(ValueError):
            led.row(0)

    def test_json_round_trip(self):
        led = build_ledger(unit_params(), 4)
        back = json.loads(json.dumps(led.to_json()))
        assert back["mode"] == led.mode
        assert AssumptionParams.from_json(back["params"]) == led.params
        for r in range(1, 5):
            row = back["rows"][r - 1]
            assert row["r"] == r
            assert row["delta_r"] == led.row(r).delta_r
            assert row["log10_D_r"] * math.log(10.0) == pytest.approx(
                led.row(r).log_D_r)

    def test_deep_table_stays_finite_in_logs(self):
        led = build_ledger(unit_params(), 40)
        row = led.row(40)
        assert math.isfinite(row.log_D_r)
        assert row.D_r == math.inf or row.D_r > 0
        assert row.delta_r > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_random_parameters_well_ordered(self, seed):
        # the verify battery's ledger suite: d_o up to 3 and all three
        # growth kinds, strictly decreasing delta_r, d_r = (r+1) d_o,
        # eps_r in (0, 1) and finite log D_r to r = 12
        import numpy as np
        assert _suite_ledger(np.random.default_rng(seed), 5) == (5, 0.0)


class TestExplicitLedger:
    def test_requires_power_law(self):
        p = AssumptionParams(d_o=1, D_o=1.0, delta_o=0.5, C=1.0, c=0.4,
                             A=1.0, a=1.0, growth=ConstantGrowth(1, 1, 1))
        with pytest.raises(ValueError):
            build_ledger(p, 4, mode="theorem-B")

    def test_linear_growth_certificate(self):
        led = build_ledger(unit_params(), 10, mode="theorem-B")
        for row in led.rows:
            assert row.D_r <= led.H1 * row.r * (1.0 + 1e-15)
        assert any(abs(row.D_r - led.H1 * row.r) < 1e-9 * led.H1
                   for row in led.rows)

    def test_factorial_certificate(self):
        led = build_ledger(unit_params(), 10, mode="theorem-B")
        for row in led.rows:
            r = row.r
            log_bound = -(2.0 * math.lgamma(r + 1) + math.lgamma(r + 2)
                          + r * math.log(led.lam))
            assert math.log(row.delta_r) >= log_bound - 1e-9

    def test_lambda_is_smallest(self):
        led = build_ledger(unit_params(), 10, mode="theorem-B")
        shrunk = led.lam * (1.0 - 1e-6)
        ok = all(
            math.log(row.delta_r) + 2.0 * math.lgamma(row.r + 1)
            + math.lgamma(row.r + 2) + row.r * math.log(shrunk) >= 0.0
            for row in led.rows)
        assert not ok

    def test_thresholds(self):
        led = build_ledger(unit_params(), 6, mode="theorem-B")
        assert led.row(1).threshold == 1.0
        assert led.row(2).threshold > 1.0
        assert math.isfinite(led.row(2).threshold)
        # deep rows overflow float range; the log stays usable
        assert led.row(4).threshold == math.inf
        assert math.isfinite(led.row(4).log_threshold)

    def test_p_table_capped(self):
        p = AssumptionParams(d_o=1, D_o=2.0, delta_o=0.5, C=3.0, c=0.3,
                             A=2.0, a=0.8,
                             growth=PowerLawGrowth(1.5, 1.0, 2.0))
        led = build_ledger(p, 8, mode="theorem-B")
        cap = p.growth.L1 * (p.growth.L2 + 2.0)
        for _, P_d, _ in led.P_table:
            assert P_d <= cap + 1e-9

    def test_exponents_match_recursive_mode(self):
        rec = build_ledger(unit_params(), 6, mode="theorem-A")
        exp = build_ledger(unit_params(), 6, mode="theorem-B")
        for r in range(1, 7):
            assert exp.row(r).delta_r == rec.row(r).delta_r
            assert exp.row(r).d_r == rec.row(r).d_r
        for r in range(2, 7):
            assert exp.row(r).eps_r == rec.row(r).eps_r

    def test_json_round_trip_keeps_certificates(self):
        led = build_ledger(unit_params(), 5, mode="theorem-B")
        back = json.loads(json.dumps(led.to_json()))
        assert back["lambda"] == led.lam
        assert back["H1"] == led.H1
        assert back["gamma"] == led.gamma
        assert back["H2"] == led.H2


class TestBoundEvaluate:
    def test_unit_bound_value(self):
        led = build_ledger(unit_params(), 2)
        bv = bound_evaluate(led, 1, math.exp(10.0), 1.0, [1.0])
        expected = 5.0 * math.sqrt(3.0) * math.exp(-10.0 / 22.0)
        assert bv.value == pytest.approx(expected, rel=1e-12)
        assert bv.threshold_ok is None

    def test_norm_factors_multiply(self):
        led = build_ledger(unit_params(), 2)
        one = bound_evaluate(led, 2, 50.0, 1.0, [1.0, 1.0])
        scaled = bound_evaluate(led, 2, 50.0, 2.0, [3.0, 5.0])
        assert scaled.value == pytest.approx(30.0 * one.value, rel=1e-12)

    def test_zero_norm_collapses(self):
        led = build_ledger(unit_params(), 1)
        bv = bound_evaluate(led, 1, 10.0, 0.0, [1.0])
        assert bv.value == 0.0 and bv.log_value == -math.inf

    def test_threshold_flag_in_explicit_mode(self):
        led = build_ledger(unit_params(), 3, mode="theorem-B")
        thr = led.row(2).threshold
        below = bound_evaluate(led, 2, thr * 0.5, 1.0, [1.0, 1.0])
        above = bound_evaluate(led, 2, thr * 2.0, 1.0, [1.0, 1.0])
        assert below.threshold_ok is False
        assert above.threshold_ok is True

    def test_validation(self):
        led = build_ledger(unit_params(), 2)
        with pytest.raises(ValueError):
            bound_evaluate(led, 1, 0.5, 1.0, [1.0])
        with pytest.raises(ValueError):
            bound_evaluate(led, 2, 10.0, 1.0, [1.0])
        with pytest.raises(ValueError):
            bound_evaluate(led, 1, 10.0, -1.0, [1.0])
