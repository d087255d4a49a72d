"""Acceptance battery: one test per shipped guarantee.

Each criterion reruns its measurement from scratch and holds the result
to the documented tolerance and, where stated, a wall-clock budget.
Golden numbers are frozen outputs of the documented configurations;
independent oracles (exact rational arithmetic, adaptive quadrature)
guard every derived value.
"""

import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from equidist.cli import main
from equidist.constants import AssumptionParams, PowerLawGrowth, build_ledger
from equidist.geometry import TupleStack, tuple_stats
from equidist.modular import (_TIME_ACTION, BumpProfile,
                              EisensteinObservable, correlation, fit_decay)
from equidist.suites import (_integral_estimate, _sparse_observable,
                             _suite_integral, _suite_ledger, _suite_modular,
                             _suite_pigeonhole, _suite_wiener, _suite_window)
from equidist.wiener import TorusMeasure, wiener_norm

from test_wiener import product_of, scaled, sum_of


def golden_params():
    return AssumptionParams(d_o=1, D_o=1.0, delta_o=1.0, C=1.0, c=0.4,
                            A=1.0, a=1.0,
                            growth=PowerLawGrowth(1.0, 1.0, 1.0))


# ------------------------------------------------------------ criterion 1

def test_criterion_1_constants_ledger():
    start = time.perf_counter()
    led = build_ledger(golden_params(), 2)

    # re-derive the first two rows in exact rational arithmetic; with
    # this growth profile B_d = 1, b_d = d, M_d = 1 throughout
    c = Fraction(2, 5)
    delta_o = Fraction(1)
    b2 = Fraction(2)
    delta_1 = c * delta_o / (2 * (c + 2 * b2))
    assert delta_1 == Fraction(1, 22)

    c1 = min(Fraction(1, 2), c / 4)
    b3 = Fraction(3)
    denom = 2 * c1 / 2 + 2 * 2 * b3
    eps_2 = delta_1 / denom
    delta_2 = c1 * delta_1 / (2 * denom)
    assert delta_2 == Fraction(1, 5324)

    row1, row2 = led.rows
    assert row1.delta_r == pytest.approx(float(delta_1), rel=1e-9)
    assert row1.D_r == pytest.approx(5.0 * math.sqrt(3.0), rel=1e-9)
    assert row2.eps_r == pytest.approx(float(eps_2), rel=1e-9)
    assert row2.delta_r == pytest.approx(float(delta_2), rel=1e-9)

    # 100 random parameter sets through the verify battery's ledger
    # suite: strictly decreasing delta_r, d_r = (r+1) d_o, eps_r in
    # (0, 1) and finite log D_r at r_max 12
    checked, failures = _suite_ledger(np.random.default_rng(20260815), 100)
    assert (checked, failures) == (100, 0.0)

    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ criterion 2

def test_criterion_2_pigeonhole_window():
    # 10^4 random gap instances through the verify battery's suites: the
    # selected (p, q) equals the exact brute force, and every
    # window (real tuple selections at theta = 1/M_r and the instances'
    # norms scaled to end at 1) passes its checks, matches the brute
    # force, has L = norm_1^-1 theta^(-(q+1/2)/r) and separates the norms
    start = time.perf_counter()
    assert _suite_pigeonhole(np.random.default_rng(404), 10_000) == (
        10_000, 0.0)
    assert _suite_window(np.random.default_rng(404), 10_000) == (
        10_000, 0.0)
    assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------ criterion 3

def _mean_kernel_oracle(R, c):
    # iterated adaptive quadrature of max(1, R|s-q|)^(-c) over the unit
    # square; the inner break points track the kink at distance 1/R
    def inner(qv):
        pts = sorted({min(1.0, max(0.0, p))
                      for p in (qv - 1.0 / R, qv, qv + 1.0 / R)})
        val, _ = quad(lambda s: max(1.0, R * abs(s - qv)) ** (-c),
                      0.0, 1.0, points=pts, limit=200)
        return val
    val, _ = quad(inner, 0.0, 1.0, limit=200)
    return val


def test_criterion_3_integral_estimate():
    # the estimate holds on the grid (the battery's integral suite) ...
    assert _suite_integral(None, 25) == (25, 0.0)
    # ... and its closed form matches adaptive quadrature
    for R in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        for c in (0.05, 0.1, 0.25, 0.4, 0.49):
            lhs = _integral_estimate(R, c)[0]
            ref = _mean_kernel_oracle(R, c)
            assert lhs == pytest.approx(ref, rel=1e-6)
    frozen = _integral_estimate(100.0, 0.4)[0]
    assert frozen == pytest.approx(0.31687774842939853, rel=1e-12)


# ------------------------------------------------------------ criterion 4

def test_criterion_4_wiener_module():
    start = time.perf_counter()
    rng = np.random.default_rng(1912)

    for _ in range(200):
        dim = int(rng.integers(1, 3))
        f = _sparse_observable(rng, dim)
        g = _sparse_observable(rng, dim)
        nf, ng = wiener_norm(f), wiener_norm(g)
        assert nf > 0.0
        scale = complex(rng.normal(), rng.normal())
        assert wiener_norm(scaled(f, scale)) == pytest.approx(
            abs(scale) * nf, rel=1e-12)
        assert wiener_norm(sum_of(f, g)) <= nf + ng + 1e-12 * (nf + ng)
        assert wiener_norm(product_of(f, g)) <= nf * ng * (1.0 + 1e-12)

    # absolutely convergent coefficients dominate the sup norm
    xs = (np.arange(4096) + 0.5) / 4096.0
    grid2 = np.stack(np.meshgrid(xs[:64], xs[:64], indexing="ij"), axis=-1)
    for _ in range(60):
        f1 = _sparse_observable(rng, 1)
        assert np.max(np.abs(f1.value(xs))) <= wiener_norm(f1) + 1e-9
        f2 = _sparse_observable(rng, 2)
        assert np.max(np.abs(f2.value(grid2))) <= wiener_norm(f2) + 1e-9

    # twist equivariance (1- and 2-tori) and the character expansion,
    # 1000 trials of the battery's Wiener suite
    checks, worst = _suite_wiener(rng, 1000)
    assert checks == 2000
    assert worst < 1e-12

    assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------ criterion 5

def _mu_integral_2d(obs, epsabs=1e-10, epsrel=1e-10):
    """Independent mean: 2-D quadrature of the observable over the
    fundamental domain against (3/pi) dx dy / y^2.  The integrand
    vanishes above the profile's y_hi, which truncates the cusp.
    """
    def integrand(y, x):
        return float(obs.value_reduced(x, y)) / (y * y)

    val, err = dblquad(integrand, -0.5, 0.5,
                       lambda x: math.sqrt(max(1.0 - x * x, 0.75)),
                       lambda x: obs.profile.y_hi,
                       epsabs=epsabs, epsrel=epsrel)
    assert err <= 1e-6 * max(1.0, abs(val))
    return (3.0 / math.pi) * val


def test_criterion_5_modular_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(57721)

    # reduction lands in the fundamental domain, is idempotent and
    # invariant under z + 1 and -1/z, and the observable is invariant
    # under all three, at 10^4 points of the battery's modular suite
    checks, worst = _suite_modular(rng, 10_000)
    assert checks == 10_000
    assert worst < 1e-10

    smooth = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    assert _mu_integral_2d(smooth) == pytest.approx(smooth.mu, rel=1e-6)

    sharp = EisensteinObservable(BumpProfile("indicator", 2.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quad2d = _mu_integral_2d(sharp, epsabs=1e-6, epsrel=1e-6)
    assert quad2d == pytest.approx(sharp.mu, rel=1e-3)
    assert sharp.mu == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    assert time.perf_counter() - start < 60.0


# ------------------------------------------------------------ criterion 6

def test_criterion_6_equidistribution_trend():
    measure = TorusMeasure.haar()

    # 2^17 nodes admit the Farey set at t = 12 (e^12 / 1.5 = 108504); a
    # row without a weight has the same bytes at every node count that
    # admits it, 2^23 included
    start = time.perf_counter()
    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    mu = obs.mu
    errors = {t: abs(correlation(measure, [obs], [float(t)], nodes=2 ** 17)
                     - mu) for t in range(2, 13)}
    chain = [4, 6, 8, 10, 12]
    inversions = sum(errors[b] > errors[a]
                     for a, b in zip(chain, chain[1:]))
    assert inversions <= 1
    fit1 = fit_decay([math.exp(t) for t in errors], list(errors.values()))
    assert fit1.exponent > 0.0
    # the exponent of the constant-term oracle values at these rows
    # (tests/test_modular.py, _constant_term), not of this kernel
    assert fit1.exponent == pytest.approx(0.7938395550350245, rel=0.20)
    assert time.perf_counter() - start < 300.0

    start = time.perf_counter()
    first = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    second = EisensteinObservable(BumpProfile("bump", 2.0, 4.0))
    mu_prod = first.mu * second.mu
    rows = [[t, 2.0 * t] for t in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
    errs = [abs(correlation(measure, [first, second], row, nodes=2 ** 15)
                - mu_prod) for row in rows]
    # Delta_mult as correlate writes it: tuple_stats under the declared
    # action of correlate's times
    stats = tuple_stats(TupleStack(_TIME_ACTION,
                                   [[[t] for t in row] for row in rows]))
    deltas = [math.exp(d) for d in stats.log_Delta_r.tolist()]
    fit2 = fit_decay(deltas, errs)
    assert fit2.exponent > 0.0
    # the exponent of the adaptive-quadrature oracle values at these rows
    # (tests/test_modular.py, _quad_oracle), not of this kernel
    assert fit2.exponent == pytest.approx(1.8715979038956376, rel=0.20)
    assert time.perf_counter() - start < 300.0


# ------------------------------------------------------------ criterion 7

def test_criterion_7_factorial_certificate():
    led = build_ledger(golden_params(), 10, mode="theorem-B")

    for row in led.rows:
        floor = 1.0 / (math.factorial(row.r) ** 2
                       * math.factorial(row.r + 1)
                       * led.lam ** row.r)
        assert row.delta_r >= floor * (1.0 - 1e-9)
        assert row.D_r <= led.H1 * row.r * (1.0 + 1e-12)

    growth = led.params.growth
    cap = growth.L1 * (growth.L2 + 2.0)
    for _, p_d, _ in led.P_table:
        assert p_d <= cap + 1e-12

    assert led.lam == pytest.approx(18.865811893716455, rel=1e-6)
    assert led.H1 == pytest.approx(22.94813536611543, rel=1e-9)
    assert led.gamma == pytest.approx(0.21202374022038567, rel=1e-6)
    assert led.H2 == pytest.approx(1.2622954970289877, rel=1e-6)

    # lambda is the smallest certifying value at bisection resolution
    shrunk = led.lam * (1.0 - 1e-6)
    assert any(row.delta_r < 1.0 / (math.factorial(row.r) ** 2
                                    * math.factorial(row.r + 1)
                                    * shrunk ** row.r)
               for row in led.rows)


# ------------------------------------------------------------ criterion 8

def test_criterion_8_determinism(tmp_path, runner):
    ledger_manifest = tmp_path / "ledger.json"
    ledger_manifest.write_text(json.dumps({
        "mode": "ledger", "seed": 7,
        "ledger": {"params": {"d_o": 1, "D_o": 1.0, "delta_o": 1.0,
                              "C": 1.0, "c": 0.4, "A": 1.0, "a": 1.0,
                              "growth": {"kind": "power-law", "L1": 1.0,
                                         "ell": 1.0, "L2": 1.0}},
                   "theorem": "B", "r_max": 10}}), encoding="utf-8")

    schedule_manifest = tmp_path / "schedule.json"
    schedule_manifest.write_text(json.dumps({
        "mode": "schedule", "seed": 3,
        "schedule": {"action": {"builtin": "u_mn", "m": 1, "n": 1},
                     "tuples": [[[2.0, 2.0], [5.0, 5.0]],
                                [[1.0, 1.0], [3.0, 3.0], [6.0, 6.0]]],
                     "theta": "auto"}}), encoding="utf-8")

    correlate_manifest = tmp_path / "correlate.json"
    correlate_manifest.write_text(json.dumps({
        "mode": "correlate", "seed": 11,
        "correlate": {
            "sigma": {"dim": 1,
                      "coeffs": [{"chi": [0], "re": 1.0, "im": 0.0},
                                 {"chi": [1], "re": 0.1, "im": 0.05},
                                 {"chi": [-1], "re": 0.1, "im": -0.05}]},
            "profiles": [{"kind": "bump", "y_lo": 1.5, "y_hi": 3.0}],
            "family": {"t_start": 2.0, "t_stop": 6.0, "t_step": 1.0,
                       "pattern": [1.0]},
            "nodes": 2048}}), encoding="utf-8")

    def run(cmd, manifest, out, extra=()):
        res = runner.invoke(main, [cmd, "--manifest", str(manifest),
                                   "--out", str(out), *extra])
        assert res.exit_code == 0, res.output
        return (out / ("%s.csv" % cmd)).read_bytes()

    base = run("ledger", ledger_manifest, tmp_path / "l1")
    assert base == run("ledger", ledger_manifest, tmp_path / "l2")

    base = run("schedule", schedule_manifest, tmp_path / "s1")
    assert base == run("schedule", schedule_manifest, tmp_path / "s2")

    base = run("correlate", correlate_manifest, tmp_path / "c1")
    assert base == run("correlate", correlate_manifest, tmp_path / "c2")
    for threads in (1, 4, 8):
        got = run("correlate", correlate_manifest,
                  tmp_path / ("ct%d" % threads),
                  extra=("--threads", str(threads)))
        assert got == base
