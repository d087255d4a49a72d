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
from click.testing import CliRunner
from scipy.integrate import dblquad, quad

from equidist.cli import _brute_force_pq, _suite_ledger, main
from equidist.constants import AssumptionParams, PowerLawGrowth, build_ledger
from equidist.geometry import DirectionSelection
from equidist.modular import (BumpProfile, EisensteinObservable,
                              HorocycleMeasure, check_integral_estimate,
                              correlation, delta_statistics, fit_decay,
                              reduce_arrays)
from equidist.selection import choose_window, pigeonhole
from equidist.wiener import (TorusMeasure, TorusObservable,
                             character_expansion_check, equivariance_check,
                             wiener_norm)


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

def _make_selection(norms):
    logs = tuple(math.log(v) for v in norms)
    return DirectionSelection(
        degenerate=False, chosen_root=1, i=1, j=len(norms), l=len(norms),
        relabeling=tuple(range(1, len(norms) + 1)), log_norms=logs,
        norms=tuple(float(v) for v in norms), w_log_norm=0.0, w_norm=1.0,
        w_label="e[1,1],1")


def _random_gap_instance(rng):
    r = int(rng.integers(2, 9))
    if rng.random() < 0.4:
        # exact powers of two, decided in integer arithmetic
        drops = rng.integers(0, 40, size=r - 1)
        if drops.sum() == 0:
            drops[0] = 1
        exps = np.concatenate([[0], -np.cumsum(drops)])
        shift = int(rng.integers(-200, 201))
        betas = [2.0 ** (int(e) + shift) for e in exps]
        k = int(rng.integers(1, int(drops.sum()) + 1))
        theta = 2.0 ** (-k)
    else:
        gaps = rng.uniform(0.0, 8.0, size=r - 1)
        gaps[0] = max(gaps[0], 0.3)
        logs = np.concatenate([[0.0], -np.cumsum(gaps)]) \
            + rng.uniform(-30.0, 30.0)
        betas = [math.exp(v) for v in logs]
        spread = float(logs[0] - logs[-1])
        theta = math.exp(-spread * rng.uniform(1e-3, 1.0))
        if rng.random() < 0.1:
            betas[-1] = 0.0
    return betas, theta


def test_criterion_2_pigeonhole_window():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        betas, theta = _random_gap_instance(rng)
        r = len(betas)
        p, q = pigeonhole(betas, theta)
        assert 1 <= p <= r - 1 and 0 <= q <= r - 2
        assert _brute_force_pq(betas, theta) == (p, q)
        if betas[-1] > 0.0:
            # rescale so the smallest image norm is 1, matching a real
            # direction selection, and take the window
            norms = [b / betas[-1] for b in betas]
            win = choose_window(_make_selection(norms), theta)
            assert _brute_force_pq(norms, theta) == (win.p, win.q)
            assert all(ok for _, _, ok in win.checks.values())
            assert win.L == pytest.approx(
                norms[0] ** -1.0 * theta ** (-(win.q + 0.5) / r), rel=1e-9)
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
    for R in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        for c in (0.05, 0.1, 0.25, 0.4, 0.49):
            est = check_integral_estimate(R, c)
            assert est.passed
            assert est.lhs <= est.rhs * (1.0 + 1e-12)
            ref = _mean_kernel_oracle(R, c)
            assert est.lhs == pytest.approx(ref, rel=1e-6)
    frozen = check_integral_estimate(100.0, 0.4)
    assert frozen.lhs == pytest.approx(0.31687774842939853, rel=1e-12)


# ------------------------------------------------------------ criterion 4

def _random_torus_observable(rng, dim, degree=6):
    coeffs = {}
    for _ in range(int(rng.integers(1, 7))):
        chi = tuple(int(v) for v in rng.integers(-degree, degree + 1,
                                                 size=dim))
        coeffs[chi] = complex(rng.normal(), rng.normal())
    return TorusObservable(dim, coeffs)


def test_criterion_4_wiener_module():
    start = time.perf_counter()
    rng = np.random.default_rng(1912)

    for _ in range(200):
        dim = int(rng.integers(1, 3))
        f = _random_torus_observable(rng, dim)
        g = _random_torus_observable(rng, dim)
        nf, ng = wiener_norm(f), wiener_norm(g)
        assert nf > 0.0
        scale = complex(rng.normal(), rng.normal())
        assert wiener_norm(f * scale) == pytest.approx(abs(scale) * nf,
                                                       rel=1e-12)
        assert wiener_norm(f + g) <= nf + ng + 1e-12 * (nf + ng)
        assert wiener_norm(f * g) <= nf * ng * (1.0 + 1e-12)

    # absolutely convergent coefficients dominate the sup norm
    xs = (np.arange(4096) + 0.5) / 4096.0
    grid2 = np.stack(np.meshgrid(xs[:64], xs[:64], indexing="ij"), axis=-1)
    for _ in range(60):
        f1 = _random_torus_observable(rng, 1)
        assert np.max(np.abs(f1.value(xs))) <= wiener_norm(f1) + 1e-9
        f2 = _random_torus_observable(rng, 2)
        assert np.max(np.abs(f2.value(grid2))) <= wiener_norm(f2) + 1e-9

    for _ in range(1000):
        dim = int(rng.integers(1, 3))
        haar = TorusMeasure.haar(dim)
        xi = tuple(int(v) for v in rng.integers(-5, 6, size=dim))
        w = rng.uniform(-2.0, 2.0, size=dim)
        eta = _random_torus_observable(rng, dim)
        _, _, defect = equivariance_check(haar, xi, w, eta)
        assert defect <= 1e-12

    for _ in range(200):
        coeffs = {(0,): 1.0}
        for _ in range(int(rng.integers(1, 5))):
            chi = int(rng.integers(-6, 7))
            if chi != 0:
                coeffs[(chi,)] = complex(rng.normal(), rng.normal()) * 0.3
        sigma = TorusMeasure(1, coeffs)
        phi = _random_torus_observable(rng, 1)
        _, _, defect = character_expansion_check(sigma, phi)
        assert defect <= 1e-12

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

    # depth is bounded: at |x| ~ 50, y ~ 1e-4 the long reduction chain
    # amplifies the rounding of -1/z itself past 1e-10 (measured 3e-8),
    # a conditioning limit of float arithmetic, not of the algorithm
    x = rng.uniform(-10.0, 10.0, size=10_000)
    y = np.exp(rng.uniform(math.log(0.02), math.log(50.0), size=10_000))
    rx, ry = reduce_arrays(x, y)
    assert np.all(np.abs(rx) <= 0.5 + 1e-12)
    assert np.all(rx * rx + ry * ry >= 1.0 - 1e-12)

    r2x, r2y = reduce_arrays(rx, ry)
    assert np.max(np.abs(r2x - rx)) <= 1e-10
    assert np.max(np.abs(r2y - ry)) <= 1e-10

    tx, ty = reduce_arrays(x + 1.0, y)
    assert np.max(np.abs(tx - rx)) <= 1e-10
    assert np.max(np.abs(ty - ry)) <= 1e-10

    n2 = x * x + y * y
    ix, iy = reduce_arrays(-x / n2, y / n2)
    assert np.max(np.abs(ix - rx)) <= 1e-10
    assert np.max(np.abs(iy - ry)) <= 1e-10

    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    for k in range(300):
        px = float(rng.uniform(-3.0, 3.0))
        py = float(np.exp(rng.uniform(math.log(0.05), math.log(10.0))))
        base = obs.value((px, py))
        assert obs.value((px + 1.0, py)) == pytest.approx(base, abs=1e-10)
        m2 = px * px + py * py
        assert obs.value((-px / m2, py / m2)) == pytest.approx(base,
                                                              abs=1e-10)
        qx, qy = reduce_arrays(px, py)
        assert obs.value((float(qx), float(qy))) == pytest.approx(
            base, abs=1e-10)

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
    measure = HorocycleMeasure.haar()
    nodes = 2 ** 14

    start = time.perf_counter()
    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    mu = obs.mu
    errors = {t: abs(correlation(measure, [obs], [float(t)], nodes=nodes)
                     - mu) for t in range(2, 13)}
    chain = [4, 6, 8, 10, 12]
    inversions = sum(errors[b] > errors[a]
                     for a, b in zip(chain, chain[1:]))
    assert inversions <= 1
    fit1 = fit_decay([math.exp(t) for t in errors], list(errors.values()))
    assert fit1.exponent > 0.0
    # frozen measurement at these settings
    assert fit1.exponent == pytest.approx(0.4467714371037437, rel=0.20)
    assert time.perf_counter() - start < 300.0

    start = time.perf_counter()
    first = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    second = EisensteinObservable(BumpProfile("bump", 2.0, 4.0))
    mu_prod = first.mu * second.mu
    deltas, errs = [], []
    for t in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        val = correlation(measure, [first, second], [t, 2.0 * t],
                          nodes=nodes)
        errs.append(abs(val - mu_prod))
        deltas.append(delta_statistics([t, 2.0 * t])[1])
    fit2 = fit_decay(deltas, errs)
    assert fit2.exponent > 0.0
    assert fit2.exponent == pytest.approx(1.873069770582319, rel=0.20)
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

def test_criterion_8_determinism(tmp_path):
    runner = CliRunner()

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
