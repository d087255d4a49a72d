import cmath
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from equidist import modular
from equidist.modular import (BumpProfile, ConstantObservable,
                              EisensteinObservable, correlation, fit_decay,
                              mu_integral, reduce_arrays, s_norm_surrogate)
from equidist.suites import _integral_estimate, _suite_modular
from equidist.wiener import TorusMeasure


class TestReduce:
    def test_already_reduced(self):
        x, y = reduce_arrays(0.0, 2.0)
        assert np.shape(x) == np.shape(y) == ()
        assert (float(x), float(y)) == (0.0, 2.0)

    def test_single_inversion(self):
        x, y = reduce_arrays(0.0, 0.5)
        assert float(x) == pytest.approx(0.0, abs=1e-15)
        assert float(y) == pytest.approx(2.0)

    def test_two_step(self):
        x, y = reduce_arrays(2.3, 0.8)
        assert float(x) == pytest.approx(-0.4109589041095888, abs=1e-15)
        assert float(y) == pytest.approx(1.0958904109589043, abs=1e-15)

    def test_result_in_fundamental_domain(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-30.0, 30.0, size=2000)
        y = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), size=2000))
        rx, ry = reduce_arrays(x, y)
        assert np.all(np.abs(rx) <= 0.5 + 1e-12)
        assert np.all(rx * rx + ry * ry >= 1.0 - 1e-9)

    def test_idempotent_and_invariant(self):
        # the verify battery's modular suite: fundamental-domain
        # membership, idempotence, and invariance under z + 1 and -1/z
        checks, worst = _suite_modular(np.random.default_rng(13), 500)
        assert checks == 500
        assert worst < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_arrays([0.0, 0.1], [1.0, 0.0])


class TestBumpProfile:
    def test_indicator(self):
        f = BumpProfile("indicator", 2.0, 3.0)
        np.testing.assert_array_equal(
            f.value(np.array([1.9, 2.0, 2.5, 3.0, 3.1])),
            np.array([0.0, 1.0, 1.0, 1.0, 0.0]))

    def test_bump_peaks_at_one(self):
        f = BumpProfile("bump", 1.0, 3.0)
        assert f.value(2.0) == pytest.approx(1.0)
        assert f.value(1.0) == 0.0 and f.value(3.0) == 0.0
        u = np.linspace(1.0, 3.0, 401)
        vals = f.value(u)
        assert float(np.max(vals)) == pytest.approx(1.0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_float_path_matches_the_array_path(self, data):
        # a float skips the array plumbing yet gives the array path's
        # bits: at and next to the support's endpoints, inside, outside,
        # and at NaN and the infinities
        kind = data.draw(st.sampled_from(["indicator", "bump"]))
        y_lo = data.draw(st.floats(1.0, 10.0))
        y_hi = y_lo + data.draw(st.floats(1e-3, 10.0))
        f = BumpProfile(kind, y_lo, y_hi)
        edges = [e for y in (y_lo, y_hi)
                 for e in (y, math.nextafter(y, 0.0),
                           math.nextafter(y, math.inf))]
        u = data.draw(st.lists(st.one_of(
            st.sampled_from(edges + [math.nan, math.inf, -math.inf, 0.0]),
            st.floats(y_lo, y_hi), st.floats(y_lo - 1.0, y_hi + 1.0),
            st.floats()), min_size=1, max_size=8))
        with np.errstate(all="ignore"):
            expected = f.value(np.array(u))
        got = [f.value(v) for v in u]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == expected.tobytes()

    def test_support_floor(self):
        with pytest.raises(ValueError):
            BumpProfile("indicator", 0.5, 2.0)
        with pytest.raises(ValueError):
            BumpProfile("bump", 2.0, 2.0)
        with pytest.raises(ValueError):
            BumpProfile("gauss", 1.0, 2.0)


class TestEisenstein:
    def test_below_support_is_zero(self):
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 4.0))
        assert obs.value(0.0, 1.0) == 0.0

    def test_cusp_term_only(self):
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 4.0))
        assert obs.value(0.0, 3.0) == 1.0

    @pytest.mark.parametrize("x, y", [
        (0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (math.inf, 3.0),
        (-math.inf, 3.0), (math.nan, 0.01), (0.0, math.nan)])
    def test_value_rejects_points_off_the_half_plane(self, x, y):
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 4.0))
        with pytest.raises(ValueError, match="finite x and y > 0"):
            obs.value(x, y)

    def test_invariance_under_reduction(self):
        # the verify battery's modular suite: coset enumeration gives the
        # same value at z, z + 1, -1/z and the reduced point
        _, worst = _suite_modular(np.random.default_rng(14), 60)
        assert worst < 1e-10

    def test_value_reduced_matches_enumeration(self):
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        rng = np.random.default_rng(15)
        x = rng.uniform(-0.5, 0.5, size=50)
        y = rng.uniform(1.0, 4.0, size=50)
        fast = obs.value_reduced(x, y)
        slow = [obs.value(a, b) for a, b in zip(x, y)]
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    @given(st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=math.sqrt(3.0) / 2.0 - 1e-9, max_value=1e300),
           st.sampled_from([-1.0, 1.0]))
    def test_value_reduced_skips_cosets_below_height_one(self, xc, y, d):
        # value_reduced leaves out the c = 1, d = +-1 cosets: at every
        # point it accepts, their height is below 1 <= y_lo
        assert y / ((xc + d) ** 2 + y * y) < 1.0

    def test_value_reduced_rejects_low_points(self):
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 3.0))
        with pytest.raises(ValueError):
            obs.value_reduced(np.array([0.0]), np.array([0.3]))

    def test_constant_observable(self):
        one = ConstantObservable()
        assert one.mu == 1.0
        assert float(one.value_at(0.3, 0.1)) == 1.0


class TestMuIntegral:
    def test_indicator_closed_form(self):
        mu = mu_integral(BumpProfile("indicator", 2.0, 3.0))
        assert mu == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_additive_in_disjoint_windows(self):
        a = mu_integral(BumpProfile("indicator", 2.0, 3.0))
        b = mu_integral(BumpProfile("indicator", 3.0, 4.0))
        c = mu_integral(BumpProfile("indicator", 2.0, 4.0))
        assert a + b == pytest.approx(c, rel=1e-12)

    def test_bump_against_quadrature(self):
        # the fixed Gauss-Legendre rule against adaptive quadrature run
        # to its roundoff floor, on narrow and very wide supports
        for y_lo, y_hi in ((1.5, 3.0), (1.2, 2.5), (2.0, 4.0), (2.0, 3.0),
                           (1.0, 1e4)):
            prof = BumpProfile("bump", y_lo, y_hi)
            val, err = quad(lambda y: prof.value(y) / (y * y), y_lo, y_hi,
                            epsabs=0.0, epsrel=2e-14, limit=200)
            assert err < 2e-14 * val
            assert mu_integral(prof) == pytest.approx(3.0 / math.pi * val,
                                                      rel=1e-14)

    def test_newton_rule_against_mpmath(self, monkeypatch):
        # the recurrence-based rule is at least as accurate as numpy's
        # eigenvalue-based leggauss(256), and never calls the eigensolver
        mpmath = pytest.importorskip("mpmath")
        supports = ((1.5, 3.0), (1.2, 2.5), (2.0, 4.0), (2.0, 3.0),
                    (1.0, 1e4))

        def rel_error(y_lo, y_hi):
            val = mu_integral(BumpProfile("bump", y_lo, y_hi))
            with mpmath.workdps(40):
                lo, hi = mpmath.mpf(y_lo), mpmath.mpf(y_hi)

                def f(y):
                    v = (y - lo) / (hi - lo)
                    if v <= 0 or v >= 1:
                        return mpmath.mpf(0)
                    return mpmath.exp(4 - 1 / (v * (1 - v))) / (y * y)

                ref = 3 / mpmath.pi * mpmath.quad(f, [lo, hi])
                return float(abs(val - ref) / ref)

        with monkeypatch.context() as mp:
            leggauss = np.polynomial.legendre.leggauss(256)
            mp.setattr(modular, "_legendre_rule", lambda n: leggauss)
            old = [rel_error(*s) for s in supports]

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        modular._legendre_rule.cache_clear()
        new = [rel_error(*s) for s in supports]
        for support, e_old, e_new in zip(supports, old, new):
            assert e_new <= e_old, support
            assert e_new < 5e-16, support

    def test_rule_against_leggauss(self):
        # the 64-point rule of the correlation pieces: its nodes are
        # numpy's to 1e-15.  leggauss's own weights are off by up to
        # 2.3e-15 there, so the weights are held to 40-digit ones, from
        # Newton steps on the recurrence at the same roots
        mpmath = pytest.importorskip("mpmath")
        x, w = modular._legendre_rule(64)
        ref_x, ref_w = np.polynomial.legendre.leggauss(64)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        with mpmath.workdps(40):
            exact = []
            for root in x:
                r = mpmath.mpf(root)
                for _ in range(3):
                    p0, p1 = mpmath.mpf(1), r
                    for j in range(2, 65):
                        p0, p1 = p1, ((2 * j - 1) * r * p1 - (j - 1) * p0) / j
                    dp = 64 * (r * p1 - p0) / (r * r - 1)
                    r -= p1 / dp
                exact.append(float(2 / ((1 - r * r) * dp * dp)))
        assert np.max(np.abs(w - exact)) <= 1e-15
        assert np.max(np.abs(w - exact)) < np.max(np.abs(ref_w - exact))

    def test_non_finite_result_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError):
            mu_integral(BumpProfile("bump", 1.0, math.inf))

    def test_cached_on_observable(self):
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 3.0))
        assert obs.mu == mu_integral(obs.profile)


class TestCorrelation:
    def test_constant_observables_give_mass(self):
        haar = TorusMeasure.haar()
        val = correlation(haar, [ConstantObservable(), ConstantObservable()],
                          [3.0, 5.0], nodes=64)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_frozen_golden_value(self):
        # the height-window indicator on the t = 6 closed horocycle, a
        # Gauss-Legendre row on which every piece is a level set: the
        # golden is the exact measure of the x whose coset heights land
        # in [2, 3], a_0(y) = f(y) + sum_{c <= (y y_lo)^(-1/2)} phi(c)
        # (2/c) (sqrt(y/y_lo - c^2 y^2) - sqrt(max(y/y_hi - c^2 y^2, 0)))
        haar = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("indicator", 2.0, 3.0))
        val = correlation(haar, [obs], [6.0], nodes=2 ** 14)
        y = math.exp(-6.0)
        exact = obs.profile.value(y) + sum(
            _phi(c) * (2.0 / c)
            * (math.sqrt(y / 2.0 - (c * y) ** 2)
               - math.sqrt(max(y / 3.0 - (c * y) ** 2, 0.0)))
            for c in range(1, int((y * 2.0) ** -0.5) + 1))
        assert val.imag == 0.0
        assert val.real == pytest.approx(exact, abs=1e-13)
        assert abs(val.real - 1.0 / (2.0 * math.pi)) < 2e-2

    def test_small_times_against_adaptive_quadrature(self):
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))

        def integrand(x, y):
            rho = float(np.real(sigma.value(np.array([x]))[0]))
            return rho * float(obs.value_at(x, y))

        # at t = 0 the base horocycle never enters the support (every
        # orbit height is <= 1) so both sides vanish identically; t = 1
        # exercises a genuinely nonzero value
        val0 = correlation(sigma, [obs], [0.0], nodes=2 ** 14)
        assert val0 == 0.0
        oracle0, _ = quad(lambda x: integrand(x, 1.0), 0.0, 1.0, limit=200)
        assert abs(val0.real - oracle0) < 1e-8

        val1 = correlation(sigma, [obs], [1.0], nodes=2 ** 14)
        y1 = math.exp(-1.0)
        oracle1, err = quad(lambda x: integrand(x, y1), 0.0, 1.0,
                            limit=200, epsabs=1e-10)
        assert abs(val1.real) > 1e-3
        assert val1.real == pytest.approx(oracle1, abs=1e-8)
        assert abs(val1.imag) < 1e-12

    def test_haar_r1_matches_constant_term_oracle(self):
        # the r = 1 Haar correlation is the Eisenstein constant term
        # a_0(y), which needs no quadrature; a row's value does not depend
        # on nodes, and 2^17 nodes admit the Farey set at t = 12
        haar = TorusMeasure.haar()
        profile = BumpProfile("bump", 1.5, 3.0)
        obs = EisensteinObservable(profile)
        for t in range(1, 13):
            val = correlation(haar, [obs], [float(t)], nodes=2 ** 17)
            assert abs(val - _constant_term(profile, math.exp(-t))) <= 1e-12

    def test_constant_term_decays_at_the_square_root_rate(self):
        # a_0(y) - mu = O(y^(1/2)) unconditionally (Sarnak 1981, Zagier
        # 1981): on the kernel rows and on the oracle, |a_0(e^-t) - mu|
        # e^(t/2) stays below 0.25 (its maximum is 0.124, at t = 3)
        haar = TorusMeasure.haar()
        profile = BumpProfile("bump", 1.5, 3.0)
        obs = EisensteinObservable(profile)
        for t in range(2, 13):
            for val in (correlation(haar, [obs], [float(t)], nodes=2 ** 17),
                        _constant_term(profile, math.exp(-t))):
                assert abs(val - obs.mu) * math.exp(t / 2.0) <= 0.25

    def test_doubling_nodes_is_stable(self):
        # nodes sets how many points are evaluated at once, never the
        # points: the rows are the same bytes at 2^13 and 2^14 nodes
        haar = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        for t in (2.0, 4.0, 6.0, 7.0):
            coarse = correlation(haar, [obs], [t], nodes=2 ** 13)
            fine = correlation(haar, [obs], [t], nodes=2 ** 14)
            assert coarse == fine

    def test_validation(self):
        haar = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        with pytest.raises(ValueError):
            correlation(haar, [obs], [2.0], nodes=8)
        with pytest.raises(ValueError, match="underflow"):
            correlation(haar, [obs], [31.0])
        with pytest.raises(ValueError, match=re.escape(
                "row t=(12) needs nodes >= 108504 ")):
            correlation(haar, [obs], [12.0])
        with pytest.raises(ValueError):
            correlation(haar, [obs], [2.0, 3.0])
        with pytest.raises(ValueError):
            correlation(haar, [], [])
        with pytest.raises(ValueError, match="circle"):
            correlation(TorusMeasure.haar(2), [obs], [2.0])


def _phi(c):
    return sum(math.gcd(c, d) == 1 for d in range(1, c + 1))


@functools.cache
def _constant_term(profile, y):
    """Independent oracle for the r = 1 Haar row at height y: the constant
    term a_0(y) = f(y) + 2y sum_{c <= (y y_lo)^(-1/2)} phi(c)
    int_0^inf f(1/(c^2 y (1 + u^2))) du of the Eisenstein series, each
    integral by adaptive quadrature over the u with u^2 in
    [1/(c^2 y y_hi) - 1, 1/(c^2 y y_lo) - 1], the support of f."""
    total = profile.value(y)
    for c in range(1, int((y * profile.y_lo) ** -0.5) + 1):
        s = c * c * y
        u_lo = math.sqrt(max(0.0, 1.0 / (s * profile.y_hi) - 1.0))
        u_hi = math.sqrt(1.0 / (s * profile.y_lo) - 1.0)
        val, _ = quad(lambda u: profile.value(1.0 / (s * (1.0 + u * u))),
                      u_lo, u_hi, epsabs=0.0, epsrel=1e-13, limit=200)
        total += 2.0 * y * _phi(c) * val
    return total


def _arc_endpoints(profile, y):
    """Every arc endpoint of the observable at height y, by a scalar loop
    over the coprime (c, d) with c^2 y y_lo <= 1 and -d/c within reach of
    [0, 1]: the coset's height is y_lo and y_hi at
    |x + d/c| = sqrt(y/y_lo - c^2 y^2)/c and sqrt(y/y_hi - c^2 y^2)/c."""
    ends = []
    c = 1
    while c * c * y * profile.y_lo <= 1.0:
        for d in range(-c - 1, 2):
            if math.gcd(c, d) == 1:
                for h in (profile.y_lo, profile.y_hi):
                    r = math.sqrt(max(y / h - (c * y) ** 2, 0.0)) / c
                    ends += [-d / c - r, -d / c + r]
        c += 1
    return ends


def _quad_oracle(observables, times, coeffs=None, xi=0):
    """Independent oracle for a correlation row: adaptive quadrature of
    rho(x) e(xi x) prod_i value(x, e^-t_i) over each interval between
    consecutive arc endpoints, where every factor is smooth.  rho is
    summed here from its coefficients {k: a_k}, and each factor is the
    full coprime enumeration `EisensteinObservable.value`; an interval
    where some factor vanishes at the midpoint lies outside its support
    and is skipped."""
    coeffs = coeffs or {0: 1.0}
    ys = [math.exp(-t) for t in times]
    cuts = {0.0, 1.0}
    for obs, y in zip(observables, ys):
        cuts.update(e for e in _arc_endpoints(obs.profile, y) if 0 < e < 1)
    cuts = sorted(cuts)

    def integrand(x):
        v = sum(a * cmath.exp(2j * math.pi * (k + xi) * x)
                for k, a in coeffs.items())
        for obs, y in zip(observables, ys):
            v *= obs.value(x, y)
        return v

    parts = [lambda x: integrand(x).real]
    if xi or set(coeffs) != {0}:
        parts.append(lambda x: integrand(x).imag)
    total = [0.0, 0.0]
    with warnings.catch_warnings():
        # the roundoff notice at these tolerances; the sum is held to
        # the kernel at 1e-12
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts, cuts[1:]):
            if any(obs.value((a + b) / 2.0, y) == 0.0
                   for obs, y in zip(observables, ys)):
                continue
            for k, part in enumerate(parts):
                total[k] += quad(part, a, b, epsabs=1e-15, epsrel=1e-12,
                                 limit=200)[0]
    return complex(*total)


def _bytes(val):
    return np.complex128(val).tobytes()


def _same(a, b):
    """Every row, weighted and twisted ones included, is the same bytes
    however nodes batches its points: the kernel multiplies only float
    arrays, adds each cosine sum over the pieces in one pass and combines
    the density's coefficients on Python scalars."""
    assert _bytes(a) == _bytes(b)


def _straddle(sigma, observables, times, xi=0):
    """The row at the fewest nodes that admit it, after checking that one
    node fewer is refused with a message naming that count, and that the
    row is the same at twice that count."""
    need = max([16] + [math.ceil(1.0 / (math.exp(-t) * o.profile.y_lo))
                       for o, t in zip(observables, times)])
    if need > 16:
        named = "row t=(%s) needs nodes >= %d " % (
            ",".join("%g" % t for t in times), need)
        with pytest.raises(ValueError, match=re.escape(named)):
            correlation(sigma, observables, times, nodes=need - 1, xi=xi)
    val = correlation(sigma, observables, times, nodes=need, xi=xi)
    _same(val, correlation(sigma, observables, times, nodes=2 * need,
                           xi=xi))
    return val


def _coeffs(sigma):
    return {k: a for (k,), a in sigma.coeffs.items()}


_HAAR_PAIR = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0)),
              EisensteinObservable(BumpProfile("bump", 1.2, 2.5))]
_TRIPLE = [_HAAR_PAIR[0],
           EisensteinObservable(BumpProfile("bump", 2.0, 4.0)), _HAAR_PAIR[1]]


def _wiener():
    return TorusMeasure(
        1, {(0,): 1.0, (1,): 0.2 + 0.1j, (-1,): 0.2 - 0.1j,
            (2,): 0.05 - 0.02j, (-2,): 0.05 + 0.02j})


class TestKernelBytes:
    """Rows with more pieces than one batch of nodes points holds, with a
    cusp or an empty factor, or with a Farey set past nodes: an answered
    row is held to an oracle at 1e-12 and is the same at every node count
    that admits it (`_same`); a refused row names the nodes it needs."""

    wiener = staticmethod(_wiener)

    def test_haar_pair(self):
        # the rows need 68, 337 and 914 nodes for their Farey sets at 2t
        # and have 16, 64 and 186 pieces, so at those counts they run 1,
        # 5 and 14 pieces at a time
        haar = TorusMeasure.haar()
        for t in (2.2, 3.0, 3.5):
            val = _straddle(haar, _HAAR_PAIR, [t, 2.0 * t])
            if t < 3.5:
                assert abs(val - _quad_oracle(_HAAR_PAIR, [t, 2.0 * t])) \
                    <= 1e-12

    @pytest.mark.parametrize("xi", [0, 3])
    def test_wiener_single(self, xi):
        # at 64 nodes the rows are evaluated one piece at a time
        sigma = self.wiener()
        obs = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0))]
        for t in (1.0, 2.5, 4.0):
            val = correlation(sigma, obs, [t], nodes=64, xi=xi)
            _same(val, correlation(sigma, obs, [t], nodes=2 ** 18, xi=xi))
            assert abs(val - _quad_oracle(obs, [t], _coeffs(sigma), xi)) \
                <= 1e-12

    @pytest.mark.parametrize("xi", [0, 2])
    def test_mixed_pair(self, xi):
        # the Farey set at t fits 256 nodes, the one at 2t does not
        # (e^(2t)/1.2 > 256), so the row is refused there
        sigma = self.wiener()
        for t in (3.0, 3.5, 4.0):
            with pytest.raises(ValueError, match="needs nodes"):
                correlation(sigma, _HAAR_PAIR, [t, 2.0 * t], nodes=256,
                            xi=xi)
            val = _straddle(sigma, _HAAR_PAIR, [t, 2.0 * t], xi)
            if t == 3.0:
                assert abs(val - _quad_oracle(_HAAR_PAIR, [t, 2.0 * t],
                                              _coeffs(sigma), xi)) <= 1e-12

    def test_cusp_and_deep_pair_rows(self):
        # f(1) = 1 for the indicator on [1, 2] at t = 0, a constant
        # factor, so the row is the density's mass; the pairs at (6, 12)
        # and (7.5, 15) need about e^(2t)/1.2 nodes
        sigma = self.wiener()
        ind = EisensteinObservable(BumpProfile("indicator", 1.0, 2.0))
        val = correlation(sigma, [ind], [0.0], nodes=64)
        assert _bytes(val) == _bytes(
            correlation(sigma, [ConstantObservable()], [0.0], nodes=64))
        assert abs(val - _quad_oracle([ind], [0.0], _coeffs(sigma))) <= 1e-12
        for t, need in ((6.0, 135629), (7.5, 2724182)):
            with pytest.raises(ValueError, match=re.escape(
                    "row t=(%g,%g) needs nodes >= %d " % (t, 2 * t, need))):
                correlation(sigma, _HAAR_PAIR, [t, 2.0 * t], nodes=256)
        _straddle(sigma, _HAAR_PAIR, [6.0, 12.0])

    @pytest.mark.parametrize("first", [True, False])
    def test_constant_factor(self, first):
        # the constant scales the row: the same bytes at 512 nodes and at
        # 64 (one piece at a time)
        obs = [ConstantObservable(2.5), _HAAR_PAIR[0]]
        if not first:
            obs.reverse()
        for sigma in (TorusMeasure.haar(), self.wiener()):
            for xi in (0, 1):
                single = correlation(sigma, _HAAR_PAIR[:1], [2.0],
                                     nodes=512, xi=xi)
                assert _bytes(2.5 * single) == _bytes(correlation(
                    sigma, obs, [2.0, 2.0], nodes=512, xi=xi))
                _same(2.5 * single, correlation(
                    sigma, obs, [2.0, 2.0], nodes=64, xi=xi))
                assert abs(single - _quad_oracle(
                    _HAAR_PAIR[:1], [2.0], _coeffs(sigma), xi)) <= 1e-12

    @pytest.mark.parametrize("consts", [[-1.0], [-1.0, -1.0], [-2.5, 3.0]])
    def test_negative_constants_leave_no_negative_zero(self, consts):
        # a zero part reads +0.0, on a row and on the empty row (at t =
        # 0.1 the bump reaches no coset); a nonzero part is the row
        # without its constants, times each constant in turn
        for t in (2.0, 0.1):
            base = correlation(TorusMeasure.haar(), _HAAR_PAIR[:1], [t],
                               nodes=1024)
            row = correlation(
                TorusMeasure.haar(),
                [ConstantObservable(c) for c in consts] + _HAAR_PAIR[:1],
                [1.0] * len(consts) + [t], nodes=1024)
            for part, want in ((row.real, base.real), (row.imag, base.imag)):
                for c in consts:
                    want *= c
                if want == 0.0:
                    assert part == 0.0 and math.copysign(1.0, part) == 1.0
                else:
                    assert _bytes(part) == _bytes(want)

    def test_empty_support(self):
        # at t = 0 no coset reaches [1.5, 3]: the row is exactly 0,
        # whichever factor comes first and even beside a factor at t = 30,
        # whose Farey set alone is refused
        obs = _HAAR_PAIR[0]
        assert modular._pieces([(obs.profile, 1.0)])[0].size == 0
        for times in ([0.0], [0.0, 2.0], [0.0, 30.0], [30.0, 0.0]):
            pair = [obs] * len(times)
            val = correlation(self.wiener(), pair, times, nodes=64, xi=1)
            assert _bytes(val) == _bytes(0j)
        with pytest.raises(ValueError, match="needs nodes"):
            correlation(self.wiener(), [obs], [30.0], nodes=64, xi=1)

    @pytest.mark.parametrize("kind", ["bump", "indicator"])
    @pytest.mark.parametrize("y_lo", [1.0, 1.1, 1.16, 1.5])
    def test_value_reduced_equals_four_term_sum(self, kind, y_lo):
        obs = EisensteinObservable(BumpProfile(kind, y_lo, y_lo + 1.5))
        rng = np.random.default_rng(16)
        floor = math.sqrt(3.0) / 2.0
        # unreduced but accepted: y in [sqrt(3)/2, 1) inside the circle
        ux = rng.uniform(-0.45, 0.45, size=200)
        uy = rng.uniform(floor, 1.0, size=200)
        inside = ux * ux + uy * uy < 1.0
        assert inside.sum() > 20
        rx, ry = reduce_arrays(rng.uniform(-3.0, 3.0, size=500),
                               np.exp(rng.uniform(-4.0, 1.5, size=500)))
        high = (rng.uniform(-0.5, 0.5, size=100),
                rng.uniform(0.95, 4.0, size=100))
        cases = [(ux[inside], uy[inside]), (rx, ry), high,
                 (np.array([0.5, -0.5]), np.array([floor, floor])),
                 (np.zeros(0), np.zeros(0)),
                 (np.linspace(-0.5, 0.5, 7), np.float64(1.2)),
                 (np.float64(0.1), np.float64(2.0))]
        # the fast path against the full coprime enumeration
        for x, y in cases:
            got = obs.value_reduced(x, y)
            xs, ys = np.broadcast_arrays(x, y)
            assert np.shape(got) == xs.shape
            np.testing.assert_allclose(
                np.ravel(got), [obs.value(a, b) for a, b in
                                zip(xs.ravel(), ys.ravel())], atol=1e-12)




_Y_LOS = (1.0, 1.1, 1.5, 2.5)


@st.composite
def _arc_side_grid(draw):
    kind = draw(st.sampled_from(["bump", "indicator"]))
    y_lo = draw(st.sampled_from(_Y_LOS))
    width = draw(st.floats(0.05, 4.0))
    nodes = draw(st.integers(16, 700))
    # heights from just under the cusp term down to 1/(y_lo nodes)
    y = draw(st.floats((1.0 + 1e-9) / (y_lo * nodes), 0.999 * y_lo))
    subset = draw(st.lists(st.integers(0, nodes - 1), max_size=nodes,
                           unique=True))
    return (EisensteinObservable(BumpProfile(kind, y_lo, y_lo + width)),
            nodes, y, np.array(sorted(subset), dtype=np.int64))


def _gauss_points(lo, hi):
    gx, _ = modular._legendre_rule(64)
    half = (hi - lo) / 2.0
    return (lo + half)[:, None] + half[:, None] * gx


class TestValuesOnGrid:
    """Factor values at the quadrature points, the Gauss points of the
    pieces."""

    @settings(max_examples=80, deadline=None)
    @given(_arc_side_grid())
    def test_arc_side_is_the_scalar_definition(self, case):
        # the pieces of one factor are sorted, disjoint and inside
        # [0, 1] (where Ford circles touch, at y_lo = 1, two pieces may
        # share an endpoint up to rounding), and each piece's term at its
        # Gauss points is the scalar definition bit for bit (the drawn
        # index set picks the points, with the first and the last)
        obs, nodes, y, subset = case
        lo, hi, [(c, d)] = modular._pieces([(obs.profile, y)])
        assert np.all(lo < hi) and np.all(hi[:-1] <= lo[1:] + 1e-15)
        assert np.all(lo[:-1] <= lo[1:]) and np.all(hi[:-1] <= hi[1:])
        assert np.all(lo >= 0.0) and np.all(hi <= 1.0)
        x = _gauss_points(lo, hi)
        v = modular._arc_term(obs.profile, y, c[:, None], d[:, None], x)
        if x.size == 0:
            return
        pick = np.unique(np.append(subset, [0, x.size - 1]) % x.size)
        oracle = np.array([obs.value(a, y) for a in x.ravel()[pick]])
        assert v.ravel()[pick].tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("kind", ["bump", "indicator"])
    @pytest.mark.parametrize("y_lo", _Y_LOS)
    @pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    def test_straddling_the_under_resolved_bound(self, kind, y_lo, side):
        # y = side / (y_lo nodes): 1/(y y_lo) = nodes / side.  Past the
        # bound the Farey set outgrows 256 nodes and the row is refused;
        # on either side its pieces need more points than 256, so it is
        # evaluated a few pieces at a time, and it is the constant term
        obs = EisensteinObservable(BumpProfile(kind, y_lo, y_lo + 1.5))
        nodes = 256
        t = -math.log(side / (y_lo * nodes))
        y = math.exp(-t)
        assert modular._pieces([(obs.profile, y)])[0].size * 64 > nodes
        haar = TorusMeasure.haar()
        val = _straddle(haar, [obs], [t])
        if 1.0 / (y * y_lo) > nodes:
            with pytest.raises(ValueError, match="needs nodes >= 257 "):
                correlation(haar, [obs], [t], nodes=nodes)
        else:
            assert _bytes(correlation(haar, [obs], [t], nodes=nodes)) \
                == _bytes(val)
        assert abs(val - _constant_term(obs.profile, y)) <= 1e-12

    def test_cusp_term_is_a_constant_factor(self):
        # f(1) = 1 at t = 0 for the indicator on [1, 2]: every arc has
        # zero width, so the factor multiplies in as the constant f(1),
        # alone and beside a factor with pieces
        obs = EisensteinObservable(BumpProfile("indicator", 1.0, 2.0))
        assert modular._pieces([(obs.profile, 1.0)])[0].size == 0
        haar, sigma = TorusMeasure.haar(), _wiener()
        one = ConstantObservable()
        assert _bytes(correlation(haar, [obs], [0.0], nodes=64)) \
            == _bytes(correlation(haar, [one], [0.0], nodes=64))
        assert correlation(haar, [obs], [0.0], nodes=64) \
            == pytest.approx(1.0, abs=1e-15)
        pair = [obs, _HAAR_PAIR[0]]
        val = correlation(sigma, pair, [0.0, 2.0], nodes=64, xi=1)
        assert _bytes(val) == _bytes(correlation(
            sigma, [one, _HAAR_PAIR[0]], [0.0, 2.0], nodes=64, xi=1))
        assert abs(val - _quad_oracle(pair, [0.0, 2.0], _coeffs(sigma), 1)) \
            <= 1e-12

    def test_tangent_ford_circles_sum_both_terms(self):
        # at 1/2 + i/2 the Ford circles at 0 and 1 touch, and both cosets
        # reach height 1 = y_lo: the reduce path sums both terms at that
        # point; the pieces [0, 1/2] and [1/2, 1] meet there, and their
        # Gauss points miss it
        obs = EisensteinObservable(BumpProfile("indicator", 1.0, 2.0))
        haar = TorusMeasure.haar()
        t = math.log(2.0)
        x = (np.arange(17) + 0.5) / 17
        dense = obs.value_at(x, np.full(17, 0.5))
        assert dense[8] == 2.0 == obs.value(0.5, 0.5)
        assert dense.tolist() == [obs.value(a, 0.5) for a in x]
        lo, hi, _ = modular._pieces([(obs.profile, 0.5)])
        assert (lo.tolist(), hi.tolist()) == ([0.0, 0.5], [0.5, 1.0])
        assert correlation(haar, [obs], [t], nodes=17) \
            == correlation(haar, [obs], [t], nodes=128) == 1.0


class TestGaussLegendre:
    """Rows against the adaptive quadrature oracle `_quad_oracle`, and how
    nodes batches their points."""

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 4.1])
    def test_haar_pair_against_the_oracle(self, t):
        haar = TorusMeasure.haar()
        times = [t, 2.0 * t]
        val = correlation(haar, _HAAR_PAIR, times, nodes=2 ** 16)
        assert abs(val - _quad_oracle(_HAAR_PAIR, times)) <= 1e-12

    def test_criterion_6_pair_against_the_oracle(self):
        haar = TorusMeasure.haar()
        pair = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0)),
                EisensteinObservable(BumpProfile("bump", 2.0, 4.0))]
        val = correlation(haar, pair, [3.5, 7.0], nodes=2 ** 14)
        assert abs(val - _quad_oracle(pair, [3.5, 7.0])) <= 1e-12

    @pytest.mark.parametrize("times", [(1.0, 2.0, 3.0), (2.0, 3.0, 4.0),
                                       (3.0, 4.5, 6.0)])
    def test_haar_triple_against_the_oracle(self, times):
        # r = 3: three Eisenstein factors in one row
        haar = TorusMeasure.haar()
        val = correlation(haar, _TRIPLE, list(times), nodes=2 ** 14)
        assert val != 0.0
        assert abs(val - _quad_oracle(_TRIPLE, list(times))) <= 1e-12

    @pytest.mark.parametrize("xi", [0, 3])
    def test_wiener_against_the_oracle(self, xi):
        sigma = _wiener()
        obs = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0))]
        val = correlation(sigma, obs, [5.0], nodes=2 ** 14, xi=xi)
        assert abs(val - _quad_oracle(obs, [5.0], _coeffs(sigma), xi)) \
            <= 1e-12

    @pytest.mark.parametrize("sigma, obs, times", [
        (TorusMeasure.haar(), _HAAR_PAIR, [3.0, 6.0]),
        (_wiener(), _HAAR_PAIR[:1], [4.0]),
        (TorusMeasure.haar(),
         [EisensteinObservable(BumpProfile("indicator", 1.0, 2.0))], [2.0])])
    def test_straddling_the_point_budget(self, sigma, obs, times):
        # at pieces * 64 = budget nodes and above the row is one batch;
        # below that it is evaluated nodes // 64 pieces at a time, the
        # same bytes down to the fewest nodes that admit its Farey sets,
        # and one node fewer is refused
        factors = [(o.profile, math.exp(-t)) for o, t in zip(obs, times)]
        budget = 64 * modular._pieces(factors)[0].size
        val = correlation(sigma, obs, times, nodes=budget)
        assert _bytes(val) == _bytes(
            correlation(sigma, obs, times, nodes=2 ** 18))
        for nodes in (budget - 1, budget - 64):
            _same(val, correlation(sigma, obs, times, nodes=nodes))
        _same(val, _straddle(sigma, obs, times))

    def test_no_factor_evaluated_past_the_node_budget(self, monkeypatch):
        sizes = []
        value = BumpProfile.value

        def counted(self, u):
            sizes.append(np.size(u))
            return value(self, u)

        monkeypatch.setattr(BumpProfile, "value", counted)
        haar = TorusMeasure.haar()
        for t in (1.0, 2.0, 3.0, 4.1):
            times = [t, 2.0 * t]
            factors = [(o.profile, math.exp(-s))
                       for o, s in zip(_HAAR_PAIR, times)]
            points = 64 * modular._pieces(factors)[0].size
            for nodes in (points // 3, points, 2 ** 18):
                sizes.clear()
                correlation(haar, _HAAR_PAIR, times, nodes=nodes)
                # the cusp terms (one point each), then each factor at
                # 64 points per piece, at most nodes points at a time
                assert sizes[:2] == [1, 1]
                assert sum(sizes[2:]) == 2 * points
                assert max(sizes[2:]) <= max(nodes, 64)
                if nodes >= points:
                    assert sizes == [1, 1, points, points]

    def test_rows_are_byte_stable(self):
        # weighted r = 1 and r = 2 rows, and a twisted one, are the same
        # bytes at the fewest nodes that admit them (twice over), at every
        # power of four above that and at 2^18
        sigma = _wiener()
        for (obs, xi), t in itertools.product(
                [(_HAAR_PAIR[:1], 0), (_HAAR_PAIR, 0), (_HAAR_PAIR, -3)],
                (1.5, 3.0, 4.1)):
            times = [t * (k + 1) for k in range(len(obs))]
            need = max(16, math.ceil(1.0 / (math.exp(-times[-1])
                                            * obs[-1].profile.y_lo)))
            counts = [need, need] + [4 ** k for k in range(2, 10)
                                     if 4 ** k > need]
            vals = {_bytes(correlation(sigma, obs, times, nodes=nodes, xi=xi))
                    for nodes in counts}
            assert len(vals) == 1

    @pytest.mark.parametrize("obs, times", [
        (_HAAR_PAIR[:1], [5.0]), (_HAAR_PAIR, [2.0, 4.0]),
        (_TRIPLE, [1.0, 2.0, 3.0])])
    def test_factors_are_even(self, obs, times):
        # the kernel keeps cosine sums only: the product of the factors
        # is even in x, so its sine integrals vanish (the oracle's
        # imaginary part at twist n is the integral against sin(2 pi n x))
        for n in (1, 3, 8):
            assert abs(_quad_oracle(obs, times, xi=n).imag) <= 1e-13

    @pytest.mark.parametrize("xi", [-4, -1, 0, 3])
    def test_reflected_density_and_twist(self, xi):
        # x -> -x maps the row of sigma at xi to that of the reflected
        # density sigma(-k) at -xi: the same bytes, for a density that is
        # not real
        coeffs = {0: 1.0, 1: 0.3 + 0.2j, -2: 0.1 - 0.05j, 3: 0.02j}
        sigma, reflected = (TorusMeasure(1, {(sign * k,): a
                                             for k, a in coeffs.items()})
                            for sign in (1, -1))
        for obs, times in ((_HAAR_PAIR[:1], [2.0]),
                           (_HAAR_PAIR, [1.5, 3.0])):
            val = correlation(sigma, obs, times, nodes=2 ** 12, xi=xi)
            assert _bytes(val) == _bytes(correlation(
                reflected, obs, times, nodes=2 ** 12, xi=-xi))

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(1, 12),
                           st.complex_numbers(max_magnitude=0.1), max_size=4),
           st.floats(0.5, 2.5), st.sampled_from([1, 2]))
    def test_real_densities_give_real_rows(self, half, t, r):
        # a real density's coefficients at n and -n add to a real weight,
        # so its untwisted rows have imaginary part exactly 0
        coeffs = {(0,): 1.0}
        for k, a in half.items():
            coeffs[(k,)], coeffs[(-k,)] = a, a.conjugate()
        sigma = TorusMeasure(1, coeffs)
        times = [t * (i + 1) for i in range(r)]
        assert correlation(sigma, _HAAR_PAIR[:r], times,
                           nodes=2 ** 12).imag == 0.0

    def test_weight_band(self):
        # a piece spans at most 8 periods of the weight e((k + xi) x):
        # the constant row is one piece of width 1, cut in two at xi = 9
        haar = TorusMeasure.haar()
        ones = [ConstantObservable()]
        for xi, cuts in ((8, [0.0, 1.0]), (9, [0.0, 0.5, 1.0])):
            lo, hi, _ = modular._split(np.zeros(1), np.ones(1), [], xi,
                                       16, [1.0])
            assert (lo.tolist(), hi.tolist()) == (cuts[:-1], cuts[1:])
            assert abs(correlation(haar, ones, [1.0], nodes=2 ** 10,
                                   xi=xi)) < 1e-13
        # the widest piece at t = 2 is 0.105 wide: a density coefficient
        # at 100 cuts it
        coeffs = {0: 1.0, 100: 0.1, -100: 0.1}
        sigma = TorusMeasure(1, {(k,): a for k, a in coeffs.items()})
        val = correlation(sigma, _HAAR_PAIR[:1], [2.0], nodes=2 ** 12)
        assert abs(val - _quad_oracle(_HAAR_PAIR[:1], [2.0], coeffs)) \
            <= 1e-12

    def test_cuts_past_nodes_are_refused(self):
        # at xi = 8 * 18 the constant row's one piece is cut into 18, 17
        # cuts: refused at 16 nodes before any sub-piece is built,
        # answered at 17; a weight at 10^9 would cut the t = 2 row about
        # 4 * 10^7 times and is refused at 2^14 nodes
        haar = TorusMeasure.haar()
        ones = [ConstantObservable()]
        with pytest.raises(ValueError, match=re.escape(
                "row t=(1) needs nodes >= 17 to cut its pieces")):
            correlation(haar, ones, [1.0], nodes=16, xi=144)
        assert abs(correlation(haar, ones, [1.0], nodes=17, xi=144)) < 1e-13
        sigma = TorusMeasure(1, {(0,): 1.0, (10 ** 9,): 0.1, (-10 ** 9,): 0.1})
        lo, hi, _ = modular._pieces([(_HAAR_PAIR[0].profile, math.exp(-2.0))])
        need = int(np.sum(np.ceil(1e9 * (hi - lo) / 8.0))) - lo.size
        assert need > 4 * 10 ** 7
        with pytest.raises(ValueError, match=re.escape(
                "row t=(2) needs nodes >= %d to cut its pieces" % need)):
            correlation(sigma, _HAAR_PAIR[:1], [2.0], nodes=2 ** 14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    max_size=20),
           st.integers(0, 400))
    def test_split_cuts_only_wide_pieces(self, ends, band):
        # a piece within 8 periods keeps its endpoints bit for bit; a wider
        # one becomes equal sub-pieces that tile it, each within 8
        # periods, with its own coset terms
        lo = np.array([min(e) for e in ends], dtype=float)
        hi = np.array([max(e) for e in ends], dtype=float)
        c = np.arange(lo.size)
        sub_lo, sub_hi, [(sc, sd)] = modular._split(lo, hi, [(c, -c)], band,
                                                    2 ** 14, [1.0])
        assert np.array_equal(sc, -sd)
        for k in range(lo.size):
            mine = sc == k
            a, b = sub_lo[mine], sub_hi[mine]
            assert a[0] == lo[k] and b[-1] == hi[k]
            assert np.array_equal(a[1:], b[:-1])
            if band * (hi[k] - lo[k]) <= 8.0:
                assert a.size == 1
            else:
                assert np.all(band * (b - a) <= 8.0 * (1.0 + 1e-12))
                assert a.size == math.ceil(band * (hi[k] - lo[k]) / 8.0)


class TestTwistedCorrelation:
    def test_zero_frequency_collapses(self):
        # no twist left: the row is the constant term, the same bytes at
        # 256 nodes (four pieces at a time) and at 1024 (all eight)
        haar = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        y = math.exp(-3.0)
        vals = []
        for nodes in (2 ** 8, 2 ** 10):
            a = correlation(haar, [obs], [3.0], nodes=nodes, xi=0)
            b = correlation(haar, [obs], [3.0], nodes=nodes)
            assert a == b
            assert a.imag == 0.0
            assert abs(a - _constant_term(obs.profile, y)) <= 1e-12
            vals.append(_bytes(a))
        assert vals[0] == vals[1]

    @pytest.mark.parametrize("xi", [0.5, -2.25, math.nan, math.inf])
    def test_non_integer_frequency_refused(self, xi):
        haar = TorusMeasure.haar()
        obs = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0))]
        with pytest.raises(ValueError, match="integer frequency"):
            correlation(haar, obs, [3.0], nodes=2 ** 10, xi=xi)

    def test_integral_float_frequency_accepted(self):
        haar = TorusMeasure.haar()
        obs = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0))]
        assert correlation(haar, obs, [3.0], nodes=2 ** 10, xi=3.0) \
            == correlation(haar, obs, [3.0], nodes=2 ** 10, xi=3) \
            == correlation(haar, obs, [3.0], nodes=2 ** 10, xi=np.int64(3))

    def test_pure_oscillation_vanishes(self):
        haar = TorusMeasure.haar()
        ones = [ConstantObservable()]
        val = correlation(haar, ones, [1.0], nodes=2 ** 10, xi=4)
        assert abs(val) < 1e-13

    def test_magnitude_decays_in_t(self):
        # 2^14 nodes admit the Farey set at t = 10 (e^10 / 1.5 = 14685)
        haar = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        mags = [abs(correlation(haar, [obs], [t], nodes=2 ** 14, xi=1))
                for t in (2.0, 6.0, 10.0)]
        assert mags[2] < mags[0]

    def test_expansion_consistency(self):
        # the row is linear in the density: it equals the coefficient-
        # weighted sum of twisted Haar rows, row(sigma, xi) = sum_k
        # sigma_k row(Haar, k + xi), to rounding, since both sides add
        # the same cosine sums; r = 1 and r = 2, with and without a twist
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): 0.3 + 0.1j,
                                 (-1,): 0.3 - 0.1j, (2,): 0.05 - 0.02j,
                                 (-2,): 0.05 + 0.02j})
        haar = TorusMeasure.haar()
        for obs, times, xi in [(_HAAR_PAIR[:1], [2.5], 0),
                               (_HAAR_PAIR, [2.0, 4.0], 0),
                               (_HAAR_PAIR[:1], [3.0], 4),
                               (_HAAR_PAIR, [1.5, 3.0], -2)]:
            lhs = correlation(sigma, obs, times, nodes=2 ** 12, xi=xi)
            rhs = sum(amp * correlation(haar, obs, times, nodes=2 ** 12,
                                        xi=k + xi)
                      for (k,), amp in sigma.coeffs.items())
            assert abs(lhs - rhs) <= 1e-15 * abs(lhs)


class TestIntegralEstimate:
    def test_unit_square(self):
        lhs, rhs, passed = _integral_estimate(1.0, 0.3)
        assert lhs == pytest.approx(1.0, rel=1e-14)
        assert rhs == pytest.approx(10.0)
        assert passed

    def test_frozen_golden_value(self):
        lhs, rhs, passed = _integral_estimate(100.0, 0.4)
        assert lhs == pytest.approx(0.316877748429, abs=1e-11)
        assert rhs == pytest.approx(7.0 * 100.0 ** -0.4 / 0.6, rel=1e-14)
        assert passed

    def test_large_R_small_c(self):
        assert _integral_estimate(1e4, 0.1)[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            _integral_estimate(0.5, 0.3)
        with pytest.raises(ValueError):
            _integral_estimate(10.0, 0.5)


class TestFitDecay:
    def test_exact_power_law(self):
        deltas = [2.0, 4.0, 8.0, 32.0]
        errors = [3.0 * d ** -0.5 for d in deltas]
        fit = fit_decay(deltas, errors)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_constant_errors(self):
        fit = fit_decay([1.0, 2.0, 4.0], [0.7, 0.7, 0.7])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_decay([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_decay([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_decay([1.0, 2.0, 3.0], [1.0, -1.0, 1.0])

    def test_frozen_horocycle_table_exponent(self):
        # end-to-end table: Haar density, smooth bump on [2, 3],
        # t = 2..12 step 1 at 2^17 nodes.  The golden is the exponent of
        # the constant-term oracle `_constant_term` on these rows, held
        # to +-20%.
        meas = TorusMeasure.haar()
        obs = EisensteinObservable(BumpProfile("bump", 2.0, 3.0))
        mu = obs.mu
        ts = range(2, 13)
        errs = [abs(correlation(meas, [obs], [float(t)], nodes=2 ** 17)
                    - mu) for t in ts]
        fit = fit_decay([math.exp(t) for t in ts], errs)
        assert fit.exponent > 0.0
        assert fit.exponent == pytest.approx(0.7139361820696822, rel=0.20)


class TestNormSurrogate:
    def test_monotone_in_order(self):
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        vals = [s_norm_surrogate(obs, d, n_x=512) for d in range(0, 5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0.0

    def test_constant_has_flat_norm(self):
        assert s_norm_surrogate(ConstantObservable(), 3, n_x=128) == 1.0

    def test_order_capped(self):
        obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
        with pytest.raises(ValueError):
            s_norm_surrogate(obs, 5)
