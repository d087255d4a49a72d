import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.suites import _suite_wiener
from equidist.wiener import (TorusMeasure, TorusObservable,
                             character_expansion_check, character_twist,
                             equivariance_check, wiener_norm)


def random_observable(rng, dim=1, degree=4):
    coeffs = {}
    for _ in range(rng.integers(1, 6)):
        chi = tuple(int(v) for v in rng.integers(-degree, degree + 1,
                                                 size=dim))
        coeffs[chi] = complex(rng.normal(), rng.normal())
    return TorusObservable(dim, coeffs)


def sum_of(eta, zeta):
    # the constructor adds the amplitudes of repeated characters
    return TorusObservable(eta.dim, [*eta.coeffs.items(),
                                     *zeta.coeffs.items()])


def product_of(eta, zeta):
    # the coefficient map of a product is the convolution of the maps
    return TorusObservable(eta.dim, [
        (tuple(u + v for u, v in zip(chi1, chi2)), a1 * a2)
        for chi1, a1 in eta.coeffs.items()
        for chi2, a2 in zeta.coeffs.items()])


def scaled(eta, factor):
    return TorusObservable(eta.dim, {chi: factor * amp
                                     for chi, amp in eta.coeffs.items()})


class TestConstruction:
    def test_duplicate_keys_merge(self):
        eta = TorusObservable(1, [((2,), 1.0), ((2,), 0.5j)])
        assert eta.coeff((2,)) == 1.0 + 0.5j

    def test_scalar_chi_normalized(self):
        eta = TorusObservable(1, {3: 2.0})
        assert eta.coeff((3,)) == 2.0
        assert eta.coeff(3) == 2.0

    def test_probability_enforced(self):
        with pytest.raises(ValueError):
            TorusMeasure(1, {(0,): 0.5})
        with pytest.raises(ValueError):
            TorusMeasure.from_json({"dim": 2, "coeffs": [
                {"chi": [0, 0], "re": 1.0, "im": 1e-9}]})

    def test_haar(self):
        haar = TorusMeasure.haar(2)
        assert haar.coeff((0, 0)) == 1.0
        assert wiener_norm(haar) == 1.0

    def test_json_round_trip(self):
        m = TorusMeasure(1, {(0,): 1.0, (2,): 0.25 - 0.5j})
        back = TorusMeasure.from_json(m.to_json())
        assert back.coeffs == m.coeffs


class TestNorm:
    def test_sum_of_moduli(self):
        m = TorusMeasure(1, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        assert wiener_norm(m) == pytest.approx(1.5)

    def test_triangle_and_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            eta = random_observable(rng)
            zeta = random_observable(rng)
            assert wiener_norm(sum_of(eta, zeta)) <= (
                wiener_norm(eta) + wiener_norm(zeta) + 1e-12)
            assert wiener_norm(product_of(eta, zeta)) <= (
                wiener_norm(eta) * wiener_norm(zeta) + 1e-12)
            assert wiener_norm(scaled(eta, 2.5)) == pytest.approx(
                2.5 * wiener_norm(eta))

    def test_dominates_sup_norm(self):
        rng = np.random.default_rng(6)
        x = (np.arange(4096) + 0.5) / 4096
        for _ in range(10):
            eta = random_observable(rng, degree=8)
            sup = float(np.max(np.abs(eta.value(x))))
            assert sup <= wiener_norm(eta) + 1e-10


class TestObservableAlgebra:
    def test_character_value(self):
        chi = TorusObservable(1, {(3,): 1.0})
        xs = np.array([0.0, 0.25, 0.5])
        vals = chi.value(xs)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(np.exp(2j * np.pi * 0.75))

    def test_translate_is_shift(self):
        rng = np.random.default_rng(7)
        eta = random_observable(rng)
        w = 0.3
        xs = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(eta.translate(w).value(xs),
                                   eta.value(xs + w), atol=1e-12)

    def test_degree(self):
        # the degree of a polynomial is its per-axis bandwidth
        eta = TorusObservable(1, {(3,): 1.0, (-5,): 1.0})
        assert eta.bandwidth() == (5,)
        assert product_of(eta, eta).bandwidth() == (10,)
        zeta = TorusObservable(2, {(1, -4): 1.0, (-2, 0): 1.0})
        assert zeta.bandwidth() == (2, 4)
        assert scaled(eta, 0.5).bandwidth() == (5,)

    def test_2d_value_shape(self):
        eta = TorusObservable(2, {(1, -1): 1.0})
        pts = np.zeros((4, 3, 2))
        assert eta.value(pts).shape == (4, 3)


class TestIntegration:
    def test_exact_pairing(self):
        m = TorusMeasure(1, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
        phi = TorusObservable(1, {(0,): 0.7, (-1,): 0.2})
        # only chi = 0 and chi = -1 pair with nonzero mass
        assert character_twist(m, 0, phi) == pytest.approx(0.7 + 0.25 * 0.2)

    def test_haar_kills_characters(self):
        haar = TorusMeasure.haar(1)
        assert character_twist(haar, 0, TorusObservable(1, {(5,): 1.0})) == 0.0
        assert character_twist(haar, 0, TorusObservable(1, {(0,): 3.0})) == 3.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(9)
        m = TorusMeasure(1, {(0,): 1.0, (1,): 0.3, (-1,): 0.2,
                             (2,): 0.1j})
        phi = random_observable(rng)
        n = 512
        x = (np.arange(n) + 0.5) / n
        quad = np.mean(m.value(x) * phi.value(x))
        assert character_twist(m, 0, phi) == pytest.approx(complex(quad),
                                                           abs=1e-12)


class TestTwist:
    def test_haar_twist_reads_coefficient(self):
        haar = TorusMeasure.haar(1)
        eta = TorusObservable(1, {(-3,): 2.0 + 1.0j, (1,): 5.0})
        assert character_twist(haar, 3, eta) == 2.0 + 1.0j
        assert character_twist(haar, 0, eta) == 0.0

    def test_shifted_pairing(self):
        m = TorusMeasure(1, {(0,): 1.0, (-5,): 0.5})
        eta = TorusObservable(1, {(2,): 1.0})
        # chi = 2 pairs with sigma_hat(-xi - 2)
        assert character_twist(m, 3, eta) == 0.5

    def test_equivariance_exact_for_haar(self):
        # the verify battery's Wiener suite, which also runs the
        # character expansion and 2-D tori
        checks, worst = _suite_wiener(np.random.default_rng(10), 50)
        assert checks == 100
        assert worst < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_equivariance_property(self, seed):
        _, worst = _suite_wiener(np.random.default_rng(seed), 2)
        assert worst < 1e-12


class TestExpansion:
    def test_finitely_supported_sigma(self):
        # the verify battery's Wiener suite: one-harmonic and up to
        # four-harmonic densities against a direct quadrature
        checks, worst = _suite_wiener(np.random.default_rng(11), 20)
        assert checks == 40
        assert worst < 1e-12

    def test_direct_side_clears_the_bandwidth(self):
        # density * phi has a harmonic at 64, which a 64-point midpoint
        # rule would read as -0.3; the direct side takes 65 points
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): 0.3, (-1,): 0.3})
        phi = TorusObservable(1, {(63,): 1.0})
        direct, expanded, defect = character_expansion_check(sigma, phi)
        assert expanded == 0.0
        assert defect < 1e-12

    def test_needs_an_observable(self):
        with pytest.raises(TypeError):
            character_expansion_check(TorusMeasure.haar(1), lambda chi: 0.0)


# Per-coefficient loops, summing in the sorted support order as the
# columnar code must: the references for bit identity.

def loop_value(eta, x):
    arr = np.asarray(x, dtype=float)
    if eta.dim == 1 and arr.ndim <= 1:
        pts, shape = np.atleast_1d(arr)[:, None], arr.shape
    else:
        pts, shape = arr.reshape(-1, eta.dim), arr.shape[:-1]
    out = np.zeros(pts.shape[0], dtype=complex)
    for chi, amp in eta.coeffs.items():
        out += amp * np.exp(2j * math.pi * (pts @ np.array(chi, dtype=float)))
    return out.reshape(shape)


def loop_translate(eta, w):
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return {chi: 0j + amp * complex(np.exp(2j * math.pi
                                           * float(np.dot(chi, w))))
            for chi, amp in eta.coeffs.items()}


def loop_twist(m, xi, eta):
    total = 0j
    for chi, amp in eta.coeffs.items():
        total += amp * m.coeffs.get(tuple(-x - c for x, c in zip(xi, chi)),
                                    0j)
    return total


def loop_bandwidth(eta):
    bw = [0] * eta.dim
    for chi in eta.coeffs:
        for i, v in enumerate(chi):
            bw[i] = max(bw[i], abs(v))
    return tuple(bw)


def loop_expansion(sigma, phi):
    haar = TorusMeasure.haar(sigma.dim)
    expanded = 0j
    for chi, amp in sigma.coeffs.items():
        expanded += amp * loop_twist(haar, chi, phi)
    axes = [(np.arange(n) + 0.5) / n for n in (
        max(a + b + 1, 64) for a, b in zip(loop_bandwidth(sigma),
                                           loop_bandwidth(phi)))]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    direct = complex(np.mean(loop_value(sigma, mesh) * loop_value(phi, mesh)))
    return direct, expanded, abs(direct - expanded)


# signed zeros, subnormals and exact integers, where a sum's sign of
# zero and its rounding are easiest to get wrong
_reals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                   st.floats(-1e6, 1e6))
_amps = st.builds(complex, _reals, _reals)


def _chis(dim, degree=9):
    return st.tuples(*[st.integers(-degree, degree)] * dim)


@st.composite
def _observable(draw, dim, min_size=0, max_size=12, degree=9):
    return TorusObservable(dim, draw(st.lists(
        st.tuples(_chis(dim, degree), _amps), min_size=min_size,
        max_size=max_size)))


@st.composite
def _measure(draw, dim, max_size=8, degree=9):
    coeffs = dict(draw(st.lists(st.tuples(_chis(dim, degree), _amps),
                                max_size=max_size)))
    coeffs[(0,) * dim] = 1.0
    return TorusMeasure(dim, coeffs)


_points = st.floats(-10.0, 10.0)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLoopIdentity:
    @settings(max_examples=200, deadline=None)
    @given(_observable(1), _points)
    def test_value_dim1_scalar(self, eta, x):
        got = eta.value(x)
        assert isinstance(got, complex)
        assert repr(got) == repr(complex(loop_value(eta, x)))

    @settings(max_examples=200, deadline=None)
    @given(_observable(1), st.lists(_points, max_size=40),
           st.booleans())
    def test_value_dim1_array(self, eta, xs, column):
        x = np.array(xs)[:, None] if column else np.array(xs)
        assert _same(eta.value(x), loop_value(eta, x))

    @settings(max_examples=200, deadline=None)
    @given(_observable(2), st.lists(st.tuples(_points, _points),
                                    min_size=1, max_size=40))
    def test_value_dim2(self, eta, xs):
        for x in (np.array(xs), np.array(xs[0])):
            assert _same(eta.value(x), loop_value(eta, x))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2).flatmap(
        lambda dim: st.tuples(_observable(dim),
                              st.lists(_points, min_size=dim,
                                       max_size=dim))))
    def test_translate(self, case):
        eta, w = case
        got = eta.translate(w)
        assert repr(list(got.coeffs.items())) == repr(
            list(loop_translate(eta, w).items()))
        assert _same(got.chis, eta.chis)
        assert _same(got.amps, list(got.coeffs.values()))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        _measure(dim), _chis(dim), _observable(dim, max_size=14),
        st.sampled_from(["any", "overlap", "disjoint", "single"]))),
        st.data())
    def test_character_twist(self, case, data):
        m, xi, eta, kind = case
        dim = m.dim
        if kind == "overlap":
            # eta also holds the partner -xi - key of every key of m
            eta = TorusObservable(dim, [*eta.coeffs.items(), *(
                (tuple(-x - k for x, k in zip(xi, key)), data.draw(_amps))
                for key in m.coeffs)])
        elif kind == "disjoint":
            # m within [-9, 9]^dim, eta's partners beyond it
            eta = TorusObservable(dim, [
                ((c + 30, *rest), amp) for (c, *rest), amp in
                eta.coeffs.items()])
        elif kind == "single":
            eta = data.draw(_observable(dim, min_size=1, max_size=1))
        got = character_twist(m, xi, eta)
        assert repr(got) == repr(loop_twist(m, xi, eta))
        if kind == "disjoint":
            assert got == 0j

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(_observable))
    def test_bandwidth(self, eta):
        got = eta.bandwidth()
        assert got == loop_bandwidth(eta)
        assert all(type(v) is int for v in got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        _measure(dim, degree=6), _observable(dim, degree=6))))
    def test_checks(self, case):
        sigma, phi = case
        assert repr(character_expansion_check(sigma, phi)) == repr(
            loop_expansion(sigma, phi))
        xi, w = (2,) * sigma.dim, [0.3] * sigma.dim
        haar = TorusMeasure.haar(sigma.dim)
        lhs = loop_twist(haar, xi, TorusObservable(
            phi.dim, loop_translate(phi, w)))
        rhs = complex(np.exp(-2j * math.pi * float(np.dot(xi, w)))) \
            * loop_twist(haar, xi, phi)
        assert repr(equivariance_check(haar, xi, w, phi)) == repr(
            (lhs, rhs, abs(lhs - rhs)))
