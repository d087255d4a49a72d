"""Horocycle correlation experiments on the modular surface.

The surface is coordinatized by the upper half plane modulo the integer
Moebius group; points reduce to the standard fundamental domain
|x| <= 1/2, x^2 + y^2 >= 1.  Observables are incomplete Eisenstein
series: a height profile f supported in [y_lo, y_hi] with y_lo >= 1 is
summed over cusp translates, which keeps the sum finite and exactly
enumerable.  The closed horocycle at height 1, carrying a Wiener density
rho(x) dx, is pushed down to height e^(-t) by the contracting diagonal;
the r-correlation integrates the product of r such translated
observables against the density.

Quadrature is composite midpoint on uniform nodes (the integrands are
1-periodic and, for the smooth profile, analytic in x, so midpoint
converges spectrally).  The independent cross-check oracle used in the
tests is adaptive quadrature.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BumpProfile",
    "EisensteinObservable",
    "ConstantObservable",
    "HorocycleMeasure",
    "IntegralEstimate",
    "DecayFit",
    "reduce_arrays",
    "mu_integral",
    "correlation",
    "check_integral_estimate",
    "fit_decay",
    "delta_statistics",
    "s_norm_surrogate",
]

_Y_FLOOR = math.sqrt(3.0) / 2.0
_TIME_CAP = 30.0


def reduce_arrays(x, y):
    """Fundamental-domain representatives for arrays of points.

    Alternates x -> x - round(x) with inversion z -> -1/z until
    |x| <= 1/2 and x^2 + y^2 >= 1 (up to 1e-15 at the circle boundary).
    Termination is capped at 500 sweeps; random inputs settle in a
    handful.
    """
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    shape = xb.shape
    rx = np.atleast_1d(xb).astype(float).reshape(-1).copy()
    ry = np.atleast_1d(yb).astype(float).reshape(-1).copy()
    if not np.all(ry > 0.0):
        raise ValueError("points need y > 0")
    for _ in range(500):
        rx -= np.round(rx)
        n2 = rx * rx + ry * ry
        mask = n2 < 1.0 - 1e-15
        if not mask.any():
            break
        inv = n2[mask]
        rx[mask] = -rx[mask] / inv
        ry[mask] = ry[mask] / inv
    else:
        raise ArithmeticError("reduction did not settle within 500 sweeps")
    return rx.reshape(shape), ry.reshape(shape)


@dataclass(frozen=True)
class BumpProfile:
    """Height profile on [y_lo, y_hi] with 1 <= y_lo < y_hi.

    kind "indicator" is the sharp cutoff; kind "bump" is the smooth
    compactly supported mollifier exp(4 - 1/(u(1-u))) in the rescaled
    coordinate, normalized to peak value 1 at the midpoint.
    """
    kind: str
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if self.kind not in ("indicator", "bump"):
            raise ValueError("kind must be 'indicator' or 'bump'")
        if not (1.0 <= self.y_lo < self.y_hi):
            raise ValueError("need 1 <= y_lo < y_hi")

    def value(self, u):
        arr = np.asarray(u, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        if self.kind == "indicator":
            out = ((flat >= self.y_lo) & (flat <= self.y_hi)).astype(float)
        else:
            v = (flat - self.y_lo) / (self.y_hi - self.y_lo)
            out = np.zeros_like(flat)
            inside = (v > 0.0) & (v < 1.0)
            vi = v[inside]
            out[inside] = np.exp(4.0 - 1.0 / (vi * (1.0 - vi)))
        return float(out[0]) if scalar else out.reshape(arr.shape)


class EisensteinObservable:
    """Height profile automorphized over the cusp: at a point z the value
    is the sum of f(Im gamma.z) over cosets of the cusp stabilizer.

    Because f lives above height y_lo >= 1, only finitely many cosets
    contribute: Im gamma.z = y/|cz+d|^2 >= y_lo forces c^2 <= 1/(y*y_lo)
    and a short coprime d-window per c.  At reduced points (y >= sqrt(3)/2)
    this collapses to c in {0, 1} and d in {-1, 0, 1}, which is the
    vectorized fast path.
    """

    def __init__(self, profile):
        if profile.y_lo < 1.0:
            raise ValueError("profile support must sit at heights >= 1")
        self.profile = profile
        self._mu = None

    def value(self, x, y):
        """Full coprime-pair enumeration at x + iy; works at any point,
        scalar only."""
        x, y = float(x), float(y)
        if not (math.isfinite(x) and y > 0.0):
            raise ValueError("need finite x and y > 0")
        total = self.profile.value(y)
        cmax = int(math.floor(math.sqrt(1.0 / (y * self.profile.y_lo))
                              + 1e-12))
        for c in range(1, cmax + 1):
            S = y / self.profile.y_lo - (c * y) ** 2
            if S < 0.0:
                continue
            half = math.sqrt(S)
            dlo = math.ceil(-c * x - half - 1e-12)
            dhi = math.floor(-c * x + half + 1e-12)
            for d in range(dlo, dhi + 1):
                if math.gcd(c, d) != 1:
                    continue
                total += self.profile.value(y / ((c * x + d) ** 2
                                                 + (c * y) ** 2))
        return float(total)

    def value_reduced(self, x, y):
        """Vectorized evaluation valid at reduced points (y >= sqrt(3)/2).

        Evaluates the identity coset plus the three c = 1 candidates
        d in {-1, 0, 1}; every other coset provably lands below y_lo at
        these heights, and out-of-support candidates contribute zero on
        their own.  A c = 1 candidate height y / ((xc + d)^2 + y^2) never
        exceeds 1/y <= max(1, 1/min y), so when the whole support sits
        above that bound the candidates are all exactly +0.0 and only
        the identity coset is evaluated; the sum is unchanged bit for
        bit.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < _Y_FLOOR - 1e-9):
            raise ValueError("fast path needs y >= sqrt(3)/2; reduce first")
        if y.size and self.profile.y_lo > (max(1.0, 1.0 / float(y.min()))
                                           * (1.0 + 1e-12)):
            return self.profile.value(
                np.broadcast_to(y, np.broadcast(x, y).shape))
        xc = x - np.round(x)
        total = self.profile.value(y)
        for d in (-1.0, 0.0, 1.0):
            total = total + self.profile.value(y / ((xc + d) ** 2 + y * y))
        return total

    def value_at(self, x, y):
        """Evaluate at arbitrary points: reduce, then the fast path."""
        rx, ry = reduce_arrays(x, y)
        out = self.value_reduced(rx, ry)
        if np.ndim(out) == 0:
            return float(out)
        return out

    @property
    def mu(self):
        if self._mu is None:
            self._mu = mu_integral(self.profile)
        return self._mu


@dataclass(frozen=True)
class ConstantObservable:
    """The constant function; its mean is its value."""
    value: float = 1.0

    @property
    def mu(self):
        return self.value

    def value_at(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        if shape == ():
            return float(self.value)
        return np.full(shape, self.value)


@functools.cache
def _legendre_rule():
    """256-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence
    j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2) from the cosine
    guesses cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 / ((1 - x^2) P_n'(x)^2), then symmetrized and normalized to total
    2.  Needs no eigen-solver, so the first call starts no BLAS threads.
    """
    n = 256
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise ArithmeticError("Gauss-Legendre nodes did not converge")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = x[::-1], w[::-1]
    w = (w + w[::-1]) / 2.0
    x = (x - x[::-1]) / 2.0
    return x, w * (2.0 / w.sum())


def mu_integral(profile):
    """Mean of the automorphized profile: (3/pi) * integral f(y) / y^2 dy.

    Indicator profiles integrate in closed form.  The smooth bump is C^inf
    with compact support, so a fixed 256-point Gauss-Legendre rule on its
    support converges to machine precision.
    """
    if profile.kind == "indicator":
        return (3.0 / math.pi) * (1.0 / profile.y_lo - 1.0 / profile.y_hi)
    x, w = _legendre_rule()
    half = 0.5 * (profile.y_hi - profile.y_lo)
    y = profile.y_lo + half * (x + 1.0)
    val = (3.0 / math.pi) * half * float(np.sum(w * profile.value(y)
                                                / (y * y)))
    if not math.isfinite(val):
        raise ArithmeticError("profile quadrature is not finite (%r)" % val)
    return val


class HorocycleMeasure:
    """Wiener density on the closed horocycle at height 1.

    density is a circle measure (dim 1) with total mass one; the point
    of parameter x on the horocycle is x + i.
    """

    def __init__(self, density):
        if density.dim != 1:
            raise ValueError("horocycle density must live on the circle")
        if abs(density.coeff(0) - 1.0) > 1e-12:
            raise ValueError("horocycle density must be a probability "
                             "measure (unit zero coefficient)")
        self.density = density
        self._grid = None

    @classmethod
    def haar(cls):
        from .wiener import TorusMeasure
        return cls(TorusMeasure.haar(1))

    def _weights(self, nodes, xi):
        """Midpoint nodes x = (k + 1/2) / nodes and the weight
        rho(x) e(xi x) at them, or None for the weight when it is
        identically 1 (Haar density, xi = 0).

        Built once per (nodes, xi) and kept for the next call, so a time
        family evaluates the density once; the arrays are read-only.
        Concurrent first calls each build identical arrays.
        """
        key = (nodes, xi)
        cached = self._grid
        if cached is None or cached[0] != key:
            x = (np.arange(nodes) + 0.5) / nodes
            x.flags.writeable = False
            w = None
            if xi or self.density.coeffs != {(0,): 1.0}:
                w = self.density.value(x)
                if xi:
                    w = w * np.exp(2j * math.pi * xi * x)
                w.flags.writeable = False
            cached = self._grid = (key, x, w)
        return cached[1], cached[2]


def correlation(sigma, observables, times, nodes=2 ** 14, xi=0):
    """r-correlation of translated observables against the horocycle
    density, twisted by the character e(xi x) = e^(2 pi i xi x): the
    midpoint quadrature of

        e(xi x) * rho(x) * prod_i obs_i(x + i * e^(-t_i))

    over one period x in [0, 1); xi = 0 gives the plain correlation.
    Deterministic for fixed nodes: the node set and the summation order
    are fixed.  The nodes and the weight e(xi x) rho(x) are cached on
    sigma (HorocycleMeasure._weights), so rows of a time family share
    them; the observable factors multiply into a fresh array in place.
    """
    observables = list(observables)
    times = [float(t) for t in times]
    if len(observables) < 1 or len(observables) != len(times):
        raise ValueError("need r >= 1 observables with matching times")
    for t in times:
        if not 0.0 <= t <= _TIME_CAP:
            raise ValueError(
                "time %g outside [0, %g]; heights below e^-%g underflow "
                "the quadrature grid" % (t, _TIME_CAP, _TIME_CAP))
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError("at least 16 quadrature nodes are required")
    x, w = sigma._weights(nodes, int(xi))
    vals = None
    for obs, t in zip(observables, times):
        v = obs.value_at(x, np.full(nodes, math.exp(-t)))
        if vals is not None:
            vals *= v
        elif w is None:
            vals = np.array(v, dtype=complex)
        else:
            vals = w * v
    return complex(np.mean(vals))


@dataclass(frozen=True)
class IntegralEstimate:
    lhs: float
    rhs: float
    passed: bool


def check_integral_estimate(R, c):
    """Mean of max(1, |u-v|)^(-c) over the square [0, R]^2, in closed
    form, against the envelope 7 R^(-c) / (1-c).

    The double integral reduces to 2 int_0^R (R-w) g(w) dw with
    g(w) = min(1, w^(-c)):

        I(R) = (2R - 1) + 2 [ R (R^(1-c) - 1)/(1-c) - (R^(2-c) - 1)/(2-c) ].
    """
    R = float(R)
    c = float(c)
    if not R >= 1.0:
        raise ValueError("R >= 1 is required")
    if not 0.0 < c < 0.5:
        raise ValueError("c must lie strictly between 0 and 1/2")
    I = (2.0 * R - 1.0) + 2.0 * (R * (R ** (1.0 - c) - 1.0) / (1.0 - c)
                                 - (R ** (2.0 - c) - 1.0) / (2.0 - c))
    lhs = I / (R * R)
    rhs = 7.0 * R ** (-c) / (1.0 - c)
    return IntegralEstimate(lhs=lhs, rhs=rhs,
                            passed=bool(lhs <= rhs * (1.0 + 1e-12)))


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    prefactor: float
    residual: float


def fit_decay(deltas, errors):
    """Least squares in log-log coordinates:

        log error = log prefactor - exponent * log Delta.

    Returns the exponent (positive means decay), the prefactor, and the
    RMS residual of the fit.
    """
    d = np.asarray(list(deltas), dtype=float)
    e = np.asarray(list(errors), dtype=float)
    if d.size < 3 or d.size != e.size:
        raise ValueError("need at least 3 paired data points")
    if np.any(d <= 0.0) or np.any(e <= 0.0):
        raise ValueError("fit requires strictly positive data")
    ld = np.log(d)
    le = np.log(e)
    if ld.max() - ld.min() < 1e-12:
        raise ValueError("degenerate input: Delta values are constant")
    slope, intercept = np.polyfit(ld, le, 1)
    resid = le - (slope * ld + intercept)
    return DecayFit(exponent=float(-slope),
                    prefactor=float(math.exp(intercept)),
                    residual=float(np.sqrt(np.mean(resid * resid))))


def delta_statistics(times):
    """Additive and multiplicative decay parameter of a time tuple:
    min over the times themselves and all pairwise gaps (the latter only
    for r >= 2).
    """
    t = [float(v) for v in times]
    if len(t) < 1:
        raise ValueError("need at least one time")
    cands = [min(t)]
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            cands.append(abs(t[i] - t[j]))
    delta_add = min(cands)
    return delta_add, math.exp(delta_add)


# central difference stencils of accuracy order 4: offset -> coefficient
_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
    4: ((-3, -2, -1, 0, 1, 2, 3),
        (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6)),
}


def s_norm_surrogate(obs, d, n_x=2048):
    """Heuristic degree-d norm of an observable: the maximum over sample
    heights and derivative orders k <= d of sup_x |(y d/dx)^k obs|,
    estimated by periodic central differences on a dense x grid.  The
    heights are 16 geometric steps from sqrt(3)/2 to y_hi + 1 for an
    Eisenstein observable and y = 1 for a constant.

    This stands in for the abstract degree-d norms the bounds consume;
    those are never computed exactly for concrete observables.
    Derivative orders up to 4 are supported.
    """
    d = int(d)
    if not 0 <= d <= 4:
        raise ValueError("surrogate implements derivative orders 0..4")
    n_x = int(n_x)
    if n_x < 64:
        raise ValueError("need a dense grid (n_x >= 64)")
    if hasattr(obs, "profile"):
        heights = np.geomspace(_Y_FLOOR, obs.profile.y_hi + 1.0, 16)
    else:
        heights = [1.0]
    x = np.arange(n_x) / n_x
    h = 1.0 / n_x
    best = 0.0
    for y in heights:
        vals = np.real(np.asarray(obs.value_at(x, np.full(n_x, float(y)))))
        best = max(best, float(np.max(np.abs(vals))))
        for k in range(1, d + 1):
            offs, coefs = _STENCILS[k]
            der = np.zeros_like(vals)
            for o, cf in zip(offs, coefs):
                der += cf * np.roll(vals, -o)
            der /= h ** k
            best = max(best, float(y) ** k * float(np.max(np.abs(der))))
    return best
