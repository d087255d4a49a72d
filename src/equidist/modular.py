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

On the translated horocycle x + i e^(-t) each observable is evaluated
by a walk over Farey arcs: a coset (c, d) reaches the support only on
an arc around -d/c inside its Ford circle, so only the nodes on those
arcs are touched and each value is computed exactly as the scalar
coset enumeration `EisensteinObservable.value` computes it.  Rows where
the Farey set would outgrow the grid (1/(e^-t y_lo) > nodes, the
under-resolved rows) or where the cusp term f(e^-t) is nonzero reduce
every node to the fundamental domain instead (`reduce_arrays`, then
`EisensteinObservable.value_reduced`).
"""

import functools
import math
import numbers
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
        scalar only.  Squares are products, which round correctly (libm
        pow(u, 2) is off by an ulp on some inputs)."""
        x, y = float(x), float(y)
        if not (math.isfinite(x) and y > 0.0):
            raise ValueError("need finite x and y > 0")
        total = self.profile.value(y)
        cmax = int(math.floor(math.sqrt(1.0 / (y * self.profile.y_lo))
                              + 1e-12))
        for c in range(1, cmax + 1):
            cy = c * y
            S = y / self.profile.y_lo - cy * cy
            if S < 0.0:
                continue
            half = math.sqrt(S)
            dlo = math.ceil(-c * x - half - 1e-12)
            dhi = math.floor(-c * x + half + 1e-12)
            for d in range(dlo, dhi + 1):
                if math.gcd(c, d) != 1:
                    continue
                u = c * x + d
                total += self.profile.value(y / (u * u + cy * cy))
        return float(total)

    def value_reduced(self, x, y):
        """Vectorized evaluation valid at reduced points (y >= sqrt(3)/2).

        Evaluates the identity coset plus the three c = 1 candidates
        d in {-1, 0, 1}; every other coset provably lands below y_lo at
        these heights, and out-of-support candidates contribute zero on
        their own.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < _Y_FLOOR - 1e-9):
            raise ValueError("fast path needs y >= sqrt(3)/2; reduce first")
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

    def values_on_grid(self, nodes, y, idx=None):
        """The nonzero values at the midpoint nodes x_k = (k + 1/2)/nodes
        at height y, as (indices, values); only the sorted node indices
        idx are looked at when given.

        Arc side: at height y the coset (c, d), c >= 1, is nonzero only
        on the arc |x + d/c| <= sqrt(y/y_lo - c^2 y^2)/c, and for
        y_lo >= 1 these arcs lie in disjoint Ford circles.  The coprime
        (c, d) with c <= 1/sqrt(y y_lo) and -d/c within reach of [0, 1]
        are enumerated (np.gcd on the (c, d) grid).  On the inner arc,
        whose half-width comes from y_hi in place of y_lo, the coset
        lies above y_hi and f vanishes too, so each arc gives the node
        ranges between the two half-widths, padded by one node on
        either side.  The term f(y / ((c x + d)^2 + c^2 y^2)) is
        evaluated once on the gathered nodes, with the same operations
        as `value`, so the values equal it bit for bit.  A node that two terms reach (a tangency of Ford
        circles at height y_lo = 1) sums them in `value`'s order.

        Reduction side: when f(y) != 0 (every node is in the support) or
        1/(y y_lo) > nodes (the Farey set would outgrow the grid, the
        under-resolved rows), the nodes go through `value_at`.
        """
        f = self.profile
        y = float(y)
        if f.value(y) != 0.0 or 1.0 / (y * f.y_lo) > nodes:
            ks = np.arange(nodes) if idx is None else idx
            v = self.value_at((ks + 0.5) / nodes, np.full(ks.size, y))
            keep = v != 0.0
            return ks[keep], v[keep]
        # the coprime (c, d) in c-major, d-ascending order; an arc is at
        # most sqrt(y / y_lo) / c <= 1 / c wide on either side of -d/c,
        # so d in [-c - 1, 1] reaches every arc that meets [0, 1]
        cmax = int(math.floor(math.sqrt(1.0 / (y * f.y_lo)) + 1e-12))
        cs = np.arange(1, cmax + 1)
        cy = cs * y
        cy2 = cy * cy
        S = y / f.y_lo - cy2
        ds = np.arange(-cmax - 1, 2)
        pair = ((S >= 0.0)[:, None] & (ds >= -cs[:, None] - 1)
                & (np.gcd(cs[:, None], ds) == 1))
        row, col = np.nonzero(pair)
        c, d = cs[row], ds[col]
        centre = -d / c
        # the term is nonzero only between the outer half-width (height
        # y_lo) and the inner one (height y_hi): a left and a right node
        # range per arc, merged when no node lies strictly between them
        outer = np.sqrt(S[row]) / c
        inner = np.sqrt(np.maximum(y / f.y_hi - cy2[row], 0.0)) / c
        lo = np.maximum(np.ceil((centre - outer) * nodes - 0.5) - 1, 0)
        hi = np.minimum(np.floor((centre + outer) * nodes - 0.5) + 1,
                        nodes - 1)
        a = np.floor((centre - inner) * nodes - 0.5) + 1
        b = np.ceil((centre + inner) * nodes - 0.5) - 1
        merged = b <= a + 1
        a = np.where(merged, hi, np.minimum(a, hi))
        b = np.where(merged, hi + 1, np.maximum(b, lo))
        # walk the arcs from left to right, so the gathered nodes ascend
        order = np.argsort(centre)
        first = np.stack([lo, b], axis=1)[order].ravel().astype(np.int64)
        last = np.stack([a, hi], axis=1)[order].ravel().astype(np.int64)
        if idx is None:
            start, count = first, np.maximum(last - first + 1, 0)
        else:
            start = np.searchsorted(idx, first)
            count = np.maximum(np.searchsorted(idx, last, side="right")
                               - start, 0)
        arc = np.repeat(np.repeat(order, 2), count)
        pos = (np.arange(arc.size)
               - np.repeat(np.cumsum(count) - count - start, count))
        ks = pos if idx is None else idx[pos]
        u = c[arc] * ((ks + 0.5) / nodes) + d[arc]
        v = f.value(y / (u * u + cy2[row][arc]))
        keep = v != 0.0
        ks, v = ks[keep], v[keep]
        if np.all(ks[1:] > ks[:-1]):
            return ks, v
        # shared nodes: sort by node, then by the enumeration order
        by = np.lexsort((arc[keep], ks))
        ks, v = ks[by], v[by]
        out, slot = np.unique(ks, return_inverse=True)
        total = np.zeros(out.size)
        np.add.at(total, slot, v)
        return out, total

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
        self._cached_weights = None

    @classmethod
    def haar(cls):
        from .wiener import TorusMeasure
        return cls(TorusMeasure.haar(1))

    def _weights(self, nodes, xi):
        """The weight rho(x) e(xi x) at the midpoint nodes
        x = (k + 1/2) / nodes, or None when it is identically 1 (Haar
        density, xi = 0).

        Built once per (nodes, xi) and kept for the next call, so a time
        family evaluates the density once; the array is read-only.
        Concurrent first calls each build identical arrays.
        """
        key = (nodes, xi)
        cached = self._cached_weights
        if cached is None or cached[0] != key:
            w = None
            if xi or self.density.coeffs != {(0,): 1.0}:
                x = (np.arange(nodes) + 0.5) / nodes
                w = self.density.value(x)
                if xi:
                    w = w * np.exp(2j * math.pi * xi * x)
                w.flags.writeable = False
            cached = self._cached_weights = (key, w)
        return cached[1]


def correlation(sigma, observables, times, nodes=2 ** 14, xi=0):
    """r-correlation of translated observables against the horocycle
    density, twisted by the character e(xi x) = e^(2 pi i xi x): the
    midpoint quadrature of

        e(xi x) * rho(x) * prod_i obs_i(x + i * e^(-t_i))

    over one period x in [0, 1); xi = 0 gives the plain correlation and
    a non-integer xi is refused.  Deterministic for fixed nodes: the node
    set and the summation order are fixed.

    The product lives on a sparse support.  Each Eisenstein factor comes
    from `EisensteinObservable.values_on_grid` (a walk over Farey arcs,
    or fundamental-domain reduction on under-resolved rows and where
    f(e^-t) != 0), evaluated only on the nodes where the product so far
    is nonzero; constant factors multiply in place.  The weight
    e(xi x) rho(x), cached on sigma per (nodes, xi), is gathered on the
    support and multiplies the first factor, as (w v_1) v_2 ... v_r.  The
    mean is taken over the product scattered back into the full grid, so
    the summation order is that of the dense array.
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
    if not (isinstance(xi, numbers.Integral) or float(xi).is_integer()):
        raise ValueError("xi must be an integer frequency, got %r" % (xi,))
    w = sigma._weights(nodes, int(xi))
    idx = vals = None    # support (None: every node) and product on it
    for obs, t in zip(observables, times):
        if isinstance(obs, ConstantObservable):
            if vals is None:
                vals = (np.full(nodes, obs.value, dtype=complex)
                        if w is None else w * obs.value)
            else:
                vals *= obs.value
            continue
        ks, v = obs.values_on_grid(nodes, math.exp(-t), idx)
        if vals is None:
            vals = v.astype(complex) if w is None else w[ks] * v
        else:
            vals = vals[ks if idx is None else np.searchsorted(idx, ks)]
            vals *= v
        idx = ks
    if idx is not None:
        full = np.zeros(nodes, dtype=complex)
        full[idx] = vals
        vals = full
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
