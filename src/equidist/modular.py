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

A row is linear in the density: row(rho, xi) = sum_k rho_k C(k + xi),
where the twisted Haar row C(n) integrates e(n x) times the product of
the observables.  Each is even in x (|c(-x) + d| = |cx - d|, and (c, d)
is coprime exactly when (c, -d) is), so C(n) = C(-n) is a cosine
integral, by a 64-point Gauss-Legendre rule on each piece between the
merged arc endpoints of its factors: at height e^(-t) a coset (c, d)
reaches the support of a profile only on an arc around -d/c inside its
Ford circle, where the observable is that coset's single smooth term.
A factor's Farey set, about 1/(y y_lo) cosets, must fit in the row's
node count, or the row is refused.  The tests' independent oracles are
adaptive quadrature and the Eisenstein constant term.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# the fit needs no numpy and lives apart, so a fit run loads none; the
# root's export table and bench/spans.py reach both names through here
from ._fit import DecayFit, fit_decay
from .geometry import RootAction

_Y_FLOOR = math.sqrt(3.0) / 2.0
_TIME_CAP = 30.0
# a correlate time t as a translation: the one root reads t, so
# rho = e^t is how far the horocycle at height e^-t is expanded, and
# geometry.tuple_stats over the entries [[t_1], ..., [t_r]] gives a
# row's decay parameter Delta = min(t_i, pairwise gaps)
_TIME_ACTION = RootAction(1, [[1.0]])


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
        """f at u: a float for a Python float, else an array of u's
        shape.  A float skips the array plumbing and gives the array
        path's bits (the exponential is numpy's in both)."""
        if isinstance(u, float):
            if self.kind == "indicator":
                return 1.0 if self.y_lo <= u <= self.y_hi else 0.0
            v = (u - self.y_lo) / (self.y_hi - self.y_lo)
            if not 0.0 < v < 1.0:
                return 0.0
            return float(np.exp(4.0 - 1.0 / (v * (1.0 - v))))
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
            # past y_hi ~ 1e308 the reciprocal overflows where exp gives 0
            with np.errstate(over="ignore"):
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
        self.profile = profile

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

        Evaluates the identity coset plus the c = 1, d = 0 coset; every
        other coset provably lands below y_lo at these heights.  For the
        c = 1 cosets d = +-1 with |xc| <= 1/2, (xc +- 1)^2 + y^2 - y >=
        (y - 1/2)^2 > 0, so their height y / ((xc +- 1)^2 + y^2) is
        below 1 <= y_lo.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < _Y_FLOOR - 1e-9):
            raise ValueError("fast path needs y >= sqrt(3)/2; reduce first")
        xc = x - np.round(x)
        return (self.profile.value(y)
                + self.profile.value(y / (xc ** 2 + y * y)))

    def value_at(self, x, y):
        """Evaluate at arbitrary points: reduce, then the fast path."""
        out = self.value_reduced(*reduce_arrays(x, y))
        return float(out) if np.ndim(out) == 0 else out

    @functools.cached_property
    def mu(self):
        return mu_integral(self.profile)


@dataclass(frozen=True)
class ConstantObservable:
    """The constant function; its mean is its value."""
    value: float = 1.0

    @property
    def mu(self):
        return self.value

    def value_at(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.full(shape, self.value) if shape else float(self.value)


@functools.cache
def _legendre_rule(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence
    j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2) from the cosine
    guesses cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 / ((1 - x^2) P_n'(x)^2), then symmetrized and normalized to total
    2.  Needs no eigen-solver, so the first call starts no BLAS threads.
    """
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
    x, w = _legendre_rule(256)
    half = 0.5 * (profile.y_hi - profile.y_lo)
    y = profile.y_lo + half * (x + 1.0)
    # past y ~ 1.3e154 the square overflows and the node adds 0
    with np.errstate(over="ignore"):
        val = (3.0 / math.pi) * half * float(np.sum(w * profile.value(y)
                                                    / (y * y)))
    if not math.isfinite(val):
        raise ArithmeticError("profile quadrature is not finite (%r)" % val)
    return val


_GL_ORDER = 64
_GL_PERIODS = 8.0


def _arcs(profile, y):
    """The support at height y, where f(y) = 0, on [0, 1]: sorted
    disjoint intervals (lo, hi), each with the coset (c, d) whose term
    is the only nonzero one there.

    The coset (c, d) lies above y_lo only on the arc
    |x + d/c| <= sqrt(y/y_lo - c^2 y^2)/c = outer, inside its Ford
    circle, and above y_hi inside the inner half-width (y_hi for y_lo),
    which leaves [centre - outer, centre - inner] and
    [centre + inner, centre + outer].  An arc is at most 1/c wide on
    either side of -d/c, so the coprime (c, d) with c <= 1/sqrt(y y_lo)
    and d in [-c - 1, 1] reach every arc that meets [0, 1].
    """
    cmax = int(math.floor(math.sqrt(1.0 / (y * profile.y_lo)) + 1e-12))
    cs = np.arange(1, cmax + 1)
    cy = cs * y
    cy2 = cy * cy
    S = y / profile.y_lo - cy2
    ds = np.arange(-cmax - 1, 2)
    pair = ((S >= 0.0)[:, None] & (ds >= -cs[:, None] - 1)
            & (np.gcd(cs[:, None], ds) == 1))
    row, col = np.nonzero(pair)
    c, d = cs[row], ds[col]
    centre = -d / c
    outer = np.sqrt(S[row]) / c
    inner = np.sqrt(np.maximum(y / profile.y_hi - cy2[row], 0.0)) / c
    lo = np.clip(np.concatenate([centre - outer, centre + inner]), 0.0, 1.0)
    hi = np.clip(np.concatenate([centre - inner, centre + outer]), 0.0, 1.0)
    keep = np.flatnonzero(lo < hi)
    keep = keep[np.argsort(lo[keep], kind="stable")]
    return lo[keep], hi[keep], c[keep % c.size], d[keep % c.size]


def _pieces(factors):
    """The sorted intervals of [0, 1] where the supports of all the
    (profile, y) factors overlap, as (lo, hi, terms) with one (c, d)
    array pair per factor."""
    lo, hi, terms = np.zeros(1), np.ones(1), []
    for f, y in factors:
        a_lo, a_hi, c, d = _arcs(f, y)
        # every (piece, arc interval) pair that overlaps, in x order
        first = np.searchsorted(a_hi, lo, side="right")
        count = np.maximum(np.searchsorted(a_lo, hi) - first, 0)
        i = np.repeat(np.arange(lo.size), count)
        j = np.arange(i.size) - np.repeat(np.cumsum(count) - count - first,
                                          count)
        lo, hi = np.maximum(lo[i], a_lo[j]), np.minimum(hi[i], a_hi[j])
        keep = lo < hi
        i, j, lo, hi = i[keep], j[keep], lo[keep], hi[keep]
        terms = [(tc[i], td[i]) for tc, td in terms] + [(c[j], d[j])]
    return lo, hi, terms


def _refusal(times, need, nodes, why):
    """The ValueError naming the row and the nodes that resolve it."""
    return ValueError("row t=(%s) needs nodes >= %d %s; it has nodes=%d"
                      % (",".join("%g" % t for t in times), need, why, nodes))


def _split(lo, hi, terms, band, nodes, times):
    """Each piece cut into the fewest equal sub-pieces that span at most
    8 periods of the weight's top frequency band; a piece that needs no
    cut keeps its endpoints.  Each cut costs 64 points, so more cuts than
    nodes are refused before any sub-piece is built."""
    k = np.maximum(np.ceil(band * (hi - lo) / _GL_PERIODS), 1.0)
    cuts = float(np.sum(k)) - lo.size
    if cuts > nodes:
        raise _refusal(times, cuts, nodes,
                       "to cut its pieces to 8 periods of its weight")
    k = k.astype(int)
    i = np.repeat(np.arange(lo.size), k)
    j = np.arange(i.size) - np.repeat(np.cumsum(k) - k, k)
    step = (hi - lo)[i] / k[i]
    return (lo[i] + j * step,
            np.where(j + 1 == k[i], hi[i], lo[i] + (j + 1) * step),
            [(c[i], d[i]) for c, d in terms])


def _arc_term(profile, y, c, d, x):
    """The term f(y / |c z + d|^2) of the coset (c, d) at z = x + iy,
    with the operations of `EisensteinObservable.value`, so it equals
    that term bit for bit."""
    cy = c * y
    u = c * x + d
    return profile.value(y / (u * u + cy * cy))


def _gauss_row(sigma, factors, nodes, xi, times):
    """The row sum_n w_n C_n in increasing n = |k + xi|, where w_n adds
    the density's rho_k at that n and C_n integrates cos(2 pi n x) times
    the real product of the (profile, y) factors by Gauss-Legendre: each
    factor is even in x, so C(n) = C(-n) = C_n.  Points are evaluated
    nodes // 64 pieces (at least one) at a time, and each sum is added
    over the pieces in one pass, so the row does not depend on nodes."""
    weights = {}
    for (k,), amp in sigma.coeffs.items():
        n = abs(k + xi)
        weights[n] = weights.get(n, 0) + amp
    lo, hi, terms = _split(*_pieces(factors), max(weights), nodes, times)
    gx, gw = _legendre_rule(_GL_ORDER)
    half = (hi - lo) / 2.0
    step = max(nodes // _GL_ORDER, 1)
    # per-piece cosine sums, filled one batch at a time
    sums = {n: np.zeros(lo.size) for n in sorted(weights)}
    for s in range(0, lo.size, step):
        part = slice(s, s + step)
        x = (lo[part] + half[part])[:, None] + half[part, None] * gx
        prod = np.ones_like(x)
        for (f, y), (c, d) in zip(factors, terms):
            prod = prod * _arc_term(f, y, c[part, None], d[part, None], x)
        prod = prod * gw
        for n, cos in sums.items():
            cos[part] = np.sum(prod * np.cos((2.0 * math.pi * n) * x)
                               if n else prod, axis=1)
    return sum(weights[n] * float(np.sum(half * cos))
               for n, cos in sums.items())


def correlation(sigma, observables, times, nodes=2 ** 14, xi=0):
    """r-correlation of translated observables against the density rho
    of sigma, a circle `TorusMeasure`, on the horocycle x + i, twisted
    by the character e(xi x) = e^(2 pi i xi x): the integral of

        e(xi x) * rho(x) * prod_i obs_i(x + i * e^(-t_i))

    over one period x in [0, 1); xi = 0 gives the plain correlation and
    a non-integer xi or a density off the circle is refused.  nodes
    only batches the points: the row alone fixes its bytes.

    Every row is a `_gauss_row`.  Constant factors multiply in, and so
    does a nonzero cusp term f(y): it needs y >= y_lo >= 1, so y = y_lo
    = 1, where every arc has zero width and the factor is f(1) almost
    everywhere.  A factor with y y_lo > 1 reaches no coset, so the row
    is 0.  A Farey set 1/(y y_lo) or a count of weight cuts past nodes is
    refused with ValueError naming the nodes the row needs.
    """
    if sigma.dim != 1:
        raise ValueError("horocycle density must live on the circle")
    observables = list(observables)
    nodes = int(nodes)
    if nodes < 16:
        raise ValueError("at least 16 quadrature nodes are required")
    if not (isinstance(xi, numbers.Integral) or float(xi).is_integer()):
        raise ValueError("xi must be an integer frequency, got %r" % (xi,))
    xi = int(xi)
    ((times, consts, factors),) = _check_rows(observables, [times], nodes)
    total = (0j if factors is None
             else _gauss_row(sigma, factors, nodes, xi, times))
    for value in consts:
        total *= value
    # a negative constant can leave a part -0.0; adding 0j makes it 0.0
    # and keeps every other part's bits
    return total + 0j


def _check_rows(observables, time_rows, nodes):
    """Each row of times as (times, constant factors, (profile, y)
    factors), the latter None when a factor reaches no coset and the row
    is 0.  Checks every row before any is computed: a row of the wrong
    length or a time outside [0, _TIME_CAP] first, in row order,
    then the row with the largest Farey set 1/(e^-t y_lo), the first
    such, is refused when it passes nodes, so the nodes it names admit
    every row."""
    rows, need, worst = [], 0, None
    for times in time_rows:
        times = [float(t) for t in times]
        if len(observables) < 1:
            raise ValueError("need r >= 1 observables with matching times")
        if len(times) != len(observables):
            raise ValueError("time row %r does not match the %d declared "
                             "profiles" % (times, len(observables)))
        for t in times:
            if not 0.0 <= t <= _TIME_CAP:
                raise ValueError(
                    "time %g outside [0, %g]; heights below e^-%g underflow "
                    "the quadrature" % (t, _TIME_CAP, _TIME_CAP))
        consts, factors, empty = [], [], False
        for obs, t in zip(observables, times):
            y = math.exp(-t)
            if isinstance(obs, ConstantObservable):
                consts.append(obs.value)
            elif (cusp := obs.profile.value(y)) != 0.0:
                consts.append(cusp)
            elif y * obs.profile.y_lo > 1.0:
                empty = True
            else:
                factors.append((obs.profile, y))
        if empty:
            factors = None
        else:
            for f, y in factors:
                if (count := math.ceil(1.0 / (y * f.y_lo))) > need:
                    need, worst = count, times
        rows.append((times, consts, factors))
    if need > nodes:
        raise _refusal(worst, need, nodes,
                       "to enumerate its Farey set 1/(e^-t y_lo)")
    return rows


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
