"""The verify battery's randomized suites.

A suite takes a generator and a trial count and returns (checks,
max_defect): checks counts properties times trials, max_defect is the
worst deviation or, for a pass/fail suite, the number of failures.

The suites are the only implementation of their randomized checks: the
verify subcommand runs _VERIFY_SUITES with the manifest's seed, and the
test suite calls them with its own seeds and trial counts.  Only verify
imports this module, so the other subcommands do not load the layers it
checks.
"""

import math

import numpy as np

from .constants import (AssumptionParams, ConstantGrowth, PowerLawGrowth,
                        TabulatedGrowth, _exp, build_ledger)
from .geometry import (RootAction, TupleStack, log_star_norm,
                       select_direction, tuple_stats)
from .modular import (BumpProfile, EisensteinObservable,
                      check_integral_estimate, reduce_arrays)
from .selection import choose_window, pigeonhole
from .wiener import (TorusMeasure, TorusObservable, character_expansion_check,
                     equivariance_check)


def _brute_force_pq(betas, theta):
    """First (p, q) in lexicographic order satisfying the gap sandwich,
    decided exactly: beta_{p+1} < beta_1 theta^((q+1)/r) is equivalent
    to beta_{p+1}^r < beta_1^r theta^(q+1), and with beta_k = n_k / d_k
    and theta = a / b as integer ratios (positive denominators) to
    n_{p+1}^r d_1^r b^(q+1) < n_1^r d_{p+1}^r a^(q+1)."""
    r = len(betas)
    ratios = [float(v).as_integer_ratio() for v in betas]
    n_1, d_1 = (v ** r for v in ratios[0])
    a, b = float(theta).as_integer_ratio()
    a_pow, b_pow = [a ** k for k in range(r)], [b ** k for k in range(r)]
    # beta_k^r / beta_1^r as (numerator, denominator), for k = p - 1, p
    upper = n_1 * d_1, n_1 * d_1
    for p in range(1, r):
        n, d = ratios[p]
        lower = n ** r * d_1, n_1 * d ** r
        for q in range(0, r - 1):
            if (lower[0] * b_pow[q + 1] < lower[1] * a_pow[q + 1]
                    and upper[1] * a_pow[q] <= upper[0] * b_pow[q]):
                return p, q
        upper = lower
    return None


def _gap_instance(rng):
    """Random pigeonhole input (betas, theta), r in [2, 8]: powers of two
    with theta near 1, or shifted by up to 2^+-200 with theta anywhere;
    reals with theta at or near beta_r / beta_1, or anywhere with, one
    time in ten, a zero last beta."""
    r = int(rng.integers(2, 9))
    family = int(rng.integers(0, 4))
    if family == 0:
        exps = np.sort(rng.integers(-40, 11, size=r))[::-1]
        exps[0] = max(exps[0], exps[-1] + r)
        return ([2.0 ** int(e) for e in exps],
                2.0 ** int(max(exps[-1] - exps[0], -rng.integers(1, 8))))
    if family == 1:
        drops = rng.integers(0, 40, size=r - 1)
        if drops.sum() == 0:
            drops[0] = 1
        shift = int(rng.integers(-200, 201))
        return ([2.0 ** (shift - int(e)) for e in np.cumsum([0, *drops])],
                2.0 ** -int(rng.integers(1, int(drops.sum()) + 1)))
    if family == 2:
        logs = np.sort(rng.uniform(-20.0, 5.0, size=r))[::-1]
        logs[0] = max(logs[0], logs[-1] + 0.5)
        return (list(np.exp(logs)),
                math.exp(max(logs[-1] - logs[0], -rng.uniform(0.3, 5.0))))
    gaps = rng.uniform(0.0, 8.0, size=r - 1)
    gaps[0] = max(gaps[0], 0.3)
    logs = rng.uniform(-30.0, 30.0) - np.cumsum([0.0, *gaps])
    betas = [math.exp(v) for v in logs]
    theta = math.exp((logs[-1] - logs[0]) * rng.uniform(1e-3, 1.0))
    if rng.random() < 0.1:
        betas[-1] = 0.0
    return betas, theta


def _suite_pigeonhole(rng, trials):
    """pigeonhole returns the brute force's (p, q)."""
    return trials, float(sum(
        _brute_force_pq(*inst) != pigeonhole(*inst)
        for inst in (_gap_instance(rng) for _ in range(trials))))


def _row(norms):
    """Decreasing image norms as choose_window takes them: (logs,
    norms)."""
    return (tuple(math.log(v) for v in norms),
            tuple(float(v) for v in norms))


def _window_fails(log_norms, norms, theta):
    """Whether the window breaks a check, differs from the brute force's
    (p, q), misses L = norm_1^-1 theta^(-(q+1/2)/r) or fails to separate
    the norms at theta^(-+1/(2r)), the last two to 1e-9."""
    win = choose_window(log_norms, norms, theta)
    r = len(norms)
    length = norms[0] ** -1.0 * theta ** (-(win.q + 0.5) / r)
    return (not all(ok for _, _, ok in win.checks.values())
            or _brute_force_pq(norms, theta) != (win.p, win.q)
            or abs(win.L - length) > 1e-9 * length
            or any(win.L * v < theta ** (-1 / (2 * r)) * (1 - 1e-9)
                   for v in norms[:win.p])
            or any(win.L * v > theta ** (1 / (2 * r)) * (1 + 1e-9)
                   for v in norms[win.p:]))


def _suite_window(rng, trials):
    """Windows for a random u_mn(1, 2) tuple of 2 to 6 entries at theta =
    1/M_r, and for a pigeonhole instance's betas scaled to end at 1.  The
    tuples of all trials are stacked once, for one tuple_stats and one
    select_direction call, whose columns give each tuple's norms."""
    action = RootAction.u_mn(1, 2)
    tuples, gap_cases = [], []
    for _ in range(trials):
        a = rng.uniform(0.0, 6.0, size=int(rng.integers(2, 7)))
        b = rng.uniform(0.0, a)
        tuples.append(np.stack([a, b, a - b], axis=1).tolist())
        betas, theta = _gap_instance(rng)
        gap_cases.append(
            [(*_row([v / betas[-1] for v in betas]), theta)]
            if betas[-1] > 0.0 else [])
    stack = TupleStack(action, tuples)
    stats, sel = tuple_stats(stack), select_direction(stack)
    logs, offsets = sel.log_norms.tolist(), sel.offsets.tolist()
    failures = 0
    for k, (log_M, gap) in enumerate(zip(stats.log_M_r.tolist(), gap_cases)):
        row = logs[offsets[k]:offsets[k + 1]]
        cases = [(row, [_exp(v) for v in row], math.exp(-log_M))] + gap
        failures += any(_window_fails(*case) for case in cases)
    return trials, float(failures)


def _sparse_observable(rng, dim, degree=6):
    """One to six random terms at characters in [-degree, degree]^dim."""
    n = int(rng.integers(1, 7))
    chis = rng.integers(-degree, degree + 1, size=(n, dim)).tolist()
    return TorusObservable(dim, [(chi, complex(*amp)) for chi, amp in
                                 zip(chis, rng.normal(size=(n, 2)).tolist())])


def _suite_wiener(rng, trials):
    """Twist equivariance under Haar and the character expansion against
    a direct quadrature, per trial on a dense degree 1-8 polynomial
    with a one-harmonic density and, from a child stream (so a seed's
    dense cases stay put), on sparse ones: on a 1- or 2-torus with xi in
    [-6, 6]^dim, w in [-2, 2]^dim; under up to six harmonics in [-6, 6]."""
    worst = 0.0
    haar = TorusMeasure.haar(1)
    sparse = rng.spawn(1)[0]
    for _ in range(trials):
        deg = int(rng.integers(1, 9))
        eta = TorusObservable(1, {(k,): complex(rng.normal(), rng.normal())
                                  for k in range(-deg, deg + 1)})
        xi = int(rng.integers(-5, 6))
        w = float(rng.uniform(-1.0, 1.0))
        amp = 0.5 * complex(rng.normal(), rng.normal())
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): amp,
                                 (-1,): amp.conjugate()})
        dim = int(sparse.integers(1, 3))
        density = {chi: 0.3 * v for chi, v in
                   _sparse_observable(sparse, 1).coeffs.items()}
        density[(0,)] = 1.0
        worst = max(worst, equivariance_check(haar, xi, w, eta)[2],
                    character_expansion_check(sigma, eta)[2],
                    equivariance_check(TorusMeasure.haar(dim),
                                       sparse.integers(-6, 7, size=dim),
                                       sparse.uniform(-2.0, 2.0, size=dim),
                                       _sparse_observable(sparse, dim))[2],
                    character_expansion_check(
                        TorusMeasure(1, density),
                        _sparse_observable(sparse, 1))[2])
    return 2 * trials, worst


def _suite_geometry(rng, trials):
    """Star norms are submultiplicative and even, as relative defects,
    for u_mn(2, 1) and u_mn(1, 2) on [-5, 5]^3.  Each trial's (s, t) is
    drawn per action in turn; each action's norms then come from one
    stacked log_star_norm call per operand, which gives a point the
    value it has alone, and math.exp per value, as star_norm takes it."""
    actions = (RootAction.u_mn(2, 1), RootAction.u_mn(1, 2))
    draws = np.array([rng.uniform(-5.0, 5.0, size=(2, 3))
                      for _ in range(trials) for _ in actions]
                     ).reshape(trials, len(actions), 2, 3)
    norms = []
    for k, action in enumerate(actions):
        s, t = draws[:, k, 0], draws[:, k, 1]
        norms.append(zip(*(
            [math.exp(v) for v in log_star_norm(action, pts).tolist()]
            for pts in (s, t, s + t, -s))))
    worst = 0.0
    for trial in zip(*norms):
        for norm_s, norm_t, norm_sum, norm_neg in trial:
            rhs = norm_s * norm_t
            worst = max(worst, (norm_sum - rhs) / rhs,
                        abs(norm_s - norm_neg) / norm_s)
    return 2 * trials, worst


def _suite_modular(rng, trials):
    """At random z, |x| <= 10, 0.02 <= y <= 50: reduction lands in the
    fundamental domain to 1e-12 (else the defect is infinite), is
    idempotent and invariant under z + 1 and -1/z; the observable by
    coset enumeration agrees at z, z + 1, -1/z and the reduced point,
    and with the fast path.  Deeper points (|x| ~ 50, y ~ 1e-4) amplify
    the rounding of -1/z past 1e-10, a limit of float arithmetic."""
    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    xs = rng.uniform(-10.0, 10.0, size=trials)
    ys = np.exp(rng.uniform(math.log(0.02), math.log(50.0), size=trials))
    n2 = xs * xs + ys * ys
    rx, ry = reduce_arrays(xs, ys)
    if np.any(np.abs(rx) > 0.5 + 1e-12) or np.any(rx * rx + ry * ry
                                                  < 1.0 - 1e-12):
        return trials, math.inf
    worst = 0.0
    for px, py in (reduce_arrays(rx, ry), reduce_arrays(xs + 1.0, ys),
                   reduce_arrays(-xs / n2, ys / n2)):
        worst = max(worst, np.max(np.abs(px - rx)), np.max(np.abs(py - ry)))
    for x, y, n, u, v, fast in zip(xs, ys, n2, rx, ry,
                                   obs.value_at(xs, ys)):
        base = obs.value(x, y)
        worst = max(worst, *(abs(val - base) for val in (
            obs.value(x + 1.0, y), obs.value(-x / n, y / n),
            obs.value(u, v), fast)))
    return trials, float(worst)


def _suite_integral(rng, trials):
    """The mean-kernel estimate on a fixed (R, c) grid; ignores its args."""
    grid = [(R, c) for R in (1.0, 10.0, 100.0, 1e3, 1e4)
            for c in (0.05, 0.1, 0.25, 0.4, 0.49)]
    return len(grid), float(sum(not check_integral_estimate(R, c).passed
                                for R, c in grid))


def _random_params(rng):
    a = float(rng.uniform(0.1, 2.0))
    lo = max(0.5, a / 4.0) + 0.01
    kind = int(rng.integers(0, 3))
    if kind == 0:
        growth = PowerLawGrowth(*map(float, rng.uniform(1.0, 3.0, size=3)))
    elif kind == 1:
        growth = TabulatedGrowth(*(
            tuple(map(float, rng.uniform(low, high, size=40)))
            for low, high in ((1.0, 3.0), (lo, lo + 3.0), (1.0, 3.0))))
    else:
        growth = ConstantGrowth(float(rng.uniform(1.0, 4.0)),
                                float(rng.uniform(lo, 4.0)),
                                float(rng.uniform(1.0, 4.0)))
    return AssumptionParams(
        d_o=int(rng.integers(1, 4)), D_o=float(rng.uniform(1.0, 10.0)),
        delta_o=float(rng.uniform(0.05, 1.0)),
        C=float(rng.uniform(1.0, 20.0)), c=float(rng.uniform(0.02, 0.48)),
        A=float(rng.uniform(1.0, 5.0)), a=a, growth=growth)


def _suite_ledger(rng, trials):
    """Random parameters (d_o up to 3, all three growth kinds) give
    ledgers to r = 12 with strictly decreasing delta_r, d_r = (r+1) d_o,
    eps_r in (0, 1) and finite log D_r."""
    failures = 0
    for _ in range(trials):
        params = _random_params(rng)
        rows = build_ledger(params, 12).rows
        failures += sum((
            any(b.delta_r >= a.delta_r for a, b in zip(rows, rows[1:])),
            any(rw.d_r != (rw.r + 1) * params.d_o for rw in rows),
            any(not 0.0 < rw.eps_r < 1.0 for rw in rows[1:]),
            any(not math.isfinite(rw.log_D_r) for rw in rows)))
    return trials, float(failures)


# (name, suite, tolerance on max_defect, cap on the trial count)
_VERIFY_SUITES = (
    ("pigeonhole_vs_bruteforce", _suite_pigeonhole, 1.0, None),
    ("window_inequalities", _suite_window, 1.0, None),
    ("wiener_identities", _suite_wiener, 1e-12, None),
    ("geometry_norm_axioms", _suite_geometry, 1e-12, None),
    ("modular_reduction_invariance", _suite_modular, 1e-10, None),
    ("integral_estimate_grid", _suite_integral, 1.0, None),
    ("ledger_monotonicity", _suite_ledger, 1.0, 40),
)
