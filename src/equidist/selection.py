"""Pigeonhole scale selection and window length choice.

Given the decreasing image norms of a chosen direction under an r-tuple
of translations, the pigeonhole step finds a multiplicative gap of
relative width theta^(1/r) in the sequence, and the window choice turns
that gap into a unit length L whose products L * norm_k separate into a
group bounded below by theta^(-1/(2r)) and a group bounded above by
theta^(1/(2r)).

The gap conditions are decided exactly on the given floats: raised to
the r-th power they become comparisons of integers, so the selected pair
(p, q) carries no rounding uncertainty.

choose_window wraps one row of a core, _window_row, that a caller with
many selections writes straight into columns.  Both take one tuple's
decreasing image norms, as logs and as values: its rows of
geometry.SelectionColumns.log_norms and their exponentials.
"""

import math
from dataclasses import dataclass

__all__ = ["pigeonhole", "choose_window", "WindowChoice"]

_TOL = 1e-12


def pigeonhole(betas, theta):
    """Smallest lexicographic (p, q), 1-based p, 0-based q, with

        beta_{p+1} < beta_1 * theta^((q+1)/r)  and
        beta_1 * theta^(q/r) <= beta_p,

    for a decreasing sequence of nonnegative betas (beta_1 > 0) with
    beta_r <= beta_1 * theta and theta in (0, 1).  Such a pair always
    exists, with p in [1, r-1] and q in [0, r-2].

    Raised to the r-th power the conditions read beta_{p+1}^r <
    beta_1^r theta^(q+1) and beta_1^r theta^q <= beta_p^r.  Every float
    is a dyadic rational, so scaling the betas by their largest
    denominator and clearing theta's makes each one a comparison of
    exact integers.  The preconditions allow a relative slack of _TOL,
    since callers compute theta and the betas from separately rounded
    logs.
    """
    betas = [float(b) for b in betas]
    r = len(betas)
    theta = float(theta)
    if r < 2:
        raise ValueError("need at least two betas")
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly between 0 and 1")
    if not all(math.isfinite(b) for b in betas):
        raise ValueError("betas must be finite")
    if betas[0] <= 0.0 or any(b < 0.0 for b in betas):
        raise ValueError("betas must be nonnegative with beta_1 > 0")
    for k in range(r - 1):
        if betas[k + 1] > betas[k] * (1.0 + _TOL):
            raise ValueError("betas must be sorted in decreasing order")
    if betas[-1] > betas[0] * theta * (1.0 + _TOL):
        raise ValueError("beta_r <= beta_1 * theta is required for the "
                         "gap to exist")

    ratios = [b.as_integer_ratio() for b in betas]
    scale = max(d for _, d in ratios)   # powers of two: every d divides it
    pows = [(n * (scale // d)) ** r for n, d in ratios]
    num, den = theta.as_integer_ratio()
    for p in range(1, r):
        for q in range(r - 1):
            if (pows[p] * den ** (q + 1) < pows[0] * num ** (q + 1)
                    and pows[0] * num ** q <= pows[p - 1] * den ** q):
                return p, q
    raise ArithmeticError("no admissible (p, q); inputs violate the gap "
                          "hypothesis beyond tolerance")


@dataclass(frozen=True)
class WindowChoice:
    """Window length L for one selection's image norms.

    L = norm_1^(-1) * theta^(-(q + 1/2)/r).  checks maps a condition
    name to (lhs, rhs, ok):

      scale_cap        L * norm_1     <= theta^(-1)
      group_lower      L * norm_p     >= theta^(-1/(2r))
      group_upper      L * norm_{p+1} <  theta^(1/(2r))
    """
    p: int
    q: int
    L: float
    log_L: float
    checks: dict


def choose_window(log_norms, norms, theta):
    """Run the pigeonhole step on one selection's decreasing image norms,
    given as logs and as values, and compute L.

    theta must lie in [1/M_r, 1); the default choice theta = 1/M_r makes
    the hypothesis beta_r <= beta_1 * theta an equality.  All-zero logs
    (a degenerate selection, whose image norms all equal 1) admit no
    window.
    """
    if not any(log_norms):
        raise ValueError("degenerate selection: all image norms are equal, "
                         "no separating window exists")
    p, q, log_L, *checks = _window_row(log_norms, norms, theta)
    return WindowChoice(p=p, q=q, L=math.exp(log_L), log_L=log_L,
                        checks=dict(zip(_CHECKS, checks)))


# the window checks, in the order of WindowChoice.checks
_CHECKS = ("scale_cap", "group_lower", "group_upper")


def _window_row(log_norms, norms, theta):
    """The window of decreasing image norms and their logs, the core of
    choose_window, as one row of columns: p, q, log_L and the (lhs, rhs,
    ok) of each check in _CHECKS order."""
    theta = float(theta)
    r = len(norms)
    log_theta = math.log(theta) if theta > 0 else -math.inf
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly between 0 and 1")
    log_M = log_norms[0]
    if log_theta < -log_M - 1e-9 * max(1.0, log_M):
        raise ValueError("theta below 1/M_r: the image norms cannot span "
                         "the required ratio")

    p, q = pigeonhole(norms, theta)
    log_L = -log_norms[0] - (q + 0.5) / r * log_theta
    tol = 1e-9

    lhs_cap = log_L + log_norms[0]
    rhs_cap = -log_theta
    lhs_lo = log_L + log_norms[p - 1]
    rhs_lo = -log_theta / (2 * r)
    lhs_hi = log_L + log_norms[p]
    rhs_hi = log_theta / (2 * r)
    return (p, q, log_L,
            (math.exp(lhs_cap), math.exp(rhs_cap), lhs_cap <= rhs_cap + tol),
            (math.exp(lhs_lo), math.exp(rhs_lo), lhs_lo >= rhs_lo - tol),
            (math.exp(lhs_hi), math.exp(rhs_hi), lhs_hi < rhs_hi + tol))
