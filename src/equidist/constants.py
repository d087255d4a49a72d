"""Recursive constant ledgers for multiple-correlation bounds.

Input: a parameter record collecting the single-translate equidistribution
data (D_o, delta_o, d_o), the mixing constants (C, c), the scale constants
(A, a), and a norm-growth profile (B_d, b_d, M_d).  Output: the table of
constants (d_r, D_r, delta_r, eps_r) such that the r-fold correlation
error is bounded by

    D_r * Delta_r^(-delta_r) * wiener_norm * prod_i s_norms[i].

Two table modes exist.  The recursive mode applies the induction step
verbatim; D_r then grows super-exponentially, so it is carried in log
space.  The explicit mode, available for power-law growth (B_d = L1^d,
b_d = ell*d, M_d = L2^d), uses the sharper update D_r = 2 P_1 sqrt(D_{r-1})
+ r Q_r which is valid only above a per-r threshold in Delta; it stays
linearly bounded (D_r <= H1 * r) and certifies the factorial lower bound
delta_r >= 1/((r!)^2 (r+1)! lambda^r) for an operationally determined
lambda.
"""

import math
import sys
from dataclasses import dataclass, fields

_LOG10 = math.log(10.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp(v):
    # past the float range the value reads inf; its log keeps the value
    return math.exp(v) if v < _LOG_FLOAT_MAX else math.inf


def _logaddexp(x, y):
    if x < y:
        x, y = y, x
    if y == -math.inf:
        return x
    return x + math.log1p(math.exp(y - x))


# Growth profiles share the accessor triple (log_B_d, b_exp, log_M_d);
# the b accessor is not named plain "b" to keep the tabulated fields
# B, b, M available under their natural names.  A profile's JSON is its
# class attribute kind and its fields.

@dataclass(frozen=True)
class PowerLawGrowth:
    """B_d = L1^d, b_d = ell*d, M_d = L2^d."""
    L1: float
    ell: float
    L2: float
    kind = "power-law"

    def __post_init__(self):
        if not (self.L1 >= 1.0 and self.ell >= 1.0 and self.L2 >= 1.0):
            raise ValueError("power-law growth needs L1 >= 1, ell >= 1, "
                             "L2 >= 1")

    def log_B_d(self, d):
        return d * math.log(self.L1)

    def b_exp(self, d):
        return self.ell * d

    def log_M_d(self, d):
        return d * math.log(self.L2)


@dataclass(frozen=True)
class TabulatedGrowth:
    """Explicit per-degree tables; entry index d-1 holds degree d."""
    B: tuple
    b: tuple
    M: tuple
    kind = "tabulated"

    def __post_init__(self):
        B = tuple(float(v) for v in self.B)
        b = tuple(float(v) for v in self.b)
        M = tuple(float(v) for v in self.M)
        if not (len(B) == len(b) == len(M)) or len(B) == 0:
            raise ValueError("tables B, b, M must be nonempty and of equal "
                             "length")
        if any(v < 1.0 for v in B) or any(v < 1.0 for v in M):
            raise ValueError("B_d >= 1 and M_d >= 1 are required")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "M", M)

    def _get(self, table, d):
        if not 1 <= d <= len(table):
            raise ValueError("growth tables cover d <= %d but d = %d was "
                             "requested" % (len(table), d))
        return table[d - 1]

    def log_B_d(self, d):
        return math.log(self._get(self.B, d))

    def b_exp(self, d):
        return self._get(self.b, d)

    def log_M_d(self, d):
        return math.log(self._get(self.M, d))


@dataclass(frozen=True)
class ConstantGrowth:
    """Degree-independent B, b, M (norm families with fixed constants)."""
    B: float
    b: float
    M: float
    kind = "constant"

    def __post_init__(self):
        if self.B < 1.0 or self.M < 1.0:
            raise ValueError("B >= 1 and M >= 1 are required")

    def log_B_d(self, d):
        return math.log(self.B)

    def b_exp(self, d):
        return float(self.b)

    def log_M_d(self, d):
        return math.log(self.M)


# {kind: growth class}
_GROWTH = {g.kind: g for g in (PowerLawGrowth, TabulatedGrowth,
                                ConstantGrowth)}


@dataclass(frozen=True)
class AssumptionParams:
    """Input constants for the correlation bound recursion.

    d_o, D_o, delta_o: single-translate equidistribution data (error
    D_o * rho^(-delta_o) against degree-d_o norms); C, c: exponential
    mixing constants; A, a: norm scaling constants; growth: one of the
    three growth profiles for (B_d, b_d, M_d).
    """
    d_o: int
    D_o: float
    delta_o: float
    C: float
    c: float
    A: float
    a: float
    growth: object

    def __post_init__(self):
        if not isinstance(self.d_o, int) or self.d_o < 1:
            raise ValueError("d_o must be a positive integer")
        if not self.D_o >= 1.0:
            raise ValueError("D_o >= 1 is required")
        if not 0.0 < self.delta_o <= 1.0:
            raise ValueError("delta_o must lie in (0, 1]")
        if not self.C >= 1.0:
            raise ValueError("C >= 1 is required")
        if not 0.0 < self.c < 0.5:
            raise ValueError("c must lie strictly between 0 and 1/2")
        if not self.A >= 1.0:
            raise ValueError("A >= 1 is required")
        if not self.a > 0.0:
            raise ValueError("a > 0 is required")
        if not isinstance(self.growth, tuple(_GROWTH.values())):
            raise ValueError("growth must be a PowerLawGrowth, "
                             "TabulatedGrowth, or ConstantGrowth")

    def b(self, d):
        v = self.growth.b_exp(d)
        if not v > max(0.5, self.a / 4.0):
            raise ValueError("b_%d = %g violates b_d > max(1/2, a/4)"
                             % (d, v))
        return v

    def to_json(self):
        growth = {"kind": self.growth.kind}
        for name, value in vars(self.growth).items():
            growth[name] = list(value) if isinstance(value, tuple) else value
        return {"d_o": self.d_o, "D_o": self.D_o, "delta_o": self.delta_o,
                "C": self.C, "c": self.c, "A": self.A, "a": self.a,
                "growth": growth}

    @classmethod
    def from_json(cls, obj):
        """Build from the dict that to_json writes."""
        gd = obj["growth"]
        kind = _GROWTH.get(gd["kind"])
        if kind is None:
            raise ValueError("unknown growth kind %r" % gd["kind"])
        # floats, so integer JSON echoes as 2.0; a table becomes a tuple
        g = kind(*(tuple(map(float, v)) if isinstance(v, list) else float(v)
                   for v in (gd[f.name] for f in fields(kind))))
        return cls(d_o=int(obj["d_o"]), D_o=float(obj["D_o"]),
                   delta_o=float(obj["delta_o"]), C=float(obj["C"]),
                   c=float(obj["c"]), A=float(obj["A"]), a=float(obj["a"]),
                   growth=g)


def _log_P(params, d):
    """P_d = (M_d B_{d+d_o}^2 + 2 B_d^2)^(1/(2 b_{d+d_o})), in log."""
    g = params.growth
    num = _logaddexp(g.log_M_d(d) + 2.0 * g.log_B_d(d + params.d_o),
                     math.log(2.0) + 2.0 * g.log_B_d(d))
    return num / (2.0 * params.b(d + params.d_o))


def base_case(params):
    """First row of the table and the scalar B':
    d_1 = 2 d_o,
    B' = M_{d_o} B_{2 d_o}^2 + 2 B_{d_o},
    D_1 = max(D_o, 5 max(sqrt(C), sqrt(D_o B'))),
    delta_1 = c delta_o / (2 (c + 2 b_{2 d_o})).
    Returns (row, log B'), row the LedgerRow for r = 1; D_1 reads inf
    past the float range, row.log_D_r keeps the value.
    """
    d1 = 2 * params.d_o
    g = params.growth
    log_Bprime = _logaddexp(
        g.log_M_d(params.d_o) + 2.0 * g.log_B_d(2 * params.d_o),
        math.log(2.0) + g.log_B_d(params.d_o))
    log_D1p = math.log(5.0) + 0.5 * max(math.log(params.C),
                                        math.log(params.D_o) + log_Bprime)
    log_D1 = max(math.log(params.D_o), log_D1p)
    delta1 = (params.c * params.delta_o
              / (2.0 * (params.c + 2.0 * params.b(2 * params.d_o))))
    if not delta1 < params.delta_o:
        raise ArithmeticError("base exponent delta_1 = %g does not drop "
                              "below delta_o = %g" % (delta1, params.delta_o))
    return LedgerRow(r=1, d_r=d1, D_r=_exp(log_D1), log_D_r=log_D1,
                     delta_r=delta1, eps_r=math.nan, Q_r=math.nan,
                     threshold=1.0, log_threshold=0.0), log_Bprime


@dataclass(frozen=True)
class LedgerRow:
    r: int
    d_r: int
    D_r: float          # exp(log_D_r); inf when past float range
    log_D_r: float
    delta_r: float
    eps_r: float        # nan in the base row
    Q_r: float          # explicit mode only, else nan
    threshold: float    # smallest admissible Delta; 1.0 when unconditional
    log_threshold: float


@dataclass(frozen=True)
class BoundLedger:
    """Immutable table of bound constants plus the derived scalars.

    mode is "theorem-A" (recursive, unconditional in Delta >= 1) or
    "theorem-B" (explicit, power-law growth, valid above per-row
    thresholds).  lam, gamma, H1, H2 are populated in explicit mode
    only.
    """
    mode: str
    params: AssumptionParams
    rows: tuple
    c1: float
    P1: float
    Q: float
    log_Bprime: float
    P_table: tuple      # ((d, P_d, log_P_d), ...) for the degrees used
    lam: float = math.nan
    gamma: float = math.nan
    H1: float = math.nan
    H2: float = math.nan

    def row(self, r):
        if not 1 <= r <= len(self.rows):
            raise ValueError("ledger holds r <= %d, row %d requested"
                             % (len(self.rows), r))
        row = self.rows[r - 1]
        if row.r != r:
            raise ValueError("ledger row %d is labelled r=%d" % (r, row.r))
        return row

    @property
    def r_max(self):
        return len(self.rows)

    @property
    def Bprime(self):
        """B'; inf past the float range, where log_Bprime keeps it."""
        return _exp(self.log_Bprime)

    def to_json(self):
        out = {
            "mode": self.mode,
            "params": self.params.to_json(),
            "c1": self.c1, "P1": self.P1, "Q": self.Q, "Bprime": self.Bprime,
            "P_table": [{"d": d, "P_d": p, "log_P_d": lp}
                        for d, p, lp in self.P_table],
            "rows": [{
                "r": row.r, "d_r": row.d_r, "D_r": row.D_r,
                "log10_D_r": row.log_D_r / _LOG10,
                "delta_r": row.delta_r, "eps_r": row.eps_r,
                "Q_r": row.Q_r,
                "threshold": row.threshold,
                "log10_threshold": row.log_threshold / _LOG10,
            } for row in self.rows],
        }
        if self.mode == "theorem-B":
            out["lambda"] = self.lam
            out["gamma"] = self.gamma
            out["H1"] = self.H1
            out["H2"] = self.H2
        return out


def _smallest_lambda(log_deltas, r_max):
    """Smallest lam > 1 with delta_r >= 1/((r!)^2 (r+1)! lam^r) for all
    r <= r_max, by bisection to 1e-9.
    """
    def ok(lam):
        ll = math.log(lam)
        for r in range(1, r_max + 1):
            lhs = (log_deltas[r - 1] + 2.0 * math.lgamma(r + 1)
                   + math.lgamma(r + 2) + r * ll)
            if lhs < 0.0:
                return False
        return True

    lo, hi = 1.0, 2.0
    while not ok(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise ArithmeticError("factorial lower bound not certifiable")
    if ok(lo):
        return lo
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_ledger(params, r_max, mode="theorem-A"):
    """Fill the table for r = 1..r_max.

    Both modes share the exponents: with c_1 = min(a/2, c/4) and
    b = b_{d_{r-1}+d_o},

        d_r = d_{r-1} + d_o,  eps_r = delta_{r-1} / (2 c_1/r + 2 r b),
        delta_r = c_1 eps_r / r.

    With P_1 = sqrt(14 C) and Q = 2 max(A, P_1), mode "theorem-A" (any
    growth profile, unconditional in Delta >= 1) applies the recursive
    update

        D_r = 2 P_1 P_{d_{r-1}}^(r b) sqrt(D_{r-1}) + r Q

    in log space.  Mode "theorem-B" (power-law growth only) uses the
    explicit update Q_r = Q P_{d_{r-1}}^(c_1/r),
    D_r = 2 P_1 sqrt(D_{r-1}) + r Q_r, each row valid for
    Delta > P_{d_{r-1}}^(1/eps_r), and reports the factorial certificate
    lambda, the linear-growth constant H1 with D_r <= H1 r,
    gamma = 2 max(c_1, 2 ell)/lambda and H2 = (L1 (L2+2))^gamma.

    P_1 and Q are plain floats: a C or an A so large that P_1 or r_max Q
    overflows is refused with ArithmeticError.
    """
    if mode not in ("theorem-A", "theorem-B"):
        raise ValueError("mode must be 'theorem-A' or 'theorem-B'")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    explicit = mode == "theorem-B"
    g = params.growth
    if explicit:
        if not isinstance(g, PowerLawGrowth):
            raise ValueError("explicit mode requires power-law growth")
        log_cap = math.log(g.L1 * (g.L2 + 2.0))
    c1 = min(params.a / 2.0, params.c / 4.0)
    P1 = math.sqrt(14.0 * params.C)
    Q = 2.0 * max(params.A, P1)
    if not r_max * Q < math.inf:
        raise ArithmeticError(
            ("C = %g is too large: P_1 = sqrt(14 C)" % params.C
             if P1 == math.inf else
             "A = %g is too large: r_max Q = %d * 2 max(A, P_1)"
             % (params.A, r_max)) + " overflows the float range")
    first, log_Bprime = base_case(params)
    if explicit and first.D_r == math.inf:
        raise ArithmeticError(
            "theorem B needs a finite D_1, but log10 D_1 = %.6g is past "
            "the float range" % (first.log_D_r / _LOG10))
    rows = [first]
    P_table = {}
    for r in range(2, r_max + 1):
        prev = rows[-1]
        b_next = params.b(prev.d_r + params.d_o)
        denom = 2.0 * c1 / r + 2.0 * r * b_next
        eps_r = prev.delta_r / denom
        delta_r = c1 * prev.delta_r / (r * denom)
        log_P = _log_P(params, prev.d_r)
        P_table[prev.d_r] = log_P
        if explicit:
            # uniform cap on P_d makes Q_r and hence D_r/r bounded
            if log_P > log_cap + 1e-12:
                raise ArithmeticError("P_%d exceeds L1(L2+2)" % prev.d_r)
            Q_r = Q * math.exp(c1 / r * log_P)
            D_r = 2.0 * P1 * math.sqrt(prev.D_r) + r * Q_r
            if D_r == math.inf:
                log_D_r = _logaddexp(
                    math.log(2.0 * P1) + 0.5 * prev.log_D_r,
                    math.log(r * Q) + c1 / r * log_P)
                raise ArithmeticError(
                    "theorem B needs a finite D_%d, but log10 D_%d = %.6g "
                    "is past the float range" % (r, r, log_D_r / _LOG10))
            log_D_r = math.log(D_r)
            log_thr = log_P / eps_r
            thr = _exp(log_thr)
        else:
            log_main = (math.log(2.0 * P1) + r * b_next * log_P
                        + 0.5 * prev.log_D_r)
            log_D_r = _logaddexp(log_main, math.log(r * Q))
            D_r = _exp(log_D_r)
            Q_r, thr, log_thr = math.nan, 1.0, 0.0
        rows.append(LedgerRow(
            r=r, d_r=prev.d_r + params.d_o, D_r=D_r, log_D_r=log_D_r,
            delta_r=delta_r, eps_r=eps_r, Q_r=Q_r,
            threshold=thr, log_threshold=log_thr))
    certificates = {}
    if explicit:
        lam = _smallest_lambda([math.log(rw.delta_r) for rw in rows], r_max)
        gamma = 2.0 * max(c1, 2.0 * g.ell) / lam
        certificates = {"lam": lam, "gamma": gamma,
                        "H1": max(rw.D_r / rw.r for rw in rows),
                        "H2": (g.L1 * (g.L2 + 2.0)) ** gamma}
    return BoundLedger(
        mode=mode, params=params, rows=tuple(rows),
        c1=c1, P1=P1, Q=Q, log_Bprime=log_Bprime,
        P_table=tuple(sorted((d, _exp(lp), lp)
                             for d, lp in P_table.items())),
        **certificates)


@dataclass(frozen=True)
class BoundValue:
    value: float
    log_value: float
    threshold_ok: object    # bool in explicit mode, None otherwise


def bound_evaluate(ledger, r, Delta, wiener_norm, s_norms):
    """D_r * Delta^(-delta_r) * wiener_norm * prod(s_norms), log-space.

    Delta is multiplicative (>= 1).  The value reads inf past the float
    range; log_value keeps it.  In explicit mode threshold_ok reports
    whether Delta clears the row's validity threshold.
    """
    row = ledger.row(r)
    Delta = float(Delta)
    if not Delta >= 1.0:
        raise ValueError("Delta must be >= 1 (multiplicative convention)")
    s_norms = [float(s) for s in s_norms]
    if len(s_norms) != r:
        raise ValueError("expected %d norm values, got %d" % (r, len(s_norms)))
    if float(wiener_norm) < 0.0 or any(s < 0.0 for s in s_norms):
        raise ValueError("norms must be nonnegative")
    factors = [float(wiener_norm)] + s_norms
    if any(f == 0.0 for f in factors):
        log_value = -math.inf
    else:
        log_value = (row.log_D_r - row.delta_r * math.log(Delta)
                     + sum(math.log(f) for f in factors))
    ok = None
    if ledger.mode == "theorem-B":
        ok = bool(math.log(Delta) > row.log_threshold)
    return BoundValue(value=_exp(log_value), log_value=log_value,
                      threshold_ok=ok)
