"""Decay-exponent fits in log-log coordinates, and the CSV reader of the
fit subcommand.

The fit is exact: every finite float is a dyadic rational, so the logs
scale to integers over one power of two, the normal equations are
solved in integer arithmetic, and each coefficient is rounded once.
Nothing here imports numpy, so a fit run loads neither numpy nor the
other layers; `equidist.modular` re-exports DecayFit and fit_decay.
"""

import csv
import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    prefactor: float
    residual: float


def _dyadic(values):
    """Integers m and a shift s with values[k] == m[k] / 2**s exactly;
    every value is a finite float."""
    ratios = [v.as_integer_ratio() for v in values]
    # each denominator is a power of two
    shift = max(q.bit_length() for _, q in ratios) - 1
    return [p << (shift + 1 - q.bit_length()) for p, q in ratios], shift


def fit_decay(deltas, errors):
    """Least squares in log-log coordinates:

        log error = log prefactor - exponent * log Delta.

    Returns the exponent (positive means decay), the prefactor, and the
    RMS residual of the fit.  The exponent and the log of the prefactor
    are the exact least-squares solution on the float logs, correctly
    rounded; the residual is the square root of the correctly rounded
    exact mean square.  Data that are not finite and positive, or
    Delta values that are all equal, raise ValueError.
    """
    d = [float(v) for v in deltas]
    e = [float(v) for v in errors]
    if len(d) < 3 or len(d) != len(e):
        raise ValueError("need at least 3 paired data points")
    for name, values in (("deltas", d), ("errors", e)):
        for k, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError("fit requires finite data: %s[%d] is %r"
                                 % (name, k, v))
    if min(d) <= 0.0 or min(e) <= 0.0:
        raise ValueError("fit requires strictly positive data")
    ld = [math.log(v) for v in d]
    le = [math.log(v) for v in e]
    if max(ld) - min(ld) < 1e-12:
        raise ValueError("degenerate input: Delta values are constant")
    # x = X / 2**sx and y = Y / 2**sy; every sum below is exact
    X, sx = _dyadic(ld)
    Y, sy = _dyadic(le)
    n = len(X)
    sum_x, sum_y = sum(X), sum(Y)
    sum_xx = sum(x * x for x in X)
    sum_xy = sum(map(operator.mul, X, Y))
    # n^2 times the (co)variances, scaled by 4**sx, 2**(sx + sy), 4**sy
    cxx = n * sum_xx - sum_x * sum_x
    cxy = n * sum_xy - sum_x * sum_y
    cyy = n * sum(y * y for y in Y) - sum_y * sum_y
    slope = (cxy << sx) / (cxx << sy)
    intercept = (sum_y * sum_xx - sum_x * sum_xy) / (cxx << sy)
    mean_square = (cyy * cxx - cxy * cxy) / ((n * n * cxx) << (2 * sy))
    try:
        prefactor = math.exp(intercept)
    except OverflowError:
        raise ValueError("the prefactor e^%r is past the float range"
                         % intercept) from None
    return DecayFit(exponent=-slope, prefactor=prefactor,
                    residual=math.sqrt(mean_square))


def _number(cell):
    """The float a CSV cell reads as, or None if it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def read_columns(text, x_col, y_col, source):
    """The (x, y) pairs of CSV text to fit, in row order, as two lists.

    The header is the first line that is not blank; its names are
    stripped, and the first of equal names wins.  Blank lines are
    skipped, and a row whose x or y cell is not a number, or not
    positive, is dropped.  ValueError, naming source and the line, for a
    missing column, a row whose cell count differs from the header's, a
    line the csv module cannot read, or an x or y cell that reads as inf
    or nan.
    """
    rows = csv.reader(text.splitlines())
    try:
        filled = (row for row in rows
                  if len(row) > 1 or "".join(row).strip())
        header = next(filled, None)
        names = tuple(name.strip() for name in header) if header else None
        if names is None or x_col not in names or y_col not in names:
            raise ValueError("columns %r and %r not found in %s (have %r)"
                             % (x_col, y_col, source, names))
        ix, iy = names.index(x_col), names.index(y_col)
        xs, ys = [], []
        for row in filled:
            if len(row) != len(names):
                raise ValueError("%s line %d has %d cells, the header has %d"
                                 % (source, rows.line_num, len(row),
                                    len(names)))
            x, y = _number(row[ix]), _number(row[iy])
            for name, i, v in ((x_col, ix, x), (y_col, iy, y)):
                if v is not None and not math.isfinite(v):
                    raise ValueError("%s line %d, column %r: %r is not "
                                     "finite" % (source, rows.line_num, name,
                                                 row[i]))
            if x is None or y is None or x <= 0.0 or y <= 0.0:
                continue
            xs.append(x)
            ys.append(y)
    except csv.Error as exc:
        raise ValueError("%s line %d is not CSV: %s"
                         % (source, rows.line_num, exc)) from None
    return xs, ys
