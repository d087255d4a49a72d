"""The decay fit and the fit subcommand's CSV reader (equidist._fit).

The fit is held to the exact least-squares solution computed with
Fraction, and the reader to a copy of the numpy path it replaced:
np.genfromtxt followed by np.polyfit.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist import modular
from equidist._fit import fit_decay, read_columns


def _exact_fit(deltas, errors):
    """(slope, intercept, mean square residual) of the least-squares line
    through the float logs, as Fractions."""
    x = [Fraction(math.log(v)) for v in deltas]
    y = [Fraction(math.log(v)) for v in errors]
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    slope = (sum((a - mx) * (b - my) for a, b in zip(x, y))
             / sum((a - mx) ** 2 for a in x))
    intercept = my - slope * mx
    mean_square = sum((b - intercept - slope * a) ** 2
                      for a, b in zip(x, y)) / n
    return slope, intercept, mean_square


_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_POSITIVE, _POSITIVE), min_size=3, max_size=40))
def test_fit_is_the_correctly_rounded_exact_solution(pairs):
    deltas, errors = (list(col) for col in zip(*pairs))
    logs = [math.log(v) for v in deltas]
    if max(logs) - min(logs) < 1e-12:
        with pytest.raises(ValueError, match="degenerate"):
            fit_decay(deltas, errors)
        return
    slope, intercept, mean_square = _exact_fit(deltas, errors)
    try:
        prefactor = math.exp(float(intercept))
    except OverflowError:
        with pytest.raises(ValueError, match="past the float range"):
            fit_decay(deltas, errors)
        return
    fit = fit_decay(deltas, errors)
    assert fit.exponent == -float(slope)
    assert fit.prefactor == prefactor
    assert fit.residual == math.sqrt(float(mean_square))


def test_modular_re_exports_the_fit():
    import equidist._fit
    assert modular.fit_decay is equidist._fit.fit_decay
    assert modular.DecayFit is equidist._fit.DecayFit


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_non_finite_data_is_refused_by_name(value):
    with pytest.raises(ValueError,
                       match=r"finite data: errors\[2\] is %s" % value):
        fit_decay([1.0, 2.0, 4.0], [1.0, 0.5, value])
    with pytest.raises(ValueError,
                       match=r"finite data: deltas\[0\] is %s" % value):
        fit_decay([value, 2.0, 4.0], [1.0, 0.5, 0.25])


# ------------------------------------------------- the reader against numpy

def _old_fit_decay(d, e):
    """fit_decay as it was on numpy, for the exit code only."""
    if d.size < 3 or d.size != e.size:
        raise ValueError("need at least 3 paired data points")
    if np.any(d <= 0.0) or np.any(e <= 0.0):
        raise ValueError("fit requires strictly positive data")
    ld, le = np.log(d), np.log(e)
    if ld.max() - ld.min() < 1e-12:
        raise ValueError("degenerate input: Delta values are constant")
    np.polyfit(ld, le, 1)


def _old_path(text, x_col, y_col):
    """(exit code, n_points) of the fit body as it was on numpy: a
    ValueError, numpy's LinAlgError among them, exits 3."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = np.genfromtxt(text.splitlines(), delimiter=",",
                                  names=True)
            if table.dtype.names is None or x_col not in table.dtype.names \
                    or y_col not in table.dtype.names:
                raise ValueError("columns not found")
            xs = np.atleast_1d(table[x_col])
            ys = np.atleast_1d(table[y_col])
            keep = (xs > 0) & (ys > 0)
            _old_fit_decay(xs[keep], ys[keep])
        except ValueError:
            return 3, None
    return 0, int(np.count_nonzero(keep))


def _new_path(text, x_col, y_col):
    try:
        xs, ys = read_columns(text, x_col, y_col, "t.csv")
        fit_decay(xs, ys)
    except ValueError:
        return 3, None
    return 0, len(xs)


_NAMES = ("Delta_mult", "abs_error", "a", "b")


def _pad(draw, text):
    return (" " * draw(st.integers(0, 2)) + text
            + " " * draw(st.integers(0, 2)))


@st.composite
def _tables(draw):
    """(CSV text, x column, y column) in the cases both readers share:
    padded or quoted header names, duplicate names, blank lines, numeric
    cells (positive, zero or negative), non-numeric and quoted text
    cells, and now and then a ragged row or a missing column."""
    width = draw(st.integers(2, 4))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=width,
                          max_size=width))
    header = [('"%s"' % n) if draw(st.booleans()) else _pad(draw, n)
              for n in names]
    x_col, y_col = (draw(st.sampled_from(names + ["missing"]))
                    if draw(st.integers(0, 9)) == 0
                    else draw(st.sampled_from(names)) for _ in range(2))
    cell = st.one_of(
        st.floats(1e-3, 1e3).map(repr), st.integers(1, 50).map(str),
        st.sampled_from(["0", "-1.5", "0.0", "-3"]),
        st.sampled_from(["", "abc", "n/a", "x1", '"n/a"', '"text"']))
    lines = [""] * draw(st.integers(0, 2)) + [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        n = width if kind > 1 else draw(st.sampled_from(
            [k for k in range(1, 6) if k != width]))
        lines.append(",".join(_pad(draw, draw(cell)) for _ in range(n)))
    return "\n".join(lines) + "\n", x_col, y_col


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_reader_matches_the_numpy_path(table):
    text, x_col, y_col = table
    assert _new_path(text, x_col, y_col) == _old_path(text, x_col, y_col)


@pytest.mark.parametrize("text, x_col, n_old, n_new", [
    # a quoted number is read; genfromtxt kept the quotes, a non-number
    ('x,y\n"1",1\n2,0.5\n4,0.25\n8,0.1\n', "x", 3, 4),
    # '#' starts no comment, so the cell is not a number
    ("x,y\n1,1 # c\n2,0.5\n4,0.25\n8,0.1\n", "x", 4, 3),
    # a line of tabs is blank; genfromtxt stripped only spaces, so it
    # read one cell and refused the ragged row
    ("x,y\n1,1\n\t\n2,0.5\n4,0.25\n", "x", None, 3),
    # names are only stripped; genfromtxt turned inner spaces into '_'
    ("x y,y\n1,1\n2,0.5\n4,0.25\n", "x y", None, 3),
])
def test_reader_differences_from_numpy(text, x_col, n_old, n_new):
    assert _old_path(text, x_col, "y")[1] == n_old
    assert _new_path(text, x_col, "y") == (0, n_new)


@pytest.mark.parametrize("text, message", [
    ("x,y\n1,1\n\n2,inf\n4,0.25\n",
     r"^t\.csv line 4, column 'y': 'inf' is not finite$"),
    ("x,y\n1,1\n2,0.5\n nan ,0.25\n",
     r"^t\.csv line 4, column 'x': ' nan ' is not finite$"),
    ("x,y\nabc,1e400\n2,0.5\n4,0.25\n",
     r"^t\.csv line 2, column 'y': '1e400' is not finite$"),
    ("x,y\n1,1\n2,0.5,3\n4,0.25\n",
     r"^t\.csv line 3 has 3 cells, the header has 2$"),
    ("", r"^columns 'x' and 'y' not found in t\.csv \(have None\)$"),
    ("u,v\n1,2\n", r"^columns 'x' and 'y' not found in t\.csv "
     r"\(have \('u', 'v'\)\)$"),
    ("x,y\n1,%s\n" % ("9" * 200000), r"^t\.csv line 2 is not CSV: field "
     r"larger than field limit"),
])
def test_reader_refusals_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        read_columns(text, "x", "y", "t.csv")


def test_reader_keeps_the_first_of_equal_names():
    xs, ys = read_columns(" x ,y, x\n1,2,3\n\n4,-5,6\n7,8,9\n", "x", "y",
                          "t.csv")
    assert (xs, ys) == ([1.0, 7.0], [2.0, 8.0])
