"""Diagonalizable translation actions on a weight basis.

A translation t lives in R^k (additive coordinates) and acts on a vector
space V = sum of weight spaces u_alpha, scaling u_alpha by exp(alpha(t)).
This module computes the star norm (worst expansion or contraction over
all weight spaces), the statistics of a tuple of translations that drive
the correlation bounds, and the choice of a direction in V that one
translation expands maximally relative to the others.

Multiplicative quantities overflow quickly for large translations, so
every statistic is kept as its natural logarithm and all comparisons
happen in log space; past the float range a statistic's exponential
reads inf while its logarithm stays exact.

TupleStack checks tuples against their action and stacks them by shape.
tuple_stats and select_direction run stacked passes over a TupleStack
and return records of arrays with one value, or r values, per tuple
(StatsColumns, SelectionColumns).
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


class RootAction:
    """Weight data for a diagonalizable action of R^dim_t.

    Parameters
    ----------
    dim_t : int
        Dimension of the additive coordinates.
    roots : sequence of sequences
        One nonzero linear functional per weight space, each a length
        dim_t coefficient vector.
    multiplicities : sequence of int, optional
        Dimension of each weight space (default all 1).
    proper : bool
        Declare that log star_norm vanishes only at t = 0.  When set,
        the roots are required to span the dual space.
    cone_tag : str
        Domain predicate for the tuples of this action: "free" (none),
        or "u_mn:m,n" with m, n >= 1 and m + n = dim_t (all coordinates
        nonnegative and the first m sum to the same value as the last
        n).  Any other tag is refused.
    """

    def __init__(self, dim_t, roots, multiplicities=None, proper=False,
                 cone_tag="free"):
        dim_t = int(dim_t)
        if dim_t < 1:
            raise ValueError("dim_t must be a positive integer")
        mat = _matrix(roots, dim_t,
                      "root %d has %d coefficients, expected %d")
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] != dim_t:
            raise ValueError("roots must be a nonempty sequence of length-%d "
                             "coefficient vectors" % dim_t)
        if not np.all(np.isfinite(mat)):
            raise ValueError("root coefficients must be finite")
        norms = np.max(np.abs(mat), axis=1)
        if np.any(norms == 0.0):
            raise ValueError("every root functional must be nonzero")
        n = mat.shape[0]
        if multiplicities is None:
            mult = [1] * n
        else:
            mult = [int(m) for m in multiplicities]
            if len(mult) != n or any(m < 1 for m in mult):
                raise ValueError("multiplicities must give one positive "
                                 "integer per root")
        if proper and np.linalg.matrix_rank(mat) < dim_t:
            raise ValueError("action declared proper but the roots do not "
                             "span the dual space")
        self.dim_t = dim_t
        self.roots = mat
        self.roots.setflags(write=False)
        self.multiplicities = tuple(mult)
        self.proper = bool(proper)
        self.cone_tag = str(cone_tag)
        self._cone = _cone(self.cone_tag, dim_t)

    @property
    def n_roots(self):
        return self.roots.shape[0]

    @classmethod
    def u_mn(cls, m, n):
        """Action of the (m+n)-dimensional diagonal on the m-by-n upper
        block: roots alpha_{i,j}(t) = t_i + t_{m+j}, multiplicity 1 each.
        """
        m, n = int(m), int(n)
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        roots = []
        for i in range(m):
            for j in range(n):
                row = np.zeros(m + n)
                row[i] = 1.0
                row[m + j] = 1.0
                roots.append(row)
        # The common kernel of the roots is the line spanned by
        # (1,..,1,-1,..,-1), so properness cannot be declared here; the
        # balanced cone predicate kills that direction instead.
        return cls(m + n, roots, proper=False, cone_tag="u_mn:%d,%d" % (m, n))

    @classmethod
    def from_json(cls, obj):
        """Build from {"dim_t": k, "roots": [[...]]} (optional keys:
        "multiplicities", "proper", "cone_tag"), the schema's custom
        schedule action and the dict that to_json writes.
        """
        return cls(obj["dim_t"], obj["roots"],
                   multiplicities=obj.get("multiplicities"),
                   proper=obj.get("proper", False),
                   cone_tag=obj.get("cone_tag", "free"))

    def to_json(self):
        """The action as a custom schedule action of the manifest schema:
        from_json rebuilds it, and a manifest may give it."""
        return {
            "dim_t": self.dim_t,
            "roots": [[float(c) for c in row] for row in self.roots],
            "multiplicities": list(self.multiplicities),
            "proper": self.proper,
            "cone_tag": self.cone_tag,
        }

    def root_values(self, t):
        """alpha(t) for every root: (..., n_roots) from points (..., dim_t).

        The stacked matmul on a C-contiguous operand runs the same gemv
        per point as roots @ t, so a point's values are bitwise the same
        alone or in a stack; the 2-D t @ roots.T would round otherwise.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim < 1 or t.shape[-1] != self.dim_t:
            raise ValueError("expected length-%d coordinate vectors, got "
                             "shape %s" % (self.dim_t, t.shape))
        if not np.all(np.isfinite(t)):
            raise ValueError("coordinates must be finite")
        return (self.roots @ np.ascontiguousarray(t)[..., None])[..., 0]


def _matrix(rows, width, message):
    """rows as a float array; a ragged sequence is refused with message
    % (row index, length, width) for its first row whose length is not
    width (default: the first row's)."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:
        if width is None:
            width = len(rows[0])
        for k, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(message % (k, len(row), width)) from None
        raise


def _cone(tag, dim_t):
    """The block sizes (m, n) of a "u_mn:m,n" tag, or None for "free"."""
    if tag == "free":
        return None
    if tag.startswith("u_mn:"):
        try:
            m, n = (int(s) for s in tag[5:].split(","))
        except ValueError:
            pass
        else:
            if m >= 1 and n >= 1 and m + n == dim_t:
                return m, n
    raise ValueError("cone tag %r is neither 'free' nor 'u_mn:m,n' with "
                     "m, n >= 1 and m + n = dim_t = %d" % (tag, dim_t))


def log_star_norm(action, t):
    """log of the star norm: max over roots alpha of |alpha(t)|.

    A float for one point; for a stack of points (..., dim_t), the array
    of their logs, each the value its point has alone.
    """
    logs = np.max(np.abs(action.root_values(t)), axis=-1)
    return float(logs) if logs.ndim == 0 else logs


def star_norm(action, t):
    """max over roots alpha of max(exp(alpha(t)), exp(-alpha(t))).

    Always >= 1 and symmetric under t -> -t.
    """
    return math.exp(log_star_norm(action, t))


# tuples per stacked pass: the passes hold a few (N, n_roots, r, r) and
# (N, pairs, n_roots) arrays, so N is capped to keep their memory from
# growing with the number of tuples
_CHUNK = 1024


def _shape(entries):
    try:
        return len(entries), len(entries[0])
    except (TypeError, IndexError):
        return None  # not a nonempty sequence of sequences


class TupleStack:
    """Translation tuples of one action, checked and stacked by shape.

    tuples is a sequence of entry lists, each a nonempty sequence of
    finite coordinate vectors of the action's length that lie in its
    cone (RootAction's cone_tag).  groups lists, per shape in order of
    first appearance, the increasing input positions of its tuples and
    their read-only (N, r, dim_t) entries, stacked in input order.  len
    is the number of tuples, r gives each tuple's length in input
    order, and offsets its first row in a column that holds r values
    per tuple: tuple k owns rows offsets[k] to offsets[k + 1].
    """

    def __init__(self, action, tuples):
        self.action = action
        shapes = {}
        for pos, entries in enumerate(tuples):
            shapes.setdefault(_shape(entries), []).append(pos)
        self.groups = []
        self.r = np.empty(len(tuples), dtype=np.intp)
        for positions in shapes.values():
            members = [tuples[p] for p in positions]
            try:
                entries = np.array(members, dtype=float)
            except ValueError:
                entries = None
            if entries is None or entries.ndim != 3:
                # refused as the first malformed tuple alone is refused
                for member in members:
                    mat = _matrix(member, None,
                                  "entry %d has %d coordinates, expected %d")
                    if mat.ndim != 2 or mat.shape[0] < 1:
                        raise ValueError("entries must be a nonempty "
                                         "sequence of coordinate vectors")
                    self._check(mat[None])
                raise ValueError("tuples of shape %r do not stack"
                                 % (_shape(members[0]),))
            self._check(entries)
            entries.setflags(write=False)
            positions = np.array(positions, dtype=np.intp)
            self.groups.append((positions, entries))
            self.r[positions] = entries.shape[1]
        self.offsets = np.zeros(len(tuples) + 1, dtype=np.intp)
        np.cumsum(self.r, out=self.offsets[1:])

    def _check(self, entries):
        """Refuse a stack of tuples, shape (N, r, d), of which one is not
        finite, has d other than dim_t or leaves the action's cone; each
        tuple is scaled by its own entries."""
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        action = self.action
        if action._cone is None:
            if entries.shape[2] != action.dim_t:
                raise ValueError("expected length-%d coordinate vectors, "
                                 "got %d" % (action.dim_t, entries.shape[2]))
            return
        tag, (m, n) = action.cone_tag, action._cone
        if entries.shape[2] != m + n:
            raise ValueError("cone %r expects %d coordinates" % (tag, m + n))
        scale = 1.0 + np.max(np.abs(entries), axis=(1, 2))[:, None]
        if np.any(entries < -1e-12 * scale[:, :, None]):
            raise ValueError("cone %r requires nonnegative coordinates" % tag)
        left = entries[:, :, :m].sum(axis=2)
        right = entries[:, :, m:].sum(axis=2)
        if np.any(np.abs(left - right) > 1e-9 * scale):
            raise ValueError("cone %r requires balanced block sums" % tag)

    def __len__(self):
        return len(self.r)


def _by_length(stack, stacked, columns):
    """Fill columns, in input order, from stacked(action, E) for each
    group of a TupleStack, E a C-contiguous (N, r, dim_t) stack of at
    most _CHUNK of its tuples.  stacked returns one array per column: an
    (N,) array fills a column of one value per tuple, an (N, r) array
    one of r values per tuple, at the stack's offsets."""
    for positions, entries in stack.groups:
        for k in range(0, len(positions), _CHUNK):
            chunk = positions[k:k + _CHUNK]
            # values past the float range read +-inf or NaN, and the
            # stacked passes handle both, so numpy need not warn about them
            with np.errstate(over="ignore", invalid="ignore"):
                arrays = stacked(stack.action, entries[k:k + _CHUNK])
            rows = stack.offsets[chunk, None] + np.arange(entries.shape[1])
            for col, arr in zip(columns, arrays):
                col[chunk if arr.ndim == 1 else rows] = arr


@dataclass(eq=False)
class StatsColumns:
    """The statistics of a TupleStack's tuples, as logarithms: each field
    is an array with one value per tuple, in input order.

    r is the tuple length, rho_r the smallest growth value, m_r the
    smallest pairwise star norm (infinite for r = 1), M_r the largest
    over all ordered pairs, and Delta_r the decay parameter
    min(rho_r, m_r) (just rho(t_1) for r = 1).
    """
    r: np.ndarray
    log_rho_r: np.ndarray
    log_m_r: np.ndarray
    log_M_r: np.ndarray
    log_Delta_r: np.ndarray


def tuple_stats(stack):
    """Statistics (rho_r, m_r, M_r, Delta_r) of each tuple of a TupleStack.

    Returns StatsColumns.  Tuples of one length are computed together,
    in stacked passes of up to _CHUNK tuples.  The growth value of one
    entry is rho(t) = exp(min coordinate), evaluated in log space so
    large translations cannot overflow.  A root value that is NaN (an
    overflowing inf - inf) never sets m_r or M_r.
    """
    cols = [np.empty(len(stack)) for _ in range(4)]
    _by_length(stack, _stats_stack, cols)
    return StatsColumns(stack.r, *cols)


def _stats_stack(action, entries):
    r = entries.shape[1]
    mins = np.min(entries, axis=2)
    if np.any(mins < -1e-12):
        raise ValueError("rho = exp(min coordinate) requires min "
                         "coordinate >= 0 on every entry")
    i, j = np.array(list(combinations(range(r), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    # log star norm of every pair t_i - t_j, i < j
    pair = log_star_norm(action, entries[:, i] - entries[:, j])
    # the first smallest minimum, as a left fold keeps it (0.0 and -0.0
    # tie)
    log_rho_r = np.take_along_axis(mins, np.argmin(mins, axis=1)[:, None],
                                   axis=1)[:, 0]
    # fold from log m_r = inf and log M_r = 0 (the pair (i, i) has star
    # norm 1); a NaN never replaces either
    log_m = np.fmin.reduce(pair, axis=1, initial=math.inf)
    log_M = np.fmax.reduce(pair, axis=1, initial=0.0)
    # min(log rho_r, log m_r), keeping log rho_r on a tie; for r = 1,
    # log m_r = inf leaves log rho(t_1)
    log_delta = np.where(log_m < log_rho_r, log_m, log_rho_r)
    return log_rho_r, log_m, log_M, log_delta


@dataclass(eq=False)
class SelectionColumns:
    """The maximally-expanded-direction choices of a TupleStack's tuples.

    A tuple's direction w is the basis vector of the chosen root's
    weight space scaled by exp(-alpha(t_j)), so its image under t_i has
    norm M_r and its image under t_j has norm exactly 1.  degenerate,
    chosen_root, i, j and l hold one value per tuple, in input order;
    the indices are 1-based, l is where the j-image sorts, and they read
    0 where degenerate is set: all entries coincide (M_r = 1) and no
    direction is preferred.  relabeling and log_norms hold r values per
    tuple, tuple k's at rows offsets[k] to offsets[k + 1]: the logs of
    the image norms in decreasing order, and the 1-based entry index of
    each sorted position.
    """
    offsets: np.ndarray
    degenerate: np.ndarray
    chosen_root: np.ndarray
    i: np.ndarray
    j: np.ndarray
    l: np.ndarray
    relabeling: np.ndarray
    log_norms: np.ndarray


def select_direction(stack):
    """Pick (i, j, root) attaining M_r and return the sorted image data.

    Takes a TupleStack whose tuples have r >= 2 and returns
    SelectionColumns.  Tuples of one length are computed together, in
    stacked passes of up to _CHUNK tuples.  Ties in the argmax are
    broken by smallest (root index, i, j).  A tuple with all entries
    equal yields a degenerate selection instead of an arbitrary
    direction.
    """
    n, rows = len(stack), stack.offsets[-1]
    cols = [np.empty(n, dtype=bool), *(np.empty(n, dtype=np.intp)
                                       for _ in range(4)),
            np.empty(rows, dtype=np.intp), np.empty(rows)]
    _by_length(stack, _selection_stack, cols)
    return SelectionColumns(stack.offsets, *cols)


def _selection_stack(action, entries):
    n_tup, r, _ = entries.shape
    if r < 2:
        raise ValueError("direction selection needs at least two entries")
    vals = action.root_values(entries).transpose(0, 2, 1)  # (N, roots, r)
    # diffs[t, a, i, j] = alpha_a(t_i) - alpha_a(t_j); only orientations
    # where the chosen root expands count, and NaN from overflowing root
    # values never wins.  A C-order argmax returns the first maximum,
    # the smallest (root, i, j).
    diffs = vals[:, :, :, None] - vals[:, :, None, :]
    gains = np.where(diffs > 0.0, diffs, 0.0).reshape(n_tup, -1)
    best = np.argmax(gains, axis=1)
    rows = np.arange(n_tup)
    a, i, j = np.unravel_index(best, diffs.shape[1:])
    log_M = gains[rows, best]
    degenerate = log_M == 0.0
    image_logs = diffs[rows, a, :, j]
    # decreasing; the sort is stable, so ties keep entry order
    order = np.argsort(-image_logs, axis=1, kind="stable")
    logs = np.take_along_axis(image_logs, order, axis=1)
    # sanity: decreasing, top equals M_r, the j-image sits at exactly 1,
    # and the bottom image is at most M_r^{-1} times the top
    ok = (np.all(logs[:, :-1] >= logs[:, 1:], axis=1)
          & (np.abs(logs[:, 0] - log_M)
             <= 1e-9 * np.maximum(1.0, np.abs(log_M)))
          & (image_logs[rows, j] == 0.0)
          & (logs[:, -1] <= logs[:, 0] - log_M + 1e-9))
    failed = ~(ok | degenerate)
    if failed.any():
        raise ArithmeticError("direction selection failed its image-norm "
                              "checks (log M_r = %r)"
                              % float(log_M[np.argmax(failed)]))
    l = np.argmax(order == j[:, None], axis=1)  # where the j-image sorts
    # a degenerate tuple prefers no direction: its images all sit at 1,
    # in entry order, and its indices read 0
    order[degenerate] = np.arange(r)
    logs[degenerate] = 0.0
    kept = ~degenerate
    return (degenerate, (a + 1) * kept, (i + 1) * kept, (j + 1) * kept,
            (l + 1) * kept, order + 1, logs)
