"""Diagonalizable translation actions on a weight basis.

A translation t lives in R^k (additive coordinates) and acts on a vector
space V = sum of weight spaces u_alpha, scaling u_alpha by exp(alpha(t)).
This module computes the star norm (worst expansion or contraction over
all weight spaces), the statistics of a tuple of translations that drive
the correlation bounds, and the choice of a direction in V that one
translation expands maximally relative to the others.

Multiplicative quantities overflow quickly for large translations, so
every statistic is returned together with its natural logarithm and all
internal comparisons happen in log space; past the float range the
statistic itself reads inf while its logarithm stays exact.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constants import _exp

__all__ = [
    "RootAction",
    "TranslationTuple",
    "TupleStats",
    "DirectionSelection",
    "star_norm",
    "log_star_norm",
    "tuple_stats",
    "select_direction",
]


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
    basis_labels : sequence of sequence of str, optional
        Labels for the weight basis vectors; defaults to "e[i],k".
    proper : bool
        Declare that log star_norm vanishes only at t = 0.  When set,
        the roots are required to span the dual space.
    cone_tag : str
        Default domain predicate for tuples built against this action
        ("free", or "u_mn:m,n" for the nonnegative balanced cone).
    """

    def __init__(self, dim_t, roots, multiplicities=None, basis_labels=None,
                 proper=False, cone_tag="free"):
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
        if basis_labels is None:
            basis_labels = [["e[%d],%d" % (i + 1, k + 1) for k in range(mult[i])]
                            for i in range(n)]
        else:
            basis_labels = [list(lbl) for lbl in basis_labels]
            if len(basis_labels) != n or any(len(basis_labels[i]) != mult[i]
                                             for i in range(n)):
                raise ValueError("basis_labels must match multiplicities")
        self.dim_t = dim_t
        self.roots = mat
        self.roots.setflags(write=False)
        self.multiplicities = tuple(mult)
        self.basis_labels = tuple(tuple(lbl) for lbl in basis_labels)
        self.proper = bool(proper)
        self.cone_tag = str(cone_tag)

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
        labels = []
        for i in range(m):
            for j in range(n):
                row = np.zeros(m + n)
                row[i] = 1.0
                row[m + j] = 1.0
                roots.append(row)
                labels.append(["e[%d,%d],1" % (i + 1, j + 1)])
        # The common kernel of the roots is the line spanned by
        # (1,..,1,-1,..,-1), so properness cannot be declared here; the
        # balanced cone predicate kills that direction instead.
        return cls(m + n, roots, basis_labels=labels, proper=False,
                   cone_tag="u_mn:%d,%d" % (m, n))

    @classmethod
    def from_json(cls, obj):
        """Build from {"dim_t": k, "roots": [[...]], "multiplicities": [...]}
        (optional keys: "basis_labels", "proper", "cone_tag"), the dict
        that to_json writes.
        """
        return cls(obj["dim_t"], obj["roots"],
                   multiplicities=obj.get("multiplicities"),
                   basis_labels=obj.get("basis_labels"),
                   proper=obj.get("proper", False),
                   cone_tag=obj.get("cone_tag", "free"))

    def to_json(self):
        return {
            "dim_t": self.dim_t,
            "roots": [[float(c) for c in row] for row in self.roots],
            "multiplicities": list(self.multiplicities),
            "basis_labels": [list(l) for l in self.basis_labels],
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


def _cone_check(entries, tag):
    if tag == "free":
        return
    if tag.startswith("u_mn:"):
        try:
            m, n = (int(s) for s in tag[5:].split(","))
        except Exception:
            raise ValueError("malformed cone tag %r" % tag) from None
        if entries.shape[1] != m + n:
            raise ValueError("cone %r expects %d coordinates" % (tag, m + n))
        scale = 1.0 + np.max(np.abs(entries))
        if np.any(entries < -1e-12 * scale):
            raise ValueError("cone %r requires nonnegative coordinates" % tag)
        left = entries[:, :m].sum(axis=1)
        right = entries[:, m:].sum(axis=1)
        if np.any(np.abs(left - right) > 1e-9 * scale):
            raise ValueError("cone %r requires balanced block sums" % tag)
        return
    raise ValueError("unknown cone tag %r" % tag)


class TranslationTuple:
    """An r-tuple of translations in additive coordinates.

    domain_tag names the predicate the entries must satisfy: "free"
    (none) or "u_mn:m,n" (all coordinates nonnegative and the first m
    sum to the same value as the last n).
    """

    def __init__(self, entries, domain_tag="free"):
        mat = _matrix(entries, None,
                      "entry %d has %d coordinates, expected %d")
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("entries must be a nonempty sequence of "
                             "coordinate vectors")
        if not np.all(np.isfinite(mat)):
            raise ValueError("entries must be finite")
        _cone_check(mat, domain_tag)
        self.entries = mat
        self.entries.setflags(write=False)
        self.domain_tag = str(domain_tag)

    @property
    def r(self):
        return self.entries.shape[0]


def log_star_norm(action, t):
    """log of the star norm: max over roots alpha of |alpha(t)|."""
    vals = action.root_values(t)
    return float(np.max(np.abs(vals)))


def star_norm(action, t):
    """max over roots alpha of max(exp(alpha(t)), exp(-alpha(t))).

    Always >= 1 and symmetric under t -> -t.
    """
    return math.exp(log_star_norm(action, t))


@dataclass(frozen=True)
class TupleStats:
    """Multiplicative statistics of a tuple with their logarithms.

    m_r is the smallest pairwise star norm (infinite for r = 1), M_r
    the largest over all ordered pairs, rho_r the smallest growth value
    and Delta_r the decay parameter min(rho_r, m_r) (just rho(t_1) for
    r = 1).
    """
    r: int
    rho_r: float
    m_r: float
    M_r: float
    Delta_r: float
    log_rho_r: float
    log_m_r: float
    log_M_r: float
    log_Delta_r: float


# tuples per stacked pass: the passes hold a few (N, n_roots, r, r) and
# (N, pairs, n_roots) arrays, so N is capped to keep their memory from
# growing with the number of tuples
_CHUNK = 1024


def _by_length(action, tuples, stacked):
    """stacked(action, E) for each group of equal-length tuples, E the
    C-contiguous (N, r, dim_t) stack of at most _CHUNK of their entries;
    the per-tuple results come back in input order."""
    tuples = list(tuples)
    groups = {}
    for pos, tup in enumerate(tuples):
        r, dim_t = tup.entries.shape
        if dim_t != action.dim_t:
            raise ValueError("expected length-%d coordinate vectors, got %d"
                             % (action.dim_t, dim_t))
        groups.setdefault(r, []).append(pos)
    out = [None] * len(tuples)
    chunks = [group[k:k + _CHUNK] for group in groups.values()
              for k in range(0, len(group), _CHUNK)]
    for positions in chunks:
        entries = np.stack([tuples[p].entries for p in positions])
        # values past the float range read +-inf or NaN, and the stacked
        # passes handle both, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore"):
            results = stacked(action, entries)
        for p, res in zip(positions, results):
            out[p] = res
    return out


def tuple_stats(action, tuples):
    """Statistics (rho_r, m_r, M_r, Delta_r) of each translation tuple.

    Takes a sequence of TranslationTuple and returns one TupleStats per
    tuple, in input order; tuples of one length are computed together,
    in stacked passes of up to _CHUNK tuples.  The growth value of one
    entry is rho(t) = exp(min coordinate), evaluated in log space so
    large translations cannot overflow.  A root value that is NaN (an
    overflowing inf - inf) never sets m_r or M_r.
    """
    return _by_length(action, tuples, _stats_stack)


def _stats_stack(action, entries):
    r = entries.shape[1]
    mins = np.min(entries, axis=2)
    if np.any(mins < -1e-12):
        raise ValueError("rho = exp(min coordinate) requires min "
                         "coordinate >= 0 on every entry")
    i, j = np.array(list(combinations(range(r), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    # log star norm of every pair t_i - t_j, i < j
    pair = np.max(np.abs(action.root_values(entries[:, i] - entries[:, j])),
                  axis=2)
    out = []
    for log_rhos, norms in zip(mins.tolist(), pair.tolist()):
        log_rho_r = min(log_rhos)
        # fold from log m_r = inf and log M_r = 0 (the pair (i, i) has
        # star norm 1); a NaN never replaces either
        log_m = min([math.inf] + norms)
        log_M = max([0.0] + norms)
        log_delta = log_rhos[0] if r == 1 else min(log_rho_r, log_m)
        out.append(TupleStats(
            r=r,
            rho_r=_exp(log_rho_r),
            m_r=_exp(log_m),
            M_r=_exp(log_M),
            Delta_r=_exp(log_delta),
            log_rho_r=log_rho_r,
            log_m_r=log_m,
            log_M_r=log_M,
            log_Delta_r=log_delta,
        ))
    return out


@dataclass(frozen=True)
class DirectionSelection:
    """Outcome of the maximally-expanded-direction choice.

    The direction w is the basis vector of the chosen root's weight
    space scaled by exp(-alpha(t_j)), so its image under t_i has norm
    M_r and its image under t_j has norm exactly 1.  Indices are
    1-based.  norms lists the image norms sorted in decreasing order;
    relabeling gives the original 1-based entry index of each sorted
    position.  degenerate is set when all entries coincide (M_r = 1)
    and no direction is preferred.
    """
    degenerate: bool
    chosen_root: int | None
    i: int | None
    j: int | None
    l: int | None
    relabeling: tuple
    log_norms: tuple
    norms: tuple

    @property
    def r(self):
        return len(self.norms)

    @property
    def log_M(self):
        return self.log_norms[0]


def select_direction(action, tuples):
    """Pick (i, j, root) attaining M_r and return the sorted image data.

    Takes a sequence of TranslationTuple, each with r >= 2, and returns
    one DirectionSelection per tuple, in input order; tuples of one
    length are computed together, in stacked passes of up to _CHUNK
    tuples.  Ties in the argmax are
    broken by smallest (root index, i, j).  A tuple with all entries
    equal yields a degenerate selection instead of an arbitrary
    direction.
    """
    return _by_length(action, tuples, _selection_stack)


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
    out = []
    for ra, ri, rj, log_M, image_logs in zip(
            a.tolist(), i.tolist(), j.tolist(), gains[rows, best].tolist(),
            diffs[rows, a, :, j].tolist()):
        if log_M == 0.0:
            out.append(DirectionSelection(
                degenerate=True, chosen_root=None, i=None, j=None, l=None,
                relabeling=tuple(range(1, r + 1)),
                log_norms=tuple([0.0] * r), norms=tuple([1.0] * r)))
            continue
        # decreasing; the sort is stable, so ties keep entry order
        order = sorted(range(r), key=image_logs.__getitem__, reverse=True)
        sorted_logs = tuple(map(image_logs.__getitem__, order))
        # sanity: decreasing, top equals M_r, the j-image sits at exactly
        # 1, and the bottom image is at most M_r^{-1} times the top
        if not (all(x >= y for x, y in zip(sorted_logs, sorted_logs[1:]))
                and abs(sorted_logs[0] - log_M)
                <= 1e-9 * max(1.0, abs(log_M))
                and image_logs[rj] == 0.0
                and sorted_logs[-1] <= sorted_logs[0] - log_M + 1e-9):
            raise ArithmeticError("direction selection failed its "
                                  "image-norm checks (log M_r = %r)"
                                  % log_M)
        out.append(DirectionSelection(
            degenerate=False,
            chosen_root=ra + 1,
            i=ri + 1,
            j=rj + 1,
            l=order.index(rj) + 1,
            relabeling=tuple(k + 1 for k in order),
            log_norms=sorted_logs,
            norms=tuple(map(_exp, sorted_logs)),
        ))
    return out
