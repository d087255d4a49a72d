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
        mat = np.asarray(roots, dtype=float)
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
        """alpha(t) for every root, as a 1-D array."""
        t = _as_point(t, self.dim_t)
        return self.roots @ t


def _as_point(t, dim_t):
    t = np.asarray(t, dtype=float)
    if t.shape != (dim_t,):
        raise ValueError("expected a length-%d coordinate vector, got shape %s"
                         % (dim_t, t.shape))
    if not np.all(np.isfinite(t)):
        raise ValueError("coordinates must be finite")
    return t


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
        mat = np.asarray(entries, dtype=float)
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


def tuple_stats(action, tup):
    """Statistics (rho_r, m_r, M_r, Delta_r) of a translation tuple.

    The growth value of one entry is rho(t) = exp(min coordinate),
    evaluated in log space so large translations cannot overflow.
    """
    log_rhos = [float(np.min(t)) for t in tup.entries]
    log_rho_r = min(log_rhos)
    if log_rho_r < -1e-12:
        raise ValueError("rho = exp(min coordinate) requires min "
                         "coordinate >= 0 on every entry")
    r = tup.r
    log_m = math.inf
    log_M = 0.0  # the pair (i, i) always contributes star norm 1
    for i in range(r):
        for j in range(i + 1, r):
            v = log_star_norm(action, tup.entries[i] - tup.entries[j])
            log_m = min(log_m, v)
            log_M = max(log_M, v)
    if r == 1:
        log_delta = log_rhos[0]
    else:
        log_delta = min(log_rho_r, log_m)
    return TupleStats(
        r=r,
        rho_r=_exp(log_rho_r),
        m_r=_exp(log_m),
        M_r=_exp(log_M),
        Delta_r=_exp(log_delta),
        log_rho_r=log_rho_r,
        log_m_r=log_m,
        log_M_r=log_M,
        log_Delta_r=log_delta,
    )


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


def select_direction(action, tup):
    """Pick (i, j, root) attaining M_r and return the sorted image data.

    Requires r >= 2.  Ties in the argmax are broken by smallest
    (root index, i, j).  A tuple with all entries equal yields a
    degenerate selection instead of an arbitrary direction.
    """
    r = tup.r
    if r < 2:
        raise ValueError("direction selection needs at least two entries")
    vals = np.array([action.root_values(t) for t in tup.entries])  # (r, n_roots)
    best = (0.0, None)
    for a in range(action.n_roots):
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                v = float(vals[i, a] - vals[j, a])
                # only orientations where the chosen root expands
                if v > best[0]:
                    best = (v, (a, i, j))
    if best[1] is None:
        ones = tuple([1.0] * r)
        return DirectionSelection(
            degenerate=True, chosen_root=None, i=None, j=None, l=None,
            relabeling=tuple(range(1, r + 1)), log_norms=tuple([0.0] * r),
            norms=ones)
    log_M, (a, i, j) = best
    image_logs = [float(vals[k, a] - vals[j, a]) for k in range(r)]
    order = sorted(range(r), key=lambda k: (-image_logs[k], k))
    sorted_logs = tuple(image_logs[k] for k in order)
    l = order.index(j) + 1
    # sanity: decreasing, top equals M_r, the j-image sits at exactly 1,
    # and the bottom image is at most M_r^{-1} times the top
    if not (all(sorted_logs[k] >= sorted_logs[k + 1] for k in range(r - 1))
            and abs(sorted_logs[0] - log_M) <= 1e-9 * max(1.0, abs(log_M))
            and image_logs[j] == 0.0
            and sorted_logs[-1] <= sorted_logs[0] - log_M + 1e-9):
        raise ArithmeticError("direction selection failed its image-norm "
                              "checks (log M_r = %r)" % log_M)
    return DirectionSelection(
        degenerate=False,
        chosen_root=a + 1,
        i=i + 1,
        j=j + 1,
        l=l,
        relabeling=tuple(k + 1 for k in order),
        log_norms=sorted_logs,
        norms=tuple(_exp(v) for v in sorted_logs),
    )
