"""Fourier data on a k-torus: measures, observables, character twists.

A measure is stored through the Fourier coefficients of its density
against Haar, rho(x) = sum_chi c_chi e^(2 pi i <chi, x>), indexed by
integer lattice vectors chi.  Everything here is exact linear algebra on
finitely supported coefficient maps; the only floating point error is
rounding.  The Wiener norm is sum |c_chi|, which dominates the sup norm
of the density.

The map is kept twice, both in sorted character order and built once:
the public dict coeffs, and the columns chis (a read-only (K, dim) float
array) and amps (a read-only complex array) that evaluation and
translation read.  Every sum runs left to right in that order, per
point and with each product on the shape a per-coefficient loop gives
it, so results are bit-reproducible and equal to such a loop bit for
bit.

Conventions: sigma_hat(chi) = c_chi (the density coefficient), and the
character psi_xi(x) = e^(2 pi i <xi, x>).  Integration against the
measure gives sigma(e^(2 pi i <eta, .>)) = c_{-eta}.
"""

import cmath
import functools
import itertools
import math
import operator

import numpy as np

__all__ = [
    "TorusMeasure",
    "TorusObservable",
    "wiener_norm",
    "character_twist",
    "equivariance_check",
    "character_expansion_check",
]

_TWO_PI_I = 2j * math.pi
# a tuple or list of ints alone is a character as it stands
_SEQUENCES, _INT = (tuple, list), {int}


def _norm_key(chi, dim):
    if type(chi) in _SEQUENCES and set(map(type, chi)) <= _INT:
        chi = tuple(chi)
    elif isinstance(chi, (int, np.integer)):
        chi = (int(chi),)
    else:
        chi = tuple(int(v) for v in chi)
    if len(chi) != dim:
        raise ValueError("character %r does not have %d components"
                         % (chi, dim))
    return chi


def _norm_coeffs(coeffs, dim):
    items = coeffs.items() if hasattr(coeffs, "items") else coeffs
    out = {}
    for chi, amp in items:
        key = _norm_key(chi, dim)
        out[key] = out.get(key, 0j) + complex(amp)
    if not all(map(cmath.isfinite, out.values())):
        raise ValueError("coefficients must be finite")
    return dict(sorted(out.items()))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class _FourierData:
    """Shared coefficient-map plumbing for measures and observables."""

    def __init__(self, dim, coeffs):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        coeffs = _norm_coeffs(coeffs, dim)
        self._set(dim, coeffs, np.fromiter(
            itertools.chain.from_iterable(coeffs), float,
            len(coeffs) * dim).reshape(-1, dim))

    @classmethod
    def _from_columns(cls, dim, coeffs, chis):
        """An instance with the sorted, checked map coeffs, whose support
        the rows chis already hold."""
        self = cls.__new__(cls)
        self._set(dim, coeffs, chis)
        return self

    def _set(self, dim, coeffs, chis):
        self.dim, self.coeffs = dim, coeffs
        self.chis = _read_only(chis)
        self.amps = _read_only(np.fromiter(coeffs.values(), complex,
                                           len(coeffs)))

    def coeff(self, chi):
        return self.coeffs.get(_norm_key(chi, self.dim), 0j)

    def bandwidth(self):
        """Per-axis maximum |chi_i| over the support."""
        return tuple(map(int, np.abs(self.chis).max(axis=0, initial=0.0)
                         .tolist()))

    def value(self, x):
        """Pointwise evaluation sum_chi c_chi e^(2 pi i <chi, x>).

        Accepts a scalar (dim 1), a 1-D array of points (dim 1), or an
        array of shape (..., dim).  Returns complex values of matching
        shape.  The (K, N) waves come from one exponential; the sum runs
        over the sorted support, one coefficient row at a time, so
        results are bit-reproducible.
        """
        arr = np.asarray(x, dtype=float)
        if self.dim == 1 and arr.ndim <= 1:
            shape = arr.shape
        else:
            if arr.shape[-1] != self.dim:
                raise ValueError("points must have %d coordinates" % self.dim)
            shape = arr.shape[:-1]
        pts = arr.reshape(-1, self.dim)
        if not self.coeffs:
            out = np.zeros(len(pts), dtype=complex)
        else:
            if self.dim == 1:
                phase = self.chis * pts.reshape(-1)
            else:
                # one gemv per coefficient: a (N, d) @ (d, K) product
                # rounds otherwise
                phase = np.array([pts @ np.array(chi, dtype=float)
                                  for chi in self.coeffs])
            # amp * wave into a new array: numpy's complex product rounds
            # otherwise with the operands swapped or written in place
            terms = self.amps[:, None] * np.exp(_TWO_PI_I * phase)
            # the running sum, as a loop adding each row to zeros would
            # take it; + 0.0 turns a -0.0 part into that loop's 0.0
            out = np.add.accumulate(terms, out=terms)[-1] + 0.0
        out = out.reshape(shape)
        return complex(out[()]) if arr.ndim == 0 else out

    def to_json(self):
        return {"dim": self.dim,
                "coeffs": [{"chi": list(chi), "re": amp.real, "im": amp.imag}
                           for chi, amp in self.coeffs.items()]}


def wiener_norm(m):
    """Sum of coefficient magnitudes; dominates the sup of the density."""
    return float(sum(abs(amp) for amp in m.coeffs.values()))


class TorusMeasure(_FourierData):
    """A probability measure given by the Fourier coefficients of its
    density: the coefficient at the zero character must be 1.
    """

    def __init__(self, dim, coeffs):
        super().__init__(dim, coeffs)
        if abs(self.coeffs.get((0,) * self.dim, 0j) - 1.0) > 1e-12:
            raise ValueError("probability measure needs coefficient 1 at "
                             "the zero character")

    @classmethod
    def haar(cls, dim=1):
        return cls(dim, {(0,) * dim: 1.0})

    @classmethod
    def from_json(cls, obj):
        """Build from the dict {"dim": k, "coeffs": [{"chi": [...],
        "re": ..., "im": ...}, ...]} that to_json writes."""
        return cls(obj["dim"],
                   [(e["chi"], complex(float(e.get("re", 0.0)),
                                       float(e.get("im", 0.0))))
                    for e in obj["coeffs"]])


class TorusObservable(_FourierData):
    """A trigonometric polynomial (function semantics)."""

    def translate(self, w):
        """x -> self(x + w); coefficients pick up e^(2 pi i <chi, w>)."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.shape != (self.dim,):
            raise ValueError("translation needs %d coordinates" % self.dim)
        # a stack of (1, d) @ (d,) products takes np.dot(chi, w) per row;
        # the phases multiply in Python, as the complex scalars they are
        phases = np.exp(_TWO_PI_I * (self.chis[:, None, :] @ w)[:, 0])
        amps = [0j + amp * phase for amp, phase in zip(self.coeffs.values(),
                                                       phases.tolist())]
        if not all(map(cmath.isfinite, amps)):
            raise ValueError("coefficients must be finite")
        return TorusObservable._from_columns(
            self.dim, dict(zip(self.coeffs, amps)), self.chis)


def character_twist(m, xi, eta):
    """nu_xi(eta) = m(psi_xi * eta) for the lattice point xi: the shifted
    pairing sum_chi eta_hat(chi) * sigma_hat(-xi - chi) over the support
    of eta.

    xi = 0 integrates eta against m.  For Haar this reads eta_hat at
    -xi; in particular the twist of the constant 1 is 1 for xi = 0 and 0
    otherwise.  Only the overlap of the two supports is summed, in
    eta's order: a term off it is a signed zero, which leaves a sum
    that starts at 0j unchanged.
    """
    if not isinstance(m, TorusMeasure):
        raise TypeError("expected a TorusMeasure")
    xi = _norm_key(xi, m.dim)
    if not isinstance(eta, TorusObservable):
        raise TypeError("expected a TorusObservable")
    if eta.dim != m.dim:
        raise ValueError("dimension mismatch")
    phi = eta.coeffs
    neg_xi = [-x for x in xi]
    total = 0j
    # m's partners chi = -xi - key, sorted, come in eta's order
    for chi, amp in sorted((tuple(map(operator.sub, neg_xi, key)), amp)
                           for key, amp in m.coeffs.items()):
        if chi in phi:
            total += phi[chi] * amp
    return total


def equivariance_check(m, xi, w, eta):
    """Translation equivariance of the twist: compare

        lhs = nu_xi(eta o translation_w)   and
        rhs = e^(-2 pi i <xi, w>) * nu_xi(eta).

    Returns (lhs, rhs, |lhs - rhs|).  The two sides agree exactly when
    the underlying measure is translation invariant.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    lhs = character_twist(m, xi, eta.translate(w))
    xi = _norm_key(xi, m.dim)
    phase = complex(np.exp(-_TWO_PI_I * float(np.dot(xi, w))))
    rhs = phase * character_twist(m, xi, eta)
    return lhs, rhs, abs(lhs - rhs)


@functools.lru_cache(maxsize=8)
def _midpoint_mesh(n_axes):
    """The read-only midpoint mesh with n_axes[i] points on axis i, as
    (..., len(n_axes)) coordinates."""
    axes = [(np.arange(n) + 0.5) / n for n in n_axes]
    return _read_only(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def character_expansion_check(sigma, phi):
    """Check the expansion sigma(Phi) = sum_chi sigma_hat(chi) nu_chi(Phi)
    with nu = Haar, for a trigonometric polynomial Phi.

    The expanded side is the exact coefficient pairing.  The direct side
    is an independent midpoint quadrature of density * phi with
    max(b, 64) points on each axis, where b exceeds the joint bandwidth
    by one, which makes it exact for trigonometric data.

    Returns (direct, expanded, defect).
    """
    if not isinstance(sigma, TorusMeasure):
        raise TypeError("expected a TorusMeasure")
    if not isinstance(phi, TorusObservable):
        raise TypeError("expected a TorusObservable")
    if phi.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    haar = TorusMeasure.haar(sigma.dim)
    expanded = 0j
    for chi, amp in sigma.coeffs.items():
        expanded += amp * character_twist(haar, chi, phi)
    mesh = _midpoint_mesh(tuple(
        max(a + b + 1, 64) for a, b in zip(sigma.bandwidth(),
                                           phi.bandwidth())))
    prod = sigma.value(mesh) * phi.value(mesh)
    # np.mean's own sum and division
    direct = complex(np.add.reduce(prod, axis=None) / prod.size)
    return direct, expanded, abs(direct - expanded)
