"""Fourier data on a k-torus: measures, observables, character twists.

A measure is stored through the Fourier coefficients of its density
against Haar, rho(x) = sum_chi c_chi e^(2 pi i <chi, x>), indexed by
integer lattice vectors chi.  Everything here is exact linear algebra on
finitely supported coefficient maps; the only floating point error is
rounding.  The Wiener norm is sum |c_chi|, which dominates the sup norm
of the density.

Conventions: sigma_hat(chi) = c_chi (the density coefficient), and the
character psi_xi(x) = e^(2 pi i <xi, x>).  Integration against the
measure gives sigma(e^(2 pi i <eta, .>)) = c_{-eta}.
"""

import math

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


def _norm_key(chi, dim):
    if isinstance(chi, (int, np.integer)):
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
    return {k: v for k, v in sorted(out.items())}


class _FourierData:
    """Shared coefficient-map plumbing for measures and observables."""

    def __init__(self, dim, coeffs):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = dim
        self.coeffs = _norm_coeffs(coeffs, dim)
        for amp in self.coeffs.values():
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError("coefficients must be finite")

    def coeff(self, chi):
        return self.coeffs.get(_norm_key(chi, self.dim), 0j)

    def bandwidth(self):
        """Per-axis maximum |chi_i| over the support."""
        bw = [0] * self.dim
        for chi in self.coeffs:
            for i, v in enumerate(chi):
                bw[i] = max(bw[i], abs(v))
        return tuple(bw)

    def value(self, x):
        """Pointwise evaluation sum_chi c_chi e^(2 pi i <chi, x>).

        Accepts a scalar (dim 1), a 1-D array of points (dim 1), or an
        array of shape (..., dim).  Returns complex values of matching
        shape.  Summation order is fixed (sorted support) so results are
        bit-reproducible.
        """
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        if self.dim == 1 and arr.ndim <= 1:
            pts = np.atleast_1d(arr)[:, None]
            shape = np.atleast_1d(arr).shape
        else:
            if arr.shape[-1] != self.dim:
                raise ValueError("points must have %d coordinates" % self.dim)
            shape = arr.shape[:-1]
            pts = arr.reshape(-1, self.dim)
        out = np.zeros(pts.shape[0], dtype=complex)
        for chi, amp in self.coeffs.items():
            out += amp * np.exp(_TWO_PI_I * (pts @ np.array(chi, dtype=float)))
        out = out.reshape(shape)
        return complex(out[()]) if scalar else out

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
        if abs(self.coeff((0,) * self.dim) - 1.0) > 1e-12:
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
        return TorusObservable(self.dim, {
            chi: amp * complex(np.exp(_TWO_PI_I * float(np.dot(chi, w))))
            for chi, amp in self.coeffs.items()})


def character_twist(m, xi, eta):
    """nu_xi(eta) = m(psi_xi * eta) for the lattice point xi: the shifted
    pairing sum_chi eta_hat(chi) * sigma_hat(-xi - chi) over the support
    of eta.

    xi = 0 integrates eta against m.  For Haar this reads eta_hat at
    -xi; in particular the twist of the constant 1 is 1 for xi = 0 and 0
    otherwise.
    """
    if not isinstance(m, TorusMeasure):
        raise TypeError("expected a TorusMeasure")
    xi = _norm_key(xi, m.dim)
    if not isinstance(eta, TorusObservable):
        raise TypeError("expected a TorusObservable")
    if eta.dim != m.dim:
        raise ValueError("dimension mismatch")
    total = 0j
    for chi, amp in eta.coeffs.items():
        key = tuple(-x - c for x, c in zip(xi, chi))
        total += amp * m.coeffs.get(key, 0j)
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
    phase = complex(np.exp(-_TWO_PI_I * float(np.dot(_norm_key(xi, m.dim),
                                                     w))))
    rhs = phase * character_twist(m, xi, eta)
    return lhs, rhs, abs(lhs - rhs)


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
    n_axes = [max(a + b + 1, 64) for a, b in zip(sigma.bandwidth(),
                                                 phi.bandwidth())]
    axes = [(np.arange(n) + 0.5) / n for n in n_axes]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    direct = complex(np.mean(sigma.value(mesh) * phi.value(mesh)))
    return direct, expanded, abs(direct - expanded)
