"""First/second moments, symplectic spectra and the moment-matched reference Gaussian.

Conventions: hbar = 1, q = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), so the
vacuum covariance matrix is I/2.  Quadratures are ordered (q1, p1, ..., qn, pn).
The squeezing phase is fixed so that params (r, phi=0) squeeze q:
S(r, phi) = expm((r/2) (e^{i phi} a^2 - e^{-i phi} a^dag^2)), giving CM entries
sigma11 = (n+1/2)[cosh 2r - sinh 2r cos phi], sigma22 with + sign, and
sigma12 = (n+1/2) sinh 2r sin phi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .config import tolerances
from .errors import ArgumentError, NumericalValidityError, TruncationError
from .fock import DensityMatrix, FockStateVector, State, _log_base, destroy, mode_operator

__all__ = [
    "GaussianData", "SingleModeGaussianParams", "SymplecticSpectrum",
    "moments", "h", "symplectic_eigenvalues", "gaussian_entropy",
    "fit_single_mode_gaussian", "reference_gaussian_state",
    "displacement_matrix", "squeeze_matrix", "thermal_weights",
    "gaussian_fock_block", "synthesize_single_mode_gaussian",
]


# ---------------------------------------------------------------------------
# data carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianData:
    """First moments X (length 2n) and covariance matrix sigma (2n x 2n)."""

    X: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float).ravel()
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sigma", sigma)
        if X.size % 2 or sigma.shape != (X.size, X.size):
            raise ArgumentError("X must have length 2n and sigma shape (2n, 2n)")
        asym = float(np.max(np.abs(sigma - sigma.T)))
        if asym > tolerances().herm:
            raise NumericalValidityError(f"sigma is not symmetric (residue {asym:.3e})")

    @property
    def modes(self) -> int:
        return self.X.size // 2

    def to_json(self) -> str:
        return json.dumps({"X": self.X.tolist(), "sigma": self.sigma.tolist()})

    @staticmethod
    def from_json(text: str) -> "GaussianData":
        obj = json.loads(text)
        return GaussianData(np.asarray(obj["X"]), np.asarray(obj["sigma"]))


@dataclass(frozen=True)
class SingleModeGaussianParams:
    """(alpha, r, phi, n_th) of the decomposition D(alpha) S(r e^{i phi}) nu(n_th)."""

    alpha: complex
    r: float
    phi: float
    n_th: float

    def __post_init__(self):
        if self.r < 0:
            raise ArgumentError("squeezing magnitude r must be >= 0")
        if self.n_th < -tolerances().eig:
            raise ArgumentError("thermal photon number must be >= 0")

    def energy(self) -> float:
        return abs(self.alpha) ** 2 + (self.n_th + 0.5) * math.cosh(2 * self.r) - 0.5


@dataclass(frozen=True)
class SymplecticSpectrum:
    d_minus: float
    d_plus: float

    def __post_init__(self):
        if self.d_minus > self.d_plus + 1e-15:
            raise ArgumentError("requires d_minus <= d_plus")
        if self.d_minus < 0.5 - tolerances().symp:
            raise NumericalValidityError(
                f"symplectic eigenvalue {self.d_minus} violates the uncertainty bound 1/2")


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _apply_destroy(t: np.ndarray, axis: int) -> np.ndarray:
    d = t.shape[axis]
    out = np.zeros_like(t)
    src = [slice(None)] * t.ndim
    dst = [slice(None)] * t.ndim
    src[axis] = slice(1, d)
    dst[axis] = slice(0, d - 1)
    shape = [1] * t.ndim
    shape[axis] = d - 1
    out[tuple(dst)] = t[tuple(src)] * np.sqrt(np.arange(1, d)).reshape(shape)
    return out


def _apply_create(t: np.ndarray, axis: int) -> np.ndarray:
    d = t.shape[axis]
    out = np.zeros_like(t)
    src = [slice(None)] * t.ndim
    dst = [slice(None)] * t.ndim
    src[axis] = slice(0, d - 1)
    dst[axis] = slice(1, d)
    shape = [1] * t.ndim
    shape[axis] = d - 1
    out[tuple(dst)] = t[tuple(src)] * np.sqrt(np.arange(1, d)).reshape(shape)
    return out


@lru_cache(maxsize=32)
def _moment_operators(modes: int, dim: int):
    """Quadrature operators (q1, p1, ...) on an n-mode space of per-mode dim."""
    a = destroy(dim)
    q1 = (a + a.conj().T) / np.sqrt(2)
    p1 = -1j * (a - a.conj().T) / np.sqrt(2)
    ops = []
    for m in range(modes):
        ops.append(mode_operator(q1, m, modes, dim))
        ops.append(mode_operator(p1, m, modes, dim))
    return tuple(ops)


def _pad_tensor(t: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(t, [(0, pad)] * t.ndim)


def moments(state: State) -> GaussianData:
    """X_j = <R_j> and sigma_kj = <{R_k, R_j}>/2 - <R_k><R_j>.

    Operators are built with two extra levels of headroom so second-moment
    products are exact on the state's support; only states that genuinely
    occupy the top Fock levels see truncation noise elsewhere.
    """
    if state.modes > 2:
        raise ArgumentError("moments are implemented for 1- and 2-mode states")
    tol = tolerances()
    if isinstance(state, DensityMatrix) and state.leakage > tol.leak_max:
        raise TruncationError(
            f"state leakage {state.leakage:.3e} exceeds leak_max {tol.leak_max:.1e}; "
            "moments of a leaking state are untrustworthy")

    n = 2 * state.modes
    if isinstance(state, FockStateVector):
        t = _pad_tensor(state.as_tensor(), 2)
        vecs = []
        for m in range(state.modes):
            axis = state.modes - 1 - m
            av = _apply_destroy(t, axis)
            cv = _apply_create(t, axis)
            vecs.append((av + cv) / np.sqrt(2))
            vecs.append(-1j * (av - cv) / np.sqrt(2))
        flat = t.ravel()
        X = np.array([np.real(np.vdot(flat, v.ravel())) for v in vecs])
        E = np.empty((n, n), dtype=complex)
        for k in range(n):
            for j in range(n):
                E[k, j] = np.vdot(vecs[k].ravel(), vecs[j].ravel())
    else:
        d = state.cutoff
        dp = d + 2
        if state.modes == 1:
            padded = np.zeros((dp, dp), dtype=complex)
            padded[:d, :d] = state.matrix
        else:
            t4 = state.matrix.reshape(d, d, d, d)
            padded = np.zeros((dp,) * 4, dtype=complex)
            padded[:d, :d, :d, :d] = t4
            padded = padded.reshape(dp * dp, dp * dp)
        ops = _moment_operators(state.modes, dp)
        X = np.array([float(np.real(np.trace(padded @ op))) for op in ops])
        E = np.empty((n, n), dtype=complex)
        for k in range(n):
            rk = ops[k] @ padded
            for j in range(n):
                E[k, j] = np.trace(rk @ ops[j])

    sigma = np.real(0.5 * (E + E.T)) - np.outer(X, X)
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianData(X, sigma)


# ---------------------------------------------------------------------------
# entropy machinery
# ---------------------------------------------------------------------------

def h(x: float, base=None) -> float:
    """(x+1/2)log(x+1/2) - (x-1/2)log(x-1/2), the Gaussian entropy kernel."""
    tol = tolerances()
    if x < 0.5 - tol.symp:
        raise NumericalValidityError(f"h(x) requires x >= 1/2, got {x}")
    if x <= 0.5:
        return 0.0
    u, v = x + 0.5, x - 0.5
    return (u * math.log(u) - v * math.log(v)) / _log_base(base)


def symplectic_eigenvalues(g: GaussianData) -> SymplecticSpectrum:
    """d_pm from the local symplectic invariants of a 1- or 2-mode CM."""
    tol = tolerances()
    if g.modes == 1:
        det = float(np.linalg.det(g.sigma))
        if det < 0:
            raise NumericalValidityError("covariance matrix has negative determinant")
        d = math.sqrt(det)
        return SymplecticSpectrum(d, d)
    if g.modes != 2:
        raise ArgumentError("symplectic spectrum implemented for 1- and 2-mode CMs")
    s = g.sigma
    i1 = float(np.linalg.det(s[:2, :2]))
    i2 = float(np.linalg.det(s[2:, 2:]))
    i3 = float(np.linalg.det(s[:2, 2:]))
    i4 = float(np.linalg.det(s))
    delta = i1 + i2 + 2 * i3
    disc = delta * delta - 4 * i4
    if disc < -tol.symp * max(1.0, delta * delta):
        raise NumericalValidityError(
            f"invalid two-mode CM: discriminant {disc:.3e} is negative")
    disc = max(disc, 0.0)
    hi = (delta + math.sqrt(disc)) / 2
    lo = (delta - math.sqrt(disc)) / 2
    if lo < 0:
        if lo < -tol.symp * max(1.0, delta):
            raise NumericalValidityError("invalid two-mode CM: negative d_-^2")
        lo = 0.0
    return SymplecticSpectrum(math.sqrt(lo), math.sqrt(hi))


def gaussian_entropy(g: GaussianData, base=None) -> float:
    """Entropy of the Gaussian state with the given moments."""
    spec = symplectic_eigenvalues(g)
    if g.modes == 1:
        return h(spec.d_minus, base)
    return h(spec.d_minus, base) + h(spec.d_plus, base)


# ---------------------------------------------------------------------------
# fit and synthesis of the single-mode reference state
# ---------------------------------------------------------------------------

def fit_single_mode_gaussian(g: GaussianData) -> SingleModeGaussianParams:
    """Invert (alpha, r, phi, n_th) from a single-mode (X, sigma)."""
    if g.modes != 1:
        raise ArgumentError("fit is defined for single-mode Gaussian data")
    tol = tolerances()
    s11, s22, s12 = g.sigma[0, 0], g.sigma[1, 1], g.sigma[0, 1]
    det = s11 * s22 - s12 * s12
    if det < 0.25 - tol.symp:
        raise NumericalValidityError(f"unphysical CM: det sigma = {det} < 1/4")
    d = math.sqrt(max(det, 0.25))
    n_th = max(d - 0.5, 0.0)
    # sinh 2r from the anisotropy: acosh((s11 + s22) / 2d) would turn O(eps)
    # noise in sigma into r ~ sqrt(eps)
    r = 0.5 * math.asinh(math.hypot((s22 - s11) / 2, s12) / d)
    if r < 1e-12:
        r, phi = 0.0, 0.0  # phase is gauge for zero squeezing
    else:
        phi = math.atan2(s12 / d, (s22 - s11) / (2 * d)) % (2 * math.pi)
    alpha = complex(g.X[0], g.X[1]) / math.sqrt(2)
    params = SingleModeGaussianParams(alpha, r, phi, n_th)

    resid = np.max(np.abs(_cm_from_params(params) - g.sigma))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(g.sigma)))):
        raise NumericalValidityError(
            f"parameter fit failed to reproduce the CM (residual {resid:.3e})")
    return params


def _cm_from_params(p: SingleModeGaussianParams) -> np.ndarray:
    scale = p.n_th + 0.5
    c2, s2 = math.cosh(2 * p.r), math.sinh(2 * p.r)
    return np.array([
        [scale * (c2 - s2 * math.cos(p.phi)), scale * s2 * math.sin(p.phi)],
        [scale * s2 * math.sin(p.phi), scale * (c2 + s2 * math.cos(p.phi))],
    ])


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on a dim-level mode."""
    a = destroy(dim)
    return scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_matrix(r: float, phi: float, dim: int) -> np.ndarray:
    """S(r, phi) = exp((r/2)(e^{i phi} a^2 - e^{-i phi} a^dag^2))."""
    a = destroy(dim)
    zeta = r * np.exp(1j * phi)
    return scipy.linalg.expm(0.5 * (zeta * a @ a - np.conj(zeta) * a.conj().T @ a.conj().T))


def thermal_weights(n_th: float, dim: int) -> np.ndarray:
    """Photon-number distribution of nu(n_th), computed in log space."""
    if n_th <= 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    k = np.arange(dim)
    return np.exp(k * math.log(n_th / (1.0 + n_th)) - math.log(1.0 + n_th))


def gaussian_fock_block(params: SingleModeGaussianParams, cutoff: int,
                        internal_cutoff: int | None = None) -> tuple[np.ndarray, float]:
    """Top-left cutoff x cutoff block of D S nu S^dag D^dag, not renormalized.

    Built at an enlarged internal cutoff so truncated-generator boundary
    artifacts stay away from the returned block.  Returns (block, trace deficit);
    the block alone is what overlaps against states supported below the cutoff
    need, however much of the Gaussian's own mass lies above it.
    """
    if internal_cutoff is None:
        internal_cutoff = cutoff + max(20, int(math.ceil(4 * params.energy())))
    nu = np.diag(thermal_weights(params.n_th, internal_cutoff)).astype(complex)
    u = displacement_matrix(params.alpha, internal_cutoff)
    if params.r > 0:
        u = u @ squeeze_matrix(params.r, params.phi, internal_cutoff)
    tau = u @ nu @ u.conj().T
    tau = tau[:cutoff, :cutoff]
    tau = 0.5 * (tau + tau.conj().T)
    deficit = max(1.0 - float(np.real(np.trace(tau))), 0.0)
    return tau, deficit


def synthesize_single_mode_gaussian(params: SingleModeGaussianParams, cutoff: int,
                                    internal_cutoff: int | None = None) -> DensityMatrix:
    """Normalized Fock-basis Gaussian state D S nu S^dag D^dag cropped to the cutoff."""
    block, deficit = gaussian_fock_block(params, cutoff, internal_cutoff)
    return DensityMatrix(1, cutoff, block / (1.0 - deficit), leakage=deficit)


def reference_gaussian_state(rho: State) -> DensityMatrix:
    """The Gaussian state with the same first and second moments, in the Fock basis.

    The contract is strict: the cropped state must reproduce the target moments
    componentwise within tol_ref, otherwise the cutoff is declared inadequate.
    """
    if rho.modes != 1:
        raise ArgumentError("reference-state synthesis is single-mode only")
    g = moments(rho)
    params = fit_single_mode_gaussian(g)
    tau = synthesize_single_mode_gaussian(params, rho.cutoff)
    g_tau = moments(DensityMatrix(1, rho.cutoff, tau.matrix))  # leakage reset: cropped by design
    resid = max(float(np.max(np.abs(g_tau.X - g.X))),
                float(np.max(np.abs(g_tau.sigma - g.sigma))))
    if resid > tolerances().ref_moment:
        raise TruncationError(
            f"reference Gaussian moment mismatch {resid:.3e}; increase the cutoff "
            f"(suggested >= {rho.cutoff + max(10, int(4 * params.energy()))})")
    return tau
