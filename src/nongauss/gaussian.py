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
from typing import TYPE_CHECKING

import numpy as np

from .config import tolerances
from .errors import ArgumentError, NumericalValidityError, TruncationError
from .fock import DensityMatrix, FockStateVector, State, destroy, mode_operator

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "GaussianData", "SingleModeGaussianParams", "marginal",
    "moments", "h", "symplectic_eigenvalues", "gaussian_entropy",
    "fit_single_mode_gaussian", "reference_gaussian_state",
    "displacement_generator", "squeeze_generator",
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
        if not np.all(np.isfinite(X)):
            raise NumericalValidityError(f"first moments are not finite: {X}")
        asym = float(np.max(np.abs(sigma - sigma.T)))
        if not asym <= tolerances().herm:   # NaN fails the check
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


def marginal(g: GaussianData, mode: int) -> GaussianData:
    """First and second moments of one mode: its 2-entry and 2x2 blocks."""
    if not 0 <= mode < g.modes:
        raise ArgumentError(f"mode {mode} out of range for {g.modes} modes")
    q = slice(2 * mode, 2 * mode + 2)
    return GaussianData(g.X[q], g.sigma[q, q])


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _ladder(t: np.ndarray, axis: int, lower: bool) -> np.ndarray:
    """a (lower) or a^dag along one axis of a tensor; the top level is cropped."""
    d = t.shape[axis]
    out = np.zeros_like(t)
    high, low = [slice(None)] * t.ndim, [slice(None)] * t.ndim
    high[axis], low[axis] = slice(1, d), slice(0, d - 1)
    src, dst = (high, low) if lower else (low, high)
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
    """t with pad zero levels appended on every axis (np.pad costs 20x more here)."""
    out = np.zeros(tuple(n + pad for n in t.shape), dtype=t.dtype)
    out[tuple(slice(0, n) for n in t.shape)] = t
    return out


def moments(state: State) -> GaussianData:
    """X_j = <R_j> and sigma_kj = <{R_k, R_j}>/2 - <R_k><R_j>.

    Operators are built with two extra levels of headroom so second-moment
    products are exact on the state's support; only states that genuinely
    occupy the top Fock levels see truncation noise elsewhere.
    """
    if state.modes > 2:
        raise ArgumentError("moments are implemented for 1- and 2-mode states")
    tol = tolerances()
    if state.leakage > tol.leak_max:
        raise TruncationError(
            f"state leakage {state.leakage:.3e} exceeds leak_max {tol.leak_max:.1e}; "
            "moments of a leaking state are untrustworthy")

    n = 2 * state.modes
    if isinstance(state, FockStateVector):
        t = _pad_tensor(state.as_tensor(), 2)
        vecs = []
        for m in range(state.modes):
            axis = state.modes - 1 - m
            av = _ladder(t, axis, lower=True)
            cv = _ladder(t, axis, lower=False)
            vecs.append((av + cv) / np.sqrt(2))
            vecs.append(-1j * (av - cv) / np.sqrt(2))
        flat = t.ravel()
        X = np.array([np.real(np.vdot(flat, v.ravel())) for v in vecs])
        E = np.empty((n, n), dtype=complex)
        for k in range(n):
            for j in range(n):
                E[k, j] = np.vdot(vecs[k].ravel(), vecs[j].ravel())
    else:
        dp = state.cutoff + 2
        t = state.matrix.reshape((state.cutoff,) * (2 * state.modes))
        padded = _pad_tensor(t, 2).reshape(dp ** state.modes, dp ** state.modes)
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

def h(x: float) -> float:
    """(x+1/2)log(x+1/2) - (x-1/2)log(x-1/2), the Gaussian entropy kernel."""
    tol = tolerances()
    if x < 0.5 - tol.symp:
        raise NumericalValidityError(f"h(x) requires x >= 1/2, got {x}")
    if x <= 0.5:
        return 0.0
    u, v = x + 0.5, x - 0.5
    return u * math.log(u) - v * math.log(v)


def symplectic_eigenvalues(g: GaussianData) -> np.ndarray:
    """Ascending symplectic eigenvalues d_k, one per mode, of a 1- or 2-mode CM:
    sqrt(det sigma) for one mode, the local symplectic invariants for two."""
    tol = tolerances()
    if g.modes == 1:
        det = float(np.linalg.det(g.sigma))
        if det < 0:
            raise NumericalValidityError("covariance matrix has negative determinant")
        d = np.array([math.sqrt(det)])
    elif g.modes == 2:
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
        d = np.array([math.sqrt(lo), math.sqrt(hi)])
    else:
        raise ArgumentError("symplectic spectrum implemented for 1- and 2-mode CMs")
    if not d[0] >= 0.5 - tol.symp:   # NaN fails the check
        raise NumericalValidityError(
            f"symplectic eigenvalue {d[0]} violates the uncertainty bound 1/2")
    return d


def gaussian_entropy(g: GaussianData) -> float:
    """Entropy sum_k h(d_k) of the Gaussian state with the given moments."""
    return float(sum(h(d) for d in symplectic_eigenvalues(g)))


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


def _off_diagonal_pair(upper: np.ndarray, lower: np.ndarray, offset: int):
    """COO entries (values, (rows, cols)): upper[k] at (k, k+offset), lower[k] at (k+offset, k)."""
    k = np.arange(upper.size)
    return (np.concatenate([upper, lower]),
            (np.concatenate([k, k + offset]), np.concatenate([k + offset, k])))


def _displacement_entries(alpha: complex, dim: int):
    """COO entries of alpha a^dag - alpha* a, equal to the dense products bit for bit."""
    root = np.sqrt(np.arange(1, dim))
    return _off_diagonal_pair(-(np.conj(alpha) * root), alpha * root, 1)


def _squeeze_entries(r: float, phi: float, dim: int):
    """COO entries of (1/2)(zeta a^2 - zeta* a^dag^2), zeta = r e^{i phi}.

    The products are associated as in the dense (zeta a) @ a and
    (zeta* a^dag) @ a^dag, so the entries equal the dense ones bit for bit.
    """
    zeta = r * np.exp(1j * phi)
    k = np.arange(max(dim - 2, 0))
    r1, r2 = np.sqrt(k + 1), np.sqrt(k + 2)
    return _off_diagonal_pair(0.5 * ((zeta * r1) * r2), -0.5 * ((np.conj(zeta) * r2) * r1), 2)


def _dense(entries, dim: int) -> np.ndarray:
    """The dim x dim array of COO entries; for the small blocks of the synthesis
    this costs a tenth of building a scipy.sparse matrix and expanding it."""
    values, index = entries
    out = np.zeros((dim, dim), dtype=complex)
    out[index] = values
    return out


# scipy is imported inside the four functions below, not at module level:
# scipy.sparse or scipy.linalg each add about 0.3 s to a one-shot CLI process
# (2-core VM), against 0.2 s for the rest of ``import nongauss``, and most
# processes never build a generator or call expm.

def displacement_generator(alpha: complex, dim: int) -> scipy.sparse.csr_array:
    """alpha a^dag - alpha* a on a dim-level mode, as a sparse matrix;
    scipy.sparse is imported on the first call."""
    import scipy.sparse
    return scipy.sparse.csr_array(_displacement_entries(alpha, dim), shape=(dim, dim))


def squeeze_generator(r: float, phi: float, dim: int) -> scipy.sparse.csr_array:
    """(1/2)(zeta a^2 - zeta* a^dag^2), zeta = r e^{i phi}, on a dim-level mode,
    as a sparse matrix; scipy.sparse is imported on the first call."""
    import scipy.sparse
    return scipy.sparse.csr_array(_squeeze_entries(r, phi, dim), shape=(dim, dim))


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on a dim-level mode, by
    scipy.linalg.expm (imported on the first call)."""
    import scipy.linalg
    return scipy.linalg.expm(_dense(_displacement_entries(alpha, dim), dim))


def squeeze_matrix(r: float, phi: float, dim: int) -> np.ndarray:
    """S(r, phi) = exp((r/2)(e^{i phi} a^2 - e^{-i phi} a^dag^2)), by
    scipy.linalg.expm (imported on the first call)."""
    import scipy.linalg
    return scipy.linalg.expm(_dense(_squeeze_entries(r, phi, dim), dim))


def thermal_weights(n_th: float, dim: int) -> np.ndarray:
    """Photon-number distribution of nu(n_th), computed in log space."""
    if n_th <= 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    k = np.arange(dim)
    return np.exp(k * math.log(n_th / (1.0 + n_th)) - math.log(1.0 + n_th))


def gaussian_fock_block(params: SingleModeGaussianParams,
                        cutoff: int) -> tuple[np.ndarray, float]:
    """Top-left cutoff x cutoff block of D S nu S^dag D^dag, not renormalized.

    Exact at the cutoff, with no enlarged internal cutoff and no matrix
    exponential: the entries follow from the Hermite recursion of the state's
    generating function (Quesada, J. Chem. Phys. 150, 164113 (2019); Miatto &
    Quesada, Quantum 4, 366 (2020)).  With y = (z*, w),
    (z|tau|w) = exp(y^T A y / 2 + gamma^T y + c), where Q = sigma_c + I/2 for the
    complex CM sigma_c in the (a, a^dag) basis, P = [[0, 1], [1, 0]],
    M = Q^-1 P, A = P - M, y0 = (alpha*, alpha), gamma = M y0 and
    c = -y0^T M y0 / 2 - ln(det Q) / 2.  Then tau_00 = e^c and
    sqrt(k_i + 1) tau_{k + e_i} = gamma_i tau_k + sum_j A_ij sqrt(k_j) tau_{k - e_j}.
    Returns (block, trace deficit); the block alone is what overlaps against
    states supported below the cutoff need, however much of the Gaussian's own
    mass lies above it.  Raises NumericalValidityError where tau_00 = e^c is
    not a normal double (|alpha|^2 beyond ~700), rather than return zeros.
    """
    s = _cm_from_params(params)
    diag = 0.5 * (s[0, 0] + s[1, 1]) + 0.5                    # Q = [[diag, off], [off*, diag]]
    off = 0.5 * complex(s[0, 0] - s[1, 1], 2.0 * s[0, 1])
    det = diag * diag - abs(off) ** 2
    m = np.array([[-off, diag], [diag, -off.conjugate()]]) / det   # Q^-1 P, symmetric
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) - m
    y0 = np.array([params.alpha.conjugate(), params.alpha])
    gamma = m @ y0
    c = -0.5 * float(np.real(y0 @ gamma)) - 0.5 * math.log(det)
    tau00 = math.exp(c)
    if not tau00 >= np.finfo(float).tiny:
        raise NumericalValidityError(
            f"vacuum element e^{c:.1f} of the Gaussian {params} is not a normal double")

    root = np.sqrt(np.arange(cutoff))
    tau = np.zeros((cutoff, cutoff), dtype=complex)
    tau[0, 0] = tau00
    for n in range(1, cutoff):
        prev2 = a[1, 1] * root[n - 1] * tau[0, n - 2] if n >= 2 else 0.0
        tau[0, n] = (gamma[1] * tau[0, n - 1] + prev2) / root[n]
    for k in range(1, cutoff):
        row = gamma[0] * tau[k - 1]
        if k >= 2:
            row += a[0, 0] * root[k - 1] * tau[k - 2]
        row[1:] += a[0, 1] * root[1:] * tau[k - 1, :-1]
        tau[k] = row / root[k]
    tau = 0.5 * (tau + tau.conj().T)
    deficit = max(1.0 - float(np.real(np.trace(tau))), 0.0)
    return tau, deficit


def synthesize_single_mode_gaussian(params: SingleModeGaussianParams,
                                    cutoff: int) -> DensityMatrix:
    """Normalized Fock-basis Gaussian state D S nu S^dag D^dag cropped to the cutoff."""
    block, deficit = gaussian_fock_block(params, cutoff)
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
