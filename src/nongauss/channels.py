"""Single-mode evolutions (loss, phase diffusion, Kerr) and Gaussian unitaries.

Beam-splitter convention: generator theta (a0^dag a1 - a0 a1^dag), a real
orthogonal mixing.  At theta = pi/4, |1,0> -> (|1,0> - |0,1>)/sqrt(2); all
protocol observables used here depend only on |amplitude|^2, so the sign
convention is safe once fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .config import tolerances
from .errors import ArgumentError, TruncationError
from .fock import DensityMatrix, FockStateVector, State
from .gaussian import displacement_matrix, squeeze_matrix

__all__ = [
    "ChannelSpec", "loss", "loss_transition_matrix", "phase_diffusion", "kerr",
    "displace", "squeeze", "beam_split", "gaussian_unitary", "apply_channel",
]


# ---------------------------------------------------------------------------
# channel description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSpec:
    """Tagged description of one of the supported evolutions."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        k, p = self.kind, self.params
        if k == "loss":
            if not 0.0 <= p.get("eta", -1) <= 1.0:
                raise ArgumentError("loss requires eta in [0, 1]")
        elif k == "phase_diffusion":
            if p.get("delta", -1) < 0:
                raise ArgumentError("phase diffusion requires delta >= 0")
        elif k == "kerr":
            if "gamma" not in p:
                raise ArgumentError("kerr requires gamma")
        elif k == "gaussian_unitary":
            if "generator" not in p:
                raise ArgumentError("gaussian_unitary requires a generator tuple")
        else:
            raise ArgumentError(f"unknown channel kind {k!r}")

    @staticmethod
    def loss(eta: float) -> "ChannelSpec":
        return ChannelSpec("loss", {"eta": float(eta)})

    @staticmethod
    def phase_diffusion(delta: float) -> "ChannelSpec":
        return ChannelSpec("phase_diffusion", {"delta": float(delta)})

    @staticmethod
    def kerr(gamma: float) -> "ChannelSpec":
        return ChannelSpec("kerr", {"gamma": float(gamma)})

    @staticmethod
    def gaussian_unitary(*generator) -> "ChannelSpec":
        return ChannelSpec("gaussian_unitary", {"generator": tuple(generator)})


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def loss_transition_matrix(eta: float, dim: int) -> np.ndarray:
    """T[l, p] = alpha_{l,p}(eta) = C(p, l) (1-eta)^(p-l) eta^l for l <= p.

    The same binomial table describes the loss map (|p> ends in |l| with
    weight alpha_{l,p}) and the inefficient-detector POVM (Pi_m weights
    |s><s| by alpha_{m,s}); log-space evaluation keeps it stable at large p.
    """
    if not 0.0 <= eta <= 1.0:
        raise ArgumentError("eta must lie in [0, 1]")
    if eta == 1.0:
        return np.eye(dim)
    t = np.zeros((dim, dim))
    if eta == 0.0:
        t[0, :] = 1.0
        return t
    ps = np.arange(dim)
    for l in range(dim):
        pk = ps[l:].astype(float)
        logw = (gammaln(pk + 1) - gammaln(l + 1) - gammaln(pk - l + 1)
                + (pk - l) * math.log(1.0 - eta) + l * math.log(eta))
        t[l, l:] = np.exp(logw)
    return t


def loss(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Zero-temperature damping: rho -> sum_m V_m rho V_m^dag at fixed eta = e^{-gamma t}.

    The Kraus sum is finite in truncated space, so the map is exact within
    truncation and trace-preserving by construction.
    """
    if rho.modes != 1:
        raise ArgumentError("loss is a single-mode channel")
    if not 0.0 <= eta <= 1.0:
        raise ArgumentError("eta must lie in [0, 1]")
    d = rho.cutoff
    amp = np.sqrt(loss_transition_matrix(eta, d))  # amp[l, p] = |<l|V_{p-l}|p>|
    out = np.zeros((d, d), dtype=complex)
    mat = rho.matrix
    for m in range(d):
        pr = np.arange(m, d)
        k = amp[pr - m, pr]  # diagonal of V_m in the shifted basis
        out[:d - m, :d - m] += (k[:, None] * mat[np.ix_(pr, pr)] * k[None, :])
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(1, d, out, leakage=rho.leakage)


# ---------------------------------------------------------------------------
# phase diffusion and Kerr
# ---------------------------------------------------------------------------

def phase_diffusion(rho: DensityMatrix, delta: float) -> DensityMatrix:
    """rho_nm -> exp(-Delta^2 (n-m)^2) rho_nm; diagonals (and energy) untouched."""
    if rho.modes != 1:
        raise ArgumentError("phase diffusion is a single-mode channel")
    if delta < 0:
        raise ArgumentError("delta must be >= 0")
    n = np.arange(rho.cutoff)
    kernel = np.exp(-(delta ** 2) * np.subtract.outer(n, n) ** 2)
    return DensityMatrix(1, rho.cutoff, rho.matrix * kernel, leakage=rho.leakage)


def kerr(psi: FockStateVector, gamma: float) -> FockStateVector:
    """Self-Kerr unitary exp(-i gamma (a^dag a)^2) on a pure single-mode state."""
    if psi.modes != 1:
        raise ArgumentError("kerr acts on single-mode pure states")
    n = np.arange(psi.cutoff)
    return FockStateVector(1, psi.cutoff, psi.amplitudes * np.exp(-1j * gamma * n ** 2))


def _kerr_density(rho: DensityMatrix, gamma: float) -> DensityMatrix:
    n = np.arange(rho.cutoff)
    u = np.exp(-1j * gamma * n ** 2)
    return DensityMatrix(1, rho.cutoff, (u[:, None] * rho.matrix) * u.conj()[None, :],
                         leakage=rho.leakage)


# ---------------------------------------------------------------------------
# Gaussian unitaries
# ---------------------------------------------------------------------------

def _apply_single_mode_unitary_vector(psi: FockStateVector, u_int: np.ndarray,
                                      mode: int, name: str) -> FockStateVector:
    d, d_int = psi.cutoff, u_int.shape[0]
    t = psi.as_tensor()
    axis = psi.modes - 1 - mode
    pad = [(0, 0)] * psi.modes
    pad[axis] = (0, d_int - d)
    t = np.pad(t, pad)
    t = np.moveaxis(np.tensordot(u_int, t, axes=(1, axis)), 0, axis)
    sl = [slice(None)] * psi.modes
    sl[axis] = slice(0, d)
    t = t[tuple(sl)]
    nrm2 = float(np.real(np.vdot(t, t)))
    leak = max(1.0 - nrm2, 0.0)
    if leak > tolerances().leak_max:
        raise TruncationError(
            f"{name}: leakage {leak:.3e} beyond leak_max; increase the cutoff")
    return FockStateVector(psi.modes, d, t.ravel() / math.sqrt(nrm2))


def _apply_single_mode_unitary_density(rho: DensityMatrix, u_int: np.ndarray,
                                       mode: int, name: str) -> DensityMatrix:
    d, d_int = rho.cutoff, u_int.shape[0]
    m = rho.modes
    t = rho.matrix.reshape((d,) * (2 * m))
    row_axis = m - 1 - mode
    col_axis = 2 * m - 1 - mode
    pad = [(0, 0)] * (2 * m)
    pad[row_axis] = pad[col_axis] = (0, d_int - d)
    t = np.pad(t, pad)
    t = np.moveaxis(np.tensordot(u_int, t, axes=(1, row_axis)), 0, row_axis)
    t = np.moveaxis(np.tensordot(u_int.conj(), t, axes=(1, col_axis)), 0, col_axis)
    sl = [slice(None)] * (2 * m)
    sl[row_axis] = sl[col_axis] = slice(0, d)
    t = t[tuple(sl)].reshape(d ** m, d ** m)
    tr = float(np.real(np.trace(t)))
    leak = max(1.0 - tr, 0.0)
    if leak > tolerances().leak_max:
        raise TruncationError(
            f"{name}: leakage {leak:.3e} beyond leak_max; increase the cutoff")
    t = t / tr
    return DensityMatrix(m, d, 0.5 * (t + t.conj().T), leakage=rho.leakage + leak)


def _apply_single_mode_unitary(state: State, u_int, mode, name):
    if isinstance(state, FockStateVector):
        return _apply_single_mode_unitary_vector(state, u_int, mode, name)
    return _apply_single_mode_unitary_density(state, u_int, mode, name)


def displace(state: State, alpha: complex, mode: int = 0) -> State:
    d = state.cutoff
    a = abs(alpha)
    d_int = d + max(20, int(math.ceil(2 * a * a + 6 * a * math.sqrt(d))))
    return _apply_single_mode_unitary(state, displacement_matrix(alpha, d_int),
                                      mode, f"displace({alpha})")


def squeeze(state: State, r: float, phi: float = 0.0, mode: int = 0) -> State:
    d = state.cutoff
    d_int = int(math.ceil(d * math.cosh(2 * r))) + 20
    return _apply_single_mode_unitary(state, squeeze_matrix(r, phi, d_int),
                                      mode, f"squeeze({r}, {phi})")


def _bs_blocks(theta: float, nmax: int):
    """Yield the fixed-total beam-splitter blocks U_N[i, k] = <i, N-i|U|k, N-k>
    for N = 0 ... nmax, one at a time.

    With c, s = cos(theta), sin(theta), U a0^dag U^dag = c a0^dag - s a1^dag and
    U a1^dag U^dag = s a0^dag + c a1^dag.  Writing |k, N-k> as a0^dag|k-1, N-k>
    and as a1^dag|k, N-k-1> gives two recursions from U = U_{N-1}; their
    average with weights k/N and (N-k)/N,

        N U_N[i, k] = sqrt(k) (c sqrt(i) U[i-1, k-1] - s sqrt(N-i) U[i, k-1])
                      + sqrt(N-k) (s sqrt(i) U[i-1, k] + c sqrt(N-i) U[i, k]),

    is non-expansive, so rounding grows at most linearly in N (either one-sided
    recursion alone amplifies it exponentially).
    """
    c, s = math.cos(theta), math.sin(theta)
    u = np.ones((1, 1))
    yield u
    for n in range(1, nmax + 1):
        z = np.zeros((n + 2, n + 2))
        z[1:-1, 1:-1] = u
        root_i = np.sqrt(np.arange(n + 1))
        root_ni = root_i[::-1]       # sqrt(N - i)
        ri, rni = root_i[:, None], root_ni[:, None]
        u = (root_i * (c * ri * z[:-1, :-1] - s * rni * z[1:, :-1])
             + root_ni * (s * ri * z[:-1, 1:] + c * rni * z[1:, 1:])) / n
        yield u


def apply_beam_splitter_tensor(t: np.ndarray, theta: float,
                               axis0: int, axis1: int) -> np.ndarray:
    """Apply the BS unitary to two axes of an amplitude tensor, block by block.

    Blocks of fixed total photon number N <= d0 + d1 - 2 are closed; a block
    the axes cut is applied as the crop of the exact block, so on axes large
    enough to hold the output the action is exact.
    """
    d0, d1 = t.shape[axis0], t.shape[axis1]
    out = np.zeros_like(t)
    src = np.moveaxis(t, (axis0, axis1), (0, 1))
    dst = np.moveaxis(out, (axis0, axis1), (0, 1))
    for total, block in enumerate(_bs_blocks(theta, d0 + d1 - 2)):
        klo = max(0, total - (d1 - 1))
        khi = min(total, d0 - 1)
        ks = np.arange(klo, khi + 1)
        dst[ks, total - ks] = np.tensordot(block[klo:khi + 1, klo:khi + 1],
                                           src[ks, total - ks], axes=(1, 0))
    return out


def beam_split(state: State, theta: float = math.pi / 4,
               modes: tuple[int, int] = (0, 1)) -> State:
    """Beam splitter on a mode pair; internally enlarged so no block is clipped."""
    m0, m1 = modes
    d = state.cutoff
    d_int = 2 * d - 1
    nmodes = state.modes
    if m0 == m1 or not (0 <= m0 < nmodes and 0 <= m1 < nmodes):
        raise ArgumentError(f"invalid beam-splitter modes {modes}")

    if isinstance(state, FockStateVector):
        t = state.as_tensor()
        pad = [(0, 0)] * nmodes
        ax0, ax1 = nmodes - 1 - m0, nmodes - 1 - m1
        pad[ax0] = pad[ax1] = (0, d_int - d)
        t = np.pad(t, pad)
        t = apply_beam_splitter_tensor(t, theta, ax0, ax1)
        sl = [slice(None)] * nmodes
        sl[ax0] = sl[ax1] = slice(0, d)
        t = t[tuple(sl)]
        nrm2 = float(np.real(np.vdot(t, t)))
        leak = max(1.0 - nrm2, 0.0)
        if leak > tolerances().leak_max:
            raise TruncationError(f"beamsplit: leakage {leak:.3e} beyond leak_max")
        return FockStateVector(nmodes, d, t.ravel() / math.sqrt(nrm2))

    t = state.matrix.reshape((d,) * (2 * nmodes))
    rax0, rax1 = nmodes - 1 - m0, nmodes - 1 - m1
    cax0, cax1 = 2 * nmodes - 1 - m0, 2 * nmodes - 1 - m1
    pad = [(0, 0)] * (2 * nmodes)
    for ax in (rax0, rax1, cax0, cax1):
        pad[ax] = (0, d_int - d)
    t = np.pad(t, pad)
    t = apply_beam_splitter_tensor(t, theta, rax0, rax1)
    t = apply_beam_splitter_tensor(t, theta, cax0, cax1)  # real orthogonal: conj = itself
    sl = [slice(None)] * (2 * nmodes)
    for ax in (rax0, rax1, cax0, cax1):
        sl[ax] = slice(0, d)
    t = t[tuple(sl)].reshape(d ** nmodes, d ** nmodes)
    tr = float(np.real(np.trace(t)))
    leak = max(1.0 - tr, 0.0)
    if leak > tolerances().leak_max:
        raise TruncationError(f"beamsplit: leakage {leak:.3e} beyond leak_max")
    t = t / tr
    return DensityMatrix(nmodes, d, 0.5 * (t + t.conj().T), leakage=state.leakage + leak)


def gaussian_unitary(state: State, generator: tuple) -> State:
    """Dispatch ('displace', alpha[, mode]) | ('squeeze', r, phi[, mode]) |
    ('beamsplit', theta, (m0, m1))."""
    kind = generator[0]
    if kind == "displace":
        alpha = complex(generator[1])
        mode = int(generator[2]) if len(generator) > 2 else 0
        return displace(state, alpha, mode)
    if kind == "squeeze":
        r = float(generator[1])
        phi = float(generator[2]) if len(generator) > 2 else 0.0
        mode = int(generator[3]) if len(generator) > 3 else 0
        return squeeze(state, r, phi, mode)
    if kind == "beamsplit":
        theta = float(generator[1])
        modes = tuple(generator[2]) if len(generator) > 2 else (0, 1)
        return beam_split(state, theta, modes)
    raise ArgumentError(f"unknown Gaussian-unitary generator {kind!r}")


def apply_channel(state: State, spec: ChannelSpec) -> State:
    if spec.kind == "loss":
        return loss(state if isinstance(state, DensityMatrix) else state.density(),
                    spec.params["eta"])
    if spec.kind == "phase_diffusion":
        return phase_diffusion(state if isinstance(state, DensityMatrix) else state.density(),
                               spec.params["delta"])
    if spec.kind == "kerr":
        if isinstance(state, FockStateVector):
            return kerr(state, spec.params["gamma"])
        return _kerr_density(state, spec.params["gamma"])
    if spec.kind == "gaussian_unitary":
        return gaussian_unitary(state, spec.params["generator"])
    raise ArgumentError(f"unknown channel kind {spec.kind!r}")
