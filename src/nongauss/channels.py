"""Single-mode evolutions (loss, phase diffusion, Kerr) and Gaussian unitaries.

Beam-splitter convention: generator theta (a0^dag a1 - a0 a1^dag), a real
orthogonal mixing.  At theta = pi/4, |1,0> -> (|1,0> - |0,1>)/sqrt(2); all
protocol observables used here depend only on |amplitude|^2, so the sign
convention is safe once fixed.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .config import tolerances
from .errors import ArgumentError, TruncationError
from .fock import DensityMatrix, FockStateVector, State, as_density
from .gaussian import displacement_generator, squeeze_generator

__all__ = [
    "ChannelSpec", "loss", "loss_transition_matrix", "phase_diffusion", "kerr",
    "displace", "squeeze", "beam_split", "apply_channel",
]


# ---------------------------------------------------------------------------
# channel description
# ---------------------------------------------------------------------------

# ChannelSpec kind -> the operation of this module it names
_OPERATIONS = {"loss": "loss", "phase_diffusion": "phase_diffusion", "kerr": "kerr",
               "displace": "displace", "squeeze": "squeeze", "beamsplit": "beam_split"}


@dataclass(frozen=True)
class ChannelSpec:
    """One operation of this module by name, with its keyword arguments:

        loss             eta in [0, 1]
        phase_diffusion  delta >= 0
        kerr             gamma
        displace         alpha, mode=0
        squeeze          r, phi=0.0, mode=0
        beamsplit        theta=pi/4, modes=(0, 1)

    ChannelSpec("squeeze", {"r": 0.4, "phi": 0.3}) stands for
    squeeze(state, r=0.4, phi=0.3).  The parameters are checked here, not only
    when applied: ng_of_map never applies a Gaussian kind.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        k, p = self.kind, self.params
        if k not in _OPERATIONS:
            raise ArgumentError(f"unknown channel kind {k!r}; kinds: {', '.join(_OPERATIONS)}")
        try:
            inspect.signature(globals()[_OPERATIONS[k]]).bind(None, **p)
        except TypeError as exc:
            raise ArgumentError(f"{k}: {exc}") from None
        for key, value in p.items():
            # (numpy dtype kinds, shape, name) each parameter must have
            kinds, shape, what = {"mode": ("biu", (), "an integer"),
                                  "modes": ("biu", (2,), "a pair of integers"),
                                  "alpha": ("biufc", (), "a finite complex number")
                                  }.get(key, ("biuf", (), "a finite real number"))
            arr = np.asarray(value)
            if arr.dtype.kind not in kinds or arr.shape != shape or not np.all(np.isfinite(arr)):
                raise ArgumentError(f"{k}: {key} = {value!r} is not {what}")
        if k == "loss" and not 0.0 <= p["eta"] <= 1.0:
            raise ArgumentError("loss requires eta in [0, 1]")
        if k == "phase_diffusion" and not p["delta"] >= 0:
            raise ArgumentError("phase diffusion requires delta >= 0")

    @property
    def is_gaussian(self) -> bool:
        """True for the kinds that map every Gaussian state to a Gaussian state."""
        return self.kind not in ("phase_diffusion", "kerr")

    @staticmethod
    def loss(eta: float) -> "ChannelSpec":
        return ChannelSpec("loss", {"eta": float(eta)})

    @staticmethod
    def phase_diffusion(delta: float) -> "ChannelSpec":
        return ChannelSpec("phase_diffusion", {"delta": float(delta)})

    @staticmethod
    def kerr(gamma: float) -> "ChannelSpec":
        return ChannelSpec("kerr", {"gamma": float(gamma)})


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


def loss(state: State, eta: float) -> DensityMatrix:
    """Zero-temperature damping: rho -> sum_m V_m rho V_m^dag at fixed eta = e^{-gamma t}.

    The Kraus sum is finite in truncated space, so the map is exact within
    truncation and trace-preserving by construction.
    """
    rho = as_density(state)
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

def phase_diffusion(state: State, delta: float) -> DensityMatrix:
    """rho_nm -> exp(-Delta^2 (n-m)^2) rho_nm; diagonals (and energy) untouched."""
    rho = as_density(state)
    if rho.modes != 1:
        raise ArgumentError("phase diffusion is a single-mode channel")
    if not delta >= 0:
        raise ArgumentError("delta must be >= 0")
    n = np.arange(rho.cutoff)
    kernel = np.exp(-(delta ** 2) * np.subtract.outer(n, n) ** 2)
    return DensityMatrix(1, rho.cutoff, rho.matrix * kernel, leakage=rho.leakage)


def kerr(state: State, gamma: float) -> State:
    """Self-Kerr unitary exp(-i gamma (a^dag a)^2) on a single-mode state."""
    if state.modes != 1:
        raise ArgumentError("kerr is a single-mode channel")
    d = state.cutoff
    u = np.exp(-1j * gamma * np.arange(d) ** 2)
    if isinstance(state, FockStateVector):
        return FockStateVector(1, d, state.amplitudes * u, leakage=state.leakage)
    return DensityMatrix(1, d, (u[:, None] * state.matrix) * u.conj()[None, :],
                         leakage=state.leakage)


# ---------------------------------------------------------------------------
# Gaussian unitaries
# ---------------------------------------------------------------------------

def _apply_local_unitary(state: State, act, modes: tuple[int, ...], name: str) -> State:
    """Apply a unitary on `modes`, crop it to the cutoff and renormalize.

    `act(t, axes, conj)` applies the unitary's cutoff-sized block (its complex
    conjugate if `conj`) to the given axes of a state tensor.  The mass pushed
    past the cutoff is the leakage: 1 - ||psi||^2 for a vector, 1 - tr for a
    density matrix, carried forward in the result's `leakage`.
    """
    m, d = state.modes, state.cutoff
    if len(set(modes)) != len(modes) or not all(0 <= k < m for k in modes):
        raise ArgumentError(f"{name}: invalid modes {modes} for a {m}-mode state")
    ket = tuple(m - 1 - k for k in modes)   # mode k sits on axis m-1-k
    if isinstance(state, FockStateVector):
        t = act(state.as_tensor(), ket, False)
        kept = float(np.real(np.vdot(t, t)))
    else:
        t = act(state.matrix.reshape((d,) * (2 * m)), ket, False)
        t = act(t, tuple(ax + m for ax in ket), True).reshape(d ** m, d ** m)
        kept = float(np.real(np.trace(t)))
    leak = max(1.0 - kept, 0.0)
    if leak > tolerances().leak_max:
        raise TruncationError(
            f"{name}: leakage {leak:.3e} beyond leak_max; increase the cutoff")
    if isinstance(state, FockStateVector):
        return FockStateVector(m, d, t.ravel() / math.sqrt(kept), leakage=state.leakage + leak)
    t = t / kept
    return DensityMatrix(m, d, 0.5 * (t + t.conj().T), leakage=state.leakage + leak)


# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), table 3.1:
# m Taylor terms of exp(A) reach double precision while ||A||_1 <= theta_m
_TAYLOR_THETA = {5: 2.4e-3, 10: 1.44e-1, 15: 6.41e-1, 20: 1.44, 25: 2.43, 30: 3.54,
                 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


def _exp_action(gen, b: np.ndarray) -> np.ndarray:
    """exp(gen) @ b for a sparse gen and a 2-D b, without forming exp(gen).

    Al-Mohy & Higham's algorithm 3.2: s steps of exp(gen/s), each an m-term
    Taylor series cut off once two successive terms fall below double
    precision of the sum, with m * s minimal subject to ||gen||_1 / s <=
    theta_m.  scipy.sparse.linalg.expm_multiply runs the same scheme but
    estimates norms of powers of gen from random vectors drawn from NumPy's
    global RNG, which advances that RNG and moved results by up to 3e-12
    between draws on random inputs; the exact 1-norm of gen keeps this
    deterministic.
    """
    norm = float(abs(gen).sum(axis=0).max())
    m, s = min(((m, max(1, math.ceil(norm / theta))) for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])

    def size(x):   # max-norm of the real and imaginary parts
        return float(np.max(np.abs(x.view(float))))

    f = b.copy()
    for _ in range(s):
        c1 = size(b)
        for j in range(1, m + 1):
            b = gen @ b
            b /= s * j
            c2 = size(b)
            f += b
            if c1 + c2 <= 2.0 ** -53 * size(f):
                break
            c1 = c2
        b = f
    return f


def _generator_action(gen):
    """Action of exp(gen) on one tensor axis, exp(gen*) on the bra side: the axis
    is padded with zero levels to gen's dimension, acted on and cropped back."""
    def act(t, axes, conj):
        (ax,) = axes
        d = t.shape[ax]
        moved = np.moveaxis(t, ax, 0)
        b = np.zeros((gen.shape[0], moved[0].size), dtype=complex)
        b[:d] = moved.reshape(d, -1)
        out = _exp_action(gen.conj() if conj else gen, b)[:d]
        return np.moveaxis(out.reshape(moved.shape), 0, ax)
    return act


def displace(state: State, alpha: complex, mode: int = 0) -> State:
    """D(alpha) on one mode, cropped to the cutoff and renormalized.

    The generator G = alpha a^dag - alpha* a lives on d_int = d + max(20,
    2|alpha|^2 + 6|alpha| sqrt(d)) levels, so its truncation stays far from the
    returned d levels.  exp(G) acts on the state directly, with no d_int x d_int
    matrix formed: O(||G||_1 + 10) products of the sparse G with the state's
    columns, ||G||_1 ~ 2|alpha| sqrt(d_int), each 2 d_int multiply-adds per
    column; an m-mode vector has d^(m-1) columns, a density 2 d^(2m-1).
    """
    if not np.isfinite(alpha):
        raise ArgumentError(f"displace needs a finite alpha, got {alpha!r}")
    d = state.cutoff
    a = abs(alpha)
    d_int = d + max(20, int(math.ceil(2 * a * a + 6 * a * math.sqrt(d))))
    return _apply_local_unitary(state, _generator_action(displacement_generator(alpha, d_int)),
                                (mode,), f"displace({alpha})")


def squeeze(state: State, r: float, phi: float = 0.0, mode: int = 0) -> State:
    """S(r, phi) on one mode, cropped to the cutoff and renormalized.

    The generator G = (1/2)(zeta a^2 - zeta* a^dag^2) lives on d_int =
    ceil(d cosh 2r) + 20 levels.  exp(G) acts on the state directly, with no
    d_int x d_int matrix formed: O(||G||_1 + 10) products of the sparse G with
    the state's columns, ||G||_1 ~ r d_int (470 products at d = 96, r = 1),
    each 2 d_int multiply-adds per column; an m-mode vector has d^(m-1)
    columns, a density 2 d^(2m-1).  A vector thus costs O(r d_int^2), where
    the dense unitary cost O(d_int^3), and a density d^(2m-1) times more.
    """
    if not (np.isfinite(r) and np.isfinite(phi)):
        raise ArgumentError(f"squeeze needs finite r and phi, got r = {r!r}, phi = {phi!r}")
    d = state.cutoff
    d_int = int(math.ceil(d * math.cosh(2 * r))) + 20
    return _apply_local_unitary(state, _generator_action(squeeze_generator(r, phi, d_int)),
                                (mode,), f"squeeze({r}, {phi})")


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
    """Beam splitter on a mode pair (m0, m1), cropped to the cutoff; the mass it
    moves past the cutoff is the leakage."""
    # real orthogonal, so the bra side (conj) gets the same action
    return _apply_local_unitary(
        state, lambda t, axes, conj: apply_beam_splitter_tensor(t, theta, *axes),
        tuple(modes), f"beamsplit({theta})")


def apply_channel(state: State, spec: ChannelSpec) -> State:
    """spec's operation applied to state.  The operation is looked up by name
    at each call, so a wrapper put in its place on this module sees the call."""
    return globals()[_OPERATIONS[spec.kind]](state, **spec.params)
