"""Single-mode evolutions (loss, phase diffusion, Kerr) and Gaussian unitaries.

Beam-splitter convention: generator theta (a0^dag a1 - a0 a1^dag), a real
orthogonal mixing.  At theta = pi/4, |1,0> -> (|1,0> - |0,1>)/sqrt(2); all
protocol observables used here depend only on |amplitude|^2, so the sign
convention is safe once fixed.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import ArgumentError, NumericalValidityError, TruncationError
from .fock import DensityMatrix, FockStateVector, State, _log_factorials, as_density
from .gaussian import GaussianData, _refuse_leaking

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

# parameter annotation -> (numpy dtype kinds, shape, description) of the values it admits
_ADMITS = {int: ("biu", (), "an integer"), float: ("biuf", (), "a finite real number"),
           complex: ("biufc", (), "a finite complex number"),
           tuple[int, int]: ("biu", (2,), "a pair of integers")}


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    """fn's signature with its annotations evaluated (about 15 us a parameter)."""
    return inspect.signature(fn, eval_str=True)


@dataclass(frozen=True)
class ChannelSpec:
    """One operation of this module by kind, a key of _OPERATIONS, with its
    keyword arguments: ChannelSpec("squeeze", {"r": 0.4, "phi": 0.3}) stands for
    squeeze(state, r=0.4, phi=0.3).  The arguments are checked here, by the
    operation's signature, not only when applied: ng_of_map never applies a
    Gaussian kind.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        k, p = self.kind, self.params
        if k not in _OPERATIONS:
            raise ArgumentError(f"unknown channel kind {k!r}; kinds: {', '.join(_OPERATIONS)}")
        signature = _signature(globals()[_OPERATIONS[k]])
        try:
            signature.bind(None, **p)
        except TypeError as exc:
            raise ArgumentError(f"{k}: {exc}") from None
        for key, value in p.items():
            kinds, shape, what = _ADMITS[signature.parameters[key].annotation]
            arr = np.asarray(value)
            if arr.dtype.kind not in kinds or arr.shape != shape or not np.all(np.isfinite(arr)):
                raise ArgumentError(f"{k}: {key} = {value!r} is not {what}")
        if k == "loss":
            _efficiency(p["eta"])
        if k == "phase_diffusion" and not p["delta"] >= 0:
            raise ArgumentError("phase diffusion requires delta >= 0")

    @property
    def is_gaussian(self) -> bool:
        """True for the kinds that map every Gaussian state to a Gaussian state,
        and for Kerr and phase diffusion at zero strength (the identity)."""
        if self.kind == "kerr":
            return self.params["gamma"] == 0
        if self.kind == "phase_diffusion":
            return self.params["delta"] == 0
        return True

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

def _efficiency(eta) -> None:
    """ArgumentError unless eta, a loss or detector efficiency, is a real
    number in [0, 1] (NaN, a string or None is not)."""
    arr = np.asarray(eta)
    if not (arr.shape == () and arr.dtype.kind in "biuf" and 0.0 <= arr <= 1.0):
        raise ArgumentError(f"efficiency {eta!r} is not a real number eta in [0, 1]")


def loss_transition_matrix(eta: float, dim: int) -> np.ndarray:
    """T[l, p] = alpha_{l,p}(eta) = C(p, l) (1-eta)^(p-l) eta^l for l <= p.

    The same binomial table describes the loss map (|p> ends in |l| with
    weight alpha_{l,p}) and the inefficient-detector POVM (Pi_m weights
    |s><s| by alpha_{m,s}); log-space evaluation keeps it stable at large p.
    """
    _efficiency(eta)
    if eta == 1.0:
        return np.eye(dim)
    t = np.zeros((dim, dim))
    if eta == 0.0:
        t[0, :] = 1.0
        return t
    p, l, lf = np.arange(dim), np.arange(dim)[:, None], _log_factorials(dim)
    # below the diagonal p - l < 0 indexes lf from its end; those entries stay 0
    logw = lf[p] - lf[l] - lf[p - l] + (p - l) * math.log(1.0 - eta) + l * math.log(eta)
    return np.exp(logw, out=t, where=p >= l)


def loss(state: State, eta: float) -> DensityMatrix:
    """Zero-temperature damping: rho -> sum_m V_m rho V_m^dag at fixed eta = e^{-gamma t}.

    The Kraus sum is finite in truncated space, so the map is exact within
    truncation and trace-preserving by construction.
    """
    rho = as_density(state)
    if rho.modes != 1:
        raise ArgumentError("loss is a single-mode channel")
    d = rho.cutoff
    amp = np.sqrt(loss_transition_matrix(eta, d))  # amp[l, p] = |<l|V_{p-l}|p>|
    out = np.zeros((d, d), dtype=complex)
    mat = rho.matrix
    for m in range(d):
        k = np.diagonal(amp, m)  # amp[p - m, p] for p >= m: V_m in the shifted basis
        out[:d - m, :d - m] += (k[:, None] * mat[m:, m:] * k[None, :])
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
    if not (np.isfinite(delta) and delta >= 0):
        raise ArgumentError(f"phase diffusion needs a finite delta >= 0, got {delta!r}")
    n = np.arange(rho.cutoff)
    kernel = np.exp(-(delta ** 2) * np.subtract.outer(n, n) ** 2)
    return DensityMatrix(1, rho.cutoff, rho.matrix * kernel, leakage=rho.leakage)


def kerr(state: State, gamma: float) -> State:
    """Self-Kerr unitary exp(-i gamma (a^dag a)^2) on a single-mode state."""
    if state.modes != 1:
        raise ArgumentError("kerr is a single-mode channel")
    if not np.isfinite(gamma):
        raise ArgumentError(f"kerr needs a finite gamma, got {gamma!r}")
    d = state.cutoff
    u = np.exp(-1j * gamma * np.arange(d) ** 2)
    if isinstance(state, FockStateVector):
        return FockStateVector(1, d, state.amplitudes * u, leakage=state.leakage)
    return DensityMatrix(1, d, (u[:, None] * state.matrix) * u.conj()[None, :],
                         leakage=state.leakage)


def _kerr_moments(rho: DensityMatrix, gamma: float) -> GaussianData:
    """The moments of kerr(rho, gamma), read off rho without forming the output.

    With U = exp(-i gamma n^2), U^dag a U = e^{-i gamma (2n+1)} a and
    U^dag a^2 U = e^{-i gamma (4n+4)} a^2, and n is unchanged, so only the
    diagonal and the first two sub-diagonals of rho enter:
    <a> = sum_m sqrt(m) e^{-i gamma (2m-1)} rho_{m,m-1} and
    <a^2> = sum_m sqrt(m(m-1)) e^{-4i gamma (m-1)} rho_{m,m-2}.  Like
    gaussian.moments, raises TruncationError beyond leak_max.
    """
    _refuse_leaking(rho)
    mat = rho.matrix
    m = np.arange(rho.cutoff)
    n = float(np.real(np.diagonal(mat) @ m))
    a1 = np.diagonal(mat, -1) @ (np.sqrt(m[1:]) * np.exp(-1j * gamma * (2 * m[1:] - 1)))
    a2 = np.diagonal(mat, -2) @ (np.sqrt(m[2:] * (m[2:] - 1.0))
                                 * np.exp(-4j * gamma * (m[2:] - 1)))
    x = math.sqrt(2.0) * np.array([a1.real, a1.imag])
    sigma = np.array([[a2.real + n + 0.5, a2.imag], [a2.imag, n + 0.5 - a2.real]])
    return GaussianData(x, sigma - np.outer(x, x))


# ---------------------------------------------------------------------------
# Gaussian unitaries
# ---------------------------------------------------------------------------

def _apply_local_unitary(state: State, act, modes: tuple[int, ...], name: str) -> State:
    """Apply a unitary on `modes`, crop it to the cutoff and renormalize.

    `act(t, axes, conj)` applies the unitary's cutoff-sized block, the exact
    <m|U|n> for all levels m, n below the cutoff (its complex conjugate if
    `conj`), to the given axes of a state tensor.  The mass pushed past the
    cutoff is the leakage: 1 - ||psi||^2 for a vector, 1 - tr for a density
    matrix, carried forward in the result's `leakage`.
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
    if leak > config.LEAK_MAX:
        raise TruncationError(
            f"{name}: leakage {leak:.3e} beyond leak_max; increase the cutoff")
    if isinstance(state, FockStateVector):
        return FockStateVector(m, d, t.ravel() / math.sqrt(kept), leakage=state.leakage + leak)
    t = t / kept
    return DensityMatrix(m, d, 0.5 * (t + t.conj().T), leakage=state.leakage + leak)


def _block_action(u: np.ndarray):
    """Action of the cutoff-sized block u on one tensor axis, of its conjugate
    on the bra side."""
    def act(t, axes, conj):
        (ax,) = axes
        return np.moveaxis(np.tensordot(u.conj() if conj else u, t, axes=(1, ax)), 0, ax)
    return act


def _displacement_block(alpha: complex, d: int) -> np.ndarray:
    """<m|D(alpha)|n> for m, n < d by the Laguerre recurrence along each diagonal.

    With x = |alpha|^2, <m|D(|alpha|)|n> = sqrt(n!/m!) |alpha|^(m-n) e^(-x/2)
    L_n^(m-n)(x) for m >= n (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), so
    column 0 is Poisson and, with n increasing along each diagonal,

        sqrt(mn) G[m, n] = (m + n - 1 - x) G[m-1, n-1] - sqrt((m-1)(n-1)) G[m-2, n-2].

    n increasing runs from the classically forbidden region into the allowed
    one, where the wanted solution dominates.  (The two-sided averaged
    recursion of _squeeze_block is unstable here: off by 9e-6 at |alpha| = 10,
    d = 400, and by 5e29 at |alpha| = 25, d = 1000.)  A diagonal whose start is
    below the normal doubles (e^(-x/2) is, from |alpha| ~ 37.6 on) runs as a
    mantissa times 2^e[j], e[j] < 0, and hands 2^500 at a time from the mantissa
    to e[j] as it grows.  The upper triangle is G[n, m] = (-1)^(m-n) G[m, n],
    and a phase e^(i theta (m-n)) turns D(|alpha|) into D(|alpha| e^(i theta)).
    Raises NumericalValidityError for |alpha|^2 >= 2^60, beyond which e[j]
    leaves int64; below it one step grows a mantissa by less than 2^61.
    """
    a = abs(alpha)
    x = a * a
    if not x < 2.0 ** 60:
        raise NumericalValidityError(f"displace({alpha}): |alpha|^2 = {x:.3g} is not below 2^60")
    k = np.arange(d)
    root = np.sqrt(k)
    if a:                    # <n+j|D(|alpha|)|n> = cur[j] 2^e[j] on row n
        logs = k * math.log(a) - x / 2 - 0.5 * _log_factorials(d)
        e = np.where(logs < math.log(np.finfo(float).tiny), np.floor(logs / math.log(2)), 0)
        e = e.astype(int)
        cur = np.exp(logs - e * math.log(2))
    else:
        e, cur = np.zeros(d, dtype=int), (k == 0).astype(float)
    scaled = bool(e.any())
    h = np.zeros((d, d))     # h[n, m] = <m|D(|alpha|)|n> for m >= n
    h[0] = np.ldexp(cur, e)
    for n in range(1, d):
        row = (k[n:] + n - 1 - x) * cur[:-1]
        if n > 1:
            row -= root[n - 1] * root[n - 1:d - 1] * prev[:-2]
        row /= root[n] * root[n:]
        if scaled:
            shift = np.where(np.abs(row) > 2.0 ** 500, np.minimum(-e[:d - n], 500), 0)
            row, cur[:d - n] = np.ldexp(row, -shift), np.ldexp(cur[:d - n], -shift)
            e[:d - n] += shift
        h[n, n:] = np.ldexp(row, e[:d - n]) if scaled else row
        prev, cur = cur, row
    sign = np.where(np.subtract.outer(k, k) % 2, -1.0, 1.0)
    phase = np.exp(1j * np.angle(alpha) * k)
    return (h.T + sign * np.triu(h, 1)) * phase[:, None] * phase.conj()


def _squeeze_block(r: float, phi: float, d: int) -> np.ndarray:
    """<m|S(r, phi)|n> for m, n < d from S's generating function (Miatto &
    Quesada, Quantum 4, 366 (2020)), one anti-diagonal N = m + n at a time.

    With A = [[-e^(-i phi) tanh r, sech r], [sech r, e^(i phi) tanh r]] and
    G[0, 0] = (cosh r)^(-1/2), the row step and the column step averaged with
    weights m/N and n/N give

        N G[m, n] = A00 sqrt(m(m-1)) G[m-2, n] + 2 sech r sqrt(mn) G[m-1, n-1]
                    + A11 sqrt(n(n-1)) G[m, n-2],

    which stays accurate where either one-sided step alone does not (4e-4 at
    r = 1, d = 96).  Odd anti-diagonals are zero.
    """
    t, sech = math.tanh(r), 1.0 / math.cosh(r)
    turn = complex(math.cos(phi), math.sin(phi))
    a00, a11 = -t * turn.conjugate(), t * turn
    k = np.arange(d)
    root, root2 = np.sqrt(k), np.sqrt(k * (k - 1))
    z = np.zeros((d + 2, d + 2), dtype=complex)   # z[m + 2, n + 2] = G[m, n]
    z[2, 2] = math.sqrt(sech)
    for total in range(2, 2 * d - 1, 2):
        m = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        n = total - m
        z[m + 2, n + 2] = (a00 * root2[m] * z[m, n + 2]
                           + 2 * sech * root[m] * root[n] * z[m + 1, n + 1]
                           + a11 * root2[n] * z[m + 2, n]) / total
    return z[2:, 2:]


def displace(state: State, alpha: complex, mode: int = 0) -> State:
    """D(alpha) on one mode, cropped to the cutoff and renormalized.

    The d x d block of D(alpha) is exact at the cutoff d: _displacement_block
    fills it by a Laguerre recurrence in O(d^2) operations, within 2e-14 of the
    closed form up to |alpha| = 45 at d = 2200.  It acts on the mode's
    ket axis, its conjugate on the bra axis, at d^2 multiply-adds per column of
    the state (an m-mode vector has d^(m-1) columns, a density 2 d^(2m-1)).
    """
    if not np.isfinite(alpha):
        raise ArgumentError(f"displace needs a finite alpha, got {alpha!r}")
    return _apply_local_unitary(state, _block_action(_displacement_block(alpha, state.cutoff)),
                                (mode,), f"displace({alpha})")


def squeeze(state: State, r: float, phi: float = 0.0, mode: int = 0) -> State:
    """S(r, phi) on one mode, cropped to the cutoff and renormalized.

    The d x d block of S(r, phi) is exact at the cutoff d: _squeeze_block fills
    it by an averaged recursion in O(d^2) operations, within 3e-14 of a large
    expm on the columns where that has converged, for r up to 2.5 at d = 400,
    r = 1 at d = 800 and r = 0.3 at d = 1500.  It acts on the mode's ket axis,
    its conjugate on the bra axis, at d^2 multiply-adds per column of the state.
    """
    if not (np.isfinite(r) and np.isfinite(phi)):
        raise ArgumentError(f"squeeze needs finite r and phi, got r = {r!r}, phi = {phi!r}")
    return _apply_local_unitary(state, _block_action(_squeeze_block(r, phi, state.cutoff)),
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
