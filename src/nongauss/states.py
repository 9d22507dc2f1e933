"""Constructors for the state families: Fock superpositions, diagonal mixtures,
cat states, coherent/thermal/squeezed states and the two-mode PNES families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import ArgumentError, TruncationError
from .fock import (DensityMatrix, FockStateVector, _check_dense_dim, _log_factorials,
                   shannon_entropy)
from .gaussian import GaussianData, h, thermal_weights

__all__ = [
    "vacuum", "fock", "coherent", "thermal", "squeezed_vacuum",
    "fock_superposition", "diagonal_mixture", "poisson", "cat",
    "PNESSpec", "pnes", "pnes_coefficients", "pnes_structured_cm", "pnes_entanglement",
    "delta_a_diagonal", "delta_b_diagonal",
]

_TAIL_SCAN = 4096  # how far coefficient tails are scanned before giving up
_POISSON_SCAN_MAX = 1 << 16  # longest Poisson profile scanned for the tail check


def _check_tail(weights: np.ndarray, cutoff: int, what: str) -> None:
    """weights: full |amplitude|^2 profile (may extend beyond cutoff)."""
    tail = float(np.sum(weights[cutoff:]))
    if tail > tolerances().tail:
        good = np.flatnonzero(np.cumsum(weights) >= 1.0 - tolerances().tail)
        hint = f"; minimal adequate cutoff is {good[0] + 1}" if good.size else ""
        raise TruncationError(
            f"{what}: coefficient mass {tail:.3e} beyond cutoff {cutoff} "
            f"exceeds tail_tol{hint}")


def vacuum(cutoff: int, modes: int = 1) -> FockStateVector:
    amps = np.zeros(cutoff ** modes, dtype=complex)
    amps[0] = 1.0
    return FockStateVector(modes, cutoff, amps)


def fock(n: int, cutoff: int) -> FockStateVector:
    if n < 0:
        raise ArgumentError("n must be >= 0")
    if n >= cutoff:
        raise ArgumentError(f"fock({n}) needs cutoff > {n}")
    amps = np.zeros(cutoff, dtype=complex)
    amps[n] = 1.0
    return FockStateVector(1, cutoff, amps)


def _coherent_amplitudes(alphas, dim: int) -> np.ndarray:
    """<n|alpha> for n < dim, one column per alpha: a (dim, len(alphas)) array.

    Ladder recursion c_0 = e^{-|a|^2/2}, c_n = c_{n-1} a / sqrt(n), run as a
    cumulative product over n.  Where e^{-|a|^2/2} is not a normal double
    (|a|^2 > ~1400) the recursion is seeded in log space at the first level
    whose amplitude is normal; the levels below it are set to 0.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=complex))
    out = np.empty((dim, a.size), dtype=complex)
    out[0] = np.exp(-0.5 * (a.real ** 2 + a.imag ** 2))
    np.multiply(a, 1.0 / np.sqrt(np.arange(1, dim))[:, None], out=out[1:])
    tiny = np.finfo(float).tiny
    low = np.flatnonzero(out[0].real < tiny)
    if low.size:
        n = np.arange(dim)[:, None]
        logc = (n * np.log(np.abs(a[low])) - 0.5 * _log_factorials(dim)[:, None]
                - 0.5 * np.abs(a[low]) ** 2)
        normal = logc >= math.log(tiny)
        first = np.where(normal.any(axis=0), normal.argmax(axis=0), dim)
        below = n < first
        block = np.where(below, 1.0, out[:, low])
        cols = np.flatnonzero(first < dim)
        m = first[cols]
        block[m, cols] = np.exp(logc[m, cols] + 1j * m * np.angle(a[low[cols]]))
        out[:, low] = block
    # the same recursion either way, to an ulp per step: np.multiply.accumulate
    # runs a scalar loop down each column, so from a few hundred columns on
    # (Husimi grid chunks) one vectorised multiply per level is about twice as
    # fast, while for the one or two columns of coherent and cat it would pay
    # the per-call overhead on every one of up to 4096 levels
    if a.size < 256:
        np.multiply.accumulate(out, axis=0, out=out)
    else:
        for k in range(1, dim):
            np.multiply(out[k - 1], out[k], out=out[k])
    if low.size:
        out[:, low] = np.where(below, 0.0, out[:, low])
    return out


def coherent(alpha: complex, cutoff: int) -> FockStateVector:
    full = _coherent_amplitudes(alpha, max(_TAIL_SCAN, cutoff))[:, 0]
    _check_tail(np.abs(full) ** 2, cutoff, f"coherent({alpha})")
    amps = full[:cutoff]
    return FockStateVector(1, cutoff, amps / np.linalg.norm(amps))


def thermal(n_mean: float, cutoff: int) -> DensityMatrix:
    """Thermal state nu(n_mean): Gibbs weights cropped at `cutoff`, then renormalized.

    Raises TruncationError, naming the minimal adequate cutoff, whenever the
    mass T beyond the cutoff exceeds tolerances().tail. An accepted state
    therefore has mean photon number n_mean - cutoff * T / (1 - T), i.e. within
    about cutoff * tail of n_mean; callers that match a mean photon number
    (e.g. the QFI bound's moment gate) rely on this.
    """
    if not n_mean >= 0:   # NaN fails this check
        raise ArgumentError("thermal photon number must be >= 0")
    _check_dense_dim(cutoff)
    full = thermal_weights(n_mean, max(_TAIL_SCAN, cutoff))
    _check_tail(full, cutoff, f"thermal({n_mean})")
    w = full[:cutoff]
    return DensityMatrix(1, cutoff, np.diag(w / w.sum()).astype(complex))


def _squeezed_vacuum_amplitudes(r: float, phi: float, nmax: int) -> np.ndarray:
    """S(r, phi)|0>: even-level amplitudes (-e^{-i phi} tanh r)^m sqrt((2m)!)/(2^m m!)/sqrt(cosh r)."""
    amps = np.zeros(nmax, dtype=complex)
    t = math.tanh(r)
    if t == 0:
        amps[0] = 1.0
        return amps
    m = np.arange((nmax + 1) // 2)
    lf = _log_factorials(nmax)
    logmag = (0.5 * lf[2 * m] - m * math.log(2.0) - lf[m]
              + m * math.log(t) - 0.5 * math.log(math.cosh(r)))
    vals = np.exp(logmag) * (-np.exp(-1j * phi)) ** m
    sel = 2 * m < nmax
    amps[2 * m[sel]] = vals[sel]
    return amps


def squeezed_vacuum(r: float, cutoff: int, phi: float = 0.0) -> FockStateVector:
    if r < 0:
        raise ArgumentError("squeezing magnitude must be >= 0")
    full = _squeezed_vacuum_amplitudes(r, phi, max(_TAIL_SCAN, cutoff))
    _check_tail(np.abs(full) ** 2, cutoff, f"squeezed_vacuum({r})")
    amps = full[:cutoff]
    return FockStateVector(1, cutoff, amps / np.linalg.norm(amps))


def fock_superposition(n: int, k: int, cutoff: int) -> FockStateVector:
    """(|n> + |n+k>)/sqrt(2); k = 0 degenerates to |n>.

    k in {1, 2} is rejected: those superpositions have nonzero <a> or <a^2>,
    so the thermal-reference closed forms this family is built for do not apply.
    """
    if n < 0:
        raise ArgumentError("n must be >= 0")
    if k in (1, 2):
        raise ArgumentError(
            f"k = {k} rejected: <a> or <a^2> is nonzero and the thermal-reference "
            "closed forms do not hold; use k = 0 or k > 2")
    if k < 0:
        raise ArgumentError("k must be >= 0")
    if cutoff <= n + k:
        raise ArgumentError(f"cutoff must exceed n + k = {n + k}")
    amps = np.zeros(cutoff, dtype=complex)
    if k == 0:
        amps[n] = 1.0
    else:
        amps[n] = amps[n + k] = 1.0 / math.sqrt(2)
    return FockStateVector(1, cutoff, amps)


def diagonal_mixture(weights, cutoff: int) -> DensityMatrix:
    """sum_n q_n |n><n| from a weight profile (may extend beyond the cutoff)."""
    q = np.asarray(weights, dtype=float).ravel()
    if not np.all(q >= 0):   # NaN fails these checks
        raise ArgumentError("mixture weights must be non-negative")
    total = q.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise ArgumentError(f"weights must sum to 1, got {total}")
    _check_dense_dim(cutoff)
    _check_tail(q, cutoff, "diagonal_mixture")
    w = np.zeros(cutoff)
    w[:min(cutoff, q.size)] = q[:cutoff]
    return DensityMatrix(1, cutoff, np.diag(w / w.sum()).astype(complex))


def poisson(lam: float, cutoff: int) -> DensityMatrix:
    """The Fock-diagonal state with Poisson(lam) photon-number statistics."""
    if not lam >= 0:   # NaN fails this check
        raise ArgumentError("mean photon number must be >= 0")
    if lam == 0:
        return vacuum(cutoff).density()
    # scan 12 standard deviations past the mean, for the tail check and its hint,
    # and normalize in log space, where no weight underflows to a 0/0
    levels = max(4 * cutoff, 256, math.ceil(lam + 12 * math.sqrt(lam) + 12))
    if levels > _POISSON_SCAN_MAX:
        raise TruncationError(f"poisson({lam}): the photon-number profile "
                              f"extends beyond {_POISSON_SCAN_MAX} levels")
    logw = np.arange(levels) * math.log(lam) - _log_factorials(levels)
    w = np.exp(logw - logw.max())
    return diagonal_mixture(w / w.sum(), cutoff)


def delta_a_diagonal(weights) -> float:
    """Closed-form HS non-Gaussianity of a Fock-diagonal state."""
    q = np.asarray(weights, dtype=float).ravel()
    nbar = float(np.dot(np.arange(q.size), q))
    tau = thermal_weights(nbar, q.size)
    # sum tau_n^2 over all n has the exact value 1/(2 nbar + 1)
    cross = 2.0 * float(np.dot(tau, q)) - 1.0 / (2.0 * nbar + 1.0)
    return 0.5 * (1.0 - cross / float(np.dot(q, q)))


def delta_b_diagonal(weights) -> float:
    """Closed-form QRE non-Gaussianity of a Fock-diagonal state."""
    q = np.asarray(weights, dtype=float).ravel()
    nbar = float(np.dot(np.arange(q.size), q))
    return h(nbar + 0.5) - shannon_entropy(q)


def cat(alpha: complex, phi: float, cutoff: int) -> FockStateVector:
    """cos(phi)|alpha> + sin(phi)|-alpha>, normalized.

    phi = +pi/4 is the even cat, -pi/4 the odd cat.  Real alpha is the primary
    regime (parity properties are stated for real amplitudes).
    """
    nmax = max(_TAIL_SCAN, cutoff)
    plus, minus = _coherent_amplitudes([alpha, -alpha], nmax).T
    full = math.cos(phi) * plus + math.sin(phi) * minus
    nrm = np.linalg.norm(full)
    full = full / nrm
    _check_tail(np.abs(full) ** 2, cutoff, f"cat({alpha}, {phi})")
    amps = full[:cutoff]
    return FockStateVector(1, cutoff, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# two-mode photon-number entangled states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PNESSpec:
    """Photon-number entangled state |psi>> = sum_n psi_n |n>|n>."""

    family: str          # twin_beam | tmc | pssv | pasv
    parameter: float
    cutoff: int

    def __post_init__(self):
        fam = self.family.lower()
        object.__setattr__(self, "family", fam)
        if fam not in ("twin_beam", "tmc", "pssv", "pasv"):
            raise ArgumentError(f"unknown PNES family {self.family!r}")
        if fam != "tmc" and not 0.0 <= self.parameter < 1.0:
            raise ArgumentError(f"{fam} requires 0 <= x < 1, got {self.parameter}")


def pnes_coefficients(spec: PNESSpec, nmax: int | None = None) -> np.ndarray:
    """Normalized psi_n profile, computed well beyond the cutoff for tail checks."""
    if nmax is None:
        nmax = max(_TAIL_SCAN, spec.cutoff)
    n = np.arange(nmax, dtype=float)
    x = spec.parameter
    if spec.family == "twin_beam":
        psi = x ** n
    elif spec.family == "tmc":
        if x == 0:
            psi = np.zeros(nmax)
            psi[0] = 1.0
        else:
            logc = np.concatenate(([0.0], n[1:] * math.log(abs(x)))) - _log_factorials(nmax)
            psi = np.exp(logc) * np.sign(x) ** n
    elif spec.family == "pssv":
        psi = (n + 1) * x ** (n + 1)
    else:  # pasv: the n = 0 coefficient vanishes, normalization starts at n = 1
        psi = np.zeros(nmax)
        psi[1:] = n[1:] * x ** (n[1:] - 1)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ArgumentError(f"PNES {spec.family}({x}) has vanishing norm")
    return psi / nrm


def pnes(spec: PNESSpec) -> FockStateVector:
    psi = pnes_coefficients(spec)
    _check_tail(psi ** 2, spec.cutoff, f"pnes {spec.family}({spec.parameter})")
    d = spec.cutoff
    amps = np.zeros(d * d, dtype=complex)
    idx = np.arange(d) * (d + 1)  # |n>|n| -> flat n + d*n
    amps[idx] = psi[:d]
    return FockStateVector(2, d, amps / np.linalg.norm(amps))


def pnes_structured_cm(spec: PNESSpec) -> tuple[float, float, GaussianData]:
    """(N, C, CM) with diagonals N + 1/2 and off-diagonal blocks diag(C, -C)."""
    psi = pnes_coefficients(spec)
    n = np.arange(psi.size, dtype=float)
    N = float(np.dot(psi ** 2, n))
    C = float(np.sum(psi[:-1] * psi[1:] * (n[:-1] + 1)))
    a = (N + 0.5) * np.eye(2)
    c = np.diag([C, -C])
    sigma = np.block([[a, c], [c, a]])
    return N, C, GaussianData(np.zeros(4), sigma)


def pnes_entanglement(spec: PNESSpec) -> float:
    """Entanglement entropy -sum psi_n^2 log psi_n^2 of the PNES."""
    psi = pnes_coefficients(spec)
    return shannon_entropy(psi ** 2)
