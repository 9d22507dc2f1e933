"""Constructors for the state families: Fock superpositions, diagonal mixtures,
cat states, coherent/thermal/squeezed states and the two-mode PNES families."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ArgumentError, TruncationError
from .fock import (DensityMatrix, FockStateVector, _check_dense_dim, _integer,
                   _log_factorials, shannon_entropy)
from .gaussian import GaussianData, h, thermal_weights

__all__ = ["vacuum", "fock", "coherent", "thermal", "squeezed_vacuum",
           "fock_superposition", "diagonal_mixture", "poisson", "cat",
           "PNESSpec", "pnes", "pnes_coefficients", "pnes_structured_cm",
           "pnes_entanglement", "delta_a_diagonal", "delta_b_diagonal"]

_SCAN_MAX = 1 << 16  # longest profile scanned to name a minimal adequate cutoff or built for a PNES


def _check_finite(cutoff: int, **params) -> None:
    """ArgumentError for a cutoff that is not an integer >= 1 or a NaN or infinite parameter."""
    bad = [f"{name} = {value} is not finite" for name, value in params.items()
           if not cmath.isfinite(value)]
    if _integer(cutoff, "cutoff") < 1 or bad:
        raise ArgumentError(bad[0] if bad else f"cutoff must be >= 1, got {cutoff}")


def _crop(levels, total: float, cutoff: int, what: str, weigh=lambda v: np.abs(v) ** 2):
    """levels(cutoff), the first levels of a profile (amplitudes, or weights with
    `weigh` the identity; zero past a finite profile's end) whose weights sum to
    `total`, and the mass they drop, max(1 - kept / total, 0).  A drop above TAIL
    is a TruncationError naming the minimal cutoff, read off levels(n) to _SCAN_MAX."""
    kept, tail = levels(cutoff), config.TAIL
    if kept.size < cutoff:
        kept = np.concatenate([kept, np.zeros(cutoff - kept.size)])
    leak = max(1.0 - float(np.sum(weigh(kept))) / total, 0.0)
    if leak > tail:
        n, hint = cutoff, f"the profile extends beyond {_SCAN_MAX} levels"
        while n < _SCAN_MAX:
            n = min(2 * n, _SCAN_MAX)
            good = np.flatnonzero(np.cumsum(weigh(levels(n))) >= (1.0 - tail) * total)
            if good.size:
                hint = f"minimal adequate cutoff is {good[0] + 1}"
                break
        raise TruncationError(f"{what}: coefficient mass {leak:.3e} beyond cutoff "
                              f"{cutoff} exceeds tail_tol; {hint}")
    return kept, leak


def _state(levels, total: float, cutoff: int, what: str, pure: bool = True):
    """The single-mode state of the first `cutoff` of levels(n), amplitudes if
    `pure` else Fock-diagonal weights, renormalized; its leakage is the dropped mass."""
    if pure:
        amps, leak = _crop(levels, total, cutoff, what)
        return FockStateVector(1, cutoff, amps / np.linalg.norm(amps), leak)
    _check_dense_dim(cutoff)
    w, leak = _crop(levels, total, cutoff, what, weigh=np.asarray)
    return DensityMatrix(1, cutoff, np.diag(w / w.sum()).astype(complex), leak)


def vacuum(cutoff: int, modes: int = 1) -> FockStateVector:
    _check_finite(cutoff)
    amps = np.zeros(cutoff ** _integer(modes, "modes"), dtype=complex)
    amps[0] = 1.0
    return FockStateVector(modes, cutoff, amps)


def fock(n: int, cutoff: int) -> FockStateVector:
    if not 0 <= _integer(n, "n") < _integer(cutoff, "cutoff"):
        raise ArgumentError("n must be >= 0" if n < 0 else f"fock({n}) needs cutoff > {n}")
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
    # runs a scalar loop down each column, so for a few hundred columns (Husimi
    # grid chunks) one vectorised multiply per level is about twice as fast, but
    # for the one or two columns of coherent and cat it pays a call per level
    if a.size < 256:
        np.multiply.accumulate(out, axis=0, out=out)
    else:
        for k in range(1, dim):
            np.multiply(out[k - 1], out[k], out=out[k])
    if low.size:
        out[:, low] = np.where(below, 0.0, out[:, low])
    return out


def coherent(alpha: complex, cutoff: int) -> FockStateVector:
    _check_finite(cutoff, alpha=alpha)
    return _state(lambda n: _coherent_amplitudes(alpha, n)[:, 0], 1.0, cutoff,
                  f"coherent({alpha})")


def thermal(n_mean: float, cutoff: int) -> DensityMatrix:
    """Thermal state nu(n_mean): Gibbs weights cropped at `cutoff`, then renormalized.

    The cropped mass T = (n_mean / (n_mean + 1))^cutoff is the leakage, and the mean
    photon number is n_mean - cutoff * T / (1 - T); the QFI bound's moment gate relies on this.
    """
    _check_finite(cutoff, n_mean=n_mean)
    if not n_mean >= 0:
        raise ArgumentError("thermal photon number must be >= 0")
    return _state(lambda n: thermal_weights(n_mean, n), 1.0, cutoff, f"thermal({n_mean})",
                  pure=False)


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
    amps[::2] = np.exp(logmag) * (-np.exp(-1j * phi)) ** m
    return amps


def squeezed_vacuum(r: float, cutoff: int, phi: float = 0.0) -> FockStateVector:
    _check_finite(cutoff, r=r, phi=phi)
    if r < 0:
        raise ArgumentError("squeezing magnitude must be >= 0")
    return _state(lambda n: _squeezed_vacuum_amplitudes(r, phi, n), 1.0, cutoff,
                  f"squeezed_vacuum({r})")


def fock_superposition(n: int, k: int, cutoff: int) -> FockStateVector:
    """(|n> + |n+k>)/sqrt(2); k = 0 degenerates to |n>.

    k in {1, 2} is rejected: those superpositions have nonzero <a> or <a^2>,
    so the thermal-reference closed forms this family is built for do not apply.
    """
    if _integer(n, "n") < 0 or _integer(k, "k") < 0:
        raise ArgumentError("n and k must be >= 0")
    if k in (1, 2):
        raise ArgumentError(
            f"k = {k} rejected: <a> or <a^2> is nonzero and the thermal-reference "
            "closed forms do not hold; use k = 0 or k > 2")
    if _integer(cutoff, "cutoff") <= n + k:
        raise ArgumentError(f"cutoff must exceed n + k = {n + k}")
    amps = np.zeros(cutoff, dtype=complex)
    amps[[n, n + k]] = 1.0 / math.sqrt(2) if k else 1.0
    return FockStateVector(1, cutoff, amps)


def diagonal_mixture(weights, cutoff: int) -> DensityMatrix:
    """sum_n q_n |n><n| from a weight profile (may extend beyond the cutoff)."""
    _check_finite(cutoff)
    q = np.asarray(weights, dtype=float).ravel()
    if not np.all(q >= 0):   # NaN fails these checks
        raise ArgumentError("mixture weights must be non-negative")
    total = q.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise ArgumentError(f"weights must sum to 1, got {total}")
    return _state(lambda n: q[:n], total, cutoff, "diagonal_mixture", pure=False)


def poisson(lam: float, cutoff: int) -> DensityMatrix:
    """The Fock-diagonal state with Poisson(lam) photon-number statistics, each
    weight taken in log space, where none underflows before its level does."""
    _check_finite(cutoff, lam=lam)
    if not lam >= 0:
        raise ArgumentError("mean photon number must be >= 0")
    if lam == 0:
        return vacuum(cutoff).density()
    return _state(lambda n: np.exp(np.arange(n) * math.log(lam) - lam - _log_factorials(n)),
                  1.0, cutoff, f"poisson({lam})", pure=False)


def _finite_weights(weights) -> np.ndarray:
    q = np.asarray(weights, dtype=float).ravel()
    if not np.isfinite(q).all():
        raise ArgumentError("Fock-diagonal weights must be finite")
    return q


def delta_a_diagonal(weights) -> float:
    """Closed-form HS non-Gaussianity of a Fock-diagonal state."""
    q = _finite_weights(weights)
    nbar = float(np.dot(np.arange(q.size), q))
    tau = thermal_weights(nbar, q.size)
    # sum tau_n^2 over all n has the exact value 1/(2 nbar + 1)
    cross = 2.0 * float(np.dot(tau, q)) - 1.0 / (2.0 * nbar + 1.0)
    return 0.5 * (1.0 - cross / float(np.dot(q, q)))


def delta_b_diagonal(weights) -> float:
    """Closed-form QRE non-Gaussianity of a Fock-diagonal state."""
    q = _finite_weights(weights)
    nbar = float(np.dot(np.arange(q.size), q))
    return h(nbar + 0.5) - shannon_entropy(q)


def cat(alpha: complex, phi: float, cutoff: int) -> FockStateVector:
    """cos(phi)|alpha> + sin(phi)|-alpha>, normalized.

    phi = +pi/4 is the even cat, -pi/4 the odd cat.  Real alpha is the primary
    regime (parity properties are stated for real amplitudes).  The squared norm
    1 + sin(2 phi) e^{-2|alpha|^2} is taken in expm1 form, exact for the odd cat.
    """
    _check_finite(cutoff, alpha=alpha, phi=phi)
    s = math.sin(2 * phi)
    total = (1.0 + s) + s * math.expm1(-2 * abs(alpha) ** 2)
    if not total > 0:
        raise ArgumentError(f"cat({alpha}, {phi}) has vanishing norm")
    mix = [math.cos(phi), math.sin(phi)]
    return _state(lambda n: _coherent_amplitudes([alpha, -alpha], n) @ mix, total, cutoff,
                  f"cat({alpha}, {phi})")


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
        _check_finite(self.cutoff, parameter=self.parameter)
        if fam != "tmc" and not 0.0 <= self.parameter < 1.0:
            raise ArgumentError(f"{fam} requires 0 <= x < 1, got {self.parameter}")


def pnes_coefficients(spec: PNESSpec) -> np.ndarray:
    """Normalized psi_n profile over 64 levels, doubled while its second half still
    adds to the squared norm; one not converged by _SCAN_MAX is a TruncationError."""
    psi, x = np.zeros(32), spec.parameter
    while psi.size < _SCAN_MAX:
        n = np.arange(2 * psi.size, dtype=float)
        if spec.family == "tmc" and x != 0:   # in log space, shifted to its peak
            logc = n * math.log(abs(x)) - _log_factorials(n.size)
            psi = np.exp(logc - logc.max()) * np.sign(x) ** n
        elif spec.family == "pssv":
            psi = (n + 1) * x ** (n + 1)
        elif spec.family == "pasv":   # its n = 0 coefficient vanishes
            psi = n * x ** np.maximum(n - 1, 0)
        else:   # twin beam, and tmc at x = 0
            psi = x ** n
        head = np.sum(psi[:n.size // 2] ** 2)
        if head + np.sum(psi[n.size // 2:] ** 2) == head:
            break
    else:
        raise TruncationError(f"pnes {spec.family}({x}) has not converged in {_SCAN_MAX} levels")
    if head == 0:
        raise ArgumentError(f"PNES {spec.family}({x}) has vanishing norm")
    return psi / np.linalg.norm(psi)


def pnes(spec: PNESSpec) -> FockStateVector:
    """The PNES of `spec`, psi_n at |n>|n> (flat index n * cutoff + n); its leakage
    is the mass of the converged profile past the cutoff."""
    coeff = pnes_coefficients(spec)
    psi, leak = _crop(lambda n: coeff[:n], 1.0, spec.cutoff,
                      f"pnes {spec.family}({spec.parameter})")
    return FockStateVector(2, spec.cutoff, np.diag(psi / np.linalg.norm(psi)), leak)


def pnes_structured_cm(spec: PNESSpec) -> tuple[float, float, GaussianData]:
    """(N, C, CM) with diagonals N + 1/2 and off-diagonal blocks diag(C, -C)."""
    psi = pnes_coefficients(spec)
    n = np.arange(psi.size, dtype=float)
    N = float(np.dot(psi ** 2, n))
    C = float(np.sum(psi[:-1] * psi[1:] * (n[:-1] + 1)))
    a, c = (N + 0.5) * np.eye(2), np.diag([C, -C])
    return N, C, GaussianData(np.zeros(4), np.block([[a, c], [c, a]]))


def pnes_entanglement(spec: PNESSpec) -> float:
    """Entanglement entropy -sum psi_n^2 log psi_n^2 of the PNES."""
    return shannon_entropy(pnes_coefficients(spec) ** 2)
