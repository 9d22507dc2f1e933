"""Truncated Fock-space states and the linear-algebra primitives built on them.

Index convention (fixed library-wide): basis vectors of an n-mode space at
per-mode cutoff d are labelled little-endian mixed-radix, i.e. the flat index
is  i = n_0 + d*n_1 + d^2*n_2 + ...  with the photon number of mode 0 varying
fastest.  Equivalently, reshaping a flat vector to shape (d,)*modes (C order)
puts mode (modes-1) on axis 0 and mode 0 on the last axis.

Entropies are in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import tolerances
from .errors import ArgumentError, NumericalValidityError, ResourceError

__all__ = [
    "FockStateVector", "DensityMatrix", "MeasureReport",
    "destroy", "mode_operator",
    "tensor", "partial_trace", "partial_transpose",
    "purity", "overlap", "von_neumann_entropy", "shannon_entropy",
    "random_density_matrix",
]


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level truncated mode."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k < n, read-only, from math.lgamma.

    scipy.special.gammaln agrees to 1e-13 relative, but importing
    scipy.special adds about 0.35 s to a one-shot CLI process, against
    0.2 s for ``import nongauss`` without scipy (2-core VM).  The cache
    keeps the 4096-level tail scans of the state constructors from paying
    4096 lgamma calls (about 1 ms) each.
    """
    table = np.fromiter(map(math.lgamma, range(1, n + 1)), dtype=float, count=n)
    table.setflags(write=False)
    return table


def mode_operator(op: np.ndarray, mode: int, modes: int, cutoff: int) -> np.ndarray:
    """Embed a single-mode operator on the given mode of an n-mode space.

    With the little-endian index convention, mode 0 sits on the fastest axis,
    so the Kronecker chain runs from the highest mode down.
    """
    if not 0 <= mode < modes:
        raise ArgumentError(f"mode {mode} out of range for {modes} modes")
    out = np.eye(1, dtype=complex)
    for m in range(modes - 1, -1, -1):
        out = np.kron(out, op if m == mode else np.eye(cutoff, dtype=complex))
    return out


def _check_dense_dim(dim: int) -> None:
    cap = tolerances().max_dense_dim
    if dim > cap:
        raise ResourceError(
            f"dense Hilbert dimension {dim} exceeds the configured cap {cap}")


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockStateVector:
    """Pure n-mode state over the truncated Fock basis.

    ``leakage`` is the norm mass lost to truncation, as for DensityMatrix.
    """

    modes: int
    cutoff: int
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amps)
        if self.modes < 1 or self.cutoff < 1:
            raise ArgumentError("modes and cutoff must be positive")
        if amps.size != self.cutoff ** self.modes:
            raise ArgumentError(
                f"amplitude length {amps.size} does not match "
                f"cutoff**modes = {self.cutoff ** self.modes}")
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= tolerances().norm:   # NaN fails every check
            raise NumericalValidityError(
                f"state vector norm {nrm} deviates from 1 beyond tolerance")
        if not self.leakage >= 0:
            raise ArgumentError("leakage must be non-negative")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (cutoff,)*modes; mode 0 is the last axis."""
        return self.amplitudes.reshape((self.cutoff,) * self.modes)

    def photon_numbers(self) -> np.ndarray:
        """Mean photon number per mode."""
        return _photon_numbers(np.abs(self.amplitudes) ** 2, self.modes, self.cutoff)

    def energy(self) -> float:
        return float(np.sum(self.photon_numbers()))

    def density(self) -> "DensityMatrix":
        _check_dense_dim(self.dim)
        return DensityMatrix(self.modes, self.cutoff,
                             np.outer(self.amplitudes, self.amplitudes.conj()), self.leakage)

    def to_json(self) -> str:
        return json.dumps({
            "modes": self.modes, "cutoff": self.cutoff,
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
            "leakage": self.leakage,
        })

    @staticmethod
    def from_json(text: str) -> "FockStateVector":
        obj = json.loads(text)
        amps = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return FockStateVector(int(obj["modes"]), int(obj["cutoff"]), amps,
                               float(obj.get("leakage", 0.0)))


@dataclass(frozen=True)
class DensityMatrix:
    """n-mode mixed state: Hermitian, unit-trace matrix over the truncated basis.

    ``leakage`` accumulates the trace mass lost to truncation by channel and
    unitary applications; it is informational and does not enter the matrix.
    """

    modes: int
    cutoff: int
    matrix: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if self.modes < 1 or self.cutoff < 1:
            raise ArgumentError("modes and cutoff must be positive")
        dim = self.cutoff ** self.modes
        if mat.shape != (dim, dim):
            raise ArgumentError(f"matrix shape {mat.shape} does not match dimension {dim}")
        _check_dense_dim(dim)
        tol = tolerances()
        herm = float(np.max(np.abs(mat - mat.conj().T))) if dim else 0.0
        if not herm <= tol.herm:   # NaN fails these checks
            raise NumericalValidityError(f"matrix is not Hermitian (residue {herm:.3e})")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= tol.norm:
            raise NumericalValidityError(f"trace {tr} deviates from 1 beyond tolerance")
        if not self.leakage >= 0:
            raise ArgumentError("leakage must be non-negative")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def photon_numbers(self) -> np.ndarray:
        """Mean photon number per mode."""
        return _photon_numbers(np.real(np.diag(self.matrix)), self.modes, self.cutoff)

    def energy(self) -> float:
        return float(np.sum(self.photon_numbers()))

    def to_json(self) -> str:
        flat = self.matrix.ravel()
        return json.dumps({
            "modes": self.modes, "cutoff": self.cutoff,
            "re": flat.real.tolist(), "im": flat.imag.tolist(),
            "leakage": self.leakage,
        })

    @staticmethod
    def from_json(text: str) -> "DensityMatrix":
        obj = json.loads(text)
        dim = int(obj["cutoff"]) ** int(obj["modes"])
        mat = (np.asarray(obj["re"], dtype=float)
               + 1j * np.asarray(obj["im"], dtype=float)).reshape(dim, dim)
        return DensityMatrix(int(obj["modes"]), int(obj["cutoff"]), mat,
                             float(obj.get("leakage", 0.0)))


State = FockStateVector | DensityMatrix


def _photon_numbers(populations: np.ndarray, modes: int, cutoff: int) -> np.ndarray:
    """Mean photon number per mode from the Fock-basis populations."""
    idx = np.arange(populations.size)
    return np.array([float(np.sum(populations * ((idx // cutoff ** m) % cutoff)))
                     for m in range(modes)])


def as_density(state: State) -> DensityMatrix:
    return state if isinstance(state, DensityMatrix) else state.density()


@dataclass(frozen=True)
class MeasureReport:
    """A measure value plus the diagnostics needed to audit it."""

    value: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, val in self.diagnostics.items():
            if isinstance(val, (int, float)) and val < 0:
                raise ArgumentError(f"diagnostic {key!r} must be non-negative, got {val}")

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "diagnostics": self.diagnostics})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: State, b: State) -> State:
    """Tensor product; `a` keeps the low (fast) modes, `b` takes the high ones.

    Two vectors give a vector; any other pair gives a density matrix.
    """
    if a.cutoff != b.cutoff:
        raise ArgumentError(f"cutoffs differ: {a.cutoff} vs {b.cutoff}")
    # little-endian: a on the fast index -> kron(b, a)
    if isinstance(a, FockStateVector) and isinstance(b, FockStateVector):
        return FockStateVector(a.modes + b.modes, a.cutoff,
                               np.kron(b.amplitudes, a.amplitudes), a.leakage + b.leakage)
    a, b = as_density(a), as_density(b)
    _check_dense_dim(a.dim * b.dim)
    return DensityMatrix(a.modes + b.modes, a.cutoff,
                         np.kron(b.matrix, a.matrix),
                         leakage=a.leakage + b.leakage)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the modes in `keep` (any iterable of mode indices)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ArgumentError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= rho.modes:
        raise ArgumentError(f"keep set {keep} out of range for {rho.modes} modes")
    m, d = rho.modes, rho.cutoff
    if len(keep) == m:
        return rho
    t = rho.matrix.reshape((d,) * (2 * m))
    # axes run from mode m-1 down to mode 0, rows then columns; a traced mode
    # carries one label on both its axes, a kept mode k gets m + k on its column
    col = [m + k if k in keep else k for k in range(m)]
    modes_desc = range(m - 1, -1, -1)
    kept_desc = keep[::-1]
    reduced = np.einsum(t, [*modes_desc, *(col[k] for k in modes_desc)],
                        [*kept_desc, *(col[k] for k in kept_desc)])
    dk = d ** len(keep)
    return DensityMatrix(len(keep), d, reduced.reshape(dk, dk), leakage=rho.leakage)


def partial_transpose(rho: DensityMatrix, mode: int = 1) -> np.ndarray:
    """Partial transpose of a two-mode state; returns a Hermitian matrix."""
    if rho.modes != 2:
        raise ArgumentError("partial transpose is supported for two-mode states only")
    if mode not in (0, 1):
        raise ArgumentError("mode must be 0 or 1")
    d = rho.cutoff
    t = rho.matrix.reshape(d, d, d, d)  # (n1, n0, m1, m0)
    t = t.transpose((0, 3, 2, 1)) if mode == 0 else t.transpose((2, 1, 0, 3))
    return np.ascontiguousarray(t.reshape(d * d, d * d))


def purity(rho: State) -> float:
    if isinstance(rho, FockStateVector):
        return 1.0
    # Tr[rho^2] = ||rho||_F^2 for Hermitian rho
    return float(np.real(np.vdot(rho.matrix, rho.matrix)))


def overlap(a: DensityMatrix, b: DensityMatrix) -> float:
    """kappa = Tr[a b]; real and non-negative for states."""
    if a.dim != b.dim or a.modes != b.modes:
        raise ArgumentError("overlap requires states of identical dimensions")
    val = complex(np.vdot(a.matrix, b.matrix))  # Tr[a^dag b] = Tr[a b]
    tol = tolerances()
    if abs(val.imag) > tol.herm * max(1.0, abs(val.real)):
        raise NumericalValidityError(f"overlap has imaginary part {val.imag:.3e}")
    if val.real < -tol.eig:
        raise NumericalValidityError(f"overlap {val.real:.3e} below -tol_eig")
    return float(val.real)


def shannon_entropy(p) -> float:
    """-sum p log p with 0*log(0) := 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -tolerances().eig):
        raise NumericalValidityError("probabilities must be non-negative")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def _entropy_of_spectrum(eigs: np.ndarray) -> tuple[float, float]:
    """Entropy in nats plus the clamped negative-eigenvalue mass."""
    tol = tolerances()
    lo = float(eigs.min()) if eigs.size else 0.0
    if lo < -tol.eig:
        raise NumericalValidityError(
            f"eigenvalue {lo:.3e} below -tol_eig; state is not numerically positive")
    clamped = float(-np.sum(eigs[eigs < 0.0]))
    lam = eigs[eigs > 0.0]
    return float(-np.sum(lam * np.log(lam))), clamped


def von_neumann_entropy(rho: State) -> float:
    """S(rho) = -Tr[rho log rho]; exact 0 for pure state vectors."""
    if isinstance(rho, FockStateVector):
        return 0.0
    value, _ = _entropy_of_spectrum(rho.eigenvalues())
    return value


def random_density_matrix(modes: int, cutoff: int, rank: int, seed=None) -> DensityMatrix:
    """Random state from the Ginibre-induced measure: rho = GG^dag / Tr[GG^dag]."""
    dim = cutoff ** modes
    if not 1 <= rank <= dim:
        raise ArgumentError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(modes, cutoff, mat)
