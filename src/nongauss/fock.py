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
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from . import config
from .errors import ArgumentError, NumericalValidityError, ResourceError

__all__ = [
    "FockStateVector", "DensityMatrix", "MeasureReport",
    "state_from_json", "tensor", "partial_trace", "partial_transpose",
    "purity", "overlap", "von_neumann_entropy", "shannon_entropy",
    "random_density_matrix",
]


# ---------------------------------------------------------------------------
# elementary helpers
# ---------------------------------------------------------------------------

_LOG_FACTORIALS = np.empty(0)   # ln k! for k below its size, grown by _log_factorials


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k < n, read-only: a slice of one math.lgamma table that at least
    doubles when outgrown (importing scipy.special for gammaln would add about
    0.35 s to a one-shot CLI process, against 0.2 s for ``import nongauss``)."""
    global _LOG_FACTORIALS
    if _LOG_FACTORIALS.size < n:
        size = max(n, 2 * _LOG_FACTORIALS.size)
        table = np.fromiter(map(math.lgamma, range(1, size + 1)), dtype=float, count=size)
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS[:n]


def _integer(value, name: str) -> int:
    """`value`, a size or level, as an int: an ArgumentError unless it is an int
    or an np.integer (operator.index refuses floats, strings and arrays)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None


def _check_dense_dim(dim: int) -> None:
    cap = config.MAX_DENSE_DIM
    if dim > cap:
        raise ResourceError(
            f"dense Hilbert dimension {dim} exceeds the configured cap {cap}")


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Carrier:
    """What both carriers share: ``modes`` modes of ``cutoff`` levels each, a
    payload (the third field), and ``leakage``, the norm or trace mass that
    constructors, channels and unitaries lost to truncation (informational: it
    does not enter the payload).  A subclass declares its payload and then
    ``leakage: float = 0.0``, so the positional order is (modes, cutoff,
    payload, leakage)."""

    modes: int
    cutoff: int

    def __post_init__(self):
        for name in ("modes", "cutoff"):   # an np.integer size becomes an int
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.modes < 1 or self.cutoff < 1:
            raise ArgumentError("modes and cutoff must be positive")
        if not self.leakage >= 0:
            raise ArgumentError("leakage must be non-negative")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def photon_numbers(self) -> np.ndarray:
        """Mean photon number per mode."""
        pops, d = self._populations(), self.cutoff
        idx = np.arange(pops.size)
        return np.array([float(np.sum(pops * ((idx // d ** m) % d))) for m in range(self.modes)])

    def energy(self) -> float:
        return float(np.sum(self.photon_numbers()))

    def to_json(self) -> str:
        flat = getattr(self, fields(self)[2].name).ravel()
        return json.dumps({"modes": self.modes, "cutoff": self.cutoff, "re": flat.real.tolist(),
                           "im": flat.imag.tolist(), "leakage": self.leakage})

    @classmethod
    def from_json(cls, text: str) -> State:
        return state_from_json(text, cls)


@dataclass(frozen=True)
class FockStateVector(_Carrier):
    """Pure n-mode state over the truncated Fock basis."""

    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.dim:
            raise ArgumentError(
                f"amplitude length {amps.size} does not match cutoff**modes = {self.dim}")
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= config.NORM:   # NaN fails every check
            raise NumericalValidityError(
                f"state vector norm {nrm} deviates from 1 beyond tolerance")

    def _populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to (cutoff,)*modes; mode 0 is the last axis."""
        return self.amplitudes.reshape((self.cutoff,) * self.modes)

    def density(self) -> "DensityMatrix":
        _check_dense_dim(self.dim)
        return DensityMatrix(self.modes, self.cutoff,
                             np.outer(self.amplitudes, self.amplitudes.conj()), self.leakage)


@dataclass(frozen=True)
class DensityMatrix(_Carrier):
    """n-mode mixed state: Hermitian, unit-trace matrix over the truncated basis."""

    matrix: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        dim = self.dim
        if mat.shape != (dim, dim):
            raise ArgumentError(f"matrix shape {mat.shape} does not match dimension {dim}")
        _check_dense_dim(dim)
        herm = float(np.max(np.abs(mat - mat.conj().T))) if dim else 0.0
        if not herm <= config.HERM:   # NaN fails these checks
            raise NumericalValidityError(f"matrix is not Hermitian (residue {herm:.3e})")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= config.NORM:
            raise NumericalValidityError(f"trace {tr} deviates from 1 beyond tolerance")

    def _populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


State = FockStateVector | DensityMatrix


def state_from_json(text: str, kind: type | None = None) -> State:
    """The state ``to_json`` wrote (a `kind` one if given): "re" and "im" hold
    cutoff**modes entries for a vector, their square for a matrix.  Malformed
    text (not JSON, a missing key, a size that is not an integer, a non-numeric,
    non-finite or ragged entry, lists of the wrong length) is an ArgumentError."""
    try:
        obj = json.loads(text)
        modes, cutoff = _integer(obj["modes"], "modes"), _integer(obj["cutoff"], "cutoff")
        values = np.asarray([obj["re"], obj["im"]], dtype=float)
        leakage = float(obj.get("leakage", 0.0))
    except KeyError as exc:
        raise ArgumentError(f"state JSON lacks the key {exc}") from None
    except (ValueError, TypeError) as exc:   # JSONDecodeError and ArgumentError are ValueErrors
        raise ArgumentError(f"malformed state JSON: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ArgumentError("state JSON holds a non-finite entry")
    amps, dim = values[0] + 1j * values[1], cutoff ** max(modes, 0)
    if amps.size == dim and kind is not DensityMatrix:
        return FockStateVector(modes, cutoff, amps, leakage)
    if amps.size == dim * dim and kind is not FockStateVector:
        return DensityMatrix(modes, cutoff, amps.reshape(dim, dim), leakage)
    raise ArgumentError(f"state JSON: {amps.size} entries fit no {modes}-mode "
                        f"{getattr(kind, '__name__', 'state')} at cutoff {cutoff}")


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
    if abs(val.imag) > config.HERM * max(1.0, abs(val.real)):
        raise NumericalValidityError(f"overlap has imaginary part {val.imag:.3e}")
    if val.real < -config.EIG:
        raise NumericalValidityError(f"overlap {val.real:.3e} below -tol_eig")
    return float(val.real)


def _entropy_of_spectrum(eigs: np.ndarray) -> tuple[float, float]:
    """-sum p ln p in nats over the positive entries of a spectrum or a
    distribution (+0.0 for a point mass), plus the clamped negative mass; an
    entry below -config.EIG, or a NaN, is a NumericalValidityError."""
    lo = float(eigs.min()) if eigs.size else 0.0
    if not lo >= -config.EIG:   # NaN fails the check
        raise NumericalValidityError(
            f"entry {lo:.3e} is NaN or below -tol_eig; not a numerically positive spectrum or "
            "distribution")
    # 0.0 - x is exactly -x, but +0.0, not -0.0, at x = 0
    clamped = 0.0 - float(np.sum(eigs[eigs < 0.0]))
    lam = eigs[eigs > 0.0]
    return 0.0 - float(np.sum(lam * np.log(lam))), clamped


def shannon_entropy(p) -> float:
    """-sum p log p with 0*log(0) := 0."""
    return _entropy_of_spectrum(np.asarray(p, dtype=float))[0]


def _entropy_and_clamp(rho: State) -> tuple[float, float]:
    """S(rho) in nats and the clamped negative-eigenvalue mass; exact zeros
    for a pure state vector."""
    if isinstance(rho, FockStateVector):
        return 0.0, 0.0
    return _entropy_of_spectrum(rho.eigenvalues())


def von_neumann_entropy(rho: State) -> float:
    """S(rho) = -Tr[rho log rho]; exact 0 for pure state vectors."""
    return _entropy_and_clamp(rho)[0]


def random_density_matrix(modes: int, cutoff: int, rank: int, seed=None) -> DensityMatrix:
    """Random state from the Ginibre-induced measure: rho = GG^dag / Tr[GG^dag]."""
    dim = _integer(cutoff, "cutoff") ** _integer(modes, "modes")
    if not 1 <= _integer(rank, "rank") <= dim:
        raise ArgumentError(f"rank must be in [1, {dim}], got {rank}")
    _check_dense_dim(dim)
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(modes, cutoff, mat)
