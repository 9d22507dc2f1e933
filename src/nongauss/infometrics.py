"""Entropic quantities tied to non-Gaussianity: Holevo information, mutual
information and conditional entropy with their Gaussian-extremality gaps, and
the quantum Fisher information with its non-Gaussianity upper bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import ArgumentError, NumericalValidityError
from .fock import (DensityMatrix, FockStateVector, State, _log_base, as_density,
                   partial_trace, von_neumann_entropy)
from .gaussian import GaussianData, h, moments, symplectic_eigenvalues
from .measures import _delta_b_from_moments, delta_b

__all__ = [
    "Ensemble", "StateFamily", "holevo_chi",
    "mutual_information", "gaussian_mutual_information", "mutual_information_gap",
    "conditional_entropy", "gaussian_conditional_entropy", "conditional_entropy_gap",
    "qfi", "qfi_ng_bound_check",
]

_IDENTITY_TOL = 1e-6  # the entropic gap identities are theorems; worse means a bug


# ---------------------------------------------------------------------------
# ensembles and the Holevo quantity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Symbols encoded in states rho_i drawn with probabilities p_i."""

    entries: tuple  # ((p_i, state_i), ...)

    def __post_init__(self):
        if not self.entries:
            raise ArgumentError("ensemble must be nonempty")
        total = sum(p for p, _ in self.entries)
        if abs(total - 1.0) > tolerances().norm:
            raise ArgumentError(f"ensemble probabilities sum to {total}, not 1")
        dims = {(s.modes, s.cutoff) for _, s in self.entries}
        if len(dims) != 1:
            raise ArgumentError("all ensemble members must share dimensions")
        if any(p <= 0 for p, _ in self.entries):
            raise ArgumentError("ensemble probabilities must be positive")

    def average_state(self) -> DensityMatrix:
        p0, s0 = self.entries[0]
        mat = p0 * as_density(s0).matrix.copy()
        for p, s in self.entries[1:]:
            mat += p * as_density(s).matrix
        mat = 0.5 * (mat + mat.conj().T)
        return DensityMatrix(s0.modes, s0.cutoff, mat / np.real(np.trace(mat)))


def holevo_chi(ensemble: Ensemble, base=None) -> float:
    """chi = S(rho_bar) - sum_i p_i S(rho_i).

    For pure members at fixed covariance matrix this equals the reference
    Gaussian entropy minus the non-Gaussianity of the average state; the
    identity is re-derived internally as a consistency check.
    """
    rho_bar = ensemble.average_state()
    chi = von_neumann_entropy(rho_bar) - sum(
        p * von_neumann_entropy(s) for p, s in ensemble.entries)
    if chi < -1e-9:
        raise NumericalValidityError(f"Holevo chi {chi:.3e} is negative")
    if all(isinstance(s, FockStateVector) for _, s in ensemble.entries):
        if rho_bar.modes == 1:
            s_tau = h(symplectic_eigenvalues(moments(rho_bar)).d_minus)
            alt = s_tau - delta_b(rho_bar).value
            if abs(alt - chi) > 1e-8 * max(1.0, abs(chi)):
                raise NumericalValidityError(
                    f"pure-ensemble identity violated: chi {chi} vs S(tau)-delta {alt}")
    return max(chi, 0.0) / _log_base(base)


# ---------------------------------------------------------------------------
# two-mode entropic gaps
# ---------------------------------------------------------------------------

def gaussian_mutual_information(g: GaussianData, base=None) -> float:
    """I_G = S(tau_A) + S(tau_B) - S(tau_AB) from the covariance matrix alone."""
    if g.modes != 2:
        raise ArgumentError("gaussian mutual information needs a two-mode CM")
    spec = symplectic_eigenvalues(g)
    val = (h(math.sqrt(float(np.linalg.det(g.sigma[:2, :2]))))
           + h(math.sqrt(float(np.linalg.det(g.sigma[2:, 2:]))))
           - h(spec.d_minus) - h(spec.d_plus))
    return val / _log_base(base)


def mutual_information(rho: State, base=None) -> float:
    """I(A:B) = S(A) + S(B) - S(AB); checked against I_G + Delta_2 internally."""
    rho = as_density(rho)
    if rho.modes != 2:
        raise ArgumentError("mutual information needs a two-mode state")
    g = moments(rho)
    rho_a = partial_trace(rho, {0})
    rho_b = partial_trace(rho, {1})
    i_ab = (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(rho))
    i_g = gaussian_mutual_information(g)
    gap = (_delta_b_from_moments(rho, g).value
           - delta_b(rho_a).value - delta_b(rho_b).value)
    if abs((i_ab - i_g) - gap) > _IDENTITY_TOL:
        raise NumericalValidityError(
            f"Delta_2 identity violated: I - I_G = {i_ab - i_g} vs gap {gap}")
    if i_ab < i_g - _IDENTITY_TOL:
        raise NumericalValidityError("Gaussian extremality of I(A:B) violated")
    return i_ab / _log_base(base)


def mutual_information_gap(rho: State, base=None) -> float:
    """Delta_2 = delta_B[AB] - delta_B[A] - delta_B[B] = I - I_G (>= 0)."""
    rho = as_density(rho)
    rho_a = partial_trace(rho, {0})
    rho_b = partial_trace(rho, {1})
    gap = delta_b(rho).value - delta_b(rho_a).value - delta_b(rho_b).value
    return gap / _log_base(base)


def gaussian_conditional_entropy(g: GaussianData, base=None) -> float:
    """S_G(A|B) = S(tau_AB) - S(tau_B)."""
    if g.modes != 2:
        raise ArgumentError("gaussian conditional entropy needs a two-mode CM")
    spec = symplectic_eigenvalues(g)
    val = (h(spec.d_minus) + h(spec.d_plus)
           - h(math.sqrt(float(np.linalg.det(g.sigma[2:, 2:])))))
    return val / _log_base(base)


def conditional_entropy(rho: State, base=None) -> float:
    """S(A|B) = S(AB) - S(B); Gaussian states maximize it at fixed moments."""
    rho = as_density(rho)
    if rho.modes != 2:
        raise ArgumentError("conditional entropy needs a two-mode state")
    g = moments(rho)
    rho_b = partial_trace(rho, {1})
    s_ab = von_neumann_entropy(rho) - von_neumann_entropy(rho_b)
    s_g = gaussian_conditional_entropy(g)
    gap = _delta_b_from_moments(rho, g).value - delta_b(rho_b).value
    if abs((s_g - s_ab) - gap) > _IDENTITY_TOL:
        raise NumericalValidityError(
            f"Delta_1 identity violated: S_G - S = {s_g - s_ab} vs gap {gap}")
    if s_ab > s_g + _IDENTITY_TOL:
        raise NumericalValidityError("Gaussian extremality of S(A|B) violated")
    return s_ab / _log_base(base)


def conditional_entropy_gap(rho: State, base=None) -> float:
    """Delta_1 = delta_B[AB] - delta_B[B] = S_G(A|B) - S(A|B) (>= 0)."""
    rho = as_density(rho)
    rho_b = partial_trace(rho, {1})
    gap = delta_b(rho).value - delta_b(rho_b).value
    return gap / _log_base(base)


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateFamily:
    """A state rho at the working point and the derivative of the family there."""

    rho: DensityMatrix
    drho: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.drho, dtype=complex)
        object.__setattr__(self, "drho", d)
        if d.shape != self.rho.matrix.shape:
            raise ArgumentError("derivative shape must match the state")
        tol = tolerances()
        herm = float(np.max(np.abs(d - d.conj().T)))
        if herm > tol.herm * max(1.0, float(np.max(np.abs(d)))):
            raise ArgumentError(f"derivative must be Hermitian (residue {herm:.3e})")
        tr = abs(complex(np.trace(d)))
        if tr > 1e-10 * max(1.0, float(np.max(np.abs(d)))):
            raise ArgumentError(f"derivative must be traceless (trace {tr:.3e})")


EIG_FLOOR = 1e-12  # eigenvalue-pair sums below this are outside the support sum


def qfi(family: StateFamily) -> float:
    """H = 2 sum_nm |<psi_m| d_rho |psi_n>|^2 / (rho_n + rho_m) over the support."""
    lam, vec = np.linalg.eigh(family.rho.matrix)
    mat = vec.conj().T @ family.drho @ vec
    denom = lam[:, None] + lam[None, :]
    mask = denom > EIG_FLOOR
    val = 2.0 * float(np.sum((np.abs(mat) ** 2)[mask] / denom[mask]))
    if val < 0:
        raise NumericalValidityError("QFI must be non-negative")
    return val


def qfi_ng_bound_check(rho0: DensityMatrix, family, epsilons,
                       derivative: np.ndarray | None = None) -> dict:
    """Check H(lambda_0) <= 2 delta_B[rho_eps]/eps^2 + tol(eps) on an eps ladder.

    ``family`` maps a parameter value to a DensityMatrix; it must preserve the
    first and second moments of rho0 (the hypothesis of the bound).  The slack
    tol(eps) = max(1e-4, 10 eps) covers the second-order truncation of the
    relative-entropy expansion.
    """
    g0 = moments(rho0)
    epsilons = sorted(float(e) for e in epsilons)
    if derivative is None:
        e0 = epsilons[0]
        derivative = (family(e0).matrix - rho0.matrix) / e0
    h_val = qfi(StateFamily(rho0, derivative))

    rows = []
    for eps in epsilons:
        rho_eps = family(eps)
        g_eps = moments(rho_eps)
        drift = max(float(np.max(np.abs(g_eps.X - g0.X))),
                    float(np.max(np.abs(g_eps.sigma - g0.sigma))))
        if drift > 1e-8:
            raise ArgumentError(
                f"family changes the moments by {drift:.3e} at eps={eps}; "
                "the bound only covers moment-preserving families")
        bound = 2.0 * delta_b(rho_eps).value / (eps * eps)
        tol_eps = max(1e-4, 10.0 * eps)
        rows.append({"eps": eps, "qfi": h_val, "bound": bound,
                     "slack": tol_eps, "holds": h_val <= bound + tol_eps})
    return {"qfi": h_val, "ladder": rows, "all_hold": all(r["holds"] for r in rows)}
