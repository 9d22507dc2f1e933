"""Experimentally friendly lower bounds on the QRE non-Gaussianity, built on
photon counting with efficiency eta (eta = 1 is ideal detection).

Every bound is an entropy gap in nats on the photocount distribution q_eta, by
one of two formulas: S(nu_M) - H(q_eta), with nu_M the thermal state of q_eta's
mean count M, or S(tau_eta) - H(q_eta), with tau_eta the Gaussian state of the
lossy covariance matrix eta sigma + (1 - eta)/2 I.

  epsilon_A  S(nu_M), any eta: Fock-diagonal states (it reads only the counts)
  epsilon_C  S(nu_M), any eta: thermal-reference states, Tr[rho a] = Tr[rho a^2] = 0
  epsilon_B  epsilon_C at eta = 1
  epsilon_E  S(tau_eta), any eta: any single-mode state
  epsilon_D  epsilon_E at eta = 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .channels import _efficiency, loss_transition_matrix
from .errors import ArgumentError, NumericalValidityError
from .fock import State, _integer, as_density, shannon_entropy
from .gaussian import GaussianData, gaussian_entropy, moments
from .states import delta_b_diagonal

__all__ = [
    "PhotodetectionPOVM", "detection_statistics", "histogram_to_distribution",
    "epsilon_a", "epsilon_b", "epsilon_c", "epsilon_d", "epsilon_e",
]


@dataclass(frozen=True)
class PhotodetectionPOVM:
    """Pi_m = sum_{s >= m} alpha_{m,s}(eta) |s><s|, stored as diagonal weight tables.

    The elements are diagonal by construction, so only the (m, s) weight table
    is kept; completeness sum_m Pi_m = 1 holds exactly on the truncated space.
    """

    eta: float
    cutoff: int

    def __post_init__(self):
        _efficiency(self.eta)
        if _integer(self.cutoff, "cutoff") < 1:
            raise ArgumentError("cutoff must be positive")

    def weight_table(self) -> np.ndarray:
        """table[m, s] = alpha_{m,s}(eta); columns sum to one."""
        return loss_transition_matrix(self.eta, self.cutoff)


def detection_statistics(rho: State, povm: PhotodetectionPOVM) -> np.ndarray:
    """q_m = Tr[rho Pi_m]; non-negative and summing to 1 within max(config.TAIL, 1e-9)."""
    rho = as_density(rho)
    if rho.modes != 1:
        raise ArgumentError("detection statistics are single-mode")
    if rho.cutoff != povm.cutoff:
        raise ArgumentError(
            f"POVM cutoff {povm.cutoff} does not match the state cutoff {rho.cutoff}")
    q = povm.weight_table() @ np.real(np.diag(rho.matrix))
    q = np.clip(q, 0.0, None)
    if abs(q.sum() - 1.0) > max(config.TAIL, 1e-9):
        raise NumericalValidityError(f"detection statistics sum to {q.sum()}")
    return q / q.sum()


def histogram_to_distribution(rows) -> np.ndarray:
    """Normalize measured (m, count) rows into a dense q_m vector."""
    rows = [(_integer(m, "photon number m"), np.asarray(c)) for m, c in rows]
    if not rows:
        raise ArgumentError("empty histogram")
    if any(c.shape != () or c.dtype.kind not in "biuf" for _, c in rows):   # not text or None
        raise ArgumentError("histogram counts must be real numbers")
    if any(m < 0 or not c >= 0 for m, c in rows):   # NaN fails this check
        raise ArgumentError("histogram entries must be non-negative")
    size = max(m for m, _ in rows) + 1
    q = np.zeros(size)
    for m, c in rows:
        q[m] += c
    total = q.sum()
    if not 0 < total < np.inf:
        raise ArgumentError(f"histogram total count {total} is not positive and finite")
    return q / total


# ---------------------------------------------------------------------------
# the five bounds
# ---------------------------------------------------------------------------

def epsilon_a(q) -> float:
    """S(nu_M) - H(q) with M the mean of the measured click distribution.

    Valid lower bound for Fock-diagonal states under inefficient detection; at
    eta = 1 it recovers delta_B exactly.
    """
    q = np.asarray(q, dtype=float).ravel()
    if not (np.all(q >= 0) and abs(q.sum() - 1.0) <= 1e-8):   # NaN fails this check
        raise ArgumentError("q must be a probability distribution")
    return delta_b_diagonal(q)


def _check_thermal_reference(rho: State) -> None:
    # Tr[rho a] = sum_m sqrt(m) rho[m, m-1], Tr[rho a^2] = sum_m sqrt(m(m-1)) rho[m, m-2]
    mat = as_density(rho).matrix
    m = np.arange(rho.cutoff)
    t1 = abs(complex(np.dot(np.sqrt(m[1:]), np.diagonal(mat, -1))))
    t2 = abs(complex(np.dot(np.sqrt(m[2:] * m[1:-1]), np.diagonal(mat, -2))))
    if t1 > 1e-8 or t2 > 1e-8:
        raise ArgumentError(
            f"state is outside the thermal-reference class: |<a>| = {t1:.2e}, "
            f"|<a^2>| = {t2:.2e} (both must vanish)")


def epsilon_b(rho: State) -> float:
    """S(nu_N) - H(p_nn) for states whose reference Gaussian is thermal."""
    return epsilon_c(rho, 1.0)


def epsilon_c(rho: State, eta: float) -> float:
    """Like epsilon_B but through an inefficient detector: S(nu_M) - H(q)."""
    povm = PhotodetectionPOVM(eta, rho.cutoff)
    rho = as_density(rho)   # one dense copy of a vector, read by both calls
    q = detection_statistics(rho, povm)
    _check_thermal_reference(rho)
    return epsilon_a(q)


def epsilon_d(rho: State) -> float:
    """S(tau) - H(p_nn): needs the covariance matrix but only ideal counting."""
    return epsilon_e(rho, 1.0)


def epsilon_e(rho: State, eta: float) -> float:
    """S(tau_eta) - H(q): generic states, inefficient detection.

    The loss-transformed reference entropy comes from the analytic CM map
    sigma -> eta sigma + (1 - eta)/2 I, exact and synthesis-free.
    """
    q = detection_statistics(rho, PhotodetectionPOVM(eta, rho.cutoff))
    g = moments(rho)
    sigma_eta = eta * g.sigma + (1.0 - eta) * 0.5 * np.eye(2)
    return gaussian_entropy(GaussianData(g.X, sigma_eta)) - shannon_entropy(q)
