"""The non-Gaussianity measures: Hilbert-Schmidt (delta_A), relative-entropy
(delta_B), Wehrl (delta_C), their mutual inequality, the bounded-search measure
for maps, and the single-mode upper-bound sweep.  Entropies are in nats."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import serial_blas
from .channels import ChannelSpec, apply_channel
from .errors import ArgumentError, NumericalValidityError
from .fock import (DensityMatrix, FockStateVector, MeasureReport, State,
                   as_density, _entropy_of_spectrum, purity,
                   random_density_matrix)
from .gaussian import (GaussianData, displacement_matrix, fit_single_mode_gaussian,
                       gaussian_entropy, gaussian_fock_block, moments, squeeze_matrix,
                       symplectic_eigenvalues, thermal_weights, SingleModeGaussianParams)
from .states import _coherent_amplitudes

__all__ = [
    "delta_a", "delta_b", "delta_c", "QuadratureGrid",
    "check_measure_inequality", "conjecture_a5_sweep", "ng_of_map",
]

_CLAMP = 1e-6  # entropy differences of matched states sit at numerical noise level


def _nonnegative(name: str, value: float) -> float:
    """A measure that is >= 0 in exact arithmetic: noise in (-_CLAMP, 0)
    reads 0, anything lower is a numerical failure."""
    if value <= -_CLAMP:
        raise NumericalValidityError(f"{name} = {value:.3e} is negative beyond "
                                     f"the {_CLAMP:g} noise clamp")
    return max(value, 0.0)


def delta_a(rho: State) -> MeasureReport:
    """Squared renormalized HS distance to the reference Gaussian,
    (mu[rho] + mu[tau] - 2 kappa) / (2 mu[rho]).

    mu[tau] comes from the exact Gaussian purity prod_k 1/(2 d_k) and
    kappa from the unrenormalized Fock block of tau, so states whose reference
    Gaussian extends far beyond the cutoff are still handled exactly.
    """
    if rho.modes != 1:
        raise ArgumentError("delta_A is restricted to single-mode states "
                            "(two-mode reference synthesis is out of scope)")
    g = moments(rho)
    params = fit_single_mode_gaussian(g)
    block, deficit = gaussian_fock_block(params, rho.cutoff)
    mu_rho = purity(rho)
    mu_tau = float(np.prod(0.5 / symplectic_eigenvalues(g)))  # exact Gaussian purity
    dm = as_density(rho)
    kappa = float(np.real(np.vdot(dm.matrix, block)))
    value = _nonnegative("delta_A", (mu_rho + mu_tau - 2.0 * kappa) / (2.0 * mu_rho))
    return MeasureReport(value, {"leakage": deficit + rho.leakage, "cutoff_used": rho.cutoff,
                                 "clamped_eigenvalue_mass": 0.0})


def delta_b(rho: State) -> MeasureReport:
    """QRE non-Gaussianity via the entropy-difference identity S(tau) - S(rho).

    Never goes through log(tau): with matched moments the identity is exact and
    needs no reference-state synthesis (which keeps two-mode states in reach).
    """
    return _delta_b_from_moments(rho, moments(rho))


def _delta_b_from_moments(rho: State, g: GaussianData) -> MeasureReport:
    """delta_B of rho whose moments g the caller already holds."""
    s_tau = gaussian_entropy(g)
    if isinstance(rho, FockStateVector):
        s_rho, clamped = 0.0, 0.0
    else:
        s_rho, clamped = _entropy_of_spectrum(rho.eigenvalues())
    value = _nonnegative("delta_B", s_tau - s_rho)  # Klein: S(tau) >= S(rho)
    return MeasureReport(value, {"leakage": rho.leakage, "cutoff_used": rho.cutoff,
                                 "clamped_eigenvalue_mass": clamped})


# ---------------------------------------------------------------------------
# Wehrl measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform square phase-space grid for the Husimi quadrature."""

    half_width: float
    spacing: float = 0.05

    def __post_init__(self):
        if not (self.half_width > 0 and self.spacing > 0):
            raise ArgumentError(f"grid half-width {self.half_width} and spacing "
                                f"{self.spacing} must be positive")

    def points(self):
        n = int(math.floor(2 * self.half_width / self.spacing)) + 1
        xs = (np.arange(n) - (n - 1) / 2) * self.spacing
        return xs

    @staticmethod
    def for_state(state: State) -> "QuadratureGrid":
        return QuadratureGrid(math.sqrt(2.0 * (state.energy() + 1.0)) + 5.0)

    @staticmethod
    def covering(state: State) -> "QuadratureGrid":
        """Half-width of 5.5 Husimi standard deviations along the widest axis,
        plus the displacement and a margin of 1; use this
        for strongly squeezed states, whose Q function outgrows the default
        energy-based square."""
        g = moments(state)
        k = g.sigma + 0.5 * np.eye(2)
        spread = math.sqrt(float(np.linalg.eigvalsh(k)[-1]) / 2.0)
        center = float(np.linalg.norm(g.X)) / math.sqrt(2.0)
        return QuadratureGrid(5.5 * spread + center + 1.0)


def _husimi_on_grid(state: State, xs: np.ndarray) -> np.ndarray:
    """Q(alpha) = <alpha|rho|alpha>/pi on the grid xs x xs, row-chunked.

    Each chunk of grid rows holds about 1e6 coherent amplitudes (16 MB); with
    4e6 (64 MB) the Husimi grids of the wehrl benchmark took twice as long.
    """
    d = state.cutoff
    if isinstance(state, DensityMatrix):
        lam, vec = np.linalg.eigh(state.matrix)
        keep = lam > 1e-16
        lam, vec = lam[keep], vec[:, keep]
    else:
        lam, vec = np.array([1.0]), state.amplitudes.reshape(-1, 1)
    q = np.empty((xs.size, xs.size))
    chunk = max(1, int(1e6 // max(d * xs.size, 1)))
    for lo in range(0, xs.size, chunk):
        hi = min(lo + chunk, xs.size)
        alphas = (xs[lo:hi, None] + 1j * xs[None, :]).ravel()
        b = np.abs(_coherent_amplitudes(alphas, d).T @ vec.conj()) ** 2
        q[lo:hi, :] = (b @ lam).reshape(hi - lo, xs.size) / math.pi
    return q


def _wehrl_from_grid(q: np.ndarray, spacing: float) -> tuple[float, float]:
    """(H_W, normalization residual); points with Q = 0 contribute nothing."""
    da = spacing * spacing
    pos = q[q > 0]
    hw = float(-np.sum(pos * np.log(math.pi * pos)) * da)
    resid = abs(float(np.sum(q) * da) - 1.0)
    return hw, resid


def _gaussian_husimi(g: GaussianData, xs: np.ndarray) -> np.ndarray:
    """Closed-form Husimi function of the Gaussian state with moments g."""
    k = g.sigma + 0.5 * np.eye(2)
    kinv = np.linalg.inv(k)
    norm = 1.0 / (math.pi * math.sqrt(float(np.linalg.det(k))))
    # quadrature-space point for alpha = x + iy is (sqrt2 x, sqrt2 y)
    y1 = math.sqrt(2.0) * xs[:, None] - g.X[0]
    y2 = math.sqrt(2.0) * xs[None, :] - g.X[1]
    quad = kinv[0, 0] * y1 ** 2 + 2 * kinv[0, 1] * y1 * y2 + kinv[1, 1] * y2 ** 2
    return norm * np.exp(-0.5 * quad)


def delta_c(rho: State, grid: QuadratureGrid | None = None) -> MeasureReport:
    """Wehrl-entropy non-Gaussianity H_W(tau) - H_W(rho) by grid quadrature.

    The reference term uses the closed-form Gaussian Husimi function on the
    same grid, so both entropies share the quadrature bias.

    Cost: for P grid points, cutoff d and a rank-k state (k = 1 for a
    vector), the Husimi grid takes two complex products per point and level
    for the coherent recursion plus P d k multiply-adds for the overlaps.
    Memory is a 16 MB chunk of coherent amplitudes plus O(P k); a density
    also pays one d x d eigh.
    """
    if rho.modes != 1:
        raise ArgumentError("delta_C is single-mode only")
    if grid is None:
        grid = QuadratureGrid.for_state(rho)
    xs = grid.points()
    g = moments(rho)
    q_rho = _husimi_on_grid(rho, xs)
    q_tau = _gaussian_husimi(g, xs)
    hw_rho, resid_rho = _wehrl_from_grid(q_rho, grid.spacing)
    hw_tau, resid_tau = _wehrl_from_grid(q_tau, grid.spacing)
    resid = max(resid_rho, resid_tau)
    if resid > 1e-4:
        raise NumericalValidityError(
            f"Husimi quadrature residual {resid:.2e} > 1e-4: enlarge the grid")
    value = hw_tau - hw_rho
    return MeasureReport(value, {"leakage": rho.leakage, "cutoff_used": rho.cutoff,
                                 "quadrature_residual": resid,
                                 "grid_half_width": grid.half_width,
                                 "grid_spacing": grid.spacing})


# ---------------------------------------------------------------------------
# relations and sweeps
# ---------------------------------------------------------------------------

def check_measure_inequality(rho: State) -> tuple[bool, float]:
    """delta_B >= delta_A * mu; returns (holds, margin)."""
    margin = delta_b(rho).value - delta_a(rho).value * purity(rho)
    return margin >= -1e-6, margin


def conjecture_a5_sweep(samples: int, cutoffs, seed=0) -> dict:
    """Random-state sweep of delta_A per cutoff; the single-mode bound is 1/2.

    Ranks are drawn uniformly so the sample spans the purity range; |1> is
    forced into every sample (a known high-delta_A point, 5/12).
    """
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    out = {}
    edges = np.linspace(0.0, 0.55, 41)
    for d in cutoffs:
        values = np.empty(samples + 1)
        forced = np.zeros(d, dtype=complex)
        forced[1] = 1.0
        values[0] = delta_a(FockStateVector(1, d, forced)).value
        for i in range(samples):
            rank = int(rng.integers(1, d + 1))
            values[i + 1] = delta_a(random_density_matrix(1, d, rank, rng)).value
        hist, _ = np.histogram(values, bins=edges)
        out[int(d)] = {
            "max": float(values.max()),
            "mean": float(values.mean()),
            "histogram": hist.tolist(),
            "bin_edges": edges.tolist(),
            "bound_ok": bool(values.max() <= 0.5 + 1e-6),
        }
    return out


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on the first call.

    Importing scipy.optimize costs about 0.5 s (2-core VM), which every
    ``nongauss`` process would pay at import; only ng_of_map's simplex
    refinement runs it, after the Gaussian-channel early return and the grid
    search.  The name stays at module level, so a wrapper patched over
    ``measures.minimize`` (the benchmark's span tracer counts objective calls
    this way) still sees every refinement.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


@serial_blas()
def ng_of_map(channel: ChannelSpec, energy_cap: float = 4.0, cutoff: int = 30,
              budget: int = 500) -> MeasureReport:
    """Lower bound on the map non-Gaussianity max over Gaussian probes of
    delta_B[E(rho_G)], by coarse grid search plus simplex refinement.

    The reported value is a certified lower bound on the true supremum: every
    probe evaluated is an admissible Gaussian state under the energy cap.  A
    Gaussian channel (loss, a Gaussian unitary) maps every probe to a Gaussian
    state, so its value is exactly 0, reported with no evaluations and the
    vacuum as the probe.

    The search runs on one OpenBLAS thread (``_blas.serial_blas``), and the
    caller's thread counts are restored on return.  Its probes are dense
    ``expm`` and ``eigvalsh`` calls at 50-200 levels, where a second thread
    costs more than it gains: on a 2-core machine a complex ``expm`` at
    n = 130 takes 6-8 ms on one thread against 16 ms on two, and the 336
    probe syntheses of the benchmark's map search 2.4 s against 8.0 s.  The
    result then no longer follows the thread count in its last bits.

    scipy.linalg (for the probes' expm) and scipy.optimize are imported by the
    first probe and the refinement, not with the module: with scipy.special
    they made up about 0.5 s of the 0.75 s a one-shot CLI process spent
    importing ``nongauss`` (2-core VM).
    """
    if channel.kind == "beamsplit":
        raise ArgumentError("ng_of_map probes one mode; a beam splitter acts on two")
    if channel.is_gaussian:
        return MeasureReport(0.0, {"evaluations": 0.0, "cutoff_used": cutoff,
                                   "probe_n_th": 0.0, "probe_r": 0.0, "probe_phi": 0.0,
                                   "probe_alpha_mag": 0.0, "probe_alpha_arg": 0.0})
    evals = 0

    def probe_cutoff(params: SingleModeGaussianParams) -> int:
        # size the probe so its own crop deficit sits far below the zero test:
        # occupation decays geometrically with ratio (V - 1/2)/(V + 1/2), where
        # V is the largest CM eigenvalue
        v = (params.n_th + 0.5) * math.exp(2.0 * params.r)
        ratio = (v - 0.5) / (v + 0.5)
        base = 10 if ratio <= 0 else math.log(1e-10) / math.log(ratio)
        amag = abs(params.alpha)
        d = int(math.ceil(base + 4 * amag * amag
                          + 8 * amag * math.sqrt(params.energy() + 1.0))) + 20
        return max(cutoff, d)

    def probe_state(params: SingleModeGaussianParams) -> DensityMatrix:
        """The probe as the dense D S nu S^dag D^dag at an enlarged internal
        cutoff, not gaussian_fock_block's exact block.

        The map-search references pin the Nelder-Mead path of phase_diffusion,
        where the squeezing phase is redundant and rounding breaks the tie: the
        exact block moves probe_phi from 1.4293 to 6.2827.  ROADMAP item 2
        deletes this builder when it regenerates those references.
        """
        d = probe_cutoff(params)
        d_int = d + max(20, int(math.ceil(4 * params.energy())))
        nu = np.diag(thermal_weights(params.n_th, d_int)).astype(complex)
        u = displacement_matrix(params.alpha, d_int)
        if params.r > 0:
            u = u @ squeeze_matrix(params.r, params.phi, d_int)
        tau = u @ nu @ u.conj().T
        tau = tau[:d, :d]
        tau = 0.5 * (tau + tau.conj().T)
        deficit = max(1.0 - float(np.real(np.trace(tau))), 0.0)
        return DensityMatrix(1, d, tau / (1.0 - deficit), leakage=deficit)

    def probe_value(x) -> float:
        nonlocal evals
        n_th, r, phi, amag, aarg = x
        if n_th < 0 or r < 0 or amag < 0:
            return -1.0
        params = SingleModeGaussianParams(amag * np.exp(1j * aarg), r, phi % (2 * math.pi), n_th)
        if params.energy() > energy_cap + 1e-12:
            return -1.0
        probe = probe_state(params)
        evals += 1
        out = apply_channel(probe, channel)
        return delta_b(out).value

    rmax = 0.5 * math.acosh(2 * energy_cap + 1.0)
    amax = math.sqrt(energy_cap)
    best_val, best_x = -1.0, None
    for n_th in (0.0, energy_cap / 4, energy_cap / 2):
        for r in (0.0, rmax / 3, 2 * rmax / 3):
            for phi in (0.0, math.pi / 2):
                for amag in (0.0, amax / 2, 0.9 * amax):
                    for aarg in ((0.0,) if amag == 0 else (0.0, math.pi / 2)):
                        if evals >= budget:
                            break
                        x = (n_th, r, phi, amag, aarg)
                        v = probe_value(x)
                        if v > best_val:
                            best_val, best_x = v, x

    if best_x is not None and evals < budget:
        res = minimize(lambda x: -probe_value(x), np.asarray(best_x),
                       method="Nelder-Mead",
                       options={"maxfev": budget - evals, "xatol": 1e-4, "fatol": 1e-9})
        if -res.fun > best_val:
            best_val, best_x = -res.fun, tuple(res.x)

    n_th, r, phi, amag, aarg = best_x
    return MeasureReport(max(best_val, 0.0), {
        "evaluations": float(evals),
        "cutoff_used": cutoff,
        "probe_n_th": max(n_th, 0.0),
        "probe_r": max(r, 0.0),
        "probe_phi": phi % (2 * math.pi),
        "probe_alpha_mag": max(amag, 0.0),
        "probe_alpha_arg": aarg % (2 * math.pi),
    })
