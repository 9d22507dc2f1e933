"""The non-Gaussianity measures: Hilbert-Schmidt (delta_A), relative-entropy
(delta_B), Wehrl (delta_C), their mutual inequality, the bounded-search measure
for maps, and the single-mode upper-bound sweep.  Entropies are in nats."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import serial_blas
from .channels import ChannelSpec, _kerr_moments, apply_channel
from .errors import ArgumentError, NumericalValidityError
from .fock import (DensityMatrix, FockStateVector, MeasureReport, State,
                   as_density, _entropy_and_clamp, _integer, _log_factorials, purity,
                   random_density_matrix)
from .gaussian import (GaussianData, displacement_matrix, fit_single_mode_gaussian,
                       gaussian_entropy, gaussian_fock_block, h, moments, squeeze_matrix,
                       symplectic_eigenvalues, synthesize_single_mode_gaussian,
                       thermal_weights, SingleModeGaussianParams)
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
    s_rho, clamped = _entropy_and_clamp(rho)
    value = _nonnegative("delta_B", s_tau - s_rho)  # Klein: S(tau) >= S(rho)
    return MeasureReport(value, {"leakage": rho.leakage, "cutoff_used": rho.cutoff,
                                 "clamped_eigenvalue_mass": clamped})


# ---------------------------------------------------------------------------
# Wehrl measure
# ---------------------------------------------------------------------------

_MAX_GRID_SIDE = 4096   # points per side: about 4x fig 2's largest covering grid (945)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform square phase-space grid for the Husimi quadrature."""

    half_width: float
    spacing: float = 0.05

    def __post_init__(self):
        if not (0 < self.half_width < math.inf and 0 < self.spacing < math.inf):
            raise ArgumentError(f"grid half-width {self.half_width} and spacing "
                                f"{self.spacing} must be finite and positive")
        span = 2 * self.half_width / self.spacing   # the side is floor(span) + 1
        if not span < _MAX_GRID_SIDE:
            side = math.floor(span) + 1 if span < math.inf else span
            raise ArgumentError(f"grid half-width {self.half_width} at spacing "
                                f"{self.spacing} has {side:g} points per side, above "
                                f"the limit of {_MAX_GRID_SIDE}")

    def points(self):
        n = int(math.floor(2 * self.half_width / self.spacing)) + 1
        xs = (np.arange(n) - (n - 1) / 2) * self.spacing
        return xs

    @staticmethod
    def covering(state: State, spacing: float = 0.05) -> "QuadratureGrid":
        """The automatic grid: half-width 5.5 sigma + |<alpha>| + 1, sigma the
        widest standard deviation of the moment-matched Gaussian's Q.  It covers
        the mass of Q; the entropy integrand decays more slowly, and the edge
        cuts some of it (-3.7e-8 of delta_C for |4>).  The side limit depends
        on the spacing, so a coarser one admits a wider window."""
        if state.modes != 1:
            raise ArgumentError("the automatic delta_C grid is single-mode only")
        g = moments(state)
        k = g.sigma + 0.5 * np.eye(2)
        spread = math.sqrt(float(np.linalg.eigvalsh(k)[-1]) / 2.0)
        center = float(np.linalg.norm(g.X)) / math.sqrt(2.0)
        return QuadratureGrid(5.5 * spread + center + 1.0, spacing)


_HORNER_POINTS = 20000   # grid points per chunk: Horner's working vectors stay in cache
_LOG_BOUND = 600.0       # partial sums are rescaled before |p| could pass e^600


def _husimi_on_grid(state: State, xs: np.ndarray) -> np.ndarray:
    """Q(alpha) = <alpha|rho|alpha>/pi on the grid xs x xs, rows Re alpha and
    columns Im alpha.

    The kernels fill only the block that the state's symmetries leave open,
    decided from the inputs alone.  On an exactly mirrored grid (xs == -xs
    reversed) a state with exactly real coefficients has Q(x, -y) = Q(x, y),
    so only the y >= 0 columns are computed; if it also has a definite parity
    (a vector's occupied levels all even or all odd, a density's nonzero
    entries all at even m - n), Q(-x, y) = Q(x, y) as well and only the
    x >= 0 rows of those columns are.  Every other state or grid takes the
    whole square.

    A vector's mirrored values equal, bit for bit, the ones its kernel gives
    at those points, since the kernel's operations commute with z -> conj(z)
    and z -> -z; a density's may differ in the last bits, as BLAS products of
    another shape round differently.
    """
    q = np.empty((xs.size, xs.size))
    if isinstance(state, FockStateVector):
        coeffs, kernel = state.amplitudes, _bargmann_husimi
    else:
        coeffs, kernel = state.matrix, _density_husimi
    col0 = xs.size // 2 if np.array_equal(xs, -xs[::-1]) and not np.any(coeffs.imag) else 0
    row0 = col0 if col0 and _definite_parity(coeffs) else 0
    kernel(coeffs, xs[row0:], xs[col0:], q[row0:, col0:])
    if row0:   # row i mirrors row n - 1 - i, which lies in the computed block
        q[:row0, col0:] = q[::-1][:row0, col0:]
    if col0:
        q[:, :col0] = q[:, ::-1][:, :col0]
    return q


def _definite_parity(coeffs: np.ndarray) -> bool:
    """Whether the index sums of the nonzero coefficients share one parity: a
    vector's occupied levels, or a density's m + n (even, since its diagonal
    holds nonzero entries)."""
    parity = sum(np.nonzero(coeffs)) % 2
    return bool(np.all(parity == parity[0]))


def _bargmann_husimi(psi: np.ndarray, xr: np.ndarray, yc: np.ndarray, out: np.ndarray):
    """Q of the vector psi at alpha = xr + i yc into out, shape (xr.size, yc.size).

    The Bargmann function <alpha|psi> = e^{-|z|^2/2} sum_n psi_n z^n/sqrt(n!),
    z = conj(alpha), is summed by Horner's rule over the occupied levels only:
    p <- p z^(m-n) sqrt(n!/m!) + psi_n between neighbours n < m, with z^g
    cached per gap; P points cost P complex multiply-adds per occupied level
    and no amplitude matrix.  A bound on |p| moves the sums into a per-point
    log scale s before they could overflow, and Q = exp(2 ln|p| + 2s +
    n_0 ln|z|^2 - ln n_0! - |z|^2)/pi is assembled in log space.
    """
    levels = np.flatnonzero(psi)
    rmax = max(float(np.abs(xr).max()), float(np.abs(yc).max()))
    lnr = math.log(max(math.sqrt(2.0) * rmax, 1.0))   # |z| <= e^lnr
    if lnr > 0:   # split long gaps: no single step may pass e^_LOG_BOUND
        levels = np.union1d(levels, np.arange(levels[0], levels[-1], int(_LOG_BOUND / lnr)))
    lf, n0 = _log_factorials(int(levels[-1]) + 1), int(levels[0])
    gaps = np.diff(levels).tolist()
    steps = list(zip(gaps, (-0.5 * np.diff(lf[levels])).tolist(), psi[levels[:-1]]))
    rows = max(1, _HORNER_POINTS // yc.size)
    for lo in range(0, xr.size, rows):
        z = (xr[lo:lo + rows, None] - 1j * yc[None, :]).ravel()
        powers = {g: z ** g for g in set(gaps)}
        p = np.full(z.size, psi[levels[-1]])
        s, inv, logb = 0.0, 1.0, 0.0   # inv = e^{-s}, |p| <= e^logb
        for g, lnc, a in reversed(steps):
            if logb + g * lnr + lnc > _LOG_BOUND:
                m = np.maximum(np.abs(p), 1.0)
                p, s, logb = p / m, s + np.log(m), 0.0
                inv = np.exp(-s)
            p *= math.exp(lnc)
            p *= powers[g]
            p += a * inv
            logb = float(np.logaddexp(logb + g * lnr + lnc, 0.0))   # |a inv| <= 1
        mod2 = z.real ** 2 + z.imag ** 2
        with np.errstate(divide="ignore"):   # p = 0 or z = 0 give Q = 0
            lnq = 2.0 * (np.log(np.abs(p)) + s) - mod2 - lf[n0]
            if n0:
                lnq += n0 * np.log(mod2)
        out[lo:lo + rows] = np.exp(lnq).reshape(-1, yc.size) / math.pi


def _density_husimi(matrix: np.ndarray, xr: np.ndarray, yc: np.ndarray, out: np.ndarray):
    """Q of the density matrix at alpha = xr + i yc into out: one eigh, then
    row chunks of about 1e6 coherent amplitudes (16 MB; 64 MB chunks took
    twice as long on the wehrl benchmark) reduced by a BLAS product with the
    kept eigenvectors."""
    d = matrix.shape[0]
    lam, vec = np.linalg.eigh(matrix)
    keep = lam > 1e-16
    lam, vec = lam[keep], vec[:, keep]
    rows = max(1, int(1e6 // max(d * yc.size, 1)))
    for lo in range(0, xr.size, rows):
        alphas = (xr[lo:lo + rows, None] + 1j * yc[None, :]).ravel()
        b = np.abs(_coherent_amplitudes(alphas, d).T @ vec.conj()) ** 2
        out[lo:lo + rows] = (b @ lam).reshape(-1, yc.size) / math.pi


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

    The default grid is QuadratureGrid.covering(rho).  Both terms use the
    trapezoid rule, with different errors: tau's Gaussian Q has no zeros, but
    rho's Q vanishes at the zeros of its Bargmann function, where Q ln Q
    loses the rule's spectral accuracy (error about h^4 in the spacing h).

    Cost: for P computed grid points, a vector takes P complex multiply-adds
    per occupied level and builds no amplitude matrix.  A density of cutoff d
    and rank k pays one d x d eigh, two complex products per point and level
    for the coherent recursion and P d k multiply-adds for the overlaps, in
    16 MB chunks of coherent amplitudes.  P is the whole grid, except on a
    mirrored grid (every QuadratureGrid is one) for a state with exactly real
    coefficients: then P is the y >= 0 half, and the x >= 0 quadrant if the
    state also has a definite parity (a squeezed Fock state at phi = 0, for
    instance); the rest of Q is filled by mirroring.  The Gaussian reference
    and both entropy sums always take the whole grid.
    """
    if rho.modes != 1:
        raise ArgumentError("delta_C is single-mode only")
    if grid is None:
        grid = QuadratureGrid.covering(rho)
    xs = grid.points()
    g = moments(rho)
    q_rho = _husimi_on_grid(rho, xs)
    q_tau = _gaussian_husimi(g, xs)
    hw_rho, resid_rho = _wehrl_from_grid(q_rho, grid.spacing)
    hw_tau, resid_tau = _wehrl_from_grid(q_tau, grid.spacing)
    resid = max(resid_rho, resid_tau)
    if not resid <= 1e-4:   # NaN fails it
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
    if _integer(samples, "samples") < 1:
        raise ArgumentError("samples must be >= 1")
    cutoffs = list(cutoffs)
    if not all(_integer(d, "cutoff") >= 2 for d in cutoffs):   # |1> is forced into every sample
        raise ArgumentError(f"every cutoff must be >= 2, got {cutoffs}")
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
    Gaussian channel (loss, a Gaussian unitary, Kerr at gamma = 0, phase
    diffusion at delta = 0) maps every probe to a Gaussian state, so its value
    is exactly 0, reported with no evaluations and the vacuum as the probe.

    A Kerr probe is gaussian_fock_block's exact block at probe_cutoff's size,
    with no expm and no output state: channels._kerr_moments reads the
    output's moments off the probe's diagonal and first two sub-diagonals,
    and Kerr is unitary, so S(out) = h(n_th + 1/2) needs no eigvalsh.  A
    phase-diffusion probe is probe_state's dense D S nu S^dag D^dag, put
    through the channel and delta_b.

    The search runs on one OpenBLAS thread (``_blas.serial_blas``), and the
    caller's thread counts are restored on return.  The phase-diffusion probes
    are dense ``expm`` and ``eigvalsh`` calls at 50-200 levels, where a second
    thread costs more than it gains: on a 2-core machine a complex ``expm`` at
    n = 130 takes 6-8 ms on one thread against 16 ms on two, and the 170
    ``expm`` calls over the 96 phase-diffusion probes of the benchmark's map
    search 0.85 s against 3.4-4.0 s.  The result then no longer follows the
    thread count in its last bits.

    scipy.linalg (for the dense probes' expm) and scipy.optimize are imported
    by the first such probe and the refinement, not with the module: with
    scipy.special they made up about 0.5 s of the 0.75 s a one-shot CLI
    process spent importing ``nongauss`` (2-core VM).
    """
    if channel.kind == "beamsplit":
        raise ArgumentError("ng_of_map probes one mode; a beam splitter acts on two")
    if not 0 <= energy_cap < math.inf:
        raise ArgumentError(f"energy_cap = {energy_cap} must be finite and >= 0")
    if _integer(budget, "budget") < 1 or _integer(cutoff, "cutoff") < 1:
        raise ArgumentError(f"budget = {budget} and cutoff = {cutoff} must be >= 1")
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
        """A phase-diffusion probe as the dense D S nu S^dag D^dag at an
        enlarged internal cutoff, not gaussian_fock_block's exact block (Kerr
        probes take that block).

        The map-search references pin the Nelder-Mead path of phase_diffusion,
        where the squeezing phase is redundant and rounding breaks the tie: the
        exact block moves probe_phi from 1.4293 to 6.2827.  ROADMAP item 3
        deletes this builder when it regenerates those references.
        """
        d = probe_cutoff(params)
        d_int = d + max(20, int(math.ceil(4 * params.energy())))
        w = thermal_weights(params.n_th, d_int)
        # the weights fall with n; those below tiny/eps ~ 1e-292 are dropped:
        # with |u_ij| <= 1 none moves an entry by more, and their subnormal
        # products slowed the product 6x at n_th = 0.01
        k = np.count_nonzero(w >= np.finfo(float).tiny / np.finfo(float).eps)
        u = displacement_matrix(params.alpha, d_int)
        if params.r > 0:
            u = u @ squeeze_matrix(params.r, params.phi, d_int)
        tau = (u[:, :k] * w[:k]) @ u[:, :k].conj().T
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
        if channel.kind == "kerr":
            probe = synthesize_single_mode_gaussian(params, probe_cutoff(params))
            evals += 1
            g_out = _kerr_moments(probe, channel.params["gamma"])
            return _nonnegative("delta_B", gaussian_entropy(g_out) - h(params.n_th + 0.5))
        probe = probe_state(params)
        evals += 1
        return delta_b(apply_channel(probe, channel)).value

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
