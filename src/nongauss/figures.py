"""Desk-scale dataset builders, one per figure of the reference results.

Each builder returns (metadata, header, rows); the CLI serializes that as CSV
with a one-line JSON metadata comment.  Grids are sized to finish on a laptop
while preserving every qualitative trend; rows come out in deterministic grid
order regardless of the worker pool size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channels import kerr, loss, squeeze
from .distillation import (b_protocol_iterates, browne_state, entanglement_gain,
                           iterate_delta_b, log_negativity, renormalized_ng,
                           t_protocol_output)
from .errors import ArgumentError
from .fock import _log_factorials
from .gaussian import h
from .measures import delta_a, delta_b, delta_c
from .states import (PNESSpec, cat, coherent, delta_a_diagonal, delta_b_diagonal,
                     fock, fock_superposition, pnes, pnes_coefficients)

__all__ = ["FIGURES", "build_figure"]


def _parallel_map(fn, items, threads: int = 1):
    """fn over items, in order, on a pool of `threads` workers."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def fig1_pnes_vs_partial_traces(seed=0, threads=1):
    """delta_B of PNES families against twice the delta_B of their partial traces."""
    jobs = ([("tmc", lam) for lam in np.linspace(0.25, 1.75, 8)]
            + [("pssv", x) for x in np.linspace(0.05, 0.27, 6)]
            + [("pasv", x) for x in np.linspace(0.05, 0.27, 6)])

    def run(job):
        family, param = job
        spec = PNESSpec(family, float(param), 12)
        psi = pnes(spec)
        coeff = pnes_coefficients(spec)
        energy = 2.0 * float(np.dot(coeff ** 2, np.arange(coeff.size)))
        db = delta_b(psi).value
        pt = 2.0 * delta_b_diagonal(coeff ** 2)
        return [family, float(param), energy, db, pt]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 1, "trend": "PNES delta_B always above the partial-trace sum"}
    return meta, ["family", "parameter", "total_energy",
                  "delta_B_pnes", "delta_B_partial_traces"], rows


def fig2_wehrl_squeezed_fock(seed=0, threads=1):
    """delta_C of squeezed Fock states: not invariant under squeezing."""
    ns = (1, 2, 3, 4)
    rs = (0.0, 0.25, 0.5, 0.75, 1.0)

    def run(job):
        n, r = job
        state = fock(n, 96)
        if r > 0:
            state = squeeze(state, r)
        rep = delta_c(state)
        return [n, r, rep.value, rep.diagnostics["quadrature_residual"]]

    rows = _parallel_map(run, [(n, r) for n in ns for r in rs], threads)
    meta = {"figure": 2, "trend": "delta_C neither constant nor monotone in r"}
    return meta, ["n", "r", "delta_C", "quadrature_residual"], rows


def fig3_fock_superpositions(seed=0, threads=1):
    """delta_B against delta_A for Fock states and two-term superpositions."""
    jobs = [(n, 0) for n in range(1, 11)]
    for k in (3, 4, 5):
        jobs += [(n, k) for n in range(1, 11)]

    def run(job):
        n, k = job
        psi = fock_superposition(n, k, 60)
        return [n, k, delta_a(psi).value, delta_b(psi).value]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 3, "families": "fock (k=0) and (|n>+|n+k>)/sqrt2, k in {3,4,5}"}
    return meta, ["n", "k", "delta_A", "delta_B"], rows


def _gamma_weights(k: int, lam: float) -> np.ndarray:
    n = np.arange(400, dtype=float)
    w = n ** k * np.exp(-n / lam)
    return w / w.sum()


def fig4_diagonal_mixtures(seed=0, threads=1):
    """delta_B vs delta_A across diagonal-mixture families plus random mixtures."""
    rows = []
    grids = {
        "poisson": np.linspace(0.2, 4.0, 10),
        "tmc_pt": np.linspace(0.2, 1.75, 10),
        "pssv_pt": np.linspace(0.05, 0.27, 10),
        "pasv_pt": np.linspace(0.05, 0.27, 10),
        "gamma_2": np.linspace(0.3, 2.0, 10),
        "gamma_4": np.linspace(0.3, 2.0, 10),
    }
    for family, grid in grids.items():
        for lam in grid:
            if family == "poisson":
                n = np.arange(200)
                w = np.exp(n * math.log(lam) - lam - _log_factorials(n.size))
            elif family.endswith("_pt"):
                w = pnes_coefficients(PNESSpec(family[:-3], float(lam), 12)) ** 2
            else:
                w = _gamma_weights(int(family[-1]), float(lam))
            rows.append([family, float(lam), delta_a_diagonal(w), delta_b_diagonal(w)])

    rng = np.random.default_rng(seed)
    for hdim in (10, 100):
        for _ in range(200):
            w = rng.dirichlet(np.ones(hdim + 1))
            rows.append([f"random_H{hdim}", float("nan"),
                         delta_a_diagonal(w), delta_b_diagonal(w)])
    meta = {"figure": 4, "random_samples": 200, "H": [10, 100]}
    return meta, ["family", "parameter", "delta_A", "delta_B"], rows


def fig5_cats(seed=0, threads=1):
    """delta_A and delta_B of cat states over the mixing angle, two amplitudes."""
    phis = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, 25)
    jobs = [(a, phi) for a in (0.5, 5.0) for phi in phis]

    def run(job):
        a, phi = job
        cutoff = 40 if a <= 1.0 else 80
        psi = cat(a, float(phi), cutoff)
        return [a, float(phi), delta_a(psi).value, delta_b(psi).value]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 5, "alphas": [0.5, 5.0]}
    return meta, ["alpha", "phi", "delta_A", "delta_B"], rows


def fig6_cats_parametric(seed=0, threads=1):
    """Parametric delta_B vs delta_A for cats: fixed-alpha and fixed-phi slices."""
    jobs = []
    for a in (0.5, 2.5):
        for phi in np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, 21):
            jobs.append((f"alpha={a}", a, float(phi)))
    for phi in (-math.pi / 3, math.pi / 6, 2 * math.pi / 5):
        for a in np.linspace(0.1, 2.5, 13):
            jobs.append((f"phi={phi:.4f}", float(a), phi))

    def run(job):
        branch, a, phi = job
        psi = cat(a, phi, 60)
        return [branch, a, phi, delta_a(psi).value, delta_b(psi).value]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 6, "slices": "fixed alpha in {0.5, 2.5}; fixed phi in {-pi/3, pi/6, 2pi/5}"}
    return meta, ["branch", "alpha", "phi", "delta_A", "delta_B"], rows


def fig7_lossy_fock(seed=0, threads=1):
    """Both measures for Fock states under loss, eta = exp(-t)."""
    ts = np.linspace(0.0, 2.0, 11)
    jobs = [(p, t) for p in (2, 4, 6, 8) for t in ts]

    def run(job):
        p, t = job
        eta = math.exp(-t)
        rho = loss(fock(p, 12).density(), eta)
        return [p, float(t), eta, delta_a(rho).value, delta_b(rho).value]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 7, "p_grid": [2, 4, 6, 8], "note": "from bottom to top p = {2,4,6,8}"}
    return meta, ["p", "t", "eta", "delta_A", "delta_B"], rows


def fig8_kerr(seed=0, threads=1):
    """delta_B of Kerr-evolved coherent states vs energy, with the Fock ceiling."""
    ns = np.linspace(0.5, 8.0, 16)
    jobs = [(g, n) for g in (1e-6, 1e-4, 1e-2) for n in ns]

    def run(job):
        g, n = job
        psi = kerr(coherent(math.sqrt(n), 40), g)
        return [g, float(n), delta_b(psi).value, h(n + 0.5)]

    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 8, "gammas": [1e-6, 1e-4, 1e-2],
            "ceiling": "h(n + 1/2), the maximum at fixed energy"}
    return meta, ["gamma", "n_mean", "delta_B", "delta_B_max"], rows


def fig9_browne_window(seed=0, threads=1):
    """delta_B after s protocol steps as a function of the input parameter.

    Each point runs 20 steps and measures delta_B only at the reported s."""
    lams = np.linspace(0.05, 1.0, 20)
    steps = (0, 5, 10, 20)

    def run(lam):
        iterates = b_protocol_iterates(browne_state("a", float(lam)), max(steps),
                                       leak_budget=None)
        return [[float(lam), s, iterate_delta_b(it), it.leakage]
                for s, it, _ in iterates if s in steps]

    rows = [row for group in _parallel_map(run, lams, threads) for row in group]
    meta = {"figure": 9, "steps": list(steps),
            "note": "the lambda-window with delta_B ~ 0 widens with s"}
    return meta, ["lambda", "steps", "delta_B", "leakage"], rows


def fig10_browne_gain(seed=0, threads=1):
    """Relative entanglement gain vs renormalized non-Gaussianity of the input.

    Each point measures delta_B only once, of the input (delta_R), and E_N at
    each step until the convergence rule is met and the reported steps are
    passed: at max(5, first converged step), at most 40 steps."""
    lams = np.linspace(0.1, 0.8, 8)
    report_steps = (1, 2, 5)
    conv_tol = 1e-6
    max_steps = 40

    def run(job):
        variant, lam = job
        state = browne_state(variant, float(lam))
        dr = renormalized_ng(state)
        gains, conv = [], max_steps        # gains[s] is Delta_s
        for s, it, _ in b_protocol_iterates(state, max_steps, leak_budget=None):
            en = log_negativity(it)
            if s == 0:
                en0 = en
            gains.append(entanglement_gain(en, en0))
            if s >= 2 and abs(gains[s] - gains[s - 1]) < conv_tol:
                conv = min(conv, s)
            if s >= max(conv, report_steps[-1]):
                break
        return [[variant, float(lam), str(s), dr, gains[s]] for s in report_steps] + [
            [variant, float(lam), "inf", dr, gains[conv]]]

    jobs = [(v, lam) for v in ("a", "b") for lam in lams]
    rows = [row for group in _parallel_map(run, jobs, threads) for row in group]
    meta = {"figure": 10, "steps": ["1", "2", "5", "inf"],
            "inf_rule": "first step with |Delta_i - Delta_{i-1}| < 1e-6"}
    return meta, ["variant", "lambda", "step", "delta_R", "Delta_i"], rows


def fig11_taka(seed=0, threads=1):
    """Entanglement and non-Gaussianity of the photon-subtraction outputs vs r."""
    rs = np.linspace(0.1, 1.5, 8)

    def run(job):
        sub, r = job
        psi = t_protocol_output(float(r), sub)
        return [sub, float(r), delta_b(psi).value, log_negativity(psi)]

    jobs = [(sub, r) for sub in ("one", "two") for r in rs]
    rows = _parallel_map(run, jobs, threads)
    meta = {"figure": 11, "note": "one-photon delta_B is r-independent (= 2 log 2)"}
    return meta, ["subtracted", "r", "delta_B", "E_N"], rows


FIGURES = {
    1: fig1_pnes_vs_partial_traces,
    2: fig2_wehrl_squeezed_fock,
    3: fig3_fock_superpositions,
    4: fig4_diagonal_mixtures,
    5: fig5_cats,
    6: fig6_cats_parametric,
    7: fig7_lossy_fock,
    8: fig8_kerr,
    9: fig9_browne_window,
    10: fig10_browne_gain,
    11: fig11_taka,
}


def build_figure(number: int, seed: int = 0, threads: int = 1):
    try:
        builder = FIGURES[int(number)]
    except (KeyError, ValueError):
        raise ArgumentError(f"unknown figure {number}; choose 1-11") from None
    meta, header, rows = builder(seed=seed, threads=threads)
    meta.setdefault("seed", seed)
    return meta, header, rows
