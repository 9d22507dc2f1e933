import numpy as np
import pytest

from nongauss import (ArgumentError, ChannelSpec, DensityMatrix, FockStateVector,
                      NumericalValidityError, QuadratureGrid,
                      check_measure_inequality, conjecture_a5_sweep, delta_a,
                      delta_b, delta_c, loss, ng_of_map, purity,
                      random_density_matrix, tensor)
from nongauss.channels import displace, phase_diffusion, squeeze
from nongauss.gaussian import h
from nongauss.states import (cat, coherent, diagonal_mixture, fock,
                             fock_superposition, squeezed_vacuum, thermal)


def test_delta_a_oracles():
    assert abs(delta_a(coherent(2.0, 60)).value) <= 1e-6
    assert abs(delta_a(fock(1, 50)).value - 5.0 / 12.0) < 1e-6
    # grows monotonically toward the single-mode ceiling 1/2
    vals = [delta_a(fock(n, 60)).value for n in range(1, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < 0.5 for v in vals)
    with pytest.raises(ArgumentError):
        delta_a(random_density_matrix(2, 4, 2, seed=0))


def test_printed_superposition_closed_form_discrepancy():
    # direct HS value matches the corrected denominator 1/(2n+k+1); the printed
    # 1/(2n+k) variant does not (suspected typo, reported not resolved)
    for n, k in ((1, 0), (1, 3), (2, 4)):
        psi = fock_superposition(n, k, 60)
        direct = delta_a(psi).value
        nb = n + k / 2.0
        overlap_nk = 0.5 * (nb ** n / (nb + 1) ** (n + 1)
                            + nb ** (n + k) / (nb + 1) ** (1 + n + k))
        if k == 0:
            overlap_nk = nb ** n / (nb + 1) ** (n + 1)
        corrected = 0.5 * (1 + 1 / (2 * n + k + 1) - 2 * overlap_nk)
        printed = 0.5 * (1 + 1 / (2 * n + k) - 2 * overlap_nk)
        assert abs(direct - corrected) < 1e-9
        assert abs(direct - printed) > 1e-3


def test_delta_b_oracles():
    assert abs(delta_b(squeezed_vacuum(1.0, 80)).value) <= 1e-6
    assert abs(delta_b(fock_superposition(1, 3, 40)).value - h(3.0)) < 1e-10
    for n in (1, 2, 5):
        assert abs(delta_b(fock(n, 60)).value - h(n + 0.5)) < 1e-9
    assert abs(delta_b(fock(1, 40), base=2).value - 2.0) < 1e-9


def test_delta_b_two_mode():
    d = 10
    amps = np.zeros(d * d, dtype=complex)
    amps[1 + d] = 1.0
    assert abs(delta_b(FockStateVector(2, d, amps)).value - 2 * h(1.5)) < 1e-9


def test_gaussian_unitary_invariance():
    states = [fock(1, 50), fock(2, 50), fock(3, 50),
              cat(1.0, np.pi / 4, 50), cat(1.0, -np.pi / 4, 50)]
    for psi in states:
        da0, db0 = delta_a(psi).value, delta_b(psi).value
        for moved in (displace(psi, 0.5 - 0.2j), squeeze(psi, 0.3, 0.7)):
            assert abs(delta_a(moved).value - da0) <= 1e-5
            assert abs(delta_b(moved).value - db0) <= 1e-5


def test_delta_b_additivity_with_gaussian_factor():
    rho = fock(2, 14).density()
    for gauss in (thermal(0.2, 14), coherent(0.8, 14).density()):
        prod = tensor(rho, gauss)
        assert abs(delta_b(prod).value - delta_b(rho).value) <= 1e-6


def test_partial_trace_monotonicity_and_superadditivity():
    from nongauss import partial_trace
    from nongauss.states import PNESSpec, pnes
    for spec in (PNESSpec("tmc", 0.9, 12), PNESSpec("pssv", 0.22, 12),
                 PNESSpec("pasv", 0.22, 12), PNESSpec("twin_beam", 0.28, 12)):
        psi = pnes(spec)
        whole = delta_b(psi).value
        a = delta_b(partial_trace(psi.density(), {0})).value
        b = delta_b(partial_trace(psi.density(), {1})).value
        assert whole >= a - 1e-6 and whole >= b - 1e-6
        assert whole >= a + b - 1e-6


def test_loss_monotonicity():
    rho = fock_superposition(1, 3, 30).density()
    base = delta_b(rho).value
    prev = base
    for eta in (0.9, 0.7, 0.5, 0.3, 0.1):
        cur = delta_b(loss(rho, eta)).value
        assert cur <= prev + 1e-6
        prev = cur
    assert delta_b(loss(rho, 1.0)).value <= base + 1e-6


def test_convexity_at_fixed_moments():
    # Fock-diagonal states with equal mean photon number share their reference
    q1 = np.zeros(20); q1[0] = 0.5; q1[2] = 0.5          # mean 1
    q2 = np.zeros(20); q2[1] = 1.0                        # mean 1
    r1, r2 = diagonal_mixture(q1, 20), diagonal_mixture(q2, 20)
    for p in (0.2, 0.5, 0.8):
        mix = DensityMatrix(1, 20, p * r1.matrix + (1 - p) * r2.matrix)
        bound = p * delta_b(r1).value + (1 - p) * delta_b(r2).value
        assert delta_b(mix).value <= bound + 1e-6


def test_measure_inequality():
    ok, margin = check_measure_inequality(fock(1, 50))
    assert ok and abs(margin - (2 * np.log(2) - 5.0 / 12.0)) < 1e-6
    ok, margin = check_measure_inequality(coherent(1.2, 50))
    assert ok and abs(margin) < 1e-6
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = random_density_matrix(1, 6, int(rng.integers(1, 7)), rng)
        ok, _ = check_measure_inequality(rho)
        assert ok


def test_delta_c():
    assert abs(delta_c(coherent(1.0, 40)).value) <= 2e-4
    assert abs(delta_c(thermal(0.7, 60)).value) <= 2e-4
    # the Husimi function of |alpha> is the Gaussian one: delta_C vanishes up to
    # the quadrature residual (floored at rounding level)
    for alpha, d in ((2.0 + 1.0j, 60), (-1.5j, 50), (4.0 + 3.0j, 80)):
        rep = delta_c(coherent(alpha, d))
        assert abs(rep.value) <= max(rep.diagnostics["quadrature_residual"], 1e-12)
    assert delta_c(fock(1, 30)).value > 0.05
    with pytest.raises(NumericalValidityError):
        # deliberately tiny grid: normalization residual must trip
        delta_c(coherent(2.0, 60), grid=QuadratureGrid(1.5, 0.05))
    rep = delta_c(fock(1, 30))
    assert rep.diagnostics["quadrature_residual"] <= 1e-4


def test_delta_c_not_squeeze_invariant():
    vals = []
    for r in (0.0, 0.5, 1.0):
        psi = fock(1, 96) if r == 0 else squeeze(fock(1, 96), r)
        vals.append(delta_c(psi, grid=QuadratureGrid.covering(psi)).value)
    assert max(vals) - min(vals) > 2e-3


def test_conjecture_sweep():
    summary = conjecture_a5_sweep(150, [5, 8], seed=3)
    for d, stats in summary.items():
        assert stats["bound_ok"]
        assert stats["max"] >= 5.0 / 12.0 - 1e-9  # forced |1> sample
        assert sum(stats["histogram"]) == 151


def test_ng_of_map():
    rep = ng_of_map(ChannelSpec.loss(0.6), energy_cap=2.0, cutoff=25, budget=100)
    assert rep.value <= 1e-6
    rep = ng_of_map(ChannelSpec.kerr(0.1), energy_cap=3.0, cutoff=30, budget=120)
    assert rep.value > 0.01
    rep = ng_of_map(ChannelSpec.phase_diffusion(0.5), energy_cap=3.0, cutoff=30,
                    budget=120)
    assert rep.value > 0.01
    assert rep.diagnostics["evaluations"] <= 120


def test_phase_diffusion_poisson_limit():
    # Delta -> infinity: coherent state becomes the Poisson diagonal mixture
    from nongauss.states import delta_b_diagonal
    from scipy.special import gammaln
    alpha = 1.3
    rho = phase_diffusion(coherent(alpha, 40).density(), 6.0)
    lam = alpha ** 2
    n = np.arange(400)
    pois = np.exp(n * np.log(lam) - lam - gammaln(n + 1))
    assert abs(delta_b(rho).value - delta_b_diagonal(pois)) <= 1e-4
