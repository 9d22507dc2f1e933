import math
import re

import numpy as np
import pytest
from scipy.special import gammaln

from nongauss import (ArgumentError, ChannelSpec, DensityMatrix, FockStateVector,
                      NumericalValidityError, QuadratureGrid,
                      check_measure_inequality, conjecture_a5_sweep, delta_a,
                      delta_b, delta_c, loss, ng_of_map, purity,
                      random_density_matrix, tensor)
from nongauss.channels import displace, phase_diffusion, squeeze
from nongauss.gaussian import h
from nongauss.measures import _husimi_on_grid
from nongauss.states import (_coherent_amplitudes, cat, coherent, diagonal_mixture,
                             fock, fock_superposition, squeezed_vacuum, thermal)


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
    assert abs(delta_b(fock(1, 40)).value / np.log(2) - 2.0) < 1e-9


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


def _fock_delta_c(n: int) -> float:
    """delta_C(|n>) = ln(n+1) - n + n psi(n+1) - ln n!, psi(n+1) = H_n - gamma
    (Orlowski, PRA 48, 727 (1993))."""
    euler_gamma = 0.5772156649015329
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return math.log(n + 1) - n + n * (harmonic - euler_gamma) - math.lgamma(n + 1)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30])
def test_default_grid_delta_c_of_fock_states_meets_the_closed_form(n):
    assert abs(delta_c(fock(n, n + 20)).value - _fock_delta_c(n)) <= 1e-6


def test_the_automatic_grid_is_single_mode_only():
    two_mode = tensor(fock(1, 6), fock(0, 6))
    with pytest.raises(ArgumentError, match="single-mode"):
        QuadratureGrid.covering(two_mode)
    with pytest.raises(ArgumentError, match="single-mode"):
        delta_c(two_mode)


def test_delta_c_not_squeeze_invariant():
    vals = []
    for r in (0.0, 0.5, 1.0):
        psi = fock(1, 96) if r == 0 else squeeze(fock(1, 96), r)
        vals.append(delta_c(psi, grid=QuadratureGrid.covering(psi)).value)
    assert max(vals) - min(vals) > 2e-3


def test_husimi_chunks_match_the_dense_overlaps():
    # reference: the whole (levels x points) coherent amplitude matrix at once;
    # both grids take two or more row chunks, and the wide one reaches
    # |alpha|^2 = 1568, where e^{-|alpha|^2/2} underflows and the recursion is
    # seeded in log space
    sq = squeeze(fock(2, 60), 0.6)
    rho = random_density_matrix(1, 40, 3, seed=5)
    for state, xs in ((sq, QuadratureGrid(QuadratureGrid.covering(sq).half_width, 0.1).points()),
                      (rho, np.linspace(-28.0, 28.0, 201))):
        alphas = (xs[:, None] + 1j * xs[None, :]).ravel()
        if isinstance(state, DensityMatrix):
            lam, vec = np.linalg.eigh(state.matrix)
        else:
            lam, vec = np.array([1.0]), state.amplitudes.reshape(-1, 1)
        assert state.cutoff * xs.size ** 2 > 1e6   # more than one chunk of amplitudes
        overlaps = _coherent_amplitudes(alphas, state.cutoff).T @ vec.conj()
        ref = (np.abs(overlaps) ** 2 @ lam).reshape(xs.size, xs.size) / np.pi
        assert np.max(np.abs(_husimi_on_grid(state, xs) - ref)) <= 1e-14


def test_husimi_of_a_high_fock_state_in_the_log_seeded_range():
    # Q of |n> is e^{-|a|^2} |a|^{2n} / (pi n!); at n = 1450 it peaks at
    # |a|^2 = 1450, on both sides of |a|^2 ~ 1417, where the coherent
    # recursion switches to its log-space seed
    n = 1450
    xs = np.linspace(26.4, 27.6, 13)
    mod2 = xs[:, None] ** 2 + xs[None, :] ** 2
    assert mod2.min() < 1417 < mod2.max()
    ref = np.exp(n * np.log(mod2) - mod2 - gammaln(n + 1)) / np.pi
    got = _husimi_on_grid(fock(n, n + 1), xs)
    assert np.max(np.abs(got - ref) / ref) <= 1e-10


@pytest.mark.parametrize("beta, cutoff, xs", [
    # the Bargmann sum e^{conj(alpha) beta} cancels by at most e^{2|alpha||beta|}
    # ~ 1e4 on this grid, so relative 1e-10 is within reach of any kernel
    (1.0 + 0.5j, 60, np.linspace(-3.0, 3.0, 25)),
    # |beta|^2 = 1500, past the e^{-|beta|^2/2} underflow: levels below 16 are
    # exactly 0 and the partial sums pass e^709 on the way down unless rescaled
    (np.sqrt(750.0) * (1 + 1j), 2200, np.sqrt(750.0) + np.linspace(-2.0, 2.0, 9)),
], ids=["moderate", "underflow"])
def test_husimi_of_a_coherent_state_is_the_shifted_gaussian(beta, cutoff, xs):
    alphas = xs[:, None] + 1j * xs[None, :]
    ref = np.exp(-np.abs(alphas - beta) ** 2) / np.pi
    got = _husimi_on_grid(coherent(beta, cutoff), xs)
    mask = ref > 1e-300
    assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) <= 1e-10


def _random_vector(cutoff, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    return FockStateVector(1, cutoff, v / np.linalg.norm(v))


@pytest.mark.parametrize("make", [lambda: squeeze(fock(3, 80), 0.7),
                                  lambda: cat(1.5, 0.785, 60),
                                  lambda: _random_vector(40, 11)],
                         ids=["squeezed-fock", "cat", "random"])
def test_husimi_of_a_vector_matches_its_density(make):
    # the Horner kernel of a vector against the eigh and amplitude-matrix
    # kernel of the same state as a density
    psi = make()
    xs = np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(_husimi_on_grid(psi, xs) - _husimi_on_grid(psi.density(), xs))) <= 1e-14


def test_husimi_of_a_gapped_support_matches_the_dense_overlaps():
    # occupied levels {0, 7, 30}: Horner steps over gaps 7 and 23
    amps = np.zeros(40, dtype=complex)
    amps[[0, 7, 30]] = [0.6, 0.48j, -0.64]
    psi = FockStateVector(1, 40, amps)
    xs = np.linspace(-7.0, 7.0, 141)
    alphas = (xs[:, None] + 1j * xs[None, :]).ravel()
    ref = np.abs(_coherent_amplitudes(alphas, 40).T @ amps.conj()) ** 2 / np.pi
    assert np.max(np.abs(_husimi_on_grid(psi, xs) - ref.reshape(xs.size, xs.size))) <= 1e-14


def _dense_husimi(state, xs):
    # the whole (levels x points) coherent amplitude matrix at once
    alphas = (xs[:, None] + 1j * xs[None, :]).ravel()
    if isinstance(state, DensityMatrix):
        lam, vec = np.linalg.eigh(state.matrix)
    else:
        lam, vec = np.array([1.0]), state.amplitudes.reshape(-1, 1)
    overlaps = _coherent_amplitudes(alphas, state.cutoff).T @ vec.conj()
    return (np.abs(overlaps) ** 2 @ lam).reshape(xs.size, xs.size) / np.pi


@pytest.mark.parametrize("make, block", [
    (lambda: squeeze(fock(3, 80), 0.7), "quadrant"),
    (lambda: cat(1.5, 0.3, 60), "half"),
    (lambda: coherent(1 + 0.5j, 40), "full"),
    (lambda: squeeze(fock(2, 40), 0.4).density(), "quadrant"),
    (lambda: random_density_matrix(1, 30, 3, seed=5), "full"),
], ids=["real-one-parity", "real-mixed-parity", "complex", "real-density-one-parity",
        "complex-density"])
@pytest.mark.parametrize("xs, mirrored", [
    (QuadratureGrid(6.0).points(), True),
    ((np.arange(120) - 59.5) * 0.1, True),
    (np.linspace(-6.0, 6.0, 121), False),   # rounding breaks the mirror
], ids=["odd", "even", "unmirrored"])
def test_husimi_computes_only_the_block_its_symmetries_leave_open(monkeypatch, make, block,
                                                                  xs, mirrored):
    from nongauss import measures
    asked = []
    for name in ("_bargmann_husimi", "_density_husimi"):
        def spy(coeffs, xr, yc, out, kernel=getattr(measures, name)):
            asked.append((xr.size, yc.size))
            kernel(coeffs, xr, yc, out)
        monkeypatch.setattr(measures, name, spy)
    state = make()
    n, h = xs.size, xs.size - xs.size // 2   # h points with x >= 0
    assert np.array_equal(xs, -xs[::-1]) == mirrored
    got = _husimi_on_grid(state, xs)
    expected = {"quadrant": (h, h), "half": (n, h), "full": (n, n)}[block if mirrored else "full"]
    assert asked == [expected]
    assert np.max(np.abs(got - _dense_husimi(state, xs))) <= 1e-14


@pytest.mark.parametrize("half_width, spacing", [
    (float("inf"), 0.05), (6.0, float("inf")), (float("nan"), 0.05), (0.0, 0.05), (6.0, -0.1)])
def test_quadrature_grid_must_be_finite_and_positive(half_width, spacing):
    with pytest.raises(ArgumentError, match="must be finite and positive"):
        QuadratureGrid(half_width, spacing)


@pytest.mark.parametrize("half_width, spacing, side", [
    (2000.0, 0.05, "80001"), (7.0, 1e-300, "1.4e+301"), (1e300, 1e-300, "inf"),
    (2048.0, 1.0, "4097")])
def test_quadrature_grid_side_is_capped(half_width, spacing, side):
    with pytest.raises(ArgumentError,
                       match=re.escape(f"has {side} points per side, above the limit of 4096")):
        QuadratureGrid(half_width, spacing)


def test_quadrature_grid_at_the_side_limit_is_accepted():
    assert QuadratureGrid(2047.5, 1.0).points().size == 4096


def test_nan_quadrature_residual_fails_the_gate(monkeypatch):
    from nongauss import measures
    monkeypatch.setattr(measures, "_husimi_on_grid",
                        lambda state, xs: np.full((xs.size, xs.size), np.nan))
    with pytest.raises(NumericalValidityError, match="residual nan"):
        delta_c(fock(1, 10), grid=QuadratureGrid(6.0))


def test_conjecture_sweep():
    summary = conjecture_a5_sweep(150, [5, 8], seed=3)
    for d, stats in summary.items():
        assert stats["bound_ok"]
        assert stats["max"] >= 5.0 / 12.0 - 1e-9  # forced |1> sample
        assert sum(stats["histogram"]) == 151


def test_negative_delta_raises_beyond_the_noise_clamp(monkeypatch):
    from nongauss import measures
    rho = thermal(0.5, 30)   # Gaussian: both measures read 0
    entropy, block = measures.gaussian_entropy, measures.gaussian_fock_block
    # delta_B >= 0 by Klein's inequality: noise below the clamp reads 0, more raises
    monkeypatch.setattr(measures, "gaussian_entropy", lambda g: entropy(g) - 1e-8)
    assert delta_b(rho).value == 0.0
    monkeypatch.setattr(measures, "gaussian_entropy", lambda g: entropy(g) - 1e-3)
    with pytest.raises(NumericalValidityError, match="delta_B = -1.000e-03"):
        delta_b(rho)
    # delta_A is a squared distance: an overlap kappa above the purities raises
    def inflated_block(params, cutoff):
        tau, deficit = block(params, cutoff)
        return 1.01 * tau, deficit

    monkeypatch.setattr(measures, "gaussian_fock_block", inflated_block)
    with pytest.raises(NumericalValidityError, match="delta_A = -"):
        delta_a(rho)


def test_ng_of_map():
    rep = ng_of_map(ChannelSpec.loss(0.6), energy_cap=2.0, cutoff=25, budget=100)
    assert rep.value <= 1e-6
    rep = ng_of_map(ChannelSpec.kerr(0.1), energy_cap=3.0, cutoff=30, budget=120)
    assert rep.value > 0.01
    rep = ng_of_map(ChannelSpec.phase_diffusion(0.5), energy_cap=3.0, cutoff=30,
                    budget=120)
    assert rep.value > 0.01
    assert rep.diagnostics["evaluations"] <= 120


def test_gaussian_channels_have_zero_map_non_gaussianity():
    # Gaussian probes stay Gaussian: exactly 0, with no probe evaluated; Kerr
    # and phase diffusion at zero strength are the identity
    for spec in (ChannelSpec.loss(0.6), ChannelSpec("squeeze", {"r": 0.4, "phi": 0.3}),
                 ChannelSpec.kerr(0.0), ChannelSpec.phase_diffusion(0.0)):
        rep = ng_of_map(spec, energy_cap=2.0, cutoff=25, budget=100)
        assert rep.value == 0.0
        assert rep.diagnostics["evaluations"] == 0
        assert all(rep.diagnostics[k] == 0.0 for k in rep.diagnostics if k.startswith("probe_"))
    with pytest.raises(ArgumentError, match="unknown channel kind"):
        ChannelSpec("shear", {"r": 0.4})   # ng_of_map would never apply it
    with pytest.raises(ArgumentError, match="two"):
        ng_of_map(ChannelSpec("beamsplit", {"theta": 0.3, "modes": (0, 1)}))


@pytest.mark.parametrize("kwargs", [
    {"energy_cap": float("nan")}, {"energy_cap": -1.0}, {"energy_cap": float("inf")},
    {"budget": 0}, {"cutoff": 0}, {"budget": float("nan")}, {"budget": 2.5},
    {"cutoff": 2.5}], ids=["cap-nan", "cap-negative", "cap-inf", "budget-0", "cutoff-0",
                           "budget-nan", "budget-fractional", "cutoff-fractional"])
def test_ng_of_map_rejects_invalid_arguments(kwargs):
    # checked before the Gaussian-channel early return
    for spec in (ChannelSpec.loss(0.6), ChannelSpec.kerr(0.1)):
        with pytest.raises(ArgumentError, match="must be"):
            ng_of_map(spec, **kwargs)


def test_ng_of_map_builds_kerr_probes_without_dense_unitaries(monkeypatch):
    # Kerr probes are exact Gaussian blocks: no expm-built D or S is called
    from nongauss import measures

    def refuse(*args):
        raise AssertionError("dense unitary built for a Kerr probe")

    monkeypatch.setattr(measures, "displacement_matrix", refuse)
    monkeypatch.setattr(measures, "squeeze_matrix", refuse)
    rep = ng_of_map(ChannelSpec.kerr(0.1), energy_cap=1.0, cutoff=15, budget=10)
    assert rep.diagnostics["evaluations"] == 10 and rep.value > 0.01


def test_ng_of_map_admits_a_zero_energy_cap():
    # the vacuum is the only probe, and Kerr leaves it Gaussian
    rep = ng_of_map(ChannelSpec.kerr(0.1), energy_cap=0.0, cutoff=10, budget=5)
    assert rep.value == 0.0 and rep.diagnostics["evaluations"] == 5


def test_phase_diffusion_poisson_limit():
    # Delta -> infinity: coherent state becomes the Poisson diagonal mixture
    from nongauss.states import delta_b_diagonal
    alpha = 1.3
    rho = phase_diffusion(coherent(alpha, 40).density(), 6.0)
    lam = alpha ** 2
    n = np.arange(400)
    pois = np.exp(n * np.log(lam) - lam - gammaln(n + 1))
    assert abs(delta_b(rho).value - delta_b_diagonal(pois)) <= 1e-4
