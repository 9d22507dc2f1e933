import numpy as np
import pytest

from nongauss import (DensityMatrix, GaussianData, NumericalValidityError,
                      TruncationError, fit_single_mode_gaussian, gaussian_entropy,
                      h, moments, reference_gaussian_state, symplectic_eigenvalues,
                      von_neumann_entropy)
from nongauss.channels import displace, squeeze
from nongauss.gaussian import synthesize_single_mode_gaussian, SingleModeGaussianParams
from nongauss.states import cat, coherent, fock, squeezed_vacuum, thermal, vacuum


def test_moments_basics():
    g = moments(vacuum(10))
    assert np.max(np.abs(g.X)) < 1e-14
    assert np.max(np.abs(g.sigma - 0.5 * np.eye(2))) < 1e-14

    alpha = 1.2 - 0.4j
    g = moments(coherent(alpha, 40))
    assert np.allclose(g.X, np.sqrt(2) * np.array([alpha.real, alpha.imag]), atol=1e-9)
    assert np.max(np.abs(g.sigma - 0.5 * np.eye(2))) < 1e-9

    for n in (1, 3, 9):  # includes the top level: padding keeps products exact
        g = moments(fock(n, 10))
        assert np.max(np.abs(g.sigma - (n + 0.5) * np.eye(2))) < 1e-12


def test_moments_leak_gate():
    rho = DensityMatrix(1, 4, np.diag([1, 0, 0, 0]).astype(complex), leakage=1e-3)
    with pytest.raises(TruncationError):
        moments(rho)


def test_h_function():
    assert h(0.5) == 0.0
    assert abs(h(1.5) - 2 * np.log(2)) < 1e-14
    assert abs(h(2.5) - (3 * np.log(3) - 2 * np.log(2))) < 1e-14
    assert abs(h(1.5, base=2) - 2.0) < 1e-14
    with pytest.raises(NumericalValidityError):
        h(0.3)


def brute_force_symplectic(sigma):
    n = sigma.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.linalg.eigvals(1j * omega @ sigma)
    return np.sort(np.abs(np.real_if_close(ev)))[::2][::-1]  # each d appears twice


def test_symplectic_eigenvalues():
    g = moments(vacuum(6, modes=2))
    spec = symplectic_eigenvalues(g)
    assert abs(spec.d_minus - 0.5) < 1e-12 and abs(spec.d_plus - 0.5) < 1e-12

    # product thermal CM: diag(a,a,b,b) -> (min, max)
    sigma = np.diag([0.8, 0.8, 2.5, 2.5])
    spec = symplectic_eigenvalues(GaussianData(np.zeros(4), sigma))
    assert abs(spec.d_minus - 0.8) < 1e-12 and abs(spec.d_plus - 2.5) < 1e-12

    # twin-beam-like CM against a brute-force i*Omega*sigma diagonalization
    n_mean, c = 1.3, 1.1
    a = (n_mean + 0.5) * np.eye(2)
    cc = np.diag([c, -c])
    sigma = np.block([[a, cc], [cc, a]])
    spec = symplectic_eigenvalues(GaussianData(np.zeros(4), sigma))
    brute = brute_force_symplectic(sigma)
    assert abs(spec.d_minus * spec.d_plus - np.sqrt(np.linalg.det(sigma))) < 1e-10
    assert np.allclose(sorted([spec.d_minus, spec.d_plus]), sorted(brute), atol=1e-10)


def test_gaussian_entropy():
    assert gaussian_entropy(moments(vacuum(8))) == 0.0
    assert abs(gaussian_entropy(moments(thermal(1.0, 60))) - h(1.5)) < 1e-10
    assert gaussian_entropy(moments(vacuum(6, modes=2))) == 0.0
    # matches the exact entropy of thermal states over a range of occupations
    for n_mean in (0.5, 2.0, 5.0):
        g = moments(thermal(n_mean, 80 if n_mean < 3 else 160))
        s = von_neumann_entropy(thermal(n_mean, 80 if n_mean < 3 else 160))
        assert abs(gaussian_entropy(g) - s) < 1e-8


def test_fit_single_mode():
    p = fit_single_mode_gaussian(moments(vacuum(8)))
    assert p.r == 0.0 and p.phi == 0.0 and p.n_th < 1e-9

    r = 0.7
    sigma = np.diag([0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)])
    p = fit_single_mode_gaussian(GaussianData(np.zeros(2), sigma))
    assert abs(p.r - r) < 1e-12 and abs(p.phi) < 1e-12 and p.n_th < 1e-12

    p = fit_single_mode_gaussian(moments(fock(2, 12)))
    assert abs(p.n_th - 2.0) < 1e-10 and p.r < 1e-7

    # a coherent-state CM with O(eps) anisotropy fits to r = 0, not r ~ 1e-8
    sigma = np.array([[0.5000000000000018, 0.0], [0.0, 0.4999999999999999]])
    p = fit_single_mode_gaussian(GaussianData(np.zeros(2), sigma))
    assert p.r == 0.0 and p.n_th < 1e-12

    with pytest.raises(NumericalValidityError):
        fit_single_mode_gaussian(GaussianData(np.zeros(2), 0.2 * np.eye(2)))


def test_fit_synthesize_idempotent():
    params = SingleModeGaussianParams(0.6 + 0.3j, 0.5, 1.1, 0.4)
    tau = synthesize_single_mode_gaussian(params, 60)
    refit = fit_single_mode_gaussian(moments(DensityMatrix(1, 60, tau.matrix)))
    assert abs(refit.r - params.r) < 1e-6
    assert abs(refit.phi - params.phi) < 1e-6
    assert abs(refit.n_th - params.n_th) < 1e-6
    assert abs(refit.alpha - params.alpha) < 1e-6


def test_reference_gaussian_state():
    tau = reference_gaussian_state(fock(2, 60))
    assert np.max(np.abs(tau.matrix - thermal(2.0, 60).matrix)) < 1e-9

    rho_g = synthesize_single_mode_gaussian(
        SingleModeGaussianParams(0.4, 0.3, 0.2, 0.5), 50)
    tau = reference_gaussian_state(DensityMatrix(1, 50, rho_g.matrix))
    assert np.max(np.abs(tau.matrix - rho_g.matrix)) <= 1e-6

    # cat-state reference is a displaced squeezed thermal state: moment match
    psi = cat(1.0, -np.pi / 4, 50)
    tau = reference_gaussian_state(psi)
    g, gt = moments(psi), moments(DensityMatrix(1, 50, tau.matrix))
    assert np.max(np.abs(g.X - gt.X)) < 1e-6
    assert np.max(np.abs(g.sigma - gt.sigma)) < 1e-6
    p = fit_single_mode_gaussian(g)
    assert p.r > 1e-3 and p.n_th > 1e-4  # genuinely squeezed and thermal


def test_displacement_shifts_x():
    psi = fock(1, 40)
    g0 = moments(psi)
    alpha = 0.55 - 0.2j
    g1 = moments(displace(psi, alpha))
    assert np.max(np.abs(g1.X - (g0.X + np.sqrt(2) * np.array([alpha.real, alpha.imag])))) < 1e-8
    assert np.max(np.abs(g1.sigma - g0.sigma)) < 1e-8


def test_symplectic_invariance_under_local_unitaries():
    d = 16
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(3) * (d + 1)] = [0.8, 0.5, 0.33]
    amps /= np.linalg.norm(amps)
    from nongauss import FockStateVector
    psi = FockStateVector(2, d, amps)
    spec0 = symplectic_eigenvalues(moments(psi))
    rot = squeeze(displace(psi, 0.25, mode=0), 0.15, 0.4, mode=1)
    spec1 = symplectic_eigenvalues(moments(rot))
    assert abs(spec0.d_minus - spec1.d_minus) < 1e-6
    assert abs(spec0.d_plus - spec1.d_plus) < 1e-6
