import math

import numpy as np
import pytest
import scipy.linalg

from nongauss import (ArgumentError, DensityMatrix, GaussianData,
                      NumericalValidityError, TruncationError, fit_single_mode_gaussian,
                      gaussian_conditional_entropy, gaussian_entropy,
                      gaussian_mutual_information, h, moments, partial_trace,
                      random_density_matrix, reference_gaussian_state,
                      symplectic_eigenvalues, von_neumann_entropy)
from nongauss.channels import displace, squeeze
from nongauss.gaussian import (_cm_from_params, _moment_operators, displacement_matrix,
                               gaussian_fock_block,
                               marginal, squeeze_matrix, synthesize_single_mode_gaussian,
                               SingleModeGaussianParams)
from nongauss.states import (_squeezed_vacuum_amplitudes, cat, coherent, fock,
                             squeezed_vacuum, thermal, vacuum)


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


def _kron_loop_moment_operators(modes: int, dim: int) -> list:
    """(q1, p1, ...), the reference for _moment_operators: an index-assigned
    ladder matrix, embedded in each mode by a Kronecker loop from the highest
    mode down."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    q1 = (a + a.conj().T) / np.sqrt(2)
    p1 = -1j * (a - a.conj().T) / np.sqrt(2)
    ops = []
    for mode in range(modes):
        for op in (q1, p1):
            out = np.eye(1, dtype=complex)
            for m in range(modes - 1, -1, -1):
                out = np.kron(out, op if m == mode else np.eye(dim, dtype=complex))
            ops.append(out)
    return ops


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 10, 32])
def test_moment_operators_match_the_kronecker_loop_bit_for_bit(modes, dim):
    # the density-path moments (and the map-search probes and fig 9 cells that
    # read them) follow the last bits of these operators
    ops = _moment_operators.__wrapped__(modes, dim)   # uncached: a 2-mode set at 32 is 64 MB
    ref = _kron_loop_moment_operators(modes, dim)
    assert len(ops) == len(ref) == 2 * modes
    for op, r in zip(ops, ref):
        assert op.dtype == r.dtype and np.array_equal(op, r) and op.tobytes() == r.tobytes()


def test_moments_leak_gate():
    rho = DensityMatrix(1, 4, np.diag([1, 0, 0, 0]).astype(complex), leakage=1e-3)
    with pytest.raises(TruncationError):
        moments(rho)


def test_gaussian_data_rejects_nan():
    with pytest.raises(NumericalValidityError):
        GaussianData(np.zeros(2), np.full((2, 2), np.nan))
    for x in (np.nan, np.inf):
        with pytest.raises(NumericalValidityError):
            GaussianData([x, 0.0], 0.5 * np.eye(2))


def test_h_function():
    assert h(0.5) == 0.0
    assert abs(h(1.5) - 2 * np.log(2)) < 1e-14
    assert abs(h(2.5) - (3 * np.log(3) - 2 * np.log(2))) < 1e-14
    assert abs(h(1.5) / np.log(2) - 2.0) < 1e-14
    with pytest.raises(NumericalValidityError):
        h(0.3)
    for x in (np.nan, np.inf):
        with pytest.raises(ArgumentError, match="finite"):
            h(x)


def brute_force_symplectic(sigma):
    n = sigma.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.linalg.eigvals(1j * omega @ sigma)
    return np.sort(np.abs(np.real_if_close(ev)))[::2][::-1]  # each d appears twice


def test_symplectic_eigenvalues():
    g = moments(vacuum(6, modes=2))
    spec = symplectic_eigenvalues(g)
    assert abs(spec[0] - 0.5) < 1e-12 and abs(spec[1] - 0.5) < 1e-12

    # product thermal CM: diag(a,a,b,b) -> (min, max)
    sigma = np.diag([0.8, 0.8, 2.5, 2.5])
    spec = symplectic_eigenvalues(GaussianData(np.zeros(4), sigma))
    assert abs(spec[0] - 0.8) < 1e-12 and abs(spec[1] - 2.5) < 1e-12

    # twin-beam-like CM against a brute-force i*Omega*sigma diagonalization
    n_mean, c = 1.3, 1.1
    a = (n_mean + 0.5) * np.eye(2)
    cc = np.diag([c, -c])
    sigma = np.block([[a, cc], [cc, a]])
    spec = symplectic_eigenvalues(GaussianData(np.zeros(4), sigma))
    brute = brute_force_symplectic(sigma)
    assert abs(spec[0] * spec[1] - np.sqrt(np.linalg.det(sigma))) < 1e-10
    assert np.allclose(sorted([spec[0], spec[1]]), sorted(brute), atol=1e-10)


def test_gaussian_entropy():
    assert gaussian_entropy(moments(vacuum(8))) == 0.0
    assert abs(gaussian_entropy(moments(thermal(1.0, 60))) - h(1.5)) < 1e-10
    assert gaussian_entropy(moments(vacuum(6, modes=2))) == 0.0
    # matches the exact entropy of thermal states over a range of occupations
    for n_mean in (0.5, 2.0, 5.0):
        g = moments(thermal(n_mean, 80 if n_mean < 3 else 160))
        s = von_neumann_entropy(thermal(n_mean, 80 if n_mean < 3 else 160))
        assert abs(gaussian_entropy(g) - s) < 1e-8


def test_marginal_matches_reduced_state_moments():
    rng = np.random.default_rng(11)
    for rank in (1, 3, 9):
        rho = random_density_matrix(2, 5, rank, rng)
        g = moments(rho)
        for k in (0, 1):
            gk, reduced = marginal(g, k), moments(partial_trace(rho, {k}))
            assert np.max(np.abs(gk.X - reduced.X)) <= 1e-12
            assert np.max(np.abs(gk.sigma - reduced.sigma)) <= 1e-12
    with pytest.raises(ArgumentError):
        marginal(g, 2)

    # product thermal CM diag(a, a, b, b): no correlations, S_G(A|B) = S(tau_A)
    a, b = 0.8, 2.5
    g = GaussianData(np.zeros(4), np.diag([a, a, b, b]))
    assert abs(gaussian_mutual_information(g)) < 1e-12
    assert abs(gaussian_conditional_entropy(g) - h(a)) < 1e-12


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


def _expm_gaussian_block(p: SingleModeGaussianParams, cutoff: int, dim: int) -> np.ndarray:
    """D S nu S^dag D^dag from dense exponentials on dim levels, cropped to the cutoff."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    zeta = p.r * np.exp(1j * p.phi)
    u = scipy.linalg.expm(p.alpha * ad - np.conj(p.alpha) * a) @ scipy.linalg.expm(
        0.5 * (zeta * a @ a - np.conj(zeta) * ad @ ad))
    k = np.arange(dim)
    nu = (p.n_th / (1 + p.n_th)) ** k / (1 + p.n_th)
    return ((u * nu) @ u.conj().T)[:cutoff, :cutoff]


def test_fock_block_matches_dense_exponentials():
    # the recursion is exact at the cutoff; the dense reference needs 3x the levels
    rng = np.random.default_rng(1008)
    params = [SingleModeGaussianParams(complex(*rng.uniform(-1.2, 1.2, 2)),
                                       rng.uniform(0.0, 1.3), rng.uniform(0, 2 * np.pi),
                                       rng.uniform(0.0, 2.0)) for _ in range(5)]
    params += [SingleModeGaussianParams(0.3 - 0.5j, 1.25, 2.1, 0.4),
               SingleModeGaussianParams(0.0, 1.3, 0.0, 0.0),
               SingleModeGaussianParams(1.1j, 0.0, 0.0, 1.5)]
    assert any(p.r >= 1.2 for p in params)
    for p in params:
        dense = _expm_gaussian_block(p, 100, 300)
        for cutoff in (30, 100):
            block, deficit = gaussian_fock_block(p, cutoff)
            assert np.max(np.abs(block - dense[:cutoff, :cutoff])) <= 1e-12
            assert abs(np.real(np.trace(block)) + deficit - 1.0) <= 1e-12


def _row_loop_fock_block(p: SingleModeGaussianParams, cutoff: int) -> tuple[np.ndarray, float]:
    """gaussian_fock_block as a plain row loop, each row a fresh array and each
    coefficient read from A and gamma where it is used: the reference for the
    hoisted, buffered recursion."""
    s = _cm_from_params(p)
    diag = 0.5 * (s[0, 0] + s[1, 1]) + 0.5
    off = 0.5 * complex(s[0, 0] - s[1, 1], 2.0 * s[0, 1])
    det = diag * diag - abs(off) ** 2
    m = np.array([[-off, diag], [diag, -off.conjugate()]]) / det
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) - m
    y0 = np.array([p.alpha.conjugate(), p.alpha])
    gamma = m @ y0
    c = -0.5 * float(np.real(y0 @ gamma)) - 0.5 * math.log(det)
    root = np.sqrt(np.arange(cutoff))
    tau = np.zeros((cutoff, cutoff), dtype=complex)
    tau[0, 0] = math.exp(c)
    for n in range(1, cutoff):
        prev2 = a[1, 1] * root[n - 1] * tau[0, n - 2] if n >= 2 else 0.0
        tau[0, n] = (gamma[1] * tau[0, n - 1] + prev2) / root[n]
    for k in range(1, cutoff):
        row = gamma[0] * tau[k - 1]
        if k >= 2:
            row += a[0, 0] * root[k - 1] * tau[k - 2]
        row[1:] += a[0, 1] * root[1:] * tau[k - 1, :-1]
        tau[k] = row / root[k]
    tau = 0.5 * (tau + tau.conj().T)
    return tau, max(1.0 - float(np.real(np.trace(tau))), 0.0)


@pytest.mark.parametrize("cutoffs", [range(2, 61), [180]], ids=["2-60", "180"])
def test_fock_block_matches_the_row_loop_bit_for_bit(cutoffs):
    rng = np.random.default_rng(164113)
    for cutoff in cutoffs:
        for _ in range(3):
            p = SingleModeGaussianParams(complex(*rng.uniform(-1.5, 1.5, 2)),
                                         rng.uniform(0.0, 1.3), rng.uniform(0, 2 * np.pi),
                                         rng.uniform(0.0, 2.0))
            block, deficit = gaussian_fock_block(p, cutoff)
            want, want_deficit = _row_loop_fock_block(p, cutoff)
            assert np.array_equal(block, want) and deficit == want_deficit, (p, cutoff)


def test_fock_block_of_strong_squeezing_at_a_small_cutoff():
    # r = 1.32 at cutoff 30: an internal cutoff of 50 was off by 4.4e-4
    block, deficit = gaussian_fock_block(SingleModeGaussianParams(0.0, 1.32, 0.0, 0.0), 30)
    amps = _squeezed_vacuum_amplitudes(1.32, 0.0, 600)
    assert np.max(np.abs(block - np.outer(amps[:30], amps[:30].conj()))) <= 1e-12
    assert abs(deficit - np.sum(np.abs(amps[30:]) ** 2)) <= 1e-12
    assert abs(np.real(np.trace(block)) + deficit - 1.0) <= 1e-12


def test_fock_block_refuses_an_underflowing_vacuum_element():
    # e^{-|alpha|^2} below the smallest normal double: an error, not a zero block
    with pytest.raises(NumericalValidityError, match="normal double"):
        gaussian_fock_block(SingleModeGaussianParams(27.0 + 0j, 0.0, 0.0, 0.0), 20)
    block, _ = gaussian_fock_block(SingleModeGaussianParams(26.0 + 0j, 0.0, 0.0, 0.0), 20)
    assert np.max(np.abs(block)) > 0


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
    assert abs(spec0[0] - spec1[0]) < 1e-6
    assert abs(spec0[1] - spec1[1]) < 1e-6


def test_dense_unitaries_are_expm_of_the_dense_products_bit_for_bit():
    # the generators equal the dense products bit for bit, so the probes that
    # ng_of_map builds from these matrices (and its Nelder-Mead path) are unchanged
    rng = np.random.default_rng(11)
    for i in range(60):
        dim = int(rng.integers(1, 200))
        r, phi = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * np.pi)
        alpha = complex(*rng.standard_normal(2))
        a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
        ad = a.conj().T
        zeta = r * np.exp(1j * phi)
        dense_d = alpha * ad - np.conj(alpha) * a
        dense_s = 0.5 * ((zeta * a) @ a - (np.conj(zeta) * ad) @ ad)
        if i % 10 == 0:
            assert np.array_equal(displacement_matrix(alpha, dim), scipy.linalg.expm(dense_d))
            assert np.array_equal(squeeze_matrix(r, phi, dim), scipy.linalg.expm(dense_s))
