import numpy as np
import pytest
from scipy.special import gammaln

from nongauss import (ArgumentError, TruncationError, delta_b, moments,
                      partial_trace, von_neumann_entropy)
from nongauss.gaussian import h
from nongauss.states import (PNESSpec, _coherent_amplitudes, cat, coherent,
                             delta_a_diagonal, delta_b_diagonal, diagonal_mixture,
                             fock, fock_superposition, pnes, pnes_coefficients,
                             pnes_entanglement, pnes_structured_cm,
                             squeezed_vacuum, thermal)


def test_standard_constructors():
    assert np.max(np.abs(thermal(0.0, 8).matrix - fock(0, 8).density().matrix)) < 1e-15
    c = coherent(2.0, 60)
    n_mean = np.dot(np.abs(c.amplitudes) ** 2, np.arange(60))
    assert abs(n_mean - 4.0) < 1e-6
    sv = squeezed_vacuum(1.0, 80)
    n_mean = np.dot(np.abs(sv.amplitudes) ** 2, np.arange(80))
    assert abs(n_mean - np.sinh(1.0) ** 2) < 1e-5
    assert np.max(np.abs(sv.amplitudes[1::2])) == 0.0  # even levels only


@pytest.mark.parametrize("dim", [96, 400, 4096])
@pytest.mark.parametrize("mag", [0.0, 1.0, 10.0, 30.0, 37.5, 40.0, 60.0])
def test_coherent_amplitudes_match_log_space(mag, dim):
    # oracle: e^{-|a|^2/2} a^n / sqrt(n!) evaluated in log space; from |a|^2 ~ 1400
    # on, e^{-|a|^2/2} underflows and the ladder recursion seeds at a later level.
    # 7 and 300 phases: the kernel runs narrow and wide batches differently
    n = np.arange(dim)[:, None]
    with np.errstate(divide="ignore"):
        logmag = np.where(mag > 0, n * np.log(mag or 1.0), np.where(n == 0, 0.0, -np.inf))
    for points in (7, 300):
        alphas = mag * np.exp(1j * np.linspace(0.0, 2 * np.pi, points))
        ref = np.exp(logmag - 0.5 * gammaln(n + 1) - 0.5 * mag ** 2
                     + 1j * n * np.angle(alphas)[None, :])
        got = _coherent_amplitudes(alphas, dim)
        assert got.shape == (dim, points)
        assert np.all(np.isfinite(got))
        big = np.abs(ref) > 1e-290
        assert np.all(np.abs(got - ref)[big] <= 1e-10 * np.abs(ref)[big])


def test_tail_errors_suggest_cutoff():
    with pytest.raises(TruncationError, match="minimal adequate cutoff"):
        coherent(3.0, 12)
    with pytest.raises(TruncationError):
        thermal(1.0, 20)


def test_fock_superposition():
    assert np.array_equal(fock_superposition(1, 0, 8).amplitudes,
                          fock(1, 8).amplitudes)
    psi = fock_superposition(1, 3, 40)
    g = moments(psi)
    assert np.max(np.abs(g.X)) < 1e-12
    assert np.max(np.abs(g.sigma - 3.0 * np.eye(2))) < 1e-12
    assert abs(delta_b(fock_superposition(2, 4, 40)).value - h(2 + 2.5)) < 1e-10
    for bad_k in (1, 2):
        with pytest.raises(ArgumentError):
            fock_superposition(1, bad_k, 20)
    with pytest.raises(ArgumentError):
        fock_superposition(3, 4, 7)


def test_fock_superposition_thermal_reference():
    # the matched Gaussian of (|n> + |n+k>)/sqrt2 is the thermal state nu(n + k/2)
    g = moments(fock_superposition(2, 3, 40))
    assert np.max(np.abs(g.sigma - (2 + 1.5 + 0.5) * np.eye(2))) < 1e-8
    assert np.max(np.abs(g.X)) < 1e-8


def test_diagonal_mixture_and_closed_forms():
    q = np.zeros(30)
    q[0] = 1.0
    rho = diagonal_mixture(q, 30)
    assert delta_a_diagonal(q) < 1e-12 and abs(delta_b_diagonal(q)) < 1e-12

    lam = 1.0
    n = np.arange(200)
    from scipy.special import gammaln
    pois = np.exp(n * np.log(lam) - lam - gammaln(n + 1))
    rho = diagonal_mixture(pois, 30)
    generic = delta_b(rho).value
    closed = delta_b_diagonal(pois)
    assert abs(generic - closed) < 1e-8

    th = thermal(0.8, 60)
    w = np.real(np.diag(th.matrix))
    assert abs(delta_b_diagonal(w)) < 1e-6
    assert abs(delta_a_diagonal(w)) < 1e-6

    with pytest.raises(ArgumentError):
        diagonal_mixture([0.5, -0.1, 0.6], 10)


def test_delta_a_diagonal_matches_generic():
    rng = np.random.default_rng(4)
    from nongauss import delta_a
    for _ in range(4):
        q = rng.dirichlet(np.ones(8))
        rho = diagonal_mixture(q, 40)
        assert abs(delta_a(rho).value - delta_a_diagonal(q)) < 1e-8


def test_cat_states():
    c0 = cat(0.8, 0.0, 40)
    assert abs(delta_b(c0).value) < 1e-6  # phi = 0 is a plain coherent state
    small_even = delta_b(cat(0.5, np.pi / 4, 40)).value
    small_odd = delta_b(cat(0.5, -np.pi / 4, 40)).value
    assert small_even < 0.05 and small_odd > 1.0
    big_even = delta_b(cat(5.0, np.pi / 4, 80)).value
    big_odd = delta_b(cat(5.0, -np.pi / 4, 80)).value
    assert abs(big_even - big_odd) < 1e-3


def test_pnes_families():
    tb = pnes(PNESSpec("twin_beam", 0.3, 12))
    assert abs(delta_b(tb).value) < 1e-6

    spec = PNESSpec("tmc", 1.0, 12)
    n_mean, c, g_struct = pnes_structured_cm(spec)
    g = moments(pnes(spec))
    assert np.max(np.abs(g.sigma - g_struct.sigma)) < 1e-6

    pssv = PNESSpec("pssv", 0.25, 12)
    psi = pnes(pssv)
    red = partial_trace(psi.density(), {0})
    assert delta_b(psi).value >= 2 * delta_b(red).value - 1e-6

    with pytest.raises(ArgumentError):
        PNESSpec("twin_beam", 1.2, 12)
    with pytest.raises(ArgumentError):
        PNESSpec("unknown", 0.3, 12)


def test_pnes_entanglement_is_schmidt_entropy():
    for spec in (PNESSpec("tmc", 0.9, 12), PNESSpec("pssv", 0.2, 12),
                 PNESSpec("pasv", 0.2, 12)):
        ent = pnes_entanglement(spec)
        red = partial_trace(pnes(spec).density(), {1})
        assert abs(ent - von_neumann_entropy(red)) < 1e-8


def test_pasv_starts_at_one():
    psi = pnes_coefficients(PNESSpec("pasv", 0.2, 12))
    assert psi[0] == 0.0 and psi[1] > 0
