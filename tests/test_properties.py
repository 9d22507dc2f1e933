"""Property tests of the paper's statements, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

from nongauss import (DensityMatrix, beam_split, conditional_entropy_gap, delta_a, delta_b,
                      displace, gaussian_conditional_entropy, gaussian_mutual_information,
                      loss, moments, mutual_information_gap, partial_trace, purity,
                      random_density_matrix, squeeze, von_neumann_entropy)
from nongauss.bounds import (PhotodetectionPOVM, detection_statistics, epsilon_a,
                             epsilon_b, epsilon_c, epsilon_d, epsilon_e)
from nongauss.fock import tensor
from nongauss.states import fock, fock_superposition, thermal, vacuum

D = 8  # per-mode cutoff; the random factors live below D // 2


def _low_factor(rank: int, seed: int) -> DensityMatrix:
    """A random single-mode state supported on |0> ... |D/2 - 1>, so the beam
    splitter's output on a product of two (N <= D - 2) fits the cutoff exactly."""
    mat = np.zeros((D, D), dtype=complex)
    mat[:D // 2, :D // 2] = random_density_matrix(1, D // 2, rank, seed=seed).matrix
    return DensityMatrix(1, D, mat)


factors = st.builds(_low_factor, st.integers(1, D // 2), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(factors, factors, st.floats(-np.pi, np.pi))
def test_delta_b_invariant_under_beam_splitter(rho_a, rho_b, theta):
    # delta_B is invariant under Gaussian unitaries (a beam splitter included)
    product = tensor(rho_a, rho_b)
    mixed = beam_split(product, theta)
    assert mixed.leakage < 1e-12
    assert abs(delta_b(mixed).value - delta_b(product).value) <= 1e-6


# Gaussian ancillas at the factors' cutoff; the thermal crop tail is 2.6e-11
ANCILLAS = {"vacuum": vacuum(D).density(), "thermal": thermal(0.05, D)}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(factors, st.sampled_from(sorted(ANCILLAS)))
def test_delta_b_ignores_a_gaussian_ancilla(rho, ancilla):
    # delta_B(rho (x) tau_G) = delta_B(rho): the product's reference Gaussian is
    # tau_rho (x) tau_G, and both entropies add over the factors
    tau = ANCILLAS[ancilla]
    alone = delta_b(rho).value
    for product in (tensor(rho, tau), tensor(tau, rho)):
        assert abs(delta_b(product).value - alone) <= 1e-6


# -- the paper's identities for single-mode states -----------------------------

LOW, CUT = 4, 40   # random states on |0> ... |LOW - 1>, embedded at cutoff CUT


def _low_state(rank: int, seed: int) -> DensityMatrix:
    mat = np.zeros((CUT, CUT), dtype=complex)
    mat[:LOW, :LOW] = random_density_matrix(1, LOW, rank, seed=seed).matrix
    return DensityMatrix(1, CUT, mat)


def _near_coherent(rho: DensityMatrix, weight: float, alpha: float) -> DensityMatrix:
    """D(alpha) [(1 - weight)|0><0| + weight rho] D(alpha)^dag: close to a
    coherent state for small weight, so a map that adds non-Gaussianity shows."""
    mat = weight * rho.matrix
    mat[0, 0] += 1.0 - weight
    return displace(DensityMatrix(1, CUT, mat), alpha)


low_states = st.builds(_low_state, st.integers(1, LOW), st.integers(0, 2 ** 32 - 1))
mixed_states = st.builds(_near_coherent, low_states, st.floats(0.0, 1.0), st.floats(0.0, 1.2))
property_settings = settings(max_examples=25, deadline=None, derandomize=True)


@property_settings
@given(st.integers(0, 6))
def test_delta_b_of_fock_state_is_h(n):
    # |n> is pure and its reference Gaussian is thermal with n photons, so
    # delta_B = h(n + 1/2) = (n + 1) ln(n + 1) - n ln n
    assert abs(delta_b(fock(n, 30)).value - (xlogy(n + 1, n + 1) - xlogy(n, n))) <= 1e-10


@property_settings
@given(low_states, st.floats(0.0, 0.8), st.floats(-np.pi, np.pi),
       st.floats(0.0, 0.4), st.floats(-np.pi, np.pi))
def test_measures_invariant_under_displacement_and_squeezing(rho, amag, aarg, r, phi):
    moved = squeeze(displace(rho, amag * np.exp(1j * aarg)), r, phi)
    assert moved.leakage < 1e-8
    assert abs(delta_a(moved).value - delta_a(rho).value) <= 1e-6
    assert abs(delta_b(moved).value - delta_b(rho).value) <= 1e-6


@property_settings
@given(mixed_states, st.floats(0.05, 1.0))
def test_delta_b_does_not_increase_under_loss(rho, eta):
    assert delta_b(loss(rho, eta)).value <= delta_b(rho).value + 1e-9


@property_settings
@given(mixed_states)
def test_delta_b_bounds_purity_times_delta_a(rho):
    assert delta_b(rho).value >= purity(rho) * delta_a(rho).value - 1e-9


# -- the epsilon bounds are lower bounds on delta_B, each on its own class -----

def _diagonal_state(support: int, seed: int) -> DensityMatrix:
    """A random Fock-diagonal state on |0> ... |support - 1>, at cutoff CUT."""
    w = np.zeros(CUT)
    w[:support] = np.random.default_rng(seed).dirichlet(np.ones(support))
    return DensityMatrix(1, CUT, np.diag(w).astype(complex))


diagonal_states = st.builds(_diagonal_state, st.integers(1, 12), st.integers(0, 2 ** 32 - 1))


@property_settings
@given(mixed_states, st.floats(0.05, 1.0))
def test_epsilon_d_and_e_bound_delta_b_on_single_mode_states(rho, eta):
    db = delta_b(rho).value
    assert epsilon_d(rho) <= db + 1e-9
    assert epsilon_e(rho, eta) <= db + 1e-9


@property_settings
@given(diagonal_states, st.floats(0.05, 1.0))
def test_epsilon_a_b_and_c_bound_delta_b_on_fock_diagonal_states(rho, eta):
    db = delta_b(rho).value
    q = detection_statistics(rho, PhotodetectionPOVM(eta, CUT))
    assert epsilon_a(q) <= db + 1e-9
    assert epsilon_b(rho) <= db + 1e-9
    assert epsilon_c(rho, eta) <= db + 1e-9


# (|n> + |n+k>)/sqrt(2) with k >= 3 and the Fock-diagonal states have <a> = <a^2> = 0
superpositions = st.builds(lambda n, k: fock_superposition(n, k, CUT),
                           st.integers(0, 20), st.integers(3, 19))
thermal_reference_states = st.one_of(diagonal_states, superpositions)


@property_settings
@given(thermal_reference_states, st.floats(0.0, 1.0))
def test_the_two_bound_formulas_agree_on_thermal_reference_states(rho, eta):
    # there sigma = (N + 1/2) I, so tau_eta = nu_{eta N} and q_eta has mean eta N:
    # S(nu_M) - H(q_eta) = S(tau_eta) - H(q_eta), and so at eta = 1 as well
    assert abs(epsilon_c(rho, eta) - epsilon_e(rho, eta)) <= 1e-12
    assert abs(epsilon_b(rho) - epsilon_d(rho)) <= 1e-12


# -- the two-mode entropic gaps ------------------------------------------------

two_mode_states = st.builds(lambda rank, seed: random_density_matrix(2, D, rank, seed=seed),
                            st.integers(1, D * D), st.integers(0, 2 ** 32 - 1))


@property_settings
@given(two_mode_states)
def test_entropic_gaps_are_the_information_deficits(rho):
    # Delta_2 = I - I_G and Delta_1 = S_G(A|B) - S(A|B), both >= 0, with every
    # entropy read directly off the state and its covariance matrix
    g = moments(rho)
    s_ab = von_neumann_entropy(rho)
    s_a = von_neumann_entropy(partial_trace(rho, {0}))
    s_b = von_neumann_entropy(partial_trace(rho, {1}))
    delta_2 = mutual_information_gap(rho)
    delta_1 = conditional_entropy_gap(rho)
    assert abs(delta_2 - ((s_a + s_b - s_ab) - gaussian_mutual_information(g))) <= 1e-6
    assert abs(delta_1 - (gaussian_conditional_entropy(g) - (s_ab - s_b))) <= 1e-6
    assert delta_2 >= -1e-6 and delta_1 >= -1e-6
