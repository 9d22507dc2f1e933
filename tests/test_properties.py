"""Property tests of the paper's statements, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nongauss import DensityMatrix, beam_split, delta_b, random_density_matrix
from nongauss.fock import tensor

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
