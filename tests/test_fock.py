import json

import numpy as np
import pytest
from scipy.special import gammaln

from nongauss import (ArgumentError, DensityMatrix, FockStateVector,
                      NumericalValidityError, TruncationError, moments, overlap,
                      partial_trace, partial_transpose, purity,
                      random_density_matrix, tensor, von_neumann_entropy)
from nongauss.fock import _log_factorials
from nongauss.states import fock, thermal, vacuum


def haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_vector_invariants():
    with pytest.raises(ArgumentError):
        FockStateVector(1, 4, np.ones(5))
    with pytest.raises(NumericalValidityError):
        FockStateVector(1, 4, np.ones(4))  # norm 2


def test_density_invariants():
    mat = np.diag([0.6, 0.4]).astype(complex)
    mat[0, 1] = 0.1
    with pytest.raises(NumericalValidityError):
        DensityMatrix(1, 2, mat)  # not Hermitian
    with pytest.raises(NumericalValidityError):
        DensityMatrix(1, 2, np.diag([0.7, 0.4]).astype(complex))  # trace 1.1


def test_vector_rejects_nan():
    with pytest.raises(NumericalValidityError):
        FockStateVector(1, 2, [np.nan, 0])


def test_density_rejects_nan():
    with pytest.raises(NumericalValidityError):
        DensityMatrix(1, 2, np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(ArgumentError):
        DensityMatrix(1, 2, np.eye(2) / 2, leakage=np.nan)


def test_photon_numbers_agree_between_carriers():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi = FockStateVector(3, 3, amps / np.linalg.norm(amps))
    counts = psi.photon_numbers()
    assert np.allclose(counts, psi.density().photon_numbers(), rtol=0, atol=1e-14)
    assert abs(psi.energy() - float(np.sum(counts))) <= 1e-14
    assert np.array_equal(fock(2, 4).photon_numbers(), [2.0])


def test_tensor_product():
    v2 = vacuum(4).density()
    two = tensor(v2, v2)
    assert two.modes == 2 and abs(np.trace(two.matrix) - 1) < 1e-12
    ft = tensor(fock(1, 4).density(), thermal(0.0, 4))
    # |1>|0>: occupied flat index is n0=1, n1=0 -> 1
    assert abs(ft.matrix[1, 1] - 1.0) < 1e-12


def test_tensor_of_vectors():
    rng = np.random.default_rng(13)
    amps = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    psi, phi = (FockStateVector(1, 4, a / np.linalg.norm(a)) for a in amps)
    both = tensor(psi, phi)
    assert isinstance(both, FockStateVector) and both.modes == 2
    assert np.array_equal(both.amplitudes, np.kron(phi.amplitudes, psi.amplitudes))
    dense = tensor(psi.density(), phi.density()).matrix
    assert np.max(np.abs(both.density().matrix - dense)) <= 1e-15
    mixed = tensor(psi, phi.density())   # a mixed pair goes through densities
    assert isinstance(mixed, DensityMatrix)
    assert np.max(np.abs(mixed.matrix - dense)) <= 1e-15
    assert tensor(fock(1, 3), fock(0, 3)).amplitudes[1] == 1.0


def test_tensor_purity_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_density_matrix(1, 3, 2, rng)
        b = random_density_matrix(1, 3, 3, rng)
        assert abs(purity(tensor(a, b)) - purity(a) * purity(b)) < 1e-12


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(3)
    a = random_density_matrix(1, 4, 2, rng)
    b = random_density_matrix(1, 4, 3, rng)
    ab = tensor(a, b)
    assert np.max(np.abs(partial_trace(ab, {0}).matrix - a.matrix)) <= 1e-12
    assert np.max(np.abs(partial_trace(ab, {1}).matrix - b.matrix)) <= 1e-12
    with pytest.raises(ArgumentError):
        partial_trace(ab, set())


def test_partial_trace_three_modes():
    rng = np.random.default_rng(5)
    a, b, c = (random_density_matrix(1, 3, r, rng) for r in (1, 2, 3))
    abc = tensor(a, tensor(b, c))   # mode 0 is a, mode 1 is b, mode 2 is c
    expected = {(0,): a, (1,): b, (2,): c, (0, 1): tensor(a, b),
                (0, 2): tensor(a, c), (1, 2): tensor(b, c)}
    for keep, factor in expected.items():
        red = partial_trace(abc, keep)
        assert red.modes == len(keep)
        assert np.max(np.abs(red.matrix - factor.matrix)) <= 1e-12


def test_partial_trace_twin_beam_thermal():
    # sum_n x^n |n,n> traces to a thermal-like diagonal with p_n ~ x^(2n)
    d, x = 10, 0.4
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * (d + 1)] = x ** np.arange(d)
    amps /= np.linalg.norm(amps)
    red = partial_trace(FockStateVector(2, d, amps).density(), {0})
    expect = (1 - x ** 2) * x ** (2 * np.arange(d))
    expect /= expect.sum()
    assert np.max(np.abs(np.real(np.diag(red.matrix)) - expect)) < 1e-12


def test_partial_transpose():
    d = 5
    amps = np.zeros(d * d, dtype=complex)
    amps[0] = amps[1 + d] = 1 / np.sqrt(2)
    bell = FockStateVector(2, d, amps).density()
    pt = partial_transpose(bell, 1)
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12
    assert abs(np.trace(pt) - 1.0) < 1e-12
    # product states: transposing the diagonal factor changes nothing,
    # transposing the other factor transposes it alone
    a = random_density_matrix(1, 16, 2, seed=5)
    prod = tensor(a, thermal(0.3, 16))
    assert np.max(np.abs(partial_transpose(prod, 1) - prod.matrix)) < 1e-12
    diff = partial_transpose(prod, 0) - tensor(
        DensityMatrix(1, 16, a.matrix.T), thermal(0.3, 16)).matrix
    assert np.max(np.abs(diff)) < 1e-12
    with pytest.raises(ArgumentError):
        partial_transpose(a, 0)
    rng = np.random.default_rng(8)
    r2 = random_density_matrix(2, 3, 4, rng)
    assert abs(np.trace(partial_transpose(r2, 0)) - 1.0) < 1e-12


def test_purity_and_overlap():
    assert abs(purity(fock(1, 20)) - 1.0) < 1e-12
    assert abs(purity(thermal(1.0, 60)) - 1.0 / 3.0) < 1e-10
    assert abs(overlap(fock(1, 60).density(), thermal(1.0, 60)) - 0.25) < 1e-10
    assert overlap(fock(0, 10).density(), fock(1, 10).density()) < 1e-15
    rho = random_density_matrix(1, 6, 3, seed=1)
    assert abs(overlap(rho, rho) - purity(rho)) < 1e-12


def test_overlap_symmetry():
    rng = np.random.default_rng(2)
    a = random_density_matrix(1, 6, 4, rng)
    b = random_density_matrix(1, 6, 2, rng)
    assert abs(overlap(a, b) - overlap(b, a)) <= 1e-12


def test_von_neumann_entropy():
    assert von_neumann_entropy(fock(3, 10)) == 0.0
    assert abs(von_neumann_entropy(thermal(1.0, 60)) - 2 * np.log(2)) < 1e-10
    mixed = DensityMatrix(1, 4, np.diag([0.5, 0.5, 0, 0]).astype(complex))
    assert abs(von_neumann_entropy(mixed) - np.log(2)) < 1e-12
    assert abs(von_neumann_entropy(mixed) / np.log(2) - 1.0) < 1e-12


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(1, 8, 3, rng)
    u = haar_unitary(8, rng)
    rot = DensityMatrix(1, 8, u @ rho.matrix @ u.conj().T)
    assert abs(purity(rot) - purity(rho)) < 1e-10
    assert abs(von_neumann_entropy(rot) - von_neumann_entropy(rho)) < 1e-10


def test_random_density_matrix():
    pure = random_density_matrix(1, 6, 1, seed=0)
    assert abs(purity(pure) - 1.0) < 1e-10
    r1 = random_density_matrix(1, 6, 3, seed=42)
    r2 = random_density_matrix(1, 6, 3, seed=42)
    assert np.array_equal(r1.matrix, r2.matrix)
    with pytest.raises(ArgumentError):
        random_density_matrix(1, 4, 5, seed=0)
    # mean purity at full rank decreases with dimension
    rng = np.random.default_rng(9)
    means = []
    for d in (2, 4, 8):
        means.append(np.mean([purity(random_density_matrix(1, d, d, rng))
                              for _ in range(200)]))
    assert means[0] > means[1] > means[2]


def test_json_round_trip():
    psi = fock(2, 6)
    assert np.array_equal(FockStateVector.from_json(psi.to_json()).amplitudes,
                          psi.amplitudes)
    rho = random_density_matrix(1, 5, 2, seed=3)
    back = DensityMatrix.from_json(rho.to_json())
    assert np.array_equal(back.matrix, rho.matrix)
    obj = json.loads(rho.to_json())
    assert set(obj) == {"modes", "cutoff", "re", "im", "leakage"}


def test_vector_leakage_is_carried():
    with pytest.raises(ArgumentError, match="leakage"):
        FockStateVector(1, 3, [1, 0, 0], leakage=-1e-3)
    psi = FockStateVector(1, 3, [0, 1, 0], leakage=2e-9)
    back = FockStateVector.from_json(psi.to_json())
    assert back.leakage == psi.leakage and np.array_equal(back.amplitudes, psi.amplitudes)
    assert psi.density().leakage == psi.leakage
    assert tensor(psi, FockStateVector(1, 3, [1, 0, 0], leakage=1e-9)).leakage == 2e-9 + 1e-9
    with pytest.raises(TruncationError, match="leak_max"):
        moments(FockStateVector(1, 3, [0, 1, 0], leakage=1e-3))


@pytest.mark.parametrize("n", [1, 2, 3, 40, 4096])
def test_log_factorial_table(n):
    table = _log_factorials(n)
    assert table.shape == (n,)
    assert table[0] == 0.0 and (n < 2 or table[1] == 0.0)
    exact = gammaln(np.arange(n) + 1.0)
    assert np.all(np.abs(table[2:] - exact[2:]) <= 1e-13 * exact[2:])
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 1.0
