import math

import numpy as np
import pytest

from nongauss import (ArgumentError, FockStateVector, PhotodetectionPOVM, delta_b,
                      detection_statistics, epsilon_a, epsilon_b, epsilon_c,
                      epsilon_d, epsilon_e, histogram_to_distribution, loss)
from nongauss.channels import phase_diffusion
from nongauss.states import (cat, coherent, diagonal_mixture, fock,
                             fock_superposition, squeezed_vacuum, thermal)


def test_povm_completeness():
    for eta in (0.0, 0.35, 1.0):
        table = PhotodetectionPOVM(eta, 25).weight_table()
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12
        assert table.min() >= 0.0 and table.max() <= 1.0 + 1e-12
    with pytest.raises(ArgumentError):
        PhotodetectionPOVM(1.4, 10)


def test_detection_statistics():
    q = detection_statistics(fock(2, 12), PhotodetectionPOVM(1.0, 12))
    assert abs(q[2] - 1.0) < 1e-12
    eta = 0.45
    q = detection_statistics(fock(1, 12), PhotodetectionPOVM(eta, 12))
    assert np.allclose(q[:3], [1 - eta, eta, 0.0], atol=1e-12)
    q = detection_statistics(thermal(0.0, 8), PhotodetectionPOVM(0.3, 8))
    assert abs(q[0] - 1.0) < 1e-12


def test_epsilon_a_loss_identity():
    # epsilon_A equals delta_B of the loss-degraded state, exactly
    for eta in (1.0, 0.6, 0.25):
        rho = fock(2, 30)
        q = detection_statistics(rho, PhotodetectionPOVM(eta, 30))
        lhs = epsilon_a(q)
        rhs = delta_b(loss(rho.density(), eta)).value
        assert abs(lhs - rhs) <= 1e-8
    q0 = detection_statistics(fock(2, 30), PhotodetectionPOVM(0.0, 30))
    assert abs(epsilon_a(q0)) < 1e-12


def test_epsilon_a_monotone_in_eta():
    rho = diagonal_mixture([0.2, 0.1, 0.4, 0.3], 20)
    vals = [epsilon_a(detection_statistics(rho, PhotodetectionPOVM(eta, 20)))
            for eta in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_epsilon_b():
    assert abs(epsilon_b(thermal(1.0, 60))) < 1e-8
    rho = diagonal_mixture([0.3, 0.2, 0.5], 40)
    assert abs(epsilon_b(rho) - delta_b(rho).value) <= 1e-8
    psi = fock_superposition(1, 3, 40)
    val = epsilon_b(psi)
    assert 0 < val < delta_b(psi).value
    with pytest.raises(ArgumentError):
        epsilon_b(coherent(1.0, 40))  # <a> nonzero: wrong state class


def test_epsilon_c():
    f2 = fock(2, 30)
    assert abs(epsilon_c(f2, 1.0) - epsilon_b(f2)) < 1e-12
    psi = fock_superposition(1, 3, 40)
    assert epsilon_c(psi, 0.7) <= epsilon_b(psi) + 1e-6  # data processing


def test_epsilon_c_makes_one_dense_copy_of_a_vector(monkeypatch):
    # the counts and the thermal-reference gate read the same density
    copies = []
    density = FockStateVector.density
    monkeypatch.setattr(FockStateVector, "density", lambda self: copies.append(1) or density(self))
    psi = fock_superposition(1, 3, 40)
    assert epsilon_c(psi, 0.7) == epsilon_c(psi.density(), 0.7)
    assert len(copies) == 2   # one inside the vector's epsilon_c, one in the line above


def test_epsilon_d():
    rho = diagonal_mixture([0.25, 0.25, 0.5], 40)
    assert abs(epsilon_d(rho) - delta_b(rho).value) <= 1e-8
    psi = cat(1.0, -np.pi / 4, 50)
    assert epsilon_d(psi) <= delta_b(psi).value + 1e-6


def test_epsilon_e():
    psi = cat(1.0, -np.pi / 4, 50)
    assert epsilon_e(psi, 0.7) <= delta_b(psi).value + 1e-6
    assert epsilon_e(psi, 1.0) <= delta_b(psi).value + 1e-6


def test_all_bounds_below_delta_b_on_zoo():
    zoo_thermal_ref = [fock(1, 40), fock(3, 40), fock_superposition(1, 3, 40),
                       fock_superposition(0, 4, 40),
                       diagonal_mixture([0.5, 0.2, 0.2, 0.1], 40)]
    zoo_generic = zoo_thermal_ref + [cat(1.0, -np.pi / 4, 50),
                                     cat(0.7, np.pi / 4, 50),
                                     phase_diffusion(coherent(1.0, 40).density(), 0.4)]
    for rho in zoo_generic:
        db = delta_b(rho).value
        assert epsilon_d(rho) <= db + 1e-6
        for eta in (0.4, 0.8):
            assert epsilon_e(rho, eta) <= db + 1e-6
    for rho in zoo_thermal_ref:
        db = delta_b(rho).value
        assert epsilon_b(rho) <= db + 1e-6
        for eta in (0.4, 0.8):
            assert epsilon_c(rho, eta) <= db + 1e-6
            q = detection_statistics(rho, PhotodetectionPOVM(eta, rho.cutoff))
            assert epsilon_a(q) <= db + 1e-6


def test_bounds_non_negative_on_their_classes():
    states = [fock(2, 40), fock_superposition(1, 4, 40),
              diagonal_mixture([0.6, 0.4], 40)]
    for rho in states:
        assert epsilon_b(rho) >= -1e-9
        assert epsilon_d(rho) >= -1e-9
        for eta in (0.3, 0.9):
            assert epsilon_c(rho, eta) >= -1e-9
            q = detection_statistics(rho, PhotodetectionPOVM(eta, rho.cutoff))
            assert epsilon_a(q) >= -1e-9


def test_histogram_entry_point():
    q = histogram_to_distribution([(0, 60), (1, 25), (2, 15)])
    assert abs(q.sum() - 1.0) < 1e-12
    assert epsilon_a(q) >= 0
    with pytest.raises(ArgumentError):
        histogram_to_distribution([])
    with pytest.raises(ArgumentError):
        histogram_to_distribution([(0, -3)])
    # counts must be real numbers, not text or None, even text a number parses from
    for rows in ([(0, "x")], [(0, None)], [(0, "3"), (1, 1)]):
        with pytest.raises(ArgumentError, match="counts must be real numbers"):
            histogram_to_distribution(rows)


def test_thermal_reference_check_reads_both_moments():
    # squeezed vacuum: <a> = 0 and |<a^2>| = sinh(r) cosh(r) = 0.318 at r = 0.3
    with pytest.raises(ArgumentError, match=r"\|<a>\| = 0\.00e\+00, \|<a\^2>\| = 3\.18e-01"):
        epsilon_b(squeezed_vacuum(0.3, 40))
    # coherent: <a> = alpha, <a^2> = alpha^2
    with pytest.raises(ArgumentError, match=r"\|<a>\| = 5\.00e-01, \|<a\^2>\| = 2\.50e-01"):
        epsilon_c(coherent(0.5, 40), 0.7)


@pytest.mark.parametrize("rows", [[(1.5, 3), (0, 1)], [(math.nan, 1)], [("1", 1)]],
                         ids=["m-fractional", "m-nan", "m-string"])
def test_histogram_photon_numbers_must_be_integers(rows):
    with pytest.raises(ArgumentError, match="photon number m must be an integer"):
        histogram_to_distribution(rows)


def test_nan_weights_are_argument_errors():
    with pytest.raises(ArgumentError):
        epsilon_a([math.nan, 1.0])
    with pytest.raises(ArgumentError):
        histogram_to_distribution([(0, math.nan), (1, 3.0)])
    with pytest.raises(ArgumentError):
        histogram_to_distribution([(0, math.inf), (1, 3.0)])
