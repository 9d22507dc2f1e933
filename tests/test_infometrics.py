import math

import numpy as np
import pytest

from nongauss import (ArgumentError, DensityMatrix, Ensemble, FockStateVector,
                      StateFamily, conditional_entropy, conditional_entropy_gap,
                      gaussian_conditional_entropy, gaussian_mutual_information,
                      holevo_chi, moments, mutual_information,
                      mutual_information_gap, qfi, qfi_ng_bound_check, tensor)
from nongauss.bounds import PhotodetectionPOVM, epsilon_e
from nongauss.channels import loss, loss_transition_matrix
from nongauss.distillation import browne_state
from nongauss.measures import conjecture_a5_sweep
from nongauss.states import (PNESSpec, coherent, diagonal_mixture, fock, pnes,
                             thermal)


def test_holevo_chi():
    single = Ensemble(((1.0, fock(1, 20)),))
    assert holevo_chi(single) < 1e-12
    two = Ensemble(((0.5, fock(0, 20)), (0.5, fock(1, 20))))
    assert abs(holevo_chi(two) - np.log(2)) < 1e-12
    assert abs(holevo_chi(two) / np.log(2) - 1.0) < 1e-12
    # pure coherent ensemble exercises the internal S(tau) - delta identity
    ens = Ensemble(tuple((0.25, coherent(a, 40))
                         for a in (0.0, 0.7, -0.7, 0.9j)))
    assert holevo_chi(ens) > 0.1
    with pytest.raises(ArgumentError):
        Ensemble(((0.7, fock(0, 10)), (0.5, fock(1, 10))))


def test_mutual_information():
    # minimal adequate cutoff for 0.8 under the default tail (1e-10)
    prod = tensor(thermal(0.4, 29), thermal(0.8, 29))
    assert abs(mutual_information(prod)) < 1e-8
    assert abs(mutual_information_gap(prod)) < 1e-6

    tb = pnes(PNESSpec("twin_beam", 0.3, 12))
    i_val = mutual_information(tb)
    i_g = gaussian_mutual_information(moments(tb.density()))
    assert abs(i_val - i_g) < 1e-6  # Gaussian state: no gap

    tmc = pnes(PNESSpec("tmc", 1.0, 12))
    i_val = mutual_information(tmc)
    i_g = gaussian_mutual_information(moments(tmc.density()))
    assert i_val >= i_g - 1e-6
    assert mutual_information_gap(tmc) > 0.1


def test_conditional_entropy():
    # minimal adequate cutoff for 0.7 under the default tail (1e-10)
    prod = tensor(thermal(0.7, 26), thermal(0.3, 26))
    from nongauss import von_neumann_entropy, partial_trace
    s_a = von_neumann_entropy(partial_trace(prod, {0}))
    assert abs(conditional_entropy(prod) - s_a) < 1e-8

    d = 8
    amps = np.zeros(d * d, dtype=complex)
    amps[0] = amps[1 + d] = 1 / np.sqrt(2)
    bell = FockStateVector(2, d, amps)
    assert abs(conditional_entropy(bell) + np.log(2)) < 1e-8  # negative for pure entangled

    ps = pnes(PNESSpec("pssv", 0.25, 12))
    s = conditional_entropy(ps)
    s_g = gaussian_conditional_entropy(moments(ps.density()))
    assert abs((s_g - s) - conditional_entropy_gap(ps)) < 1e-6
    assert s <= s_g + 1e-6


def test_qfi_bernoulli():
    lam = 0.3
    mat = np.zeros((6, 6), dtype=complex)
    mat[0, 0], mat[1, 1] = lam, 1 - lam
    drho = np.zeros((6, 6), dtype=complex)
    drho[0, 0], drho[1, 1] = 1.0, -1.0
    val = qfi(StateFamily(DensityMatrix(1, 6, mat), drho))
    assert abs(val - 1.0 / (lam * (1 - lam))) < 1e-6


def test_qfi_zero_derivative():
    rho = thermal(0.5, 30)
    assert qfi(StateFamily(rho, np.zeros_like(rho.matrix))) == 0.0


def test_qfi_fidelity_oracle():
    # full-rank family: thermal interpolation; Bures finite difference within 1%
    d = 46  # minimal adequate cutoff for 1.5 under the default tail (1e-10)
    lam0, eps = 0.4, 2e-4
    nu1, nu2 = thermal(0.5, d), thermal(1.5, d)

    def fam(t):
        return DensityMatrix(1, d, (1 - t) * nu1.matrix + t * nu2.matrix)

    drho = nu2.matrix - nu1.matrix
    h_val = qfi(StateFamily(fam(lam0), drho))

    def sqrt_fid(a, b):
        w, v = np.linalg.eigh(a)
        w = np.clip(w, 0, None)
        root = (v * np.sqrt(w)) @ v.conj().T
        m = root @ b @ root
        return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(m), 0, None))))

    fd = 8.0 * (1.0 - sqrt_fid(fam(lam0).matrix, fam(lam0 + eps).matrix)) / eps ** 2
    assert abs(h_val - fd) / h_val < 0.01


def test_qfi_pure_displacement_families():
    # coherent(lambda): H = 4; quadrature-shift parametrization: H = 2
    d, a0, eps = 40, 0.5, 1e-5

    def deriv(f0, f1):
        dr = (f1.density().matrix - f0.density().matrix) / eps
        dr = 0.5 * (dr + dr.conj().T)
        return dr - np.trace(dr) / d * np.eye(d)

    c0, c1 = coherent(a0, d), coherent(a0 + eps, d)
    assert abs(qfi(StateFamily(c0.density(), deriv(c0, c1))) - 4.0) < 1e-3
    q0 = coherent(a0 / np.sqrt(2), d)
    q1 = coherent((a0 + eps) / np.sqrt(2), d)
    assert abs(qfi(StateFamily(q0.density(), deriv(q0, q1))) - 2.0) < 1e-3


def test_qfi_ng_bound():
    d = 57  # minimal adequate cutoff for 2.0 under the default tail (1e-10)
    for n_mean in (0.5, 1.0, 2.0):
        nu = thermal(n_mean, d)
        q = np.zeros(d)
        # two-point diagonal state with the same mean photon number
        k = max(2, int(np.ceil(2 * n_mean)))
        q[k] = n_mean / k
        q[0] = 1.0 - q[k]
        rho_d = diagonal_mixture(q, d)

        def fam(t, _nu=nu, _rd=rho_d):
            return DensityMatrix(1, d, (1 - t) * _nu.matrix + t * _rd.matrix)

        rep = qfi_ng_bound_check(nu, fam, [1e-2, 1e-3],
                                 derivative=rho_d.matrix - nu.matrix)
        assert rep["all_hold"]
        assert rep["qfi"] > 0


def test_qfi_bound_rejects_moment_changing_families():
    d = 30
    nu = thermal(0.5, d)

    def fam(t):
        return DensityMatrix(1, d, (1 - t) * nu.matrix + t * fock(1, d).density().matrix)

    with pytest.raises(ArgumentError):
        qfi_ng_bound_check(nu, fam, [1e-2])


def _never(t):
    raise AssertionError("the family was evaluated before its epsilons were checked")


_NU = thermal(0.5, 30)


_NON_FINITE = "derivative has a non-finite entry"
_ETA = r"is not a real number eta in \[0, 1\]"


@pytest.mark.parametrize("build, match", [
    (lambda: Ensemble(((math.nan, fock(0, 6)), (math.nan, fock(1, 6)))), None),
    (lambda: Ensemble(((math.nan, fock(0, 6)),)), None),
    (lambda: StateFamily(_NU, np.full((30, 30), math.nan)), _NON_FINITE),
    (lambda: StateFamily(_NU, np.diag([math.inf, -math.inf] + [0.0] * 28)), _NON_FINITE),
    (lambda: qfi_ng_bound_check(_NU, _never, [0.0, 1e-2]), None),
    (lambda: qfi_ng_bound_check(_NU, _never, [math.nan]), None),
    (lambda: qfi_ng_bound_check(_NU, _never, [1e-2, math.inf]), None),
    (lambda: qfi_ng_bound_check(_NU, _never, []), None),
    (lambda: conjecture_a5_sweep(2, [1]), None),
    (lambda: conjecture_a5_sweep(2, [0]), None),
    (lambda: conjecture_a5_sweep(2, [4, 1]), None),
    (lambda: browne_state("a", math.inf), None),
    (lambda: epsilon_e(_NU, math.nan), None),
    (lambda: PhotodetectionPOVM("0.5", 10), _ETA),
    (lambda: PhotodetectionPOVM(None, 10), _ETA),
    (lambda: PhotodetectionPOVM(math.nan, 10), _ETA),
    (lambda: loss_transition_matrix("0.5", 4), _ETA),
    (lambda: loss_transition_matrix(None, 4), _ETA),
    (lambda: loss_transition_matrix(math.nan, 4), _ETA),
    (lambda: loss(fock(1, 6), "0.5"), _ETA),
    (lambda: loss(fock(1, 6), None), _ETA),
    (lambda: loss(fock(1, 6), math.nan), _ETA),
], ids=["ensemble-nan", "ensemble-single-nan", "qfi-family-nan", "qfi-family-inf",
        "qfi-eps-zero", "qfi-eps-nan", "qfi-eps-inf", "qfi-eps-none", "a5-cutoff-1",
        "a5-cutoff-0", "a5-late-cutoff-1", "browne-inf", "epsilon-e-nan", "povm-eta-str",
        "povm-eta-none", "povm-eta-nan", "loss-table-eta-str", "loss-table-eta-none",
        "loss-table-eta-nan", "loss-eta-str", "loss-eta-none", "loss-eta-nan"])
def test_untyped_inputs_are_argument_errors(build, match):
    # each check runs before any work, and NaN fails it
    with pytest.raises(ArgumentError, match=match):
        build()
