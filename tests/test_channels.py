import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import hyp2f1

from nongauss import (ArgumentError, ChannelSpec, DensityMatrix, FockStateVector,
                      NumericalValidityError, TruncationError, apply_channel, beam_split,
                      delta_a, delta_b, displace, kerr, loss, phase_diffusion, squeeze, tensor)
from nongauss.channels import (_bs_blocks, _displacement_block, _kerr_moments,
                               _squeeze_block, loss_transition_matrix)
from nongauss.fock import _log_factorials, random_density_matrix
from nongauss.gaussian import (SingleModeGaussianParams, displacement_matrix,
                               gaussian_entropy, h, moments, squeeze_matrix,
                               synthesize_single_mode_gaussian)
from nongauss.states import coherent, fock, thermal, vacuum


def test_loss_identity_and_vacuum_limits():
    rho = coherent(1.0, 30).density()
    assert np.max(np.abs(loss(rho, 1.0).matrix - rho.matrix)) < 1e-12
    out = loss(rho, 0.0)
    assert abs(out.matrix[0, 0] - 1.0) < 1e-12
    with pytest.raises(ArgumentError):
        loss(rho, 1.2)


def test_loss_fock_weights():
    eta = 0.35
    out = loss(fock(2, 10).density(), eta)
    w = np.real(np.diag(out.matrix))
    expect = [(1 - eta) ** 2, 2 * eta * (1 - eta), eta ** 2]
    assert np.allclose(w[:3], expect, atol=1e-12)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_loss_diagonal_transition_identity():
    # for Fock-diagonal input the output weights are exactly T q
    eta = 0.6
    q = np.array([0.2, 0.3, 0.1, 0.4] + [0.0] * 6)
    rho = DensityMatrix(1, 10, np.diag(q).astype(complex))
    out = loss(rho, eta)
    t = loss_transition_matrix(eta, 10)
    assert np.max(np.abs(np.real(np.diag(out.matrix)) - t @ q)) < 1e-12


@pytest.mark.parametrize("eta", [1e-9, 0.25, 0.6, 1 - 1e-9])
def test_loss_transition_matrix_matches_exact_binomials(eta):
    # C(p, l) eta^l (1 - eta)^(p - l) in exact rationals: eta = a / 2^s as a double,
    # and an int ratio rounds correctly to the nearest double
    d, tiny = 201, np.finfo(float).tiny
    t = loss_transition_matrix(eta, d)
    assert not np.any(np.tril(t, -1))
    a, den = Fraction(eta).as_integer_ratio()
    pa, pb = [a ** l for l in range(d)], [(den - a) ** k for k in range(d)]
    for p, scale in enumerate(den ** p for p in range(d)):
        exact = np.array([math.comb(p, l) * pa[l] * pb[p - l] / scale for l in range(p + 1)])
        got, normal = t[:p + 1, p], exact >= tiny
        assert np.all(np.abs(got - exact)[normal] <= 1e-12 * exact[normal])
        assert np.all(got[~normal] < tiny)   # below the normal doubles both underflow


def _loss_table_by_rows(eta: float, dim: int) -> np.ndarray:
    """The reference table, filled one row at a time by the same per-entry expression."""
    t, lf, ps = np.zeros((dim, dim)), _log_factorials(dim), np.arange(dim, dtype=float)
    for l in range(dim):
        t[l, l:] = np.exp(lf[l:] - lf[l] - lf[:dim - l]
                          + (ps[l:] - l) * math.log(1.0 - eta) + l * math.log(eta))
    return t


@pytest.mark.parametrize("dim", [1, 2, 12, 40, 300])
def test_loss_transition_matrix_is_the_row_loop_bit_for_bit(dim):
    for eta in (1e-9, 0.25, 0.4, 0.6, 0.8, 1 - 1e-9):
        assert np.array_equal(loss_transition_matrix(eta, dim), _loss_table_by_rows(eta, dim))


def test_loss_semigroup():
    rho = coherent(0.8, 40).density()
    a = loss(loss(rho, 0.9), 0.7)
    b = loss(rho, 0.63)
    assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-8


def test_loss_positivity():
    rng = np.random.default_rng(6)
    from nongauss import random_density_matrix
    rho = random_density_matrix(1, 8, 3, rng)
    out = loss(rho, 0.43)
    assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_lossy_fock_delta_a_closed_form():
    # hypergeometric closed form (with the summation symbol read as the photon
    # number p) agrees with the direct Kraus computation
    for p, eta in ((2, 0.35), (3, 0.6), (4, 0.8)):
        rho = loss(fock(p, 12).density(), eta)
        direct = delta_a(rho).value
        f = (1 - eta) ** (2 * p) * hyp2f1(-p, -p, 1, eta ** 2 / (eta - 1) ** 2)
        closed = (f + 1 / (1 + 2 * p * eta)
                  - 2 * (1 + (p - 1) * eta) ** p / (1 + p * eta) ** (p + 1)) / (2 * f)
        assert abs(direct - closed) < 1e-10


def test_loss_fock_trends():
    # both measures decrease in t and increase with p at fixed t
    ts = (0.25, 0.75, 1.5)
    for p in (2, 4):
        va = [delta_a(loss(fock(p, 12).density(), np.exp(-t))).value for t in ts]
        vb = [delta_b(loss(fock(p, 12).density(), np.exp(-t))).value for t in ts]
        assert va[0] > va[1] > va[2]
        assert vb[0] > vb[1] > vb[2]
    for t in ts:
        assert (delta_b(loss(fock(4, 12).density(), np.exp(-t))).value
                > delta_b(loss(fock(2, 12).density(), np.exp(-t))).value)


def test_phase_diffusion():
    rho = coherent(1.0, 30).density()
    assert np.max(np.abs(phase_diffusion(rho, 0.0).matrix - rho.matrix)) < 1e-15
    delta = 0.4
    out = phase_diffusion(rho, delta)
    assert abs(out.matrix[0, 2] / rho.matrix[0, 2] - np.exp(-4 * delta ** 2)) < 1e-12
    assert np.max(np.abs(np.diag(out.matrix) - np.diag(rho.matrix))) < 1e-12


def test_phase_diffusion_composition():
    rho = coherent(1.0, 30).density()
    a = phase_diffusion(phase_diffusion(rho, 0.3), 0.4)
    b = phase_diffusion(rho, 0.5)  # quadrature sum
    assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10


def test_phase_diffusion_gauss_hermite_oracle():
    # random-phase-shift representation integrated by Gauss-Hermite quadrature
    delta = 0.3
    rho = coherent(1.2, 25).density()
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    acc = np.zeros_like(rho.matrix)
    n = np.arange(25)
    for x, w in zip(nodes, weights):
        u = np.exp(-1j * (2 * delta * x) * n)
        acc += (w / np.sqrt(np.pi)) * (u[:, None] * rho.matrix * u.conj()[None, :])
    direct = phase_diffusion(rho, delta)
    assert np.max(np.abs(acc - direct.matrix)) <= 1e-6


def test_kerr():
    psi = coherent(1.5, 40)
    assert np.array_equal(kerr(psi, 0.0).amplitudes, psi.amplitudes)
    full_turn = kerr(psi, 2 * np.pi)
    assert np.max(np.abs(full_turn.amplitudes - psi.amplitudes)) < 1e-12
    out = kerr(psi, 0.05)
    assert np.max(np.abs(np.abs(out.amplitudes) - np.abs(psi.amplitudes))) < 1e-15


def test_kerr_energy_trend():
    gamma = 1e-2
    vals = [delta_b(kerr(coherent(np.sqrt(n), 40), gamma)).value
            for n in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


gaussian_params = st.builds(
    lambda amag, aarg, r, phi, n_th: SingleModeGaussianParams(amag * np.exp(1j * aarg), r,
                                                              phi, n_th),
    st.floats(0.0, 1.0), st.floats(-np.pi, np.pi), st.floats(0.0, 0.5),
    st.floats(-np.pi, np.pi), st.floats(0.0, 0.3))


def _probe(params: SingleModeGaussianParams) -> DensityMatrix:
    # at most |alpha| = 1, r = 0.5 and n_th = 0.3: the crop at d = 60 leaks < 1e-10
    return synthesize_single_mode_gaussian(params, 60)


random_states = st.builds(lambda rank, seed: random_density_matrix(1, 12, rank, seed),
                          st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
kerr_settings = settings(max_examples=25, deadline=None, derandomize=True)


@kerr_settings
@given(st.one_of(random_states, gaussian_params.map(_probe)),
       st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True))
def test_kerr_moments_match_the_output_state(rho, gamma):
    # the moment law on rho's diagonals against the moments of the output state
    got, want = _kerr_moments(rho, gamma), moments(kerr(rho, gamma))
    assert np.max(np.abs(got.X - want.X)) <= 1e-12
    assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-12


@kerr_settings
@given(gaussian_params)
def test_kerr_at_pi_keeps_gaussian_probes_gaussian(params):
    # n^2 = n mod 2, so exp(-i pi n^2) = exp(-i pi n), a rotation by pi: the
    # output is Gaussian and its delta_B, as ng_of_map reads it, vanishes
    g = _kerr_moments(_probe(params), np.pi)
    assert abs(gaussian_entropy(g) - h(params.n_th + 0.5)) <= 1e-9


def test_kerr_moments_refuse_a_leaking_state():
    rho = DensityMatrix(1, 5, np.diag([1.0, 0, 0, 0, 0]).astype(complex), leakage=1e-3)
    with pytest.raises(TruncationError, match="leak_max"):
        _kerr_moments(rho, 0.1)


def test_gaussian_unitaries():
    psi = fock(1, 20)
    out = displace(psi, 0.0)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    # balanced beam splitter on |1, 0>
    amps = np.zeros(36, dtype=complex)
    amps[1] = 1.0
    out = beam_split(FockStateVector(2, 6, amps), np.pi / 4)
    assert abs(out.amplitudes[1] - 1 / np.sqrt(2)) < 1e-12
    assert abs(out.amplitudes[6] + 1 / np.sqrt(2)) < 1e-12  # convention: minus sign

    # squeeze then unsqueeze
    sq = squeeze(fock(1, 60), 0.5, 0.3)
    back = squeeze(sq, 0.5, 0.3 + np.pi)  # S(r, phi + pi) = S(r, phi)^(-1)
    assert np.max(np.abs(np.abs(back.amplitudes) - np.abs(fock(1, 60).amplitudes))) < 1e-8


def test_beam_splitter_preserves_density_invariants():
    # random support on the lower levels so the mixing has headroom
    from nongauss import random_density_matrix
    small = random_density_matrix(2, 3, 3, seed=12)
    d = 6
    mat = np.zeros((d * d, d * d), dtype=complex)
    t_small = small.matrix.reshape(3, 3, 3, 3)
    t_big = mat.reshape(d, d, d, d)
    t_big[:3, :3, :3, :3] = t_small
    rho = DensityMatrix(2, d, mat)
    out = beam_split(rho, np.pi / 4)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10
    assert out.leakage < 1e-12  # total photon number <= 4 fits exactly


def _bs_block_expm(n, theta):
    """expm of theta (a0^dag a1 - a0 a1^dag) on the total-n block, basis |k, n-k>."""
    k = np.arange(n)
    gen = np.zeros((n + 1, n + 1))
    gen[k + 1, k] = np.sqrt((k + 1) * (n - k))
    return scipy.linalg.expm(theta * (gen - gen.T))


@pytest.mark.parametrize("theta", [np.pi / 4, 0.3, -1.1, 2.0])
def test_bs_blocks_match_expm(theta):
    for n, block in enumerate(_bs_blocks(theta, 40)):
        assert np.max(np.abs(block - _bs_block_expm(n, theta))) <= 1e-12


def test_bs_blocks_stay_orthogonal():
    # rounding must not grow exponentially with N (a one-sided recursion
    # reaches ||U U^T - I|| ~ 1e145 by N = 600); a random probe checks U U^T = I
    # at every N, the full residual is formed at every 50th
    rng = np.random.default_rng(3)
    for n, block in enumerate(_bs_blocks(np.pi / 4, 1000)):
        x = rng.standard_normal((n + 1, 2))
        assert np.max(np.abs(block @ (block.T @ x) - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
        if n % 50 == 0:
            assert np.max(np.abs(block @ block.T - np.eye(n + 1))) <= 1e-12


# every Gaussian unitary on every mode (pair) of seeded 1-, 2- and 3-mode states
# supported below the cutoff: (modes, cutoff, support per mode)
_LOCAL_SHAPES = [(1, 12, 4), (2, 8, 3), (3, 6, 2)]
_LOCAL_OPS = {
    "displace": (1, lambda st, ms: displace(st, 0.12 - 0.08j, ms[0])),
    "squeeze": (1, lambda st, ms: squeeze(st, 0.06, 0.4, ms[0])),
    "beam_split": (2, lambda st, ms: beam_split(st, 0.7, ms)),
}


def _low_state(modes, d, low, seed):
    rng = np.random.default_rng(seed)
    t = np.zeros((d,) * modes, dtype=complex)
    t[(slice(0, low),) * modes] = (rng.standard_normal((low,) * modes)
                                   + 1j * rng.standard_normal((low,) * modes))
    return FockStateVector(modes, d, (t / np.linalg.norm(t)).ravel())


def _local_cases():
    for modes, d, low in _LOCAL_SHAPES:
        psi = _low_state(modes, d, low, seed=modes)
        for name, (arity, op) in _LOCAL_OPS.items():
            for ms in itertools.permutations(range(modes), arity):
                yield name, op, psi, ms


def _relabel(state, order):
    """The state whose mode j is mode order[j] of `state` (mode k on axis m-1-k)."""
    m, d = state.modes, state.cutoff
    axes = [m - 1 - order[m - 1 - a] for a in range(m)]
    if isinstance(state, FockStateVector):
        return FockStateVector(m, d, state.as_tensor().transpose(axes).ravel())
    t = state.matrix.reshape((d,) * (2 * m)).transpose(axes + [a + m for a in axes])
    return DensityMatrix(m, d, t.reshape(d ** m, d ** m), leakage=state.leakage)


def test_local_unitary_vector_matches_density():
    # the density path agrees with the pure path, and its leakage is the mass
    # the same operation moves past the cutoff, read off at a larger cutoff
    for name, op, psi, ms in _local_cases():
        m, d = psi.modes, psi.cutoff
        out = op(psi.density(), ms)
        assert np.max(np.abs(out.matrix - op(psi, ms).density().matrix)) <= 1e-12, (name, ms)
        big = np.pad(psi.as_tensor(), [(0, 6)] * m)
        wide = op(FockStateVector(m, d + 6, big.ravel()), ms).as_tensor()
        kept = np.sum(np.abs(wide[(slice(0, d),) * m]) ** 2)
        assert abs(out.leakage - (1.0 - kept)) <= 1e-12, (name, ms)


def test_local_unitary_commutes_with_mode_relabelling():
    for name, op, psi, ms in _local_cases():
        order = list(ms) + [k for k in range(psi.modes) if k not in ms]
        back = [order.index(k) for k in range(psi.modes)]
        for st in (psi, psi.density()):
            direct = op(st, ms)
            moved = _relabel(op(_relabel(st, order), tuple(range(len(ms)))), back)
            if isinstance(st, FockStateVector):
                assert np.max(np.abs(direct.amplitudes - moved.amplitudes)) <= 1e-12
            else:
                assert np.max(np.abs(direct.matrix - moved.matrix)) <= 1e-12
                assert abs(direct.leakage - moved.leakage) <= 1e-12


def test_displace_and_squeeze_match_the_dense_blocks():
    # reference: the d x d block of the unitary built densely at an enlarged
    # cutoff, applied to one mode's axis (its conjugate on the bra side)
    alpha, r, phi = 0.5 - 0.3j, 0.15, 1.1   # leakage from 1e-11 to 2e-7
    cases = [
        (lambda st, m: displace(st, alpha, m),
         lambda d: displacement_matrix(
             alpha, d + max(20, int(np.ceil(2 * abs(alpha) ** 2 + 6 * abs(alpha) * np.sqrt(d)))))),
        (lambda st, m: squeeze(st, r, phi, m),
         lambda d: squeeze_matrix(r, phi, int(np.ceil(d * np.cosh(2 * r))) + 20)),
    ]
    for modes, d, low in ((1, 16, 5), (2, 12, 4)):
        psi = _low_state(modes, d, low, seed=10 + modes)
        rho = psi.density()
        for op, dense in cases:
            u = dense(d)[:d, :d]
            for mode in range(modes):
                ax = modes - 1 - mode
                t = np.moveaxis(np.tensordot(u, psi.as_tensor(), axes=(1, ax)), 0, ax)
                kept = np.sum(np.abs(t) ** 2)
                out = op(psi, mode)
                assert np.max(np.abs(out.amplitudes - t.ravel() / np.sqrt(kept))) <= 1e-12
                m = rho.matrix.reshape((d,) * (2 * modes))
                m = np.moveaxis(np.tensordot(u, m, axes=(1, ax)), 0, ax)
                m = np.moveaxis(np.tensordot(u.conj(), m, axes=(1, ax + modes)), 0, ax + modes)
                m = m.reshape(d ** modes, d ** modes)
                out = op(rho, mode)
                assert np.max(np.abs(out.matrix - m / np.trace(m))) <= 1e-12
                assert abs(out.leakage - (1.0 - kept)) <= 1e-12
                assert abs(np.trace(m) - kept) <= 1e-12


def _displacement_entry(alpha, m, n):
    """<m|D(alpha)|n> for a Gaussian-integer alpha by the Laguerre closed form
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  For m >= n and x = |alpha|^2,

        <m|D(alpha)|n> = alpha^(m-n) e^(-x/2) s / sqrt(m! n!),
        s = n! L_n^(m-n)(x) = sum_i (-1)^i C(m, n-i) x^i n!/i!,

    and <n|D(alpha)|m> is the same with -conj(alpha) for alpha.  s and
    alpha^(m-n) are exact integers; the rest is rounded to 50 digits."""
    re, im = int(alpha.real), int(alpha.imag)
    assert complex(re, im) == alpha
    if m < n:
        m, n, re = n, m, -re
    x = re * re + im * im
    s, c, f = 0, 1, 1           # c = C(m, n-i), f = n!/i! at step i
    for i in range(n, -1, -1):
        s = s * x + (-1) ** i * c * f
        c, f = c * (m - n + i) // (n - i + 1), f * i
    pr, pi = 1, 0
    for _ in range(m - n):
        pr, pi = pr * re - pi * im, pr * im + pi * re
    with localcontext() as ctx:
        ctx.prec = 50
        scale = (Decimal(-x) / 2).exp() / Decimal(math.factorial(m) * math.factorial(n)).sqrt()
        return complex(float(Decimal(s * pr) * scale), float(Decimal(s * pi) * scale))


@pytest.mark.parametrize("alpha, d", [(3j, 60), (4 + 2j, 96), (10, 400), (25, 1000), (39, 1800)])
def test_displacement_block_matches_the_laguerre_closed_form(alpha, d):
    # at |alpha| = 39 the diagonals that start below the normal doubles are
    # carried by a scaled mantissa until they grow into range
    block = _displacement_block(complex(alpha), d)
    rng = np.random.default_rng(d)
    for m, n in [(0, 0), (d - 1, d - 1), (d - 1, 0), (0, d - 1)] + [
            tuple(int(i) for i in rng.integers(0, d, 2)) for _ in range(34)]:
        assert abs(block[m, n] - _displacement_entry(complex(alpha), m, n)) <= 1e-13, (m, n)


@pytest.mark.parametrize("r, phi, d, dim, cols", [(1.0, 0.7, 96, 400, 96),
                                                   (2.0, 0.7, 200, 800, 16)])
def test_squeeze_block_matches_a_large_expm(r, phi, d, dim, cols):
    # the top-left block of S truncated to dim levels has converged on the
    # first cols columns: it moves by < 2e-14 there when dim grows by half.
    # A one-sided row recursion is off by 4e-4 in the last column at r = 1.
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    zeta = r * np.exp(1j * phi)
    big = scipy.linalg.expm(0.5 * ((zeta * a) @ a - (np.conj(zeta) * a.T) @ a.T))
    block = _squeeze_block(r, phi, d)
    assert np.max(np.abs(block[:, :cols] - big[:d, :cols])) <= 1e-13


def test_displace_past_the_vacuum_underflow():
    # e^(-|alpha|^2/2) is subnormal from |alpha| ~ 37.6 on; D(39) still takes
    # a coherent state back to the vacuum, and a far displacement leaks all mass
    out = displace(coherent(-39.0, 1900), 39.0)
    assert np.max(np.abs(out.amplitudes - fock(0, 1900).amplitudes)) <= 1e-10
    for state in (fock(0, 50), fock(0, 50).density()):
        with pytest.raises(TruncationError, match="beyond leak_max"):
            displace(state, 1000.0)
        with pytest.raises(NumericalValidityError, match="not below 2\\^60"):
            displace(state, 2.0 ** 31)


def test_local_unitary_leakage_raises():
    top = fock(5, 6)
    corner = FockStateVector(2, 6, np.kron(top.amplitudes, top.amplitudes))
    for st, op in ((top, lambda s: displace(s, 1.0)), (top, lambda s: squeeze(s, 0.5)),
                   (corner, lambda s: beam_split(s, 0.7))):
        for state in (st, st.density()):
            with pytest.raises(TruncationError, match="beyond leak_max"):
                op(state)


def test_apply_channel_dispatch():
    rho = fock(1, 20).density()
    assert isinstance(apply_channel(rho, ChannelSpec.loss(0.5)), DensityMatrix)
    assert isinstance(apply_channel(rho, ChannelSpec.phase_diffusion(0.2)), DensityMatrix)
    out = apply_channel(fock(1, 20), ChannelSpec.kerr(0.1))
    assert isinstance(out, FockStateVector)
    out = apply_channel(rho, ChannelSpec("displace", {"alpha": 0.2}))
    assert isinstance(out, DensityMatrix)
    with pytest.raises(ArgumentError):
        ChannelSpec("nonsense", {})


@pytest.mark.parametrize("kind, params, match", [
    ("shear", {"r": 0.4}, "unknown channel kind"),
    ("gaussian_unitary", {"generator": ("squeeze",)}, "unknown channel kind"),
    ("squeeze", {}, "missing a required argument"),
    ("squeeze", {"phi": 0.3}, "missing a required argument"),
    ("loss", {"eta": 0.5, "gamma": 0.1}, "unexpected keyword"),
    ("kerr", {"gamma": float("nan")}, "not a finite real number"),
    ("squeeze", {"r": float("inf")}, "not a finite real number"),
    ("displace", {"alpha": complex(0.2, float("nan"))}, "not a finite complex number"),
    ("kerr", {"gamma": "0.1"}, "not a finite real number"),
    ("squeeze", {"r": 0.4, "mode": 0.5}, "not an integer"),
    ("beamsplit", {"theta": 0.3, "modes": (0,)}, "pair of integers"),
    ("beamsplit", {"theta": 0.3, "modes": (0, 1.0)}, "pair of integers"),
    ("loss", {"eta": 1.5}, r"eta in \[0, 1\]"),
    ("loss", {"eta": -0.1}, r"eta in \[0, 1\]"),
    ("phase_diffusion", {"delta": -0.2}, "delta >= 0"),
])
def test_channel_spec_rejects_bad_parameters(kind, params, match):
    with pytest.raises(ArgumentError, match=match):
        ChannelSpec(kind, params)


def _spec_cases():
    one, two = coherent(0.4, 12), tensor(fock(1, 8), coherent(0.3, 8))
    return [(ChannelSpec.loss(0.6), one), (ChannelSpec.phase_diffusion(0.3), one),
            (ChannelSpec.kerr(0.2), one),
            (ChannelSpec("displace", {"alpha": 0.3 - 0.2j}), one),
            (ChannelSpec("displace", {"alpha": 0.2j, "mode": 1}), two),
            (ChannelSpec("squeeze", {"r": 0.1}), one),
            (ChannelSpec("squeeze", {"r": 0.1, "phi": 0.7, "mode": 1}), two),
            (ChannelSpec("beamsplit", {}), two),
            (ChannelSpec("beamsplit", {"theta": 0.4, "modes": (1, 0)}), two)]


@pytest.mark.parametrize("op, args", [
    (squeeze, (float("nan"),)), (squeeze, (0.3, float("inf"))),
    (displace, (complex("nan"),)), (displace, (complex(0.0, float("inf")),)),
    (phase_diffusion, (float("inf"),)), (phase_diffusion, (float("nan"),)),
    (kerr, (float("nan"),)), (kerr, (float("-inf"),)),
], ids=["squeeze-r-nan", "squeeze-phi-inf", "displace-nan", "displace-inf",
        "phase_diffusion-inf", "phase_diffusion-nan", "kerr-nan", "kerr-inf"])
def test_unitaries_reject_non_finite_parameters(op, args):
    with pytest.raises(ArgumentError, match="finite"):
        op(fock(1, 20), *args)


def test_apply_channel_is_the_named_operation():
    ops = {"loss": loss, "phase_diffusion": phase_diffusion, "kerr": kerr,
           "displace": displace, "squeeze": squeeze, "beamsplit": beam_split}
    for spec, psi in _spec_cases():
        for state in (psi, psi.density()):
            got = apply_channel(state, spec)
            want = ops[spec.kind](state, **spec.params)
            assert type(got) is type(want), spec
            if isinstance(got, FockStateVector):
                assert np.array_equal(got.amplitudes, want.amplitudes), spec
            else:
                assert np.array_equal(got.matrix, want.matrix), spec
            assert got.leakage == want.leakage, spec


def test_gaussian_kinds_are_the_gaussian_specs():
    assert [spec.kind for spec, _ in _spec_cases() if not spec.is_gaussian] == \
        ["phase_diffusion", "kerr"]


def test_maps_take_either_carrier():
    psi = fock(2, 10)
    for op, arg in ((loss, 0.5), (phase_diffusion, 0.5)):
        assert np.array_equal(op(psi, arg).matrix, op(psi.density(), arg).matrix)
    assert np.max(np.abs(kerr(psi, 0.3).density().matrix
                         - kerr(psi.density(), 0.3).matrix)) <= 1e-15
    two = tensor(fock(1, 5), fock(0, 5))
    for state in (two, two.density()):
        with pytest.raises(ArgumentError, match="single-mode"):
            kerr(state, 0.1)


def test_vectors_carry_their_leakage():
    psi = fock(1, 30)
    vec, rho = squeeze(psi, 0.6), squeeze(psi.density(), 0.6)
    assert rho.leakage > 1e-9
    assert abs(vec.leakage - rho.leakage) <= 1e-15
    assert vec.density().leakage == vec.leakage
    assert kerr(vec, 0.1).leakage == vec.leakage
    assert delta_b(vec).diagnostics["leakage"] == vec.leakage
    assert squeeze(vec, 0.1).leakage > vec.leakage
