import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, i0

from nongauss import (ArgumentError, DensityMatrix, FockStateVector, PhotodetectionPOVM,
                      ResourceError, TruncationError, delta_b, moments,
                      partial_trace, random_density_matrix, von_neumann_entropy)
from nongauss import config, states
from nongauss.distillation import b_protocol_iterates, browne_state
from nongauss.fock import state_from_json
from nongauss.measures import conjecture_a5_sweep
from nongauss.gaussian import h
from nongauss.states import (PNESSpec, _coherent_amplitudes, cat, coherent,
                             delta_a_diagonal, delta_b_diagonal, diagonal_mixture,
                             fock, fock_superposition, pnes, pnes_coefficients,
                             pnes_entanglement, pnes_structured_cm, poisson,
                             squeezed_vacuum, thermal, vacuum)


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


def test_fock_rejects_negative_n():
    with pytest.raises(ArgumentError, match="n must be >= 0"):
        fock(-1, 40)
    with pytest.raises(ArgumentError, match="cutoff > 5"):
        fock(5, 5)


def test_tail_errors_suggest_cutoff():
    with pytest.raises(TruncationError, match="minimal adequate cutoff"):
        coherent(3.0, 12)
    with pytest.raises(TruncationError):
        thermal(1.0, 20)


def _poisson_weights(lam, levels=4096):
    n = np.arange(levels)
    return np.exp(n * math.log(lam) - lam - gammaln(n + 1))


def _squeezed_weights(r, levels=4096):
    # |<2m|S(r)|0>|^2 = tanh(r)^(2m) (2m)! / (4^m (m!)^2 cosh r), odd levels empty
    m = np.arange(levels // 2)
    w = np.zeros(levels)
    w[::2] = np.exp(2 * m * math.log(math.tanh(r)) + gammaln(2 * m + 1)
                    - 2 * m * math.log(2) - 2 * gammaln(m + 1) - math.log(math.cosh(r)))
    return w


def _cat_weights(alpha, phi, levels=4096):
    # real alpha: <n|-alpha> = (-1)^n <n|alpha>, norm^2 1 + sin(2 phi) e^{-2 alpha^2}
    parity = (-1.0) ** np.arange(levels)
    return (_poisson_weights(alpha ** 2, levels) * (math.cos(phi) + parity * math.sin(phi)) ** 2
            / (1 + math.sin(2 * phi) * math.exp(-2 * alpha ** 2)))


def _pnes_weights(family, x, levels=4096):
    # psi_n^2 over its closed-form norm^2 (y = x^2); tmc's is I_0(2 x)
    n, y = np.arange(levels, dtype=float), x * x
    if family == "tmc":
        return np.exp(2 * (n * math.log(x) - gammaln(n + 1))) / i0(2 * x)
    if family == "twin_beam":
        return (1 - y) * y ** n
    if family == "pssv":
        return (n + 1) ** 2 * y ** (n + 1) * (1 - y) ** 3 / (y * (1 + y))
    return n ** 2 * y ** np.maximum(n - 1, 0) * (1 - y) ** 3 / (1 + y)


@pytest.mark.parametrize("build, weights", [
    (lambda: coherent(3.0, 35), lambda: _poisson_weights(9.0)),
    (lambda: coherent(1.5j, 18), lambda: _poisson_weights(2.25)),
    (lambda: squeezed_vacuum(1.0, 80), lambda: _squeezed_weights(1.0)),
    (lambda: squeezed_vacuum(0.5, 27, phi=0.3), lambda: _squeezed_weights(0.5)),
    (lambda: thermal(1.0, 34), lambda: 0.5 ** np.arange(1, 4097)),
    (lambda: poisson(2.0, 17), lambda: _poisson_weights(2.0)),
    (lambda: diagonal_mixture([0.5, 0.3, 0.2 - 3e-11, 3e-11], 3),
     lambda: [0.5, 0.3, 0.2 - 3e-11, 3e-11]),
    (lambda: cat(2.0, 0.3, 23), lambda: _cat_weights(2.0, 0.3)),
    (lambda: cat(0.5, -math.pi / 4, 8), lambda: _cat_weights(0.5, -math.pi / 4)),
    (lambda: cat(5.0, 0.7, 63), lambda: _cat_weights(5.0, 0.7)),
    (lambda: pnes(PNESSpec("twin_beam", 0.3, 10)), lambda: _pnes_weights("twin_beam", 0.3)),
    (lambda: pnes(PNESSpec("tmc", 3.0, 14)), lambda: _pnes_weights("tmc", 3.0)),
    (lambda: pnes(PNESSpec("pssv", 0.5, 21)), lambda: _pnes_weights("pssv", 0.5)),
    (lambda: pnes(PNESSpec("pasv", 0.5, 22)), lambda: _pnes_weights("pasv", 0.5)),
], ids=["coherent", "coherent-imaginary", "squeezed", "squeezed-phase", "thermal", "poisson",
        "mixture", "cat", "odd-cat", "cat-large", "pnes", "pnes-tmc", "pnes-pssv", "pnes-pasv"])
def test_leakage_is_the_mass_past_the_cutoff(build, weights):
    # each cutoff is the minimal adequate one, so the leakage is 1e-11 to 1e-10
    state = build()
    direct = float(np.sum(np.asarray(weights())[state.cutoff:]))
    assert abs(state.leakage - direct) <= 1e-14
    assert 1e-11 < state.leakage <= 1e-10


def test_constructors_build_only_their_cutoff(monkeypatch):
    # every level kernel takes its level count last
    sizes = []
    for name in ("_coherent_amplitudes", "_squeezed_vacuum_amplitudes", "thermal_weights",
                 "_log_factorials"):
        real = getattr(states, name)
        monkeypatch.setattr(states, name, lambda *a, _real=real: sizes.append(a[-1]) or _real(*a))
    for build, x, d in ((coherent, 1.0, 30), (coherent, 38.0, 1700), (squeezed_vacuum, 0.5, 40),
                        (lambda a, d: cat(a, 0.785, d), 1.0, 40), (thermal, 0.5, 40),
                        (poisson, 1.0, 40)):
        sizes.clear()
        build(x, d)
        assert sizes and max(sizes) <= d


@pytest.mark.parametrize("build, hint", [
    (lambda: coherent(65.0, 4096), 4646),
    (lambda: squeezed_vacuum(3.5, 4096), None),
    (lambda: coherent(70.0, 40), 5353),
    (lambda: cat(70.0, 0.7, 40), 5353),
], ids=["coherent-past-4096", "squeezed-past-4096", "coherent-underflow", "cat-underflow"])
def test_mass_past_a_long_cutoff_is_a_truncation_error(build, hint):
    # the minimal cutoffs lie past 4096 levels, beyond any fixed scan window
    with pytest.raises(TruncationError, match=f"minimal adequate cutoff is {hint or ''}"):
        build()


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


def _pnes_closed_forms(family, x):
    # (N, C, psi_first^2) in exact arithmetic from the float x, y = x^2; psi_first is
    # psi_0 (twin beam, pssv) or psi_1 (pasv) over the closed-form norm
    x = Fraction(x)
    y = x * x
    if family == "twin_beam":
        return y / (1 - y), x / (1 - y), 1 - y
    first = (1 - y) ** 3 / (1 + y)
    if family == "pssv":
        return 2 * y * (2 + y) / (1 - y * y), 2 * x * (1 + 2 * y) / (1 - y * y), first
    return (1 + 4 * y + y * y) / (1 - y * y), 2 * x * (2 + y) / (1 - y * y), first


@pytest.mark.parametrize("x", [0.05, 0.3, 0.7, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("family", ["twin_beam", "pssv", "pasv"])
def test_pnes_moments_match_the_closed_forms(family, x):
    # the profile's sums, read to convergence, are the closed forms
    spec = PNESSpec(family, x, 12)
    n_mean, c, _ = pnes_structured_cm(spec)
    psi = pnes_coefficients(spec)
    got = (n_mean, c, psi[1 if family == "pasv" else 0] ** 2)
    for value, exact in zip(got, _pnes_closed_forms(family, x)):
        assert abs(value / float(exact) - 1) <= 1e-13


@pytest.mark.parametrize("lam", [0.25, 1.0, 5.0, 20.0, 100.0, 1000.0])
def test_tmc_moments_match_a_series(lam):
    # N = sum n w_n / sum w_n with w_n = lam^2n / n!^2, taken in log space; C = lam
    logw = [2 * (n * math.log(lam) - math.lgamma(n + 1)) for n in range(int(3 * lam) + 100)]
    w = [math.exp(v - max(logw)) for v in logw]
    n_mean, c, _ = pnes_structured_cm(PNESSpec("tmc", lam, 12))
    assert abs(n_mean / (math.fsum(n * v for n, v in enumerate(w)) / math.fsum(w)) - 1) <= 1e-13
    assert abs(c / lam - 1) <= 1e-13


@pytest.mark.parametrize("x", [0.3, 0.9, 0.99, 0.999])
def test_twin_beam_entanglement_closed_form(x):
    y = x * x
    exact = -math.log1p(-y) - y * math.log(y) / (1 - y)
    assert abs(pnes_entanglement(PNESSpec("twin_beam", x, 12)) - exact) <= 1e-13


def test_pnes_names_the_whole_profile_minimal_cutoff():
    # y^n <= 1e-10 first at n = 11508 (y = 0.999^2), far past any 4096-level window
    with pytest.raises(TruncationError, match="minimal adequate cutoff is 11508"):
        pnes(PNESSpec("twin_beam", 0.999, 40))
    # e^{-1000} underflows: the tmc profile is taken in log space at its peak
    assert pnes(PNESSpec("tmc", 1000.0, 1200)).leakage <= 1e-10


@pytest.mark.parametrize("read", [pnes, pnes_coefficients, pnes_structured_cm, pnes_entanglement])
def test_pnes_profile_not_converged_by_the_scan_cap_is_a_truncation_error(read):
    # 0.9995^2n still adds to the squared norm between 2^15 and 2^16 levels
    with pytest.raises(TruncationError, match="not converged"):
        read(PNESSpec("twin_beam", 0.9995, 40))


@pytest.mark.parametrize("family, x", [("twin_beam", 0.5), ("tmc", 0.5), ("pssv", 0.5),
                                       ("pasv", 0.5), ("pssv", 0.05)])
def test_small_pnes_builds_no_4096_level_profile(family, x):
    spec = PNESSpec(family, x, 24)
    for read in (pnes, pnes_coefficients, pnes_structured_cm, pnes_entanglement):
        tracemalloc.start()
        try:
            read(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 8, read.__name__


def test_pasv_starts_at_one():
    psi = pnes_coefficients(PNESSpec("pasv", 0.2, 12))
    assert psi[0] == 0.0 and psi[1] > 0


@pytest.mark.parametrize("build", [
    lambda: thermal(0.5, 400),
    lambda: diagonal_mixture(np.full(400, 1 / 400), 400),
    lambda: poisson(2.0, 400),
    lambda: browne_state("a", 0.5, 20),
    lambda: random_density_matrix(1, 400, 1, seed=0),
], ids=["thermal", "diagonal_mixture", "poisson", "browne_state", "random_density_matrix"])
def test_dense_constructors_check_the_cap_before_they_allocate(build, monkeypatch):
    # each state is a 400 x 400 complex matrix (2.6 MB) above a cap of 16
    monkeypatch.setattr(config, "MAX_DENSE_DIM", 16)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: diagonal_mixture([math.nan, 1.0], 5),
    lambda: diagonal_mixture([0.5, math.nan, 0.5], 5),
    lambda: thermal(math.nan, 5),
    lambda: poisson(math.nan, 5),
    lambda: coherent(math.nan, 10),
    lambda: coherent(math.inf, 10),
    lambda: squeezed_vacuum(math.nan, 10),
    lambda: squeezed_vacuum(0.3, 10, phi=math.nan),
    lambda: cat(math.nan, 0.3, 10),
    lambda: cat(1.0, math.nan, 10),
    lambda: cat(0.0, -math.pi / 4, 10),
    lambda: pnes(PNESSpec("tmc", math.nan, 10)),
    lambda: pnes(PNESSpec("tmc", math.inf, 10)),
    lambda: thermal(math.inf, 10),
    lambda: poisson(math.inf, 10),
    lambda: vacuum(0),
    lambda: diagonal_mixture([1.0], 0),
    lambda: delta_a_diagonal([0.5, math.nan, 0.5]),
    lambda: delta_b_diagonal([0.5, math.nan, 0.5]),
], ids=["mixture-first", "mixture-middle", "thermal", "poisson", "coherent-nan", "coherent-inf",
        "squeezed-nan", "squeezed-phase-nan", "cat-nan", "cat-phase-nan", "cat-zero-norm",
        "tmc-nan", "tmc-inf", "thermal-inf", "poisson-inf", "vacuum-no-levels",
        "mixture-no-levels", "delta-a-diagonal-nan", "delta-b-diagonal-nan"])
def test_nan_arguments_are_argument_errors(build):
    # raised before any level is built: the peak stays below one 4096-level window
    tracemalloc.start()
    try:
        with pytest.raises(ArgumentError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 16


@pytest.mark.parametrize("build", [
    lambda: fock(1.5, 10),
    lambda: fock(1, 10.0),
    lambda: vacuum(2.5),
    lambda: vacuum(4, 1.5),
    lambda: coherent(1.0, 10.5),
    lambda: squeezed_vacuum(0.5, 10.5),
    lambda: cat(1.0, 0.3, 10.5),
    lambda: poisson(1.0, 10.5),
    lambda: thermal(0.5, 30.5),
    lambda: diagonal_mixture([1.0], 10.5),
    lambda: fock_superposition(1.5, 3, 10),
    lambda: browne_state("a", 0.5, 8.5),
    lambda: PhotodetectionPOVM(0.5, 10.5).weight_table(),
    lambda: next(b_protocol_iterates(browne_state("a", 0.5), 2.5)),
    lambda: pnes(PNESSpec("tmc", 1.0, 12.5)),
    lambda: random_density_matrix(1, 4.5, 2),
    lambda: random_density_matrix(1, 4, 2.5),
    lambda: conjecture_a5_sweep(2, [2.5]),
    lambda: conjecture_a5_sweep(2.5, [4]),
    lambda: FockStateVector(1, 2.0, [1, 0]),
    lambda: DensityMatrix(1, 2.0, np.diag([1.0, 0.0])),
], ids=["fock-n", "fock-cutoff", "vacuum-cutoff", "vacuum-modes", "coherent", "squeezed", "cat",
        "poisson", "thermal", "diagonal_mixture", "fock_superposition", "browne_state", "povm",
        "b_protocol_steps", "pnes", "random-cutoff", "random-rank", "a5-cutoff", "a5-samples",
        "vector-cutoff", "density-cutoff"])
def test_sizes_that_are_not_integers_are_argument_errors(build):
    # each message names the size and its value, thermal's too (not a matrix shape)
    with pytest.raises(ArgumentError, match=r"must be an integer, got \d+\.\d"):
        build()


def test_integer_sizes_may_be_numpy_integers():
    assert fock(np.int64(1), np.int32(4)).amplitudes[1] == 1.0
    assert vacuum(np.int64(3), np.int64(2)).dim == 9
    # the carriers keep them as ints, so their JSON can be written and read back
    for state in (fock(np.int64(1), np.int32(4)), thermal(0.5, np.int64(30))):
        assert type(state.modes) is int and type(state.cutoff) is int
        assert state_from_json(state.to_json()).cutoff == state.cutoff
