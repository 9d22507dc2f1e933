import math
import time

import numpy as np
import pytest

from nongauss import (ArgumentError, DensityMatrix, FockStateVector,
                      NumericalValidityError, delta_b, figures, random_density_matrix)
from nongauss.channels import apply_beam_splitter_tensor, displace, squeeze
from nongauss.distillation import (_branches, _suggest_subtraction_cutoff,
                                   _vacuum_merge, _vacuum_port_split,
                                   b_protocol_iterates, b_protocol_run, b_protocol_step,
                                   browne_state, iterate_delta_b, log_negativity,
                                   max_two_mode_ng, renormalized_ng,
                                   t_protocol_output)
from nongauss.fock import tensor
from nongauss.states import PNESSpec, _squeezed_vacuum_amplitudes, fock, pnes, vacuum


def test_browne_states():
    rho = browne_state("a", 0.0)
    assert abs(np.real(rho.matrix[0, 0]) - 1.0) < 1e-12
    rho_b = browne_state("b", 1.0)
    eigs = np.linalg.eigvalsh(rho_b.matrix)
    assert np.sum(eigs > 1e-12) == 2 and eigs[0] > -1e-12
    with pytest.raises(ArgumentError):
        browne_state("c", 0.5)
    with pytest.raises(ArgumentError):
        browne_state("a", math.nan)


def test_log_negativity():
    d = 8
    amps = np.zeros(d * d, dtype=complex)
    amps[0] = amps[1 + d] = 1 / np.sqrt(2)
    bell = FockStateVector(2, d, amps)
    assert abs(log_negativity(bell) - 1.0) < 1e-12
    assert abs(log_negativity(bell.density()) - 1.0) < 1e-12  # Schmidt vs dense
    prod = vacuum(4, modes=2)
    assert log_negativity(prod) < 1e-12
    for lam in (0.3, 0.7, 1.0):
        analytic = np.log2((1 + lam) ** 2 / (1 + lam ** 2))
        assert abs(log_negativity(browne_state("a", lam)) - analytic) < 1e-10


def test_log_negativity_local_unitary_invariance():
    rho = browne_state("a", 0.8, cutoff=12)
    base = log_negativity(rho)
    moved = squeeze(rho, 0.2, 0.5, mode=0)
    assert abs(log_negativity(moved) - base) < 1e-6
    moved = squeeze(rho, 0.15, 1.2, mode=1)
    assert abs(log_negativity(moved) - base) < 1e-6


def test_b_protocol_vacuum_fixed_point():
    out, prob = b_protocol_step(vacuum(8, modes=2))
    assert abs(prob - 1.0) < 1e-12
    assert iterate_delta_b(out) <= 1e-12


def test_b_protocol_gaussian_fixed_point():
    tb = pnes(PNESSpec("twin_beam", 0.25, 10))
    out, prob = b_protocol_step(tb)
    assert 0 < prob <= 1
    assert iterate_delta_b(out) <= 1e-4


def test_b_protocol_success_probability_dense_reference():
    d = 4
    rho = browne_state("b", 0.7, cutoff=d)
    _, prob = b_protocol_step(rho)
    big = np.kron(rho.matrix, rho.matrix)  # modes (A1,B1) fast, (A2,B2) slow
    t = big.reshape((d,) * 8)
    for a0, a1 in ((3, 1), (2, 0)):       # rows: (A1,A2) then (B1,B2)
        t = apply_beam_splitter_tensor(t, np.pi / 4, a0, a1)
        t = apply_beam_splitter_tensor(t, np.pi / 4, a0 + 4, a1 + 4)
    proj = t[0, 0, :, :, 0, 0, :, :]
    prob_dense = float(np.real(np.einsum("abab->", proj)))
    assert abs(prob - prob_dense) <= 1e-10


def _padded_vacuum_projection(ti, tj, d):
    """The B step's pair amplitudes by two beam splitters on the four-mode
    tensor padded to 2d - 1 levels, then both ancillas projected onto vacuum."""
    t4 = np.pad(np.multiply.outer(tj, ti), [(0, d - 1)] * 4)  # (nB2, nA2, nB1, nA1)
    t4 = apply_beam_splitter_tensor(t4, np.pi / 4, 3, 1)
    t4 = apply_beam_splitter_tensor(t4, np.pi / 4, 2, 0)
    return t4[0, 0]                                           # (nB1, nA1)


@pytest.mark.parametrize("state", [
    browne_state("b", 0.7, cutoff=6),
    random_density_matrix(2, 6, 2, seed=21),
], ids=["browne-b", "random-rank-2"])
def test_b_protocol_step_matches_padded_beam_splitters(state):
    d = 6
    lam, vec = np.linalg.eigh(state.matrix)
    keep = np.flatnonzero(lam > 1e-12)
    branches = [(lam[i] / lam[keep].sum(), vec[:, i]) for i in keep]
    merge = _vacuum_merge(d)
    success, expect = 0.0, np.zeros((d * d, d * d), dtype=complex)
    for wi, vi in branches:
        for wj, vj in branches:
            ti, tj = vi.reshape(d, d), vj.reshape(d, d)
            chi = _padded_vacuum_projection(ti, tj, d)
            assert np.max(np.abs(merge @ np.kron(ti, tj) @ merge.T - chi)) <= 1e-12
            success += wi * wj * float(np.real(np.vdot(chi, chi)))
            kept = chi[:d, :d].ravel()
            expect += wi * wj * np.outer(kept, kept.conj())
    out, prob = b_protocol_step(state)
    assert abs(prob - success) <= 1e-12
    expect /= np.trace(expect)
    assert np.max(np.abs(out.matrix - expect)) <= 1e-12


def test_vacuum_merge_is_cached_read_only():
    merge = _vacuum_merge(6)
    assert merge is _vacuum_merge(6)
    with pytest.raises(ValueError):
        merge[0, 0] = 1.0
    assert np.array_equal(merge, _vacuum_merge.__wrapped__(6))


@pytest.mark.parametrize("d", [8, 12])
def test_vacuum_merge_rows_follow_the_binomial_law(d):
    # <N, 0|B(pi/4)|k, N-k> = sqrt(C(N, k)) 2^(-N/2) for both inputs below d
    expect = np.zeros((2 * d - 1, d * d))
    for n in range(2 * d - 1):
        for k in range(max(0, n - d + 1), min(n, d - 1) + 1):
            expect[n, k * d + n - k] = math.sqrt(math.comb(n, k)) * 2.0 ** (-n / 2)
    assert np.max(np.abs(_vacuum_merge(d) - expect)) <= 1e-14


def test_protocol_keeps_a_vectors_leakage():
    psi = tensor(displace(fock(1, 10), 0.6), fock(0, 10))
    assert psi.leakage > 1e-10
    for state in (psi, psi.density()):
        _, start, _ = next(b_protocol_iterates(state, 1, leak_budget=None))
        assert start.leakage == psi.leakage
    steps = b_protocol_run(psi, 1, leak_budget=None)
    assert steps[0]["leakage"] == psi.leakage
    assert steps[1]["leakage"] >= psi.leakage


def _figure_point(number, monkeypatch):
    """The per-point function figure ``number``'s builder hands to the pool."""
    seen = []
    monkeypatch.setattr(figures, "_parallel_map",
                        lambda fn, items, threads=1: seen.append(fn) or [])
    figures.FIGURES[number]()
    return seen[0]


@pytest.mark.parametrize("lam", [0.05, 0.5])
def test_fig9_point_equals_the_full_trace(lam, monkeypatch):
    steps = b_protocol_run(browne_state("a", lam), 20, leak_budget=None)
    expect = [[lam, s, steps[s]["delta_B"], steps[s]["leakage"]]
              for s in (0, 5, 10, 20)]
    assert _figure_point(9, monkeypatch)(lam) == expect


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.8])
def test_fig10_point_equals_the_full_trace(lam, variant, monkeypatch):
    # the figure stops each point at its convergence step; the full 40-step
    # trace must give the same cells, at both ends of the grid and inside it
    state = browne_state(variant, lam)
    dr = renormalized_ng(state)
    gains = [r["Delta_i"] for r in b_protocol_run(state, 40, leak_budget=None)]
    conv = next((s for s in range(2, 41) if abs(gains[s] - gains[s - 1]) < 1e-6), 40)
    expect = [[variant, lam, str(s), dr, gains[s]] for s in (1, 2, 5)]
    expect.append([variant, lam, "inf", dr, gains[conv]])
    assert _figure_point(10, monkeypatch)((variant, lam)) == expect


def test_b_protocol_run_records():
    # protocol browne's CSV text, its header and NA cells, is tested in test_cli.py
    steps = b_protocol_run(browne_state("a", 0.5), 3)
    assert [r["step"] for r in steps] == [0, 1, 2, 3]
    assert steps[1]["Delta_i"] > 0  # entanglement increases
    assert all(0 < r["success_prob"] <= 1 for r in steps)
    assert [list(r) for r in steps] == [["step", "success_prob", "delta_B", "E_N",
                                         "Delta_i", "leakage"]] * 4

    # vacuum input: the gain is not applicable
    steps = b_protocol_run(vacuum(8, modes=2), 1)
    assert steps[1]["Delta_i"] is None


def test_b_protocol_window_widens():
    lams = np.linspace(0.05, 1.0, 12)
    counts = []
    for steps in (0, 5, 10):
        cnt = 0
        for lam in lams:
            if steps == 0:
                db = delta_b(browne_state("a", float(lam))).value
            else:
                run = b_protocol_run(browne_state("a", float(lam)), steps,
                                     leak_budget=None)
                db = run[-1]["delta_B"]
            cnt += db <= 1e-2
        counts.append(cnt)
    assert counts[0] <= counts[1] <= counts[2] and counts[2] > counts[0]


@pytest.mark.parametrize("budget", [-1.0, -1e-300, math.nan, math.inf],
                         ids=["minus-one", "tiny-negative", "nan", "inf"])
def test_leak_budget_is_none_or_a_finite_real_at_least_zero(budget):
    # refused when iteration starts, before any step runs
    with pytest.raises(ArgumentError, match="leak_budget"):
        next(b_protocol_iterates(browne_state("a", 0.5), 1, leak_budget=budget))
    for accepted in (None, 0.0, 1e-4):
        assert next(b_protocol_iterates(browne_state("a", 0.5), 1, leak_budget=accepted))[0] == 0


@pytest.mark.parametrize("total", [math.nan, math.inf])
def test_max_two_mode_ng_refuses_a_non_finite_photon_number(total):
    with pytest.raises(ArgumentError, match="finite"):
        max_two_mode_ng(total)


def test_renormalized_ng():
    assert abs(max_two_mode_ng(2.0) - 4 * np.log(2)) < 1e-12
    tb = pnes(PNESSpec("twin_beam", 0.25, 10))
    assert renormalized_ng(tb) <= 1e-6
    d = 8
    amps = np.zeros(d * d, dtype=complex)
    amps[1 + d] = 1.0
    f11 = FockStateVector(2, d, amps)
    assert abs(renormalized_ng(f11) - 1.0) < 1e-9  # |1>|1> attains the ceiling
    with pytest.raises(ArgumentError):
        renormalized_ng(vacuum(6, modes=2))


def test_t_protocol():
    for r in (0.1, 0.8, 1.5):
        psi = t_protocol_output(r, "one")
        assert abs(delta_b(psi).value - 2 * np.log(2)) <= 1e-5
    mu, nu = np.cosh(0.8), np.sinh(0.8)
    v = np.zeros(40, dtype=complex)
    v[0], v[2] = mu, np.sqrt(2) * nu
    v /= np.linalg.norm(v)
    oracle = delta_b(FockStateVector(1, 40, v)).value
    psi2 = t_protocol_output(0.8, "two")
    assert abs(delta_b(psi2).value - oracle) <= 1e-5
    with pytest.raises(ArgumentError):
        t_protocol_output(0.0, "one")
    with pytest.raises(ArgumentError):
        t_protocol_output(0.5, "three")


@pytest.mark.parametrize("subtracted", [1, 2, "1", "2"], ids=["int-1", "int-2", "text-1", "text-2"])
def test_t_protocol_takes_one_spelling(subtracted):
    with pytest.raises(ArgumentError, match="subtracted must be 'one' or 'two'"):
        t_protocol_output(0.5, subtracted)


def test_t_protocol_entanglement_trends():
    rs = (0.1, 0.3, 0.6)
    en1 = [log_negativity(t_protocol_output(r, "one")) for r in rs]
    en2 = [log_negativity(t_protocol_output(r, "two")) for r in rs]
    db2 = [delta_b(t_protocol_output(r, "two")).value for r in rs]
    assert all(b > a for a, b in zip(en1, en1[1:]))   # entanglement grows with r
    assert all(b > a for a, b in zip(en2, en2[1:]))
    assert all(b > a for a, b in zip(db2, db2[1:]))   # two-photon nG grows too


@pytest.mark.parametrize("d", [8, 30, 109, 245])
def test_vacuum_port_split_matches_the_block_path(d):
    rng = np.random.default_rng(d)
    col = rng.normal(size=d) + 1j * rng.normal(size=d)
    col /= np.linalg.norm(col)
    t = np.zeros((d, d), dtype=complex)     # axes (nB, nA), B in vacuum
    t[0, :] = col
    expect = apply_beam_splitter_tensor(t, np.pi / 4, 1, 0)
    assert np.max(np.abs(_vacuum_port_split(col) - expect)) <= 1e-13


@pytest.mark.parametrize("r", [0.1, 0.8, 1.5])
@pytest.mark.parametrize("subtracted", ["one", "two"])
def test_t_protocol_reports_its_crop(r, subtracted):
    psi = t_protocol_output(r, subtracted)
    n = np.arange(4096)
    weight = np.abs(_squeezed_vacuum_amplitudes(r, 0.0, 4096)) ** 2 * n
    if subtracted == "two":
        weight *= n - 1
    expect = weight[psi.cutoff:].sum() / weight.sum()
    assert abs(psi.leakage - expect) <= 1e-14


def test_subtraction_cutoffs():
    cutoffs = {0.1: 13, 0.3: 21, 0.5: 33, 0.7: 49, 0.8: 59, 0.9: 73, 1.1: 109,
               1.3: 163, 1.5: 245, 2.0: 689, 2.8: 3617}
    assert {r: _suggest_subtraction_cutoff(r) for r in cutoffs} == cutoffs


@pytest.mark.parametrize("r", [3.0, 5.0, math.nan, math.inf])
def test_t_protocol_rejects_squeezing_beyond_the_scan(r):
    # r = 3 and 5 hold weighted mass beyond the 4096-level scan; nan and inf
    # are not squeezings at all.  Each is refused before any state is built.
    start = time.perf_counter()
    with pytest.raises(ArgumentError):
        t_protocol_output(r, "one")
    assert time.perf_counter() - start < 5.0


def test_branches_of_a_rank_2_density_rebuild_it():
    rho = browne_state("b", 0.6)
    branches = _branches(rho)
    assert len(branches) == 2
    back = sum(w * np.outer(v, v.conj()) for w, v in branches)
    assert np.max(np.abs(back - rho.matrix)) < 1e-10


def test_iterates_are_vectors_for_pure_inputs_and_densities_for_mixed_ones():
    d, lam = 8, 0.6
    amps = np.zeros(d * d, dtype=complex)
    amps[0], amps[1 + d] = 1.0, lam
    psi = FockStateVector(2, d, amps / np.linalg.norm(amps))
    assert all(isinstance(it, FockStateVector)
               for _, it, _ in b_protocol_iterates(psi, 5, leak_budget=None))
    assert all(isinstance(it, DensityMatrix)
               for _, it, _ in b_protocol_iterates(browne_state("b", lam), 5,
                                                   leak_budget=None))
    # a rank-1 density enters as its eigenvector exactly as eigh returns it
    rho = browne_state("a", lam)
    _, start, _ = next(b_protocol_iterates(rho, 1))
    assert isinstance(start, FockStateVector)
    assert np.array_equal(start.amplitudes, np.linalg.eigh(rho.matrix)[1][:, -1])
