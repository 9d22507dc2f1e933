"""Figure cells pinned to closed forms evaluated with the standard library only.

Each oracle is checked against the figure builder's rows and against the
committed reference CSV under perfbench/reference/figures (read, never written).
"""

import cmath
import csv
import math
from pathlib import Path

from nongauss import figures

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "figures"


def _h(x: float) -> float:
    """(x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2), 0 at x <= 1/2."""
    if x <= 0.5:
        return 0.0
    return (x + 0.5) * math.log(x + 0.5) - (x - 0.5) * math.log(x - 0.5)


def _cell(value: str):
    try:
        return float(value)
    except ValueError:   # a label column, such as fig 1's family
        return value


def _reference_rows(number: int) -> list:
    with open(REFERENCE / f"fig{number}.csv", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{key: _cell(value) for key, value in row.items()} for row in csv.DictReader(lines)]


def _kerr_coherent_delta_b(gamma: float, n: float) -> float:
    """delta_B of exp(-i gamma n^2)|alpha>, alpha = sqrt(n): the output is pure,
    so delta_B = h(sqrt(det sigma)), with <a> = alpha e^{-i gamma}
    exp(|alpha|^2 (e^{-2i gamma} - 1)), <a^2> = alpha^2 e^{-4i gamma}
    exp(|alpha|^2 (e^{-4i gamma} - 1)) and <n> = |alpha|^2."""
    alpha = math.sqrt(n)
    a1 = alpha * cmath.exp(-1j * gamma) * cmath.exp(n * (cmath.exp(-2j * gamma) - 1))
    a2 = n * cmath.exp(-4j * gamma) * cmath.exp(n * (cmath.exp(-4j * gamma) - 1))
    dn = n - abs(a1) ** 2
    da2 = a2 - a1 * a1
    return _h(math.sqrt((dn + 0.5) ** 2 - abs(da2) ** 2))


def _binomial(p: int, eta: float) -> list:
    """Photon-number distribution of |p> after loss eta."""
    return [math.comb(p, k) * eta ** k * (1 - eta) ** (p - k) for k in range(p + 1)]


def _lossy_fock_measures(p: int, eta: float) -> tuple[float, float]:
    """(delta_A, delta_B) of |p> after loss eta: a Fock-diagonal state P with a
    thermal reference of nbar = p eta photons, so delta_B = h(nbar + 1/2) - H(P)
    and delta_A = (mu + mu_tau - 2 kappa) / (2 mu), with mu = sum P_k^2,
    mu_tau = 1/(2 nbar + 1) and kappa = sum P_k nbar^k / (nbar + 1)^(k+1)."""
    probs = _binomial(p, eta)
    nbar = p * eta
    shannon = -sum(q * math.log(q) for q in probs if q > 0)
    mu = sum(q * q for q in probs)
    kappa = sum(q * nbar ** k / (nbar + 1) ** (k + 1) for k, q in enumerate(probs))
    delta_a = (mu + 1 / (2 * nbar + 1) - 2 * kappa) / (2 * mu)
    return delta_a, _h(nbar + 0.5) - shannon


def _fock_measures(n: int) -> tuple[float, float]:
    """(delta_A, delta_B) of |n>: its reference is thermal with n photons."""
    return (1 + 1 / (2 * n + 1) - 2 * n ** n / (n + 1) ** (n + 1)) / 2, _h(n + 0.5)


def _pnes_delta_b(family: str, x: float, cutoff: int = 12) -> float:
    """delta_B of sum_n psi_n |n>|n>, psi_n normalized below the cutoff: each
    mode has <n> = N and <a> = <a^2> = 0, and <ab> = C = sum (n+1) psi_n psi_{n+1},
    so both symplectic eigenvalues are sqrt((N + 1/2)^2 - C^2) and, the state
    being pure, delta_B = 2 h of it."""
    profile = {"tmc": lambda n: x ** n / math.factorial(n),
               "pssv": lambda n: (n + 1) * x ** (n + 1),
               "pasv": lambda n: n * x ** (n - 1) if n else 0.0}[family]
    psi = [profile(n) for n in range(cutoff)]
    norm = math.sqrt(sum(p * p for p in psi))
    psi = [p / norm for p in psi]
    photons = sum(n * p * p for n, p in enumerate(psi))
    corr = sum((n + 1) * psi[n] * psi[n + 1] for n in range(cutoff - 1))
    return 2 * _h(math.sqrt((photons + 0.5) ** 2 - corr ** 2))


def _browne_input_delta_b(lam: float) -> float:
    """delta_B of (|00> + lam|11>)/sqrt(1 + lam^2), the B protocol's input: each
    mode has <n> = N = lam^2/(1 + lam^2) and <a> = <a^2> = 0, and <ab> = C =
    lam/(1 + lam^2), so both symplectic eigenvalues are sqrt((N + 1/2)^2 - C^2)
    and, the state being pure, delta_B = 2 h of it."""
    photons, corr = lam * lam / (1 + lam * lam), lam / (1 + lam * lam)
    return 2 * _h(math.sqrt((photons + 0.5) ** 2 - corr ** 2))


def test_fig1_pnes_cells_match_the_photon_number_closed_form():
    _, header, rows = figures.fig1_pnes_vs_partial_traces()
    built = [dict(zip(header, row)) for row in rows]
    for cells in (built, _reference_rows(1)):
        assert len(cells) == 20
        for row in cells:
            want = _pnes_delta_b(row["family"], row["parameter"])
            assert abs(row["delta_B_pnes"] - want) <= 1e-10, row


def test_fig8_kerr_cells_match_the_coherent_closed_form():
    _, header, rows = figures.fig8_kerr()
    built = [dict(zip(header, row)) for row in rows]
    for cells in (built, _reference_rows(8)):
        assert len(cells) == 48
        for row in cells:
            want = _kerr_coherent_delta_b(row["gamma"], row["n_mean"])
            assert abs(row["delta_B"] - want) <= 1e-11, row


def test_fig3_fock_cells_match_the_thermal_closed_form():
    _, header, rows = figures.fig3_fock_superpositions()
    built = [dict(zip(header, row)) for row in rows]
    for cells in (built, _reference_rows(3)):
        fock_rows = [row for row in cells if row["k"] == 0]
        assert [row["n"] for row in fock_rows] == list(range(1, 11))
        for row in fock_rows:
            want_a, want_b = _fock_measures(int(row["n"]))
            assert abs(row["delta_A"] - want_a) <= 1e-10, row
            assert abs(row["delta_B"] - want_b) <= 1e-10, row


def test_fig7_lossy_fock_cells_match_the_binomial_closed_form():
    _, header, rows = figures.fig7_lossy_fock()
    built = [dict(zip(header, row)) for row in rows]
    for cells in (built, _reference_rows(7)):
        assert len(cells) == 44
        for row in cells:
            want_a, want_b = _lossy_fock_measures(int(row["p"]), math.exp(-row["t"]))
            assert abs(row["delta_A"] - want_a) <= 1e-10, row
            assert abs(row["delta_B"] - want_b) <= 1e-10, row


def test_fig9_input_cells_match_the_two_mode_closed_form():
    # s = 0 is the input itself, exact at any cutoff >= 2
    _, header, rows = figures.fig9_browne_window()
    built = [dict(zip(header, row)) for row in rows]
    for cells in (built, _reference_rows(9)):
        inputs = [row for row in cells if row["steps"] == 0]
        assert len(inputs) == 20
        for row in inputs:
            assert abs(row["delta_B"] - _browne_input_delta_b(row["lambda"])) <= 1e-10, row


def test_a_worker_pool_keeps_the_rows_and_their_order():
    _, header, rows = figures.build_figure(3, threads=1)
    _, pooled_header, pooled = figures.build_figure(3, threads=3)
    assert pooled_header == header and pooled == rows
