"""Entanglement distillation: the iterated beam-splitter/vacuum-postselection
protocol on state pairs, the photon-subtraction protocol, log-negativity and
the renormalized non-Gaussianity."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, NumericalValidityError, TruncationError
from .fock import (DensityMatrix, FockStateVector, State, _check_dense_dim,
                   _integer, _log_factorials, partial_transpose)
from .gaussian import _ladder
from .channels import _bs_blocks
from .measures import delta_b
from .states import _squeezed_vacuum_amplitudes

__all__ = [
    "browne_state", "b_protocol_step", "b_protocol_iterates", "b_protocol_run",
    "entanglement_gain", "iterate_delta_b", "log_negativity", "max_two_mode_ng",
    "renormalized_ng", "t_protocol_output",
]


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def browne_state(variant: str, lam: float, cutoff: int = 8) -> DensityMatrix:
    """The protocol's benchmark input states on |00>, |11>.

    Variant 'a' is the pure superposition (|00> + lam|11>)/sqrt(1+lam^2);
    variant 'b' keeps the same populations but halves the coherences (rank 2).
    """
    if not 0 <= lam < math.inf:   # NaN fails this check
        raise ArgumentError(f"lambda must be finite and >= 0, got {lam}")
    if _integer(cutoff, "cutoff") < 2:
        raise ArgumentError("cutoff must be at least 2")
    if variant not in ("a", "b"):
        raise ArgumentError("variant must be 'a' or 'b'")
    d = cutoff
    _check_dense_dim(d * d)
    norm = 1.0 + lam * lam
    i00, i11 = 0, 1 + d
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[i00, i00] = 1.0 / norm
    mat[i11, i11] = lam * lam / norm
    mat[i00, i11] = mat[i11, i00] = lam / norm if variant == "a" else lam / (2.0 * norm)
    return DensityMatrix(2, d, mat)


# ---------------------------------------------------------------------------
# iterated beam-splitter protocol
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _vacuum_merge(d: int) -> np.ndarray:
    """merge[N, k*d + N-k] = <N, 0|B(pi/4)|k, N-k> for inputs below the cutoff d.

    A balanced beam splitter followed by projecting its second output onto
    vacuum maps |k, N-k> onto |N> with this weight, so one matrix product per
    side replaces the padded four-mode tensor; row N of each fixed-total block
    is read from the ladder recursion.  Cached per cutoff and read-only.
    """
    merge = np.zeros((2 * d - 1, d * d))
    for n, block in enumerate(_bs_blocks(math.pi / 4, 2 * d - 2)):
        ks = np.arange(max(0, n - d + 1), min(n, d - 1) + 1)
        merge[n, ks * d + n - ks] = block[n, ks]
    merge.setflags(write=False)
    return merge


def _branches(state: State) -> list:
    """(weight, amplitudes) pairs of a two-mode state: a vector is one branch,
    a density its eigenvectors of weight above 1e-12, the weights renormalized
    over those kept.  The eigenvectors are not renormalized: fig 9's noise
    cells follow the iterates' last bits."""
    if state.modes != 2:
        raise ArgumentError("the protocol operates on two-mode states")
    if isinstance(state, FockStateVector):
        return [(1.0, state.amplitudes)]
    lam, vec = np.linalg.eigh(state.matrix)
    keep = np.flatnonzero(lam > 1e-12)
    return [(float(w), vec[:, i]) for i, w in zip(keep, lam[keep] / lam[keep].sum())]


def b_protocol_step(state: State) -> tuple[State, float]:
    """One round: mix two replicas pairwise on balanced beam splitters and keep
    the surviving pair when both ancilla modes project onto vacuum.

    Returns (output state, success probability).  The input is split into
    pure branches (``_branches``) and each branch pair goes straight to its
    vacuum-projected two-mode amplitudes chi, so the four-mode object is never
    formed.  The success probability is the pre-normalization trace; the
    output is the normalized vector when one pair survives, else the
    normalized mixture sum_ij w_i w_j chi chi^dag.
    """
    branches = _branches(state)
    d = state.cutoff
    merge = _vacuum_merge(d)

    raw = []           # (weight_product, cropped chi)
    success = 0.0
    lost = 0.0
    for wi, vi in branches:
        ti = vi.reshape(d, d)  # axes (nB1, nA1)
        for wj, vj in branches:
            tj = vj.reshape(d, d)  # axes (nB2, nA2)
            chi = merge @ np.kron(ti, tj) @ merge.T   # axes (nB1, nA1)
            full = float(np.real(np.vdot(chi, chi)))
            chic = chi[:d, :d]
            kept = float(np.real(np.vdot(chic, chic)))
            success += wi * wj * full
            lost += wi * wj * (full - kept)
            if kept > 0.0:
                raw.append((wi * wj, chic))
    if success < 1e-12:
        raise NumericalValidityError(
            "post-selection success probability below 1e-12: degenerate input")

    leakage = state.leakage + max(lost, 0.0) / success
    if len(raw) == 1:
        amps = raw[0][1].ravel()
        return FockStateVector(2, d, amps / np.linalg.norm(amps), leakage), success

    mat = np.zeros((d * d, d * d), dtype=complex)
    for w, chi in raw:
        v = chi.ravel()
        mat += w * np.outer(v, v.conj())
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(2, d, mat / np.real(np.trace(mat)), leakage), success


def b_protocol_iterates(state: State, steps: int, leak_budget: float | None = 1e-4):
    """Yield (step, state, success probability) for steps 0 ... ``steps``;
    step 0 is the input, with probability 1, and a rank-1 density enters as
    its eigenvector.

    Support grows with the step count, so the accumulated crop loss is
    re-checked each step against ``leak_budget`` (TruncationError beyond it).
    Pass None to disable the gate: near the photon-pumping regime the ideal
    iterate genuinely outgrows any fixed cutoff, and each iterate's leakage
    then discloses the loss instead.  The checks run when iteration starts.
    """
    if _integer(steps, "steps") < 1:
        raise ArgumentError("steps must be >= 1")
    if leak_budget is not None and not 0 <= leak_budget < math.inf:   # NaN fails this check
        raise ArgumentError(f"leak_budget must be None or a finite real >= 0, got {leak_budget!r}")
    branches = _branches(state)
    if len(branches) == 1:
        state = FockStateVector(2, state.cutoff, branches[0][1], state.leakage)
    yield 0, state, 1.0
    for i in range(1, steps + 1):
        state, prob = b_protocol_step(state)
        if leak_budget is not None and state.leakage > leak_budget:
            raise TruncationError(
                f"accumulated protocol leakage {state.leakage:.3e} exceeds the "
                f"run budget {leak_budget:.0e} at step {i}; raise the cutoff "
                "or pass leak_budget=None to accept truncated iterates")
        yield i, state, prob


def iterate_delta_b(state: State) -> float:
    """delta_B of a protocol iterate, taken as the cropped, renormalized state
    it is: an exactly representable state, so its leakage is reset here and
    the iterate's leakage reports how far it drifted from the ideal
    (uncropped) one.  A vector v is read as the density v v^dag / Tr, the
    form whose last bits fig 9's noise cells follow."""
    if isinstance(state, FockStateVector):
        mat = np.outer(state.amplitudes, state.amplitudes.conj())
        mat /= np.real(np.trace(mat))
    else:
        mat = state.matrix
    return delta_b(DensityMatrix(state.modes, state.cutoff, mat)).value


def entanglement_gain(en: float, en0: float) -> float | None:
    """Delta_i = (E_N^(i) - E_N^(0)) / E_N^(0); None when E_N^(0) = 0."""
    return (en - en0) / en0 if en0 > 1e-12 else None


def b_protocol_run(state, steps: int, leak_budget: float | None = 1e-4) -> list:
    """Iterate the protocol and measure every step: one dict per step, 0 ...
    ``steps``, of its success probability, delta_B (``iterate_delta_b``), E_N,
    the relative gain Delta_i (``entanglement_gain``) and the leakage.

    The iterates and the ``leak_budget`` gate are ``b_protocol_iterates``'s;
    callers that read only some of these columns or steps (figures 9 and 10)
    loop over the iterates themselves and measure only what they read."""
    rows = []
    for i, it, prob in b_protocol_iterates(state, steps, leak_budget):
        en = log_negativity(it)
        if i == 0:
            en0 = en
        rows.append({"step": i, "success_prob": prob, "delta_B": iterate_delta_b(it),
                     "E_N": en, "Delta_i": entanglement_gain(en, en0),
                     "leakage": it.leakage})
    return rows


# ---------------------------------------------------------------------------
# entanglement bookkeeping
# ---------------------------------------------------------------------------

def log_negativity(state) -> float:
    """E_N = log2 || rho^Gamma ||_1 (base 2 throughout).

    Pure two-mode states go through the Schmidt route: ||psi^Gamma||_1 equals
    the squared sum of Schmidt coefficients, which scales to large cutoffs.
    """
    if state.modes != 2:
        raise ArgumentError("log-negativity is defined here for two-mode states")
    if isinstance(state, FockStateVector):
        s = np.linalg.svd(state.amplitudes.reshape(state.cutoff, state.cutoff),
                          compute_uv=False)
        return max(2.0 * math.log2(float(np.sum(s))), 0.0)
    eigs = np.linalg.eigvalsh(partial_transpose(state, 1))
    return max(math.log2(float(np.sum(np.abs(eigs)))), 0.0)


def max_two_mode_ng(total_photons: float) -> float:
    """Largest delta_B attainable by a two-mode state with N total photons."""
    n2 = total_photons / 2.0
    if not math.isfinite(n2):
        raise ArgumentError(f"total photon number must be finite, got {total_photons!r}")
    if n2 <= 0:
        return 0.0
    return 2.0 * ((1.0 + n2) * math.log(1.0 + n2) - n2 * math.log(n2))


def renormalized_ng(state) -> float:
    """delta_R = delta_B / max_two_mode_ng(N), in [0, 1]."""
    n = state.energy()
    if n <= 1e-12:
        raise ArgumentError("renormalized nG is undefined for the vacuum (N = 0)")
    value = delta_b(state).value / max_two_mode_ng(n)
    if value > 1.0 + 1e-6:
        raise NumericalValidityError(f"renormalized nG {value} exceeds 1")
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# photon-subtraction protocol
# ---------------------------------------------------------------------------

def _suggest_subtraction_cutoff(r: float) -> int:
    """Cutoff so the photon-number-weighted squeezed-vacuum tail stays below 1e-9.

    The scan covers 4096 levels; the weighted mass beyond them, sinh^2 r less
    what the scan holds, is added to every tail, so a squeezing whose tail the
    scan cannot reach is rejected instead of cut at the window's last level.
    """
    probe = np.abs(_squeezed_vacuum_amplitudes(r, 0.0, 4096)) ** 2
    weighted = probe * np.arange(probe.size)
    beyond = max(math.sinh(r) ** 2 - float(weighted.sum()), 0.0)
    tail = np.cumsum(weighted[::-1])[::-1] + beyond
    idx = np.flatnonzero(tail <= 1e-9)
    if idx.size == 0:
        raise ArgumentError(f"squeezing r = {r} too large for the scan window")
    return int(idx[0]) + 4


def _vacuum_port_split(col: np.ndarray) -> np.ndarray:
    """B(pi/4) sum_N col[N] |N>_A |0>_B as a (d, d) tensor with axes (nB, nA).

    With one input port in vacuum the beam splitter follows the binomial law
    U|N, 0> = sum_i sqrt(C(N, i)) c^i (-s)^(N-i) |i, N-i> (Campos, Saleh &
    Teich, PRA 40, 1371 (1989)), in the sign convention of ``channels._bs_blocks``.
    At c = s = 2^(-1/2) the weight of |i, N-i> is sqrt(C(N, i)) 2^(-N/2) times
    (-1)^(N-i).  Input totals stay below d, and so do the outputs: nothing
    is cropped.
    """
    d = col.size
    n = np.arange(d)
    total = n[:, None] + n                     # N = n_B + n_A, axes (nB, nA)
    lf = _log_factorials(2 * d - 1)
    log_w = 0.5 * (lf[total] - lf[:d, None] - lf[:d] - total * math.log(2.0))
    sign = 1 - 2 * (n[:, None] % 2)             # (-1)^(N-i), N-i = n_B
    padded = np.concatenate([col, np.zeros(d - 1, dtype=col.dtype)])  # col[N >= d] = 0
    return sign * np.exp(log_w) * padded[total]


def t_protocol_output(r: float, subtracted: str = "one") -> FockStateVector:
    """Output of the photon-subtraction distillation:
    N a_A^{n_A} a_B^{n_B} B(pi/4) S_A(r) |00>.

    S_A(r)|0> meets the beam splitter with its other port in vacuum, so both
    forms below use the closed binomial law of ``_vacuum_port_split`` in O(d^2)
    at the cutoff d of ``_suggest_subtraction_cutoff``.  The operator-commuted
    form B(pi/4) a_A^{n_A+n_B} S_A(r)|00> is evaluated as a cross-check for one
    more O(d^2) split; the two must agree to 1e-8 up to a global phase.

    The leakage is the share of ||a^n S(r)|0>||^2 (n = n_A + n_B) that the
    cutoff drops: 1 - ||a^n c||^2 / <a^dag^n a^n> for the kept amplitudes c,
    with <a^dag a> = sinh^2 r and <a^dag^2 a^2> = 3 sinh^4 r + sinh^2 r.
    """
    if not (math.isfinite(r) and r > 0):
        raise ArgumentError("squeezing r must be finite and > 0")
    if subtracted not in ("one", "two"):
        raise ArgumentError("subtracted must be 'one' or 'two'")
    n = 1 if subtracted == "one" else 2
    d = _suggest_subtraction_cutoff(r)
    sv = _squeezed_vacuum_amplitudes(r, 0.0, d)

    # form 1: beam splitter first, then a_A, and a_B for two (axes (nB, nA))
    out1 = _ladder(_vacuum_port_split(sv), 1, lower=True)
    if n == 2:
        out1 = _ladder(out1, 0, lower=True)

    # form 2: subtract a_A^n before the beam splitter
    pre = sv
    for _ in range(n):
        pre = _ladder(pre, 0, lower=True)
    out2 = _vacuum_port_split(pre)

    n1, n2 = np.linalg.norm(out1), np.linalg.norm(out2)
    if n1 < 1e-12 or n2 < 1e-12:
        raise NumericalValidityError("photon subtraction annihilated the state")
    out1 = out1 / n1
    out2 = out2 / n2
    phase = np.vdot(out2.ravel(), out1.ravel())
    phase = phase / abs(phase)
    mismatch = float(np.max(np.abs(out1 - phase * out2)))
    if mismatch > 1e-8:
        raise NumericalValidityError(
            f"commuted-form cross-check failed: mismatch {mismatch:.3e}")
    nbar = math.sinh(r) ** 2
    moment = nbar if n == 1 else 3.0 * nbar ** 2 + nbar   # <a^dag^n a^n>
    kept = float(np.real(np.vdot(pre, pre)))
    return FockStateVector(2, d, out1.ravel(), leakage=max(1.0 - kept / moment, 0.0))
