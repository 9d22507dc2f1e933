"""Numerical tolerance profiles shared across the library."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Global numerical tolerances.

    All comparisons in the library go through one of these knobs so a whole
    run can be tightened or loosened consistently.
    """

    norm: float = 1e-8          # trace / vector-norm deviation from 1
    herm: float = 1e-10         # allowed anti-Hermitian residue
    eig: float = 1e-10          # eigenvalues in [-eig, 0) are clamped to 0
    symp: float = 1e-7          # physicality slack on symplectic eigenvalues
    tail: float = 1e-10         # coefficient mass beyond the cutoff
    leak_max: float = 1e-6      # truncation leakage above which moments are refused
    ref_moment: float = 1e-6    # moment-match residual for the reference Gaussian
    max_dense_dim: int = 2048   # largest Hilbert dimension kept as a dense matrix


PROFILES = {
    "default": Tolerances(),
    "strict": Tolerances(norm=1e-10, herm=1e-12, eig=1e-12, symp=1e-9,
                         tail=1e-12, leak_max=1e-8, ref_moment=1e-8),
    "loose": Tolerances(norm=1e-6, herm=1e-8, eig=1e-8, symp=1e-5,
                        tail=1e-8, leak_max=1e-4, ref_moment=1e-4),
}

_active = PROFILES["default"]


def tolerances() -> Tolerances:
    """The tolerance profile in force."""
    return _active


def use_profile(name_or_profile: str | Tolerances) -> Tolerances:
    """Install a tolerance profile globally (by name or as an instance)."""
    global _active
    if isinstance(name_or_profile, str):
        try:
            _active = PROFILES[name_or_profile]
        except KeyError:
            raise ValueError(
                f"unknown tolerance profile {name_or_profile!r}; "
                f"choose from {sorted(PROFILES)}") from None
    else:
        _active = name_or_profile
    return _active
