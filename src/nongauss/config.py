"""Thresholds of the library's validity checks, as fixed constants.

Read as ``config.NAME`` (so a test can swap one with monkeypatch) by the carrier
checks and entropies of fock, the covariance, h, leakage and moment checks of
gaussian, the crops of states, the leakage gate of channels, the photocount sum
of bounds and the distribution checks of infometrics.  The literals at other
checks (clamps, identity residuals, protocol mismatches) are deliberate: each
belongs to its one check and is no library-wide setting."""

NORM = 1e-8            # trace / vector-norm deviation from 1
HERM = 1e-10           # allowed anti-Hermitian residue
EIG = 1e-10            # eigenvalues in [-EIG, 0) are clamped to 0
SYMP = 1e-7            # physicality slack on symplectic eigenvalues
TAIL = 1e-10           # coefficient mass beyond the cutoff
LEAK_MAX = 1e-6        # truncation leakage above which moments are refused
REF_MOMENT = 1e-6      # moment-match residual for the reference Gaussian
MAX_DENSE_DIM = 2048   # largest Hilbert dimension kept as a dense matrix
