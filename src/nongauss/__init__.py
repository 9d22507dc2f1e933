"""Non-Gaussianity of continuous-variable states and operations in truncated
Fock space: measures, state families, channels, distillation protocols,
entropic gaps and measurable lower bounds."""

from .errors import (ArgumentError, NonGaussError, NumericalValidityError,
                     ResourceError, TruncationError)
from .fock import (DensityMatrix, FockStateVector, MeasureReport, overlap,
                   partial_trace, partial_transpose, purity,
                   random_density_matrix, tensor, von_neumann_entropy)
from .gaussian import (GaussianData, SingleModeGaussianParams,
                       fit_single_mode_gaussian, gaussian_entropy, h, moments,
                       reference_gaussian_state, symplectic_eigenvalues)
from .states import (PNESSpec, cat, coherent, diagonal_mixture, fock,
                     fock_superposition, pnes, squeezed_vacuum, thermal, vacuum)
from .channels import (ChannelSpec, apply_channel, beam_split, displace, kerr,
                       loss, phase_diffusion, squeeze)
from .measures import (QuadratureGrid, check_measure_inequality,
                       conjecture_a5_sweep, delta_a, delta_b, delta_c, ng_of_map)
from .distillation import (b_protocol_iterates, b_protocol_run, b_protocol_step,
                           browne_state, log_negativity, max_two_mode_ng,
                           renormalized_ng, t_protocol_output)
from .infometrics import (Ensemble, StateFamily, conditional_entropy,
                          conditional_entropy_gap, gaussian_conditional_entropy,
                          gaussian_mutual_information, holevo_chi,
                          mutual_information, mutual_information_gap, qfi,
                          qfi_ng_bound_check)
from .bounds import (PhotodetectionPOVM, detection_statistics, epsilon_a,
                     epsilon_b, epsilon_c, epsilon_d, epsilon_e,
                     histogram_to_distribution)

__version__ = "0.1.0"
