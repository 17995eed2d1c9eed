"""kinkdirac: Dirac fermion scattering and bound states on a sine-Gordon kink.

The pipeline evaluates local Heun functions (series + analytic continuation),
builds the local spinor solutions of the kink-background Dirac equation,
matches them across the kink via Wronskians, and extracts transmission/
reflection amplitudes, phase shifts, and bound-state energies.  An independent
direct-integration oracle validates every step.
"""

from .errors import (
    ConvergenceError,
    DegenerateBasisError,
    DegenerateGammaError,
    DomainError,
    FitError,
    KinkDiracError,
    PathError,
    StepFailure,
)
from .heun import (
    HeunParams,
    heun_eval,
    heun_second_solution,
    heun_series,
    recurrence_coeffs,
    second_solution_params,
)
from .oracle import (
    ResidualReport,
    extract_scattering,
    integrate_heun,
    integrate_u,
    oracle_scattering,
    residuals,
)
from .scattering import (
    ScatteringData,
    match_coefficients,
    matched_u,
    unwrap_sweep,
    wronskian,
)
from .soliton import (
    Family,
    LocalSolution,
    SolitonBackground,
    SpectralPoint,
    build_solution,
    eval_u,
    kink_profile,
    map_to_z,
    topological_charge,
    v_from_u,
)
from .spectrum import (
    BoundState,
    LevinsonReport,
    c1_bound_indicator,
    find_bound_states,
    levinson_check,
)

__version__ = "0.1.0"
