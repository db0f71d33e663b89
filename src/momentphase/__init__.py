"""Reconstruction of possibly singular positive measures from truncated moments.

The pipeline has three stages: condition the moment sequence into moments of
a bounded phase function (conditioning), recover that phase by maximum
entropy (maxent), and invert pointwise through Hilbert-transform boundary
formulas (transform).  The raybeam module reduces multivariate problems to a
family of one-dimensional ones, one per direction, whose outputs are
tomography-ready hyperplane slices.
"""

__version__ = "0.1.0"

from .conditioning import (  # noqa: F401
    Feasibility,
    MultiMoments,
    PowerMoments,
    Support,
    TrigMoments,
    condition_circle,
    condition_line,
    condition_polydisk,
    extend_exp_weight,
    hankel_feasibility,
    max_extension,
    min_extension,
)
from .maxent import (  # noqa: F401
    BasisMatrix,
    DualSolution,
    Quadrature,
    build_quadrature,
    fime_solve,
    precondition,
    primal_eval,
    solve_power_moments,
    solve_trig_moments,
)
from .raybeam import (  # noqa: F401
    RayDirection,
    RaySlice,
    pushforward_moments,
    radon_slice,
    ray_phase_moments,
    ray_sweep,
)
from .series import (  # noqa: F401
    FormalSeries,
    accumulate_powers,
    series_exp,
    series_log,
    series_pow,
)
from .transform import (  # noqa: F401
    GridFunction,
    PhaseRangeError,
    cauchy_boundary_avg,
    hilbert_circle,
    hilbert_line,
    invert_circle,
    invert_line,
)
