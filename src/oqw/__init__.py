"""Open quantum walks: exact hitting statistics, Dirichlet problems,
harmonic measures, and a seeded quantum-trajectory Monte Carlo sampler."""

from . import fixtures, serialize
from .errors import InputError, NumericalError, OQWError, ShapeError
from .walk import (
    DiagonalObservable,
    DiagonalState,
    WalkSpec,
    apply_step,
    dual_apply,
    identity_observable,
    is_doubly_stochastic,
    minimal_dilation,
    site_state,
    validate_walk,
)
from .superop import invariant_state
from ._oracles import brute_force_path_sum
from .hitting import (
    CPMapBlock,
    HarmonicMeasure,
    alpha_operator,
    boundary,
    conditional_state_at_hit,
    domain_operator,
    exit_probability,
    expected_domain_visits,
    expected_return_time,
    expected_visits,
    harmonic_measure,
    passage_probability,
    taboo_operator,
)
from .structure import (
    Decomposition,
    Enclosure,
    RecurrenceVerdict,
    check_decomposition_bounds,
    classify_recurrence,
    decompose,
    enclosure_closure,
    is_irreducible,
    restrict_walk,
)
from .dirichlet import (
    DirichletProblem,
    DirichletSolution,
    check_detailed_balance,
    diamond_inner,
    dirichlet_energy,
    dirichlet_form,
    flat_state,
    gradient_form,
    harmonic_operator,
    solve_dirichlet_domain,
    solve_dirichlet_global,
    variational_solve,
)
from .trajectory import (
    EstimateWithCI,
    TrajectoryRecord,
    estimate_hitting,
    estimate_kac,
    martingale_diagnostic,
    sample_step,
    sample_trajectory,
    trajectory_rng,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
