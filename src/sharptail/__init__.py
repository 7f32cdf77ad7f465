"""Sharp conditional tail estimates for randomly weighted i.i.d. sums.

Core pipeline: fix an environment (one realized weight sequence), solve the
empirical saddle equation, and assemble the prefactor-exact tail estimate

    P(S_n >= a n | W)  ~=  exp(-n I_n(a)) / (theta_n sigma_n sqrt(2 pi n)).

Oracles (exponentially tilted importance sampling, naive Monte Carlo, exact
lattice enumeration) validate the estimate, and the fclt module measures how
the random rate function fluctuates around its deterministic limit across
environment replicas.
"""

from .cgf import (
    BinomialModel,
    CumulantModel,
    GaussianModel,
)
from .errors import (
    CAPACITY_ERRORS,
    NUMERIC_ERRORS,
    DegenerateEnvironment,
    EmptyInterval,
    InsufficientReplicas,
    MismatchedRuns,
    NonConvergence,
    NotEnumerable,
    OutOfRange,
    PrefactorDegenerate,
    QuadratureFailure,
    SharptailError,
    TooLarge,
)
from .estimate import (
    ConditionReport,
    TailEstimate,
    check_conditions,
    sldp_estimate,
)
from .fclt import (
    FcltGrid,
    FcltReport,
    FluctuationSample,
    fclt_grid,
    fclt_report,
    sample_fluctuations,
)
from .mc import (
    McConfig,
    exact_enum_segments,
    naive_mc_segments,
    tilted_mc_segments,
)
from .rng import derive_seed, derive_stream
from .saddle import (
    DeterministicCurves,
    SaddleSolution,
    Segment,
    psi_sum,
    solve_deterministic,
    solve_psi_root,
    solve_saddle,
)
from .scenarios import (
    PortfolioBlock,
    PortfolioScenario,
    TcellScenario,
    portfolio_loss_prob,
    portfolio_segments,
    tcell_activation_prob,
    tcell_environment,
)
from .weights import (
    ConstantWeight,
    TcellWeight,
    TwoPointWeight,
    UniformWeight,
    WeightModel,
    draw_environment,
)

__version__ = "0.1.0"
