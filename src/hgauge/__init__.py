"""Gauge analysis on the anisotropic Heisenberg-type group of step two.

The group carries the usual grading (2n horizontal directions, one central
direction) but an anisotropic bracket: the first pair of horizontal fields
twists with weight 1/2, the remaining pairs with weight 1.  The package
provides the closed-form homogeneous norm attached to the fundamental
solution of the sub-Laplacian, its exact first and second derivatives, the
infinity-Laplacian witness, an independent quadrature oracle for the
fundamental solution, pointwise gradient bounds, coercivity-constant
arithmetic, and empirical verification of U-bounds, q-Poincare, and
beta-log-Sobolev inequalities for radial Gibbs measures built on the norm.
"""

from .bgg import (
    compare_cloud,
    fundamental_solution_closed,
    fundamental_solution_quad,
    solution_constant,
)
from .coercive import (
    FeasibilityResult,
    TestFunction,
    beta_lsi_functional,
    default_family,
    fit_beta_lsi,
    fit_ubound_constants,
    poincare_ratio,
    ubound_terms,
)
from .fd import infinity_laplacian_witness
from .group import Point, compose, inverse
from .inequalities import (
    InequalityReport,
    alpha_opt,
    check_gradient_bounds,
    check_partial_bounds,
    coercivity_margin,
    sample_cloud,
    split_objective,
)
from .measures import (
    MeasureSpec,
    SampleBatch,
    SamplerConfig,
    batch_means_se,
    eta_weight,
    run_chain,
)
from .norm import exact_partials, norm_N, norm_batch, partials_batch

__version__ = "0.1.0"

__all__ = [
    "FeasibilityResult",
    "InequalityReport",
    "MeasureSpec",
    "Point",
    "SampleBatch",
    "SamplerConfig",
    "TestFunction",
    "alpha_opt",
    "batch_means_se",
    "beta_lsi_functional",
    "check_gradient_bounds",
    "check_partial_bounds",
    "coercivity_margin",
    "compare_cloud",
    "compose",
    "default_family",
    "eta_weight",
    "exact_partials",
    "fit_beta_lsi",
    "fit_ubound_constants",
    "fundamental_solution_closed",
    "fundamental_solution_quad",
    "infinity_laplacian_witness",
    "inverse",
    "norm_N",
    "norm_batch",
    "partials_batch",
    "poincare_ratio",
    "run_chain",
    "sample_cloud",
    "split_objective",
    "ubound_terms",
]
