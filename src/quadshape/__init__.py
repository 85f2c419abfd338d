"""Riemannian shape calculus for the quadrature-surface free boundary problem.

The package discretizes smooth closed planar curves spectrally, solves the
overdetermined Poisson state with a first-kind single-layer boundary method,
and exposes the shape functional, its boundary gradient in a curvature-
weighted metric, several routes to the shape Hessian, stability diagnostics,
and a Riemannian gradient descent flow.

Reports must be byte-identical across reruns of the same config, and
multi-threaded BLAS reductions reorder sums, so importing the package pins
BLAS to one thread before any submodule loads numpy.  The pin only sets
variables that are unset: a caller's own ``OPENBLAS_NUM_THREADS`` (or the
OMP, MKL, NUMEXPR and VECLIB counterparts) wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .geometry import (
    Curve,
    GeometryError,
    MetricParams,
    NormalField,
    flow_curve,
    metric_inner,
    metric_norm,
    resample_by_arclength,
)
from .potential import Disk, SourceTerm
from .bem import BoundaryOperators, SolverError
from .riemannian import (
    covariant_derivative,
    riemannian_gradient,
    torsion,
)
from .shape import (
    ShapeState,
    direct_hessian,
    direct_hessian_form,
    evaluate_J,
    fd_second_derivative,
    hadamard_derivative,
    hessian_report,
    solve_state,
    stability_controls,
    steklov_form,
)
from .flow import FlowConfig, FlowResult, descend
from .config import ConfigError, RunConfig, load_config, parse_config_text

__all__ = [
    "Curve",
    "GeometryError",
    "MetricParams",
    "NormalField",
    "flow_curve",
    "metric_inner",
    "metric_norm",
    "resample_by_arclength",
    "Disk",
    "SourceTerm",
    "BoundaryOperators",
    "SolverError",
    "covariant_derivative",
    "riemannian_gradient",
    "torsion",
    "ShapeState",
    "solve_state",
    "evaluate_J",
    "hadamard_derivative",
    "steklov_form",
    "direct_hessian",
    "direct_hessian_form",
    "fd_second_derivative",
    "hessian_report",
    "stability_controls",
    "FlowConfig",
    "FlowResult",
    "descend",
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config_text",
]

__version__ = "0.1.0"
