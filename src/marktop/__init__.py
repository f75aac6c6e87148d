"""Markov functions of SPD Toeplitz matrices via rational interpolation at
quasi-optimal nodes, with certified relative-error bounds and
displacement-structured matrix arithmetic."""

from .approx import (Geometry, apriori_bound, blaschke_eta, build_geometry,
                     condenser_rate, cross_ratio, disk_error_bound,
                     optimal_nodes, relative_error_bound, stopping_threshold)
from .errors import (BoundInvalid, Breakdown, DegreeUnavailable,
                     DimensionError, DomainError, InvalidInterval,
                     MarktopError, NoConvergence, PencilError, PoleCollision,
                     PoleHit, PoleLocationError, RankDeficiency,
                     SingularMatrix)
from .interp import (Barycentric, PartialFraction, ThieleCF, barycentric_fit,
                     fit_interpolant, interp_error_scan, loewner_pfd, thiele_fit)
from .markov import (MarkovSpec, check_hankel_definiteness, custom_spec,
                     eval_markov, hankel_matrix, inv_sqrt_spec, log_spec,
                     power_spec, taylor_coeffs, worst_case_spec)
from .matfun import (MatArg, MatFunResult, aposteriori_bound, auto_degree,
                     dense_arg, diag_arg, eval_rational_at_matrix, frac_power,
                     log_via_scaling, residual_sqrt, sqrt_db_newton, tl_arg)
from .tlalgebra import (TLMatrix, from_toeplitz, identity_tl, read_toeplitz,
                        write_toeplitz)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
