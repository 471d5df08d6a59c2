"""Certified reduced bases for 1D nonlinear PDE models with bifurcations.

The package discovers coexisting solution branches of parametric
reaction-diffusion problems with deflated Newton iterations, compresses them
into X-orthonormal reduced bases (greedy variants or proper orthogonal
decomposition), certifies reduced solutions with residual-based a-posteriori
bounds, and post-processes everything into labeled diagrams and error tables.
"""
from .analysis import (BifurcationDiagram, ErrorRow, ErrorSweep,
                       SolutionEnsemble, error_sweep, error_vs_n,
                       relative_error, solution_ensemble)
from .estimators import (BETA_FLOOR, EstimatorKind, EstimatorSet, argmin_beta,
                         beta_sweep, deflated_estimator_sweep, estimator_sweep,
                         inf_sup, linear_estimate, nonlinear_estimate,
                         residual_dual_norm)
from .greedy import (AdaptiveConfig, GreedyConfig, GreedyReport, GreedyStatus,
                     adaptive_greedy, deflated_greedy, vanilla_greedy)
from .model import (Bratu1D, ChafeeInfante1D, ModelKind, ParameterSpace,
                    ParametricModel, make_model)
from .nlsolve import (DeflationOperator, NewtonConfig, RootSet, SolveResult,
                      deflated_newton, discover_solutions, newton)
from .pod import PODResult, branchwise_pod, pod_basis
from .rom import (BasisMatrix, EnrichResult, reduced_deflated_newton,
                  reduced_jacobian, reduced_newton, reduced_residual)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig", "BETA_FLOOR", "BasisMatrix", "BifurcationDiagram",
    "Bratu1D", "ChafeeInfante1D", "DeflationOperator", "EnrichResult",
    "ErrorRow", "ErrorSweep", "EstimatorKind", "EstimatorSet",
    "GreedyConfig", "GreedyReport", "GreedyStatus", "ModelKind",
    "NewtonConfig", "PODResult", "ParameterSpace", "ParametricModel",
    "RootSet", "SolutionEnsemble", "SolveResult", "adaptive_greedy",
    "argmin_beta", "beta_sweep", "branchwise_pod",
    "deflated_estimator_sweep", "deflated_greedy", "deflated_newton",
    "discover_solutions", "error_sweep", "error_vs_n", "estimator_sweep",
    "inf_sup", "linear_estimate", "make_model", "newton",
    "nonlinear_estimate", "pod_basis", "reduced_deflated_newton",
    "reduced_jacobian", "reduced_newton", "reduced_residual",
    "relative_error", "residual_dual_norm", "solution_ensemble",
    "vanilla_greedy",
]
