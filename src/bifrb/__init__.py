"""Certified reduced bases for 1D nonlinear PDE models with bifurcations.

The package discovers coexisting solution branches of parametric
reaction-diffusion problems with deflated Newton iterations, compresses them
into X-orthonormal reduced bases (greedy variants or proper orthogonal
decomposition), certifies reduced solutions with residual-based a-posteriori
bounds, and post-processes everything into labeled diagrams and error tables.

`import bifrb` loads every layer; names are imported from their modules
(`from bifrb.nlsolve import newton`).
"""
from . import analysis, estimators, greedy, model, nlsolve, pod, rom

__version__ = "0.1.0"

__all__ = ["analysis", "estimators", "greedy", "model", "nlsolve", "pod", "rom"]
