"""P1 finite-element discretizations of two parametric 1D boundary value problems.

Both problems live on (0, 1) with homogeneous Dirichlet conditions and a scalar
parameter mu multiplying the nonlinearity:

    Bratu            -u'' - mu * exp(u)     = 0   (fold of two branches)
    Chafee-Infante   -u'' - mu * (u - u**3) = 0   (pitchfork at mu = pi**2)

Boundary dofs are eliminated, so a state vector holds the mesh_size interior
nodal values.  The energy inner product <u, v>_X = int u' v' dx (stiffness
matrix) is used for all norms, projections and error measures.  Nonlinear
terms are integrated with a two-point Gauss rule per element.

X and the Jacobian are tridiagonal and are kept as (3, mesh_size) band arrays
(`x_bands`, `jacobian_bands`; rows: super-, main and subdiagonal): X products
(`x_apply`), dual norms (a banded Cholesky factor of X) and the full-order
Newton step (LAPACK `dgtsv`) all cost O(mesh_size).  Reduced solvers never
assemble at full order.  For a cubic source (chafee) `reduced_tensors` turns
the basis values at the Gauss points (`gauss_matrix`) into the exact Galerkin
tensors of the source, so a reduced iterate of a small basis (N^2 at most
a quarter of the 2(m+1) Gauss points and at most 512, see `rom`) visits no
Gauss point.  For any other source (bratu) it gives None, and the reduced
solvers, like those of a larger chafee basis, apply the same quadrature to
the coefficients through `source` and `source_prime`.  Only `jacobian()`
expands bands into a dense matrix.  The Sobolev constants of the Lipschitz
bounds are closed forms of the continuous space, which hold on every mesh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dgtsv, dpbtrs, dstebz

__all__ = [
    "ModelKind",
    "ParameterSpace",
    "ParametricModel",
    "Bratu1D",
    "ChafeeInfante1D",
    "make_model",
    "form_norm",
    "sturm_count",
    "RHO4",
]

# Two-point Gauss nodes t on [0, 1], the left hat function 1 - t and their products.
_GAUSS_T = np.array([0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0))])
_GAUSS_S = 1.0 - _GAUSS_T
_GAUSS_SS, _GAUSS_TT, _GAUSS_TS = _GAUSS_S**2, _GAUSS_T**2, _GAUSS_T * _GAUSS_S

# Sharp constant of ||v||_{L4} <= RHO4 ||v'||_{L2} on H^1_0(0, 1) (Talenti 1976):
# (2 sqrt2 A^3 J)^(-1/4), A = 2 sqrt2 K, K = B(1/4, 1/2)/4, J = B(5/4, 1/2)/4, B = Beta.
_K = math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75) / 4.0
_J = math.gamma(1.25) * math.gamma(0.5) / math.gamma(1.75) / 4.0
RHO4 = (2.0 * math.sqrt(2.0) * (2.0 * math.sqrt(2.0) * _K) ** 3 * _J) ** -0.25

# Doubles of the pair matrix P that `reduced_tensors` holds at once (1 MB).
_PAIR_BLOCK = 2**17


class ModelKind(str, Enum):
    BRATU1D = "bratu"
    CHAFEE_INFANTE1D = "chafee"


def _check_interval(lower: float, upper: float) -> None:
    if not (lower < upper and math.isfinite(float(upper) - float(lower))):
        raise ValueError("parameter interval must be finite, with lower < upper and a "
                         f"finite width upper - lower (got [{lower}, {upper}])")


@dataclass(frozen=True)
class ParameterSpace:
    """Closed parameter interval with an ordered training grid inside it."""

    lower: float
    upper: float
    train_points: tuple[float, ...]

    def __post_init__(self):
        _check_interval(self.lower, self.upper)
        pts = np.asarray(self.train_points, dtype=float)
        if pts.size < 1:
            raise ValueError("training grid must contain at least one point")
        # Written so that a NaN point fails every comparison and is refused.
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("training grid must be strictly increasing")
        if not self.lower <= pts[0] <= pts[-1] <= self.upper:
            raise ValueError("training grid must lie inside [lower, upper]")
        object.__setattr__(self, "train_points", tuple(float(p) for p in pts))

    @classmethod
    def equispaced(cls, lower: float, upper: float, n_train: int) -> "ParameterSpace":
        _check_interval(lower, upper)  # before linspace, which warns on non-finite ends
        if n_train < 2:
            raise ValueError(f"equispaced grid needs n_train >= 2 (got {n_train})")
        return cls(lower, upper, tuple(np.linspace(lower, upper, n_train)))

    def with_points(self, extra: np.ndarray) -> "ParameterSpace":
        """New space whose grid is the sorted union with `extra` (deduplicated)."""
        merged = np.unique(np.concatenate([np.asarray(self.train_points), np.asarray(extra, dtype=float)]))
        # Drop near-duplicates that only differ by roundoff of the grid arithmetic.
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * (self.upper - self.lower)])
        return ParameterSpace(self.lower, self.upper, tuple(merged[keep]))

    def __len__(self) -> int:
        return len(self.train_points)


class ParametricModel:
    """Shared FE machinery; subclasses provide the nonlinear source term g(u).

    The residual of the weak form reads

        G(u; mu) = K u - mu * load(g(u)),      Jac(u; mu) = K - mu * M_w(g'(u)),

    with K the stiffness matrix, load(.) the Gauss-quadrature load vector and
    M_w(.) the weighted mass matrix with pointwise weight g'(u).  Every Gauss
    point carries the same quadrature weight `gauss_weight` = h / 2.
    """

    kind: ModelKind
    # End of the parameter range with the fewest coexisting branches; sampling
    # strategies take their first snapshot there.
    uniqueness_side = "upper"

    def __init__(self, mesh_size: int = 201):
        if not (isinstance(mesh_size, (int, np.integer)) and mesh_size >= 1):
            raise ValueError(f"mesh_size must be a positive integer (got {mesh_size!r})")
        self.mesh_size = int(mesh_size)
        self.h = 1.0 / (self.mesh_size + 1)
        self.nodes = self.h * np.arange(1, self.mesh_size + 1)
        self.gauss_weight = 0.5 * self.h
        self.x_bands = np.zeros((3, self.mesh_size))
        self.x_bands[1] = 2.0 / self.h
        self.x_bands[0, 1:] = self.x_bands[2, :-1] = -1.0 / self.h
        # Upper banded Cholesky factor of X, for the dual norm.
        self._x_chol = cholesky_banded(self.x_bands[:2])
        self._pinned: list | None = None

    def pin(self, u: np.ndarray | None) -> None:
        """Reuse the Gauss values of the array object `u` until the next pin.

        While `u` is pinned, `residual` and `jacobian_bands` of that same
        object evaluate its Gauss values once between them.  The caller must
        not change `u` in place while it is pinned; pin(None) unpins.
        """
        self._pinned = None if u is None else [u, None]

    def _state_values(self, u: np.ndarray) -> np.ndarray:
        """`_gauss_values(u)`, evaluated only once for the pinned array."""
        pinned = self._pinned
        if pinned is None or pinned[0] is not u:
            return self._gauss_values(u)
        if pinned[1] is None:
            pinned[1] = self._gauss_values(u)
        return pinned[1]

    # -- assembly -----------------------------------------------------------

    def _gauss_values(self, u: np.ndarray) -> np.ndarray:
        """State values at the two Gauss points of every element, shape (m+1, 2)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.mesh_size,):
            raise ValueError(f"state vector must have shape ({self.mesh_size},)")
        ue = np.zeros(self.mesh_size + 2)
        ue[1:-1] = u
        return ue[:-1, None] * _GAUSS_S + ue[1:, None] * _GAUSS_T

    def gauss_matrix(self, columns: np.ndarray) -> np.ndarray:
        """Values of every column at the 2(m+1) Gauss points, shape (2(m+1), N).

        Row 2e + q is Gauss point q of element e, the order of
        `_gauss_values(u).ravel()`, so that `gauss_matrix(B) @ c` equals the
        Gauss values of the state `B @ c`.
        """
        columns = np.asarray(columns, dtype=float).reshape(self.mesh_size, -1)
        phi = np.empty((2 * (self.mesh_size + 1), columns.shape[1]))
        for j, col in enumerate(columns.T):
            phi[:, j] = self._gauss_values(col).ravel()
        return phi

    def _load(self, values: np.ndarray) -> np.ndarray:
        """Load vector int f(x) phi_i dx from per-Gauss-point values f, shape (m+1, 2)."""
        wv = self.gauss_weight * values
        return (wv @ _GAUSS_T)[:-1] + (wv @ _GAUSS_S)[1:]

    def _weighted_mass_bands(self, weights: np.ndarray) -> np.ndarray:
        """Bands of int w(x) phi_i phi_j dx from per-Gauss-point weights, shape (m+1, 2)."""
        ww = self.gauss_weight * weights
        d11, d22, d12 = ww @ _GAUSS_SS, ww @ _GAUSS_TT, ww @ _GAUSS_TS
        M = np.zeros((3, self.mesh_size))
        M[1] = d22[:-1] + d11[1:]
        M[0, 1:] = d12[1:-1]
        M[2, :-1] = d12[1:-1]
        return M

    def source(self, v: np.ndarray) -> np.ndarray:
        """Nonlinear source g(v), elementwise on Gauss-point values."""
        raise NotImplementedError

    def source_prime(self, v: np.ndarray) -> np.ndarray:
        """Derivative g'(v), elementwise on Gauss-point values."""
        raise NotImplementedError

    def reduced_tensors(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Exact Galerkin tensors (L, C) of a cubic source g(v) = a v + b v^3, else None.

        `phi` holds N basis columns at the Gauss points (`gauss_matrix`).  L is
        the N x N matrix a phi^T phi and C the N^2 x N^2 matrix b P^T P, with
        P_q,(ij) = phi_qi phi_qj, so that for C(u, u) = reshape((u (x) u) C, (N, N))

            phi^T g(phi u) = L u + C(u, u) u,   phi^T diag(g'(phi u)) phi = L + 3 C(u, u).
        """
        return None

    def residual(self, u: np.ndarray, mu: float) -> np.ndarray:
        g = self.source(self._state_values(u))
        return self.x_apply(u) - mu * self._load(g)

    def jacobian_bands(self, u: np.ndarray, mu: float) -> np.ndarray:
        """Tridiagonal Jac(u; mu) as a (3, m) band array: super-, main, subdiagonal.

        Row 0 holds the superdiagonal in columns 1..m-1 and row 2 the
        subdiagonal in columns 0..m-2 (LAPACK's banded layout); the two
        unused corners are zero.
        """
        gp = self.source_prime(self._state_values(u))
        return self.x_bands - mu * self._weighted_mass_bands(gp)

    def jacobian(self, u: np.ndarray, mu: float) -> np.ndarray:
        """Dense Jac(u; mu), expanded from `jacobian_bands`."""
        return _expand_bands(self.jacobian_bands(u, mu))

    def newton_step(self, u: np.ndarray, mu: float, r: np.ndarray) -> np.ndarray:
        """Solve Jac(u; mu) du = -r by LAPACK `dgtsv`; LinAlgError on a zero pivot.

        At mesh_size 1, whose empty off-diagonals `dgtsv` rejects, du = -r / Jac.
        NaN entries propagate into du for the solvers to report as non-finite.
        """
        ab = self.jacobian_bands(u, mu)
        if self.mesh_size == 1:
            if ab[1, 0] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            return -r / ab[1]
        du, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -r)[3:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return du

    def morse_index(self, u: np.ndarray, mu: float) -> int:
        """Number of eigenvalues <= 0 of Jac(u; mu), by one Sturm count on its bands."""
        return sturm_count(self.jacobian_bands(u, mu))

    # -- geometry -----------------------------------------------------------

    def x_apply(self, v: np.ndarray) -> np.ndarray:
        """X v for a state vector or X V for an (m, k) matrix of states, on the band."""
        v = np.asarray(v, dtype=float).T  # states along the last axis
        diag, off = self.x_bands[1], self.x_bands[0, 1:]
        out = diag * v
        out[..., :-1] += off * v[..., 1:]
        out[..., 1:] += off * v[..., :-1]
        return out.T

    def x_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ self.x_apply(v))

    def x_norm(self, u: np.ndarray) -> float:
        return form_norm(self.x_inner(u, u))

    def x_dual_norm(self, g: np.ndarray) -> float:
        """Norm of a residual/functional vector in the dual metric X^{-1} (inf if non-finite)."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.mesh_size,):
            raise ValueError(f"functional vector must have shape ({self.mesh_size},)")
        # LAPACK's banded Cholesky solve, called directly (as is `dgtsv` in
        # `newton_step`): at these sizes scipy's wrappers mostly dispatch.
        return form_norm(float(g @ dpbtrs(self._x_chol, g)[0]))

    def interpolate(self, f) -> np.ndarray:
        return np.asarray(f(self.nodes), dtype=float)

    def value_at(self, u: np.ndarray, x: float) -> float:
        """Piecewise-linear evaluation of the FE function at a point of [0, 1]."""
        ue = np.concatenate([[0.0], np.asarray(u, dtype=float), [0.0]])
        grid = np.concatenate([[0.0], self.nodes, [1.0]])
        return float(np.interp(x, grid, ue))

    def midpoint_value(self, u: np.ndarray) -> float:
        return self.value_at(u, 0.5)

    # -- model-specific constants ------------------------------------------

    def embedding_constant(self, p: float) -> float:
        """Sobolev constant rho_p with ||v||_{L^p} <= rho_p ||v'||_{L2} on H^1_0(0, 1).

        p = inf gives the sharp 1/2, p = 4 the sharp `RHO4` (G. Talenti, "Best
        constant in Sobolev inequality", 1976).  The P1 space lies in H^1_0, so
        they bound the exact ratio of every discrete state on every mesh, and
        the two-point Gauss value of int v^4 too: on a linear piece v^4 has a
        positive fourth derivative, so that rule never exceeds the exact integral.
        """
        if p == np.inf:
            return 0.5
        if p == 4:
            return RHO4
        raise ValueError("only p = 4 and p = inf are supported")

    def lipschitz_constant(self, u: np.ndarray, mu: float, radius: float) -> float:
        """Jacobian Lipschitz bound on the X-ball of `radius` around state `u`."""
        raise NotImplementedError

    # -- defaults used by the solvers and samplers -------------------------

    @property
    def default_guess(self) -> np.ndarray:
        return self.default_guesses[0]

    @property
    def default_guesses(self) -> list[np.ndarray]:
        raise NotImplementedError

    def default_interval(self) -> tuple[float, float]:
        raise NotImplementedError


class Bratu1D(ParametricModel):
    """-u'' - mu e^u = 0; two branches folding at mu* ~ 3.5138, none beyond.

    The guess battery is an amplitude ladder: the zero guess sits in the lower
    branch's Newton basin, while the upper branch (deflated or plain) is only
    reachable from guesses of comparable amplitude since the full-step deflated
    iteration started at zero bounces chaotically and blows up.
    """

    kind = ModelKind.BRATU1D

    def source(self, v):
        return np.exp(v)

    def source_prime(self, v):
        return np.exp(v)

    def lipschitz_constant(self, u, mu, radius):
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        rho = self.embedding_constant(np.inf)
        return float(mu * rho**2 * np.exp(rho * (self.x_norm(u) + radius)))

    @property
    def default_guesses(self):
        bump = self.interpolate(lambda x: 4.0 * x * (1.0 - x))
        return [np.zeros(self.mesh_size), 2.0 * bump, 4.0 * bump]

    def default_interval(self):
        return (0.5, 2.0)


class ChafeeInfante1D(ParametricModel):
    """-u'' - mu (u - u^3) = 0; pitchfork from the zero branch at mu = pi^2.

    The zero vector solves the discrete problem exactly for every mu, so the
    default initial guesses are the +-sin(pi x) interpolants: a zero guess
    would sit on the trivial root and Newton could never leave it.
    """

    kind = ModelKind.CHAFEE_INFANTE1D
    # Below pi^2 the zero branch is the only solution.
    uniqueness_side = "lower"

    def source(self, v):
        # Explicit products: numpy sends the integer power v**3 through libm
        # pow, about ten times slower and within an ulp of the same values.
        return v - v * v * v

    def source_prime(self, v):
        return 1.0 - 3.0 * v**2

    def reduced_tensors(self, phi):
        # a = 1, b = -1.  P^T P is summed over blocks of Gauss points, one BLAS
        # call (a symmetric rank-k update) a block, so that no more than
        # _PAIR_BLOCK doubles of P exist at once beside C itself; einsum's
        # chosen contraction path was over a hundred times slower.
        n = phi.shape[1]
        rows = max(1, _PAIR_BLOCK // (n * n))
        cub = np.zeros((n * n, n * n))
        for start in range(0, len(phi), rows):
            block = phi[start:start + rows]
            pairs = (block[:, :, None] * block[:, None, :]).reshape(len(block), n * n)
            cub -= pairs.T @ pairs
        return phi.T @ phi, cub

    def lipschitz_constant(self, u, mu, radius):
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        rho4 = self.embedding_constant(4)
        return float(6.0 * mu * rho4**2 * (self.x_norm(u) + radius))

    @property
    def default_guesses(self):
        guess = self.interpolate(lambda x: np.sin(np.pi * x))
        return [guess, -guess]

    def default_interval(self):
        return (5.0, 15.0)


def form_norm(q: float) -> float:
    """sqrt(q) of a quadratic form q = v^T A v, A SPD, or inf when q overflowed to
    +-inf/nan, so a huge state takes the solvers' divergence path, not a zero norm."""
    return math.sqrt(max(q, 0.0)) if math.isfinite(q) else math.inf


def sturm_count(bands: np.ndarray) -> int:
    """Number of eigenvalues <= 0 of a symmetric tridiagonal (3, m) band array.

    One Sturm sequence, O(m): `dstebz` with ABSTOL = 1e300 only counts.  By
    Sylvester's law of inertia the count of A - s B, B SPD, is the number of
    pencil eigenvalues A v = lam B v at or below s.
    """
    o = min(bands.shape[1] - 1, 1)  # LAPACK wants an off-diagonal even at m = 1
    return dstebz(bands[1], bands[0, o:], 1, -1e300, 0, 0, 0, 1e300, "B")[0]


def _expand_bands(bands: np.ndarray) -> np.ndarray:
    """Dense square matrix from a (3, m) tridiagonal band array."""
    m = bands.shape[1]
    A = np.zeros((m, m))
    idx = np.arange(m)
    A[idx, idx] = bands[1]
    A[idx[:-1], idx[:-1] + 1] = bands[0, 1:]
    A[idx[1:], idx[1:] - 1] = bands[2, :-1]
    return A


def make_model(kind: ModelKind | str, mesh_size: int = 201) -> ParametricModel:
    kind = ModelKind(kind)
    if kind is ModelKind.BRATU1D:
        return Bratu1D(mesh_size)
    return ChafeeInfante1D(mesh_size)
