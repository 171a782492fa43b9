"""Alternating proximal-gradient minimization of the per-component M-step
objective over the product of a Stiefel manifold and R^n.

The objective is assembled from sufficient statistics only, so one solve
costs the same no matter how many samples produced the statistics. With
b held fixed and the scatter about b written as S and the weighted
residual as r, the objective reads

    G(U, b) = -(tr(U^T S U) - ||r||^2 / w) / sigma^2
              - r^T U (U^T S U)^{-1} U^T r
              + w log det(U^T S U),

where w is the total responsibility mass. The proximal step on U is the
projection onto the set of matrices with orthonormal columns; the b block
is unconstrained.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    InvalidShape,
    LineSearchFailed,
    NotPositiveDefinite,
    RankDeficient,
)
from .linalg import project_stiefel, solve_triangular, stiefel_defect, try_cholesky
from .stats import SufficientStats

# An accepted step must decrease G by at least
# tau * (1 - 1/BACKTRACK_MARGIN) / 2 * ||step||^2.
BACKTRACK_MARGIN = 1.1
MAX_BACKTRACKS = 60

# Steps below this scale are numerical noise from the projection; they are
# treated as no movement so stationary starts terminate cleanly.
_STEP_DEADBAND = 1e-14

# A candidate whose required sufficient decrease is below the floating-point
# noise of the objective cannot be validated; the block is numerically
# stationary and the step is treated as no movement.
_NOISE_FLOOR = 1e-10


@dataclass(frozen=True)
class MStepProblem:
    """Inputs of one component's M-step objective."""

    stats: SufficientStats
    sigma: float
    n: int
    d: int

    def __post_init__(self):
        if not (self.sigma > 0.0 and self.stats.weight > 0.0):
            raise InvalidParameter(
                f"need sigma > 0 and weight > 0, got sigma={self.sigma}, "
                f"weight={self.stats.weight}"
            )
        if not (self.stats.sum_x.size == self.n and 1 <= self.d <= self.n):
            raise InvalidShape(
                f"need 1 <= d <= n = {self.stats.sum_x.size}, got n={self.n}, "
                f"d={self.d}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Step-size, extrapolation and stopping parameters.

    tol_step=None resolves to 1e-7 * sqrt(n*d + n) for the problem at hand.
    backtrack_factor relaxes the accepted curvature estimates between outer
    iterations so step sizes can grow again; lipschitz_growth inflates them
    when the sufficient-decrease test rejects a step.
    """

    max_iters: int = 100
    tol_step: float | None = None
    backtrack_factor: float = 0.9
    lipschitz_growth: float = 2.0
    extrapolation: str = "dynamic"  # "none" or "dynamic", (r-1)/(r+2)

    def __post_init__(self):
        if not (
            self.max_iters >= 1
            and (self.tol_step is None or self.tol_step > 0.0)
            and 0.0 < self.backtrack_factor < 1.0
            and self.lipschitz_growth > 1.0
            and self.extrapolation in ("none", "dynamic")
        ):
            raise InvalidParameter(f"invalid solver configuration {self}")


def _chol_projected(S, U):
    T = U.T @ S @ U
    L = try_cholesky(0.5 * (T + T.T))
    if L is None:
        raise NotPositiveDefinite(
            "projected scatter U^T S U is not positive definite"
        )
    return T, L


def _eval(problem, S, r, U):
    w = problem.stats.weight
    sig2 = problem.sigma**2
    T, L = _chol_projected(S, U)
    v = U.T @ r
    y = solve_triangular(L, v, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(
        -(np.trace(T) - r @ r / w) / sig2 - y @ y + w * logdet
    )


def _grad_U(problem, S, r, U):
    w = problem.stats.weight
    sig2 = problem.sigma**2
    T, L = _chol_projected(S, U)
    v = U.T @ r
    z = solve_triangular(L, v, lower=True)
    t = solve_triangular(L.T, z, lower=False)  # t = T^{-1} U^T r
    SU = S @ U
    # SU T^{-1} through the factor, one triangular solve pair per column
    SUTinv = solve_triangular(
        L.T, solve_triangular(L, SU.T, lower=True), lower=False
    ).T
    return (
        -(2.0 / sig2) * SU
        - 2.0 * np.outer(r, t)
        + 2.0 * SU @ np.outer(t, t)
        + 2.0 * w * SUTinv
    )


def _grad_b(problem, S, r, U):
    w = problem.stats.weight
    sig2 = problem.sigma**2
    T, L = _chol_projected(S, U)
    v = U.T @ r
    z = solve_triangular(L, v, lower=True)
    t = solve_triangular(L.T, z, lower=False)
    # perpendicular residual pull plus the in-subspace log-volume trade-off
    return -(2.0 / sig2) * (r - U @ v) - 2.0 * float(z @ z) * (U @ t)


def eval_G(problem, U, b):
    """Value of the M-step objective at (U, b)."""
    S, r = problem.stats.scatter_about(b)
    return _eval(problem, S, r, U)


def grad_G_U(problem, U, b):
    """Euclidean gradient of the objective with respect to U.

    Matches central finite differences of eval_G in the ambient space.
    """
    S, r = problem.stats.scatter_about(b)
    return _grad_U(problem, S, r, U)


def grad_G_b(problem, U, b):
    """Gradient of the objective with respect to b.

    Note the component along span(U) is a nonlinear function of b; only the
    part in ker(U^T) is affine in b.
    """
    S, r = problem.stats.scatter_about(b)
    return _grad_b(problem, S, r, U)


def _perturb_tangent(U, rng, scale=1e-6):
    noise = rng.standard_normal(U.shape)
    noise -= U @ (U.T @ noise)
    return project_stiefel(U + scale * noise)


def _leading_eigenvalue(S):
    v = np.full(S.shape[0], S.shape[0] ** -0.5)
    for _ in range(8):
        w = S @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ S @ v)


def _initial_tau(problem, S):
    # curvature scales of the dominant quadratic terms; backtracking corrects
    # underestimates, the relaxation factor corrects overestimates
    sig2 = problem.sigma**2
    w = problem.stats.weight
    tau_u = max(1.0, 2.0 * _leading_eigenvalue(S) / sig2)
    tau_b = max(1.0, 4.0 * w / sig2)
    return tau_u, tau_b


def palm_minimize(problem, U0, b0, config=None):
    """Alternating projected-gradient descent on G from (U0, b0).

    Returns (U, b, trace) where trace holds the objective value at the start
    and after every outer iteration; the trace is nonincreasing because every
    block step passes a sufficient-decrease test.
    """
    return _minimize(problem, U0, b0, config or SolverConfig(), inertial=False)


def ipalm_minimize(problem, U0, b0, config=None):
    """Inertial variant with extrapolation factor (r-1)/(r+2) per block.

    An extrapolated step that would increase G is recomputed as a plain
    backtracked step, so the returned trace is nonincreasing as well. With
    extrapolation="none" this is exactly palm_minimize.
    """
    config = config or SolverConfig()
    return _minimize(
        problem, U0, b0, config, inertial=(config.extrapolation == "dynamic")
    )


def _minimize(problem, U0, b0, config, inertial):
    U = np.array(U0, dtype=float)
    b = np.array(b0, dtype=float)
    tol = config.tol_step
    if tol is None:
        tol = 1e-7 * np.sqrt(problem.n * problem.d + problem.n)
    growth = config.lipschitz_growth

    S, r = problem.stats.scatter_about(b)
    try:
        G = _eval(problem, S, r, U)
    except NotPositiveDefinite:
        # degenerate projected scatter at the start; nudge off the bad frame
        U = _perturb_tangent(U, np.random.default_rng(0))
        G = _eval(problem, S, r, U)

    tau_u, tau_b = _initial_tau(problem, S)
    trace = [G]
    U_prev, b_prev = U, b

    for it in range(1, config.max_iters + 1):
        gamma = (it - 1.0) / (it + 2.0) if inertial else 0.0

        # U block
        new_U, new_G, step_u, tau_u = _u_step(
            problem, S, r, U, U_prev, b, G, gamma, tau_u, growth
        )
        U_prev = U
        if new_U is not None:
            U, G = new_U, new_G

        # b block (gradient taken at the updated U)
        new_b, new_G, step_b, tau_b = _b_step(
            problem, U, b, b_prev, G, gamma, tau_b, growth
        )
        b_prev = b
        if new_b is not None:
            b, G = new_b, new_G
            S, r = problem.stats.scatter_about(b)

        trace.append(G)
        if np.hypot(step_u, step_b) < tol:
            break
        tau_u *= config.backtrack_factor
        tau_b *= config.backtrack_factor

    assert stiefel_defect(U) <= 1e-10
    return U, b, np.asarray(trace)


def _u_step(problem, S, r, U, U_prev, b, G, gamma, tau, growth):
    if gamma > 0.0:
        Uy = U + gamma * (U - U_prev)
        try:
            g = _grad_U(problem, S, r, Uy)
            cand = project_stiefel(Uy - g / tau)
            cand_G = _eval(problem, S, r, cand)
            if cand_G <= G:
                return cand, cand_G, float(np.linalg.norm(cand - U)), tau
        except (NotPositiveDefinite, RankDeficient):
            pass  # fall through to the monotone step

    g = _grad_U(problem, S, r, U)
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        try:
            cand = project_stiefel(U - g / tau)
        except RankDeficient:
            tau *= growth
            continue
        step2 = float(np.sum((cand - U) ** 2))
        required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
        if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (1.0 + abs(G)):
            # numerically stationary: no validated descent is available, so
            # stay put and do not let the escalated curvature estimate leak
            # into later iterations
            return None, G, 0.0, tau_in
        try:
            cand_G = _eval(problem, S, r, cand)
        except NotPositiveDefinite:
            tau *= growth
            continue
        if G - cand_G >= required:
            return cand, cand_G, np.sqrt(step2), tau
        tau *= growth
    raise LineSearchFailed(f"no acceptable frame step after {MAX_BACKTRACKS} tries")


def _b_step(problem, U, b, b_prev, G, gamma, tau, growth):
    if gamma > 0.0:
        by = b + gamma * (b - b_prev)
        Sy, ry = problem.stats.scatter_about(by)
        try:
            g = _grad_b(problem, Sy, ry, U)
            cand = by - g / tau
            Sc, rc = problem.stats.scatter_about(cand)
            cand_G = _eval(problem, Sc, rc, U)
            if cand_G <= G:
                return cand, cand_G, float(np.linalg.norm(cand - b)), tau
        except NotPositiveDefinite:
            pass

    S, r = problem.stats.scatter_about(b)
    g = _grad_b(problem, S, r, U)
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        cand = b - g / tau
        step2 = float(np.sum((cand - b) ** 2))
        required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
        if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (1.0 + abs(G)):
            return None, G, 0.0, tau_in
        Sc, rc = problem.stats.scatter_about(cand)
        try:
            cand_G = _eval(problem, Sc, rc, U)
        except NotPositiveDefinite:
            tau *= growth
            continue
        if G - cand_G >= required:
            return cand, cand_G, np.sqrt(step2), tau
        tau *= growth
    raise LineSearchFailed(f"no acceptable offset step after {MAX_BACKTRACKS} tries")
