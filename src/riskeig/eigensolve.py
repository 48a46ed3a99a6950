"""Principal eigenpair of the discretized operator and HJB policy iteration.

The assembled matrix A has nonnegative off-diagonal entries, so for any
positive vector v the Collatz-Wielandt ratios r = (A v)/v bracket the
principal eigenvalue: min r <= lambda <= max r.  The eigensolver is Noda
iteration: inverse iteration whose shift is moved every step to the upper
bracket end, hi = max r.  Since hi >= lambda, hi I - A stays a nonsingular
M-matrix, its inverse is nonnegative and the iterates stay positive; the
bracket shrinks quadratically (Noda 1971, Elsner 1976).  Each shifted system
is solved with an exact sparse LU factorization plus one step of iterative
refinement, the same single path in 1-D and 2-D; the refinement keeps the
nearly singular solves close to the end accurate enough for the bracket to
reach the rounding floor.  The reported eigenvalue is the bracket midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import (
    Grid,
    OperatorMatrix,
    Policy,
    _drift_weights,
    _nonnegative_cost,
    _policy_coefficients,
    _shifted,
    assemble_fields,
    diffusion_edges,
)
from .errors import ConvergenceError, InvariantError
from .model import Model

DEFAULT_EIGEN_TOL = 1e-10
DEFAULT_PI_TOL = 1e-12
MAX_POLICY_SWEEPS = 100
# Noda steps in a row without a narrower bracket before the solve gives up
STALL_STEPS = 3


@dataclass
class EigenPair:
    """Principal eigenvalue with its positive eigenfunction (origin-normalized).

    ``bracket`` is the Collatz-Wielandt enclosure (min, max) of (A v)/v that
    contains the eigenvalue of the discrete operator.
    """

    eigenvalue: float
    v: np.ndarray
    residual: float
    iterations: int
    bracket: tuple[float, float]


def principal_eigenpair(
    op: OperatorMatrix,
    tol: float = DEFAULT_EIGEN_TOL,
    max_iter: int = 100_000,
    v0: np.ndarray | None = None,
) -> EigenPair:
    """Noda iteration for the principal (largest-real) eigenvalue.

    Iteration k evaluates the ratios (A v)/v of the current iterate (the
    first one evaluates the start vector ``v0``, all ones by default) and
    then takes one Noda step.  Convergence is declared on the pointwise
    relative defect max_i |(A v - lambda v)_i| / v_i = (max - min)/2 of the
    ratios, <= tol, which is stronger than the sup-norm residual reported
    back.  A bracket that stops shrinking for ``STALL_STEPS`` steps raises
    ConvergenceError rather than running on to ``max_iter``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    A = op.entries
    n = A.shape[0]
    if n == 1:
        lam = float(A[0, 0])
        return EigenPair(lam, np.ones(1), 0.0, 0, (lam, lam))

    if op.off_diagonal_min() < 0:
        raise InvariantError("operator lost its nonnegative off-diagonal structure")

    # rounding in A@v scales with the row magnitude (~ 2 a / h^2), so a defect
    # below eps * row_scale is unreachable; relax the target to that floor
    row_scale = float(np.max(np.abs(A).sum(axis=1)))
    eff_tol = max(tol, 4.0 * np.finfo(float).eps * row_scale)

    anchor = op.grid.origin_index
    if v0 is None:
        v = np.ones(n)
    else:
        v = np.array(v0, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)) or np.min(v) <= 0.0:
            raise ValueError(f"start vector must be {n} finite positive entries")
        v /= v[anchor]
    eye = sp.identity(n, format="csc")
    A_csc = A.tocsc()

    history: list[tuple[float, float]] = []
    best_width = float("inf")
    stalled = 0
    for it in range(1, max_iter + 1):
        if it > 1:
            shifted = hi * eye - A_csc
            # the stencils are structurally symmetric, and a minimum-degree
            # ordering of A^T + A roughly halves 2-D fill next to COLAMD's
            try:
                lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                # hi sits exactly on an eigenvalue while lo lags behind, as
                # happens when decoupled blocks make A reducible
                raise ConvergenceError(
                    f"Noda shift {hi:.17g} made the shifted matrix singular "
                    f"with the bracket still {hi - lo:.3g} wide",
                    payload={"eigenpair": pair, "bracket_history": history},
                ) from exc
            w = lu.solve(v)
            # one refinement step: near the singular shift the plain solve is
            # too noisy for the bracket to close down to the rounding floor
            w += lu.solve(v - shifted @ w)
            if not np.all(np.isfinite(w)) or np.min(w) <= 0.0:
                raise InvariantError(
                    "Noda iterate lost positivity; the shifted matrix is "
                    "not acting as an inverse M-matrix",
                    payload={"iteration": it, "min_entry": float(np.min(w))},
                )
            v = w / w[anchor]
        Av = A @ v
        ratios = Av / v
        lo, hi = float(ratios.min()), float(ratios.max())
        lam = 0.5 * (lo + hi)
        residual = float(np.max(np.abs(Av - lam * v)) / np.max(v))
        pair = EigenPair(lam, v, residual, it, (lo, hi))
        history.append((lo, hi))
        width = hi - lo
        if 0.5 * width <= eff_tol:
            return pair
        if width < best_width:
            best_width, stalled = width, 0
        else:
            stalled += 1
            if stalled >= STALL_STEPS:
                raise ConvergenceError(
                    f"eigensolve bracket stalled at width {best_width:.3g} above "
                    f"2 * {eff_tol:.3g} after {it} iterations",
                    payload={"eigenpair": pair, "bracket_history": history},
                )

    raise ConvergenceError(
        f"eigensolve did not reach tol={tol:g} in {max_iter} iterations",
        payload={"eigenpair": pair, "bracket_history": history},
    )


@dataclass
class HjbSolution:
    """A solve on ``grid``: the eigenpair, and the policy and b, c, a it was solved under.

    ``stationary`` says the policy is the improvement of the eigenfunction
    itself, so b, c are the Hamiltonian's minimizing rows at v.  ``scheme``,
    ``pi_tol`` and ``eigen_tol`` are the settings the solve ran under; the
    checks of a solve read them from here.
    """

    grid: Grid
    eigenpair: EigenPair
    policy: Policy
    policy_sweeps: int
    lambda_history: list[float]
    b: np.ndarray              # drift b(x, policy(x)), (n, dim)
    c: np.ndarray              # running cost c(x, policy(x)), (n,)
    a: np.ndarray              # covariance a(x), (n, dim, dim)
    stationary: bool
    scheme: str
    pi_tol: float
    eigen_tol: float

    def to_json_dict(self) -> dict:
        pair, grid = self.eigenpair, self.grid
        return {
            "lambda": float(pair.eigenvalue),
            "residual": float(pair.residual),
            "bracket": [float(b) for b in pair.bracket],
            "iterations": int(pair.iterations),
            "grid": {"r": grid.radius, "h": grid.spacing, "dim": grid.dim},
            "v": [float(x) for x in pair.v],
            "policy": [int(i) for i in self.policy.indices],
        }


def _improve_policy(model: Model, grid: Grid, v: np.ndarray, a: np.ndarray, scheme: str):
    """Pointwise argmin of the Hamiltonian over the action set (ties -> lowest index).

    The diffusion part of a row is the same for every action, so only the
    drift/cost part b(x,u) . D v + c(x,u) v is compared, with the weights
    assembly uses; the minimizing action's row of the assembled matrix is
    then the discrete Hamiltonian at v.  The winning drift and cost rows are
    returned with the policy, so assembly under it evaluates nothing.
    """
    edges = diffusion_edges(a, grid.dim)
    h = grid.spacing
    neighbors = [(_shifted(v, grid, d, 1), _shifted(v, grid, d, -1)) for d in range(grid.dim)]
    best_vals = np.full(grid.n, np.inf)
    best_idx = np.zeros(grid.n, dtype=np.int64)
    for ai, u in enumerate(model.actions):
        b = model.drift_at(grid.nodes, u)
        c = model.cost_at(grid.nodes, u)
        vals = c * v
        for d, (vp, vm) in enumerate(neighbors):
            up, dn, dg = _drift_weights(b[:, d], edges[d], h, scheme)
            vals += up * vp + dn * vm + dg * v
        better = vals < best_vals
        best_vals = np.where(better, vals, best_vals)
        best_idx[better] = ai
        if ai == 0:  # every node starts on the first action, as best_idx does
            best_b, best_c = b.copy(), c.copy()
        np.copyto(best_b, b, where=better[:, None])
        np.copyto(best_c, c, where=better)
    return Policy(indices=best_idx), best_b, _nonnegative_cost(model, best_c)


def solve_hjb_dirichlet(
    model: Model,
    grid: Grid,
    tol: float = DEFAULT_PI_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
    scheme: str = "hybrid",
) -> HjbSolution:
    """Policy iteration on the Dirichlet eigenproblem.

    Each sweep solves the linear eigenproblem under the frozen policy and then
    improves the policy pointwise; the eigenvalue is nonincreasing along
    sweeps, and iteration stops once the policy is stationary or the
    eigenvalue moves by less than ``tol``.  Each sweep's eigensolve starts
    from the previous sweep's eigenvector and assembles the rows the last
    improvement pass kept, so the model is evaluated only there and for the
    start policy.  After ``MAX_POLICY_SWEEPS`` sweeps it gives up with
    ConvergenceError.
    """
    policy = Policy.uniform(grid)
    b, c, a = _policy_coefficients(model, grid, policy)
    history: list[float] = []
    prev_policy = policy
    v0 = None
    for sweep in range(1, MAX_POLICY_SWEEPS + 1):
        pair = principal_eigenpair(assemble_fields(grid, b, c, a, scheme), eigen_tol, v0=v0)
        v0 = pair.v
        history.append(pair.eigenvalue)
        # a single action is trivially its own improvement
        stationary = not model.controlled
        if stationary or (len(history) >= 2 and abs(history[-1] - history[-2]) < tol):
            break
        improved, b_next, c_next = _improve_policy(model, grid, pair.v, a, scheme)
        if np.array_equal(improved.indices, policy.indices):
            stationary = True
            break
        prev_policy, policy, b, c = policy, improved, b_next, c_next
    else:
        raise ConvergenceError(
            f"policy iteration still oscillating after {MAX_POLICY_SWEEPS} sweeps",
            payload={
                "lambda_history": history,
                "last_policies": (prev_policy.indices, policy.indices),
            },
        )
    return HjbSolution(grid, pair, policy, sweep, history, b, c, a, stationary, scheme, tol, eigen_tol)


def hjb_residual(model: Model, grid: Grid, v: np.ndarray, lam: float, scheme: str) -> float:
    """max_i |(L v + min_u [b_u . grad + c_u] v - lambda v)_i| / v_i on the grid.

    The Hamiltonian is the row of the minimizing action, so this is the
    defect of A v = lambda v for A assembled under the improved policy of v.
    """
    v = np.asarray(v, dtype=float)
    if np.min(v) <= 0:
        raise ValueError("HJB residual needs a strictly positive eigenfunction")
    a = model.covariance(grid.nodes)
    _, b, c = _improve_policy(model, grid, v, a, scheme)
    return _relative_defect(assemble_fields(grid, b, c, a, scheme), v, lam)


def solution_residual(model: Model, sol: HjbSolution) -> float:
    """``hjb_residual`` of a solve's own eigenpair, under the scheme it was solved with.

    A stationary solve ran its last improvement pass at this v and kept the
    winning rows as its b, c, so they are assembled as they are and the model
    is not evaluated again.
    """
    pair = sol.eigenpair
    if not sol.stationary:
        return hjb_residual(model, sol.grid, pair.v, pair.eigenvalue, sol.scheme)
    op = assemble_fields(sol.grid, sol.b, sol.c, sol.a, sol.scheme)
    return _relative_defect(op, pair.v, pair.eigenvalue)


def _relative_defect(op: OperatorMatrix, v: np.ndarray, lam: float) -> float:
    return float(np.max(np.abs(op.apply(v) - lam * v) / v))
