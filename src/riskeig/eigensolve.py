"""Principal eigenpair of the discretized operator and HJB policy iteration.

The assembled matrix A has nonnegative off-diagonal entries (checked when the
``OperatorMatrix`` is built), so for any positive vector v the
Collatz-Wielandt ratios r = (A v)/v bracket the principal eigenvalue:
min r <= lambda <= max r.  The eigensolver is Noda iteration: inverse
iteration whose shift is moved every step to the upper bracket end,
hi = max r.  Since hi >= lambda, hi I - A stays a nonsingular M-matrix, its
inverse is nonnegative and the iterates stay positive; the bracket shrinks
quadratically (Noda 1971, Elsner 1976).  Each shifted system is solved
directly, plus one step of iterative refinement; the refinement keeps the
nearly singular solves close to the end accurate enough for the bracket to
reach the rounding floor.  A tridiagonal matrix on a 1-D grid, which every
1-D assembly is, is solved by LAPACK's ``dgtsv`` (Gaussian elimination with
partial pivoting, O(n)) from its three diagonals; every other matrix, and
every 2-D one, by an exact sparse LU factorization.  The reported eigenvalue
is the bracket midpoint.

On a 2-D grid a factorization is nearly all of a Noda step, so Noda starts
from a shift-invert Arnoldi eigenvector instead (Lehoucq, Sorensen & Yang,
*ARPACK Users' Guide*, 1998): ``eigs`` at the start vector's upper bracket
end hi, with hi I - A factored once.  Every other eigenvalue mu has
Re mu < lambda <= hi, so the eigenvalue nearest hi is the principal one, and
Noda's first bracket of that vector usually certifies it: one factorization
per solve instead of 6-15.  A 1-D solve skips it, since a tridiagonal solve
costs tens of microseconds and warm-started policy sweeps already take about
two Noda steps.
Policy iteration reads its start policy, rows and improvement pass from
``discretize``'s action rows; every sweep ends on that pass, so a solve
carries its HJB residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .discretize import (
    Grid,
    OperatorMatrix,
    Policy,
    _action_rows,
    assemble_fields,
    field_gradient,
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

    On a 2-D grid whose start vector is not yet within tol, the first
    iterate is the shift-invert Arnoldi eigenvector of ``_arnoldi_start``
    instead of ``v0``; when that start fails, the iteration runs from ``v0``
    exactly as it does in 1-D.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    A = op.entries
    n = A.shape[0]
    anchor = op.grid.origin_index
    if v0 is None:
        v = np.ones(n)
    else:
        v = np.array(v0, dtype=float)
        if v.shape != (n,) or not np.all(np.isfinite(v)) or np.min(v) <= 0.0:
            raise ValueError(f"start vector must be {n} finite positive entries")
        v /= v[anchor]

    bands = _tridiagonal_bands(A) if op.grid.dim == 1 else None
    # rounding in A@v scales with the row magnitude (~ 2 a / h^2), so a defect
    # below eps * row_scale is unreachable; relax the target to that floor
    if bands is not None:
        row_scale = _tridiagonal_row_scale(*bands)
    else:
        row_scale = float(np.max(np.abs(A).sum(axis=1)))
    eff_tol = max(tol, 4.0 * np.finfo(float).eps * row_scale)

    if bands is not None:
        shift_solve = _tridiagonal_shift_solver(*bands)
    else:
        eye = sp.identity(n, format="csc")
        A_csc = A.tocsc()
        if op.grid.dim > 1:
            v = _arnoldi_start(A, A_csc, eye, v, anchor, eff_tol)
        shift_solve = _lu_shift_solver(A_csc, eye)

    history: list[tuple[float, float]] = []
    best_width = float("inf")
    stalled = 0
    for it in range(1, max_iter + 1):
        if it > 1:
            try:
                w = shift_solve(hi, v)
            except RuntimeError as exc:
                # hi sits exactly on an eigenvalue while lo lags behind, as
                # happens when decoupled blocks make A reducible
                raise ConvergenceError(
                    f"Noda shift {hi:.17g} made the shifted matrix singular "
                    f"with the bracket still {hi - lo:.3g} wide",
                    payload={"eigenpair": pair, "bracket_history": history},
                ) from exc
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


def _factor(shifted: sp.csc_matrix):
    # the stencils are structurally symmetric, and a minimum-degree ordering
    # of A^T + A roughly halves 2-D fill next to COLAMD's
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")


# Both shift solvers map (hi, v) to (hi I - A)^-1 v and raise RuntimeError
# when hi I - A is exactly singular.  Each adds one refinement step: near the
# singular shift the plain solve is too noisy for the bracket to close down to
# the rounding floor.

def _lu_shift_solver(A_csc: sp.csc_matrix, eye: sp.csc_matrix):
    def solve(hi: float, v: np.ndarray) -> np.ndarray:
        shifted = hi * eye - A_csc
        lu = _factor(shifted)
        w = lu.solve(v)
        return w + lu.solve(v - shifted @ w)

    return solve


def _tridiagonal_bands(A) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A's (sub, main, super) diagonals, or None when A has a nonzero off them."""
    bands = (A.diagonal(-1), A.diagonal(), A.diagonal(1))
    if sum(np.count_nonzero(band) for band in bands) != A.count_nonzero():
        return None
    return bands


def _tridiagonal_row_scale(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> float:
    """max_i sum_j |A_ij| from the bands, added sub + (main + super) as NumPy reduces the CSR rows."""
    scale = np.abs(main)
    scale[:-1] += np.abs(sup)
    scale[1:] += np.abs(sub)
    return float(np.max(scale))


def _tridiagonal_shift_solver(sub: np.ndarray, main: np.ndarray, sup: np.ndarray):
    lower, upper = -sub, -sup

    # dgtsv factors with partial pivoting and solves in one O(n) call, working
    # on copies of its arguments; info > 0 is the index of a zero pivot
    def solve(hi: float, v: np.ndarray) -> np.ndarray:
        diag = hi - main
        *_, w, info = lapack.dgtsv(lower, diag, upper, v)
        if info > 0:
            raise RuntimeError(f"tridiagonal matrix is exactly singular (zero pivot {info})")
        shifted_w = diag * w
        shifted_w[:-1] += upper * w[1:]
        shifted_w[1:] += lower * w[:-1]
        return w + lapack.dgtsv(lower, diag, upper, v - shifted_w)[3]

    return solve


def _arnoldi_start(A, A_csc, eye, v: np.ndarray, anchor: int, eff_tol: float) -> np.ndarray:
    """The eigenvector of A nearest hi = max (A v)/v, origin-normalized, or v itself.

    hi I - A is factored once and ``eigs`` runs shift-invert Arnoldi from v
    on that LU.  v comes back unchanged when its bracket is already within
    ``eff_tol``, when the factorization or ARPACK fails, or when the
    eigenvector has a non-finite or nonpositive entry; Noda then runs from v
    as if no start had been tried.
    """
    ratios = (A @ v) / v
    hi = float(ratios.max())
    if 0.5 * (hi - float(ratios.min())) <= eff_tol:
        return v
    try:
        lu = _factor(hi * eye - A_csc)
        # eigs wants (A - hi I)^-1, the negative of the inverse the LU holds
        inverse = spla.LinearOperator(A.shape, matvec=lambda x: -lu.solve(x), dtype=float)
        _, vecs = spla.eigs(A, k=1, sigma=hi, v0=v, OPinv=inverse)
    except RuntimeError:
        # a singular splu, and ArpackNoConvergence and its ArpackError base
        return v
    with np.errstate(divide="ignore", invalid="ignore"):
        w = vecs[:, 0].real / vecs[anchor, 0].real
    if not np.all(np.isfinite(w)) or np.min(w) <= 0.0:
        return v
    return w


@dataclass(frozen=True)
class HjbSolution:
    """A solve on ``grid``: the eigenpair, and the policy and b, c, a it was solved under.

    ``hjb_residual`` is ``hjb_residual`` of the eigenpair, under the rows the
    last improvement pass picked at v.  ``scheme``, ``pi_tol`` and
    ``eigen_tol`` are the settings the solve ran under; the checks of a solve
    read them from here.  The ground state, ``psi``, ``grad_psi`` and
    ``twisted_drift``, is computed on first use from these fields and kept;
    the solve is frozen so that it cannot go stale, and
    ``dataclasses.replace`` gives a new solve that computes its own.
    """

    grid: Grid
    eigenpair: EigenPair
    policy: Policy
    lambda_history: list[float]
    b: np.ndarray              # drift b(x, policy(x)), (n, dim)
    c: np.ndarray              # running cost c(x, policy(x)), (n,)
    a: np.ndarray              # covariance a(x), (n, dim, dim)
    hjb_residual: float
    scheme: str
    pi_tol: float
    eigen_tol: float

    @property
    def policy_sweeps(self) -> int:
        """Policy-iteration sweeps the solve ran, one eigensolve each."""
        return len(self.lambda_history)

    @cached_property
    def psi(self) -> np.ndarray:
        """psi = log v, the ground-state transform of the eigenfunction."""
        v = np.asarray(self.eigenpair.v, dtype=float)
        if np.min(v) <= 0:
            raise InvariantError("eigenfunction must be strictly positive for the log transform")
        return np.log(v)

    @cached_property
    def grad_psi(self) -> np.ndarray:
        """The gradient of psi, (n, dim)."""
        return field_gradient(self.grid, self.psi)

    @cached_property
    def twisted_drift(self) -> np.ndarray:
        """b + a grad psi, the drift of the ground-state diffusion, (n, dim); evaluates no model."""
        return self.b + np.einsum("nde,ne->nd", self.a, self.grad_psi)


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
    eigenvalue falls by less than ``tol`` (or rises, as the eigensolve's
    rounding can make it between policies that tie), the latter with the
    improved rows assembled for the residual.  The model is evaluated once,
    into its action rows (``_action_rows``).  The start policy takes each
    node's cheapest action, and each sweep's eigensolve starts from the
    previous sweep's eigenvector and assembles the rows the last improvement
    pass picked, which on an interval is exact over the whole interval.
    After ``MAX_POLICY_SWEEPS`` sweeps it gives up with ConvergenceError.
    """
    rows = _action_rows(model, grid, scheme)
    a = rows.a
    policy, b, c = rows.start()
    history: list[float] = []
    prev_policy = policy
    v0 = None
    for _ in range(MAX_POLICY_SWEEPS):
        op = assemble_fields(grid, b, c, a, scheme)
        pair = principal_eigenpair(op, eigen_tol, v0=v0)
        v0 = pair.v
        history.append(pair.eigenvalue)
        # an uncontrolled model's one action is its own improvement
        improved, b_next, c_next = rows.improve(grid, pair.v)
        if np.array_equal(improved.values, policy.values):
            break
        # the eigenvalue is nonincreasing in exact arithmetic: a rise is rounding
        if len(history) >= 2 and history[-1] - history[-2] > -tol:
            op = assemble_fields(grid, b_next, c_next, a, scheme)
            break
        prev_policy, policy, b, c = policy, improved, b_next, c_next
    else:
        raise ConvergenceError(
            f"policy iteration still oscillating after {MAX_POLICY_SWEEPS} sweeps",
            payload={
                "lambda_history": history,
                "last_policies": (prev_policy.values, policy.values),
            },
        )
    residual = _relative_defect(op, pair.v, pair.eigenvalue)
    return HjbSolution(grid, pair, policy, history, b, c, a, residual, scheme, tol, eigen_tol)


def hjb_residual(model: Model, grid: Grid, v: np.ndarray, lam: float, scheme: str) -> float:
    """max_i |(L v + min_u [b_u . grad + c_u] v - lambda v)_i| / v_i on the grid.

    The Hamiltonian is the row of the minimizing action, so this is the
    defect of A v = lambda v for A assembled under the improved policy of v,
    found by one improvement pass over action rows built for it.
    """
    v = np.asarray(v, dtype=float)
    if np.min(v) <= 0:
        raise ValueError("HJB residual needs a strictly positive eigenfunction")
    rows = _action_rows(model, grid, scheme)
    _, b, c = rows.improve(grid, v)
    return _relative_defect(assemble_fields(grid, b, c, rows.a, scheme), v, lam)


def _relative_defect(op: OperatorMatrix, v: np.ndarray, lam: float) -> float:
    return float(np.max(np.abs(op.entries @ v - lam * v) / v))
