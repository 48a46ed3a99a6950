"""Principal eigenpair solver and HJB policy iteration."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from riskeig import (
    ConvergenceError,
    EigenPair,
    Grid,
    InvariantError,
    Model,
    OperatorMatrix,
    Policy,
    ResourceError,
    assemble,
    assemble_fields,
    builtin,
    hjb_residual,
    make_grid,
    principal_eigenpair,
    solve_hjb_dirichlet,
)
from riskeig import discretize, eigensolve
from riskeig.discretize import _drift_weights, _shifted, diffusion_edges
from riskeig.model import model_from_config


def _uncontrolled(drift, cost, dim=1):
    return Model(dim, drift, lambda x: np.eye(dim), cost, np.array([0.0]))


def _brownian():
    return _uncontrolled(lambda x, u: np.zeros_like(x), lambda x, u: np.zeros(len(x)))


def _wrap(a_dense: np.ndarray) -> OperatorMatrix:
    """Dress a bare matrix as an operator on a synthetic n-node grid."""
    n = a_dense.shape[0]
    axis = 0.1 * (np.arange(n) - n // 2)
    g = Grid(1, abs(axis).max() + 0.1, 0.1, axis, (n,), axis[:, None], int(n // 2))
    return OperatorMatrix(g, sp.csr_matrix(a_dense))


# ------------------------------------------------------------- principal pairs

def test_symmetric_two_by_two():
    """[[-1, .5], [.5, -1]] has principal pair (-0.5, ones)."""
    g = Grid(1, 1.0, 1.0, np.array([0.0, 1.0]), (2,), np.array([[0.0], [1.0]]), 0)
    op = OperatorMatrix(g, sp.csr_matrix(np.array([[-1.0, 0.5], [0.5, -1.0]])))
    pair = principal_eigenpair(op)
    assert pair.eigenvalue == pytest.approx(-0.5, abs=1e-10)
    np.testing.assert_allclose(pair.v, [1.0, 1.0], atol=1e-10)


def test_dirichlet_laplacian_benchmark():
    g = make_grid(1, 1.0, 0.01)
    op = assemble(_brownian(), g, Policy.uniform(g))
    pair = principal_eigenpair(op)
    assert abs(pair.eigenvalue - oracles.dirichlet_half_laplacian_rate(1.0)) < 5e-3
    # the discrete problem itself has a closed form; match it tightly
    exact = oracles.dirichlet_half_laplacian_rate_discrete(g.n, g.spacing)
    assert pair.eigenvalue == pytest.approx(exact, abs=1e-8)
    assert pair.residual <= 1e-10


def test_constant_cost_shifts_eigenvalue_exactly():
    m0 = _brownian()
    m1 = _uncontrolled(lambda x, u: np.zeros_like(x), lambda x, u: np.full(len(x), 0.7))
    g = make_grid(1, 1.0, 0.02)
    p0 = principal_eigenpair(assemble(m0, g, Policy.uniform(g)))
    p1 = principal_eigenpair(assemble(m1, g, Policy.uniform(g)))
    assert p1.eigenvalue - p0.eigenvalue == pytest.approx(0.7, abs=1e-12)
    np.testing.assert_allclose(p1.v, p0.v, atol=1e-9)


def test_eigenvector_positive_and_normalized():
    rng = np.random.default_rng(11)
    for _ in range(5):
        op = _wrap(oracles.random_m_structured(rng, 40))
        pair = principal_eigenpair(op)
        assert np.all(pair.v > 0.0)
        assert pair.v[op.grid.origin_index] == 1.0


def test_dense_oracle_agreement_small():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = oracles.random_m_structured(rng, 60)
        pair = principal_eigenpair(_wrap(a))
        lam, _ = oracles.dense_principal_eigenpair(a)
        assert pair.eigenvalue == pytest.approx(lam, abs=1e-9)


def test_positive_off_diagonal_required():
    bad = np.array([[-1.0, -0.2], [0.3, -1.0]])
    g = Grid(1, 1.0, 1.0, np.array([0.0, 1.0]), (2,), np.array([[0.0], [1.0]]), 0)
    with pytest.raises(InvariantError):
        OperatorMatrix(g, sp.csr_matrix(bad))


def test_iteration_cap_carries_last_iterate():
    g = make_grid(1, 1.0, 0.02)
    op = assemble(_brownian(), g, Policy.uniform(g))
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(op, max_iter=2)
    pair = err.value.payload["eigenpair"]
    assert pair.iterations == 2
    assert np.all(pair.v > 0.0)


def test_stalled_bracket_fails_fast(monkeypatch):
    """Solves perturbed at 1e-6 relative cannot close the bracket: raise, don't spin."""
    rng = np.random.default_rng(3)
    real_dgtsv = eigensolve.lapack.dgtsv

    def noisy_dgtsv(*args):
        *factors, out, info = real_dgtsv(*args)
        return (*factors, out * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, out.size)), info)

    # a 1-D assembly is tridiagonal, so each shifted solve is a dgtsv call
    monkeypatch.setattr(eigensolve, "lapack", type("NoisyLapack", (), {"dgtsv": noisy_dgtsv}))
    g = make_grid(1, 1.0, 0.02)
    op = assemble(_brownian(), g, Policy.uniform(g))
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(op)
    payload = err.value.payload
    pair, history = payload["eigenpair"], payload["bracket_history"]
    assert isinstance(pair, EigenPair) and np.all(pair.v > 0.0)
    assert pair.iterations == len(history) <= 30
    assert pair.bracket == history[-1]
    assert history[-1][1] - history[-1][0] > 1e-9


def test_singular_shift_on_reducible_operator_is_a_convergence_error():
    """Decoupled rows: the first shift hits lambda = -1 exactly while lo = -2."""
    g = Grid(1, 1.0, 1.0, np.array([0.0, 1.0]), (2,), np.array([[0.0], [1.0]]), 0)
    op = OperatorMatrix(g, sp.csr_matrix(np.diag([-1.0, -2.0])))
    with pytest.raises(ConvergenceError, match="made the shifted matrix singular") as err:
        principal_eigenpair(op)
    assert err.value.payload["eigenpair"].bracket == (-2.0, -1.0)
    assert err.value.payload["bracket_history"] == [(-2.0, -1.0)]


def test_bracket_encloses_dense_eigenvalue():
    rng = np.random.default_rng(8)
    dense = lambda a: oracles.dense_principal_eigenpair(a)[0]
    cases = [(_wrap(oracles.random_m_structured(rng, 50)), dense) for _ in range(5)]
    # an assembled 1-D operator is tridiagonal, so its shifts go through dgtsv.
    # Under the first action (u = -5 at every node) it is so far from normal
    # that the dense eig lands 1.1e-10 above the bracket; the tridiagonal
    # oracle does not lose those digits.
    g = make_grid(1, 2.0, 0.02)
    sol = solve_hjb_dirichlet(builtin("lq_clamped"), g)
    solved = assemble_fields(sol.grid, sol.b, sol.c, sol.a, sol.scheme)
    first = assemble(builtin("lq_clamped"), g, Policy(np.full(g.n, -5.0)))
    tridiagonal = oracles.tridiagonal_principal_eigenvalue
    cases += [(solved, dense), (solved, tridiagonal), (first, tridiagonal)]
    for op, oracle in cases:
        pair = principal_eigenpair(op)
        lam = oracle(op.entries.toarray())
        lo, hi = pair.bracket
        assert lo <= pair.eigenvalue <= hi
        assert lo - 1e-12 <= lam <= hi + 1e-12


def test_1d_solver_follows_the_matrix_structure(counting_spla):
    """A tridiagonal 1-D matrix is solved without splu; a denser one on a 1-D grid still factors."""
    g = make_grid(1, 2.0, 0.02)
    sol = solve_hjb_dirichlet(builtin("lq_clamped"), g)
    first = principal_eigenpair(assemble(builtin("lq_clamped"), g, Policy(np.full(g.n, -5.0))))
    assert sol.policy_sweeps > 1 and first.iterations > 1
    assert counting_spla.splu_calls == 0
    pair = principal_eigenpair(_wrap(oracles.random_m_structured(np.random.default_rng(8), 50)))
    assert counting_spla.splu_calls == pair.iterations - 1 > 0


def test_start_vector_warm_starts_and_is_validated():
    g = make_grid(1, 1.0, 0.02)
    op = assemble(_brownian(), g, Policy.uniform(g))
    cold = principal_eigenpair(op)
    warm = principal_eigenpair(op, v0=cold.v)
    assert warm.iterations == 1
    assert warm.bracket == cold.bracket
    np.testing.assert_array_equal(warm.v, cold.v)
    for bad in (np.ones(g.n - 1), -cold.v, np.full(g.n, np.nan)):
        with pytest.raises(ValueError):
            principal_eigenpair(op, v0=bad)


def test_single_node_operator():
    g = Grid(1, 1.0, 1.0, np.array([0.0]), (1,), np.array([[0.0]]), 0)
    op = OperatorMatrix(g, sp.csr_matrix(np.array([[-2.5]])))
    pair = principal_eigenpair(op)
    assert pair.eigenvalue == pytest.approx(-2.5, abs=1e-14)
    assert pair.v[0] == 1.0
    assert principal_eigenpair(op, v0=np.array([3.0])).v[0] == 1.0
    with pytest.raises(ValueError, match="max_iter"):
        principal_eigenpair(op, max_iter=0)
    # the start vector is checked as on a larger operator
    for bad in (np.array([-1.0, 2.0]), np.array([-1.0]), np.array([np.inf])):
        with pytest.raises(ValueError, match="start vector must be 1 finite positive entries"):
            principal_eigenpair(op, v0=bad)


def test_2d_laplacian_eigenvalue():
    """Half-Laplacian on the square: principal eigenvalue doubles the 1-D one."""
    m = _uncontrolled(lambda x, u: np.zeros_like(x), lambda x, u: np.zeros(len(x)), dim=2)
    g = make_grid(2, 1.0, 0.05)
    pair = principal_eigenpair(assemble(m, g, Policy.uniform(g)))
    assert abs(pair.eigenvalue - 2.0 * oracles.dirichlet_half_laplacian_rate(1.0)) < 5e-3


OU_2D = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_2d_kronecker_sum_doubles_1d_eigenvalue(h):
    """Separable isotropic OU: the 2-D operator is A1 (+) A1, so lambda_2D = 2 lambda_1D."""
    g1 = make_grid(1, 4.0, h)
    g2 = make_grid(2, 4.0, h)
    lam1 = principal_eigenpair(assemble(builtin("ou_quadratic"), g1, Policy.uniform(g1))).eigenvalue
    lam2 = principal_eigenpair(assemble(model_from_config(OU_2D), g2, Policy.uniform(g2))).eigenvalue
    assert g2.n == g1.n**2
    assert abs(lam2 - 2.0 * lam1) <= 1e-9


# ------------------------------------------------ shift-invert Arnoldi start

def _plain_noda(op: OperatorMatrix, **kwargs) -> EigenPair:
    """Noda alone on op's matrix: the same operator on a grid that says it is 1-D."""
    return principal_eigenpair(OperatorMatrix(dataclasses.replace(op.grid, dim=1), op.entries),
                               **kwargs)


@pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
def test_2d_solve_is_one_factorization_and_one_noda_evaluation(counting_spla, r):
    """ground-2d's radii: the Arnoldi start's LU is the solve's only one, and Noda certifies its vector."""
    g = make_grid(2, r, 0.1)
    sol = solve_hjb_dirichlet(model_from_config(OU_2D), g)
    pair = sol.eigenpair
    assert sol.policy_sweeps == 1
    assert counting_spla.splu_calls == 1
    assert pair.iterations == 1
    op = assemble_fields(g, sol.b, sol.c, sol.a, sol.scheme)
    row_scale = float(np.max(np.abs(op.entries).sum(axis=1)))
    eff_tol = max(sol.eigen_tol, 4.0 * np.finfo(float).eps * row_scale)
    lo, hi = pair.bracket
    assert hi - lo <= 2.0 * eff_tol
    # a start already within tolerance is certified as it is, with no factorization
    assert principal_eigenpair(op, sol.eigen_tol, v0=pair.v).bracket == pair.bracket
    assert counting_spla.splu_calls == 1
    assert lo <= _plain_noda(op, tol=sol.eigen_tol).eigenvalue <= hi


def _no_convergence(A, k, sigma, v0, OPinv):
    raise eigensolve.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                              np.empty(0), np.empty((A.shape[0], 0)))


def _sign_mixed(A, k, sigma, v0, OPinv):
    w = v0.astype(complex)
    w[1::2] *= -1.0
    return np.array([sigma + 0j]), w[:, None]


def _non_finite(A, k, sigma, v0, OPinv):
    w = v0.astype(complex)
    w[-1] = np.nan
    return np.array([sigma + 0j]), w[:, None]


@pytest.mark.parametrize("eigs", [_no_convergence, _sign_mixed, _non_finite])
@pytest.mark.parametrize("gaussian_start", [False, True])
def test_failed_arnoldi_start_is_plain_noda_bitwise(counting_spla, eigs, gaussian_start):
    """A start that ARPACK cannot give, or that is not positive, leaves Noda as it was."""
    g = make_grid(2, 3.0, 0.1)
    op = assemble(model_from_config(OU_2D), g, Policy.uniform(g))
    v0 = np.exp(-0.25 * np.sum(g.nodes**2, axis=1)) if gaussian_start else None
    plain = _plain_noda(op, v0=v0)
    counting_spla.eigs = eigs
    before = counting_spla.splu_calls
    pair = principal_eigenpair(op, v0=v0)
    # the start's one factorization, then Noda's own, one per step after the first
    assert counting_spla.splu_calls - before == plain.iterations
    assert pair.iterations == plain.iterations > 1
    assert pair.eigenvalue == plain.eigenvalue
    assert pair.bracket == plain.bracket
    assert pair.residual == plain.residual
    np.testing.assert_array_equal(pair.v, plain.v)


def test_reducible_2d_operator_still_raises_with_its_bracket_history():
    """Two decoupled chains on a 3 x 3 grid: no positive vector closes the bracket."""
    g = make_grid(2, 2.0, 1.0)
    chain = lambda m, d: np.diag(np.full(m, d)) + np.eye(m, k=1) + np.eye(m, k=-1)
    a = np.zeros((g.n, g.n))
    a[:4, :4], a[4:, 4:] = chain(4, -2.0), chain(5, -3.0)
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(OperatorMatrix(g, sp.csr_matrix(a)))
    pair, history = err.value.payload["eigenpair"], err.value.payload["bracket_history"]
    assert pair.bracket == history[-1]
    assert all(hi - lo > 0.5 for lo, hi in history)


# -------------------------------------------------------------- HJB iteration

def test_uncontrolled_reduces_to_single_solve():
    m = builtin("ou_quadratic")
    g = make_grid(1, 4.0, 0.05)
    sol = solve_hjb_dirichlet(m, g)
    assert sol.policy_sweeps == 1
    assert len(sol.lambda_history) == 1
    assert np.all(sol.policy.values == m.actions[0])


def test_ou_eigenvalue_below_limit():
    m = builtin("ou_quadratic")
    g = make_grid(1, 8.0, 0.01)
    sol = solve_hjb_dirichlet(m, g)
    _, lam_limit = oracles.ou_quadratic_rate(1.0, 0.375)
    assert sol.eigenpair.eigenvalue < lam_limit
    assert abs(sol.eigenpair.eigenvalue - lam_limit) < 1e-2


def test_lq_policy_iteration_descends():
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    hist = np.asarray(sol.lambda_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert sol.policy_sweeps >= 2


def test_policy_iteration_gives_up_with_payload(monkeypatch):
    monkeypatch.setattr(eigensolve, "MAX_POLICY_SWEEPS", 1)
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    with pytest.raises(ConvergenceError) as err:
        solve_hjb_dirichlet(m, g)
    payload = err.value.payload
    assert len(payload["lambda_history"]) == 1
    prev, last = payload["last_policies"]
    assert prev.shape == last.shape == (g.n,)
    assert not np.array_equal(prev, last)


def test_lq_selector_matches_quadratic_minimizer():
    """On a listed action set the selector is the argmin of u v'/v + u^2/2 over the list."""
    m = oracles.listed_actions(builtin("lq_clamped"), 101)
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    v = sol.eigenpair.v
    h = g.spacing
    rng = np.random.default_rng(5)
    nodes = rng.choice(np.arange(1, g.n - 1), size=20, replace=False)
    for i in nodes:
        dv_over_v = (v[i + 1] - v[i - 1]) / (2.0 * h) / v[i]
        q = m.actions * dv_over_v + 0.5 * m.actions**2
        want = m.actions[np.argmin(q)]
        got = sol.policy.values[i]
        # skip genuine ties: adjacent action values can score identically
        if abs(q.min() - (got * dv_over_v + 0.5 * got**2)) < 1e-12 and want != got:
            continue
        assert got == want


def test_controlled_cost_shift_preserves_policy():
    m = builtin("lq_clamped")
    shifted = m.with_cost(lambda x, u: m.cost(x, u) + 0.7, label="lq+0.7")
    g = make_grid(1, 4.0, 0.1)
    s0 = solve_hjb_dirichlet(m, g)
    s1 = solve_hjb_dirichlet(shifted, g)
    # an exact pass reads the shift in every candidate's value, up to rounding
    np.testing.assert_allclose(s1.policy.values, s0.policy.values, rtol=0, atol=1e-9)
    assert s1.eigenpair.eigenvalue - s0.eigenpair.eigenvalue == pytest.approx(0.7, abs=1e-12)


# ------------------------------------------------------------------- residuals

def test_hjb_residual_of_solution_small():
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    res = hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue, "hybrid")
    assert res <= 1e-10


def test_hjb_residual_evaluates_covariance_once_per_pass(monkeypatch):
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    calls = []
    real = Model.covariance
    monkeypatch.setattr(Model, "covariance", lambda self, x: calls.append(1) or real(self, x))
    hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue, "hybrid")
    # once for the action scan; the winner is assembled from the same a and the rows the scan kept
    assert len(calls) == 1


def _count_model_calls(monkeypatch) -> dict:
    calls = {"drift_at": 0, "cost_at": 0, "covariance": 0}
    for name in calls:
        real = getattr(Model, name)

        def counted(self, *args, _n=name, _f=real):
            calls[_n] += 1
            return _f(self, *args)

        monkeypatch.setattr(Model, name, counted)
    return calls


def _solve_counting_model_calls(monkeypatch, m):
    """A solve on the r = 4, h = 0.1 grid, with its model calls and improvement passes counted;
    the ground state evaluates nothing more."""
    g = make_grid(1, 4.0, 0.1)
    calls = _count_model_calls(monkeypatch)
    passes = []
    real = discretize._ActionRows.improve
    monkeypatch.setattr(discretize._ActionRows, "improve",
                        lambda self, *a: passes.append(1) or real(self, *a))
    sol = solve_hjb_dirichlet(m, g)
    before = dict(calls)
    sol.psi, sol.grad_psi, sol.twisted_drift
    assert calls == before
    return calls, len(passes)


def test_solve_evaluates_each_action_once(monkeypatch):
    """One covariance call and one drift/cost call per listed action per solve, however
    many improvement passes run; the ground state evaluates nothing."""
    calls, passes = _solve_counting_model_calls(
        monkeypatch, oracles.listed_actions(builtin("lq_clamped"), 101))
    assert passes >= 2
    assert calls == {"drift_at": 101, "cost_at": 101, "covariance": 1}


def test_interval_solve_evaluates_the_model_once(monkeypatch):
    """On an action interval the drift and cost are evaluated once, at u = 0."""
    calls, passes = _solve_counting_model_calls(monkeypatch, builtin("lq_clamped"))
    assert passes >= 2
    assert calls == {"drift_at": 1, "cost_at": 1, "covariance": 1}


def test_action_table_over_the_node_cap_evaluates_nothing(monkeypatch):
    m = oracles.listed_actions(builtin("lq_clamped"), 101)
    g = make_grid(1, 4.0, 0.1)
    assert g.n == 79
    calls = _count_model_calls(monkeypatch)
    monkeypatch.setattr(discretize, "NODE_CAP", 101 * 79 - 1)
    with pytest.raises(ResourceError, match=r"101 actions x 79 nodes"):
        solve_hjb_dirichlet(m, g)
    with pytest.raises(ResourceError, match=r"101 actions x 79 nodes"):
        hjb_residual(m, g, np.ones(g.n), 0.0, "hybrid")
    assert calls == {"drift_at": 0, "cost_at": 0, "covariance": 0}
    monkeypatch.setattr(discretize, "NODE_CAP", 101 * 79)
    solve_hjb_dirichlet(m, g)


def _per_action_scan(model, grid, v, scheme):
    """The improvement pass as a loop over actions that keeps the running best.

    It evaluates each action's rows and weights on its own and lets a later
    action win only on a strictly lower value; the table's pass must agree
    with it bit for bit.
    """
    a = model.covariance(grid.nodes)
    edges = diffusion_edges(a, grid.dim)
    neighbors = [(_shifted(v, grid, d, 1), _shifted(v, grid, d, -1)) for d in range(grid.dim)]
    best_vals = np.full(grid.n, np.inf)
    best_idx = np.zeros(grid.n, dtype=np.int64)
    for ai, u in enumerate(model.actions):
        b = model.drift_at(grid.nodes, u)
        c = model.cost_at(grid.nodes, u)
        vals = c * v
        for d, (vp, vm) in enumerate(neighbors):
            up, dn, dg = _drift_weights(b[:, d], edges[d], grid.spacing, scheme)
            vals += up * vp + dn * vm + dg * v
        better = vals < best_vals
        best_vals = np.where(better, vals, best_vals)
        best_idx[better] = ai
        if ai == 0:
            best_b, best_c = b.copy(), c.copy()
        np.copyto(best_b, b, where=better[:, None])
        np.copyto(best_c, c, where=better)
    return best_idx, best_b, best_c


def _lq_listed(k=101):
    return oracles.listed_actions(builtin("lq_clamped"), k)


@pytest.mark.parametrize("make_model, dim, r, h, scheme", [
    (_lq_listed, 1, 4.0, 0.01, "hybrid"),
    (_lq_listed, 1, 4.0, 0.01, "upwind"),
    (lambda: oracles.listed_actions(builtin("bounded_nm"), 21), 1, 4.0, 0.05, "hybrid"),
    (lambda: model_from_config(CONTROLLED_2D_LISTED), 2, 3.0, 0.1, "hybrid"),
    (lambda: model_from_config(CONTROLLED_2D_LISTED), 2, 3.0, 0.1, "upwind"),
], ids=["lq-hybrid", "lq-upwind", "bounded-nm", "c2d-hybrid", "c2d-upwind"])
def test_improvement_pass_is_the_per_action_scan_bitwise(make_model, dim, r, h, scheme):
    m = make_model()
    g = make_grid(dim, r, h)
    sol = solve_hjb_dirichlet(m, g, scheme=scheme)
    rng = np.random.default_rng(3)
    rows = discretize._action_rows(m, g, scheme)
    # the solve's own eigenfunction, and a rough positive field that moves the winners
    for v in (sol.eigenpair.v, sol.eigenpair.v * (1.0 + 0.2 * rng.random(g.n))):
        policy, b, c = rows.improve(g, v)
        want_idx, want_b, want_c = _per_action_scan(m, g, v, scheme)
        assert np.array_equal(policy.values, m.actions[want_idx])
        assert np.array_equal(b, want_b)
        assert np.array_equal(c, want_c)
        assert np.unique(policy.values).size > 1


@pytest.mark.parametrize("scheme", ["hybrid", "upwind"])
def test_listed_actions_that_tie_take_the_first(scheme):
    """Where the drift and cost do not depend on u every listed action ties, and every
    node takes the first listed one, in the start policy and in the improvement pass."""
    m = _uncontrolled(lambda x, u: -x, lambda x, u: 0.375 * np.sum(x * x, axis=-1))
    m = dataclasses.replace(m, actions=np.array([0.5, -1.0, 0.0, 2.0]))
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g, scheme=scheme)
    assert sol.policy_sweeps == 1
    rows = discretize._action_rows(m, g, scheme)
    for policy in (rows.start()[0], rows.improve(g, sol.eigenpair.v)[0], sol.policy):
        assert np.all(policy.values == 0.5)


def _assemble_per_action(model, grid, policy, scheme):
    """``assemble`` as a loop over the listed actions: each one's rows evaluated at every
    node and kept where the policy takes it, then fed to the raw-field stencil."""
    b = np.full((grid.n, grid.dim), np.nan)
    c = np.full(grid.n, np.nan)
    for u in model.actions:
        mask = policy.values == u
        b[mask] = model.drift_at(grid.nodes, u)[mask]
        c[mask] = model.cost_at(grid.nodes, u)[mask]
    return assemble_fields(grid, b, c, model.covariance(grid.nodes), scheme)


@pytest.mark.parametrize("scheme", ["hybrid", "upwind"])
@pytest.mark.parametrize("make_model, dim, r, h", [
    (_lq_listed, 1, 4.0, 0.01),
    (lambda: model_from_config(CONTROLLED_2D_LISTED), 2, 3.0, 0.1),
], ids=["lq", "c2d"])
def test_assemble_through_the_table_is_the_per_action_map_bitwise(make_model, dim, r, h, scheme):
    m = make_model()
    g = make_grid(dim, r, h)
    policy = solve_hjb_dirichlet(m, g, scheme=scheme).policy
    assert np.unique(policy.values).size > 1
    got = assemble(m, g, policy, scheme).entries
    want = _assemble_per_action(m, g, policy, scheme).entries
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("make_model, dim, r, h, tol, scheme", [
    (lambda: builtin("lq_clamped"), 1, 4.0, 0.1, eigensolve.DEFAULT_PI_TOL, "hybrid"),
    # stops on the eigenvalue change, so the residual is taken under the improved rows
    (lambda: builtin("lq_clamped"), 1, 4.0, 0.1, 1.0, "hybrid"),
    (lambda: builtin("ou_quadratic"), 1, 4.0, 0.1, eigensolve.DEFAULT_PI_TOL, "hybrid"),
    (lambda: builtin("lq_clamped"), 1, 4.0, 0.05, eigensolve.DEFAULT_PI_TOL, "upwind"),
    (lambda: model_from_config(CONTROLLED_2D), 2, 3.0, 0.1, eigensolve.DEFAULT_PI_TOL, "upwind"),
], ids=["lq", "lq-tol1", "ou", "lq-upwind", "c2d-upwind"])
def test_solve_carries_its_hjb_residual_bitwise(make_model, dim, r, h, tol, scheme):
    """A solve's residual is ``hjb_residual`` of its eigenpair under its scheme, bit for bit."""
    m = make_model()
    g = make_grid(dim, r, h)
    sol = solve_hjb_dirichlet(m, g, tol=tol, scheme=scheme)
    pair = sol.eigenpair
    assert sol.hjb_residual == hjb_residual(m, g, pair.v, pair.eigenvalue, scheme)
    if tol == eigensolve.DEFAULT_PI_TOL:
        assert sol.hjb_residual <= 1e-9


def test_hjb_residual_detects_eigenvalue_shift():
    m = builtin("ou_quadratic")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    res = hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue + 0.1, "hybrid")
    assert res >= 0.1 * (1.0 - 1e-10)


CONTROLLED_2D = {
    "dim": 2,
    "drift": {"family": "ou", "control_gain": 1.0},
    "cost": {"family": "quadratic", "kappa": 0.375, "rho": 1.0},
    "sigma": [[1.0, 0.0], [0.5, 1.0]],
    "actions": {"interval": [-1, 1]},
}
CONTROLLED_2D_LISTED = {**CONTROLLED_2D, "actions": [-1.0, -0.5, 0.0, 0.5, 1.0]}


def test_2d_controlled_hjb_minimizes_over_actions():
    """Policy iteration in 2-D with a mixed-derivative diffusion: the selector
    uses several actions, and the residual of the improved policy's assembled
    operator is at the rounding floor for the solved lambda only."""
    m = model_from_config(CONTROLLED_2D)
    g = make_grid(2, 3.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    assert np.unique(sol.policy.values).size > 1
    lam, v = sol.eigenpair.eigenvalue, sol.eigenpair.v
    assert hjb_residual(m, g, v, lam, "hybrid") <= 1e-9
    assert hjb_residual(m, g, v, lam + 0.1, "hybrid") >= 0.1 * (1.0 - 1e-10)


def test_hjb_residual_analytic_ground_state_order():
    """exp(a x^2) with the true rate: the upwind stencil defect decays at O(h).

    The analytic ground state does not vanish at the Dirichlet wall, so rows
    next to the wall carry an O(1/h^2) defect by construction; the
    consistency claim is about the stencil and is checked on a fixed window
    well inside the domain.
    """
    m = builtin("ou_quadratic")
    a, lam = oracles.ou_quadratic_rate(1.0, 0.375)

    def windowed_defect(h: float) -> float:
        g = make_grid(1, 4.0, h)
        x = g.nodes[:, 0]
        v = np.exp(a * x**2)
        op = assemble(m, g, Policy.uniform(g), scheme="upwind")
        defect = np.abs(op.entries @ v - lam * v) / v
        return float(np.max(defect[np.abs(x) <= 2.0]))

    e1, e2 = windowed_defect(0.02), windowed_defect(0.01)
    assert np.log2(e1 / e2) >= 0.9


# ---------------------------------------------------- potential-map properties

def _lambda_for_cost(cost, r=2.0, h=0.05) -> float:
    m = _uncontrolled(lambda x, u: -x, cost)
    g = make_grid(1, r, h)
    return solve_hjb_dirichlet(m, g).eigenpair.eigenvalue


def _random_potential(rng):
    c0, c2, cs, w = rng.uniform(0.0, 1.0, size=4)
    return lambda x, u, c0=c0, c2=c2, cs=cs, w=w: (
        c0 + c2 * np.sum(x * x, axis=-1) + cs * np.sin(3.0 * w * x[..., 0]) ** 2
    )


def test_eigenvalue_monotone_in_potential():
    rng = np.random.default_rng(20)
    for _ in range(5):
        f1 = _random_potential(rng)
        bump = rng.uniform(0.1, 0.5)
        f2 = lambda x, u, f1=f1, bump=bump: f1(x, u) + bump
        assert _lambda_for_cost(f1) < _lambda_for_cost(f2)


def test_eigenvalue_convex_in_potential():
    rng = np.random.default_rng(21)
    for _ in range(5):
        f1, f2 = _random_potential(rng), _random_potential(rng)
        l1, l2 = _lambda_for_cost(f1), _lambda_for_cost(f2)
        for t in (0.25, 0.5, 0.75):
            mix = lambda x, u, t=t, f1=f1, f2=f2: t * f1(x, u) + (1.0 - t) * f2(x, u)
            assert _lambda_for_cost(mix) <= t * l1 + (1.0 - t) * l2 + 1e-10


# ------------------------------------------------------- exact pass on an interval

def _row_values(m, grid, v, u, scheme):
    """The action part of every row at v under actions u, (k, n), and the sum of its
    terms' magnitudes, the scale its rounding error goes with."""
    iv, x = m.interval, grid.nodes
    b, c = iv.drift(m.drift_at(x, 0.0), u), iv.cost(m.cost_at(x, 0.0), u)
    values, scale = c * v, np.abs(c) * v
    for d, edge in enumerate(diffusion_edges(m.covariance(x), grid.dim)):
        up, dn, dg = _drift_weights(b[..., d], edge, grid.spacing, scheme)
        vp, vm = _shifted(v, grid, d, 1), _shifted(v, grid, d, -1)
        values = values + (up * vp + dn * vm + dg * v)
        scale = scale + np.abs(up) * vp + np.abs(dn) * vm + np.abs(dg) * v
    return values, scale


def _brute_force(m, grid, v, scheme, points=20001):
    """Per node, the least action value over ``points`` equally spaced actions of the
    interval, and its term scale, in chunks of actions to bound the memory."""
    best, scale = np.full(grid.n, np.inf), np.zeros(grid.n)
    nodes = np.arange(grid.n)
    for chunk in np.array_split(np.linspace(m.interval.lo, m.interval.hi, points), 80):
        vals, scales = _row_values(m, grid, v, np.repeat(chunk[:, None], grid.n, axis=1), scheme)
        k = np.argmin(vals, axis=0)
        better = vals[k, nodes] < best
        best = np.where(better, vals[k, nodes], best)
        scale = np.where(better, scales[k, nodes], scale)
    return best, scale


WIDE_2D = {**CONTROLLED_2D, "actions": {"interval": [-8.0, 8.0]}}


@pytest.mark.parametrize("scheme", ["hybrid", "upwind"])
@pytest.mark.parametrize("make_model, dim, r, h", [
    (lambda: builtin("lq_clamped"), 1, 4.0, 0.05),
    # |b| h = a at |b| = 4, inside the reach of b = -x + u: every row switches stencil in u
    (lambda: builtin("lq_clamped"), 1, 4.0, 0.25),
    (lambda: builtin("bounded_nm"), 1, 4.0, 0.05),
    (lambda: model_from_config(CONTROLLED_2D), 2, 1.5, 0.1),
    (lambda: model_from_config(WIDE_2D), 2, 3.0, 0.3),
], ids=["lq", "lq-coarse", "bounded-nm", "c2d", "c2d-wide"])
def test_exact_pass_is_no_worse_than_a_brute_force_of_the_interval(make_model, dim, r, h, scheme):
    """At every node the exact pass's action scores no higher than the best of 20001
    equally spaced actions, up to the rounding of the row's terms.

    Its candidates stand a few roundings of b off each stencil switch, and two
    actions that close score alike only to rounding: the allowance is 8 roundings
    of the row's terms (the worst case seen is about 2).
    """
    m = make_model()
    g = make_grid(dim, r, h)
    sol = solve_hjb_dirichlet(m, g, scheme=scheme)
    rows = discretize._action_rows(m, g, scheme)
    rng = np.random.default_rng(3)
    for v in (sol.eigenpair.v, sol.eigenpair.v * (1.0 + 0.2 * rng.random(g.n))):
        policy, b, c = rows.improve(g, v)
        got = _row_values(m, g, v, policy.values[None, :], scheme)[0][0]
        best, scale = _brute_force(m, g, v, scheme)
        assert np.all(got <= best + 8 * np.finfo(float).eps * scale)
        # the rows returned are the model's rows at the actions picked
        assert np.array_equal(b, m.drift_rows(g.nodes, policy.values))
        assert np.array_equal(c, m.cost_rows(g.nodes, policy.values))


@pytest.mark.parametrize("k", [11, 101, 1001])
def test_interval_eigenvalue_is_below_every_listed_grid_of_it(k):
    """The interval holds every listed grid of it, so its minimized eigenvalue is lower."""
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.05)
    exact = solve_hjb_dirichlet(m, g).eigenpair.eigenvalue
    listed = solve_hjb_dirichlet(oracles.listed_actions(m, k), g).eigenpair.eigenvalue
    assert exact < listed


def test_lq_clamped_interval_rate_is_the_closed_form():
    """r = 8, h = 0.01: the interval leaves only the h error (101 listed actions were 4e-4 off)."""
    want = oracles.lq_clamped_rate(1.0, 0.375, 1.0)[0]
    sol = solve_hjb_dirichlet(builtin("lq_clamped"), make_grid(1, 8.0, 0.01))
    assert want == 0.1875
    assert abs(sol.eigenpair.eigenvalue - want) <= 5e-6


def test_policy_iteration_stops_when_near_ties_alternate():
    """At h = 0.25 the stencil switch leaves two actions scoring alike to rounding at some
    nodes; the eigenvalue then rises by rounding, and iteration stops there instead of
    alternating between the two policies up to MAX_POLICY_SWEEPS."""
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.25)
    sol = solve_hjb_dirichlet(m, g)
    assert sol.policy_sweeps < 10
    assert sol.hjb_residual <= 1e-9


SHIFTED_INTERVAL = {"dim": 1, "drift": {"family": "affine"},
                    "cost": {"family": "quadratic", "kappa": 0.375, "rho": 1.0},
                    "actions": {"interval": [0.5, 2.0]}}


@pytest.mark.parametrize("make_model, start", [
    (lambda: builtin("lq_clamped"), lambda g: Policy(values=np.zeros(g.n))),
    (lambda: builtin("bounded_nm"), lambda g: Policy(values=np.zeros(g.n))),
    (lambda: model_from_config(SHIFTED_INTERVAL), lambda g: Policy(values=np.full(g.n, 0.5))),
    # listed, the cheapest of 11 actions from -5 to 5 is u = 0
    (lambda: oracles.listed_actions(builtin("lq_clamped"), 11), Policy.uniform),
    (lambda: builtin("ou_quadratic"), Policy.uniform),
], ids=["lq", "bounded-nm", "shifted-interval", "listed", "uncontrolled"])
def test_policy_iteration_starts_from_the_cheapest_action(monkeypatch, make_model, start):
    m = make_model()
    g = make_grid(1, 4.0, 0.1)
    ops = []
    real = eigensolve.principal_eigenpair
    monkeypatch.setattr(eigensolve, "principal_eigenpair",
                        lambda op, *a, **kw: ops.append(op) or real(op, *a, **kw))
    solve_hjb_dirichlet(m, g)
    want = assemble(m, g, start(g)).entries
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ops[0].entries, part), getattr(want, part))


@pytest.mark.parametrize("scheme", ["hybrid", "upwind"])
def test_tridiagonal_row_scale_is_the_csr_row_sums_bitwise(scheme):
    """The eigensolve's rounding floor reads the bands, with the bits of |A| summed by rows."""
    rng = np.random.default_rng(4)
    g = make_grid(1, 4.0, 0.05)
    models = [builtin(name) for name in ("ou_quadratic", "lq_clamped", "double_well", "bounded_nm")]
    # each model under its first action: the interval's lower end where it has one
    ops = [assemble(m, g, Policy(np.full(g.n, m.actions[0])), scheme) for m in models]
    sol = solve_hjb_dirichlet(builtin("lq_clamped"), g, scheme=scheme)
    ops.append(assemble_fields(g, sol.b, sol.c, sol.a, scheme))
    ops.append(assemble_fields(g, rng.normal(0.0, 30.0, (g.n, 1)), rng.random(g.n) * 1e3,
                               np.full((g.n, 1, 1), 0.7), scheme))
    for op in ops:
        bands = eigensolve._tridiagonal_bands(op.entries)
        want = float(np.max(np.abs(op.entries).sum(axis=1)))
        assert eigensolve._tridiagonal_row_scale(*bands) == want
