"""Principal eigenpair solver and HJB policy iteration."""

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
    assemble,
    builtin,
    ground_state,
    hjb_residual,
    make_grid,
    principal_eigenpair,
    solve_hjb_dirichlet,
)
from riskeig import eigensolve
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
        principal_eigenpair(OperatorMatrix(g, sp.csr_matrix(bad)))


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
    real_splu = eigensolve.spla.splu

    class NoisyLU:
        def __init__(self, mat, **options):
            self._lu = real_splu(mat, **options)

        def solve(self, rhs):
            out = self._lu.solve(rhs)
            return out * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, out.size))

    monkeypatch.setattr(eigensolve, "spla", type("NoisySpla", (), {"splu": NoisyLU}))
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
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(op)
    assert err.value.payload["eigenpair"].bracket == (-2.0, -1.0)


def test_bracket_encloses_dense_eigenvalue():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = oracles.random_m_structured(rng, 50)
        pair = principal_eigenpair(_wrap(a))
        lam, _ = oracles.dense_principal_eigenpair(a)
        lo, hi = pair.bracket
        assert lo <= pair.eigenvalue <= hi
        assert lo - 1e-12 <= lam <= hi + 1e-12


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
    with pytest.raises(ValueError, match="max_iter"):
        principal_eigenpair(op, max_iter=0)


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


# -------------------------------------------------------------- HJB iteration

def test_uncontrolled_reduces_to_single_solve():
    m = builtin("ou_quadratic")
    g = make_grid(1, 4.0, 0.05)
    sol = solve_hjb_dirichlet(m, g)
    assert sol.policy_sweeps == 1
    assert len(sol.lambda_history) == 1
    assert np.all(sol.policy.indices == 0)


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
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    v = sol.eigenpair.v
    h = g.spacing
    rng = np.random.default_rng(5)
    nodes = rng.choice(np.arange(1, g.n - 1), size=20, replace=False)
    for i in nodes:
        dv_over_v = (v[i + 1] - v[i - 1]) / (2.0 * h) / v[i]
        want = oracles.quadratic_action_minimizer(m.actions, dv_over_v, 1.0)
        got = int(sol.policy.indices[i])
        # skip genuine ties: adjacent action values can score identically
        q = m.actions * dv_over_v + 0.5 * m.actions**2
        if abs(q[want] - q[got]) < 1e-12 and want != got:
            continue
        assert got == want


def test_controlled_cost_shift_preserves_policy():
    m = builtin("lq_clamped")
    shifted = m.with_cost(lambda x, u: m.cost(x, u) + 0.7, label="lq+0.7")
    g = make_grid(1, 4.0, 0.1)
    s0 = solve_hjb_dirichlet(m, g)
    s1 = solve_hjb_dirichlet(shifted, g)
    np.testing.assert_array_equal(s0.policy.indices, s1.policy.indices)
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


def test_solve_evaluates_the_model_once_per_pass(monkeypatch):
    """One covariance call per solve, one drift/cost call for the start policy,
    and one per action in each improvement pass; the ground state evaluates nothing."""
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    calls = _count_model_calls(monkeypatch)
    passes = []
    improve = eigensolve._improve_policy
    monkeypatch.setattr(
        eigensolve, "_improve_policy", lambda *args: passes.append(1) or improve(*args)
    )
    sol = solve_hjb_dirichlet(m, g)
    assert m.actions.size == 101
    assert len(passes) >= 2
    assert calls == {
        "drift_at": 1 + len(passes) * 101,
        "cost_at": 1 + len(passes) * 101,
        "covariance": 1,
    }
    before = dict(calls)
    ground_state(sol)
    assert calls == before


@pytest.mark.parametrize("name, tol, stationary", [
    ("lq_clamped", eigensolve.DEFAULT_PI_TOL, True),
    ("lq_clamped", 1.0, False),     # stops on the eigenvalue change before a pass at v
    ("ou_quadratic", eigensolve.DEFAULT_PI_TOL, True),
])
def test_solution_residual_reuses_a_stationary_solve(monkeypatch, name, tol, stationary):
    """The residual of a stationary solve evaluates nothing; the others rerun the pass."""
    m = builtin(name)
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g, tol=tol)
    assert sol.stationary is stationary
    want = hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue, "hybrid")
    calls = _count_model_calls(monkeypatch)
    assert eigensolve.solution_residual(m, sol) == want
    n = 0 if stationary else m.actions.size
    assert calls == {"drift_at": n, "cost_at": n, "covariance": min(n, 1)}


def test_solution_residual_is_taken_under_the_solve_scheme():
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.05)
    sol = solve_hjb_dirichlet(m, g, scheme="upwind")
    want = hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue, "upwind")
    assert eigensolve.solution_residual(m, sol) == want
    assert want <= 1e-9


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
    "actions": {"interval": [-1, 1], "count": 5},
}


def test_2d_controlled_hjb_minimizes_over_actions():
    """Policy iteration in 2-D with a mixed-derivative diffusion: the selector
    uses several actions, and the residual of the improved policy's assembled
    operator is at the rounding floor for the solved lambda only."""
    m = model_from_config(CONTROLLED_2D)
    g = make_grid(2, 3.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)
    assert np.unique(sol.policy.indices).size > 1
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
        defect = np.abs(op.apply(v) - lam * v) / v
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
