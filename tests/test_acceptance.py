"""Acceptance suite: one test per shipped guarantee, tolerances as declared.

Statistical checks run at full scale (10^4 paths, T=50) with pinned seeds;
the quadratic benchmark solve is shared across criteria through a module
cache so the suite stays within its runtime budgets.
"""

import json
import time

import numpy as np
import scipy.sparse as sp
from click.testing import CliRunner

import oracles
from riskeig import (
    Bump,
    Grid,
    Model,
    OperatorMatrix,
    Policy,
    SimConfig,
    builtin,
    ergodic_identity,
    ergodicity_certificate,
    exit_exponential_moment,
    exit_representation_check,
    fk_lambda,
    gamma_integral,
    ground_state,
    hjb_residual,
    make_grid,
    monotonicity_probe,
    principal_eigenpair,
    solve_hjb_dirichlet,
    sweep,
)
from riskeig.cli import main as cli_main

LAM_STAR, _ = oracles.ou_quadratic_rate(1.0, 0.375)   # 0.25
SIM = SimConfig(dt=1e-3, horizon=50.0, paths=10_000, seed=12345)

_cache: dict = {}


def _benchmark():
    """Quadratic benchmark sweep, radii (2,4,6,8) at h=0.01, single-threaded."""
    if "bench" not in _cache:
        m = builtin("ou_quadratic")
        t0 = time.time()
        res = sweep(m, (2.0, 4.0, 6.0, 8.0), 0.01, threads=1)
        elapsed = time.time() - t0
        sol = res.solutions[-1]
        grid, gs = sol.grid, ground_state(sol)
        _cache["bench"] = (m, res, grid, sol, gs, elapsed)
    return _cache["bench"]


def test_c01_benchmark_eigenvalue_via_radius_continuation():
    m, res, grid, sol, gs, elapsed = _benchmark()
    assert elapsed < 30.0
    assert abs(res.lambda_star - LAM_STAR) <= 1e-2
    assert np.all(res.lambdas < LAM_STAR)


def test_c02_dirichlet_laplacian_ground_eigenvalue():
    bm = Model(1, lambda x, u: np.zeros_like(x), lambda x: np.eye(1),
               lambda x, u: np.zeros(len(x)), np.array([0.0]))
    t0 = time.time()
    sol = solve_hjb_dirichlet(bm, make_grid(1, 1.0, 1e-3))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert abs(sol.eigenpair.eigenvalue - oracles.dirichlet_half_laplacian_rate(1.0)) <= 5e-3


def test_c03_eigenvalue_strictly_increasing_in_radius():
    for name in ("ou_quadratic", "double_well", "bounded_nm"):
        res = sweep(builtin(name), (1.0, 1.5, 2.0, 2.5), 0.02, threads=4)
        gaps = np.diff(res.lambdas)
        assert np.all(gaps > 1e-8), f"{name}: {res.lambdas}"


def test_c04_eigenvalue_convex_and_unit_lipschitz_in_potential():
    def lam_for(cost):
        m = Model(1, lambda x, u: -x, lambda x: np.eye(1), cost, np.array([0.0]))
        return solve_hjb_dirichlet(m, make_grid(1, 4.0, 0.1)).eigenpair.eigenvalue

    def random_potential(rng):
        c0, c2, cs, w = rng.uniform(0.0, 1.0, size=4)
        return lambda x, u, c0=c0, c2=c2, cs=cs, w=w: (
            c0 + c2 * np.sum(x * x, axis=-1) + cs * np.sin(3.0 * w * x[..., 0]) ** 2
        )

    rng = np.random.default_rng(2024)
    for _ in range(20):
        f1, f2 = random_potential(rng), random_potential(rng)
        l1, l2 = lam_for(f1), lam_for(f2)
        t = rng.choice([0.25, 0.5, 0.75])
        mix = lambda x, u, t=t, f1=f1, f2=f2: t * f1(x, u) + (1.0 - t) * f2(x, u)
        assert lam_for(mix) <= t * l1 + (1.0 - t) * l2 + 1e-10

    base = random_potential(rng)
    shifted = lambda x, u: base(x, u) + 0.7
    assert abs(lam_for(shifted) - lam_for(base) - 0.7) <= 1e-12


def test_c05_policy_iteration_selector_optimality():
    m = builtin("lq_clamped")
    g = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, g)

    hist = sol.lambda_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert hjb_residual(m, g, sol.eigenpair.v, sol.eigenpair.eigenvalue, "hybrid") <= 1e-10

    v, h = sol.eigenpair.v, g.spacing
    rng = np.random.default_rng(5)
    for i in rng.choice(np.arange(1, g.n - 1), size=20, replace=False):
        dv_over_v = (v[i + 1] - v[i - 1]) / (2.0 * h) / v[i]
        want = oracles.quadratic_action_minimizer(m.actions, dv_over_v, 1.0)
        got = int(sol.policy.indices[i])
        q = m.actions * dv_over_v + 0.5 * m.actions**2
        if abs(q[want] - q[got]) < 1e-12 and want != got:
            continue  # tie between adjacent actions
        assert got == want


def test_c06_twisted_drift_matches_closed_form():
    m, res, grid, sol, gs, _ = _benchmark()
    x = grid.nodes[:, 0]
    inner = np.abs(x) <= 0.5 * grid.radius
    want = oracles.ou_twisted_slope(1.0, 0.375) * x[inner]
    assert np.max(np.abs(gs.drift[inner, 0] - want)) <= 5e-3


def test_c07_ergodic_identity_closes():
    m, res, grid, sol, gs, _ = _benchmark()
    cfg = SimConfig(dt=0.002, horizon=50.0, paths=10_000, seed=12345)

    rep = ergodic_identity(m, gs, cfg, threads=8)
    assert rep.abs_gap <= 3.0 * rep.stderr
    mu_f, half_g, _ = oracles.ou_identity_terms(1.0, 0.375)
    assert abs(rep.mu_f - mu_f) <= 3.0 * rep.stderr_f + 1e-3
    assert abs(rep.half_mu_G - half_g) <= 3.0 * rep.stderr_G + 1e-3

    dw = builtin("double_well")
    dres = sweep(dw, (2.0, 4.0, 6.0, 8.0), 0.01, threads=4)
    dsol = dres.solutions[-1]
    dgs = ground_state(dsol)
    drep = ergodic_identity(dw, dgs, cfg, threads=8)
    assert drep.abs_gap <= 3.0 * drep.stderr


def test_c08_feynman_kac_cross_validation():
    m, res, grid, sol, gs, _ = _benchmark()
    t0 = time.time()
    fk = fk_lambda(m, None, 2.5, SIM, threads=8)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert abs(fk.value - LAM_STAR) <= 5e-2
    assert np.all(res.lambdas <= fk.value + 3.0 * fk.stderr)
    assert res.lambda_star <= fk.value + 3.0 * fk.stderr


def test_c09_exit_representation_ratio_is_one():
    m, res, grid, sol, gs, _ = _benchmark()
    est = exit_representation_check(m, sol, 1.0, 2.0, SIM, threads=8)
    assert abs(est.value - 1.0) <= 3.0 * est.stderr
    assert est.truncated_fraction < 0.01


def test_c10_compact_bump_moves_the_limit():
    m = builtin("ou_quadratic")
    base = sweep(m, (2.0, 4.0, 6.0), 0.02, threads=4)
    probe = monotonicity_probe(m, Bump(0.1, -1.0, 1.0), base, threads=4)
    assert probe.strict
    assert probe.gap > 1e-3
    flat = monotonicity_probe(m, Bump(0.3), base, threads=4)
    assert abs(flat.gap - 0.3) <= 1e-6


def test_c11_geometric_certificate_and_exponential_moment():
    m, res, grid, sol, gs, _ = _benchmark()
    lam = sol.eigenpair.eigenvalue
    cert = ergodicity_certificate(gs, 0.1, 1.0, saturation_gap=res.saturation_gap)
    assert cert.classification == "geometric-certified"
    assert cert.delta_hat > 0
    assert cert.delta_hat > 3.0 * res.saturation_gap
    moment = exit_exponential_moment(m, None, lam, cert.delta_hat / 2.0, 1.0, 2.0,
                                     SIM, threads=8)
    assert moment.verdict == "finite-consistent"


def test_c12_growth_integral_plateau_and_subcritical_decay():
    m, res, grid, sol, gs, _ = _benchmark()
    gam = gamma_integral(m, None, sol.eigenpair.eigenvalue, 0.0,
                         SimConfig(dt=0.004, horizon=12.0, paths=10_000, seed=12345),
                         threads=8)
    assert gam.verdict == "divergent-consistent"
    assert gam.plateau > 0

    flat = m.with_cost(lambda x, u: np.full(len(x), 0.5), label="flat")
    sub = gamma_integral(flat, None, 1.5, 0.0,
                         SimConfig(dt=0.004, horizon=12.0, paths=256, seed=12345))
    assert sub.verdict == "convergent-suspected"
    assert abs(sub.fitted_rate - 1.0) <= 0.1


def test_c13_eigensolver_matches_dense_oracle():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(5, 201))
        a = oracles.random_m_structured(rng, n)
        axis = 0.1 * (np.arange(n) - n // 2)
        g = Grid(1, abs(axis).max() + 0.1, 0.1, axis, (n,), axis[:, None], int(n // 2))
        pair = principal_eigenpair(OperatorMatrix(g, sp.csr_matrix(a)))
        want, _ = oracles.dense_principal_eigenpair(a)
        assert abs(pair.eigenvalue - want) <= 1e-8


def test_c14_verification_battery_is_reproducible(tmp_path):
    args = ["verify", "--model", "ou_quadratic", "--suite", "golden",
            "--paths", "3000", "--horizon", "30"]
    outs = []
    for threads, sub in (("8", "a"), ("2", "b")):
        out = tmp_path / sub
        res = CliRunner().invoke(cli_main, args + ["--threads", threads, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads((out / "result.json").read_text())["passed"] is True
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1]
