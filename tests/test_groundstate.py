"""Log transform, twisted drift, ergodicity certificate, classification."""

import csv
import dataclasses
import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import oracles
from riskeig import groundstate
from riskeig import (
    CertificateReport,
    EigenPair,
    FkEstimate,
    InvariantError,
    Model,
    SimConfig,
    assemble_fields,
    builtin,
    classify,
    ergodic_identity,
    ergodicity_certificate,
    field_gradient,
    make_grid,
    model_from_config,
    principal_eigenpair,
    solve_hjb_dirichlet,
    sweep,
    write_field_csv,
)

OU_2D = {"dim": 2, "drift": {"family": "ou"}, "cost": {"family": "quadratic", "kappa": 0.375}}

_ou_cache = {}


def _ou_solution(r=6.0, h=0.02):
    """Shared OU sweep: the certificate tests all reuse one solve."""
    key = (r, h)
    if key not in _ou_cache:
        radii = tuple(v for v in (2.0, 4.0, 6.0) if v <= r)
        res = sweep(builtin("ou_quadratic"), radii, h)
        _ou_cache[key] = res
    return _ou_cache[key]


def _pair(grid, v):
    v = np.asarray(v, dtype=float)
    return EigenPair(0.0, v / v[grid.origin_index], 0.0, 1, (0.0, 0.0))


def _with_v(grid, v):
    """An OU solve on ``grid`` whose eigenfunction is replaced by ``v``."""
    return replace(solve_hjb_dirichlet(builtin("ou_quadratic"), grid), eigenpair=_pair(grid, v))


# ---------------------------------------------------------------- log transform

def test_log_transform_constant_eigenfunction():
    g = make_grid(1, 1.0, 0.1)
    sol = _with_v(g, np.ones(g.n))
    np.testing.assert_allclose(sol.psi, 0.0, atol=0)
    np.testing.assert_allclose(sol.grad_psi, 0.0, atol=0)


def test_log_transform_exponential_gradient():
    g = make_grid(1, 1.0, 0.01)
    grad = _with_v(g, np.exp(g.nodes[:, 0])).grad_psi
    inner = g.interior_mask()
    np.testing.assert_allclose(grad[inner, 0], 1.0, atol=1e-4)


def test_log_transform_quadratic_ansatz_gradient():
    a, _ = oracles.ou_quadratic_rate(1.0, 0.375)
    g = make_grid(1, 2.0, 0.01)
    x = g.nodes[:, 0]
    grad = _with_v(g, np.exp(a * x**2)).grad_psi
    inner = g.interior_mask()
    np.testing.assert_allclose(grad[inner, 0], 2.0 * a * x[inner], atol=5e-4)


@pytest.mark.parametrize("model, dim, r, h", [("lq_clamped", 1, 4.0, 0.05), (OU_2D, 2, 3.0, 0.1)])
def test_ground_state_fields_are_the_log_transform_bits(model, dim, r, h):
    """psi, grad psi and the twisted drift are log v, np.gradient per axis and b + a grad psi."""
    m = model_from_config(model) if isinstance(model, dict) else builtin(model)
    grid = make_grid(dim, r, h)
    sol = solve_hjb_dirichlet(m, grid)
    psi = np.log(sol.eigenpair.v)
    grad = np.stack([np.gradient(psi.reshape(grid.shape), grid.spacing, axis=d).ravel()
                     for d in range(grid.dim)], axis=1)
    drift = sol.b + np.einsum("nde,ne->nd", sol.a, grad)
    for got, want in ((sol.psi, psi), (sol.grad_psi, grad), (sol.twisted_drift, drift)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # each field is computed once and kept
    assert sol.twisted_drift is sol.twisted_drift


def test_replaced_solve_computes_its_own_fields():
    g = make_grid(1, 2.0, 0.1)
    sol = solve_hjb_dirichlet(builtin("ou_quadratic"), g)
    psi, drift = sol.psi, sol.twisted_drift
    bent = replace(sol, eigenpair=_pair(g, np.exp(0.1 * g.nodes[:, 0])))
    np.testing.assert_array_equal(bent.psi, np.log(bent.eigenpair.v))
    assert not np.array_equal(bent.twisted_drift, drift)
    assert sol.psi is psi and sol.twisted_drift is drift
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.eigenpair = bent.eigenpair


@pytest.mark.parametrize("entry", [0.0, -1e-3])
def test_nonpositive_eigenfunction_has_no_ground_state(entry):
    g = make_grid(1, 1.0, 0.1)
    v = np.ones(g.n)
    v[0] = entry
    sol = _with_v(g, v)
    for name in ("psi", "grad_psi", "twisted_drift"):
        with pytest.raises(InvariantError, match="strictly positive"):
            getattr(sol, name)


def test_field_gradient_2d_separable():
    g = make_grid(2, 1.0, 0.05)
    f = g.nodes[:, 0] ** 2 - 0.5 * g.nodes[:, 1] ** 2
    grad = field_gradient(g, f)
    inner = g.interior_mask()
    np.testing.assert_allclose(grad[inner, 0], 2.0 * g.nodes[inner, 0], atol=1e-10)
    np.testing.assert_allclose(grad[inner, 1], -g.nodes[inner, 1], atol=1e-10)


# ---------------------------------------------------------------- twisted drift

def test_twisted_drift_zero_gradient_recovers_base():
    m = builtin("double_well")
    g = make_grid(1, 2.0, 0.1)
    # v = 1 has grad psi = 0 exactly
    tw = replace(solve_hjb_dirichlet(m, g), eigenpair=_pair(g, np.ones(g.n))).twisted_drift
    np.testing.assert_allclose(tw, m.drift(g.nodes, 0.0), atol=0)


def test_twisted_drift_constant_gradient_zero_base():
    m = Model(
        1,
        lambda x, u: np.zeros_like(x),
        lambda x: np.sqrt(2.0) * np.eye(1),  # a = sigma sigma^T = 2
        lambda x, u: np.zeros(len(x)),
        np.array([0.0]),
    )
    g = make_grid(1, 1.0, 0.1)
    # v = exp(0.1 x) has grad psi = 0.1 up to rounding
    sol = replace(solve_hjb_dirichlet(m, g), eigenpair=_pair(g, np.exp(0.1 * g.nodes[:, 0])))
    tw = sol.twisted_drift
    np.testing.assert_allclose(tw[:, 0], 0.2, atol=1e-14)


def test_twisted_drift_ou_matches_riccati_slope():
    res = _ou_solution()
    sol = res.solutions[-1]
    grid = sol.grid
    slope = oracles.ou_twisted_slope(1.0, 0.375)
    x = grid.nodes[:, 0]
    window = np.abs(x) <= grid.radius / 2.0
    err = np.max(np.abs(sol.twisted_drift[window, 0] - slope * x[window]))
    assert err <= 5e-3


# ------------------------------------------------------------------ certificate

def test_certificate_ou_geometric():
    res = _ou_solution()
    sol = res.solutions[-1]
    cert = ergodicity_certificate(
        sol, gamma=0.1, r_cut=1.0,
        saturation_gap=res.saturation_gap,
    )
    assert cert.classification == "geometric-certified"
    assert cert.delta_hat > 3.0 * res.saturation_gap
    # the auxiliary potential only drops by gamma on a compact set, so the
    # eigenvalue drop is pinched between 0 and gamma
    assert 0.0 < cert.delta_hat < 0.1
    assert cert.drift_check_max <= 1e-9
    assert np.all(cert.lyapunov > 0.0)


def test_certificate_brownian_inconclusive():
    m = Model(
        1,
        lambda x, u: np.zeros_like(x),
        lambda x: np.eye(1),
        lambda x, u: np.zeros(len(x)),
        np.array([0.0]),
    )
    res = sweep(m, (1.0, 2.0, 3.0), 0.02)
    sol = res.solutions[-1]
    cert = ergodicity_certificate(
        sol, gamma=0.1, r_cut=1.0,
        saturation_gap=res.saturation_gap,
    )
    assert cert.classification == "inconclusive"


def test_certificate_rejects_nonpositive_gamma():
    res = _ou_solution()
    sol = res.solutions[-1]
    with pytest.raises(ValueError):
        ergodicity_certificate(sol, gamma=0.0, r_cut=1.0)


def test_certificate_never_evaluates_the_model(monkeypatch):
    res = _ou_solution()
    sol = res.solutions[-1]
    calls = []
    for name in ("drift_at", "cost_at", "covariance"):
        real = getattr(Model, name)
        monkeypatch.setattr(
            Model, name, lambda self, *args, _n=name, _f=real: calls.append(_n) or _f(self, *args)
        )
    cert = ergodicity_certificate(sol, gamma=0.1, r_cut=1.0)
    # the bumped and the twisted operator both come from the solve's b, c, a
    assert calls == []
    assert cert.classification == "geometric-certified"


def test_certificate_runs_under_the_solve_scheme_and_tolerance():
    """An upwind solve's bumped operator is assembled upwind and solved at the solve's tolerance."""
    sol = solve_hjb_dirichlet(
        builtin("lq_clamped"), make_grid(1, 4.0, 0.05), eigen_tol=1e-5, scheme="upwind")
    grid = sol.grid
    cert = ergodicity_certificate(sol, gamma=0.1, r_cut=1.0)
    bump = 0.1 * (np.linalg.norm(grid.nodes, axis=1) <= 1.0)
    want, hybrid = (
        principal_eigenpair(assemble_fields(grid, sol.b, sol.c - bump, sol.a, scheme), sol.eigen_tol,
                            v0=sol.eigenpair.v)
        for scheme in ("upwind", "hybrid")
    )
    assert cert.lambda_bumped == want.eigenvalue
    assert cert.lambda_bumped != hybrid.eigenvalue
    assert cert.lambda_base == sol.eigenpair.eigenvalue


@pytest.mark.parametrize("model, radii, h", [
    ("lq_clamped", (2.0, 4.0, 6.0, 8.0), 0.01),
    (OU_2D, (2.0, 3.0, 4.0), 0.1),
])
def test_certificate_warm_start_matches_a_cold_start(monkeypatch, counting_spla, model, radii, h):
    """Started from the solve's eigenvector, the bumped eigensolve lands within tolerance of a cold one.

    In 1-D the warm start saves Noda steps; in 2-D the shift-invert Arnoldi
    start makes either one a single factorization.
    """
    m = model_from_config(model) if isinstance(model, dict) else builtin(model)
    res = sweep(m, radii, h)
    sol = res.solutions[-1]
    steps, factorizations = [], []

    def solve(op, tol, v0=None, cold=False):
        before = counting_spla.splu_calls
        pair = principal_eigenpair(op, tol, v0=None if cold else v0)
        steps.append(pair.iterations)
        factorizations.append(counting_spla.splu_calls - before)
        return pair

    monkeypatch.setattr(groundstate, "principal_eigenpair", solve)
    warm = ergodicity_certificate(sol, gamma=0.1, r_cut=1.0, saturation_gap=res.saturation_gap)
    monkeypatch.setattr(groundstate, "principal_eigenpair", partial(solve, cold=True))
    cold = ergodicity_certificate(sol, gamma=0.1, r_cut=1.0, saturation_gap=res.saturation_gap)
    assert abs(warm.lambda_bumped - cold.lambda_bumped) <= 2.0 * sol.eigen_tol
    assert warm.classification == cold.classification
    if sol.grid.dim == 1:
        assert steps[0] < steps[1]
    else:
        assert factorizations == [1, 1]


def test_certificate_delta_stable_under_refinement():
    res_h = _ou_solution()
    res_f = sweep(builtin("ou_quadratic"), (2.0, 4.0, 6.0), 0.01)
    deltas = []
    for res in (res_h, res_f):
        sol = res.solutions[-1]
        cert = ergodicity_certificate(
            sol, gamma=0.1, r_cut=1.0, saturation_gap=res.saturation_gap,
        )
        deltas.append(cert.delta_hat)
    assert abs(deltas[0] - deltas[1]) <= 5.0 * 0.02


# --------------------------------------------------------------- classification

def _cert(label):
    return CertificateReport(
        classification=label, delta_hat=0.0, lambda_base=0.0, lambda_bumped=0.0,
        gamma=0.1, r_cut=1.0, noise_floor=0.0, drift_check_max=0.0, checked_nodes=1,
    )


def test_classify_certificate_wins():
    assert classify(_cert("geometric-certified")) == "geometric-certified"


def test_classify_exit_check_promotes_to_recurrent():
    good = FkEstimate(value=1.01, stderr=0.01, paths_used=100, truncated_fraction=0.0)
    assert classify(_cert("inconclusive"), exit_check=good) == "recurrent-certified"


def test_classify_biased_exit_check_ignored():
    bad = FkEstimate(value=1.5, stderr=0.01, paths_used=100, truncated_fraction=0.0)
    assert classify(_cert("inconclusive"), exit_check=bad) == "inconclusive"


def test_classify_truncated_exit_check_ignored():
    lossy = FkEstimate(value=1.0, stderr=0.01, paths_used=100, truncated_fraction=0.2)
    assert classify(_cert("inconclusive"), exit_check=lossy) == "inconclusive"


# -------------------------------------------------------------- ergodic identity

def test_identity_constant_potential_exact():
    """f = c0 has a constant ground state: the identity collapses to mu(c0)=c0."""
    c0 = 0.4
    m = Model(
        1,
        lambda x, u: -x,
        lambda x: np.eye(1),
        lambda x, u: np.full(len(x), c0),
        np.array([0.0]),
    )
    g = make_grid(1, 4.0, 0.1)
    pair = replace(_pair(g, np.ones(g.n)), eigenvalue=c0)
    sol = replace(solve_hjb_dirichlet(m, g), eigenpair=pair)
    rep = ergodic_identity(
        m, sol,
        cfg=SimConfig(dt=0.01, horizon=5.0, paths=64, seed=4),
    )
    assert rep.mu_f == pytest.approx(c0, abs=1e-12)
    assert rep.half_mu_G == pytest.approx(0.0, abs=1e-12)
    assert rep.abs_gap <= 1e-12


def test_identity_ou_within_error_bars():
    res = _ou_solution()
    sol = res.solutions[-1]
    rep = ergodic_identity(
        builtin("ou_quadratic"), sol,
        cfg=SimConfig(dt=0.004, horizon=25.0, paths=2000, seed=99),
        threads=4,
    )
    mu_f, half_g, lam = oracles.ou_identity_terms(1.0, 0.375)
    assert rep.abs_gap <= 3.0 * rep.stderr
    assert rep.mu_f == pytest.approx(mu_f, abs=4.0 * rep.stderr_f)
    assert rep.half_mu_G == pytest.approx(half_g, abs=4.0 * rep.stderr_G)
    assert rep.truncated_fraction == 0.0


# ------------------------------------------------------------------- CSV export

def test_write_field_csv_splits_vector_columns(tmp_path):
    g = make_grid(2, 1.0, 0.5)
    path = tmp_path / "fields.csv"
    write_field_csv(path, g, {
        "psi": np.arange(g.n, dtype=float),
        "grad": np.ones((g.n, 2)),
    })
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "psi", "grad_1", "grad_2"]
    assert len(rows) == g.n + 1


def test_write_field_csv_bytes_are_pinned(tmp_path):
    """Every value at 17 significant digits: signed zero, thirds, 1e-300, a vector column."""
    g = make_grid(2, 1.0, 0.5)
    psi = np.arange(g.n, dtype=float) / 3.0
    psi[0], psi[1], psi[2] = -0.0, 1e-300, -1.0 / 3.0
    grad = np.stack([np.sin(g.nodes[:, 0]) * 1e5, -g.nodes[:, 1] / 7.0], axis=1)
    path = tmp_path / "fields.csv"
    write_field_csv(path, g, {"psi": psi, "grad": grad})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "adb934b04f0550b081e18674a2934eff52aa580231b8705fabfbf1b52b3ab9f1"
