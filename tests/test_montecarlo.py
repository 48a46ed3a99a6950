"""Path marching, Feynman-Kac estimators, exit checks, growth integrals, strictness probes."""

import hashlib
import os
import time
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import oracles
from riskeig import (
    Bump,
    EigenPair,
    EstimatorUndefinedError,
    InvalidModelError,
    Model,
    Policy,
    SimConfig,
    UnreliableEstimateError,
    builtin,
    exit_exponential_moment,
    exit_representation_check,
    fk_lambda,
    gamma_integral,
    make_grid,
    monotonicity_probe,
    solve_hjb_dirichlet,
    sweep,
)
from riskeig.continuation import _summarize
from riskeig import montecarlo
from riskeig.montecarlo import _resolve, _sigma_action, field_interpolant, run_paths


def _const_cost_model(c0: float, drift=None, sigma_scale=1.0):
    return Model(
        1,
        drift if drift is not None else (lambda x, u: -x),
        lambda x: sigma_scale * np.eye(1),
        lambda x, u: np.full(len(x), c0),
        np.array([0.0]),
    )


def _march(m, x0, cfg, threads=1):
    """The model's diffusion from x0 under its first action, with no integrand."""
    drift_fn, _ = _resolve(m, None)
    return run_paths(drift_fn, _sigma_action(m), np.atleast_1d(float(x0)), cfg, threads=threads)


def _solved(m, grid, v, lam):
    """A solve of m on grid carrying the eigenpair (lam, v) instead of its own."""
    return replace(solve_hjb_dirichlet(m, grid), eigenpair=EigenPair(lam, v, 0.0, 1, (lam, lam)))


# -------------------------------------------------------------------- SimConfig

def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(paths=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    # one Euler step: the g(t) checkpoints would coincide
    with pytest.raises(ValueError):
        SimConfig(dt=0.7, horizon=1.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=float("inf"))
    with pytest.raises(ValueError, match="seed"):
        SimConfig(seed=-1)


# --------------------------------------------------------------------- marching

def test_noiseless_linear_drift_is_euler_exact():
    """sigma = 0 collapses to the Euler recursion x_{k+1} = (1 - dt) x_k."""
    m = Model(1, lambda x, u: -x, lambda x: np.zeros((1, 1)),
              lambda x, u: np.zeros(len(x)), np.array([0.0]))
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=3, seed=1)
    batch = _march(m, 1.0, cfg)
    want = (1.0 - cfg.dt) ** cfg.n_steps
    np.testing.assert_allclose(batch.final[:, 0], want, atol=1e-12)
    assert abs(want - np.exp(-1.0)) < 1e-2


def test_driftless_sample_mean_near_zero():
    m = _const_cost_model(0.0, drift=lambda x, u: np.zeros_like(x))
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=100_000, seed=7)
    batch = _march(m, 0.0, cfg, threads=4)
    assert abs(batch.final[:, 0].mean()) <= 3.0 / np.sqrt(cfg.paths)


def test_fixed_seed_replay_is_bitwise():
    m = builtin("ou_quadratic")
    cfg = SimConfig(dt=0.01, horizon=2.0, paths=500, seed=42)
    b1 = _march(m, 0.5, cfg)
    b2 = _march(m, 0.5, cfg)
    np.testing.assert_array_equal(b1.final, b2.final)
    np.testing.assert_array_equal(b1.truncated, b2.truncated)


def test_thread_count_does_not_change_results():
    m = builtin("ou_quadratic")
    cfg = SimConfig(dt=0.01, horizon=2.0, paths=4096, seed=9)
    b1 = _march(m, 0.5, cfg, threads=1)
    b4 = _march(m, 0.5, cfg, threads=4)
    np.testing.assert_array_equal(b1.final, b4.final)


@pytest.mark.parametrize("threads", [0, -1])
def test_run_paths_rejects_fewer_than_one_thread(threads):
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=3, seed=1)
    with pytest.raises(ValueError, match="threads"):
        _march(builtin("ou_quadratic"), 0.5, cfg, threads=threads)


def test_more_workers_than_cores_write_the_same_rows(monkeypatch):
    """Eight forked workers over uneven chunks fill every row as the serial march does."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 7)
    m = builtin("ou_quadratic")
    drift_fn, cost_fn = _resolve(m, None)
    cfg = SimConfig(dt=0.01, horizon=3.0, paths=101, seed=31, kill_radius=2.0)
    serial, forked = (
        run_paths(drift_fn, _sigma_action(m), np.array([0.5]), cfg, integrands=(cost_fn,),
                  absorb_radius=0.2, snapshot_steps=(5, 100), threads=threads)
        for threads in (1, 8)
    )
    assert _batch_digest(forked) == _batch_digest(serial)


def _pointwise_sigma_model(dim):
    return Model(dim, lambda x, u: -0.5 * x, oracles.pointwise_sigma,
                 lambda x, u: np.einsum("ni,ni->n", x, x), np.array([0.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_pointwise_sigma_acts_path_by_path(dim):
    """A state-dependent sigma multiplies each path's noise by sigma at that path's state."""
    x, xi = np.random.default_rng(3).normal(size=(2, 50, dim))
    got = _sigma_action(_pointwise_sigma_model(dim))(x, xi)
    want = [oracles.pointwise_sigma(xk[None])[0] @ xik for xk, xik in zip(x, xi)]
    np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_pointwise_sigma_march_does_not_depend_on_workers(monkeypatch, dim):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 16)
    m = _pointwise_sigma_model(dim)
    drift_fn, cost_fn = _resolve(m, None)
    cfg = SimConfig(dt=0.01, horizon=3.0, paths=60, seed=9, kill_radius=2.5)
    serial, forked = (
        run_paths(drift_fn, _sigma_action(m), np.full(dim, 1.0), cfg, integrands=(cost_fn,),
                  absorb_radius=0.3, snapshot_steps=(50,), threads=threads)
        for threads in (1, 3)
    )
    assert serial.absorbed.any()
    assert _batch_digest(forked) == _batch_digest(serial)


# sha256 of every PathBatch array of the march in the test below; a change to
# the kernel that moves any bit of its output moves this digest
PINNED_BATCH_SHA256 = "7893a26047f62614f83c2228f008d06c9d3262edee520387450f2c640c144c33"


def _batch_digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.final, batch.truncated, batch.absorbed, batch.exit_step, *batch.integrals):
        h.update(np.ascontiguousarray(arr).tobytes())
    for step in sorted(batch.snapshots):
        snap = batch.snapshots[step]
        for arr in (snap["truncated"], *snap["integrals"]):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("threads", [1, 3])
def test_run_paths_bytes_are_pinned(monkeypatch, threads):
    """Several chunks and blocks, deaths mid-block, snapshots around them, all exited early."""
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 16)
    monkeypatch.setattr(montecarlo, "BLOCK_STEPS", 32)
    m = Model(
        2,
        lambda x, u: 0.15 * x + 0.1 * np.sin(x[:, ::-1]),
        lambda x: np.array([[1.0, 0.3], [0.0, 0.8]]),
        lambda x, u: np.einsum("ni,ni->n", x, x),
        np.array([0.0]),
    )
    drift_fn, cost_fn = _resolve(m, None)
    cfg = SimConfig(dt=0.01, horizon=20.0, paths=100, seed=2024, kill_radius=3.0)
    batch = run_paths(
        drift_fn, _sigma_action(m), np.array([1.2, 0.3]), cfg,
        integrands=(cost_fn, lambda x: np.sin(x[:, 0]) * x[:, 1]),
        absorb_radius=0.5, snapshot_steps=(3, 150, 1999), threads=threads,
    )
    # the march covers what the digest is meant to pin
    assert batch.truncated.any() and batch.absorbed.any()
    assert not (batch.truncated & batch.absorbed).any()
    assert np.any(batch.exit_step % montecarlo.BLOCK_STEPS != 0)   # deaths inside a block
    assert np.all(batch.exit_step > 3) and np.any(batch.exit_step < 150)
    assert batch.exit_step.max() < 1999 < cfg.n_steps              # all exited before the horizon
    assert _batch_digest(batch) == PINNED_BATCH_SHA256


# the same digest for a 1-D march with an interpolated integrand, which takes
# the scalar sigma and |x| radius paths and the interpolant on one axis
PINNED_BATCH_1D_SHA256 = "f3b7f64f8d9cd61a6b1c3dd3ffa5273117dc6d523659886d23fb1ab28e307ed9"


@pytest.mark.parametrize("threads", [1, 3])
def test_run_paths_1d_bytes_are_pinned(monkeypatch, threads):
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 16)
    monkeypatch.setattr(montecarlo, "BLOCK_STEPS", 32)
    m = Model(
        1,
        lambda x, u: 0.15 * x + 0.1 * np.sin(x),
        lambda x: np.array([[0.8]]),
        lambda x, u: x[:, 0] ** 2,
        np.array([0.0]),
    )
    g = make_grid(1, 3.0, 0.05)
    field = np.cos(3.0 * g.axis) + 1.5
    drift_fn, cost_fn = _resolve(m, None)
    cfg = SimConfig(dt=0.01, horizon=20.0, paths=100, seed=2024, kill_radius=2.5)
    batch = run_paths(
        drift_fn, _sigma_action(m), np.array([1.2]), cfg,
        integrands=(cost_fn, field_interpolant(g, field)),
        absorb_radius=0.5, snapshot_steps=(3, 150, 1999), threads=threads,
    )
    assert batch.truncated.any() and batch.absorbed.any()
    assert np.any(batch.exit_step % montecarlo.BLOCK_STEPS != 0)
    assert np.all(batch.exit_step > 3) and np.any(batch.exit_step < 150)
    assert batch.exit_step.max() < 1999 < cfg.n_steps
    assert _batch_digest(batch) == PINNED_BATCH_1D_SHA256


@pytest.mark.parametrize("s", [1.0, 0.8, -1.3, 2.0**-30])
def test_constant_sigma_1d_is_the_matmul_bitwise(s):
    """A constant 1x1 sigma multiplies 1-D noise by one scalar."""
    m = Model(1, lambda x, u: -x, lambda x: np.array([[s]]), lambda x, u: np.zeros(len(x)),
              np.array([0.0]))
    xi = np.random.default_rng(3).standard_normal((2000, 1))
    want = (xi @ np.array([[s]]).T).view(np.int64)
    np.testing.assert_array_equal(_sigma_action(m)(None, xi).view(np.int64), want)


@pytest.mark.parametrize("threads", [1, 2])
def test_nan_coefficients_are_model_errors(monkeypatch, threads):
    """A drift or a cost that turns NaN off the unit ball fails the march, whichever it is.

    At two workers only forked children see the NaN, so the error crosses
    from a child with the serial run's type, message and payload.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()

    def models(anywhere):
        nan_off_ball = lambda x, val: np.where(
            (np.abs(x) > 1.0) & (anywhere or os.getpid() != parent), np.nan, val)
        drifts = (lambda x, u: nan_off_ball(x, -x), lambda x, u: -x)
        costs = (lambda x, u: np.full(len(x), 1.0), lambda x, u: nan_off_ball(x[:, 0], 1.0))
        return [Model(1, drift, lambda x: np.eye(1), cost, np.array([0.0]))
                for drift, cost in zip(drifts, costs)]

    cfg = SimConfig(dt=0.01, horizon=2.0, paths=64, seed=17)
    for serial, m in zip(models(True), models(threads == 1)):
        with pytest.raises(InvalidModelError) as want:
            fk_lambda(serial, None, x0=0.0, cfg=cfg)
        with pytest.raises(InvalidModelError) as got:
            fk_lambda(m, None, x0=0.0, cfg=cfg, threads=threads)
        assert str(got.value) == str(want.value)
        assert got.value.payload == want.value.payload


def _no_child_left():
    """Every forked child has been reaped: none is running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", [0, 1])
def test_share_failure_kills_and_reaps_every_worker(monkeypatch, failing):
    """A two-worker march whose integrand raises in chunk 0 or in chunk 1.

    65 paths split into chunks of 32 and 33 rows, so the integrand tells its
    chunk by its row count.  When chunk 0 fails, chunk 1 is marching a 1e5
    horizon, minutes of work, and is killed.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = (32, 33)[failing]

    def integrand(x):
        if len(x) == rows:
            raise UnreliableEstimateError("share failed", payload={"rows": np.arange(len(x))})
        return np.zeros(len(x))

    m = _const_cost_model(0.0)
    drift_fn, _ = _resolve(m, None)
    cfg = SimConfig(dt=0.01, horizon=1e5 if failing == 0 else 2.0, paths=65, seed=5)
    start = time.monotonic()
    with pytest.raises(UnreliableEstimateError) as err:
        run_paths(drift_fn, _sigma_action(m), np.zeros(1), cfg,
                  integrands=(integrand,), threads=2)
    assert time.monotonic() - start < 10.0
    assert str(err.value) == "share failed"
    np.testing.assert_array_equal(err.value.payload["rows"], np.arange(rows))
    _no_child_left()


@pytest.mark.parametrize("lo", [0, 1])
def test_pool_raises_the_lowest_failure_whichever_worker_runs_it(monkeypatch, tmp_path, lo):
    """Jobs lo and lo + 1 of four fail on two workers; the lower one fails last.

    Jobs 0 and 1 start on the two children.  At lo = 1 job 0 returns first,
    so its child takes job 2 and fails it while job 1 still runs.  The lower
    failure is raised as a serial run would raise it, and no job above the
    higher failure starts.  Each job leaves a file naming its process.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    hi = lo + 1

    def job(i):
        (tmp_path / str(i)).write_text(str(os.getpid()))
        if i == lo:
            time.sleep(0.3)
            raise UnreliableEstimateError(f"job {i}", payload={"job": i})
        if i == hi:
            raise EstimatorUndefinedError(f"job {i}")
        return i

    with pytest.raises(UnreliableEstimateError) as err:
        montecarlo._fork_map(job, 4, 2)
    assert str(err.value) == f"job {lo}" and err.value.payload == {"job": lo}
    ran = {int(f.name): int(f.read_text()) for f in tmp_path.iterdir()}
    assert sorted(ran) == list(range(hi + 1))
    assert os.getpid() not in ran.values() and ran[0] != ran[1]
    if lo == 1:
        assert ran[2] == ran[0]   # the worker that freed up first
    _no_child_left()


def test_pool_shows_a_child_jobs_warnings_in_job_order(monkeypatch):
    """An fk job on the second child warns about its short horizon, after job 0's warning."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = _const_cost_model(0.0)
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=16, seed=3)

    def job(i):
        if i == 0:
            time.sleep(0.2)   # job 1's warning is raised first
            warnings.warn("job 0 warns", UserWarning)
            return os.getpid()
        return os.getpid(), fk_lambda(m, None, x0=0.0, cfg=cfg)

    with pytest.warns(UserWarning) as caught:
        (pid0, (pid1, est)) = montecarlo._fork_map(job, 2, 2)
    assert len({os.getpid(), pid0, pid1}) == 3
    assert str(caught[0].message) == "job 0 warns"
    assert "finite-horizon bias" in str(caught[1].message)
    with pytest.warns(UserWarning, match="finite-horizon bias"):
        assert est == fk_lambda(m, None, x0=0.0, cfg=cfg)


def test_pool_raises_when_a_child_dies_mid_job(monkeypatch):
    """A child that exits inside job 0 raises ChildProcessError; job 1's child is killed."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()

    def job(i):
        if i == 0 and os.getpid() != parent:
            os._exit(7)
        time.sleep(600.0)

    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="exit code 7"):
        montecarlo._fork_map(job, 2, 2)
    assert time.monotonic() - start < 10.0
    _no_child_left()


def test_pool_returns_results_larger_than_a_pipe_buffer(monkeypatch):
    """Two jobs of 1 MB each, far more than a pipe holds, come back whole at two workers."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    job = lambda i: np.arange(1 << 17, dtype=float) + i
    got = montecarlo._fork_map(job, 2, 2)
    for i, arr in enumerate(got):
        np.testing.assert_array_equal(arr, job(i))
    _no_child_left()


def test_explosive_finite_drift_is_truncated_not_an_error():
    m = _const_cost_model(1.0, drift=lambda x, u: x**3)
    cfg = SimConfig(dt=0.01, horizon=4.0, paths=256, seed=19, kill_radius=4.0)
    est = fk_lambda(m, None, x0=0.5, cfg=cfg)
    assert 0.0 < est.truncated_fraction < 1.0
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_kill_radius_marks_truncation():
    m = _const_cost_model(0.0, drift=lambda x, u: 3.0 * x)  # outward blow-up
    cfg = SimConfig(dt=0.01, horizon=4.0, paths=64, seed=3, kill_radius=4.0)
    batch = _march(m, 1.0, cfg)
    assert batch.truncated.all()
    assert np.all(batch.exit_times[batch.truncated] < cfg.horizon)


def test_start_outside_kill_radius_is_undefined():
    """No path starts inside the window, so there is nothing to estimate."""
    cfg = SimConfig(dt=0.01, horizon=4.0, paths=64, seed=1, kill_radius=3.0)
    with pytest.raises(EstimatorUndefinedError):
        gamma_integral(builtin("ou_quadratic"), None, 0.25, x0=5.0, cfg=cfg)


# ------------------------------------------------------------------- fk_lambda

def test_fk_constant_cost_exact():
    m = _const_cost_model(0.7)
    cfg = SimConfig(dt=0.01, horizon=2.0, paths=128, seed=11)
    est = fk_lambda(m, None, x0=0.0, cfg=cfg)
    assert est.value == pytest.approx(0.7, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    assert est.truncated_fraction == 0.0


def test_fk_logsumexp_stays_finite_for_huge_integrals():
    """Path integrals near 1000 in log units overflow exp; the estimate must not."""
    m = _const_cost_model(20.0)
    cfg = SimConfig(dt=0.01, horizon=50.0, paths=64, seed=13)
    est = fk_lambda(m, None, x0=0.0, cfg=cfg)
    assert est.value == pytest.approx(20.0, abs=1e-10)
    assert np.isfinite(est.value)


def test_fk_stderr_scales_with_path_count(monkeypatch):
    # bounded cost keeps the exponential integrand light-tailed, so the
    # batch-means stderr is in its CLT regime and scales like paths^(-1/2)
    m = Model(1, lambda x, u: -x, lambda x: np.eye(1),
              lambda x, u: 1.0 / (1.0 + x[:, 0] ** 2), np.array([0.0]))
    kw = dict(dt=0.01, horizon=10.0, seed=99)
    monkeypatch.setattr(montecarlo, "DEFAULT_BATCHES", 200)
    e_small = fk_lambda(m, None, 0.0, SimConfig(paths=1000, **kw), threads=4)
    e_big = fk_lambda(m, None, 0.0, SimConfig(paths=4000, **kw), threads=4)
    ratio = e_small.stderr / e_big.stderr
    assert 1.6 <= ratio <= 2.5


def test_fk_all_paths_truncated_is_an_error():
    m = _const_cost_model(1.0, drift=lambda x, u: 3.0 * x)
    cfg = SimConfig(dt=0.01, horizon=4.0, paths=32, seed=3, kill_radius=4.0)
    with pytest.raises(EstimatorUndefinedError):
        fk_lambda(m, None, x0=1.0, cfg=cfg)


def test_policy_spec_must_match_its_grid():
    """A policy from another grid would pick actions by the wrong node index, and each
    value must be in the action set: inside the interval, or listed (-5, -2.5, ..., 5)."""
    grid = make_grid(1, 2.0, 0.1)
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=8, seed=7)
    for m, outside in ((builtin("lq_clamped"), 5.5), (oracles.listed_actions(builtin("lq_clamped"), 5), 0.5)):
        sol = solve_hjb_dirichlet(m, grid)
        for values in (np.zeros(grid.n + 1), np.full(grid.n, outside), np.full(grid.n, np.nan)):
            with pytest.raises(ValueError):
                fk_lambda(m, replace(sol, policy=Policy(values)), x0=0.0, cfg=cfg)


def test_interval_policy_marches_with_one_model_call_per_step(monkeypatch):
    """On an action interval each path takes its nearest node's action value, through one
    drift and one cost evaluation per step; the rows are the model's at those actions."""
    m = builtin("lq_clamped")
    grid = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, grid)
    x = np.random.default_rng(2).uniform(-5.0, 5.0, (300, 1))
    u = sol.policy.values[np.clip(np.rint((x[:, 0] - grid.axis[0]) / 0.1).astype(int), 0, grid.n - 1)]
    want_b = np.concatenate([m.drift_at(x[i:i + 1], u[i]) for i in range(len(x))])
    want_c = np.concatenate([m.cost_at(x[i:i + 1], u[i]) for i in range(len(x))])
    assert np.unique(u).size > 50
    calls = []
    for name in ("drift_at", "cost_at"):
        real = getattr(Model, name)
        monkeypatch.setattr(Model, name, lambda self, *a, _n=name, _f=real: calls.append(_n) or _f(self, *a))
    drift_fn, cost_fn = _resolve(m, sol)
    np.testing.assert_array_equal(drift_fn(x), want_b)
    np.testing.assert_array_equal(cost_fn(x), want_c)
    assert calls == ["drift_at", "cost_at"]
    for values in (np.zeros(grid.n + 1), np.full(grid.n, 5.5)):
        with pytest.raises(ValueError):
            _resolve(m, replace(sol, policy=Policy(values=values)))


def test_listed_policy_marches_with_one_model_call_per_action_in_use(monkeypatch):
    """On an action list each path takes its nearest node's listed action, through one
    drift and one cost evaluation per action in use; the rows are the model's at those actions."""
    m = oracles.listed_actions(builtin("lq_clamped"), 11)
    grid = make_grid(1, 4.0, 0.1)
    sol = solve_hjb_dirichlet(m, grid)
    x = np.random.default_rng(2).uniform(-5.0, 5.0, (300, 1))
    u = sol.policy.values[np.clip(np.rint((x[:, 0] - grid.axis[0]) / 0.1).astype(int), 0, grid.n - 1)]
    want_b = np.concatenate([m.drift_at(x[i:i + 1], u[i]) for i in range(len(x))])
    want_c = np.concatenate([m.cost_at(x[i:i + 1], u[i]) for i in range(len(x))])
    assert np.unique(u).size > 2
    calls = []
    for name in ("drift_at", "cost_at"):
        real = getattr(Model, name)
        monkeypatch.setattr(Model, name, lambda self, *a, _n=name, _f=real: calls.append(_n) or _f(self, *a))
    drift_fn, cost_fn = _resolve(m, sol)
    np.testing.assert_array_equal(drift_fn(x), want_b)
    np.testing.assert_array_equal(cost_fn(x), want_c)
    assert calls == ["drift_at"] * np.unique(u).size + ["cost_at"] * np.unique(u).size


def test_uncontrolled_policy_spec_marches_like_none():
    """An uncontrolled model has one action, so marching under its solve changes no bit."""
    m = builtin("double_well")
    grid = make_grid(1, 4.0, 0.1)
    cfg = SimConfig(dt=0.01, horizon=2.0, paths=256, seed=11, kill_radius=3.0)
    batches = []
    for sol in (None, solve_hjb_dirichlet(m, grid)):
        drift_fn, cost_fn = _resolve(m, sol)
        batches.append(run_paths(
            drift_fn, _sigma_action(m), np.array([1.5]), cfg,
            integrands=(cost_fn,), absorb_radius=0.5, snapshot_steps=(50,),
        ))
    a, b = batches
    assert a.absorbed.any()
    for name in ("final", "truncated", "absorbed", "exit_step"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.integrals[0], b.integrals[0])
    np.testing.assert_array_equal(a.snapshots[50]["integrals"][0], b.snapshots[50]["integrals"][0])


def test_fk_short_horizon_warns():
    m = _const_cost_model(0.01)
    cfg = SimConfig(dt=0.01, horizon=1.0, paths=32, seed=5)
    with pytest.warns(UserWarning, match="horizon"):
        fk_lambda(m, None, x0=0.0, cfg=cfg)


# ---------------------------------------------------------- exit representation

def test_exit_representation_degenerate_integrand():
    """f = lambda and a flat eigenfunction make every path contribute exactly 1."""
    lam = 0.3
    m = _const_cost_model(lam)
    g = make_grid(1, 4.0, 0.1)
    cfg = SimConfig(dt=0.01, horizon=20.0, paths=512, seed=23)
    est = exit_representation_check(m, _solved(m, g, np.ones(g.n), lam), r=1.0, x0=2.0, cfg=cfg)
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)


def test_exit_representation_seed_consistency():
    m = builtin("ou_quadratic")
    res_grid = make_grid(1, 6.0, 0.02)
    sol = solve_hjb_dirichlet(m, res_grid)
    kw = dict(dt=0.005, horizon=15.0, paths=1200)
    r1 = exit_representation_check(m, sol, 1.0, 2.0, SimConfig(seed=101, **kw), threads=4)
    r2 = exit_representation_check(m, sol, 1.0, 2.0, SimConfig(seed=202, **kw), threads=4)
    assert abs(r1.value - r2.value) <= 3.0 * np.hypot(r1.stderr, r2.stderr)


def test_exit_representation_requires_outside_start():
    m = builtin("ou_quadratic")
    g = make_grid(1, 4.0, 0.1)
    with pytest.raises(ValueError):
        exit_representation_check(
            m, _solved(m, g, np.ones(g.n), 0.25), r=1.0, x0=0.5,
            cfg=SimConfig(paths=8, horizon=1.0),
        )


def test_exit_representation_outward_drift_unreliable():
    m = _const_cost_model(0.0, drift=lambda x, u: x)
    g = make_grid(1, 4.0, 0.1)
    cfg = SimConfig(dt=0.01, horizon=3.0, paths=128, seed=29, kill_radius=16.0)
    with pytest.raises(UnreliableEstimateError):
        exit_representation_check(m, _solved(m, g, np.ones(g.n), 0.0), r=0.5, x0=3.0, cfg=cfg)


# ------------------------------------------------------------- exit exp. moment

def test_exit_moment_delta_zero_is_exactly_one():
    lam = 0.3
    m = _const_cost_model(lam)
    cfg = SimConfig(dt=0.01, horizon=20.0, paths=256, seed=31)
    rep = exit_exponential_moment(m, None, lam, delta=0.0, r=1.0, x0=2.0, cfg=cfg)
    assert rep.estimate.value == pytest.approx(1.0, abs=1e-14)
    assert rep.verdict == "finite-consistent"


def test_exit_moment_large_delta_diverges():
    """delta far above the spectral gap: the doubling schedule keeps growing."""
    lam = 0.3
    m = _const_cost_model(lam)
    cfg = SimConfig(dt=0.005, horizon=20.0, paths=1000, seed=37)
    rep = exit_exponential_moment(m, None, lam, delta=5.0, r=1.0, x0=2.0, cfg=cfg, threads=4)
    assert rep.verdict == "divergence-suspected"


def test_exit_moment_rejects_negative_delta():
    m = _const_cost_model(0.0)
    with pytest.raises(ValueError):
        exit_exponential_moment(m, None, 0.0, delta=-0.1, r=1.0, x0=2.0,
                                cfg=SimConfig(paths=8, horizon=1.0))


# --------------------------------------------------------------- gamma integral

def test_gamma_integral_subcritical_exponential_decay():
    """f = lambda - 1 gives g(t) = e^{-t} deterministically."""
    m = _const_cost_model(0.5)
    cfg = SimConfig(dt=0.01, horizon=8.0, paths=64, seed=41)
    rep = gamma_integral(m, None, lam=1.5, x0=0.0, cfg=cfg)
    assert rep.verdict == "convergent-suspected"
    assert rep.fitted_rate == pytest.approx(1.0, rel=1e-6)


def test_gamma_integral_overstated_rate_decays():
    m = builtin("ou_quadratic")
    cfg = SimConfig(dt=0.004, horizon=12.0, paths=3000, seed=43)
    rep = gamma_integral(m, None, lam=0.25 + 0.1, x0=0.0, cfg=cfg, threads=4)
    assert rep.verdict == "convergent-suspected"
    assert 0.03 <= rep.fitted_rate <= 0.3


def test_gamma_integral_critical_rate_plateaus():
    m = builtin("ou_quadratic")
    cfg = SimConfig(dt=0.004, horizon=12.0, paths=4000, seed=47)
    rep = gamma_integral(m, None, lam=0.25, x0=0.0, cfg=cfg, threads=4)
    assert rep.verdict == "divergent-consistent"
    want = oracles.ou_plateau(1.0, 0.375, 0.0)
    assert rep.plateau == pytest.approx(want, rel=0.35)


def test_gamma_integral_all_paths_truncated_is_an_error():
    """With no path alive at the last two checkpoints there is no g(t) to compare."""
    m = _const_cost_model(1.0, drift=lambda x, u: 3.0 * x)
    cfg = SimConfig(dt=0.01, horizon=4.0, paths=32, seed=3, kill_radius=4.0)
    with pytest.raises(EstimatorUndefinedError):
        gamma_integral(m, None, lam=1.0, x0=1.0, cfg=cfg)


# ----------------------------------------------------------- monotonicity probe

def test_probe_zero_bump_is_not_strict():
    m = builtin("ou_quadratic")
    probe = monotonicity_probe(m, Bump(0.0, -0.5, 0.5), sweep(m, (1.0, 1.5, 2.0), 0.05))
    assert probe.gap == 0.0
    assert not probe.strict


def test_probe_global_bump_shifts_exactly():
    m = builtin("ou_quadratic")
    probe = monotonicity_probe(m, Bump(0.3), sweep(m, (1.0, 1.5, 2.0), 0.05))
    assert probe.gap == pytest.approx(0.3, abs=1e-6)


def test_probe_compact_bump_is_strict_on_saturated_sweep():
    m = builtin("ou_quadratic")
    probe = monotonicity_probe(m, Bump(0.1, -1.0, 1.0), sweep(m, (2.0, 4.0, 6.0), 0.02))
    assert probe.strict
    assert probe.gap > 1e-3
    assert probe.lambda_bumped > probe.lambda_base


def test_probe_box_must_fit_inside_smallest_radius():
    m = builtin("ou_quadratic")
    with pytest.raises(ValueError):
        monotonicity_probe(m, Bump(0.1, -2.0, 2.0), sweep(m, (1.0, 2.0), 0.05))


def test_probe_on_sweep_prefix_matches_fresh_probe():
    """A probe built on the first rows of a longer sweep is the fresh probe, bit for bit."""
    m = builtin("ou_quadratic")
    res = sweep(m, (2.0, 4.0, 6.0, 8.0), 0.02)
    base = _summarize(m, res.solutions[:3], 1e-6)
    for bump in (Bump(0.1, -1.0, 1.0), Bump(0.3)):
        reused = monotonicity_probe(m, bump, base)
        fresh = monotonicity_probe(m, bump, sweep(m, (2.0, 4.0, 6.0), 0.02))
        assert reused.lambda_base == fresh.lambda_base
        assert reused.lambda_bumped == fresh.lambda_bumped
        assert reused.gap == fresh.gap
        assert reused.saturation_gap == fresh.saturation_gap


def test_probe_sweeps_the_bump_under_the_base_settings():
    """On an upwind base sweep the bumped sweep is upwind too, at the base's tolerances."""
    m = builtin("lq_clamped")
    radii, h, bump = (2.0, 4.0, 6.0), 0.05, Bump(0.1, -1.0, 1.0)
    settings = dict(pi_tol=1e-10, eigen_tol=1e-9, scheme="upwind")
    probe = monotonicity_probe(m, bump, sweep(m, radii, h, **settings))
    bumped = m.with_cost(
        lambda x, u: m.cost(x, u) + bump.epsilon * bump.indicator(m.points(x)), label="bumped")
    assert probe.lambda_bumped == sweep(bumped, radii, h, **settings).lambda_star


def test_bump_validation():
    with pytest.raises(ValueError):
        Bump(-0.1)
    with pytest.raises(ValueError):
        Bump(0.1, lo=-1.0)  # half-open box
    with pytest.raises(ValueError):
        Bump(0.1, lo=1.0, hi=-1.0)


# ---------------------------------------------------------------- interpolation

def test_interp_field_affine_exact_1d():
    g = make_grid(1, 2.0, 0.25)
    vals = 3.0 * g.nodes[:, 0] + 1.0
    q = np.array([[-1.37], [0.0], [1.62]])
    np.testing.assert_allclose(field_interpolant(g, vals)(q), 3.0 * q[:, 0] + 1.0, atol=1e-12)


def test_interp_field_affine_exact_2d():
    g = make_grid(2, 1.0, 0.2)
    vals = 2.0 * g.nodes[:, 0] - g.nodes[:, 1] + 0.5
    q = np.array([[0.33, -0.41], [-0.7, 0.7]])
    want = 2.0 * q[:, 0] - q[:, 1] + 0.5
    np.testing.assert_allclose(field_interpolant(g, vals)(q), want, atol=1e-12)


def _interp_queries(g, rng):
    """Random points in and off the box, every node, each node's ulp neighbours, extreme points."""
    r = g.radius
    neighbours = [np.nextafter(g.nodes, d) for d in product((-np.inf, np.inf), repeat=g.dim)]
    extremes = np.repeat(np.array([[-1e300], [1e300], [-np.inf], [np.inf], [-0.0]]), g.dim, axis=1)
    return np.concatenate([rng.uniform(-r - 1.0, r + 1.0, (4000, g.dim)), g.nodes, *neighbours,
                           extremes])


@pytest.mark.parametrize("dim, r, h", [
    (1, 8.0, 0.01), (1, 4.0, 0.1), (1, 3.7, 0.013), (1, 1.0, 0.5),
    (2, 4.0, 0.1), (2, 3.7, 0.13), (2, 1.0, 0.5),
])
def test_interp_field_is_the_multilinear_oracle_bitwise(dim, r, h):
    g = make_grid(dim, r, h)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.n)
    vals[::3] = -0.0   # signed zeros, whose sign a sum started from 0.0 would lose
    q = _interp_queries(g, rng)
    got = field_interpolant(g, vals)(q)
    want = oracles.multilinear_interpolation(g.axis, g.spacing, vals, q)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("r, h", [(8.0, 0.01), (4.0, 0.1), (3.7, 0.013), (1.0, 0.5)])
def test_interp_field_1d_is_near_np_interp(r, h):
    """t comes from the global cell coordinate, so it is within 2 m eps max|v| of np.interp."""
    g = make_grid(1, r, h)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.n)
    q = _interp_queries(g, rng)
    err = np.abs(field_interpolant(g, vals)(q) - np.interp(q[:, 0], g.axis, vals))
    assert err.max() <= 2 * g.axis.size * np.finfo(float).eps * np.abs(vals).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_interp_field_nan_point_is_nan_without_warning(dim):
    g = make_grid(dim, 1.0, 0.25)
    vals = np.arange(g.n, dtype=float)
    q = np.array([[np.nan] * dim, [0.0] * dim, [np.nan, 0.0][:dim], [0.0, np.nan][-dim:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = field_interpolant(g, vals)(q)
    assert np.isnan(out[[0, 2, 3]]).all() and out[1] == vals[g.origin_index]


def test_interp_field_clamps_outside_box():
    g = make_grid(1, 1.0, 0.5)
    vals = np.array([1.0, 2.0, 3.0])
    out = field_interpolant(g, vals)(np.array([[-9.0], [9.0]]))
    np.testing.assert_allclose(out, [1.0, 3.0])
