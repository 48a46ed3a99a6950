"""Euler-Maruyama path ensembles and the statistical checks built on them.

Every estimator here shares one marching kernel.  Paths get their own
counter-based RNG stream spawned from (seed, path index), so an ensemble is
reproducible bitwise regardless of chunking or worker count; reductions
happen after the march, in fixed path order.

The package's one parallel mechanism, the fork pool ``_fork_map``, lives
here.  The caller forks up to min(workers, cpu_count) children and hands
each job to whichever child frees up next, over a connection per child;
every result comes back pickled.  A march hands it its chunks of paths,
each returning its own rows; ``verify`` hands it whole marches instead, each
at threads=1; a radius sweep (``continuation.sweep``) hands it its radii.
Where ``os.fork`` is missing the jobs run one after another.

Exponential functionals are handled on the log scale throughout (logsumexp),
since path integrals of the running cost routinely reach hundreds of natural
log units.
"""

from __future__ import annotations

import math
import os
import signal
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import logsumexp

from .discretize import Grid, _policy_indices
from .eigensolve import HjbSolution
from .errors import EstimatorUndefinedError, UnreliableEstimateError
from .model import Model, sum_squares

DEFAULT_BATCHES = 32
CHUNK_PATHS = 2048
BLOCK_STEPS = 1024
# paths whose noise block is filled path-major before one transpose to time-major
FILL_TILE = 64
# horizon halvings below the full horizon on the exit-moment and g(t) schedules
DOUBLINGS = 4


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 50.0
    paths: int = 10_000
    seed: int = 12345
    kill_radius: float = 16.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        # the g(t) checkpoints and the identity's averaging span need two steps
        if not math.isfinite(self.horizon) or self.n_steps < 2:
            raise ValueError(
                f"horizon={self.horizon} must be finite and span at least two steps of dt={self.dt}"
            )
        if self.paths < 1:
            raise ValueError("need at least one path")
        if not self.kill_radius > 0:
            raise ValueError("kill_radius must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class FkEstimate:
    value: float
    stderr: float
    paths_used: int
    truncated_fraction: float

    def __post_init__(self):
        if self.stderr < 0 or not 0.0 <= self.truncated_fraction <= 1.0:
            raise ValueError("malformed estimate")


@dataclass
class PathBatch:
    """March output: terminal states plus whatever was accumulated on the way."""

    cfg: SimConfig
    final: np.ndarray                   # (paths, dim)
    truncated: np.ndarray               # crossed kill_radius
    absorbed: np.ndarray                # entered the absorbing ball
    exit_step: np.ndarray               # step of absorption/truncation, -1 if neither
    integrals: list[np.ndarray]
    snapshots: dict[int, dict]          # step -> {truncated, integrals}

    @property
    def exit_times(self) -> np.ndarray:
        return np.where(self.exit_step >= 0, self.exit_step * self.cfg.dt, np.inf)


def _as_state(x0, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"x0 has shape {x.shape}, model dimension is {dim}")
    return x


def _sigma_action(model: Model):
    """Return a callable applying sigma to a noise block, (k,dim)->(k,dim).

    A constant 1x1 sigma is one scalar multiply.  It has the bits of
    ``xi @ sig.T`` except on a zero product, whose sign the matmul drops by
    adding it to +0.0.
    """
    probe = model.diffusion(np.zeros((1, model.dim)))
    sig = np.asarray(probe, dtype=float)
    if sig.shape == (1, 1):
        s = float(sig[0, 0])
        return lambda x, xi: xi * s
    if sig.shape == (model.dim, model.dim):
        sig_t = sig.T.copy()
        return lambda x, xi: xi @ sig_t
    # state-dependent sigma
    def apply(x, xi):
        s = np.asarray(model.diffusion(x), dtype=float)
        return np.einsum("kij,kj->ki", s, xi)

    return apply


def field_interpolant(grid: Grid, values: np.ndarray):
    """Multilinear interpolation of one grid field, as a callable of points.

    Points are clamped to the grid box, so queries just outside the domain
    return the boundary value instead of extrapolating.  In 1-D the result
    has the bits of ``np.interp`` on the axis, for finite values: the same
    bracket ax[j] <= x < ax[j+1], found by index arithmetic on the uniform
    axis instead of a bisection per point, and the same formula, with the
    slopes built once per field.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.diff(values) / np.diff(grid.axis) if grid.dim == 1 else None
    return lambda x: _interpolate(grid, values, slopes, x)


def _interpolate(grid: Grid, values: np.ndarray, slopes, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1, grid.dim)
    ax = grid.axis
    h = grid.spacing
    xc = np.clip(x, ax[0], ax[-1])
    m = ax.size
    if grid.dim == 1:
        xc = xc[:, 0]
        # xc >= ax[0], so truncation is the floor; fmin sends NaN to a valid index
        j = np.fmin((xc - ax[0]) / h, m - 2).astype(np.int64)
        # the quotient's rounding can land one node off either way
        j -= ax[j] > xc
        j += ax[j + 1] <= xc
        lo, vj = ax[j], values[j]
        # j = m - 1 only on the right end, where xc == lo picks values[j]
        return np.where(xc == lo, vj, slopes.take(j, mode="clip") * (xc - lo) + vj)
    f = (xc - ax[0]) / h
    i = np.clip(f.astype(np.int64), 0, m - 2)
    (ix, iy), (tx, ty) = i.T, (f - i).T
    vals = values.reshape(grid.shape)
    v00 = vals[ix, iy]
    v10 = vals[ix + 1, iy]
    v01 = vals[ix, iy + 1]
    v11 = vals[ix + 1, iy + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def _nearest_node(grid: Grid, x: np.ndarray) -> np.ndarray:
    ax = grid.axis
    m = ax.size
    idx = np.clip(np.rint((x - ax[0]) / grid.spacing).astype(np.int64), 0, m - 1)
    # the row-major flat index, by Horner's rule over the axes
    return reduce(lambda flat, i: flat * m + i, idx.T)


def _per_action(fn, x: np.ndarray, idx: np.ndarray, actions: np.ndarray, shape: tuple) -> np.ndarray:
    """Rows fn(x_i, actions[idx_i]), with one call of ``fn`` per action in use."""
    out = np.empty((len(x),) + shape)
    for ai in np.unique(idx):
        mask = idx == ai
        out[mask] = fn(x[mask], actions[ai])
    return out


def _resolve(model: Model, sol: HjbSolution | None):
    """(drift, running cost) callables of the model under a solve's policy.

    Each path takes the policy's action at its nearest node of the solve's
    grid.  An uncontrolled model, or no solve, uses the first action
    everywhere.
    """
    u0 = model.actions[0]
    fixed = (lambda x: model.drift_at(x, u0)), (lambda x: model.cost_at(x, u0))
    if sol is None:
        return fixed
    grid = sol.grid
    # a solve whose policy was replaced can carry one from another grid
    idx = _policy_indices(model, grid, sol.policy)
    if not model.controlled:
        return fixed

    def by_action(fn, shape):
        return lambda x: _per_action(fn, x, idx[_nearest_node(grid, x)], model.actions, shape)

    return by_action(model.drift_at, (model.dim,)), by_action(model.cost_at, ())


def _run_job(fn, i: int) -> tuple:
    """``(ok, result or exception, warnings)`` of job i; its warnings are recorded, not shown."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            ok, value = True, fn(i)
        except Exception as exc:
            ok, value = False, exc
    return ok, value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _fork_map(fn, n_jobs: int, workers: int) -> list:
    """``[fn(i) for i in range(n_jobs)]`` on up to ``workers`` forked children.

    This process only dispatches.  Each child has its own connection to it;
    the child receives a job index, runs the job and sends back its
    ``(index, outcome)``, and is then sent the lowest job not yet taken.  No
    job above the lowest failure starts, and a child running one is killed.
    A job's result, exception and warnings come back pickled, so they must
    pickle.  The warnings are shown here in job order and the results come
    back in index order; a failure raises what a serial run would raise
    first, the lowest job's exception with its type, message and payload,
    once every job below it has finished.  A child that dies mid-job raises
    ``ChildProcessError``.  Every child is reaped before this returns or
    raises, and a child whose parent dies reads the end of its connection and
    exits.  At most ``os.cpu_count()`` children run; at one worker, or where
    ``os.fork`` is missing, the jobs run here in order.
    """
    workers = min(workers, os.cpu_count() or 1, n_jobs) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [fn(i) for i in range(n_jobs)]
    from multiprocessing import connection   # its import costs ~5 ms, which a serial run skips

    outcomes = {}   # job -> (ok, result or exception, warnings)
    pids = {}       # a child's connection -> its pid, until the child is reaped
    running = {}    # a child's connection -> the job it runs
    next_job = 0

    def dispatch(conn) -> None:
        """Send conn's child the lowest job not yet taken, or end its connection if none may start."""
        nonlocal next_job
        failed = [i for i, (ok, _, _) in outcomes.items() if not ok]
        if next_job < min(failed, default=n_jobs):
            conn.send(next_job)
            running[conn] = next_job
            next_job += 1
        else:
            conn.close()   # the child reads the end and exits

    try:
        for _ in range(workers):
            mine, theirs = connection.Pipe()
            pid = os.fork()
            if pid == 0:
                code = 0
                try:
                    # a sibling's connection held open here would hide the parent's death from it
                    for conn in (mine, *pids):
                        conn.close()
                    while True:
                        i = theirs.recv()
                        theirs.send((i, _run_job(fn, i)))
                except EOFError:
                    pass
                except BaseException:
                    code = 1
                finally:
                    # never return into the caller's stack or flush its stdio
                    os._exit(code)
            theirs.close()
            pids[mine] = pid
        for conn in list(pids):
            dispatch(conn)
        while running:
            for conn in connection.wait(list(running)):
                if conn not in running:
                    continue   # killed since the wait returned
                try:
                    i, outcome = conn.recv()
                except (EOFError, OSError):   # OSError: the end came mid-message
                    conn.close()
                    pid = pids.pop(conn)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(f"pool worker {pid} ended with exit code {code}") from None
                outcomes[i] = outcome
                del running[conn]
                if not outcome[0]:
                    # a job above this failure has nothing left to give
                    for doomed in [c for c, j in running.items() if j > i]:
                        os.kill(pids[doomed], signal.SIGKILL)
                        del running[doomed]
                dispatch(conn)
    finally:
        for conn, pid in pids.items():
            if conn in running:
                os.kill(pid, signal.SIGKILL)
            conn.close()
            os.waitpid(pid, 0)

    failed = [i for i, (ok, _, _) in outcomes.items() if not ok]
    last = min(failed, default=n_jobs - 1)
    for i in range(last + 1):
        for message, category, filename, lineno in outcomes[i][2]:
            warnings.warn_explicit(message, category, filename, lineno)
    if failed:
        raise outcomes[last][1]
    return [outcomes[i][1] for i in range(n_jobs)]


def run_paths(
    drift_fn,
    sigma_apply,
    x0: np.ndarray,
    cfg: SimConfig,
    dim: int,
    integrands=(),
    absorb_radius: float | None = None,
    snapshot_steps=(),
    threads: int = 1,
) -> PathBatch:
    """March all paths to the horizon (or their exit), chunk by chunk.

    Integrands are accumulated with left-endpoint quadrature while a path is
    live; a path is truncated past ``cfg.kill_radius`` and absorbed once
    inside the closed ball of radius ``absorb_radius``, and either freezes
    the state and the accumulators.
    Snapshots record the truncation flags and accumulator copies at fixed
    step counts.  A start on or past the kill radius leaves no path to march.

    The paths are split into equal chunks of at most ``CHUNK_PATHS``, as many
    as a multiple of the ``min(threads, cpu_count, paths)`` workers, which
    ``_fork_map`` runs as its jobs; every chunk returns a ``PathBatch`` of its
    own rows, and the chunks are joined in order.
    """
    if np.linalg.norm(x0) >= cfg.kill_radius:
        raise EstimatorUndefinedError(f"x0 starts outside the kill radius {cfg.kill_radius}")
    n = cfg.paths
    n_steps = cfg.n_steps
    dt = cfg.dt
    sq_dt = math.sqrt(dt)
    snap_set = sorted(set(int(s) for s in snapshot_steps))

    def run_chunk(lo: int, hi: int) -> PathBatch:
        k = hi - lo
        # path p's stream is the seed's child with spawn key (p,), however chunked
        seeds = np.random.SeedSequence(entropy=cfg.seed, n_children_spawned=lo).spawn(k)
        gens = [np.random.Generator(np.random.Philox(s)) for s in seeds]
        # the chunk's rows of the outputs, written as its paths leave
        final = np.full((k, dim), x0, dtype=float)
        truncated = np.zeros(k, bool)
        absorbed = np.zeros(k, bool)
        exit_step = np.full(k, -1, np.int64)
        integrals = [np.zeros(k) for _ in integrands]
        snapshots = {
            s: {"truncated": np.zeros(k, bool), "integrals": [np.zeros(k) for _ in integrands]}
            for s in snap_set
        }
        # compact state of the live paths; `live` holds their rows in the chunk
        live = np.arange(k)
        X = final.copy()
        accs = [np.zeros(k) for _ in integrands]
        # time-major noise of the paths live at the block's start, and a
        # path-major tile that each stream fills before it is transposed in
        noise = np.empty(BLOCK_STEPS * k * dim)
        tile = np.empty((min(k, FILL_TILE), BLOCK_STEPS, dim))
        snap_iter = iter(snap_set)
        next_snap = next(snap_iter, None)

        def record_snaps(upto_step):
            nonlocal next_snap
            while next_snap is not None and next_snap <= upto_step:
                snap = snapshots[next_snap]
                snap["truncated"][:] = truncated
                for dst, src, acc in zip(snap["integrals"], integrals, accs):
                    dst[:] = src
                    dst[live] = acc
                next_snap = next(snap_iter, None)

        step = 0
        while step < n_steps and live.size:
            b = min(BLOCK_STEPS, n_steps - step)
            m = live.size
            xi = noise[: b * m * dim].reshape(b, m, dim)
            # a dead path's stream is never read again, so only live paths draw
            for g0 in range(0, m, FILL_TILE):
                g1 = min(g0 + FILL_TILE, m)
                for j in range(g0, g1):
                    gens[live[j]].standard_normal(out=tile[j - g0, :b])
                xi[:, g0:g1] = tile[: g1 - g0, :b].transpose(1, 0, 2)
            cols = None   # columns of xi still live, once a path has left in this block
            for t in range(b):
                for acc, fn in zip(accs, integrands):
                    acc += fn(X) * dt
                xi_t = xi[t] if cols is None else xi[t, cols]
                X = X + drift_fn(X) * dt + sigma_apply(X, xi_t) * sq_dt
                # in 1-D, |x| == sqrt(fl(x * x)) unless the square over- or underflows
                norms = np.abs(X[:, 0]) if dim == 1 else np.sqrt(sum_squares(X))
                out_now = norms > cfg.kill_radius
                leave = out_now if absorb_radius is None else out_now | (norms <= absorb_radius)
                if leave.any():
                    rows = live[leave]
                    final[rows] = X[leave]
                    for dst, acc in zip(integrals, accs):
                        dst[rows] = acc[leave]
                    truncated[rows] = out_now[leave]
                    absorbed[rows] = ~out_now[leave]
                    exit_step[rows] = step + t + 1
                    keep = ~leave
                    live, X = live[keep], X[keep]
                    accs = [acc[keep] for acc in accs]
                    cols = np.flatnonzero(keep) if cols is None else cols[keep]
                    if not live.size:
                        break
                record_snaps(step + t + 1)
            step += b
        final[live] = X
        for dst, acc in zip(integrals, accs):
            dst[live] = acc
        # the paths are frozen from here on: flush the remaining checkpoints
        record_snaps(n_steps)
        return PathBatch(cfg, final, truncated, absorbed, exit_step, integrals, snapshots)

    workers = min(threads, os.cpu_count() or 1, n)
    n_chunks = -(-n // CHUNK_PATHS)
    n_chunks += -n_chunks % workers
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    parts = _fork_map(lambda c: run_chunk(bounds[c], bounds[c + 1]), n_chunks, workers)

    # every output joins its chunks' rows in chunk order
    return PathBatch(cfg, *(
        _join([getattr(p, name) for p in parts])
        for name in ("final", "truncated", "absorbed", "exit_step", "integrals", "snapshots")
    ))


def _join(parts: list):
    """Arrays joined along the path axis, position by position through lists and dicts."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([p[key] for p in parts]) for key in first}
    if isinstance(first, list):
        return [_join(list(col)) for col in zip(*parts)]
    return np.concatenate(parts)


def _batch_means_log(log_values: np.ndarray, scale: float) -> float:
    """Stderr of a logsumexp-mean estimator by batch means on the log scale."""
    nb = min(DEFAULT_BATCHES, log_values.size)
    if nb < 2:
        return float("inf")
    splits = np.array_split(log_values, nb)
    vals = np.array([(logsumexp(s) - math.log(s.size)) / scale for s in splits])
    return float(np.std(vals, ddof=1) / math.sqrt(nb))


def fk_lambda(
    model: Model,
    sol: HjbSolution | None,
    x0,
    cfg: SimConfig,
    threads: int = 1,
) -> FkEstimate:
    """Risk-sensitive growth rate (1/T) log E[exp of the path cost integral].

    Paths run under the solve's policy (the first action without one).  The
    expectation is over surviving paths; truncated paths are excluded from
    the average and reported via truncated_fraction.
    """
    x = _as_state(x0, model.dim)
    min_c = float(model.min_cost(x[None, :])[0])
    if cfg.horizon * min_c < 1.0:
        warnings.warn(
            f"horizon {cfg.horizon} x running cost {min_c:.3g} at x0 is below 1; "
            "the finite-horizon bias may dominate",
            stacklevel=2,
        )
    drift_fn, cost_fn = _resolve(model, sol)
    batch = run_paths(
        drift_fn, _sigma_action(model), x, cfg, model.dim,
        integrands=(cost_fn,), threads=threads,
    )
    keep = ~batch.truncated
    used = int(keep.sum())
    if used == 0:
        raise EstimatorUndefinedError("every path crossed the kill radius")
    ints = batch.integrals[0][keep]
    t_total = cfg.n_steps * cfg.dt
    value = (float(logsumexp(ints)) - math.log(used)) / t_total
    stderr = _batch_means_log(ints, t_total)
    return FkEstimate(value, stderr, used, 1.0 - used / cfg.paths)


def _march_to_ball(model: Model, sol: HjbSolution | None, lam: float, delta: float, r: float,
                   x0, cfg: SimConfig, threads: int):
    """March paths from x0 into the closed ball of radius r, integrating f - lambda (+ delta).

    Returns the start state, the batch and the fraction of paths that never entered.
    """
    x = _as_state(x0, model.dim)
    if np.linalg.norm(x) <= r:
        raise ValueError(f"x0 must start outside the ball of radius {r}")
    drift_fn, cost_fn = _resolve(model, sol)
    if delta:
        shifted = lambda pts: cost_fn(pts) - lam + delta
    else:
        shifted = lambda pts: cost_fn(pts) - lam
    batch = run_paths(
        drift_fn, _sigma_action(model), x, cfg, model.dim,
        integrands=(shifted,), absorb_radius=r, threads=threads,
    )
    return x, batch, 1.0 - float(batch.absorbed.sum()) / cfg.paths


def exit_representation_check(
    model: Model,
    sol: HjbSolution,
    r: float,
    x0,
    cfg: SimConfig,
    threads: int = 1,
) -> FkEstimate:
    """Check E[exp(int_0^tau (f - lambda)) Psi(X_tau)] / Psi(x0) = 1.

    tau is the first entry into the closed ball of radius r, with paths
    under the solve's policy; the eigenfunction is interpolated
    multilinearly from the solve's grid.
    """
    grid, v = sol.grid, sol.eigenpair.v
    x, batch, frac_lost = _march_to_ball(model, sol, sol.eigenpair.eigenvalue, 0.0, r, x0, cfg, threads)
    if frac_lost > 0.5:
        raise UnreliableEstimateError(
            f"{frac_lost:.1%} of paths never entered the ball; the exit "
            "representation cannot be estimated from this run",
            payload={"truncated_fraction": frac_lost},
        )
    got = batch.absorbed
    psi = field_interpolant(grid, v)
    psi_exit = psi(batch.final[got])
    psi_start = float(psi(x[None, :])[0])
    log_terms = batch.integrals[0][got] + np.log(psi_exit) - math.log(psi_start)
    n_used = int(got.sum())
    ratio = math.exp(float(logsumexp(log_terms)) - math.log(n_used))
    # delta-method transfer of the log-scale batch spread to the ratio
    log_se = _batch_means_log(log_terms, 1.0)
    return FkEstimate(ratio, ratio * log_se, n_used, frac_lost)


@dataclass
class ExitMomentReport:
    estimate: FkEstimate
    verdict: str
    schedule: list[tuple[float, float]]
    max_path_share: float


def exit_exponential_moment(
    model: Model,
    sol: HjbSolution | None,
    lam: float,
    delta: float,
    r: float,
    x0,
    cfg: SimConfig,
    threads: int = 1,
) -> ExitMomentReport:
    """Estimate E[exp(int_0^tau (f - lambda + delta))] and judge its finiteness.

    Statistical verdict, not a proof: the estimate is recomputed on a doubling
    horizon schedule; "finite-consistent" needs the schedule to stabilize, the
    truncated fraction to stay under 1%, and no single path to dominate the
    sum.  Everything else is "divergence-suspected".
    """
    # delta = 0 is the degenerate identity check E[exp(int (f - lambda))] = 1
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    _, batch, frac_lost = _march_to_ball(model, sol, lam, delta, r, x0, cfg, threads)
    got = batch.absorbed
    n = cfg.paths
    if not got.any():
        raise EstimatorUndefinedError("no path entered the ball before the horizon")

    tau = batch.exit_times[got]
    log_w = batch.integrals[0][got]

    def log_estimate(t_cut: float) -> float:
        sel = tau <= t_cut
        if not sel.any():
            return -math.inf
        return float(logsumexp(log_w[sel])) - math.log(n)

    horizons = [cfg.horizon * 2.0 ** (k - DOUBLINGS) for k in range(DOUBLINGS + 1)]
    schedule = [(t, math.exp(min(log_estimate(t), 700.0))) for t in horizons]

    log_final = log_estimate(cfg.horizon)
    max_share = math.exp(float(np.max(log_w)) - float(logsumexp(log_w)))
    log_prev = log_estimate(cfg.horizon / 2.0)
    growth = log_final - log_prev if math.isfinite(log_prev) else math.inf
    rel_se = _batch_means_log(log_w, 1.0)

    stabilized = growth <= max(0.05, 3.0 * rel_se)
    verdict = (
        "finite-consistent"
        if stabilized and frac_lost < 0.01 and max_share < 0.30
        else "divergence-suspected"
    )
    est = FkEstimate(math.exp(min(log_final, 700.0)), rel_se, int(got.sum()), frac_lost)
    return ExitMomentReport(est, verdict, schedule, max_share)


@dataclass
class GammaIntegralReport:
    values: list[tuple[float, float]]   # (t, g(t))
    verdict: str
    fitted_rate: float
    plateau: float
    truncated_fraction: float


def gamma_integral(
    model: Model,
    sol: HjbSolution | None,
    lam: float,
    x0,
    cfg: SimConfig,
    threads: int = 1,
) -> GammaIntegralReport:
    """Track g(t) = E[exp(int_0^t (f - lambda))] on a geometric t-schedule.

    A positive plateau means the time integral of g diverges
    ("divergent-consistent"); geometric decay of g means it converges
    ("convergent-suspected").  The plateau test compares log g at the last
    two horizons against max(0.15, 3 stderr).
    """
    x = _as_state(x0, model.dim)
    drift_fn, cost_fn = _resolve(model, sol)
    shifted = lambda pts: cost_fn(pts) - lam
    snap_steps = [max(1, int(round(cfg.n_steps * 2.0 ** (k - DOUBLINGS)))) for k in range(DOUBLINGS + 1)]
    batch = run_paths(
        drift_fn, _sigma_action(model), x, cfg, model.dim,
        integrands=(shifted,), snapshot_steps=snap_steps, threads=threads,
    )

    # a truncated path stays truncated, so a path alive at the last
    # checkpoint is alive at every earlier one
    if batch.snapshots[snap_steps[-1]]["truncated"].all():
        raise EstimatorUndefinedError("every path crossed the kill radius before the last checkpoint")
    points: list[tuple[float, float, float]] = []   # (t, log g, stderr of log g)
    for s in snap_steps:
        snap = batch.snapshots[s]
        ints = snap["integrals"][0][~snap["truncated"]]
        log_g = float(logsumexp(ints)) - math.log(ints.size)
        points.append((s * cfg.dt, log_g, _batch_means_log(ints, 1.0)))

    (t_prev, lg_prev, se_prev), (t_last, lg_last, se_last) = points[-2], points[-1]
    diff = lg_last - lg_prev
    band = max(0.15, 3.0 * math.hypot(se_prev, se_last))
    verdict = "convergent-suspected" if diff < -band else "divergent-consistent"
    rate = -diff / (t_last - t_prev)
    plateau = math.exp(min(lg_last, 700.0))
    return GammaIntegralReport(
        values=[(t, math.exp(min(lg, 700.0))) for t, lg, _ in points],
        verdict=verdict,
        fitted_rate=float(rate),
        plateau=plateau,
        truncated_fraction=float(batch.snapshots[snap_steps[-1]]["truncated"].mean()),
    )
